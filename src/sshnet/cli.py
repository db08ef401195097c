"""Command-line entry point.

Subcommands: synth, train, eval, ensemble-eval, bench, gradcheck,
selfcheck.  Machine-readable JSON goes to stdout (tables with --pretty);
exit codes are 0 on success, 1 for validation problems, 2 for runtime
failures.  All randomness sits behind --seed.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import checks, featureio, model, objective, retrieval
from .config import preset
from .errors import ConfigError, GradCheckError, SshnetError, TrainingError
from .objective import TrainConfig


class _Parser(argparse.ArgumentParser):
    """argparse exits with 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print("%s: error: %s" % (self.prog, message), file=sys.stderr)
        raise SystemExit(1)


def _emit(doc: dict, pretty_text: str | None = None, pretty: bool = False):
    if pretty and pretty_text is not None:
        print(pretty_text)
    else:
        print(json.dumps(doc, indent=2, sort_keys=True))


def _model_for(dims, args):
    """The model preset of ``--dims`` with the model flags applied;
    ``auto`` picks the preset whose geometry the dataset has."""
    choice = args.dims
    if choice == "auto":
        choice = next((name for name in ("small", "full") if preset(name)[0] == dims),
                      None)
        if choice is None:
            raise ConfigError("dataset geometry matches no preset; pass --dims")
    pd, pm = preset(choice)
    if pd != dims:
        raise ConfigError("--dims %s does not match the dataset geometry" % choice)
    return replace(pm, **dict(_model_overrides(args).values()))


def _add_model_flags(sp):
    """The model overrides shared by ``train`` and untrained ``eval``."""
    sp.add_argument("--salience", choices=["sigmoid", "softmax"])
    sp.add_argument("--attn-smooth", type=float)
    sp.add_argument("--embed-dim", type=int)
    sp.add_argument("--no-vsem", action="store_true")
    sp.add_argument("--no-vspm", action="store_true")


def _model_overrides(args) -> dict:
    """``flag -> (ModelConfig field, value)`` for each model flag given."""
    return {flag: (field, value) for flag, field, value in (
        ("--salience", "salience_mode", args.salience),
        ("--attn-smooth", "attn_smooth", args.attn_smooth),
        ("--embed-dim", "embed_dim", args.embed_dim),
        ("--no-vsem", "use_vsem", False if args.no_vsem else None),
        ("--no-vspm", "use_vspm", False if args.no_vspm else None)) if value is not None}


def _train_config(args) -> TrainConfig:
    return TrainConfig(margin=args.margin, lr=args.lr,
                       weight_decay=args.weight_decay,
                       batch_size=args.batch_size, epochs=args.epochs,
                       seed=args.seed)


def _load(data_dir):
    manifest_path = Path(data_dir)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.json"
    return featureio.load_dataset(manifest_path)


# ---------------------------------------------------------------------------
# subcommands


def cmd_synth(args) -> int:
    dims, _ = preset(args.dims)
    path = featureio.synth_dataset(args.out, args.images, args.captions,
                                   args.seed, dims, noise=args.noise)
    _emit({"manifest": str(path), "images": args.images,
           "sentences": args.images * args.captions, "seed": args.seed,
           "dims": dims.to_dict()})
    return 0


def _train_one(bundles, texts, dims, model_cfg, cfg, mode, out_dir) -> dict:
    """Train and save one mode's checkpoint; returns the run summary."""
    res = objective.train(bundles, texts, dims, model_cfg, cfg, mode=mode)
    meta = {"mode": mode, "train": cfg.to_dict(),
            "final_loss": res.loss_curve[-1], "epochs_run": res.epochs_run}
    model.save_checkpoint(out_dir, res.params, model_cfg, dims, meta)
    return {"final_loss": res.loss_curve[-1], "epochs_run": res.epochs_run,
            "loss_curve": res.loss_curve, "elapsed_s": res.elapsed_s}


def cmd_train(args) -> int:
    bundles, texts, manifest = _load(args.data)
    model_cfg = _model_for(manifest.dims, args)
    cfg = _train_config(args)
    out = Path(args.out)
    doc = {"out": str(out), "mode": args.mode, "train": cfg.to_dict(),
           "model": model_cfg.to_dict()}
    if args.mode == "hybrid":
        doc["runs"] = {sub: _train_one(bundles, texts, manifest.dims, model_cfg, cfg,
                                       sub, out / sub) for sub in ("region", "grid")}
        (out / "hybrid.json").write_text(json.dumps({"mode": "hybrid"}))
    else:
        doc.update(_train_one(bundles, texts, manifest.dims, model_cfg, cfg,
                              args.mode, out))
    _emit(doc)
    return 0


def _checkpoint(ckpt, mode):
    """Parameters, config, dims and resolved mode of a saved model."""
    params, cfg, dims, meta = model.load_checkpoint(ckpt)
    if mode == "auto":
        mode = meta.get("mode", "region")
    return params, cfg, dims, mode


def _similarity(bundles, texts, params, cfg, dims, mode):
    table = model.embed_dataset(bundles, texts, params, cfg, dims, mode=mode)
    sim = retrieval.similarity_matrix(table.image_embs, table.text_embs)
    return sim, table.image_index


def _check_folds(n_images: int, folds: int = 1):
    """Refuse, before anything is embedded, folds ``evaluate`` would refuse."""
    need = max(retrieval.DEFAULT_KS)   # recall@need ranks each fold's images
    if folds < 1:
        raise ConfigError("--folds must be >= 1, got %d" % (folds,))
    if n_images % folds or n_images // folds < need:
        raise ConfigError("%d images in %d fold(s) (--folds) give %.10g images per fold; "
                          "recall@%d needs a whole number of at least %d candidates per "
                          "fold" % (n_images, folds, n_images / folds, need, need))


def _ensemble_report(bundles, texts, ckpt_a, ckpt_b):
    sim_a, image_index = _similarity(bundles, texts,
                                     *_checkpoint(ckpt_a, "auto"))
    sim_b, _ = _similarity(bundles, texts, *_checkpoint(ckpt_b, "auto"))
    return retrieval.ensemble_eval(sim_a, sim_b, image_index)


def cmd_eval(args) -> int:
    ckpt = Path(args.ckpt) if args.ckpt else None
    hybrid = ckpt is not None and (ckpt / "hybrid.json").exists()
    if ckpt is not None:
        # the checkpoint fixes the model; a hybrid one is a whole-set ensemble
        ignored = list(_model_overrides(args)) + [flag for flag, given in (
            ("--dims", args.dims != "auto"), ("--folds", hybrid and args.folds != 1),
            ("--mode", hybrid and args.mode != "auto")) if given]
        if ignored:
            raise ConfigError("%s cannot apply to the %scheckpoint %s"
                              % (", ".join(ignored), "hybrid " if hybrid else "", ckpt))
    bundles, texts, manifest = _load(args.data)
    _check_folds(len(bundles), args.folds)
    if hybrid:
        report = _ensemble_report(bundles, texts, ckpt / "region",
                                  ckpt / "grid")
    else:
        if ckpt is not None:
            params, model_cfg, dims, mode = _checkpoint(ckpt, args.mode)
        else:
            # untrained evaluation: seed-initialised parameters
            dims = manifest.dims
            model_cfg = _model_for(dims, args)
            params = model.init_params(model_cfg, dims, args.seed)
            mode = "region" if args.mode == "auto" else args.mode
        sim, image_index = _similarity(bundles, texts, params, model_cfg,
                                       dims, mode)
        if args.folds != 1:
            report = retrieval.fivefold_eval(sim, image_index,
                                             folds=args.folds, mode=mode)
        else:
            report = retrieval.evaluate(sim, image_index, mode=mode)
    _emit(report.to_dict(), report.table(), args.pretty)
    return 0


def cmd_ensemble_eval(args) -> int:
    bundles, texts, _ = _load(args.data)
    _check_folds(len(bundles))
    report = _ensemble_report(bundles, texts, args.ckpt_a, args.ckpt_b)
    _emit(report.to_dict(), report.table(), args.pretty)
    return 0


def _unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def cmd_bench(args) -> int:
    dims, model_cfg = preset(args.dims)
    # these counts shape the generated inputs before bench_kpps sees them
    for flag in ("images", "queries", "recompute_queries", "pool"):
        if getattr(args, flag) < 1:
            raise ConfigError("--%s must be >= 1, got %d"
                              % (flag.replace("_", "-"), getattr(args, flag)))
    rng = np.random.default_rng(args.seed)
    table = _unit_rows(rng, args.images, model_cfg.embed_dim)
    queries = _unit_rows(rng, args.queries, model_cfg.embed_dim)
    doc = {"dims": args.dims, "images": args.images, "trials": args.trials}
    results = {}
    if args.mode in ("precomputed", "both"):
        results["precomputed"] = retrieval.bench_kpps(
            table, queries, "precomputed", top_k=args.top_k,
            trials=args.trials)
    if args.mode in ("recompute", "both"):
        pool = featureio.random_bundles(dims, args.pool, args.seed + 1)
        prepared = [model.prepare_image(b, dims, model_cfg) for b in pool]
        setup = retrieval.RecomputeSetup(
            model.init_params(model_cfg, dims, args.seed), model_cfg, prepared)
        results["recompute"] = retrieval.bench_kpps(
            table, queries[:args.recompute_queries], "recompute",
            recompute=setup, top_k=args.top_k, trials=args.trials)
    doc.update({k: v.to_dict() for k, v in results.items()})
    if len(results) == 2:
        doc["speedup"] = (results["precomputed"].kpps
                          / results["recompute"].kpps)
    _emit(doc)
    return 0


def cmd_gradcheck(args) -> int:
    if args.dims == "default":
        dims, cfg = checks.GRADCHECK_DIMS, checks.GRADCHECK_MODEL
    else:
        dims, cfg = preset(args.dims)
    if args.embed_dim is not None:
        cfg = replace(cfg, embed_dim=args.embed_dim)
    res = checks.full_loss_grad_check(dims, cfg, n_images=args.batch,
                                      seed=args.seed, eps=args.eps,
                                      tol=args.tol, sample=args.sample)
    _emit(res.to_dict())
    return 0 if res.report.passed else 2


def cmd_selfcheck(args) -> int:
    out = checks.selfcheck(seed=args.seed)
    _emit(out)
    return 0 if out["passed"] else 2


# ---------------------------------------------------------------------------
# parser


def build_parser() -> _Parser:
    p = _Parser(prog="sshnet",
                description="Joint image-sentence embedding and retrieval "
                            "with segmentation-guided semantic and spatial enhancement.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        sp = sub.add_parser(name, **kw)
        sp.set_defaults(func=fn)
        sp.add_argument("--seed", type=int, default=0)
        return sp

    sp = add("synth", cmd_synth, help="write a planted synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--images", type=int, default=64)
    sp.add_argument("--captions", type=int, default=5)
    sp.add_argument("--dims", choices=["small", "full"], default="small")
    sp.add_argument("--noise", type=float, default=0.05)

    sp = add("train", cmd_train, help="train a joint embedding")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=["region", "grid", "hybrid"],
                    default="region")
    sp.add_argument("--dims", choices=["auto", "small", "full"],
                    default="auto")
    sp.add_argument("--epochs", type=int, default=25)
    sp.add_argument("--batch-size", type=int, default=256)
    sp.add_argument("--lr", type=float, default=5e-4)
    sp.add_argument("--margin", type=float, default=0.2)
    sp.add_argument("--weight-decay", type=float, default=1e-4)
    _add_model_flags(sp)

    sp = add("eval", cmd_eval, help="evaluate retrieval recall")
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt")
    sp.add_argument("--mode", choices=["auto", "region", "grid"],
                    default="auto")
    sp.add_argument("--dims", choices=["auto", "small", "full"],
                    default="auto")
    sp.add_argument("--folds", type=int, default=1)
    _add_model_flags(sp)
    sp.add_argument("--pretty", action="store_true")

    sp = add("ensemble-eval", cmd_ensemble_eval,
             help="rank-average two checkpoints")
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt-a", required=True)
    sp.add_argument("--ckpt-b", required=True)
    sp.add_argument("--pretty", action="store_true")

    sp = add("bench", cmd_bench, help="measure retrieval throughput")
    sp.add_argument("--mode", choices=["precomputed", "recompute", "both"],
                    default="both")
    sp.add_argument("--dims", choices=["small", "full"], default="full")
    sp.add_argument("--images", type=int, default=1000)
    sp.add_argument("--queries", type=int, default=1000)
    sp.add_argument("--recompute-queries", type=int, default=100)
    sp.add_argument("--pool", type=int, default=32)
    sp.add_argument("--top-k", type=int, default=10)
    sp.add_argument("--trials", type=int, default=5)

    sp = add("gradcheck", cmd_gradcheck,
             help="finite-difference check of the full loss")
    sp.add_argument("--dims", choices=["default", "small", "full"],
                    default="default")
    sp.add_argument("--batch", type=int, default=4)
    sp.add_argument("--eps", type=float, default=1e-5)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--sample", type=int)
    sp.add_argument("--embed-dim", type=int)

    add("selfcheck", cmd_selfcheck, help="run the invariant battery")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TrainingError, GradCheckError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except (SshnetError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
