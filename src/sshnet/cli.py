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
from dataclasses import fields, replace
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


def _int_at_least(lo):
    """An argparse type: an integer no smaller than ``lo``."""
    def parse(text):
        value = int(text)
        if value < lo:
            raise argparse.ArgumentTypeError("must be >= %d, got %d" % (lo, value))
        return value
    return parse


def _model_for(dims, args):
    """The model preset whose geometry the dataset has, with the model
    flags applied."""
    (small, _), (full, _) = presets = [preset("small"), preset("full")]
    model_cfg = next((pm for pd, pm in presets if pd == dims), None)
    if model_cfg is None:
        raise ConfigError("dataset geometry %s matches neither the small preset %s nor "
                          "the full preset %s" % (dims.to_dict(), small.to_dict(),
                                                  full.to_dict()))
    return replace(model_cfg, **dict(_model_overrides(args).values()))


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
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


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
        model.remove_checkpoint(out)   # an older single-mode layout
    else:
        doc.update(_train_one(bundles, texts, manifest.dims, model_cfg, cfg,
                              args.mode, out))
        (out / "hybrid.json").unlink(missing_ok=True)   # else eval reads an older hybrid
        for sub in ("region", "grid"):
            model.remove_checkpoint(out / sub)
    _emit(doc)
    return 0


def _checkpoint(ckpt, dims, mode="auto"):
    """Parameters, config, dims and resolved mode of a saved model, which
    must have the dataset geometry ``dims``."""
    params, cfg, ckpt_dims, meta = model.load_checkpoint(ckpt)
    if ckpt_dims != dims:
        raise ConfigError("checkpoint %s has geometry %s, the dataset %s"
                          % (ckpt, ckpt_dims.to_dict(), dims.to_dict()))
    if mode == "auto":
        mode = meta.get("mode", "region")
    return params, cfg, dims, mode


def _check_folds(n_images: int, folds: int = 1):
    """Refuse, before anything is embedded, folds ``evaluate`` would refuse."""
    need = max(retrieval.DEFAULT_KS)   # recall@need ranks each fold's images
    if folds > 1 and (n_images % folds or n_images // folds < need):
        raise ConfigError("%d images in %d folds (--folds) give %.10g images per fold; "
                          "recall@%d needs a whole number of at least %d candidates per "
                          "fold" % (n_images, folds, n_images / folds, need, need))
    if n_images < need:
        raise ConfigError("%d images are too few: recall@%d needs at least %d "
                          "candidates" % (n_images, need, need))


def _report(bundles, texts, models, folds=1):
    """Recalls of one ``(params, cfg, dims, mode)`` model, or of the
    rank-averaged fusion of two, over ``folds`` contiguous folds."""
    sims = []
    for params, cfg, dims, mode in models:
        table = model.embed_dataset(bundles, texts, params, cfg, dims, mode=mode)
        sims.append(retrieval.similarity_matrix(table.image_embs, table.text_embs))
    return retrieval.report(sims, table.image_index, mode if len(sims) == 1 else "hybrid",
                            folds)


def cmd_eval(args) -> int:
    ckpt = Path(args.ckpt) if args.ckpt else None
    hybrid = ckpt is not None and (ckpt / "hybrid.json").exists()
    if ckpt is not None:
        # the checkpoint fixes the model, and a hybrid one each member's mode
        ignored = list(_model_overrides(args)) + [flag for flag, given in (
            ("--seed", args.seed is not None), ("--mode", hybrid and args.mode != "auto"))
            if given]
        if ignored:
            raise ConfigError("%s cannot apply to the %scheckpoint %s"
                              % (", ".join(ignored), "hybrid " if hybrid else "", ckpt))
    bundles, texts, manifest = _load(args.data)
    _check_folds(len(bundles), args.folds)
    if hybrid:
        models = [_checkpoint(ckpt / sub, manifest.dims) for sub in ("region", "grid")]
    elif ckpt is not None:
        models = [_checkpoint(ckpt, manifest.dims, args.mode)]
    else:
        # untrained evaluation: seed-initialised parameters
        model_cfg = _model_for(manifest.dims, args)
        models = [(model.init_params(model_cfg, manifest.dims, args.seed or 0), model_cfg,
                   manifest.dims, "region" if args.mode == "auto" else args.mode)]
    report = _report(bundles, texts, models, args.folds)
    _emit(report.to_dict(), report.table(), args.pretty)
    return 0


def cmd_ensemble_eval(args) -> int:
    bundles, texts, manifest = _load(args.data)
    _check_folds(len(bundles))
    report = _report(bundles, texts, [_checkpoint(ckpt, manifest.dims)
                                      for ckpt in (args.ckpt_a, args.ckpt_b)])
    _emit(report.to_dict(), report.table(), args.pretty)
    return 0


def _unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def cmd_bench(args) -> int:
    ignored = [flag for flag, value in (("--pool", args.pool),
                                        ("--recompute-queries", args.recompute_queries))
               if value is not None and args.mode == "precomputed"]
    if ignored:
        raise ConfigError("%s cannot apply to bench --mode precomputed" % ", ".join(ignored))
    dims, model_cfg = preset(args.dims)
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
        pool = featureio.random_bundles(dims, args.pool or 32, args.seed + 1)
        prepared = [model.prepare_image(b, dims, model_cfg) for b in pool]
        params = model.init_params(model_cfg, dims, args.seed)
        results["recompute"] = retrieval.bench_kpps(
            table, queries[:args.recompute_queries or 100], "recompute",
            recompute=lambda qi: model.visual_forward(
                [prepared[qi % len(prepared)]], params, model_cfg).data[0],
            top_k=args.top_k, trials=args.trials)
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

    def add(name, fn, about, seed=0):
        """A subcommand whose --seed defaults to ``seed``; ``False`` leaves
        out the flag."""
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(func=fn)
        if seed is not False:
            sp.add_argument("--seed", type=_int_at_least(0), default=seed)
        return sp

    sp = add("synth", cmd_synth, "write a planted synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--images", type=int, default=64)
    sp.add_argument("--captions", type=int, default=5)
    sp.add_argument("--dims", choices=["small", "full"], default="small")
    sp.add_argument("--noise", type=float, default=0.05)

    sp = add("train", cmd_train, "train a joint embedding")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=["region", "grid", "hybrid"],
                    default="region")
    for f in fields(TrainConfig):   # --margin ... --epochs; --seed comes from add()
        if f.name != "seed":
            sp.add_argument("--" + f.name.replace("_", "-"),
                            type={"int": int, "float": float}[f.type], default=f.default)
    _add_model_flags(sp)

    sp = add("eval", cmd_eval, "evaluate retrieval recall", seed=None)
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt")
    sp.add_argument("--mode", choices=["auto", "region", "grid"],
                    default="auto")
    sp.add_argument("--folds", type=_int_at_least(1), default=1)
    _add_model_flags(sp)
    sp.add_argument("--pretty", action="store_true")

    sp = add("ensemble-eval", cmd_ensemble_eval, "rank-average two checkpoints",
             seed=False)
    sp.add_argument("--data", required=True)
    sp.add_argument("--ckpt-a", required=True)
    sp.add_argument("--ckpt-b", required=True)
    sp.add_argument("--pretty", action="store_true")

    sp = add("bench", cmd_bench, "measure retrieval throughput")
    sp.add_argument("--mode", choices=["precomputed", "recompute", "both"],
                    default="both")
    sp.add_argument("--dims", choices=["small", "full"], default="full")
    sp.add_argument("--images", type=_int_at_least(1), default=1000)
    sp.add_argument("--queries", type=_int_at_least(1), default=1000)
    # recompute only; 100 and 32 when not given
    sp.add_argument("--recompute-queries", type=_int_at_least(1))
    sp.add_argument("--pool", type=_int_at_least(1))
    sp.add_argument("--top-k", type=int, default=10)
    sp.add_argument("--trials", type=int, default=5)

    sp = add("gradcheck", cmd_gradcheck, "finite-difference check of the full loss")
    sp.add_argument("--dims", choices=["default", "small", "full"],
                    default="default")
    sp.add_argument("--batch", type=int, default=4)
    sp.add_argument("--eps", type=float, default=1e-5)
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--sample", type=int)
    sp.add_argument("--embed-dim", type=int)

    add("selfcheck", cmd_selfcheck, "run the invariant battery")
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
