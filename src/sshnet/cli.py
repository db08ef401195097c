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
from .config import PRESETS, SALIENCE_MODES, either, preset
from .errors import ConfigError, FormatError, GradCheckError, SshnetError, TrainingError
from .objective import TrainConfig

# flag -> (ModelConfig field, argparse keywords) of the model flags of ``train``
# and untrained ``eval``; a flag not given parses to None
MODEL_FLAGS = {"--salience": ("salience_mode", {"choices": SALIENCE_MODES}),
               "--attn-smooth": ("attn_smooth", {"type": float}),
               "--embed-dim": ("embed_dim", {"type": int}),
               "--no-vsem": ("use_vsem", {"action": "store_false", "default": None}),
               "--no-vspm": ("use_vspm", {"action": "store_false", "default": None})}
HYBRID_MARKER = "hybrid.json"   # marks a hybrid checkpoint: one member per mode under it


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
    """The model of the preset whose geometry the dataset has, with the
    model flags applied."""
    model_cfg = next((pm for pd, pm in PRESETS.values() if pd == dims), None)
    if model_cfg is None:
        presets = " nor ".join("the %s preset %s" % (name, pd.to_dict())
                               for name, (pd, _) in PRESETS.items())
        raise ConfigError("dataset geometry %s matches neither %s" % (dims.to_dict(), presets))
    return replace(model_cfg, **dict(_model_overrides(args).values()))


def _model_overrides(args) -> dict:
    """``flag -> (ModelConfig field, value)`` for each model flag given."""
    return {flag: (field, getattr(args, field)) for flag, (field, _) in MODEL_FLAGS.items()
            if getattr(args, field) is not None}


def _refuse(target, given):
    """ConfigError for the flags of ``given`` (flag -> value) whose value is not None."""
    if flags := [flag for flag, value in given.items() if value is not None]:
        raise ConfigError("%s cannot apply to %s" % (", ".join(flags), target))


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{f.name: getattr(args, f.name) for f in fields(TrainConfig)})


def _manifest_path(data):
    """An argparse type: ``--data``, a manifest or the directory holding it."""
    path = Path(data)
    return path / "manifest.json" if path.is_dir() else path


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
    manifest = featureio.load_manifest(args.data)
    model_cfg = _model_for(manifest.dims, args)
    cfg = _train_config(args)
    objective.caption_lookup(manifest.image_index, len(manifest.images))
    modes = tuple(featureio.MODE_ARRAYS) if args.mode == "hybrid" else (args.mode,)
    bundles, texts, _ = featureio.load_dataset(manifest, modes)
    out = Path(args.out)
    doc = {"out": str(out), "mode": args.mode, "train": cfg.to_dict(),
           "model": model_cfg.to_dict()}
    if args.mode == "hybrid":
        doc["runs"] = {sub: _train_one(bundles, texts, manifest.dims, model_cfg, cfg,
                                       sub, out / sub) for sub in modes}
        (out / HYBRID_MARKER).write_text(json.dumps({"mode": "hybrid"}))
        model.remove_checkpoint(out)   # an older single-mode layout
    else:
        doc.update(_train_one(bundles, texts, manifest.dims, model_cfg, cfg,
                              args.mode, out))
        (out / HYBRID_MARKER).unlink(missing_ok=True)   # else eval reads an older hybrid
        for sub in featureio.MODE_ARRAYS:
            model.remove_checkpoint(out / sub)
    _emit(doc)
    return 0


def _checkpoint(ckpt, dims, mode="auto"):
    """Parameters, config and resolved mode of a saved model, which must have
    the dataset geometry ``dims`` and save a mode of MODE_ARRAYS, or none."""
    params, cfg, ckpt_dims, meta = model.load_checkpoint(ckpt)
    if ckpt_dims != dims:
        raise ConfigError("checkpoint %s has geometry %s, the dataset %s"
                          % (ckpt, ckpt_dims.to_dict(), dims.to_dict()))
    saved = meta.get("mode", "region")
    if not isinstance(saved, str) or saved not in featureio.MODE_ARRAYS:
        raise FormatError("checkpoint %s has mode %r, not %s"
                          % (ckpt, saved, either(featureio.MODE_ARRAYS)))
    return params, cfg, saved if mode == "auto" else mode


def _report(manifest, models, pretty, folds=1) -> int:
    """Print the recalls of one ``(params, cfg, mode)`` model, or the rank-averaged
    fusion of two, over ``folds`` folds of ``manifest``, read for those modes alone."""
    bundles, texts, _ = featureio.load_dataset(manifest, [mode for *_, mode in models])
    sims = []
    for params, cfg, mode in models:
        table = model.embed_dataset(bundles, texts, params, cfg, manifest.dims, mode=mode)
        sims.append(retrieval.similarity_matrix(table.image_embs, table.text_embs))
    report = retrieval.report(sims, table.image_index, mode if len(sims) == 1 else "hybrid",
                              folds)
    _emit(report.to_dict(), report.table(), pretty)
    return 0


def cmd_eval(args) -> int:
    ckpt = Path(args.ckpt) if args.ckpt else None
    hybrid = ckpt is not None and (ckpt / HYBRID_MARKER).exists()
    if ckpt is not None:
        # the checkpoint fixes the model, and a hybrid one each member's mode
        _refuse("the %scheckpoint %s" % ("hybrid " if hybrid else "", ckpt),
                {**_model_overrides(args), "--seed": args.seed,
                 "--mode": args.mode if hybrid and args.mode != "auto" else None})
    manifest = featureio.load_manifest(args.data)
    retrieval.fold_size(manifest.image_index, len(manifest.images), args.folds)
    if hybrid:
        models = [_checkpoint(ckpt / sub, manifest.dims) for sub in featureio.MODE_ARRAYS]
    elif ckpt is not None:
        models = [_checkpoint(ckpt, manifest.dims, args.mode)]
    else:
        # untrained evaluation: seed-initialised parameters
        model_cfg = _model_for(manifest.dims, args)
        models = [(model.init_params(model_cfg, manifest.dims, args.seed or 0), model_cfg,
                   "region" if args.mode == "auto" else args.mode)]
    return _report(manifest, models, args.pretty, args.folds)


def cmd_ensemble_eval(args) -> int:
    manifest = featureio.load_manifest(args.data)
    retrieval.fold_size(manifest.image_index, len(manifest.images))
    return _report(manifest, [_checkpoint(ckpt, manifest.dims)
                              for ckpt in (args.ckpt_a, args.ckpt_b)], args.pretty)


def _unit_rows(rng, n, d):
    rows = rng.standard_normal((n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def cmd_bench(args) -> int:
    if args.mode == "precomputed":
        _refuse("bench --mode precomputed",
                {"--pool": args.pool, "--recompute-queries": args.recompute_queries})
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
    dims, cfg = {"default": (checks.GRADCHECK_DIMS, checks.GRADCHECK_MODEL),
                 **PRESETS}[args.dims]
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

    def add_model_flags(sp):
        for flag, (field, keywords) in MODEL_FLAGS.items():
            sp.add_argument(flag, dest=field, **keywords)

    sp = add("synth", cmd_synth, "write a planted synthetic dataset")
    sp.add_argument("--out", required=True)
    sp.add_argument("--images", type=int, default=64)
    sp.add_argument("--captions", type=int, default=5)
    sp.add_argument("--dims", choices=list(PRESETS), default="small")
    sp.add_argument("--noise", type=float, default=0.05)

    sp = add("train", cmd_train, "train a joint embedding")
    sp.add_argument("--data", required=True, type=_manifest_path)
    sp.add_argument("--out", required=True)
    sp.add_argument("--mode", choices=[*featureio.MODE_ARRAYS, "hybrid"], default="region")
    for f in fields(TrainConfig):   # --margin ... --epochs; --seed comes from add()
        if f.name != "seed":
            sp.add_argument("--" + f.name.replace("_", "-"),
                            type={"int": int, "float": float}[f.type], default=f.default)
    add_model_flags(sp)

    sp = add("eval", cmd_eval, "evaluate retrieval recall", seed=None)
    sp.add_argument("--data", required=True, type=_manifest_path)
    sp.add_argument("--ckpt")
    sp.add_argument("--mode", choices=["auto", *featureio.MODE_ARRAYS], default="auto")
    sp.add_argument("--folds", type=_int_at_least(1), default=1)
    add_model_flags(sp)
    sp.add_argument("--pretty", action="store_true")

    sp = add("ensemble-eval", cmd_ensemble_eval, "rank-average two checkpoints",
             seed=False)
    sp.add_argument("--data", required=True, type=_manifest_path)
    sp.add_argument("--ckpt-a", required=True)
    sp.add_argument("--ckpt-b", required=True)
    sp.add_argument("--pretty", action="store_true")

    sp = add("bench", cmd_bench, "measure retrieval throughput")
    sp.add_argument("--mode", choices=["precomputed", "recompute", "both"],
                    default="both")
    sp.add_argument("--dims", choices=list(PRESETS), default="full")
    sp.add_argument("--images", type=_int_at_least(1), default=1000)
    sp.add_argument("--queries", type=_int_at_least(1), default=1000)
    # recompute only; 100 and 32 when not given
    sp.add_argument("--recompute-queries", type=_int_at_least(1))
    sp.add_argument("--pool", type=_int_at_least(1))
    sp.add_argument("--top-k", type=int, default=10)
    sp.add_argument("--trials", type=int, default=5)

    sp = add("gradcheck", cmd_gradcheck, "finite-difference check of the full loss")
    sp.add_argument("--dims", choices=["default", *PRESETS], default="default")
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
        with np.errstate(all="ignore"):   # a non-finite value is reported by its typed check
            return args.func(args)
    except (SshnetError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2 if isinstance(exc, (TrainingError, GradCheckError)) else 1


if __name__ == "__main__":
    sys.exit(main())
