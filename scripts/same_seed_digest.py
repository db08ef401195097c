#!/usr/bin/env python3
"""Print one ``name sha256`` line per same-seed artifact of the CLI.

Runs a fixed pipeline through ``sshnet.cli.main`` in a temp directory,
with one BLAS thread, and hashes what it leaves behind:

- every file of ``synth --dims small --images 24 --captions 2 --seed 7``;
- the loss curve of ``train --epochs 3 --batch-size 8`` (float hex) and
  each of its checkpoint tensors;
- the bytes of every parameter after ``model.load_checkpoint`` of that
  checkpoint (``load/ckpt/...``);
- the ``eval`` JSON and ``--pretty`` table of that checkpoint, on the
  whole set and ``--folds 2``;
- the loss curves (float hex) and ``eval`` JSON of a hybrid checkpoint,
  its ``eval --folds 2`` JSON and ``--pretty`` table, and the JSON and
  ``--pretty`` table of ``eval`` with its ``region`` and ``grid`` members
  as two ``--ckpt`` (``hybrid/ensemble-eval...``, named for the
  ``ensemble-eval`` command that printed them in older checkouts, so
  ``--parent`` still compares them);
- the ``eval`` JSON of an untrained model, ``--seed 3``;
- on ``synth --dims small --images 301 --captions 3 --seed 5``, counts
  that are not multiples of 8 and exceed a ranking block of 256 queries:
  the untrained ``eval --seed 3`` JSON, whole and ``--folds 7``, and the
  ``eval`` JSON of a hybrid checkpoint after ``train --epochs 1``
  (``odd/...``);
- the file list of one ``--out`` after ``train --epochs 1`` and again
  after ``train --epochs 1 --no-vsem`` into it (``swap/files/...``);
- the region- and grid-mode image and caption embeddings of a
  ``synth --dims full --images 4 --captions 2 --seed 7`` set under
  ``init_params(FULL_MODEL, FULL_DIMS, seed=0)`` (``full/embed/...``), the
  loss curve (float hex) of one epoch of ``objective.train`` on that set,
  batch 4 (``full/train/...``), and the region- and grid-mode embeddings of
  a 9-image set, an embedding chunk of 8 and one of 1 (``full/embed9/...``);
- a sampled ``gradcheck`` JSON with ``elapsed_s`` removed;
- the full gradient-fidelity report (float hex);
- ``rank_rows`` and ``ensemble_ranks`` of a seeded tie-heavy pair of
  40x200 similarities rounded to 0.1, and of its transpose, plus the
  pair's ``ensemble_eval`` JSON;
- the same three of a seeded pair of 8x9000 similarities with planted
  exact ties and 1-ULP neighbours, scores that share all but the last 14
  bits of ``rank_rows``' packed sort keys (``ranking/wide/...``);
- the ``report`` JSON of one model's seeded 300x16 image and 900x16
  caption tables and of two models' fusion, whole and ``folds=2``, with
  copied image and caption rows, so the GEMM gives exact ties
  (``ranking/report/...``);
- ``ensemble_ranks`` of a seeded 40x9000 pair rounded to 0.1 with copied
  rows and columns, and of its transpose, and the fused ``report`` JSON,
  whole and ``folds=2``, of seeded small-integer 300x16 image and 3000x16
  caption tables with copied rows: blocks that span several of
  ``_rank_sum``'s tiles (``ranking/tiles/...``);
- the fused ``report`` JSON of two models' seeded planted tables, 512x16
  images and 2560x16 captions (each an image's row plus noise) with copied
  image and caption rows, where most query rows are ranked from the two
  models' prefixes and about a tenth sort every candidate; how many
  take each path goes to stderr (``ranking/select/...``);
- the per-check ``ok`` map of ``selfcheck --seed 0``.

Two checkouts compute the same numbers when their outputs are equal:

    python3 scripts/same_seed_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

With ``--parent REF`` it compares the two itself: it extracts ``git
archive REF src scripts`` into a temp directory, runs that copy of this
script, prints each of its lines that this checkout's output lacks or
changes, and the lines only this checkout prints, and exits 1 if any
line is missing or differs.  It reads the repository only.

With ``--values DIR`` it also saves the loss curves and checkpoint tensors
it hashes as ``.npy`` files under DIR (``train/loss_curve.npy``,
``train/embed.img_proj.npy``, ``hybrid/loss_curve/region.npy``, ...), so
two checkouts that are not bitwise equal can be compared numerically.

The script imports the ``sshnet`` under its own checkout's ``src/``.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tarfile  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from unittest import mock  # noqa: E402

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sshnet import config, featureio, model, objective, retrieval  # noqa: E402
from sshnet.cli import main as cli_main  # noqa: E402


def run_text(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit("sshnet %s exited %d" % (" ".join(map(str, argv)), code))
    return out.getvalue()


def run(*argv) -> dict:
    return json.loads(run_text(*argv))


def hexes(values) -> str:
    return " ".join(float(v).hex() for v in values)


def emit(name: str, payload) -> None:
    if isinstance(payload, str):
        payload = payload.encode()
    print(name, hashlib.sha256(payload).hexdigest())


def emit_json(name: str, doc: dict) -> None:
    emit(name, json.dumps(doc, sort_keys=True))


def emit_loaded(name: str, ckpt: Path) -> None:
    """One line per parameter ``model.load_checkpoint`` gives for ``ckpt``."""
    for pname, t in model.load_checkpoint(ckpt)[0].named().items():
        emit("load/%s/%s" % (name, pname), t.data.tobytes())


def save(values_dir, name: str, arr) -> None:
    """Write ``arr`` as ``values_dir/name.npy`` (no-op without a values dir)."""
    if values_dir is not None:
        path = values_dir / (name + ".npy")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(arr, dtype=np.float64))


def digest(values) -> None:
    """Print every line; save values under ``values`` unless it is None."""
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        data, ckpt, hybrid = tmp / "data", tmp / "ckpt", tmp / "hybrid"
        run("synth", "--out", data, "--dims", "small", "--images", 24,
            "--captions", 2, "--seed", 7)
        for f in sorted(data.iterdir()):
            emit("synth/" + f.name, f.read_bytes())

        doc = run("train", "--data", data, "--out", ckpt, "--epochs", 3,
                  "--batch-size", 8)
        emit("train/loss_curve", hexes(doc["loss_curve"]))
        save(values, "train/loss_curve", doc["loss_curve"])
        for f in sorted(ckpt.glob("*.3sht")):
            emit("train/" + f.name, f.read_bytes())
            save(values, "train/" + f.stem, featureio.read_tensor(f))
        emit_loaded("ckpt", ckpt)

        for name, flags in (("whole", ()), ("folds2", ("--folds", 2))):
            argv = ("eval", "--data", data, "--ckpt", ckpt, *flags)
            emit_json("eval/" + name, run(*argv))
            emit("eval/%s/table" % name, run_text(*argv, "--pretty"))

        doc = run("train", "--data", data, "--out", hybrid, "--mode", "hybrid",
                  "--epochs", 3, "--batch-size", 8)
        for sub in ("region", "grid"):
            emit("hybrid/loss_curve/" + sub, hexes(doc["runs"][sub]["loss_curve"]))
            save(values, "hybrid/loss_curve/" + sub, doc["runs"][sub]["loss_curve"])
        emit_json("hybrid/eval", run("eval", "--data", data, "--ckpt", hybrid))
        argv = ("eval", "--data", data, "--ckpt", hybrid, "--folds", 2)
        emit_json("hybrid/eval/folds2", run(*argv))
        emit("hybrid/eval/folds2/table", run_text(*argv, "--pretty"))
        argv = ("eval", "--data", data, "--ckpt", hybrid / "region", "--ckpt", hybrid / "grid")
        emit_json("hybrid/ensemble-eval", run(*argv))
        emit("hybrid/ensemble-eval/table", run_text(*argv, "--pretty"))
        emit_json("eval/untrained", run("eval", "--data", data, "--seed", 3))

        odd, odd_hybrid = tmp / "odd", tmp / "odd-hybrid"
        run("synth", "--out", odd, "--dims", "small", "--images", 301, "--captions", 3,
            "--seed", 5)
        for name, flags in (("whole", ()), ("folds7", ("--folds", 7))):
            emit_json("odd/eval/untrained/" + name, run("eval", "--data", odd, "--seed", 3,
                                                        *flags))
        run("train", "--data", odd, "--out", odd_hybrid, "--mode", "hybrid", "--epochs", 1,
            "--batch-size", 8)
        emit_json("odd/hybrid/eval", run("eval", "--data", odd, "--ckpt", odd_hybrid))

        swap = tmp / "swap"
        for name, flags in (("train", ()), ("train-no-vsem", ("--no-vsem",))):
            run("train", "--data", data, "--out", swap, "--epochs", 1, "--batch-size", 8,
                *flags)
            emit("swap/files/" + name, "\n".join(sorted(f.name for f in swap.iterdir())))

        full = tmp / "full"
        run("synth", "--out", full, "--dims", "full", "--images", 4, "--captions", 2,
            "--seed", 7)
        bundles, texts, _ = featureio.load_dataset(full / "manifest.json")
        dims, cfg = config.preset("full")
        params = model.init_params(cfg, dims, seed=0)
        for mode in ("region", "grid"):
            table = model.embed_dataset(bundles, texts, params, cfg, dims, mode)
            emit("full/embed/%s/images" % mode, table.image_embs.tobytes())
            emit("full/embed/%s/texts" % mode, table.text_embs.tobytes())
        res = objective.train(bundles, texts, dims, cfg,
                              objective.TrainConfig(batch_size=4, epochs=1))
        emit("full/train/loss_curve", hexes(res.loss_curve))
        run("synth", "--out", tmp / "full9", "--dims", "full", "--images", 9,
            "--captions", 1, "--seed", 9)
        bundles, texts, _ = featureio.load_dataset(tmp / "full9" / "manifest.json")
        for mode in ("region", "grid"):
            table = model.embed_dataset(bundles, texts, params, cfg, dims, mode)
            emit("full/embed9/%s/images" % mode, table.image_embs.tobytes())

    doc = run("gradcheck", "--seed", 5, "--batch", 3, "--sample", 4)
    del doc["elapsed_s"]
    emit_json("gradcheck/sampled", doc)

    doc = run("gradcheck")
    emit("gradcheck/full", "%s %s %s %s %d" % (
        doc["passed"], float(doc["max_abs_err"]).hex(),
        float(doc["max_rel_err"]).hex(), doc["worst_param"], doc["n_params"]))
    print("gradcheck/full max_rel_err %s at %s, max_abs_err %s, %d coords"
          % (float(doc["max_rel_err"]).hex(), doc["worst_param"],
             float(doc["max_abs_err"]).hex(), doc["n_params"]), file=sys.stderr)

    rng = np.random.default_rng(12)
    a, b = (np.round(rng.uniform(-1, 1, size=(40, 200)), 1) for _ in range(2))
    wide = rng.uniform(-1, 1, size=(2, 8, 9000))
    wide[..., ::3] = wide[..., 1::3]                        # exact ties
    wide[..., 2::3] = np.nextafter(wide[..., 1::3], 2.0)    # 1-ULP neighbours
    for name, (sa, sb) in (("pair", (a, b)), ("transpose", (a.T, b.T)), ("wide", wide)):
        for fn, order in (("rank_rows", retrieval.rank_rows(sa)),
                          ("ensemble_ranks", retrieval.ensemble_ranks(sa, sb))):
            emit("ranking/%s/%s" % (name, fn),
                 np.ascontiguousarray(order, dtype=np.int64).tobytes())
    emit_json("ranking/ensemble_eval", retrieval.ensemble_eval(
        a, b, np.repeat(np.arange(40), 5)).to_dict())
    emit_json("ranking/wide/ensemble_eval", retrieval.ensemble_eval(
        *wide, np.arange(9000) % 8, ks=(1, 2, 4)).to_dict())
    img, txt = rng.normal(size=(2, 300, 16)), rng.normal(size=(2, 900, 16))
    img[:, 20:30] = img[:, :10]                 # copies in one fold and across folds
    img[:, 150:160] = img[:, 10:20]
    txt[:, 600:660] = txt[:, 30:90]
    caption_image = rng.permutation(np.repeat(np.arange(300), 3))
    for name, models in (("single", [(img[0], txt[0])]), ("fused", list(zip(img, txt)))):
        for folds in (1, 2):
            emit_json("ranking/report/%s/folds%d" % (name, folds), retrieval.report(
                models, caption_image, "hybrid" if len(models) == 2 else "region",
                folds).to_dict())
    rng = np.random.default_rng(29)             # tables wider than one _rank_sum tile
    a, b = (np.round(rng.uniform(-1, 1, size=(40, 9000)), 1) for _ in range(2))
    a[:, 4500:5000], b[20:40] = a[:, :500], b[:20]
    for name, (sa, sb) in (("pair", (a, b)), ("transpose", (a.T, b.T))):
        emit("ranking/tiles/%s/ensemble_ranks" % name, np.ascontiguousarray(
            retrieval.ensemble_ranks(sa, sb), dtype=np.int64).tobytes())
    img, txt = rng.integers(-2, 3, size=(2, 300, 16)), rng.integers(-2, 3, size=(2, 3000, 16))
    img[:, 200:240], txt[:, 2000:2300] = img[:, :40], txt[:, :300]
    caption_image = rng.permutation(np.repeat(np.arange(300), 10))
    for folds in (1, 2):
        emit_json("ranking/tiles/report/fused/folds%d" % folds, retrieval.report(
            list(zip(img.astype(np.float64), txt.astype(np.float64))), caption_image,
            "hybrid", folds).to_dict())
    rng = np.random.default_rng(31)             # planted: most rows end within the prefixes
    img = rng.normal(size=(2, 512, 16))
    caption_image = rng.permutation(np.repeat(np.arange(512), 5))
    txt = img[:, caption_image] + rng.normal(size=(2, 2560, 16))
    img[:, 100:110], txt[:, 1000:1020] = img[:, :10], txt[:, :20]
    sorted_rows, rank_sum = [], retrieval._rank_sum

    def counted(*blocks, **where):      # every row of the blocks, or the ``rows`` asked for
        sorted_rows.append(len(where.get("rows", blocks[0])))
        return rank_sum(*blocks, **where)
    with mock.patch.object(retrieval, "_rank_sum", counted):
        emit_json("ranking/select/report/fused", retrieval.report(
            list(zip(img, txt)), caption_image, "hybrid").to_dict())
    print("ranking/select/report/fused: %d of %d query rows sort every candidate, %d are "
          "ranked from prefixes" % (sum(sorted_rows), 3072, 3072 - sum(sorted_rows)),
          file=sys.stderr)

    doc = run("selfcheck", "--seed", 0)
    emit_json("selfcheck/ok", {k: v["ok"] for k, v in doc["checks"].items()})


def by_name(text: str) -> dict:
    """``name -> line`` of digest output."""
    return {line.rsplit(" ", 1)[0]: line for line in text.splitlines()}


def compare(ref: str) -> int:
    """Print the lines of ``ref``'s digest that this checkout's lacks or
    changes, then the lines only this one prints; 1 if any is missing or
    differs."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", ref, "src", "scripts"],
                             stdout=subprocess.PIPE)
    if archive.returncode:
        raise SystemExit("git archive %s failed" % ref)
    with tempfile.TemporaryDirectory() as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        proc = subprocess.run([sys.executable, str(Path(tmp, "scripts", Path(__file__).name))],
                              stdout=subprocess.PIPE, text=True)
    if proc.returncode:
        raise SystemExit("%s's digest exited %d" % (ref, proc.returncode))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        digest(None)
    theirs, ours = by_name(proc.stdout), by_name(out.getvalue())
    missing = [line for name, line in theirs.items() if name not in ours]
    differ = [line for name, line in theirs.items() if ours.get(name, line) != line]
    new = [line for name, line in ours.items() if name not in theirs]
    for kind, lines in (("missing", missing), ("differs", differ), ("new", new)):
        for line in lines:
            print(kind, line)
    print("%s: %d lines, %d identical, %d missing, %d differ; %d new here"
          % (ref, len(theirs), len(theirs) - len(missing) - len(differ), len(missing),
             len(differ), len(new)))
    return 1 if missing or differ else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--values", type=Path, default=None, metavar="DIR",
                    help="also save the loss curves and checkpoint tensors as .npy under DIR")
    ap.add_argument("--parent", metavar="REF",
                    help="compare with the digest of git revision REF instead of printing")
    args = ap.parse_args(argv)
    if args.parent is not None:
        return compare(args.parent)
    digest(args.values)
    return 0


if __name__ == "__main__":
    sys.exit(main())
