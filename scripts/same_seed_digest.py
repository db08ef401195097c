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
  its ``eval --folds 2`` JSON and ``--pretty`` table, and the
  ``ensemble-eval`` JSON and ``--pretty`` table of its ``region`` and
  ``grid`` members;
- the ``eval`` JSON of an untrained model, ``--seed 3``;
- the file list of one ``--out`` after ``train --epochs 1`` and again
  after ``train --epochs 1 --no-vsem`` into it (``swap/files/...``);
- the region- and grid-mode image and caption embeddings of a
  ``synth --dims full --images 4 --captions 2 --seed 7`` set under
  ``init_params(FULL_MODEL, FULL_DIMS, seed=0)`` (``full/embed/...``);
- a sampled ``gradcheck`` JSON with ``elapsed_s`` removed;
- the full gradient-fidelity report (float hex);
- ``rank_rows`` and ``ensemble_ranks`` of a seeded tie-heavy pair of
  40x200 similarities rounded to 0.1, and of its transpose, plus the
  pair's ``ensemble_eval`` JSON;
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

import numpy as np  # noqa: E402

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from sshnet import config, featureio, model, retrieval  # noqa: E402
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
        argv = ("ensemble-eval", "--data", data, "--ckpt-a", hybrid / "region",
                "--ckpt-b", hybrid / "grid")
        emit_json("hybrid/ensemble-eval", run(*argv))
        emit("hybrid/ensemble-eval/table", run_text(*argv, "--pretty"))
        emit_json("eval/untrained", run("eval", "--data", data, "--seed", 3))

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
    for name, (sa, sb) in (("pair", (a, b)), ("transpose", (a.T, b.T))):
        for fn, order in (("rank_rows", retrieval.rank_rows(sa)),
                          ("ensemble_ranks", retrieval.ensemble_ranks(sa, sb))):
            emit("ranking/%s/%s" % (name, fn),
                 np.ascontiguousarray(order, dtype=np.int64).tobytes())
    emit_json("ranking/ensemble_eval", retrieval.ensemble_eval(
        a, b, np.repeat(np.arange(40), 5)).to_dict())

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
