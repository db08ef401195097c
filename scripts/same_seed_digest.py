#!/usr/bin/env python3
"""Print one ``name sha256`` line per same-seed artifact of the CLI.

Runs a fixed pipeline through ``sshnet.cli.main`` in a temp directory,
with one BLAS thread, and hashes what it leaves behind:

- every file of ``synth --dims small --images 24 --captions 2 --seed 7``;
- the loss curve of ``train --epochs 3 --batch-size 8`` (float hex) and
  each of its checkpoint tensors;
- the bytes of every parameter after ``model.load_checkpoint`` of that
  checkpoint (``load/ckpt/...``) and of a copy of it that holds the
  semantic-spatial FC whole, as checkpoints written before its split did
  (``load/whole-fc/...``);
- the ``eval`` JSON of that checkpoint, on the whole set and ``--folds 2``;
- the loss curves (float hex) and ``eval`` JSON of a hybrid checkpoint,
  and the ``ensemble-eval`` JSON of its ``region`` and ``grid`` members;
- the ``eval`` JSON of an untrained model, ``--seed 3``;
- a sampled ``gradcheck`` JSON with ``elapsed_s`` removed;
- the full gradient-fidelity report (float hex);
- ``rank_rows`` and ``ensemble_ranks`` of a seeded tie-heavy pair of
  40x200 similarities rounded to 0.1, and of its transpose, plus the
  pair's ``ensemble_eval`` JSON;
- the per-check ``ok`` map of ``selfcheck --seed 0``.

Two checkouts compute the same numbers when their outputs are equal:

    python3 scripts/same_seed_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

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
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sshnet import featureio, model, retrieval  # noqa: E402
from sshnet.cli import main as cli_main  # noqa: E402


def run(*argv) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main([str(a) for a in argv])
    if code != 0:
        raise SystemExit("sshnet %s exited %d" % (" ".join(map(str, argv)), code))
    return json.loads(out.getvalue())


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


def whole_fc_copy(ckpt: Path, out: Path) -> Path:
    """``ckpt`` copied to ``out`` with its FC blocks stored as one
    ``embed.ss_fc_w``, semantic block first."""
    shutil.copytree(ckpt, out)
    blocks = ["embed.ss_fc_w_sem", "embed.ss_fc_w_spa"]
    featureio.write_tensor(out / "embed.ss_fc_w.3sht", np.concatenate(
        [featureio.read_tensor(out / (n + ".3sht")) for n in blocks], axis=1))
    for n in blocks:
        (out / (n + ".3sht")).unlink()
    doc = json.loads((out / "checkpoint.json").read_text())
    doc["tensors"] = sorted(set(doc["tensors"]) - set(blocks) | {"embed.ss_fc_w"})
    (out / "checkpoint.json").write_text(json.dumps(doc))
    return out


def save(values_dir, name: str, arr) -> None:
    """Write ``arr`` as ``values_dir/name.npy`` (no-op without a values dir)."""
    if values_dir is not None:
        path = values_dir / (name + ".npy")
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(arr, dtype=np.float64))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--values", type=Path, default=None, metavar="DIR",
                    help="also save the loss curves and checkpoint tensors as .npy under DIR")
    values = ap.parse_args(argv).values
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
        emit_loaded("whole-fc", whole_fc_copy(ckpt, tmp / "whole-fc"))

        emit_json("eval/whole", run("eval", "--data", data, "--ckpt", ckpt))
        emit_json("eval/folds2", run("eval", "--data", data, "--ckpt", ckpt,
                                     "--folds", 2))

        doc = run("train", "--data", data, "--out", hybrid, "--mode", "hybrid",
                  "--epochs", 3, "--batch-size", 8)
        for sub in ("region", "grid"):
            emit("hybrid/loss_curve/" + sub, hexes(doc["runs"][sub]["loss_curve"]))
            save(values, "hybrid/loss_curve/" + sub, doc["runs"][sub]["loss_curve"])
        emit_json("hybrid/eval", run("eval", "--data", data, "--ckpt", hybrid))
        emit_json("hybrid/ensemble-eval", run("ensemble-eval", "--data", data,
                                              "--ckpt-a", hybrid / "region",
                                              "--ckpt-b", hybrid / "grid"))
        emit_json("eval/untrained", run("eval", "--data", data, "--seed", 3))

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


if __name__ == "__main__":
    main()
