#!/usr/bin/env python3
"""Print one ``name sha256`` line per same-seed artifact of the CLI.

Runs a fixed pipeline through ``sshnet.cli.main`` in a temp directory,
with one BLAS thread, and hashes what it leaves behind:

- every file of ``synth --dims small --images 24 --captions 2 --seed 7``;
- the loss curve of ``train --epochs 3 --batch-size 8`` (float hex) and
  each of its checkpoint tensors;
- the ``eval`` JSON of that checkpoint, on the whole set and ``--folds 2``;
- the loss curves (float hex) and ``eval`` JSON of a hybrid checkpoint,
  and the ``ensemble-eval`` JSON of its ``region`` and ``grid`` members;
- the ``eval`` JSON of an untrained model, ``--seed 3``;
- a sampled ``gradcheck`` JSON with ``elapsed_s`` removed;
- the full gradient-fidelity report (float hex).

Two checkouts compute the same numbers when their outputs are equal:

    python3 scripts/same_seed_digest.py > a.txt   # in each checkout
    diff a.txt b.txt

The script imports the ``sshnet`` under its own checkout's ``src/``.
"""
import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

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


def main():
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
        for f in sorted(ckpt.glob("*.3sht")):
            emit("train/" + f.name, f.read_bytes())

        emit_json("eval/whole", run("eval", "--data", data, "--ckpt", ckpt))
        emit_json("eval/folds2", run("eval", "--data", data, "--ckpt", ckpt,
                                     "--folds", 2))

        doc = run("train", "--data", data, "--out", hybrid, "--mode", "hybrid",
                  "--epochs", 3, "--batch-size", 8)
        for sub in ("region", "grid"):
            emit("hybrid/loss_curve/" + sub, hexes(doc["runs"][sub]["loss_curve"]))
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


if __name__ == "__main__":
    main()
