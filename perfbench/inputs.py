"""Seeded input generator for the benchmark workloads.

Every input is written through sshnet's public writers
(``featureio.synth_dataset``, ``model.save_checkpoint``,
``featureio.write_tensor``), so the workloads read exactly the formats a
user's files would have.  ``generate`` builds the inputs twice, in two
directories, and compares their SHA-256 digests: the same seed must give
byte-identical inputs.

Run directly to write one workload's inputs:

    PYTHONPATH=src python3 perfbench/inputs.py --workload train-full --seed 1 --out DIR
"""
from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
from pathlib import Path

import numpy as np

from sshnet import featureio, model
from sshnet.config import FULL_DIMS, FULL_MODEL

CAPTIONS = 5                 # captions per image, as in the 1K x 5 protocol
TRAIN_IMAGES = 16            # two batches of 8 per epoch
EMBED_IMAGES = 32
QUERY_IMAGES = 1000          # 1K images x 5K captions test split
QUERY_DIM = FULL_MODEL.embed_dim
CAPTION_NOISE = 0.3
DUPLICATE_IMAGES = 10        # rows copied exactly, so rankings meet real ties
DIGEST_FILE = "inputs.sha256.json"


def _unit(rows: np.ndarray) -> np.ndarray:
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def _query_tables(out: Path, seed: int) -> None:
    """Two models' unit embedding tables with a planted image-caption match.

    Model ``a`` is the ranked model; model ``b`` sees nearly the same images
    with independent caption noise, for rank-average ensembling.  A few
    image rows and captions of ``a`` are exact copies of others, so ties
    occur and must break toward the lower index.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
    n, m, d = QUERY_IMAGES, QUERY_IMAGES * CAPTIONS, QUERY_DIM
    img_a = _unit(rng.standard_normal((n, d)))
    img_b = _unit(img_a + 0.01 * rng.standard_normal((n, d)))
    # caption noise sized so that recall@1 lies well inside (0, 100)
    txt_a, txt_b = (_unit(np.repeat(img, CAPTIONS, axis=0)
                          + CAPTION_NOISE * rng.standard_normal((m, d)))
                    for img in (img_a, img_b))
    dup = rng.choice(n - 1, size=DUPLICATE_IMAGES, replace=False)
    img_a[dup + 1] = img_a[dup]
    txt_a[dup * CAPTIONS + 1] = txt_a[dup * CAPTIONS]
    # one caption of each image, drawn at random, queries the image table
    pick = np.arange(n) * CAPTIONS + rng.integers(0, CAPTIONS, size=n)
    arrays = {
        "img_a": img_a, "txt_a": txt_a, "img_b": img_b, "txt_b": txt_b,
        "queries": txt_a[pick],
        "caption_image": np.repeat(np.arange(n), CAPTIONS).astype(np.uint16),
    }
    for name, arr in arrays.items():
        featureio.write_tensor(out / (name + ".3sht"), arr)


def _write(workload: str, seed: int, out: Path) -> None:
    if workload == "train-full":
        featureio.synth_dataset(out / "data", TRAIN_IMAGES, CAPTIONS, seed,
                                FULL_DIMS)
    elif workload == "embed-full":
        featureio.synth_dataset(out / "data", EMBED_IMAGES, CAPTIONS, seed,
                                FULL_DIMS)
        params = model.init_params(FULL_MODEL, FULL_DIMS, seed)
        model.save_checkpoint(out / "ckpt", params, FULL_MODEL, FULL_DIMS)
    elif workload == "query-table":
        out.mkdir(parents=True, exist_ok=True)
        _query_tables(out, seed)
    elif workload != "gradcheck-small":  # draws its own batch from the seed
        raise ValueError("unknown workload %r" % (workload,))


def digest(root: Path) -> dict[str, str]:
    """SHA-256 of every file under ``root``, keyed by relative path."""
    return {p.relative_to(root).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def generate(workload: str, seed: int, out: Path) -> dict[str, str]:
    """Write the inputs of ``workload`` into ``out`` and prove them repeatable.

    Raises RuntimeError when a second generation from the same seed is not
    byte-identical to the first.
    """
    if seed < 0:
        raise ValueError("seed must be non-negative, got %d" % (seed,))
    out = Path(out)
    again = out.with_name(out.name + ".again")
    for d in (out, again):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        _write(workload, seed, d)
    try:
        first, second = digest(out), digest(again)
    finally:
        shutil.rmtree(again, ignore_errors=True)
    if first != second:
        changed = sorted(k for k in first.keys() | second.keys()
                         if first.get(k) != second.get(k))
        raise RuntimeError("seed %d gave different inputs on a second "
                           "generation: %s" % (seed, changed[:5]))
    (out / DIGEST_FILE).write_text(json.dumps(first, indent=1, sort_keys=True))
    return first


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True, type=Path)
    args = ap.parse_args(argv)
    files = generate(args.workload, args.seed, args.out)
    print("%d input files, digest %s" % (
        len(files), hashlib.sha256(json.dumps(files, sort_keys=True).encode())
        .hexdigest()[:16]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
