"""Acceptance gate: every production criterion, one verdict line each.

Each test measures its criterion at the stated tolerance and budget and
records a PASS/FAIL line in the terminal summary.  These are behavioural
checks on synthetic data; nothing here depends on external datasets.
"""
import hashlib
import json
import math
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from conftest import acceptance_line

from sshnet import checks, featureio, model, objective, retrieval, vsem, vspm
from sshnet.autograd import Tensor
from sshnet.cli import main
from sshnet.config import FULL_DIMS, FULL_MODEL, SMALL_DIMS, SMALL_MODEL
from sshnet.objective import TrainConfig


def verdict(name, ok, detail):
    acceptance_line("%s %s: %s" % ("PASS" if ok else "FAIL", name, detail))
    assert ok, "%s: %s" % (name, detail)


# ---------------------------------------------------------------------------
# 1. gradient fidelity


def test_gradient_fidelity():
    res = checks.full_loss_grad_check(n_images=4, seed=0, eps=1e-5, tol=1e-4)
    ok = res.report.passed and res.elapsed_s < 60.0
    verdict("gradient-fidelity", ok,
            "max rel err %.2e (tol 1e-4), %d coords, %.1f s (budget 60 s)"
            % (res.report.max_rel_err, res.n_params, res.elapsed_s))


# ---------------------------------------------------------------------------
# 2. salience bounds


def test_salience_bounds():
    dims, cfg = SMALL_DIMS, SMALL_MODEL
    rng = np.random.default_rng(101)
    params = vsem.init_vsem_params(cfg, dims, rng)
    d = params.seg_fc_w.shape[0]
    lo = 1.0 / (1.0 + math.exp(1.0 / math.sqrt(d)))
    hi = 1.0 / (1.0 + math.exp(-1.0 / math.sqrt(d)))
    worst_margin = np.inf
    worst_sum = 0.0
    for draw in range(1000):
        regions = Tensor(rng.standard_normal((1, dims.K, dims.D_l)))
        pooled = Tensor(rng.standard_normal((1, dims.C_s)))
        a = vsem.vsem_forward(regions, pooled, params, "sigmoid").alphas.data
        worst_margin = min(worst_margin, (a - lo).min(), (hi - a).min())
        s = vsem.vsem_forward(regions, pooled, params, "softmax").alphas.data
        worst_sum = max(worst_sum, abs(s.sum() - 1.0))
    ok = worst_margin > 0.0 and worst_sum <= 1e-9
    verdict("salience-bounds", ok,
            "1000 draws; min distance to open bound %.2e, "
            "max softmax sum error %.2e (tol 1e-9)" % (worst_margin, worst_sum))


# ---------------------------------------------------------------------------
# 3. spatial attention rows


def test_spatial_attention_rows():
    dims, cfg = SMALL_DIMS, SMALL_MODEL
    rng = np.random.default_rng(103)
    params = vspm.init_vspm_params(cfg, dims, rng)
    worst_sum = 0.0
    def queries(regions):
        return vspm.project_queries(Tensor(regions), params)

    for _ in range(200):
        regions = rng.standard_normal((1, dims.K, dims.D_l))
        refined = Tensor(rng.standard_normal((1, int(rng.integers(2, 9)),
                                              cfg.pos_channels)))
        betas, _ = vspm.spatial_attention(queries(regions), refined,
                                          cfg.attn_smooth)
        worst_sum = max(worst_sum, np.abs(betas.data.sum(axis=2) - 1.0).max())

    regions = rng.standard_normal((1, dims.K, dims.D_l))
    refined = Tensor(rng.standard_normal((1, 6, cfg.pos_channels)))
    betas0, _ = vspm.spatial_attention(queries(regions), refined, 0.0)
    uniform_exact = (betas0.data == 1.0 / 6.0).all()

    row = rng.standard_normal(cfg.pos_channels)
    _, ctx = vspm.spatial_attention(queries(regions), Tensor(np.tile(row, (1, 5, 1))),
                                    cfg.attn_smooth)
    collapse_err = np.abs(ctx.data - row).max()

    ok = worst_sum <= 1e-9 and uniform_exact and collapse_err <= 1e-12
    verdict("spatial-attention", ok,
            "max row-sum error %.2e (tol 1e-9); zero-smoothing uniform %s; "
            "identical-rows collapse %.2e (tol 1e-12)"
            % (worst_sum, bool(uniform_exact), collapse_err))


# ---------------------------------------------------------------------------
# 4. metric oracle equality


def _rank_oracle(scores):
    return sorted(range(len(scores)), key=lambda c: (-scores[c], c))


def _fused_oracle(a, b):
    """Per row, candidates by mean ``_rank_oracle`` rank, then higher
    summed score, then lower index."""
    orders = []
    for row_a, row_b in zip(a, b):
        ra, rb = ({c: pos + 1 for pos, c in enumerate(_rank_oracle(row))}
                  for row in (row_a, row_b))
        orders.append(sorted(range(len(row_a)), key=lambda c: (
            (ra[c] + rb[c]) / 2, -(row_a[c] + row_b[c]), c)))
    return orders


def _recall_oracle(sim, image_index, k, direction, orders=None):
    """Recall@k of the ``_rank_oracle`` orders of ``sim``, or of the given
    per-query ``orders``."""
    queries = sim if direction == "i2s" else sim.T
    hits = 0
    for q in range(queries.shape[0]):
        top = (_rank_oracle(queries[q]) if orders is None else orders[q])[:k]
        if direction == "i2s":
            hits += any(image_index[c] == q for c in top)
        else:
            hits += image_index[q] in top
    return 100.0 * hits / queries.shape[0]


def test_metric_oracle_equality():
    rng = np.random.default_rng(107)
    mismatches = 0
    t0 = time.perf_counter()
    for _ in range(100):
        n = int(rng.integers(10, 51))
        caps = int(rng.integers(1, 6))       # up to 50 x 250
        image_index = np.repeat(np.arange(n), caps)
        sim = rng.uniform(-1, 1, size=(n, n * caps))

        want = [_recall_oracle(sim, image_index, k, d)
                for d in ("i2s", "s2i") for k in (1, 5, 10)]
        mismatches += list(retrieval.evaluate(sim, image_index,
                                              ks=(1, 5, 10)).recalls()) != want

        folds = 2 if n % 2 == 0 and n >= 20 else 1
        got_fold = retrieval.fivefold_eval(sim, image_index, folds=folds,
                                           ks=(1, 2, 5))
        size = n // folds
        acc = np.zeros(6)
        for f in range(folds):
            lo, hi = f * size, (f + 1) * size
            mask = (image_index >= lo) & (image_index < hi)
            sub, sub_idx = sim[lo:hi][:, mask], image_index[mask] - lo
            acc += [_recall_oracle(sub, sub_idx, k, d)
                    for d in ("i2s", "s2i") for k in (1, 2, 5)]
        mismatches += list(got_fold.recalls()) != list(acc / folds)

        # the fusion hybrid eval and ensemble-eval report, in both directions
        sim_b = rng.uniform(-1, 1, size=sim.shape)
        orders = {"i2s": _fused_oracle(sim, sim_b), "s2i": _fused_oracle(sim.T, sim_b.T)}
        mismatches += retrieval.ensemble_ranks(sim, sim_b).tolist() != orders["i2s"]
        want = [_recall_oracle(sim, image_index, k, d, orders[d])
                for d in ("i2s", "s2i") for k in (1, 5, 10)]
        mismatches += list(retrieval.ensemble_eval(sim, sim_b, image_index,
                                                   ks=(1, 5, 10)).recalls()) != want
    ok = mismatches == 0
    verdict("metric-oracle-equality", ok,
            "100 random instances up to 50x250, fused recalls included; %d mismatches "
            "(%.1f s)" % (mismatches, time.perf_counter() - t0))


# ---------------------------------------------------------------------------
# 5. overfit retrievability


@pytest.fixture(scope="module")
def planted64(tmp_path_factory):
    out = tmp_path_factory.mktemp("accept") / "ds64"
    featureio.synth_dataset(out, 64, 5, 7, SMALL_DIMS)
    return featureio.load_dataset(out / "manifest.json")


def _rsum(bundles, texts, params, model_cfg):
    table = model.embed_dataset(bundles, texts, params, model_cfg, SMALL_DIMS)
    sim = retrieval.similarity_matrix(table.image_embs, table.text_embs)
    return retrieval.evaluate(sim, table.image_index).rsum


def test_overfit_retrievability(planted64):
    bundles, texts, _ = planted64
    t0 = time.perf_counter()
    best = {"rsum": 0.0}

    def cb(epoch, loss, params):
        best["rsum"] = _rsum(bundles, texts, params, SMALL_MODEL)
        return best["rsum"] == 600.0 and epoch + 1 >= 20

    cfg = TrainConfig(batch_size=32, epochs=300, seed=7)
    res = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL, cfg,
                          epoch_callback=cb)
    elapsed = time.perf_counter() - t0
    loss_drop = res.loss_curve[19] < res.loss_curve[0]
    ok = (best["rsum"] == 600.0 and res.epochs_run <= 300
          and loss_drop and elapsed < 600.0)
    verdict("overfit-retrievability", ok,
            "rSum %.1f after %d epochs (budget 300); epoch-20 loss %.4f < "
            "epoch-1 %.4f: %s; %.1f s (budget 600 s)"
            % (best["rsum"], res.epochs_run, res.loss_curve[19],
               res.loss_curve[0], loss_drop, elapsed))


# ---------------------------------------------------------------------------
# 6. ablation direction


def test_ablation_direction(planted64):
    bundles, texts, _ = planted64
    variants = {
        "full": SMALL_MODEL,
        "no_semantic": replace(SMALL_MODEL, use_vsem=False),
        "no_spatial": replace(SMALL_MODEL, use_vspm=False),
    }
    means = {}
    for name, mc in variants.items():
        vals = []
        for seed in range(5):
            cfg = TrainConfig(batch_size=32, epochs=2, seed=seed)
            res = objective.train(bundles, texts, SMALL_DIMS, mc, cfg)
            vals.append(_rsum(bundles, texts, res.params, mc))
        means[name] = float(np.mean(vals))
    ok = (means["full"] >= means["no_semantic"]
          and means["full"] >= means["no_spatial"])
    verdict("ablation-direction", ok,
            "mean rSum over 5 seeds: full %.1f >= no-semantic %.1f and "
            ">= no-spatial %.1f"
            % (means["full"], means["no_semantic"], means["no_spatial"]))


# ---------------------------------------------------------------------------
# 7. throughput


def test_throughput_precompute_speedup():
    rng = np.random.default_rng(109)

    def unit(n):
        rows = rng.standard_normal((n, FULL_MODEL.embed_dim))
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    table, queries = unit(1000), unit(1000)
    pre = retrieval.bench_kpps(table, queries, "precomputed", trials=5)
    pool = featureio.random_bundles(FULL_DIMS, 32, 5)
    params = model.init_params(FULL_MODEL, FULL_DIMS, 5)
    prepared = [model.prepare_image([b], FULL_DIMS, FULL_MODEL) for b in pool]
    rec = retrieval.bench_kpps(
        table, queries[:100], "recompute", trials=5,
        recompute=lambda qi: model.visual_forward(
            prepared[qi % len(prepared)], params, FULL_MODEL).data[0])
    ratio = pre.kpps / rec.kpps
    ok = ratio >= 10.0
    verdict("throughput-speedup", ok,
            "N=1000 K=36 D=1024, median of 5: precomputed %.2f Kpps, "
            "recompute %.3f Kpps, ratio %.1fx (need >= 10x)"
            % (pre.kpps, rec.kpps, ratio))


# ---------------------------------------------------------------------------
# 8. format and determinism


def _digest(path):
    h = hashlib.sha256()
    for f in sorted(Path(path).rglob("*")):
        if f.is_file():
            h.update(f.name.encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def test_format_and_determinism(tmp_path, capsys):
    rng = np.random.default_rng(113)
    roundtrip_ok = True
    for arr in (rng.standard_normal((4, 5)),
                rng.standard_normal((3, 2, 2)).astype(np.float32),
                rng.integers(0, 999, size=(6,)).astype(np.uint16)):
        p = tmp_path / "t.3sht"
        featureio.write_tensor(p, arr)
        back = featureio.read_tensor(p)
        roundtrip_ok &= (back.tobytes() == arr.tobytes()
                         and back.dtype == arr.dtype
                         and back.shape == arr.shape)

    digests, reports = [], []
    for run in range(2):
        ds = tmp_path / ("ds%d" % run)
        ck = tmp_path / ("ck%d" % run)
        assert main(["synth", "--out", str(ds), "--images", "12",
                     "--captions", "2", "--seed", "11"]) == 0
        assert main(["train", "--data", str(ds), "--out", str(ck),
                     "--epochs", "2", "--batch-size", "8",
                     "--seed", "11"]) == 0
        capsys.readouterr()
        assert main(["eval", "--data", str(ds), "--ckpt", str(ck)]) == 0
        reports.append(capsys.readouterr().out)
        digests.append((_digest(ds), _digest(ck)))
    pipeline_ok = digests[0] == digests[1] and reports[0] == reports[1]
    ok = roundtrip_ok and pipeline_ok
    verdict("format-determinism", ok,
            "tensor roundtrips byte-exact: %s; same-seed synth/train/eval "
            "byte-identical: %s" % (bool(roundtrip_ok), pipeline_ok))
