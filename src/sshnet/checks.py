"""Self-contained verification routines shared by the CLI and the tests.

``full_loss_grad_check`` drives finite differences through the entire
pipeline (both enhancement branches, the pooled embedder, and the ranking
loss); a perturbed parameter re-runs only its own modality's forward, against
held embeddings of the other side that leave the report bitwise unchanged.
``selfcheck`` is a fast battery of probes, one per documented invariant.
"""
from __future__ import annotations

import functools
import math
import tempfile
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import embedder, featureio, model, objective, retrieval, vsem, vspm
from .autograd import Tensor
from .config import SMALL_DIMS, SMALL_MODEL, DimConfig, ModelConfig
from .errors import ConfigError, SshnetError
from .objective import TrainConfig

GRADCHECK_MODEL = replace(SMALL_MODEL, embed_dim=32)
# Narrow word features keep the all-coordinates check well under a minute;
# the text path itself is identical at any width.
GRADCHECK_DIMS = replace(SMALL_DIMS, word_dim=64)
# Only the sentence side reads these; every other parameter is visual.
TEXT_PARAMS = ("embed.text_fc_w", "embed.text_fc_b", "embed.gpo_text")


@dataclass
class FullCheckResult:
    report: ag.GradReport
    elapsed_s: float
    n_params: int
    n_images: int

    def to_dict(self) -> dict:
        return {
            "passed": self.report.passed,
            "max_abs_err": self.report.max_abs_err,
            "max_rel_err": self.report.max_rel_err,
            "worst_param": self.report.worst_param_path,
            "elapsed_s": self.elapsed_s,
            "n_params": self.n_params,
            "n_images": self.n_images,
        }


def full_loss_grad_check(dims: DimConfig = GRADCHECK_DIMS,
                         cfg: ModelConfig = GRADCHECK_MODEL,
                         n_images: int = 4, seed: int = 0,
                         eps: float = 1e-5, tol: float = 1e-4,
                         sample: int | None = None) -> FullCheckResult:
    """Finite-difference check of the complete training loss on a random batch.

    Analytic gradients come from one backward through the whole loss.  Then
    the image and sentence embeddings V and T are held at the unperturbed
    parameters: a visual tensor's central differences run ``loss(visual(),
    T)``, a ``TEXT_PARAMS`` one ``loss(V, text())``.  V and T are the bytes
    the skipped (deterministic) forward would give, so the report is bitwise
    the unsplit one.
    """
    if n_images < 2:
        raise ConfigError("gradcheck needs a batch of >= 2 images, got %r" % (n_images,))
    ag.check_grad_settings(eps, tol, sample)
    batch = model.prepare_image(featureio.random_bundles(dims, n_images, seed + 1), dims, cfg)
    texts = featureio.random_texts(dims, n_images, 1, seed + 2)
    params = model.init_params(cfg, dims, seed)
    visual = functools.partial(model.visual_forward, batch, params, cfg)
    text = functools.partial(model.text_forward, texts.word_feats, params)

    def loss(v, t):
        return objective.triplet_loss(ag.linear(v, t), TrainConfig.margin)

    named = params.named()
    t0 = time.perf_counter()
    with ag.no_grad():
        held_v, held_t = visual(), text()

    def fd_loss(name):
        return ((lambda: loss(held_v, text())) if name in TEXT_PARAMS
                else lambda: loss(visual(), held_t))

    report = ag.grad_check(lambda: loss(visual(), text()), named, eps=eps,
                           tol=tol, sample=sample, fd_loss=fd_loss)
    elapsed = time.perf_counter() - t0
    n_params = sum(t.data.size for t in named.values())
    return FullCheckResult(report, elapsed, n_params, n_images)


# ---------------------------------------------------------------------------
# selfcheck battery


def _check_tensor_roundtrip(rng):
    with tempfile.TemporaryDirectory() as d:
        for arr in (rng.standard_normal((3, 4)),
                    rng.standard_normal(7).astype(np.float32),
                    rng.integers(0, 99, size=(2, 5)).astype(np.uint16)):
            path = Path(d) / "t.3sht"
            featureio.write_tensor(path, arr)
            back = featureio.read_tensor(path)
            if back.tobytes() != arr.tobytes() or back.dtype != arr.dtype:
                raise SshnetError("tensor roundtrip altered the payload")


def _check_salience_bounds(rng):
    dims, cfg = SMALL_DIMS, SMALL_MODEL
    params = vsem.init_vsem_params(cfg, dims, rng)
    d = params.seg_fc_w.shape[0]
    lo = 1.0 / (1.0 + math.exp(1.0 / math.sqrt(d)))
    hi = 1.0 / (1.0 + math.exp(-1.0 / math.sqrt(d)))
    for _ in range(100):
        regions = Tensor(rng.standard_normal((1, dims.K, dims.D_l)))
        pooled = Tensor(rng.standard_normal((1, dims.C_s)))
        a = vsem.vsem_forward(regions, pooled, params, "sigmoid").alphas.data
        if not ((a > lo).all() and (a < hi).all()):
            raise SshnetError("sigmoid salience left its open interval")
        a = vsem.vsem_forward(regions, pooled, params, "softmax").alphas.data
        if abs(a.sum() - 1.0) > 1e-9:
            raise SshnetError("softmax salience does not sum to 1")


def _check_spatial_attention(rng):
    dims, cfg = SMALL_DIMS, SMALL_MODEL
    params = vspm.init_vspm_params(cfg, dims, rng)
    queries = vspm.project_queries(
        Tensor(rng.standard_normal((1, dims.K, dims.D_l))), params)
    refined = Tensor(rng.standard_normal((1, 5, cfg.pos_channels)))
    betas, _ = vspm.spatial_attention(queries, refined, cfg.attn_smooth)
    if np.abs(betas.data.sum(axis=2) - 1.0).max() > 1e-9:
        raise SshnetError("attention rows do not sum to 1")
    betas0, _ = vspm.spatial_attention(queries, refined, 0.0)
    if not (betas0.data == 1.0 / refined.shape[1]).all():
        raise SshnetError("zero smoothing is not exactly uniform")
    row = rng.standard_normal(cfg.pos_channels)
    same = Tensor(np.tile(row, (1, 6, 1)))
    _, ctx = vspm.spatial_attention(queries, same, cfg.attn_smooth)
    if np.abs(ctx.data - row).max() > 1e-12:
        raise SshnetError("identical position rows must return that row")


def _check_pooling_endpoints(rng):
    rows = Tensor(rng.standard_normal((1, 5, 3)))
    uniform = Tensor(np.ones(8))
    got = embedder.gpo_pool(rows, uniform).data
    if np.abs(got - rows.data.mean(axis=1)).max() > 1e-12:
        raise SshnetError("uniform pooling table must average")
    head = np.zeros(8)
    head[0] = 1.0
    got = embedder.gpo_pool(rows, Tensor(head)).data
    if np.abs(got - rows.data.max(axis=1)).max() > 1e-12:
        raise SshnetError("head-weighted pooling table must take the max")


def _check_ranking_loss(rng):
    flat = objective.triplet_loss(Tensor(np.full((2, 2), 0.5)), 0.2).item()
    if abs(flat - 0.8) > 1e-12:
        raise SshnetError("flat-similarity loss should be 0.8, got %r" % flat)
    ident = objective.triplet_loss(Tensor(np.eye(3)), 0.2).item()
    if ident != 0.0:
        raise SshnetError("identity similarity should give zero loss")


def _check_optimizer_decay(rng):
    p = Tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.zeros(1)
    objective.adamw_step({"w": p}, objective.AdamWState(),
                         TrainConfig(lr=0.1, weight_decay=0.01))
    if abs(p.data[0] - 2.0 * (1 - 0.001)) > 1e-15:
        raise SshnetError("pure weight decay mismatch")


def _check_metric_oracle(rng):
    for _ in range(5):
        n = int(rng.integers(10, 20))
        caps = int(rng.integers(1, 4))
        sim = rng.uniform(-1, 1, size=(n, n * caps))
        image_index = np.repeat(np.arange(n), caps)
        want = []
        for queries, hit in ((sim, lambda q, c: image_index[c] == q),
                             (sim.T, lambda q, c: image_index[q] == c)):
            orders = [sorted(range(len(row)), key=lambda c: (-row[c], c))
                      for row in queries]
            want += [100.0 * sum(any(hit(q, c) for c in order[:k])
                                 for q, order in enumerate(orders)) / len(orders)
                     for k in retrieval.DEFAULT_KS]
        if retrieval.evaluate(sim, image_index).recalls() != tuple(want):
            raise SshnetError("recall disagrees with the sort oracle")


def _check_gradients_sampled(rng):
    res = full_loss_grad_check(n_images=3, seed=int(rng.integers(1000)),
                               sample=4)
    if not res.report.passed:
        raise SshnetError("sampled gradient check failed: %r" % (res.report,))


def _check_pipeline_determinism(rng):
    seed = int(rng.integers(1000))
    outs = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as d:
            featureio.synth_dataset(d, 6, 2, seed, SMALL_DIMS)
            bundles, texts, _ = featureio.load_dataset(Path(d) / "manifest.json")
            res = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                                  TrainConfig(batch_size=4, epochs=2, seed=seed))
            table = model.embed_dataset(bundles, texts, res.params,
                                        SMALL_MODEL, SMALL_DIMS)
            outs.append((tuple(res.loss_curve), table.image_embs.tobytes(),
                         table.text_embs.tobytes()))
    if outs[0] != outs[1]:
        raise SshnetError("same-seed pipeline is not byte-identical")


CHECKS = [
    ("tensor_roundtrip", _check_tensor_roundtrip),
    ("salience_bounds", _check_salience_bounds),
    ("spatial_attention", _check_spatial_attention),
    ("pooling_endpoints", _check_pooling_endpoints),
    ("ranking_loss", _check_ranking_loss),
    ("optimizer_decay", _check_optimizer_decay),
    ("metric_oracle", _check_metric_oracle),
    ("gradients_sampled", _check_gradients_sampled),
    ("pipeline_determinism", _check_pipeline_determinism),
]


def selfcheck(seed: int = 0) -> dict:
    """Run every probe; returns a JSON-ready summary, never raises."""
    results = {}
    passed = True
    for name, fn in CHECKS:
        tag = zlib.crc32(name.encode())
        rng = np.random.default_rng(np.random.SeedSequence([seed, tag]))
        t0 = time.perf_counter()
        try:
            fn(rng)
            results[name] = {"ok": True,
                             "elapsed_s": round(time.perf_counter() - t0, 4)}
        except Exception as exc:
            passed = False
            results[name] = {"ok": False, "error": str(exc),
                             "elapsed_s": round(time.perf_counter() - t0, 4)}
    return {"passed": passed, "checks": results, "seed": seed}
