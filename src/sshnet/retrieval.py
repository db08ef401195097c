"""Similarity, recall evaluation, rank-average ensembling, and throughput.

All ranking is deterministic: candidates tie-break toward the lower index,
so every metric here can be compared exactly against brute-force oracles.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field

import numpy as np

from . import model as model_mod
from .autograd import no_grad
from .errors import BenchmarkWarning, ConfigError, ShapeError

DEFAULT_KS = (1, 5, 10)


# ---------------------------------------------------------------------------
# similarity


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """Pairwise dot products between unit embeddings, (N, D) x (M, D) -> (N, M).

    One GEMM: deterministic for the same inputs, and within 1e-12 of a
    double-loop dot product on unit rows.
    """
    img = np.asarray(img_embs, dtype=np.float64)
    txt = np.asarray(txt_embs, dtype=np.float64)
    if img.ndim != 2 or txt.ndim != 2:
        raise ShapeError("embeddings must be 2-D, got %r and %r"
                         % (img.shape, txt.shape))
    if img.shape[1] != txt.shape[1]:
        raise ShapeError("embedding widths differ: %d vs %d"
                         % (img.shape[1], txt.shape[1]))
    if not (np.isfinite(img).all() and np.isfinite(txt).all()):
        raise ShapeError("embeddings must be finite")
    return img @ txt.T


# ---------------------------------------------------------------------------
# ranking and recall


def rank_rows(sim: np.ndarray) -> np.ndarray:
    """Per-row candidate order, best first; ties go to the lower index."""
    sim = np.asarray(sim, dtype=np.float64)
    return np.argsort(-sim, axis=1, kind="stable")


def _check_k(k: int, n_candidates: int):
    if k < 1:
        raise ConfigError("k must be >= 1, got %d" % k)
    if k > n_candidates:
        raise ConfigError("k=%d exceeds the %d available candidates"
                          % (k, n_candidates))


def _recall_i2s(orders: np.ndarray, image_index: np.ndarray, k: int) -> float:
    _check_k(k, orders.shape[1])
    gt = np.arange(orders.shape[0])[:, None]
    hits = (image_index[orders[:, :k]] == gt).any(axis=1)
    return 100.0 * int(hits.sum()) / orders.shape[0]


def _recall_s2i(orders: np.ndarray, image_index: np.ndarray, k: int) -> float:
    _check_k(k, orders.shape[1])
    hits = (orders[:, :k] == image_index[:, None]).any(axis=1)
    return 100.0 * int(hits.sum()) / orders.shape[0]


def recall_at_k(sim, image_index, k: int, direction: str) -> float:
    """Percentage of queries whose ground truth ranks in the top k.

    ``direction`` is "i2s" (image queries; a hit if any of the image's
    sentences makes the top k) or "s2i" (sentence queries; the single
    matching image must make the top k).
    """
    sim = np.asarray(sim, dtype=np.float64)
    image_index = np.asarray(image_index)
    if sim.ndim != 2 or sim.shape[1] != image_index.shape[0]:
        raise ShapeError("similarity (%r) does not match %d sentences"
                         % (sim.shape, image_index.shape[0]))
    if direction == "i2s":
        return _recall_i2s(rank_rows(sim), image_index, k)
    if direction == "s2i":
        return _recall_s2i(rank_rows(sim.T), image_index, k)
    raise ConfigError("direction must be 'i2s' or 's2i', got %r" % (direction,))


def rsum(recalls) -> float:
    """Sum of the six recall percentages."""
    vals = list(recalls)
    if len(vals) != 6:
        raise ConfigError("rsum expects six recall values, got %d" % len(vals))
    return float(sum(vals))


@dataclass
class RetrievalReport:
    """Six recalls plus their sum."""

    mode: str
    i2s_r1: float
    i2s_r5: float
    i2s_r10: float
    s2i_r1: float
    s2i_r5: float
    s2i_r10: float
    rsum: float
    extra: dict = field(default_factory=dict)

    def recalls(self) -> tuple:
        return (self.i2s_r1, self.i2s_r5, self.i2s_r10,
                self.s2i_r1, self.s2i_r5, self.s2i_r10)

    def to_dict(self) -> dict:
        d = {
            "mode": self.mode,
            "i2s": {"r1": self.i2s_r1, "r5": self.i2s_r5, "r10": self.i2s_r10},
            "s2i": {"r1": self.s2i_r1, "r5": self.s2i_r5, "r10": self.s2i_r10},
            "rsum": self.rsum,
        }
        if self.extra:
            d["extra"] = self.extra
        return d

    def table(self) -> str:
        head = ("mode      " "  i2s R@1  i2s R@5 i2s R@10"
                "  s2i R@1  s2i R@5 s2i R@10     rSum")
        row = "%-10s" % self.mode[:10]
        for v in self.recalls():
            row += " %8.1f" % v
        row += " %8.1f" % self.rsum
        return head + "\n" + row


def _report(mode: str, six, **kw) -> RetrievalReport:
    total = rsum(six)
    report = RetrievalReport(mode, *six, rsum=total, **kw)
    assert abs(report.rsum - sum(report.recalls())) <= 1e-9
    return report


def evaluate(sim, image_index, mode: str = "region",
             ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k for both directions over one similarity matrix."""
    sim = np.asarray(sim, dtype=np.float64)
    image_index = np.asarray(image_index)
    i2s_orders = rank_rows(sim)
    s2i_orders = rank_rows(sim.T)
    six = ([_recall_i2s(i2s_orders, image_index, k) for k in ks]
           + [_recall_s2i(s2i_orders, image_index, k) for k in ks])
    return _report(mode, six)


def fivefold_eval(sim, image_index, folds: int = 5, mode: str = "region",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Split images into contiguous folds, evaluate each, average recalls."""
    sim = np.asarray(sim, dtype=np.float64)
    image_index = np.asarray(image_index)
    n = sim.shape[0]
    if folds < 1:
        raise ConfigError("folds must be >= 1")
    if n % folds != 0:
        raise ConfigError("%d images do not divide into %d folds" % (n, folds))
    size = n // folds
    acc = np.zeros(6)
    for f in range(folds):
        lo, hi = f * size, (f + 1) * size
        mask = (image_index >= lo) & (image_index < hi)
        if not mask.any():
            raise ConfigError("fold %d has no sentences" % f)
        sub = sim[lo:hi][:, mask]
        report = evaluate(sub, image_index[mask] - lo, mode, ks)
        acc += np.asarray(report.recalls())
    six = list(acc / folds)
    return _report(mode, six, extra={"folds": folds})


def ensemble_ranks(sim_a, sim_b) -> np.ndarray:
    """Fuse two models' rankings per query by averaging rank positions.

    Candidates are re-sorted by mean rank; ties break toward the higher
    summed similarity, then the lower index.
    """
    a = np.asarray(sim_a, dtype=np.float64)
    b = np.asarray(sim_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ShapeError("similarity shapes differ: %r vs %r"
                         % (a.shape, b.shape))
    if a.ndim != 2:
        raise ShapeError("expected 2-D similarities, got %r" % (a.shape,))
    n, m = a.shape
    cols = np.arange(m)
    fused = np.empty((n, m), dtype=np.int64)
    for i in range(n):
        rank_a = np.empty(m)
        rank_a[np.argsort(-a[i], kind="stable")] = cols + 1
        rank_b = np.empty(m)
        rank_b[np.argsort(-b[i], kind="stable")] = cols + 1
        avg = 0.5 * (rank_a + rank_b)
        fused[i] = np.lexsort((cols, -(a[i] + b[i]), avg))
    return fused


def ensemble_eval(sim_a, sim_b, image_index, mode: str = "hybrid",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Evaluate the rank-averaged fusion of two similarity matrices."""
    a = np.asarray(sim_a, dtype=np.float64)
    b = np.asarray(sim_b, dtype=np.float64)
    image_index = np.asarray(image_index)
    i2s_orders = ensemble_ranks(a, b)
    s2i_orders = ensemble_ranks(a.T, b.T)
    six = ([_recall_i2s(i2s_orders, image_index, k) for k in ks]
           + [_recall_s2i(s2i_orders, image_index, k) for k in ks])
    return _report(mode, six)


# ---------------------------------------------------------------------------
# throughput


@dataclass
class RecomputeSetup:
    """Everything needed to rebuild image embeddings at query time."""

    params: object
    model_cfg: object
    prepared: list


@dataclass
class BenchResult:
    mode: str
    n_queries: int
    n_candidates: int
    kpps: float                 # median across trials
    trial_kpps: list
    elapsed_s: float            # median elapsed per trial

    def to_dict(self) -> dict:
        return asdict(self)


def bench_kpps(table, queries, mode: str = "precomputed", *,
               recompute: RecomputeSetup | None = None, top_k: int = 10,
               trials: int = 5, warmup: int = 3,
               timer=time.perf_counter) -> BenchResult:
    """Measure retrieval throughput in thousands of queries per second.

    ``precomputed`` answers each query with one matvec against the cached
    embedding table plus a top-k selection.  ``recompute`` additionally
    re-runs a full visual forward per query, modelling a pipeline that
    cannot cache candidate embeddings.  Reports the median of ``trials``
    timed runs after ``warmup`` untimed queries.
    """
    table = np.asarray(table, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if table.ndim != 2 or queries.ndim != 2 or table.shape[1] != queries.shape[1]:
        raise ShapeError("table %r and queries %r are incompatible"
                         % (table.shape, queries.shape))
    if table.shape[0] < 1 or queries.shape[0] < 1:
        raise ConfigError("bench needs at least one candidate and one query, "
                          "got %d and %d" % (table.shape[0], queries.shape[0]))
    if trials < 1:
        raise ConfigError("trials must be >= 1, got %d" % trials)
    if top_k < 1:
        raise ConfigError("top_k must be >= 1, got %d" % top_k)
    n_queries = queries.shape[0]
    k = min(top_k, table.shape[0])
    if n_queries < 100:
        warnings.warn("kpps from %d queries is noisy; use >= 100" % n_queries,
                      BenchmarkWarning, stacklevel=2)
    if mode == "precomputed":
        def answer(qi):
            scores = table @ queries[qi]
            return np.argpartition(-scores, k - 1)[:k]
    elif mode == "recompute":
        if recompute is None or not recompute.prepared:
            raise ConfigError("recompute mode needs a RecomputeSetup with "
                              "prepared images")
        prepared = recompute.prepared
        params, cfg = recompute.params, recompute.model_cfg

        def answer(qi):
            emb = model_mod.visual_forward(
                [prepared[qi % len(prepared)]], params, cfg).data[0]
            scores = table @ queries[qi]
            scores[qi % table.shape[0]] = emb @ queries[qi]
            return np.argpartition(-scores, k - 1)[:k]
    else:
        raise ConfigError("mode must be 'precomputed' or 'recompute', got %r"
                          % (mode,))

    with no_grad():
        for qi in range(min(warmup, n_queries)):
            answer(qi)
        per_trial = []
        for _ in range(trials):
            t0 = timer()
            for qi in range(n_queries):
                answer(qi)
            per_trial.append(timer() - t0)
    trial_kpps = [n_queries / t / 1000.0 for t in per_trial]
    return BenchResult(mode=mode, n_queries=n_queries,
                       n_candidates=table.shape[0],
                       kpps=float(np.median(trial_kpps)),
                       trial_kpps=trial_kpps,
                       elapsed_s=float(np.median(per_trial)))
