"""Similarity, recall evaluation, rank-average ensembling, and throughput.

All ranking is deterministic: candidates tie-break toward the lower index,
so every metric here can be compared exactly against brute-force oracles.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from .autograd import no_grad
from .errors import BenchmarkWarning, ConfigError, ShapeError

DEFAULT_KS = (1, 5, 10)


# ---------------------------------------------------------------------------
# similarity


def _finite_2d(what: str, *arrays, same_shape: bool = False) -> list:
    """``arrays`` as float64; ShapeError naming ``what`` unless each is 2-D
    and finite and, with ``same_shape``, all have one shape."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if same_shape and len({a.shape for a in arrays}) > 1:
        wrong = "must have one shape"
    elif not all(a.ndim == 2 and np.isfinite(a).all() for a in arrays):
        wrong = "must be finite and 2-D"
    else:
        return arrays
    raise ShapeError("%s %s, got shapes %s"
                     % (what, wrong, " and ".join(repr(a.shape) for a in arrays)))


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """Pairwise dot products between unit embeddings, (N, D) x (M, D) -> (N, M).

    One GEMM: deterministic for the same inputs, and within 1e-12 of a
    double-loop dot product on unit rows.
    """
    img, txt = _finite_2d("embeddings", img_embs, txt_embs)
    if img.shape[1] != txt.shape[1]:
        raise ShapeError("embedding widths differ: %d vs %d"
                         % (img.shape[1], txt.shape[1]))
    return img @ txt.T


# ---------------------------------------------------------------------------
# ranking and recall


def rank_rows(sim) -> np.ndarray:
    """Per-row candidate order, best first; ties go to the lower index.

    Runs of tied scores start where the sorted scores differ, which NaN
    would break; like every similarity here, ``sim`` must be finite and 2-D.
    """
    return _best_first(*_finite_2d("similarities", sim))


def _best_first(scores: np.ndarray) -> np.ndarray:
    """``rank_rows`` of finite scores.  The default argsort is ~4x faster
    than a stable one; one lexsort of (run, index) over the positions of
    tied runs (equal sorted neighbours) puts ties back in index order."""
    order = np.argsort(-scores, axis=1)
    best_first = np.take_along_axis(scores, order, axis=1)
    same = np.pad(best_first[:, 1:] == best_first[:, :-1], ((0, 0), (1, 0)))  # tied to the left
    rows, cols = np.nonzero(same | np.roll(same, -1, axis=1))
    tied = order[rows, cols]
    order[rows, cols] = tied[np.lexsort((tied, np.cumsum(~same[rows, cols])))]
    return order


def _stable_ranks(scores: np.ndarray) -> np.ndarray:
    """Each candidate's position in its row's ``rank_rows`` order."""
    order = _best_first(scores)
    ranks = np.empty(scores.shape)
    np.put_along_axis(ranks, order, np.arange(scores.shape[1])[None], axis=1)
    return ranks


def _checked(image_index, *sims):
    """Finite, non-empty 2-D float similarities of one shape, after the
    image of each sentence (column): 1-D integers in [0, images)."""
    sims = _finite_2d("similarities", *sims, same_shape=True)
    image_index, shape = np.asarray(image_index), sims[0].shape
    if 0 in shape or image_index.shape != shape[1:]:
        raise ShapeError("similarities %r must be non-empty and match image_index %r"
                         % (shape, image_index.shape))
    if not (np.issubdtype(image_index.dtype, np.integer)
            and np.all((image_index >= 0) & (image_index < shape[0]))):
        raise ConfigError("image_index must hold integers in [0, %d)"
                          % shape[0])
    return (image_index, *sims)


def _ranks(keys, own) -> np.ndarray:
    """Per row, how many candidates come before the first, in key order,
    of the candidates ``own`` marks (past all of them if it marks none).
    ``keys`` are (rows, candidates) arrays compared in turn, higher first;
    a full tie goes to the lower column, as in ``rank_rows``."""
    best = own.copy()
    for key in keys:
        best &= key == key.max(axis=1, where=best, initial=-np.inf,
                               keepdims=True)
    col = best.argmax(axis=1)[:, None]
    before = np.arange(own.shape[1]) < col
    for key in reversed(keys):
        gt = np.take_along_axis(key, col, axis=1)
        before = (key > gt) | ((key == gt) & before)
    return np.where(own.any(axis=1), np.count_nonzero(before, axis=1),
                    own.shape[1])


def _recalls(ranks, ks, n_candidates: int) -> list:
    """Recall@k percentages from each query's ground-truth rank."""
    if not all(1 <= k <= n_candidates for k in ks):
        raise ConfigError("every k must lie in [1, %d], the number of "
                          "candidates; got %r" % (n_candidates, tuple(ks)))
    return [100.0 * int(np.count_nonzero(ranks < k)) / len(ranks) for k in ks]


_CHUNK_ROWS = 256   # queries per block in _six and bench_kpps
_WARMUP_QUERIES = 3   # untimed queries before bench_kpps times its trials


def _six(image_index, sims, ks, keys_of=lambda sim: [sim]) -> list:
    """Recall@k of image, then sentence queries, in blocks of queries;
    ``keys_of`` maps each similarity's block to its keys for ``_ranks``."""
    own = image_index == np.arange(sims[0].shape[0])[:, None]
    six = []
    for rows, marks in ((sims, own), ([s.T for s in sims], own.T)):
        ranks = [_ranks(keys_of(*(s[lo:lo + _CHUNK_ROWS] for s in rows)),
                        marks[lo:lo + _CHUNK_ROWS])
                 for lo in range(0, len(marks), _CHUNK_ROWS)]
        six += _recalls(np.concatenate(ranks), ks, marks.shape[1])
    return six


@dataclass
class RetrievalReport:
    """Recall@k of image, then sentence queries, at each of ``ks``."""

    mode: str
    recall: list
    ks: tuple = DEFAULT_KS
    extra: dict = field(default_factory=dict)

    @property
    def rsum(self) -> float:
        return float(sum(self.recall))

    def recalls(self) -> tuple:
        return tuple(self.recall)

    def to_dict(self) -> dict:
        n = len(self.ks)
        d = {"mode": self.mode}
        for way, vals in (("i2s", self.recall[:n]), ("s2i", self.recall[n:])):
            d[way] = {"r%d" % k: v for k, v in zip(self.ks, vals)}
        d["rsum"] = self.rsum
        if self.extra:
            d["extra"] = self.extra
        return d

    def table(self) -> str:
        head = ["%s R@%d" % (way, k) for way in ("i2s", "s2i") for k in self.ks]
        return ("%-10s" % "mode" + "".join(" %8s" % h for h in (*head, "rSum")) + "\n"
                + "%-10s" % self.mode[:10]
                + "".join(" %8.1f" % v for v in (*self.recall, self.rsum)))


def evaluate(sim, image_index, mode: str = "region",
             ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k for both directions over one similarity matrix.

    Each query's ground truth is ranked by counting the candidates that
    outrank it (a higher score, or the same score at a lower index), so
    no row is sorted.  An image query's ground truth is its best caption.
    """
    image_index, sim = _checked(image_index, sim)
    return RetrievalReport(mode, _six(image_index, [sim], ks), ks)


def fivefold_eval(sim, image_index, folds: int = 5, mode: str = "region",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Split images into contiguous folds, evaluate each, average recalls."""
    image_index, sim = _checked(image_index, sim)
    n = sim.shape[0]
    if folds < 1:
        raise ConfigError("folds must be >= 1")
    if n % folds != 0:
        raise ConfigError("%d images do not divide into %d folds" % (n, folds))
    size = n // folds
    acc = np.zeros(2 * len(ks))
    for f in range(folds):
        lo, hi = f * size, (f + 1) * size
        mask = (image_index >= lo) & (image_index < hi)
        if not mask.any():
            raise ConfigError("fold %d has no sentences" % f)
        acc += np.asarray(_six(image_index[mask] - lo,
                               [sim[lo:hi][:, mask]], ks))
    return RetrievalReport(mode, list(acc / folds), ks, {"folds": folds})


def ensemble_ranks(sim_a, sim_b) -> np.ndarray:
    """Fuse two models' rankings per query by averaging rank positions.

    Candidates are re-sorted by mean rank (the rank sum orders them the
    same way); ties break toward the higher summed similarity, then, as
    ``lexsort`` is stable, the lower index.
    """
    a, b = _finite_2d("similarities", sim_a, sim_b, same_shape=True)
    return np.lexsort((-(a + b), _stable_ranks(a) + _stable_ranks(b)), axis=1)


def ensemble_eval(sim_a, sim_b, image_index, mode: str = "hybrid",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Evaluate the rank-averaged fusion of two similarity matrices.

    Gives the recalls of ``ensemble_ranks`` orders without building them:
    per block of queries, it ranks every candidate under each model, then
    counts the candidates whose key (rank sum, then summed score, then
    index) comes before the ground truth's.
    """
    image_index, a, b = _checked(image_index, sim_a, sim_b)
    return RetrievalReport(mode, _six(image_index, [a, b], ks, lambda a, b: [
        -(_stable_ranks(a) + _stable_ranks(b)), a + b]), ks)


# ---------------------------------------------------------------------------
# throughput


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


def _top_k(table: np.ndarray, queries: np.ndarray, k: int) -> np.ndarray:
    """Each query's k best candidates, unordered, in blocks of
    ``_CHUNK_ROWS`` queries: one GEMM and a row-wise ``argpartition``."""
    top = np.empty((queries.shape[0], k), dtype=np.intp)
    for lo in range(0, queries.shape[0], _CHUNK_ROWS):
        scores = queries[lo:lo + _CHUNK_ROWS] @ table.T
        top[lo:lo + _CHUNK_ROWS] = np.argpartition(-scores, k - 1, axis=1)[:, :k]
    return top


def bench_kpps(table, queries, mode: str = "precomputed", *,
               recompute: Callable[[int], np.ndarray] | None = None, top_k: int = 10,
               trials: int = 5, timer=time.perf_counter) -> BenchResult:
    """Measure retrieval throughput in thousands of queries per second.

    ``precomputed`` scores the queries against the cached embedding table
    with one GEMM per block of ``_CHUNK_ROWS`` queries and returns each
    query's top k unordered (``argpartition``).  A one-row block goes to
    GEMV, which need not be bitwise equal to that row of a larger GEMM.
    ``recompute`` answers one query at a time, scoring one candidate by
    ``recompute(qi)``: query ``qi``'s candidate embedding rebuilt under
    ``no_grad`` (a full visual forward, say), modelling a pipeline that
    cannot cache candidate embeddings.  Reports the median of ``trials``
    timed runs after ``_WARMUP_QUERIES`` untimed queries.
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
        def answer(count):
            _top_k(table, queries[:count], k)
    elif mode == "recompute":
        if recompute is None:
            raise ConfigError("recompute mode needs a function giving each query's "
                              "candidate embedding")

        def answer(count):
            for qi in range(count):
                scores = table @ queries[qi]
                scores[qi % table.shape[0]] = recompute(qi) @ queries[qi]
                np.argpartition(-scores, k - 1)[:k]
    else:
        raise ConfigError("mode must be 'precomputed' or 'recompute', got %r"
                          % (mode,))

    with no_grad():
        answer(min(_WARMUP_QUERIES, n_queries))
        per_trial = []
        for _ in range(trials):
            t0 = timer()
            answer(n_queries)
            per_trial.append(timer() - t0)
    trial_kpps = [n_queries / t / 1000.0 for t in per_trial]
    return BenchResult(mode=mode, n_queries=n_queries,
                       n_candidates=table.shape[0],
                       kpps=float(np.median(trial_kpps)),
                       trial_kpps=trial_kpps,
                       elapsed_s=float(np.median(per_trial)))
