"""Similarity, recall evaluation, rank-average ensembling, and throughput.

All ranking is deterministic: candidates tie-break toward the lower index,
so every metric here can be compared exactly against brute-force oracles.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import asdict, dataclass, field, replace
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
    The default argsort is ~4x faster than a stable one; one lexsort of
    (run, index) over the positions of tied runs (equal sorted neighbours)
    puts ties back in index order.
    """
    scores, = _finite_2d("similarities", sim)
    order = np.argsort(-scores, axis=1)
    best_first = np.take_along_axis(scores, order, axis=1)
    same = np.pad(best_first[:, 1:] == best_first[:, :-1], ((0, 0), (1, 0)))  # tied to the left
    rows, cols = np.nonzero(same | np.roll(same, -1, axis=1))
    tied = order[rows, cols]
    order[rows, cols] = tied[np.lexsort((tied, np.cumsum(~same[rows, cols])))]
    return order


def _stable_ranks(scores: np.ndarray) -> np.ndarray:
    """Each candidate's position in its row's ``rank_rows`` order."""
    order = rank_rows(scores)
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


def _keys(score, other=None) -> list:
    """``_ranks`` keys of one block of queries: its scores, or with a second
    model's block, the fusion's rank sum (fewer first), then summed score."""
    if other is None:
        return [score]
    return [-(_stable_ranks(score) + _stable_ranks(other)), score + other]


_CHUNK_ROWS = 256   # queries per block in report and bench_kpps
_WARMUP_QUERIES = 3   # untimed queries before bench_kpps times its trials


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


def report(sims, image_index, mode: str = "region", folds: int = 1,
           ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k of one similarity matrix, or of the rank-averaged fusion of
    two, averaged over ``folds`` contiguous folds of the images.

    Each query's ground truth is ranked by counting, per block of queries,
    the candidates whose key comes first: a higher score, or for a fusion a
    lower rank sum (``ensemble_ranks``' order), then a higher summed score;
    a full tie goes to the lower index.  No row of one matrix is sorted.
    An image query's ground truth is its best caption.  ``ks`` must be
    strictly increasing integers no larger than any fold's candidates.
    """
    if not 1 <= len(sims) <= 2:
        raise ConfigError("report ranks one similarity matrix or fuses two, got %d"
                          % len(sims))
    image_index, *sims = _checked(image_index, *sims)
    n = sims[0].shape[0]
    if folds < 1 or n % folds:
        raise ConfigError("%d images do not divide into %d folds" % (n, folds))
    size = n // folds
    sentences = np.bincount(image_index // size, minlength=folds)
    if not sentences.all():
        raise ConfigError("fold %d has no sentences" % np.argmin(sentences))
    top = min(size, sentences.min())
    if not (len(ks) and all(isinstance(k, (int, np.integer)) for k in ks)
            and all(lo < hi for lo, hi in zip((0, *ks), (*ks, top + 1)))):
        raise ConfigError("every k must lie in [1, %d], the number of candidates, "
                          "and ks must increase strictly; got %r" % (top, tuple(ks)))
    acc = np.zeros(2 * len(ks))
    for lo in range(0, n, size):
        fold = (image_index >= lo) & (image_index < lo + size) if folds > 1 else slice(None)
        part = [s[lo:lo + size][:, fold] for s in sims]
        own = image_index[fold] == np.arange(lo, lo + size)[:, None]
        six = []
        for rows, marks in ((part, own), ([s.T for s in part], own.T)):
            ranks = np.concatenate([
                _ranks(_keys(*(s[q:q + _CHUNK_ROWS] for s in rows)), marks[q:q + _CHUNK_ROWS])
                for q in range(0, len(marks), _CHUNK_ROWS)])
            six += [100.0 * int(np.count_nonzero(ranks < k)) / len(ranks) for k in ks]
        acc += six
    return RetrievalReport(mode, (acc / folds).tolist(), tuple(ks),
                           {"folds": folds} if folds > 1 else {})


def evaluate(sim, image_index, mode: str = "region",
             ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k for both directions over one similarity matrix."""
    return report([sim], image_index, mode, ks=ks)


def fivefold_eval(sim, image_index, folds: int = 5, mode: str = "region",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Split images into contiguous folds, evaluate each, average recalls."""
    return replace(report([sim], image_index, mode, folds, ks), extra={"folds": folds})


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
    """Recall@k of the rank-averaged fusion of two similarity matrices:
    the recalls of ``ensemble_ranks`` orders, without building them."""
    return report([sim_a, sim_b], image_index, mode, ks=ks)


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
