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


def _finite_2d(what: str, *arrays) -> list:
    """``arrays`` as float64; ShapeError naming ``what`` unless each is 2-D and finite."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    if not all(a.ndim == 2 and np.isfinite(a).all() for a in arrays):
        raise ShapeError("%s must be finite and 2-D, got shapes %s"
                         % (what, " and ".join(repr(a.shape) for a in arrays)))
    return arrays


def _tables(img_embs, txt_embs) -> list:
    """Both tables as float64; ShapeError unless finite, 2-D and equally wide."""
    img, txt = _finite_2d("embeddings", img_embs, txt_embs)
    if img.shape[1] != txt.shape[1]:
        raise ShapeError("embedding widths differ: %d vs %d" % (img.shape[1], txt.shape[1]))
    return [img, txt]


def similarity_matrix(img_embs, txt_embs) -> np.ndarray:
    """Pairwise dot products between unit embeddings, (N, D) x (M, D) -> (N, M).

    One GEMM: deterministic for the same inputs, and within 1e-12 of a
    double-loop dot product on unit rows.
    """
    img, txt = _tables(img_embs, txt_embs)
    return img @ txt.T


# ---------------------------------------------------------------------------
# ranking and recall


def rank_rows(sim) -> np.ndarray:
    """Per-row candidate order, best first; ties go to the lower index:
    bitwise ``np.argsort(-sim, axis=1, kind="stable")``, from one int64 sort.

    A key holds ``0.0 - score`` (which folds -0.0 into +0.0) as an
    order-preserving integer in its high bits, and its column in the low
    ``(m - 1).bit_length()`` bits.  A row where sorted neighbours share
    their high bits but not their score (unequal scores that differ only in
    the dropped bits) is sorted again by the stable argsort.  ``sim`` must
    be 2-D and finite, as the ends of each sorted row show.
    """
    scores = np.asarray(sim, dtype=np.float64)
    if scores.ndim != 2:
        _finite_2d("similarities", scores)      # raises its ShapeError
    bits = ((m := scores.shape[1]) - 1).bit_length()
    with np.errstate(invalid="ignore"):     # a signaling NaN is refused below, not warned
        keys = np.subtract(0.0, scores, order="C").view(np.int64)
    keys ^= (keys >> 63) & 0x7FFFFFFFFFFFFFFF
    keys &= -1 << bits
    keys |= np.arange(m)
    keys.sort(axis=1)
    rows, cols = np.divmod(np.flatnonzero((keys[:, 1:] ^ keys[:, :-1]) >> bits == 0), m - 1)
    keys &= (1 << bits) - 1
    if not np.isfinite(np.take_along_axis(scores, keys[:, ::m - 1 or 1], axis=1)).all():
        _finite_2d("similarities", scores)      # raises its ShapeError
    clash = scores[rows, keys[rows, cols]] != scores[rows, keys[rows, cols + 1]]
    again = np.unique(rows[clash])
    keys[again] = np.argsort(-scores[again], axis=1, kind="stable")
    return keys


def _rank_sum(*blocks, rows=None, sums=None) -> np.ndarray:
    """Each candidate's ``rank_rows`` position summed over one or two score blocks (int32), set
    in ``rows`` (all by default) of ``sums`` (a new array by default); other rows are left."""
    n, m = blocks[0].shape
    rows = np.arange(n) if rows is None else rows
    sums = np.empty((n, m), dtype=np.int32) if sums is None else sums
    for lo in range(0, len(rows), step := max(_TILE // max(m, 1), 1)):
        at = rows[lo:lo + step]
        tile = slice(at[0], at[-1] + 1) if at[-1] - at[0] < len(at) else at  # a run: no copy
        first, *more = (rank_rows(block[tile]) + at[:, None] * m for block in blocks)
        sums.reshape(-1)[first] = np.arange(m, dtype=np.int32)
        for order in more:
            sums.reshape(-1)[order] += np.arange(m, dtype=np.int32)
    return sums


def _prefix(x, at, k) -> tuple:
    """The columns of rows ``at`` of score block ``x`` that hold their first ``k`` candidates in
    ``rank_rows`` order, and each one's place in that order (k - 1 where it is unsure)."""
    m = x.shape[1]
    top = np.empty((len(at), k), dtype=np.intp)
    for lo in range(0, len(at), step := max(_TILE // m, 1)):
        top[lo:lo + step] = np.sort(np.argpartition(x[at[lo:lo + step]], m - k, axis=1)[:, m - k:])
    near = x[at[:, None], top]     # columns ascending, so rank_rows breaks ties as on the row
    place = np.argsort(rank_rows(near), axis=1)
    # Places 0..k-2 are exact when the k-th score is below the other k - 1 (or the prefix is
    # the whole row): then no candidate outside the prefix ties or beats them.
    sure = np.count_nonzero(near == near.min(axis=1, keepdims=True), axis=1) == 1
    return top, np.where(sure[:, None] | (k == m), place, k - 1)


def _select(keys, rows, cols) -> np.ndarray:
    """``_ranks`` of the fusion of two models' score blocks ``keys``, ordered as ``ensemble_ranks``
    orders them.  A row whose best ground truth's rank sum is under ``_SELECT_CAP`` is ranked on
    sums read from each model's ``_prefix``; every other row on its whole ``_rank_sum``."""
    a, b = keys
    (n, m), k = a.shape, min(_SELECT_CAP + 1, a.shape[1])
    rows, cols = np.compress((rows >= 0) & (rows < n), [rows, cols], axis=1)
    # A candidate passes a ground truth of rank sum F only from places <= F in both models.
    # Places 0..k-2 are exact and any other reads k - 1, so a ground truth whose sum reads under
    # k - 1 has its true sum, and so has every candidate that could pass it: its row is counted
    # exactly.  Other rows sort in full.  A prefix that is the whole row is exact throughout.
    lim = k - 1 if k < m else 2 * m
    # every ground truth of a row has the candidates above all of them in a ahead of it
    peak = np.full(n, -np.inf)
    np.maximum.at(peak, rows, a[rows, cols])
    low = np.count_nonzero(a > peak[:, None], axis=1)
    q = np.flatnonzero(low < lim)
    sums = np.zeros((n, m), dtype=np.int32)
    sums[q] = 2 * (k - 1)
    for x in (a, b):
        top, place = _prefix(x, q, k)
        sums[q[:, None], top] += place - (k - 1)
    best = np.full(n, lim)
    np.minimum.at(best, rows, sums[rows, cols])
    left = (low[rows] >= lim) | (best[rows] >= lim)
    _rank_sum(a, b, rows=np.unique(rows[left]), sums=sums)
    return _ranks([sums, a, b], rows, cols)


def _ranks(keys, rows, cols) -> np.ndarray:
    """Per row of a block, how many candidates come before its best ground
    truth of the (row, column) pairs ``rows, cols`` in the block (past all if
    none).  ``keys``: a score (higher first) or integer rank sum (fewer first),
    then arrays whose sum, higher first, breaks its ties, read only where it
    ties; then the lower column, as in ``rank_rows``."""
    (first, *later), fewer = keys, keys[0].dtype.kind == "i"
    n, m = first.shape
    rows, cols = np.compress((rows >= 0) & (rows < n), [rows, cols], axis=1)
    g, tie = first[rows, cols], sum((k[rows, cols] for k in later), np.zeros(len(rows)))
    order = np.lexsort((cols, -tie, g if fewer else -g, rows))
    best = order[np.diff(rows[order], prepend=-1) != 0]     # each row's first pair
    at, at_tie, at_col = np.zeros(n, first.dtype), np.zeros(n), np.zeros(n, np.intp)
    at[rows[best]], at_tie[rows[best]], at_col[rows[best]] = g[best], tie[best], cols[best]
    ahead = np.count_nonzero(first < at[:, None] if fewer else first > at[:, None], axis=1)
    tr, tc = np.divmod(np.flatnonzero(first == at[:, None]), m)
    t, gt = sum((k[tr, tc] for k in later), np.zeros(len(tr))), at_tie[tr]
    ahead += np.bincount(tr[(t > gt) | (t == gt) & (tc < at_col[tr])], minlength=n)
    return np.where(np.bincount(rows, minlength=n) > 0, ahead, m)


def _keys(q, *ways) -> list:
    """The score blocks of queries ``q``, one per model: sliced from (scores, None), or the
    GEMM of (queries, candidates) tables, checked as finite tables can overflow."""
    scores = [x[q] if y is None else x[q] @ y.T for x, y in ways]
    return scores if ways[0][1] is None else _finite_2d("similarities", *scores)


_CHUNK_ROWS = 256   # queries per block in report and bench_kpps
_TILE = 2 ** 16     # candidates ranked at once by _rank_sum: keys and temporaries stay in L2
_SELECT_CAP = 64    # fused rows whose ground truth's rank sum is under this skip the full sort
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


def fold_size(image_index, n_images: int, folds: int = 1, ks=DEFAULT_KS) -> int:
    """The images per fold of ``n_images`` images in ``folds`` contiguous folds,
    sentence j showing image ``image_index[j]``; ConfigError unless those are
    integers in [0, n_images), the folds divide the images, every fold has a
    sentence, and ``ks`` rise strictly from 1 to at most a fold's candidates."""
    image_index = np.asarray(image_index)
    if not (np.issubdtype(image_index.dtype, np.integer)
            and np.all((image_index >= 0) & (image_index < n_images))):
        raise ConfigError("image_index must hold integers in [0, %d)" % n_images)
    if folds < 1 or n_images % folds:
        raise ConfigError("%d images do not divide into %d folds (--folds): the images "
                          "per fold are a sentence's candidates" % (n_images, folds))
    size = n_images // folds
    sentences = np.bincount(image_index // max(size, 1), minlength=folds)
    if not sentences.all():
        raise ConfigError("fold %d has no sentences" % np.argmin(sentences))
    top = min(size, sentences.min())
    if not (len(ks) and all(isinstance(k, (int, np.integer)) for k in ks)
            and all(lo < hi for lo, hi in zip((0, *ks), ks))):
        raise ConfigError("every k must be a positive integer, and ks must increase "
                          "strictly; got %r" % (tuple(ks),))
    if ks[-1] > top:
        raise ConfigError("every k must lie in [1, %d]: recall@%d needs %d candidates, but %d "
                          "images in %d fold(s)%s give %d images per fold and at least %d "
                          "sentences" % (top, ks[-1], ks[-1], n_images, folds,
                                         " (--folds)" * (folds > 1), size, sentences.min()))
    return size


def report(models, image_index, mode: str = "region", folds: int = 1,
           ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k of one model's ``(image_embs, text_embs)`` tables, or of the
    rank-averaged fusion of two models', averaged over ``fold_size`` folds.

    Each block of ``_CHUNK_ROWS`` queries is scored by one checked GEMM per
    model and direction (no N x M matrix or mask); each ground truth, an
    image's best caption or a sentence's image by index, is ranked by counting
    the candidates ahead: a higher score, or a fusion's lower integer rank sum
    (the key of ``ensemble_ranks``, read by ``_select`` from each model's first
    candidates where that is exact and from ``_rank_sum`` elsewhere), then,
    read only at its ties, a higher summed score, then lower index.
    """
    if not 1 <= len(models) <= 2:
        raise ConfigError("report ranks one model or fuses two, got %d" % len(models))
    return _recalls([_tables(*tables) for tables in models], image_index, mode, folds, ks)


def _recalls(models, image_index, mode, folds, ks) -> RetrievalReport:
    """The one ranking loop, over ``report``'s checked tables or the wrappers' checked
    matrices, block by block; ground truths are (image, caption) index pairs."""
    shapes = {x.shape if isinstance(x, np.ndarray) else (len(x[0]), len(x[1])) for x in models}
    image_index, (n, m) = np.asarray(image_index), min(shapes)
    if len(shapes) > 1 or 0 in (n, m) or image_index.shape != (m,):
        raise ShapeError("similarities %s must be non-empty and match image_index %r"
                         % (" and ".join(map(repr, sorted(shapes))), image_index.shape))
    size = fold_size(image_index, n, folds, ks)
    acc, rank = np.zeros(2 * len(ks)), (_ranks, _select)[len(models) - 1]
    for lo in range(0, n, size):
        fold = (image_index >= lo) & (image_index < lo + size) if folds > 1 else slice(None)
        part = [(x[lo:lo + size][:, fold], None) if isinstance(x, np.ndarray)
                else (x[0][lo:lo + size], x[1][fold]) for x in models]
        pairs = (img := image_index[fold].astype(np.intp) - lo), np.arange(len(img))
        six = []
        for way, (rows, cols) in ((part, pairs), ([(x.T, y) if y is None else (y, x)
                                                   for x, y in part], pairs[::-1])):
            ranks = np.concatenate([rank(_keys(slice(q, q + _CHUNK_ROWS), *way), rows - q, cols)
                                    for q in range(0, len(way[0][0]), _CHUNK_ROWS)])
            six += [100.0 * int(np.count_nonzero(ranks < k)) / len(ranks) for k in ks]
        acc += six
    return RetrievalReport(mode, (acc / folds).tolist(), tuple(ks),
                           {"folds": folds} if folds > 1 else {})


def evaluate(sim, image_index, mode: str = "region",
             ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k for both directions over one similarity matrix."""
    return _recalls(_finite_2d("similarities", sim), image_index, mode, 1, ks)


def fivefold_eval(sim, image_index, folds: int = 5, mode: str = "region",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Split images into contiguous folds, evaluate each, average recalls."""
    return replace(_recalls(_finite_2d("similarities", sim), image_index, mode, folds, ks),
                   extra={"folds": folds})


def ensemble_ranks(sim_a, sim_b) -> np.ndarray:
    """Fuse two models' rankings per query by averaging rank positions: candidates go
    by ``_rank_sum`` (as by mean rank), ties to the higher summed similarity, then, as
    ``lexsort`` is stable, to the lower index; ``report``'s fused recalls use this key."""
    a, b = _finite_2d("similarities", sim_a, sim_b)
    if a.shape != b.shape:
        raise ShapeError("similarities must have one shape, got %r and %r" % (a.shape, b.shape))
    return np.lexsort((-(a + b), _rank_sum(a, b)), axis=1)


def ensemble_eval(sim_a, sim_b, image_index, mode: str = "hybrid",
                  ks=DEFAULT_KS) -> RetrievalReport:
    """Recall@k of the rank-averaged fusion of two similarity matrices:
    the recalls of ``ensemble_ranks`` orders, without building them."""
    return _recalls(_finite_2d("similarities", sim_a, sim_b), image_index, mode, 1, ks)


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
        top[lo:lo + _CHUNK_ROWS] = np.argpartition(scores, -k, axis=1)[:, -k:]
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
