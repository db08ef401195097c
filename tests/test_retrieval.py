"""Retrieval metrics against brute-force oracles, plus benchmark plumbing."""
import json
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sshnet import retrieval as rt
from sshnet.errors import BenchmarkWarning, ConfigError, ShapeError


# ---------------------------------------------------------------------------
# oracles


def sim_oracle(img, txt):
    n, m = img.shape[0], txt.shape[0]
    out = np.zeros((n, m))
    for i in range(n):
        for j in range(m):
            out[i, j] = sum(img[i, d] * txt[j, d] for d in range(img.shape[1]))
    return out


def rank_oracle(scores):
    """Full sort, best first, lower index wins ties."""
    return sorted(range(len(scores)), key=lambda c: (-scores[c], c))


def recall_oracle(sim, image_index, k, direction):
    if direction == "i2s":
        hits = 0
        for i in range(sim.shape[0]):
            top = rank_oracle(sim[i])[:k]
            hits += any(image_index[c] == i for c in top)
        return 100.0 * hits / sim.shape[0]
    hits = 0
    for j in range(sim.shape[1]):
        top = rank_oracle(sim[:, j])[:k]
        hits += image_index[j] in top
    return 100.0 * hits / sim.shape[1]


def gt_rank_oracle(sim, image_index, direction):
    """Each query's ground-truth position in its ``rank_oracle`` order: an
    image's best caption (the candidate count if it has none), or a
    sentence's image."""
    if direction == "i2s":
        return [next((pos for pos, c in enumerate(rank_oracle(row))
                      if image_index[c] == i), len(row))
                for i, row in enumerate(sim)]
    return [rank_oracle(sim[:, j]).index(image_index[j])
            for j in range(sim.shape[1])]


def gt_ranks(sim, image_index, direction):
    """``rt._ranks`` in one direction: what every recall@k is read from."""
    pairs = np.asarray(image_index), np.arange(len(image_index))   # (image, caption)
    if direction == "s2i":
        sim, pairs = sim.T, pairs[::-1]
    return rt._ranks([sim], *pairs).tolist()


def ensemble_oracle_row(sa, sb):
    m = len(sa)
    ra, rb = {}, {}
    for pos, c in enumerate(rank_oracle(sa)):
        ra[c] = pos + 1
    for pos, c in enumerate(rank_oracle(sb)):
        rb[c] = pos + 1
    return sorted(range(m),
                  key=lambda c: ((ra[c] + rb[c]) / 2, -(sa[c] + sb[c]), c))


def random_instance(rng, max_images=50, max_caps=5):
    n = int(rng.integers(10, max_images + 1))
    caps = int(rng.integers(1, max_caps + 1))
    image_index = np.repeat(np.arange(n), caps)
    sim = rng.uniform(-1, 1, size=(n, n * caps))
    return sim, image_index


# ---------------------------------------------------------------------------
# similarity


def test_similarity_identity_and_orthogonal():
    e = np.array([[1.0, 0.0]])
    f = np.array([[0.0, 1.0]])
    assert rt.similarity_matrix(e, e)[0, 0] == 1.0
    assert rt.similarity_matrix(e, f)[0, 0] == 0.0


def test_similarity_matches_double_loop_oracle():
    rng = np.random.default_rng(3)
    img = rng.normal(size=(10, 7))
    txt = rng.normal(size=(50, 7))
    got = rt.similarity_matrix(img, txt)
    assert np.max(np.abs(got - sim_oracle(img, txt))) < 1e-12
    assert np.array_equal(got, rt.similarity_matrix(img, txt))


def test_similarity_rejects_bad_shapes():
    with pytest.raises(ShapeError):
        rt.similarity_matrix(np.ones((2, 3)), np.ones((2, 4)))
    with pytest.raises(ShapeError):
        rt.similarity_matrix(np.ones(3), np.ones((2, 3)))
    with pytest.raises(ShapeError):
        rt.similarity_matrix(np.array([[np.inf]]), np.ones((1, 1)))


# ---------------------------------------------------------------------------
# recall


def test_block_diagonal_gives_perfect_recall():
    n, caps = 12, 2
    image_index = np.repeat(np.arange(n), caps)
    sim = np.full((n, n * caps), -0.5)
    for i in range(n):
        sim[i, image_index == i] = 0.9
    assert rt.evaluate(sim, image_index).recalls() == (100.0,) * 6


def test_ground_truth_at_rank_three():
    # two images, one caption each; correct caption ranks 3rd of 4
    sim = np.array([[0.5, 0.9, 0.8, 0.1],
                    [0.9, 0.5, 0.8, 0.1]])
    image_index = np.array([0, 1, 0, 1])
    # recall@1 is 0 and recall@4 is 100; s2i has too few candidates for
    # evaluate to take k = 4, so read the ranks every recall comes from
    assert gt_ranks(sim, image_index, "i2s") == [1, 2]
    assert gt_rank_oracle(sim, image_index, "i2s") == [1, 2]


def test_recall_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sim, image_index = random_instance(rng)    # >= 10 images
        got = rt.evaluate(sim, image_index, ks=(1, 3, 10)).recalls()
        assert list(got) == [recall_oracle(sim, image_index, k, d)
                             for d in ("i2s", "s2i") for k in (1, 3, 10)]


def test_recall_handles_ties_deterministically():
    sim = np.zeros((3, 6))       # all tied: lower index wins
    image_index = np.repeat(np.arange(3), 2)
    # image 0's captions are columns 0/1 -> top-1 hit only for image 0
    assert gt_ranks(sim, image_index, "i2s") == [0, 2, 4]
    assert gt_ranks(sim, image_index, "s2i") == [0, 0, 1, 1, 2, 2]
    assert rt.evaluate(sim, image_index, ks=(1, 2, 3)).recalls() == \
        pytest.approx((100 / 3, 100 / 3, 200 / 3, 100 / 3, 200 / 3, 100.0))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_recall_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    sim, image_index = random_instance(rng, max_images=15, max_caps=3)
    prev = (0.0,) * 2
    for k in range(1, sim.shape[0] + 1):     # every k both directions take
        cur = rt.evaluate(sim, image_index, ks=(k,)).recalls()
        assert all(c >= p for c, p in zip(cur, prev))
        prev = cur
    assert prev[1] == 100.0  # k == s2i candidate count always hits


def test_recall_rejects_bad_k_and_direction():
    sim = np.zeros((3, 6))
    image_index = np.repeat(np.arange(3), 2)
    # 7 exceeds the 6 sentences; 4 fits i2s but exceeds s2i's 3 images
    for ks in ((1, 2, 7), (1, 2, 4), (0, 1, 2)):
        with pytest.raises(ConfigError, match="every k"):
            rt.evaluate(sim, image_index, ks=ks)


@pytest.mark.parametrize("ks", [(2, 2, 2), (1, 1), (10, 1), (1, 3, 2), (), (1, 2.5)],
                         ids=["repeated", "doubled", "descending", "unsorted", "empty",
                              "fractional"])
def test_every_report_refuses_ks_that_do_not_increase_strictly(ks):
    """A report labels each recall with its k, so ks must be strictly
    increasing integers; repeated ones would merge their labels."""
    rng = np.random.default_rng(37)
    image_index = np.repeat(np.arange(12), 2)
    sim, other = rng.uniform(-1, 1, size=(2, 12, 24))
    tables = [(rng.normal(size=(12, 4)), rng.normal(size=(24, 4))) for _ in range(2)]
    for call in (lambda: rt.evaluate(sim, image_index, ks=ks),
                 lambda: rt.fivefold_eval(sim, image_index, folds=2, ks=ks),
                 lambda: rt.ensemble_eval(sim, other, image_index, ks=ks),
                 lambda: rt.report(tables[:1], image_index, ks=ks),
                 lambda: rt.report(tables, image_index, folds=3, ks=ks)):
        with pytest.raises(ConfigError, match="every k"):
            call()


def test_evaluate_report_consistency():
    rng = np.random.default_rng(13)
    sim, image_index = random_instance(rng)
    report = rt.evaluate(sim, image_index, mode="region")
    assert report.rsum == pytest.approx(sum(report.recalls()), abs=1e-9)
    for d, (r1, r5, r10) in (("i2s", report.recalls()[:3]),
                             ("s2i", report.recalls()[3:])):
        assert r1 == recall_oracle(sim, image_index, 1, d)
        assert r10 == recall_oracle(sim, image_index, 10, d)
        assert 0 <= r1 <= r5 <= r10 <= 100
    d = report.to_dict()
    assert d["i2s"]["r1"] == report.recalls()[0] and d["rsum"] == report.rsum
    lines = report.table().splitlines()
    assert len(lines) == 2 and "rSum" in lines[0]


def test_reports_label_recalls_with_their_ks():
    rng = np.random.default_rng(23)
    image_index = np.repeat(np.arange(12), 2)
    sim, other = rng.uniform(-1, 1, size=(2, 12, 24))
    ks = (1, 2, 3)
    for report in (rt.evaluate(sim, image_index, ks=ks),
                   rt.fivefold_eval(sim, image_index, folds=2, ks=ks),
                   rt.ensemble_eval(sim, other, image_index, ks=ks)):
        d = report.to_dict()
        for way, vals in (("i2s", report.recalls()[:3]), ("s2i", report.recalls()[3:])):
            assert d[way] == dict(zip(("r1", "r2", "r3"), vals))
        assert report.table().splitlines()[0] == (
            "mode        i2s R@1  i2s R@2  i2s R@3  s2i R@1  s2i R@2  s2i R@3     rSum")


def test_default_table_is_frozen():
    report = rt.RetrievalReport("region", [83.1, 97.2, 99.3, 68.7, 92.4, 96.6])
    assert report.rsum == pytest.approx(537.3)
    assert report.table() == (
        "mode        i2s R@1  i2s R@5 i2s R@10  s2i R@1  s2i R@5 s2i R@10     rSum\n"
        "region         83.1     97.2     99.3     68.7     92.4     96.6    537.3")
    assert list(report.to_dict()) == ["mode", "i2s", "s2i", "rsum"]
    assert report.to_dict()["s2i"] == {"r1": 68.7, "r5": 92.4, "r10": 96.6}


def _bad_index_cases():
    idx = np.repeat(np.arange(3), 2)             # 3 images x 2 captions
    return [
        ("too-short", idx[:-1], ShapeError),
        ("too-long", np.append(idx, 0), ShapeError),
        ("2-D", idx[None], ShapeError),
        ("minus-one", np.where(idx == 2, -1, idx), ConfigError),
        ("out-of-range", np.where(idx == 2, 70, idx), ConfigError),
        ("float", idx.astype(np.float64), ConfigError),
        ("bool", idx.astype(bool), ConfigError),
    ]


RETRIEVAL_CALLS = {
    "evaluate": lambda sim, idx: rt.evaluate(sim, idx, ks=(1, 2, 3)),
    "fivefold_eval": lambda sim, idx: rt.fivefold_eval(sim, idx, folds=1,
                                                       ks=(1, 2, 3)),
    "ensemble_eval": lambda sim, idx: rt.ensemble_eval(sim, sim, idx,
                                                       ks=(1, 2, 3)),
}


@pytest.mark.parametrize("call", sorted(RETRIEVAL_CALLS))
@pytest.mark.parametrize("case, idx, error", _bad_index_cases(),
                         ids=[c[0] for c in _bad_index_cases()])
def test_retrieval_rejects_bad_image_index(call, case, idx, error):
    sim = np.random.default_rng(59).uniform(-1, 1, size=(3, 6))
    with pytest.raises(error, match="image_index"):
        RETRIEVAL_CALLS[call](sim, idx)


RANKINGS = {
    "rank_rows": lambda sim, idx: rt.rank_rows(sim),
    "ensemble_ranks": lambda sim, idx: rt.ensemble_ranks(np.zeros(sim.shape), sim),
}


@pytest.mark.parametrize("call", sorted(RETRIEVAL_CALLS) + sorted(RANKINGS))
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, "1-D"])
def test_retrieval_rejects_non_finite_similarity(call, bad):
    sim = np.random.default_rng(61).uniform(-1, 1, size=(3, 6))
    if bad == "1-D":
        sim = sim[0]
    else:
        sim[1, 4] = bad
    with pytest.raises(ShapeError, match="finite"):
        {**RETRIEVAL_CALLS, **RANKINGS}[call](sim, np.repeat(np.arange(3), 2))


@pytest.mark.parametrize("call", sorted(RETRIEVAL_CALLS))
@pytest.mark.parametrize("shape", [(0, 0), (3, 0), (0, 6)])
def test_retrieval_rejects_empty_similarity(call, shape):
    idx = np.zeros(shape[1], dtype=np.int64)
    with pytest.raises(ShapeError, match="non-empty"):
        RETRIEVAL_CALLS[call](np.zeros(shape), idx)


def test_ensemble_eval_rejects_mismatched_or_non_finite_second_model():
    idx = np.repeat(np.arange(3), 2)
    sim = np.zeros((3, 6))
    with pytest.raises(ShapeError):
        rt.ensemble_eval(sim, np.zeros((6, 3)), idx)
    with pytest.raises(ShapeError, match="finite"):
        rt.ensemble_eval(sim, np.full((3, 6), np.nan), idx)


def test_image_without_captions_is_an_i2s_miss():
    sim = np.array([[0.9, 0.1, 0.2],
                    [0.8, 0.3, 0.7],
                    [0.1, 0.9, 0.8]])
    image_index = np.array([0, 2, 2])            # image 1 has no caption
    report = rt.evaluate(sim, image_index, ks=(1, 2, 3))
    assert report.recalls()[:3] == (200 / 3, 200 / 3, 200 / 3)
    assert gt_ranks(sim, image_index, "i2s") == [0, 3, 0]   # past all 3
    fused = rt.ensemble_eval(sim, sim, image_index, ks=(1, 2, 3))
    assert fused.recalls() == report.recalls()


# ---------------------------------------------------------------------------
# folds


def test_identical_folds_average_to_single_fold():
    rng = np.random.default_rng(17)
    n, caps = 10, 2
    image_index = np.repeat(np.arange(n), caps)
    block = rng.uniform(-1, 1, size=(n, n * caps))
    sim = np.zeros((3 * n, 3 * n * caps))
    idx = np.concatenate([image_index + f * n for f in range(3)])
    for f in range(3):
        sim[f * n:(f + 1) * n, f * n * caps:(f + 1) * n * caps] = block
    single = rt.evaluate(block, image_index)
    folded = rt.fivefold_eval(sim, idx, folds=3)
    assert folded.recalls() == single.recalls()


def test_two_folds_average():
    # fold 0 perfect, fold 1 ground truth dead last
    n = 10
    image_index = np.arange(2 * n)
    sim = np.full((2 * n, 2 * n), -1.0)
    for i in range(n):
        sim[i, i] = 1.0
    for i in range(n, 2 * n):
        sim[i, i] = -2.0
        sim[i, (i + 1 - n) % n + n] = 1.0
    report = rt.fivefold_eval(sim, image_index, folds=2)
    assert report.recalls()[0] == 50.0 and report.recalls()[3] == 50.0


def test_fivefold_matches_per_fold_oracle():
    rng = np.random.default_rng(19)
    n, caps, folds = 30, 3, 10
    image_index = np.repeat(np.arange(n), caps)
    sim = rng.uniform(-1, 1, size=(n, n * caps))
    got = rt.fivefold_eval(sim, image_index, folds=folds, ks=(1, 2, 3))
    acc = np.zeros(6)
    size = n // folds
    for f in range(folds):
        lo, hi = f * size, (f + 1) * size
        mask = (image_index >= lo) & (image_index < hi)
        sub, sub_idx = sim[lo:hi][:, mask], image_index[mask] - lo
        acc += [recall_oracle(sub, sub_idx, k, d)
                for d in ("i2s", "s2i") for k in (1, 2, 3)]
    np.testing.assert_allclose(got.recalls(), acc / folds, rtol=0, atol=1e-12)


@given(st.integers(1, 12), st.lists(st.integers(0, 11), max_size=30), st.integers(0, 5),
       st.sampled_from([(1,), (1, 2), (1, 5, 10), (2, 3), (3, 3), (0, 1), ()]))
@settings(max_examples=200, deadline=None)
def test_report_refuses_exactly_what_fold_size_refuses(n, index, folds, ks):
    """``fold_size`` is the one statement of the split and ks rule: on the
    same layout, ``report`` refuses exactly when it does, with its message,
    and otherwise averages over folds of its size."""
    image_index = np.array([i % n for i in index], dtype=np.int64)
    try:
        size = rt.fold_size(image_index, n, folds, ks)
    except ConfigError as e:
        refused = str(e)
    else:
        refused = None
        assert size * folds == n and size >= ks[-1]
    if not len(image_index):
        return                                  # report refuses an empty table first
    rng = np.random.default_rng(n)
    tables = rng.uniform(-1, 1, size=(n, 3)), rng.uniform(-1, 1, size=(len(image_index), 3))
    try:
        rt.report([tables], image_index, folds=folds, ks=ks)
    except ConfigError as e:
        assert str(e) == refused
    else:
        assert refused is None


def test_fold_size_checks_the_image_of_each_sentence():
    for bad in (np.array([0, 3]), np.array([-1, 0]), np.array([0.0, 1.0])):
        with pytest.raises(ConfigError, match=r"image_index must hold integers in \[0, 3\)"):
            rt.fold_size(bad, 3, ks=(1,))


def test_fivefold_rejects_non_divisible():
    sim = np.zeros((7, 7))
    with pytest.raises(ConfigError):
        rt.fivefold_eval(sim, np.arange(7), folds=5)


# ---------------------------------------------------------------------------
# ensembling


def test_ensemble_is_idempotent():
    rng = np.random.default_rng(23)
    sim = rng.uniform(-1, 1, size=(6, 15))
    fused = rt.ensemble_ranks(sim, sim)
    assert np.array_equal(fused, rt.rank_rows(sim))


def test_ensemble_reversal_breaks_ties_by_summed_score():
    # model A prefers x,y,z; model B prefers z,y,x; every mean rank is 2
    a = np.array([[3.0, 2.0, 1.0]])
    b = np.array([[1.0, 2.0, 9.0]])
    fused = rt.ensemble_ranks(a, b)
    # summed scores: x=4, y=4, z=10 -> z first, then x (lower index), then y
    assert fused[0].tolist() == [2, 0, 1]


def test_ensemble_matches_rank_average_oracle():
    rng = np.random.default_rng(29)
    for _ in range(20):
        a = rng.uniform(-1, 1, size=(5, 20))
        b = rng.uniform(-1, 1, size=(5, 20))
        fused = rt.ensemble_ranks(a, b)
        for i in range(5):
            assert fused[i].tolist() == ensemble_oracle_row(a[i], b[i])


def test_ensemble_rejects_mismatched_axes():
    with pytest.raises(ShapeError):
        rt.ensemble_ranks(np.zeros((2, 3)), np.zeros((3, 2)))


TIE_VALUES = st.one_of(
    st.sampled_from([-1.5, -0.5, -0.0, 0.0, 0.5, 2.0]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def tie_heavy_pair(draw):
    """Two (n, m) similarities, 0 <= n, m <= 8, whose entries come from
    six values (+0.0 and -0.0 among them) or from all finite floats, with
    a copied column in each."""
    n, m = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    sims = []
    for _ in range(2):
        flat = draw(st.lists(TIE_VALUES, min_size=n * m, max_size=n * m))
        sim = np.array(flat, dtype=np.float64).reshape(n, m)
        if m:
            sim[:, draw(st.integers(0, m - 1))] = sim[:, draw(st.integers(0, m - 1))]
        sims.append(sim)
    return sims


@given(tie_heavy_pair())
@example([np.zeros((0, 0))] * 2)
@example([np.zeros((0, 4))] * 2)
@example([np.zeros((4, 0))] * 2)
@example([np.array([[-0.0]]), np.array([[0.0]])])
@example([np.array([[0.0, -0.0, 0.0]]), np.array([[-0.0, 0.0, 0.0]])])
@settings(max_examples=300, deadline=None)
def test_one_order_matches_stable_sort_and_oracles(pair):
    a, b = pair
    for sim in (a, b, a.T):
        got = rt.rank_rows(sim)
        assert got.shape == sim.shape
        assert np.array_equal(got, np.argsort(-sim, axis=1, kind="stable"))
        assert got.tolist() == [rank_oracle(row) for row in sim]
    for sa, sb in ((a, b), (a.T, b.T), (a, a)):
        with np.errstate(over="ignore"):    # a + b may overflow to -inf ties
            fused = rt.ensemble_ranks(sa, sb)
            want = [ensemble_oracle_row(ra, rb) for ra, rb in zip(sa, sb)]
        assert fused.shape == sa.shape and fused.tolist() == want


@st.composite
def tied_rows(draw):
    """(n, m) scores, m == 1 included: small integers with +0.0 and -0.0
    mixed in, some rows wholly tied, and half the time the transposed
    (non-contiguous) view of an (m, n) array, as ``report`` passes s2i."""
    n, m = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    cells = draw(st.lists(st.tuples(st.integers(-3, 3), st.booleans()),
                          min_size=n * m, max_size=n * m))
    s = np.array([-0.0 if v == 0 and neg else float(v) for v, neg in cells]).reshape(n, m)
    flat = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    s[flat] = s[flat, :1]
    return np.ascontiguousarray(s.T).T if draw(st.booleans()) else s


@given(tied_rows())
@example(np.array([[0.0], [-0.0], [2.0]]))
@example(np.full((3, 5), -0.0))
@example(np.array([[0.0, -0.0, 0.0, -0.0], [1.0, -0.0, 1.0, 0.0]]).T.copy().T)
@settings(max_examples=300, deadline=None)
def test_tie_order_is_the_stable_sort_bitwise(s):
    want = np.argsort(-s, axis=1, kind="stable")
    inverse = np.empty(s.shape, dtype=np.int32)
    np.put_along_axis(inverse, want, np.arange(s.shape[1])[None], axis=1)
    got = rt.rank_rows(s)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    ranks = rt._rank_sum(s)
    assert ranks.dtype == inverse.dtype and ranks.tobytes() == inverse.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 8192, 8193])
def test_scores_apart_only_in_the_index_bits_keep_the_stable_order(m):
    """``rank_rows`` packs the column into the low ``(m - 1).bit_length()``
    bits of each sort key, so scores a few ULPs apart share every other
    bit.  Rows of such neighbours (``np.nextafter`` steps from aligned
    values and from +0.0 and -0.0), with exact ties and wholly tied rows
    mixed in, keep the stable sort's order, in C and transposed layouts."""
    rng = np.random.default_rng(m)
    base = rng.choice([-0.5, -0.0, 0.0, 0.25], size=(8, m))
    ulps = rng.integers(0, 2 << (m - 1).bit_length(), size=base.shape)
    s = (base.view(np.int64) + ulps).view(np.float64)   # ulps steps away from 0
    step = np.nextafter(base[:2], rng.choice([-1.0, 1.0], size=(2, m)))
    s[:2] = np.where(rng.integers(0, 2, size=(2, m)), step, base[:2])
    s[2] = s[2, 0]
    for sim in (s, np.ascontiguousarray(s.T).T, -s):
        want = np.argsort(-sim, axis=1, kind="stable")
        assert rt.rank_rows(sim).tobytes() == want.tobytes()
        inverse = np.empty(sim.shape, dtype=np.int32)
        np.put_along_axis(inverse, want, np.arange(m)[None], axis=1)
        assert rt._rank_sum(sim).tobytes() == inverse.tobytes()


@st.composite
def rank_sum_blocks(draw):
    """One or two (n, m) blocks of a few values (+0.0 and -0.0 among them),
    each C or the transposed view of an (m, n) array, as ``_recalls`` hands
    s2i blocks.  m = 8193 puts a few rows in each tile of ``_TILE`` candidates,
    so 40 rows straddle several tiles; m = 2**17 + 1 gives each row its own."""
    m = draw(st.sampled_from([0, 1, 2, 7, 300, 8193, 2 ** 17 + 1]))
    n = draw(st.integers(0, 40 if m < 2 ** 17 else 3))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    blocks = [rng.choice([-1.5, -0.0, 0.0, 0.5, 2.0], size=(n, m))
              for _ in range(draw(st.integers(1, 2)))]
    return [np.ascontiguousarray(b.T).T if draw(st.booleans()) else b for b in blocks]


@given(rank_sum_blocks())
@example([np.zeros((0, 0))])
@example([np.zeros((0, 4))] * 2)
@example([np.zeros((4, 0))] * 2)
@example([np.tile(np.arange(8193.0) % 3, (40, 1)),
          np.tile(np.arange(8193.0) % 5, (40, 1)).T.copy().T])
@example([np.tile(np.arange(2 ** 17 + 1.0) % 7, (3, 1))] * 2)
@settings(max_examples=60, deadline=None)
def test_rank_sum_is_the_sum_of_stable_inverse_permutations(blocks):
    """``_rank_sum`` of one block or two equals, bitwise and as int32, the sum of
    each block's inverse stable-argsort permutation, whatever the tiling."""
    n, m = blocks[0].shape
    want = np.zeros((n, m), dtype=np.int32)
    for s in blocks:
        inverse = np.empty((n, m), dtype=np.int32)
        np.put_along_axis(inverse, np.argsort(-s, axis=1, kind="stable"),
                          np.arange(m, dtype=np.int32)[None], axis=1)
        want += inverse
    got = rt._rank_sum(*blocks)
    assert got.dtype == np.int32 and got.shape == (n, m) and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("m", [1, 2, 5, 8193])
def test_rank_rows_refuses_a_non_finite_score_anywhere(m):
    """``rank_rows`` checks only the two ends of each sorted row: either
    infinity and a NaN of either sign and any payload sort past every finite
    score, the largest finite magnitudes included, wherever they sit, in C
    and transposed layouts, with no warning before the error (negating a
    signaling NaN raises the invalid flag)."""
    rng = np.random.default_rng(m)
    base = rng.uniform(-1, 1, size=(3, m))
    base[0, -1], base[2, 0] = np.finfo(np.float64).max, -np.finfo(np.float64).max
    assert rt.rank_rows(base).tobytes() == np.argsort(-base, axis=1, kind="stable").tobytes()
    nans = np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
                     0xFFF0000000000001], dtype=np.uint64).view(np.float64)
    for bad in (np.inf, -np.inf, *nans):
        for row, col in ((0, 0), (1, m // 2), (2, m - 1)):
            sim = base.copy()
            sim[row, col] = bad
            for layout in (sim, np.ascontiguousarray(sim.T).T):
                with pytest.raises(ShapeError, match="finite"), warnings.catch_warnings():
                    warnings.simplefilter("error")      # no warning comes first
                    rt.rank_rows(layout)


def test_ensemble_eval_equals_plain_eval_when_models_agree():
    rng = np.random.default_rng(31)
    sim, image_index = random_instance(rng)
    plain = rt.evaluate(sim, image_index)
    fused = rt.ensemble_eval(sim, sim, image_index)
    assert fused.recalls() == plain.recalls()
    assert fused.mode == "hybrid"


def recalls_from_orders(i2s_orders, s2i_orders, image_index, ks):
    """Six recalls read off full candidate orders, one row per query."""
    six = []
    for k in ks:
        hits = sum(np.any(image_index[order[:k]] == i)
                   for i, order in enumerate(i2s_orders))
        six.append(100.0 * hits / len(i2s_orders))
    for k in ks:
        hits = sum(image_index[j] in order[:k]
                   for j, order in enumerate(s2i_orders))
        six.append(100.0 * hits / len(s2i_orders))
    return six


@st.composite
def tie_heavy_instance(draw):
    """Small integer similarities with copied rows and columns, 1-5
    captions per image in shuffled order, and sometimes a captionless image."""
    n = draw(st.integers(2, 8))
    counts = draw(st.lists(st.integers(1, 5), min_size=n, max_size=n))
    if draw(st.booleans()):
        counts[draw(st.integers(0, n - 1))] = 0
    image_index = np.repeat(np.arange(n), counts)
    if image_index.size == 0:
        image_index = np.array([0])
    image_index = np.array(draw(st.permutations(image_index.tolist())),
                           dtype=np.int64)
    m = image_index.size
    sims = []
    for _ in range(2):
        flat = draw(st.lists(st.integers(-2, 2), min_size=n * m,
                             max_size=n * m))
        sim = np.array(flat, dtype=np.float64).reshape(n, m)
        src, dst = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        sim[dst] = sim[src]
        src, dst = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        sim[:, dst] = sim[:, src]
        sims.append(sim)
    return sims[0], sims[1], image_index


@given(tie_heavy_instance(), st.lists(st.floats(0, 1), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_outranking_counts_match_sorting_oracles_on_ties(inst, fracs):
    sim, sim_b, image_index = inst
    n, m = sim.shape

    def three_ks(n_candidates):      # up to three ks from 1 to the candidate count
        return tuple(sorted({1 + int(f * (n_candidates - 1)) for f in fracs}))
    with mock.patch.object(rt, "_CHUNK_ROWS", 3):   # several blocks per call
        for d in ("i2s", "s2i"):      # every k at once
            assert gt_ranks(sim, image_index, d) == \
                gt_rank_oracle(sim, image_index, d)
        ks = three_ks(min(n, m))
        want = [recall_oracle(sim, image_index, k, d)
                for d in ("i2s", "s2i") for k in ks]
        assert list(rt.evaluate(sim, image_index, ks=ks).recalls()) == want

        fused = rt.ensemble_eval(sim, sim_b, image_index, ks=ks)
        assert list(fused.recalls()) == recalls_from_orders(
            [ensemble_oracle_row(a, b) for a, b in zip(sim, sim_b)],
            [ensemble_oracle_row(a, b) for a, b in zip(sim.T, sim_b.T)],
            image_index, ks)

        for folds in (f for f in range(1, n + 1) if n % f == 0):
            size = n // folds
            subs = []
            for f in range(folds):
                mask = (image_index >= f * size) & (image_index < (f + 1) * size)
                subs.append((sim[f * size:(f + 1) * size][:, mask],
                             image_index[mask] - f * size))
            if any(sub_idx.size == 0 for _, sub_idx in subs):
                with pytest.raises(ConfigError, match="no sentences"):
                    rt.fivefold_eval(sim, image_index, folds=folds, ks=(1,))
                continue
            ks = three_ks(min(size, *(len(i) for _, i in subs)))
            acc = np.zeros(2 * len(ks))
            for sub, sub_idx in subs:
                acc += [recall_oracle(sub, sub_idx, k, d)
                        for d in ("i2s", "s2i") for k in ks]
            got = rt.fivefold_eval(sim, image_index, folds=folds, ks=ks)
            assert list(got.recalls()) == list(acc / folds)


def test_fused_folds_match_the_per_fold_rank_average_oracle():
    """``report`` of two models' tables over f folds is the mean, fold by
    fold, of the recalls read off brute-force mean-rank orders of their
    scores, for every f that divides the images.  Small-integer tables make
    every score exact, whatever the GEMM's blocking, and tie often."""
    rng = np.random.default_rng(41)
    for _ in range(6):
        _, image_index = random_instance(rng, max_images=24, max_caps=3)
        n, tables = image_index[-1] + 1, []
        for width in rng.integers(1, 5, size=2):
            tables.append(tuple(rng.integers(-2, 3, size=(rows, width)).astype(float)
                                for rows in (n, len(image_index))))
        sim, other = (img @ txt.T for img, txt in tables)
        for folds in (f for f in range(1, n + 1) if n % f == 0):
            size = n // folds
            ks = tuple(k for k in (1, 2, 5, 10) if k <= size)
            acc = np.zeros(2 * len(ks))
            for lo in range(0, n, size):
                mask = (image_index >= lo) & (image_index < lo + size)
                a, b = sim[lo:lo + size][:, mask], other[lo:lo + size][:, mask]
                acc += recalls_from_orders(
                    [ensemble_oracle_row(ra, rb) for ra, rb in zip(a, b)],
                    [ensemble_oracle_row(ra, rb) for ra, rb in zip(a.T, b.T)],
                    image_index[mask] - lo, ks)
            got = rt.report(tables, image_index, "hybrid", folds, ks)
            assert list(got.recalls()) == list(acc / folds)
            assert got.to_dict().get("extra") == ({"folds": folds} if folds > 1 else None)


@st.composite
def tie_heavy_layout(draw):
    """A block size of 1-4 queries, 1-3 folds whose image counts sit on either
    side of a multiple of it, 0-3 captions per image in shuffled order (some
    images have none, every fold has one), and two (images, captions) score
    matrices from a seed: halves in [-1.5, 1.5], a fifth of them -0.0, most
    nonzero ones moved one ULP either way, and a copied row and column each."""
    chunk, folds = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    size = max(1, chunk * draw(st.integers(1, 2)) + draw(st.integers(-1, 1)))
    counts = draw(st.lists(st.integers(0, 3), min_size=folds * size, max_size=folds * size))
    for lo in range(0, folds * size, size):
        counts[lo + draw(st.integers(0, size - 1))] += 1
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    image_index = rng.permutation(np.repeat(np.arange(folds * size), counts))
    sims = []
    for _ in range(2):
        s = rng.integers(-3, 4, size=(folds * size, len(image_index))) / 2.0
        s[rng.random(s.shape) < 0.2] = -0.0
        ulp = (s != 0) & (rng.random(s.shape) < 0.6)
        s[ulp] = np.nextafter(s[ulp], rng.choice([-2.0, 2.0], size=ulp.sum()))
        s[rng.integers(len(s))] = s[rng.integers(len(s))]
        s[:, rng.integers(s.shape[1])] = s[:, rng.integers(s.shape[1])]
        sims.append(s)
    return chunk, folds, image_index, sims


def oracle_recalls(sims, image_index, ks):
    """Recalls read off brute-force full orders: ``rank_oracle`` of one
    model's scores, ``ensemble_oracle_row`` of two."""
    if len(sims) == 1:
        return recalls_from_orders([rank_oracle(row) for row in sims[0]],
                                   [rank_oracle(col) for col in sims[0].T], image_index, ks)
    a, b = sims
    return recalls_from_orders([ensemble_oracle_row(x, y) for x, y in zip(a, b)],
                               [ensemble_oracle_row(x, y) for x, y in zip(a.T, b.T)],
                               image_index, ks)


@given(tie_heavy_layout())
@settings(max_examples=150, deadline=None)
def test_every_recall_equals_the_sorting_oracles_on_ties(layout):
    """``report`` of one model's tables and of two, ``evaluate``,
    ``fivefold_eval`` and ``ensemble_eval`` give, at every k up to a fold's
    candidates, in both directions, the recalls of brute-force full orders,
    averaged fold by fold.  The image tables are one-hot rows, so each GEMM
    block is exactly its rows or columns of the drawn scores."""
    chunk, folds, image_index, sims = layout
    n = sims[0].shape[0]
    size, want = n // folds, {1: 0.0, 2: 0.0}
    masks = [(image_index >= lo) & (image_index < lo + size) for lo in range(0, n, size)]
    ks = tuple(range(1, min(size, *(mask.sum() for mask in masks)) + 1))
    for lo, mask in zip(range(0, n, size), masks):
        for count in want:
            want[count] += np.array(oracle_recalls([s[lo:lo + size][:, mask] for s in sims[:count]],
                                                   image_index[mask] - lo, ks))
    want = {count: (acc / folds).tolist() for count, acc in want.items()}
    tables = [(np.eye(n), s.T.copy()) for s in sims]
    with mock.patch.object(rt, "_CHUNK_ROWS", chunk):
        assert list(rt.report(tables[:1], image_index, folds=folds, ks=ks).recalls()) == want[1]
        assert list(rt.report(tables, image_index, "hybrid", folds, ks).recalls()) == want[2]
        assert list(rt.fivefold_eval(sims[0], image_index, folds, ks=ks).recalls()) == want[1]
        if folds == 1:
            assert list(rt.evaluate(sims[0], image_index, ks=ks).recalls()) == want[1]
            assert list(rt.ensemble_eval(*sims, image_index, ks=ks).recalls()) == want[2]


@st.composite
def fused_blocks(draw):
    """Two models' score blocks and their ground-truth (row, column) pairs, in i2s shape
    (images x captions: a row's ground truths are its 0-4 captions) or s2i shape (captions
    x images: one each), C or the transposed view of a C array.  Scores are uniform, or
    planted (each ground truth raised by a drawn amount in each model, so rank sums fall
    on both sides of any cap), rounded to 0.1 with -0.0 for half the zeros, and one column
    is copied over a third of the others, so ties straddle a prefix's cut."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    images = draw(st.integers(2, 12))
    image_index = np.concatenate([np.repeat(np.arange(images), rng.integers(0, 5, images)),
                                  [0, 1]])
    image_index, planted = rng.permutation(image_index), draw(st.booleans())
    captions = len(image_index)
    sims = []
    for _ in range(2):
        s = rng.uniform(-1, 1, size=(images, captions))
        if planted:
            s[image_index, np.arange(captions)] += rng.uniform(0, 2, size=captions)
        s = np.round(s, 1)
        s[(s == 0) & (rng.random(s.shape) < 0.5)] = -0.0
        s[:, rng.random(captions) < 1 / 3] = s[:, [rng.integers(captions)]]
        sims.append(s)
    pairs = image_index, np.arange(captions)
    if draw(st.booleans()):
        sims, pairs = [s.T for s in sims], pairs[::-1]
    if draw(st.booleans()):
        sims = [np.ascontiguousarray(s.T).T for s in sims]
    return sims, pairs


@given(fused_blocks(), st.data())
@settings(max_examples=200, deadline=None)
def test_fused_ranks_agree_on_the_prefix_and_the_sorting_path(block, data):
    """``_select`` of two models' score blocks gives each row its best ground truth's
    position in ``ensemble_ranks`` order (the candidate count if it has none), whether a
    cap of 0 sends every row with a ground truth to the whole ``_rank_sum``, a cap of m
    sends none, or a cap in between splits the rows; and the caps send exactly those.
    The cap in between is a ground truth's rank sum, or one more, where a prefix's last
    place decides whether a candidate ties it."""
    (a, b), (rows, cols) = block
    n, m = a.shape
    order = rt.ensemble_ranks(a, b)
    want = [next((pos for pos, c in enumerate(order[row]) if c in set(cols[rows == row])), m)
            for row in range(n)]
    sums = sum(np.argsort(np.argsort(-s, axis=1, kind="stable"), axis=1) for s in (a, b))
    middle = data.draw(st.sampled_from(sums[rows, cols].tolist())) + data.draw(st.integers(0, 1))
    sorted_rows, rank_sum = [], rt._rank_sum

    def counted(*blocks, **where):
        sorted_rows.append(len(where["rows"]))
        return rank_sum(*blocks, **where)
    for cap, sorts in ((0, np.unique(rows).size), (m, 0), (middle, None)):
        sorted_rows.clear()
        with mock.patch.object(rt, "_SELECT_CAP", cap), mock.patch.object(rt, "_rank_sum", counted):
            assert rt._select([a, b], rows, cols).tolist() == want
        assert sorts is None or sum(sorted_rows) == sorts


def test_report_refuses_more_than_two_matrices():
    tables = (np.zeros((10, 2)), np.zeros((10, 2)))
    for models in ([], [tables] * 3):
        with pytest.raises(ConfigError, match="one model or fuses two"):
            rt.report(models, np.arange(10))


def unit_table(rng, rows, width):
    table = rng.normal(size=(rows, width))
    return table / np.linalg.norm(table, axis=1, keepdims=True)


@given(st.sampled_from([257, 301, 513]), st.integers(1, 5), st.integers(0, 2**32 - 1),
       st.data())
@settings(max_examples=12, deadline=None)
def test_report_from_tables_equals_the_whole_matrices(n, caps, seed, data):
    """Recalls ranked from two models' tables, one block of queries at a
    time, equal those of the matrix wrappers over ``similarity_matrix``,
    single and fused, over every fold, and each score block ranked is
    within 1e-15 of the whole product's rows or columns.  Nothing is
    asserted bitwise: a GEMM's blocking, and GEMV for a one-row block, may
    round a block apart from the whole product."""
    folds = data.draw(st.sampled_from([f for f in (1, 3, 7, 19) if n % f == 0]))
    rng = np.random.default_rng(seed)
    image_index = rng.permutation(np.repeat(np.arange(n), caps))
    tables = [(unit_table(rng, n, width), unit_table(rng, len(image_index), width))
              for width in rng.choice([8, 33, 64], size=2)]
    sims = [rt.similarity_matrix(*pair) for pair in tables]
    blocks, rank = [], rt._ranks
    with mock.patch.object(rt, "_ranks", lambda keys, rows, cols: blocks.append(keys[0])
                           or rank(keys, rows, cols)):
        single = rt.report(tables[:1], image_index, folds=folds)
    fused = rt.report(tables, image_index, "hybrid", folds)
    assert single.recalls() == rt.fivefold_eval(sims[0], image_index, folds).recalls()

    size, want, acc = n // folds, [], np.zeros(6)
    for lo in range(0, n, size):
        mask = (image_index >= lo) & (image_index < lo + size)
        part = [sim[lo:lo + size][:, mask] for sim in sims]
        acc += rt.ensemble_eval(*part, image_index[mask] - lo).recalls()
        for way in (part[0], part[0].T):
            want += [way[q:q + rt._CHUNK_ROWS] for q in range(0, len(way), rt._CHUNK_ROWS)]
    assert fused.recalls() == tuple((acc / folds).tolist())
    assert [b.shape for b in blocks] == [w.shape for w in want]
    assert max(np.abs(b - w).max() for b, w in zip(blocks, want)) <= 1e-15


def test_report_from_tables_peaks_below_one_whole_matrix():
    """Ranking 600 images against 3000 captions from their (600, 64) and
    (3000, 64) tables allocates less at its peak than the (600, 3000)
    float64 similarity matrix it never forms."""
    rng = np.random.default_rng(29)
    tables = unit_table(rng, 600, 64), unit_table(rng, 3000, 64)
    image_index = np.arange(3000) % 600
    tracemalloc.start()
    try:
        rt.report([tables], image_index, folds=2)
        rt.report([tables], image_index)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 3000 * 8


def test_report_refuses_bad_tables():
    """Each model's tables must be finite, 2-D and equally wide, both
    models must rank the same images and captions, and none may be empty."""
    rng = np.random.default_rng(31)
    img, txt, idx = rng.normal(size=(4, 3)), rng.normal(size=(8, 3)), np.arange(8) % 4
    nan = img.copy()
    nan[2, 1] = np.nan
    for models, match in (([(nan, txt)], "finite"), ([(img, txt[0])], "finite"),
                          ([(img, txt[:, :2])], "widths differ"),
                          ([(img, txt), (img[:3], txt)], "non-empty"),
                          ([(img, txt), (img, txt[:7])], "non-empty"),
                          ([(img[:0], txt)], "non-empty")):
        with pytest.raises(ShapeError, match=match):
            rt.report(models, idx)


@pytest.mark.parametrize("fused", [False, True])
def test_report_refuses_scores_that_overflow(fused):
    """Finite tables can still multiply past the float64 range: ``_tables``
    refuses them from their peaks before any score is formed, in ``report``
    as in ``similarity_matrix``."""
    rng = np.random.default_rng(47)
    img, txt = unit_table(rng, 300, 8), unit_table(rng, 600, 8)
    img[280] *= 1e200
    txt[7] *= 1e200
    idx = np.arange(600) % 300
    with np.errstate(over="ignore"):
        for call in (lambda: rt.report([(img, txt)] * (1 + fused), idx),
                     lambda: rt.evaluate(rt.similarity_matrix(img, txt), idx)):
            with pytest.raises(ShapeError, match="finite"):
                call()


def edge_tables(rng, n, caps):
    """Two models' (n, 7) image and (n * caps, 7) caption tables of integers in
    [-3, 3] times 2**508, with rows of 3s and -3s: width x max|x| x max|y| and
    the largest scores are +-63 * 2**1016, 1.6% under ``_LIMIT``, and every
    score is an exact multiple of 2**1016."""
    out = []
    for rows in ((n, n * caps),) * 2:
        img, txt = (rng.integers(-3, 4, size=(r, 7)) * 2.0 ** 508 for r in rows)
        img[0] = txt[0] = 3 * 2.0 ** 508
        txt[1] = -img[0]
        out.append((img, txt))
    return out


def test_tables_at_the_edge_of_the_score_bound():
    """Just under ``_LIMIT``, where a score nears a quarter of the float64
    range, one model and a fusion rank from tables, whole and in two folds, as
    the matrix wrappers do.  Just over it, where no score overflows, ``report``,
    ``similarity_matrix`` and ``bench_kpps`` refuse the tables before ranking."""
    rng = np.random.default_rng(67)
    n, folds = 40, 2
    (img, txt), other = tables = edge_tables(rng, n, 3)
    assert 0.98 * rt._LIMIT < 7 * (3 * 2.0 ** 508) ** 2 < rt._LIMIT
    image_index = rng.permutation(np.repeat(np.arange(n), 3))
    sims = [rt.similarity_matrix(*pair) for pair in tables]
    assert [s.max() for s in sims] == [-s.min() for s in sims] == [63 * 2.0 ** 1016] * 2
    assert rt.report(tables[:1], image_index).recalls() == \
        rt.evaluate(sims[0], image_index).recalls()
    assert rt.report(tables[:1], image_index, folds=folds).recalls() == \
        rt.fivefold_eval(sims[0], image_index, folds).recalls()
    assert rt.report(tables, image_index).recalls() == \
        rt.ensemble_eval(*sims, image_index).recalls()
    size, acc = n // folds, np.zeros(6)
    for lo in range(0, n, size):
        mask = (image_index >= lo) & (image_index < lo + size)
        acc += rt.ensemble_eval(*(s[lo:lo + size][:, mask] for s in sims),
                                image_index[mask] - lo).recalls()
    assert rt.report(tables, image_index, folds=folds).recalls() == tuple((acc / folds).tolist())

    over = img.copy()
    over[0, 0] *= 1.02
    assert rt._LIMIT < 7 * 3 * 1.02 * 3 * 2.0 ** 1016 < 1.01 * rt._LIMIT
    assert np.isfinite(2 * (over @ txt.T)).all()    # nothing overflows, yet it is refused

    def ranked(*args):
        raise AssertionError("ranked tables that exceed the bound")

    with mock.patch.object(rt, "_ranks", ranked), mock.patch.object(rt, "_select", ranked):
        for call in (lambda: rt.report([(over, txt)], image_index),
                     lambda: rt.report([other, (over, txt)], image_index, folds=folds),
                     lambda: rt.report([(txt, over)], np.arange(n)),
                     lambda: rt.similarity_matrix(over, txt),
                     lambda: rt.bench_kpps(txt, over)):
            with pytest.raises(ShapeError, match="must be finite"):
                call()


def test_report_scans_no_score_block():
    """``report`` checks each model's tables where they enter: ``_finite_2d``
    sees no score block it forms, for one model or two, whole or in folds."""
    rng = np.random.default_rng(71)
    tables = [(unit_table(rng, 300, 8), unit_table(rng, 600, 8)) for _ in range(2)]
    image_index, seen, real = np.arange(600) % 300, [], rt._finite_2d

    def spy(what, *arrays):
        seen.extend(np.shape(a) for a in arrays)
        return real(what, *arrays)

    with mock.patch.object(rt, "_finite_2d", spy):
        for models in (tables[:1], tables):
            for folds in (1, 2):
                rt.report(models, image_index, folds=folds)
    assert set(seen) <= {(300, 8), (600, 8)}


# ---------------------------------------------------------------------------
# benchmark


def test_bench_kpps_arithmetic_with_fake_timer():
    ticks = iter(np.arange(0, 100, 0.25))  # every timed span is 0.25 s

    def fake_timer():
        return float(next(ticks))

    rng = np.random.default_rng(37)
    table = rng.normal(size=(50, 8))
    queries = rng.normal(size=(500, 8))
    res = rt.bench_kpps(table, queries, "precomputed", trials=4,
                        timer=fake_timer)
    assert res.kpps == pytest.approx(500 / 0.25 / 1000)
    assert res.trial_kpps == [pytest.approx(2.0)] * 4
    assert res.elapsed_s == pytest.approx(0.25)


def test_chunked_top_k_equals_per_query_argpartition():
    # integer entries make every dot product exact, so GEMM and GEMV agree
    # bitwise; the 1000-step first column makes each query's scores distinct
    rng = np.random.default_rng(53)
    n_cand, k = 40, 10
    table = rng.integers(-5, 6, size=(n_cand, 6)).astype(np.float64)
    table[:, 0] = 1000.0 * rng.permutation(n_cand)
    queries = rng.integers(-5, 6, size=(2 * rt._CHUNK_ROWS + 45, 6))
    queries = queries.astype(np.float64)
    queries[:, 0] = rng.choice([-2.0, -1.0, 1.0, 2.0], size=len(queries))
    top = rt._top_k(table, queries, k)
    assert top.shape == (len(queries), k)
    for q, got in zip(queries, top):
        scores = table @ q
        assert len(set(scores.tolist())) == n_cand
        assert set(got.tolist()) == \
            set(np.argpartition(-scores, k - 1)[:k].tolist())


def test_bench_refuses_non_finite_tables():
    """A NaN in the table or an inf in the queries is refused before any query
    is timed, by the same rule as ``report``'s tables."""
    rng = np.random.default_rng(73)
    table, queries = rng.normal(size=(50, 8)), rng.normal(size=(120, 8))
    nan, inf = table.copy(), queries.copy()
    nan[7, 3], inf[11, 5] = np.nan, np.inf

    def timer():
        raise AssertionError("timed a non-finite table")

    for args in ((nan, queries), (table, inf)):
        with pytest.raises(ShapeError, match="must be finite"):
            rt.bench_kpps(*args, timer=timer)


def test_bench_warns_on_few_queries():
    rng = np.random.default_rng(41)
    table = rng.normal(size=(20, 4))
    with pytest.warns(BenchmarkWarning):
        rt.bench_kpps(table, rng.normal(size=(10, 4)), trials=1)


def test_bench_rejects_bad_mode_and_missing_setup():
    table = np.ones((4, 4))
    queries = np.ones((100, 4))
    with pytest.raises(ConfigError):
        rt.bench_kpps(table, queries, "warp")
    with pytest.raises(ConfigError):
        rt.bench_kpps(table, queries, "recompute")


@pytest.mark.parametrize("table_rows, query_rows, kw, match", [
    (0, 100, {}, "at least one candidate"),
    (4, 0, {}, "at least one candidate"),
    (4, 100, {"trials": 0}, "trials"),
    (4, 100, {"top_k": 0}, "top_k"),
    (4, 100, {"top_k": -3}, "top_k"),
], ids=["no-candidates", "no-queries", "trials-0", "top_k-0", "top_k-negative"])
def test_bench_rejects_empty_or_meaningless_inputs(table_rows, query_rows, kw, match):
    table = np.ones((table_rows, 4))
    queries = np.ones((query_rows, 4))
    with pytest.raises(ConfigError, match=match):
        rt.bench_kpps(table, queries, "precomputed", **kw)


def test_bench_precomputed_beats_recompute_at_desk_scale():
    from sshnet import featureio, model
    from sshnet.config import SMALL_DIMS, SMALL_MODEL

    bundles = _random_bundles(SMALL_DIMS, n=4, seed=43)
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=43)
    prepared = [model.prepare_image([b], SMALL_DIMS, SMALL_MODEL)
                for b in bundles]
    rng = np.random.default_rng(47)
    table = rng.normal(size=(200, SMALL_MODEL.embed_dim))
    queries = rng.normal(size=(120, SMALL_MODEL.embed_dim))
    pre = rt.bench_kpps(table, queries, "precomputed", trials=2)
    rec = rt.bench_kpps(table, queries, "recompute", trials=2,
                        recompute=lambda qi: model.visual_forward(
                            prepared[qi % len(prepared)], params, SMALL_MODEL).data[0])
    assert pre.kpps > rec.kpps


def _random_bundles(dims, n, seed):
    from sshnet.featureio import FeatureBundle
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(FeatureBundle(
            region_feats=rng.normal(size=(dims.K, dims.D_l)),
            grid_feats=rng.normal(size=(dims.grid_h, dims.grid_w, dims.D_l)),
            seg_feat=rng.normal(size=(dims.seg_h, dims.seg_w, dims.C_s)),
            seg_map=rng.integers(0, dims.C_s, size=(dims.H_I, dims.W_I)),
        ))
    return out


def test_importing_retrieval_leaves_the_model_unloaded():
    """Ranking needs two embedding tables, never the model that made them."""
    src = str(Path(rt.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import json, sys, sshnet.retrieval; "
                               "print(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src})
    loaded = json.loads(out.stdout)
    assert "sshnet.retrieval" in loaded and "sshnet.model" not in loaded
