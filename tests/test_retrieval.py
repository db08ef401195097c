"""Retrieval metrics against brute-force oracles, plus benchmark plumbing."""
import json
import os
import subprocess
import sys
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
    own = image_index == np.arange(sim.shape[0])[:, None]
    if direction == "s2i":
        sim, own = sim.T, own.T
    return rt._ranks([sim], own).tolist()


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
    for call in (lambda: rt.evaluate(sim, image_index, ks=ks),
                 lambda: rt.fivefold_eval(sim, image_index, folds=2, ks=ks),
                 lambda: rt.ensemble_eval(sim, other, image_index, ks=ks),
                 lambda: rt.report([sim], image_index, ks=ks),
                 lambda: rt.report([sim, other], image_index, folds=3, ks=ks)):
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
    inverse = np.empty(s.shape)
    np.put_along_axis(inverse, want, np.arange(s.shape[1])[None], axis=1)
    got = rt.rank_rows(s)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    ranks = rt._stable_ranks(s)
    assert ranks.dtype == inverse.dtype and ranks.tobytes() == inverse.tobytes()


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
    """``report`` of two matrices over f folds is the mean, fold by fold,
    of the recalls read off brute-force mean-rank orders, for every f that
    divides the images."""
    rng = np.random.default_rng(41)
    for _ in range(6):
        sim, image_index = random_instance(rng, max_images=24, max_caps=3)
        other = rng.uniform(-1, 1, size=sim.shape)
        n = sim.shape[0]
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
            got = rt.report([sim, other], image_index, "hybrid", folds, ks)
            assert list(got.recalls()) == list(acc / folds)
            assert got.to_dict().get("extra") == ({"folds": folds} if folds > 1 else None)


def test_report_refuses_more_than_two_matrices():
    sim = np.zeros((10, 10))
    for sims in ([], [sim] * 3):
        with pytest.raises(ConfigError, match="one similarity matrix or fuses two"):
            rt.report(sims, np.arange(10))


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
    prepared = [model.prepare_image(b, SMALL_DIMS, SMALL_MODEL)
                for b in bundles]
    rng = np.random.default_rng(47)
    table = rng.normal(size=(200, SMALL_MODEL.embed_dim))
    queries = rng.normal(size=(120, SMALL_MODEL.embed_dim))
    pre = rt.bench_kpps(table, queries, "precomputed", trials=2)
    rec = rt.bench_kpps(table, queries, "recompute", trials=2,
                        recompute=lambda qi: model.visual_forward(
                            [prepared[qi % len(prepared)]], params, SMALL_MODEL).data[0])
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
