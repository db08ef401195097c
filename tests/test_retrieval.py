"""Retrieval metrics against brute-force oracles, plus benchmark plumbing."""
import numpy as np
import pytest
from hypothesis import given, settings
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
    for d in ("i2s", "s2i"):
        assert rt.recall_at_k(sim, image_index, 1, d) == 100.0


def test_ground_truth_at_rank_three():
    # two images, one caption each; correct caption ranks 3rd of 4
    sim = np.array([[0.5, 0.9, 0.8, 0.1],
                    [0.9, 0.5, 0.8, 0.1]])
    image_index = np.array([0, 1, 0, 1])
    assert rt.recall_at_k(sim, image_index, 1, "i2s") == 0.0
    assert rt.recall_at_k(sim, image_index, 4, "i2s") == 100.0


def test_recall_matches_full_sort_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        sim, image_index = random_instance(rng)
        for d in ("i2s", "s2i"):
            cands = sim.shape[1] if d == "i2s" else sim.shape[0]
            for k in (1, 3, min(10, cands)):
                assert rt.recall_at_k(sim, image_index, k, d) == \
                    recall_oracle(sim, image_index, k, d)


def test_recall_handles_ties_deterministically():
    sim = np.zeros((3, 6))       # all tied: lower index wins
    image_index = np.repeat(np.arange(3), 2)
    # image 0's captions are columns 0/1 -> top-1 hit only for image 0
    assert rt.recall_at_k(sim, image_index, 1, "i2s") == pytest.approx(100 / 3)
    assert rt.recall_at_k(sim, image_index, 1, "s2i") == pytest.approx(100 / 3)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_recall_monotone_in_k(seed):
    rng = np.random.default_rng(seed)
    sim, image_index = random_instance(rng, max_images=15, max_caps=3)
    prev = 0.0
    for k in range(1, sim.shape[1] + 1):
        cur = rt.recall_at_k(sim, image_index, k, "i2s")
        assert cur >= prev
        prev = cur
    assert prev == 100.0  # k == candidate count always hits


def test_recall_rejects_bad_k_and_direction():
    sim = np.zeros((3, 6))
    image_index = np.repeat(np.arange(3), 2)
    with pytest.raises(ConfigError):
        rt.recall_at_k(sim, image_index, 7, "i2s")
    with pytest.raises(ConfigError):
        rt.recall_at_k(sim, image_index, 4, "s2i")
    with pytest.raises(ConfigError):
        rt.recall_at_k(sim, image_index, 0, "i2s")
    with pytest.raises(ConfigError):
        rt.recall_at_k(sim, image_index, 1, "sideways")


def test_rsum_frozen_values():
    assert rt.rsum([0, 0, 0, 0, 0, 0]) == 0.0
    assert rt.rsum([100] * 6) == 600.0
    assert rt.rsum([83.1, 97.2, 99.3, 68.7, 92.4, 96.6]) == pytest.approx(537.3)
    with pytest.raises(ConfigError):
        rt.rsum([1, 2, 3])


def test_evaluate_report_consistency():
    rng = np.random.default_rng(13)
    sim, image_index = random_instance(rng)
    report = rt.evaluate(sim, image_index, mode="region")
    assert report.rsum == pytest.approx(sum(report.recalls()), abs=1e-9)
    for d, (r1, r5, r10) in (("i2s", report.recalls()[:3]),
                             ("s2i", report.recalls()[3:])):
        assert r1 == rt.recall_at_k(sim, image_index, 1, d)
        assert r10 == rt.recall_at_k(sim, image_index, 10, d)
        assert 0 <= r1 <= r5 <= r10 <= 100
    d = report.to_dict()
    assert d["i2s"]["r1"] == report.i2s_r1 and d["rsum"] == report.rsum
    lines = report.table().splitlines()
    assert len(lines) == 2 and "rSum" in lines[0]


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
    assert report.i2s_r1 == 50.0 and report.s2i_r1 == 50.0


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


def test_ensemble_eval_equals_plain_eval_when_models_agree():
    rng = np.random.default_rng(31)
    sim, image_index = random_instance(rng)
    plain = rt.evaluate(sim, image_index)
    fused = rt.ensemble_eval(sim, sim, image_index)
    assert fused.recalls() == plain.recalls()
    assert fused.mode == "hybrid"


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


def test_bench_warns_on_few_queries():
    rng = np.random.default_rng(41)
    table = rng.normal(size=(20, 4))
    with pytest.warns(BenchmarkWarning):
        rt.bench_kpps(table, rng.normal(size=(10, 4)), trials=1, warmup=0)


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
    pre = rt.bench_kpps(table, queries, "precomputed", trials=2, warmup=1)
    rec = rt.bench_kpps(table, queries, "recompute", trials=2, warmup=1,
                        recompute=rt.RecomputeSetup(params, SMALL_MODEL,
                                                    prepared))
    assert pre.kpps > rec.kpps


def _random_bundles(dims, n, seed):
    from sshnet.featureio import FeatureBundle
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n):
        out.append(FeatureBundle(
            image_id="img_%d" % i,
            region_feats=rng.normal(size=(dims.K, dims.D_l)),
            grid_feats=rng.normal(size=(dims.grid_h, dims.grid_w, dims.D_l)),
            seg_feat=rng.normal(size=(dims.seg_h, dims.seg_w, dims.C_s)),
            seg_map=rng.integers(0, dims.C_s, size=(dims.H_I, dims.W_I)),
        ))
    return out
