"""Ranking loss, optimiser and train-loop tests with exhaustive oracles."""
import math

import numpy as np
import pytest

from sshnet import autograd as ag
from sshnet import featureio, model, objective
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import ConfigError, TrainingError
from sshnet.objective import AdamWState, TrainConfig, adamw_step, triplet_loss


# ---------------------------------------------------------------------------
# triplet loss


def triplet_oracle(sim, margin):
    """Loop over every query and every negative."""
    b = sim.shape[0]
    total = 0.0
    for i in range(b):
        hardest_caption = max(sim[i, j] for j in range(b) if j != i)
        hardest_image = max(sim[j, i] for j in range(b) if j != i)
        total += max(0.0, margin - sim[i, i] + hardest_caption)
        total += max(0.0, margin - sim[i, i] + hardest_image)
    return total


def test_identity_similarity_gives_zero_loss():
    sim = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert triplet_loss(sim, 0.2).item() == 0.0


def test_flat_similarity_frozen_value():
    sim = Tensor(np.full((2, 2), 0.5))
    assert triplet_loss(sim, 0.2).item() == pytest.approx(0.8, abs=1e-12)


def test_loss_matches_oracle_on_random_batches():
    rng = np.random.default_rng(19)
    for _ in range(200):
        b = int(rng.integers(2, 9))
        sim = rng.uniform(-1, 1, size=(b, b))
        margin = float(rng.uniform(0.0, 0.5))
        got = triplet_loss(Tensor(sim), margin).item()
        assert got == pytest.approx(triplet_oracle(sim, margin), abs=1e-12)
        assert got >= 0.0


def test_loss_zero_iff_margins_satisfied():
    rng = np.random.default_rng(23)
    for _ in range(50):
        b = int(rng.integers(2, 7))
        sim = rng.uniform(-1, 1, size=(b, b))
        margin = float(rng.uniform(0.05, 0.4))
        got = triplet_loss(Tensor(sim), margin).item()
        satisfied = all(
            sim[i, i] - max(sim[i, j] for j in range(b) if j != i) >= margin
            and sim[i, i] - max(sim[j, i] for j in range(b) if j != i) >= margin
            for i in range(b)
        )
        assert (got == 0.0) == satisfied


def test_loss_invariant_under_joint_permutation():
    rng = np.random.default_rng(29)
    sim = rng.uniform(-1, 1, size=(6, 6))
    perm = rng.permutation(6)
    a = triplet_loss(Tensor(sim), 0.2).item()
    b = triplet_loss(Tensor(sim[np.ix_(perm, perm)]), 0.2).item()
    assert a == pytest.approx(b, abs=1e-12)


def test_loss_rejects_tiny_batches():
    with pytest.raises(ConfigError):
        triplet_loss(Tensor(np.ones((1, 1))), 0.2)
    with pytest.raises(ConfigError):
        triplet_loss(Tensor(np.ones((2, 3))), 0.2)


def _away_from_kinks(sim, margin, gap=1e-3):
    """Instances where hinges and argmaxes are stable under fd probes."""
    b = sim.shape[0]
    for i in range(b):
        for axis_vals in (sim[i, :], sim[:, i]):
            others = np.delete(axis_vals, i)
            top2 = np.sort(others)[-2:]
            if len(others) > 1 and abs(top2[1] - top2[0]) < gap:
                return False
            if abs(margin - sim[i, i] + others.max()) < gap:
                return False
    return True


def test_loss_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 20:
        sim = rng.uniform(-1, 1, size=(5, 5))
        if not _away_from_kinks(sim, 0.2):
            continue
        t = Tensor(sim, requires_grad=True)
        report = ag.grad_check(lambda: triplet_loss(t, 0.2), {"sim": t},
                               eps=1e-5, tol=1e-4)
        assert report.passed, report
        checked += 1


# ---------------------------------------------------------------------------
# AdamW


def adamw_oracle(w, grads, lr, wd, b1=0.9, b2=0.999, eps=1e-8):
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mh = m / (1 - b1 ** t)
        vh = v / (1 - b2 ** t)
        w = w - lr * mh / (math.sqrt(vh) + eps) - lr * wd * w
    return w


def test_adamw_matches_scalar_oracle():
    rng = np.random.default_rng(37)
    grads = rng.normal(size=7)
    p = Tensor(np.array([1.3]), requires_grad=True)
    cfg = TrainConfig(lr=0.05, weight_decay=0.02)
    state = AdamWState()
    for g in grads:
        p.grad = np.array([g])
        adamw_step({"w": p}, state, cfg)
    want = adamw_oracle(1.3, grads, lr=0.05, wd=0.02)
    assert p.data[0] == pytest.approx(want, abs=1e-14)


def test_adamw_pure_weight_decay():
    """Zero gradient leaves only the decoupled decay: w' = w * (1 - lr*wd)."""
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    p.grad = np.zeros(2)
    adamw_step({"w": p}, AdamWState(), TrainConfig(lr=0.1, weight_decay=0.01))
    np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.001),
                               rtol=0, atol=1e-15)


def _adamw_folded(w, m, v, g, t, cfg):
    """The whole-array folded update, expression by expression."""
    b1, b2 = objective.BETA1, objective.BETA2
    bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
    m = m * b1
    m += (1.0 - b1) * g
    v = v * b2
    v += (1.0 - b2) * g * g
    w = w * (1.0 - cfg.lr * cfg.weight_decay)
    w -= (cfg.lr * math.sqrt(bc2) / bc1) * m / (np.sqrt(v) + objective.ADAM_EPS * math.sqrt(bc2))
    return w, m, v


def _adamw_textbook(w, m, v, g, t, cfg):
    """AdamW as Loshchilov & Hutter (arXiv 1711.05101) Algorithm 2 writes
    it, with schedule multiplier lr and decay rate weight_decay."""
    b1, b2 = objective.BETA1, objective.BETA2
    m = b1 * m + (1.0 - b1) * g
    v = b2 * v + (1.0 - b2) * g * g
    m_hat = m / (1.0 - b1 ** t)
    v_hat = v / (1.0 - b2 ** t)
    return w - cfg.lr * (m_hat / (np.sqrt(v_hat) + objective.ADAM_EPS)
                         + cfg.weight_decay * w), m, v


# Absolute gap allowed between the folded and the textbook AdamW after 10
# steps on N(0, 1) weights (|w| < 5, ULP 8.9e-16): seeds 0-4 reach 4.4e-15.
TEXTBOOK_TOL = 1e-14


@pytest.mark.parametrize("layout", ["multi-chunk", "f-ordered"])
def test_adamw_chunked_update_bitwise_equals_whole_array(layout):
    """Chunked and in place equals the whole-array folded update bit for
    bit; it stays within TEXTBOOK_TOL of the textbook update; the caller's
    array is copied once, never written."""
    rng = np.random.default_rng(41)
    if layout == "multi-chunk":
        w0 = rng.normal(size=(3, objective._ADAMW_CHUNK // 2 + 7))
    else:
        w0 = rng.normal(size=(40, 30)).T
    assert w0.size > objective._ADAMW_CHUNK or not w0.flags["C_CONTIGUOUS"]
    w0_before = w0.copy()
    cfg = TrainConfig(lr=0.01, weight_decay=0.05)
    p = Tensor(w0, requires_grad=True)
    state = AdamWState()
    want, m, v = w0.copy(), np.zeros(w0.shape), np.zeros(w0.shape)
    book = w0.copy()
    for t in range(1, 11):
        g = rng.normal(size=w0.shape)
        p.grad = g.T.copy().T if layout == "f-ordered" else g
        adamw_step({"w": p}, state, cfg)
        want, m_new, v_new = _adamw_folded(want, m, v, g, t, cfg)
        book, m, v = _adamw_textbook(book, m, v, g, t, cfg)
        assert np.array_equal(m_new, m) and np.array_equal(v_new, v)
        assert np.array_equal(p.data, want)
        assert p.data.flags["C_CONTIGUOUS"]
        assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
        np.testing.assert_allclose(p.data, book, rtol=0, atol=TEXTBOOK_TOL)
    assert not np.array_equal(state.m["w"], np.zeros(w0.shape))
    assert not np.shares_memory(p.data, w0)
    assert np.array_equal(w0, w0_before)


def test_adamw_rejects_nonfinite_gradient():
    p = Tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([np.nan])
    with pytest.raises(TrainingError, match="vsem.seg_fc_w"):
        adamw_step({"vsem.seg_fc_w": p}, AdamWState(), TrainConfig())


# ---------------------------------------------------------------------------
# train loop


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    featureio.synth_dataset(out, n_images=8, captions_per_image=3, seed=53,
                            dims=SMALL_DIMS)
    return featureio.load_dataset(out / "manifest.json")


def _small_train_cfg(**kw):
    base = dict(batch_size=4, epochs=6, seed=13)
    base.update(kw)
    return TrainConfig(**base)


def test_training_reduces_loss(data):
    bundles, texts, _ = data
    res = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                          _small_train_cfg())
    assert res.epochs_run == 6
    assert res.loss_curve[-1] < res.loss_curve[0]


def test_training_bit_for_bit_reproducible(data):
    bundles, texts, _ = data
    r1 = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                         _small_train_cfg(epochs=3))
    r2 = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                         _small_train_cfg(epochs=3))
    assert r1.loss_curve == r2.loss_curve
    for name, t in r1.params.named().items():
        assert np.array_equal(t.data, r2.params.named()[name].data), name


def test_training_seed_changes_run(data):
    bundles, texts, _ = data
    r1 = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                         _small_train_cfg(epochs=2))
    r2 = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                         _small_train_cfg(epochs=2, seed=14))
    assert r1.loss_curve != r2.loss_curve


def test_training_early_stop_callback(data):
    bundles, texts, _ = data
    res = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                          _small_train_cfg(),
                          epoch_callback=lambda e, loss, p: e >= 2)
    assert res.stopped_early and res.epochs_run == 3


def test_training_rejects_bad_configs(data):
    bundles, texts, _ = data
    with pytest.raises(ConfigError):
        objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                        _small_train_cfg(batch_size=1))
    with pytest.raises(ConfigError):
        objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                        _small_train_cfg(epochs=0))


@pytest.mark.parametrize("field, value", [
    ("lr", -1.0), ("lr", 0.0), ("lr", math.nan), ("lr", math.inf),
    ("weight_decay", -1e-4), ("weight_decay", math.nan),
    ("margin", -0.2), ("margin", -math.inf), ("seed", -1),
])
def test_train_config_rejects_bad_optimiser_values(field, value):
    with pytest.raises(ConfigError, match=field):
        _small_train_cfg(**{field: value})


def test_caption_lookup_is_the_caption_rule():
    assert objective.caption_lookup(np.array([1, 0, 1]), 2) == {0: [1], 1: [0, 2]}
    for index, n, match in (([0], 1, "at least 2 images"),
                            ([0, 0, 2], 4, r"images without captions: \[1, 3\]")):
        with pytest.raises(ConfigError, match=match):
            objective.caption_lookup(np.array(index), n)


def test_training_rejects_captionless_image(data):
    bundles, texts, _ = data
    clipped = featureio.TextFeatureSet(texts.word_feats[:-3],
                                       texts.image_index[:-3])
    with pytest.raises(ConfigError, match="without captions"):
        objective.train(bundles, clipped, SMALL_DIMS, SMALL_MODEL,
                        _small_train_cfg())


def test_batches_never_mix_captions_of_one_image(data, monkeypatch):
    """Each batch pairs distinct images, one caption each."""
    bundles, texts, _ = data
    seen = []
    orig = objective.triplet_loss

    def spy(sim, margin):
        seen.append(sim.shape[0])
        return orig(sim, margin)

    monkeypatch.setattr(objective, "triplet_loss", spy)
    objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                    _small_train_cfg(epochs=1))
    # 8 images, batch 4 -> two full batches, all images distinct inside
    assert seen == [4, 4]


def test_a_trailing_single_pair_is_skipped(data, monkeypatch):
    """A leftover batch of one pair has no in-batch negative: it is not
    trained on, and each epoch's mean loss is over the pairs that were."""
    bundles, texts, _ = data
    seen = []
    orig = objective.triplet_loss

    def spy(sim, margin):
        loss = orig(sim, margin)
        seen.append((sim.shape[0], float(loss.data)))
        return loss

    monkeypatch.setattr(objective, "triplet_loss", spy)
    res = objective.train(bundles, texts, SMALL_DIMS, SMALL_MODEL,
                          _small_train_cfg(batch_size=7, epochs=2))
    # 8 images, batch 7 -> one batch of 7 per epoch; the eighth image is left out
    assert [n for n, _ in seen] == [7, 7]
    assert res.loss_curve == [loss / 7 for _, loss in seen]


def test_full_batch_gradients_match_finite_differences(data):
    """End-to-end loss gradient over a 3-image batch, sampled coordinates."""
    from dataclasses import replace
    bundles, texts, _ = data
    cfg = replace(SMALL_MODEL, embed_dim=16)
    params = model.init_params(cfg, SMALL_DIMS, seed=3)
    prepped = model.prepare_image(bundles[:3], SMALL_DIMS, cfg)
    words = texts.word_feats[:24:3][:3]

    def loss():
        iv = model.visual_forward(prepped, params, cfg)
        tv = model.text_forward(words, params)
        return triplet_loss(ag.linear(iv, tv), 0.2)

    report = ag.grad_check(loss, params.named(), eps=1e-5, tol=1e-4, sample=20)
    assert report.passed, report
