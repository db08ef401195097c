"""Semantic enhancement tests against a straight-line numpy oracle."""
import math

import numpy as np
import pytest

from sshnet import autograd as ag
from sshnet import vsem
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import ConfigError


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def vsem_oracle(regions, seg_feat, p, mode):
    """Independent straight-line recomputation of the semantic branch."""
    pooled = seg_feat.mean(axis=(0, 1))
    seg = p.seg_fc_w.data @ pooled + p.seg_fc_b.data
    proj = regions @ p.region_proj.data.T
    d = seg.shape[0]
    cos = np.array([
        np.clip(seg @ r / max(np.linalg.norm(seg) * np.linalg.norm(r), 1e-300), -1, 1)
        for r in proj
    ])
    scaled = cos / math.sqrt(d)
    if mode == "sigmoid":
        alphas = sigmoid(scaled)
    else:
        e = np.exp(scaled - scaled.max())
        alphas = e / e.sum()
    weighted = alphas[:, None] * proj
    gate = np.tanh(weighted @ p.gate_proj.data.T)
    fused = gate * weighted + seg
    return seg, alphas, fused @ p.fuse_proj.data.T


def pool(seg_feat):
    """The pooled (1, C_s) input the branch takes for a batch of one image;
    vsem_oracle pools the raw map."""
    return Tensor(seg_feat.mean(axis=(0, 1))[None])


def forward(regions, seg_feat, p, mode):
    """The branch on one image's (K, D_l) regions, as a batch of one."""
    return vsem.vsem_forward(Tensor(regions[None]), pool(seg_feat), p, mode)


@pytest.fixture
def setup():
    rng = np.random.default_rng(21)
    p = vsem.init_vsem_params(SMALL_MODEL, SMALL_DIMS, rng)
    regions = rng.normal(size=(SMALL_DIMS.K, SMALL_DIMS.D_l))
    seg_feat = rng.normal(size=(SMALL_DIMS.seg_h, SMALL_DIMS.seg_w, SMALL_DIMS.C_s))
    return p, regions, seg_feat


@pytest.mark.parametrize("mode", ["sigmoid", "softmax"])
def test_forward_matches_oracle(setup, mode):
    p, regions, seg_feat = setup
    out = forward(regions, seg_feat, p, mode)
    seg, alphas, enhanced = vsem_oracle(regions, seg_feat, p, mode)
    np.testing.assert_allclose(out.seg_embed.data[0], seg, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.alphas.data[0], alphas, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(out.enhanced.data[0], enhanced, rtol=1e-12, atol=1e-12)


def test_forward_equals_sequenced_ops(setup):
    """The pipeline must agree exactly with running the ops one by one."""
    p, regions, seg_feat = setup
    rt, pooled = Tensor(regions[None]), pool(seg_feat)
    out = vsem.vsem_forward(rt, pooled, p, "sigmoid")
    seg = vsem.seg_embed_from_pooled(pooled, p)
    projected = vsem.project_regions(rt, p)
    alphas = vsem.salience_weights(seg, projected, "sigmoid")
    enhanced = vsem.semantic_fuse(alphas, projected, seg, p)
    assert np.array_equal(out.seg_embed.data, seg.data)
    assert np.array_equal(out.alphas.data, alphas.data)
    assert np.array_equal(out.enhanced.data, enhanced.data)


def test_salience_frozen_value_at_parallel_vectors():
    """cosine 1 at D=4 gives a salience of sigmoid(0.5)."""
    d = 4
    p = vsem.VsemParams(
        seg_fc_w=Tensor(np.eye(d)), seg_fc_b=Tensor(np.zeros(d)),
        region_proj=Tensor(np.eye(d)), gate_proj=Tensor(np.eye(d)),
        fuse_proj=Tensor(np.eye(d)),
    )
    seg = Tensor(np.array([[1.0, 2.0, 3.0, 4.0]]))
    regions = Tensor(2.0 * seg.data[:, None, :])
    alphas = vsem.salience_weights(seg, vsem.project_regions(regions, p), "sigmoid")
    assert alphas.data[0, 0] == pytest.approx(sigmoid(0.5), abs=1e-12)
    assert alphas.data[0, 0] == pytest.approx(0.6224593312018546, abs=1e-12)


def test_salience_sigmoid_open_interval_bounds():
    """1000 random draws stay strictly inside (sig(-1/sqrt(D)), sig(1/sqrt(D)))."""
    rng = np.random.default_rng(33)
    p = vsem.init_vsem_params(SMALL_MODEL, SMALL_DIMS, rng)
    d = SMALL_MODEL.embed_dim
    lo, hi = sigmoid(-1.0 / math.sqrt(d)), sigmoid(1.0 / math.sqrt(d))
    for _ in range(50):
        seg_feat = rng.normal(size=(SMALL_DIMS.seg_h, SMALL_DIMS.seg_w, SMALL_DIMS.C_s))
        regions = rng.normal(size=(20, SMALL_DIMS.D_l))
        out = forward(regions, seg_feat, p, "sigmoid")
        assert np.all(out.alphas.data > lo)
        assert np.all(out.alphas.data < hi)


def test_salience_softmax_sums_to_one():
    rng = np.random.default_rng(34)
    p = vsem.init_vsem_params(SMALL_MODEL, SMALL_DIMS, rng)
    for _ in range(20):
        seg_feat = rng.normal(size=(SMALL_DIMS.seg_h, SMALL_DIMS.seg_w, SMALL_DIMS.C_s))
        regions = rng.normal(size=(SMALL_DIMS.K, SMALL_DIMS.D_l))
        out = forward(regions, seg_feat, p, "softmax")
        assert out.alphas.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_salience_rejects_unknown_mode(setup):
    p, regions, seg_feat = setup
    with pytest.raises(ConfigError):
        forward(regions, seg_feat, p, "relu")


def test_permutation_equivariance(setup):
    p, regions, seg_feat = setup
    perm = np.random.default_rng(1).permutation(SMALL_DIMS.K)
    out = forward(regions, seg_feat, p, "sigmoid")
    out_p = forward(regions[perm], seg_feat, p, "sigmoid")
    np.testing.assert_allclose(out_p.alphas.data[0], out.alphas.data[0, perm], atol=1e-12)
    np.testing.assert_allclose(out_p.enhanced.data[0], out.enhanced.data[0, perm], atol=1e-12)


@pytest.mark.parametrize("mode", ["sigmoid", "softmax"])
def test_gradients_match_finite_differences(mode):
    rng = np.random.default_rng(55)
    cfg = SMALL_MODEL
    p = vsem.init_vsem_params(cfg, SMALL_DIMS, rng)
    regions = Tensor(rng.normal(size=(1, 4, SMALL_DIMS.D_l)))
    pooled = pool(rng.normal(size=(SMALL_DIMS.seg_h, SMALL_DIMS.seg_w, SMALL_DIMS.C_s)))
    w = Tensor(rng.normal(size=(1, 4, cfg.embed_dim)))

    def loss():
        out = vsem.vsem_forward(regions, pooled, p, mode)
        return (out.enhanced * w).sum() + (out.alphas * Tensor(np.ones((1, 4)))).sum()

    report = ag.grad_check(loss, ag.named_tensors(p, "vsem"), eps=1e-5, tol=1e-4, sample=40)
    assert report.passed, report
