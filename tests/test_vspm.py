"""Spatial enhancement tests: positional codes, refinement, attention."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import autograd as ag
from sshnet import vspm
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import DataValidationError
from test_autograd import conv2d_oracle


# ---------------------------------------------------------------------------
# positional encoding


def positional_encode(p, d):
    """Scalar oracle: the sinusoidal code of one 1-based flat pixel index."""
    j = np.arange(1, d + 1, dtype=np.float64)
    angle = p / np.power(10000.0, j / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle))


def test_positional_encode_p1_d4_matches_direct_trig():
    got = vspm.positional_encode_grid(1, 1, 4)[0, 0]
    want = np.array([
        math.cos(1.0 / 10000.0 ** (1.0 / 4.0)),
        math.sin(1.0 / 10000.0 ** (2.0 / 4.0)),
        math.cos(1.0 / 10000.0 ** (3.0 / 4.0)),
        math.sin(1.0 / 10000.0 ** (4.0 / 4.0)),
    ])
    np.testing.assert_allclose(got, want, rtol=1e-15)


def test_positional_encode_p0_probe():
    """Hypothetical p=0: every even component 0, every odd component 1."""
    v = positional_encode(0, 8)
    np.testing.assert_array_equal(v[1::2], np.zeros(4))   # even j -> sin(0)
    np.testing.assert_array_equal(v[0::2], np.ones(4))    # odd j -> cos(0)


def test_positional_encode_injective_up_to_4096():
    d = 16
    codes = vspm.positional_encode_grid(64, 64, d).reshape(4096, d)
    assert np.unique(codes, axis=0).shape[0] == 4096


def test_positional_encode_grid_matches_scalar():
    grid = vspm.positional_encode_grid(3, 5, 6)
    for r in range(3):
        for c in range(5):
            p = r * 5 + c + 1
            np.testing.assert_array_equal(grid[r, c], positional_encode(p, 6))


# ---------------------------------------------------------------------------
# position tensor


def positional_encode_grid_oracle(h, w, d):
    """The grid as computed for every image before it was cached."""
    p = np.arange(1, h * w + 1, dtype=np.float64)[:, None]
    j = np.arange(1, d + 1, dtype=np.float64)[None, :]
    angle = p / np.power(10000.0, j / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle)).reshape(h, w, d)


def test_positional_grid_is_cached_read_only_and_unchanged():
    grid = vspm.positional_encode_grid(64, 64, 32)
    assert vspm.positional_encode_grid(64, 64, 32) is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0, 0] = 1.0
    assert np.array_equal(grid, positional_encode_grid_oracle(64, 64, 32))
    seg_map = np.random.default_rng(3).integers(0, 133, size=(64, 64)).astype(np.uint16)
    pos = vspm.build_position_tensor(seg_map, 32, 133)
    assert pos.flags.writeable
    assert np.array_equal(pos[:, :, :32], positional_encode_grid_oracle(64, 64, 32))
    assert np.array_equal(pos[:, :, 32], seg_map / 133.0)


def test_build_position_tensor_layout():
    rng = np.random.default_rng(2)
    seg_map = rng.integers(0, 16, size=(6, 4)).astype(np.uint16)
    out = vspm.build_position_tensor(seg_map, d=8, num_categories=16)
    assert out.shape == (6, 4, 9)
    np.testing.assert_array_equal(out[:, :, :8], vspm.positional_encode_grid(6, 4, 8))
    np.testing.assert_allclose(out[:, :, 8], seg_map / 16.0)


def test_build_position_tensor_rejects_bad_categories():
    seg_map = np.array([[0, 17]], dtype=np.uint16)
    with pytest.raises(DataValidationError):
        vspm.build_position_tensor(seg_map, d=4, num_categories=16)


# ---------------------------------------------------------------------------
# refinement and attention


@pytest.fixture
def setup():
    rng = np.random.default_rng(77)
    p = vspm.init_vspm_params(SMALL_MODEL, SMALL_DIMS, rng)
    regions = rng.normal(size=(SMALL_DIMS.K, SMALL_DIMS.D_l))
    seg_map = rng.integers(0, SMALL_DIMS.C_s,
                           size=(SMALL_DIMS.H_I, SMALL_DIMS.W_I)).astype(np.uint16)
    pos = vspm.build_position_tensor(seg_map, SMALL_MODEL.pos_dim, SMALL_DIMS.C_s)
    return p, regions, pos


def im2col(pos, cfg=SMALL_MODEL):
    """The patches of a position stack as a batch of one, as prepare_image
    builds them."""
    return Tensor(ag.conv_patches(pos, cfg.conv_kh, cfg.conv_kw, cfg.conv_stride)[None])


def forward(regions, pos, p, cfg=SMALL_MODEL):
    """The branch on one image, as a batch of one."""
    return vspm.vspm_forward(Tensor(regions[None]), im2col(pos, cfg), p, cfg)


def attend(regions, refined, p, smooth):
    """spatial_attention for one image's (K, D_l) regions and (..., c)
    refined grid, flattened to its rows."""
    queries = vspm.project_queries(Tensor(regions[None]), p)
    rows = refined.reshape(1, -1, refined.shape[-1])
    return vspm.spatial_attention(queries, Tensor(rows), smooth)


def test_refine_positions_shape_and_linearity(setup):
    p, _, pos = setup
    patches = im2col(pos)
    refined = vspm.refine_from_patches(patches, p)
    assert refined.shape == (1, 16, SMALL_MODEL.pos_channels)
    # conv with zero kernel leaves only the bias
    zero = vspm.VspmParams(
        conv_kernel=Tensor(np.zeros_like(p.conv_kernel.data)),
        conv_bias=p.conv_bias, query_proj=p.query_proj, combine_proj=p.combine_proj)
    out = vspm.refine_from_patches(patches, zero)
    np.testing.assert_array_equal(out.data,
                                  np.broadcast_to(p.conv_bias.data, out.shape))


def test_refine_from_patches_bitwise_equal(setup):
    """Dyadic inputs make every product and partial sum exact, so the
    matmul over patches must equal the nested-loop oracle bit for bit."""
    p, _, pos = setup
    rng = np.random.default_rng(78)
    pos_q = np.round(pos * 1024.0) / 1024.0
    kernel = rng.integers(-3, 4, size=p.conv_kernel.shape).astype(np.float64)
    bias = rng.integers(-3, 4, size=p.conv_bias.shape).astype(np.float64)
    q = vspm.VspmParams(conv_kernel=Tensor(kernel), conv_bias=Tensor(bias),
                        query_proj=p.query_proj, combine_proj=p.combine_proj)
    got = vspm.refine_from_patches(im2col(pos_q), q).data[0]
    want = conv2d_oracle(pos_q, kernel, SMALL_MODEL.conv_stride, bias)
    assert np.array_equal(got, want.reshape(got.shape))


def test_attention_rows_sum_to_one(setup):
    p, regions, pos = setup
    out = forward(regions, pos, p)
    np.testing.assert_allclose(out.betas.data.sum(axis=2), 1.0, atol=1e-9)
    assert out.betas.data.shape == (1, SMALL_DIMS.K, 16)
    assert out.spatial.shape == (1, SMALL_DIMS.K, SMALL_MODEL.pos_channels)


def test_attention_lambda_zero_exactly_uniform(setup):
    p, regions, pos = setup
    from dataclasses import replace
    cfg = replace(SMALL_MODEL, attn_smooth=0.0)
    out = forward(regions, pos, p, cfg)
    m = out.betas.data.shape[2]
    assert np.all(out.betas.data == 1.0 / m)


def test_identical_refined_rows_collapse_context(setup):
    """If every refined cell is the same vector, the context equals it."""
    p, regions, _ = setup
    row = np.random.default_rng(5).normal(size=SMALL_MODEL.pos_channels)
    betas, context = attend(regions, np.tile(row, (4, 4, 1)), p,
                            SMALL_MODEL.attn_smooth)
    np.testing.assert_allclose(context.data[0],
                               np.tile(row, (SMALL_DIMS.K, 1)), atol=1e-12)
    np.testing.assert_allclose(betas.data.sum(axis=2), 1.0, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_attention_peak_monotone_in_smoothing(seed):
    rng = np.random.default_rng(seed)
    p = vspm.init_vspm_params(SMALL_MODEL, SMALL_DIMS, rng)
    regions = rng.normal(size=(3, SMALL_DIMS.D_l))
    refined = rng.normal(size=(2, 2, SMALL_MODEL.pos_channels))
    lam1, lam2 = sorted(rng.uniform(0.0, 8.0, size=2))
    b1, _ = attend(regions, refined, p, lam1)
    b2, _ = attend(regions, refined, p, lam2)
    assert np.all(b2.data.max(axis=2) >= b1.data.max(axis=2) - 1e-12)


def test_permutation_equivariance(setup):
    p, regions, pos = setup
    perm = np.random.default_rng(9).permutation(SMALL_DIMS.K)
    out = forward(regions, pos, p)
    out_p = forward(regions[perm], pos, p)
    np.testing.assert_allclose(out_p.betas.data[0], out.betas.data[0, perm], atol=1e-12)
    np.testing.assert_allclose(out_p.spatial.data[0], out.spatial.data[0, perm], atol=1e-12)


def test_forward_matches_straight_line_oracle(setup):
    p, regions, pos = setup
    cfg = SMALL_MODEL
    out = forward(regions, pos, p, cfg)

    # independent recomputation
    kh, kw, cin, cout = p.conv_kernel.data.shape
    s = cfg.conv_stride
    h, w, _ = pos.shape
    ho, wo = (h - kh) // s + 1, (w - kw) // s + 1
    refined = np.zeros((ho, wo, cout))
    for i in range(ho):
        for j in range(wo):
            win = pos[i * s:i * s + kh, j * s:j * s + kw, :]
            refined[i, j] = np.einsum("abc,abco->o", win, p.conv_kernel.data) \
                + p.conv_bias.data
    flat = refined.reshape(-1, cout)
    q = regions @ p.query_proj.data.T
    cos = np.zeros((q.shape[0], flat.shape[0]))
    for i, qi in enumerate(q):
        for j, fj in enumerate(flat):
            cos[i, j] = np.clip(qi @ fj / max(np.linalg.norm(qi) * np.linalg.norm(fj),
                                              1e-300), -1, 1)
    e = np.exp(cfg.attn_smooth * cos
               - (cfg.attn_smooth * cos).max(axis=1, keepdims=True))
    betas = e / e.sum(axis=1, keepdims=True)
    combined = betas @ flat + q    # combine_proj lifts it inside fuse_visual

    np.testing.assert_allclose(out.refined.data[0], flat, atol=1e-10)
    np.testing.assert_allclose(out.betas.data[0], betas, atol=1e-10)
    np.testing.assert_allclose(out.spatial.data[0], combined, atol=1e-10)


def test_gradients_match_finite_differences(setup):
    p, regions, pos = setup
    rt, patches = Tensor(regions[None, :4]), im2col(pos)
    w = Tensor(np.random.default_rng(13).normal(size=(1, 4, SMALL_MODEL.embed_dim)))

    def loss():
        out = vspm.vspm_forward(rt, patches, p, SMALL_MODEL)
        return (ag.linear(out.spatial, p.combine_proj) * w).sum()

    report = ag.grad_check(loss, p.named(), eps=1e-5, tol=1e-4, sample=40)
    assert report.passed, report
