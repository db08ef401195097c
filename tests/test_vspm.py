"""Spatial enhancement tests: positional codes, refinement, attention."""
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import autograd as ag
from sshnet import vspm
from sshnet.autograd import Tensor
from sshnet.config import FULL_MODEL, SMALL_DIMS, SMALL_MODEL
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
    """Every image of one geometry gets the same read-only patches of the
    grid, equal to those of the grid computed per image; its category
    patches are its own."""
    assert np.array_equal(vspm.positional_encode_grid(64, 64, 32),
                          positional_encode_grid_oracle(64, 64, 32))
    rng = np.random.default_rng(3)
    seg_a, seg_b = rng.integers(0, 133, size=(2, 1, 64, 64)).astype(np.uint16)
    patches, grid = vspm.build_position_tensor(seg_a, FULL_MODEL, 133)
    assert vspm.build_position_tensor(seg_b, FULL_MODEL, 133)[1] is grid
    assert not grid.flags.writeable
    with pytest.raises(ValueError):
        grid[0, 0] = 1.0
    stack = np.concatenate([positional_encode_grid_oracle(64, 64, 32), np.zeros((64, 64, 1))],
                           axis=2)
    assert np.array_equal(grid, ag.conv_patches(stack, 8, 8, 8))
    assert patches.flags.writeable
    assert np.array_equal(patches[0], ag.conv_patches(seg_a[0, :, :, None] / 133.0, 8, 8, 8))


def test_build_position_tensor_layout():
    """The category patches are the category column of the whole (H, W,
    d + 1) stack's im2col patches, and the grid patches the rest, with
    that column zero."""
    cfg = replace(SMALL_MODEL, pos_dim=8, conv_kh=3, conv_kw=2, conv_stride=1)
    seg_maps = np.random.default_rng(2).integers(0, 16, size=(3, 6, 4)).astype(np.uint16)
    patches, grid = vspm.build_position_tensor(seg_maps, cfg, num_categories=16)
    assert patches.shape == (3, 4 * 3, 3 * 2) and grid.shape == (4 * 3, 3 * 2 * 9)
    for seg_map, own in zip(seg_maps, patches):
        stack = np.concatenate([vspm.positional_encode_grid(6, 4, 8),
                                seg_map[:, :, None] / 16.0], axis=2)
        whole = ag.conv_patches(stack, 3, 2, 1).reshape(4 * 3, 3 * 2, 9)
        assert np.array_equal(own, whole[:, :, 8])
        whole[:, :, 8] = 0.0
        assert np.array_equal(grid, whole.reshape(grid.shape))


def test_build_position_tensor_rejects_bad_categories():
    seg_maps = np.array([[[0, 15]], [[0, 17]]], dtype=np.uint16)
    cfg = replace(SMALL_MODEL, conv_kh=1, conv_kw=1)
    with pytest.raises(DataValidationError, match="categories outside"):
        vspm.build_position_tensor(seg_maps, cfg, 16)
    with pytest.raises(DataValidationError, match=r"\(B, H, W\)"):
        vspm.build_position_tensor(seg_maps[0], cfg, 16)


# ---------------------------------------------------------------------------
# refinement and attention


@pytest.fixture
def setup():
    rng = np.random.default_rng(77)
    p = vspm.init_vspm_params(SMALL_MODEL, SMALL_DIMS, rng)
    regions = rng.normal(size=(SMALL_DIMS.K, SMALL_DIMS.D_l))
    seg_map = rng.integers(0, SMALL_DIMS.C_s,
                           size=(SMALL_DIMS.H_I, SMALL_DIMS.W_I)).astype(np.uint16)
    pos = np.concatenate([vspm.positional_encode_grid(*seg_map.shape, SMALL_MODEL.pos_dim),
                          seg_map[:, :, None] / SMALL_DIMS.C_s], axis=2)
    return p, regions, pos


def im2col(pos, cfg=SMALL_MODEL):
    """A position stack's category patches as a batch of one, and the
    patches of the stack with its category channel zero, as prepare_image
    builds them."""
    window = (cfg.conv_kh, cfg.conv_kw, cfg.conv_stride)
    grid = pos.copy()
    grid[:, :, -1] = 0.0
    return (Tensor(ag.conv_patches(pos[:, :, -1:], *window)[None]),
            ag.conv_patches(grid, *window))


def forward(regions, pos, p, cfg=SMALL_MODEL):
    """The branch on one image, as a batch of one."""
    return vspm.vspm_forward(Tensor(regions[None]), *im2col(pos, cfg), p, cfg)


def attend(regions, refined, p, smooth):
    """spatial_attention for one image's (K, D_l) regions and (..., c)
    refined grid, flattened to its rows."""
    queries = vspm.project_queries(Tensor(regions[None]), p)
    rows = refined.reshape(1, -1, refined.shape[-1])
    return vspm.spatial_attention(queries, Tensor(rows), smooth)


def test_refine_positions_shape_and_linearity(setup):
    p, _, pos = setup
    patches = im2col(pos)
    refined = vspm.refine_from_patches(*patches, p)
    assert refined.shape == (1, 16, SMALL_MODEL.pos_channels)
    # conv with zero kernel leaves only the bias
    zero = vspm.VspmParams(
        conv_kernel=Tensor(np.zeros_like(p.conv_kernel.data)),
        conv_bias=p.conv_bias, query_proj=p.query_proj, combine_proj=p.combine_proj)
    out = vspm.refine_from_patches(*patches, zero)
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
    got = vspm.refine_from_patches(*im2col(pos_q), q).data[0]
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
        out = vspm.vspm_forward(rt, *patches, p, SMALL_MODEL)
        return (ag.linear(out.spatial, p.combine_proj) * w).sum()

    report = ag.grad_check(loss, ag.named_tensors(p, "vspm"), eps=1e-5, tol=1e-4, sample=40)
    assert report.passed, report
