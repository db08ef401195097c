"""Spatial enhancement: position-encoded segmentation attention.

Each pixel of the segmentation map gets a sinusoidal code of its 1-based
row-major index plus one normalised category channel; a strided valid
convolution (no nonlinearity) condenses that stack into a small grid of
refined position vectors.  Regions attend over the refined grid with a
smoothed softmax of cosines and the attended context is recombined with
the projected region.  Every function from the position stack on takes a
batch of images as the first axis.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import DataValidationError


@dataclass
class VspmParams:
    conv_kernel: Tensor    # (kh, kw, pos_dim + 1, pos_channels)
    conv_bias: Tensor      # (pos_channels,)
    query_proj: Tensor     # (pos_channels, D_l) projects regions into position space
    combine_proj: Tensor   # (D, pos_channels)  lifts combined rows to the joint space


@dataclass
class VspmOutput:
    refined: Tensor    # (B, P, pos_channels) refined position rows, P = Hp * Wp
    betas: Tensor      # (B, K, P) attention rows
    spatial: Tensor    # (B, K, pos_channels) combined rows, before combine_proj


def init_vspm_params(cfg: ModelConfig, dims: DimConfig, rng) -> VspmParams:
    kshape = (cfg.conv_kh, cfg.conv_kw, cfg.pos_dim + 1, cfg.pos_channels)
    uniform = ag.uniform_init(rng)
    return VspmParams(
        conv_kernel=uniform(kshape, cfg.conv_kh * cfg.conv_kw * (cfg.pos_dim + 1)),
        conv_bias=Tensor(np.zeros(cfg.pos_channels), requires_grad=True),
        query_proj=uniform((cfg.pos_channels, dims.D_l), dims.D_l),
        combine_proj=uniform((cfg.embed_dim, cfg.pos_channels), cfg.pos_channels),
    )


def positional_encode_grid(h: int, w: int, d: int) -> np.ndarray:
    """(h, w, d) stack of positional codes, pixel index p row-major from 1.

    Component j (1-based, j in [1, d]) of pixel p is sin(p / 10000^(j/d))
    for even j and cos(p / 10000^(j/d)) for odd j.
    """
    p = np.arange(1, h * w + 1, dtype=np.float64)[:, None]
    j = np.arange(1, d + 1, dtype=np.float64)[None, :]
    angle = p / np.power(10000.0, j / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle)).reshape(h, w, d)


@functools.lru_cache(maxsize=None)
def _grid_patches(h: int, w: int, d: int, kh: int, kw: int, stride: int) -> np.ndarray:
    """im2col patches of the position stack with a zero category channel,
    computed once per geometry and returned read-only: every image of a
    dataset shares them."""
    grid = np.concatenate([positional_encode_grid(h, w, d), np.zeros((h, w, 1))], axis=2)
    patches = ag.conv_patches(grid, kh, kw, stride)
    patches.flags.writeable = False
    return patches


def build_position_tensor(seg_maps: np.ndarray, cfg: ModelConfig,
                          num_categories: int) -> tuple[np.ndarray, np.ndarray]:
    """A batch's position stacks, each pos_dim sinusoid channels then the
    constant category channel seg_map / num_categories, as im2col patches
    split by channel: each image's own category patches, (B, P, kh * kw)
    from the (B, H, W) maps, and the shared (P, kh * kw * (pos_dim + 1))
    patches of the stack with a zero category channel."""
    if seg_maps.ndim != 3:
        raise DataValidationError("seg_maps must be (B, H, W), got %r" % (seg_maps.shape,))
    if seg_maps.min(initial=0) < 0 or seg_maps.max(initial=0) >= num_categories:
        raise DataValidationError(
            "seg_map categories outside [0, %d)" % (num_categories,))
    window = (cfg.conv_kh, cfg.conv_kw, cfg.conv_stride)
    category = (seg_maps.astype(np.float64) / num_categories)[..., None]
    return (ag.conv_patches(category, *window),
            _grid_patches(*seg_maps.shape[1:], cfg.pos_dim, *window))


def refine_from_patches(patches: Tensor, grid: np.ndarray, p: VspmParams) -> Tensor:
    """Strided valid convolution of each position stack (no nonlinearity),
    split by input channel as it is linear: the shared grid patches (zero in
    the category channel) meet the kernel in one (P, cout) product per
    forward, and each image's category patches (B, P, kh * kw) the rows of
    the category channel, the last of each window cell; (B, P, cout) rows."""
    kh, kw, cin, cout = p.conv_kernel.shape
    kmat = ag.reshape(p.conv_kernel, (kh * kw * cin, cout))
    own = ag.matmul(patches, ag.take_rows(kmat, np.arange(cin - 1, kh * kw * cin, cin)))
    return own + ag.matmul(Tensor(grid[None]), kmat) + p.conv_bias


def project_queries(regions: Tensor, p: VspmParams) -> Tensor:
    """(B, K, D_l) regions -> (B, K, pos_channels) attention queries."""
    return ag.linear(regions, p.query_proj)


def spatial_attention(queries: Tensor, refined: Tensor, smooth: float):
    """Attend each region's query over its image's refined position rows.

    queries (B, K, c) and refined rows (B, P, c) give (betas, context):
    betas (B, K, P) are smoothed softmaxes of query and position cosines,
    context (B, K, c) rows are beta-weighted position sums.
    """
    betas = ag.smoothed_softmax(ag.cosine_rows(queries, refined), smooth)
    context = ag.matmul(betas, refined)
    return betas, context


def spatial_combine(context: Tensor, queries: Tensor) -> Tensor:
    """(B, K, c) context + projected region; ``embedder.fuse_visual`` lifts it."""
    return context + queries


def vspm_forward(regions: Tensor, patches: Tensor, grid: np.ndarray, p: VspmParams,
                 cfg: ModelConfig) -> VspmOutput:
    """Full spatial branch for a batch: regions (B, K, D_l) and the
    position patches of ``build_position_tensor``."""
    refined = refine_from_patches(patches, grid, p)
    queries = project_queries(regions, p)
    betas, context = spatial_attention(queries, refined, cfg.attn_smooth)
    spatial = spatial_combine(context, queries)
    return VspmOutput(refined=refined, betas=betas, spatial=spatial)
