"""Spatial enhancement: position-encoded segmentation attention.

Each pixel of the segmentation map gets a sinusoidal code of its 1-based
row-major index plus one normalised category channel; a strided valid
convolution (no nonlinearity) condenses that stack into a small grid of
refined position vectors.  Regions attend over the refined grid with a
smoothed softmax of cosines and the attended context is recombined with
the projected region.  Every function past the position stack takes a
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


@functools.lru_cache(maxsize=None)
def positional_encode_grid(h: int, w: int, d: int) -> np.ndarray:
    """(h, w, d) stack of positional codes, pixel index p row-major from 1.

    Component j (1-based, j in [1, d]) of pixel p is sin(p / 10000^(j/d))
    for even j and cos(p / 10000^(j/d)) for odd j.  Computed once per
    (h, w, d) and returned read-only: every image of a dataset shares one
    grid.
    """
    p = np.arange(1, h * w + 1, dtype=np.float64)[:, None]
    j = np.arange(1, d + 1, dtype=np.float64)[None, :]
    angle = p / np.power(10000.0, j / d)
    flat = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    grid = flat.reshape(h, w, d)
    grid.flags.writeable = False
    return grid


def build_position_tensor(seg_map: np.ndarray, d: int, num_categories: int) -> np.ndarray:
    """Concatenate d positional channels with category / num_categories.

    seg_map holds integer categories in [0, num_categories); the result is
    a constant (H, W, d + 1) float64 stack, not a differentiable input.
    """
    if seg_map.ndim != 2:
        raise DataValidationError("seg_map must be (H, W), got %r" % (seg_map.shape,))
    if seg_map.min(initial=0) < 0 or seg_map.max(initial=0) >= num_categories:
        raise DataValidationError(
            "seg_map categories outside [0, %d)" % (num_categories,))
    h, w = seg_map.shape
    out = np.empty((h, w, d + 1), dtype=np.float64)
    out[:, :, :d] = positional_encode_grid(h, w, d)
    out[:, :, d] = seg_map.astype(np.float64) / num_categories
    return out


def refine_from_patches(patches: Tensor, p: VspmParams) -> Tensor:
    """Strided valid convolution of each position stack (no nonlinearity),
    run as one matmul over the batch's precomputed im2col patches.

    patches (B, P, kh * kw * cin) -> (B, P, cout) rows, one per output position.
    """
    kh, kw, cin, cout = p.conv_kernel.shape
    b, n, f = patches.shape
    kmat = ag.reshape(p.conv_kernel, (1, kh * kw * cin, cout))
    out = ag.matmul(ag.reshape(patches, (1, b * n, f)), kmat) + p.conv_bias
    return ag.reshape(out, (b, n, cout))


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


def vspm_forward(regions: Tensor, patches: Tensor, p: VspmParams,
                 cfg: ModelConfig) -> VspmOutput:
    """Full spatial branch for a batch: regions (B, K, D_l) and the im2col
    patches (B, P, F) of each position stack."""
    refined = refine_from_patches(patches, p)
    queries = project_queries(regions, p)
    betas, context = spatial_attention(queries, refined, cfg.attn_smooth)
    spatial = spatial_combine(context, queries)
    return VspmOutput(refined=refined, betas=betas, spatial=spatial)
