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
import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import ConfigError, DataValidationError


@dataclass
class VspmParams:
    conv_kernel: Tensor    # (kh, kw, pos_dim + 1, pos_channels)
    conv_bias: Tensor      # (pos_channels,)
    query_proj: Tensor     # (pos_channels, D_l) projects regions into position space
    combine_proj: Tensor   # (D, pos_channels)  lifts combined vectors to the joint space

    def named(self, prefix="vspm"):
        return {
            prefix + ".conv_kernel": self.conv_kernel,
            prefix + ".conv_bias": self.conv_bias,
            prefix + ".query_proj": self.query_proj,
            prefix + ".combine_proj": self.combine_proj,
        }


@dataclass
class VspmOutput:
    refined: Tensor    # (B, Hp, Wp, pos_channels) refined position grids
    betas: Tensor      # (B, K, Hp * Wp) attention rows
    spatial: Tensor    # (B, K, D) spatially enhanced region rows


def init_vspm_params(cfg: ModelConfig, dims: DimConfig, rng) -> VspmParams:
    def lin(shape, fan_in):
        bound = 1.0 / math.sqrt(fan_in)
        return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    kshape = (cfg.conv_kh, cfg.conv_kw, cfg.pos_dim + 1, cfg.pos_channels)
    return VspmParams(
        conv_kernel=lin(kshape, cfg.conv_kh * cfg.conv_kw * (cfg.pos_dim + 1)),
        conv_bias=Tensor(np.zeros(cfg.pos_channels), requires_grad=True),
        query_proj=lin((cfg.pos_channels, dims.D_l), dims.D_l),
        combine_proj=lin((cfg.embed_dim, cfg.pos_channels), cfg.pos_channels),
    )


def positional_encode(p: int, d: int) -> np.ndarray:
    """Sinusoidal code of a 1-based flat pixel index.

    Component j (1-based, j in [1, d]) is sin(p / 10000^(j/d)) for even j
    and cos(p / 10000^(j/d)) for odd j.
    """
    j = np.arange(1, d + 1, dtype=np.float64)
    angle = p / np.power(10000.0, j / d)
    return np.where(j % 2 == 0, np.sin(angle), np.cos(angle))


@functools.lru_cache(maxsize=None)
def positional_encode_grid(h: int, w: int, d: int) -> np.ndarray:
    """(h, w, d) stack of positional codes, pixel index row-major from 1.

    Computed once per (h, w, d) and returned read-only: every image of a
    dataset shares one grid.
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


def refine_from_patches(patches: Tensor, p: VspmParams, out_hw: tuple[int, int]) -> Tensor:
    """Strided valid convolution of each position stack (no nonlinearity),
    run as one matmul over the batch's precomputed im2col patches.

    patches (B, Hp * Wp, kh * kw * cin) -> refined grids (B, Hp, Wp, cout).
    """
    kh, kw, cin, cout = p.conv_kernel.shape
    b, n, f = patches.shape
    kmat = ag.reshape(p.conv_kernel, (1, kh * kw * cin, cout))
    out = ag.matmul(ag.reshape(patches, (1, b * n, f)), kmat) + p.conv_bias
    return ag.reshape(out, (b, out_hw[0], out_hw[1], cout))


def project_queries(regions: Tensor, p: VspmParams) -> Tensor:
    """(B, K, D_l) regions -> (B, K, pos_channels) attention queries."""
    return ag.linear(regions, p.query_proj)


def spatial_attention(queries: Tensor, refined: Tensor, smooth: float):
    """Attend each region's query over its image's refined position grid.

    queries (B, K, c) and refined grids (B, ..., c) give (betas, context):
    betas (B, K, P) are smoothed softmaxes of query and position cosines,
    context (B, K, c) rows are beta-weighted position sums.
    """
    b, c = refined.shape[0], refined.shape[-1]
    flat = ag.reshape(refined, (b, -1, c))
    cos = ag.cosine_rows(queries, flat)
    betas = ag.smoothed_softmax(cos, smooth)
    context = ag.matmul(betas, flat)
    return betas, context


def spatial_combine(context: Tensor, queries: Tensor, p: VspmParams) -> Tensor:
    """Lift context + projected region into the joint space."""
    return ag.linear(context + queries, p.combine_proj)


def vspm_forward(regions: Tensor, patches: Tensor, p: VspmParams,
                 cfg: ModelConfig, patches_hw: tuple[int, int]) -> VspmOutput:
    """Full spatial branch for a batch: regions (B, K, D_l), the im2col
    patches (B, Hp * Wp, F) of each position stack and their (Hp, Wp)
    output grid."""
    refined = refine_from_patches(patches, p, patches_hw)
    queries = project_queries(regions, p)
    betas, context = spatial_attention(queries, refined, cfg.attn_smooth)
    spatial = spatial_combine(context, queries, p)
    return VspmOutput(refined=refined, betas=betas, spatial=spatial)
