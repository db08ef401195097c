"""Spatial enhancement: position-encoded segmentation attention.

Each pixel of the segmentation map gets a sinusoidal code of its 1-based
row-major index plus one normalised category channel; a strided valid
convolution (no nonlinearity) condenses that stack into a small grid of
refined position vectors.  Regions attend over the refined grid with a
smoothed softmax of cosines and the attended context is recombined with
the projected region.
"""
from __future__ import annotations

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
    refined: Tensor    # (Hp, Wp, pos_channels) refined position grid
    betas: Tensor      # (K, Hp * Wp) attention rows
    spatial: Tensor    # (K, D) spatially enhanced region rows


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


def positional_encode_grid(h: int, w: int, d: int) -> np.ndarray:
    """(h, w, d) stack of positional codes, pixel index row-major from 1."""
    p = np.arange(1, h * w + 1, dtype=np.float64)[:, None]
    j = np.arange(1, d + 1, dtype=np.float64)[None, :]
    angle = p / np.power(10000.0, j / d)
    flat = np.where(j % 2 == 0, np.sin(angle), np.cos(angle))
    return flat.reshape(h, w, d)


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
    """Strided valid convolution of the position stack (no nonlinearity),
    run as one matmul over its precomputed im2col patches."""
    kh, kw, cin, cout = p.conv_kernel.shape
    kmat = ag.reshape(p.conv_kernel, (kh * kw * cin, cout))
    out2d = ag.matmul(patches, kmat) + p.conv_bias
    return ag.reshape(out2d, (out_hw[0], out_hw[1], cout))


def project_queries(regions: Tensor, p: VspmParams) -> Tensor:
    return ag.linear(regions, p.query_proj)


def spatial_attention(regions: Tensor, refined: Tensor, p: VspmParams,
                      smooth: float, queries: Tensor | None = None):
    """Attend each region over the refined position grid.

    Returns (betas, context): betas rows are smoothed softmaxes of region
    and position cosines, context rows are beta-weighted position sums.
    """
    if refined.ndim == 3:
        hp, wp, c = refined.shape
        flat = ag.reshape(refined, (hp * wp, c))
    else:
        flat = refined
    if queries is None:
        queries = project_queries(regions, p)
    cos = ag.cosine_rows(queries, flat)
    betas = ag.smoothed_softmax(cos, smooth)
    context = ag.matmul(betas, flat)
    return betas, context


def spatial_combine(context: Tensor, regions: Tensor, p: VspmParams,
                    queries: Tensor | None = None) -> Tensor:
    """Lift context + projected region into the joint space."""
    if queries is None:
        queries = project_queries(regions, p)
    return ag.linear(context + queries, p.combine_proj)


def vspm_forward(regions: Tensor, patches: Tensor, p: VspmParams,
                 cfg: ModelConfig, patches_hw: tuple[int, int]) -> VspmOutput:
    """Full spatial branch for one image, from the im2col patches of its
    position stack and their (Hp, Wp) output grid."""
    refined = refine_from_patches(patches, p, patches_hw)
    queries = project_queries(regions, p)
    betas, context = spatial_attention(regions, refined, p, cfg.attn_smooth,
                                       queries=queries)
    spatial = spatial_combine(context, regions, p, queries=queries)
    return VspmOutput(refined=refined, betas=betas, spatial=spatial)
