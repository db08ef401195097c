"""Semantic enhancement: segmentation-guided region salience and fusion.

The segmentation feature map is average-pooled and projected to the joint
space; each region is weighted by a squashed cosine between its projection
and that segmentation embedding, then gated and conditionally fused with
it.  The cosine is divided by sqrt(embed_dim) before squashing, which in
sigmoid mode pins every salience weight strictly inside
(sigmoid(-1/sqrt(D)), sigmoid(1/sqrt(D))).  Every function takes a batch
of images as the first axis.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import SALIENCE_MODES, DimConfig, ModelConfig, either
from .errors import ConfigError


@dataclass
class VsemParams:
    seg_fc_w: Tensor      # (D, C_s)  FC applied to the pooled segmentation
    seg_fc_b: Tensor      # (D,)
    region_proj: Tensor   # (D, D_l)  bare projection of region features
    gate_proj: Tensor     # (D, D)    inner projection of the tanh gate
    fuse_proj: Tensor     # (D, D)    outer projection of the fused rows


@dataclass
class VsemOutput:
    seg_embed: Tensor     # (B, D)    pooled segmentation embeddings
    alphas: Tensor        # (B, K)    per-region salience weights
    enhanced: Tensor      # (B, K, D) semantically enhanced region rows


def init_vsem_params(cfg: ModelConfig, dims: DimConfig, rng) -> VsemParams:
    d, uniform = cfg.embed_dim, ag.uniform_init(rng)
    return VsemParams(
        seg_fc_w=uniform((d, dims.C_s), dims.C_s),
        seg_fc_b=Tensor(np.zeros(d), requires_grad=True),
        region_proj=uniform((d, dims.D_l), dims.D_l),
        gate_proj=uniform((d, d), d),
        fuse_proj=uniform((d, d), d),
    )


def seg_embed_from_pooled(pooled: Tensor, p: VsemParams) -> Tensor:
    """(B, C_s) pooled segmentation vectors -> (B, D) embeddings."""
    return ag.linear(pooled, p.seg_fc_w) + p.seg_fc_b


def project_regions(regions: Tensor, p: VsemParams) -> Tensor:
    """(B, K, D_l) regions -> (B, K, D), one GEMM over all B*K rows."""
    return ag.linear(regions, p.region_proj)


def salience_weights(seg_embed: Tensor, projected: Tensor,
                     mode: str = "sigmoid") -> Tensor:
    """Per-region salience from scaled region/segmentation cosines.

    seg_embed (B, D) and projected regions (B, K, D) give (B, K) weights.
    sigmoid mode squashes each scaled cosine independently; softmax mode
    normalises them across an image's regions with smoothing factor 1.
    """
    if mode not in SALIENCE_MODES:
        raise ConfigError("salience mode must be %s, got %r" % (either(SALIENCE_MODES), mode))
    b, d = seg_embed.shape
    cos = ag.cosine_rows(ag.reshape(seg_embed, (b, 1, d)), projected)
    scaled = cos * (1.0 / math.sqrt(d))
    out = ag.sigmoid(scaled) if mode == "sigmoid" else ag.smoothed_softmax(scaled, 1.0)
    return ag.reshape(out, projected.shape[:2])


def semantic_fuse(alphas: Tensor, projected: Tensor, seg_embed: Tensor,
                  p: VsemParams) -> Tensor:
    """Weight, gate and conditionally fuse regions with the segmentation.

    rows_i = fuse_proj @ (tanh(gate_proj @ (a_i r_i)) * (a_i r_i) + seg)
    where r_i is the projected region; (B, K, D) in and out.
    """
    b, k, d = projected.shape
    weighted = ag.mul(ag.reshape(alphas, (b, k, 1)), projected)
    gate = ag.tanh(ag.linear(weighted, p.gate_proj))
    fused = ag.mul(gate, weighted) + ag.reshape(seg_embed, (b, 1, d))
    return ag.linear(fused, p.fuse_proj)


def vsem_forward(regions: Tensor, pooled: Tensor, p: VsemParams,
                 mode: str = "sigmoid") -> VsemOutput:
    """Full semantic branch for a batch: regions (B, K, D_l) and pooled
    (B, C_s) segmentation vectors."""
    seg_embed = seg_embed_from_pooled(pooled, p)
    projected = project_regions(regions, p)
    alphas = salience_weights(seg_embed, projected, mode)
    enhanced = semantic_fuse(alphas, projected, seg_embed, p)
    return VsemOutput(seg_embed=seg_embed, alphas=alphas, enhanced=enhanced)
