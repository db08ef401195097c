"""Joint embedding: learned rank pooling, visual fusion, text encoding.

Pooling follows the generalized-pooling idea: a learned table of size
``gpo_size`` is linearly interpolated to one weight per rank for the set
size at hand, renormalised to sum to 1, and dotted against the
per-dimension descending sort of the rows.  Uniform weights recover mean
pooling, a one-hot top weight recovers max pooling.

The fused visual set stacks three row groups: plainly projected regions,
semantic-spatial rows built from the enhanced region pairs, and the
segmentation embedding itself.  Image and sentence embeddings never see
the other modality, so both sides can be precomputed offline.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import ConfigError


@dataclass
class EmbedParams:
    img_proj: Tensor           # (D, D_l) bare projection of raw regions
    text_fc_w: Tensor          # (D, word_dim)
    text_fc_b: Tensor          # (D,)
    gpo_visual: Tensor         # (gpo_size,)
    gpo_text: Tensor           # (gpo_size,)
    ss_fc_w_sem: Tensor | None  # (D, D) semantic-spatial FC column block per branch
    ss_fc_w_spa: Tensor | None  # (D, D)
    ss_fc_b: Tensor | None      # (D,)


def n_ss_branches(cfg: ModelConfig) -> int:
    return int(cfg.use_vsem) + int(cfg.use_vspm)


def init_embed_params(cfg: ModelConfig, dims: DimConfig, rng) -> EmbedParams:
    d, nb, uniform = cfg.embed_dim, n_ss_branches(cfg), ag.uniform_init(rng)
    # the FC is drawn first and whole, so a seed's weights do not follow the
    # field order; its blocks (copied out of a draw) are the branches', semantic first
    blocks = iter([b if rng is None else b.copy()
                   for b in np.hsplit(uniform((d, d * nb), d * nb).data, nb)] if nb else ())
    return EmbedParams(
        img_proj=uniform((d, dims.D_l), dims.D_l),
        text_fc_w=uniform((d, dims.word_dim), dims.word_dim),
        text_fc_b=Tensor(np.zeros(d), requires_grad=True),
        gpo_visual=Tensor(np.ones(cfg.gpo_size), requires_grad=True),
        gpo_text=Tensor(np.ones(cfg.gpo_size), requires_grad=True),
        ss_fc_w_sem=Tensor(next(blocks), requires_grad=True) if cfg.use_vsem else None,
        ss_fc_w_spa=Tensor(next(blocks), requires_grad=True) if cfg.use_vspm else None,
        ss_fc_b=Tensor(np.zeros(d), requires_grad=True) if nb else None,
    )


# ---------------------------------------------------------------------------
# learned rank pooling

@functools.lru_cache(maxsize=None)
def _interp_matrix(n: int, table_len: int) -> np.ndarray:
    """(n, table_len) linear interpolation from table positions to n >= 2
    ranks (``resolve_pool_weights`` pools one row without it).

    Computed once per (n, table_len) and returned read-only: every set of
    the same size shares one matrix.
    """
    mat = np.zeros((n, table_len))
    for r in range(n):
        x = r * (table_len - 1) / (n - 1)
        lo = int(math.floor(x))
        frac = x - lo
        if frac == 0.0 or lo >= table_len - 1:
            mat[r, min(lo, table_len - 1)] = 1.0
        else:
            mat[r, lo] = 1.0 - frac
            mat[r, lo + 1] = frac
    mat.flags.writeable = False
    return mat


def resolve_pool_weights(table: Tensor, n: int) -> Tensor:
    """Resample the table into n rank weights summing to 1.

    Works for sets both smaller and larger than the table.  A
    single-element set always pools to the element itself, regardless of
    the table.
    """
    table_len = table.shape[0]
    if n < 1:
        raise ConfigError("cannot pool an empty set")
    if n == 1:
        return Tensor(np.ones(1))
    raw = ag.linear(ag.reshape(table, (1, table_len)),
                    Tensor(_interp_matrix(n, table_len)))
    total = raw.sum()
    if abs(float(total.data)) < 1e-9:
        raise ConfigError("pooling weights sum to ~0; table is degenerate")
    return ag.reshape(ag.div(raw, total), (n,))


def gpo_pool(rows: Tensor, table: Tensor) -> Tensor:
    """Rank-weighted pooling of B sets of n rows, (B, n, D) -> (B, D)."""
    weights = resolve_pool_weights(table, rows.shape[1])
    return ag.sort_pool(rows, weights)


# ---------------------------------------------------------------------------
# fusion and text


def fuse_visual(regions: Tensor, semantic: Tensor | None, spatial: Tensor | None,
                seg_embed: Tensor, p: EmbedParams, combine_proj: Tensor | None) -> Tensor:
    """Pool {projected regions} + {semantic-spatial rows} + {seg embedding}.

    regions (B, K, D_l), the vsem branch's (B, K, D) ``semantic`` rows, the
    vspm branch's (B, K, c) ``spatial`` rows (None when off) and seg_embed
    (B, D) give the (B, D) unit-norm image embeddings; each image pools its
    own (2K + 1, D) set, or (K + 1, D) when no branch is enabled.  The
    segmentation row always stays.  The (D, c) ``combine_proj`` that lifts
    the spatial rows is folded into the FC's spatial block first, so they
    are never formed D wide.
    """
    b, d = seg_embed.shape
    groups = [ag.linear(regions, p.img_proj)]
    fc = [ag.linear(semantic, p.ss_fc_w_sem)] if semantic is not None else []
    if spatial is not None:
        lift = ag.matmul(ag.reshape(p.ss_fc_w_spa, (1, d, d)), ag.reshape(combine_proj, (1, d, -1)))
        fc.append(ag.linear(spatial, ag.reshape(lift, (d, -1))))
    if fc:
        groups.append(sum(fc[1:], fc[0]) + p.ss_fc_b)
    groups.append(ag.reshape(seg_embed, (b, 1, d)))
    return ag.l2_normalize(gpo_pool(ag.concat(groups, axis=1), p.gpo_visual))


def embed_text(word_feats: Sequence[np.ndarray], p: EmbedParams) -> Tensor:
    """FC every word into the joint space, pool each sentence, normalise.

    word_feats holds S constant (n_i, word_dim) arrays; the result is
    (S, D) unit rows, row i for sentence i.  All words go through one FC;
    sentences of equal length are pooled together as one (b, n, D) set
    batch with that length's weights, and a row gather restores the input
    order.  Length buckets are exact: no padding, no fill values.
    """
    lengths = np.array([w.shape[0] for w in word_feats])
    order = np.argsort(lengths, kind="stable")
    words = Tensor(np.concatenate([word_feats[i] for i in order]))
    h = ag.linear(words, p.text_fc_w) + p.text_fc_b
    sizes, counts = np.unique(lengths, return_counts=True)
    pooled, lo = [], 0
    for n, b in zip(sizes.tolist(), counts.tolist()):
        rows = ag.take_rows(h, np.arange(lo, lo + n * b))
        pooled.append(gpo_pool(ag.reshape(rows, (b, n, h.shape[1])), p.gpo_text))
        lo += n * b
    return ag.l2_normalize(ag.take_rows(ag.concat(pooled, axis=0), np.argsort(order)))
