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

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import ConfigError
from .vsem import VsemOutput
from .vspm import VspmOutput


@dataclass
class EmbedParams:
    img_proj: Tensor           # (D, D_l) bare projection of raw regions
    ss_fc_w: Tensor | None     # (D, D * n_branches) semantic-spatial FC
    ss_fc_b: Tensor | None     # (D,)
    text_fc_w: Tensor          # (D, word_dim)
    text_fc_b: Tensor          # (D,)
    gpo_visual: Tensor         # (gpo_size,)
    gpo_text: Tensor           # (gpo_size,)

    def named(self, prefix="embed"):
        out = {
            prefix + ".img_proj": self.img_proj,
            prefix + ".text_fc_w": self.text_fc_w,
            prefix + ".text_fc_b": self.text_fc_b,
            prefix + ".gpo_visual": self.gpo_visual,
            prefix + ".gpo_text": self.gpo_text,
        }
        if self.ss_fc_w is not None:
            out[prefix + ".ss_fc_w"] = self.ss_fc_w
            out[prefix + ".ss_fc_b"] = self.ss_fc_b
        return out


def n_ss_branches(cfg: ModelConfig) -> int:
    return int(cfg.use_vsem) + int(cfg.use_vspm)


def init_embed_params(cfg: ModelConfig, dims: DimConfig, rng) -> EmbedParams:
    d = cfg.embed_dim

    def lin(rows, cols):
        bound = 1.0 / math.sqrt(cols)
        return Tensor(rng.uniform(-bound, bound, size=(rows, cols)),
                      requires_grad=True)

    nb = n_ss_branches(cfg)
    ss_w = lin(d, d * nb) if nb else None
    ss_b = Tensor(np.zeros(d), requires_grad=True) if nb else None
    return EmbedParams(
        img_proj=lin(d, dims.D_l),
        ss_fc_w=ss_w,
        ss_fc_b=ss_b,
        text_fc_w=lin(d, dims.word_dim),
        text_fc_b=Tensor(np.zeros(d), requires_grad=True),
        gpo_visual=Tensor(np.ones(cfg.gpo_size), requires_grad=True),
        gpo_text=Tensor(np.ones(cfg.gpo_size), requires_grad=True),
    )


# ---------------------------------------------------------------------------
# learned rank pooling

_INTERP_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _interp_matrix(n: int, table_len: int) -> np.ndarray:
    """(n, table_len) linear interpolation from table positions to n ranks."""
    key = (n, table_len)
    cached = _INTERP_CACHE.get(key)
    if cached is not None:
        return cached
    mat = np.zeros((n, table_len))
    if n == 1:
        mat[0, 0] = 1.0
    else:
        for r in range(n):
            x = r * (table_len - 1) / (n - 1)
            lo = int(math.floor(x))
            frac = x - lo
            if frac == 0.0 or lo >= table_len - 1:
                mat[r, min(lo, table_len - 1)] = 1.0
            else:
                mat[r, lo] = 1.0 - frac
                mat[r, lo + 1] = frac
    _INTERP_CACHE[key] = mat
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
    raw = ag.matmul(Tensor(_interp_matrix(n, table_len)), table)
    total = raw.sum()
    if abs(float(total.data)) < 1e-9:
        raise ConfigError("pooling weights sum to ~0; table is degenerate")
    return ag.div(raw, total)


def gpo_pool(rows: Tensor, table: Tensor) -> Tensor:
    """Rank-weighted pooling of (n, D) rows into a (D,) vector."""
    weights = resolve_pool_weights(table, rows.shape[0])
    return ag.sort_pool(rows, weights)


# ---------------------------------------------------------------------------
# fusion and text


def fuse_visual(regions: Tensor, vsem_out: VsemOutput | None,
                vspm_out: VspmOutput | None, seg_embed: Tensor,
                p: EmbedParams, cfg: ModelConfig) -> Tensor:
    """Pool {projected regions} + {semantic-spatial rows} + {seg embedding}.

    Returns the unit-norm image embedding.  Branch toggles drop their rows
    from the semantic-spatial FC input; the segmentation row stays.
    """
    proj = ag.linear(regions, p.img_proj)
    groups = [proj]
    parts = []
    if cfg.use_vsem:
        if vsem_out is None:
            raise ConfigError("use_vsem is on but no semantic output was given")
        parts.append(vsem_out.enhanced)
    if cfg.use_vspm:
        if vspm_out is None:
            raise ConfigError("use_vspm is on but no spatial output was given")
        parts.append(vspm_out.spatial)
    if parts:
        ss_in = parts[0] if len(parts) == 1 else ag.concat(parts, axis=1)
        groups.append(ag.linear(ss_in, p.ss_fc_w) + p.ss_fc_b)
    groups.append(ag.reshape(seg_embed, (1, cfg.embed_dim)))
    return ag.l2_normalize(gpo_pool(ag.concat(groups, axis=0), p.gpo_visual))


def embed_text(word_feats: Tensor, p: EmbedParams) -> Tensor:
    """FC each word into the joint space, pool, normalise."""
    h = ag.linear(word_feats, p.text_fc_w) + p.text_fc_b
    return ag.l2_normalize(gpo_pool(h, p.gpo_text))
