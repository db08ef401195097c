"""Per-image reference model: the forward the batched model replaced.

Every function here embeds ONE image or ONE sentence on its own tape,
with the rank-1/rank-2 autograd ops the package used before the model
became batch-major (matrix/vector ``matmul``, 2-D ``cosine_rows``, 1-D
``l2_normalize``, 2-D ``sort_pool`` and ``stack``).  Its spatial branch
convolves each image's whole position stack, sinusoid and category
channels together, where the model splits the convolution by channel.
Tests compare the batched ``model.visual_forward`` / ``model.text_forward``
against it, values and gradients, to 1e-12.  Parameters are the package's
own ``ModelParams``, so both sides read and accumulate into the same leaves.
"""
import math
from types import SimpleNamespace

import numpy as np

from sshnet import autograd as ag
from sshnet import embedder, objective, vspm
from sshnet.autograd import Tensor, _make
from sshnet.errors import ConfigError

_DEGENERATE_NORM = 1e-12


# ---------------------------------------------------------------------------
# per-image ops


def matmul(a, b):
    """Matrix/vector product for operands of rank 1 or 2."""
    ad, bd = a.data, b.data

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                ga = g @ bd.T
            elif ad.ndim == 2:
                ga = np.outer(g, bd)
            elif bd.ndim == 2:
                ga = bd @ g
            else:
                ga = g * bd
        if b.requires_grad:
            if ad.ndim == 2:
                gb = ad.T @ g
            elif bd.ndim == 2:
                gb = np.outer(ad, g)
            else:
                gb = g * ad
        return ga, gb

    return _make(ad @ bd, (a, b), vjp)


def cosine_rows(a, b):
    """(K, C) x (M, C) -> (K, M) cosines; degenerate rows give 0."""
    na = np.sqrt((a.data * a.data).sum(axis=1))
    nb = np.sqrt((b.data * b.data).sum(axis=1))
    ma, mb = na >= _DEGENERATE_NORM, nb >= _DEGENERATE_NORM
    sa, sb = np.where(ma, na, 1.0), np.where(mb, nb, 1.0)
    an = np.where(ma[:, None], a.data / sa[:, None], 0.0)
    bn = np.where(mb[:, None], b.data / sb[:, None], 0.0)
    c = np.clip(an @ bn.T, -1.0, 1.0)

    def vjp(g):
        ga = gb = None
        gc = g * c
        if a.requires_grad:
            ga = (g @ bn - gc.sum(axis=1, keepdims=True) * an) / sa[:, None]
            ga[~ma] = 0.0
        if b.requires_grad:
            gb = (g.T @ an - gc.sum(axis=0)[:, None] * bn) / sb[:, None]
            gb[~mb] = 0.0
        return ga, gb

    return _make(c, (a, b), vjp)


def l2_normalize(x):
    """x / max(||x||, 1e-12) for a rank-1 tensor."""
    norm = max(float(np.sqrt(x.data @ x.data)), _DEGENERATE_NORM)
    out = x.data / norm

    def vjp(g):
        return ((g - (g @ out) * out) / norm,) if x.requires_grad else (None,)

    return _make(out, (x,), vjp)


def sort_pool(rows, weights):
    """(n, D) rows, (n,) weights -> (D,): columns sorted descending, dotted."""
    idx = np.argsort(-rows.data, axis=0, kind="stable")
    srt = np.take_along_axis(rows.data, idx, axis=0)

    def vjp(g):
        gr = gw = None
        if rows.requires_grad:
            gr = np.zeros_like(rows.data)
            np.put_along_axis(gr, idx, np.outer(weights.data, g), axis=0)
        if weights.requires_grad:
            gw = srt @ g
        return gr, gw

    return _make(weights.data @ srt, (rows, weights), vjp)


def stack(rows):
    """Stack rank-1 tensors of equal length into a matrix."""
    rows = tuple(rows)

    def vjp(g):
        return tuple(g[i] if r.requires_grad else None for i, r in enumerate(rows))

    return _make(np.stack([r.data for r in rows]), rows, vjp)


# ---------------------------------------------------------------------------
# per-image model


def gpo_pool(rows, table):
    n, table_len = rows.shape[0], table.shape[0]
    if n == 1:
        weights = Tensor(np.ones(1))
    else:
        raw = matmul(Tensor(embedder._interp_matrix(n, table_len)), table)
        weights = ag.div(raw, raw.sum())
    return sort_pool(rows, weights)


def vsem_forward(regions, pooled, p, mode):
    """(seg_embed (D,), alphas (K,), enhanced (K, D)) of one image."""
    seg = matmul(p.seg_fc_w, pooled) + p.seg_fc_b
    proj = ag.linear(regions, p.region_proj)
    d = seg.shape[0]
    cos = cosine_rows(ag.reshape(seg, (1, d)), proj)
    scaled = cos * (1.0 / math.sqrt(d))
    if mode == "sigmoid":
        out = ag.sigmoid(scaled)
    elif mode == "softmax":
        out = ag.smoothed_softmax(scaled, 1.0)
    else:
        raise ConfigError("unknown salience mode %r" % (mode,))
    alphas = ag.reshape(out, (proj.shape[0],))
    weighted = ag.mul(ag.reshape(alphas, (alphas.shape[0], 1)), proj)
    gate = ag.tanh(ag.linear(weighted, p.gate_proj))
    enhanced = ag.linear(ag.mul(gate, weighted) + seg, p.fuse_proj)
    return seg, alphas, enhanced


def prepare_image(bundle, dims, cfg, mode="region"):
    """One image's arrays as the model reads them: its mode's regions
    (K, D_l) and pooled seg_feat (C_s,) as float64, and as ``pos_patches``
    the (P, kh * kw * (pos_dim + 1)) im2col patches of its whole position
    stack: d sinusoid channels, then the category channel seg_map / C_s."""
    h, w = bundle.seg_map.shape
    stack = np.concatenate([vspm.positional_encode_grid(h, w, cfg.pos_dim),
                            bundle.seg_map[:, :, None] / dims.C_s], axis=2)
    regions = {"region": bundle.region_feats, "grid": bundle.grid_feats}[mode]
    return SimpleNamespace(
        regions=regions.reshape(-1, dims.D_l).astype(np.float64),
        pooled_seg=bundle.seg_feat.mean(axis=(0, 1), dtype=np.float64),
        pos_patches=ag.conv_patches(stack, cfg.conv_kh, cfg.conv_kw, cfg.conv_stride))


def vspm_forward(regions, patches, p, cfg):
    """(refined (P, c), betas (K, P), spatial (K, D)) of one image, from
    the whole-stack patches (P, kh * kw * cin)."""
    kh, kw, cin, cout = p.conv_kernel.shape
    kmat = ag.reshape(p.conv_kernel, (kh * kw * cin, cout))
    refined = matmul(patches, kmat) + p.conv_bias
    queries = ag.linear(regions, p.query_proj)
    betas = ag.smoothed_softmax(cosine_rows(queries, refined), cfg.attn_smooth)
    context = matmul(betas, refined)
    spatial = ag.linear(context + queries, p.combine_proj)
    return refined, betas, spatial


def fuse_visual(regions, enhanced, spatial, seg_embed, p, cfg):
    groups = [ag.linear(regions, p.img_proj)]
    parts = [t for t in (enhanced, spatial) if t is not None]
    if parts:
        ss_in = parts[0] if len(parts) == 1 else ag.concat(parts, axis=1)
        # the FC whole, its branch blocks side by side
        blocks = [w for w in (p.ss_fc_w_sem, p.ss_fc_w_spa) if w is not None]
        ss_w = blocks[0] if len(blocks) == 1 else ag.concat(blocks, axis=1)
        groups.append(ag.linear(ss_in, ss_w) + p.ss_fc_b)
    groups.append(ag.reshape(seg_embed, (1, cfg.embed_dim)))
    return l2_normalize(gpo_pool(ag.concat(groups, axis=0), p.gpo_visual))


def visual_forward(img, params, cfg):
    """Unit-norm (D,) embedding of one image from ``prepare_image``."""
    regions, pooled = Tensor(img.regions), Tensor(img.pooled_seg)
    enhanced = spatial = None
    if cfg.use_vsem:
        seg, _, enhanced = vsem_forward(regions, pooled, params.vsem, cfg.salience_mode)
    else:
        seg = matmul(params.vsem.seg_fc_w, pooled) + params.vsem.seg_fc_b
    if cfg.use_vspm:
        _, _, spatial = vspm_forward(regions, Tensor(img.pos_patches), params.vspm, cfg)
    return fuse_visual(regions, enhanced, spatial, seg, params.embed, cfg)


def text_forward(words, params):
    """Unit-norm (D,) embedding of one sentence's (n, word_dim) words."""
    p = params.embed
    h = ag.linear(Tensor(words), p.text_fc_w) + p.text_fc_b
    return l2_normalize(gpo_pool(h, p.gpo_text))


def triplet_loss(imgs, txts, params, cfg, margin=0.2):
    """The training loss of one batch, one tape per image and sentence."""
    iv = stack([visual_forward(i, params, cfg) for i in imgs])
    tv = stack([text_forward(t, params) for t in txts])
    return objective.triplet_loss(ag.linear(iv, tv), margin)
