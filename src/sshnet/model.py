"""Model assembly: parameters, prepared inputs, batch-major forwards.

``prepare_image`` hoists everything that never changes during training out
of the per-step graph: the pooled segmentation vector, and the im2col
patches of the position stack (the refinement convolution is one matmul
against them).  ``visual_forward`` and ``text_forward`` embed a whole
batch on one tape, with the batch as the first axis of every tensor.
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autograd as ag
from . import embedder, vsem, vspm
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import ConfigError, FormatError
from .featureio import FeatureBundle, TextFeatureSet, read_tensor, write_tensor

MODES = ("region", "grid")


@dataclass
class ModelParams:
    vsem: vsem.VsemParams
    vspm: vspm.VspmParams
    embed: embedder.EmbedParams

    def named(self) -> dict[str, Tensor]:
        out = {}
        out.update(self.vsem.named())
        out.update(self.vspm.named())
        out.update(self.embed.named())
        return out

    def zero_grad(self):
        for t in self.named().values():
            t.grad = None


def init_params(cfg: ModelConfig, dims: DimConfig, seed: int) -> ModelParams:
    cfg.validate(dims)
    dims.validate()
    rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0])
    return ModelParams(
        vsem=vsem.init_vsem_params(cfg, dims, rng),
        vspm=vspm.init_vspm_params(cfg, dims, rng),
        embed=embedder.init_embed_params(cfg, dims, rng),
    )


# ---------------------------------------------------------------------------
# prepared inputs


@dataclass
class PreparedImage:
    image_id: str
    regions: Tensor        # (K, D_l) constant
    pooled_seg: Tensor     # (C_s,) constant
    pos_patches: Tensor    # (Hp * Wp, kh * kw * (pos_dim + 1)) constant
    pos_hw: tuple          # (Hp, Wp)


@dataclass
class PreparedText:
    sentence_id: str
    words: Tensor          # (N, word_dim) constant
    image_index: int


def prepare_image(bundle: FeatureBundle, dims: DimConfig, cfg: ModelConfig,
                  mode: str = "region") -> PreparedImage:
    if mode == "region":
        regions = bundle.region_feats
    elif mode == "grid":
        regions = bundle.grid_feats.reshape(-1, dims.D_l)
    else:
        raise ConfigError("prepare_image mode must be 'region' or 'grid', got %r"
                          % (mode,))
    pos = vspm.build_position_tensor(bundle.seg_map, cfg.pos_dim, dims.C_s)
    patches, hw = ag.conv_patches(pos, cfg.conv_kh, cfg.conv_kw, cfg.conv_stride)
    return PreparedImage(
        image_id=bundle.image_id,
        regions=Tensor(regions),
        pooled_seg=Tensor(bundle.seg_feat.mean(axis=(0, 1))),
        pos_patches=Tensor(patches),
        pos_hw=hw,
    )


def prepare_text(texts: TextFeatureSet) -> list[PreparedText]:
    ids = texts.sentence_ids or ["sent_%d" % i for i in range(len(texts.word_feats))]
    return [PreparedText(sid, Tensor(w), int(ix))
            for sid, w, ix in zip(ids, texts.word_feats, texts.image_index)]


# ---------------------------------------------------------------------------
# forwards


def visual_forward(imgs: Sequence[PreparedImage], params: ModelParams,
                   cfg: ModelConfig) -> Tensor:
    """Unit-norm joint embeddings (B, D) of B prepared images, row i for
    image i, from one tape over the whole batch.

    The batch's regions, pooled segmentation vectors and position patches
    are stacked, so every projection runs as one GEMM over all B * K rows.
    A row can differ from the same image embedded in another batch by a
    few ULPs (BLAS kernels depend on the row count), within 1e-12; the
    same batch always gives the same bytes.
    """
    regions = Tensor(np.stack([img.regions.data for img in imgs]))
    pooled = Tensor(np.stack([img.pooled_seg.data for img in imgs]))
    vsem_out = None
    if cfg.use_vsem:
        vsem_out = vsem.vsem_forward(regions, pooled, params.vsem, cfg.salience_mode)
        seg_embed = vsem_out.seg_embed
    else:
        seg_embed = vsem.seg_embed_from_pooled(pooled, params.vsem)
    vspm_out = None
    if cfg.use_vspm:
        patches = Tensor(np.stack([img.pos_patches.data for img in imgs]))
        vspm_out = vspm.vspm_forward(regions, patches, params.vspm, cfg, imgs[0].pos_hw)
    return embedder.fuse_visual(regions, vsem_out, vspm_out, seg_embed,
                                params.embed, cfg)


def text_forward(txts: Sequence[PreparedText], params: ModelParams,
                 cfg: ModelConfig) -> Tensor:
    """Unit-norm joint embeddings (S, D) of S sentences, row i for
    sentence i, from one tape; the same ULP note as ``visual_forward``."""
    return embedder.embed_text([t.words for t in txts], params.embed)


# ---------------------------------------------------------------------------
# batch embedding


# Images (and sentences) per embedding chunk: large enough that each
# projection is a GEMM over hundreds of rows, small enough that the
# chunk's (chunk * K, D) temporaries stay a few MB at the full preset.
_EMBED_CHUNK = 8


@dataclass
class EmbeddingTable:
    image_embs: np.ndarray      # (num_images, D) unit rows
    text_embs: np.ndarray       # (num_sentences, D) unit rows
    image_index: np.ndarray     # (num_sentences,) ground-truth image per sentence
    image_ids: list
    sentence_ids: list
    mode: str


def embed_dataset(bundles: list[FeatureBundle], texts: TextFeatureSet,
                  params: ModelParams, cfg: ModelConfig, dims: DimConfig,
                  mode: str = "region") -> EmbeddingTable:
    """Embed every image and sentence in chunks of ``_EMBED_CHUNK``.

    Deterministic given the parameters: the same inputs give the same
    bytes, and every row is within 1e-12 of embedding its item alone.
    """
    if mode not in MODES:
        raise ConfigError("mode must be one of %r, got %r" % (MODES, mode))
    if not bundles or not texts.word_feats:
        raise ConfigError("embed_dataset needs at least one image and one sentence")
    txts = prepare_text(texts)
    img_rows, txt_rows = [], []
    with ag.no_grad():
        for lo in range(0, len(bundles), _EMBED_CHUNK):
            chunk = [prepare_image(b, dims, cfg, mode) for b in bundles[lo:lo + _EMBED_CHUNK]]
            img_rows.append(visual_forward(chunk, params, cfg).data)
        for lo in range(0, len(txts), _EMBED_CHUNK):
            txt_rows.append(text_forward(txts[lo:lo + _EMBED_CHUNK], params, cfg).data)

    return EmbeddingTable(
        image_embs=np.concatenate(img_rows),
        text_embs=np.concatenate(txt_rows),
        image_index=np.asarray([t.image_index for t in txts], dtype=np.int64),
        image_ids=[b.image_id for b in bundles],
        sentence_ids=[t.sentence_id for t in txts],
        mode=mode,
    )


# ---------------------------------------------------------------------------
# checkpoints


def _write_atomic(path: Path, write, payload) -> None:
    """``write(tmp, payload)`` to a sibling temp file, then rename it onto
    ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        write(tmp, payload)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def save_checkpoint(out_dir, params: ModelParams, cfg: ModelConfig,
                    dims: DimConfig, meta: dict | None = None) -> Path:
    """One tensor file per parameter plus a JSON description.

    Every file is written to a temp file and renamed into place, and
    ``checkpoint.json`` is removed first and written last, so an
    interrupted save leaves no ``checkpoint.json`` describing tensors it
    did not finish.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    doc_path = out_dir / "checkpoint.json"
    doc_path.unlink(missing_ok=True)
    named = params.named()
    for name, t in named.items():
        _write_atomic(out_dir / (name + ".3sht"), write_tensor, t.data)
    doc = {
        "format_version": 1,
        "model": cfg.to_dict(),
        "dims": dims.to_dict(),
        "tensors": sorted(named),
        "meta": meta or {},
    }
    _write_atomic(doc_path, Path.write_text, json.dumps(doc, indent=2) + "\n")
    return out_dir


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, ModelConfig, DimConfig, dict]:
    ckpt_dir = Path(ckpt_dir)
    doc_path = ckpt_dir / "checkpoint.json"
    if not doc_path.exists():
        raise FormatError("no checkpoint.json under %s" % (ckpt_dir,))
    try:
        doc = json.loads(doc_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise FormatError("%s is not valid JSON: %s" % (doc_path, e)) from e
    if not isinstance(doc, dict):
        raise FormatError("%s must be a JSON object, got %s"
                          % (doc_path, type(doc).__name__))
    if doc.get("format_version") != 1:
        raise FormatError("checkpoint format_version %r unsupported"
                          % (doc.get("format_version"),))
    for key in ("model", "dims", "tensors"):
        if key not in doc:
            raise FormatError("checkpoint is missing key %r" % (key,))
    tensors = doc["tensors"]
    if not (isinstance(tensors, list) and all(isinstance(t, str) for t in tensors)):
        raise FormatError("checkpoint tensors must be a list of names, got %r"
                          % (tensors,))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("checkpoint meta must be a JSON object, got %r" % (meta,))
    cfg = ModelConfig.from_dict(doc["model"])
    dims = DimConfig.from_dict(doc["dims"])
    params = init_params(cfg, dims, seed=0)
    named = params.named()
    if sorted(named) != sorted(tensors):
        raise FormatError("checkpoint tensor list does not match model config")
    for name, t in named.items():
        arr = read_tensor(ckpt_dir / (name + ".3sht"))
        if arr.shape != t.data.shape:
            raise FormatError("checkpoint tensor %s has shape %r, expected %r"
                              % (name, arr.shape, t.data.shape))
        t.data = arr.astype(np.float64)
        t.grad = None
    return params, cfg, dims, meta
