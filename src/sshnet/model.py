"""Model assembly: parameters, prepared images, batch-major forwards.

``prepare_image`` hoists everything that never changes during training out
of the per-step graph: the pooled segmentation vector, and the im2col
patches of the position stack (``vspm.build_position_tensor``: the image's
own, and the shared grid's).  ``visual_forward`` embeds a batch of prepared
images and ``text_forward`` a batch of the loader's (n_i, word_dim) word
arrays, each on one tape, with the batch as the first axis of every tensor.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autograd as ag
from . import embedder, vsem, vspm
from .autograd import Tensor
from .config import DimConfig, ModelConfig, either
from .errors import ConfigError, FormatError
from .featureio import (FORMAT_VERSION, MODE_ARRAYS, FeatureBundle, TextFeatureSet,
                        read_json_object, read_tensor, write_atomic, write_tensor)


@dataclass
class ModelParams:
    vsem: vsem.VsemParams
    vspm: vspm.VspmParams
    embed: embedder.EmbedParams

    def named(self) -> dict[str, Tensor]:
        return {name: t for f in fields(self)
                for name, t in ag.named_tensors(getattr(self, f.name), f.name).items()}

    def zero_grad(self):
        for t in self.named().values():
            t.grad = None


def init_params(cfg: ModelConfig, dims: DimConfig, seed: int) -> ModelParams:
    return _params(cfg, dims, np.random.default_rng(np.random.SeedSequence(seed).spawn(3)[0]))


def _params(cfg: ModelConfig, dims: DimConfig, rng) -> ModelParams:
    """Drawn from ``rng``, or with ``rng`` None undrawn shells (``ag.uniform_init``)."""
    cfg.validate(dims)
    return ModelParams(
        vsem=vsem.init_vsem_params(cfg, dims, rng),
        vspm=vspm.init_vspm_params(cfg, dims, rng),
        embed=embedder.init_embed_params(cfg, dims, rng),
    )


# ---------------------------------------------------------------------------
# prepared images


@dataclass
class PreparedImage:
    regions: np.ndarray       # (K, D_l) constant, as stored
    pooled_seg: np.ndarray    # (C_s,) constant
    pos_patches: np.ndarray   # (P, kh * kw) im2col rows of the category channel
    grid_patches: np.ndarray  # (P, kh * kw * (pos_dim + 1)) read-only, shared per geometry


def prepare_image(bundle: FeatureBundle, dims: DimConfig, cfg: ModelConfig,
                  mode: str = "region") -> PreparedImage:
    if not isinstance(mode, str) or mode not in MODE_ARRAYS:
        raise ConfigError("prepare_image mode must be %s, got %r" % (either(MODE_ARRAYS), mode))
    return PreparedImage(getattr(bundle, MODE_ARRAYS[mode]).reshape(-1, dims.D_l),
                         bundle.seg_feat.mean(axis=(0, 1), dtype=np.float64),
                         *vspm.build_position_tensor(bundle.seg_map, cfg, dims.C_s))


# ---------------------------------------------------------------------------
# forwards


def visual_forward(imgs: Sequence[PreparedImage], params: ModelParams,
                   cfg: ModelConfig) -> Tensor:
    """Unit-norm joint embeddings (B, D) of B prepared images, row i for
    image i, from one tape over the whole batch.

    The batch's regions, pooled segmentation vectors and category patches
    are stacked (all share one geometry), so every projection runs as one
    GEMM over all B * K rows.
    A row can differ from the same image embedded in another batch by a
    few ULPs (BLAS kernels depend on the row count), within 1e-12; the
    same batch always gives the same bytes.
    """
    regions = Tensor(np.stack([img.regions for img in imgs], dtype=np.float64))
    pooled = Tensor(np.stack([img.pooled_seg for img in imgs]))
    semantic = spatial = None
    if cfg.use_vsem:
        vsem_out = vsem.vsem_forward(regions, pooled, params.vsem, cfg.salience_mode)
        seg_embed, semantic = vsem_out.seg_embed, vsem_out.enhanced
    else:
        seg_embed = vsem.seg_embed_from_pooled(pooled, params.vsem)
    if cfg.use_vspm:
        patches = Tensor(np.stack([img.pos_patches for img in imgs]))
        spatial = vspm.vspm_forward(regions, patches, imgs[0].grid_patches,
                                    params.vspm, cfg).spatial
    return embedder.fuse_visual(regions, semantic, spatial, seg_embed, params.embed,
                                params.vspm.combine_proj)


def text_forward(words: Sequence[np.ndarray], params: ModelParams) -> Tensor:
    """Unit-norm joint embeddings (S, D) of S sentences given as (n_i,
    word_dim) word arrays, row i for sentence i, from one tape; the same
    ULP note as ``visual_forward``."""
    return embedder.embed_text(words, params.embed)


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


def embed_dataset(bundles: list[FeatureBundle], texts: TextFeatureSet,
                  params: ModelParams, cfg: ModelConfig, dims: DimConfig,
                  mode: str = "region") -> EmbeddingTable:
    """Embed every image and sentence in chunks of ``_EMBED_CHUNK``.

    Deterministic given the parameters: the same inputs give the same
    bytes, and every row is within 1e-12 of embedding its item alone.
    """
    if not bundles or not texts.word_feats:
        raise ConfigError("embed_dataset needs at least one image and one sentence")
    words = texts.word_feats
    img_rows, txt_rows = [], []
    with ag.no_grad():
        for lo in range(0, len(bundles), _EMBED_CHUNK):
            chunk = [prepare_image(b, dims, cfg, mode) for b in bundles[lo:lo + _EMBED_CHUNK]]
            img_rows.append(visual_forward(chunk, params, cfg).data)
        for lo in range(0, len(words), _EMBED_CHUNK):
            txt_rows.append(text_forward(words[lo:lo + _EMBED_CHUNK], params).data)

    return EmbeddingTable(
        image_embs=np.concatenate(img_rows),
        text_embs=np.concatenate(txt_rows),
        image_index=np.asarray(texts.image_index, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# checkpoints


def save_checkpoint(out_dir, params: ModelParams, cfg: ModelConfig,
                    dims: DimConfig, meta: dict | None = None) -> Path:
    """One tensor file per parameter plus a JSON description.

    Every file is written to a temp file and renamed into place, and
    ``checkpoint.json`` is removed first and written last, so an
    interrupted save leaves no ``checkpoint.json`` describing tensors it
    did not finish.  An older checkpoint there goes first
    (``remove_checkpoint``).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    remove_checkpoint(out_dir)
    named = params.named()
    for name, t in named.items():
        write_atomic(out_dir / (name + ".3sht"), write_tensor, t.data)
    doc = {
        "format_version": FORMAT_VERSION,
        "model": cfg.to_dict(),
        "dims": dims.to_dict(),
        "tensors": sorted(named),
        "meta": meta or {},
    }
    write_atomic(out_dir / "checkpoint.json", Path.write_text, json.dumps(doc, indent=2) + "\n")
    return out_dir


def _checkpoint_doc(ckpt_dir: Path) -> dict:
    doc_path = ckpt_dir / "checkpoint.json"
    if not doc_path.exists():
        raise FormatError("no checkpoint.json under %s" % (ckpt_dir,))
    doc = read_json_object(doc_path, "checkpoint", ("model", "dims", "tensors"))
    tensors = doc["tensors"]
    if not (isinstance(tensors, list)
            and all(isinstance(t, str) and Path(t).name == t for t in tensors)):
        raise FormatError("checkpoint tensors must be a list of names, got %r"
                          % (tensors,))
    return doc


def remove_checkpoint(ckpt_dir) -> None:
    """Delete ``checkpoint.json`` under ``ckpt_dir`` and the tensor files it
    lists, and no other file; an unreadable one alone; nothing without one."""
    ckpt_dir = Path(ckpt_dir)
    if (ckpt_dir / "checkpoint.json").exists():
        try:
            tensors = _checkpoint_doc(ckpt_dir)["tensors"]
        except FormatError:
            tensors = []
        for name in tensors:
            (ckpt_dir / (name + ".3sht")).unlink(missing_ok=True)
        (ckpt_dir / "checkpoint.json").unlink()


def load_checkpoint(ckpt_dir) -> tuple[ModelParams, ModelConfig, DimConfig, dict]:
    ckpt_dir = Path(ckpt_dir)
    doc = _checkpoint_doc(ckpt_dir)
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise FormatError("checkpoint meta must be a JSON object, got %r" % (meta,))
    cfg = ModelConfig.from_dict(doc["model"])
    dims = DimConfig.from_dict(doc["dims"])
    params = _params(cfg, dims, None)
    named = params.named()
    if sorted(named) != sorted(doc["tensors"]):
        raise FormatError("checkpoint tensor list does not match model config")
    for name, t in named.items():
        arr = read_tensor(ckpt_dir / (name + ".3sht"))
        if arr.shape != t.data.shape:
            raise FormatError("checkpoint tensor %s has shape %r, expected %r"
                              % (name, arr.shape, t.data.shape))
        t.data = arr.astype(np.float64, order="C", copy=False)
    return params, cfg, dims, meta
