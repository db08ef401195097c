"""Model assembly: parameters, prepared inputs, whole-image forwards.

``prepare_image`` hoists everything that never changes during training out
of the per-step graph: the pooled segmentation vector, and the im2col
patches of the position stack (the refinement convolution is one matmul
against them).
"""
from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

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


def visual_forward(img: PreparedImage, params: ModelParams, cfg: ModelConfig) -> Tensor:
    """Unit-norm joint embedding of one prepared image."""
    vsem_out = None
    if cfg.use_vsem:
        vsem_out = vsem.vsem_forward(img.regions, img.pooled_seg, params.vsem,
                                     cfg.salience_mode)
        seg_embed = vsem_out.seg_embed
    else:
        seg_embed = vsem.seg_embed_from_pooled(img.pooled_seg, params.vsem)
    vspm_out = None
    if cfg.use_vspm:
        vspm_out = vspm.vspm_forward(img.regions, img.pos_patches, params.vspm,
                                     cfg, img.pos_hw)
    return embedder.fuse_visual(img.regions, vsem_out, vspm_out, seg_embed,
                                params.embed, cfg)


def text_forward(txt: PreparedText, params: ModelParams, cfg: ModelConfig) -> Tensor:
    return embedder.embed_text(txt.words, params.embed)


# ---------------------------------------------------------------------------
# batch embedding


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
    """Embed every image and sentence; deterministic given the parameters."""
    if mode not in MODES:
        raise ConfigError("mode must be one of %r, got %r" % (MODES, mode))

    prepped = [prepare_image(b, dims, cfg, mode) for b in bundles]
    txts = prepare_text(texts)
    with ag.no_grad():
        img_rows = [visual_forward(pi, params, cfg).data for pi in prepped]
        txt_rows = [text_forward(pt, params, cfg).data for pt in txts]

    return EmbeddingTable(
        image_embs=np.stack(img_rows),
        text_embs=np.stack(txt_rows),
        image_index=np.asarray([t.image_index for t in txts], dtype=np.int64),
        image_ids=[p.image_id for p in prepped],
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
    doc = json.loads(doc_path.read_text())
    if doc.get("format_version") != 1:
        raise FormatError("checkpoint format_version %r unsupported"
                          % (doc.get("format_version"),))
    cfg = ModelConfig.from_dict(doc["model"])
    dims = DimConfig.from_dict(doc["dims"])
    params = init_params(cfg, dims, seed=0)
    named = params.named()
    if sorted(named) != sorted(doc["tensors"]):
        raise FormatError("checkpoint tensor list does not match model config")
    for name, t in named.items():
        arr = read_tensor(ckpt_dir / (name + ".3sht"))
        if arr.shape != t.data.shape:
            raise FormatError("checkpoint tensor %s has shape %r, expected %r"
                              % (name, arr.shape, t.data.shape))
        t.data = arr.astype(np.float64)
        t.grad = None
    return params, cfg, dims, doc.get("meta", {})
