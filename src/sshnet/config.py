"""Dataclass configuration for dataset geometry and model geometry.

Two presets are provided: ``full`` is the full-scale operating point
(36 regions, 2048-d features, 133 segmentation categories, 1024-d joint
space), ``small`` is the desk-scale variant every test runs at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

from .errors import ConfigError, FormatError


def _check_keys(cls, d, what: str) -> dict:
    """Reject a non-object or any key that is not a field of ``cls``."""
    if not isinstance(d, dict):
        raise FormatError("%s must be a JSON object, got %r" % (what, type(d).__name__))
    unknown = sorted(set(d) - {f.name for f in fields(cls)})
    if unknown:
        raise FormatError("%s has unknown keys: %s" % (what, ", ".join(unknown)))
    return d


@dataclass(frozen=True)
class DimConfig:
    """Shape of one dataset: feature counts and spatial extents."""

    K: int = 36            # detected regions per image
    D_l: int = 2048        # region / grid feature width
    C_s: int = 133         # segmentation category count
    H_I: int = 64          # segmentation map height
    W_I: int = 64
    seg_h: int = 7         # segmentation feature grid
    seg_w: int = 7
    grid_h: int = 7        # grid feature layout (channels == D_l)
    grid_w: int = 7
    word_dim: int = 768    # per-word text feature width

    def validate(self):
        for field in ("K", "D_l", "C_s", "H_I", "W_I", "seg_h", "seg_w",
                      "grid_h", "grid_w", "word_dim"):
            if getattr(self, field) < 1:
                raise ConfigError("dims.%s must be >= 1" % field)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DimConfig":
        out = {}
        for k, v in _check_keys(cls, d, "dims").items():
            try:
                out[k] = int(v)
            except (TypeError, ValueError):
                raise FormatError("dims.%s must be an integer, got %r" % (k, v))
        return cls(**out)


@dataclass(frozen=True)
class ModelConfig:
    """Geometry and behavioural switches of the embedding model."""

    embed_dim: int = 1024        # joint space width D
    pos_dim: int = 32            # sinusoidal channels per pixel
    pos_channels: int = 16       # channels after position refinement
    conv_kh: int = 8
    conv_kw: int = 8
    conv_stride: int = 8
    attn_smooth: float = 4.0     # smoothing factor of the spatial attention
    salience_mode: str = "sigmoid"   # or "softmax"
    gpo_size: int = 64           # learned pooling table length (max set size)
    use_vsem: bool = True        # segmentation-guided semantic branch
    use_vspm: bool = True        # position-aware spatial branch

    def validate(self, dims: DimConfig):
        if self.salience_mode not in ("sigmoid", "softmax"):
            raise ConfigError("salience_mode must be 'sigmoid' or 'softmax', got %r"
                              % (self.salience_mode,))
        if self.pos_channels * 4 > dims.C_s:
            raise ConfigError(
                "pos_channels must satisfy pos_channels <= C_s / 4 "
                "(%d > %d / 4)" % (self.pos_channels, dims.C_s))
        if not (math.isfinite(self.attn_smooth) and self.attn_smooth >= 0):
            raise ConfigError("attn_smooth must be finite and non-negative, got %r"
                              % (self.attn_smooth,))
        if self.conv_kh > dims.H_I or self.conv_kw > dims.W_I:
            raise ConfigError("refinement kernel exceeds the segmentation map")
        for field in ("embed_dim", "pos_dim", "pos_channels", "conv_kh",
                      "conv_kw", "conv_stride", "gpo_size"):
            if getattr(self, field) < 1:
                raise ConfigError("model.%s must be >= 1" % field)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        if isinstance(d, dict) and "per_group_gpo" in d:
            # Older checkpoints store this removed pooling switch; only its
            # off value describes the model this version builds.
            d = dict(d)
            if d.pop("per_group_gpo") is not False:
                raise FormatError("model.per_group_gpo pooling is not supported")
        return cls(**_check_keys(cls, d, "model"))


FULL_DIMS = DimConfig()
SMALL_DIMS = DimConfig(K=6, D_l=64, C_s=16, H_I=16, W_I=16,
                       seg_h=4, seg_w=4, grid_h=4, grid_w=4, word_dim=768)

FULL_MODEL = ModelConfig()
SMALL_MODEL = ModelConfig(embed_dim=64, pos_dim=8, pos_channels=4,
                          conv_kh=4, conv_kw=4, conv_stride=4)


def preset(name: str) -> tuple[DimConfig, ModelConfig]:
    if name == "full":
        return FULL_DIMS, FULL_MODEL
    if name == "small":
        return SMALL_DIMS, SMALL_MODEL
    raise ConfigError("unknown preset %r (expected 'small' or 'full')" % (name,))
