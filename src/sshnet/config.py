"""Dataclass configuration for dataset geometry and model geometry.

Two presets are provided: ``full`` is the full-scale operating point
(36 regions, 2048-d features, 133 segmentation categories, 1024-d joint
space), ``small`` is the desk-scale variant every test runs at.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, asdict, fields

from .errors import ConfigError, FormatError


SALIENCE_MODES = ("sigmoid", "softmax")   # how vsem squashes region cosines


def either(names) -> str:
    """The quoted names of a vocabulary, for a message: "'a' or 'b'"."""
    return " or ".join(map(repr, names))


# JSON types accepted per annotated field type; a bool is never an int.
_JSON_TYPES = {"int": (int,), "float": (int, float), "str": (str,), "bool": (bool,)}


def _from_dict(cls, d, what: str):
    """``cls(**d)``, after rejecting a non-object, any key that is not a
    field of ``cls``, any field without a key, and any value whose JSON
    type does not fit its field; the constructor checks the values."""
    if not isinstance(d, dict):
        raise FormatError("%s must be a JSON object, got %r" % (what, type(d).__name__))
    types = {f.name: f.type for f in fields(cls)}
    for kind, keys in (("unknown", set(d) - set(types)), ("missing", set(types) - set(d))):
        if keys:
            raise FormatError("%s has %s keys: %s" % (what, kind, ", ".join(sorted(keys))))
    for key, v in d.items():
        if (not isinstance(v, _JSON_TYPES[types[key]])
                or (isinstance(v, bool) and types[key] != "bool")):
            raise FormatError("%s.%s must be %s, got %r" % (what, key, types[key], v))
    return cls(**d)


def _positive_ints(cfg, what: str):
    for f in fields(cfg):
        if f.type == "int" and getattr(cfg, f.name) < 1:
            raise ConfigError("%s.%s must be >= 1" % (what, f.name))


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

    def __post_init__(self):
        _positive_ints(self, "dims")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "DimConfig":
        return _from_dict(cls, d, "dims")


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
    salience_mode: str = "sigmoid"   # one of SALIENCE_MODES
    gpo_size: int = 64           # learned pooling table length (max set size)
    use_vsem: bool = True        # segmentation-guided semantic branch
    use_vspm: bool = True        # position-aware spatial branch

    def __post_init__(self):
        if self.salience_mode not in SALIENCE_MODES:
            raise ConfigError("salience_mode must be %s, got %r"
                              % (either(SALIENCE_MODES), self.salience_mode))
        if not (math.isfinite(self.attn_smooth) and self.attn_smooth >= 0):
            raise ConfigError("attn_smooth must be finite and non-negative, got %r"
                              % (self.attn_smooth,))
        _positive_ints(self, "model")

    def validate(self, dims: DimConfig):
        """The checks that need the dataset geometry as well."""
        if self.pos_channels * 4 > dims.C_s:
            raise ConfigError(
                "pos_channels must satisfy pos_channels <= C_s / 4 "
                "(%d > %d / 4)" % (self.pos_channels, dims.C_s))
        if self.conv_kh > dims.H_I or self.conv_kw > dims.W_I:
            raise ConfigError("refinement kernel exceeds the segmentation map")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return _from_dict(cls, d, "model")


FULL_DIMS = DimConfig()
SMALL_DIMS = DimConfig(K=6, D_l=64, C_s=16, H_I=16, W_I=16,
                       seg_h=4, seg_w=4, grid_h=4, grid_w=4, word_dim=768)

FULL_MODEL = ModelConfig()
SMALL_MODEL = ModelConfig(embed_dim=64, pos_dim=8, pos_channels=4,
                          conv_kh=4, conv_kw=4, conv_stride=4)


PRESETS = {"small": (SMALL_DIMS, SMALL_MODEL), "full": (FULL_DIMS, FULL_MODEL)}


def preset(name: str) -> tuple[DimConfig, ModelConfig]:
    if name not in PRESETS:
        raise ConfigError("unknown preset %r (expected %s)" % (name, either(PRESETS)))
    return PRESETS[name]
