"""Configs refuse invalid values on construction, however they are built."""
import math
import re
from dataclasses import replace

import pytest

from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import ConfigError
from sshnet.objective import TrainConfig

# (default instance, field, bad value, message)
CASES = [
    (SMALL_DIMS, "K", 0, "dims.K must be >= 1"),
    (SMALL_DIMS, "H_I", -3, "dims.H_I must be >= 1"),
    (SMALL_DIMS, "word_dim", 0, "dims.word_dim must be >= 1"),
    (SMALL_MODEL, "salience_mode", "tanh",
     "salience_mode must be 'sigmoid' or 'softmax', got 'tanh'"),
    (SMALL_MODEL, "attn_smooth", math.nan,
     "attn_smooth must be finite and non-negative, got nan"),
    (SMALL_MODEL, "attn_smooth", -1.0,
     "attn_smooth must be finite and non-negative, got -1.0"),
    (SMALL_MODEL, "embed_dim", 0, "model.embed_dim must be >= 1"),
    (SMALL_MODEL, "conv_stride", -1, "model.conv_stride must be >= 1"),
    (SMALL_MODEL, "gpo_size", 0, "model.gpo_size must be >= 1"),
    (TrainConfig(), "lr", math.inf, "lr must be finite and > 0, got inf"),
    (TrainConfig(), "weight_decay", -1e-4,
     "weight_decay must be finite and >= 0, got -0.0001"),
    (TrainConfig(), "margin", math.nan, "margin must be finite and >= 0, got nan"),
    (TrainConfig(), "batch_size", 1, "batch_size must be >= 2 for in-batch negatives"),
    (TrainConfig(), "epochs", 0, "epochs must be >= 1"),
    (TrainConfig(), "seed", -1, "seed must be >= 0, got -1"),
]
IDS = ["%s.%s=%r" % (type(c).__name__, f, v) for c, f, v, _ in CASES]


@pytest.mark.parametrize("cfg, field, value, message", CASES, ids=IDS)
def test_construction_and_replace_refuse(cfg, field, value, message):
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        type(cfg)(**{**cfg.to_dict(), field: value})
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        replace(cfg, **{field: value})


@pytest.mark.parametrize("cfg, field, value, message",
                         [c for c in CASES if hasattr(c[0], "from_dict")],
                         ids=[i for c, i in zip(CASES, IDS) if hasattr(c[0], "from_dict")])
def test_from_dict_refuses(cfg, field, value, message):
    with pytest.raises(ConfigError, match="^%s$" % re.escape(message)):
        type(cfg).from_dict({**cfg.to_dict(), field: value})


def test_geometry_cross_checks_need_the_dims():
    wide = replace(SMALL_MODEL, pos_channels=5)
    with pytest.raises(ConfigError, match=re.escape("(5 > 16 / 4)")):
        wide.validate(SMALL_DIMS)
    big = replace(SMALL_MODEL, conv_kw=SMALL_DIMS.W_I + 1)
    with pytest.raises(ConfigError, match="refinement kernel exceeds"):
        big.validate(SMALL_DIMS)
    wide.validate(replace(SMALL_DIMS, C_s=20))   # 5 * 4 <= 20
    big.validate(replace(SMALL_DIMS, W_I=SMALL_DIMS.W_I + 1))
