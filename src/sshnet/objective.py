"""Bidirectional hard-negative ranking loss, AdamW, and the train loop.

The loss follows the max-of-hinges recipe: for every matched pair only the
hardest in-batch negative contributes, in both directions.  Batches pair
each image with exactly one of its captions (rotating across epochs), so a
batch never contains two captions of the same image and the hardest
negative is always a true negative.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, asdict

import numpy as np

from . import autograd as ag
from . import model as model_mod
from .autograd import Tensor
from .config import DimConfig, ModelConfig
from .errors import ConfigError, TrainingError


@dataclass(frozen=True)
class TrainConfig:
    """Optimisation settings; defaults follow the full-scale operating point.

    Desk-scale runs usually override batch_size down to 32.
    """

    margin: float = 0.2
    lr: float = 5e-4
    weight_decay: float = 1e-4
    batch_size: int = 256
    epochs: int = 25
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError("lr must be finite and > 0, got %r" % (self.lr,))
        for name in ("weight_decay", "margin"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError("%s must be finite and >= 0, got %r" % (name, value))
        if self.batch_size < 2:
            raise ConfigError("batch_size must be >= 2 for in-batch negatives")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %r" % (self.seed,))

    def to_dict(self) -> dict:
        return asdict(self)


def triplet_loss(sim: Tensor, margin: float) -> Tensor:
    """Sum of bidirectional hinge losses with hardest in-batch negatives.

    sim is the (B, B) similarity matrix whose diagonal holds the matched
    pairs.  B must be at least 2; otherwise there is no negative to rank
    against.
    """
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1]:
        raise ConfigError("similarity matrix must be square, got %r" % (sim.shape,))
    if sim.shape[0] < 2:
        raise ConfigError("triplet loss needs a batch of >= 2 pairs")
    pos = ag.diag(sim)
    hardest_caption = ag.offdiag_max(sim, axis=1)   # per image
    hardest_image = ag.offdiag_max(sim, axis=0)     # per caption
    return (ag.relu(hardest_caption - pos + margin).sum()
            + ag.relu(hardest_image - pos + margin).sum())


# ---------------------------------------------------------------------------
# AdamW


class AdamWState:
    """First/second moment buffers plus the shared step counter."""

    def __init__(self):
        self.step = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}


# Adam's moment decay rates and denominator epsilon, at the defaults AdamW
# (Loshchilov & Hutter, arXiv 1711.05101) uses.
BETA1 = 0.9
BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per AdamW chunk: small enough that the update's temporaries stay
# in cache, large enough that the per-chunk Python overhead is negligible.
_ADAMW_CHUNK = 1 << 15


def adamw_step(named: dict[str, Tensor], state: AdamWState, cfg: TrainConfig) -> None:
    """One decoupled-weight-decay Adam update over named parameters, in place.

    Parameters with no accumulated gradient are still decayed.  A NaN or
    Inf gradient aborts with the parameter path in the message.  A
    parameter's array is copied once into C order on its first step (the
    caller's array is never written), then updated in place over flat
    chunks of ``_ADAMW_CHUNK`` elements: ``w *= 1 - lr * wd``, then
    ``w -= (lr * sqrt(bc2) / bc1) * m / (sqrt(v) + eps * sqrt(bc2))``.
    Folding the bias corrections bc1, bc2 into step size and epsilon
    (Kingma & Ba, Sec. 2) is exact in math, a few ULPs off in float64.
    """
    state.step += 1
    t = state.step
    bc1 = 1.0 - BETA1 ** t
    bc2 = 1.0 - BETA2 ** t
    step, eps = cfg.lr * math.sqrt(bc2) / bc1, ADAM_EPS * math.sqrt(bc2)
    for name, p in named.items():
        grad = p.grad if p.grad is not None else np.zeros(p.data.shape)
        if not np.isfinite(grad).all():
            raise TrainingError("non-finite gradient in %s" % (name,))
        if name not in state.m:
            state.m[name] = np.zeros(p.data.shape)
            state.v[name] = np.zeros(p.data.shape)
            p.data = np.array(p.data, order="C")
        m_all = state.m[name].reshape(-1)
        v_all = state.v[name].reshape(-1)
        g_all = grad.reshape(-1)
        w_all = p.data.reshape(-1)
        for lo in range(0, w_all.size, _ADAMW_CHUNK):
            s = slice(lo, lo + _ADAMW_CHUNK)
            g, m, v, w = g_all[s], m_all[s], v_all[s], w_all[s]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            w *= 1.0 - cfg.lr * cfg.weight_decay
            w -= step * m / (np.sqrt(v) + eps)


# ---------------------------------------------------------------------------
# training


@dataclass
class TrainResult:
    params: model_mod.ModelParams
    loss_curve: list          # per-epoch mean loss per pair
    epochs_run: int
    elapsed_s: float
    stopped_early: bool = False


def caption_lookup(image_index, n_images: int) -> dict[int, list[int]]:
    """Each image's sentence positions; ConfigError for < 2 images or one uncaptioned."""
    if n_images < 2:
        raise ConfigError("training needs at least 2 images")
    caps: dict[int, list[int]] = {}
    for s, img in enumerate(image_index):
        caps.setdefault(int(img), []).append(s)
    missing = [i for i in range(n_images) if not caps.get(i)]
    if missing:
        raise ConfigError("images without captions: %r" % (missing[:5],))
    return caps


def train(bundles, texts, dims: DimConfig, model_cfg: ModelConfig,
          cfg: TrainConfig, mode: str = "region",
          epoch_callback=None) -> TrainResult:
    """Train a joint embedding on stored features, each batch prepared as it forms.

    Deterministic given (seed, configs, dataset): the sampler is a seeded
    permutation per epoch, and each image contributes the caption indexed
    by epoch modulo its caption count.  ``epoch_callback(epoch, mean_loss,
    params)`` may return True to stop early.
    """
    n_images = len(bundles)
    caps = caption_lookup(texts.image_index, n_images)

    params = model_mod.init_params(model_cfg, dims, cfg.seed)
    named = params.named()
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(3)[1])
    state = AdamWState()

    t0 = time.perf_counter()
    loss_curve = []
    stopped = False
    epochs_run = 0
    for epoch in range(cfg.epochs):
        order = rng.permutation(n_images)
        total_loss = 0.0
        total_pairs = 0
        for lo in range(0, n_images, cfg.batch_size):
            batch = order[lo:lo + cfg.batch_size]
            if batch.shape[0] < 2:
                continue  # a single leftover pair has no in-batch negative
            params.zero_grad()
            imgs = model_mod.prepare_image([bundles[i] for i in batch], dims, model_cfg, mode)
            img_embs = model_mod.visual_forward(imgs, params, model_cfg)
            txt_embs = model_mod.text_forward(
                [texts.word_feats[caps[i][epoch % len(caps[i])]] for i in batch], params)
            loss = triplet_loss(ag.linear(img_embs, txt_embs), cfg.margin)
            loss.backward()
            total_loss += float(loss.data)
            # the step's tape holds every batch activation: free it and the
            # prepared batch before the update and the next step's forward
            del imgs, img_embs, txt_embs, loss
            adamw_step(named, state, cfg)
            total_pairs += int(batch.shape[0])
        mean_loss = total_loss / max(total_pairs, 1)
        loss_curve.append(mean_loss)
        epochs_run = epoch + 1
        if epoch_callback is not None and epoch_callback(epoch, mean_loss, params):
            stopped = True
            break
    return TrainResult(params=params, loss_curve=loss_curve,
                       epochs_run=epochs_run,
                       elapsed_s=time.perf_counter() - t0,
                       stopped_early=stopped)
