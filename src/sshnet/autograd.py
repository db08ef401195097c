"""Dense float64 tensors with reverse-mode gradients.

Covers exactly the primitives the retrieval model needs: a little linear
algebra, pointwise nonlinearities, im2col patches for valid-mode
convolution, row-wise cosine similarity, smoothed softmax, rank-weighted
pooling, and the masked maxima used by the ranking loss.  ``backward()``
on a scalar accumulates into ``.grad`` of every leaf that requires
gradients and leaves ``.grad`` of intermediate nodes at None;
``grad_check`` validates any scalar loss against central finite
differences.

Ops that act on sets take a batch of them as the first axis (``matmul``,
``cosine_rows``, ``sort_pool``, ``l2_normalize``), and ``linear`` runs all
rows of (..., d_in), a single row included, as one GEMM.  All math is
float64.  Broadcasting is supported only as far as the listed operations
need it (bias rows, per-row scaling, scalar division).
"""
from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ConfigError, GradCheckError, ShapeError

_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (forward values only)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """A numpy-backed float64 array plus an optional backward closure."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple = ()
        self._vjp = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self) -> float:
        return float(self.data)

    def sum(self) -> "Tensor":
        """Sum of all entries, as a scalar tensor."""
        t = self

        def vjp(g):
            return (np.full(t.data.shape, float(g)),)

        return _make(t.data.sum(), (t,), vjp)

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf.

        A leaf's ``.grad`` is its own C-contiguous array: the first gradient
        to reach it is taken as is if fresh (it owns its C-ordered data and
        goes to no other parent), else copied; later ones are added to it,
        also across calls.  An intermediate node's ``.grad`` is released
        (set to None) as soon as its VJP has run.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar, got shape %r" % (self.shape,))
        self.grad = np.ones_like(self.data)
        for node in reversed(_toposort(self)):
            if node._vjp is None or node.grad is None:
                continue
            grads = node._vjp(node.grad)
            for parent, g in zip(node._parents, grads):
                if g is None:
                    continue
                if parent.grad is None:
                    fresh = (g.flags.owndata and g.flags.c_contiguous
                             and sum(x is g for x in grads) == 1)
                    parent.grad = g if fresh else g.copy()
                else:
                    parent.grad += g
            node.grad = None

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def uniform_param(rng, shape, fan_in: int) -> Tensor:
    """A trainable tensor drawn from U(-1/sqrt(fan_in), 1/sqrt(fan_in))."""
    bound = 1.0 / math.sqrt(fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def uniform_init(rng) -> Callable:
    """``uniform_param`` from ``rng``, or with ``rng`` None an undrawn shell:
    a read-only zero-stride view holding only the shape, for loaders."""
    if rng is None:
        return lambda shape, fan_in: Tensor(np.broadcast_to(0.0, shape), requires_grad=True)
    return lambda shape, fan_in: uniform_param(rng, shape, fan_in)


def named_tensors(params, prefix: str) -> dict[str, Tensor]:
    """``prefix.field -> Tensor`` for every field of a parameter dataclass
    that is not None, in field order."""
    return {prefix + "." + f.name: getattr(params, f.name) for f in fields(params)
            if getattr(params, f.name) is not None}


def _make(data, parents: tuple, vjp) -> Tensor:
    """A tensor of ``data`` that records ``parents`` and ``vjp`` only while
    gradients are enabled and some parent requires them, so a one-parent
    VJP only runs for a parent that requires gradients."""
    out = Tensor(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = parents
        out._vjp = vjp
    return out


def _toposort(root: Tensor) -> list:
    order, seen, stack = [], {id(root)}, [(root, False)]
    while stack:
        node, done = stack.pop()
        if done:
            order.append(node)
            continue
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, False))
    return order  # ancestors precede descendants; reverse to run backward


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``g`` down to ``shape`` (inverse of numpy broadcasting)."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, n in enumerate(shape):
        if n == 1 and g.shape[axis] != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g.reshape(shape)


# ---------------------------------------------------------------------------
# arithmetic

def _elementwise(data, a: Tensor, b: Tensor, grad_a, grad_b) -> Tensor:
    """Node of a broadcasting binary op: ``grad_a(g)`` and ``grad_b(g)``
    are each operand's gradient before ``_unbroadcast`` sums it down to
    the operand's shape; an operand that needs no gradient gets None."""
    def vjp(g):
        return (_unbroadcast(grad_a(g), a.data.shape) if a.requires_grad else None,
                _unbroadcast(grad_b(g), b.data.shape) if b.requires_grad else None)

    return _make(data, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data + b.data, a, b, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data - b.data, a, b, lambda g: g, lambda g: -g)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data * b.data, a, b, lambda g: g * b.data, lambda g: g * a.data)


def div(a: Tensor, b: Tensor) -> Tensor:
    return _elementwise(a.data / b.data, a, b, lambda g: g / b.data,
                        lambda g: -g * a.data / (b.data * b.data))


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product: (B, M, K) x (B, K, N) -> (B, M, N), or
    (B, M, K) x (K, N) with one right operand shared by the batch."""
    ad, bd = a.data, b.data
    if ad.ndim != 3 or bd.ndim not in (2, 3):
        raise ShapeError("matmul expects operands of rank 3 and 2 or 3, got %d and %d"
                         % (ad.ndim, bd.ndim))
    if ad.shape[2] != bd.shape[-2] or (bd.ndim == 3 and ad.shape[0] != bd.shape[0]):
        raise ShapeError("matmul shapes differ: %r vs %r" % (ad.shape, bd.shape))

    def vjp(g):
        gb = None
        if b.requires_grad:   # a shared operand's gradient sums over the batch
            gb = (ad.transpose(0, 2, 1) @ g if bd.ndim == 3
                  else ad.reshape(-1, ad.shape[2]).T @ g.reshape(-1, g.shape[2]))
        return (g @ np.swapaxes(bd, -1, -2) if a.requires_grad else None), gb

    return _make(ad @ bd, (a, b), vjp)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for rows x (..., d_in) and a weight w (d_out, d_in).

    The leading axes of x (none for a single row) are flattened into one
    GEMM over all rows.  The weight gradient is formed as ``g.T @ x`` over
    those rows, so it comes out C-contiguous in the weight's own layout.
    """
    xd, wd = x.data, w.data
    if xd.ndim < 1 or wd.ndim != 2:
        raise ShapeError("linear expects x of rank >= 1 and a rank-2 w, got %d and %d"
                         % (xd.ndim, wd.ndim))
    if xd.shape[-1] != wd.shape[1]:
        raise ShapeError("linear input widths differ: %r vs %r" % (xd.shape, wd.shape))
    x2 = xd.reshape(-1, wd.shape[1])
    out_shape = xd.shape[:-1] + (wd.shape[0],)

    def vjp(g):
        g2 = g.reshape(-1, wd.shape[0])
        return ((g2 @ wd).reshape(xd.shape) if x.requires_grad else None,
                g2.T @ x2 if w.requires_grad else None)

    return _make((x2 @ wd.T).reshape(out_shape), (x, w), vjp)


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def vjp(g):
        return (g * (1.0 - out_data * out_data),)

    return _make(out_data, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-sided form
    xd = x.data
    e = np.exp(-np.abs(xd))
    out_data = np.where(xd >= 0, 1.0, e) / (1.0 + e)

    def vjp(g):
        return (g * out_data * (1.0 - out_data),)

    return _make(out_data, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return (g * mask,)

    return _make(np.where(mask, x.data, 0.0), (x,), vjp)


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(x: Tensor, shape) -> Tensor:
    def vjp(g):
        return (g.reshape(x.data.shape),)

    return _make(x.data.reshape(shape), (x,), vjp)


def concat(parts: Sequence[Tensor], axis: int = 0) -> Tensor:
    parts = tuple(parts)
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        out = []
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                out.append(g[tuple(idx)])
            else:
                out.append(None)
        return tuple(out)

    return _make(np.concatenate([p.data for p in parts], axis=axis), parts, vjp)


def take_rows(x: Tensor, idx) -> Tensor:
    """Rows ``x[idx]`` of x (n, ...), idx of any shape; the gradient scatter-adds back."""
    idx = np.asarray(idx, dtype=np.intp)

    def vjp(g):
        gx = np.zeros(x.data.shape)
        np.add.at(gx, idx, g)
        return (gx,)

    return _make(x.data[idx], (x,), vjp)


# ---------------------------------------------------------------------------
# reductions and structured maxima

def diag(x: Tensor) -> Tensor:
    """Diagonal of a square matrix."""
    n, m = x.data.shape
    if n != m:
        raise ShapeError("diag expects a square matrix, got %r" % (x.data.shape,))

    def vjp(g):
        gx = np.zeros_like(x.data)
        np.fill_diagonal(gx, g)
        return (gx,)

    return _make(np.diagonal(x.data).copy(), (x,), vjp)


def offdiag_max(x: Tensor, axis: int) -> Tensor:
    """Per-row (axis=1) or per-column (axis=0) max over off-diagonal entries.

    Subgradient flows to the first argmax.  out[i] = max_{j != i} x[i, j]
    for axis=1 and max_{j != i} x[j, i] for axis=0.
    """
    n, m = x.data.shape
    if n != m or n < 2:
        raise ShapeError("offdiag_max needs a square matrix with n >= 2")
    masked = x.data.copy()
    np.fill_diagonal(masked, -np.inf)
    idx = np.argmax(masked, axis=axis)
    rows = np.arange(n)
    if axis == 1:
        out_data, pos = masked[rows, idx], (rows, idx)
    elif axis == 0:
        out_data, pos = masked[idx, rows], (idx, rows)
    else:
        raise ShapeError("axis must be 0 or 1")

    def vjp(g):
        gx = np.zeros_like(x.data)
        gx[pos] = g
        return (gx,)

    return _make(out_data, (x,), vjp)


# ---------------------------------------------------------------------------
# convolution

def conv_patches(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """im2col for valid-mode convolution: (..., h, w, c) -> (..., ho * wo, kh * kw * c).

    patches[..., r, :] is the flattened (kh, kw, c) window for output
    position r in row-major order.  A strided window view plus one copy:
    the values are the input's own, so the result is exact.
    """
    *lead, h, w, c = x.shape
    if kh > h or kw > w:
        raise ShapeError("kernel %dx%d larger than input %dx%d" % (kh, kw, h, w))
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    win = sliding_window_view(x, (kh, kw), axis=(-3, -2))[..., ::stride, ::stride, :, :, :]
    # (..., ho, wo, c, kh, kw) -> (..., ho, wo, kh, kw, c) rows
    patches = np.moveaxis(win, -3, -1).reshape(*lead, ho * wo, kh * kw * c)
    return np.ascontiguousarray(patches, dtype=np.float64)


# ---------------------------------------------------------------------------
# similarity and attention primitives

_DEGENERATE_NORM = 1e-12


def _row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Dot product of matching rows of (B, D) x and y, one BLAS dot per row."""
    return (x[:, None, :] @ y[:, :, None])[:, 0, 0]


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Batched pairwise cosines between rows: (B, K, C) x (B, M, C) -> (B, K, M).

    Rows with norm below 1e-12 yield zero similarity and zero gradient.
    """
    ad, bd = a.data, b.data
    if (ad.ndim != 3 or bd.ndim != 3 or ad.shape[0] != bd.shape[0]
            or ad.shape[2] != bd.shape[2]):
        raise ShapeError("cosine_rows expects (B, K, C) and (B, M, C), got %r and %r"
                         % (ad.shape, bd.shape))
    na = np.sqrt((ad * ad).sum(axis=2))
    nb = np.sqrt((bd * bd).sum(axis=2))
    ma = na >= _DEGENERATE_NORM
    mb = nb >= _DEGENERATE_NORM
    sa = np.where(ma, na, 1.0)[..., None]
    sb = np.where(mb, nb, 1.0)[..., None]
    an = np.where(ma[..., None], ad / sa, 0.0)
    bn = np.where(mb[..., None], bd / sb, 0.0)
    c = np.clip(an @ bn.transpose(0, 2, 1), -1.0, 1.0)

    def vjp(g):
        ga = gb = None
        gc = g * c
        if a.requires_grad:
            ga = (g @ bn - gc.sum(axis=2)[..., None] * an) / sa
            ga[~ma] = 0.0
        if b.requires_grad:
            gb = (g.transpose(0, 2, 1) @ an - gc.sum(axis=1)[..., None] * bn) / sb
            gb[~mb] = 0.0
        return ga, gb

    return _make(c, (a, b), vjp)


def smoothed_softmax(c: Tensor, lam: float) -> Tensor:
    """Softmax of lam * c along the last axis, with max subtraction.

    lam = 0 yields exactly uniform rows; lam must be non-negative.
    """
    if lam < 0:
        raise ConfigError("smoothing factor must be non-negative, got %r" % (lam,))
    z = lam * c.data
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    out_data = e / e.sum(axis=-1, keepdims=True)

    def vjp(g):
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (lam * out_data * (g - inner),)

    return _make(out_data, (c,), vjp)


def l2_normalize(x: Tensor) -> Tensor:
    """Each row of x (B, D) divided by max(||row||, 1e-12)."""
    xd = x.data
    if xd.ndim != 2:
        raise ShapeError("l2_normalize expects (B, D) rows, got %r" % (xd.shape,))
    norm = np.maximum(np.sqrt(_row_dots(xd, xd)), _DEGENERATE_NORM)[:, None]
    out_data = xd / norm

    def vjp(g):
        return ((g - _row_dots(g, out_data)[:, None] * out_data) / norm,)

    return _make(out_data, (x,), vjp)


def sort_pool(rows: Tensor, weights: Tensor) -> Tensor:
    """Rank-weighted pooling of each set: sort each column descending along
    axis 1, dot with the weights.

    rows: (B, n, D), weights: (n,) shared by the B sets -> (B, D).  The
    forward sorts values; only the VJP forms the permutation, in which ties
    keep original row order: a default argsort, or the stable one when a
    column holds two equal keys.
    """
    rd, wd = rows.data, weights.data
    if rd.ndim != 3 or wd.ndim != 1:
        raise ShapeError("sort_pool expects rows (B, n, D) and weights (n,)")
    if wd.shape[0] != rd.shape[1]:
        raise ShapeError("weights length %d != set size %d" % (wd.shape[0], rd.shape[1]))
    srt = -np.sort(-rd, axis=1)
    out_data = wd @ srt

    def vjp(g):
        gr = gw = None
        if rows.requires_grad:
            ties = (srt[:, 1:] == srt[:, :-1]).any()
            idx = np.argsort(-rd, axis=1, kind="stable" if ties else None)
            gr = np.zeros(rd.shape)
            np.put_along_axis(gr, idx, wd[None, :, None] * g[:, None, :], axis=1)
        if weights.requires_grad:
            gw = (srt @ g[:, :, None])[:, :, 0].sum(axis=0)
        return gr, gw

    return _make(out_data, (rows, weights), vjp)


# ---------------------------------------------------------------------------
# finite-difference checking

@dataclass
class GradReport:
    max_abs_err: float
    max_rel_err: float
    worst_param_path: str
    passed: bool


def check_grad_settings(eps: float, tol: float, sample: int | None) -> None:
    """ConfigError unless ``grad_check`` can run with these settings."""
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigError("eps must lie in [1e-7, 1e-3], got %r" % (eps,))
    if not (math.isfinite(tol) and tol > 0):
        raise ConfigError("tol must be finite and > 0, got %r" % (tol,))
    if sample is not None and sample < 1:
        raise ConfigError("sample must be >= 1, got %r" % (sample,))


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    sample: int | None = None,
    fd_loss: Callable[[str], Callable[[], Tensor]] | None = None,
) -> GradReport:
    """Compare analytic gradients of a scalar loss against central differences.

    ``loss_fn`` must be deterministic and close over ``params``.  Every
    coordinate of every tensor is checked unless ``sample`` caps the number
    of coordinates per tensor (drawn without replacement, seed 0).  The
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    ``fd_loss(name)``, if given, is the loss tensor ``name``'s central
    differences run instead, equal to ``loss_fn`` while only it moves.
    """
    check_grad_settings(eps, tol, sample)
    with no_grad():
        f_a = float(loss_fn().data)
        f_b = float(loss_fn().data)
    if f_a != f_b:
        raise GradCheckError(
            "loss_fn is not deterministic: %.17g != %.17g" % (f_a, f_b)
        )

    for t in params.values():
        t.grad = None
    loss_fn().backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }

    rng = np.random.default_rng(0)
    max_abs = 0.0
    max_rel = 0.0
    worst = ""
    with no_grad():
        for name, t in params.items():
            flat = t.data.reshape(-1)
            coords = np.arange(flat.size)
            if sample is not None and sample < flat.size:
                coords = np.sort(rng.choice(flat.size, size=sample, replace=False))
            ga = analytic[name].reshape(-1)
            fd = fd_loss(name) if fd_loss else loss_fn
            for i in coords:
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = float(fd().data)
                flat[i] = orig - eps
                f_minus = float(fd().data)
                flat[i] = orig
                numeric = (f_plus - f_minus) / (2.0 * eps)
                a = ga[i]
                abs_err = abs(a - numeric)
                rel_err = abs_err / max(abs(a), abs(numeric), 1e-8)
                if rel_err > max_rel:
                    max_rel = rel_err
                    worst = "%s[%s]" % (
                        name,
                        ",".join(str(k) for k in np.unravel_index(i, t.data.shape)),
                    )
                if abs_err > max_abs:
                    max_abs = abs_err
    return GradReport(
        max_abs_err=float(max_abs),
        max_rel_err=float(max_rel),
        worst_param_path=worst,
        passed=bool(max_rel <= tol),
    )
