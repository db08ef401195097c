"""Dense float64 tensors with reverse-mode gradients.

Covers exactly the primitives the retrieval model needs: a little linear
algebra, pointwise nonlinearities, im2col patches for valid-mode
convolution, row-wise cosine similarity, smoothed softmax, rank-weighted
pooling, and the masked maxima used by the ranking loss.  ``backward()``
on a scalar accumulates into ``.grad`` of every leaf that requires
gradients and leaves ``.grad`` of intermediate nodes at None;
``grad_check`` validates any scalar loss against central finite
differences.

All math is float64.  Broadcasting is supported only as far as the listed
operations need it (bias rows, per-row scaling, scalar division).
"""
from __future__ import annotations

import contextlib
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

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

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        return Tensor(self.data)

    def sum(self) -> "Tensor":
        """Sum of all entries, as a scalar tensor."""
        t = self

        def vjp(g):
            return (np.full(t.data.shape, float(g)),) if t.requires_grad else (None,)

        return _make(t.data.sum(), (t,), vjp)

    def backward(self):
        """Accumulate d(self)/d(leaf) into ``.grad`` of every leaf.

        A leaf's ``.grad`` is its own C-contiguous array: the first
        gradient that reaches it is copied (VJPs hand out views and shared
        arrays), later ones are added to it, also across calls.  An
        intermediate node's ``.grad`` is released (set to None) as soon as
        its VJP has run.
        """
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar, got shape %r" % (self.shape,))
        self.grad = np.ones_like(self.data)
        for node in reversed(_toposort(self)):
            if node._vjp is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._vjp(node.grad)):
                if g is None:
                    continue
                if parent.grad is None:
                    parent.grad = g.copy()
                else:
                    parent.grad += g
            node.grad = None

    # operator sugar; scalars and arrays are wrapped as constants
    def __add__(self, other):
        return add(self, as_tensor(other))

    def __radd__(self, other):
        return add(as_tensor(other), self)

    def __sub__(self, other):
        return sub(self, as_tensor(other))

    def __rsub__(self, other):
        return sub(as_tensor(other), self)

    def __mul__(self, other):
        return mul(self, as_tensor(other))

    def __rmul__(self, other):
        return mul(as_tensor(other), self)

    def __truediv__(self, other):
        return div(self, as_tensor(other))

    def __neg__(self):
        return mul(self, as_tensor(-1.0))

    def __matmul__(self, other):
        return matmul(self, as_tensor(other))

    def __repr__(self):
        return "Tensor(shape=%r, requires_grad=%r)" % (self.shape, self.requires_grad)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data, parents: tuple, vjp) -> Tensor:
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

def add(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g, b.data.shape) if b.requires_grad else None,
        )

    return _make(a.data + b.data, (a, b), vjp)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g, b.data.shape) if b.requires_grad else None,
        )

    return _make(a.data - b.data, (a, b), vjp)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None,
        )

    return _make(a.data * b.data, (a, b), vjp)


def div(a: Tensor, b: Tensor) -> Tensor:
    def vjp(g):
        return (
            _unbroadcast(g / b.data, a.data.shape) if a.requires_grad else None,
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape)
            if b.requires_grad
            else None,
        )

    return _make(a.data / b.data, (a, b), vjp)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product for operands of rank 1 or 2."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2):
        raise ShapeError("matmul supports rank 1 or 2 operands, got %d and %d" % (ad.ndim, bd.ndim))
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(
            "matmul inner dimensions differ: %r vs %r" % (ad.shape, bd.shape)
        )

    def vjp(g):
        ga = gb = None
        if a.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                ga = g @ bd.T
            elif ad.ndim == 2 and bd.ndim == 1:
                ga = np.outer(g, bd)
            elif ad.ndim == 1 and bd.ndim == 2:
                ga = bd @ g
            else:
                ga = g * bd
        if b.requires_grad:
            if ad.ndim == 2 and bd.ndim == 2:
                gb = ad.T @ g
            elif ad.ndim == 2 and bd.ndim == 1:
                gb = ad.T @ g
            elif ad.ndim == 1 and bd.ndim == 2:
                gb = np.outer(ad, g)
            else:
                gb = g * ad
        return ga, gb

    return _make(ad @ bd, (a, b), vjp)


def linear(x: Tensor, w: Tensor) -> Tensor:
    """``x @ w.T`` for rows x (n, d_in) and a weight w (d_out, d_in).

    The weight gradient is formed as ``g.T @ x``, so it comes out
    C-contiguous in the weight's own layout.
    """
    xd, wd = x.data, w.data
    if xd.ndim != 2 or wd.ndim != 2:
        raise ShapeError("linear expects rank-2 x and w, got %d and %d" % (xd.ndim, wd.ndim))
    if xd.shape[1] != wd.shape[1]:
        raise ShapeError("linear input widths differ: %r vs %r" % (xd.shape, wd.shape))

    def vjp(g):
        return (g @ wd if x.requires_grad else None,
                g.T @ xd if w.requires_grad else None)

    return _make(xd @ wd.T, (x, w), vjp)


# ---------------------------------------------------------------------------
# pointwise nonlinearities

def tanh(x: Tensor) -> Tensor:
    out_data = np.tanh(x.data)

    def vjp(g):
        return ((g * (1.0 - out_data * out_data)) if x.requires_grad else None,)

    return _make(out_data, (x,), vjp)


def sigmoid(x: Tensor) -> Tensor:
    # stable two-sided form
    xd = x.data
    out_data = np.where(xd >= 0, 1.0 / (1.0 + np.exp(-np.abs(xd))),
                        np.exp(-np.abs(xd)) / (1.0 + np.exp(-np.abs(xd))))

    def vjp(g):
        return ((g * out_data * (1.0 - out_data)) if x.requires_grad else None,)

    return _make(out_data, (x,), vjp)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0

    def vjp(g):
        return ((g * mask) if x.requires_grad else None,)

    return _make(np.where(mask, x.data, 0.0), (x,), vjp)


# ---------------------------------------------------------------------------
# shape plumbing

def reshape(x: Tensor, shape) -> Tensor:
    def vjp(g):
        return (g.reshape(x.data.shape) if x.requires_grad else None,)

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


def stack(rows: Sequence[Tensor]) -> Tensor:
    """Stack rank-1 tensors of equal length into a matrix."""
    rows = tuple(rows)
    for r in rows:
        if r.data.ndim != 1:
            raise ShapeError("stack expects rank-1 tensors")

    def vjp(g):
        return tuple(g[i] if r.requires_grad else None for i, r in enumerate(rows))

    return _make(np.stack([r.data for r in rows]), rows, vjp)


# ---------------------------------------------------------------------------
# reductions and structured maxima

def diag(x: Tensor) -> Tensor:
    """Diagonal of a square matrix."""
    n, m = x.data.shape
    if n != m:
        raise ShapeError("diag expects a square matrix, got %r" % (x.data.shape,))

    def vjp(g):
        if not x.requires_grad:
            return (None,)
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
        if not x.requires_grad:
            return (None,)
        gx = np.zeros_like(x.data)
        gx[pos] = g
        return (gx,)

    return _make(out_data, (x,), vjp)


# ---------------------------------------------------------------------------
# convolution

def conv_patches(x: np.ndarray, kh: int, kw: int, stride: int):
    """im2col for valid-mode convolution; returns (patches, (ho, wo)).

    patches[r] is the flattened (kh, kw, c) window for output position r in
    row-major order.
    """
    h, w, c = x.shape
    if kh > h or kw > w:
        raise ShapeError("kernel %dx%d larger than input %dx%d" % (kh, kw, h, w))
    if stride < 1:
        raise ShapeError("stride must be >= 1")
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    patches = np.empty((ho * wo, kh * kw * c), dtype=np.float64)
    for i in range(ho):
        for j in range(wo):
            win = x[i * stride:i * stride + kh, j * stride:j * stride + kw, :]
            patches[i * wo + j] = win.ravel()
    return patches, (ho, wo)


# ---------------------------------------------------------------------------
# similarity and attention primitives

_DEGENERATE_NORM = 1e-12


def cosine_rows(a: Tensor, b: Tensor) -> Tensor:
    """Pairwise cosine similarities between rows: (K, C) x (M, C) -> (K, M).

    Rows with norm below 1e-12 yield zero similarity and zero gradient.
    """
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[1]:
        raise ShapeError("cosine_rows expects (K, C) and (M, C)")
    na = np.sqrt((a.data * a.data).sum(axis=1))
    nb = np.sqrt((b.data * b.data).sum(axis=1))
    ma = na >= _DEGENERATE_NORM
    mb = nb >= _DEGENERATE_NORM
    sa = np.where(ma, na, 1.0)
    sb = np.where(mb, nb, 1.0)
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
        if not c.requires_grad:
            return (None,)
        inner = (g * out_data).sum(axis=-1, keepdims=True)
        return (lam * out_data * (g - inner),)

    return _make(out_data, (c,), vjp)


def l2_normalize(x: Tensor) -> Tensor:
    """x / max(||x||, 1e-12) for a rank-1 tensor."""
    if x.data.ndim != 1:
        raise ShapeError("l2_normalize expects a rank-1 tensor")
    norm = max(float(np.sqrt(x.data @ x.data)), _DEGENERATE_NORM)
    out_data = x.data / norm

    def vjp(g):
        if not x.requires_grad:
            return (None,)
        return ((g - (g @ out_data) * out_data) / norm,)

    return _make(out_data, (x,), vjp)


def sort_pool(rows: Tensor, weights: Tensor) -> Tensor:
    """Rank-weighted pooling: sort each column descending, dot with weights.

    rows: (n, D), weights: (n,) -> (D,).  Ties keep original row order, so
    the permutation (and the subgradient) is deterministic.
    """
    if rows.data.ndim != 2 or weights.data.ndim != 1:
        raise ShapeError("sort_pool expects rows (n, D) and weights (n,)")
    n, _ = rows.data.shape
    if weights.data.shape[0] != n:
        raise ShapeError("weights length %d != row count %d" % (weights.data.shape[0], n))
    idx = np.argsort(-rows.data, axis=0, kind="stable")
    srt = np.take_along_axis(rows.data, idx, axis=0)
    out_data = weights.data @ srt

    def vjp(g):
        gr = gw = None
        if rows.requires_grad:
            gr = np.zeros_like(rows.data)
            np.put_along_axis(gr, idx, np.outer(weights.data, g), axis=0)
        if weights.requires_grad:
            gw = srt @ g
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


def grad_check(
    loss_fn: Callable[[], Tensor],
    params: dict[str, Tensor],
    eps: float = 1e-5,
    tol: float = 1e-4,
    sample: int | None = None,
    sample_seed: int = 0,
) -> GradReport:
    """Compare analytic gradients of a scalar loss against central differences.

    ``loss_fn`` must be deterministic and close over ``params``.  Every
    coordinate of every tensor is checked unless ``sample`` caps the number
    of coordinates per tensor (drawn without replacement, seeded).  The
    relative error denominator is max(|analytic|, |numeric|, 1e-8).
    """
    if not (1e-7 <= eps <= 1e-3):
        raise ConfigError("eps must lie in [1e-7, 1e-3], got %r" % (eps,))
    with no_grad():
        f_a = float(loss_fn().data)
        f_b = float(loss_fn().data)
    if f_a != f_b:
        raise GradCheckError(
            "loss_fn is not deterministic: %.17g != %.17g" % (f_a, f_b)
        )

    for t in params.values():
        t.grad = None
    loss = loss_fn()
    loss.backward()
    analytic = {
        name: (t.grad.copy() if t.grad is not None else np.zeros_like(t.data))
        for name, t in params.items()
    }

    rng = np.random.default_rng(sample_seed)
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
            for i in coords:
                orig = flat[i]
                flat[i] = orig + eps
                f_plus = float(loss_fn().data)
                flat[i] = orig - eps
                f_minus = float(loss_fn().data)
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
