"""Numerics tests: naive oracles, gradient checks, algebraic properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from sshnet import autograd as ag
from sshnet import featureio, model, objective, vspm
from sshnet.autograd import Tensor
from sshnet.config import SMALL_DIMS, SMALL_MODEL
from sshnet.errors import ConfigError, GradCheckError, ShapeError


# ---------------------------------------------------------------------------
# oracles


def matmul_oracle(a, b):
    """Triple-loop matrix product."""
    a = np.atleast_2d(a)
    b2 = b if b.ndim == 2 else b[:, None]
    out = np.zeros((a.shape[0], b2.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b2.shape[1]):
            acc = 0.0
            for k in range(a.shape[1]):
                acc += a[i, k] * b2[k, j]
            out[i, j] = acc
    return out


def conv2d_oracle(x, k, stride, bias=None):
    """Nested-loop valid cross-correlation."""
    h, w, cin = x.shape
    kh, kw, _, cout = k.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    out = np.zeros((ho, wo, cout))
    for i in range(ho):
        for j in range(wo):
            for o in range(cout):
                acc = 0.0
                for di in range(kh):
                    for dj in range(kw):
                        for c in range(cin):
                            acc += x[i * stride + di, j * stride + dj, c] * k[di, dj, c, o]
                out[i, j, o] = acc + (bias[o] if bias is not None else 0.0)
    return out


def fd_check(build, params, eps=1e-6, tol=1e-6):
    """Finite-difference check of an op composition against its backward.

    ``build`` maps the list of parameter tensors to a scalar Tensor.
    Returns the max relative error over all coordinates.
    """
    for t in params:
        t.grad = None
    loss = build(params)
    loss.backward()
    worst = 0.0
    for t in params:
        g = t.grad if t.grad is not None else np.zeros_like(t.data)
        flat = t.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            with ag.no_grad():
                fp = float(build(params).data)
            flat[i] = orig - eps
            with ag.no_grad():
                fm = float(build(params).data)
            flat[i] = orig
            num = (fp - fm) / (2 * eps)
            worst = max(worst, abs(num - gf[i]) / max(abs(num), abs(gf[i]), 1e-6))
    assert worst < tol, worst
    return worst


# ---------------------------------------------------------------------------
# forward values against oracles and frozen cases


def test_matmul_identity():
    a = Tensor(np.stack([np.eye(2), 2.0 * np.eye(2)]))
    b = Tensor([[[1.0, 2.0], [3.0, 4.0]], [[5.0, 6.0], [7.0, 8.0]]])
    out = ag.matmul(a, b)
    assert np.array_equal(out.data, b.data * np.array([1.0, 2.0])[:, None, None])


def test_matmul_vector_case():
    out = ag.matmul(Tensor([[[1.0, 2.0]]]), Tensor([[[3.0], [4.0]]]))
    assert out.data.shape == (1, 1, 1)
    assert out.data[0, 0, 0] == 11.0


def test_matmul_bitwise_equals_oracle_on_small_ints():
    rng = np.random.default_rng(0)
    for _ in range(20):
        m, k, n = rng.integers(1, 6, size=3)
        bsz = int(rng.integers(1, 4))
        a = rng.integers(-5, 6, size=(bsz, m, k)).astype(np.float64)
        b = rng.integers(-5, 6, size=(bsz, k, n)).astype(np.float64)
        got = ag.matmul(Tensor(a), Tensor(b)).data
        for i in range(bsz):
            assert np.array_equal(got[i], matmul_oracle(a[i], b[i]))


def test_matmul_shape_error():
    with pytest.raises(ShapeError):
        ag.matmul(Tensor(np.ones((1, 2, 3))), Tensor(np.ones((1, 2, 3))))
    with pytest.raises(ShapeError):      # batch sizes differ
        ag.matmul(Tensor(np.ones((2, 2, 3))), Tensor(np.ones((1, 3, 2))))
    with pytest.raises(ShapeError):      # rank 2 is not the batch form
        ag.matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_linear_bitwise_equals_oracle_on_small_ints():
    rng = np.random.default_rng(13)
    for _ in range(20):
        n, d_in, d_out = rng.integers(1, 6, size=3)
        x = rng.integers(-5, 6, size=(n, d_in)).astype(np.float64)
        w = rng.integers(-5, 6, size=(d_out, d_in)).astype(np.float64)
        got = ag.linear(Tensor(x), Tensor(w)).data
        assert np.array_equal(got, matmul_oracle(x, w.T))
    with pytest.raises(ShapeError):
        ag.linear(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 2))))


def test_linear_flattens_leading_axes():
    """(B, K, d_in) rows run as one (B * K, d_in) GEMM, values unchanged."""
    rng = np.random.default_rng(14)
    x = rng.integers(-5, 6, size=(3, 4, 5)).astype(np.float64)
    w = rng.integers(-5, 6, size=(2, 5)).astype(np.float64)
    got = ag.linear(Tensor(x), Tensor(w)).data
    assert got.shape == (3, 4, 2)
    for i in range(3):
        assert np.array_equal(got[i], matmul_oracle(x[i], w.T))


def test_linear_single_row_equals_the_one_row_matrix():
    """A (d_in,) row takes the (1, d_in) path: value and both gradients
    bitwise equal, each in its operand's shape."""
    rng = np.random.default_rng(15)
    row, w, g = rng.normal(size=5), rng.normal(size=(3, 5)), rng.normal(size=3)
    results = []
    for x_data, g_out in ((row, g), (row[None, :], g[None, :])):
        x, wt = Tensor(x_data, requires_grad=True), Tensor(w, requires_grad=True)
        out = ag.linear(x, wt)
        (out * Tensor(g_out)).sum().backward()
        results.append((out.data, x.grad, wt.grad))
    (v, gx, gw), (v1, gx1, gw1) = results
    assert v.shape == (3,) and gx.shape == (5,)
    assert v.tobytes() == v1.tobytes() and gx.tobytes() == gx1.tobytes()
    assert gw.tobytes() == gw1.tobytes()
    with pytest.raises(ShapeError):
        ag.linear(Tensor(1.0), Tensor(np.ones((3, 1))))


def conv_patches_oracle(x, kh, kw, stride):
    """Window-by-window im2col: row i * wo + j is window (i, j) raveled."""
    h, w, c = x.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    patches = np.empty((ho * wo, kh * kw * c))
    for i in range(ho):
        for j in range(wo):
            patches[i * wo + j] = x[i * stride:i * stride + kh,
                                    j * stride:j * stride + kw, :].ravel()
    return patches


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_patches_bitwise_equals_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 9, size=2)
    kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    stride = int(rng.integers(1, 4))
    lead = tuple(rng.integers(1, 4, size=int(rng.integers(0, 3))))
    x = rng.normal(size=(*lead, h, w, int(rng.integers(1, 4))))
    got = ag.conv_patches(x, kh, kw, stride)
    want = np.stack([conv_patches_oracle(xi, kh, kw, stride)
                     for xi in x.reshape(-1, *x.shape[-3:])])
    want = want.reshape(*lead, *want.shape[1:])
    assert got.shape == want.shape
    assert got.flags["C_CONTIGUOUS"] and got.dtype == np.float64
    assert np.array_equal(got, want)


def refine_via_patches(x, k, stride, bias=None):
    """The model's convolution over the im2col patches of x, its last
    channel in the category channel's place and x with that channel zero in
    the grid's; the row-major output rows laid back out as the (ho, wo,
    cout) grid."""
    kh, kw, cin, cout = k.shape
    p = vspm.VspmParams(conv_kernel=Tensor(k),
                        conv_bias=Tensor(np.zeros(cout) if bias is None else bias),
                        query_proj=None, combine_proj=None)
    patches = ag.conv_patches(x[:, :, -1:], kh, kw, stride)
    grid = ag.conv_patches(np.concatenate([x[:, :, :-1], 0.0 * x[:, :, -1:]], axis=2),
                           kh, kw, stride)
    rows = vspm.refine_from_patches(Tensor(patches[None]), grid, p).data[0]
    return rows.reshape((x.shape[0] - kh) // stride + 1, (x.shape[1] - kw) // stride + 1, cout)


def test_conv2d_bitwise_equals_oracle_on_small_ints():
    rng = np.random.default_rng(1)
    for _ in range(10):
        h, w = rng.integers(3, 8, size=2)
        kh = int(rng.integers(1, h + 1))
        kw = int(rng.integers(1, w + 1))
        cin, cout = rng.integers(1, 4, size=2)
        stride = int(rng.integers(1, 4))
        x = rng.integers(-3, 4, size=(h, w, cin)).astype(np.float64)
        k = rng.integers(-3, 4, size=(kh, kw, cin, cout)).astype(np.float64)
        got = refine_via_patches(x, k, stride)
        assert np.array_equal(got, conv2d_oracle(x, k, stride))


def test_conv2d_random_float_matches_oracle():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(6, 6, 2))
    k = rng.normal(size=(3, 3, 2, 1))
    got = refine_via_patches(x, k, 3)
    np.testing.assert_allclose(got, conv2d_oracle(x, k, 3), rtol=1e-12, atol=1e-12)


def test_conv2d_one_by_one_identity_kernel():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(5, 4, 3))
    k = np.zeros((1, 1, 3, 3))
    k[0, 0] = np.eye(3)
    out = refine_via_patches(x, k, 1)
    np.testing.assert_array_equal(out, x)


def test_conv2d_zero_kernel_bias_only():
    x = np.random.default_rng(4).normal(size=(4, 4, 2))
    k = np.zeros((2, 2, 2, 3))
    b = np.array([1.0, -2.0, 0.5])
    out = refine_via_patches(x, k, 2, bias=b)
    assert np.array_equal(out, np.broadcast_to(b, out.shape))


def test_conv2d_channel_mismatch():
    with pytest.raises(ShapeError):
        refine_via_patches(np.ones((4, 4, 2)), np.ones((2, 2, 3, 1)), 1)


def cosine_oracle(u, v):
    """Scalar cosine; 0 when either norm is below 1e-12."""
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu < 1e-12 or nv < 1e-12:
        return 0.0
    return float(np.clip(u @ v / (nu * nv), -1.0, 1.0))


def cosine(u, v):
    """cosine_rows on a batch of one one-row input, as a scalar tensor."""
    return ag.reshape(ag.cosine_rows(ag.reshape(u, (1, 1, -1)), ag.reshape(v, (1, 1, -1))), ())


def test_cosine_frozen_values():
    assert cosine(Tensor([1.0, 2.0]), Tensor([2.0, 1.0])).item() == pytest.approx(0.8, abs=1e-15)
    u = Tensor(np.random.default_rng(5).normal(size=7))
    assert cosine(u, u).item() == pytest.approx(1.0, abs=1e-12)
    assert cosine(Tensor([1.0, 0.0]), Tensor([0.0, 1.0])).item() == 0.0


def test_cosine_degenerate_zero_vector():
    u = Tensor(np.zeros(4), requires_grad=True)
    v = Tensor(np.ones(4), requires_grad=True)
    c = cosine(u, v)
    assert c.item() == 0.0
    c.backward()
    assert np.array_equal(u.grad, np.zeros(4))
    assert np.array_equal(v.grad, np.zeros(4))


@given(st.integers(0, 2**32 - 1), st.floats(0.1, 100.0))
@settings(max_examples=50, deadline=None)
def test_cosine_scale_invariance_and_bounds(seed, scale):
    rng = np.random.default_rng(seed)
    u = rng.normal(size=6)
    v = rng.normal(size=6)
    c1 = cosine(Tensor(u), Tensor(v)).item()
    c2 = cosine(Tensor(scale * u), Tensor(v)).item()
    assert -1.0 <= c1 <= 1.0
    assert c1 == pytest.approx(c2, abs=1e-9)
    assert c1 == pytest.approx(cosine_oracle(u, v), abs=1e-12)


def test_cosine_rows_matches_scalar_cosine():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 4, 5))
    b = rng.normal(size=(2, 3, 5))
    got = ag.cosine_rows(Tensor(a), Tensor(b)).data
    assert got.shape == (2, 4, 3)
    for s in range(2):
        for i in range(4):
            for j in range(3):
                want = cosine_oracle(a[s, i], b[s, j])
                assert got[s, i, j] == pytest.approx(want, abs=1e-12)
    with pytest.raises(ShapeError):      # each set pairs with its own set
        ag.cosine_rows(Tensor(a), Tensor(b[:1]))


def test_cosine_rows_degenerate_row():
    a = np.zeros((1, 2, 3))
    a[0, 1] = [1.0, 0.0, 0.0]
    t = Tensor(a, requires_grad=True)
    b = Tensor(np.eye(3)[None])
    out = ag.cosine_rows(t, b)
    assert np.array_equal(out.data[0, 0], np.zeros(3))
    out.sum().backward()
    assert np.array_equal(t.grad[0, 0], np.zeros(3))


def test_smoothed_softmax_frozen_case():
    out = ag.smoothed_softmax(Tensor([math.log(2.0), 0.0]), 1.0).data
    np.testing.assert_allclose(out, [2.0 / 3.0, 1.0 / 3.0], rtol=1e-15)


def test_smoothed_softmax_lambda_zero_exactly_uniform():
    rng = np.random.default_rng(7)
    c = rng.normal(size=(3, 7))
    out = ag.smoothed_softmax(Tensor(c), 0.0).data
    assert np.all(out == 1.0 / 7.0)


def test_smoothed_softmax_negative_lambda_rejected():
    with pytest.raises(ConfigError):
        ag.smoothed_softmax(Tensor([1.0, 2.0]), -0.5)


@given(st.integers(0, 2**32 - 1), st.floats(0.0, 10.0), st.floats(-5.0, 5.0))
@settings(max_examples=50, deadline=None)
def test_smoothed_softmax_rows_sum_to_one_and_shift_invariant(seed, lam, shift):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(2, 5))
    out = ag.smoothed_softmax(Tensor(c), lam).data
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-9)
    assert np.all(out > 0.0)
    shifted = ag.smoothed_softmax(Tensor(c + shift), lam).data
    np.testing.assert_allclose(out, shifted, atol=1e-9)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_smoothed_softmax_peak_monotone_in_lambda(seed):
    rng = np.random.default_rng(seed)
    c = rng.normal(size=6)
    lam1, lam2 = sorted(rng.uniform(0.0, 8.0, size=2))
    p1 = ag.smoothed_softmax(Tensor(c), lam1).data.max()
    p2 = ag.smoothed_softmax(Tensor(c), lam2).data.max()
    assert p2 >= p1 - 1e-12


def test_sort_pool_uniform_weights_is_mean():
    rng = np.random.default_rng(8)
    rows = rng.normal(size=(2, 5, 4))
    out = ag.sort_pool(Tensor(rows), Tensor(np.full(5, 0.2))).data
    np.testing.assert_allclose(out, rows.mean(axis=1), rtol=1e-12)


def test_sort_pool_onehot_top_weight_is_max():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(3, 6, 3))
    w = np.zeros(6)
    w[0] = 1.0
    out = ag.sort_pool(Tensor(rows), Tensor(w)).data
    np.testing.assert_array_equal(out, rows.max(axis=1))


def stable_sort_pool(rd, wd, g):
    """sort_pool through one stable permutation: values gathered by
    take_along_axis, the rows gradient scattered back through it."""
    idx = np.argsort(-rd, axis=1, kind="stable")
    srt = np.take_along_axis(rd, idx, axis=1)
    gr = np.zeros(rd.shape)
    np.put_along_axis(gr, idx, wd[None, :, None] * g[:, None, :], axis=1)
    return wd @ srt, gr, (srt @ g[:, :, None])[:, :, 0].sum(axis=0)


def _sort_pool_run(rd, wd, g, monkeypatch):
    """sort_pool values, rows and weights gradients, and the argsort kinds
    its VJP used."""
    kinds = []
    real = np.argsort

    def spy(a, axis=-1, kind=None, **kw):
        kinds.append(kind)
        return real(a, axis=axis, kind=kind, **kw)

    monkeypatch.setattr(np, "argsort", spy)
    rows, weights = Tensor(rd, requires_grad=True), Tensor(wd, requires_grad=True)
    out = ag.sort_pool(rows, weights)
    assert kinds == []     # the forward sorts values, no permutation
    (out * Tensor(g)).sum().backward()
    monkeypatch.undo()
    return (out.data, rows.grad, weights.grad), kinds


TIE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0])


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=3, max_dims=3, max_side=12),
                  elements=TIE_VALUES),
       st.integers(0, 2**32 - 1), st.booleans())
@settings(max_examples=150, deadline=None)
def test_sort_pool_bitwise_equals_stable_oracle_with_ties(rd, seed, flat_column):
    """Integer-valued sets full of ties, -0 beside +0, and (optionally) a
    whole column of one value: values and both gradients are the stable
    oracle's bytes, for weights of either sign.  (The sorted rows themselves
    may order a tied -0 and +0 either way; no output shows it.)"""
    rng = np.random.default_rng(seed)
    if flat_column:
        rd[:, :, -1] = rd[0, 0, -1]
    wd = rng.normal(size=rd.shape[1])
    g = rng.normal(size=(rd.shape[0], rd.shape[2]))
    with pytest.MonkeyPatch.context() as mp:
        got, kinds = _sort_pool_run(rd, wd, g, mp)
    for a, b in zip(got, stable_sort_pool(rd, wd, g)):
        assert a.tobytes() == b.tobytes()
    has_tie = (np.diff(np.sort(rd, axis=1), axis=1) == 0).any()
    assert kinds == ["stable" if has_tie else None]


def test_sort_pool_without_ties_uses_the_default_argsort(monkeypatch):
    """Distinct keys in every column: any argsort gives the stable
    permutation, so the VJP's default one gives the same bytes."""
    rng = np.random.default_rng(10)
    rd = rng.normal(size=(4, 73, 32))
    wd = rng.uniform(0.0, 1.0, size=73)
    g = rng.normal(size=(4, 32))
    got, kinds = _sort_pool_run(rd, wd, g, monkeypatch)
    assert kinds == [None]
    for a, b in zip(got, stable_sort_pool(rd, wd, g)):
        assert a.tobytes() == b.tobytes()


def test_offdiag_max_values():
    x = Tensor(np.array([[9.0, 1.0, 2.0], [3.0, 9.0, 4.0], [5.0, 6.0, 9.0]]))
    np.testing.assert_array_equal(ag.offdiag_max(x, axis=1).data, [2.0, 4.0, 6.0])
    np.testing.assert_array_equal(ag.offdiag_max(x, axis=0).data, [5.0, 6.0, 4.0])


def test_l2_normalize_unit_norm():
    v = Tensor(np.random.default_rng(10).normal(size=(3, 9)))
    out = ag.l2_normalize(v).data
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-12)
    zero = ag.l2_normalize(Tensor(np.zeros((1, 4)))).data
    assert np.array_equal(zero, np.zeros((1, 4)))


def test_take_rows_gathers_and_scatters_back():
    x = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ag.take_rows(x, [3, 0, 3])
    np.testing.assert_array_equal(out.data, x.data[[3, 0, 3]])
    out.sum().backward()
    np.testing.assert_array_equal(x.grad, [[1.0] * 3, [0.0] * 3, [0.0] * 3, [2.0] * 3])


def test_take_rows_with_a_2d_index_equals_the_flat_gather_reshaped():
    """A (b, n) index gathers (b, n, ...) rows, and repeated indices
    scatter-add back, bitwise as the 1-D index's gather reshaped."""
    rng = np.random.default_rng(16)
    data, idx = rng.normal(size=(5, 3)), np.array([[4, 0, 4], [2, 4, 1]])
    g = rng.normal(size=(2, 3, 3))
    x2, x1 = Tensor(data, requires_grad=True), Tensor(data, requires_grad=True)
    out2 = ag.take_rows(x2, idx)
    out1 = ag.reshape(ag.take_rows(x1, idx.ravel()), (2, 3, 3))
    assert out2.data.shape == (2, 3, 3) and out2.data.tobytes() == out1.data.tobytes()
    for x, out in ((x2, out2), (x1, out1)):
        (out * Tensor(g)).sum().backward()
    assert x2.grad.tobytes() == x1.grad.tobytes()
    np.testing.assert_allclose(x2.grad[4], g[0, 0] + g[0, 2] + g[1, 1])


# ---------------------------------------------------------------------------
# backward: every primitive against finite differences across random seeds


def _rand(rng, shape):
    return Tensor(rng.normal(size=shape), requires_grad=True)


def _builder(param_shapes, op, wshape=None, param_fn=None):
    def make(rng):
        if param_fn is not None:
            params = param_fn(rng)
        else:
            params = [_rand(rng, s) for s in param_shapes]
        if wshape is None:
            return params, op
        w = Tensor(rng.normal(size=wshape))
        return params, lambda ps: (op(ps) * w).sum()

    return make


PRIMITIVE_BUILDERS = {
    "add": _builder([(3, 4), (4,)], lambda ps: ag.add(ps[0], ps[1]), (3, 4)),
    "sub": _builder([(3, 4), (3, 4)], lambda ps: ag.sub(ps[0], ps[1]), (3, 4)),
    "mul": _builder([(3, 4), (3, 1)], lambda ps: ag.mul(ps[0], ps[1]), (3, 4)),
    "div": _builder(None, lambda ps: ag.div(ps[0], ps[1]), (3, 4),
                    param_fn=lambda rng: [_rand(rng, (3, 4)),
                                          Tensor(rng.uniform(1.0, 2.0, size=(3, 4)), requires_grad=True)]),
    "matmul": _builder([(2, 3, 4), (2, 4, 2)], lambda ps: ag.matmul(ps[0], ps[1]), (2, 3, 2)),
    "matvec": _builder([(2, 3, 4), (2, 4, 1)], lambda ps: ag.matmul(ps[0], ps[1]), (2, 3, 1)),
    "matmul_shared": _builder([(2, 3, 4), (4, 2)], lambda ps: ag.matmul(ps[0], ps[1]), (2, 3, 2)),
    "tanh": _builder([(5,)], lambda ps: ag.tanh(ps[0]), (5,)),
    "sigmoid": _builder([(5,)], lambda ps: ag.sigmoid(ps[0]), (5,)),
    "relu": _builder(None, lambda ps: ag.relu(ps[0]), (7,),
                     param_fn=lambda rng: [Tensor(np.where(rng.normal(size=7) > 0, 1.0, -1.0)
                                                  + 0.2 * rng.normal(size=7), requires_grad=True)]),
    "reshape": _builder([(2, 6)], lambda ps: ag.reshape(ps[0], (3, 4)), (3, 4)),
    "linear": _builder([(3, 4), (2, 4)], lambda ps: ag.linear(ps[0], ps[1]), (3, 2)),
    "linear_batched": _builder([(2, 3, 4), (2, 4)], lambda ps: ag.linear(ps[0], ps[1]), (2, 3, 2)),
    "linear_row": _builder([(4,), (2, 4)], lambda ps: ag.linear(ps[0], ps[1]), (2,)),
    "concat": _builder([(2, 3), (4, 3)], lambda ps: ag.concat(ps, axis=0), (6, 3)),
    "take_rows": _builder([(5, 3)], lambda ps: ag.take_rows(ps[0], [4, 0, 4, 2]), (4, 3)),
    "take_rows_2d": _builder([(5, 3)], lambda ps: ag.take_rows(ps[0], [[4, 0], [4, 2]]),
                             (2, 2, 3)),
    "diag": _builder([(4, 4)], lambda ps: ag.diag(ps[0]), (4,)),
    "conv2d": _builder([(2, 4, 4), (2, 2, 3, 3), (3,)],
                       lambda ps: vspm.refine_from_patches(
                           ps[0], np.arange(48.0).reshape(4, 12) / 48 - 0.5,
                           vspm.VspmParams(ps[1], ps[2], None, None)),
                       (2, 4, 3)),
    "cosine": _builder([(6,), (6,)], lambda ps: cosine(ps[0], ps[1])),
    "cosine_rows": _builder([(2, 3, 5), (2, 4, 5)], lambda ps: ag.cosine_rows(ps[0], ps[1]),
                            (2, 3, 4)),
    "smoothed_softmax": _builder([(3, 5)], lambda ps: ag.smoothed_softmax(ps[0], 2.5), (3, 5)),
    "l2_normalize": _builder([(3, 6)], lambda ps: ag.l2_normalize(ps[0]), (3, 6)),
    "sort_pool": _builder(None, lambda ps: ag.sort_pool(ps[0], ps[1]), (2, 3),
                          param_fn=lambda rng: [_rand(rng, (2, 5, 3)),
                                                Tensor(rng.uniform(0.1, 1.0, size=5), requires_grad=True)]),
    "sigmoid_of_cosine": _builder([(4,), (4,)], lambda ps: ag.sigmoid(cosine(ps[0], ps[1]) * 0.5)),
}


@pytest.mark.parametrize("name", sorted(PRIMITIVE_BUILDERS))
def test_primitive_backward_matches_finite_differences(name):
    for seed in range(100):
        rng = np.random.default_rng(seed * 1000 + 17)
        params, build = PRIMITIVE_BUILDERS[name](rng)
        fd_check(build, params, eps=1e-6, tol=1e-4)


def test_offdiag_max_backward():
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=4))
    fd_check(lambda ps: (ag.offdiag_max(ps[0], axis=1) * w).sum(), [x])
    x2 = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    fd_check(lambda ps: (ag.offdiag_max(ps[0], axis=0) * w).sum(), [x2])


def test_grad_accumulates_when_tensor_reused():
    x = Tensor([3.0], requires_grad=True)
    y = (x * x).sum()
    y.backward()
    np.testing.assert_allclose(x.grad, [6.0])


def test_backward_gives_each_leaf_its_own_gradient():
    """add hands the same array to both parents; the leaves must not share it."""
    a = Tensor(np.ones(3), requires_grad=True)
    b = Tensor(np.ones(3), requires_grad=True)
    mid = a + b
    mid.sum().backward()
    assert a.grad is not b.grad
    assert a.grad.flags["C_CONTIGUOUS"] and b.grad.flags["C_CONTIGUOUS"]
    a.grad += 5.0
    np.testing.assert_array_equal(b.grad, np.ones(3))
    assert mid.grad is None
    x = Tensor([1.5, -2.0], requires_grad=True)
    (x + x).sum().backward()
    np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    # the whole small-preset training loss: every parameter's gradient owns
    # its C-ordered data and overlaps no other gradient and no parameter
    params = model.init_params(SMALL_MODEL, SMALL_DIMS, seed=4)
    imgs = model.prepare_image(featureio.random_bundles(SMALL_DIMS, 3, 5), SMALL_DIMS,
                               SMALL_MODEL)
    words = featureio.random_texts(SMALL_DIMS, 3, 1, 6).word_feats
    sim = ag.linear(model.visual_forward(imgs, params, SMALL_MODEL),
                    model.text_forward(words, params))
    objective.triplet_loss(sim, 0.2).backward()
    named = params.named()
    grads = [t.grad for t in named.values()]
    assert all(g is not None for g in grads)
    for i, g in enumerate(grads):
        assert g.flags["C_CONTIGUOUS"] and g.flags["OWNDATA"]
        assert not any(np.shares_memory(g, t.data) for t in named.values())
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])


def test_backward_accumulates_across_calls():
    x = Tensor([2.0], requires_grad=True)
    (x * 3.0).sum().backward()
    (x * 4.0).sum().backward()
    np.testing.assert_allclose(x.grad, [7.0])


def test_no_grad_blocks_graph():
    x = Tensor([1.0], requires_grad=True)
    with ag.no_grad():
        y = (x * 2.0).sum()
    assert y._vjp is None and not y.requires_grad


# Every one-parent op; none of their VJPs checks requires_grad itself.
ONE_PARENT_OPS = {
    "Tensor.sum": lambda x: x.sum(),
    "tanh": ag.tanh,
    "sigmoid": ag.sigmoid,
    "relu": ag.relu,
    "reshape": lambda x: ag.reshape(x, (9,)),
    "take_rows": lambda x: ag.take_rows(x, [2, 0, 2]),
    "diag": ag.diag,
    "offdiag_max": lambda x: ag.offdiag_max(x, axis=1),
    "smoothed_softmax": lambda x: ag.smoothed_softmax(x, 2.0),
    "l2_normalize": ag.l2_normalize,
}


@pytest.mark.parametrize("name", sorted(ONE_PARENT_OPS))
def test_one_parent_op_records_a_vjp_only_for_a_parent_needing_gradients(name):
    """``_make`` records a VJP only while gradients are on and the parent
    requires them, so a one-parent VJP never runs for a constant."""
    op = ONE_PARENT_OPS[name]
    data = np.random.default_rng(3).normal(size=(3, 3))
    x = Tensor(data, requires_grad=True)
    with ag.no_grad():
        recorded = [op(Tensor(data)), op(x)]
    recorded.append(op(Tensor(data)))
    for out in recorded:
        assert out._vjp is None and out._parents == () and not out.requires_grad
    live = op(x)
    assert live._vjp is not None and live._parents == (x,) and live.requires_grad
    assert live._vjp(np.ones(live.shape))[0].shape == x.shape


@pytest.mark.parametrize("name", ["add", "sub", "mul", "div"])
def test_binary_op_gives_none_to_an_operand_needing_no_gradient(name):
    """The elementwise node builder: each operand that requires gradients
    gets one summed down to its own (broadcast) shape, any other None."""
    rng = np.random.default_rng(4)
    for a_grad, b_grad in ((True, False), (False, True), (True, True)):
        a = Tensor(rng.uniform(1.0, 2.0, size=(2, 3)), requires_grad=a_grad)
        b = Tensor(rng.uniform(1.0, 2.0, size=(1, 3)), requires_grad=b_grad)
        ga, gb = getattr(ag, name)(a, b)._vjp(np.ones((2, 3)))
        assert (ga is None) == (not a_grad) and (gb is None) == (not b_grad)
        assert a_grad is False or ga.shape == (2, 3)
        assert b_grad is False or gb.shape == (1, 3)


def test_backward_requires_scalar():
    with pytest.raises(ShapeError):
        Tensor(np.ones(3), requires_grad=True).backward()


# ---------------------------------------------------------------------------
# grad_check itself


def test_grad_check_quadratic():
    x = Tensor([3.0], requires_grad=True)
    report = ag.grad_check(lambda: (x * x).sum(), {"x": x}, eps=1e-5, tol=1e-4)
    assert report.passed
    assert report.max_rel_err < 1e-6
    assert report.worst_param_path == "x[0]"


def test_grad_check_flags_wrong_gradient():
    x = Tensor([1.5], requires_grad=True)

    def loss():
        # deliberately corrupt the graph: constant copies of x give no analytic grad
        return (Tensor(x.data) * Tensor(x.data)).sum() + (x * 0.1).sum()

    report = ag.grad_check(loss, {"x": x}, eps=1e-5, tol=1e-4)
    assert not report.passed


def test_grad_check_rejects_bad_eps():
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ConfigError):
        ag.grad_check(lambda: (x * x).sum(), {"x": x}, eps=0.5)


def test_grad_check_rejects_nondeterministic_loss():
    x = Tensor([1.0], requires_grad=True)
    state = {"n": 0}

    def loss():
        state["n"] += 1
        return (x * float(state["n"])).sum()

    with pytest.raises(GradCheckError):
        ag.grad_check(loss, {"x": x})


def test_grad_check_sampling_is_deterministic():
    rng = np.random.default_rng(12)
    w = Tensor(rng.normal(size=(6, 6)), requires_grad=True)

    def loss():
        return (ag.tanh(w) * Tensor(np.ones((6, 6)))).sum()

    r1 = ag.grad_check(loss, {"w": w}, sample=10)
    r2 = ag.grad_check(loss, {"w": w}, sample=10)
    assert r1 == r2 and r1.passed


@pytest.mark.parametrize("kw", [{"sample": 0}, {"sample": -3},
                                {"tol": float("nan")}, {"tol": float("inf")},
                                {"tol": 0.0}, {"tol": -1.0}],
                         ids=["sample-0", "sample-neg", "tol-nan", "tol-inf",
                              "tol-0", "tol-neg"])
def test_grad_check_rejects_bad_sample_and_tol(kw):
    x = Tensor([1.0], requires_grad=True)
    with pytest.raises(ConfigError):
        ag.grad_check(lambda: (x * x).sum(), {"x": x}, **kw)


def test_grad_check_fd_loss_replaces_only_the_differences():
    # fd_loss drives the central differences; the analytic side and the
    # sampled coordinates stay those of loss_fn.
    rng = np.random.default_rng(5)
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)

    def loss():
        return (ag.tanh(a) * Tensor(np.ones((4, 3)))).sum() + (b * b).sum()

    calls = []

    def fd_loss(name):
        calls.append(name)
        return loss

    plain = ag.grad_check(loss, {"a": a, "b": b}, sample=3)
    split = ag.grad_check(loss, {"a": a, "b": b}, sample=3, fd_loss=fd_loss)
    assert split == plain and plain.passed
    assert calls == ["a", "b"]
    # a difference loss that ignores b gives b a zero numeric gradient
    held = (b * b).sum().data

    def fd_wrong(name):
        return lambda: (ag.tanh(a) * Tensor(np.ones((4, 3)))).sum() + Tensor(held)

    assert not ag.grad_check(loss, {"a": a, "b": b}, fd_loss=fd_wrong).passed
