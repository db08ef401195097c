"""Numerics tests: naive oracles, gradient checks, algebraic properties."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sshnet import autograd as ag
from sshnet import vspm
from sshnet.autograd import Tensor
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


def conv_patches_oracle(x, kh, kw, stride):
    """Window-by-window im2col: row i * wo + j is window (i, j) raveled."""
    h, w, c = x.shape
    ho, wo = (h - kh) // stride + 1, (w - kw) // stride + 1
    patches = np.empty((ho * wo, kh * kw * c))
    for i in range(ho):
        for j in range(wo):
            patches[i * wo + j] = x[i * stride:i * stride + kh,
                                    j * stride:j * stride + kw, :].ravel()
    return patches, (ho, wo)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_conv_patches_bitwise_equals_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 9, size=2)
    kh, kw = int(rng.integers(1, h + 1)), int(rng.integers(1, w + 1))
    stride = int(rng.integers(1, 4))
    x = rng.normal(size=(h, w, int(rng.integers(1, 4))))
    got, hw = ag.conv_patches(x, kh, kw, stride)
    want, want_hw = conv_patches_oracle(x, kh, kw, stride)
    assert hw == want_hw
    assert got.flags["C_CONTIGUOUS"] and got.dtype == np.float64
    assert np.array_equal(got, want)


def refine_via_patches(x, k, stride, bias=None):
    """The model's convolution: one matmul over the im2col patches."""
    kh, kw, cin, cout = k.shape
    p = vspm.VspmParams(conv_kernel=Tensor(k),
                        conv_bias=Tensor(np.zeros(cout) if bias is None else bias),
                        query_proj=None, combine_proj=None)
    patches, hw = ag.conv_patches(x, kh, kw, stride)
    return vspm.refine_from_patches(Tensor(patches[None]), p, hw).data[0]


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
    "tanh": _builder([(5,)], lambda ps: ag.tanh(ps[0]), (5,)),
    "sigmoid": _builder([(5,)], lambda ps: ag.sigmoid(ps[0]), (5,)),
    "relu": _builder(None, lambda ps: ag.relu(ps[0]), (7,),
                     param_fn=lambda rng: [Tensor(np.where(rng.normal(size=7) > 0, 1.0, -1.0)
                                                  + 0.2 * rng.normal(size=7), requires_grad=True)]),
    "reshape": _builder([(2, 6)], lambda ps: ag.reshape(ps[0], (3, 4)), (3, 4)),
    "linear": _builder([(3, 4), (2, 4)], lambda ps: ag.linear(ps[0], ps[1]), (3, 2)),
    "linear_batched": _builder([(2, 3, 4), (2, 4)], lambda ps: ag.linear(ps[0], ps[1]), (2, 3, 2)),
    "concat": _builder([(2, 3), (4, 3)], lambda ps: ag.concat(ps, axis=0), (6, 3)),
    "take_rows": _builder([(5, 3)], lambda ps: ag.take_rows(ps[0], [4, 0, 4, 2]), (4, 3)),
    "diag": _builder([(4, 4)], lambda ps: ag.diag(ps[0]), (4,)),
    "conv2d": _builder([(2, 4, 8), (2, 2, 2, 3), (3,)],
                       lambda ps: vspm.refine_from_patches(
                           ps[0], vspm.VspmParams(ps[1], ps[2], None, None), (2, 2)),
                       (2, 2, 2, 3)),
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
        # deliberately corrupt the graph: detach inside so analytic grad is 0
        return (x.detach() * x.detach()).sum() + (x * 0.1).sum()

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

    r1 = ag.grad_check(loss, {"w": w}, sample=10, sample_seed=3)
    r2 = ag.grad_check(loss, {"w": w}, sample=10, sample_seed=3)
    assert r1 == r2 and r1.passed
