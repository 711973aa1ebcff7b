import math

import numpy as np
import pytest

from chainkd import tensor as T
from chainkd.tensor import (
    F64,
    GradTape,
    NonFiniteError,
    Tensor,
    TensorError,
    grad_check,
    value_and_grad,
)


def t64(values):
    return Tensor(values, dtype=F64)


class TestMatmul:
    def test_identity(self):
        a = t64([[1.0, 0.0], [0.0, 1.0]])
        b = t64([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(T.matmul(a, b).data, b.data)

    def test_by_hand(self):
        # [[1,2]] x [[3],[4]] = [[1*3 + 2*4]] = [[11]]
        out = T.matmul(t64([[1.0, 2.0]]), t64([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_zero_annihilates(self):
        z = t64(np.zeros((3, 4)))
        b = t64(np.arange(20, dtype=float).reshape(4, 5))
        assert np.all(T.matmul(z, b).data == 0.0)

    def test_shape_mismatch(self):
        with pytest.raises(TensorError):
            T.matmul(t64(np.ones((2, 3))), t64(np.ones((2, 3))))

    def test_batched_backward_matches_fd(self):
        rng = np.random.default_rng(0)
        a = Tensor(rng.normal(size=(2, 3, 4)), dtype=F64)
        w = Tensor(rng.normal(size=(4, 5)), dtype=F64)

        def f(params):
            return T.matmul(params[0], params[1]).sum()

        assert grad_check(f, [a, w], samples_per_param=10) < 1e-9


class TestSoftmax:
    def test_symmetry(self):
        out = T.softmax(t64([0.0, 0.0]))
        assert np.allclose(out.data, [0.5, 0.5], atol=0)

    def test_closed_form(self):
        # softmax([ln 1, ln 3]) = (1, 3) / 4
        out = T.softmax(t64([math.log(1.0), math.log(3.0)]))
        assert np.allclose(out.data, [0.25, 0.75], atol=1e-12)

    def test_stability_under_shift(self):
        out = T.softmax(t64([1000.0, 0.0]))
        assert np.allclose(out.data, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(out.data).all()

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        out = T.softmax(Tensor(rng.normal(size=(7, 11)), dtype=F64))
        assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 9))
        a = T.softmax(t64(x)).data
        b = T.softmax(t64(x + 13.25)).data
        assert np.allclose(a, b, atol=1e-6)


class TestLayerNorm:
    def test_constant_row_zeroed_by_eps(self):
        x = t64([[5.0, 5.0, 5.0]])
        out = T.layer_norm(x, t64([1.0, 1.0, 1.0]), t64([0.0, 0.0, 0.0]), eps=1e-5)
        assert np.allclose(out.data, 0.0)

    def test_closed_form(self):
        # mean 2, var 1 -> ([1,3]-2)/1 = [-1, 1]
        out = T.layer_norm(t64([1.0, 3.0]), t64([1.0, 1.0]), t64([0.0, 0.0]), eps=0.0)
        assert np.allclose(out.data, [-1.0, 1.0], atol=1e-12)

    def test_beta_shift_identity(self):
        rng = np.random.default_rng(3)
        x = t64(rng.normal(size=(5, 8)))
        g = t64(rng.normal(size=8))
        beta = rng.normal(size=8)
        base = T.layer_norm(x, g, t64(np.zeros(8)), eps=1e-5).data
        shifted = T.layer_norm(x, g, t64(beta), eps=1e-5).data
        assert np.allclose(shifted, base + beta, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(TensorError):
            T.layer_norm(t64(np.ones((2, 4))), t64(np.ones(3)), t64(np.zeros(3)))


class TestGelu:
    def test_zero(self):
        assert T.gelu(t64(0.0)).item() == 0.0

    def test_asymptote(self):
        assert abs(T.gelu(t64(10.0)).item() - 10.0) < 1e-6

    def test_tanh_formula_at_one(self):
        u = math.sqrt(2.0 / math.pi) * (1.0 + 0.044715)
        expected = 0.5 * (1.0 + math.tanh(u))
        got = T.gelu(t64(1.0)).item()
        assert abs(got - expected) < 1e-12
        assert abs(got - 0.8412) < 5e-5


class TestValueAndGrad:
    def test_sum_gives_ones(self):
        p = t64(np.arange(6, dtype=float).reshape(2, 3))
        val, grads = value_and_grad(lambda ps: ps[0].sum(), [p])
        assert val == 15.0
        assert np.array_equal(grads[0].data, np.ones((2, 3)))

    def test_quadratic_gives_2p(self):
        p = t64([1.0, -2.0, 3.0])
        _, grads = value_and_grad(lambda ps: (ps[0] * ps[0]).sum(), [p])
        assert np.allclose(grads[0].data, 2.0 * p.data, atol=1e-12)

    def test_untouched_param_gets_zeros(self):
        p = t64([1.0])
        q = t64([2.0, 3.0])
        _, grads = value_and_grad(lambda ps: ps[0].sum(), [p, q])
        assert np.array_equal(grads[1].data, np.zeros(2))

    def test_nonscalar_rejected(self):
        p = t64([1.0, 2.0])
        with pytest.raises(TensorError):
            value_and_grad(lambda ps: ps[0] * 2.0, [p])


class TestGradCheck:
    def test_linear_is_exact(self):
        p = t64(np.linspace(-1, 1, 5))
        err = grad_check(lambda ps: (ps[0] * 3.0).sum(), [p])
        assert err < 1e-10

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(4, 9)), dtype=F64)
        targets = rng.integers(0, 9, size=4)

        def f(ps):
            logp = T.log_softmax(ps[0])
            return -T.gather_last(logp, targets).mean()

        assert grad_check(f, [logits]) < 1e-6

    def test_requires_f64(self):
        p = Tensor([1.0, 2.0])  # f32
        with pytest.raises(TensorError):
            grad_check(lambda ps: ps[0].sum(), [p])


class TestTapeAndInvariants:
    def test_no_recording_without_tape(self):
        p = t64([1.0, 2.0])
        p.requires_grad = True
        out = (p * p).sum()
        assert out.grad is None and p.grad is None

    def test_non_trainable_gets_no_grad(self):
        p = t64([1.0, 2.0])
        c = t64([3.0, 4.0])
        p.requires_grad = True
        with GradTape() as tape:
            out = (p * c).sum()
        tape.backward(out)
        assert p.grad is not None
        assert c.grad is None

    def test_nonfinite_fails_fast_with_op_name(self):
        big = Tensor(np.full(4, 3e38), dtype=np.float32)
        with pytest.raises(NonFiniteError) as e:
            T.add(big, big)
        assert e.value.op == "add"

    def test_nan_construction_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor([float("nan")])

    def test_immutable_payload(self):
        p = t64([1.0, 2.0])
        with pytest.raises(ValueError):
            p.data[0] = 9.0

    def test_deterministic_ops(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=(6, 6)).astype(np.float32)
        a = T.softmax(Tensor(x)).data
        b = T.softmax(Tensor(x)).data
        assert a.tobytes() == b.tobytes()

    def test_layer_norm_and_gelu_grads(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(3, 6)), dtype=F64)
        g = Tensor(rng.normal(size=6), dtype=F64)
        b = Tensor(rng.normal(size=6), dtype=F64)

        def f(ps):
            return T.gelu(T.layer_norm(ps[0], ps[1], ps[2], eps=1e-5)).sum()

        assert grad_check(f, [x, g, b]) < 1e-5

    def test_embedding_grad_scatter(self):
        table = t64(np.arange(12, dtype=float).reshape(4, 3))
        ids = np.array([1, 1, 3])
        _, grads = value_and_grad(lambda ps: T.embedding(ps[0], ids).sum(), [table])
        expected = np.zeros((4, 3))
        expected[1] = 2.0
        expected[3] = 1.0
        assert np.array_equal(grads[0].data, expected)


# -- in-place kernels against their frozen out-of-place formulas ----------------------
#
# Each reference below is the op's formula as written before its kernel moved
# to out= buffers and in-place ufuncs.  The rewrite must apply the same float
# operations to the same operands in the same order, so forward and backward
# outputs must match byte for byte on f32 inputs.


def _ref_gelu(x):
    c = np.asarray(math.sqrt(2.0 / math.pi), dtype=x.dtype)
    k = np.asarray(0.044715, dtype=x.dtype)
    sq = x * x
    u = c * (x + k * (sq * x))
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)

    def backward(g):
        du = c * (1.0 + 3.0 * k * sq)
        dy = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        return (g * dy,)

    return y, backward


def _ref_layer_norm(x, gamma, beta, eps=1e-5):
    mu = x.mean(axis=-1, keepdims=True, dtype=x.dtype)
    xc = x - mu
    var = np.mean(xc * xc, axis=-1, keepdims=True, dtype=x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xh = xc * inv
    y = gamma * xh + beta

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        dgamma = (g * xh).sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxh = g * gamma
        dx = inv * (dxh - dxh.mean(axis=-1, keepdims=True) - xh * (dxh * xh).mean(axis=-1, keepdims=True))
        return dx, dgamma, dbeta

    return y, backward


def _ref_softmax(x):
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    y = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        return (y * (g - (g * y).sum(axis=-1, keepdims=True)),)

    return y, backward


def _ref_linear(x, w, b):
    lead = x.shape[:-1]
    x2 = x.reshape(-1, x.shape[-1])
    out = (x2 @ w + b).reshape(lead + (w.shape[-1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return out, backward


def _f32(rng, shape, scale=1.0):
    return (scale * rng.normal(size=shape)).astype(np.float32)


def _kernel_case(op, shape, rng):
    """(tape op, reference, input arrays) with the last axis of `shape` as the
    op's feature axis."""
    n = shape[-1] if shape else 1
    if op == "gelu":
        x = _f32(rng, shape, 3.0)
        if x.ndim:
            x.reshape(-1)[:4] = [0.0, 12.0, -12.0, 1e4][: x.size]
        return T.gelu, _ref_gelu, [x]
    if op == "layer_norm":
        return T.layer_norm, _ref_layer_norm, [_f32(rng, shape, 2.0), _f32(rng, (n,)), _f32(rng, (n,))]
    if op == "softmax":
        return T.softmax, _ref_softmax, [_f32(rng, shape, 4.0)]
    return T.linear, _ref_linear, [_f32(rng, shape), _f32(rng, (n, 40), 0.1), _f32(rng, (40,))]


KERNEL_SHAPES = {
    # only GELU takes a 0-d input; the others act along a last axis
    "gelu": [(), (1, 1, 7), (32, 48, 384)],
    "layer_norm": [(1, 1, 7), (32, 48, 384)],
    "softmax": [(1, 1, 7), (32, 48, 384)],
    "linear": [(1, 1, 7), (32, 48, 384)],
}


class TestInPlaceKernels:
    @pytest.mark.parametrize("op,shape", [(op, s) for op, shapes in KERNEL_SHAPES.items() for s in shapes])
    def test_bytes_match_frozen_formula(self, op, shape):
        rng = np.random.default_rng(len(shape) + 17)
        fn, ref, arrays = _kernel_case(op, shape, rng)
        before = [a.tobytes() for a in arrays]
        inputs = [Tensor(a) for a in arrays]
        for t in inputs:
            t.requires_grad = True
        with GradTape() as tape:
            y = fn(*inputs)
            upstream = Tensor(_f32(rng, y.shape))
            # d(sum(y * upstream))/dy is upstream itself, bit for bit
            loss = (y * upstream).sum()
        tape.backward(loss)

        with np.errstate(all="ignore"):
            ref_y, ref_backward = ref(*arrays)
            ref_grads = ref_backward(upstream.data)
        assert y.data.tobytes() == np.asarray(ref_y, dtype=np.float32).tobytes()
        for t, g in zip(inputs, ref_grads):
            assert t.grad.dtype == np.float32
            assert t.grad.tobytes() == np.asarray(g, dtype=np.float32).tobytes()
        assert [t.data.tobytes() for t in inputs] == before

    @pytest.mark.parametrize("op", sorted(KERNEL_SHAPES))
    def test_grad_check_alone(self, op):
        rng = np.random.default_rng(23)
        fn, _, arrays = _kernel_case(op, (2, 3, 5), rng)
        params = [Tensor(a.astype(np.float64) * 0.5, dtype=F64) for a in arrays]
        weights = Tensor(rng.normal(size=fn(*params).shape), dtype=F64)

        def f(ps):
            return (fn(*ps) * weights).sum()

        assert grad_check(f, params) < 1e-6
