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

    def test_batched_operand_rejected(self):
        # every caller multiplies stacked rows by a 2D matrix
        with pytest.raises(TensorError):
            T.matmul(t64(np.ones((2, 3, 4))), t64(np.ones((2, 4, 5))))


def softmax(values):
    # the softmax kernel inside causal_attention
    return T._softmax(np.asarray(values, dtype=F64))


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax([0.0, 0.0]), [0.5, 0.5], atol=0)

    def test_closed_form(self):
        # softmax([ln 1, ln 3]) = (1, 3) / 4
        assert np.allclose(softmax([math.log(1.0), math.log(3.0)]), [0.25, 0.75], atol=1e-12)

    def test_stability_under_shift(self):
        out = softmax([1000.0, 0.0])
        assert np.allclose(out, [1.0, 0.0], atol=1e-12)
        assert np.isfinite(out).all()
        # the log-softmax under masked_nll is stable too: -log p(target) = 1000
        nll = T.masked_nll(t64([[1000.0, 0.0]]), np.array([1]), np.ones(1))
        assert abs(nll.item() - 1000.0) < 1e-9

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        assert np.allclose(softmax(rng.normal(size=(7, 11))).sum(axis=-1), 1.0, atol=1e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 9))
        assert np.allclose(softmax(x), softmax(x + 13.25), atol=1e-6)


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

    @pytest.mark.parametrize("shape", [(), (1, 1, 7), (32, 48, 384)])
    def test_untaped_output_bytes_match_taped(self, shape):
        # without a tape, t + 1 is built in t itself; the output bytes hold
        _, _, [x] = _kernel_case("gelu", shape, np.random.default_rng(5))
        with T.no_grad():
            plain = T.gelu(Tensor(x)).data.tobytes()
        with GradTape():
            taped = T.gelu(Tensor(x, requires_grad=True))
        assert taped.requires_grad
        assert T.gelu(Tensor(x)).data.tobytes() == plain == taped.data.tobytes()


class TestValueAndGrad:
    def test_sum_gives_ones(self):
        p = t64(np.arange(6, dtype=float).reshape(2, 3))
        val, grads = value_and_grad(lambda ps: ps[0].sum(), [p])
        assert val == 15.0
        assert np.array_equal(grads[0].data, np.ones((2, 3)))

    def test_quadratic_gives_2p(self):
        p = t64([[1.0, -2.0, 3.0]])
        _, grads = value_and_grad(lambda ps: T.matmul(ps[0], ps[0].transpose((1, 0))).sum(), [p])
        assert np.allclose(grads[0].data, 2.0 * p.data, atol=1e-12)

    def test_untouched_param_gets_zeros(self):
        p = t64([1.0])
        q = t64([2.0, 3.0])
        _, grads = value_and_grad(lambda ps: ps[0].sum(), [p, q])
        assert np.array_equal(grads[1].data, np.zeros(2))

    def test_nonscalar_rejected(self):
        p = t64([1.0, 2.0])
        with pytest.raises(TensorError):
            value_and_grad(lambda ps: ps[0] + 2.0, [p])


class TestGradCheck:
    def test_linear_is_exact(self):
        p = t64(np.linspace(-1, 1, 5))
        err = grad_check(lambda ps: (ps[0] + ps[0] + ps[0]).sum(), [p])
        assert err < 1e-10

    def test_softmax_cross_entropy(self):
        rng = np.random.default_rng(7)
        logits = Tensor(rng.normal(size=(4, 9)), dtype=F64)
        targets = rng.integers(0, 9, size=4)
        assert grad_check(lambda ps: T.masked_nll(ps[0], targets, np.ones(4)), [logits]) < 1e-6

    def test_gather_mean(self):
        rng = np.random.default_rng(8)
        x = Tensor(rng.normal(size=(4, 9)), dtype=F64)
        targets = rng.integers(0, 9, size=4)
        val, grads = value_and_grad(lambda ps: T.reduce_mean(T.gather_last(ps[0], targets)), [x])
        assert val == pytest.approx(x.data[np.arange(4), targets].mean(), abs=1e-12)
        expected = np.zeros((4, 9))
        expected[np.arange(4), targets] = 0.25
        assert np.array_equal(grads[0].data, expected)
        assert grad_check(lambda ps: T.reduce_mean(T.gather_last(ps[0], targets), axis=0), [x]) < 1e-9

    def test_requires_f64(self):
        p = Tensor([1.0, 2.0])  # f32
        with pytest.raises(TensorError):
            grad_check(lambda ps: ps[0].sum(), [p])


class TestTapeAndInvariants:
    def test_no_recording_without_tape(self):
        p = t64([1.0, 2.0])
        p.requires_grad = True
        out = (p + p).sum()
        assert out.grad is None and p.grad is None

    def test_non_trainable_gets_no_grad(self):
        p = t64([1.0, 2.0])
        c = t64([3.0, 4.0])
        p.requires_grad = True
        with GradTape() as tape:
            out = (p + c).sum()
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
        q, k, v = (Tensor(rng.normal(size=(2, 6, 6)).astype(np.float32)) for _ in range(3))
        a = T.causal_attention(q, k, v, 2).data
        b = T.causal_attention(q, k, v, 2).data
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


def _taped_softmax(x):
    # causal_attention's softmax kernels, on the tape by themselves
    y = T._softmax(x.data)
    return T._emit("softmax", (x,), y, lambda g: (T._softmax_backward(g, y),))


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
        return _taped_softmax, _ref_softmax, [_f32(rng, shape, 4.0)]
    return T.linear, _ref_linear, [_f32(rng, shape), _f32(rng, (n, 40), 0.1), _f32(rng, (40,))]


KERNEL_SHAPES = {
    # only GELU takes a 0-d input; the others act along a last axis
    "gelu": [(), (1, 1, 7), (32, 48, 384)],
    "layer_norm": [(1, 1, 7), (32, 48, 384)],
    "softmax": [(1, 1, 7), (32, 48, 384)],
    "linear": [(1, 1, 7), (32, 48, 384)],
}


def _weighted_sum(y, weights):
    # sum(y * weights) as one tape entry, whose gradient with respect to y is
    # the weights themselves, bit for bit
    return T._emit("weighted_sum", (y,), np.asarray((y.data * weights).sum()), lambda g: (g * weights,))


def _assert_bytes_match(fn, ref, arrays, rng):
    """Forward and backward of the tape op `fn` on f32 `arrays` equal those
    of its numpy reference byte for byte, and leave the inputs unchanged."""
    before = [a.tobytes() for a in arrays]
    inputs = [Tensor(a) for a in arrays]
    for t in inputs:
        t.requires_grad = True
    with GradTape() as tape:
        y = fn(*inputs)
        upstream = _f32(rng, y.shape)
        loss = _weighted_sum(y, upstream)
    tape.backward(loss)

    with np.errstate(all="ignore"):
        ref_y, ref_backward = ref(*arrays)
        ref_grads = ref_backward(upstream)
    assert y.data.tobytes() == np.asarray(ref_y, dtype=np.float32).tobytes()
    for t, g in zip(inputs, ref_grads):
        assert t.grad.dtype == np.float32
        assert t.grad.tobytes() == np.asarray(g, dtype=np.float32).tobytes()
    assert [t.data.tobytes() for t in inputs] == before


def _assert_grad_check(fn, arrays, rng):
    params = [Tensor(a.astype(np.float64) * 0.5, dtype=F64) for a in arrays]
    weights = rng.normal(size=fn(*params).shape)

    def f(ps):
        return _weighted_sum(fn(*ps), weights)

    assert grad_check(f, params) < 1e-6


class TestInPlaceKernels:
    @pytest.mark.parametrize("op,shape", [(op, s) for op, shapes in KERNEL_SHAPES.items() for s in shapes])
    def test_bytes_match_frozen_formula(self, op, shape):
        rng = np.random.default_rng(len(shape) + 17)
        fn, ref, arrays = _kernel_case(op, shape, rng)
        _assert_bytes_match(fn, ref, arrays, rng)

    @pytest.mark.parametrize("op", sorted(KERNEL_SHAPES))
    def test_grad_check_alone(self, op):
        rng = np.random.default_rng(23)
        fn, _, arrays = _kernel_case(op, (2, 3, 5), rng)
        _assert_grad_check(fn, arrays, rng)


# -- fused ops against the op chains they replaced --------------------------------------
#
# Each reference below is the chain of tape ops that a fused op replaced,
# written out in numpy: every old op's forward, then every old op's backward
# in reverse tape order, gradients of constants left out.  The fused op must
# give the same bytes, which is what keeps the pinned pipeline hashes.


def _ref_log_softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _ref_attention(q, k, v, n_heads):
    # reshape, transpose, matmul, scale mul, mask add, softmax, matmul,
    # transpose, reshape
    b, s, inner = q.shape
    hd = inner // n_heads

    def split(x):
        return np.ascontiguousarray(x.reshape(b, s, n_heads, hd).transpose(0, 2, 1, 3))

    def merge(x):
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, s, inner)

    qh, kh, vh = split(q), split(k), split(v)
    kt = np.ascontiguousarray(kh.transpose(0, 1, 3, 2))
    scale = np.asarray(1.0 / math.sqrt(hd), dtype=q.dtype)
    mask = np.zeros((s, s), dtype=q.dtype)
    mask[np.triu_indices(s, k=1)] = -1e9
    att, softmax_backward = _ref_softmax(np.matmul(qh, kt) * scale + mask)

    def backward(g):
        gh = split(g)
        dv = np.matmul(np.swapaxes(att, -1, -2), gh)
        (dscores,) = softmax_backward(np.matmul(gh, np.swapaxes(vh, -1, -2)))
        dscores = dscores * scale
        dq = np.matmul(dscores, np.swapaxes(kt, -1, -2))
        dk = np.ascontiguousarray(np.matmul(np.swapaxes(qh, -1, -2), dscores).transpose(0, 1, 3, 2))
        return merge(dq), merge(dk), merge(dv)

    return merge(np.matmul(att, vh)), backward


def _ref_nll(logits, targets, mask):
    # log_softmax, gather, negate, mask mul, sum, 1/count mul
    logp = _ref_log_softmax(logits)
    nll = -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    inv = np.asarray(1.0 / float(mask.sum()), dtype=logits.dtype)

    def backward(g):
        gnll = (np.broadcast_to(g * inv, mask.shape) * mask) * np.asarray(-1.0, dtype=logits.dtype)
        glogp = np.zeros_like(logp)
        np.put_along_axis(glogp, targets[..., None], gnll[..., None], axis=-1)
        return (glogp - np.exp(logp) * glogp.sum(axis=-1, keepdims=True),)

    return (nll * mask).sum() * inv, backward


def _ref_kl(student, teacher_logp, mask, reverse, temperature):
    # 1/temperature mul, log_softmax, exp, sub, mul, sum over the vocabulary,
    # mask mul, sum, 1/count mul
    scale = np.asarray(1.0 / temperature, dtype=student.dtype)
    s_log = _ref_log_softmax(student * scale)
    if reverse:
        e = np.exp(s_log)
        d = s_log - teacher_logp
    else:
        e = np.exp(teacher_logp)
        d = teacher_logp - s_log
    inv = np.asarray(1.0 / float(mask.sum()), dtype=student.dtype)

    def backward(g):
        gpos = np.broadcast_to(g * inv, mask.shape) * mask
        gsum = np.broadcast_to(gpos[..., None], student.shape).astype(student.dtype)
        # reverse: the sub's gradient, then the exp's added to it
        gs = gsum * e + (gsum * d) * e if reverse else -(gsum * e)
        return ((gs - np.exp(s_log) * gs.sum(axis=-1, keepdims=True)) * scale,)

    return ((e * d).sum(axis=-1) * mask).sum() * inv, backward


def _partial_mask(rng, rows):
    mask = (rng.random(rows) < 0.6).astype(np.float32)
    mask.reshape(-1)[0] = 1.0
    return mask


def _fused_case(op, shape, rng, dtype=np.float32):
    """(tape op, reference, input arrays) for one fused op: attention on
    [batch, seq, heads * head_dim] projections, the losses on [batch, seq,
    vocab] logits with a partial mask."""
    if op == "causal_attention":
        n_heads = ATTENTION_HEADS[shape[-1]]
        arrays = [_f32(rng, shape, 1.0 + i).astype(dtype) for i in range(3)]
        return ((lambda q, k, v: T.causal_attention(q, k, v, n_heads)),
                (lambda q, k, v: _ref_attention(q, k, v, n_heads)), arrays)
    mask = _partial_mask(rng, shape[:-1]).astype(dtype)
    logits = _f32(rng, shape, 3.0).astype(dtype)
    if op == "masked_nll":
        targets = rng.integers(0, shape[-1], size=shape[:-1])
        return ((lambda x: T.masked_nll(x, targets, mask)), (lambda x: _ref_nll(x, targets, mask)), [logits])
    reverse = op.startswith("masked_kl_reverse")
    temperature = 3.0 if op.endswith("_t3") else 1.0
    teacher_logp = _ref_log_softmax(_f32(rng, shape, 3.0).astype(dtype))
    return ((lambda x: T.masked_kl(x, teacher_logp, mask, reverse, temperature)),
            (lambda x: _ref_kl(x, teacher_logp, mask, reverse, temperature)), [logits])


ATTENTION_HEADS = {2: 1, 4: 2, 64: 4}  # inner width -> heads
FUSED_SHAPES = {
    "causal_attention": [(1, 1, 2), (2, 3, 4), (32, 48, 64)],
    "masked_nll": [(1, 1, 7), (32, 48, 100)],
    "masked_kl_reverse": [(1, 1, 7), (32, 48, 100)],
    "masked_kl_forward": [(1, 1, 7), (32, 48, 100)],
    # the KD temperature, folded into the op: 1/3 rounds, so the order of
    # the scaling shows in the bytes
    "masked_kl_reverse_t3": [(1, 1, 7), (32, 48, 100)],
    "masked_kl_forward_t3": [(1, 1, 7), (32, 48, 100)],
}


class TestFusedOps:
    @pytest.mark.parametrize("op,shape", [(op, s) for op, shapes in FUSED_SHAPES.items() for s in shapes])
    def test_bytes_match_frozen_chain(self, op, shape):
        rng = np.random.default_rng(sum(shape) + 31)
        fn, ref, arrays = _fused_case(op, shape, rng)
        _assert_bytes_match(fn, ref, arrays, rng)

    @pytest.mark.parametrize("op", sorted(FUSED_SHAPES))
    def test_grad_check_alone(self, op):
        # attention: batch 2, 2 heads; losses: a partial mask
        rng = np.random.default_rng(29)
        fn, _, arrays = _fused_case(op, (2, 3, 4) if op == "causal_attention" else (2, 3, 5), rng, np.float64)
        _assert_grad_check(fn, arrays, rng)

    def test_attention_is_causal(self):
        # changing the last position's key and value leaves every earlier output alone
        rng = np.random.default_rng(37)
        q, k, v = (rng.normal(size=(2, 5, 8)) for _ in range(3))
        k2, v2 = k.copy(), v.copy()
        k2[:, -1] += 3.0
        v2[:, -1] -= 2.0
        a = T.causal_attention(t64(q), t64(k), t64(v), 2).data
        b = T.causal_attention(t64(q), t64(k2), t64(v2), 2).data
        assert np.array_equal(a[:, :-1], b[:, :-1])
        assert not np.allclose(a[:, -1], b[:, -1])

    def test_one_tape_entry_each(self):
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(2, 3, 8)).astype(np.float32), requires_grad=True)
        mask = np.ones((2, 3))
        with GradTape() as tape:
            T.causal_attention(x, x, x, 2)
            T.masked_nll(x, np.zeros((2, 3), dtype=int), mask)
            T.masked_kl(x, T._log_softmax(x.data), mask, reverse=True)
        assert [op for op, *_ in tape._entries] == ["causal_attention", "masked_nll", "masked_kl"]

    def test_shape_errors(self):
        x = t64(np.zeros((1, 2, 4)))
        with pytest.raises(TensorError):
            T.causal_attention(x, x, x, 3)  # 4 is not a multiple of 3 heads
        with pytest.raises(TensorError):
            T.masked_nll(x, np.zeros((1, 2), dtype=int), np.zeros((1, 2)))  # empty mask
        with pytest.raises(TensorError):
            T.masked_nll(x, np.full((1, 2), 4), np.ones((1, 2)))  # target out of range
        with pytest.raises(TensorError):
            T.masked_kl(x, np.zeros((1, 2, 4), dtype=np.float32), np.ones((1, 2)), reverse=True)  # dtype
