"""Dense row-major tensors with reverse-mode differentiation on an explicit tape.

Values are immutable once constructed; every operation checks its output for
NaN/Inf and fails fast naming the producing operation. Gradients are recorded
only while a GradTape is active, so inference-time code pays no bookkeeping.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Sequence

import numpy as np

F32 = np.float32
F64 = np.float64

_GELU_C = math.sqrt(2.0 / math.pi)


class TensorError(ValueError):
    """Malformed shape, dtype, or argument."""


class NonFiniteError(ArithmeticError):
    """An operation produced NaN or Inf.  Carries the operation name and,
    when known, what it produced them in (e.g. "the update of L0.ffn.w1")."""

    def __init__(self, op: str, where: str | None = None):
        detail = f" in {where}" if where else ""
        super().__init__(f"operation '{op}' produced non-finite values{detail}")
        self.op = op
        self.where = where

    def __reduce__(self):
        return type(self), (self.op, self.where)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, values, dtype=F32, requires_grad: bool = False):
        arr = np.array(values, dtype=dtype, order="C")
        if arr.dtype.type not in (F32, F64):
            raise TensorError(f"unsupported dtype {arr.dtype}")
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor")
        arr.setflags(write=False)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None

    # -- views on the payload -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def astype(self, dtype) -> "Tensor":
        return Tensor(self.data.astype(dtype), dtype=dtype, requires_grad=self.requires_grad)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}, dtype={self.data.dtype}{flag})"

    # -- operator sugar --------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def sum(self, axis=None, keepdims: bool = False):
        return reduce_sum(self, axis=axis, keepdims=keepdims)

    def transpose(self, axes):
        return transpose(self, axes)


# -- tape -----------------------------------------------------------------------

_ACTIVE: "GradTape | None" = None


class GradTape:
    """Execution-ordered record of ops; execution order is a valid topological
    order, so the reverse sweep just walks the entries backwards."""

    def __init__(self):
        self._entries: list[tuple[str, tuple[Tensor, ...], Tensor, Callable]] = []
        self._prev: GradTape | None = None

    def __enter__(self) -> "GradTape":
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = self
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev
        return False

    def record(self, op: str, inputs: tuple[Tensor, ...], out: Tensor, backward: Callable):
        self._entries.append((op, inputs, out, backward))

    def backward(self, root: Tensor) -> None:
        """Accumulate gradients of `root` into .grad of every trainable input."""
        if root.shape != ():
            raise TensorError("backward root must be a scalar")
        for _, inputs, out, _ in self._entries:
            out.grad = None
            for t in inputs:
                t.grad = None
        root.grad = np.ones((), dtype=root.dtype)
        # gradients are not checked per op (the training step checks them
        # where they are used), so silence numpy's warnings here too
        with np.errstate(all="ignore"):
            for op, inputs, out, backward in reversed(self._entries):
                if out.grad is None:
                    continue
                grads = backward(out.grad)
                for t, g in zip(inputs, grads):
                    if g is None or not t.requires_grad:
                        continue
                    t.grad = g if t.grad is None else t.grad + g


class no_grad:
    """Temporarily disable tape recording (teacher forwards, sampling, eval)."""

    def __enter__(self):
        global _ACTIVE
        self._prev = _ACTIVE
        _ACTIVE = None
        return self

    def __exit__(self, *exc):
        global _ACTIVE
        _ACTIVE = self._prev
        return False


def _wrap(arr: np.ndarray, requires_grad: bool) -> Tensor:
    out = object.__new__(Tensor)
    arr.setflags(write=False)
    out.data = arr
    out.requires_grad = requires_grad
    out.grad = None
    return out


def from_owned(arr: np.ndarray, requires_grad: bool = False) -> Tensor:
    """Wrap a freshly-computed array without copying; the caller gives up
    ownership.  Finiteness is still enforced."""
    if arr.dtype.type not in (F32, F64):
        raise TensorError(f"unsupported dtype {arr.dtype}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError("tensor")
    return _wrap(_own(arr), requires_grad)


def _own(arr) -> np.ndarray:
    arr = np.asarray(arr)
    if arr.ndim and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


def _emit(op: str, inputs: tuple[Tensor, ...], out_data: np.ndarray, backward: Callable) -> Tensor:
    if not np.all(np.isfinite(out_data)):
        raise NonFiniteError(op)
    req = _ACTIVE is not None and any(t.requires_grad for t in inputs)
    out = _wrap(_own(out_data), req)
    if req:
        _ACTIVE.record(op, inputs, out, backward)
    return out


def _quiet(fn):
    # NaN/Inf is detected and raised by _emit; silence numpy's own warnings.
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with np.errstate(all="ignore"):
            return fn(*args, **kwargs)

    return wrapper


def _coerce(x, like: Tensor) -> Tensor:
    if isinstance(x, Tensor):
        if x.dtype != like.dtype:
            raise TensorError(f"dtype mismatch: {x.dtype} vs {like.dtype}")
        return x
    return Tensor(np.asarray(x), dtype=like.dtype.type)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, (gs, ts) in enumerate(zip(g.shape, shape)):
        if ts == 1 and gs != 1:
            g = g.sum(axis=i, keepdims=True)
    return g


# -- elementwise / reduction ops --------------------------------------------------


@_quiet
def add(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a, b = b, a
    b = _coerce(b, a)

    def backward(g):
        return _unbroadcast(g, a.shape), _unbroadcast(g, b.shape)

    return _emit("add", (a, b), a.data + b.data, backward)


@_quiet
def mul(a, b) -> Tensor:
    if not isinstance(a, Tensor):
        a, b = b, a
    b = _coerce(b, a)

    def backward(g):
        return _unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)

    return _emit("mul", (a, b), a.data * b.data, backward)


@_quiet
def reduce_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    def backward(g):
        if axis is None:
            return (np.broadcast_to(g, x.shape).astype(x.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, x.shape).astype(x.dtype, copy=True),)

    return _emit("sum", (x,), x.data.sum(axis=axis, keepdims=keepdims), backward)


@_quiet
def reduce_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    if axis is None:
        count = x.size
    else:
        count = x.shape[axis]

    def backward(g):
        if axis is None:
            return (np.broadcast_to(g / count, x.shape).astype(x.dtype, copy=True),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, x.shape).astype(x.dtype, copy=True),)

    return _emit("mean", (x,), x.data.mean(axis=axis, keepdims=keepdims, dtype=x.dtype), backward)


# -- shape ops --------------------------------------------------------------------


@_quiet
def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    inv = [0] * len(axes)
    for i, ax in enumerate(axes):
        inv[ax] = i
    inv = tuple(inv)

    def backward(g):
        return (np.ascontiguousarray(g.transpose(inv)),)

    return _emit("transpose", (x,), np.ascontiguousarray(x.data.transpose(axes)), backward)


# -- linear algebra -----------------------------------------------------------------


@_quiet
def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Stacked rows @ a 2D matrix, as one flat GEMM."""
    if not isinstance(a, Tensor) or not isinstance(b, Tensor):
        raise TensorError("matmul expects two tensors")
    if a.dtype != b.dtype:
        raise TensorError(f"dtype mismatch: {a.dtype} vs {b.dtype}")
    if a.data.ndim < 2 or b.data.ndim != 2:
        raise TensorError("matmul takes a rank >= 2 operand @ a 2D matrix")
    if a.shape[-1] != b.shape[0]:
        raise TensorError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    a2 = a.data.reshape(-1, a.shape[-1])
    out = (a2 @ b.data).reshape(a.shape[:-1] + (b.shape[-1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ b.data.T).reshape(a.shape), a2.T @ g2

    return _emit("matmul", (a, b), out, backward)


@_quiet
def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b in one tape entry (x stacked rows, w 2D, b 1D)."""
    if x.dtype != w.dtype or x.dtype != b.dtype:
        raise TensorError("dtype mismatch in linear")
    if x.shape[-1] != w.shape[-2] or b.shape != (w.shape[-1],):
        raise TensorError(f"linear shapes disagree: {x.shape} @ {w.shape} + {b.shape}")
    lead = x.shape[:-1]
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ w.data
    out += b.data
    out = out.reshape(lead + (w.shape[-1],))

    def backward(g):
        g2 = g.reshape(-1, g.shape[-1])
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return _emit("linear", (x, w, b), out, backward)


@_quiet
def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row gather; backward scatter-adds into the table."""
    ids = np.asarray(ids)
    if not np.issubdtype(ids.dtype, np.integer):
        raise TensorError("embedding ids must be integers")
    if ids.size and (ids.min() < 0 or ids.max() >= table.shape[0]):
        raise TensorError(f"embedding id out of range [0, {table.shape[0]})")

    def backward(g):
        gt = np.zeros(table.shape, dtype=table.dtype)
        np.add.at(gt, ids, g)
        return (gt,)

    return _emit("embedding", (table,), table.data[ids], backward)


@_quiet
def gather_last(x: Tensor, idx: np.ndarray) -> Tensor:
    """Pick one entry per slice along the last axis (x[..., idx[...]])."""
    idx = np.asarray(idx)
    if idx.shape != x.shape[:-1]:
        raise TensorError(f"gather index shape {idx.shape} != {x.shape[:-1]}")
    if idx.size and (idx.min() < 0 or idx.max() >= x.shape[-1]):
        raise TensorError("gather index out of range")

    def backward(g):
        gx = np.zeros(x.shape, dtype=x.dtype)
        np.put_along_axis(gx, idx[..., None], g[..., None], axis=-1)
        return (gx,)

    return _emit("gather", (x,), np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0], backward)


# -- neural-net ops -----------------------------------------------------------------


@_quiet
def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero mean / unit variance along the last axis, then affine; eps sits
    inside the square root so constant rows stay finite."""
    n = x.shape[-1]
    if gamma.shape != (n,) or beta.shape != (n,):
        raise TensorError(f"layer_norm affine params must have shape ({n},)")
    mu = x.data.mean(axis=-1, keepdims=True, dtype=x.dtype)
    xh = np.subtract(x.data, mu, out=np.empty_like(x.data))
    sq = np.multiply(xh, xh, out=np.empty_like(xh))
    var = np.mean(sq, axis=-1, keepdims=True, dtype=x.dtype)
    inv = 1.0 / np.sqrt(var + np.asarray(eps, dtype=x.dtype))
    xh *= inv
    y = np.multiply(xh, gamma.data, out=sq)
    y += beta.data

    def backward(g):
        lead = tuple(range(g.ndim - 1))
        gx = np.multiply(g, xh, out=np.empty_like(xh))
        dgamma = gx.sum(axis=lead)
        dbeta = g.sum(axis=lead)
        dxh = np.multiply(g, gamma.data, out=np.empty_like(xh))
        np.multiply(dxh, xh, out=gx)
        proj = gx.mean(axis=-1, keepdims=True)
        np.multiply(xh, proj, out=gx)
        dxh -= dxh.mean(axis=-1, keepdims=True)
        dxh -= gx
        dxh *= inv
        return dxh, dgamma, dbeta

    return _emit("layer_norm", (x, gamma, beta), y, backward)


@_quiet
def gelu(x: Tensor) -> Tensor:
    """tanh-approximation GELU: 0.5x(1 + tanh(sqrt(2/pi)(x + 0.044715x^3)))."""
    c = np.asarray(_GELU_C, dtype=x.dtype)
    k = np.asarray(0.044715, dtype=x.dtype)
    # x**n takes numpy's slow generic pow path on f32, so cube by products;
    # u is built in place in the buffer that ends as tanh(u), kept for backward
    t = np.multiply(x.data, x.data, out=np.empty_like(x.data))
    t *= x.data
    t *= k
    t += x.data
    t *= c
    np.tanh(t, out=t)
    y = np.multiply(x.data, 0.5, out=np.empty_like(x.data))
    if _ACTIVE is None or not x.requires_grad:
        # no tape keeps t for a backward: build t + 1 in t and drop it
        t += 1.0
        y *= t
        del t
        return _emit("gelu", (x,), y, None)
    y *= t + 1.0

    def backward(g):
        # dy = 0.5(1 + t) + 0.5x(1 - t^2) * c(1 + 3k x^2), in two buffers
        dy = np.multiply(t, t, out=np.empty_like(t))
        np.subtract(1.0, dy, out=dy)
        buf = np.multiply(x.data, 0.5, out=np.empty_like(t))
        dy *= buf
        np.multiply(x.data, x.data, out=buf)
        buf *= 3.0 * k
        buf += 1.0
        buf *= c
        dy *= buf
        np.add(t, 1.0, out=buf)
        buf *= 0.5
        dy += buf
        dy *= g
        return (dy,)

    return _emit("gelu", (x,), y, backward)


# -- fused attention and loss ops ----------------------------------------------------
#
# Each op below is one tape entry for what a chain of generic ops computes.
# Its forward and backward must keep that chain's numpy operations on the
# same array layouts (tests/test_tensor.py holds the chains as frozen
# references), because the pinned pipeline hashes depend on those bytes.

# Finite stand-in for -inf in the causal mask; exp() underflows to exactly 0,
# so future positions are bitwise invisible while every value stays finite.
MASK_VALUE = -1e9


@functools.cache
def _causal_mask(seq: int, dtype: np.dtype) -> np.ndarray:
    mask = np.zeros((seq, seq), dtype=dtype)
    mask[np.triu_indices(seq, k=1)] = MASK_VALUE
    mask.setflags(write=False)
    return mask


def _softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Softmax along the last axis, stabilised by max subtraction."""
    y = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= y.sum(axis=-1, keepdims=True)
    return y


def _softmax_backward(g: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient through softmax of its output y: y * (g - rowsum(g * y))."""
    gy = np.multiply(g, y)
    np.subtract(g, gy.sum(axis=-1, keepdims=True), out=gy)
    gy *= y
    return gy


def _log_softmax(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Log-softmax along the last axis (in place when out is x)."""
    y = np.subtract(x, x.max(axis=-1, keepdims=True), out=out)
    y -= np.log(np.exp(y).sum(axis=-1, keepdims=True))
    return y


def _log_softmax_backward(g: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Gradient through log-softmax of the probabilities p, in place in g."""
    g -= p * g.sum(axis=-1, keepdims=True)
    return g


def _nll_rows(logits: np.ndarray, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(per-position -log softmax(logits)[target], the log-probs), untaped."""
    logp = _log_softmax(logits)
    return -np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0], logp


@_quiet
def causal_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int) -> Tensor:
    """Multi-head causal self-attention over [batch, seq, n_heads * head_dim]
    projections: per head softmax(q k^T / sqrt(head_dim) + mask) v, heads
    merged back.  The backward takes the score gradient as
    dS = P * (dP - rowsum(dP * P)) (FlashAttention, arXiv:2205.14135)."""
    if (q.data.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % n_heads
            or k.dtype != q.dtype or v.dtype != q.dtype):
        raise TensorError(f"attention needs alike [batch, seq, heads * dim] q, k, v: {q.shape}, {k.shape}, {v.shape}")
    b, s, inner = q.shape
    heads = (b, s, n_heads, inner // n_heads)

    def split(x):  # [b, s, inner] -> [b, nh, s, hd]
        return np.ascontiguousarray(x.reshape(heads).transpose(0, 2, 1, 3))

    def merge(x):  # [b, nh, s, hd] -> [b, s, inner]
        return np.ascontiguousarray(x.transpose(0, 2, 1, 3)).reshape(b, s, inner)

    qh, vh = split(q.data), split(v.data)
    kt = np.ascontiguousarray(k.data.reshape(heads).transpose(0, 2, 3, 1))  # [b, nh, hd, s]
    scale = np.asarray(1.0 / math.sqrt(heads[-1]), dtype=q.dtype)
    p = np.matmul(qh, kt)
    p *= scale
    p += _causal_mask(s, q.dtype)
    _softmax(p, out=p)

    def backward(g):
        gh = split(g)
        dp = np.matmul(gh, np.swapaxes(vh, -1, -2))
        dv = np.matmul(np.swapaxes(p, -1, -2), gh)
        ds = _softmax_backward(dp, p)
        ds *= scale
        dq = np.matmul(ds, np.swapaxes(kt, -1, -2))
        dk = np.matmul(np.swapaxes(qh, -1, -2), ds)  # [b, nh, hd, s]
        return merge(dq), np.ascontiguousarray(dk.transpose(0, 3, 1, 2)).reshape(b, s, inner), merge(dv)

    return _emit("causal_attention", (q, k, v), merge(np.matmul(p, vh)), backward)


@_quiet
def cached_attention(q: Tensor, k: Tensor, v: Tensor, n_heads: int,
                     cache_k: np.ndarray, cache_v: np.ndarray, pos: int) -> Tensor:
    """causal_attention for n new positions pos..pos+n of sequences whose
    earlier keys and values sit in the caches [batch, heads, length,
    head_dim]: the new ones are written there first, then each new position
    attends to every cached position up to itself.  No-grad only (decoding)."""
    if _ACTIVE is not None:
        raise TensorError("cached_attention records no gradient; run it under no_grad")
    if q.data.ndim != 3:
        raise TensorError(f"attention needs [batch, seq, heads * dim] projections, got {q.shape}")
    b, n, inner = q.shape
    end = pos + n
    heads = (b, n, n_heads, inner // n_heads)
    if (k.shape != q.shape or v.shape != q.shape or inner % n_heads or cache_k.shape != cache_v.shape
            or cache_k.shape[:2] + cache_k.shape[3:] != (b, n_heads, heads[-1]) or end > cache_k.shape[2]):
        raise TensorError(f"cached attention needs alike q, k, v {q.shape} at positions {pos}..{end} "
                          f"within caches {cache_k.shape}")

    def split(x):  # [b, n, inner] -> [b, nh, n, hd]
        return x.reshape(heads).transpose(0, 2, 1, 3)

    cache_k[:, :, pos:end] = split(k.data)
    cache_v[:, :, pos:end] = split(v.data)
    scale = np.asarray(1.0 / math.sqrt(heads[-1]), dtype=q.dtype)
    p = np.matmul(np.ascontiguousarray(split(q.data)), np.swapaxes(cache_k[:, :, :end], -1, -2))
    p *= scale
    p += _causal_mask(cache_k.shape[2], q.dtype)[pos:end, :end]
    _softmax(p, out=p)
    out = np.ascontiguousarray(np.matmul(p, cache_v[:, :, :end]).transpose(0, 2, 1, 3)).reshape(b, n, inner)
    return _emit("cached_attention", (q, k, v), out, None)


def _mask_weights(mask, like: Tensor, rows: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(mask as like's dtype, 1 / its sum as a 0-d array of that dtype)."""
    mask = np.asarray(mask, dtype=like.dtype)
    if mask.shape != rows:
        raise TensorError(f"mask shape {mask.shape} != {rows}")
    total = float(mask.sum())
    if total == 0.0:
        raise TensorError("mask excludes every position")
    return mask, np.asarray(1.0 / total, dtype=like.dtype)


@_quiet
def masked_nll(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean of -log softmax(logits)[target] over the unmasked positions."""
    targets = np.asarray(targets)
    if targets.shape != logits.shape[:-1]:
        raise TensorError(f"targets shape {targets.shape} != {logits.shape[:-1]}")
    if targets.size and (targets.min() < 0 or targets.max() >= logits.shape[-1]):
        raise TensorError("target index out of range")
    mask, inv = _mask_weights(mask, logits, targets.shape)
    nll, logp = _nll_rows(logits.data, targets)

    def backward(g):
        gx = np.zeros(logits.shape, dtype=logits.dtype)
        np.put_along_axis(gx, targets[..., None], -((g * inv) * mask)[..., None], axis=-1)
        return (_log_softmax_backward(gx, np.exp(logp)),)

    return _emit("masked_nll", (logits,), np.asarray((nll * mask).sum() * inv), backward)


@_quiet
def masked_kl(student_logits: Tensor, teacher_logp: np.ndarray, mask: np.ndarray, reverse: bool) -> Tensor:
    """Mean over unmasked positions of KL(S || T) when `reverse`, else of
    KL(T || S), where S = softmax(student_logits) and T the distribution
    whose log-probs are `teacher_logp`.  Gradient reaches the student only;
    the reverse form is MiniLLM's (arXiv:2306.08543)."""
    teacher_logp = np.asarray(teacher_logp)
    if teacher_logp.shape != student_logits.shape or teacher_logp.dtype != student_logits.dtype:
        raise TensorError(f"teacher log-probs {teacher_logp.shape} {teacher_logp.dtype} do not match "
                          f"the student logits {student_logits.shape} {student_logits.dtype}")
    mask, inv = _mask_weights(mask, student_logits, student_logits.shape[:-1])
    s_log = _log_softmax(student_logits.data)
    if reverse:
        p, d = np.exp(s_log), s_log - teacher_logp
    else:
        p, d = np.exp(teacher_logp), teacher_logp - s_log

    def backward(g):
        gp = ((g * inv) * mask)[..., None]
        gs = gp * p
        if reverse:
            gs += (gp * d) * p
            return (_log_softmax_backward(gs, p),)
        np.negative(gs, out=gs)
        return (_log_softmax_backward(gs, np.exp(s_log)),)

    per_pos = (p * d).sum(axis=-1)
    return _emit("masked_kl", (student_logits,), np.asarray((per_pos * mask).sum() * inv), backward)


# -- differentiation helpers ---------------------------------------------------------


def value_and_grad(f: Callable[[list[Tensor]], Tensor], params: list[Tensor]) -> tuple[float, list[Tensor]]:
    """Evaluate a scalar-valued composition and return its value plus one
    gradient tensor per parameter (zeros for parameters the composition
    never touches)."""
    for p in params:
        p.requires_grad = True
    with GradTape() as tape:
        out = f(params)
    if not isinstance(out, Tensor):
        raise TensorError("composition must return a Tensor built from registered operations")
    if out.shape != ():
        raise TensorError("composition must be scalar-valued")
    tape.backward(out)
    grads = []
    for p in params:
        g = p.grad if p.grad is not None else np.zeros(p.shape, dtype=p.dtype)
        grads.append(_wrap(_own(g), False))
        p.grad = None
    return float(out.data), grads


def grad_check(
    f: Callable[[list[Tensor]], Tensor],
    params: list[Tensor],
    h: float = 1e-4,
    samples_per_param: int = 16,
    seed: int = 0,
) -> float:
    """Max relative error between analytic gradients and central differences
    over sampled coordinates.  Requires 64-bit parameters; finite differences
    are unreliable in 32-bit."""
    for p in params:
        if p.dtype != F64:
            raise TensorError("grad_check requires 64-bit parameters")
    _, grads = value_and_grad(f, params)
    rng = np.random.default_rng(seed)

    def eval_at(plist: list[Tensor]) -> float:
        with no_grad():
            return float(f(plist).data)

    worst = 0.0
    for k, (p, g) in enumerate(zip(params, grads)):
        n = p.size
        if n <= samples_per_param:
            coords = np.arange(n)
        else:
            coords = np.sort(rng.choice(n, size=samples_per_param, replace=False))
        flat = p.data.reshape(-1)
        for i in coords:
            step = h * max(1.0, abs(float(flat[i])))
            plus = flat.copy()
            plus[i] += step
            minus = flat.copy()
            minus[i] -= step
            params_plus = list(params)
            params_plus[k] = _wrap(plus.reshape(p.shape), False)
            params_minus = list(params)
            params_minus[k] = _wrap(minus.reshape(p.shape), False)
            cd = (eval_at(params_plus) - eval_at(params_minus)) / (2.0 * step)
            a = float(g.data.reshape(-1)[i])
            rel = abs(a - cd) / (abs(a) + abs(cd) + 1e-12)
            worst = max(worst, rel)
    return worst
