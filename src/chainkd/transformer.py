"""Decoder-only causal transformer.

Pre-LayerNorm residual blocks with a final LayerNorm (GPT-2 convention),
learned absolute positional embeddings, tied LM head by default.  The
attention inner width is n_heads * head_dim and may differ from d_model;
projections map d_model -> inner -> d_model, which is what makes
function-preserving head padding possible at a fixed d_model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

import numpy as np

from . import tensor as T
from .tensor import F32, F64, Tensor, TensorError, no_grad

LN_EPS = 1e-5
INIT_STD = 0.02

ParamSet = dict[str, Tensor]


@dataclass(frozen=True)
class ModelConfig:
    n_layers: int
    n_heads: int
    head_dim: int
    d_model: int
    d_ff: int
    vocab_size: int
    max_seq_len: int
    tied_lm_head: bool = True

    def __post_init__(self):
        for field in ("n_layers", "n_heads", "head_dim", "d_model", "d_ff", "vocab_size", "max_seq_len"):
            value = getattr(self, field)
            if type(value) is not int or value < 1:  # a bool is an int subclass: rejected too
                raise ValueError(f"ModelConfig.{field} must be an int >= 1, got {value!r}")
        if type(self.tied_lm_head) is not bool:
            raise ValueError(f"ModelConfig.tied_lm_head must be a bool, got {self.tied_lm_head!r}")

    @property
    def inner(self) -> int:
        return self.n_heads * self.head_dim

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**d)


def structurally_le(a: ModelConfig, b: ModelConfig) -> bool:
    """a fits inside b: depth/heads/widths component-wise <= with identical
    head_dim, vocabulary, and context length."""
    return (
        a.n_layers <= b.n_layers
        and a.n_heads <= b.n_heads
        and a.d_model <= b.d_model
        and a.d_ff <= b.d_ff
        and a.head_dim == b.head_dim
        and a.vocab_size == b.vocab_size
        and a.max_seq_len == b.max_seq_len
        and a.tied_lm_head == b.tied_lm_head
    )


# The parameter layout: for every tensor, the config axis of each dimension.
# Layer tensors are named "L{i}.{suffix}".  "inner" is n_heads * head_dim and
# nested configs share head_dim, so a resize of it adds or drops whole heads.
EMBED_AXES = {"embed.tok": ("vocab", "d"), "embed.pos": ("seq", "d")}
LAYER_AXES = {
    "ln1.g": ("d",), "ln1.b": ("d",),
    "attn.wq": ("d", "inner"), "attn.wk": ("d", "inner"), "attn.wv": ("d", "inner"), "attn.wo": ("inner", "d"),
    "attn.bq": ("inner",), "attn.bk": ("inner",), "attn.bv": ("inner",), "attn.bo": ("d",),
    "ln2.g": ("d",), "ln2.b": ("d",),
    "ffn.w1": ("d", "ff"), "ffn.b1": ("ff",), "ffn.w2": ("ff", "d"), "ffn.b2": ("d",),
}
OUTPUT_AXES = {"final.ln.g": ("d",), "final.ln.b": ("d",), "lm_head.w": ("d", "vocab")}


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes; a pure function of the config."""
    size = {"vocab": config.vocab_size, "seq": config.max_seq_len, "d": config.d_model,
            "ff": config.d_ff, "inner": config.inner}
    axes = dict(EMBED_AXES)
    for i in range(config.n_layers):
        axes.update((f"L{i}.{suffix}", a) for suffix, a in LAYER_AXES.items())
    axes.update(OUTPUT_AXES)
    if config.tied_lm_head:
        del axes["lm_head.w"]  # the LM head reuses embed.tok
    return {name: tuple(size[axis] for axis in a) for name, a in axes.items()}


def count_params(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def init_random(config: ModelConfig, seed: int, dtype=F32) -> ParamSet:
    """Weights ~ Normal(0, 0.02); biases and LN beta zero; LN gamma one."""
    rng = np.random.default_rng(seed)
    params: ParamSet = {}
    for name, shape in param_shapes(config).items():
        if len(shape) == 2:
            arr = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
        else:
            arr = (np.ones if name.endswith(".g") else np.zeros)(shape, dtype=dtype)
        params[name] = Tensor(arr, dtype=dtype)
    return params


def validate_params(config: ModelConfig, params: ParamSet) -> None:
    expected = param_shapes(config)
    if set(params) != set(expected):
        missing = sorted(set(expected) - set(params))
        extra = sorted(set(params) - set(expected))
        raise TensorError(f"parameter names do not match config (missing={missing}, extra={extra})")
    for name, shape in expected.items():
        if params[name].shape != shape:
            raise TensorError(f"parameter {name} has shape {params[name].shape}, expected {shape}")


class KVCache:
    """The keys and values of every position run so far, one [batch, heads,
    length, head_dim] pair per layer in one buffer, for decoding without a
    tape; `pos` is the number of positions filled."""

    def __init__(self, config: ModelConfig, batch: int, length: int, dtype=F32):
        self.kv = np.zeros((config.n_layers, 2, batch, config.n_heads, length, config.head_dim), dtype=dtype)
        self.pos = 0


def forward(config: ModelConfig, params: ParamSet, tokens: np.ndarray, cache: KVCache | None = None) -> Tensor:
    """Logits [batch, seq, vocab] for integer tokens [batch, seq].  With a
    cache, the tokens are positions cache.pos.. of sequences whose earlier
    positions it holds; their keys and values join it (no-grad only)."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise TensorError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    s = tokens.shape[1]
    start = 0 if cache is None else cache.pos
    if start + s > config.max_seq_len:
        raise TensorError(f"sequence length {start + s} exceeds max_seq_len {config.max_seq_len}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab_size):
        raise TensorError(f"token id out of range [0, {config.vocab_size})")

    x = T.embedding(params["embed.tok"], tokens) + T.embedding(params["embed.pos"], np.arange(start, start + s))
    for i in range(config.n_layers):
        x = _attention_block(config, params, f"L{i}.", x, None if cache is None else cache.kv[i], start)
        x = _ffn_block(params, f"L{i}.", x)
    if cache is not None:
        cache.pos += s

    x = T.layer_norm(x, params["final.ln.g"], params["final.ln.b"], LN_EPS)
    if config.tied_lm_head:
        return T.matmul(x, params["embed.tok"].transpose((1, 0)))
    return T.matmul(x, params["lm_head.w"])


# Each sublayer runs in its own frame, so a no-grad forward frees its
# activations at return and holds at most one sublayer's at a time.
def _attention_block(config: ModelConfig, params: ParamSet, p: str, x: Tensor, kv, start: int) -> Tensor:
    h = T.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"], LN_EPS)
    q = T.linear(h, params[p + "attn.wq"], params[p + "attn.bq"])
    k = T.linear(h, params[p + "attn.wk"], params[p + "attn.bk"])
    v = T.linear(h, params[p + "attn.wv"], params[p + "attn.bv"])
    if kv is None:
        y = T.causal_attention(q, k, v, config.n_heads)
    else:
        y = T.cached_attention(q, k, v, config.n_heads, *kv, start)
    return x + T.linear(y, params[p + "attn.wo"], params[p + "attn.bo"])


def _ffn_block(params: ParamSet, p: str, x: Tensor) -> Tensor:
    h = T.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"], LN_EPS)
    f = T.gelu(T.linear(h, params[p + "ffn.w1"], params[p + "ffn.b1"]))
    return x + T.linear(f, params[p + "ffn.w2"], params[p + "ffn.b2"])


def loss_ce(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over unmasked positions."""
    return T.masked_nll(logits, targets, mask)


def sample(
    config: ModelConfig,
    params: ParamSet,
    prompts,
    temperature: float,
    max_new: int,
    seeds,
    greedy: bool = False,
) -> np.ndarray:
    """Autoregressive multinomial sampling of max_new tokens after each of the
    equal-length prompt rows [batch, prompt]; row r draws from
    np.random.default_rng(seeds[r]), so each row is deterministic given its
    seed.  The prompts run through the layers once to fill a K/V cache, then
    each new token runs them over one position per row.  `greedy` is the
    temperature -> 0+ limit (argmax decoding).  Returns the rows
    [batch, prompt + max_new], prompts included."""
    if not 0 < temperature < math.inf:
        raise TensorError("temperature must be finite and > 0 (use greedy=True for the argmax limit)")
    if len({len(row) for row in prompts}) != 1:
        raise TensorError("prompts must be one or more rows of equal length")
    prompts = np.asarray(prompts)
    if prompts.ndim != 2 or prompts.shape[1] < 1 or not np.issubdtype(prompts.dtype, np.integer):
        raise TensorError(f"prompts must be non-empty rows of token ids [batch, prompt], got {prompts.shape}")
    if len(seeds) != len(prompts):
        raise TensorError(f"{len(seeds)} seeds for {len(prompts)} prompts")
    b, n = prompts.shape
    total = n + max_new
    if total > config.max_seq_len:
        raise TensorError(f"prompt length {n} + max_new {max_new} exceeds max_seq_len {config.max_seq_len}")
    rngs = [np.random.default_rng(int(s)) for s in seeds]
    out = np.empty((b, total), dtype=np.int64)
    out[:, :n] = prompts
    cache = KVCache(config, b, total, params["embed.tok"].dtype)
    with no_grad():
        for t in range(n, total):
            logits = forward(config, params, out[:, cache.pos:t], cache).data[:, -1].astype(F64)
            if greedy:
                out[:, t] = np.argmax(logits, axis=-1)
                continue
            z = logits / temperature
            z -= z.max(axis=-1, keepdims=True)
            probs = np.exp(z)
            probs /= probs.sum(axis=-1, keepdims=True)
            # what rng.choice(V, p=row) draws, for every row at once
            u = np.array([rng.random() for rng in rngs])
            out[:, t] = (T._choice_cdf(probs) <= u[:, None]).sum(axis=1)
    return out

