"""Decoder-only causal transformer.

Pre-LayerNorm residual blocks with a final LayerNorm (GPT-2 convention),
learned absolute positional embeddings, tied LM head by default.  The
attention inner width is n_heads * head_dim and may differ from d_model;
projections map d_model -> inner -> d_model, which is what makes
function-preserving head padding possible at a fixed d_model.
"""

from __future__ import annotations

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


def forward(config: ModelConfig, params: ParamSet, tokens: np.ndarray) -> Tensor:
    """Logits [batch, seq, vocab] for integer tokens [batch, seq]."""
    tokens = np.asarray(tokens)
    if tokens.ndim != 2:
        raise TensorError(f"tokens must be [batch, seq], got shape {tokens.shape}")
    s = tokens.shape[1]
    if s > config.max_seq_len:
        raise TensorError(f"sequence length {s} exceeds max_seq_len {config.max_seq_len}")
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab_size):
        raise TensorError(f"token id out of range [0, {config.vocab_size})")

    x = T.embedding(params["embed.tok"], tokens) + T.embedding(params["embed.pos"], np.arange(s))
    for i in range(config.n_layers):
        p = f"L{i}."
        h = T.layer_norm(x, params[p + "ln1.g"], params[p + "ln1.b"], LN_EPS)
        q = T.linear(h, params[p + "attn.wq"], params[p + "attn.bq"])
        k = T.linear(h, params[p + "attn.wk"], params[p + "attn.bk"])
        v = T.linear(h, params[p + "attn.wv"], params[p + "attn.bv"])
        y = T.causal_attention(q, k, v, config.n_heads)
        x = x + T.linear(y, params[p + "attn.wo"], params[p + "attn.bo"])

        h2 = T.layer_norm(x, params[p + "ln2.g"], params[p + "ln2.b"], LN_EPS)
        f = T.gelu(T.linear(h2, params[p + "ffn.w1"], params[p + "ffn.b1"]))
        x = x + T.linear(f, params[p + "ffn.w2"], params[p + "ffn.b2"])

    x = T.layer_norm(x, params["final.ln.g"], params["final.ln.b"], LN_EPS)
    if config.tied_lm_head:
        return T.matmul(x, params["embed.tok"].transpose((1, 0)))
    return T.matmul(x, params["lm_head.w"])


def loss_ce(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood over unmasked positions."""
    return T.masked_nll(logits, targets, mask)


def sample(
    config: ModelConfig,
    params: ParamSet,
    prompt: list[int],
    temperature: float,
    max_new: int,
    seed: int,
    greedy: bool = False,
) -> list[int]:
    """Autoregressive multinomial sampling; deterministic given the seed.
    `greedy` is the temperature -> 0+ limit (argmax decoding)."""
    if temperature <= 0:
        raise TensorError("temperature must be > 0 (use greedy=True for the argmax limit)")
    if len(prompt) > config.max_seq_len:
        raise TensorError(f"prompt length {len(prompt)} exceeds max_seq_len {config.max_seq_len}")
    rng = np.random.default_rng(seed)
    out = list(prompt)
    with no_grad():
        for _ in range(max_new):
            window = out[-config.max_seq_len:]
            logits = forward(config, params, np.asarray([window])).data[0, -1].astype(F64)
            if greedy:
                nxt = int(np.argmax(logits))
            else:
                z = logits / temperature
                z -= z.max()
                probs = np.exp(z)
                probs /= probs.sum()
                nxt = int(rng.choice(config.vocab_size, p=probs))
            out.append(nxt)
    return out
