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
            if getattr(self, field) < 1:
                raise ValueError(f"ModelConfig.{field} must be >= 1")

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


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical parameter names and shapes; a pure function of the config."""
    d, inner, ff = config.d_model, config.inner, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {
        "embed.tok": (config.vocab_size, d),
        "embed.pos": (config.max_seq_len, d),
    }
    for i in range(config.n_layers):
        p = f"L{i}."
        shapes[p + "ln1.g"] = (d,)
        shapes[p + "ln1.b"] = (d,)
        shapes[p + "attn.wq"] = (d, inner)
        shapes[p + "attn.wk"] = (d, inner)
        shapes[p + "attn.wv"] = (d, inner)
        shapes[p + "attn.wo"] = (inner, d)
        shapes[p + "attn.bq"] = (inner,)
        shapes[p + "attn.bk"] = (inner,)
        shapes[p + "attn.bv"] = (inner,)
        shapes[p + "attn.bo"] = (d,)
        shapes[p + "ln2.g"] = (d,)
        shapes[p + "ln2.b"] = (d,)
        shapes[p + "ffn.w1"] = (d, ff)
        shapes[p + "ffn.b1"] = (ff,)
        shapes[p + "ffn.w2"] = (ff, d)
        shapes[p + "ffn.b2"] = (d,)
    shapes["final.ln.g"] = (d,)
    shapes["final.ln.b"] = (d,)
    if not config.tied_lm_head:
        shapes["lm_head.w"] = (d, config.vocab_size)
    return shapes


def count_params(config: ModelConfig) -> int:
    return sum(int(np.prod(s)) for s in param_shapes(config).values())


def init_random(config: ModelConfig, seed: int, dtype=F32) -> ParamSet:
    """Weights ~ Normal(0, 0.02); biases and LN beta zero; LN gamma one."""
    rng = np.random.default_rng(seed)
    params: ParamSet = {}
    for name, shape in param_shapes(config).items():
        if name.endswith((".g",)):
            arr = np.ones(shape, dtype=dtype)
        elif name.endswith((".b", ".bq", ".bk", ".bv", ".bo", ".b1", ".b2")):
            arr = np.zeros(shape, dtype=dtype)
        else:
            arr = rng.normal(0.0, INIT_STD, size=shape).astype(dtype)
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
