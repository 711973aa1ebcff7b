"""Distillation losses, the Adam optimizer, and the chain / bridge runners.

An edge distills a student from its immediately larger teacher with full-
vocabulary per-position reverse KL (student || teacher) on corpus batches;
the student starts as the subset transform of its teacher unless random
init is requested for ablation.  The bridge stage trains a chain-shaped
model by cross-entropy on text sampled from a vocabulary-incompatible
source, giving the chain a homogeneous anchor zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import data as D
from . import tensor as T
from . import transformer as M
from .checkpoint import Checkpoint, Meta, load as load_checkpoint
from .surgery import apply_transform, plan_subset
from .tensor import GradTape, NonFiniteError, Tensor, no_grad
from .tokenizers import Vocabulary, decode, encode, get_vocab
from .transformer import ModelConfig


class DistillError(RuntimeError):
    pass


class DivergenceError(DistillError):
    """Training produced a non-finite loss; carries the failing step."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"divergence at step {step}: {detail}")
        self.step = step


LOSS_KINDS = ("reverse_kl", "forward_kl", "ce")


@dataclass
class DistillConfig:
    steps: int
    batch: int = 8
    seq_len: int = 48
    lr: float = 1e-3
    temperature: float = 1.0
    loss_kind: str = "reverse_kl"
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    grad_clip: float | None = 1.0
    seed: int = 0
    sft_warm_epochs: int = 1
    init_from_teacher: bool = True

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.batch < 1 or self.seq_len < 2:
            raise ValueError("batch must be >= 1 and seq_len >= 2")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.lr <= 0 or self.temperature <= 0:
            raise ValueError("lr and temperature must be positive")
        if self.sft_warm_epochs < 0:
            raise ValueError("sft_warm_epochs must be >= 0")

    @classmethod
    def from_dict(cls, d: dict) -> "DistillConfig":
        return cls(**d)


@dataclass
class BridgeSpec:
    source_tokenizer: str
    bridge_tokenizer: str
    bridge_config: ModelConfig
    n_samples: int
    gen_temperature: float = 1.0
    gen_max_len: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.source_tokenizer == self.bridge_tokenizer:
            raise ValueError("bridge requires two different tokenizers")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


@dataclass
class SourceRecipe:
    """Train a fresh source model on the corpus instead of loading one."""

    config: ModelConfig
    train: DistillConfig


@dataclass
class ChainSpec:
    anchors: list[ModelConfig]
    edges: list[DistillConfig]
    source_path: str | None = None
    source_recipe: SourceRecipe | None = None
    bridge: BridgeSpec | None = None

    def validate(self) -> None:
        if (self.source_path is None) == (self.source_recipe is None):
            raise ValueError("exactly one of source_path / source_recipe is required")
        if len(self.edges) != len(self.anchors):
            raise ValueError("edges length must equal anchors length")
        if not self.anchors:
            raise ValueError("chain needs at least one anchor")
        counts = [M.count_params(a) for a in self.anchors]
        if any(b >= a for a, b in zip(counts, counts[1:])):
            raise ValueError("anchors must strictly decrease in parameter count")
        for a, b in zip(self.anchors, self.anchors[1:]):
            if not M.structurally_le(b, a):
                raise ValueError("adjacent anchors must nest structurally")


# -- losses ---------------------------------------------------------------------


def _check_logit_pair(student: Tensor, teacher: Tensor, mask: np.ndarray) -> np.ndarray:
    if student.shape != teacher.shape:
        raise DistillError(f"logit shapes disagree: {student.shape} vs {teacher.shape}")
    mask = np.asarray(mask, dtype=student.dtype)
    if mask.shape != student.shape[:-1]:
        raise DistillError(f"mask shape {mask.shape} != {student.shape[:-1]}")
    if float(mask.sum()) == 0.0:
        raise DistillError("mask excludes every position")
    return mask


def _masked_mean(per_pos: Tensor, mask: np.ndarray) -> Tensor:
    return (per_pos * mask).sum() * (1.0 / float(mask.sum()))


def reverse_kl_loss(student_logits: Tensor, teacher_logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked positions of sum_v S_v (ln S_v - ln T_v); the
    teacher side is detached so gradient reaches the student only."""
    mask = _check_logit_pair(student_logits, teacher_logits, mask)
    s_log = T.log_softmax(student_logits)
    t_log = T.log_softmax(teacher_logits.detach())
    per_pos = (T.exp(s_log) * (s_log - t_log)).sum(axis=-1)
    return _masked_mean(per_pos, mask)


def forward_kl_loss(student_logits: Tensor, teacher_logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked positions of sum_v T_v (ln T_v - ln S_v)."""
    mask = _check_logit_pair(student_logits, teacher_logits, mask)
    s_log = T.log_softmax(student_logits)
    t_log = T.log_softmax(teacher_logits.detach())
    per_pos = (T.exp(t_log) * (t_log - s_log)).sum(axis=-1)
    return _masked_mean(per_pos, mask)


# -- optimizer -------------------------------------------------------------------


@dataclass
class AdamState:
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    t: int = 0


def adam_step(
    params: M.ParamSet,
    grads: dict[str, np.ndarray],
    state: AdamState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
) -> tuple[M.ParamSet, AdamState]:
    """One bias-corrected Adam update; returns fresh tensors (values are
    immutable) and the advanced state."""
    if set(grads) - set(params):
        raise DistillError("gradient for unknown parameter")
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    out: M.ParamSet = {}
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = np.zeros(p.shape, dtype=p.dtype)
        elif g.shape != p.shape:
            raise DistillError(f"gradient shape mismatch for {name}")
        m = state.m.setdefault(name, np.zeros(p.shape, dtype=p.dtype))
        v = state.v.setdefault(name, np.zeros(p.shape, dtype=p.dtype))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        denom = np.sqrt(v * (1.0 / bc2))
        denom += eps
        update = m / denom
        update *= lr / bc1
        out[name] = T.from_owned(p.data - update, requires_grad=True)
    return out, state


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    total = math.sqrt(sum(float((g * g).sum()) for g in grads.values()))
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


# -- training loop ------------------------------------------------------------------


def _teacher_logit_cache(teacher: Checkpoint, stack: np.ndarray, cfg: DistillConfig,
                         eval_batch: int = 32) -> np.ndarray:
    """Temperature-scaled teacher logits for every training window."""
    n, width = stack.shape
    out = np.empty((n, width - 1, teacher.config.vocab_size), dtype=np.float32)
    with no_grad():
        for i in range(0, n, eval_batch):
            tokens = stack[i : i + eval_batch, :-1]
            out[i : i + len(tokens)] = M.forward(teacher.config, teacher.params, tokens).data
    out *= np.float32(1.0 / cfg.temperature)
    return out


def _trainable(params: M.ParamSet) -> M.ParamSet:
    for p in params.values():
        p.requires_grad = True
    return params


def ce_loss(logits: Tensor, batch: tuple) -> Tensor:
    """Masked next-token cross-entropy of a (tokens, targets, mask) batch."""
    return M.loss_ce(logits, batch[1], batch[2])


def _step(config: ModelConfig, params: M.ParamSet, batch: tuple, loss, cfg: DistillConfig,
          state: AdamState, step: int) -> tuple[M.ParamSet, float]:
    # its own frame, so the tape and its activations are freed at return
    # instead of surviving into the next step's forward
    try:
        with GradTape() as tape:
            value = loss(M.forward(config, params, batch[0]), batch)
        tape.backward(value)
    except NonFiniteError as e:
        raise DivergenceError(step, str(e)) from e
    grads = {}
    for name, p in params.items():
        if p.grad is not None:
            grads[name], p.grad = p.grad, None
    if cfg.grad_clip is not None:
        grads = clip_global_norm(grads, cfg.grad_clip)
    params, _ = adam_step(params, grads, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    return params, float(value.data)


def fit(
    config: ModelConfig,
    params: M.ParamSet,
    batches,
    loss,
    cfg: DistillConfig,
    state: AdamState | None = None,
    first_step: int = 1,
) -> tuple[M.ParamSet, list[float]]:
    """The training loop: one clipped Adam step on `loss(logits, batch)` per
    batch, where batch[0] holds the input tokens.  Steps are numbered from
    `first_step` (a DivergenceError names the failing one); passing `state`
    continues an earlier run's Adam moments."""
    state = AdamState() if state is None else state
    losses = []
    for step, batch in enumerate(batches, first_step):
        params, value = _step(config, params, batch, loss, cfg, state, step)
        losses.append(value)
    return params, losses


def mean_nll(config: ModelConfig, params: M.ParamSet, batches) -> float:
    """Aggregate mean NLL per unmasked position over (tokens, targets, mask)
    batches, scored without a tape."""
    total = 0.0
    count = 0.0
    with no_grad():
        for tokens, targets, mask in batches:
            logp = T.log_softmax(M.forward(config, params, tokens))
            nll = -T.gather_last(logp, targets)
            total += float((nll.data * mask).sum())
            count += float(mask.sum())
    if count == 0.0:
        raise DistillError("evaluation split has no unmasked positions")
    return total / count


def eval_ce(config: ModelConfig, params: M.ParamSet, docs: list[str], vocab: Vocabulary,
            batch: int = 16, seq_len: int = 48) -> float:
    """mean_nll over every window of a split."""
    return mean_nll(config, params, D.eval_windows(docs, vocab, batch, seq_len))


def train_lm(
    config: ModelConfig,
    corpus: D.Corpus,
    vocab: Vocabulary,
    cfg: DistillConfig,
    init: Checkpoint | None = None,
    name: str = "trained",
) -> Checkpoint:
    """Plain cross-entropy training (source recipes, SFT, rand baselines)."""
    if init is not None:
        params = _trainable(dict(init.params))
        meta = init.meta
    else:
        params = _trainable(M.init_random(config, cfg.seed))
        meta = Meta(name=name, seed=cfg.seed)
    stream = D.batch_stream(corpus.train_docs, vocab, cfg.batch, cfg.seq_len, cfg.seed)
    params, losses = fit(config, params, islice(stream, cfg.steps), ce_loss, cfg)
    meta = meta.child(f"trained:ce steps={cfg.steps} seed={cfg.seed}", name=name,
                      step_count=meta.step_count + cfg.steps)
    meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": "ce", "losses": losses})
    return Checkpoint(config, params, meta)


def distill_edge(
    teacher: Checkpoint,
    student_config: ModelConfig,
    corpus: D.Corpus,
    vocab: Vocabulary,
    cfg: DistillConfig,
    name: str = "student",
) -> Checkpoint:
    """One chain edge: initialize the student from its teacher (subset
    transform), optionally SFT-warm it, then distill for cfg.steps."""
    if teacher.config.vocab_size != student_config.vocab_size:
        raise DistillError(
            f"vocabulary mismatch: teacher {teacher.config.vocab_size} vs student {student_config.vocab_size}"
        )
    if cfg.seq_len > min(teacher.config.max_seq_len, student_config.max_seq_len):
        raise DistillError("seq_len exceeds a model's max_seq_len")

    if cfg.init_from_teacher:
        init = apply_transform(teacher, plan_subset(teacher.config, student_config))
        init_stage = "init=subset-of-teacher"
        params = _trainable(dict(init.params))
    else:
        init_stage = "init=random"
        params = _trainable(M.init_random(student_config, cfg.seed))

    losses: list[float] = []
    sft_losses: list[float] = []
    if cfg.steps > 0:
        stack = np.stack(D.token_windows(corpus.train_docs, vocab, cfg.seq_len))

        def draws(n: int):
            return islice(D.index_stream(len(stack), cfg.batch, cfg.seed), n)

        # SFT warm-up is the stream's first sft_warm_epochs epochs; KD then
        # draws the same stream again from epoch 0, on the same Adam state
        state = AdamState()
        n_sft = cfg.sft_warm_epochs * (len(stack) // cfg.batch)
        sft = (D.assemble(stack, idx, vocab.pad) for idx in draws(n_sft))
        params, sft_losses = fit(student_config, params, sft, ce_loss, cfg, state)
        if cfg.loss_kind == "ce":
            loss = ce_loss
            kd = (D.assemble(stack, idx, vocab.pad) for idx in draws(cfg.steps))
        else:
            # teacher logits depend only on the window, so score every window
            # once up front instead of re-running the teacher each step
            cache = _teacher_logit_cache(teacher, stack, cfg)
            kl = reverse_kl_loss if cfg.loss_kind == "reverse_kl" else forward_kl_loss
            inv_temperature = 1.0 / cfg.temperature

            def loss(logits: Tensor, batch: tuple) -> Tensor:
                t_logits = Tensor(batch[3], dtype=batch[3].dtype.type)
                return kl(logits * inv_temperature, t_logits, batch[2])

            kd = ((*D.assemble(stack, idx, vocab.pad), cache[idx]) for idx in draws(cfg.steps))
        params, losses = fit(student_config, params, kd, loss, cfg, state, first_step=len(sft_losses) + 1)

    stage = (
        f"distilled-from:{teacher.meta.name} loss={cfg.loss_kind} steps={cfg.steps}"
        f" sft_epochs={cfg.sft_warm_epochs} temperature={cfg.temperature:g} {init_stage} seed={cfg.seed}"
    )
    meta = teacher.meta.child(stage, name=name, seed=cfg.seed,
                              step_count=teacher.meta.step_count + len(sft_losses) + len(losses))
    if sft_losses:
        meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": "sft", "losses": sft_losses})
    meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": cfg.loss_kind, "losses": losses})
    return Checkpoint(student_config, params, meta)


def run_stepwise_chain(spec: ChainSpec, corpus: D.Corpus, vocab: Vocabulary,
                       source: Checkpoint | None = None) -> list[Checkpoint]:
    """Produce every anchor in order, each distilled from its predecessor.
    `source` overrides the spec's source (cmd_chain passes the bridge here)."""
    spec.validate()
    if source is None:
        source = resolve_source(spec, corpus, vocab)
    anchors: list[Checkpoint] = []
    teacher = source
    for idx, (a_cfg, e_cfg) in enumerate(zip(spec.anchors, spec.edges), start=1):
        try:
            student = distill_edge(teacher, a_cfg, corpus, vocab, e_cfg, name=f"anchor-{idx}")
        except DistillError as e:
            raise DistillError(f"edge {idx} ({teacher.meta.name} -> anchor-{idx}) failed: {e}") from e
        anchors.append(student)
        teacher = student
    return anchors


def run_direct_distill(
    source: Checkpoint,
    target_config: ModelConfig,
    corpus: D.Corpus,
    vocab: Vocabulary,
    cfg: DistillConfig,
    name: str = "direct",
) -> Checkpoint:
    """Single-hop baseline: the source distills straight into the target."""
    return distill_edge(source, target_config, corpus, vocab, cfg, name=name)


def resolve_source(spec: ChainSpec, corpus: D.Corpus, vocab: Vocabulary) -> Checkpoint:
    if spec.source_path is not None:
        return load_checkpoint(spec.source_path)
    recipe = spec.source_recipe
    return train_lm(recipe.config, corpus, vocab, recipe.train, name="source")


# -- heterogeneous bridge --------------------------------------------------------------


def seqkd_generate(
    teacher: Checkpoint,
    teacher_vocab: Vocabulary,
    prompts: list[str],
    temperature: float,
    max_len: int,
    seed: int,
    greedy: bool = False,
) -> list[tuple[str, str]]:
    """Sample one completion per prompt and decode both sides back to text,
    so a differently-tokenized student can re-encode them."""
    if not prompts:
        raise DistillError("seqkd_generate needs at least one prompt")
    seeds = np.random.SeedSequence(seed).generate_state(len(prompts))
    budget = teacher.config.max_seq_len - max_len
    if budget < 1:
        raise DistillError("gen_max_len leaves no room for the prompt")
    pairs = []
    for prompt, s in zip(prompts, seeds):
        ids = [teacher_vocab.bos] + encode(teacher_vocab, prompt)
        ids = ids[:budget]
        out = M.sample(
            teacher.config, teacher.params, ids,
            temperature=temperature, max_new=max_len, seed=int(s), greedy=greedy,
        )
        completion = out[len(ids):]
        if teacher_vocab.eos in completion:
            completion = completion[: completion.index(teacher_vocab.eos)]
        pairs.append((decode(teacher_vocab, ids), decode(teacher_vocab, completion)))
    return pairs


def _pair_windows(
    pairs: list[tuple[str, str]], vocab: Vocabulary, seq_len: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """BOS + prompt + completion + EOS in the bridge vocabulary, stacked as
    (tokens, targets, mask); the loss mask covers completion positions only
    (the -log P(y|x) objective)."""
    rows = []
    for prompt, completion in pairs:
        x = encode(vocab, prompt)[: max(1, seq_len // 2)]
        y = encode(vocab, completion)
        seq = [vocab.bos] + x + y + [vocab.eos]
        seq = seq[: seq_len + 1]
        if len(seq) < seq_len + 1:
            seq = seq + [vocab.pad] * (seq_len + 1 - len(seq))
        arr = np.asarray(seq, dtype=np.int64)
        tokens, targets = arr[:-1], arr[1:]
        mask = np.zeros(seq_len, dtype=np.float32)
        # targets[t] = seq[t+1]; the completion starts at seq[1+len(x)]
        mask[len(x):] = targets[len(x):] != vocab.pad
        if mask.sum() > 0:
            rows.append((tokens, targets, mask))
    if not rows:
        raise DistillError("no trainable positions in the generated pairs")
    return tuple(np.stack(column) for column in zip(*rows))


def run_bridge(spec: BridgeSpec, source: Checkpoint, corpus: D.Corpus, cfg: DistillConfig) -> Checkpoint:
    """SeqKD across the vocabulary gap: sample from the source with its own
    tokenizer, re-encode with the bridge tokenizer, train the bridge by CE
    on the re-encoded pairs.  The result is anchor zero of the chain."""
    src_vocab = get_vocab(spec.source_tokenizer)
    bridge_vocab = get_vocab(spec.bridge_tokenizer)
    if source.config.vocab_size != src_vocab.size:
        raise DistillError(
            f"source vocab_size {source.config.vocab_size} != tokenizer '{spec.source_tokenizer}' ({src_vocab.size})"
        )
    if spec.bridge_config.vocab_size != bridge_vocab.size:
        raise DistillError(
            f"bridge vocab_size {spec.bridge_config.vocab_size} != tokenizer '{spec.bridge_tokenizer}' ({bridge_vocab.size})"
        )
    docs = corpus.train_docs
    if not docs:
        raise DistillError("corpus has no training documents for prompts")
    prompts = [docs[i % len(docs)] for i in range(spec.n_samples)]
    pairs = seqkd_generate(source, src_vocab, prompts, spec.gen_temperature, spec.gen_max_len, spec.seed)
    tokens, targets, mask = _pair_windows(pairs, bridge_vocab, cfg.seq_len)
    n = len(tokens)

    def blocks():
        return ((tokens[i : i + cfg.batch], targets[i : i + cfg.batch], mask[i : i + cfg.batch])
                for i in range(0, n, cfg.batch))

    config = spec.bridge_config
    params = _trainable(M.init_random(config, cfg.seed))
    ce_step0 = mean_nll(config, params, blocks())
    draws = islice(D.index_stream(n, min(cfg.batch, n), cfg.seed), cfg.steps)
    params, losses = fit(config, params, ((tokens[idx], targets[idx], mask[idx]) for idx in draws), ce_loss, cfg)
    ce_final = mean_nll(config, params, blocks())

    stage = (
        f"bridged-from:{source.meta.name} tokenizers={spec.source_tokenizer}->{spec.bridge_tokenizer}"
        f" samples={spec.n_samples} steps={cfg.steps} ce0={ce_step0:.6f} ce={ce_final:.6f} seed={spec.seed}"
    )
    meta = source.meta.child(stage, name="anchor-0", seed=cfg.seed,
                             step_count=source.meta.step_count + cfg.steps)
    meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": "seqkd-ce", "losses": losses,
                             "ce_step0": ce_step0, "ce_final": ce_final})
    return Checkpoint(config, params, meta)
