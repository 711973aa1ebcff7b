"""Distillation losses, the Adam optimizer, and the chain / bridge runners.

An edge distills a student from its immediately larger teacher with full-
vocabulary per-position reverse KL (student || teacher) on corpus batches;
the student starts as the subset transform of its teacher unless random
init is requested for ablation.  The bridge stage trains a chain-shaped
model by cross-entropy on text sampled from a vocabulary-incompatible
source, giving the chain a homogeneous anchor zero.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from . import data as D
from . import tensor as T
from . import transformer as M
# nothing here calls load_checkpoint: perfbench/test_tracer.py probes it by this name
from .checkpoint import Checkpoint, Meta, load as load_checkpoint
from .procs import _Lease, _fork_width, _run_forked
from .surgery import apply_transform, plan_subset
from .tensor import GradTape, NonFiniteError, Tensor, no_grad
from .tokenizers import Vocabulary, decode, encode, get_vocab
from .transformer import ModelConfig


class DistillError(RuntimeError):
    pass


class InvalidConfigError(DistillError, ValueError):
    """A config that cannot run, found before training; the CLI exits 2."""


class DivergenceError(DistillError):
    """Training produced a non-finite loss; carries the failing step."""

    def __init__(self, step: int, detail: str):
        super().__init__(f"divergence at step {step}: {detail}")
        self.step = step
        self.detail = detail

    def __reduce__(self):
        return type(self), (self.step, self.detail)


LOSS_KINDS = ("reverse_kl", "forward_kl", "ce")


_NUMBER = (int, float)


def _check_types(config, kinds: tuple[type, ...], names: tuple[str, ...]) -> None:
    for name in names:
        value = getattr(config, name)
        if type(value) not in kinds:  # so a bool is not taken for an int or a float
            expected = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
            raise ValueError(f"{type(config).__name__}.{name} must be {expected}, got {value!r}")
        if type(value) is float and not math.isfinite(value):  # json.loads parses NaN and Infinity
            raise ValueError(f"{type(config).__name__}.{name} must be finite, got {value!r}")


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
        _check_types(self, (int,), ("steps", "batch", "seq_len", "seed", "sft_warm_epochs"))
        _check_types(self, (bool,), ("init_from_teacher",))
        _check_types(self, _NUMBER, ("lr", "temperature", "beta1", "beta2", "eps"))
        _check_types(self, (*_NUMBER, type(None)), ("grad_clip",))
        if self.steps < 0 or self.sft_warm_epochs < 0:
            raise ValueError("steps and sft_warm_epochs must be >= 0")
        if self.batch < 1 or self.seq_len < 2:
            raise ValueError("batch must be >= 1 and seq_len >= 2")
        if self.loss_kind not in LOSS_KINDS:
            raise ValueError(f"loss_kind must be one of {LOSS_KINDS}")
        if self.lr <= 0 or self.temperature <= 0:
            raise ValueError("lr and temperature must be positive")
        if not (0.0 <= self.beta1 < 1.0 and 0.0 <= self.beta2 < 1.0):
            raise ValueError("beta1 and beta2 must lie in [0, 1)")
        if not self.eps > 0:
            raise ValueError("eps must be positive")
        if self.grad_clip is not None and not self.grad_clip > 0:
            raise ValueError("grad_clip must be None or positive")

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
        _check_types(self, (int,), ("n_samples", "gen_max_len", "seed"))
        _check_types(self, _NUMBER, ("gen_temperature",))
        if self.source_tokenizer == self.bridge_tokenizer:
            raise ValueError("bridge requires two different tokenizers")
        if self.n_samples < 1:
            raise ValueError("n_samples must be >= 1")


# -- config checks: every rule the configs alone decide, run before any training ----


def check_edge(teacher_cfg: ModelConfig, student_cfg: ModelConfig, cfg: DistillConfig) -> None:
    """Raise InvalidConfigError unless distill_edge can run cfg from a teacher
    of teacher_cfg into student_cfg."""
    if teacher_cfg.vocab_size != student_cfg.vocab_size:
        raise InvalidConfigError(f"vocab_size of teacher {teacher_cfg.vocab_size} != student {student_cfg.vocab_size}")
    if cfg.seq_len > min(teacher_cfg.max_seq_len, student_cfg.max_seq_len):
        raise InvalidConfigError(f"seq_len {cfg.seq_len} exceeds a model's max_seq_len")
    if cfg.init_from_teacher and not M.structurally_le(student_cfg, teacher_cfg):
        raise InvalidConfigError("init_from_teacher needs a student nested in its teacher")


def check_chain(source_cfg: ModelConfig, anchors: list[ModelConfig], edges: list[DistillConfig]) -> None:
    """Raise InvalidConfigError unless run_stepwise_chain can run from a source
    of source_cfg: one edge per anchor, shrinking nested anchors, check_edge."""
    if not anchors or len(edges) != len(anchors):
        raise InvalidConfigError("a chain needs at least one anchor and one edge per anchor")
    for a, b in zip(anchors, anchors[1:]):
        if not (M.count_params(b) < M.count_params(a) and M.structurally_le(b, a)):
            raise InvalidConfigError("each anchor must nest in the one before it, with fewer parameters")
    for idx, (teacher_cfg, student_cfg, cfg) in enumerate(zip([source_cfg, *anchors], anchors, edges), start=1):
        try:
            check_edge(teacher_cfg, student_cfg, cfg)
        except InvalidConfigError as e:
            raise InvalidConfigError(f"edge {idx}: {e}") from None


def check_bridge(spec: BridgeSpec, source_cfg: ModelConfig, cfg: DistillConfig) -> None:
    """Raise InvalidConfigError unless run_bridge can sample from a source of
    source_cfg and train the bridge by cfg: tokenizers that fit both models,
    temperature > 0, prompt room, windows the bridge model can hold."""
    for what, name, config in (("source", spec.source_tokenizer, source_cfg),
                               ("bridge", spec.bridge_tokenizer, spec.bridge_config)):
        try:
            size = get_vocab(name).size
        except ValueError as e:
            raise InvalidConfigError(f"{what} tokenizer: {e}") from None
        if config.vocab_size != size:
            raise InvalidConfigError(f"{what} vocab_size {config.vocab_size} != tokenizer '{name}' ({size})")
    if not spec.gen_temperature > 0:
        raise InvalidConfigError(f"gen_temperature must be > 0, got {spec.gen_temperature!r}")
    if spec.gen_max_len >= source_cfg.max_seq_len:
        raise InvalidConfigError(f"gen_max_len {spec.gen_max_len} leaves no room for the prompt"
                                 f" within the source's max_seq_len {source_cfg.max_seq_len}")
    if cfg.seq_len > spec.bridge_config.max_seq_len:
        raise InvalidConfigError(f"seq_len {cfg.seq_len} exceeds the bridge's max_seq_len"
                                 f" {spec.bridge_config.max_seq_len}")


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


def reverse_kl_loss(student_logits: Tensor, teacher_logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked positions of sum_v S_v (ln S_v - ln T_v); the
    teacher side is detached so gradient reaches the student only."""
    mask = _check_logit_pair(student_logits, teacher_logits, mask)
    return T.masked_kl(student_logits, T._log_softmax(teacher_logits.data), mask, reverse=True)


def forward_kl_loss(student_logits: Tensor, teacher_logits: Tensor, mask: np.ndarray) -> Tensor:
    """Mean over unmasked positions of sum_v T_v (ln T_v - ln S_v)."""
    mask = _check_logit_pair(student_logits, teacher_logits, mask)
    return T.masked_kl(student_logits, T._log_softmax(teacher_logits.data), mask, reverse=False)


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
        # zeros on the first step only (setdefault would build them every step)
        m = state.m.get(name)
        if m is None:
            m = state.m[name] = np.zeros(p.shape, dtype=p.dtype)
        v = state.v.get(name)
        if v is None:
            v = state.v[name] = np.zeros(p.shape, dtype=p.dtype)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        denom = np.sqrt(v * (1.0 / bc2))
        denom += eps
        update = m / denom
        update *= lr / bc1
        try:
            out[name] = T.from_owned(p.data - update, requires_grad=True)
        except NonFiniteError:
            raise NonFiniteError("adam_step", f"the update of {name}") from None
    return out, state


def clip_global_norm(grads: dict[str, np.ndarray], max_norm: float) -> dict[str, np.ndarray]:
    squares = [float((g * g).sum()) for g in grads.values()]
    total = math.sqrt(sum(squares))
    if math.isnan(total):
        # only a NaN entry makes a sum of squares NaN; name the first such gradient
        name = next(name for name, sq in zip(grads, squares) if math.isnan(sq))
        raise NonFiniteError("clip_global_norm", f"the gradient of {name}")
    if total <= max_norm or total == 0.0:
        return grads
    scale = max_norm / total
    return {k: g * scale for k, g in grads.items()}


# -- training loop ------------------------------------------------------------------


def _score_group(teacher: Checkpoint, tokens: np.ndarray, inv_temperature: np.float32, rows: np.ndarray,
                 logp: np.ndarray) -> None:
    """Write the teacher log-probs at the temperature, log_softmax(logits / T),
    of the windows `rows` into those rows of `logp`, in one no-grad forward."""
    if len(rows) == 0:
        return
    with no_grad():
        logits = M.forward(teacher.config, teacher.params, tokens[rows]).data
    scaled = np.multiply(logits, inv_temperature)
    logp[rows] = T._log_softmax(scaled, out=scaled)


class _TeacherStream:
    """The KD batches of `draws` (row indices of `columns`, one array per
    step), each with a fourth column: the teacher's log-probs at the
    temperature, scored while the student trains on the batches before it.

    Group t is the rows that step t draws and no earlier step drew.  Each
    non-empty group is scored in one no-grad teacher forward into `logp`, a
    row per window; rows no step draws are never scored.  Leased producers,
    one per spare CPU, score the i-th non-empty group in producer i mod
    producers, in place in the lease's shared mapping, and a step waits only
    for its own group.  Once the last non-empty group is in, the producers
    go back to the pool, so training gets their CPUs and BLAS threads back.
    With no spare CPU, or no OpenBLAS thread setter, the caller scores each
    group itself just before its step.  Either way the groups, and so the
    bytes, depend on the draws alone."""

    def __init__(self, teacher: Checkpoint, columns: tuple[np.ndarray, ...], draws: list[np.ndarray],
                 temperature: float):
        tokens = columns[0]
        shape = (*tokens.shape, teacher.config.vocab_size)
        self._columns, self._draws = columns, draws
        drawn = np.zeros(len(tokens), dtype=bool)
        score = functools.partial(_score_group, teacher, tokens, np.float32(1.0 / temperature))
        self._scorers, self._group_at = [], {}  # the non-empty groups' scorers; step -> index among them
        for t, rows in enumerate(draws):
            group = rows[~drawn[rows]]  # a draw's rows are distinct: a slice of one permutation
            if len(group):
                drawn[group] = True
                self._group_at[t] = len(self._scorers)
                self._scorers.append(functools.partial(score, group))
        self._producers = _fork_width(len(self._scorers))
        self._lease = None
        if self._producers:
            self._lease = _Lease([self._scorers[j :: self._producers] for j in range(self._producers)],
                                 (shape, np.float32))
        self.logp = self._lease.shared if self._lease else np.zeros(shape, dtype=np.float32)

    def __iter__(self):
        for t, rows in enumerate(self._draws):
            i = self._group_at.get(t)
            if i is not None and self._lease is None:
                self._scorers[i](self.logp)
            elif i is not None:
                self._lease.result(i % self._producers)
                if i == len(self._scorers) - 1:
                    self.close()  # every group is in
            yield (*(column[rows] for column in self._columns), self.logp[rows])

    def close(self) -> None:
        """Give the producers back and restore the BLAS threads (see _Lease)."""
        if self._lease is not None:
            self._lease.close()
            self._lease = None


def ce_loss(logits: Tensor, batch: tuple) -> Tensor:
    """Masked next-token cross-entropy of a (tokens, targets, mask) batch."""
    return M.loss_ce(logits, batch[1], batch[2])


def _step(config: ModelConfig, params: M.ParamSet, batch: tuple, loss, cfg: DistillConfig,
          state: AdamState, step: int) -> tuple[M.ParamSet, float]:
    # its own frame, so the tape and its activations are freed at return
    # instead of surviving into the next step's forward.  Backward ops are
    # not checked for NaN/Inf: a non-finite gradient is caught where it is
    # used, by the clip's norm or by the check on Adam's new values.
    try:
        with GradTape() as tape:
            value = loss(M.forward(config, params, batch[0]), batch)
        tape.backward(value)
        grads = {}
        for name, p in params.items():
            if p.grad is not None:
                grads[name], p.grad = p.grad, None
        if cfg.grad_clip is not None:
            grads = clip_global_norm(grads, cfg.grad_clip)
        params, _ = adam_step(params, grads, state, cfg.lr, cfg.beta1, cfg.beta2, cfg.eps)
    except NonFiniteError as e:
        raise DivergenceError(step, str(e)) from e
    return params, float(value.data)


def fit(config: ModelConfig, params: M.ParamSet, batches, loss, cfg: DistillConfig,
        on_step=None) -> tuple[M.ParamSet, list[float]]:
    """The training loop: one clipped Adam step on `loss(logits, batch)` per
    batch, where batch[0] holds the input tokens, from a fresh Adam state.
    It trains its own wrappers of the arrays in `params` and never changes
    the caller's tensors.  Steps are numbered from 1 (a DivergenceError
    names the failing one); `on_step(step, params)` runs after each step."""
    params = {name: T._wrap(p.data, True) for name, p in params.items()}
    state = AdamState()
    losses = []
    for step, batch in enumerate(batches, 1):
        params, value = _step(config, params, batch, loss, cfg, state, step)
        losses.append(value)
        if on_step is not None:
            on_step(step, params)
    return params, losses


def _nll_sums(config: ModelConfig, params: M.ParamSet, batch: tuple) -> tuple[float, float]:
    """(sum of NLL over unmasked positions, count of unmasked positions) of
    one (tokens, targets, mask) batch, scored without a tape."""
    tokens, targets, mask = batch
    with no_grad():
        nll, _ = T._nll_rows(M.forward(config, params, tokens).data, targets)
    return float((nll * mask).sum()), float(mask.sum())


def _mean(sums) -> float:
    # added in batch order, so every caller gets the bytes of one serial pass
    total = 0.0
    count = 0.0
    for nll, n in sums:
        total += nll
        count += n
    if count == 0.0:
        raise DistillError("evaluation split has no unmasked positions")
    return total / count


def mean_nll(config: ModelConfig, params: M.ParamSet, batches) -> float:
    """Aggregate mean NLL per unmasked position over (tokens, targets, mask)
    batches, scored without a tape in this process."""
    return _mean(_nll_sums(config, params, batch) for batch in batches)


def eval_ce(config: ModelConfig, params: M.ParamSet, docs: list[str], vocab: Vocabulary,
            batch: int = 16, seq_len: int = 48) -> float:
    """mean_nll over every window of a split, its batches split across the
    spare CPUs (see procs._run_forked); the same bytes on any CPU count."""
    batches = D.in_order(D.token_windows(docs, vocab, seq_len), batch)
    return _mean(_run_forked([functools.partial(_nll_sums, config, params, b) for b in batches]))


def train_lm(config: ModelConfig, corpus: D.Corpus, vocab: Vocabulary, cfg: DistillConfig,
             name: str = "trained") -> Checkpoint:
    """Plain cross-entropy training from a random init (source recipes,
    rand baselines)."""
    stream = D.shuffled(D.token_windows(corpus.train_docs, vocab, cfg.seq_len), cfg.batch, cfg.seed)
    params, losses = fit(config, M.init_random(config, cfg.seed), islice(stream, cfg.steps), ce_loss, cfg)
    meta = Meta(name=name, seed=cfg.seed).child(f"trained:ce steps={cfg.steps} seed={cfg.seed}",
                                                step_count=cfg.steps)
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
    check_edge(teacher.config, student_config, cfg)
    if cfg.init_from_teacher:
        params = apply_transform(teacher, plan_subset(teacher.config, student_config)).params
        init_stage = "init=subset-of-teacher"
    else:
        params = M.init_random(student_config, cfg.seed)
        init_stage = "init=random"

    losses: list[float] = []
    n_sft = 0
    if cfg.steps > 0:
        columns = D.token_windows(corpus.train_docs, vocab, cfg.seq_len)
        reverse = cfg.loss_kind == "reverse_kl"

        def loss(logits: Tensor, batch: tuple) -> Tensor:
            # SFT batches and CE-kind KD batches carry no teacher column
            if len(batch) == 3:
                return ce_loss(logits, batch)
            return T.masked_kl(logits, batch[3], batch[2], reverse, cfg.temperature)

        # SFT warm-up is the stream's first sft_warm_epochs epochs; KD then
        # draws the same stream again from epoch 0, on the same Adam state
        n_sft = cfg.sft_warm_epochs * (len(columns[0]) // cfg.batch)
        sft = islice(D.shuffled(columns, cfg.batch, cfg.seed), n_sft)
        stream = None
        if cfg.loss_kind == "ce":
            kd = islice(D.shuffled(columns, cfg.batch, cfg.seed), cfg.steps)
        else:
            # the same draws, replayed on an index column, tell before the
            # first step which windows the teacher must score for each step
            index = (np.arange(len(columns[0])),)
            draws = [rows for (rows,) in islice(D.shuffled(index, cfg.batch, cfg.seed), cfg.steps)]
            kd = stream = _TeacherStream(teacher, columns, draws, cfg.temperature)
        try:
            params, losses = fit(student_config, params, chain(sft, kd), loss, cfg)
        finally:
            if stream is not None:
                stream.close()

    stage = (
        f"distilled-from:{teacher.meta.name} loss={cfg.loss_kind} steps={cfg.steps}"
        f" sft_epochs={cfg.sft_warm_epochs} temperature={cfg.temperature:g} {init_stage} seed={cfg.seed}"
    )
    meta = teacher.meta.child(stage, name=name, seed=cfg.seed, step_count=teacher.meta.step_count + len(losses))
    if n_sft:
        meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": "sft", "losses": losses[:n_sft]})
    meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": cfg.loss_kind, "losses": losses[n_sft:]})
    return Checkpoint(student_config, params, meta)


def run_stepwise_chain(source: Checkpoint, anchors: list[ModelConfig], edges: list[DistillConfig],
                       corpus: D.Corpus, vocab: Vocabulary) -> Iterator[Checkpoint]:
    """Check the chain, then distill each anchor from its predecessor (the
    first from `source`) and yield it as soon as its edge returns."""
    check_chain(source.config, anchors, edges)
    teacher = source
    for idx, (a_cfg, e_cfg) in enumerate(zip(anchors, edges), start=1):
        try:
            teacher = distill_edge(teacher, a_cfg, corpus, vocab, e_cfg, name=f"anchor-{idx}")
        except DistillError as e:
            raise DistillError(f"edge {idx} ({teacher.meta.name} -> anchor-{idx}) failed: {e}") from e
        yield teacher


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
    so a differently-tokenized student can re-encode them.  Prompts of one
    token length are sampled as one batch; the pairs keep the input order."""
    if not prompts:
        raise DistillError("seqkd_generate needs at least one prompt")
    seeds = np.random.SeedSequence(seed).generate_state(len(prompts))
    budget = teacher.config.max_seq_len - max_len
    if budget < 1:
        raise DistillError("gen_max_len leaves no room for the prompt")
    rows = [([teacher_vocab.bos] + encode(teacher_vocab, prompt))[:budget] for prompt in prompts]
    by_length: dict[int, list[int]] = {}
    for i, ids in enumerate(rows):
        by_length.setdefault(len(ids), []).append(i)
    completions: list[list[int]] = [[] for _ in rows]
    for length, group in by_length.items():
        out = M.sample(teacher.config, teacher.params, [rows[i] for i in group], temperature, max_len,
                       [seeds[i] for i in group], greedy)
        for i, row in zip(group, out):
            completions[i] = row[length:].tolist()
    pairs = []
    for ids, completion in zip(rows, completions):
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
    check_bridge(spec, source.config, cfg)
    src_vocab = get_vocab(spec.source_tokenizer)
    bridge_vocab = get_vocab(spec.bridge_tokenizer)
    docs = corpus.train_docs
    if not docs:
        raise DistillError("corpus has no training documents for prompts")
    prompts = [docs[i % len(docs)] for i in range(spec.n_samples)]
    pairs = seqkd_generate(source, src_vocab, prompts, spec.gen_temperature, spec.gen_max_len, spec.seed)
    columns = _pair_windows(pairs, bridge_vocab, cfg.seq_len)
    config = spec.bridge_config
    params = M.init_random(config, cfg.seed)
    ce_step0 = mean_nll(config, params, D.in_order(columns, cfg.batch))
    draws = D.shuffled(columns, min(cfg.batch, len(columns[0])), cfg.seed)
    params, losses = fit(config, params, islice(draws, cfg.steps), ce_loss, cfg)
    ce_final = mean_nll(config, params, D.in_order(columns, cfg.batch))

    stage = (
        f"bridged-from:{source.meta.name} tokenizers={spec.source_tokenizer}->{spec.bridge_tokenizer}"
        f" samples={spec.n_samples} steps={cfg.steps} ce0={ce_step0:.6f} ce={ce_final:.6f} seed={spec.seed}"
    )
    meta = source.meta.child(stage, name="anchor-0", seed=cfg.seed,
                             step_count=source.meta.step_count + cfg.steps)
    meta.loss_curves.append({"stage": len(meta.lineage) - 1, "kind": "seqkd-ce", "losses": losses,
                             "ce_step0": ce_step0, "ce_final": ce_final})
    return Checkpoint(config, params, meta)
