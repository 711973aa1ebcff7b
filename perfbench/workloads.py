"""The three seeded workloads, driven only through chainkd's public entry points.

Each workload has a `setup(seed, ops)` that generates the corpus and trains
the models the run needs, and a `run(state, ops, workdir, seed)` that performs one
closed-loop batch job on them and returns its quality and throughput figures
plus the checkpoints it produced.  Every library call goes through
`Ops.call`, which counts it as one operation and fails it if it raises or
its output fails the stage's check.

The workload seed fixes the Markov corpus and every model seed, so equal
seeds give equal inputs and, the program being deterministic, equal outputs.
"""

from __future__ import annotations

import contextlib
import math
import time
from dataclasses import dataclass, field

from chainkd import checkpoint as C
from chainkd import data as D
from chainkd import distill as K
from chainkd import evaluate as E
from chainkd import surgery as S
from chainkd import transformer as M
from chainkd.checkpoint import Checkpoint, Meta
from chainkd.distill import BridgeSpec, DistillConfig
from chainkd.tokenizers import byte_vocab, char_vocab
from chainkd.transformer import ModelConfig

CHAR = char_vocab()
BYTE = byte_vocab()


def _cfg(layers: int, heads: int, d_model: int, d_ff: int, vocab: int = 100) -> ModelConfig:
    return ModelConfig(layers, heads, 16, d_model, d_ff, vocab, 64)


# the acceptance chain's shapes
TEACHER_CFG = _cfg(6, 6, 96, 384)
A1_CFG = _cfg(4, 4, 64, 256)
A2_CFG = _cfg(2, 2, 32, 128)
TARGET_CFG = _cfg(3, 3, 48, 192)
SWEEP_CFG = _cfg(2, 2, 32, 160)
ALPHAS = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
BYTE_SRC_CFG = _cfg(2, 2, 32, 128, vocab=BYTE.size)
BRIDGE_CFG = _cfg(2, 2, 32, 128, vocab=CHAR.size)

BATCH = 8
SEQ_LEN = 48

# setup training: just enough that the models' logits are far from uniform
TEACHER_STEPS = 20
ANCHOR_STEPS = 30
BYTE_SRC_STEPS = 120
SETUP_LR = 3e-3

# run sizes
KD_STEPS = 100
INTERP_REPEATS = 10
COMPARE_STEPS = 40
COMPARE_EVAL_EVERY = 20
BRIDGE_SAMPLES = 40
BRIDGE_GEN_LEN = 32
BRIDGE_STEPS = 30


class StageFailed(RuntimeError):
    """A stage raised or its output failed a check; the run cannot go on."""


class Ops:
    """Operation accounting: every stage call is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, stage: str, fn, *args, check=None, **kwargs):
        """Run one stage; returns (output, seconds).  `check(output)` returns
        None when the output is acceptable, else a description of the fault."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as e:  # a failing stage is recorded, then ends the run
            self._fail(f"{stage}: {type(e).__name__}: {e}")
        seconds = time.perf_counter() - t0
        problem = check(out) if check is not None else None
        if problem:
            self._fail(f"{stage}: {problem}")
        return out, seconds

    def verify(self, what: str, ok: bool, detail: str = "") -> None:
        """A check on the run as a whole (e.g. output identity), counted as
        one operation."""
        self.attempted += 1
        if not ok:
            self._fail(f"{what}: {detail}")

    def _fail(self, message: str):
        self.failed += 1
        self.errors.append(message)
        raise StageFailed(message)


@dataclass
class Rep:
    metrics: dict[str, float]
    outputs: dict[str, Checkpoint]
    reports: dict[str, object] = field(default_factory=dict)


# -- shared pieces ------------------------------------------------------------------------


def make_corpus(seed: int, ops: Ops) -> D.Corpus:
    corpus, _ = ops.call("gen_markov", D.gen_markov, seed, n_docs=300, doc_len=120, order=2, alphabet="abcdefgh")
    return corpus


def _train_cfg(steps: int, seed: int, lr: float) -> DistillConfig:
    return DistillConfig(steps=steps, batch=BATCH, seq_len=SEQ_LEN, lr=lr, seed=seed,
                         loss_kind="ce", sft_warm_epochs=0)


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def _losses_finite(ckpt: Checkpoint) -> str | None:
    for record in ckpt.meta.loss_curves:
        if not _finite(record.get("losses", [])):
            return f"non-finite loss in the {record.get('kind')} record"
    return None


def _below_uniform(vocab_size: int):
    bound = math.log(vocab_size)

    def check(value: float) -> str | None:
        if not math.isfinite(value) or value >= bound:
            return f"val CE {value} is not below ln({vocab_size}) = {bound:.4f}"
        return None

    return check


def _equal_to(expected: Checkpoint):
    def check(loaded: Checkpoint) -> str | None:
        return None if C.checkpoints_equal(loaded, expected) else "checkpoint loaded back differs from the one saved"

    return check


def _validates(ckpt: Checkpoint) -> str | None:
    try:
        ckpt.validate()
    except Exception as e:
        return f"interpolated target does not validate: {e}"
    return None


def val_positions(corpus: D.Corpus) -> int:
    """Scored (unmasked) positions in one pass over the val split: each
    document is BOS + one id per character + EOS, and every target but PAD
    is scored."""
    return sum(len(doc) + 1 for doc in corpus.val_docs)


def _seed(seed: int, k: int) -> int:
    return 1000 * seed + k


# -- kd_edge ---------------------------------------------------------------------------------


def kd_edge_setup(seed: int, ops: Ops) -> dict:
    corpus = make_corpus(seed, ops)
    teacher, _ = ops.call("train_lm", K.train_lm, TEACHER_CFG, corpus, CHAR,
                          _train_cfg(TEACHER_STEPS, _seed(seed, 1), SETUP_LR), name="teacher",
                          check=_losses_finite)
    return {"corpus": corpus, "teacher": teacher}


def kd_edge_run(state: dict, ops: Ops, workdir: str, seed: int) -> Rep:
    corpus, teacher = state["corpus"], state["teacher"]
    cfg = DistillConfig(steps=KD_STEPS, batch=BATCH, seq_len=SEQ_LEN, lr=1e-3, seed=_seed(seed, 2),
                        loss_kind="reverse_kl", sft_warm_epochs=0)
    student, t_kd = ops.call("distill_edge", K.distill_edge, teacher, A1_CFG, corpus, CHAR, cfg,
                             name="anchor-1", check=_losses_finite)
    val, t_eval = ops.call("eval_ce", K.eval_ce, A1_CFG, student.params, corpus.val_docs, CHAR,
                           check=_below_uniform(CHAR.size))
    teacher_val, t_teacher_eval = ops.call("eval_ce", K.eval_ce, TEACHER_CFG, teacher.params, corpus.val_docs,
                                           CHAR, check=_below_uniform(CHAR.size))
    return Rep(
        metrics={
            "train_tok_s": KD_STEPS * BATCH * SEQ_LEN / t_kd,
            "eval_tok_s": 2 * val_positions(corpus) / (t_eval + t_teacher_eval),
            "val_ce": val,
            "loss_ratio": val / teacher_val,
        },
        outputs={"student": student},
    )


# -- protocols -------------------------------------------------------------------------------


def protocols_setup(seed: int, ops: Ops) -> dict:
    corpus = make_corpus(seed, ops)
    large, _ = ops.call("train_lm", K.train_lm, A1_CFG, corpus, CHAR,
                        _train_cfg(ANCHOR_STEPS, _seed(seed, 1), SETUP_LR), name="anchor-1",
                        check=_losses_finite)
    small, _ = ops.call("train_lm", K.train_lm, A2_CFG, corpus, CHAR,
                        _train_cfg(ANCHOR_STEPS, _seed(seed, 2), SETUP_LR), name="anchor-2",
                        check=_losses_finite)
    return {"corpus": corpus, "large": large, "small": small}


def _reports_ok(reports) -> str | None:
    for r in reports:
        for name, curve in r.curves.items():
            if not _finite(loss for _, loss in curve):
                return f"non-finite loss in curve {name}"
    return _below_uniform(CHAR.size)(reports[0].metrics["final_loss"])


def _sweep_ok(report) -> str | None:
    return None if _finite(report.metrics.values()) else "non-finite alpha-sweep loss"


def _ppl_ok(value: float) -> str | None:
    return None if math.isfinite(value) and value >= 1.0 else f"perplexity {value} is not a finite value >= 1"


def protocols_run(state: dict, ops: Ops, workdir: str, seed: int) -> Rep:
    corpus = state["corpus"]
    # the CLI persists anchors between `chain` and `interpolate`
    loaded = {}
    for role in ("large", "small"):
        path = f"{workdir}/{role}.cbdc"
        ops.call("save", C.save, state[role], path)
        loaded[role], _ = ops.call("load", C.load, path, check=_equal_to(state[role]))
    small, large = loaded["small"], loaded["large"]

    alpha = S.default_alpha(M.count_params(A2_CFG), M.count_params(A1_CFG), M.count_params(TARGET_CFG))
    for _ in range(INTERP_REPEATS):
        cbd, _ = ops.call("interpolate", S.interpolate, small, large, TARGET_CFG, alpha, check=_validates)
    target_path = f"{workdir}/target.cbdc"
    ops.call("save", C.save, cbd, target_path)
    ops.call("load", C.load, target_path, check=_equal_to(cbd))

    rand_params, _ = ops.call("init_random", M.init_random, TARGET_CFG, _seed(seed, 3))
    rand = Checkpoint(TARGET_CFG, rand_params, Meta(name="rand", seed=_seed(seed, 3)))
    cmp_cfg = DistillConfig(steps=COMPARE_STEPS, batch=BATCH, seq_len=SEQ_LEN, lr=3e-4, seed=_seed(seed, 4),
                            sft_warm_epochs=0)
    (cbd_report, rand_report), t_cmp = ops.call(
        "compare_init", E.compare_init, cbd, rand, corpus, CHAR, cmp_cfg,
        eval_every=COMPARE_EVAL_EVERY, check=_reports_ok)
    sweep, t_sweep = ops.call("alpha_sweep", E.alpha_sweep, small, large, SWEEP_CFG, ALPHAS, corpus, CHAR,
                              batch=16, seq_len=SEQ_LEN, check=_sweep_ok)
    _, t_ppl = ops.call("perplexity", E.perplexity, cbd, corpus.val_docs, CHAR, check=_ppl_ok)
    return Rep(
        metrics={
            "train_tok_s": 2 * COMPARE_STEPS * BATCH * SEQ_LEN / t_cmp,
            "eval_tok_s": (len(ALPHAS) + 1) * val_positions(corpus) / (t_sweep + t_ppl),
            "val_ce": cbd_report.metrics["final_loss"],
            "loss_ratio": cbd_report.metrics["step0_loss"] / rand_report.metrics["step0_loss"],
        },
        outputs={"target": cbd},
        reports={"cbd": cbd_report, "rand": rand_report, "sweep": sweep},
    )


# -- bridge ----------------------------------------------------------------------------------


def bridge_setup(seed: int, ops: Ops) -> dict:
    corpus = make_corpus(seed, ops)
    source, _ = ops.call("train_lm", K.train_lm, BYTE_SRC_CFG, corpus, BYTE,
                         _train_cfg(BYTE_SRC_STEPS, _seed(seed, 1), SETUP_LR), name="byte-source",
                         check=_losses_finite)
    return {"corpus": corpus, "source": source}


@contextlib.contextmanager
def _timed_binding(module, name: str, seconds: list[float]):
    """Append the duration of every call to `module.name` made inside the
    block to `seconds`.  Arguments and results pass through unchanged, and
    the original binding is put back afterwards."""
    original = getattr(module, name)

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            seconds.append(time.perf_counter() - t0)

    setattr(module, name, timed)
    try:
        yield
    finally:
        setattr(module, name, original)


def _bridge_ok(ckpt: Checkpoint) -> str | None:
    record = ckpt.meta.loss_curves[-1]
    problem = _losses_finite(ckpt)
    if problem:
        return problem
    ce0, ce1 = record["ce_step0"], record["ce_final"]
    if not (_finite((ce0, ce1)) and ce1 < ce0):
        return f"bridge CE did not fall: ce_step0={ce0} ce_final={ce1}"
    return None


def bridge_run(state: dict, ops: Ops, workdir: str, seed: int) -> Rep:
    corpus, source = state["corpus"], state["source"]
    spec = BridgeSpec(source_tokenizer="byte", bridge_tokenizer="char", bridge_config=BRIDGE_CFG,
                      n_samples=BRIDGE_SAMPLES, gen_temperature=1.0, gen_max_len=BRIDGE_GEN_LEN,
                      seed=_seed(seed, 2))
    # run_bridge samples first and trains second; timing its sampling call
    # separates the CE phase, which train_tok_s measures
    sampling: list[float] = []
    with _timed_binding(K, "seqkd_generate", sampling):
        bridge, t_bridge = ops.call("run_bridge", K.run_bridge, spec, source, corpus,
                                    _train_cfg(BRIDGE_STEPS, _seed(seed, 3), SETUP_LR), check=_bridge_ok)
    val, t_eval = ops.call("eval_ce", K.eval_ce, BRIDGE_CFG, bridge.params, corpus.val_docs, CHAR,
                           check=lambda v: None if math.isfinite(v) else f"val CE {v} is not finite")
    record = bridge.meta.loss_curves[-1]
    return Rep(
        metrics={
            "train_tok_s": BRIDGE_STEPS * BATCH * SEQ_LEN / (t_bridge - sum(sampling)),
            "eval_tok_s": val_positions(corpus) / t_eval,
            "val_ce": val,
            "loss_ratio": record["ce_final"] / record["ce_step0"],
        },
        outputs={"bridge": bridge},
    )


WORKLOADS = {
    "kd_edge": (kd_edge_setup, kd_edge_run),
    "protocols": (protocols_setup, protocols_run),
    "bridge": (bridge_setup, bridge_run),
}
