"""Metrics, convergence tracking, and the comparison protocols.

Reports carry step-indexed loss curves plus scalar metrics and serialize
deterministically: curves to CSV with columns (run, step, loss), the scalar
summary to JSON with sorted keys.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import partial
from itertools import islice

import numpy as np

from . import data as D
from . import transformer as M
from .checkpoint import Checkpoint
from .distill import DistillConfig, _run_forked, ce_loss, eval_ce, fit, mean_nll
from .surgery import interpolate
from .tokenizers import Vocabulary
from .transformer import ModelConfig


class EvalError(RuntimeError):
    pass


Curve = list[tuple[int, float]]


@dataclass
class EvalReport:
    name: str
    curves: dict[str, Curve] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    steps_to_target: int | None = None
    speedup: float | None = None
    provenance: dict = field(default_factory=dict)

    def write_csv(self, path: str) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["run", "step", "loss"])
            for run in sorted(self.curves):
                for step, loss in sorted(self.curves[run]):
                    writer.writerow([run, step, repr(float(loss))])

    def write_json(self, path: str) -> None:
        payload = {
            "name": self.name,
            "metrics": self.metrics,
            "steps_to_target": self.steps_to_target,
            "speedup": self.speedup,
            "provenance": self.provenance,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")

    def summary(self) -> str:
        parts = [f"report {self.name}"]
        for k in sorted(self.metrics):
            parts.append(f"  {k} = {self.metrics[k]:.6g}")
        if self.steps_to_target is not None:
            parts.append(f"  steps_to_target = {self.steps_to_target}")
        if self.speedup is not None:
            parts.append(f"  speedup = {self.speedup:.4g}")
        return "\n".join(parts)


# -- scalar metrics -----------------------------------------------------------------


def perplexity(ckpt: Checkpoint, docs: list[str], vocab: Vocabulary,
               batch: int = 16, seq_len: int = 48) -> float:
    """exp of the aggregate mean NLL over every unmasked position."""
    if ckpt.config.vocab_size != vocab.size:
        raise EvalError(f"model vocab {ckpt.config.vocab_size} != tokenizer {vocab.size}")
    seq_len = min(seq_len, ckpt.config.max_seq_len)
    return math.exp(eval_ce(ckpt.config, ckpt.params, docs, vocab, batch, seq_len))


def _lcs_length(a: list, b: list) -> int:
    # one-row dynamic program
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[-1]))
        prev = cur
    return prev[-1]


def rouge_l(candidate: list, reference: list, beta: float = 1.0) -> float:
    """F-measure of LCS-based precision and recall; 0 when nothing matches."""
    if not reference:
        raise EvalError("rouge_l needs a nonempty reference")
    if not candidate:
        return 0.0
    lcs = _lcs_length(candidate, reference)
    if lcs == 0:
        return 0.0
    p = lcs / len(candidate)
    r = lcs / len(reference)
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


# -- convergence ---------------------------------------------------------------------


def steps_to_target(curve: Curve, target_loss: float) -> int | None:
    """First step whose loss is at or below the target; None if never."""
    if not curve:
        raise EvalError("empty curve")
    for step, loss in sorted(curve):
        if loss <= target_loss:
            return step
    return None


def speedup(curve_a: Curve, curve_b: Curve, target_loss: float) -> float:
    """steps_to_target(b) / steps_to_target(a).  A run already at target
    before its first step counts as reaching at step 1."""
    a = steps_to_target(curve_a, target_loss)
    b = steps_to_target(curve_b, target_loss)
    if a is None or b is None:
        missing = "a" if a is None else "b"
        raise EvalError(f"curve {missing} never reaches target {target_loss}")
    return max(b, 1) / max(a, 1)


def training_curves(ckpt: Checkpoint) -> EvalReport:
    """Export the loss curves a checkpoint accumulated during training."""
    curves: dict[str, Curve] = {}
    metrics: dict[str, float] = {}
    for record in ckpt.meta.loss_curves:
        label = f"stage{record.get('stage', 0)}-{record.get('kind', 'loss')}"
        losses = record.get("losses", [])
        curves[label] = [(i, float(v)) for i, v in enumerate(losses, start=1)]
        if losses:
            metrics[f"{label}_final"] = float(losses[-1])
    return EvalReport(
        name="training",
        curves=curves,
        metrics=metrics,
        provenance={"checkpoint": ckpt.meta.name, "lineage": list(ckpt.meta.lineage)},
    )


# -- protocols -----------------------------------------------------------------------


def _train_with_val_curve(
    ckpt: Checkpoint,
    train: D.Batch,
    val: D.Batch,
    cfg: DistillConfig,
    eval_every: int,
) -> tuple[Curve, list[float]]:
    """CE-train the checkpoint's parameters on the train windows, recording
    the val windows' loss at step 0, every `eval_every` steps and the last
    step, plus the per-step training losses."""
    config = ckpt.config
    val_curve: Curve = [(0, mean_nll(config, ckpt.params, D.in_order(val, cfg.batch)))]

    def record_val(step: int, params: M.ParamSet) -> None:
        if step % eval_every == 0 or step == cfg.steps:
            val_curve.append((step, mean_nll(config, params, D.in_order(val, cfg.batch))))

    stream = islice(D.shuffled(train, cfg.batch, cfg.seed), cfg.steps)
    _, train_losses = fit(config, ckpt.params, stream, ce_loss, cfg, on_step=record_val)
    return val_curve, train_losses


def compare_init(
    cbd: Checkpoint,
    rand: Checkpoint,
    corpus: D.Corpus,
    vocab: Vocabulary,
    cfg: DistillConfig,
    eval_every: int = 50,
) -> tuple[EvalReport, EvalReport]:
    """Train both initializations identically (same seeded batches) and
    report the two validation curves plus the step-zero gap."""
    if cbd.config != rand.config:
        raise EvalError("compare_init requires identical model configs")
    if eval_every < 1:
        raise ValueError(f"eval_every must be >= 1, got {eval_every}")
    train = D.token_windows(corpus.train_docs, vocab, cfg.seq_len)
    val = D.token_windows(corpus.val_docs, vocab, cfg.seq_len)
    arms = (("cbd", cbd), ("rand", rand))
    # the caller trains the cbd arm while a forked worker, where a second
    # CPU is allowed, trains the rand arm
    results = _run_forked([partial(_train_with_val_curve, ckpt, train, val, cfg, eval_every) for _, ckpt in arms])
    reports = []
    for (name, ckpt), (val_curve, train_losses) in zip(arms, results):
        tail = train_losses[-100:]
        metrics = {
            "step0_loss": val_curve[0][1],
            "final_loss": val_curve[-1][1],
            "train_tail_std": float(np.std(tail)) if tail else 0.0,
        }
        reports.append(
            EvalReport(
                name=name,
                curves={name: val_curve, f"{name}-train": list(enumerate(train_losses, 1))},
                metrics=metrics,
                provenance={"lineage": list(ckpt.meta.lineage), "seed": cfg.seed},
            )
        )
    gap = reports[1].metrics["step0_loss"] - reports[0].metrics["step0_loss"]
    for r in reports:
        r.metrics["step_zero_gap"] = gap
    return reports[0], reports[1]


def alpha_sweep(
    small: Checkpoint,
    large: Checkpoint,
    dst_config: ModelConfig,
    alphas: list[float],
    corpus: D.Corpus,
    vocab: Vocabulary,
    batch: int = 16,
    seq_len: int = 48,
) -> EvalReport:
    """Step-0 validation loss of the interpolated target per alpha (the small
    model expanded in copy mode)."""
    if not alphas:
        raise EvalError("alpha_sweep needs at least one alpha")
    val = D.token_windows(corpus.val_docs, vocab, min(seq_len, dst_config.max_seq_len))
    curves: dict[str, Curve] = {}
    losses = []
    for a in alphas:
        ckpt = interpolate(small, large, dst_config, a)
        loss = mean_nll(ckpt.config, ckpt.params, D.in_order(val, batch))
        curves[f"alpha={a:g}"] = [(0, loss)]
        losses.append((loss, a))
    best_loss, best_alpha = min(losses)
    metrics = {f"loss@alpha={a:g}": loss for loss, a in losses}
    metrics["argmin_alpha"] = best_alpha
    metrics["argmin_loss"] = best_loss
    return EvalReport(
        name="alpha-sweep",
        curves=curves,
        metrics=metrics,
        provenance={"small": small.meta.name, "large": large.meta.name,
                    "target": dst_config.to_dict(), "alphas": list(alphas)},
    )
