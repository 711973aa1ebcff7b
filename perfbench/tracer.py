"""Span tracer that wraps chainkd's public functions from outside the package.

`Tracer.install()` replaces every public, non-generator function of the traced
modules with a timing wrapper, in every chainkd module that binds it (so
`eval_ce` is traced whether `distill` or `evaluate` calls it), and wraps
`GradTape.record` / `GradTape.backward` so each backward closure is timed
under its tape op name.  `uninstall()` puts every original object back.

Spans are kept in memory as (id, parent, name, start, end) tuples and only
aggregated or written out after the traced work ends.  The wrappers call the
original functions with the original arguments and return their results
unchanged, so tracing cannot alter what the program computes; the benchmark
checks that by comparing output checkpoint hashes with an untraced run.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import json
import os
import sys
import time
from collections import Counter, defaultdict

TRACED_MODULES = (
    "tensor", "transformer", "distill", "data", "tokenizers", "surgery", "evaluate", "checkpoint",
)

# tape op names (what GradTape.record receives) for tensor functions whose
# Python name differs, so forward and backward times share one key
TENSOR_OPS = {
    "linear": "linear", "matmul": "matmul", "softmax": "softmax", "log_softmax": "log_softmax",
    "layer_norm": "layer_norm", "gelu": "gelu", "embedding": "embedding", "gather_last": "gather",
    "add": "add", "sub": "sub", "mul": "mul", "exp": "exp", "reduce_sum": "sum",
    "reduce_mean": "mean", "reshape": "reshape", "transpose": "transpose",
}

# functions whose spans are split by whether their output joined the tape
_GRAD_SPLIT = {"transformer.forward"}

# metrics of work that only a workload's set-up does; the benchmark reads
# these from the traced set-up and every other metric from the traced run
SETUP_METRICS = ("data.gen_markov_ms",)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        from chainkd import tensor  # importing the package loads every submodule

        package = [m for n, m in sorted(sys.modules.items()) if n == "chainkd" or n.startswith("chainkd.")]
        for short in TRACED_MODULES:
            mod = sys.modules[f"chainkd.{short}"]
            for fname, fn in sorted(vars(mod).items()):
                if (fname.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrapper = self._wrap_function(short, fname, fn)
                for holder in package:
                    for attr, value in list(vars(holder).items()):
                        if value is fn:
                            self._patch(holder, attr, wrapper)
        self._patch(tensor.GradTape, "record", self._wrap_record(tensor.GradTape.record))
        self._patch(tensor.GradTape, "backward", self._wrap_span("tensor.backward", tensor.GradTape.backward))

    def uninstall(self) -> None:
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def _patch(self, holder, attr: str, replacement) -> None:
        self._patches.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, replacement)

    # -- wrappers -------------------------------------------------------------------

    def _wrap_span(self, name: str, fn, label=None):
        """Time `fn` as one span; `label(args, out)` may rename the span."""
        return functools.wraps(fn)(self._timed(name, fn, label))

    def _timed(self, name: str, fn, label=None):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            span_name = name
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                if label is not None:
                    span_name = label(args, out)
                return out
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, span_name, t0, t1))

        return wrapper

    def _wrap_function(self, module: str, fname: str, fn):
        if module == "tensor" and fname in TENSOR_OPS:
            op = TENSOR_OPS[fname]
            fwd, nograd = f"tensor.{op}.fwd", f"tensor.{op}.nograd"
            return self._wrap_span(fwd, fn, lambda args, out: fwd if out.requires_grad else nograd)
        name = f"{module}.{fname}"
        if name in _GRAD_SPLIT:
            nograd = f"{name}.nograd"
            return self._wrap_span(name, fn, lambda args, out: name if out.requires_grad else nograd)
        if name == "distill.clip_global_norm":
            counts = self.counts

            def clip_label(args, out):
                if out is not args[0]:
                    counts["distill.clip_fired"] += 1
                return name

            return self._wrap_span(name, fn, clip_label)
        if name == "checkpoint.save":
            counts = self.counts

            def save_label(args, out):
                counts["checkpoint.bytes"] += os.path.getsize(args[1])
                return name

            return self._wrap_span(name, fn, save_label)
        return self._wrap_span(name, fn)

    def _wrap_record(self, record):
        counts, timed = self.counts, self._timed
        names: dict[str, str] = {}

        @functools.wraps(record)
        def wrapper(tape, op, inputs, out, backward):
            counts["tensor.tape_entries"] += 1
            name = names.get(op)
            if name is None:
                name = names[op] = f"tensor.{op}.bwd"
            return record(tape, op, inputs, out, timed(name, backward))

        return wrapper

    # -- aggregation ----------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], Counter, dict[str, float]]:
        """Per span name: inclusive seconds, call count, and self seconds
        (duration minus the time covered by direct child spans)."""
        total: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += t1 - t0
        self_time: dict[str, float] = defaultdict(float)
        for sid, parent, name, t0, t1 in self.spans:
            self_time[name] += (t1 - t0) - child_time.get(sid, 0.0)
        return dict(total), calls, dict(self_time)

    def child_total(self, name: str, parent_name: str) -> float:
        """Seconds in spans called `name` whose parent span is `parent_name`."""
        parents = {sid for sid, _, n, _, _ in self.spans if n == parent_name}
        return sum(t1 - t0 for _, parent, n, t0, t1 in self.spans if n == name and parent in parents)

    def write(self, path: str) -> None:
        """All spans as gzipped JSON lines, times relative to the first span."""
        origin = min((s[3] for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1 in sorted(self.spans):
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0 - origin, "end": t1 - origin}) + "\n")


# metric -> (span name, "ms" for inclusive time or "calls" for the span count)
_SPAN_METRICS = {
    "tensor.backward_ms": ("tensor.backward", "ms"),
    "tensor.backward_calls": ("tensor.backward", "calls"),
    "transformer.forward_ms": ("transformer.forward", "ms"),
    "transformer.forward_calls": ("transformer.forward", "calls"),
    "transformer.forward_nograd_ms": ("transformer.forward.nograd", "ms"),
    "transformer.forward_nograd_calls": ("transformer.forward.nograd", "calls"),
    "transformer.loss_ce_ms": ("transformer.loss_ce", "ms"),
    "transformer.sample_ms": ("transformer.sample", "ms"),
    "transformer.sample_calls": ("transformer.sample", "calls"),
    "transformer.init_random_ms": ("transformer.init_random", "ms"),
    "distill.adam_ms": ("distill.adam_step", "ms"),
    "distill.adam_calls": ("distill.adam_step", "calls"),
    "distill.clip_ms": ("distill.clip_global_norm", "ms"),
    "distill.kd_loss_ms": ("distill.reverse_kl_loss", "ms"),
    "distill.eval_ce_ms": ("distill.eval_ce", "ms"),
    "distill.eval_ce_calls": ("distill.eval_ce", "calls"),
    "distill.seqkd_generate_ms": ("distill.seqkd_generate", "ms"),
    "distill.distill_edge_ms": ("distill.distill_edge", "ms"),
    "distill.train_lm_ms": ("distill.train_lm", "ms"),
    "distill.run_bridge_ms": ("distill.run_bridge", "ms"),
    "data.token_windows_ms": ("data.token_windows", "ms"),
    "data.token_windows_calls": ("data.token_windows", "calls"),
    "data.assemble_ms": ("data.assemble", "ms"),
    "data.assemble_calls": ("data.assemble", "calls"),
    "data.gen_markov_ms": ("data.gen_markov", "ms"),
    "tokenizers.encode_ms": ("tokenizers.encode", "ms"),
    "tokenizers.encode_calls": ("tokenizers.encode", "calls"),
    "tokenizers.decode_ms": ("tokenizers.decode", "ms"),
    "surgery.apply_transform_ms": ("surgery.apply_transform", "ms"),
    "surgery.apply_transform_calls": ("surgery.apply_transform", "calls"),
    "surgery.interpolate_ms": ("surgery.interpolate", "ms"),
    "evaluate.compare_init_ms": ("evaluate.compare_init", "ms"),
    "evaluate.alpha_sweep_ms": ("evaluate.alpha_sweep", "ms"),
    "evaluate.perplexity_ms": ("evaluate.perplexity", "ms"),
    "checkpoint.save_ms": ("checkpoint.save", "ms"),
    "checkpoint.load_ms": ("checkpoint.load", "ms"),
}


def module_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-module metrics of one traced execution (times in ms)."""
    total, calls, _ = tracer.totals()
    out: dict[str, float] = {}
    for op in TENSOR_OPS.values():
        for kind in ("fwd", "nograd", "bwd"):
            out[f"tensor.{op}.{kind}_ms"] = 1000.0 * total.get(f"tensor.{op}.{kind}", 0.0)
        out[f"tensor.{op}.calls"] = calls[f"tensor.{op}.fwd"] + calls[f"tensor.{op}.nograd"]
    for metric, (span, kind) in _SPAN_METRICS.items():
        out[metric] = 1000.0 * total.get(span, 0.0) if kind == "ms" else calls[span]
    # the teacher-logit cache is the no-grad forwards run directly by distill_edge
    out["distill.teacher_cache_ms"] = 1000.0 * tracer.child_total("transformer.forward.nograd",
                                                                  "distill.distill_edge")
    for counter in ("tensor.tape_entries", "distill.clip_fired", "checkpoint.bytes"):
        out[counter] = tracer.counts[counter]
    return out
