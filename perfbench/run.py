"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload kd_edge --seed 1 --seconds 25 --trace 0

With `--trace 0` the run sets the workload up several times (reporting the
median set-up time), then repeats the workload's run for `--seconds` and
reports the end-to-end metrics as medians over the repeats.  With
`--trace 1` it alternates untraced and traced executions (set-up plus run)
for `--seconds` and reports the per-module metrics of the traced runs.
Either way it checks every output, writes a full record (environment,
output hashes, samples) under `.perfbench/results/`, and prints
`{"correct", "attempted", "failed", "metrics"}` as the final line.  The exit
code is 0 only for a correct run.
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy can load: the workloads measure the
# program's own single-process speed, and multi-threaded BLAS on a shared
# machine is both slower for these sizes and far noisier.
BLAS_PIN = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
STATE_DIR = os.path.join(ROOT, ".perfbench")
SETUP_REPEATS = 3


def _import_program():
    """Import chainkd from this checkout's sources, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "chainkd", "__init__.py")):
        raise SystemExit(f"perfbench: no chainkd sources under {src}")
    sys.path.insert(0, src)
    import chainkd

    if os.path.dirname(os.path.dirname(os.path.abspath(chainkd.__file__))) != src:
        raise SystemExit(f"perfbench: chainkd imported from {chainkd.__file__}, not from {src}")


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return None


def _blas_info(np) -> dict:
    info: dict = {"pinned_env": dict(BLAS_PIN)}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"),
                    config=blas.get("openblas configuration"))
    except (TypeError, KeyError):  # numpy without the dict form of show_config
        pass
    # ask the loaded OpenBLAS how many threads it will use
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = fn()
                return info
    info["threads"] = None
    return info


def environment(np, loadavg) -> dict:
    import platform

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
        "git_commit": _git_commit(),
        "loadavg_at_start": list(loadavg),
    }


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _digest(checkpoints: dict, reports: dict, workdir: str) -> dict[str, str]:
    """sha256 of every checkpoint (saved in the CBDC format) and of the
    canonical JSON of every report."""
    from chainkd import checkpoint as C

    hashes = {}
    for name, ckpt in sorted(checkpoints.items()):
        path = os.path.join(workdir, "digest.cbdc")
        C.save(ckpt, path)
        with open(path, "rb") as fh:
            hashes[name] = hashlib.sha256(fh.read()).hexdigest()
        os.remove(path)
    for name, report in sorted(reports.items()):
        payload = {"curves": report.curves, "metrics": report.metrics}
        hashes[f"report:{name}"] = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return hashes


def _setup_digest(state: dict, workdir: str) -> dict[str, str]:
    from chainkd.checkpoint import Checkpoint

    return _digest({f"setup:{k}": v for k, v in state.items() if isinstance(v, Checkpoint)}, {}, workdir)


def _rep_digest(rep, workdir: str) -> dict[str, str]:
    return _digest(rep.outputs, rep.reports, workdir)


def measure(workload: str, seed: int, seconds: float, ops, workdir: str) -> tuple[dict, dict]:
    """Untraced: end-to-end metrics as medians over set-ups and repeats."""
    import workloads as W

    setup, run = W.WORKLOADS[workload]
    setup_s, setup_hashes = [], None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        state = setup(seed, ops)
        setup_s.append(time.perf_counter() - t0)
        hashes = _setup_digest(state, workdir)
        setup_hashes = setup_hashes or hashes
        ops.verify("set-up determinism", hashes == setup_hashes, "a repeated set-up produced different models")
    reps, walls, reference = [], [], None
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rep = run(state, ops, workdir, seed)
        walls.append(time.perf_counter() - t0)
        hashes = _rep_digest(rep, workdir)
        reference = reference or hashes
        ops.verify("rerun determinism", hashes == reference, "a repeat produced different outputs")
        reps.append(rep)
        if time.perf_counter() - start + walls[-1] > seconds:
            break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": rss_kb / 1024.0,
    }
    for name in reps[0].metrics:
        metrics[name] = statistics.median(r.metrics[name] for r in reps)
    record = {"hashes": {**setup_hashes, **reference}, "samples": {"setup_s": setup_s, "wall_s": walls,
              **{k: [r.metrics[k] for r in reps] for k in reps[0].metrics}}}
    return metrics, record


def measure_traced(workload: str, seed: int, seconds: float, ops, workdir: str, spans_path: str):
    """Traced: alternate untraced and traced executions (set-up plus run);
    per-module metrics are medians over the traced ones.  Set-up and run are
    traced separately: the per-module metrics describe the run, apart from
    `tracer.SETUP_METRICS`, which only set-up exercises."""
    import tracer as TR
    import workloads as W

    setup, run = W.WORKLOADS[workload]

    def execute(setup_tracer=None, run_tracer=None):
        with setup_tracer or contextlib.nullcontext():
            state = setup(seed, ops)
        with run_tracer or contextlib.nullcontext():
            t0, cpu0 = time.perf_counter(), _cpu_seconds()
            rep = run(state, ops, workdir, seed)
            wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        return wall, cpu, state, rep

    def digest(state, rep):  # outside the traced region, so its saves are not counted
        return {**_setup_digest(state, workdir), **_rep_digest(rep, workdir)}

    per_run, overheads, self_ms, reference = [], [], None, None
    start = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        wall_untraced, _, state, rep = execute()
        hashes = digest(state, rep)
        reference = reference or hashes
        ops.verify("rerun determinism", hashes == reference, "an untraced repeat produced different outputs")
        tracers = {"setup": TR.Tracer(), "run": TR.Tracer()}
        wall_traced, cpu, state, rep = execute(tracers["setup"], tracers["run"])
        traced_hashes = digest(state, rep)
        ops.verify("tracing leaves outputs unchanged", traced_hashes == reference,
                   "traced outputs differ from untraced outputs")
        metrics = TR.module_metrics(tracers["run"])
        setup_metrics = TR.module_metrics(tracers["setup"])
        metrics.update({k: setup_metrics[k] for k in TR.SETUP_METRICS})
        metrics["proc.cpu_s"] = cpu
        metrics["trace.overhead_pct"] = 100.0 * (wall_traced / wall_untraced - 1.0)
        per_run.append(metrics)
        overheads.append((wall_untraced, wall_traced))
        if self_ms is None:
            self_ms = {phase: {k: 1000.0 * v for k, v in sorted(tr.totals()[2].items())}
                       for phase, tr in tracers.items()}
            tracers["run"].write(spans_path)
        if time.perf_counter() - start + (time.perf_counter() - t_pair) > seconds:
            break
    metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
    record = {"hashes": reference, "self_ms": self_ms, "spans_file": os.path.relpath(spans_path, ROOT),
              "samples": {"wall_untraced_s": [u for u, _ in overheads], "wall_traced_s": [t for _, t in overheads]}}
    return metrics, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results", default=os.path.join(STATE_DIR, "results"),
                        help="directory for the full result record")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    loadavg = os.getloadavg()
    import schema

    try:
        spec = schema.load_spec()
    except OSError as e:
        raise SystemExit(f"perfbench: cannot read the benchmark declaration: {e}")
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    _import_program()
    import numpy as np

    import workloads as W

    trace = bool(args.trace)
    ops = W.Ops()
    metrics, record = {}, {}
    os.makedirs(STATE_DIR, exist_ok=True)
    os.makedirs(args.results, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(dir=STATE_DIR) as workdir:
        try:
            if trace:
                spans_path = os.path.join(args.results, f"{stem}.spans.jsonl.gz")
                metrics, record = measure_traced(args.workload, args.seed, args.seconds, ops, workdir, spans_path)
            else:
                metrics, record = measure(args.workload, args.seed, args.seconds, ops, workdir)
        except W.StageFailed:
            metrics = {}

    units = {name: d["unit"] for name, d in schema.declared(spec, trace).items()}
    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": units.get(k, "?")} for k, v in sorted(metrics.items())},
    }
    if result["correct"]:
        problems = schema.validate_result(result, spec, trace)
        if problems:
            raise SystemExit("perfbench: result does not meet the declared schema: " + "; ".join(problems))
    better = {name: d["better"] for name, d in schema.declared(spec, trace).items()}
    full = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        **result, "errors": ops.errors,
        "better": better, "environment": environment(np, loadavg), **record,
    }
    with open(os.path.join(args.results, f"{stem}.json"), "w", encoding="utf-8") as fh:
        json.dump(full, fh, indent=1, sort_keys=True)
        fh.write("\n")
    for line in ops.errors:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
