"""Schema tests for the benchmark declaration and its result JSON.

    python3 -m pytest perfbench/test_schema.py

These check names, units and directions only; they assert no timing.
"""

import json
import os
import re
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import compare  # noqa: E402
import schema  # noqa: E402
import tracer  # noqa: E402

SPEC = schema.load_spec()
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_declaration_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == ["kd_edge", "protocols", "bridge"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"]) and m["better"] in ("higher", "lower")
    setup = schema.declared(SPEC, trace=False)["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_per_layer_declaration_matches_the_tracer():
    produced = set(tracer.module_metrics(tracer.Tracer())) | {"proc.cpu_s", "trace.overhead_pct"}
    assert produced == set(schema.declared(SPEC, trace=True))


def _result(trace: bool, drop: str | None = None, unit: str | None = None) -> dict:
    metrics = {n: {"value": 1.5, "unit": d["unit"]} for n, d in schema.declared(SPEC, trace).items()}
    if drop:
        del metrics[drop]
    if unit:
        metrics["wall_s"]["unit"] = unit
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics}


def test_validator_accepts_and_rejects():
    assert schema.validate_result(_result(False), SPEC, trace=False) == []
    assert schema.validate_result(_result(True), SPEC, trace=True) == []
    assert any("wall_s is missing" in p for p in schema.validate_result(_result(False, drop="wall_s"), SPEC, False))
    assert any("unit" in p for p in schema.validate_result(_result(False, unit="ms"), SPEC, False))
    zero = _result(False)
    zero["metrics"]["val_ce"]["value"] = 0
    assert schema.validate_result(zero, SPEC, trace=False)


@pytest.mark.parametrize("trace", [0, 1])
def test_run_emits_every_declared_metric(tmp_path, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "bridge", "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=170, cwd=os.path.dirname(HERE),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert schema.validate_result(result, SPEC, bool(trace)) == []
    assert result["correct"] and result["failed"] == 0
    (record_path,) = tmp_path.glob("bridge-s3-trace*.json")
    record = json.loads(record_path.read_text())
    decl = schema.declared(SPEC, bool(trace))
    assert record["better"] == {n: d["better"] for n, d in decl.items()}
    env = record["environment"]
    assert {"cpu_count", "python", "numpy", "blas", "git_commit", "loadavg_at_start"} <= set(env)
    assert env["blas"]["pinned_env"]["OPENBLAS_NUM_THREADS"] == "1"
    assert re.fullmatch(r"[0-9a-f]{64}", record["hashes"]["bridge"])


def _records(tmp_path, side: str, values: list[float]):
    d = tmp_path / side
    d.mkdir()
    for seed, v in enumerate(values):
        rec = {"workload": "kd_edge", "seed": seed, "trace": 0, "failed": 0,
               "metrics": {"wall_s": {"value": v, "unit": "s"}}}
        (d / f"kd_edge-s{seed}-trace0.json").write_text(json.dumps(rec))
    return str(d)


PARENT = [float(v) for v in range(100, 110)]


@pytest.mark.parametrize("change, expected", [
    ([v * 0.8 for v in PARENT], "improved"),
    ([v * 1.3 for v in PARENT], "worse"),
    (PARENT, "unchanged"),
    ([80.0, 120.0] * 5, "unresolved"),
])
def test_compare_verdicts(tmp_path, change, expected):
    rows = compare.compare(_records(tmp_path, "parent", PARENT), _records(tmp_path, "change", change), SPEC)
    (row,) = [r for r in rows if r["metric"] == "wall_s"]
    assert row["verdict"] == expected
