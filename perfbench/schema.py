"""The benchmark's metric declarations (BENCHMARK.json) and the result checks
that hold every run to them."""

from __future__ import annotations

import json
import math
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC_PATH = os.path.join(ROOT, "BENCHMARK.json")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def load_spec(path: str = SPEC_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def declared(spec: dict, trace: bool) -> dict[str, dict]:
    """name -> declaration for the metrics a run in this mode must report."""
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def validate_result(result: dict, spec: dict, trace: bool) -> list[str]:
    """Problems with a result line; empty when it meets the schema."""
    problems = []
    if set(result) != RESULT_KEYS:
        problems.append(f"result keys {sorted(result)} != {sorted(RESULT_KEYS)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(f"{key} is not a non-negative whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    want = declared(spec, trace)
    got = result["metrics"]
    for name in sorted(set(want) - set(got)):
        problems.append(f"metric {name} is missing")
    for name in sorted(set(got) - set(want)):
        problems.append(f"metric {name} is not declared")
    for name in sorted(set(want) & set(got)):
        entry = got[name]
        if set(entry) != {"value", "unit"}:
            problems.append(f"metric {name} has keys {sorted(entry)}")
            continue
        if entry["unit"] != want[name]["unit"]:
            problems.append(f"metric {name} unit {entry['unit']!r} != {want[name]['unit']!r}")
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"metric {name} value {value!r} is not a finite number")
        elif not trace and value == 0:
            problems.append(f"end-to-end metric {name} is 0")
    return problems
