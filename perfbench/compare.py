"""Compare a parent result set with a change result set.

    python3 perfbench/compare.py PARENT_DIR [CHANGE_DIR]

Each directory holds the full records `run.py --results DIR` writes, one
per (workload, seed, trace mode).  For every (metric, workload) the tool
prints each side's median and quartiles, the share of seed-paired runs the
change won, and a verdict:

- improved: the change won at least 9/10 of the pairs (ties count for
  neither side) and its median is better than the parent's by more than the
  parent's interquartile range;
- worse: the change's median is worse than the parent's by more than the
  metric's bound (per-module metrics have no bound: there the mirror image of
  the "improved" rule applies);
- unresolved: the run-to-run spread (IQR / median) on either side exceeds
  the bound, unless every change run is better than every parent run;
- unchanged: none of the above.

With one directory it prints each side's spread only, which is how the
benchmark's own steadiness is checked.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import statistics
import sys

import schema

WIN_SHARE = 0.9


def load_records(directory: str) -> dict[tuple[str, int], dict[int, dict]]:
    """(workload, trace) -> seed -> record."""
    out: dict[tuple[str, int], dict[int, dict]] = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path, encoding="utf-8") as fh:
            rec = json.load(fh)
        if {"workload", "seed", "trace", "metrics"} <= set(rec):
            out.setdefault((rec["workload"], rec["trace"]), {})[rec["seed"]] = rec
    return out


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(med) if med else 0.0}


def verdict(parent: dict[int, float], change: dict[int, float], better: str, bound: float | None) -> dict:
    """Compare seed-keyed values of one (metric, workload)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = summarize(list(parent.values())), summarize(list(change.values()))
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    losses = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    gain = sign * (c["median"] - p["median"])  # > 0 means the change is better
    iqr = p["q3"] - p["q1"]
    all_better = all(sign * (cv - pv) > 0 for cv in change.values() for pv in parent.values())
    if seeds and wins >= WIN_SHARE * len(seeds) and gain > iqr:
        result = "improved"
    elif bound is not None and -gain > bound * abs(p["median"]):
        result = "worse"
    elif bound is None and seeds and losses >= WIN_SHARE * len(seeds) and -gain > iqr:
        result = "worse"
    elif bound is not None and max(p["spread"], c["spread"]) > bound and not all_better:
        result = "unresolved"
    else:
        result = "unchanged"
    return {"parent": p, "change": c, "pairs": len(seeds),
            "win_share": wins / len(seeds) if seeds else None, "verdict": result}


def compare(parent_dir: str, change_dir: str | None, spec: dict) -> list[dict]:
    parent = load_records(parent_dir)
    change = load_records(change_dir) if change_dir else {}
    rows = []
    for (workload, trace), p_recs in sorted(parent.items()):
        decl = schema.declared(spec, bool(trace))
        c_recs = change.get((workload, trace), {})
        for name, d in decl.items():
            pv = {s: r["metrics"][name]["value"] for s, r in p_recs.items() if name in r["metrics"]}
            if not pv:
                continue
            row = {"metric": name, "workload": workload, "trace": trace, "unit": d["unit"],
                   "better": d["better"], "bound": d.get("bound")}
            cv = {s: r["metrics"][name]["value"] for s, r in c_recs.items() if name in r["metrics"]}
            if cv:
                row.update(verdict(pv, cv, d["better"], d.get("bound")))
            else:
                row["parent"] = summarize(list(pv.values()))
            rows.append(row)
        failed = {side: sum(r["failed"] for r in recs.values()) for side, recs in (("parent", p_recs), ("change", c_recs))}
        if c_recs and failed["change"] > failed["parent"]:
            for row in rows:
                if row["workload"] == workload and row.get("verdict") == "improved":
                    row["verdict"] = "unresolved"  # a gain does not count when more operations fail
    return rows


def _fmt(s: dict) -> str:
    return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']} spread={s['spread']:.3f}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change", nargs="?")
    args = parser.parse_args(argv)
    rows = compare(args.parent, args.change, schema.load_spec())
    for row in rows:
        line = f"{row['workload']:<10} {row['metric']:<32} {row['unit']:<12} parent {_fmt(row['parent'])}"
        if "change" in row:
            share = row["win_share"]
            line += (f" | change {_fmt(row['change'])} | wins "
                     f"{'-' if share is None else f'{share:.2f}'} | {row['verdict']}")
        elif row["bound"] is not None and row["parent"]["spread"] > row["bound"] / 3:
            line += f" | spread above a third of the bound {row['bound']}"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
