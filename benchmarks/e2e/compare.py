"""Compare two result sets of the end-to-end benchmark.

    python3 benchmarks/e2e/compare.py A B

``A`` (the parent, or the first set) and ``B`` (the change, or the
second set) are each a record written by ``run.py --out``, a directory
of such records, or ``RECORD.json#NAME`` for a named set inside a
baseline record such as ``records/baseline-2vcpu.json#a``. Each record
is one run; its value for a metric is the run's median.

For each (workload, end-to-end metric) it prints both sets' median,
quartiles and count, the change of the median, and a verdict under the
rule of the choosing-metrics guide, with the bounds of
``BENCHMARK.json``. With two or more runs a side, the statistics are
over the runs; with one, over that run's repetitions.

* ``better``: B's run wins at least nine tenths of the run pairs
  (A's i-th run against B's i-th; ties count for neither; at least ten
  pairs, which should have been run alternately) and the medians differ
  by more than A's quartile spread;
* ``unresolved``: either side's quartile spread, as a share of its
  median, is wider than the bound, and not every B value is better
  than every A value;
* ``worse``: B's median is worse than A's by more than the bound;
* ``unchanged``: otherwise.

Repetitions within one run share the machine's state at that moment,
so they are never paired: on a shared machine two runs of the same
code minutes apart can differ by 20%.

Exits 1 if any pair is ``worse``, else 0.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from stats import quartiles

ROOT = Path(__file__).resolve().parents[2]

#: A pair is only called better with at least this many pairs.
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_set(spec: str) -> Dict[str, Dict[str, dict]]:
    """``{workload: {metric: {"runs": [...], "samples": [...]}}}``:
    each run's median, and every repetition pooled."""
    path, _, name = spec.partition("#")
    source = Path(path)
    if source.is_dir():
        records = [json.loads(p.read_text("utf-8"))
                   for p in sorted(source.glob("*.json"))]
    else:
        data = json.loads(source.read_text("utf-8"))
        if name:
            data = data["sets"][name]
        records = data if isinstance(data, list) else [data]
    values: Dict[str, Dict[str, dict]] = {}
    for record in records:
        if record.get("trace"):
            continue  # per-layer values carry no bound to judge by
        for workload, result in record["workloads"].items():
            for metric, summary in result["metrics"].items():
                entry = values.setdefault(workload, {}).setdefault(
                    metric, {"runs": [], "samples": []}
                )
                entry["runs"].append(summary["value"])
                entry["samples"].extend(summary["samples"])
    return values


def _values(entry: dict) -> List[float]:
    """Run medians when there are several runs, else the one run's
    repetitions."""
    return entry["runs"] if len(entry["runs"]) >= 2 else entry["samples"]


def _better(a: float, b: float, lower: bool) -> bool:
    return b < a if lower else b > a


def verdict(a_entry: dict, b_entry: dict, bound: float,
            lower: bool) -> str:
    a, b = _values(a_entry), _values(b_entry)
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    pairs = list(zip(a_entry["runs"], b_entry["runs"]))
    wins = sum(_better(x, y, lower) for x, y in pairs)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and abs(b_med - a_med) > a_q3 - a_q1):
        return "better"
    spread = max(
        (a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
        (b_q3 - b_q1) / abs(b_med) if b_med else 0.0,
    )
    all_better = all(_better(x, y, lower) for x in a for y in b)
    if spread > bound and not all_better:
        return "unresolved"
    worse_by = (b_med - a_med) if lower else (a_med - b_med)
    if a_med and worse_by / abs(a_med) > bound:
        return "worse"
    return "unchanged"


def _summary(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def compare(a_spec: str, b_spec: str, bench: dict) -> List[dict]:
    a_set, b_set = load_set(a_spec), load_set(b_spec)
    rows = []
    for workload in [w["name"] for w in bench["workloads"]]:
        if workload not in a_set or workload not in b_set:
            continue
        for metric in bench["end_to_end"]:
            name = metric["name"]
            a, b = a_set[workload][name], b_set[workload][name]
            lower = metric["better"] == "lower"
            a_med = quartiles(_values(a))[1]
            b_med = quartiles(_values(b))[1]
            rows.append({
                "workload": workload, "metric": name,
                "unit": metric["unit"], "bound": metric["bound"],
                "a": _summary(_values(a)), "b": _summary(_values(b)),
                "change": (b_med - a_med) / a_med if a_med else 0.0,
                "verdict": verdict(a, b, metric["bound"], lower),
            })
    return rows


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare two end-to-end benchmark result sets."
    )
    parser.add_argument("a", help="first set (parent / baseline)")
    parser.add_argument("b", help="second set (change)")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text("utf-8"))
    rows = compare(args.a, args.b, bench)
    print(f"{'workload':16s} {'metric':17s} {'A median [q1, q3] n':36s} "
          f"{'B median [q1, q3] n':36s} {'change':>8s} bound  verdict")
    for row in rows:
        print(f"{row['workload']:16s} {row['metric']:17s} {row['a']:36s} "
              f"{row['b']:36s} {row['change']:+8.2%} {row['bound']:<5g}  "
              f"{row['verdict']}")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
