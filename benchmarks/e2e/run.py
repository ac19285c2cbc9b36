"""End-to-end benchmark: every workload, every metric, one command.

Run from the repository root::

    python3 benchmarks/e2e/run.py                        # all workloads
    python3 benchmarks/e2e/run.py --workload survey-cold --seed 7
    python3 benchmarks/e2e/run.py --workload study-pooled --trace 1
    python3 benchmarks/e2e/run.py --scale smoke --seconds 0 --out r.json

Each timed repetition runs in a fresh interpreter (``workloads.py``),
so no repetition inherits another's heap; ``survey-warm`` is the one
workload that needs a warm process and runs all its repetitions in
one. Repetitions continue while the next one still fits in
``--seconds`` (at least one). Every end-to-end metric is the median
over repetitions, printed with its quartiles and sample count. Times
are in reference seconds: each measured time is scaled by the
machine's speed while it was measured (``speed.py``), because the
shared host this benchmark runs on changes speed by over half from
one minute to the next.

``--trace 1`` is a separate run: it reports the per-layer metrics of
``BENCHMARK.json`` from a traced pass (see ``tracing.py``), writes a
Chrome trace-event file under ``benchmarks/e2e/.work/`` and prints a
per-layer self-time table.

Output bytes are checked on every run: repetitions must agree, saved
artifacts must reload, and for the seeds pinned in ``spec.json`` the
sha256 of the output must match. The last stdout line is one JSON
object (``correct``, ``attempted``, ``failed``, ``metrics``); the exit
code is non-zero if any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from stats import ratio, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = HERE / ".work"
BENCHMARK = ROOT / "BENCHMARK.json"
SPEC = HERE / "spec.json"

#: Measuring time the traced run spends on untraced repetitions of
#: the same call, the reference for ``trace.overhead_s``.
REFERENCE_S = 12.0
#: No repetition starts after this many seconds of a workload's run...
HARD_CAP_S = 120.0
#: ...and every process it started is killed at this one, so a run
#: ends inside three minutes whatever happens.
DEADLINE_S = 170.0


class BenchError(RuntimeError):
    """A workload process failed; the run has no valid result."""


def _ref_s(rep: dict, key: str) -> float:
    """A time of the timed call in reference seconds (``speed.py``)."""
    return rep[key] * rep["speed"]


def _setup_ref_s(rep: dict) -> Optional[float]:
    if rep["setup_s"] is None:
        return None
    return rep["setup_s"] * rep["setup_speed"]


#: End-to-end metric name -> its value for one repetition. Every time
#: is in reference seconds: the measured time times the machine's speed
#: while it was measured.
E2E: Dict[str, Callable[[dict], Optional[float]]] = {
    "setup_s": _setup_ref_s,
    "wall_s": lambda rep: _ref_s(rep, "wall_s"),
    "probes_per_s":
        lambda rep: ratio(rep["probes"], _ref_s(rep, "wall_s")),
    "cpu_s_per_kprobe":
        lambda rep: ratio(_ref_s(rep, "cpu_s"), rep["probes"] / 1000.0),
    "peak_rss_mb": lambda rep: rep["peak_rss_mb"],
    "ok_ratio": lambda rep: ratio(rep["units_ok"], rep["units"]),
    "turnaround_p50_s":
        lambda rep: statistics.median(rep["turnaround_s"]) * rep["speed"],
    "turnaround_max_s":
        lambda rep: max(rep["turnaround_s"]) * rep["speed"],
}


# ---------------------------------------------------------------------------
# Child processes.
# ---------------------------------------------------------------------------


def spawn(job: dict, deadline: float) -> dict:
    """Run one ``workloads.py`` job in a fresh interpreter and return
    its JSON result. Its work directory lives inside the checkout and
    is removed afterwards; the child's whole process group is killed
    if it outlives ``deadline`` (a ``time.monotonic()`` value)."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{job['workload']}-", dir=WORK))
    env = dict(os.environ, TMPDIR=str(WORK / "tmp"))
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "workloads.py"),
         json.dumps(dict(job, workdir=str(workdir)))],
        stdout=subprocess.PIPE, cwd=ROOT, env=env, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        raise BenchError(
            f"{job['workload']}: {job['mode']} process timed out"
        ) from None
    finally:
        # Pool workers share the child's process group; none may
        # outlive it.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        raise BenchError(
            f"{job['workload']}: {job['mode']} process exited "
            f"{proc.returncode}"
        )
    lines = out.decode("utf-8").strip().splitlines()
    if not lines:
        raise BenchError(f"{job['workload']}: no result from {job['mode']}")
    return json.loads(lines[-1])


def run_reps(base: dict, seconds: float, corrupt: bool,
             deadline: float) -> List[dict]:
    """Fresh-interpreter repetitions while the next one still fits in
    ``seconds`` (at least one)."""
    start = time.monotonic()
    if base["workload"] == "survey-warm":
        job = dict(base, mode="warm", budget_s=seconds, corrupt=corrupt)
        return spawn(job, deadline)["reps"]
    reps: List[dict] = []
    longest = 0.0
    while True:
        began = time.monotonic()
        job = dict(base, mode="rep", corrupt=corrupt and not reps)
        reps.extend(spawn(job, deadline)["reps"])
        longest = max(longest, time.monotonic() - began)
        elapsed = time.monotonic() - start
        if elapsed + longest > min(seconds, HARD_CAP_S):
            return reps


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------


def pinned_digest(spec: dict, scale: str, workload: str,
                  seed: int) -> Optional[str]:
    return spec["digests"].get(scale, {}).get(workload, {}).get(str(seed))


def check_digests(digests: List[str],
                  pinned: Optional[str]) -> Dict[str, bool]:
    checks = {"reps_agree": len(set(digests)) == 1}
    if pinned is not None:
        checks["pinned_digest"] = all(d == pinned for d in digests)
    return checks


# ---------------------------------------------------------------------------
# Workload runs.
# ---------------------------------------------------------------------------


def e2e_result(workload: str, args, bench: dict, spec: dict) -> dict:
    base = {"workload": workload, "seed": args.seed, "scale": args.scale}
    reps = run_reps(base, args.seconds, args.corrupt_output,
                    time.monotonic() + DEADLINE_S)
    checks: Dict[str, bool] = {}
    for rep in reps:
        for name, ok in rep["checks"].items():
            checks[name] = checks.get(name, True) and ok
    pinned = pinned_digest(spec, args.scale, workload, args.seed)
    checks.update(check_digests([rep["digest"] for rep in reps], pinned))
    metrics = {}
    for metric in bench["end_to_end"]:
        compute = E2E[metric["name"]]
        values = [compute(rep) for rep in reps]
        values = [value for value in values if value is not None]
        metrics[metric["name"]] = dict(summarize(values), unit=metric["unit"])
    return {
        "checks": checks,
        "pinned": pinned is not None,
        "digest": reps[0]["digest"],
        "raw_wall_s": summarize([rep["wall_s"] for rep in reps]),
        "speed": summarize([rep["speed"] for rep in reps]),
        "attempted": sum(rep["units"] for rep in reps),
        "failed": sum(rep["units"] - rep["units_ok"] for rep in reps),
        "metrics": metrics,
        "reps": reps,
    }


def traced_result(workload: str, args, bench: dict, spec: dict) -> dict:
    base = {"workload": workload, "seed": args.seed, "scale": args.scale}
    deadline = time.monotonic() + DEADLINE_S
    digests = []
    reference = None
    if workload != "survey-warm":
        # The untraced twin of the traced call: the median of
        # fresh-process repetitions.
        reps = run_reps(base, min(REFERENCE_S, args.seconds), False,
                        deadline)
        reference = statistics.median(rep["wall_s"] for rep in reps)
        digests.extend(rep["digest"] for rep in reps)
    trace_path = WORK / f"trace-{workload}-{args.seed}.json"
    traced = spawn(dict(base, mode="trace", corrupt=args.corrupt_output,
                        trace_path=str(trace_path)), deadline)
    if reference is None:
        reference = traced["reference_wall_s"]
    digests.append(traced["digest"])
    values = dict(traced["metrics"])
    values["trace.overhead_s"] = traced["traced_wall_s"] - reference
    checks = dict(traced["checks"])
    pinned = pinned_digest(spec, args.scale, workload, args.seed)
    checks.update(check_digests(digests, pinned))
    metrics = {
        metric["name"]: {"value": values[metric["name"]],
                         "unit": metric["unit"]}
        for metric in bench["per_layer"]
    }
    return {
        "checks": checks,
        "pinned": pinned is not None,
        "digest": traced["digest"],
        "attempted": traced["units"],
        "failed": traced["units"] - traced["units_ok"],
        "metrics": metrics,
        "traced_wall_s": traced["traced_wall_s"],
        "reference_wall_s": reference,
        "tables": traced["tables"],
        "trace_path": traced["trace_path"],
    }


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def print_result(workload: str, result: dict, traced: bool) -> None:
    print(f"== {workload}")
    for name, metric in result["metrics"].items():
        line = f"  {name:40s} {_fmt(metric['value']):>12s} {metric['unit']}"
        if "n" in metric:
            line += (f"  [q1 {_fmt(metric['q1'])}, q3 {_fmt(metric['q3'])},"
                     f" n={metric['n']}]")
        print(line)
    if "speed" in result:
        print(f"  measured wall {_fmt(result['raw_wall_s']['value'])} s at "
              f"{_fmt(result['speed']['value'])} of the reference speed "
              f"(medians; times above are in reference seconds)")
    if traced:
        print(f"  traced wall {result['traced_wall_s']:.4f} s, untraced "
              f"{result['reference_wall_s']:.4f} s; trace: "
              f"{result['trace_path']}")
        for root, table in result["tables"].items():
            wall = sum(row["self_s"] for row in table.values())
            print(f"  self time under '{root}' ({wall:.4f} s):")
            for layer, row in sorted(table.items(),
                                     key=lambda item: -item[1]["self_s"]):
                print(f"    {layer:24s} {row['self_s']:10.4f} s "
                      f"{ratio(row['self_s'], wall):7.1%} "
                      f"({row['spans']} spans)")
    checks = ", ".join(
        f"{name}={'ok' if ok else 'FAILED'}"
        for name, ok in sorted(result["checks"].items())
    )
    pinned = "" if result["pinned"] else " (digest unpinned)"
    print(f"  checks: {checks}{pinned}")
    print(f"  output sha256 {result['digest']}")


def parse_args(argv: Optional[Sequence[str]], names: List[str]):
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark (see benchmarks/e2e/README.md)."
    )
    parser.add_argument("--workload", action="append", choices=names,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced per-layer run instead")
    parser.add_argument("--scale", choices=("full", "smoke"),
                        default="full",
                        help="smoke: tiny inputs for the test suite")
    parser.add_argument("--out", type=Path,
                        help="also write the full record (raw "
                             "repetitions included) as JSON")
    parser.add_argument("--corrupt-output", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _terminate(signum, _frame) -> None:
    # Unwinds through spawn(), whose ``finally`` kills the child's
    # process group, so no workload outlives the benchmark.
    raise SystemExit(128 + signum)


def main(argv: Optional[Sequence[str]] = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"benchmark: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bench = json.loads(BENCHMARK.read_text("utf-8"))
    spec = json.loads(SPEC.read_text("utf-8"))
    names = [workload["name"] for workload in bench["workloads"]]
    args = parse_args(argv, names)
    if args.seconds is None:
        args.seconds = float(bench["run_seconds"])
    workloads = args.workload or names
    results = {}
    try:
        for workload in workloads:
            run = traced_result if args.trace else e2e_result
            results[workload] = run(workload, args, bench, spec)
            print_result(workload, results[workload], bool(args.trace))
            sys.stdout.flush()
    except BenchError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        return 2
    correct = all(all(r["checks"].values()) for r in results.values())
    if args.out is not None:
        args.out.write_text(json.dumps({
            "scale": args.scale, "seed": args.seed,
            "seconds": args.seconds, "trace": bool(args.trace),
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "correct": correct, "workloads": results,
        }, indent=1) + "\n", "utf-8")
    if len(workloads) == 1:
        metrics = {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in results[workloads[0]]["metrics"].items()
        }
    else:
        metrics = {
            f"{workload}/{name}": {"value": m["value"], "unit": m["unit"]}
            for workload, result in results.items()
            for name, m in result["metrics"].items()
        }
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
