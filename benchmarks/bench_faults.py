"""Fault-injection benchmark: what does chaos cost?

Three questions, answered with wall-clock numbers and a parity bar:

* **hook tax** — the injector hooks sit on the dataplane's hottest
  paths (one ``is None`` check per walk / loss draw / bucket refill);
  compare an unfaulted campaign on the hooked dataplane against the
  same campaign run through the resilient driver with an *empty*
  plan (driver overhead: checkpoint bookkeeping, round loop);
* **chaos tax** — the full ``chaos`` plan at ``--jobs`` workers:
  retry rounds, dark-VP fast-failures, correlated-loss draws, flap
  lookups, storm-scaled refills;
* **recovery bar** — a churn-only campaign (with retries) must
  produce ``save_survey`` bytes **identical** to the unfaulted run,
  and the chaos campaign must be byte-identical across serial and
  pooled execution. The script exits non-zero if either parity bar
  fails — that is the gating part; timings are trajectory capture.
* **supervision tax** — the watchdog pool (per-destination
  heartbeats, pipe multiplexing, hang scans) versus the plain pool on
  an identical empty-plan campaign at ``--jobs`` workers. The target
  is < 5% overhead (recorded as ``supervision_overhead``; the *gated*
  part is that supervised bytes equal the unsupervised ones).
* **span tax** — the same supervised campaign with hierarchical span
  tracing enabled versus off. Spans are phase-granular (per VP /
  batch), so the target is the same < 5% bar (recorded as
  ``span_overhead``); the *gated* part is that spans-on bytes equal
  spans-off bytes.
* **validation tax** — the reply-validation pipeline
  (:mod:`repro.probing.validation`) runs on every survey by default;
  on a *clean* path it must find nothing, change zero bytes
  (``validate=False`` parity is gated), and cost < 5% (gated:
  ``validation_overhead``). Timed on whole-hitlist, all-VP surveys
  even under ``--quick``, since a quick slice's surveys are too short
  to resolve 5%. One untimed survey each way warms the process up and
  gives the parity check. Then each of ``VALIDATION_PAIRS`` pairs
  builds two fresh worlds and surveys the whole hitlist from each VP
  on both, validation on in one and off in the other, back to back,
  alternating which side goes first; the pair's ratio is its on
  seconds over its off seconds. The overhead is the median ratio: a
  VP's survey takes ~15 ms on ``tiny``, far less than the shared
  box's speed swings last, so they cancel within a pair.

Run it directly (no pytest harness)::

    PYTHONPATH=src python benchmarks/bench_faults.py                # mid-size
    PYTHONPATH=src python benchmarks/bench_faults.py \
        --preset tiny --quick --jobs 4                              # CI smoke
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, Optional, Sequence

from repro.core.survey import run_rr_survey, save_survey
from repro.faults import (
    CampaignRunner,
    FaultPlan,
    SupervisionConfig,
    VpChurn,
)
from repro.obs.metrics import REGISTRY
from repro.obs.spans import TRACER
from repro.scenarios.faults import build_fault_plan
from repro.scenarios.internet import Scenario
from repro.scenarios.presets import get_preset

OUTPUT_DIR = Path(__file__).parent / "output"

QUICK_VPS = 6
QUICK_TARGETS = 60
VALIDATION_PAIRS = 16


def _fresh(preset: str, seed: int) -> Scenario:
    return get_preset(preset, seed)


def _subset(scenario: Scenario, quick: bool):
    targets = list(scenario.hitlist)
    vps = list(scenario.vps)
    if quick:
        targets = targets[:QUICK_TARGETS]
        vps = vps[:QUICK_VPS]
    return targets, vps


def _survey_bytes(survey, tag: str, out_dir: Path) -> bytes:
    path = out_dir / f"_bench_faults_{tag}.json"
    save_survey(survey, path)
    data = path.read_bytes()
    path.unlink()
    return data


def _run_campaign(
    preset: str,
    seed: int,
    quick: bool,
    jobs: int,
    plan: Optional[FaultPlan],
    max_retries: int = 4,
    supervision: Optional[SupervisionConfig] = None,
):
    """(seconds, CampaignResult) for one fresh-world campaign."""
    scenario = _fresh(preset, seed)
    targets, vps = _subset(scenario, quick)
    runner = CampaignRunner(
        scenario, plan=plan, jobs=jobs, max_retries=max_retries,
        supervision=supervision,
    )
    start = time.perf_counter()
    result = runner.run(targets=targets, vps=vps)
    return time.perf_counter() - start, result


def _validation_tax(preset: str, seed: int, out_dir: Path):
    """Clean whole-hitlist surveys with reply validation on and off
    (see the module docstring): the median on/off ratio of the pairs
    minus one, each side's median seconds per pair, and whether the
    two sides' survey bytes are equal."""
    # Untimed: one whole survey each way warms up and checks parity.
    on_bytes = _survey_bytes(
        run_rr_survey(_fresh(preset, seed)), "val", out_dir
    )
    off_bytes = _survey_bytes(
        run_rr_survey(_fresh(preset, seed), validate=False), "noval",
        out_dir,
    )
    seconds = {True: [], False: []}
    for pair in range(VALIDATION_PAIRS):
        worlds = {True: _fresh(preset, seed), False: _fresh(preset, seed)}
        vps = {validate: list(world.vps) for validate, world in worlds.items()}
        gc.collect()  # earlier worlds' garbage is not this pair's
        spent = {True: 0.0, False: 0.0}
        for index in range(len(vps[True])):
            first = (pair + index) % 2 == 0
            for validate in (first, not first):
                start = time.perf_counter()
                run_rr_survey(
                    worlds[validate], vps=[vps[validate][index]],
                    validate=validate,
                )
                spent[validate] += time.perf_counter() - start
        for validate, secs in spent.items():
            seconds[validate].append(secs)
    overhead = statistics.median(
        on / off for on, off in zip(seconds[True], seconds[False])
    ) - 1.0
    return (
        overhead,
        statistics.median(seconds[True]),
        statistics.median(seconds[False]),
        on_bytes == off_bytes,
    )


def _fault_counts() -> Dict[str, float]:
    """Injected-event totals by kind, from the live registry."""
    out: Dict[str, float] = {}
    family = REGISTRY.snapshot().get("faults_injected_total")
    if family:
        for series in family["series"]:
            kind = series["labels"].get("kind", "?")
            out[kind] = out.get(kind, 0) + series["value"]
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Fault-injection overhead + recovery benchmark."
    )
    parser.add_argument("--preset", default="small")
    parser.add_argument("--seed", type=int, default=2016)
    parser.add_argument("--jobs", type=int, default=4)
    parser.add_argument(
        "--quick", action="store_true",
        help=f"CI smoke mode: first {QUICK_VPS} VPs x "
             f"{QUICK_TARGETS} destinations",
    )
    parser.add_argument(
        "--output", type=Path,
        default=OUTPUT_DIR / "BENCH_faults.json",
    )
    args = parser.parse_args(argv)

    out_dir = args.output.parent
    out_dir.mkdir(parents=True, exist_ok=True)
    scenario = _fresh(args.preset, args.seed)
    targets, vps = _subset(scenario, args.quick)
    print(
        f"bench_faults: preset={args.preset} seed={args.seed} "
        f"targets={len(targets)} vps={len(vps)} jobs={args.jobs} "
        f"cpus={os.cpu_count()}",
        flush=True,
    )

    timings: Dict[str, float] = {}

    # Baseline: plain run_rr_survey (hooked dataplane, no injector).
    start = time.perf_counter()
    base_survey = run_rr_survey(scenario, dests=targets, vps=vps)
    timings["rr_unfaulted"] = time.perf_counter() - start
    base_bytes = _survey_bytes(base_survey, "base", out_dir)
    print(f"  unfaulted survey      : {timings['rr_unfaulted']:.3f}s",
          flush=True)

    # Validation tax: the reply-validation pipeline on a clean path
    # must cost < 5% and change zero bytes.
    validation_overhead, t_on, t_off, validation_parity = _validation_tax(
        args.preset, args.seed, out_dir
    )
    timings["rr_validate"] = t_on
    timings["rr_novalidate"] = t_off
    validation_ok = validation_parity and validation_overhead < 0.05
    print(
        f"  validation on / off   : {t_on:.3f}s / {t_off:.3f}s "
        f"(whole hitlist, medians of {VALIDATION_PAIRS} pairs; overhead "
        f"{validation_overhead:+.1%}, target <5%; "
        f"parity {'ok' if validation_parity else 'MISMATCH'})",
        flush=True,
    )

    # Driver overhead: resilient driver, empty plan.
    secs, empty_result = _run_campaign(
        args.preset, args.seed, args.quick, jobs=1, plan=None
    )
    timings["campaign_empty_plan"] = secs
    empty_bytes = _survey_bytes(empty_result.survey, "empty", out_dir)
    driver_ok = empty_bytes == base_bytes
    print(f"  driver, empty plan    : {secs:.3f}s "
          f"(parity {'ok' if driver_ok else 'MISMATCH'})", flush=True)

    # Recovery: churn-only plan must converge to the unfaulted bytes.
    churn = FaultPlan(
        seed=99, specs=(VpChurn(prob=0.6, max_dark_attempts=2),)
    )
    secs, churn_result = _run_campaign(
        args.preset, args.seed, args.quick, jobs=1, plan=churn
    )
    timings["campaign_vp_churn"] = secs
    churn_bytes = _survey_bytes(churn_result.survey, "churn", out_dir)
    recovery_ok = (not churn_result.partial) and churn_bytes == base_bytes
    print(
        f"  churn + retries       : {secs:.3f}s "
        f"(rounds={churn_result.retry_rounds}, "
        f"recovery {'ok' if recovery_ok else 'MISMATCH'})",
        flush=True,
    )

    # Chaos tax, serial and pooled — and the jobs-parity bar.
    plan = build_fault_plan("chaos", scenario_seed=args.seed)
    secs, chaos_serial = _run_campaign(
        args.preset, args.seed, args.quick, jobs=1, plan=plan
    )
    timings["campaign_chaos_serial"] = secs
    print(f"  chaos jobs=1          : {secs:.3f}s", flush=True)
    secs, chaos_pooled = _run_campaign(
        args.preset, args.seed, args.quick, jobs=args.jobs, plan=plan
    )
    timings[f"campaign_chaos_jobs{args.jobs}"] = secs
    print(f"  chaos jobs={args.jobs}          : {secs:.3f}s", flush=True)
    chaos_ok = _survey_bytes(
        chaos_serial.survey, "cs", out_dir
    ) == _survey_bytes(chaos_pooled.survey, "cp", out_dir)
    print(f"  chaos serial/pool parity: "
          f"{'byte-identical' if chaos_ok else 'MISMATCH'}", flush=True)

    overhead = (
        timings["campaign_chaos_serial"] / timings["rr_unfaulted"] - 1.0
        if timings["rr_unfaulted"]
        else 0.0
    )
    print(f"  chaos overhead vs unfaulted: {overhead:+.1%}", flush=True)

    # Supervision tax: identical empty-plan campaigns at --jobs, plain
    # pool versus watchdog pool (heartbeats + hang scans). Target
    # < 5%; the number is recorded, the byte parity is gated.
    secs, plain_pooled = _run_campaign(
        args.preset, args.seed, args.quick, jobs=args.jobs, plan=None
    )
    timings[f"campaign_empty_jobs{args.jobs}"] = secs
    # Best-of-two: pool spin-up jitter on small inputs can exceed the
    # effect being measured, and an outlier here poisons both the
    # supervision and span overhead ratios.
    secs, supervised = _run_campaign(
        args.preset, args.seed, args.quick, jobs=args.jobs, plan=None,
        supervision=SupervisionConfig(),
    )
    secs2, _ = _run_campaign(
        args.preset, args.seed, args.quick, jobs=args.jobs, plan=None,
        supervision=SupervisionConfig(),
    )
    secs = min(secs, secs2)
    timings[f"campaign_supervised_jobs{args.jobs}"] = secs
    supervision_overhead = (
        timings[f"campaign_supervised_jobs{args.jobs}"]
        / timings[f"campaign_empty_jobs{args.jobs}"]
        - 1.0
        if timings[f"campaign_empty_jobs{args.jobs}"]
        else 0.0
    )
    sup_bytes = _survey_bytes(supervised.survey, "sup", out_dir)
    supervised_ok = sup_bytes == _survey_bytes(
        plain_pooled.survey, "plain", out_dir
    )
    print(
        f"  supervised jobs={args.jobs}     : "
        f"{timings[f'campaign_supervised_jobs{args.jobs}']:.3f}s "
        f"(overhead {supervision_overhead:+.1%}, target <5%; "
        f"parity {'ok' if supervised_ok else 'MISMATCH'})",
        flush=True,
    )

    # Span tax: the same supervised campaign with tracing on. The
    # tracer records phase spans (campaign/round/attempt/batch) but
    # must neither slow the run past the supervision bar nor change a
    # single survey byte.
    TRACER.configure(True)
    TRACER.reset()
    try:
        secs, spans_run = _run_campaign(
            args.preset, args.seed, args.quick, jobs=args.jobs,
            plan=None, supervision=SupervisionConfig(),
        )
        TRACER.reset()
        secs2, _ = _run_campaign(
            args.preset, args.seed, args.quick, jobs=args.jobs,
            plan=None, supervision=SupervisionConfig(),
        )
        secs = min(secs, secs2)
    finally:
        TRACER.configure(False)
    timings[f"campaign_spans_jobs{args.jobs}"] = secs
    span_count = len(TRACER)
    span_overhead = (
        secs / timings[f"campaign_supervised_jobs{args.jobs}"] - 1.0
        if timings[f"campaign_supervised_jobs{args.jobs}"]
        else 0.0
    )
    spans_ok = _survey_bytes(spans_run.survey, "spans", out_dir) == sup_bytes
    print(
        f"  spans-on jobs={args.jobs}       : {secs:.3f}s "
        f"({span_count} spans; overhead {span_overhead:+.1%}, "
        f"target <5%; parity {'ok' if spans_ok else 'MISMATCH'})",
        flush=True,
    )

    record = {
        "benchmark": "faults",
        "preset": args.preset,
        "seed": args.seed,
        "quick": args.quick,
        "targets": len(targets),
        "vps": len(vps),
        "jobs": args.jobs,
        "cpu_count": os.cpu_count(),
        "timings_seconds": timings,
        "chaos_overhead_vs_unfaulted": overhead,
        "supervision_overhead": supervision_overhead,
        "supervision_overhead_target": 0.05,
        "span_overhead": span_overhead,
        "span_overhead_target": 0.05,
        "span_count": span_count,
        "validation_overhead": validation_overhead,
        "validation_overhead_target": 0.05,
        "churn_retry_rounds": churn_result.retry_rounds,
        "churn_backoff_sim_seconds": churn_result.backoff_sim_seconds,
        "chaos_retry_rounds": chaos_serial.retry_rounds,
        "chaos_partial": chaos_serial.partial,
        "fault_events": _fault_counts(),
        "parity": {
            "driver_empty_plan": driver_ok,
            "churn_recovers_unfaulted": recovery_ok,
            "chaos_serial_vs_pool": chaos_ok,
            "supervised_vs_plain_pool": supervised_ok,
            "spans_on_vs_off": spans_ok,
            "validation_off_vs_on": validation_parity,
        },
    }
    args.output.write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n", "utf-8"
    )
    print(f"  wrote {args.output}", flush=True)
    return (
        0
        if (
            driver_ok
            and recovery_ok
            and chaos_ok
            and supervised_ok
            and spans_ok
            and validation_ok
        )
        else 1
    )


if __name__ == "__main__":
    sys.exit(main())
