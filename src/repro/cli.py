"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``presets`` — list the available Internet-in-a-box presets;
* ``study`` — run one (or every) paper experiment against a preset and
  print the paper-style artifact;
* ``probe`` — issue a single measurement (ping / ping-RR / ping-RRudp /
  ping-TS / traceroute) from a named VP and show the decoded result;
  with ``--trace``, also render the hop-by-hop dataplane walk (RR
  stamps, filter/rate-limit drops, TTL expiries, the verdict);
* ``stats`` — run a study, then print the process-wide metrics
  registry (dataplane counters by drop cause, rate-limiter decisions
  by router class, per-probe-type counters, fault-injection and
  campaign-resilience counters, phase timings) as a table, Prometheus
  text, or JSONL;
* ``chaos`` — run the RR campaign under a named fault plan with the
  resilient (retrying, checkpointing, resumable) campaign driver and
  print its manifest; ``--supervise`` adds the watchdog/quarantine
  layer, ``--spans`` hierarchical span tracing, ``--status`` a live
  status snapshot for ``repro top``. Exit codes: 0 = completed; 2 =
  usage error, or a ``--resume`` checkpoint that is unreadable or
  records another campaign; 3 = deliberately killed
  (``--kill-after-vps``, can be ``--resume``\\ d); 4 = completed but
  one or more VPs were quarantined as poison;
* ``top`` — poll a campaign's ``--status`` snapshot file and render a
  live operator view (progress, retry round, probes/sec, breaker
  states, heartbeat ages, quarantines);
* ``trace`` — run a (small) traced campaign and print its span tree;
  ``--chrome-out`` writes Chrome trace-event JSON for
  chrome://tracing / Perfetto, ``--jsonl-out`` raw span JSONL;
* ``export`` — write the scenario's synthetic datasets (RouteViews-
  style RIB, CAIDA-style as2type, ISI-style hitlist) to a directory;
* ``serve`` — run the Atlas-style multi-tenant measurement daemon:
  admit measurement specs (files, ``--demo`` pack, or a live control
  socket) against per-tenant credit quotas, schedule them fairly onto
  the shared VP fleet, and stream per-tenant checksummed JSONL
  results with spec-granular checkpoint/resume. Exit codes mirror
  ``chaos``: 0 = all specs terminal, 3 = deliberately killed
  (``--kill-after-units``, resumable with ``--resume``);
* ``submit`` — send one or more specs to a running daemon's control
  socket and print the machine-readable admission responses;
* ``status-spec`` — query a running daemon for live per-spec status.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.core.cloud import run_cloud_study
from repro.core.drop_location import run_drop_study
from repro.core.fusion import fuse_paths
from repro.core.longitudinal import run_longitudinal_study
from repro.core.ratelimit import run_rate_limit_study
from repro.core.reachability import build_figure1
from repro.core.reclassify import run_reclassification
from repro.core.report import banner
from repro.core.stamping_audit import run_stamping_study
from repro.core.study import StudyData, get_study, run_resilient_study
from repro.core.survey import SurveyFormatError, save_survey
from repro.core.table1 import build_table1
from repro.core.temporal import build_figure2
from repro.core.ttl import run_ttl_study
from repro.net.addr import addr_to_int, int_to_addr
from repro.obs.export import (
    render_span_tree,
    to_jsonl,
    to_prometheus,
    write_chrome_trace,
    write_spans_jsonl,
    write_trace_jsonl,
)
from repro.obs.metrics import REGISTRY
from repro.obs.spans import TRACER
from repro.obs.status import load_status, render_status
from repro.obs.trace import PacketTracer
from repro.scenarios.faults import FAULT_PRESETS, build_fault_plan
from repro.scenarios.presets import PRESETS, get_preset

#: Exit code for a campaign deliberately killed by ``--kill-after-vps``
#: (the CI chaos-smoke job expects exactly this code, then resumes).
EXIT_INTERRUPTED = 3

#: Exit code for a campaign that completed but quarantined one or more
#: poison VPs (the CI watchdog-smoke job expects exactly this code).
EXIT_QUARANTINED = 4

__all__ = ["main", "build_parser"]


def _experiment_table1(study: StudyData) -> str:
    scenario = study.scenario
    return build_table1(
        scenario.classification, study.ping_survey, study.rr_survey
    ).render()


def _experiment_fig1(study: StudyData) -> str:
    return build_figure1(study.rr_survey).render()


def _experiment_fig2(study: StudyData) -> str:
    era_2011 = get_study("small-2011", seed=2016)
    return build_figure2(era_2011.rr_survey, study.rr_survey).render()


def _experiment_fig3(study: StudyData) -> str:
    return run_cloud_study(
        study.scenario, study.rr_survey, sample_per_class=200,
        mlab_sample=200,
    ).render()


def _experiment_fig4(study: StudyData) -> str:
    return run_rate_limit_study(
        study.scenario, study.rr_survey, sample_size=250
    ).render()


def _experiment_fig5(study: StudyData) -> str:
    return run_ttl_study(
        study.scenario, study.rr_survey, per_class_per_vp=15, max_vps=10
    ).render()


def _experiment_s33(study: StudyData) -> str:
    return run_reclassification(study.scenario, study.rr_survey).render()


def _experiment_s35(study: StudyData) -> str:
    return run_stamping_study(
        study.scenario, study.rr_survey, per_vp_cap=120
    ).render()


def _experiment_fusion(study: StudyData) -> str:
    return fuse_paths(study.scenario, study.rr_survey, sample=40).render()


def _experiment_drops(study: StudyData) -> str:
    return run_drop_study(
        study.scenario, study.ping_survey, study.rr_survey, sample=50
    ).render()


def _experiment_prudence(_study: StudyData) -> str:
    from repro.scenarios.presets import tiny

    return run_longitudinal_study(
        lambda: tiny(seed=42),
        epochs=4,
        annoyance_threshold=1500,
        reaction_prob=0.6,
    ).render()


EXPERIMENTS: Dict[str, Callable[[StudyData], str]] = {
    "table1": _experiment_table1,
    "fig1": _experiment_fig1,
    "fig2": _experiment_fig2,
    "fig3": _experiment_fig3,
    "fig4": _experiment_fig4,
    "fig5": _experiment_fig5,
    "s33": _experiment_s33,
    "s35": _experiment_s35,
    "fusion": _experiment_fusion,
    "drops": _experiment_drops,
    "prudence": _experiment_prudence,
}


def _jobs(text: str) -> int:
    """``--jobs``: a positive worker count (anything else is a usage
    error, exit 2)."""
    try:
        jobs = int(text)
    except ValueError:
        jobs = 0
    if jobs < 1:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer: {text!r}"
        )
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'The Record Route Option is an Option!' "
            "(IMC 2017) on a simulated Internet."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("presets", help="list scenario presets")

    study = sub.add_parser("study", help="run paper experiments")
    study.add_argument(
        "--preset", default="small", choices=sorted(PRESETS)
    )
    study.add_argument("--seed", type=int, default=2016)
    study.add_argument(
        "--experiment",
        default="all",
        choices=sorted(EXPERIMENTS) + ["all"],
    )
    study.add_argument(
        "--output", type=Path, default=None,
        help="also write the report to this file",
    )
    study.add_argument(
        "--jobs", type=_jobs, default=1,
        help="survey fan-out: worker processes (1 = serial; "
             "results are identical for any value)",
    )
    study.add_argument(
        "--faults", default="none", choices=sorted(FAULT_PRESETS),
        help="run the RR campaign under this fault plan, using the "
             "resilient campaign driver",
    )
    study.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault plan seed (default: derived from the scenario seed)",
    )
    study.add_argument(
        "--max-retries", type=int, default=3,
        help="retry rounds per failed VP (resilient driver only)",
    )
    study.add_argument(
        "--checkpoint", type=Path, default=None,
        help="campaign checkpoint file (enables the resilient driver)",
    )
    study.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh",
    )
    study.add_argument(
        "--no-batch", action="store_true",
        help="force the legacy per-hop walk instead of the batched "
             "stamp-plan dataplane (results are byte-identical; this "
             "is a benchmarking/debugging switch)",
    )

    chaos = sub.add_parser(
        "chaos",
        help="run the RR campaign under a fault plan, resiliently",
    )
    chaos.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    chaos.add_argument("--seed", type=int, default=2016)
    chaos.add_argument(
        "--faults", default="chaos", choices=sorted(FAULT_PRESETS)
    )
    chaos.add_argument(
        "--fault-seed", type=int, default=None,
        help="fault plan seed (default: derived from the scenario seed)",
    )
    chaos.add_argument("--jobs", type=_jobs, default=1)
    chaos.add_argument(
        "--no-batch", action="store_true",
        help="force the legacy per-hop walk (byte-identical results)",
    )
    chaos.add_argument("--max-retries", type=int, default=3)
    chaos.add_argument(
        "--budget", type=float, default=None,
        help="campaign budget in seconds (wall + simulated backoff)",
    )
    chaos.add_argument("--checkpoint", type=Path, default=None)
    chaos.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh",
    )
    chaos.add_argument(
        "--kill-after-vps", type=int, default=None,
        help="simulate a crash after N newly-completed VPs "
             f"(exit code {EXIT_INTERRUPTED})",
    )
    chaos.add_argument(
        "--save-survey", type=Path, default=None,
        help="write the merged RR survey JSON here (byte-stable)",
    )
    chaos.add_argument(
        "--dests", type=int, default=None,
        help="probe only the first N hitlist destinations",
    )
    chaos.add_argument(
        "--supervise", action="store_true",
        help="run under the worker watchdog: heartbeat monitoring, "
             "kill/respawn of hung workers, per-VP circuit breakers, "
             f"poison-VP quarantine (exit code {EXIT_QUARANTINED} if "
             "any VP is quarantined)",
    )
    chaos.add_argument(
        "--hang-timeout", type=float, default=30.0,
        help="no-heartbeat deadline (seconds) before a worker is "
             "presumed hung and respawned (with --supervise)",
    )
    chaos.add_argument(
        "--quarantine-after", type=int, default=3,
        help="quarantine a VP after this many hang/crash attempts "
             "(with --supervise)",
    )
    chaos.add_argument(
        "--hang-vp", action="append", default=[], metavar="VP",
        help="inject a permanent mid-session hang for this VP "
             "(repeatable; composes with --faults)",
    )
    chaos.add_argument(
        "--crash-vp", action="append", default=[], metavar="VP",
        help="inject a permanent mid-session crash loop for this VP "
             "(repeatable; composes with --faults)",
    )
    chaos.add_argument(
        "--quarantine-output", type=Path, default=None, metavar="PATH",
        help="write the checksummed quarantine sidecar (invalid "
             "replies with machine-readable reason codes, plus the "
             "RR→ping degradation log) here",
    )
    chaos.add_argument(
        "--stats-output", type=Path, default=None,
        help="write the campaign manifest + supervision health "
             "summary as JSON here (CI artifact)",
    )
    chaos.add_argument(
        "--status", type=Path, default=None, metavar="PATH",
        help="publish a live campaign status snapshot (atomic JSON) "
             "here; watch it with `repro top --status PATH`",
    )
    chaos.add_argument(
        "--spans", action="store_true",
        help="record hierarchical spans (campaign → round → VP "
             "attempt → probe batch); view with --spans-output / "
             "`repro trace`",
    )
    chaos.add_argument(
        "--spans-output", type=Path, default=None, metavar="PATH",
        help="write completed spans as JSONL here (implies --spans)",
    )
    chaos.add_argument(
        "--journal-output", type=Path, default=None, metavar="PATH",
        help="write per-VP flight-recorder journals as JSON here "
             "(supervised runs only)",
    )

    top = sub.add_parser(
        "top",
        help="live campaign status view (reads a --status snapshot)",
    )
    top.add_argument(
        "--status", type=Path, required=True, metavar="PATH",
        help="status snapshot file written by `repro chaos --status`",
    )
    top.add_argument(
        "--interval", type=float, default=1.0,
        help="poll interval in seconds",
    )
    top.add_argument(
        "--once", action="store_true",
        help="render one frame and exit (CI-friendly)",
    )
    top.add_argument(
        "--timeout", type=float, default=None,
        help="give up after this many seconds without the campaign "
             "reaching a terminal state",
    )

    trace = sub.add_parser(
        "trace",
        help="run a traced campaign and print its span tree",
    )
    trace.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    trace.add_argument("--seed", type=int, default=2016)
    trace.add_argument(
        "--dests", type=int, default=None,
        help="probe only the first N hitlist destinations",
    )
    trace.add_argument(
        "--vps", type=int, default=None,
        help="probe from only the first N vantage points",
    )
    trace.add_argument("--jobs", type=_jobs, default=1)
    trace.add_argument(
        "--sample", type=int, default=0, metavar="N",
        help="attach every Nth probe as a span event (0 = off)",
    )
    trace.add_argument(
        "--chrome-out", type=Path, default=None, metavar="PATH",
        help="write Chrome trace-event JSON (open in chrome://tracing "
             "or https://ui.perfetto.dev)",
    )
    trace.add_argument(
        "--jsonl-out", type=Path, default=None, metavar="PATH",
        help="write completed spans as JSONL",
    )

    probe = sub.add_parser("probe", help="issue a single measurement")
    probe.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    probe.add_argument("--seed", type=int, default=2016)
    probe.add_argument(
        "--vp", default=None,
        help="VP name (default: first working VP)",
    )
    probe.add_argument("--dst", required=True, help="dotted-quad target")
    probe.add_argument(
        "--type",
        dest="probe_type",
        default="rr",
        choices=["ping", "rr", "rrudp", "ts", "trace"],
    )
    probe.add_argument(
        "--ttl", type=int, default=64, help="initial TTL (rr probes)"
    )
    probe.add_argument(
        "--trace",
        action="store_true",
        help="render the per-hop dataplane walk after the result",
    )
    probe.add_argument(
        "--trace-output", type=Path, default=None, metavar="PATH",
        help="write the hop-by-hop TraceEvents as checksummed JSONL "
             "(implies --trace)",
    )

    stats = sub.add_parser(
        "stats",
        help="run a study, then print the metrics registry",
    )
    stats.add_argument(
        "--preset", default="small", choices=sorted(PRESETS)
    )
    stats.add_argument("--seed", type=int, default=2016)
    stats.add_argument(
        "--format",
        dest="stats_format",
        default="table",
        choices=["table", "prom", "jsonl"],
    )
    stats.add_argument(
        "--output", type=Path, default=None,
        help="also write the rendered metrics to this file",
    )
    stats.add_argument(
        "--jobs", type=_jobs, default=1,
        help="survey fan-out: worker processes (1 = serial)",
    )
    stats.add_argument(
        "--faults", default="none", choices=sorted(FAULT_PRESETS),
        help="run the study under this fault plan first, so the "
             "fault-injection and campaign counters are populated",
    )
    stats.add_argument(
        "--no-batch", action="store_true",
        help="force the legacy per-hop walk instead of the batched "
             "stamp-plan dataplane (results are byte-identical)",
    )
    stats.add_argument(
        "--dataplane", action="store_true",
        help="append the batched-dataplane section (stamp-plan cache "
             "hits/misses/evictions, compiles, invalidations, replays, "
             "forward-path cache counters)",
    )
    stats.add_argument(
        "--health", action="store_true",
        help="append the supervision-health section (heartbeat ages, "
             "hangs, respawns, quarantines, breaker states, artifact "
             "checksums, checkpoint repairs); with --faults, the "
             "campaign runs supervised so the counters are live",
    )
    stats.add_argument(
        "--service", action="store_true",
        help="run the demo multi-tenant service pack instead of a "
             "study and append the service section (specs accepted / "
             "rejected by reason, credits accrued / spent, per-tenant "
             "probes, scheduler rounds)",
    )
    stats.add_argument(
        "--quality", action="store_true",
        help="append the reply-quality section (validation verdicts, "
             "quarantine reasons, RR→ping degradations); pair with a "
             "misbehavior preset such as --faults hostile to "
             "populate it",
    )

    serve = sub.add_parser(
        "serve",
        help="run the multi-tenant measurement service daemon",
    )
    serve.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    serve.add_argument("--seed", type=int, default=2016)
    serve.add_argument("--jobs", type=_jobs, default=1)
    serve.add_argument(
        "--no-batch", action="store_true",
        help="force the legacy per-hop walk (byte-identical results)",
    )
    serve.add_argument(
        "--spec", action="append", default=[], type=Path,
        metavar="FILE",
        help="submit the spec(s) in this JSON / JSONL file at startup "
             "(repeatable)",
    )
    serve.add_argument(
        "--demo", action="store_true",
        help="submit the built-in demo tenant pack (three tenants, "
             "one deterministically over-quota)",
    )
    serve.add_argument(
        "--stream-dir", type=Path, default=Path("service-streams"),
        metavar="DIR",
        help="per-tenant result streams land under DIR/<tenant>/",
    )
    serve.add_argument(
        "--control", type=Path, default=None, metavar="SOCK",
        help="listen on this unix control socket (repro submit / "
             "status-spec); without it the daemon exits once all "
             "submitted specs are terminal",
    )
    serve.add_argument("--checkpoint", type=Path, default=None)
    serve.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint instead of starting fresh",
    )
    serve.add_argument(
        "--status", type=Path, default=None, metavar="PATH",
        help="publish a live service status snapshot here; watch it "
             "with `repro top --status PATH`",
    )
    serve.add_argument(
        "--kill-after-units", type=int, default=None,
        help="simulate a crash after N newly-flushed units "
             f"(exit code {EXIT_INTERRUPTED})",
    )
    serve.add_argument(
        "--max-rounds", type=int, default=None,
        help="stop after this many scheduler rounds (debugging)",
    )
    serve.add_argument(
        "--initial-credits", type=float, default=500.0,
        help="per-tenant starting credit balance",
    )
    serve.add_argument(
        "--accrual", type=float, default=50.0,
        help="credits granted per tenant per scheduler round",
    )
    serve.add_argument(
        "--balance-cap", type=float, default=1000.0,
        help="per-tenant credit balance ceiling",
    )
    serve.add_argument(
        "--cost-per-probe", type=float, default=1.0,
        help="credits charged per probe",
    )
    serve.add_argument(
        "--max-probes-per-spec", type=int, default=10_000,
        help="admission ceiling on one spec's total probe budget",
    )
    serve.add_argument(
        "--max-active-specs", type=int, default=4,
        help="admission ceiling on one tenant's concurrent specs",
    )

    submit = sub.add_parser(
        "submit",
        help="submit spec(s) to a running daemon's control socket",
    )
    submit.add_argument(
        "--control", type=Path, required=True, metavar="SOCK"
    )
    submit.add_argument(
        "--spec", action="append", default=[], type=Path,
        metavar="FILE",
        help="JSON / JSONL spec file (repeatable)",
    )
    submit.add_argument(
        "--json", dest="spec_json", action="append", default=[],
        metavar="OBJ",
        help="inline JSON spec object (repeatable)",
    )

    status_spec = sub.add_parser(
        "status-spec",
        help="query a running daemon for live per-spec status",
    )
    status_spec.add_argument(
        "--control", type=Path, required=True, metavar="SOCK"
    )
    status_spec.add_argument(
        "--tenant", default=None, help="filter by tenant"
    )
    status_spec.add_argument(
        "--name", default=None, help="filter by spec name"
    )

    export = sub.add_parser(
        "export", help="write synthetic datasets to a directory"
    )
    export.add_argument(
        "--preset", default="tiny", choices=sorted(PRESETS)
    )
    export.add_argument("--seed", type=int, default=2016)
    export.add_argument("--dir", type=Path, required=True)

    return parser


def _cmd_presets(_args: argparse.Namespace) -> int:
    for name in sorted(PRESETS):
        scenario = get_preset(name)
        print(f"{name:12} {scenario.describe()}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    faults = getattr(args, "faults", "none")
    checkpoint = getattr(args, "checkpoint", None)
    if faults != "none" or checkpoint is not None:
        # Chaos and/or checkpointing requested: run through the
        # resilient campaign driver (uncached — fault plans are not
        # part of the study-cache key by design).
        scenario = get_preset(args.preset, seed=args.seed)
        plan = build_fault_plan(
            faults,
            scenario_seed=args.seed,
            seed=getattr(args, "fault_seed", None),
        )
        try:
            study, result = run_resilient_study(
                scenario,
                plan=plan,
                jobs=getattr(args, "jobs", 1),
                max_retries=getattr(args, "max_retries", 3),
                checkpoint_path=checkpoint,
                resume=getattr(args, "resume", False),
                batch=not getattr(args, "no_batch", False),
            )
        except SurveyFormatError as exc:
            print(f"study: {exc}", file=sys.stderr)
            return 2
        if result.partial:
            print(
                "warning: partial campaign — failed VPs: "
                + ", ".join(result.failed_vps),
                file=sys.stderr,
            )
    else:
        study = get_study(
            args.preset,
            seed=args.seed,
            jobs=getattr(args, "jobs", 1),
            batch=not getattr(args, "no_batch", False),
        )
    names = (
        sorted(EXPERIMENTS)
        if args.experiment == "all"
        else [args.experiment]
    )
    sections = []
    for name in names:
        sections.append(banner(f"{name} — preset {args.preset}"))
        sections.append(EXPERIMENTS[name](study))
    report = "\n".join(sections)
    print(report)
    if args.output is not None:
        args.output.write_text(report + "\n", "utf-8")
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CampaignInterrupted, CampaignRunner
    from repro.faults.specs import FaultPlan, VpCrash, VpHang
    from repro.faults.supervisor import SupervisionConfig

    scenario = get_preset(args.preset, seed=args.seed)
    scenario.prober.batching = not getattr(args, "no_batch", False)
    plan = build_fault_plan(
        args.faults, scenario_seed=args.seed, seed=args.fault_seed
    )
    extra = []
    try:
        for name in args.hang_vp:
            scenario.vp_by_name(name)  # fail fast on typos
            extra.append(
                VpHang(vps=(name,), after_targets=3, hang_seconds=60.0)
            )
        for name in args.crash_vp:
            scenario.vp_by_name(name)
            extra.append(VpCrash(vps=(name,), after_targets=2))
    except KeyError as exc:
        print(f"chaos: {exc.args[0]}", file=sys.stderr)
        return 2
    if extra:
        plan = FaultPlan(seed=plan.seed, specs=plan.specs + tuple(extra))
    supervision = None
    if args.supervise:
        supervision = SupervisionConfig(
            hang_timeout=args.hang_timeout,
            quarantine_after=args.quarantine_after,
        )
    runner = CampaignRunner(
        scenario,
        plan=plan,
        jobs=args.jobs,
        max_retries=args.max_retries,
        budget_seconds=args.budget,
        checkpoint_path=args.checkpoint,
        kill_after_vps=args.kill_after_vps,
        supervision=supervision,
        status_path=args.status,
        quarantine_path=args.quarantine_output,
    )
    targets = None
    if args.dests is not None:
        targets = list(scenario.hitlist)[: args.dests]
    spans_on = args.spans or args.spans_output is not None
    if spans_on:
        TRACER.configure(True)
        TRACER.reset()
    print(f"{plan.describe()} on preset {args.preset}", file=sys.stderr)
    try:
        try:
            result = runner.run(targets=targets, resume=args.resume)
        except CampaignInterrupted as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            if args.spans_output is not None:
                write_spans_jsonl(args.spans_output, TRACER.snapshot())
                print(f"wrote {args.spans_output}", file=sys.stderr)
            return EXIT_INTERRUPTED
        except SurveyFormatError as exc:
            print(f"chaos: {exc}", file=sys.stderr)
            return 2
    finally:
        if spans_on:
            TRACER.configure(False)
    print(json.dumps(result.manifest(), indent=2, sort_keys=True))
    if args.save_survey is not None:
        save_survey(result.survey, args.save_survey)
        print(f"wrote {args.save_survey}", file=sys.stderr)
    if result.quarantine_sidecar is not None:
        print(f"wrote {result.quarantine_sidecar}", file=sys.stderr)
    if args.spans_output is not None:
        write_spans_jsonl(args.spans_output, TRACER.snapshot())
        print(f"wrote {args.spans_output}", file=sys.stderr)
    if args.journal_output is not None:
        args.journal_output.write_text(
            json.dumps(result.journals, indent=2, sort_keys=True) + "\n",
            "utf-8",
        )
        print(f"wrote {args.journal_output}", file=sys.stderr)
    if args.stats_output is not None:
        payload = {
            "manifest": result.manifest(),
            "health": _health_summary(REGISTRY.snapshot()),
            "journals": result.journals,
        }
        args.stats_output.write_text(
            json.dumps(payload, indent=2, sort_keys=True) + "\n", "utf-8"
        )
        print(f"wrote {args.stats_output}", file=sys.stderr)
    if result.quarantined:
        return EXIT_QUARANTINED
    return 0


def _cmd_probe(args: argparse.Namespace) -> int:
    scenario = get_preset(args.preset, seed=args.seed)
    if args.vp is None:
        vp = scenario.working_vps[0]
    else:
        vp = scenario.vp_by_name(args.vp)
    dst = addr_to_int(args.dst)
    prober = scenario.prober
    trace_output = getattr(args, "trace_output", None)
    tracer: Optional[PacketTracer] = None
    if getattr(args, "trace", False) or trace_output is not None:
        tracer = scenario.network.attach_tracer()
    print(f"{args.probe_type} {int_to_addr(dst)} from {vp}")
    if args.probe_type == "ping":
        result = prober.ping(vp, dst)
        print(f"responded={result.responded} replies={result.replies}")
    elif args.probe_type == "rr":
        result = prober.ping_rr(vp, dst, ttl=args.ttl)
        print(result)
        if result.reachable:
            print(f"destination at RR slot {result.dest_slot()}")
    elif args.probe_type == "rrudp":
        result = prober.ping_rr_udp(vp, dst)
        print(result)
    elif args.probe_type == "ts":
        result = prober.ping_ts(vp, dst)
        print(f"responded={result.responded} "
              f"stamps={result.stamped_count} entries={result.entries}")
    else:  # trace
        result = prober.traceroute(vp, dst)
        print(result)
    if tracer is not None:
        scenario.network.detach_tracer()
        if getattr(args, "trace", False):
            print("\n-- hop trace " + "-" * 47)
            print(tracer.render())
        if trace_output is not None:
            write_trace_jsonl(trace_output, tracer.events)
            print(f"wrote {trace_output}", file=sys.stderr)
    return 0


def _sum_series(
    snapshot: dict, name: str, by: Optional[str] = None
) -> Dict[str, int]:
    """Sum a counter family's series, optionally grouped by one label
    (the per-network ``net`` label is always aggregated away)."""
    family = snapshot.get(name)
    totals: Dict[str, int] = {}
    if not family:
        return totals
    for series in family["series"]:
        key = series["labels"].get(by, "") if by else ""
        totals[key] = totals.get(key, 0) + series["value"]
    return totals


def _health_summary(snapshot: dict) -> dict:
    """Supervision/integrity health as plain data (JSON-safe).

    Shared by ``repro stats --health`` and ``repro chaos
    --stats-output`` so the CI artifact and the rendered table can
    never disagree on what "healthy" means.
    """
    heartbeat = snapshot.get("supervisor_heartbeat_age_seconds")
    beat_count = 0
    beat_sum = 0.0
    if heartbeat:
        for series in heartbeat["series"]:
            beat_count += series["count"]
            beat_sum += series["sum"]
    return {
        "hangs_detected": _sum_series(
            snapshot, "supervisor_hangs_total"
        ).get("", 0),
        "worker_crashes": _sum_series(
            snapshot, "supervisor_worker_crashes_total"
        ).get("", 0),
        "workers_respawned": _sum_series(
            snapshot, "supervisor_respawns_total"
        ).get("", 0),
        "quarantines": _sum_series(
            snapshot, "supervisor_quarantines_total", by="kind"
        ),
        "breaker_transitions": _sum_series(
            snapshot, "supervisor_breaker_transitions_total", by="to"
        ),
        "breaker_skips": _sum_series(
            snapshot, "supervisor_breaker_skips_total"
        ).get("", 0),
        "checkpoint_repairs": _sum_series(
            snapshot, "campaign_checkpoint_repairs_total"
        ).get("", 0),
        "checksums_verified": _sum_series(
            snapshot, "artifact_checksum_verified_total", by="kind"
        ),
        "checksum_failures": _sum_series(
            snapshot, "artifact_checksum_failures_total", by="kind"
        ),
        "heartbeats_observed": beat_count,
        "heartbeat_age_mean_seconds": (
            round(beat_sum / beat_count, 6) if beat_count else None
        ),
    }


def _render_health_section(snapshot: dict) -> str:
    health = _health_summary(snapshot)
    lines = ["supervision health"]
    lines.append(
        f"  {'hangs_detected':<22} {health['hangs_detected']:>10}"
    )
    lines.append(
        f"  {'worker_crashes':<22} {health['worker_crashes']:>10}"
    )
    lines.append(
        f"  {'workers_respawned':<22} {health['workers_respawned']:>10}"
    )
    quarantines = health["quarantines"]
    if quarantines:
        for kind in sorted(quarantines):
            lines.append(
                f"  {'quarantined[' + kind + ']':<22} "
                f"{quarantines[kind]:>10}"
            )
    else:
        lines.append(f"  {'quarantined':<22} {0:>10}")
    for state in sorted(health["breaker_transitions"]):
        lines.append(
            f"  {'breaker→' + state:<22} "
            f"{health['breaker_transitions'][state]:>10}"
        )
    lines.append(
        f"  {'breaker_skips':<22} {health['breaker_skips']:>10}"
    )
    if health["heartbeats_observed"]:
        mean = health["heartbeat_age_mean_seconds"]
        lines.append(
            f"  {'heartbeat_age_mean':<22} {mean:>10.4f}s "
            f"({health['heartbeats_observed']} observed)"
        )
    lines.append("artifact integrity")
    verified = health["checksums_verified"]
    failures = health["checksum_failures"]
    for kind in sorted(set(verified) | set(failures)) or [""]:
        label = kind or "artifact"
        lines.append(
            f"  {'checksum[' + label + ']':<22} "
            f"ok={verified.get(kind, 0):<8} "
            f"bad={failures.get(kind, 0)}"
        )
    lines.append(
        f"  {'checkpoint_repairs':<22} "
        f"{health['checkpoint_repairs']:>10}"
    )
    return "\n".join(lines)


def _render_dataplane_section(snapshot: dict) -> str:
    """The ``--dataplane`` section: the batched engine's cache story.

    Reads the stamp-plan cache counters (lookups by result, evictions,
    compiles, invalidations, replays) plus the forward-path cache they
    sit beside, so one glance answers "did probes replay compiled
    plans, and how often did invalidation throw work away?".
    """
    plan_lookups = _sum_series(
        snapshot, "plan_cache_lookups_total", by="result"
    )
    path_lookups = _sum_series(
        snapshot, "path_cache_lookups_total", by="result"
    )
    lines = ["batched dataplane (stamp plans)"]
    lines.append(f"  {'hits':<22} {plan_lookups.get('hit', 0):>10}")
    lines.append(f"  {'misses':<22} {plan_lookups.get('miss', 0):>10}")
    lines.append(
        f"  {'evictions':<22} "
        f"{_sum_series(snapshot, 'plan_cache_evictions_total').get('', 0):>10}"
    )
    lines.append(
        f"  {'plan_compiles_total':<22} "
        f"{_sum_series(snapshot, 'plan_compiles_total').get('', 0):>10}"
    )
    lines.append(
        f"  {'plan_invalidations_total':<24} "
        f"{_sum_series(snapshot, 'plan_invalidations_total').get('', 0):>8}"
    )
    lines.append(
        f"  {'plan_replays_total':<22} "
        f"{_sum_series(snapshot, 'plan_replays_total').get('', 0):>10}"
    )
    lines.append("forward-path cache")
    lines.append(f"  {'hits':<22} {path_lookups.get('hit', 0):>10}")
    lines.append(f"  {'misses':<22} {path_lookups.get('miss', 0):>10}")
    lines.append(
        f"  {'invalidations':<22} "
        f"{_sum_series(snapshot, 'path_cache_invalidations_total').get('', 0):>10}"
    )
    return "\n".join(lines)


def _render_service_section(snapshot: dict) -> str:
    """The ``--service`` section: the multi-tenant service counters."""
    accepted = _sum_series(
        snapshot, "service_specs_accepted_total", by="tenant"
    )
    rejected = _sum_series(
        snapshot, "service_specs_rejected_total", by="reason"
    )
    accrued = _sum_series(
        snapshot, "service_credits_accrued_total", by="tenant"
    )
    spent = _sum_series(
        snapshot, "service_credits_spent_total", by="tenant"
    )
    probes = _sum_series(
        snapshot, "service_tenant_probes_total", by="tenant"
    )
    units = _sum_series(snapshot, "service_units_total", by="outcome")
    paused = _sum_series(
        snapshot, "service_specs_paused_total", by="tenant"
    )
    rounds = _sum_series(
        snapshot, "service_scheduler_rounds_total"
    ).get("", 0)
    lines = ["multi-tenant service"]
    lines.append(f"  {'scheduler_rounds':<22} {rounds:>10}")
    for outcome in sorted(units):
        lines.append(
            f"  {'units[' + outcome + ']':<22} {units[outcome]:>10}"
        )
    for reason in sorted(rejected):
        lines.append(
            f"  {'rejected[' + reason + ']':<30} {rejected[reason]:>2}"
        )
    lines.append("per-tenant accounting")
    for tenant in sorted(set(accepted) | set(probes) | set(spent)):
        lines.append(
            f"  {tenant:<10} specs={accepted.get(tenant, 0):<4} "
            f"paused={paused.get(tenant, 0):<4} "
            f"probes={probes.get(tenant, 0):<8} "
            f"spent={spent.get(tenant, 0.0):<10.6g} "
            f"accrued={accrued.get(tenant, 0.0):.6g}"
        )
    return "\n".join(lines)


def _render_quality_section(snapshot: dict) -> str:
    """The ``--quality`` section: the reply-validation pipeline."""
    verdicts = _sum_series(
        snapshot, "validation_verdicts_total", by="verdict"
    )
    reasons = _sum_series(
        snapshot, "quarantine_records_total", by="reason"
    )
    degraded = _sum_series(snapshot, "rr_degraded_total", by="reason")
    lines = ["reply quality (validation pipeline)"]
    lines.append(
        f"  {'replies_checked':<28} {sum(verdicts.values()):>8}"
    )
    for verdict in sorted(verdicts):
        lines.append(
            f"  {'verdict[' + verdict + ']':<28} "
            f"{verdicts[verdict]:>8}"
        )
    for reason in sorted(reasons):
        lines.append(
            f"  {'quarantined[' + reason + ']':<28} "
            f"{reasons[reason]:>8}"
        )
    if not reasons:
        lines.append(f"  {'quarantined':<28} {0:>8}")
    for reason in sorted(degraded):
        lines.append(
            f"  {'degraded[' + reason + ']':<28} "
            f"{degraded[reason]:>8}"
        )
    if not degraded:
        lines.append(f"  {'degraded':<28} {0:>8}")
    return "\n".join(lines)


def _run_service_demo(args: argparse.Namespace) -> None:
    """Run the demo tenant pack so the ``service_*`` counters are
    live; streams and checkpoint go to a throwaway directory."""
    import tempfile

    from repro.scenarios.service import demo_quota, demo_spec_records
    from repro.service.daemon import MeasurementDaemon, ServiceConfig

    scenario = get_preset(args.preset, seed=args.seed)
    scenario.prober.batching = not getattr(args, "no_batch", False)
    quota, overrides = demo_quota()
    with tempfile.TemporaryDirectory(prefix="repro-service-") as tmp:
        daemon = MeasurementDaemon(
            scenario,
            ServiceConfig(
                stream_dir=Path(tmp),
                jobs=getattr(args, "jobs", 1),
                quota=quota,
                quota_overrides=overrides,
            ),
        )
        for record in demo_spec_records():
            daemon.submit(record)
        daemon.run()


def _render_stats_table(snapshot: dict) -> str:
    lines = [banner("metrics registry")]

    sent = _sum_series(snapshot, "net_sent_total").get("", 0)
    delivered = _sum_series(snapshot, "net_delivered_total").get("", 0)
    drops = _sum_series(snapshot, "net_dropped_total", by="cause")
    icmp = _sum_series(snapshot, "net_icmp_sent_total", by="kind")
    lines.append("dataplane")
    lines.append(f"  {'sent':<22} {sent:>10}")
    lines.append(f"  {'delivered':<22} {delivered:>10}")
    for cause in sorted(drops):
        lines.append(f"  {'dropped[' + cause + ']':<22} {drops[cause]:>10}")
    lines.append(f"  {'dropped[total]':<22} {sum(drops.values()):>10}")
    for kind in sorted(icmp):
        lines.append(f"  {'icmp[' + kind + ']':<22} {icmp[kind]:>10}")
    trace_dropped = _sum_series(
        snapshot, "trace_dropped_events_total"
    ).get("", 0)
    if trace_dropped:
        lines.append(f"  {'trace_dropped':<22} {trace_dropped:>10}")

    accepted = _sum_series(snapshot, "ratelimit_accepted_total", by="role")
    rejected = _sum_series(snapshot, "ratelimit_rejected_total", by="role")
    if accepted or rejected:
        lines.append("slow-path rate limiting (by router class)")
        for role in sorted(set(accepted) | set(rejected)):
            lines.append(
                f"  {role:<10} accepted={accepted.get(role, 0):<10} "
                f"rejected={rejected.get(role, 0)}"
            )

    probes = _sum_series(snapshot, "probe_sent_total", by="type")
    replies = _sum_series(snapshot, "probe_replies_total", by="type")
    timeouts = _sum_series(snapshot, "probe_timeouts_total", by="type")
    if probes:
        lines.append("probes (by type)")
        for ptype in sorted(probes):
            issued = probes[ptype]
            answered = replies.get(ptype, 0)
            rate = f"{answered / issued:.1%}" if issued else "-"
            lines.append(
                f"  {ptype:<8} sent={issued:<10} replies={answered:<10} "
                f"timeouts={timeouts.get(ptype, 0):<10} reply_rate={rate}"
            )

    injected = _sum_series(snapshot, "faults_injected_total", by="kind")
    fault_drops = _sum_series(snapshot, "fault_drops_total", by="kind")
    if injected or fault_drops:
        lines.append("fault injection (by kind)")
        for kind in sorted(set(injected) | set(fault_drops)):
            lines.append(
                f"  {kind:<16} events={injected.get(kind, 0):<8} "
                f"drops={fault_drops.get(kind, 0)}"
            )

    campaign = _sum_series(
        snapshot, "campaign_vp_attempts_total", by="outcome"
    )
    if campaign:
        retries = _sum_series(snapshot, "campaign_retries_total").get(
            "", 0
        )
        resumed = _sum_series(
            snapshot, "campaign_resumed_vps_total"
        ).get("", 0)
        lines.append("campaign resilience")
        for outcome in sorted(campaign):
            lines.append(
                f"  {'attempts[' + outcome + ']':<18} "
                f"{campaign[outcome]:>8}"
            )
        lines.append(f"  {'retry_rounds':<18} {retries:>8}")
        lines.append(f"  {'resumed_vps':<18} {resumed:>8}")

    phases = snapshot.get("phase_seconds")
    if phases and phases["series"]:
        lines.append("phase timings (wall clock)")
        for series in phases["series"]:
            phase = series["labels"].get("phase", "?")
            count = series["count"]
            mean = series["sum"] / count if count else 0.0
            lines.append(
                f"  {phase:<16} runs={count:<6} total={series['sum']:.3f}s "
                f"mean={mean:.3f}s"
            )

    collections = _sum_series(
        snapshot, "gc_collections_total", by="generation"
    )
    if collections:
        pauses = _sum_series(
            snapshot, "gc_pause_seconds_total", by="generation"
        )
        lines.append("collector (during task bodies, summed per process)")
        for generation in sorted(collections):
            lines.append(
                f"  {'gen' + generation:<16} "
                f"runs={collections[generation]:<6} "
                f"total={pauses.get(generation, 0.0):.3f}s"
            )

    cache = _sum_series(snapshot, "study_cache_lookups_total", by="result")
    if cache:
        lines.append("study cache")
        for result in sorted(cache):
            lines.append(f"  {result:<8} {cache[result]}")

    paths = _sum_series(snapshot, "path_cache_lookups_total", by="result")
    if paths:
        lines.append("forward-path cache")
        hits = paths.get("hit", 0)
        misses = paths.get("miss", 0)
        total = hits + misses
        rate = f"{hits / total:.1%}" if total else "-"
        lines.append(f"  {'hit':<8} {hits:>10}")
        lines.append(f"  {'miss':<8} {misses:>10}")
        lines.append(f"  {'hit_rate':<8} {rate:>10}")

    trees = _sum_series(
        snapshot, "routing_tree_cache_lookups_total", by="result"
    )
    if trees:
        evictions = _sum_series(
            snapshot, "routing_tree_cache_evictions_total"
        ).get("", 0)
        lines.append("routing-tree LRU cache")
        lines.append(f"  {'hit':<9} {trees.get('hit', 0):>10}")
        lines.append(f"  {'miss':<9} {trees.get('miss', 0):>10}")
        lines.append(f"  {'evictions':<9} {evictions:>10}")
    return "\n".join(lines)


def _cmd_stats(args: argparse.Namespace) -> int:
    faults = getattr(args, "faults", "none")
    health = getattr(args, "health", False)
    service = getattr(args, "service", False)
    if service:
        # The service demo is the workload: it exercises admission,
        # scheduling, credits, and streams, so the service_* family
        # is live without paying for a full study.
        _run_service_demo(args)
    elif faults != "none":
        supervision = None
        if health:
            # --health implies the campaign should exercise the
            # supervision layer so its counters are live.
            from repro.faults.supervisor import SupervisionConfig

            supervision = SupervisionConfig(
                hang_timeout=10.0, quarantine_after=2
            )
        scenario = get_preset(args.preset, seed=args.seed)
        plan = build_fault_plan(faults, scenario_seed=args.seed)
        run_resilient_study(
            scenario,
            plan=plan,
            jobs=getattr(args, "jobs", 1),
            supervision=supervision,
            batch=not getattr(args, "no_batch", False),
        )
    else:
        get_study(
            args.preset,
            seed=args.seed,
            jobs=getattr(args, "jobs", 1),
            batch=not getattr(args, "no_batch", False),
        )
    snapshot = REGISTRY.snapshot()
    if args.stats_format == "prom":
        rendered = to_prometheus(snapshot)
    elif args.stats_format == "jsonl":
        rendered = to_jsonl(snapshot)
    else:
        rendered = _render_stats_table(snapshot)
        if getattr(args, "dataplane", False):
            rendered += "\n" + _render_dataplane_section(snapshot)
        if health:
            rendered += "\n" + _render_health_section(snapshot)
        if service:
            rendered += "\n" + _render_service_section(snapshot)
        if getattr(args, "quality", False):
            rendered += "\n" + _render_quality_section(snapshot)
    print(rendered)
    if args.output is not None:
        args.output.write_text(rendered.rstrip("\n") + "\n", "utf-8")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    deadline = (
        None if args.timeout is None else _time.monotonic() + args.timeout
    )
    waiting_since: Optional[float] = None
    while True:
        try:
            status = load_status(args.status)
        except FileNotFoundError:
            status = None
        except ValueError as exc:
            print(f"top: {exc}", file=sys.stderr)
            return 2
        if status is None:
            if args.once:
                print(f"top: no status snapshot at {args.status}",
                      file=sys.stderr)
                return 2
            if waiting_since is None:
                waiting_since = _time.monotonic()
                print(f"top: waiting for {args.status} ...",
                      file=sys.stderr)
        else:
            print(render_status(status))
            if args.once:
                return 0
            if status.get("state") in ("done", "interrupted"):
                return 0
            print()
        if deadline is not None and _time.monotonic() >= deadline:
            print("top: timed out", file=sys.stderr)
            return 1
        _time.sleep(max(args.interval, 0.05))


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.faults.campaign import CampaignRunner

    scenario = get_preset(args.preset, seed=args.seed)
    targets = None
    if args.dests is not None:
        targets = list(scenario.hitlist)[: args.dests]
    vps = None
    if args.vps is not None:
        vps = list(scenario.working_vps)[: args.vps]
    if args.sample:
        scenario.prober.span_sample = args.sample
    TRACER.configure(True)
    TRACER.reset()
    try:
        CampaignRunner(scenario, jobs=args.jobs).run(
            targets=targets, vps=vps
        )
    finally:
        TRACER.configure(False)
    spans = TRACER.snapshot()
    print(render_span_tree(spans))
    if args.chrome_out is not None:
        write_chrome_trace(args.chrome_out, spans)
        print(f"wrote {args.chrome_out}", file=sys.stderr)
    if args.jsonl_out is not None:
        write_spans_jsonl(args.jsonl_out, spans)
        print(f"wrote {args.jsonl_out}", file=sys.stderr)
    return 0


def _load_spec_records(path: Path) -> list:
    """Parse one spec file: a JSON object, a JSON array, or JSONL."""
    text = path.read_text("utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        records = []
        for line in text.splitlines():
            line = line.strip()
            if line:
                records.append(json.loads(line))
        return records
    if isinstance(data, list):
        return data
    return [data]


def _quota_from_args(args: argparse.Namespace):
    from repro.service.credits import TenantQuota

    return TenantQuota(
        initial_credits=args.initial_credits,
        accrual_per_round=args.accrual,
        balance_cap=args.balance_cap,
        cost_per_probe=args.cost_per_probe,
        max_probes_per_spec=args.max_probes_per_spec,
        max_active_specs=args.max_active_specs,
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.daemon import (
        MeasurementDaemon,
        ServiceConfig,
        ServiceInterrupted,
    )

    scenario = get_preset(args.preset, seed=args.seed)
    scenario.prober.batching = not getattr(args, "no_batch", False)
    quota = _quota_from_args(args)
    overrides: dict = {}
    records = []
    if args.demo:
        from repro.scenarios.service import demo_quota, demo_spec_records

        quota, overrides = demo_quota()
        records.extend(demo_spec_records())
    for spec_path in args.spec:
        try:
            records.extend(_load_spec_records(spec_path))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"serve: cannot load {spec_path}: {exc}",
                  file=sys.stderr)
            return 2
    config = ServiceConfig(
        stream_dir=args.stream_dir,
        jobs=args.jobs,
        quota=quota,
        quota_overrides=overrides,
        checkpoint_path=args.checkpoint,
        status_path=args.status,
        control_path=args.control,
        max_rounds=args.max_rounds,
        kill_after_units=args.kill_after_units,
    )
    daemon = MeasurementDaemon(scenario, config)
    if args.resume and args.checkpoint is None:
        print("serve: --resume needs --checkpoint", file=sys.stderr)
        return 2
    try:
        if args.resume:
            # Restore *before* submitting, so spec files re-passed on
            # the resume command line dedup against checkpointed state
            # instead of being re-admitted from scratch.
            daemon.restore()
        for record in records:
            response = daemon.submit(record)
            print(json.dumps(response, sort_keys=True), file=sys.stderr)
        manifest = daemon.run()
    except ServiceInterrupted as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except ValueError as exc:
        print(f"serve: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.control import ControlError, control_request

    records = []
    for spec_path in args.spec:
        try:
            records.extend(_load_spec_records(spec_path))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"submit: cannot load {spec_path}: {exc}",
                  file=sys.stderr)
            return 2
    for blob in args.spec_json:
        try:
            records.append(json.loads(blob))
        except json.JSONDecodeError as exc:
            print(f"submit: bad --json: {exc}", file=sys.stderr)
            return 2
    if not records:
        print("submit: nothing to submit (use --spec / --json)",
              file=sys.stderr)
        return 2
    rejected = 0
    for record in records:
        try:
            response = control_request(
                args.control, {"op": "submit", "spec": record}
            )
        except ControlError as exc:
            print(f"submit: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(response, sort_keys=True))
        if not response.get("ok"):
            rejected += 1
    return 1 if rejected else 0


def _cmd_status_spec(args: argparse.Namespace) -> int:
    from repro.service.control import ControlError, control_request

    try:
        response = control_request(
            args.control,
            {"op": "status", "tenant": args.tenant, "spec": args.name},
        )
    except ControlError as exc:
        print(f"status-spec: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    scenario = get_preset(args.preset, seed=args.seed)
    args.dir.mkdir(parents=True, exist_ok=True)
    rib = args.dir / "rib.txt"
    rib.write_text("\n".join(scenario.table.to_lines()) + "\n", "utf-8")
    as2type = args.dir / "as2type.txt"
    as2type.write_text(
        "\n".join(scenario.classification.to_lines()) + "\n", "utf-8"
    )
    hitlist = args.dir / "hitlist.txt"
    hitlist.write_text(
        "\n".join(scenario.hitlist.to_lines()) + "\n", "utf-8"
    )
    for path in (rib, as2type, hitlist):
        print(f"wrote {path}")
    return 0


_COMMANDS = {
    "presets": _cmd_presets,
    "study": _cmd_study,
    "chaos": _cmd_chaos,
    "top": _cmd_top,
    "trace": _cmd_trace,
    "probe": _cmd_probe,
    "stats": _cmd_stats,
    "export": _cmd_export,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status-spec": _cmd_status_spec,
}


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
