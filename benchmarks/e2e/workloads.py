"""Workload bodies for the end-to-end benchmark, one job per process.

``run.py`` starts this file in a fresh interpreter for every timed
repetition, so no repetition inherits another's heap::

    python3 benchmarks/e2e/workloads.py '<job as JSON>'

The job names a workload, a seed, a scale, a mode (``rep``, ``warm``
or ``trace``) and a work directory. The process prints its result as
one JSON object on the last line of stdout. Each repetition records
its raw times together with the machine's speed while they were
measured (``speed.py``).

``repro`` is driven only through the entry points listed in
``spec.json`` (plus the constants, enums and exception types they take
and raise). The traced mode stages a survey layer by layer through the
lower-level public calls listed there, wrapping each in a span.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from repro.core.study import run_full_study  # noqa: E402
from repro.core.survey import (  # noqa: E402
    PingSurvey,
    RRSurvey,
    SurveyFormatError,
    load_survey,
    run_ping_survey,
    run_rr_survey,
    save_survey,
)
from repro.faults import (  # noqa: E402
    CampaignRunner,
    FaultPlan,
    SupervisionConfig,
)
from repro.obs.metrics import REGISTRY  # noqa: E402
from repro.probing.artifacts import verify_embedded_checksum  # noqa: E402
from repro.probing.prober import DEFAULT_PPS  # noqa: E402
from repro.probing.scheduler import (  # noqa: E402
    ProbeOrder,
    order_destinations,
)
from repro.probing.validation import INVALID, ReplyValidator  # noqa: E402
from repro.rng import derive_seed  # noqa: E402
from repro.scenarios.faults import FAULT_PRESETS  # noqa: E402
from repro.scenarios.presets import get_preset  # noqa: E402
from repro.service.credits import TenantQuota  # noqa: E402
from repro.service.daemon import MeasurementDaemon, ServiceConfig  # noqa: E402
from repro.service.executor import (  # noqa: E402
    make_unit_task,
    service_unit_body,
)
from repro.service.specs import (  # noqa: E402
    PING_COUNT,
    parse_spec,
    resolve_vps,
)
from repro.service.streams import StreamFormatError, load_stream  # noqa: E402

from speed import SpeedProbe  # noqa: E402
from stats import ratio  # noqa: E402
from tracing import GC_LAYER, SpanRecorder  # noqa: E402

#: The simulated Internet every workload measures on. It is fixed,
#: and ``--seed`` draws the measurement inputs on it: the order of the
#: destinations, the fault plan, the tenants' target window. Worlds
#: built from different seeds differ in size (hitlists by about 5%)
#: and in cost per probe (a warm ``mid`` survey took 1.06-1.46 s over
#: seeds 1-10), which would swamp any change the benchmark is meant to
#: show.
WORLD_SEED = 2016

#: Input sizes. Surveys and the campaign probe every destination of
#: the preset's hitlist (``mid``: 3,454; ``tiny``: 394) in a seeded
#: order; ``vps`` is the first N vantage points (None: all). The study
#: is ``run_full_study`` on the whole preset. Service tenant ``t``
#: asks for ``target_count`` destinations from offset
#: ``base + t * stagger``, ``base`` drawn from the seed.
SCALES = {
    "full": {
        "survey": {"preset": "mid", "vps": None},
        "study": {"preset": "study-2016"},
        "campaign": {"preset": "mid", "vps": 40},
        "service": {"preset": "mid", "tenants": 8, "vp_limit": 25,
                    "target_count": 1000, "stagger": 300},
    },
    "smoke": {
        "survey": {"preset": "tiny", "vps": None},
        "study": {"preset": "tiny"},
        "campaign": {"preset": "tiny", "vps": 6},
        "service": {"preset": "tiny", "tenants": 8, "vp_limit": 3,
                    "target_count": 40, "stagger": 20},
    },
}

#: Scenario builds per repetition; ``setup_s`` is their median.
SETUP_BUILDS = 5
#: Worker processes for the pooled workloads (this benchmark's
#: reference box has two vCPUs).
JOBS = 2
#: Timed surveys a ``survey-warm`` process runs at least; the time
#: budget fits about 8 at the box's usual speed. A larger minimum
#: stretches runs past the budget when the box is slow.
MIN_WARM_REPS = 3
#: Untraced warm surveys the traced ``survey-warm`` run compares with.
REFERENCE_REPS = 3
RR_SLOTS = 9
#: Pings per destination in ``run_full_study``'s origin survey (the
#: ``run_ping_survey`` default).
STUDY_PINGS = 3


# ---------------------------------------------------------------------------
# Measurement helpers.
# ---------------------------------------------------------------------------


def _cpu() -> tuple:
    """(own CPU s, reaped children's CPU s)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def _write_bytes() -> int:
    """Bytes this process has passed to write(2) so far (``wchar``)."""
    try:
        with open("/proc/self/io", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("wchar:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _counter(snapshot: dict, name: str, **labels: str) -> float:
    family = snapshot.get(name)
    if not family:
        return 0.0
    return sum(
        series["value"]
        for series in family["series"]
        if all(series["labels"].get(k) == v for k, v in labels.items())
    )


def _first(items, count: Optional[int]) -> list:
    items = list(items)
    return items if count is None else items[:count]


def _seeded_order(items, seed: int) -> list:
    """Every item, in an order drawn from ``seed``."""
    items = list(items)
    random.Random(derive_seed(seed, "e2e-order")).shuffle(items)
    return items


def _sha256_files(paths: List[Path]) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _corrupt(path: Path) -> None:
    """Flip one bit mid-file (the smoke test's tamper hook)."""
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x01
    path.write_bytes(bytes(data))


def build(preset: str):
    """(scenario, setup): ``SETUP_BUILDS`` fresh builds, their median
    time and the machine's speed while they ran; the last build is the
    one the workload runs on."""
    times = []
    scenario = None
    probe = SpeedProbe()
    with probe.sampling():
        for _ in range(SETUP_BUILDS):
            scenario = None  # free the previous build before timing the next
            start = time.perf_counter()
            scenario = get_preset(preset, WORLD_SEED)
            times.append(time.perf_counter() - start)
    gc.collect()
    return scenario, {"setup_s": statistics.median(times),
                      "setup_speed": probe.speed()}


# ---------------------------------------------------------------------------
# The timed calls. Each returns what it produced; the caller times it.
# ---------------------------------------------------------------------------


def survey_inputs(scenario, cfg: dict, seed: int) -> tuple:
    """(destinations, VPs) of a survey or campaign."""
    return (_seeded_order(scenario.hitlist, seed),
            _first(scenario.vps, cfg["vps"]))


def survey_call(scenario, cfg: dict, seed: int, out: Path) -> dict:
    """§3.1 all-VPs ping-RR survey, serial, then persisted."""
    dests, vps = survey_inputs(scenario, cfg, seed)
    survey = run_rr_survey(scenario, dests=dests, vps=vps, jobs=1)
    path = out / "survey.json"
    save_survey(survey, path)
    return {"paths": [path], "survey": path, "units": len(vps),
            "units_ok": len(vps), "probes": len(vps) * len(dests)}


def _ping_bytes(ping: PingSurvey, dests) -> bytes:
    return json.dumps({
        "origin": ping.origin_name,
        "responsive": [[d.addr, ping.is_responsive(d.addr)] for d in dests],
    }, sort_keys=True, separators=(",", ":")).encode("utf-8")


def study_call(scenario, cfg: dict, seed: int, out: Path) -> dict:
    """Both §3.1 studies (origin ping survey, then the RR survey over
    every VP and destination) on the per-call worker pool, then
    persisted. ``run_full_study`` takes nothing but the scenario, so
    its input is the whole fixed world, whatever the seed."""
    study = run_full_study(scenario, jobs=JOBS)
    dests = list(scenario.hitlist)
    ping_path = out / "ping.json"
    ping_path.write_bytes(_ping_bytes(study.ping_survey, dests))
    path = out / "survey.json"
    save_survey(study.rr_survey, path)
    vps = len(study.rr_survey.vps)
    return {"paths": [path, ping_path], "survey": path,
            "units": vps + 1, "units_ok": vps + 1,
            "probes": (vps + STUDY_PINGS) * len(dests)}


def fault_plan(seed: int) -> FaultPlan:
    return FaultPlan(
        seed=derive_seed(seed, "faults"),
        specs=FAULT_PRESETS["chaos"] + FAULT_PRESETS["misbehave"],
    )


def campaign_run(scenario, cfg: dict, seed: int, out: Path,
                 jobs: int = JOBS) -> dict:
    """Supervised chaos + misbehavior campaign with checkpoints and a
    quarantine sidecar (its survey not yet saved)."""
    dests, vps = survey_inputs(scenario, cfg, seed)
    sidecar = out / "quarantine.json"
    runner = CampaignRunner(
        scenario, plan=fault_plan(seed), jobs=jobs, max_retries=3,
        supervision=SupervisionConfig(),
        checkpoint_path=out / "campaign.ckpt", quarantine_path=sidecar,
    )
    result = runner.run(targets=dests, vps=vps)
    lost = set(result.failed_vps) | set(result.quarantined)
    return {"paths": [out / "survey.json", sidecar],
            "survey": out / "survey.json", "sidecar": sidecar,
            "checkpoint": out / "campaign.ckpt", "result": result,
            "units": len(vps), "units_ok": len(vps) - len(lost),
            "probes": len(vps) * len(dests)}


def campaign_call(scenario, cfg: dict, seed: int, out: Path) -> dict:
    produced = campaign_run(scenario, cfg, seed, out)
    save_survey(produced["result"].survey, produced["survey"])
    return produced


def service_specs(cfg: dict, seed: int, hitlist_size: int) -> List[dict]:
    """Every tenant's rr and ping spec. The slices are staggered from a
    seeded base, so every seed asks for the same amount of work."""
    count, stagger = cfg["target_count"], cfg["stagger"]
    tenants = cfg["tenants"]
    rng = random.Random(derive_seed(seed, "e2e-tenants"))
    base = rng.randrange(hitlist_size - (tenants - 1) * stagger - count + 1)
    return [
        {"tenant": f"tenant{t}", "name": f"{kind}-{t}", "kind": kind,
         "vp_policy": "working", "vp_limit": cfg["vp_limit"],
         "target_count": count, "target_offset": base + t * stagger}
        for t in range(tenants)
        for kind in ("rr", "ping")
    ]


def _spec_probes(cfg: dict, kind: str) -> int:
    per_unit = cfg["target_count"] * (PING_COUNT if kind == "ping" else 1)
    return per_unit * cfg["vp_limit"]


def make_daemon(scenario, cfg: dict, seed: int, out: Path, jobs: int):
    """A daemon with every spec admitted; each tenant's credits cover
    exactly its specs, so nothing pauses or is refused."""
    specs = service_specs(cfg, seed, len(scenario.hitlist))
    budget = float(sum(_spec_probes(cfg, kind) for kind in ("rr", "ping")))
    quota = TenantQuota(
        initial_credits=budget, accrual_per_round=0.0, balance_cap=budget,
        max_probes_per_spec=_spec_probes(cfg, "ping"), max_active_specs=2,
    )
    daemon = MeasurementDaemon(
        scenario,
        ServiceConfig(stream_dir=out / "streams", jobs=jobs, quota=quota,
                      checkpoint_path=out / "service.ckpt"),
    )
    for record in specs:
        response = daemon.submit(record)
        if not response.get("ok"):
            raise RuntimeError(f"spec refused: {response}")
    return daemon, specs


def service_run(daemon, cfg: dict) -> dict:
    started = time.time()
    before = REGISTRY.snapshot()
    manifest = daemon.run()
    after = REGISTRY.snapshot()
    rows = [manifest["specs"][label] for label in sorted(manifest["specs"])]
    paths = [Path(row["stream"]) for row in rows]

    def units(**labels: str) -> int:
        return int(_counter(after, "service_units_total", **labels)
                   - _counter(before, "service_units_total", **labels))

    return {
        "paths": paths, "manifest": manifest,
        "turnaround": [p.stat().st_mtime - started for p in paths],
        "units": units(), "units_ok": units(outcome="ok"),
        "probes": cfg["tenants"] * (_spec_probes(cfg, "rr")
                                    + _spec_probes(cfg, "ping")),
    }


# ---------------------------------------------------------------------------
# Output checks (outside the timed region).
# ---------------------------------------------------------------------------


def _survey_roundtrip(path: Path, scratch: Path) -> bool:
    """The saved survey loads (checksum verified) and re-saves to the
    same bytes."""
    try:
        save_survey(load_survey(path), scratch)
    except SurveyFormatError:
        return False
    same = scratch.read_bytes() == path.read_bytes()
    scratch.unlink()
    return same


def _sidecar_ok(path: Path) -> bool:
    try:
        record = json.loads(path.read_text("utf-8"))
    except (OSError, ValueError):
        return False
    return verify_embedded_checksum(record, kind="quarantine")[1] is None


def _streams_ok(produced: dict) -> bool:
    for path in produced["paths"]:
        try:
            load_stream(path)
        except (StreamFormatError, OSError, ValueError):
            return False
    return all(
        row["status"] == "done"
        for row in produced["manifest"]["specs"].values()
    )


def check_outputs(workload: str, produced: dict, out: Path) -> Dict[str, bool]:
    checks = {}
    if "survey" in produced:
        checks["survey_roundtrip"] = _survey_roundtrip(
            produced["survey"], out / "roundtrip.json"
        )
    if "sidecar" in produced:
        checks["sidecar_checksum"] = _sidecar_ok(produced["sidecar"])
    if workload == "service-tenants":
        checks["streams_load"] = _streams_ok(produced)
    checks["all_units_ok"] = produced["units_ok"] == produced["units"]
    return checks


# ---------------------------------------------------------------------------
# Repetitions.
# ---------------------------------------------------------------------------

CALLS: Dict[str, tuple] = {
    # workload -> (scale section, timed call)
    "survey-cold": ("survey", survey_call),
    "survey-warm": ("survey", survey_call),
    "study-pooled": ("study", study_call),
    "campaign-faults": ("campaign", campaign_call),
}


def measure(call: Callable[[], dict]) -> tuple:
    """Run ``call`` once; (produced, timing): its wall time, own and
    children's CPU time, and the machine's speed meanwhile."""
    probe = SpeedProbe()
    cpu0, kids0 = _cpu()
    with probe.sampling():
        start = time.perf_counter()
        produced = call()
        wall = time.perf_counter() - start
    cpu1, kids1 = _cpu()
    return produced, {"wall_s": wall, "parent_cpu_s": cpu1 - cpu0,
                      "worker_cpu_s": kids1 - kids0,
                      "speed": probe.speed()}


def rep_record(workload: str, produced: dict, timing: dict, setup: dict,
               started: float, out: Path, corrupt: bool,
               check: bool = True) -> dict:
    """One repetition's raw measurements; ``run.py`` turns the times
    into reference seconds with the two speeds."""
    if corrupt:
        _corrupt(produced["paths"][0])
    checks = check_outputs(workload, produced, out) if check else {}
    turnaround = produced.get("turnaround") or [
        path.stat().st_mtime - started for path in produced["paths"]
    ]
    return {
        **timing,
        "cpu_s": timing["parent_cpu_s"] + timing["worker_cpu_s"],
        **setup,
        "peak_rss_mb": _peak_rss_mb(),
        "turnaround_s": turnaround,
        "units": produced["units"],
        "units_ok": produced["units_ok"],
        "probes": produced["probes"],
        "digest": _sha256_files(produced["paths"]),
        "checks": checks,
    }


def run_rep(job: dict) -> dict:
    """One fresh-interpreter repetition of a workload."""
    workload, seed, out = job["workload"], job["seed"], Path(job["workdir"])
    if workload == "service-tenants":
        cfg = SCALES[job["scale"]]["service"]
        scenario, setup = build(cfg["preset"])
        daemon, _specs = make_daemon(scenario, cfg, seed, out, JOBS)
        started = time.time()
        produced, timing = measure(lambda: service_run(daemon, cfg))
    else:
        section, call = CALLS[workload]
        cfg = SCALES[job["scale"]][section]
        scenario, setup = build(cfg["preset"])
        started = time.time()
        produced, timing = measure(lambda: call(scenario, cfg, seed, out))
    return {"reps": [rep_record(workload, produced, timing, setup,
                                started, out, job["corrupt"])]}


def run_warm(job: dict) -> dict:
    """``survey-warm``: one untimed cold survey, then timed surveys on
    the warm scenario until the time budget is spent."""
    born = time.perf_counter()
    seed, out = job["seed"], Path(job["workdir"])
    cfg = SCALES[job["scale"]]["survey"]
    scenario, setup = build(cfg["preset"])
    cold_out = out / "cold"
    cold_out.mkdir()
    cold = survey_call(scenario, cfg, seed, cold_out)
    cold_digest = _sha256_files(cold["paths"])
    reps: List[dict] = []
    longest = 0.0
    while len(reps) < MIN_WARM_REPS or (
        time.perf_counter() - born + longest <= job["budget_s"]
    ):
        began = time.perf_counter()
        rep_out = out / f"warm{len(reps)}"
        rep_out.mkdir()
        gc.collect()
        started = time.time()
        produced, timing = measure(
            lambda: survey_call(scenario, cfg, seed, rep_out)
        )
        # Every warm survey must equal the cold one byte for byte, so
        # the reload check runs on the first only.
        record = rep_record("survey-warm", produced, timing, setup,
                            started, rep_out, job["corrupt"] and not reps,
                            check=not reps)
        record["checks"]["warm_equals_cold"] = (
            record["digest"] == cold_digest
        )
        reps.append(record)
        for path in produced["paths"]:
            path.unlink()
        longest = max(longest, time.perf_counter() - began)
    # One process, so one build time and one memory high-water mark:
    # reported once (on the last rep), not as repeated samples.
    for record in reps[:-1]:
        record["setup_s"] = record["peak_rss_mb"] = None
    return {"reps": reps}


# ---------------------------------------------------------------------------
# The traced run.
#
# Every workload's traced run has the same parts, and ``layer_metrics``
# turns them into the per-layer metrics of BENCHMARK.json:
#
# * ``call``: the workload's own call, one root span. Its registry
#   counters (merged home from pool workers), GC pauses and writes
#   give the counts of every layer.
# * ``split``: a serial survey over the workload's VPs and
#   destinations, staged layer by layer through public calls, then a
#   warm replay pass and a load of the saved survey. It gives the time
#   of every layer. For the two survey workloads it *is* the call;
#   pool workers cannot be traced from outside, so the other three run
#   it as an extra pass on a fresh scenario.
# * ``pooled``: the same work at ``jobs=2`` (the call itself where the
#   call is pooled), for the executor metrics, and the CPU of the
#   serial equivalent to compare it with.
# ---------------------------------------------------------------------------


def _fold(pairs, verdicts, position) -> tuple:
    """One VP's survey rows from validated outcomes (invalid replies
    never become rows, as in the survey engine)."""
    rows = []
    inprefix: Dict[int, set] = {}
    for (dest, outcome), (verdict, _reason) in zip(pairs, verdicts):
        if verdict == INVALID or not outcome.rr_responsive:
            continue
        index = position[dest.addr]
        rows.append((index, outcome.dest_slot))
        if outcome.inprefix:
            inprefix.setdefault(index, set()).update(outcome.inprefix)
    return rows, inprefix


def staged_survey(rec: SpanRecorder, scenario, dests, vps,
                  path: Path) -> dict:
    """The survey, stage by stage through public calls: routing trees,
    then stamp plans, then per VP order → replay → validate, then the
    merge and save. Writes the same bytes as ``run_rr_survey`` and
    ``save_survey``; returns how many calls each of the first two
    stages made and how many plans ``plan_for`` compiled."""
    network, prober = scenario.network, scenario.prober
    position = {dest.addr: index for index, dest in enumerate(dests)}
    tree_asns = sorted({d.asn for d in dests} | {vp.asn for vp in vps})
    with rec.span("routing_tree", "topology.routing"):
        for asn in tree_asns:
            scenario.routing.routing_tree(asn)
    ingress = sorted({
        vp.asn for vp in vps
        if not vp.local_filtered and vp.asn in scenario.graph
    })
    compiled = 0
    with rec.span("plan_for", "sim.network"):
        for asn in ingress:
            for dest in dests:
                compiled += not network.plan_for(asn, dest)[1]
    per_vp = []
    for vp in vps:
        with rec.span(vp.name):
            network.begin_vp_session(vp.name)
            try:
                with rec.span("order_destinations", "probing.scheduler"):
                    ordered = order_destinations(
                        dests, ProbeOrder.RANDOM, seed=scenario.seed,
                        salt=vp.name,
                    )
                with rec.span("probe_batch_rows", "probing.prober"):
                    pairs = prober.probe_batch_rows(
                        vp, ordered, slots=RR_SLOTS, pps=DEFAULT_PPS
                    )
                with rec.span("check_batch", "probing.validation"):
                    validator = ReplyValidator(
                        vp.name, RR_SLOTS, position, network.registry,
                        network.net_id,
                    )
                    verdicts = validator.check_batch(pairs, round_no=0)
            finally:
                network.end_vp_session()
            with rec.span("fold", "core.survey"):
                per_vp.append(_fold(pairs, verdicts, position))
    with rec.span("merge", "core.survey"):
        survey = RRSurvey(
            vps=list(vps), dests=list(dests),
            responses=[{} for _ in dests],
            inprefix_addrs=[set() for _ in dests], rr_slots=RR_SLOTS,
        )
        for vp_index, (rows, inprefix) in enumerate(per_vp):
            for dest_index, slot in rows:
                survey.responses[dest_index][vp_index] = slot
            for dest_index, addrs in inprefix.items():
                survey.inprefix_addrs[dest_index].update(addrs)
    with rec.span("save_survey", "core.survey"):
        save_survey(survey, path)
    return {"tree_calls": len(tree_asns),
            "plan_calls": len(ingress) * len(dests), "plans": compiled}


def replay_pass(rec: SpanRecorder, scenario, dests, vps) -> None:
    """Replay only, every plan already compiled (the warm baseline
    that ``lazy_compile_s`` is measured against)."""
    network = scenario.network
    for vp in vps:
        network.begin_vp_session(vp.name)
        try:
            ordered = order_destinations(
                dests, ProbeOrder.RANDOM, seed=scenario.seed, salt=vp.name
            )
            with rec.span("probe_batch_rows", "probing.prober"):
                scenario.prober.probe_batch_rows(
                    vp, ordered, slots=RR_SLOTS, pps=DEFAULT_PPS
                )
        finally:
            network.end_vp_session()


class Pass:
    """Registry counters, CPU and writes across one traced pass."""

    def __enter__(self) -> "Pass":
        self.before = REGISTRY.snapshot()
        self.cpu0 = _cpu()
        self.wchar0 = _write_bytes()
        return self

    def __exit__(self, *exc) -> None:
        self.after = REGISTRY.snapshot()
        cpu1 = _cpu()
        self.own_cpu = cpu1[0] - self.cpu0[0]
        self.kids_cpu = cpu1[1] - self.cpu0[1]
        self.write_bytes = _write_bytes() - self.wchar0

    def count(self, name: str, **labels: str) -> float:
        return (_counter(self.after, name, **labels)
                - _counter(self.before, name, **labels))


def layer_split(rec: SpanRecorder, scenario, dests, vps,
                path: Path) -> dict:
    """The staged survey, a warm replay of its plans, and a load of
    the survey it saved; each a root span."""
    with Pass() as counts, rec.span("survey (staged)") as root:
        stages = staged_survey(rec, scenario, dests, vps, path)
    with rec.span("replay (warm)") as warm:
        replay_pass(rec, scenario, dests, vps)
    with rec.span("load") as load:
        with rec.span("load_survey", "core.survey"):
            load_survey(path)
    return dict(stages, root=root, warm=warm, load=load, counts=counts,
                probes=len(vps) * len(dests), path=path)


def trace_survey(job: dict, rec: SpanRecorder, out: Path) -> dict:
    """survey-cold / survey-warm: the staged survey is the call. The
    executor pass runs the same survey at jobs=2: on a fresh scenario
    for the cold workload, on the warm one (whose workers fork warm)
    for the warm workload."""
    seed, warm = job["seed"], job["workload"] == "survey-warm"
    cfg = SCALES[job["scale"]]["survey"]
    scenario, _setup = build(cfg["preset"])
    dests, vps = survey_inputs(scenario, cfg, seed)
    reference = None
    if warm:
        (out / "cold").mkdir()
        survey_call(scenario, cfg, seed, out / "cold")
        walls = []
        for rep in range(REFERENCE_REPS):
            (out / f"ref{rep}").mkdir()
            gc.collect()
            walls.append(measure(
                lambda: survey_call(scenario, cfg, seed, out / f"ref{rep}")
            )[1]["wall_s"])
        reference = statistics.median(walls)
    gc.collect()
    split = layer_split(rec, scenario, dests, vps, out / "survey.json")
    pool_scenario = scenario if warm else build(cfg["preset"])[0]
    pool_dests, pool_vps = survey_inputs(pool_scenario, cfg, seed)
    with Pass() as pooled, rec.span("survey (jobs=2)") as pooled_root:
        with rec.span("run_rr_survey", "executor"):
            survey = run_rr_survey(pool_scenario, dests=pool_dests,
                                   vps=pool_vps, jobs=JOBS)
        with rec.span("save_survey", "core.survey"):
            save_survey(survey, out / "pooled.json")
    same = (out / "pooled.json").read_bytes() == split["path"].read_bytes()
    return {"call": split["root"], "call_counts": split["counts"],
            "split": split, "pooled": (pooled_root, pooled),
            "serial_cpu": split["counts"].own_cpu,
            "paths": [split["path"]], "survey": split["path"],
            "units": len(vps), "units_ok": len(vps),
            "probes": len(vps) * len(dests), "reference_wall_s": reference,
            "checks": {"pooled_equals_serial": same}}


def trace_study(job: dict, rec: SpanRecorder, out: Path) -> dict:
    """study-pooled: the pooled study is the call; the split is a
    serial staged RR survey over the same world, followed by the
    serial ping survey, whose CPU the pool is compared with."""
    cfg = SCALES[job["scale"]]["study"]
    scenario, _setup = build(cfg["preset"])
    gc.collect()
    with Pass() as call, rec.span("study (jobs=2)") as root:
        with rec.span("run_full_study", "executor"):
            study = run_full_study(scenario, jobs=JOBS)
        dests = list(scenario.hitlist)
        (out / "ping.json").write_bytes(_ping_bytes(study.ping_survey,
                                                    dests))
        with rec.span("save_survey", "core.survey"):
            save_survey(study.rr_survey, out / "survey.json")
    serial, _setup = build(cfg["preset"])
    # RR stages first, so the routing trees both studies share are
    # attributed to the routing layer, not to the ping survey.
    split = layer_split(rec, serial, list(serial.hitlist),
                        list(serial.vps), out / "staged.json")
    with Pass() as ping, rec.span("ping (serial)"):
        with rec.span("run_ping_survey", "probing.prober"):
            run_ping_survey(serial, jobs=1)
    vps = len(study.rr_survey.vps)
    return {"call": root, "call_counts": call, "split": split,
            "pooled": (root, call),
            "serial_cpu": split["counts"].own_cpu + ping.own_cpu,
            "paths": [out / "survey.json", out / "ping.json"],
            "survey": out / "survey.json", "units": vps + 1,
            "units_ok": vps + 1, "probes": (vps + STUDY_PINGS) * len(dests),
            "checks": {"serial_equals_pooled":
                       split["path"].read_bytes()
                       == (out / "survey.json").read_bytes()}}


def trace_campaign(job: dict, rec: SpanRecorder, out: Path) -> dict:
    """campaign-faults: the pooled campaign is the call, then the same
    campaign at jobs=1 (the serial CPU, and a parity check); the split
    is a clean staged survey of the same VPs and destinations, since
    faults are injected only inside the campaign runner."""
    seed = job["seed"]
    cfg = SCALES[job["scale"]]["campaign"]
    scenario, _setup = build(cfg["preset"])
    gc.collect()
    with Pass() as call, rec.span("campaign (jobs=2)") as root:
        with rec.span("CampaignRunner.run", "faults.campaign"):
            produced = campaign_run(scenario, cfg, seed, out)
        with rec.span("save_survey", "core.survey"):
            save_survey(produced["result"].survey, produced["survey"])
    serial_out = out / "serial"
    serial_out.mkdir()
    serial_scenario, _setup = build(cfg["preset"])
    with Pass() as serial, rec.span("campaign (jobs=1)"):
        with rec.span("CampaignRunner.run", "faults.campaign"):
            serial_run = campaign_run(serial_scenario, cfg, seed,
                                      serial_out, jobs=1)
    save_survey(serial_run["result"].survey, serial_run["survey"])
    same = (_sha256_files(serial_run["paths"])
            == _sha256_files(produced["paths"]))
    # A live serial campaign would make every later collection slower.
    del serial_scenario, serial_run
    clean, _setup = build(cfg["preset"])
    dests, vps = survey_inputs(clean, cfg, seed)
    split = layer_split(rec, clean, dests, vps, out / "staged.json")
    return dict(produced, call=root, call_counts=call, split=split,
                pooled=(root, call),
                serial_cpu=serial.own_cpu + serial.kids_cpu,
                campaign={"write_bytes": call.write_bytes},
                checks={"serial_equals_pooled": same})


def unit_tasks(scenario, specs: List[dict]) -> List[tuple]:
    """Every unit the daemon would run, spec by spec."""
    tasks = []
    for record in specs:
        spec = parse_spec(record)
        for unit, vp in enumerate(resolve_vps(spec, scenario)):
            tasks.append(make_unit_task(
                len(tasks), f"{spec.label}#{unit}", vp.name, spec.kind,
                spec.target_offset, spec.target_count, spec.slots, spec.pps,
            ))
    return tasks


def trace_service(job: dict, rec: SpanRecorder, out: Path) -> dict:
    """service-tenants: the pooled daemon run is the call. Then the
    daemon at jobs=1 (the serial CPU, and a parity check) and every
    unit body run directly: the difference of their self times (so
    neither pays for the other's collections) is the daemon's own
    overhead. The split is a staged survey of the rr specs' VPs over
    the window of destinations the tenants ask for. Each pass runs on
    a fresh scenario, with the previous one freed."""
    seed = job["seed"]
    cfg = SCALES[job["scale"]]["service"]
    scenario, _setup = build(cfg["preset"])
    daemon, specs = make_daemon(scenario, cfg, seed, out, JOBS)
    gc.collect()
    with Pass() as call, rec.span("service (jobs=2)") as root:
        with rec.span("MeasurementDaemon.run", "service"):
            produced = service_run(daemon, cfg)
    del daemon, scenario
    serial_out = out / "serial"
    serial_out.mkdir()
    serial_daemon = make_daemon(build(cfg["preset"])[0], cfg, seed,
                                serial_out, 1)[0]
    with Pass() as serial, rec.span("service (jobs=1)") as run1:
        with rec.span("MeasurementDaemon.run", "service"):
            serial_produced = service_run(serial_daemon, cfg)
    del serial_daemon
    state = {"scenario": build(cfg["preset"])[0]}
    with rec.span("unit bodies") as bodies:
        for task in unit_tasks(state["scenario"], specs):
            with rec.span("service_unit_body", "service"):
                service_unit_body(state, task)
    del state
    run_s = rec.named_self(run1, "MeasurementDaemon.run")
    bodies_s = rec.named_self(bodies, "service_unit_body")
    staged, _setup = build(cfg["preset"])
    offsets = [record["target_offset"] for record in specs]
    dests = list(staged.hitlist)[min(offsets):
                                 max(offsets) + cfg["target_count"]]
    vps = resolve_vps(parse_spec(specs[0]), staged)
    split = layer_split(rec, staged, dests, vps, out / "staged.json")
    same = (_sha256_files(serial_produced["paths"])
            == _sha256_files(produced["paths"]))
    return dict(produced, call=root, call_counts=call, split=split,
                pooled=(root, call),
                serial_cpu=serial.own_cpu + serial.kids_cpu,
                service={"write_bytes": call.write_bytes,
                         "overhead_share": ratio(run_s - bodies_s, run_s)},
                checks={"serial_equals_pooled": same})


def gc_metrics(rec: SpanRecorder, root: int) -> dict:
    pauses = [i for i in rec.subtree(root) if rec.spans[i][1] == GC_LAYER]
    pause_s = sum(rec.duration(i) for i in pauses)
    return {
        "gc.pause_s": pause_s,
        "gc.pause_share": ratio(pause_s, rec.duration(root)),
        "gc.collections": len(pauses),
        "gc.collections_gen2": sum(
            1 for i in pauses if rec.spans[i][0] == "gc.gen2"
        ),
    }


def layer_metrics(rec: SpanRecorder, traced: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json. Counts come from the
    call, times from the split, the executor from the pooled pass. A
    layer the call does not run (faults, service) did no work and
    reads 0 in its counts, bytes and shares."""
    split, call = traced["split"], traced["call_counts"]
    staged, root = split["counts"], split["root"]
    tree_s = rec.named_self(root, "routing_tree")
    plan_s = rec.named_self(root, "plan_for")
    replay_s = rec.named_self(root, "probe_batch_rows")
    check_s = rec.named_self(root, "check_batch")
    compiles = call.count("plan_compiles_total")
    hits = call.count("plan_cache_lookups_total", result="hit")
    misses = call.count("plan_cache_lookups_total", result="miss")
    replies = call.count("validation_verdicts_total")
    attempts = call.count("campaign_vp_attempts_total")
    units_ok = call.count("service_units_total", outcome="ok")
    discarded = call.count("service_units_total", outcome="discarded")
    pooled_root, pooled = traced["pooled"]
    campaign = traced.get("campaign", {})
    service = traced.get("service", {})
    metrics = {
        "topology.routing.trees":
            call.count("routing_tree_cache_lookups_total", result="miss"),
        "topology.routing.busy_s": tree_s,
        "topology.routing.us_per_tree":
            1e6 * ratio(tree_s, split["tree_calls"]),
        "sim.network.plans": split["plans"],
        "sim.network.plan_for_s": plan_s,
        "sim.network.us_per_plan": 1e6 * ratio(plan_s, split["plan_calls"]),
        "sim.stampplan.compiles": compiles,
        "sim.stampplan.lazy_compile_s":
            replay_s - rec.named_self(split["warm"], "probe_batch_rows"),
        "sim.stampplan.compiles_per_kprobe":
            ratio(compiles, traced["probes"] / 1000.0),
        "probing.scheduler.busy_s":
            rec.named_self(root, "order_destinations"),
        "probing.prober.replay_s": replay_s,
        "probing.prober.us_per_probe":
            1e6 * ratio(replay_s, split["probes"]),
        "probing.prober.fast_path_share":
            ratio(call.count("plan_replays_total"),
                  call.count("probe_sent_total")),
        "probing.prober.plan_hit_ratio": ratio(hits, hits + misses),
        "probing.validation.replies": replies,
        "probing.validation.busy_s": check_s,
        "probing.validation.us_per_reply":
            1e6 * ratio(check_s, staged.count("validation_verdicts_total")),
        "probing.validation.invalid_share":
            ratio(call.count("validation_verdicts_total", verdict="invalid"),
                  replies),
        "core.survey.save_s": rec.named_self(root, "save_survey"),
        "core.survey.load_s": rec.named_self(split["load"], "load_survey"),
        "core.survey.bytes": split["path"].stat().st_size,
        "executor.parent_cpu_s": pooled.own_cpu,
        "executor.worker_cpu_s": pooled.kids_cpu,
        "executor.utilization":
            ratio(pooled.kids_cpu, rec.duration(pooled_root) * JOBS),
        "executor.cpu_vs_serial":
            ratio(pooled.own_cpu + pooled.kids_cpu, traced["serial_cpu"]),
        "faults.campaign.attempts": attempts,
        "faults.campaign.failed_attempts":
            attempts - call.count("campaign_vp_attempts_total",
                                  outcome="ok"),
        "faults.campaign.retry_rounds": call.count("campaign_retries_total"),
        "faults.campaign.checkpoint_bytes":
            traced["checkpoint"].stat().st_size if campaign else 0,
        "faults.campaign.parent_write_bytes":
            campaign.get("write_bytes", 0),
        "faults.injector.events": call.count("faults_injected_total"),
        "service.units_ok": units_ok,
        "service.units_failed":
            call.count("service_units_total") - units_ok - discarded,
        "service.units_discarded": discarded,
        "service.rounds": call.count("service_scheduler_rounds_total"),
        "service.stream_bytes":
            sum(path.stat().st_size for path in traced["paths"])
            if service else 0,
        "service.parent_write_bytes": service.get("write_bytes", 0),
        "service.overhead_share": service.get("overhead_share", 0.0),
        "trace.coverage": rec.coverage(traced["call"]),
    }
    metrics.update(gc_metrics(rec, traced["call"]))
    return metrics


TRACERS = {
    "survey-cold": trace_survey,
    "survey-warm": trace_survey,
    "study-pooled": trace_study,
    "campaign-faults": trace_campaign,
    "service-tenants": trace_service,
}


def run_trace(job: dict) -> dict:
    workload, out = job["workload"], Path(job["workdir"])
    rec = SpanRecorder()
    with rec.gc_pauses():
        traced = TRACERS[workload](job, rec, out)
    metrics = layer_metrics(rec, traced)
    if job["corrupt"]:
        _corrupt(traced["paths"][0])
    checks = check_outputs(workload, traced, out)
    checks.update(traced["checks"])
    tables = {
        rec.spans[i][0]: rec.layer_table(i)
        for i, span in enumerate(rec.spans)
        if span[4] is None and span[1] is None
    }
    trace_path = Path(job["trace_path"])
    rec.write_chrome(trace_path, tables)
    return {
        "metrics": metrics,
        "traced_wall_s": rec.duration(traced["call"]),
        "reference_wall_s": traced.get("reference_wall_s"),
        "tables": tables,
        "trace_path": str(trace_path),
        "units": traced["units"],
        "units_ok": traced["units_ok"],
        "digest": _sha256_files(traced["paths"]),
        "checks": checks,
    }


def main(argv: List[str]) -> int:
    job = json.loads(argv[1])
    if job["mode"] == "trace":
        result = run_trace(job)
    elif job["mode"] == "warm":
        result = run_warm(job)
    else:
        result = run_rep(job)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
