"""Composable, seeded fault specifications.

The paper's operational story (§4.1, Fig. 4) is that RR measurement
happens in a hostile environment: slow-path policers whose behaviour
fluctuates on short timescales, silent drops, and vantage points that
come and go. A :class:`FaultPlan` reproduces that adversity
*deterministically*: every fault decision is derived from the plan's
seed plus the identity of the entity it perturbs (a VP name, a link,
an attempt number), never from wall-clock time or iteration order.

That derivation rule is what lets the chaos machinery coexist with the
parallel survey engine's byte-parity contract: a faulted campaign run
at ``jobs ∈ {1, 2, 4}``, or killed and resumed from a checkpoint,
produces byte-identical merged output, because each VP session draws
its faults from ``(plan seed, vp name, session-relative time)`` alone.

Four fault families, each a frozen (picklable) dataclass:

* :class:`VpChurn` — vantage points go dark and return mid-campaign
  (RIPE Atlas probe connect/disconnect churn): a VP's first *k*
  campaign attempts fail outright; the retry that lands after the VP
  "returns" runs a clean, complete session.
* :class:`LinkFlap` — an adjacent router pair blackholes traffic for a
  window of each probe session.
* :class:`LossBurst` — a Gilbert–Elliott two-state chain overlays
  *correlated* loss on the per-VP loss stream (bursty last-mile loss,
  not the i.i.d. ``loss_prob`` the base simulation models).
* :class:`RateLimitStorm` — token-bucket refill collapses by a factor
  for a window ("Your Router is My Prober": rate-limiting state itself
  fluctuates), starving the slow path mid-survey.

Window positions (``start``/``duration``) are expressed as *fractions
of the session horizon* — the expected duration of one VP's probe
sequence — so the same spec scales from a 40-destination test world to
a full campaign without re-tuning.

A fifth family models *lying data* rather than absent data — the
misbehaviors §3.5 of the paper warns about. Routers that mangle the
option, hosts that answer probes they never received, and VPs that
replay stale results do not fail loudly; they poison the dataset:

* :class:`StampCorruption` — a router stamps a wrong/garbage address;
* :class:`OptionStrip` — the RR option is silently removed mid-path;
* :class:`TruncatedOption` — the option comes back with a malformed
  length/pointer (the wire-decoder's ``OptionDecodeError`` territory);
* :class:`SpoofedReply` — an off-path source answers the probe;
* :class:`ZombieVp` — a vantage point replays one stale reply for
  many destinations.

Misbehavior windows cannot use the session clock (the batched
dataplane replays a whole VP's probes without advancing per-probe
time), so "windowed" is realised with a deterministic *pseudo-time*:
each ``(vp, dest)`` pair hashes to a stable position in ``[0, 1)`` and
the spec is live iff that position falls inside
``[start, start + duration)``. The decision is a pure function of
``(spec seed, vp name, dest addr)`` — identical batched vs legacy, at
any worker count, and across kill/resume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar, Optional, Tuple, Union

from repro.rng import StablePrefix, stable_randint, stable_u64, stable_uniform

__all__ = [
    "VpChurn",
    "LinkFlap",
    "LossBurst",
    "RateLimitStorm",
    "VpHang",
    "VpCrash",
    "StampCorruption",
    "OptionStrip",
    "TruncatedOption",
    "SpoofedReply",
    "ZombieVp",
    "FaultSpec",
    "FaultPlan",
    "MISBEHAVIOR_KINDS",
]

#: ``stable_uniform``'s divisor: a draw's 64-bit integer over it.
_SPAN = 1 << 64


def _require_unit(name: str, value: float, allow_zero: bool = True) -> None:
    low_ok = value >= 0 if allow_zero else value > 0
    if not (low_ok and value <= 1.0):
        raise ValueError(f"{name} must be in [0, 1]: {value}")


@dataclass(frozen=True)
class VpChurn:
    """VPs go dark and return mid-campaign (attempt-level failures).

    Per vantage point, the plan deterministically decides whether the
    VP churns (probability ``prob``) and, if so, for how many initial
    campaign attempts it stays dark (uniform in
    ``[1, max_dark_attempts]``). Dark attempts fail fast — the unit of
    work never probes — and the first attempt after the VP returns
    runs a complete, unperturbed session. A campaign with enough
    retries therefore recovers *byte-identical* output to an unfaulted
    run, which is exactly the resilience bar the runner is tested
    against.
    """

    KIND: ClassVar[str] = "vp_churn"

    prob: float = 0.35
    max_dark_attempts: int = 2

    def __post_init__(self) -> None:
        _require_unit("prob", self.prob)
        if self.max_dark_attempts < 1:
            raise ValueError(
                f"max_dark_attempts must be >= 1: {self.max_dark_attempts}"
            )

    def dark_attempts(self, seed: int, vp_name: str) -> int:
        """How many initial attempts ``vp_name`` is dark for (0 = none)."""
        if stable_uniform(seed, "vp-churn", vp_name) >= self.prob:
            return 0
        return stable_randint(
            1, self.max_dark_attempts, seed, "vp-churn-n", vp_name
        )


@dataclass(frozen=True)
class LinkFlap:
    """An adjacent router pair blackholes traffic for a window.

    ``count`` AS adjacencies are chosen deterministically from the
    topology; during ``[start, start + duration)`` (fractions of the
    session horizon) any packet whose hop-by-hop walk crosses a
    flapped adjacency — in either direction — is silently dropped.
    Compiled stamp plans survive the flap: their templates are keyed
    by the flapped adjacencies each leg crosses at send time.
    """

    KIND: ClassVar[str] = "link_flap"

    count: int = 2
    start: float = 0.25
    duration: float = 0.5

    def __post_init__(self) -> None:
        if self.count < 1:
            raise ValueError(f"count must be >= 1: {self.count}")
        _require_unit("start", self.start)
        _require_unit("duration", self.duration, allow_zero=False)


@dataclass(frozen=True)
class LossBurst:
    """Gilbert–Elliott correlated loss overlaying the per-VP stream.

    A two-state chain per VP session: in the Good state each loss
    check enters Bad with probability ``p_enter``; in Bad it returns
    to Good with probability ``p_exit`` and drops the packet with
    probability ``drop_prob``. The chain's RNG is seeded from
    ``(plan seed, vp name)``, so the k-th draw of a VP's session is
    identical for any worker count.
    """

    KIND: ClassVar[str] = "loss_burst"

    p_enter: float = 0.03
    p_exit: float = 0.25
    drop_prob: float = 0.85

    def __post_init__(self) -> None:
        _require_unit("p_enter", self.p_enter)
        _require_unit("p_exit", self.p_exit, allow_zero=False)
        _require_unit("drop_prob", self.drop_prob)


@dataclass(frozen=True)
class RateLimitStorm:
    """Temporary token-bucket refill collapse on the slow path.

    During ``[start, start + duration)`` of a session (fractions of
    the horizon), every router token bucket refills at
    ``scale × rate`` — Cisco's ~10 pps CoPP policers collapsing to
    ``scale`` of their budget. Applies to a VP's session with
    probability ``prob`` (decided per session from the plan seed).
    """

    KIND: ClassVar[str] = "rate_limit_storm"

    scale: float = 0.1
    start: float = 0.2
    duration: float = 0.6
    prob: float = 1.0

    def __post_init__(self) -> None:
        _require_unit("scale", self.scale)
        _require_unit("start", self.start)
        _require_unit("duration", self.duration, allow_zero=False)
        _require_unit("prob", self.prob)

    def applies_to(self, seed: int, vp_name: str) -> bool:
        if self.prob >= 1.0:
            return True
        return stable_uniform(seed, "storm", vp_name) < self.prob


@dataclass(frozen=True)
class VpHang:
    """A vantage point's worker task wedges mid-probe (stops making
    progress without failing).

    The pathology RIPE Atlas operators know well: a probe that is
    still "connected" but whose measurements never return. Under the
    supervised runner (:mod:`repro.faults.supervisor`) a hanging task
    stops emitting heartbeats, the watchdog kills and respawns the
    worker, and the VP's health record accrues a hang; in
    *unsupervised* contexts the hang is converted to an immediate
    task failure (an honest stand-in for "the operator would have
    been stuck forever").

    Selection is deterministic per ``(plan seed, vp name)``: either
    the VP is named explicitly in ``vps`` or it is drawn with
    probability ``prob``. ``attempts`` bounds which campaign attempts
    hang (``None`` = every attempt — a permanently wedged VP);
    ``after_targets`` positions the hang *mid-session*, after that
    many destinations have been probed (0 = wedge before the first
    probe). The killed attempt contributes nothing, so retried output
    stays byte-identical to a first-try run.
    """

    KIND: ClassVar[str] = "vp_hang"

    vps: Tuple[str, ...] = ()
    prob: float = 0.0
    attempts: Optional[int] = None
    after_targets: int = 0
    hang_seconds: float = 60.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "vps", tuple(self.vps))
        _require_unit("prob", self.prob)
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(f"attempts must be >= 1: {self.attempts}")
        if self.after_targets < 0:
            raise ValueError(
                f"after_targets must be >= 0: {self.after_targets}"
            )
        if self.hang_seconds <= 0:
            raise ValueError(
                f"hang_seconds must be positive: {self.hang_seconds}"
            )

    def applies_to(self, seed: int, vp_name: str, attempt: int) -> bool:
        """Does ``vp_name``'s ``attempt``-th campaign attempt hang?"""
        if self.attempts is not None and attempt > self.attempts:
            return False
        if vp_name in self.vps:
            return True
        if self.prob <= 0.0:
            return False
        return stable_uniform(seed, "vp-hang", vp_name) < self.prob


@dataclass(frozen=True)
class VpCrash:
    """A vantage point's worker task raises mid-probe.

    The crash-looping sibling of :class:`VpHang`: the task makes
    heartbeat progress until ``after_targets`` destinations are done,
    then dies with an exception. ``attempts=None`` crash-loops
    forever (the poison VP the quarantine machinery exists for);
    ``attempts=k`` crashes only the first ``k`` attempts, so a retry
    heals and the campaign recovers byte-identical output.
    """

    KIND: ClassVar[str] = "vp_crash"

    vps: Tuple[str, ...] = ()
    prob: float = 0.0
    attempts: Optional[int] = None
    after_targets: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "vps", tuple(self.vps))
        _require_unit("prob", self.prob)
        if self.attempts is not None and self.attempts < 1:
            raise ValueError(f"attempts must be >= 1: {self.attempts}")
        if self.after_targets < 0:
            raise ValueError(
                f"after_targets must be >= 0: {self.after_targets}"
            )

    def applies_to(self, seed: int, vp_name: str, attempt: int) -> bool:
        """Does ``vp_name``'s ``attempt``-th campaign attempt crash?"""
        if self.attempts is not None and attempt > self.attempts:
            return False
        if vp_name in self.vps:
            return True
        if self.prob <= 0.0:
            return False
        return stable_uniform(seed, "vp-crash", vp_name) < self.prob


@dataclass(frozen=True)
class _MisbehaviorSpec:
    """Shared selection machinery for the lying-data fault family.

    Selection is a pure function of ``(spec seed, vp name, dest addr,
    probe round)``:

    * eligibility — ``vps`` non-empty restricts the spec to the named
      vantage points; empty means every VP is eligible;
    * window — the ``(vp, dest)`` pair's deterministic pseudo-time
      (``stable_uniform(seed, "when", vp, dest)``) must fall inside
      ``[start, start + duration)``;
    * the hit draw — probability ``prob`` per probe. ``sticky=True``
      (the default) ignores the probe round, modelling a *persistent*
      pathology (the same broken router answers the retry the same
      way) — this is what drives RR→ping degradation. ``sticky=False``
      re-rolls each round, so validation retries can recover.
    """

    vps: Tuple[str, ...] = ()
    prob: float = 1.0
    start: float = 0.0
    duration: float = 1.0
    sticky: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "vps", tuple(self.vps))
        _require_unit("prob", self.prob)
        _require_unit("start", self.start)
        _require_unit("duration", self.duration, allow_zero=False)

    def applies_to(
        self, seed: int, vp_name: str, dest: int, round_no: int = 0
    ) -> bool:
        """Does this spec perturb ``vp_name``'s probe to ``dest``?"""
        select = self.selector(seed, vp_name, round_no)
        return select is not None and select(dest)

    def selector(
        self, seed: int, vp_name: str, round_no: int = 0
    ) -> Optional[Callable[[int], bool]]:
        """``vp_name``'s per-destination hit test for one probe round.

        Everything that does not depend on the destination — the
        eligibility check and the ``"when"``/``"hit"`` hash prefixes —
        is resolved once, so a batch pays one prefix per spec instead
        of re-hashing it per reply. ``None`` means the spec cannot
        touch this VP at all.
        """
        if self.vps and vp_name not in self.vps:
            return None
        if self.prob <= 0.0:
            return None
        return self._window_hit(seed, vp_name, round_no, self.prob)

    def _window_hit(
        self, seed: int, vp_name: str, round_no: int, prob: float
    ) -> Callable[[int], bool]:
        """The window test and the ``prob`` hit draw, per destination.

        The hit draw runs first when there is one: both are pure
        functions of the destination, and at the presets' sparse
        probabilities it rejects most replies on its own. Each draw is
        ``stable_uniform`` inlined (see :class:`StablePrefix`), so a
        selection is one call frame.
        """
        start = self.start
        end = self.start + self.duration
        when = StablePrefix(seed, "when", vp_name).copy
        from_bytes = int.from_bytes
        if prob >= 1.0:

            def select(dest: int) -> bool:
                hasher = when()
                hasher.update(("%r\x1f" % (dest,)).encode())
                draw = from_bytes(hasher.digest(), "big") / _SPAN
                return start <= draw < end

            return select
        hit = StablePrefix(seed, "hit", vp_name).copy
        salt = ("%r\x1f" % (0 if self.sticky else round_no,)).encode()

        def select(dest: int) -> bool:
            key = ("%r\x1f" % (dest,)).encode()
            hasher = hit()
            hasher.update(key + salt)
            if from_bytes(hasher.digest(), "big") / _SPAN >= prob:
                return False
            hasher = when()
            hasher.update(key)
            return start <= from_bytes(hasher.digest(), "big") / _SPAN < end

        return select


@dataclass(frozen=True)
class StampCorruption(_MisbehaviorSpec):
    """A router stamps a wrong/garbage address into the RR slots.

    The reply still looks superficially healthy — right slot count,
    plausible pointer — but the stamped addresses are garbage, so the
    destination's own address no longer sits at ``dest_slot``. The
    validator's stamp-consistency invariant catches exactly this.
    """

    KIND: ClassVar[str] = "stamp_corruption"

    prob: float = 0.2


@dataclass(frozen=True)
class OptionStrip(_MisbehaviorSpec):
    """The RR option is silently removed somewhere on the path.

    The echo reply arrives with no RR data at all — from the prober's
    seat indistinguishable from a host that never echoes options, so
    the validator classifies it *suspect* (not quarantined), and the
    reply simply never reaches the survey rows (the paper's §3.5
    non-participation case).
    """

    KIND: ClassVar[str] = "option_strip"

    prob: float = 0.2


@dataclass(frozen=True)
class TruncatedOption(_MisbehaviorSpec):
    """The option arrives with a malformed length/pointer on the wire.

    The transform re-encodes the reply's RR option to real wire bytes
    and then mangles them (truncation, a corrupt length byte, or an
    impossible pointer — chosen deterministically per probe), so the
    validation layer must route every malformation through
    ``RecordRouteOption.from_bytes`` and its ``OptionDecodeError``.
    """

    KIND: ClassVar[str] = "truncated_option"

    prob: float = 0.15


@dataclass(frozen=True)
class SpoofedReply(_MisbehaviorSpec):
    """An off-path source answers the probe.

    The reply claims to be the echo but its source address is not the
    destination — the validator's source-plausibility invariant
    quarantines it with ``spoofed_source``.
    """

    KIND: ClassVar[str] = "spoofed_reply"

    prob: float = 0.15


@dataclass(frozen=True)
class ZombieVp(_MisbehaviorSpec):
    """A vantage point replays one stale reply for many destinations.

    The RIPE-Atlas "zombie probe" pathology: the VP is up, answers the
    scheduler, and returns *something* — the same cached measurement
    over and over. Selection is per-VP (``vps`` or a ``prob`` draw per
    vantage point); ``dup_frac`` of that VP's destinations (per the
    window) then all return an identical canned reply. The validator's
    duplicate detector quarantines them, the VP's garbage ratio trips
    its circuit breaker, and the quarantine machinery retires the VP
    like a crash-looper.
    """

    KIND: ClassVar[str] = "zombie_vp"

    prob: float = 0.0
    dup_frac: float = 0.9

    def __post_init__(self) -> None:
        super().__post_init__()
        _require_unit("dup_frac", self.dup_frac, allow_zero=False)

    def vp_applies(self, seed: int, vp_name: str) -> bool:
        """Is ``vp_name`` a zombie under this spec?"""
        if vp_name in self.vps:
            return True
        if self.prob <= 0.0:
            return False
        return stable_uniform(seed, "zombie-vp", vp_name) < self.prob

    def selector(
        self, seed: int, vp_name: str, round_no: int = 0
    ) -> Optional[Callable[[int], bool]]:
        """Zombie selection is per VP, then ``dup_frac`` per reply."""
        if not self.vp_applies(seed, vp_name):
            return None
        return self._window_hit(seed, vp_name, round_no, self.dup_frac)


FaultSpec = Union[
    VpChurn, LinkFlap, LossBurst, RateLimitStorm, VpHang, VpCrash,
    StampCorruption, OptionStrip, TruncatedOption, SpoofedReply, ZombieVp,
]

#: The lying-data family (replies are delivered but cannot be trusted).
MISBEHAVIOR_KINDS: Tuple[str, ...] = (
    StampCorruption.KIND,
    OptionStrip.KIND,
    TruncatedOption.KIND,
    SpoofedReply.KIND,
    ZombieVp.KIND,
)

#: Every fault kind label the metrics registry may see.
FAULT_KINDS: Tuple[str, ...] = (
    VpChurn.KIND,
    LinkFlap.KIND,
    LossBurst.KIND,
    RateLimitStorm.KIND,
    VpHang.KIND,
    VpCrash.KIND,
) + MISBEHAVIOR_KINDS


@dataclass(frozen=True)
class FaultPlan:
    """A seeded bundle of fault specs — the unit chaos runs are keyed by.

    The plan is pure data (frozen dataclasses all the way down), so it
    pickles across the worker pool and reprs stably into the campaign
    fingerprint that guards checkpoint/resume.
    """

    seed: int
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    # -- selection ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.specs

    def by_kind(self, cls) -> Tuple[FaultSpec, ...]:
        return tuple(spec for spec in self.specs if isinstance(spec, cls))

    def spec_seed(self, index: int) -> int:
        """An independent child seed for the ``index``-th spec."""
        return stable_u64(self.seed, "spec", index)

    # -- campaign-level decisions -----------------------------------------

    def churn_attempts(self, vp_name: str) -> int:
        """Initial dark attempts for ``vp_name`` (max across churn specs)."""
        dark = 0
        for index, spec in enumerate(self.specs):
            if isinstance(spec, VpChurn):
                dark = max(
                    dark, spec.dark_attempts(self.spec_seed(index), vp_name)
                )
        return dark

    def churned_vps(self, vp_names) -> dict:
        """``{vp_name: dark_attempts}`` for every churned VP in the list."""
        out = {}
        for name in vp_names:
            attempts = self.churn_attempts(name)
            if attempts:
                out[name] = attempts
        return out

    def hang_profile(self, vp_name: str, attempt: int) -> Optional[VpHang]:
        """The first hang spec wedging ``vp_name``'s ``attempt`` (or None).

        The parent-side mirror of the worker's own hang decision: the
        campaign uses it to attribute a watchdog-detected hang to an
        injected fault (vs. a genuinely wedged worker) and to count it
        in ``faults_injected_total{vp_hang}``.
        """
        for index, spec in enumerate(self.specs):
            if isinstance(spec, VpHang) and spec.applies_to(
                self.spec_seed(index), vp_name, attempt
            ):
                return spec
        return None

    def crash_profile(self, vp_name: str, attempt: int) -> Optional[VpCrash]:
        """The first crash spec killing ``vp_name``'s ``attempt`` (or None)."""
        for index, spec in enumerate(self.specs):
            if isinstance(spec, VpCrash) and spec.applies_to(
                self.spec_seed(index), vp_name, attempt
            ):
                return spec
        return None

    # -- misbehavior (lying-data) decisions --------------------------------

    def misbehavior_specs(self) -> Tuple[Tuple[int, "_MisbehaviorSpec"], ...]:
        """``(index, spec)`` for every lying-data spec, in plan order."""
        return tuple(
            (index, spec)
            for index, spec in enumerate(self.specs)
            if isinstance(spec, _MisbehaviorSpec)
        )

    @property
    def has_misbehavior(self) -> bool:
        return any(
            isinstance(spec, _MisbehaviorSpec) for spec in self.specs
        )

    # -- identity ---------------------------------------------------------

    def fingerprint(self) -> str:
        """A stable hex digest of the plan (guards checkpoint reuse)."""
        parts = tuple(repr(spec) for spec in self.specs)
        return f"{stable_u64('fault-plan', self.seed, parts):016x}"

    def describe(self) -> str:
        if self.is_empty:
            return f"fault plan (seed {self.seed}): no faults"
        kinds = ", ".join(_spec_brief(spec) for spec in self.specs)
        return f"fault plan (seed {self.seed}): {kinds}"


def _spec_brief(spec: FaultSpec) -> str:
    """``kind(key=value, ...)`` with only the load-bearing knobs shown."""
    details = []
    vps = getattr(spec, "vps", ())
    if vps:
        details.append(f"vps={','.join(vps)}")
    prob = getattr(spec, "prob", None)
    if prob is not None and not vps and 0.0 < prob < 1.0:
        details.append(f"p={prob:g}")
    if isinstance(spec, _MisbehaviorSpec):
        if (spec.start, spec.duration) != (0.0, 1.0):
            details.append(
                f"window={spec.start:g}+{spec.duration:g}"
            )
        if not spec.sticky:
            details.append("sticky=no")
        if isinstance(spec, ZombieVp):
            details.append(f"dup={spec.dup_frac:g}")
    kind = type(spec).KIND
    return f"{kind}({', '.join(details)})" if details else kind
