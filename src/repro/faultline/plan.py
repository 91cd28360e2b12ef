"""Fault plans: declarative, seeded schedules of injected failures.

A :class:`FaultPlan` names a reproducible failure scenario as data: a
tuple of :class:`FaultSpec` entries, each binding one *site* (a hook
point threaded through the gateway, serve and persist layers) to one
*kind* of fault and a trigger.  Compiling a plan resolves every trigger
to a concrete hit number — specs may pin the hit explicitly (``at=6``:
fire on the sixth time the site is reached) or leave it to the plan's
seed (``at=None`` draws uniformly from ``window``), so the same plan +
seed always tears the same write and drops the same frame, while
different seeds explore different interleavings.

Sites and the fault kinds they accept:

======================  ==================================================
``gateway.accept``      ``drop`` / ``delay`` / ``partition`` a new
                        connection (partition severs every established
                        connection too)
``gateway.frame``       ``drop`` (abort the connection mid-frame-stream,
                        e.g. mid-SUBMIT) / ``delay`` an inbound frame
``wal.write``           ``torn_write`` / ``short_write`` (partial frame
                        reaches the disk, then the device errors) /
                        ``error`` (clean write failure)
``wal.fsync``           ``stall`` (the device blocks for ``seconds``) /
                        ``error`` (fsync raises ``OSError``)
``serve.tick``          ``stall`` a shard thread mid-tick
``serve.admit``         ``skip`` the rest of one tick's admissions
                        (queue-pressure spike: arrivals keep queueing,
                        nothing more starts this tick)
``repl.link``           ``drop`` (sever one standby's shipping
                        connection) / ``delay`` a shipped batch /
                        ``partition`` (sever every shipping connection
                        at once)
======================  ==================================================

Hit counting is global per site (not per shard/connection) and lives in
the installed injector, so a compiled plan is immutable and reusable.
Each site counts on a clock the workload fixes, never on one the
scheduler decides: ``wal.write`` counts written records, ``wal.fsync``
counts the records an fsync makes durable (the fsync that makes the
Nth appended record durable is hit N, however group commit batched
it), ``serve.tick`` counts stepped ops and ``serve.admit`` counts
sessions about to start.  Idle ticks, empty admission rounds and
record-less header fsyncs are no hits, so a seeded trigger drawn from
a window the workload reaches cannot miss.

Every plan also names the *topology* its audit soaks (see
:mod:`repro.faultline.audit`): ``single`` (one persisted node behind
the TCP gateway), ``standby`` (a primary shipping its WAL to one
standby, then promoted) or ``cluster`` (a placement-mapped primary
with several standbys and quorum commit).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ArmedFault",
    "CompiledPlan",
    "FaultPlan",
    "FaultSpec",
    "SITES",
    "TOPOLOGIES",
    "builtin_plans",
]

#: hook sites -> fault kinds each accepts (the single source of truth
#: validation and the docs both lean on)
SITES: Dict[str, Tuple[str, ...]] = {
    "gateway.accept": ("drop", "delay", "partition"),
    "gateway.frame": ("drop", "delay"),
    "wal.write": ("torn_write", "short_write", "error"),
    "wal.fsync": ("stall", "error"),
    "serve.tick": ("stall",),
    "serve.admit": ("skip",),
    "repl.link": ("drop", "delay", "partition"),
}

#: what a plan's audit soaks: one node, primary + standby, or cluster
TOPOLOGIES: Tuple[str, ...] = ("single", "standby", "cluster")


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One scheduled fault: a site, a kind, and a trigger."""

    site: str
    kind: str
    #: fire on the Nth time the site is reached (1-based); None lets the
    #: plan seed draw the hit from ``window`` at compile time
    at: Optional[int] = 1
    #: inclusive hit range a seeded trigger is drawn from
    window: Tuple[int, int] = (1, 20)
    #: consecutive hits that fire, starting at the trigger hit
    times: int = 1
    #: stall/delay duration
    seconds: float = 0.0
    #: fraction of the frame that reaches the disk on a torn write
    fraction: float = 0.5

    def __post_init__(self) -> None:
        kinds = SITES.get(self.site)
        if kinds is None:
            raise ValueError(
                f"unknown fault site {self.site!r} (know: {sorted(SITES)})"
            )
        if self.kind not in kinds:
            raise ValueError(
                f"site {self.site!r} does not take kind {self.kind!r} "
                f"(accepts: {kinds})"
            )
        if self.at is not None and self.at < 1:
            raise ValueError("at must be >= 1 (hits are 1-based)")
        lo, hi = self.window
        if self.at is None and (lo < 1 or hi < lo):
            raise ValueError("window must be 1 <= lo <= hi")
        if self.times < 1:
            raise ValueError("times must be >= 1")
        if self.seconds < 0:
            raise ValueError("seconds must be >= 0")
        if not 0.0 < self.fraction < 1.0:
            raise ValueError("fraction must be within (0, 1)")


@dataclass(frozen=True, slots=True)
class ArmedFault:
    """A spec with its trigger resolved: fires on hits [first, last]."""

    index: int
    spec: FaultSpec
    first_hit: int

    @property
    def last_hit(self) -> int:
        return self.first_hit + self.spec.times - 1

    def describe(self) -> Dict[str, object]:
        return {
            "site": self.spec.site,
            "kind": self.spec.kind,
            "at": self.first_hit,
            "times": self.spec.times,
            "seconds": self.spec.seconds,
        }


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded failure scenario (immutable plain data)."""

    name: str
    specs: Tuple[FaultSpec, ...] = ()
    seed: int = 2007
    description: str = ""
    topology: str = "single"

    def __post_init__(self) -> None:
        if self.topology not in TOPOLOGIES:
            raise ValueError(
                f"unknown topology {self.topology!r} (know: {TOPOLOGIES})"
            )

    def compile(self, seed: Optional[int] = None) -> "CompiledPlan":
        """Resolve every seeded trigger to a concrete hit number.

        Deterministic: the draw for spec *i* is keyed on
        ``(plan name, seed, i)``, so adding a spec never re-rolls the
        earlier ones.
        """
        seed = self.seed if seed is None else seed
        armed: List[ArmedFault] = []
        for i, spec in enumerate(self.specs):
            if spec.at is not None:
                first = spec.at
            else:
                lo, hi = spec.window
                first = random.Random(f"{self.name}:{seed}:{i}").randint(lo, hi)
            armed.append(ArmedFault(index=i, spec=spec, first_hit=first))
        return CompiledPlan(plan=self, seed=seed, armed=tuple(armed))


@dataclass(frozen=True)
class CompiledPlan:
    """A plan with concrete triggers; what the injector arms."""

    plan: FaultPlan
    seed: int
    armed: Tuple[ArmedFault, ...]
    by_site: Dict[str, Tuple[ArmedFault, ...]] = field(init=False)

    def __post_init__(self) -> None:
        grouped: Dict[str, List[ArmedFault]] = {}
        for af in self.armed:
            grouped.setdefault(af.spec.site, []).append(af)
        object.__setattr__(
            self, "by_site", {s: tuple(v) for s, v in grouped.items()}
        )

    @property
    def name(self) -> str:
        return self.plan.name

    def describe(self) -> List[Dict[str, object]]:
        return [af.describe() for af in self.armed]


def builtin_plans() -> Dict[str, FaultPlan]:
    """The named plans ``repro chaos --plan`` and the soak tests use."""
    plans = [
        FaultPlan(
            name="fsync-stall",
            description="the WAL device blocks mid-fsync, twice",
            specs=(
                FaultSpec("wal.fsync", "stall", at=None, window=(3, 8),
                          times=2, seconds=0.05),
            ),
        ),
        FaultPlan(
            name="fsync-timeout",
            description="one very long fsync stall: group commits (and "
                        "any traced END's durability wait) outlive the "
                        "durable-wait budget",
            specs=(
                FaultSpec("wal.fsync", "stall", at=None, window=(2, 4),
                          seconds=0.6),
            ),
        ),
        FaultPlan(
            name="torn-tail",
            description="a WAL write tears mid-frame and the device dies",
            specs=(
                FaultSpec("wal.write", "torn_write", at=None,
                          window=(20, 40), fraction=0.6),
            ),
        ),
        FaultPlan(
            name="disconnect-mid-submit",
            description="the client's connection drops inside its "
                        "SUBMIT stream",
            specs=(
                FaultSpec("gateway.frame", "drop", at=None, window=(3, 8)),
            ),
        ),
        FaultPlan(
            name="repl-kill-primary",
            topology="standby",
            description="the shipping link jitters (one delayed batch, "
                        "one severed connection forcing a reconnect), "
                        "then the primary is killed and the standby "
                        "promoted — the replication chaos scenario",
            specs=(
                FaultSpec("repl.link", "delay", at=None, window=(2, 6),
                          seconds=0.02),
                FaultSpec("repl.link", "drop", at=None, window=(8, 16)),
            ),
        ),
        FaultPlan(
            name="repl-quorum-partition",
            topology="cluster",
            description="quorum commit under a jittery shipping link: "
                        "one delayed batch, then one standby's shipping "
                        "connection severed mid-burst — the cluster "
                        "chaos scenario (the harness also hard-kills a "
                        "quorum member and then the primary)",
            specs=(
                FaultSpec("repl.link", "delay", at=None, window=(2, 6),
                          seconds=0.02),
                FaultSpec("repl.link", "drop", at=None, window=(10, 20)),
            ),
        ),
        FaultPlan(
            name="ci-smoke",
            description="one fault per site, all reachable in a short "
                        "soak: the CI chaos-smoke plan",
            specs=(
                FaultSpec("gateway.accept", "delay", at=1, seconds=0.005),
                FaultSpec("gateway.frame", "drop", at=None, window=(3, 8)),
                FaultSpec("wal.fsync", "stall", at=None, window=(3, 8),
                          seconds=0.02),
                FaultSpec("wal.write", "torn_write", at=None,
                          window=(20, 40), fraction=0.6),
                FaultSpec("serve.tick", "stall", at=None, window=(5, 25),
                          seconds=0.01),
                FaultSpec("serve.admit", "skip", at=None, window=(2, 10)),
            ),
        ),
    ]
    return {p.name: p for p in plans}
