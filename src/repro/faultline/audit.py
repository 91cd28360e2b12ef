"""One chaos audit: soak a topology under a fault plan, kill it, audit.

``run_chaos`` is the single entry point behind ``repro chaos``, the soak
tests and the replication/cluster benches.  Every run tells the same
story, whatever the plan's topology:

1. **Arm** the compiled plan (site/kind/hit schedule, seeded).
2. **Soak and kill**, the only step that differs per topology:

   * ``single`` — a persisted :class:`SessionManager` behind a real TCP
     :class:`GatewayServer`; a reconnecting :class:`GatewayClient`
     submits cohort-scripted sessions, awaits ``wait_for`` ENDs, then
     the gateway is discard-shutdown with the rest mid-flight;
   * ``standby`` — the primary ships its WAL to one
     :class:`StandbyReplica`; after ``wait_for`` completions the
     primary dies, the standby catches up to its durable tips, the
     heartbeats stop and a :class:`Promoter` takes over;
   * ``cluster`` — a :class:`ClusterSupervisor` with N standbys and
     quorum commit; after ``wait_for`` completions one quorum member
     dies, the burst finishes on the survivors, then the primary dies
     and the furthest-ahead survivor is promoted.

3. **Audit** the durability contract with shared steps: every rebuilt
   or mirrored session's SHA-256 state digest equals an independent
   :func:`reference_digest` replay, no record the primary made durable
   is missing from any survivor, the promoted log recovers to the
   mirror's digests, the timeout counters did not move, and every
   armed fault fired exactly its scheduled count.

The :class:`AuditReport` is one plain dataclass for every topology,
serialised with :func:`dataclasses.asdict`; fields a topology does not
measure stay ``None``.  ``checks`` names each gate the topology holds
the run to, and ``ok`` is their conjunction.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

from ..obs import metrics as _obs
from ..persist import (
    PersistenceConfig,
    recover_shard,
    scan_journal,
    state_digest,
)
from ..persist.records import REC_FENCE, apply_scripted_op, ops_from_dicts
from ..serve import ServeConfig, SessionManager
from ..serve.session import session_factory_for_script
from ..video.player import SimulatedClock
from . import install, uninstall
from .plan import CompiledPlan, FaultPlan, builtin_plans

__all__ = ["AuditReport", "reference_digest", "run_chaos"]

#: pacing every topology soaks at (small ticks keep a soak short)
TICK_INTERVAL_S = 0.005
MAX_STEPS_PER_TICK = 8
GROUP_WINDOW_S = 0.004
#: silence after which a standby declares the primary dead
HEARTBEAT_TIMEOUT_S = 0.3
#: wall-clock budget of one whole run
TIMEOUT_S = 60.0
#: small shipping batches: each APPEND is one ``repl.link`` hit, and
#: the plan's schedule must be reachable within a short soak
_SHIPPING = dict(batch_max_records=4, poll_interval_s=0.01, heartbeat_s=0.05)

_TIMEOUT_COUNTERS = (
    "repro_persist_durability_timeout_total",
    "repro_quorum_timeouts_total",
)


@dataclass
class AuditReport:
    """Everything one chaos run proved (or failed to prove)."""

    plan: str
    topology: str
    seed: int
    shards: int
    sessions: int
    submitted: int = 0
    submit_failures: int = 0
    #: sessions completed (ENDs seen) before the kill
    completed_before_kill: int = 0
    digests_checked: int = 0
    digest_mismatches: List[str] = field(default_factory=list)
    durability_timeouts: int = 0
    quorum_timeouts: int = 0
    faults: List[Dict[str, Any]] = field(default_factory=list)
    injected_total: int = 0
    all_faults_fired: bool = False
    # -- single: recovery of the killed node's own log -----------------
    failed_ends: Optional[int] = None
    recovered_live: Optional[int] = None
    recovered_ended: Optional[int] = None
    torn_records: Optional[int] = None
    orphan_records: Optional[int] = None
    # -- standby / cluster: the failover --------------------------------
    standbys: Optional[int] = None
    quorum: Optional[int] = None
    standby_killed: Optional[str] = None
    promoted: Optional[str] = None
    primary_records: Optional[int] = None
    #: survivor node id -> payload records in its journals
    survivor_records: Optional[Dict[str, int]] = None
    lost_records: Optional[int] = None
    caught_up: Optional[bool] = None
    promote_detected: Optional[bool] = None
    promoted_epochs: Optional[Dict[int, int]] = None
    truncated_bytes: Optional[int] = None
    placement_version: Optional[int] = None
    queries_total: Optional[int] = None
    queries_ok: Optional[int] = None
    post_failover_submit_ok: Optional[bool] = None
    resumed_live: Optional[int] = None
    resumed_completed: Optional[int] = None
    # -- the verdict -----------------------------------------------------
    duration_s: float = 0.0
    checks: Dict[str, bool] = field(default_factory=dict)
    #: every digest audited matched its reference replay
    bit_identical: bool = False
    #: every check passed: the gate ``repro chaos`` exits zero on
    ok: bool = False


_GATES: Dict[str, Callable[[AuditReport], bool]] = {
    "bit_identical":
        lambda r: r.digests_checked > 0 and not r.digest_mismatches,
    "all_faults_fired": lambda r: r.all_faults_fired,
    "no_submit_failures": lambda r: r.submit_failures == 0,
    "no_orphan_records": lambda r: r.orphan_records == 0,
    "no_lost_records": lambda r: r.lost_records == 0,
    "caught_up": lambda r: bool(r.caught_up),
    "promote_detected": lambda r: bool(r.promote_detected),
    "resumed_all": lambda r: r.resumed_live == r.resumed_completed,
    "no_timeouts":
        lambda r: r.durability_timeouts == 0 and r.quorum_timeouts == 0,
    "queries_answered":
        lambda r: 0 < (r.queries_total or 0) == r.queries_ok,
    "post_failover_submit_ok": lambda r: bool(r.post_failover_submit_ok),
}


@dataclass
class _Run:
    """What a topology soak runs: the workload and its budgets."""

    game: Any
    assignments: List[Tuple[str, Any]]
    n_shards: int
    wait_for: int
    persist_dir: Optional[Union[str, Path]]
    durable_wait_s: float
    trace_sample: float
    n_standbys: int
    quorum: int
    deadline: float

    def remaining(self) -> float:
        return max(1.0, self.deadline - monotonic())


def reference_digest(game: Any, ops: List[Any], dt: float, upto: int) -> str:
    """Replay ``ops[:upto]`` on a fresh engine; the bit-identity oracle.

    Same simulated clock and the same shared step function the serving
    layer and recovery both use — independent of the WAL entirely.
    """
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    for op in ops[:upto]:
        apply_scripted_op(engine, op, dt)
    return state_digest(engine.state)


def run_chaos(
    plan: Union[str, FaultPlan, CompiledPlan],
    *,
    seed: Optional[int] = None,
    sessions: int = 16,
    wait_for: Optional[int] = None,
    n_shards: int = 2,
    persist_dir: Optional[Union[str, Path]] = None,
    game: Any = None,
    scripts: Optional[List[Any]] = None,
    durable_wait_s: float = 5.0,
    trace_sample: float = 0.0,
    n_standbys: int = 3,
    quorum: int = 2,
) -> AuditReport:
    """One soak-kill-audit cycle under a fault plan, on its topology.

    ``plan`` is a built-in plan name, a :class:`FaultPlan`, or an
    already-compiled plan.  ``wait_for`` sessions complete before the
    kill (default: half), so the rest are mid-flight.  ``n_standbys``
    and ``quorum`` size the ``cluster`` topology (one member dies
    mid-run, so ``quorum < n_standbys``).  With ``persist_dir`` unset
    the logs live in temp directories removed afterwards.  Metrics
    recording is forced on for the run: the timeout counters are part
    of the audit.
    """
    if isinstance(plan, str):
        plans = builtin_plans()
        if plan not in plans:
            raise ValueError(
                f"unknown plan {plan!r} (built-ins: {sorted(plans)})"
            )
        plan = plans[plan]
    compiled = plan.compile(seed) if isinstance(plan, FaultPlan) else plan
    topology = compiled.plan.topology
    if sessions < 1:
        raise ValueError("sessions must be >= 1")
    if topology == "cluster" and not 1 <= quorum < n_standbys:
        raise ValueError(
            "need 1 <= quorum < n_standbys (a member dies mid-run)"
        )

    from ..core import fetch_quest_game
    from ..students import cohort_scripts

    t0 = perf_counter()
    if game is None:
        game = fetch_quest_game(n_quests=2, title="chaos soak").build()
    if scripts is None:
        scripts = cohort_scripts(game, min(8, sessions), seed=compiled.seed)
    run = _Run(
        game=game,
        assignments=[
            (f"{scripts[k % len(scripts)].player_id}#c{k}",
             scripts[k % len(scripts)])
            for k in range(sessions)
        ],
        n_shards=n_shards,
        wait_for=max(1, sessions // 2) if wait_for is None else wait_for,
        persist_dir=persist_dir,
        durable_wait_s=durable_wait_s,
        trace_sample=trace_sample,
        n_standbys=n_standbys,
        quorum=quorum,
        deadline=monotonic() + TIMEOUT_S,
    )
    soak, gates = _TOPOLOGIES[topology]

    was_enabled = _obs.enabled()
    _obs.set_enabled(True)
    before = _counter_totals()
    injector = install(compiled)
    try:
        measured = soak(run)
    finally:
        uninstall()
        after = _counter_totals()
        _obs.set_enabled(was_enabled)

    report = AuditReport(
        plan=compiled.name,
        topology=topology,
        seed=compiled.seed,
        shards=n_shards,
        sessions=sessions,
        durability_timeouts=after[0] - before[0],
        quorum_timeouts=after[1] - before[1],
        faults=injector.report(),
        injected_total=injector.injected_total,
        all_faults_fired=injector.all_fired(),
        **measured,
    )
    report.duration_s = round(perf_counter() - t0, 3)
    report.checks = {gate: _GATES[gate](report) for gate in gates}
    report.bit_identical = report.checks["bit_identical"]
    report.ok = all(report.checks.values())
    return report


# ----------------------------------------------------------------------
# Shared audit steps
# ----------------------------------------------------------------------

def _counter_totals() -> Tuple[int, int]:
    """Durability and quorum timeout counters, process-wide."""
    totals = []
    for name in _TIMEOUT_COUNTERS:
        metric = _obs.get_registry().get(name)
        totals.append(int(metric.total()) if metric is not None else 0)
    return totals[0], totals[1]


@contextmanager
def _directory(given: Optional[Union[str, Path]], prefix: str) -> Iterator[Path]:
    """``given`` as a path, or a temp directory removed on exit."""
    if given is not None:
        yield Path(given)
        return
    with tempfile.TemporaryDirectory(prefix=prefix) as tmp:
        yield Path(tmp)


def _persistence(directory: Path) -> PersistenceConfig:
    # snapshots and compaction off: every durable record stays on disk
    # on every side, so the record-set audits are exact
    return PersistenceConfig(
        directory=directory, group_window_s=GROUP_WINDOW_S,
        snapshot_every=0, compact=False,
    )


def _manager(persistence: PersistenceConfig, run: _Run) -> SessionManager:
    return SessionManager(ServeConfig(
        n_shards=run.n_shards,
        tick_interval_s=TICK_INTERVAL_S,
        max_steps_per_tick=MAX_STEPS_PER_TICK,
        persistence=persistence,
        durable_wait_s=run.durable_wait_s,
    ))


def _submit_all(submit: Callable[[str, Any], bool], run: _Run,
                traced: Callable[[Any], Any] = lambda f: f) -> int:
    return sum(
        bool(submit(pid, traced(session_factory_for_script(run.game, s))))
        for pid, s in run.assignments
    )


def _await_completed(manager: SessionManager, target: int, run: _Run) -> int:
    while manager.completed_sessions < target and monotonic() < run.deadline:
        sleep(0.01)
    return manager.completed_sessions


def _record_keys(directory: Path) -> List[str]:
    """Canonical keys for every payload record in one shard journal.

    Epoch fences are administrative (promotion writes them on the
    standby only) and excluded, so primary and promoted logs compare
    on payload alone.
    """
    if not directory.is_dir():
        return []
    return [
        json.dumps(record, sort_keys=True)
        for record in scan_journal(directory, truncate=False).records
        if record.get("t") != REC_FENCE
    ]


def _record_loss(
    primary: PersistenceConfig, n_shards: int, survivors: Dict[str, Path]
) -> Dict[str, Any]:
    """Primary journals against every survivor's, shard by shard.

    A record is lost once per survivor missing it: the claim is that
    *every* survivor holds everything the primary made durable.
    """
    primary_records = lost = 0
    counts = {node: 0 for node in survivors}
    for shard in range(n_shards):
        keys = _record_keys(primary.shard_dir(shard))
        primary_records += len(keys)
        for node, root in survivors.items():
            mirrored = _record_keys(root / f"shard-{shard:02d}")
            counts[node] += len(mirrored)
            lost += len(set(keys) - set(mirrored))
    return dict(primary_records=primary_records, survivor_records=counts,
                lost_records=lost)


def _mirror_audit(
    game: Any, by_pid: Dict[str, Any], mirrors: Dict[str, Any],
    promoted: str, promotion: Any,
) -> Dict[str, Any]:
    """Mirrors vs the reference replay, then the promoted log vs mirror."""
    mismatches: List[str] = []
    checked = 0
    promoted_digests: Dict[str, str] = {}
    for node, replica in mirrors.items():
        for shard_state in replica.shard_states():
            for sid, sess in shard_state.sessions.items():
                checked += 1
                actual = state_digest(sess.engine.state)
                if node == promoted:
                    promoted_digests[sid] = actual
                script = by_pid.get(sid)
                ops = (
                    ops_from_dicts(sess.ops) if sess.ops
                    else (script.ops if script else [])
                )
                if actual != reference_digest(game, ops, sess.dt, sess.cursor):
                    mismatches.append(f"{node}:{sid}")
    for sid, digest in promotion.digests.items():
        checked += 1
        if promoted_digests.get(sid) != digest:
            mismatches.append(f"recover:{sid}")
    return dict(
        digests_checked=checked,
        digest_mismatches=mismatches,
        promoted=promoted,
        promoted_epochs=promotion.epochs,
        truncated_bytes=sum(row["truncated_bytes"] for row in promotion.shards),
    )


# ----------------------------------------------------------------------
# Topology soaks: soak, kill, promote — then the shared audit steps
# ----------------------------------------------------------------------

def _soak_single(run: _Run) -> Dict[str, Any]:
    from ..gateway import GatewayServer, GatewayThread

    with _directory(run.persist_dir, "repro-chaos-") as root:
        persistence = _persistence(root)
        server = GatewayServer(_manager(persistence, run), run.game)
        handle = GatewayThread(server).start()
        try:
            submitted, ends, failed_ends = asyncio.run(
                _drive_gateway(handle.host, handle.port, run)
            )
        finally:
            # the kill: discard everything still in flight (journals
            # close cleanly; injected tears already scarred the log)
            handle.stop(drain=False)
            uninstall()

        by_pid = dict(run.assignments)
        mismatches: List[str] = []
        checked = live = ended = torn = orphans = 0
        for shard in range(run.n_shards):
            directory = persistence.shard_dir(shard)
            if not directory.is_dir():
                continue
            recovered = recover_shard(
                directory, run.game, with_video=False,
                truncate=True, write_snapshots=False,
            )
            live += len(recovered.sessions)
            ended += recovered.ended_sessions
            torn += recovered.torn_records
            orphans += recovered.orphan_records
            for rec in recovered.sessions:
                checked += 1
                if rec.digest != reference_digest(
                    run.game, rec.ops, rec.dt, rec.cursor
                ):
                    mismatches.append(rec.player_id)
    for pid, digest in ends.items():
        script = by_pid[pid]
        checked += 1
        if digest is None or digest != reference_digest(
            run.game, script.ops, script.dt, len(script.ops)
        ):
            mismatches.append(pid)
    return dict(
        submitted=len(submitted),
        submit_failures=len(run.assignments) - len(submitted),
        completed_before_kill=len(ends),
        failed_ends=failed_ends,
        recovered_live=live,
        recovered_ended=ended,
        torn_records=torn,
        orphan_records=orphans,
        digests_checked=checked,
        digest_mismatches=mismatches,
    )


async def _drive_gateway(
    host: str, port: int, run: _Run
) -> Tuple[List[str], Dict[str, Optional[str]], int]:
    """Submit every assignment, await ``wait_for`` ENDs, and ride out
    injected drops.  Returns (submitted pids, pid -> END digest,
    failed ENDs)."""
    from ..gateway.client import GatewayClient, GatewayError, GatewayRejected

    client = GatewayClient(
        host, port, request_timeout_s=TIMEOUT_S, trace_sample=run.trace_sample,
    )
    await client.connect()
    submitted: List[str] = []
    for pid, script in run.assignments:
        for _attempt in range(4):
            try:
                await client.submit(pid, script.ops, dt=script.dt)
                submitted.append(pid)
                break
            except GatewayRejected:
                await asyncio.sleep(0.02)
            except GatewayError as exc:
                if exc.code == "duplicate":
                    # the SUBMIT landed; only its ack died with the
                    # faulted connection
                    submitted.append(pid)
                break
            except (ConnectionError, OSError, asyncio.TimeoutError):
                try:
                    await client.reconnect()
                except ConnectionError:
                    await asyncio.sleep(0.05)
    ends: Dict[str, Optional[str]] = {}
    failed_ends = 0
    for pid in submitted[:run.wait_for]:
        end = await _await_end(client, pid)
        if end is None or end.get("failed"):
            failed_ends += 1
        else:
            ends[pid] = end.get("digest")
    try:
        await client.close()
    except (ConnectionError, OSError):
        pass
    return submitted, ends, failed_ends


async def _await_end(client: Any, pid: str) -> Optional[Dict[str, Any]]:
    """wait_end that rides out one injected disconnect."""
    for attempt in (0, 1):
        try:
            return await client.wait_end(pid, timeout=TIMEOUT_S)
        except (ConnectionError, OSError, asyncio.TimeoutError):
            if attempt:
                return None
            try:
                await client.reconnect()
            except ConnectionError:
                return None
    return None


def _soak_standby(run: _Run) -> Dict[str, Any]:
    from ..replicate import Promoter, ReplicationSource, StandbyReplica

    with _directory(run.persist_dir, "repro-chaos-p-") as primary_root, \
            _directory(None, "repro-chaos-s-") as standby_root:
        persistence = _persistence(primary_root)
        manager = _manager(persistence, run)
        standby = None
        try:
            with ReplicationSource(
                persistence, run.n_shards, **_SHIPPING
            ) as source:
                source.attach(manager)
                manager.start()
                standby = StandbyReplica(
                    standby_root, run.game, run.n_shards,
                    source.host, source.port,
                    # reads are not under test here: never refuse on lag
                    max_read_lag_records=1 << 30,
                    reconnect_backoff_s=0.02,
                ).start()
                submitted = _submit_all(manager.submit, run)
                completed = _await_completed(manager, run.wait_for, run)
                # the kill: discard everything still mid-flight; the
                # standby then catches up to the durable tips
                manager.shutdown(drain=False)
                tips = {
                    shard: scan_journal(
                        persistence.shard_dir(shard), truncate=False
                    ).tip_lsn
                    for shard in range(run.n_shards)
                    if persistence.shard_dir(shard).is_dir()
                }
                caught_up = standby.wait_caught_up(
                    tips, timeout_s=run.remaining()
                )
            # source stopped: heartbeats are now silent
            promoter = Promoter(standby, heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S)
            detected = promoter.wait_for_failure(
                timeout_s=HEARTBEAT_TIMEOUT_S * 20
            )
            promotion = promoter.promote(game=run.game)
        finally:
            uninstall()
            if standby is not None:
                standby.stop()
            manager.shutdown(drain=False)  # no-op after the kill

        measured = dict(
            submitted=submitted,
            submit_failures=len(run.assignments) - submitted,
            completed_before_kill=completed,
            standbys=1,
            quorum=0,
            caught_up=caught_up,
            promote_detected=detected,
            **_record_loss(persistence, run.n_shards,
                           {"standby": standby_root}),
            **_mirror_audit(run.game, dict(run.assignments),
                            {"standby": standby}, "standby", promotion),
        )
        # service resumes from the promoted directory
        resumed = _manager(_persistence(standby_root), run)
        measured["resumed_live"] = sum(
            len(r.sessions) for r in resumed.recover(run.game)
        )
        resumed.start()
        resumed.drain(timeout=run.remaining())
        measured["resumed_completed"] = resumed.completed_sessions
        resumed.shutdown(drain=False)
    return measured


def _soak_cluster(run: _Run) -> Dict[str, Any]:
    from ..cluster import ClusterSupervisor, traced_factory
    from ..replicate import Promoter

    victim = f"standby-{run.n_standbys}"
    supervisor = ClusterSupervisor(
        run.game,
        n_shards=run.n_shards,
        n_standbys=run.n_standbys,
        quorum=run.quorum,
        root=run.persist_dir,
        tick_interval_s=TICK_INTERVAL_S,
        max_steps_per_tick=MAX_STEPS_PER_TICK,
        group_window_s=GROUP_WINDOW_S,
        durable_wait_s=run.durable_wait_s,
        **_SHIPPING,
    )
    try:
        try:
            supervisor.start()
            manager = supervisor.manager
            submitted = _submit_all(supervisor.submit, run, traced_factory)
            _await_completed(manager, run.wait_for, run)
            # the mid-burst member kill: quorum must ride the survivors
            supervisor.kill_standby(victim)
            completed = _await_completed(manager, submitted, run)
            supervisor.kill_primary()
            caught_up = supervisor.wait_caught_up(timeout_s=run.remaining())
            survivors = {
                nid: replica for nid, replica in supervisor.standbys.items()
                if nid != victim
            }
            # promote whichever survivor is furthest ahead
            promoted = max(survivors, key=lambda nid: sum(
                st.commit_lsn for st in survivors[nid].shard_states()
            ))
            detected = Promoter(
                survivors[promoted], heartbeat_timeout_s=HEARTBEAT_TIMEOUT_S
            ).wait_for_failure(timeout_s=HEARTBEAT_TIMEOUT_S * 20)
            promotion = supervisor.promote(
                promoted, wait_for_failure=False, recover=True,
            )
        finally:
            uninstall()

        measured = dict(
            submitted=submitted,
            submit_failures=len(run.assignments) - submitted,
            completed_before_kill=completed,
            standbys=run.n_standbys,
            quorum=run.quorum,
            standby_killed=victim,
            caught_up=caught_up,
            promote_detected=detected,
            **_record_loss(supervisor.persistence, run.n_shards, {
                nid: replica.directory for nid, replica in survivors.items()
            }),
            **_mirror_audit(run.game, dict(run.assignments), survivors,
                            promoted, promotion),
        )
        # reads after the failover: placement-routed, answered by a
        # live node, with no reconfiguration
        answered = 0
        for pid, _script in run.assignments:
            try:
                answered += supervisor.query(pid).get("node") in survivors
            except KeyError:
                continue
        # writes after the failover: the map's epoch advance reroutes
        # the submit to the promoted node's recovered manager
        script = run.assignments[0][1]
        post_ok = supervisor.submit(
            f"{script.player_id}#post",
            session_factory_for_script(run.game, script),
        )
        supervisor.manager.drain(timeout=run.remaining())
        resumed_completed = supervisor.manager.completed_sessions
        measured.update(
            placement_version=supervisor.placement.version,
            queries_total=len(run.assignments),
            queries_ok=answered,
            post_failover_submit_ok=bool(post_ok) and resumed_completed >= 1,
            resumed_live=supervisor.recovered_live + (1 if post_ok else 0),
            resumed_completed=resumed_completed,
        )
    finally:
        supervisor.stop()
    return measured


_COMMON = ("bit_identical", "all_faults_fired", "no_submit_failures")
_FAILOVER = _COMMON + (
    "no_lost_records", "caught_up", "promote_detected", "resumed_all",
)

#: topology -> (its soak, the gates its report is held to)
_TOPOLOGIES = {
    "single": (_soak_single, _COMMON + ("no_orphan_records",)),
    "standby": (_soak_standby, _FAILOVER),
    "cluster": (_soak_cluster, _FAILOVER + (
        "no_timeouts", "queries_answered", "post_failover_submit_ok",
    )),
}
