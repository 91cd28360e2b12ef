"""Replication bench: standby lag under load, failover losslessness.

Two claims this file defends:

* **Steady state:** under a full bench cohort streaming through the
  sharded server, the warm standby's p95 shard lag stays under 2 ticks
  of the primary's simulation clock — i.e. the replica is close enough
  to serve reads that are at most a couple of frames stale.
* **Failover:** a seeded ``repl-kill-primary`` chaos run (primary
  killed mid-flight, link delayed and dropped by the fault plan, the
  standby promoted) loses **zero** durable records and every replica
  session's state digest is bit-identical to an independent
  from-scratch replay of its journal — replication is an availability
  feature, never a divergence feature.

Lag is measured in records (``repro_repl_lag_records``); the
tick conversion divides by ``max_steps_per_tick``, a single session's
per-tick record production — the most conservative denominator, since
every shard runs several sessions and produces a multiple of that.

Tunable from the environment so the CI smoke job can run it small:

``REPRO_REPL_BENCH_SESSIONS``
    Cohort size streamed through the primary (default ``12``).
``REPRO_REPL_BENCH_SHARDS``
    Shards (and standby follower threads; default ``2``).
``REPRO_REPL_BENCH_SEED``
    Seed for scripts and the chaos schedule (default ``1301``).
"""

import os
import shutil
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

import pytest

from conftest import save_json, save_result
from repro import obs
from repro.core import fetch_quest_game
from repro.faultline.audit import run_chaos
from repro.persist import PersistenceConfig, scan_journal
from repro.replicate import ReplicationSource, StandbyReplica
from repro.reporting import format_table
from repro.serve import ServeConfig, SessionManager, session_factory_for_script
from repro.students import cohort_scripts

SLO_FILE = Path(__file__).parent.parent / "examples" / "slo.toml"

SESSIONS = int(os.environ.get("REPRO_REPL_BENCH_SESSIONS", "12"))
SHARDS = int(os.environ.get("REPRO_REPL_BENCH_SHARDS", "2"))
SEED = int(os.environ.get("REPRO_REPL_BENCH_SEED", "1301"))

TICK_S = 0.003
MAX_STEPS = 8
LAG_TICKS_BOUND = 2.0


def _p95(samples):
    ordered = sorted(samples)
    return ordered[int(0.95 * (len(ordered) - 1))] if ordered else 0.0


def _steady_state() -> dict:
    """Drive a full cohort through a replicated pair; measure the lag."""
    game = fetch_quest_game(n_quests=2, title="replication bench").build()
    scripts = cohort_scripts(game, SESSIONS, seed=SEED)
    root = Path(tempfile.mkdtemp(prefix="repro-bench-repl-"))
    try:
        persistence = PersistenceConfig(
            directory=root / "primary", group_window_s=0.002,
            snapshot_every=0, compact=False,
        )
        manager = SessionManager(ServeConfig(
            n_shards=SHARDS, tick_interval_s=TICK_S,
            max_steps_per_tick=MAX_STEPS, persistence=persistence,
        ))
        t0 = time.perf_counter()
        with ReplicationSource(persistence, SHARDS) as source:
            source.attach(manager)
            manager.start()
            with StandbyReplica(
                root / "standby", game, SHARDS, source.host, source.port,
            ) as standby:
                for script in scripts:
                    assert manager.submit(
                        script.player_id,
                        session_factory_for_script(game, script),
                    )
                assert manager.drain(timeout=120)
                manager.shutdown(drain=False)
                tips = {
                    i: scan_journal(
                        persistence.shard_dir(i), truncate=False
                    ).tip_lsn
                    for i in range(SHARDS)
                }
                assert standby.wait_caught_up(tips, timeout_s=60)
                elapsed = time.perf_counter() - t0
                shards = []
                for st in standby.shard_states():
                    samples = list(st.lag_samples)
                    shards.append({
                        "shard": st.index,
                        "samples": len(samples),
                        "p95_lag_records": _p95(samples),
                        "max_lag_records": max(samples, default=0),
                        "final_lag_records": st.lag,
                        "records": st.applied_lsn,
                    })
        shipped = sum(tips.values())
        return {
            "sessions": SESSIONS,
            "shards": shards,
            "records": shipped,
            "elapsed_s": elapsed,
            "records_per_s": shipped / elapsed,
            "p95_lag_ticks": max(
                row["p95_lag_records"] / MAX_STEPS for row in shards
            ),
        }
    finally:
        shutil.rmtree(root, ignore_errors=True)


@pytest.fixture(scope="module")
def repl_runs():
    obs.enable()  # lag gauge / apply histogram feed the SLO rules
    steady = _steady_state()
    game = fetch_quest_game(n_quests=2, title="failover bench").build()
    chaos = run_chaos(
        "repl-kill-primary", seed=SEED, sessions=max(4, SESSIONS // 2),
        n_shards=SHARDS, game=game, scripts=cohort_scripts(game, 4, seed=SEED + 1),
    )
    return steady, chaos


def test_standby_lag_stays_under_two_ticks(repl_runs, results_dir):
    steady, _ = repl_runs
    rows = [
        {
            "shard": row["shard"],
            "records": row["records"],
            "lag_samples": row["samples"],
            "p95_lag_records": row["p95_lag_records"],
            "p95_lag_ticks": f"{row['p95_lag_records'] / MAX_STEPS:.2f}",
            "final_lag": row["final_lag_records"],
        }
        for row in steady["shards"]
    ]
    save_result(
        "replicate_lag.txt",
        format_table(
            rows,
            title=(
                f"standby lag ({SESSIONS} sessions x {SHARDS} shards, "
                f"{steady['records']} records in {steady['elapsed_s']:.2f}s)"
            ),
        )
        + f"\np95 lag: {steady['p95_lag_ticks']:.2f} ticks "
        f"(bound {LAG_TICKS_BOUND})",
    )
    for row in steady["shards"]:
        assert row["samples"] > 0, "shard never sampled its lag"
        assert row["final_lag_records"] == 0, "standby never caught up"
    assert steady["p95_lag_ticks"] < LAG_TICKS_BOUND, (
        f"standby p95 lag {steady['p95_lag_ticks']:.2f} ticks >= "
        f"{LAG_TICKS_BOUND} at bench load"
    )


def test_failover_is_lossless_and_bit_identical(repl_runs):
    """The acceptance bar: kill the primary, lose nothing, diverge never."""
    _, chaos = repl_runs
    assert chaos.all_faults_fired, "fault schedule never completed"
    assert chaos.lost_records == 0, (
        f"promotion lost {chaos.lost_records} durable records"
    )
    assert not chaos.digest_mismatches and chaos.digests_checked > 0, (
        f"{len(chaos.digest_mismatches)} of {chaos.digests_checked} replica "
        f"digests diverged from the reference replay: "
        f"{chaos.digest_mismatches[:3]}"
    )
    assert chaos.promote_detected and chaos.caught_up
    assert chaos.resumed_completed == chaos.resumed_live
    assert chaos.ok


def test_replicate_emits_machine_readable_result(repl_runs, results_dir):
    """BENCH_replicate.json: lag + failover audit, for tooling."""
    steady, chaos = repl_runs
    payload = {
        "benchmark": "replicate",
        "sessions": SESSIONS,
        "shards": SHARDS,
        "seed": SEED,
        "steady_state": {
            "records": steady["records"],
            "records_per_s": steady["records_per_s"],
            "p95_lag_ticks": steady["p95_lag_ticks"],
            "lag_ticks_bound": LAG_TICKS_BOUND,
            "per_shard": steady["shards"],
        },
        "failover": asdict(chaos),
    }
    path = save_json("BENCH_replicate.json", payload)
    assert path.is_file()
    assert payload["steady_state"]["records_per_s"] > 0
    assert payload["failover"]["ok"] is True


def test_replicate_slo_rules_pass(repl_runs):
    """The repro_repl_* rules of examples/slo.toml hold under load."""
    rules = [
        r for r in obs.parse_slo_file(SLO_FILE)
        if (r.metric or r.numerator or "").startswith("repro_repl_")
    ]
    assert rules, "examples/slo.toml lost its replication rules"
    results, all_ok = obs.evaluate_slos(rules, obs.snapshot())
    breached = [r.rule.title for r in results if not r.ok]
    assert all_ok, f"replication SLO rules breached: {breached}"
