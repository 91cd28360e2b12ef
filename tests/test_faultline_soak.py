"""Seeded chaos soaks: inject faults, kill, recover, prove bit-identity.

Each test runs the full gateway -> serve -> persist stack under one
built-in fault plan via :func:`repro.faultline.audit.run_chaos` and
holds the run to the durability contract: every scheduled fault fired
exactly its scheduled count, no WAL record was orphaned, and every
recovered (or completed) session's SHA-256 state digest equals an
independent reference replay.
"""

from dataclasses import asdict

import pytest

from repro import faultline, obs
from repro.faultline.audit import run_chaos


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


@pytest.fixture(autouse=True)
def no_leftover_plan():
    faultline.uninstall()
    yield
    faultline.uninstall()


def _assert_contract(report):
    """The invariants every chaos run must close on."""
    assert report.topology == "single"
    assert report.submit_failures == 0, asdict(report)
    assert report.orphan_records == 0, asdict(report)
    assert report.all_faults_fired, report.faults
    assert report.digests_checked > 0
    assert report.digest_mismatches == [], report.digest_mismatches
    assert report.bit_identical
    assert report.checks == dict.fromkeys((
        "bit_identical", "all_faults_fired", "no_submit_failures",
        "no_orphan_records",
    ), True)
    assert report.ok
    # the obs integration saw exactly what the injector fired
    assert report.injected_total == sum(
        row["fired"] for row in report.faults
    )


class TestSeededSoaks:
    def test_fsync_stall_recovery_is_bit_identical(self, live):
        report = run_chaos("fsync-stall", seed=2007, sessions=12)
        _assert_contract(report)
        # both scheduled stalls fired, and only those
        assert report.injected_total == 2

    def test_torn_tail_is_truncated_and_replay_matches(self, live):
        report = run_chaos("torn-tail", seed=2007, sessions=12)
        _assert_contract(report)
        # the injected tear really reached the disk and recovery
        # discarded exactly that tail
        assert report.torn_records >= 1

    def test_disconnect_mid_submit_rides_the_retry_path(self, live):
        report = run_chaos("disconnect-mid-submit", seed=2007, sessions=12)
        _assert_contract(report)
        # the drop killed the connection, yet every offered session
        # still landed (reconnect + resume, duplicate acks tolerated)
        assert report.submitted == 12

    def test_ci_smoke_covers_every_site(self, live):
        report = run_chaos("ci-smoke", seed=2007, sessions=16)
        _assert_contract(report)
        assert {row["site"] for row in report.faults} == {
            "gateway.accept", "gateway.frame", "wal.write",
            "wal.fsync", "serve.tick", "serve.admit",
        }

    def test_ci_smoke_fires_every_fault_across_seeds(self, live):
        """Triggers count workload units (records, ops, sessions), not
        fsync batches or ticks, so no seed's draw can land past the
        last hit the CI-sized workload makes."""
        missed, failed = {}, {}
        for seed in range(1, 13):
            report = run_chaos("ci-smoke", seed=seed, sessions=16)
            if not report.all_faults_fired:
                missed[seed] = [
                    row for row in report.faults
                    if row["fired"] != row["times"]
                ]
            if not report.ok:
                failed[seed] = [k for k, v in report.checks.items() if not v]
        assert missed == {}
        assert failed == {}

    def test_same_seed_same_schedule(self, live):
        a = run_chaos("torn-tail", seed=7, sessions=8)
        b = run_chaos("torn-tail", seed=7, sessions=8)
        assert a.faults == b.faults


class TestDurabilityTimeout:
    def test_fsync_timeout_surfaces_via_counter(self, live):
        """A 0.6s fsync stall outlives a 50ms durability budget: the END
        is still delivered (and still bit-identical), but the miss is
        counted instead of silently reported as durable."""
        before = obs.get_registry().get(
            "repro_persist_durability_timeout_total"
        ).total()
        report = run_chaos(
            "fsync-timeout", seed=2007, sessions=8, wait_for=4,
            trace_sample=1.0, durable_wait_s=0.05,
        )
        _assert_contract(report)
        assert report.durability_timeouts >= 1
        after = obs.get_registry().get(
            "repro_persist_durability_timeout_total"
        ).total()
        assert after - before == report.durability_timeouts

    def test_patient_wait_sees_no_timeouts(self, live):
        """Same stall, durable-wait budget longer than it: no misses."""
        report = run_chaos(
            "fsync-timeout", seed=2007, sessions=8, wait_for=4,
            trace_sample=1.0, durable_wait_s=5.0,
        )
        _assert_contract(report)
        assert report.durability_timeouts == 0


class TestAuditSteps:
    """The shared audit steps catch what the happy paths never show."""

    def test_loss_is_counted_on_every_survivor(self, tmp_path):
        from repro.faultline.audit import _record_loss
        from repro.persist import Journal, PersistenceConfig

        def log(root, count):
            journal = Journal(root / "shard-00")
            for k in range(count):
                journal.append({"t": "x", "k": k})
            journal.close()

        log(tmp_path / "p", 3)
        log(tmp_path / "a", 3)
        log(tmp_path / "b", 2)  # one record short: K of N is not enough
        loss = _record_loss(
            PersistenceConfig(directory=tmp_path / "p"), 1,
            {"a": tmp_path / "a", "b": tmp_path / "b"},
        )
        assert loss == dict(primary_records=3,
                            survivor_records={"a": 3, "b": 2},
                            lost_records=1)

    def test_mirror_and_promoted_log_are_both_audited(self, classroom_game):
        from types import SimpleNamespace

        from repro.faultline.audit import _mirror_audit, reference_digest
        from repro.students import cohort_scripts

        from repro.persist.records import apply_scripted_op
        from repro.video.player import SimulatedClock

        script = cohort_scripts(classroom_game, 1, seed=3)[0]
        digest = reference_digest(classroom_game, script.ops, script.dt, 2)

        def mirror(cursor):
            """A one-session standby whose engine applied two ops."""
            engine = classroom_game.new_engine(
                clock=SimulatedClock(0.0), with_video=False
            )
            engine.start()
            for op in script.ops[:2]:
                apply_scripted_op(engine, op, script.dt)
            sess = SimpleNamespace(engine=engine, ops=[], dt=script.dt,
                                   cursor=cursor)
            return SimpleNamespace(
                shard_states=lambda: [SimpleNamespace(sessions={"p": sess})]
            )

        def promotion(got):
            return SimpleNamespace(digests={"p": got}, epochs={0: 2},
                                   shards=[{"truncated_bytes": 0}])

        by_pid = {"p": script}
        good = _mirror_audit(classroom_game, by_pid, {"a": mirror(2)}, "a",
                             promotion(digest))
        assert good["digests_checked"] == 2
        assert good["digest_mismatches"] == []
        # the promoted log rebuilt a different state than the mirror
        bad = _mirror_audit(classroom_game, by_pid, {"a": mirror(2)}, "a",
                            promotion("0" * 64))
        assert bad["digest_mismatches"] == ["recover:p"]
        # the mirror claims a cursor its state does not match
        off = _mirror_audit(classroom_game, by_pid, {"a": mirror(1)}, "a",
                            promotion(digest))
        assert off["digest_mismatches"] == ["a:p"]
