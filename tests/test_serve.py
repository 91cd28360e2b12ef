"""Tests for the sharded serving layer (repro.serve)."""

import threading
from time import perf_counter

import pytest

from repro import obs
from repro.serve import (
    LoadGenerator,
    ServeConfig,
    ServedSession,
    SessionManager,
    play_to_completion,
    session_factory_for_script,
    shard_for,
)
from repro.students import cohort_scripts


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 6, seed=11)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


def _value(name, **labels):
    metric = obs.get_registry().get(name)
    assert metric is not None, f"metric {name} not registered"
    return metric.value(**labels)


class TestShardPartition:
    def test_stable_and_in_range(self):
        for pid in ("alice", "bob", "carol", "魔法使い", ""):
            first = shard_for(pid, 8)
            assert 0 <= first < 8
            assert all(shard_for(pid, 8) == first for _ in range(5))

    def test_stable_across_managers(self):
        """The same player must own the same shard across restarts."""
        a = SessionManager(ServeConfig(n_shards=4))
        b = SessionManager(ServeConfig(n_shards=4))
        for k in range(100):
            pid = f"player-{k}"
            assert a.shard_for(pid) == b.shard_for(pid)
            assert a.shard_for(pid) == shard_for(pid, 4)

    def test_partition_is_balanced(self):
        counts = [0] * 4
        for k in range(1000):
            counts[shard_for(f"student-{k}", 4)] += 1
        # CRC32 over distinct ids: no shard should be starved or hot.
        assert min(counts) > 150
        assert max(counts) < 350

    def test_validation(self):
        with pytest.raises(ValueError):
            shard_for("alice", 0)


class TestServeConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServeConfig(n_shards=0)
        with pytest.raises(ValueError):
            ServeConfig(tick_interval_s=0)
        with pytest.raises(ValueError):
            ServeConfig(max_sessions=0)
        with pytest.raises(ValueError):
            ServeConfig(max_steps_per_tick=0)

    def test_capacity_is_per_shard(self):
        cfg = ServeConfig(tick_interval_s=0.01, max_steps_per_tick=20)
        assert cfg.steps_per_second_per_shard == pytest.approx(2000.0)


class TestServedSession:
    def test_script_runs_to_completion(self, classroom_game, scripts):
        factory = session_factory_for_script(classroom_game, scripts[0])
        session = factory("alice")
        session.start()
        assert play_to_completion(session)
        assert session.done
        assert not session.failed

    def test_rejects_unplayable_ops(self, classroom_game):
        engine = classroom_game.new_engine(with_video=False)
        with pytest.raises(TypeError):
            ServedSession("alice", engine, ops=["not-an-event"], dt=0.1)

    def test_winning_script_wins(self, classroom_game, scripts):
        factory = session_factory_for_script(classroom_game, scripts[0])
        session = factory("alice")
        session.start()
        play_to_completion(session)
        assert session.engine.state.outcome is not None


class TestSessionManager:
    def test_burst_completes_everything(self, classroom_game, scripts):
        cfg = ServeConfig(n_shards=2, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        with SessionManager(cfg) as manager:
            gen = LoadGenerator(manager, classroom_game, scripts)
            report = gen.run(24, drain_timeout=30.0)
        assert report.drained
        assert report.admitted == 24
        assert report.completed == 24
        assert report.failed == 0
        assert report.rejected == 0

    def test_sessions_land_on_owning_shard(self, classroom_game, scripts):
        cfg = ServeConfig(n_shards=4, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        factory = session_factory_for_script(classroom_game, scripts[0])
        # Pick ids that all hash to one shard; only it may complete work.
        with SessionManager(cfg) as manager:
            target = manager.shard_for("pinned-0")
            pinned = [f"pinned-{k}" for k in range(200)
                      if manager.shard_for(f"pinned-{k}") == target][:8]
            for pid in pinned:
                assert manager.submit(pid, factory)
            assert manager.drain(timeout=30.0)
            by_shard = manager.completed_by_shard
        assert by_shard[target] == len(pinned)
        assert sum(by_shard.values()) == len(pinned)

    def test_backpressure_rejects_over_cap(self, classroom_game, scripts):
        # Slow ticks: completions cannot race the submit loop below.
        cfg = ServeConfig(n_shards=2, max_sessions=4, tick_interval_s=0.05,
                          max_steps_per_tick=2)
        factory = session_factory_for_script(classroom_game, scripts[0])
        with SessionManager(cfg) as manager:
            accepted = sum(
                manager.submit(f"p-{k}", factory) for k in range(10)
            )
            rejected_now = manager.rejected_sessions
            assert manager.drain(timeout=30.0)
        assert accepted == 4
        assert rejected_now == 6
        assert manager.completed_sessions == 4

    def test_drain_leaves_no_active_sessions(self, classroom_game, scripts):
        cfg = ServeConfig(n_shards=3, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        with SessionManager(cfg) as manager:
            gen = LoadGenerator(manager, classroom_game, scripts)
            gen.run(18, drain_timeout=30.0)
            assert manager.in_flight == 0
            assert all(v == 0 for v in manager.active_by_shard.values())
            for row in manager.shard_stats():
                assert row["queued"] == 0
            # Admissions stay closed after a drain.
            factory = session_factory_for_script(classroom_game, scripts[0])
            assert not manager.submit("late", factory)

    def test_shutdown_without_drain_discards_backlog(
        self, classroom_game, scripts
    ):
        cfg = ServeConfig(n_shards=2, tick_interval_s=0.05,
                          max_steps_per_tick=1)
        factory = session_factory_for_script(classroom_game, scripts[0])
        manager = SessionManager(cfg).start()
        for k in range(12):
            manager.submit(f"p-{k}", factory)
        manager.shutdown(drain=False)
        assert manager.in_flight == 0  # dropped sessions were released
        assert manager.completed_sessions < 12

    def test_shutdown_is_idempotent(self, classroom_game, scripts):
        manager = SessionManager(ServeConfig(n_shards=1)).start()
        assert manager.shutdown()
        assert manager.shutdown()

    def test_double_start_raises(self):
        manager = SessionManager(ServeConfig(n_shards=1))
        manager.start()
        try:
            with pytest.raises(RuntimeError):
                manager.start()
        finally:
            manager.shutdown(drain=False)

    def test_shard_threads_exit_after_shutdown(self, classroom_game, scripts):
        before = {t.name for t in threading.enumerate()}
        cfg = ServeConfig(n_shards=2, tick_interval_s=0.002)
        with SessionManager(cfg) as manager:
            LoadGenerator(manager, classroom_game, scripts).run(
                6, drain_timeout=30.0
            )
        after = {
            t.name for t in threading.enumerate()
            if t.name.startswith("repro-serve-shard-")
        }
        assert after <= before  # no serve threads leaked by this test


class TestServeMetrics:
    def test_counters_match_manager_accounting(
        self, live, classroom_game, scripts
    ):
        admitted0 = _value("repro_serve_admitted_total")
        rejected0 = _value("repro_serve_rejected_total")
        cfg = ServeConfig(n_shards=2, max_sessions=6, tick_interval_s=0.05,
                          max_steps_per_tick=2)
        factory = session_factory_for_script(classroom_game, scripts[0])
        completed0 = {
            label: _value("repro_serve_completed_total", shard=label)
            for label in ("0", "1")
        }
        with SessionManager(cfg) as manager:
            for k in range(10):
                manager.submit(f"m-{k}", factory)
            assert manager.drain(timeout=30.0)
            by_shard = manager.completed_by_shard
        assert _value("repro_serve_admitted_total") == admitted0 + 6
        assert _value("repro_serve_rejected_total") == rejected0 + 4
        for shard_index, count in by_shard.items():
            label = str(shard_index)
            assert (
                _value("repro_serve_completed_total", shard=label)
                == completed0[label] + count
            )

    def test_tick_histogram_records_per_shard(
        self, live, classroom_game, scripts
    ):
        hist = obs.get_registry().get("repro_serve_tick_seconds")
        n0 = hist.count_of(shard="0")
        cfg = ServeConfig(n_shards=1, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        with SessionManager(cfg) as manager:
            LoadGenerator(manager, classroom_game, scripts).run(
                4, drain_timeout=30.0
            )
        assert hist.count_of(shard="0") > n0

    def test_gauges_zeroed_after_shutdown(self, live, classroom_game, scripts):
        cfg = ServeConfig(n_shards=2, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        with SessionManager(cfg) as manager:
            LoadGenerator(manager, classroom_game, scripts).run(
                8, drain_timeout=30.0
            )
        for label in ("0", "1"):
            assert _value("repro_serve_active_sessions", shard=label) == 0
            assert _value("repro_serve_queue_depth", shard=label) == 0


class TestEventDrivenDrain:
    """drain() waits on a condition variable now, not a poll loop —
    same observable behavior (the burst/backpressure/timeout tests
    above all still pass), but completion wakes it immediately."""

    def test_drain_returns_without_waiting_a_poll_interval(
        self, classroom_game, scripts
    ):
        # A polling drain() would sleep between checks; event-driven
        # drain must return as soon as the last session closes.
        cfg = ServeConfig(n_shards=2, tick_interval_s=0.002,
                          max_steps_per_tick=50)
        factory = session_factory_for_script(classroom_game, scripts[0])
        manager = SessionManager(cfg).start()
        try:
            for k in range(6):
                assert manager.submit(f"cv-{k}", factory)
            t0 = perf_counter()
            assert manager.drain(timeout=25.0)
            elapsed = perf_counter() - t0
        finally:
            manager.shutdown(drain=False)
        assert elapsed < 20.0, (
            f"drain took {elapsed:.1f}s — still polling?"
        )
        assert manager.in_flight == 0

    def test_drain_timeout_is_still_honored(self, classroom_game, scripts):
        # One op per 0.2s tick: the sessions cannot finish in 0.2s, so
        # a short drain must report failure (and promptly).
        cfg = ServeConfig(n_shards=1, tick_interval_s=0.2,
                          max_steps_per_tick=1)
        factory = session_factory_for_script(classroom_game, scripts[0])
        manager = SessionManager(cfg).start()
        try:
            for k in range(4):
                manager.submit(f"slow-{k}", factory)
            t0 = perf_counter()
            drained = manager.drain(timeout=0.3)
            elapsed = perf_counter() - t0
        finally:
            manager.shutdown(drain=False)
        assert not drained
        assert 0.25 <= elapsed < 5.0

    def test_drain_with_nothing_in_flight_is_immediate(self):
        manager = SessionManager(ServeConfig(n_shards=1)).start()
        try:
            t0 = perf_counter()
            assert manager.drain(timeout=10.0)
            elapsed = perf_counter() - t0
        finally:
            manager.shutdown(drain=False)
        assert elapsed < 1.0
