"""Faultline unit tests: spec validation, seeded compile, the injector."""

import threading

import pytest

from repro import faultline, obs
from repro.faultline import FaultPlan, FaultSpec, builtin_plans
from repro.obs import attribution


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
    assert faultline.ACTIVE is False


def _injected(**labels):
    metric = obs.get_registry().get("repro_fault_injected_total")
    return metric.value(**labels)


class TestFaultSpec:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            FaultSpec("gateway.teleport", "drop")

    def test_kind_must_match_site(self):
        with pytest.raises(ValueError, match="does not take kind"):
            FaultSpec("wal.fsync", "torn_write")

    def test_trigger_bounds(self):
        with pytest.raises(ValueError, match="1-based"):
            FaultSpec("wal.fsync", "stall", at=0)
        with pytest.raises(ValueError, match="window"):
            FaultSpec("wal.fsync", "stall", at=None, window=(5, 2))
        with pytest.raises(ValueError, match="times"):
            FaultSpec("wal.fsync", "stall", times=0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec("wal.fsync", "stall", seconds=-1.0)
        with pytest.raises(ValueError, match="fraction"):
            FaultSpec("wal.write", "torn_write", fraction=1.0)

    def test_explicit_at_skips_window_validation(self):
        # window is only consulted for seeded specs
        spec = FaultSpec("wal.fsync", "stall", at=3, window=(9, 1))
        assert spec.at == 3


class TestCompile:
    def test_same_seed_same_schedule(self):
        plan = builtin_plans()["ci-smoke"]
        a = plan.compile(123)
        b = plan.compile(123)
        assert [af.first_hit for af in a.armed] == [
            af.first_hit for af in b.armed
        ]

    def test_different_seeds_explore_different_hits(self):
        plan = FaultPlan(
            name="wide",
            specs=(FaultSpec("wal.write", "error", at=None,
                             window=(1, 10_000)),),
        )
        hits = {plan.compile(s).armed[0].first_hit for s in range(8)}
        assert len(hits) > 1

    def test_seeded_hits_stay_inside_the_window(self):
        plan = builtin_plans()["torn-tail"]
        for seed in range(20):
            (af,) = plan.compile(seed).armed
            lo, hi = af.spec.window
            assert lo <= af.first_hit <= hi

    def test_last_hit_spans_times(self):
        plan = FaultPlan(
            name="span",
            specs=(FaultSpec("serve.tick", "stall", at=4, times=3),),
        )
        (af,) = plan.compile().armed
        assert (af.first_hit, af.last_hit) == (4, 6)

    def test_builtin_plans_all_compile(self):
        for name, plan in builtin_plans().items():
            compiled = plan.compile()
            assert compiled.name == name
            assert len(compiled.armed) == len(plan.specs)


class TestInjector:
    def test_fires_on_scheduled_hits_only(self):
        plan = FaultPlan(
            name="t", specs=(FaultSpec("serve.tick", "stall", at=3,
                                       times=2, seconds=0.5),),
        )
        injector = faultline.install(plan)
        fired = [faultline.fire("serve.tick") for _ in range(6)]
        assert [a is not None for a in fired] == [
            False, False, True, True, False, False,
        ]
        assert fired[2].seconds == 0.5
        assert injector.injected_total == 2
        assert injector.all_fired()
        assert injector.hits == {"serve.tick": 6}

    def test_sites_count_hits_independently(self):
        plan = FaultPlan(
            name="t", specs=(FaultSpec("wal.fsync", "stall", at=2),),
        )
        faultline.install(plan)
        assert faultline.fire("wal.write") is None  # other site: no hit here
        assert faultline.fire("wal.fsync") is None
        assert faultline.fire("wal.fsync") is not None

    def test_report_and_counter(self, live):
        plan = FaultPlan(
            name="t", specs=(FaultSpec("gateway.frame", "drop", at=1),),
        )
        injector = faultline.install(plan)
        before = _injected(site="gateway.frame", kind="drop")
        assert not injector.all_fired()
        faultline.fire("gateway.frame")
        (row,) = injector.report()
        assert row["site"] == "gateway.frame"
        assert row["fired"] == 1
        assert _injected(site="gateway.frame", kind="drop") == before + 1

    def test_fire_annotates_traces(self, live):
        store = attribution.get_store()
        trace_id = attribution.new_trace_id()
        assert store.start(trace_id, player="chaos-test")
        plan = FaultPlan(
            name="t", specs=(FaultSpec("gateway.frame", "drop", at=1),),
        )
        faultline.install(plan)
        faultline.fire("gateway.frame", traces=[trace_id, None])
        store.finish(trace_id)
        trace = store.get(trace_id)
        assert trace["attributes"]["fault"] == "gateway.frame:drop"
        assert trace["attributes"]["fault_hit"] == 1

    def test_concurrent_hits_fire_exactly_once(self):
        plan = FaultPlan(
            name="t", specs=(FaultSpec("serve.tick", "stall", at=50),),
        )
        injector = faultline.install(plan)
        hits = 0

        def worker():
            for _ in range(100):
                faultline.fire("serve.tick")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        hits = injector.hits["serve.tick"]
        assert hits == 400
        assert injector.injected_total == 1


class TestLifecycle:
    def test_install_sets_active_and_double_install_rejected(self):
        assert faultline.ACTIVE is False
        faultline.install(builtin_plans()["torn-tail"])
        assert faultline.ACTIVE is True
        with pytest.raises(RuntimeError, match="already"):
            faultline.install(builtin_plans()["fsync-stall"])
        assert faultline.current() is not None

    def test_uninstall_is_idempotent_and_returns_injector(self):
        injector = faultline.install(builtin_plans()["torn-tail"])
        assert faultline.uninstall() is injector
        assert faultline.ACTIVE is False
        assert faultline.uninstall() is None

    def test_fire_without_injector_is_noop(self):
        assert faultline.fire("wal.fsync") is None


class TestWorkloadClocks:
    """Hits count units the workload fixes, never scheduler artefacts."""

    def test_fsync_fault_counts_records_not_batches(self, tmp_path):
        """Six appends inside one group-commit window are one fsync but
        six hits, so a trigger at hit 5 cannot be batched away."""
        from repro.persist import Journal, PersistenceConfig

        injector = faultline.install(FaultPlan(
            name="t", specs=(FaultSpec("wal.fsync", "stall", at=5),),
        ))
        journal = Journal(tmp_path, PersistenceConfig(
            directory=tmp_path, group_window_s=0.5,
        ))
        try:
            for k in range(6):
                journal.append({"t": "x", "k": k})
            assert journal.sync(timeout=10.0)
        finally:
            journal.close()
        assert injector.all_fired(), injector.report()
        assert injector.hits["wal.fsync"] == 6

    def test_serve_sites_count_sessions_and_ops_not_ticks(
        self, classroom_game
    ):
        from repro.serve import (
            ServeConfig,
            SessionManager,
            session_factory_for_script,
        )
        from repro.students import cohort_scripts

        injector = faultline.install(FaultPlan(name="t", specs=(
            FaultSpec("serve.admit", "skip", at=2),
            FaultSpec("serve.tick", "stall", at=3),
        )))
        script = cohort_scripts(classroom_game, 1, seed=3)[0]
        manager = SessionManager(ServeConfig(
            n_shards=1, tick_interval_s=0.002,
        )).start()
        try:
            threading.Event().wait(0.05)  # idle ticks: no hits
            assert injector.hits == {}
            factory = session_factory_for_script(classroom_game, script)
            for k in range(3):
                assert manager.submit(f"clock-{k}", factory)
            assert manager.drain(timeout=30.0)
            steps = manager.shard_stats()[0]["steps"]
        finally:
            manager.shutdown(drain=False)
        # three sessions admitted, plus the one the skip sent back
        assert injector.hits["serve.admit"] == 4
        assert injector.hits["serve.tick"] == steps == 3 * len(script.ops)
        assert injector.all_fired(), injector.report()
