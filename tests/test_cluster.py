"""Cluster control plane: placement map, routed gateway, quorum commit.

Unit coverage for :mod:`repro.cluster` — the map's fencing and
round-robin planning, the gateway's lag-ranked read routing and
epoch-triggered write failover (against in-memory fakes), plus one
small end-to-end quorum cluster and one seeded chaos audit.
"""

import json
import socket
from dataclasses import asdict

import pytest

from repro import obs
from repro.cluster import (
    ClusterGateway,
    ClusterSupervisor,
    NodeInfo,
    PlacementMap,
    plan_placement,
    traced_factory,
)
from repro.faultline.audit import reference_digest, run_chaos
from repro.replicate import ReplicaLagging
from repro.replicate.protocol import R_ERROR, R_HANDSHAKE, encode, make_decoder
from repro.serve import session_factory_for_script
from repro.serve.manager import shard_for
from repro.students import cohort_scripts

N_SHARDS = 2


@pytest.fixture(scope="module")
def scripts(classroom_game):
    return cohort_scripts(classroom_game, 4, seed=23)


@pytest.fixture
def live():
    was = obs.enabled()
    obs.enable()
    yield obs
    obs.set_enabled(was)


class TestPlacementMap:
    def _nodes(self, n=3):
        primary = NodeInfo("p0", "primary", "127.0.0.1", 4000)
        standbys = [NodeInfo(f"s{k}") for k in range(n)]
        return primary, standbys

    def test_plan_interleaves_subsets(self):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys, replicas_per_shard=2)
        for shard in range(4):
            entry = pmap.assignment(shard)
            assert entry.primary == "p0"
            assert len(entry.standbys) == 2
            assert len(set(entry.standbys)) == 2
        # rotation: every standby carries some subset of the keyspace
        for node in standbys:
            assert pmap.shards_of(node.node_id)

    def test_every_shard_survives_any_single_standby_loss(self):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(4, primary, standbys, replicas_per_shard=2)
        for victim in standbys:
            for shard in range(4):
                survivors = [
                    s for s in pmap.standbys_for(shard)
                    if s != victim.node_id
                ]
                assert survivors, (
                    f"shard {shard} dies with {victim.node_id}"
                )

    def test_assign_bumps_version(self):
        pmap = PlacementMap(1)
        v0 = pmap.version
        pmap.assign(0, "p0", ("s0",))
        assert pmap.version == v0 + 1

    def test_advance_fences_stale_epochs(self):
        primary, standbys = self._nodes(2)
        pmap = plan_placement(2, primary, standbys)
        with pytest.raises(ValueError):
            pmap.advance(0, "s0", epoch=1)  # not strictly newer
        entry = pmap.advance(0, "s0", epoch=2)
        assert entry.primary == "s0"
        assert "s0" not in entry.standbys
        assert pmap.node("s0").kind == "primary"
        # shard 1 untouched
        assert pmap.primary_for(1) == "p0"

    def test_shards_of_covers_primary_and_standby_roles(self):
        primary, standbys = self._nodes(2)
        pmap = plan_placement(2, primary, standbys)
        assert pmap.shards_of("p0") == [0, 1]
        pmap.advance(1, "s0", epoch=2)
        assert 1 in pmap.shards_of("s0")
        assert pmap.shards_of("p0") == [0]

    def test_save_load_round_trip(self, tmp_path):
        primary, standbys = self._nodes(3)
        pmap = plan_placement(3, primary, standbys, replicas_per_shard=2)
        pmap.advance(1, "s1", epoch=5)
        path = pmap.save(tmp_path)
        assert path.name == "PLACEMENT.json"
        loaded = PlacementMap.load(tmp_path)
        assert loaded.to_dict() == pmap.to_dict()
        assert loaded.epoch_of(1) == 5

    def test_saved_map_json_is_pinned(self, tmp_path):
        """PLACEMENT.json is an on-disk format: its bytes must not drift."""
        pmap = plan_placement(
            2, NodeInfo("p0", "primary", "127.0.0.1", 4000),
            [NodeInfo("s0"), NodeInfo("s1", "standby", "10.0.0.2", 4101)],
            replicas_per_shard=1,
        )
        pmap.advance(1, "s1", epoch=3)
        assert pmap.save(tmp_path).read_text() == (
            '{\n  "assignments": [\n    {\n      "epoch": 1,\n'
            '      "primary": "p0",\n      "shard": 0,\n'
            '      "standbys": [\n        "s0"\n      ]\n    },\n'
            '    {\n      "epoch": 3,\n      "primary": "s1",\n'
            '      "shard": 1,\n      "standbys": []\n    }\n  ],\n'
            '  "n_shards": 2,\n  "nodes": [\n    {\n'
            '      "host": "127.0.0.1",\n      "kind": "primary",\n'
            '      "node_id": "p0",\n      "port": 4000\n    },\n'
            '    {\n      "host": "",\n      "kind": "standby",\n'
            '      "node_id": "s0",\n      "port": 0\n    },\n'
            '    {\n      "host": "10.0.0.2",\n      "kind": "primary",\n'
            '      "node_id": "s1",\n      "port": 4101\n    }\n  ],\n'
            '  "version": 4\n}'
        )

    def test_primary_address(self):
        primary, standbys = self._nodes(1)
        pmap = plan_placement(1, primary, standbys)
        assert pmap.primary_address(0) == "127.0.0.1:4000"
        assert pmap.primary_address() == "127.0.0.1:4000"
        assert PlacementMap(1).primary_address() is None


class _FakePrimary:
    """Write target: submits recorded, no query surface (like a
    SessionManager, which must never serve placement-routed reads)."""

    def __init__(self):
        self.submitted = []

    def submit(self, player_id, factory):
        self.submitted.append(player_id)
        return True


class _FakeStandby:
    def __init__(self, lag=0, view=None, lagging=None, alive=True):
        self._lag = lag
        self._view = view
        self._lagging = lagging
        self.alive = alive
        self.queried = []

    def lag(self, shard):
        return self._lag

    def query(self, player_id):
        self.queried.append(player_id)
        if self._lagging is not None:
            raise self._lagging
        if self._view is None:
            raise KeyError(player_id)
        return dict(self._view)


class TestClusterGateway:
    def _gateway(self, n_shards=1):
        pmap = plan_placement(
            n_shards, NodeInfo("p0", "primary"),
            [NodeInfo("s0"), NodeInfo("s1")],
        )
        return ClusterGateway(pmap), pmap

    def test_submit_routes_to_mapped_primary(self):
        gw, _ = self._gateway()
        primary = _FakePrimary()
        gw.register("p0", primary)
        assert gw.submit("player", lambda pid: None)
        assert primary.submitted == ["player"]

    def test_submit_unregistered_primary_raises(self):
        gw, _ = self._gateway()
        with pytest.raises(KeyError):
            gw.submit("player", lambda pid: None)

    def test_query_prefers_least_lagged_standby(self):
        gw, _ = self._gateway()
        slow = _FakeStandby(lag=9, view={"status": "done"})
        fast = _FakeStandby(lag=0, view={"status": "done"})
        gw.register("p0", _FakePrimary())
        gw.register("s0", slow)
        gw.register("s1", fast)
        view = gw.query("player")
        assert view["node"] == "s1"
        assert fast.queried and not slow.queried
        assert view["placement_version"] == gw.placement.version

    def test_query_falls_through_lagging_standby(self):
        gw, _ = self._gateway()
        refusing = _FakeStandby(
            lag=0, lagging=ReplicaLagging(0, lag_ticks=7, bound=2)
        )
        answering = _FakeStandby(lag=3, view={"status": "done"})
        gw.register("s0", refusing)
        gw.register("s1", answering)
        assert gw.query("player")["node"] == "s1"

    def test_query_reraises_smallest_lag(self):
        gw, _ = self._gateway()
        gw.register("s0", _FakeStandby(
            lagging=ReplicaLagging(0, lag_ticks=50, bound=2)))
        gw.register("s1", _FakeStandby(
            lagging=ReplicaLagging(0, lag_ticks=4, bound=2)))
        with pytest.raises(ReplicaLagging) as err:
            gw.query("player")
        assert err.value.lag_ticks == 4
        assert err.value.shard == 0

    def test_query_unknown_everywhere_is_key_error(self):
        gw, _ = self._gateway()
        gw.register("s0", _FakeStandby())  # raises KeyError
        with pytest.raises(KeyError):
            gw.query("player")

    def test_dead_standby_is_last_resort(self):
        gw, _ = self._gateway()
        dead = _FakeStandby(lag=0, view={"status": "done"}, alive=False)
        lagged = _FakeStandby(lag=100, view={"status": "done"})
        gw.register("s0", dead)
        gw.register("s1", lagged)
        assert gw.query("player")["node"] == "s1"

    def test_epoch_advance_reroutes_next_write(self, live):
        gw, pmap = self._gateway()
        old = _FakePrimary()
        new = _FakePrimary()
        gw.register("p0", old)
        gw.register("s0", new)
        assert gw.submit("player", lambda pid: None)
        pmap.advance(0, "s0", epoch=2)
        before = _counter_total("repro_placement_failover_routes_total")
        assert gw.submit("player", lambda pid: None)
        assert old.submitted == ["player"]
        assert new.submitted == ["player"]
        after = _counter_total("repro_placement_failover_routes_total")
        assert after == before + 1


def _counter_total(name):
    from repro.obs import metrics as _metrics

    counter = _metrics.REGISTRY.get(name)
    return counter.total() if counter is not None else 0.0


class TestQuorumCluster:
    def test_quorum_end_to_end(self, classroom_game, scripts, live):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=3,
            replicas_per_shard=2, quorum=1,
        ) as supervisor:
            for k, script in enumerate(scripts):
                assert supervisor.submit(
                    f"{script.player_id}#q{k}",
                    traced_factory(
                        session_factory_for_script(classroom_game, script)
                    ),
                )
            assert supervisor.manager.drain(timeout=60)
            assert supervisor.wait_caught_up(timeout_s=30)
            # quorum acks actually flowed
            assert _counter_total("repro_quorum_acks_total") > 0
            # placement-routed read answers from a standby mirror
            script = scripts[0]
            view = supervisor.query(f"{script.player_id}#q0")
            assert view["status"] == "done"
            assert view["node"].startswith("standby-")
            assert view["digest"] == reference_digest(
                classroom_game, script.ops, script.dt, len(script.ops),
            )
            status = supervisor.status()
            assert status["quorum"] == 1
            assert status["primary"]["alive"]
            # every standby subscribed to its planned subset only
            subset_sizes = []
            for node_id, info in status["standbys"].items():
                assert info["subscribed"] == (
                    supervisor.placement.shards_of(node_id)
                )
                subset_sizes.append(len(info["subscribed"]))
            # 2 replicas/shard over 3 standbys x 2 shards = 4 slots:
            # the subsets genuinely interleave, nobody mirrors it all
            assert sum(subset_sizes) == N_SHARDS * 2
            assert min(subset_sizes) < N_SHARDS

    def test_handshake_rejects_unsubscribed_shard(self, classroom_game):
        with ClusterSupervisor(
            classroom_game, n_shards=N_SHARDS, n_standbys=1,
        ) as supervisor:
            source = supervisor.source
            with socket.create_connection(
                (source.host, source.port), timeout=5
            ) as conn:
                conn.sendall(encode(R_HANDSHAKE, {
                    "shard": 1, "start": 1, "epoch": 1,
                    "subs": [0], "client": "tester",
                }))
                decoder = make_decoder()
                frames = []
                while not frames:
                    data = conn.recv(65536)
                    assert data, "source hung up without an error frame"
                    frames = decoder.feed(data)
                ftype, payload = frames[0]
        assert ftype == R_ERROR
        assert payload["code"] == "bad_subscription"

    def test_replica_lagging_carries_routing_attrs(self):
        err = ReplicaLagging(3, lag_ticks=11, bound=4)
        assert (err.shard, err.lag_ticks, err.bound) == (3, 11, 4)
        assert "shard 3" in str(err) and "11" in str(err)


class TestClusterChaos:
    def test_seeded_chaos_audit_passes(self, classroom_game):
        report = run_chaos(
            "repl-quorum-partition", seed=4321, sessions=6,
            n_shards=N_SHARDS, n_standbys=3, quorum=2, game=classroom_game,
        )
        assert report.topology == "cluster"
        assert report.lost_records == 0
        # checked against every survivor, not just a quorum of them
        assert set(report.survivor_records) == {
            "standby-1", "standby-2",
        }
        assert report.bit_identical
        assert report.caught_up and report.promote_detected
        assert report.queries_ok == report.queries_total > 0
        assert report.post_failover_submit_ok
        assert report.quorum_timeouts == 0
        assert report.durability_timeouts == 0
        assert report.resumed_completed == report.resumed_live
        assert report.all_faults_fired
        assert all(report.checks.values()) and len(report.checks) == 10
        assert report.ok
        doc = asdict(report)
        assert doc["standby_killed"] == "standby-3"
        assert doc["promoted"] in ("standby-1", "standby-2")
        json.dumps(doc)  # the CLI writes this verbatim

    def test_quorum_must_leave_a_survivor(self, classroom_game):
        with pytest.raises(ValueError):
            run_chaos(
                "repl-quorum-partition", sessions=2, n_shards=1,
                n_standbys=2, quorum=2, game=classroom_game,
            )
