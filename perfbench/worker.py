"""One process of one benchmark round.

``run.py`` starts this file once per round and role::

    python3 perfbench/worker.py ROLE --round-dir DIR --scripts FILE [--trace 0|1]

Roles: ``serve-mem``, ``cluster-quorum`` and ``recover`` run their
workload in this process; ``gateway-server`` serves a durable gateway
and ``gateway-client`` is its separate load generator.

The protocol on stdin/stdout is one JSON object per line.  The worker
prints ``{"ready": ...}`` once it can serve (set-up ends there), waits
for ``go`` (the server also answers ``mark`` and ``stop``), runs the
round and prints ``{"result": ...}``.  Sessions are reported by state
object until the timed part is over; digests are computed afterwards so
the checks cost the program nothing.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import pickle
import queue
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from repro import obs  # noqa: E402
from repro.cluster import ClusterSupervisor, traced_factory  # noqa: E402
from repro.core import fetch_quest_game  # noqa: E402
from repro.gateway import GatewayConfig, GatewayServer, GatewayThread  # noqa: E402
from repro.gateway.client import GatewayClient  # noqa: E402
from repro.persist import PersistenceConfig  # noqa: E402
from repro.serve import ServeConfig, SessionManager, session_factory_for_script  # noqa: E402

import checks  # noqa: E402
import tracer as tracing  # noqa: E402

#: sessions in flight: a lab of 16 seats, each starting its next
#: session when its last one ends
SEATS = 16
CONNECTIONS = 2
N_SHARDS = 2
#: unpaced shards: a 0.5 ms tick with a step budget far above the
#: sessions in flight, so pacing never binds
UNPACED = dict(tick_interval_s=0.0005, max_steps_per_tick=1000)
N_STANDBYS = 3
QUORUM = 2
TIMEOUT_S = 120.0
#: session ``k`` of a round's scripts is player ``s-k``
PREFIX = "s"


def send(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def expect(word: str) -> None:
    line = sys.stdin.readline().strip()
    if line != word:
        raise SystemExit(f"worker expected {word!r}, got {line!r}")


def build_game(tr):
    wizard = fetch_quest_game(n_quests=2)
    if tr is None:
        return wizard.build()
    return tr.call("core.build_game", None, wizard.build)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def session_rows(finished):
    """(pid, t_submit, t_end, state, steps, failed) -> JSON-able ENDs."""
    return {
        pid: {
            "t_submit": t_submit, "t_end": t_end,
            "digest": None if failed else checks.digest_of(state.to_dict()),
            "outcome": None if failed else state.outcome,
            "steps": steps, "failed": failed,
        }
        for pid, t_submit, t_end, state, steps, failed in finished
    }


def closed_loop(submit, game, scripts, wrap=None, after_end=None):
    """Keep SEATS sessions in flight until every script has run.

    ``after_end(finished)`` runs on the load thread after each END (the
    cluster workload reads an earlier session there).  Returns the
    finished rows in END order and the wall time from first submit to
    last END.
    """
    ends: "queue.Queue" = queue.Queue()
    t_sub = {}
    finished = []

    def on_done(session):
        ends.put((session.player_id, perf_counter(), session.engine.state,
                  session.steps, bool(session.failed)))

    def submit_next(k):
        script = scripts[k]
        base = session_factory_for_script(game, script)

        def factory(player_id):
            session = base(player_id)
            session.on_done = on_done
            return session

        pid = f"{PREFIX}-{k}"
        t_sub[pid] = perf_counter()
        if not submit(pid, wrap(factory) if wrap else factory):
            raise RuntimeError(f"admission refused {pid}")

    t0 = perf_counter()
    nxt = min(SEATS, len(scripts))
    for k in range(nxt):
        submit_next(k)
    for _ in range(len(scripts)):
        pid, t_end, state, steps, failed = ends.get(timeout=TIMEOUT_S)
        finished.append((pid, t_sub[pid], t_end, state, steps, failed))
        if after_end is not None:
            after_end(finished)
        if nxt < len(scripts):
            submit_next(nxt)
            nxt += 1
    return finished, perf_counter() - t0


# ----------------------------------------------------------------------
# Roles
# ----------------------------------------------------------------------

def role_serve_mem(args, tr):
    game = build_game(tr)
    manager = SessionManager(ServeConfig(n_shards=N_SHARDS, **UNPACED)).start()
    send({"ready": True})
    scripts = load_scripts(args)
    expect("go")
    c0 = process_time()
    finished, wall = closed_loop(manager.submit, game, scripts)
    cpu = process_time() - c0
    stats = manager.shard_stats()
    manager.shutdown()
    return {
        "wall_s": wall, "cpu_s": cpu, "rss_mb": peak_rss_mb(),
        "ends": session_rows(finished), "ticks": sum(s["ticks"] for s in stats),
    }


def role_cluster(args, tr):
    game = build_game(tr)
    supervisor = ClusterSupervisor(
        game, n_shards=N_SHARDS, n_standbys=N_STANDBYS, quorum=QUORUM,
        root=Path(args.round_dir) / "cluster", **UNPACED,
    ).start()
    send({"ready": True})
    scripts = load_scripts(args)
    expect("go")
    reads = []
    standbys = list(supervisor.standbys.values())
    shard_of = supervisor.manager.shard_for

    def read_earlier(finished):
        # one window (the seats in flight) behind the newest END
        if len(finished) <= SEATS:
            return
        pid = finished[-1 - SEATS][0]
        if tr is not None:
            tracing.sample_lag(tr, standbys, shard_of(pid))
        t0 = perf_counter()
        try:
            view = supervisor.gateway.query(pid)
        except Exception as exc:  # any refusal is a failed read
            view = {"error": type(exc).__name__}
        reads.append((pid, perf_counter() - t0, view.get("status"), view.get("digest")))

    c0 = process_time()
    finished, wall = closed_loop(
        supervisor.submit, game, scripts,
        wrap=traced_factory, after_end=read_earlier,
    )
    cpu = process_time() - c0
    caught_up = supervisor.wait_caught_up(timeout_s=TIMEOUT_S)
    standby_digests = {nid: r.digests() for nid, r in supervisor.standbys.items()}
    stats = supervisor.manager.shard_stats()
    wal_bytes = checks.tree_bytes(supervisor.persistence.directory)
    supervisor.stop()
    return {
        "wall_s": wall, "cpu_s": cpu, "rss_mb": peak_rss_mb(),
        "ends": session_rows(finished), "ticks": sum(s["ticks"] for s in stats),
        "reads": reads, "caught_up": caught_up,
        "standby_digests": standby_digests, "wal_bytes": wal_bytes,
    }


def role_recover(args, tr):
    game = build_game(tr)
    root = Path(args.round_dir) / "image"
    manager = SessionManager(ServeConfig(
        n_shards=N_SHARDS, persistence=PersistenceConfig(directory=root), **UNPACED,
    ))
    send({"ready": True})
    expect("go")
    ends: "queue.Queue" = queue.Queue()

    def hook(session):
        session.on_done = lambda s: ends.put(
            (s.player_id, perf_counter(), s.engine.state, s.cursor, bool(s.failed))
        )

    c0 = process_time()
    t0 = perf_counter()
    reports = manager.recover(game, session_hook=hook)
    manager.start()
    recovery_s = perf_counter() - t0
    live = sum(len(r.sessions) for r in reports)
    finished = []
    for _ in range(live):
        pid, t_end, state, cursor, failed = ends.get(timeout=TIMEOUT_S)
        finished.append((pid, t0, t_end, state, cursor, failed))
    wall = perf_counter() - t0
    cpu = process_time() - c0
    stats = manager.shard_stats()
    manager.shutdown()
    return {
        "wall_s": wall, "cpu_s": cpu, "rss_mb": peak_rss_mb(),
        "ends": session_rows(finished), "ticks": sum(s["ticks"] for s in stats),
        "recovery_s": recovery_s, "live": live,
        "torn": sum(r.torn_records for r in reports),
        "wal_bytes": checks.tree_bytes(root),
    }


def role_gateway_server(args, tr):
    obs.enable()  # with obs off the gateway drops trace ids (see README F1)
    game = build_game(tr)
    root = Path(args.round_dir) / "gateway"
    manager = SessionManager(ServeConfig(
        n_shards=N_SHARDS, persistence=PersistenceConfig(directory=root), **UNPACED,
    ))
    thread = GatewayThread(
        GatewayServer(manager, game, GatewayConfig(trace_sample=1.0))
    ).start()
    send({"ready": True, "port": thread.port})
    expect("mark")
    c0 = process_time()
    send({"marked": True})
    expect("stop")
    stats = manager.shard_stats()
    if not thread.stop(drain=True):
        raise RuntimeError("gateway did not drain")
    cpu = process_time() - c0
    return {
        "cpu_s": cpu, "rss_mb": peak_rss_mb(), "ticks": sum(s["ticks"] for s in stats),
        "shard_dirs": [str(manager.config.persistence.shard_dir(i)) for i in range(N_SHARDS)],
        "wal_bytes": checks.tree_bytes(root),
    }


def role_gateway_client(args, tr):
    scripts = load_scripts(args)
    send({"ready": True})
    expect("go")
    return asyncio.run(_gateway_load(args.port, scripts))


async def _gateway_load(port, scripts):
    clients = [
        GatewayClient("127.0.0.1", port, request_timeout_s=TIMEOUT_S)
        for _ in range(CONNECTIONS)
    ]
    for client in clients:
        await client.connect()
    pending = iter(range(len(scripts)))
    ends = {}

    async def seat(client):
        for k in pending:
            script = scripts[k]
            pid = f"{PREFIX}-{k}"
            t0 = perf_counter()
            await client.submit(pid, script.ops, dt=script.dt)
            end = await client.wait_end(pid, timeout=TIMEOUT_S)
            ends[pid] = {
                "t_submit": t0, "t_end": perf_counter(),
                "digest": end.get("digest"), "outcome": end.get("outcome"),
                "steps": end.get("steps"), "failed": bool(end.get("failed")),
            }

    t0 = perf_counter()
    await asyncio.gather(*(seat(clients[i % CONNECTIONS]) for i in range(SEATS)))
    wall = perf_counter() - t0
    for client in clients:
        await client.close()
    return {"wall_s": wall, "ends": ends}


ROLES = {
    "serve-mem": role_serve_mem,
    "cluster-quorum": role_cluster,
    "recover": role_recover,
    "gateway-server": role_gateway_server,
    "gateway-client": role_gateway_client,
}


def load_scripts(args):
    with open(args.scripts, "rb") as fh:
        return pickle.load(fh)


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=sorted(ROLES))
    parser.add_argument("--round-dir", required=True)
    parser.add_argument("--scripts", default=None)
    parser.add_argument("--port", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    args = parser.parse_args()
    tr = None
    if args.trace:
        tr = tracing.Tracer()
        tracing.install(tr)
    result = ROLES[args.role](args, tr)
    if tr is not None:
        result["trace"] = tr.report()
        tr.dump(Path(args.round_dir) / f"spans-{args.role}.json")
    send({"result": result})


if __name__ == "__main__":
    main()
