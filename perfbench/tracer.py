"""Spans around the calls the benchmark makes into each layer.

The program is not instrumented: :func:`install` replaces a fixed list
of public functions and methods with timing wrappers, in whichever
process runs them (the benchmark's worker, the gateway server it
starts, and the load generator).  Spans stay in memory; :meth:`dump`
writes them with their per-name summary as JSON.

A span is ``(id, name, start, end, parent, session)``.  The parent is
the span open on the same thread when this one began, so a layer's self
time is its duration minus the part its child spans cover.  Coroutine
spans (``GatewayClient.submit``) interleave on one thread and take no
parent.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List

#: (module, attribute path, span name, session argument index or None).
#: Method paths are ``Class.method``; a plain function is replaced in
#: every loaded ``repro`` module that imported it.
TARGETS = [
    ("repro.core.project", "CompiledGame.new_engine", "core.new_engine", None),
    ("repro.serve.session", "ServedSession.step", "runtime.step", "self"),
    ("repro.serve.manager", "SessionManager.submit", "serve.submit", 1),
    ("repro.persist.wal", "Journal.append", "persist.append", None),
    ("repro.persist.wal", "Journal.wait_durable", "persist.wait_durable", None),
    ("repro.persist.recovery", "scan_journal", "persist.scan", None),
    ("repro.persist.recovery", "recover_shard", "persist.recover_shard", None),
    ("repro.persist.recovery", "rebuild_engine", "persist.rebuild", None),
    ("repro.persist.snapshot", "SnapshotStore.write", "persist.snapshot_write", 1),
    ("repro.gateway.protocol", "encode_frame", "gateway.encode", None),
    ("repro.gateway.protocol", "FrameDecoder.feed", "gateway.decode", None),
    ("repro.gateway.client", "GatewayClient.submit", "gateway.admit", 1),
    ("repro.replicate.source", "ReplicationSource.wait_quorum", "replicate.wait_quorum", None),
    ("repro.replicate.replica", "StandbyReplica.query", "replicate.query", 1),
    ("repro.cluster.gateway", "ClusterGateway.submit", "cluster.submit", 1),
    ("repro.cluster.gateway", "ClusterGateway.query", "cluster.query", 1),
]


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording -----------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, session: Any, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span nested under this thread's open span."""
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, name, t0, t1, parent, session))

    def interval(self, name: str, t0: float, t1: float, session: Any = None) -> None:
        """Record a span measured elsewhere (queue wait, residency)."""
        self.spans.append((next(self._ids), name, t0, t1, None, session))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counters[name] += n

    # -- reporting -----------------------------------------------------
    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: count, total seconds and self seconds."""
        child_time: Dict[int, float] = defaultdict(float)
        for _sid, _name, t0, t1, parent, _sess in self.spans:
            if parent is not None:
                child_time[parent] += t1 - t0
        out: Dict[str, Dict[str, float]] = {}
        for sid, name, t0, t1, _parent, _sess in self.spans:
            row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += (t1 - t0) - child_time.get(sid, 0.0)
        return out

    def report(self) -> Dict[str, Any]:
        return {"spans": self.summary(), "counters": dict(self.counters)}

    def dump(self, path: Path) -> None:
        """Write every span plus the summary as one JSON document."""
        doc = {
            "fields": ["id", "name", "start", "end", "parent", "session"],
            "spans": [list(s) for s in self.spans],
            "summary": self.summary(),
            "counters": dict(self.counters),
        }
        Path(path).write_text(json.dumps(doc))


def _session_of(where: Any, args: tuple) -> Any:
    if where == "self":
        return getattr(args[0], "player_id", None)
    if isinstance(where, int) and len(args) > where:
        return args[where]
    return None


def _wrap(tracer: Tracer, fn: Callable, name: str, where: Any) -> Callable:
    if inspect.iscoroutinefunction(fn):
        @functools.wraps(fn)
        async def traced_async(*args, **kwargs):
            t0 = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                tracer.interval(name, t0, perf_counter(), _session_of(where, args))
        return traced_async

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(name, _session_of(where, args), fn, *args, **kwargs)
    return traced


def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    for mod_name, module in list(sys.modules.items()):
        if not mod_name.startswith("repro") or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every target, plus the counters and the per-session spans."""
    for mod_name in {t[0] for t in TARGETS} | {"repro.serve.manager"}:
        importlib.import_module(mod_name)
    for mod_name, path, name, where in TARGETS:
        module = sys.modules[mod_name]
        if "." in path:
            cls_name, meth = path.split(".")
            cls = getattr(module, cls_name)
            setattr(cls, meth, _wrap(tracer, getattr(cls, meth), name, where))
        else:
            original = getattr(module, path)
            _replace_everywhere(original, _wrap(tracer, original, name, where))
    _install_counters(tracer)
    _install_session_spans(tracer)


def _install_counters(tracer: Tracer) -> None:
    from repro.gateway import protocol
    from repro.persist import wal
    from repro.replicate import replica

    real_fsync = os.fsync

    def fsync(fd):
        tracer.count("persist.fsyncs")
        return real_fsync(fd)

    os.fsync = fsync

    traced_append = wal.Journal.append
    frame_bytes = wal.encode_frame

    def append(self, record):
        lsn = traced_append(self, record)
        tracer.count("persist.bytes_appended", len(frame_bytes({**record, "n": lsn})))
        return lsn

    wal.Journal.append = append

    encode = protocol.encode_frame

    def encode_counted(*args, **kwargs):
        frame = encode(*args, **kwargs)
        tracer.count("gateway.wire_bytes", len(frame))
        return frame

    _replace_everywhere(encode, encode_counted)

    replay_op = replica.apply_scripted_op

    def standby_apply(*args, **kwargs):
        tracer.count("replicate.standby_replays")
        return replay_op(*args, **kwargs)

    replica.apply_scripted_op = standby_apply


def _install_session_spans(tracer: Tracer) -> None:
    """Queue wait (submit to factory call) and residency (factory call
    to ``on_done``) for every session submitted to a manager."""
    from repro.serve.manager import SessionManager

    submit = SessionManager.submit

    def submit_timed(self, player_id, factory):
        t_submit = perf_counter()

        def timed_factory(pid):
            t_call = perf_counter()
            tracer.interval("serve.queue_wait", t_submit, t_call, pid)
            session = factory(pid)
            done = session.on_done

            def on_done(s):
                tracer.interval("serve.residency", t_call, perf_counter(), pid)
                if done is not None:
                    done(s)

            session.on_done = on_done
            return session

        return submit(self, player_id, timed_factory)

    SessionManager.submit = submit_timed


def sample_lag(tracer: Tracer, standbys: Any, shard: int) -> None:
    """Record each live standby's lag on ``shard`` at one read."""
    for replica in standbys:
        if replica.alive:
            tracer.count("replicate.lag_samples")
            tracer.count("replicate.lag_records", replica.lag(shard))
