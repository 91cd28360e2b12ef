"""The crash image the ``recover`` workload restarts from.

Written only through ``repro.persist``'s public functions, as a shard
would have left it at the moment of a crash:

* ``LIVE`` sessions stopped at fixed distances from their end (session
  ``k`` has ``1 + k % 6`` ops left, so the work left after the crash
  does not depend on the seed; every script has at least 7 ops);
* every ``SNAPSHOT_EVERY``-th live session also has a snapshot halfway
  to its cursor, with the later inputs still in the log;
* ``ENDED`` sessions that ran to their end record;
* one torn final frame: half of one more input record on shard 0.

Sessions land on the shard the serving layer would give them.  The
counts do not depend on the seed; the scripts, and so the records, do.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path

from repro.persist import (
    Journal,
    PersistenceConfig,
    SnapshotStore,
    end_record,
    input_record,
    snapshot_dir_for,
    start_record,
)
from repro.serve import shard_for

import checks

LIVE = 1000
ENDED = 250
SNAPSHOT_EVERY = 4
TORN_FRAMES = 1


def cursor_for(k: int, n_ops: int) -> int:
    return n_ops - (1 + k % 6)


def write_image(root: Path, game, scripts, n_shards: int) -> None:
    """Write the crash image for ``scripts[:LIVE + ENDED]`` under ``root``."""
    config = PersistenceConfig(directory=root)
    journals = [Journal(config.shard_dir(i), config, label=str(i)) for i in range(n_shards)]
    plan = []  # (pid, script, shard, cursor, snapshot cursor or None, ended)
    for k, script in enumerate(scripts[: LIVE + ENDED]):
        pid = f"crash-{k}"
        ended = k >= LIVE
        n = len(script.ops)
        cursor = n if ended else cursor_for(k, n)
        snap = cursor // 2 if not ended and k % SNAPSHOT_EVERY == 0 and cursor >= 2 else None
        plan.append((pid, script, shard_for(pid, n_shards), cursor, snap, ended))
    input_lsns = {}
    for pid, script, shard, _c, _s, _e in plan:
        journals[shard].append(start_record(pid, script.dt, script.ops))
    # inputs interleave across sessions, one op per session per pass
    for step in range(max(p[3] for p in plan)):
        for pid, script, shard, cursor, _s, _e in plan:
            if step < cursor:
                lsn = journals[shard].append(input_record(pid, script.ops[step]))
                input_lsns[(pid, step + 1)] = lsn
    for pid, _script, shard, _c, _s, ended in plan:
        if ended:
            journals[shard].append(end_record(pid, "won"))
    for journal in journals:
        journal.close()
    for pid, script, shard, _c, snap, _e in plan:
        if snap is None:
            continue
        engine, _ = checks.replay(game, script.ops, script.dt, upto=snap)
        SnapshotStore(snapshot_dir_for(config.shard_dir(shard))).write(
            pid, script.dt, script.ops, snap, engine.state.to_dict(),
            lsn=input_lsns[(pid, snap)],
        )
    _tear(config.shard_dir(0))


def _tear(shard_dir: Path) -> None:
    """Append the first half of one more input frame to shard 0's tail."""
    body = json.dumps(
        {"t": "input", "sid": "crash-0", "op": {"k": "key", "key": "left"}, "n": 1 << 30},
        sort_keys=True, separators=(",", ":"),
    ).encode("utf-8")
    frame = struct.pack("<II", len(body), zlib.crc32(body)) + body
    tail = sorted(shard_dir.glob("wal-*.log"))[-1]
    with open(tail, "ab") as fh:
        fh.write(frame[: len(frame) // 2])
