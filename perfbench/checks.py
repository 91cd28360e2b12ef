"""Output checks, computed apart from the serving stack.

Every END, read and recovery report the benchmark receives is compared
with what this module computes on its own: a serial replay of the same
script on a fresh engine (core engine and solver semantics only, no
serve/persist/gateway code), a SHA-256 state digest written out here,
and a WAL segment reader written from the frame layout
(``u32 len | u32 crc32 | JSON``) rather than imported from
``repro.persist``.

Each ``check_*`` function returns a list of failure reasons, one per
failed operation; an empty list means the operation was correct.
"""

from __future__ import annotations

import hashlib
import json
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.solver import Move, _apply as apply_move
from repro.video.player import SimulatedClock

_FRAME = struct.Struct("<II")


def digest_of(state: Mapping) -> str:
    """Canonical SHA-256 of a state dict (sorted keys, compact JSON)."""
    payload = json.dumps(state, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Reference:
    """What a session must end with: the serial replay's result."""

    digest: str
    outcome: Optional[str]
    steps: int


def replay(game, ops: Sequence, dt: float, upto: Optional[int] = None):
    """Fresh engine with ``ops[:upto]`` applied; returns (engine, steps).

    Ops the UI would refuse change nothing but still cost their step,
    and replay stops once the game is over, as a served session does.
    """
    engine = game.new_engine(clock=SimulatedClock(0.0), with_video=False)
    engine.start()
    steps = 0
    for op in ops[:upto]:
        try:
            if isinstance(op, Move):
                apply_move(engine, op)
            else:
                engine.handle_input(op)
            engine.tick(dt)
        except Exception:
            pass
        steps += 1
        if not engine.running:
            break
    return engine, steps


def reference_end(game, ops: Sequence, dt: float) -> Reference:
    engine, steps = replay(game, ops, dt)
    return Reference(digest_of(engine.state.to_dict()), engine.state.outcome, steps)


def references(game, scripts) -> Dict[Tuple, Reference]:
    """Reference END per distinct (ops, dt); scripts repeat, so cache."""
    table: Dict[Tuple, Reference] = {}
    for script in scripts:
        key = script_key(script.ops, script.dt)
        if key not in table:
            table[key] = reference_end(game, script.ops, script.dt)
    return table


def script_key(ops: Sequence, dt: float) -> Tuple:
    return (tuple(repr(op) for op in ops), dt)


# ----------------------------------------------------------------------
# Per-operation checks
# ----------------------------------------------------------------------

def check_end(end: Optional[Mapping], ref: Reference, n_ops: int) -> List[str]:
    """An END must match the replay, be ``won`` and take every op."""
    if end is None:
        return ["no END"]
    if end.get("failed"):
        return ["session failed"]
    if end.get("digest") != ref.digest:
        return ["END digest differs from serial replay"]
    if end.get("outcome") != "won" or ref.outcome != "won":
        return [f"outcome {end.get('outcome')!r}, expected 'won'"]
    if end.get("steps") != n_ops or ref.steps != n_ops:
        return [f"{end.get('steps')} steps, script has {n_ops}"]
    return []


def check_read(view: Optional[Mapping], end_digest: str) -> List[str]:
    """A read of a session ended a window earlier returns its END digest."""
    if view is None:
        return ["read failed"]
    if view.get("status") != "done" or view.get("digest") != end_digest:
        return ["stale standby read"]
    return []


def check_standby_digests(
    standby: Mapping[str, str], ends: Mapping[str, str]
) -> List[str]:
    """After catch-up every standby digest equals the primary's END."""
    return [
        f"standby digest of {pid} differs from primary"
        for pid, digest in sorted(standby.items())
        if pid in ends and digest != ends[pid]
    ]


def check_recovered(
    live: int, torn: int, expected_live: int, expected_torn: int
) -> List[str]:
    out = []
    if live != expected_live:
        out.append(f"recovered {live} live sessions, image holds {expected_live}")
    if torn != expected_torn:
        out.append(f"recovered {torn} torn frames, image holds {expected_torn}")
    return out


# ----------------------------------------------------------------------
# WAL reading, independent of repro.persist
# ----------------------------------------------------------------------

def read_wal(shard_dir: Path) -> Tuple[List[dict], int]:
    """All records of one shard journal and its count of torn frames."""
    records: List[dict] = []
    torn = 0
    for path in sorted(Path(shard_dir).glob("wal-*.log")):
        data = path.read_bytes()
        off = 0
        while off < len(data):
            if off + _FRAME.size > len(data):
                torn += 1
                break
            length, crc = _FRAME.unpack_from(data, off)
            body = data[off + _FRAME.size: off + _FRAME.size + length]
            if length == 0 or len(body) < length or zlib.crc32(body) != crc:
                torn += 1
                break
            records.append(json.loads(body))
            off += _FRAME.size + length
    return records, torn


def journal_summary(shard_dir: Path) -> Tuple[List[str], int]:
    """Session ids with an end record in one journal, and its torn frames."""
    records, torn = read_wal(shard_dir)
    return sorted({r["sid"] for r in records if r.get("t") == "end"}), torn


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Scoring one round
# ----------------------------------------------------------------------

def score_round(
    rnd: Mapping,
    expected: Sequence[Tuple[str, Sequence, float]],
    refs: Mapping[Tuple, Reference],
    expected_live: int = 0,
    expected_torn: int = 0,
) -> Tuple[int, int, List[str]]:
    """Count one round's operations and the ones that failed.

    The operations are: each expected session (``(pid, ops, dt)``), each
    standby read, each drained journal, each standby's catch-up
    comparison and, on ``recover``, the recovery itself.  An operation
    with any failure reason counts once.  Returns ``(attempted, failed,
    reasons)``.
    """
    ops: List[List[str]] = []
    ends = rnd["ends"]
    journals = rnd.get("journals")
    end_records = set()
    for sids, _torn in journals or ():
        end_records.update(sids)
    for pid, script_ops, dt in expected:
        reasons = check_end(ends.get(pid), refs[script_key(script_ops, dt)], len(script_ops))
        if journals is not None and pid in ends and pid not in end_records:
            reasons.append(f"no end record for {pid}")
        ops.append([f"{pid}: {r}" for r in reasons])
    for _sids, torn in journals or ():
        ops.append([f"{torn} torn frame(s) in a drained journal"] if torn else [])
    for pid, _secs, status, digest in rnd.get("reads", ()):
        end = ends.get(pid) or {}
        ops.append(check_read({"status": status, "digest": digest}, end.get("digest")))
    if "standby_digests" in rnd:
        primary = {pid: end.get("digest") for pid, end in ends.items()}
        for nid, digests in sorted(rnd["standby_digests"].items()):
            reasons = check_standby_digests(digests, primary)
            if not rnd.get("caught_up", False):
                reasons.append(f"{nid} did not catch up")
            ops.append(reasons)
    if "live" in rnd:
        ops.append(check_recovered(rnd["live"], rnd["torn"], expected_live, expected_torn))
    failed = [r for r in ops if r]
    return len(ops), len(failed), [r for reasons in failed for r in reasons]
