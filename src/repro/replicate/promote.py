"""Failover: fence the old epoch, truncate the tail, adopt the log.

Promotion turns a warm standby's replicated log into a primary WAL the
ordinary recovery path can serve from.  The steps are deliberately
boring — each one is a thing the persist layer already knows how to do:

1. **Stop replicating.**  The standby's shipping connections close and
   its logs flush; nothing moves underneath the promotion.
2. **Truncate the un-committed tail.**  Records received but never
   covered by a COMMIT watermark are cut off byte-exactly — they were
   not durable on the primary's terms, so the new primary must not
   invent them.
3. **Fence the epoch.**  The shard's epoch is bumped in its ``EPOCH``
   sidecar and an epoch-fence record is appended (durably) to the log
   itself, so both the filesystem and the log agree history changed
   hands.  A deposed primary that comes back and handshakes sees the
   higher epoch and is refused (``fenced``).
4. **Hand over to recovery.**  The promoted directory is now a normal
   persistence root: ``SessionManager.recover()`` /
   ``GatewayServer.recover()`` rebuild every committed session
   bit-identically and clients reconnect-resume exactly as they do
   after a crash of the original primary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from time import monotonic, perf_counter, sleep
from typing import Any, Dict, List, Optional, Union

from ..obs import logging as _obslog
from ..obs import metrics as _obs
from ..persist import (
    Journal,
    PersistenceConfig,
    fence_record,
    recover_shard,
    scan_journal,
)

__all__ = [
    "PromotionReport",
    "Promoter",
    "promote_directory",
    "read_epoch",
    "write_epoch",
]

_M_PROMOTIONS = _obs.counter(
    "repro_repl_promotions_total",
    "Standby shards promoted to primary",
)

_LOG = _obslog.get_logger("replicate")

_EPOCH_FILE = "EPOCH"


def read_epoch(shard_dir: Union[str, Path]) -> int:
    """The shard's current epoch (1 when no ``EPOCH`` sidecar exists)."""
    path = Path(shard_dir) / _EPOCH_FILE
    try:
        return max(1, int(path.read_text().strip()))
    except (OSError, ValueError):
        return 1


def write_epoch(shard_dir: Union[str, Path], epoch: int) -> None:
    """Durably record the shard's epoch in its ``EPOCH`` sidecar."""
    shard_dir = Path(shard_dir)
    shard_dir.mkdir(parents=True, exist_ok=True)
    (shard_dir / _EPOCH_FILE).write_text(f"{int(epoch)}\n")


@dataclass(slots=True)
class PromotionReport:
    """What one promotion did, per shard (JSON-able)."""

    root: str
    shards: List[Dict[str, Any]] = field(default_factory=list)
    #: player id -> SHA-256 state digest of every *live* session the
    #: promoted log rebuilds (filled when a game is given to audit)
    digests: Dict[str, str] = field(default_factory=dict)
    duration_s: float = 0.0

    @property
    def epochs(self) -> Dict[int, int]:
        return {row["shard"]: row["epoch"] for row in self.shards}


class Promoter:
    """Decides on, and executes, the standby's takeover."""

    def __init__(
        self,
        replica: Any,
        heartbeat_timeout_s: float = 2.0,
    ) -> None:
        self.replica = replica
        self.heartbeat_timeout_s = heartbeat_timeout_s

    # -- detection -----------------------------------------------------
    def should_promote(self) -> bool:
        """True once every shard's heartbeat has gone quiet too long.

        ``heartbeat_age()`` is the seconds since the *freshest* shard
        heard from the primary; a shard that never connected reports
        infinity, so a standby that never reached its primary is also
        (correctly) promotable.
        """
        return self.replica.heartbeat_age() > self.heartbeat_timeout_s

    def wait_for_failure(self, timeout_s: Optional[float] = None) -> bool:
        """Block until :meth:`should_promote` (or the timeout) arrives."""
        deadline = None if timeout_s is None else monotonic() + timeout_s
        while not self.should_promote():
            if deadline is not None and monotonic() >= deadline:
                return False
            sleep(min(0.05, self.heartbeat_timeout_s / 4))
        return True

    # -- the takeover --------------------------------------------------
    def promote(self, game: Any = None) -> PromotionReport:
        """Fence, truncate, adopt; returns the per-shard report.

        With ``game`` given, every shard is additionally put through a
        read-only :func:`recover_shard` pass and the rebuilt live
        sessions' digests land in the report — the bit-identity handle
        the failover audit compares against an independent replay.
        """
        t0 = perf_counter()
        replica = self.replica
        replica.stop()
        report = PromotionReport(root=str(replica.directory))
        for shard_state in replica.shard_states():
            directory = shard_state.directory
            truncated = shard_state.truncate_uncommitted()
            epoch = max(read_epoch(directory), shard_state.epoch) + 1
            write_epoch(directory, epoch)
            fence_lsn = self._append_fence(directory, epoch)
            shard_state.epoch = epoch
            report.shards.append({
                "shard": shard_state.index,
                "epoch": epoch,
                "fence_lsn": fence_lsn,
                "truncated_bytes": truncated,
                "applied_lsn": shard_state.applied_lsn,
                "commit_lsn": shard_state.commit_lsn,
            })
            _M_PROMOTIONS.inc()
            _LOG.info("repl.promoted", shard=shard_state.index, epoch=epoch,
                      fence_lsn=fence_lsn, truncated_bytes=truncated)
        if game is not None:
            for shard_state in replica.shard_states():
                if not shard_state.directory.is_dir():
                    continue
                recovery = recover_shard(
                    shard_state.directory, game,
                    truncate=False, write_snapshots=False,
                )
                report.digests.update(recovery.digests())
        report.duration_s = perf_counter() - t0
        return report

    @staticmethod
    def _append_fence(directory: Path, epoch: int) -> int:
        """Durably append the epoch fence via a short-lived journal.

        ``sync_each`` mode: the fence is fsynced before this returns,
        and :class:`Journal`'s tip-attach resumes the standby's log
        in place (assigning the fence the next LSN).
        """
        journal = Journal(
            directory,
            PersistenceConfig(directory=directory, sync_each=True),
            label=f"promote-{directory.name}",
        )
        try:
            return journal.append(fence_record(epoch))
        finally:
            journal.close()


def promote_directory(
    root: Union[str, Path], game: Any = None
) -> PromotionReport:
    """Offline promotion: fence every shard journal under ``root``.

    The ``repro repl promote`` path — no live replica, so the commit
    watermark is gone with the process; the torn-tail truncation the
    journal scan already performs is the cut.  Each ``shard-*``
    directory gets its epoch bumped, the ``EPOCH`` sidecar rewritten
    and a fence record appended; with ``game`` given the promoted log
    is recovered read-only and the live sessions' digests reported.
    """
    t0 = perf_counter()
    root = Path(root)
    report = PromotionReport(root=str(root))
    shard_dirs = sorted(
        entry for entry in root.iterdir()
        if entry.is_dir() and entry.name.startswith("shard-")
    ) if root.is_dir() else []
    for index, directory in enumerate(shard_dirs):
        scan = scan_journal(directory, truncate=True)
        epoch = read_epoch(directory) + 1
        write_epoch(directory, epoch)
        fence_lsn = Promoter._append_fence(directory, epoch)
        report.shards.append({
            "shard": index,
            "epoch": epoch,
            "fence_lsn": fence_lsn,
            "truncated_bytes": scan.discarded_bytes,
            "applied_lsn": scan.tip_lsn,
            "commit_lsn": scan.tip_lsn,
        })
        _M_PROMOTIONS.inc()
        _LOG.info("repl.promoted_offline", dir=str(directory), epoch=epoch,
                  fence_lsn=fence_lsn)
        if game is not None:
            recovery = recover_shard(
                directory, game, truncate=False, write_snapshots=False,
            )
            report.digests.update(recovery.digests())
    report.duration_s = perf_counter() - t0
    return report
