"""CORD directory-side state machine (Algorithm 2).

One instance per LLC slice/directory.  Tracks, per source processor: the
Relaxed store counters per epoch, the notification counters per epoch, and
the largest committed Release epoch (Fig. 6 left).  Pure state, shared by the
timed actors and the model checker.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.config import CordConfig
from repro.core.messages import (
    NotifyMeta,
    ReleaseMeta,
    RelaxedMeta,
    ReqNotifyMeta,
)
from repro.core.tables import PartitionedTable

__all__ = ["CordDirectoryState"]


class CordDirectoryState:
    """Per-directory CORD state for up to ``procs`` source processors."""

    def __init__(self, directory: int, procs: int, config: CordConfig) -> None:
        self.directory = directory
        self.config = config
        # Relaxed stores committed here, per (proc, epoch).
        self.store_counters: PartitionedTable[int, int] = PartitionedTable(
            f"dir{directory}.store_counters",
            procs,
            config.dir_store_counter_entries_per_proc,
            config.store_counter_entry_bytes,
        )
        # Notifications received here, per (proc, epoch).
        self.notification_counters: PartitionedTable[int, int] = PartitionedTable(
            f"dir{directory}.notification_counters",
            procs,
            config.dir_notification_entries_per_proc,
            config.notification_entry_bytes,
        )
        # Largest committed Release epoch per proc (None = none committed).
        self.largest_committed: Dict[int, Optional[int]] = {
            proc: None for proc in range(procs)
        }
        self.relaxed_committed = 0
        self.releases_committed = 0
        self.notifications_sent = 0

    def clone(self) -> "CordDirectoryState":
        """An independent copy (``config`` is shared, tables are cloned)."""
        new = CordDirectoryState.__new__(CordDirectoryState)
        new.directory = self.directory
        new.config = self.config
        new.store_counters = self.store_counters.clone()
        new.notification_counters = self.notification_counters.clone()
        new.largest_committed = dict(self.largest_committed)
        new.relaxed_committed = self.relaxed_committed
        new.releases_committed = self.releases_committed
        new.notifications_sent = self.notifications_sent
        return new

    def checker_key(self) -> Tuple:
        """The model checker's visited-set form of this state:
        ``(store-counter partitions, notification partitions, sorted
        largest_committed)``, each partition's entries sorted and the
        partitions in processor order.

        Only fields that differ between states of one checker run are
        keyed.  ``config``, ``directory`` (fixed by the directory's
        position) and the tables' names and capacities are the same in
        every state of a run; ``relaxed_committed``,
        ``releases_committed`` and ``notifications_sent`` are statistics.
        """
        return (self.store_counters.checker_key(),
                self.notification_counters.checker_key(),
                tuple(sorted(self.largest_committed.items())))

    # ------------------------------------------------------------------
    # Alg. 2 lines 18-20: Relaxed stores commit immediately.
    # ------------------------------------------------------------------
    def on_relaxed(self, meta: RelaxedMeta) -> None:
        counters = self.store_counters.partition(meta.proc)
        counters.put(meta.epoch, counters.get(meta.epoch, 0) + 1)
        self.relaxed_committed += 1

    # ------------------------------------------------------------------
    # Alg. 2 lines 21-24: Release stores commit when ordered.
    # ------------------------------------------------------------------
    def _epoch_committed(self, proc: int, epoch: Optional[int]) -> bool:
        if epoch is None:
            return True
        largest = self.largest_committed.get(proc)
        return largest is not None and largest >= epoch

    def release_block_reason(self, meta: ReleaseMeta) -> Optional[str]:
        """None if the Release may commit now, else a human-readable reason."""
        have = self.store_counters.get(meta.proc, meta.epoch, 0)
        if have != meta.counter:
            return (
                f"store counter mismatch: have {have}, release embeds "
                f"{meta.counter} (proc {meta.proc}, epoch {meta.epoch})"
            )
        if not self._epoch_committed(meta.proc, meta.last_prev_epoch):
            return (
                f"prior epoch {meta.last_prev_epoch} of proc {meta.proc} "
                f"not committed (largest {self.largest_committed.get(meta.proc)})"
            )
        notifications = self.notification_counters.get(meta.proc, meta.epoch, 0)
        if notifications < meta.noti_cnt:
            return (
                f"waiting notifications: {notifications}/{meta.noti_cnt} "
                f"(proc {meta.proc}, epoch {meta.epoch})"
            )
        return None

    def commit_release(self, meta: ReleaseMeta) -> None:
        """Commit a ready Release and reclaim its table entries (§4.3)."""
        reason = self.release_block_reason(meta)
        if reason is not None:
            raise RuntimeError(f"release not ready: {reason}")
        largest = self.largest_committed.get(meta.proc)
        if largest is None or meta.epoch > largest:
            self.largest_committed[meta.proc] = meta.epoch
        self.store_counters.remove(meta.proc, meta.epoch)
        self.notification_counters.remove(meta.proc, meta.epoch)
        self.releases_committed += 1

    # ------------------------------------------------------------------
    # Alg. 2 lines 25-28: requests for notification.
    # ------------------------------------------------------------------
    def req_notify_block_reason(self, meta: ReqNotifyMeta) -> Optional[str]:
        have = self.store_counters.get(meta.proc, meta.epoch, 0)
        if have != meta.counter:
            return (
                f"store counter mismatch: have {have}, request embeds "
                f"{meta.counter} (proc {meta.proc}, epoch {meta.epoch})"
            )
        if not self._epoch_committed(meta.proc, meta.last_prev_epoch):
            return (
                f"prior epoch {meta.last_prev_epoch} of proc {meta.proc} "
                f"not committed here"
            )
        return None

    def consume_req_notify(self, meta: ReqNotifyMeta) -> NotifyMeta:
        """Produce the notification for a ready request, reclaiming the
        store-counter entry for that epoch."""
        reason = self.req_notify_block_reason(meta)
        if reason is not None:
            raise RuntimeError(f"req-notify not ready: {reason}")
        self.store_counters.remove(meta.proc, meta.epoch)
        self.notifications_sent += 1
        return NotifyMeta(proc=meta.proc, epoch=meta.epoch)

    # ------------------------------------------------------------------
    # Alg. 2 lines 29-30: notifications.
    # ------------------------------------------------------------------
    def on_notify(self, meta: NotifyMeta) -> None:
        count = self.notification_counters.get(meta.proc, meta.epoch, 0)
        self.notification_counters.put(meta.proc, meta.epoch, count + 1)

    # ------------------------------------------------------------------
    # Storage accounting (Fig. 11/12)
    # ------------------------------------------------------------------
    def peak_table_bytes(self) -> Dict[str, int]:
        epoch_bytes = self.config.epoch_entry_bytes
        return {
            "store_counters": self.store_counters.peak_bytes,
            "notification_counters": self.notification_counters.peak_bytes,
            "largest_committed": len(self.largest_committed) * epoch_bytes,
        }
