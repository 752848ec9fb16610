"""Ablation variant: CORD without inter-directory notifications.

``cord-nonotify`` keeps directory ordering *within* each directory (epochs +
store counters, no per-store acknowledgments) but falls back to source
ordering *across* directories: before issuing a Release whose epoch has
pending state at other directories, the processor drains those directories
with acknowledged barrier Releases instead of sending requests for
notification.

This isolates the contribution of §4.2's notification mechanism: at fan-out
1 the variant behaves exactly like CORD, while at higher fan-outs it
re-introduces the processor stalls notifications exist to avoid.  The
ablation benchmark (``benchmarks/test_ablation_notifications.py``) measures
that gap.

The variant runs on CORD's table actors and overrides only the Release
issue path; the model checker does not model it.
"""

from __future__ import annotations

from typing import Generator

from repro.consistency.ops import MemOp
from repro.protocols.table import table_protocol_classes

__all__ = ["CordNoNotifyCorePort", "CordNoNotifyDirectory"]

_CordCorePort, _CordDirectory = table_protocol_classes("cord")


class CordNoNotifyCorePort(_CordCorePort):
    """CORD core that source-orders cross-directory releases."""

    def _release_to(self, op: MemOp, program_index: int, dir_index: int,
                    barrier: bool = False) -> Generator:
        if not barrier:
            pending = self.state.pending_directories(exclude=dir_index)
            if pending:
                # Source ordering across directories: drain every other
                # pending directory (acknowledged barrier releases) before
                # this Release may issue.
                started = self.sim.now
                issued = []
                for other in pending:
                    epoch = self.state.epoch.value
                    empty = MemOp.release_store(addr=0, value=None, size=0)
                    yield from super()._release_to(
                        empty, program_index, other, barrier=True
                    )
                    issued.append((other, epoch))
                while any(key in self.state.unacked for key in issued):
                    yield self.ack_signal
                self.stall("cross_dir_drain", self.sim.now - started)
        yield from super()._release_to(op, program_index, dir_index,
                                       barrier=barrier)


class CordNoNotifyDirectory(_CordDirectory):
    """Directory side is unchanged — notifications simply never trigger."""
