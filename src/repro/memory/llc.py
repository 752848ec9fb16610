"""Shared LLC slice with its co-located cache directory.

Each slice is the *commit point* for write-through stores whose home it is
(§2.1), and for the write-back protocol it tracks line ownership/sharers the
way a classic MESI directory does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.config import CacheConfig, MemoryConfig
from repro.memory.cache import MesiState, SetAssocCache
from repro.memory.dram import Dram

__all__ = ["DirEntryState", "DirectoryEntry", "LlcSlice"]


class DirEntryState(enum.Enum):
    """Directory-visible state of a line."""

    UNCACHED = "U"     # no private copies; LLC/memory is authoritative
    SHARED = "S"       # one or more read-only private copies
    OWNED = "M"        # exactly one private modified copy


@dataclass
class DirectoryEntry:
    state: DirEntryState = DirEntryState.UNCACHED
    owner: Optional[int] = None          # core id holding M copy
    sharers: Set[int] = field(default_factory=set)


class LlcSlice:
    """One LLC slice: set-associative storage + per-line directory entries."""

    def __init__(
        self,
        cache_config: CacheConfig,
        memory_config: MemoryConfig,
    ) -> None:
        self.storage = SetAssocCache(cache_config)
        self.dram = Dram(memory_config)
        self._directory: Dict[int, DirectoryEntry] = {}
        self.latency_cycles = cache_config.latency_cycles
        self.write_through_commits = 0
        self.bytes_committed = 0

    # ------------------------------------------------------------------
    # Write-through commit point
    # ------------------------------------------------------------------
    def commit_write_through(self, addr: int, size_bytes: int) -> float:
        """Commit a write-through store; returns extra latency beyond the
        slice access (DRAM traffic on miss/eviction)."""
        self.write_through_commits += 1
        self.bytes_committed += size_bytes
        eviction = self.storage.write(addr, MesiState.MODIFIED)
        if eviction is not None and eviction.dirty:
            return self.dram.write(self.storage.line_bytes)
        return 0.0

    def read_line(self, addr: int) -> float:
        """Serve a read; returns extra latency (DRAM fill on miss)."""
        line_addr = self.storage.line_address(addr)
        if self.storage.lookup(line_addr) is not None:
            return 0.0
        extra_ns = self.dram.read(self.storage.line_bytes)
        eviction = self.storage.insert(line_addr, MesiState.EXCLUSIVE)
        if eviction is not None and eviction.dirty:
            extra_ns += self.dram.write(self.storage.line_bytes)
        return extra_ns

    # ------------------------------------------------------------------
    # Directory entries (write-back protocol)
    # ------------------------------------------------------------------
    def directory_entry(self, line_addr: int) -> DirectoryEntry:
        entry = self._directory.get(line_addr)
        if entry is None:
            entry = DirectoryEntry()
            self._directory[line_addr] = entry
        return entry

    def drop_entry(self, line_addr: int) -> None:
        self._directory.pop(line_addr, None)

    def tracked_lines(self) -> int:
        return len(self._directory)
