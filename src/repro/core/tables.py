"""Bounded look-up tables with occupancy tracking (§4.3).

CORD's processor- and directory-side state lives in small statically-sized
SRAM look-up tables.  These classes enforce the provisioned entry counts
(issuing logic stalls rather than overflowing them) and record peak occupancy
for the storage-overhead experiments (Fig. 11, Fig. 12).
"""

from __future__ import annotations

from typing import Dict, Generic, Iterator, Optional, Tuple, TypeVar

__all__ = ["TableFullError", "BoundedTable", "PartitionedTable"]

K = TypeVar("K")
V = TypeVar("V")


class TableFullError(RuntimeError):
    """Raised on insertion into a full table (callers must check first)."""


class BoundedTable(Generic[K, V]):
    """A capacity-limited associative table with peak-occupancy tracking."""

    def __init__(self, name: str, capacity: int, entry_bytes: int = 4) -> None:
        if capacity < 1:
            raise ValueError("table capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.entry_bytes = entry_bytes
        self._entries: Dict[K, V] = {}
        self.peak_occupancy = 0
        self.insertions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[Tuple[K, V]]:
        return iter(self._entries.items())

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    def has_room(self, extra: int = 1) -> bool:
        return len(self._entries) + extra <= self.capacity

    def get(self, key: K, default: Optional[V] = None) -> Optional[V]:
        return self._entries.get(key, default)

    def put(self, key: K, value: V) -> None:
        entries = self._entries
        if key in entries:
            entries[key] = value    # an update never changes occupancy
            return
        if len(entries) >= self.capacity:
            raise TableFullError(
                f"table {self.name!r} full ({self.capacity} entries)"
            )
        self.insertions += 1
        entries[key] = value
        if len(entries) > self.peak_occupancy:
            self.peak_occupancy = len(entries)

    def remove(self, key: K) -> Optional[V]:
        return self._entries.pop(key, None)

    def keys(self):
        return self._entries.keys()

    def clone(self) -> "BoundedTable[K, V]":
        """An independent copy (entries, peak/insertion accounting).

        Used by the model checker's incremental state cloning: entry keys
        and values are assumed immutable (ints, tuples of ints), so only
        the entry mapping itself is copied.
        """
        new = BoundedTable(self.name, self.capacity, self.entry_bytes)
        new._entries = dict(self._entries)
        new.peak_occupancy = self.peak_occupancy
        new.insertions = self.insertions
        return new

    @property
    def peak_bytes(self) -> int:
        """Peak occupied storage, the quantity Fig. 11 reports."""
        return self.peak_occupancy * self.entry_bytes

    @property
    def provisioned_bytes(self) -> int:
        """Statically provisioned storage, the quantity Table 3 reports."""
        return self.capacity * self.entry_bytes


class PartitionedTable(Generic[K, V]):
    """Directory-side table statically partitioned per processor core (§4.3).

    Each processor gets ``entries_per_proc`` slots; overflow in one
    processor's partition never evicts another's (the worst-case isolation
    argument the paper uses to bound storage).
    """

    def __init__(
        self,
        name: str,
        procs: int,
        entries_per_proc: int,
        entry_bytes: int = 4,
    ) -> None:
        self.name = name
        self.entries_per_proc = entries_per_proc
        self._partitions: Dict[int, BoundedTable[K, V]] = {
            proc: BoundedTable(f"{name}[p{proc}]", entries_per_proc, entry_bytes)
            for proc in range(procs)
        }
        self.entry_bytes = entry_bytes

    def partition(self, proc: int) -> BoundedTable[K, V]:
        if proc not in self._partitions:
            raise KeyError(f"unknown processor {proc} in table {self.name!r}")
        return self._partitions[proc]

    def has_room(self, proc: int, extra: int = 1) -> bool:
        return self.partition(proc).has_room(extra)

    def put(self, proc: int, key: K, value: V) -> None:
        self.partition(proc).put(key, value)

    def get(self, proc: int, key: K, default: Optional[V] = None) -> Optional[V]:
        return self.partition(proc).get(key, default)

    def remove(self, proc: int, key: K) -> Optional[V]:
        return self.partition(proc).remove(key)

    def checker_key(self) -> Tuple:
        """Each partition's sorted entries, in processor order."""
        return tuple([tuple(sorted(table))
                      for table in self._partitions.values()])

    def clone(self) -> "PartitionedTable[K, V]":
        """An independent copy with every partition cloned."""
        new = PartitionedTable.__new__(PartitionedTable)
        new.name = self.name
        new.entries_per_proc = self.entries_per_proc
        new.entry_bytes = self.entry_bytes
        new._partitions = {
            proc: table.clone() for proc, table in self._partitions.items()
        }
        return new

    @property
    def peak_bytes(self) -> int:
        return sum(t.peak_bytes for t in self._partitions.values())

    @property
    def peak_occupancy(self) -> int:
        return sum(t.peak_occupancy for t in self._partitions.values())

    @property
    def provisioned_bytes(self) -> int:
        return sum(t.provisioned_bytes for t in self._partitions.values())
