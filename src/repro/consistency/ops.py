"""Memory operation model: kinds, ordering annotations, cache policies.

These are the release-consistency annotations of §2.2: ``Relaxed``,
``Release``, ``Acquire`` and ``AcqRel``.  Stores additionally carry a cache
policy — write-through (committed at the home LLC slice, the focus of the
paper) or write-back (allocated in the private hierarchy).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

__all__ = ["Ordering", "Policy", "OpKind", "AtomicOp", "MemOp"]


class Ordering(enum.Enum):
    RELAXED = "rlx"
    RELEASE = "rel"
    ACQUIRE = "acq"
    ACQ_REL = "acq_rel"

    def __init__(self, value: str) -> None:
        # Plain member attributes rather than properties: every issued
        # store and load reads one, and an attribute read is not a call.
        self.is_release = value in ("rel", "acq_rel")
        self.is_acquire = value in ("acq", "acq_rel")


class Policy(enum.Enum):
    WRITE_THROUGH = "wt"
    WRITE_BACK = "wb"


class OpKind(enum.Enum):
    STORE = "store"
    LOAD = "load"
    LOAD_UNTIL = "load_until"   # poll a location until it holds a value
    ATOMIC = "atomic"           # read-modify-write at the home LLC
    FENCE = "fence"
    COMPUTE = "compute"         # local work for ``duration_ns``


class AtomicOp(enum.Enum):
    """Read-modify-write flavours (performed atomically at the home LLC,
    like the write-through atomics of AMBA CHI / Spandex)."""

    EXCHANGE = "xchg"
    FETCH_ADD = "faa"
    COMPARE_SWAP = "cas"

    def apply(self, old: int, operand: int, compare: Optional[int]) -> int:
        """New memory value after the RMW."""
        if self is AtomicOp.EXCHANGE:
            return operand
        if self is AtomicOp.FETCH_ADD:
            return old + operand
        if self is AtomicOp.COMPARE_SWAP:
            return operand if old == compare else old
        raise AssertionError(self)


@dataclass
class MemOp:
    """One operation in a core's program-order stream.

    ``value`` is the value written (stores) or the value polled for
    (``LOAD_UNTIL``).  ``register`` names where a load's result lands, so
    litmus tests can assert final register states.  ``size`` is in bytes and
    may span multiple cache lines (coarse-grained stores, §5.3).
    """

    kind: OpKind
    addr: int = 0
    size: int = 8
    ordering: Ordering = Ordering.RELAXED
    policy: Policy = Policy.WRITE_THROUGH
    value: Optional[int] = None
    register: Optional[str] = None
    duration_ns: float = 0.0
    meta: Dict[str, Any] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def store(
        addr: int,
        value: int = 1,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "MemOp":
        return MemOp(
            OpKind.STORE, addr=addr, size=size, ordering=ordering,
            policy=policy, value=value,
        )

    @staticmethod
    def release_store(
        addr: int, value: int = 1, size: int = 8,
        policy: Policy = Policy.WRITE_THROUGH,
    ) -> "MemOp":
        return MemOp.store(addr, value, size, Ordering.RELEASE, policy)

    @staticmethod
    def load(
        addr: int,
        register: str,
        size: int = 8,
        ordering: Ordering = Ordering.RELAXED,
    ) -> "MemOp":
        return MemOp(
            OpKind.LOAD, addr=addr, size=size, ordering=ordering,
            register=register,
        )

    @staticmethod
    def load_until(
        addr: int,
        value: int,
        register: Optional[str] = None,
        ordering: Ordering = Ordering.ACQUIRE,
    ) -> "MemOp":
        return MemOp(
            OpKind.LOAD_UNTIL, addr=addr, value=value, register=register,
            ordering=ordering,
        )

    @staticmethod
    def atomic(
        kind: "AtomicOp",
        addr: int,
        operand: int,
        register: Optional[str] = None,
        compare: Optional[int] = None,
        ordering: Ordering = Ordering.ACQ_REL,
        size: int = 8,
    ) -> "MemOp":
        """A read-modify-write performed atomically at the home LLC slice.

        The old value lands in ``register``.  ``compare`` is the expected
        value for :attr:`AtomicOp.COMPARE_SWAP`.
        """
        return MemOp(
            OpKind.ATOMIC, addr=addr, size=size, ordering=ordering,
            value=operand, register=register,
            meta={"atomic": kind, "compare": compare},
        )

    @staticmethod
    def fetch_add(addr: int, operand: int = 1,
                  register: Optional[str] = None,
                  ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp.atomic(AtomicOp.FETCH_ADD, addr, operand, register,
                            ordering=ordering)

    @staticmethod
    def exchange(addr: int, operand: int,
                 register: Optional[str] = None,
                 ordering: Ordering = Ordering.ACQUIRE) -> "MemOp":
        return MemOp.atomic(AtomicOp.EXCHANGE, addr, operand, register,
                            ordering=ordering)

    @staticmethod
    def compare_swap(addr: int, compare: int, operand: int,
                     register: Optional[str] = None,
                     ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp.atomic(AtomicOp.COMPARE_SWAP, addr, operand, register,
                            compare=compare)

    @staticmethod
    def fence(ordering: Ordering = Ordering.ACQ_REL) -> "MemOp":
        return MemOp(OpKind.FENCE, ordering=ordering)

    @staticmethod
    def compute(duration_ns: float) -> "MemOp":
        return MemOp(OpKind.COMPUTE, duration_ns=duration_ns)

    @property
    def is_store(self) -> bool:
        return self.kind is OpKind.STORE

    @property
    def is_load(self) -> bool:
        return self.kind in (OpKind.LOAD, OpKind.LOAD_UNTIL)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        if self.kind is OpKind.COMPUTE:
            return f"compute({self.duration_ns}ns)"
        if self.kind is OpKind.FENCE:
            return f"fence.{self.ordering.value}"
        return (
            f"{self.kind.value}.{self.ordering.value} "
            f"[{self.addr:#x}+{self.size}] val={self.value}"
        )
