"""Explicit-state model checker for the coherence protocols (§4.5).

This is the reproduction's Murphi substitute: an *untimed* operational model
of each protocol (CORD, SO, MP, SEQ-k, Tardis — individually or mixed per
thread) explored exhaustively by DFS over all interleavings of core steps
and message deliveries.  Like the paper's Murphi setup, state space is kept
tractable by bounding addresses, values and nodes to litmus-test scale.

The protocol logic is not re-implemented: successors come from the same
:mod:`repro.protocols.spec` transition tables, and the same
:class:`~repro.core.processor.CordProcessorState` and
:class:`~repro.core.directory.CordDirectoryState` state machines, that
drive the timed simulator, so the artifact that is model-checked is the
artifact that is measured.

Network semantics are adversarial for the coherence protocols — messages
deliver in any order, with one exception: stores from the same core to the
same *address* stay ordered (real sources never have two conflicting writes
in flight: MSHRs merge or serialize them; this is per-location coherence,
orthogonal to the consistency ordering CORD provides).  MP's posted writes
are additionally FIFO per source-destination pair — which is precisely the
modelling difference that lets the checker exhibit MP's ISA2
release-consistency violation (§3.2) while proving CORD safe.

FIFO classes
------------
Each in-flight :class:`_Msg` carries an optional ``fifo_class`` tag: two
messages in the same class deliver in send (``seq``) order, everything else
is adversarial.  Three schemes are in play:

* ``("addr", core, addr)`` — per-location coherence for SO-, SEQ- and
  CORD-issued stores and atomics: one core's conflicting writes to one
  address never race each other.
* ``(core, dst_dir)`` — MP's posted-write channel: FIFO per
  source-destination pair (the point-to-point ordering of §3.2).
* ``None`` — unordered: acks, notifications, atomic responses and
  address-less barrier Releases.

The ``"addr"`` head tag keeps the per-address 3-tuples disjoint from MP's
2-tuple pairs, so mixed-protocol tests cannot alias the two schemes.

Performance
-----------
A successor costs roughly what its transition changed.

* Cloning is copy-on-write: :meth:`_State.clone` shares every component
  (and the lists holding them) with the parent, and a transition clones
  a core, directory or value map only when it mutates it, through the
  ``mutable_*`` accessors.
* Visited-set keys hold only what can differ between two states of one
  run: each CORD component contributes its compact ``checker_key()``
  (epoch and table entries — no config, table names or statistics).
  Keys are memoized on the same clone-on-write invariant.  A state keeps
  one key fragment per core, directory and value map, and bitmasks of
  the fragments a ``mutable_*`` accessor has touched since they were
  built; a clone inherits both, so an untouched component contributes
  its parent's fragment as is.  This stays exact because every mutation
  path goes through an accessor, which is where the fragment is marked
  stale.  A message's key entry and sort position are fixed when it is
  sent (messages are immutable), so keying costs the changed fragments
  plus one small sort of the in-flight messages.
* Successors come from the protocol tables lowered by
  :func:`~repro.protocols.compile.compile_spec`: per-program-op steps
  resolve the issue row and home ahead of exploration, and the hot
  issue and delivery rows run as inline opcode cases.  ``*_CALL`` rows
  run their closures, counted per row in :attr:`ModelChecker.closure_calls`
  and the ``closure_calls`` stat; ``REPRO_INTERPRETED_TABLES=1`` sends
  every row through its closure, the oracle for the opcode cases.
* A sound partial-order reduction (see :meth:`ModelChecker._reduce`)
  collapses the interleavings of commuting deliveries (acks,
  notifications, atomic responses).

For every reachable final state the checker records the register outcome and
one representative execution history, validates the history with the
axiomatic RC checker, and reports deadlocks (unfinished programs with no
enabled transition) along with a witness of the first deadlocked state.
"""

from __future__ import annotations

import enum
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.config import CordConfig, SystemConfig
from repro.consistency.checker import Violation, check_rc
from repro.consistency.history import EventKind, ExecutionHistory
from repro.consistency.ops import MemOp, OpKind, Ordering
from repro.core.directory import CordDirectoryState
from repro.core.processor import CordProcessorState
from repro.litmus.dsl import LitmusTest
from repro.memory.address import AddressMap
from repro.protocols.compile import (
    A_CALL,
    A_CORD_RELAXED,
    A_CORD_RELEASE,
    A_MP_POSTED,
    A_SEQ_STORE,
    A_SO_STORE,
    A_TARDIS_STORE,
    D_CALL,
    D_NOTIFY,
    D_POSTED,
    D_REL_ACK,
    D_REQ_NOTIFY,
    D_SEQ_STORE,
    D_SO_ACK,
    D_TARDIS_STORE,
    D_WT_REL,
    D_WT_RLX,
    D_WT_STORE,
    G_CALL,
    G_CORD_BARRIER,
    G_CORD_RELAXED,
    G_CORD_RELEASE,
    G_SEQ_WINDOW,
    G_SO_OUTSTANDING,
    G_TRUE,
    CompiledIssue,
    CompiledProtocol,
    compile_spec,
    interpreted_tables_enabled,
)
from repro.protocols.factory import validate_checkable_protocol
from repro.protocols.spec import (
    DeliveryContext,
    DeliveryRule,
    ProtocolSpec,
    ample_kinds,
    cord_barrier_batch_reason,
    fifo_class_for,
    forwarding_kinds,
    get_spec,
)
from repro.sim.stats import StatRegistry

__all__ = [
    "ModelChecker",
    "CheckResult",
    "FinalState",
    "DeadlockWitness",
    "ModelCheckError",
]


class ModelCheckError(RuntimeError):
    """Raised when exploration exceeds its configured bounds.

    The work completed before the budget ran out is not discarded:
    ``partial_result`` holds a :class:`CheckResult` with
    ``complete=False`` covering everything explored so far, and
    ``states_explored``/``finals``/``deadlocks`` mirror its fields for
    convenience.  (Construct the checker with ``partial=True`` to receive
    that partial result as a return value instead of an exception.)
    """

    def __init__(self, message: str,
                 partial_result: Optional["CheckResult"] = None) -> None:
        super().__init__(message)
        self.partial_result = partial_result

    @property
    def states_explored(self) -> int:
        return self.partial_result.states_explored if self.partial_result else 0

    @property
    def finals(self) -> List["FinalState"]:
        return self.partial_result.finals if self.partial_result else []

    @property
    def deadlocks(self) -> int:
        return self.partial_result.deadlocks if self.partial_result else 0


# ---------------------------------------------------------------------------
# State
# ---------------------------------------------------------------------------
class _Msg:
    """One in-flight message.  Immutable once sent, so its visited-set
    entry and sort position are computed once, here, and shared by every
    state the message is in flight in."""

    __slots__ = ("seq", "kind", "dst_dir", "dst_core", "fields",
                 "fifo_class", "order", "entry")

    seq: int
    kind: str
    dst_dir: Optional[int]
    dst_core: Optional[int]
    fields: Dict[str, Any]
    #: FIFO-ordering class (see the module docstring): ``("addr", core,
    #: addr)`` for per-location coherence, ``(core, dst_dir)`` for MP's
    #: posted-write pairs, ``None`` for unordered messages.
    fifo_class: Optional[Tuple[Any, ...]]
    #: Position in a state key's message part: kind, destination, then
    #: send order.
    order: Tuple[str, str, str, int]
    #: The key's entry for this message, minus its FIFO rank.
    entry: Tuple[Any, ...]

    def __init__(self, seq: int, kind: str, dst_dir: Optional[int],
                 dst_core: Optional[int], fields: Dict[str, Any],
                 fifo_class: Optional[Tuple[Any, ...]] = None) -> None:
        self.seq = seq
        self.kind = kind
        self.dst_dir = dst_dir
        self.dst_core = dst_core
        self.fields = fields
        self.fifo_class = fifo_class
        self.order = (kind, str(dst_dir), str(dst_core), seq)
        self.entry = (kind, dst_dir, dst_core, _freeze(fields), fifo_class)


class _CoreState:
    """One core's program position, registers and protocol counters."""

    __slots__ = ("pc", "regs", "cord", "so_outstanding", "fence_issued",
                 "blocked", "seq_next", "seq_outstanding")

    pc: int
    regs: Dict[str, int]
    cord: Optional[CordProcessorState]
    so_outstanding: int
    fence_issued: bool
    blocked: bool            # awaiting an atomic RMW response
    seq_next: int            # SEQ-k/Tardis: next sequence number to assign
    seq_outstanding: int     # SEQ-k/Tardis: stores not yet committed

    def __init__(self, cord: Optional[CordProcessorState] = None) -> None:
        self.pc = 0
        self.regs = {}
        self.cord = cord
        self.so_outstanding = 0
        self.fence_issued = False
        self.blocked = False
        self.seq_next = 0
        self.seq_outstanding = 0

    def clone(self) -> "_CoreState":
        new = _CoreState.__new__(_CoreState)
        new.pc = self.pc
        new.regs = dict(self.regs)
        new.cord = self.cord.clone() if self.cord is not None else None
        new.so_outstanding = self.so_outstanding
        new.fence_issued = self.fence_issued
        new.blocked = self.blocked
        new.seq_next = self.seq_next
        new.seq_outstanding = self.seq_outstanding
        return new


class _State:
    """One explored interleaving point.

    Cloning is copy-on-write: :meth:`clone` shares the component lists
    and every component with the parent, and a transition that mutates
    core ``i`` / directory ``d`` / value map ``d`` must first take it via
    :meth:`mutable_core` / :meth:`mutable_dir` / :meth:`mutable_values`,
    which clones the component (and, the first time, the list holding
    it) once per state.  Read paths (:meth:`ModelChecker._enabled`, key
    construction) use the plain lists.  ``events`` and ``seq_committed``
    are replaced, never mutated, so clones share them outright; only
    ``network`` is copied eagerly.

    The visited-set key is memoized on the same invariant.
    ``core_keys`` / ``dir_keys`` / ``value_keys`` hold one key fragment
    per component, and the ``dirty_*`` bitmasks mark the fragments whose
    component went through a ``mutable_*`` accessor since the fragment
    was computed.  A clone inherits its parent's fragments and masks, so
    :meth:`ModelChecker._key` rebuilds only what the transition touched;
    ``seq_key`` is rebuilt on each SEQ-k/Tardis commit.
    """

    __slots__ = ("cores", "dirs", "values", "network", "next_seq", "events",
                 "seq_committed", "seq_key", "owned_cores", "owned_dirs",
                 "owned_values", "dirty_cores", "dirty_dirs", "dirty_values",
                 "core_keys", "dir_keys", "value_keys")

    cores: List[_CoreState]
    dirs: List[CordDirectoryState]
    values: List[Dict[int, int]]     # per directory
    network: List[_Msg]              # in send (``seq``) order
    next_seq: int
    #: History log ``(core, pc, kind, ordering, addr, value)``, oldest
    #: first.
    events: Tuple[Tuple, ...]
    #: SEQ-k/Tardis: committed-store count per (directory, core).
    seq_committed: Dict[Tuple[int, int], int]
    seq_key: Tuple[Tuple[Tuple[int, int], int], ...]
    #: Bitmasks of the components this state has cloned (and may mutate).
    owned_cores: int
    owned_dirs: int
    owned_values: int
    #: Bitmasks of the key fragments that are stale.
    dirty_cores: int
    dirty_dirs: int
    dirty_values: int
    core_keys: Tuple[Any, ...]
    dir_keys: Tuple[Any, ...]
    value_keys: Tuple[Any, ...]

    def __init__(self, cores: List[_CoreState],
                 dirs: List[CordDirectoryState],
                 values: List[Dict[int, int]]) -> None:
        self.cores = cores
        self.dirs = dirs
        self.values = values
        self.network = []
        self.next_seq = 0
        self.events = ()
        self.seq_committed = {}
        self.seq_key = ()
        # A fresh state owns everything and has no fragments yet.
        self.owned_cores = self.dirty_cores = (1 << len(cores)) - 1
        self.owned_dirs = self.dirty_dirs = (1 << len(dirs)) - 1
        self.owned_values = self.dirty_values = (1 << len(values)) - 1
        self.core_keys = (None,) * len(cores)
        self.dir_keys = (None,) * len(dirs)
        self.value_keys = (None,) * len(values)

    def clone(self) -> "_State":
        new = _State.__new__(_State)
        new.cores = self.cores
        new.dirs = self.dirs
        new.values = self.values
        new.network = self.network[:]
        new.next_seq = self.next_seq
        new.events = self.events
        new.seq_committed = self.seq_committed
        new.seq_key = self.seq_key
        new.owned_cores = new.owned_dirs = new.owned_values = 0
        new.dirty_cores = self.dirty_cores
        new.dirty_dirs = self.dirty_dirs
        new.dirty_values = self.dirty_values
        new.core_keys = self.core_keys
        new.dir_keys = self.dir_keys
        new.value_keys = self.value_keys
        return new

    def mutable_core(self, index: int) -> _CoreState:
        bit = 1 << index
        owned = self.owned_cores
        if not owned & bit:
            if not owned:
                self.cores = self.cores[:]
            self.cores[index] = self.cores[index].clone()
            self.owned_cores = owned | bit
        self.dirty_cores |= bit
        return self.cores[index]

    def mutable_dir(self, index: int) -> CordDirectoryState:
        bit = 1 << index
        owned = self.owned_dirs
        if not owned & bit:
            if not owned:
                self.dirs = self.dirs[:]
            self.dirs[index] = self.dirs[index].clone()
            self.owned_dirs = owned | bit
        self.dirty_dirs |= bit
        return self.dirs[index]

    def mutable_values(self, index: int) -> Dict[int, int]:
        bit = 1 << index
        owned = self.owned_values
        if not owned & bit:
            if not owned:
                self.values = self.values[:]
            self.values[index] = dict(self.values[index])
            self.owned_values = owned | bit
        self.dirty_values |= bit
        return self.values[index]

    def record(self, event: Tuple) -> None:
        """Append one history event."""
        self.events = self.events + (event,)

    def commit(self, directory: int, fields: Mapping[str, Any]) -> None:
        """Make a store visible at its home and log it."""
        self.mutable_values(directory)[fields["addr"]] = fields["value"]
        self.record((fields["core"], fields["pc"], EventKind.STORE,
                     fields["ordering"], fields["addr"], fields["value"]))

    def seq_commit(self, directory: int, proc: int) -> None:
        """Count one SEQ-k/Tardis commit of ``proc``'s stream."""
        committed = dict(self.seq_committed)
        key = (directory, proc)
        committed[key] = committed.get(key, 0) + 1
        self.seq_committed = committed
        self.seq_key = tuple(sorted(committed.items()))
        self.mutable_core(proc).seq_outstanding -= 1

    def seq_committed_by(self, proc: int) -> int:
        """How many of ``proc``'s sequenced stores have committed,
        machine-wide."""
        return sum(count for (_d, core), count in self.seq_committed.items()
                   if core == proc)


#: Per type: (slot names across the MRO, whether the type declares any).
_SLOT_LAYOUT: Dict[type, Tuple[Tuple[str, ...], bool]] = {}


def _slot_layout(klass: type) -> Tuple[Tuple[str, ...], bool]:
    names: List[str] = []
    declared = False
    for base in klass.__mro__:
        slots = base.__dict__.get("__slots__", ())
        if isinstance(slots, str):
            slots = (slots,)
        for name in slots:
            declared = True
            if name not in ("__dict__", "__weakref__"):
                names.append(name)
    return tuple(names), declared


def _attr_state(obj: Any) -> Optional[Dict[str, Any]]:
    """``name -> value`` attribute map, or ``None`` for non-object values.

    Covers plain ``__dict__`` instances *and* ``__slots__``-only classes
    (slots collected across the MRO, once per type), so adopting slots in
    a message meta cannot silently shrink its frozen form to an empty
    attribute tuple.
    """
    layout = _SLOT_LAYOUT.get(type(obj))
    if layout is None:
        layout = _SLOT_LAYOUT[type(obj)] = _slot_layout(type(obj))
    names, found = layout
    state: Dict[str, Any] = {}
    for name in names:
        try:
            state[name] = getattr(obj, name)
        except AttributeError:
            pass  # slot declared but never assigned
    if hasattr(obj, "__dict__"):
        found = True
        state.update(obj.__dict__)
    return state if found else None


_SCALAR_TYPES = frozenset({int, float, str, bool, type(None)})


def _freeze(obj: Any) -> Any:
    """Canonical hashable form of a message's fields, a meta or an outcome
    (for the visited set and the final-outcome map)."""
    if type(obj) in _SCALAR_TYPES:
        return obj
    if isinstance(obj, enum.Enum):
        return (type(obj).__name__, obj.value)
    if isinstance(obj, dict):
        return tuple(sorted([
            (k if type(k) in _SCALAR_TYPES else _freeze(k),
             v if type(v) in _SCALAR_TYPES else _freeze(v))
            for k, v in obj.items()]))
    if isinstance(obj, (list, tuple)):
        return tuple(_freeze(x) for x in obj)
    if isinstance(obj, (set, frozenset)):
        return tuple(sorted(_freeze(x) for x in obj))
    if isinstance(obj, (int, float, str, bool, type(None))):
        return obj
    attrs = _attr_state(obj)
    if attrs is not None:
        return (
            type(obj).__name__,
            tuple([(name,
                    value if type(value) in _SCALAR_TYPES
                    else _freeze(value))
                   for name, value in sorted(attrs.items())]),
        )
    raise TypeError(f"cannot freeze {type(obj)}")


@dataclass
class FinalState:
    """One distinct terminal outcome."""

    outcome: Dict[str, int]
    history: ExecutionHistory
    violations: List[Violation]


@dataclass
class DeadlockWitness:
    """Snapshot of the first deadlocked state (§4.5 debugging aid).

    ``cores`` holds one dict per core — program counter (``pc`` of
    ``ops``), ``blocked``/outstanding-store status and the op it was
    stuck on; ``messages`` lists the in-flight message kinds with their
    destinations.  Serializes losslessly for the harness result cache.
    """

    cores: List[Dict[str, Any]]
    messages: List[Dict[str, Any]]

    def to_dict(self) -> Dict[str, Any]:
        return {"cores": [dict(c) for c in self.cores],
                "messages": [dict(m) for m in self.messages]}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "DeadlockWitness":
        return cls(cores=[dict(c) for c in data["cores"]],
                   messages=[dict(m) for m in data["messages"]])

    def __str__(self) -> str:
        lines = ["deadlock witness:"]
        for core in self.cores:
            status = []
            if core["done"]:
                status.append("done")
            else:
                status.append(f"next={core['next_op']}")
            if core["blocked"]:
                status.append("blocked-on-rmw")
            if core["so_outstanding"]:
                status.append(f"so_out={core['so_outstanding']}")
            if core["seq_outstanding"]:
                status.append(f"seq_out={core['seq_outstanding']}")
            if core["fence_issued"]:
                status.append("fence-issued")
            if core.get("cord_unacked"):
                status.append(f"unacked={core['cord_unacked']}")
            lines.append(
                f"  P{core['core']} [{core['protocol']}] "
                f"pc={core['pc']}/{core['ops']} " + " ".join(status)
            )
        if self.messages:
            flight = ", ".join(
                m["kind"] + (
                    f"->dir{m['dst_dir']}" if m["dst_dir"] is not None
                    else f"->P{m['dst_core']}" if m["dst_core"] is not None
                    else ""
                )
                for m in self.messages
            )
            lines.append(f"  in flight: {flight}")
        else:
            lines.append("  in flight: (none)")
        return "\n".join(lines)


@dataclass
class CheckResult:
    """Result of exhaustively checking one litmus test under one protocol."""

    test: LitmusTest
    protocol: str
    finals: List[FinalState]
    deadlocks: int
    states_explored: int
    #: False when exploration stopped at ``max_states`` (``partial=True``
    #: runs only; the default behaviour raises :class:`ModelCheckError`).
    complete: bool = True
    #: Snapshot of the first deadlocked state, if any.
    first_deadlock: Optional[DeadlockWitness] = None
    #: Exploration observability: states/sec, transitions, visited-set
    #: hit rate, peak frontier, POR prunes (see :meth:`ModelChecker.run`).
    stats: Dict[str, float] = field(default_factory=dict)
    elapsed_s: float = 0.0

    @property
    def states_per_sec(self) -> float:
        return self.states_explored / self.elapsed_s if self.elapsed_s else 0.0

    @property
    def outcomes(self) -> List[Dict[str, int]]:
        return [f.outcome for f in self.finals]

    @property
    def forbidden_reached(self) -> List[Dict[str, int]]:
        reached = []
        for final in self.finals:
            if self.test.matches_forbidden(final.outcome) is not None:
                reached.append(final.outcome)
        return reached

    @property
    def rc_violations(self) -> List[Violation]:
        return [v for final in self.finals for v in final.violations]

    @property
    def passed(self) -> bool:
        """Safe: no forbidden outcome, no RC violation, no deadlock."""
        return (
            not self.forbidden_reached
            and not self.rc_violations
            and self.deadlocks == 0
        )

    def reaches(self, pattern: Dict[str, int]) -> bool:
        return any(
            all(outcome.get(reg) == val for reg, val in pattern.items())
            for outcome in self.outcomes
        )


# ---------------------------------------------------------------------------
# The checker
# ---------------------------------------------------------------------------

#: Message kinds whose delivery commutes with every other enabled or
#: future action (see :meth:`ModelChecker._reduce` and DESIGN.md §4):
#: always deliverable, never disabling, touching state no other action
#: reads conflictingly.  Eligible as singleton ample sets.  Derived from
#: the protocol tables (``MessageSpec.ample``) — a new message type must
#: declare its POR class, it cannot silently land here.
_AMPLE_KINDS = ample_kinds()

#: In-flight store carriers a core's own later load must observe
#: (read-own-write forwarding, :meth:`ModelChecker._read_for_core`).
#: Disjoint from :data:`_AMPLE_KINDS`, so forwarding never reads state an
#: ample delivery writes and the POR argument is untouched.  Derived from
#: the tables (``MessageSpec.forwards_store``).
_FWD_STORE_KINDS = forwarding_kinds()

#: Delivery opcodes the checker runs inline (:meth:`ModelChecker._deliver`).
#: The rest — ``D_CALL`` rows and the timed-only SEQ flush handshake —
#: run their closures.
_LOWERED_DELIVERIES = frozenset({
    D_WT_STORE, D_SO_ACK, D_WT_RLX, D_WT_REL, D_REQ_NOTIFY, D_NOTIFY,
    D_REL_ACK, D_SEQ_STORE, D_POSTED, D_TARDIS_STORE,
})


class _CheckerContext(DeliveryContext):
    """Backs a table :class:`~repro.protocols.spec.DeliveryRule` closure
    with ``_State`` mutations (the ``D_CALL`` rows, and every row under
    ``REPRO_INTERPRETED_TABLES=1``).

    Delivery guards run read-only against the shared components; effects
    run against the copy-on-write ``mutable_*`` accessors.  The message
    wire format (field names, reply shapes, FIFO classes) produced here is
    pinned by the golden checker signatures (states, transitions and
    finals, not just outcomes).
    """

    __slots__ = ("_checker", "_state", "_msg", "_mutate", "_dir", "_core")

    def __init__(self, checker: "ModelChecker", state: _State, msg: _Msg,
                 mutate: bool) -> None:
        self._checker = checker
        self._state = state
        self._msg = msg
        self._mutate = mutate
        self._dir = None
        self._core = None

    @property
    def dir_state(self) -> Any:
        dir_state = self._dir
        if dir_state is None:
            directory = self._msg.dst_dir
            dir_state = self._dir = (
                self._state.mutable_dir(directory) if self._mutate
                else self._state.dirs[directory]
            )
        return dir_state

    @property
    def core(self) -> Any:
        core = self._core
        if core is None:
            core = self._core = self._state.mutable_core(self._msg.dst_core)
        return core

    def commit(self, fields: Any) -> None:
        self._state.commit(self._msg.dst_dir, fields)

    def commit_barrier(self) -> None:
        pass  # barrier Releases carry no value

    def perform_atomic(self, fields: Any) -> None:
        self._checker._perform_atomic(self._state, self._msg)

    def send_core(self, message: str, fields: Any) -> None:
        self._checker._send(
            self._state, message, dict(fields),
            dst_core=self._msg.fields["core"],
            fifo_class=self._checker._fifo(message, None),
        )

    def send_dir(self, message: str, dst_dir: int, fields: Any) -> None:
        self._checker._send(
            self._state, message, dict(fields), dst_dir=dst_dir,
            fifo_class=self._checker._fifo(message, None),
        )

    def ack_release(self, meta: Any) -> None:
        self._checker._ack_release(self._state, self._msg.dst_dir, meta)

    def seq_committed(self, proc: int) -> int:
        return self._state.seq_committed_by(proc)

    def seq_commit(self, proc: int) -> None:
        self._state.seq_commit(self._msg.dst_dir, proc)

    def complete_atomic(self, fields: Any) -> None:
        core = self.core
        register = fields.get("register")
        if register is not None:
            core.regs[register] = fields["old"]
        core.blocked = False
        core.pc += 1

    def wake(self) -> None:
        pass  # enabledness is re-evaluated per state


class _IssueRow:
    """One compiled issue row as the checker dispatches it.

    ``guard_op`` / ``action_op`` / ``escape_op`` are the row's opcodes,
    or the ``*_CALL`` fallbacks under ``REPRO_INTERPRETED_TABLES=1``;
    ``emits`` names the row's emit template (the op-carrying message is
    last)."""

    __slots__ = ("rule", "name", "ordered", "barrier_escape", "guard_op",
                 "action_op", "escape_op", "emits", "window")

    def __init__(self, compiled: CompiledProtocol, row: CompiledIssue,
                 interpreted: bool) -> None:
        self.rule = row.rule
        self.name = row.name
        self.ordered = row.ordered
        self.barrier_escape = row.escape == "barrier"
        self.guard_op = G_CALL if interpreted else row.guard_op
        self.action_op = A_CALL if interpreted else row.action_op
        self.escape_op = G_CALL if interpreted else row.escape_op
        self.emits = tuple(compiled.messages[mid].name
                           for mid in row.emit_mids)
        # SEQ-k's checker guard bounds the uncommitted window (the
        # timed interpreter checks ``timed_guard``'s watermark instead).
        bits = compiled.spec.seq_bits
        self.window = (1 << bits) if bits is not None else 0


class _CheckerRows:
    """One protocol's compiled rows in the checker's dispatch form:
    issue rows by ``(op_class, ordered)`` and ``(opcode, rule)`` per
    delivered message kind (``D_CALL`` for rows the checker runs as
    closures)."""

    __slots__ = ("compiled", "cord_core", "issue", "deliveries")

    def __init__(self, compiled: CompiledProtocol, interpreted: bool) -> None:
        self.compiled = compiled
        self.cord_core = compiled.spec.core_state == "cord"
        self.issue = {key: _IssueRow(compiled, row, interpreted)
                      for key, row in compiled.issue.items()}
        self.deliveries = {}
        for name, row in compiled.delivery.items():
            lowered = not interpreted and row.op in _LOWERED_DELIVERIES
            self.deliveries[name] = (row.op if lowered else D_CALL, row.rule)


#: Built once per compiled spec and dispatch mode: every checker of a
#: sweep shares them (rebuilding them per checker costs more than the
#: rest of its construction).
_CHECKER_ROWS: Dict[Tuple[str, bool], _CheckerRows] = {}


def _checker_rows(spec: ProtocolSpec, interpreted: bool) -> _CheckerRows:
    """``spec``'s :class:`_CheckerRows`, rebuilt when ``compile_spec``
    returns a new compilation (a replaced spec object)."""
    compiled = compile_spec(spec)
    rows = _CHECKER_ROWS.get((spec.name, interpreted))
    if rows is None or rows.compiled is not compiled:
        rows = _CHECKER_ROWS[(spec.name, interpreted)] = \
            _CheckerRows(compiled, interpreted)
    return rows


class ModelChecker:
    """Exhaustive interleaving exploration of a litmus test.

    Parameters
    ----------
    test:
        The litmus test.
    protocol:
        ``"cord"``, ``"so"``, ``"mp"``, ``"seq<k>"`` or ``"tardis"`` — the
        protocol each thread uses (overridden per-thread by
        ``test.thread_protocols``).  Successor generation runs the
        protocol's transition table from :mod:`repro.protocols.spec`,
        lowered by :func:`~repro.protocols.compile.compile_spec` — the
        same rows the timed interpreter executes.
    config:
        System geometry (defaults to one host per location-home plus one).
    cord_config:
        CORD table provisioning — pass small tables to explore the
        under-provisioned corner cases of §4.5.
    tso:
        Model TSO mode (§6): every store is ordered.
    sc:
        Model sequential consistency: TSO's store ordering plus
        store->load ordering (loads wait for the issuing core's stores
        to commit).
    max_states:
        Exploration budget; exceeding it raises :class:`ModelCheckError`
        (or returns a ``complete=False`` result with ``partial=True``).
    partial:
        Return the partial :class:`CheckResult` instead of raising when
        the budget is exhausted.
    por:
        Enable the partial-order reduction over commuting deliveries
        (sound: reduced and unreduced exploration reach identical
        outcome sets, deadlock counts and violations — pinned by the
        differential test).  Disable to explore every interleaving.
    stats:
        Optional :class:`~repro.sim.stats.StatRegistry`; when given, the
        run accumulates ``modelcheck.*`` counters (states, transitions,
        visited hits, POR prunes, closure calls, peak frontier, wall
        seconds) into it.
    """

    def __init__(
        self,
        test: LitmusTest,
        protocol: str = "cord",
        config: Optional[SystemConfig] = None,
        cord_config: Optional[CordConfig] = None,
        tso: bool = False,
        sc: bool = False,
        max_states: int = 2_000_000,
        partial: bool = False,
        por: bool = True,
        stats: Optional[StatRegistry] = None,
    ) -> None:
        self.test = test
        self.protocol = protocol
        self.sc = sc
        if sc:
            tso = True  # SC subsumes TSO's store-store ordering
        hosts = max(
            max(test.locations.values()) + 1 if test.locations else 1,
            test.threads,
        )
        self.config = config or SystemConfig().scaled(hosts=hosts)
        self.cord_config = cord_config or self.config.cord
        self.tso = tso
        self.max_states = max_states
        self.partial = partial
        self.por = por
        self.stats = stats
        self.address_map = AddressMap(self.config)
        self.programs = test.compile(self.config)
        self.core_protocols = list(
            test.thread_protocols or [protocol] * test.threads
        )
        if len(self.core_protocols) != test.threads:
            raise ValueError("thread_protocols length != thread count")
        for proto in self.core_protocols:
            validate_checkable_protocol(proto)
        self._specs = [get_spec(proto) for proto in self.core_protocols]
        self._fifo_classes: Dict[Tuple[str, Optional[str]], Any] = {}
        #: Closure-path uses per table row (``*_CALL`` rows; every row
        #: under ``REPRO_INTERPRETED_TABLES=1``), reported as the
        #: ``closure_calls`` stat.
        self.closure_calls: Dict[str, int] = {}
        interpreted = interpreted_tables_enabled()
        so_rows = _checker_rows(get_spec("so"), interpreted)
        tables = [_checker_rows(spec, interpreted) for spec in self._specs]
        # SO's rows ride along for the via-so carriers a CORD core can
        # emit (§4.5 mixed mode); later tables win on shared names.
        self._deliveries: Dict[str, Tuple[int, DeliveryRule]] = dict(
            so_rows.deliveries)
        for table in tables:
            self._deliveries.update(table.deliveries)
        # Each program op resolved ahead of exploration: ``(op, kind,
        # home, issue row)`` (SO's rows for a CORD core's ``via: so``
        # op); barrier broadcasts and the §4.4 escape issue through the
        # core's Release row.
        self._steps: List[List[Tuple[MemOp, OpKind, Optional[int],
                                     Optional[_IssueRow]]]] = []
        self._release_rows = [table.issue[("store", True)]
                              for table in tables]
        home_directory = self.address_map.home_directory
        for core_index, program in enumerate(self.programs):
            table = tables[core_index]
            steps = []
            for op in program:
                kind = op.kind
                home = row = None
                if kind is not OpKind.COMPUTE and kind is not OpKind.FENCE:
                    home = home_directory(op.addr).index
                if kind is OpKind.STORE or kind is OpKind.ATOMIC:
                    op_rows = table
                    if table.cord_core and op.meta.get("via") == "so":
                        op_rows = so_rows  # mixed-mode §4.5
                    row = op_rows.issue[(
                        "atomic" if kind is OpKind.ATOMIC else "store",
                        op.ordering.is_release or self.tso)]
                steps.append((op, kind, home, row))
            self._steps.append(steps)

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _initial(self) -> _State:
        cores = []
        for core_index, proto in enumerate(self.core_protocols):
            cores.append(_CoreState(
                CordProcessorState(core_index, self.cord_config)
                if proto == "cord" else None))
        dirs = [
            CordDirectoryState(d, self.test.threads, self.cord_config)
            for d in range(self.config.total_directories)
        ]
        return _State(cores, dirs, [dict() for _ in dirs])

    @functools.cached_property
    def _locations(self) -> Dict[str, int]:
        """Symbolic location -> address, in ``test.locations`` order."""
        addresses = self.test.addresses(self.config)
        return {loc: addresses[loc] for loc in self.test.locations}

    def _home(self, addr: int) -> int:
        return self.address_map.home_directory(addr).index

    def _read(self, state: _State, addr: int) -> int:
        return state.values[self._home(addr)].get(addr, 0)

    def _read_for_core(self, state: _State, core_index: int,
                       addr: int, home: int) -> int:
        """What a load by ``core_index`` observes: the youngest of the
        core's own in-flight stores to ``addr``, else the committed value
        at its ``home``.

        The timed machine gets read-own-write for free — a ``load_req``
        queues behind the core's earlier store on the same FIFO link to
        the home (and the write-combining buffer flushes before loads) —
        but here loads read directory state directly, so without this
        forwarding the adversarial network could delay a store past its
        own core's later load and fabricate a stale read no
        release-consistent machine exhibits.  Atomics never need it: the
        issuing core blocks until the RMW response.
        """
        for msg in reversed(state.network):
            if (msg.kind in _FWD_STORE_KINDS
                    and msg.fields.get("core") == core_index
                    and msg.fields.get("addr") == addr):
                return msg.fields["value"]
        return state.values[home].get(addr, 0)

    def _closure(self, name: str) -> None:
        """Count one closure-path use of table row ``name``."""
        self.closure_calls[name] = self.closure_calls.get(name, 0) + 1

    # ------------------------------------------------------------------
    # Enabled actions
    # ------------------------------------------------------------------
    def _enabled(self, state: _State) -> List[Tuple]:
        actions: List[Tuple] = []
        for core_index in range(self.test.threads):
            if self._core_enabled(state, core_index):
                actions.append(("core", core_index))
        # ``network`` is in send order, so a FIFO class's head is its
        # first message; later members wait behind it.
        heads = set()
        for position, msg in enumerate(state.network):
            fifo = msg.fifo_class
            if fifo is not None:
                if fifo in heads:
                    continue
                heads.add(fifo)
            if self._delivery_enabled(state, msg):
                actions.append(("deliver", position))
        return actions

    def _reduce(self, state: _State, actions: List[Tuple]) -> List[Tuple]:
        """Partial-order reduction: collapse commuting deliveries.

        If some enabled action delivers a message whose kind is in
        :data:`_AMPLE_KINDS`, explore *only* that delivery (a singleton
        persistent/ample set).  Soundness (DESIGN.md §4 has the full
        argument): such a delivery (1) is always enabled and stays
        enabled (``fifo_class is None`` and ``_delivery_enabled`` is
        unconditional for these kinds), (2) only *enables* other actions
        — ``so_ack`` decrements a guard counter toward zero, ``notify``
        raises a monotone notification count, ``atomic_resp`` unblocks
        its core — so no pruned action is ever lost, and (3) commutes
        with every coenabled action: the state it writes (one core's ack
        counter / one directory's notification counter / a blocked
        core's registers) is read by no action that can fire before it.
        Terminal states (finals *and* deadlocks) of the reduced graph
        therefore coincide with the full graph's, which the differential
        test verifies over the whole litmus suite.
        """
        if len(actions) <= 1:
            return actions
        for action in actions:
            if action[0] != "deliver":
                continue
            if state.network[action[1]].kind in _AMPLE_KINDS:
                return [action]
        return actions

    def _guard_blocks(self, row: _IssueRow, core: _CoreState,
                      home: int) -> bool:
        """Whether ``row``'s issue guard stalls ``core`` towards ``home``."""
        gop = row.guard_op
        if gop == G_TRUE:
            return False
        if gop == G_CORD_RELAXED:
            return core.cord.relaxed_stall_reason(home) is not None
        if gop == G_CORD_RELEASE:
            return (core.so_outstanding > 0
                    or core.cord.release_stall_reason(home) is not None)
        if gop == G_SO_OUTSTANDING:
            return core.so_outstanding > 0
        if gop == G_SEQ_WINDOW:
            return core.seq_outstanding + 1 >= row.window
        self._closure(row.name)
        return row.rule.guard(core, home) is not None

    def _escape_blocks(self, row: _IssueRow, core: _CoreState,
                       home: int) -> bool:
        """Whether the §4.4 barrier escape of a stalled ``row`` is
        blocked too."""
        if row.escape_op == G_CORD_BARRIER:
            return core.cord.release_stall_reason(home) is not None
        self._closure(row.name + ":escape")
        return row.rule.escape_guard(core, home) is not None

    def _core_enabled(self, state: _State, core_index: int) -> bool:
        core = state.cores[core_index]
        steps = self._steps[core_index]
        if core.blocked or core.pc >= len(steps):
            return False
        op, kind, home, row = steps[core.pc]
        if kind is OpKind.COMPUTE:
            return True
        if kind is OpKind.LOAD or kind is OpKind.LOAD_UNTIL:
            if self.sc and not self._stores_drained(state, core_index):
                return False  # SC: loads wait for the core's own stores
            if kind is OpKind.LOAD:
                return True
            value = self._read_for_core(state, core_index, op.addr, home)
            exact = op.meta.get("cmp") == "eq"
            return value == op.value or (not exact and value >= op.value)
        if kind is OpKind.FENCE:
            if not op.ordering.is_release:
                return True
            fence = self._specs[core_index].fence
            if (fence.barrier_broadcast and not core.fence_issued
                    and core.cord.pending_directories()):
                # The whole barrier batch must fit before the fence fires
                # (never-fitting batches report as deadlocks, not mid-step
                # crashes).
                return cord_barrier_batch_reason(core.cord) is None
            return fence.done(core)
        # Stores and atomics (RMWs follow the same issue rules per class).
        if not self._guard_blocks(row, core, home):
            return True
        # Stalled Relaxed op: enabled if the barrier-release escape hatch
        # can fire (§4.4).
        return row.barrier_escape and not self._escape_blocks(row, core,
                                                              home)

    def _stores_drained(self, state: _State, core_index: int) -> bool:
        """True when the core has no store still in flight (SC gating)."""
        core = state.cores[core_index]
        if core.so_outstanding > 0:
            return False
        if core.seq_outstanding > 0:
            # SEQ stores complete at commit; SC load gating must wait for
            # them like any other in-flight store (divergence fix: the
            # timed interpreter drains, the checker previously did not).
            return False
        if core.cord is not None and core.cord.total_unacked() > 0:
            return False
        # MP has no completion signal; approximate with network emptiness
        # for this core's posted stores.
        if self.core_protocols[core_index] == "mp":
            return not any(
                m.kind == "posted" and m.fields.get("core") == core_index
                for m in state.network
            )
        return True

    def _delivery_enabled(self, state: _State, msg: _Msg) -> bool:
        dop, rule = self._deliveries[msg.kind]
        if dop == D_WT_REL:
            return state.dirs[msg.dst_dir].release_block_reason(
                msg.fields["meta"]) is None
        if dop == D_REQ_NOTIFY:
            return state.dirs[msg.dst_dir].req_notify_block_reason(
                msg.fields["meta"]) is None
        if dop == D_TARDIS_STORE:
            fields = msg.fields
            return state.seq_committed_by(fields["core"]) >= fields["seq"]
        if dop == D_SEQ_STORE:
            fields = msg.fields
            return (not fields["ordered"]
                    or state.seq_committed_by(fields["core"])
                    >= fields["seq"])
        if dop != D_CALL or rule.guard is None:
            return True     # the remaining lowered rows are unguarded
        self._closure(msg.kind)
        return rule.guard(_CheckerContext(self, state, msg, mutate=False),
                          msg.fields)

    # ------------------------------------------------------------------
    # Transition
    # ------------------------------------------------------------------
    def _apply(self, state: _State, action: Tuple) -> _State:
        new = state.clone()
        if action[0] == "core":
            self._step_core(new, action[1])
        else:
            msg = new.network.pop(action[1])
            self._deliver(new, msg)
        return new

    def _send(
        self,
        state: _State,
        kind: str,
        fields: Dict[str, Any],
        dst_dir: Optional[int] = None,
        dst_core: Optional[int] = None,
        fifo_class: Optional[Tuple[Any, ...]] = None,
    ) -> None:
        state.network.append(_Msg(state.next_seq, kind, dst_dir, dst_core,
                                  fields, fifo_class))
        state.next_seq += 1

    def _fifo(
        self,
        kind: str,
        proto: Optional[str],
        core: Optional[int] = None,
        addr: Optional[int] = None,
        dst_dir: Optional[int] = None,
    ) -> Optional[Tuple[Any, ...]]:
        """``_Msg.fifo_class`` for one send, derived from the tables
        (``MessageSpec.fifo``) — never hand-assigned per call site.
        ``proto`` is the issuing protocol (``None`` for replies)."""
        fifo = self._fifo_classes.get((kind, proto))
        if fifo is None:
            fifo = self._fifo_classes[(kind, proto)] = \
                fifo_class_for(kind, proto)
        return fifo.key(core=core, addr=addr, dst_dir=dst_dir)

    def _step_core(self, state: _State, core_index: int) -> None:
        core = state.mutable_core(core_index)
        op, kind, home, row = self._steps[core_index][core.pc]

        if kind is OpKind.COMPUTE:
            core.pc += 1
            return
        if kind is OpKind.LOAD or kind is OpKind.LOAD_UNTIL:
            value = self._read_for_core(state, core_index, op.addr, home)
            if op.register is not None:
                core.regs[op.register] = value
            state.record(
                (core_index, core.pc, EventKind.LOAD, op.ordering, op.addr,
                 value))
            core.pc += 1
            return
        if kind is OpKind.FENCE:
            # SO/MP/SEQ/Tardis fences carry no directory metadata: they
            # gate in ``_core_enabled`` (SO/SEQ drain their outstanding
            # stores; MP and Tardis order nothing here — Tardis commits
            # strictly in order, so its fences are free) and then simply
            # advance.  Only CORD fences issue barrier Releases below.
            if (not op.ordering.is_release
                    or not self._specs[core_index].fence.barrier_broadcast):
                core.pc += 1
                return
            pending = core.cord.pending_directories()
            if not core.fence_issued and pending:
                release = self._release_rows[core_index]
                for directory in pending:
                    self._table_issue(state, core_index, release, None,
                                      directory, barrier=True)
                core.fence_issued = True
                return
            core.fence_issued = False
            core.pc += 1
            return

        if row.barrier_escape and self._guard_blocks(row, core, home):
            # Escape hatch: inject an empty Release barrier (§4.4); the pc
            # does not advance — the op retries afterwards.
            self._table_issue(state, core_index,
                              self._release_rows[core_index], None, home,
                              barrier=True)
            return
        if kind is OpKind.ATOMIC:
            self._step_atomic(state, core_index, core, op, home, row)
            return
        self._table_issue(state, core_index, row, op, home)
        core.pc += 1

    # ------------------------------------------------------------------
    # Table-driven issue (the untimed interpreter over protocols.spec)
    # ------------------------------------------------------------------
    def _table_issue(
        self,
        state: _State,
        core_index: int,
        row: _IssueRow,
        op: Optional[MemOp],
        home: int,
        barrier: bool = False,
    ) -> None:
        """Run one issue row's effects and put its emissions on the wire.

        The row's action opcode selects an inline expansion of its
        effect; ``A_CALL`` rows run the closure, which mutates the core's
        protocol state and returns the ordered
        :class:`~repro.protocols.spec.Emit` list.  Emission order fixes
        message sequence numbers, so it is semantic; every opcode keeps
        the closure's order.
        """
        core = state.mutable_core(core_index)
        proto = self.core_protocols[core_index]
        aop = row.action_op
        if aop == A_CORD_RELAXED:
            fields: Dict[str, Any] = {
                "meta": core.cord.on_relaxed_store(home)}
        elif aop == A_CORD_RELEASE:
            # Alg. 1 lines 5-13: requests-for-notification fan out to
            # pending directories before the Release goes to its home.
            issue = core.cord.on_release_store(home, barrier=barrier)
            notify = row.emits[0]
            for pending_dir, req_meta in issue.notifications:
                self._send(state, notify, {"meta": req_meta},
                           dst_dir=pending_dir,
                           fifo_class=self._fifo(notify, proto,
                                                 core=core_index,
                                                 dst_dir=pending_dir))
            fields = {"meta": issue.release}
        elif aop == A_SO_STORE:
            core.so_outstanding += 1
            fields = {}
        elif aop == A_MP_POSTED:
            fields = {}
        elif aop == A_SEQ_STORE or aop == A_TARDIS_STORE:
            seq = core.seq_next
            core.seq_next = seq + 1
            core.seq_outstanding += 1
            fields = {"seq": seq, "ordered": row.ordered}
        else:
            self._closure(row.name)
            for emit in row.rule.effects(core, home, row.ordered,
                                         barrier=barrier):
                fields = dict(emit.fields)
                dst = emit.dst_dir if emit.dst_dir is not None else home
                if emit.carries_op:
                    self._send_carrier(state, core_index, core, proto,
                                       emit.message, fields, op, dst)
                else:
                    self._send(state, emit.message, fields, dst_dir=dst,
                               fifo_class=self._fifo(emit.message, proto,
                                                     core=core_index,
                                                     dst_dir=dst))
            return
        self._send_carrier(state, core_index, core, proto, row.emits[-1],
                           fields, op, home)

    def _send_carrier(self, state: _State, core_index: int,
                      core: _CoreState, proto: str, kind: str,
                      fields: Dict[str, Any], op: Optional[MemOp],
                      dst: int) -> None:
        """Send an op-carrying emission: the protocol ``fields`` plus the
        op's address, value, program position and ordering (none for a
        barrier Release) and the issuing core."""
        addr = None
        if op is not None:
            addr = op.addr
            fields["addr"] = addr
            fields["value"] = op.value
            fields["pc"] = core.pc
            fields["ordering"] = op.ordering
        fields["core"] = core_index
        self._send(state, kind, fields, dst_dir=dst,
                   fifo_class=self._fifo(kind, proto, core=core_index,
                                         addr=addr, dst_dir=dst))

    def _step_atomic(self, state: _State, core_index: int,
                     core: _CoreState, op: MemOp, home: int,
                     row: _IssueRow) -> None:
        """Issue an RMW via the table; the core blocks until the response."""
        proto = self.core_protocols[core_index]
        # No shipped atomic row has an action opcode: RMW issue is rare
        # and stays on the closure path.
        self._closure(row.name)
        emits = row.rule.effects(core, home, row.ordered)
        base = {
            "addr": op.addr, "value": op.value, "core": core_index,
            "pc": core.pc, "ordering": op.ordering,
            "atomic": op.meta["atomic"], "compare": op.meta.get("compare"),
            "register": op.register,
        }
        for emit in emits:
            if emit.carries_op:
                fields = dict(base)
                fields.update(emit.fields)
                self._send(state, emit.message, fields, dst_dir=home,
                           fifo_class=self._fifo(emit.message, proto,
                                                 core=core_index,
                                                 addr=op.addr, dst_dir=home))
            else:
                self._send(state, emit.message, dict(emit.fields),
                           dst_dir=emit.dst_dir,
                           fifo_class=self._fifo(emit.message, proto,
                                                 core=core_index,
                                                 dst_dir=emit.dst_dir))
        core.blocked = True

    def _perform_atomic(self, state: _State, msg: _Msg) -> None:
        fields = msg.fields
        directory = msg.dst_dir
        values = state.mutable_values(directory)
        old = values.get(fields["addr"], 0)
        new = fields["atomic"].apply(old, fields["value"],
                                     fields.get("compare"))
        values[fields["addr"]] = new
        state.record((
            fields["core"], fields["pc"], EventKind.STORE,
            fields["ordering"], fields["addr"], new,
        ))
        self._send(state, "atomic_resp", {
            "old": old, "register": fields.get("register"),
        }, dst_core=fields["core"])

    def _ack_release(self, state: _State, directory: int, meta: Any) -> None:
        self._send(state, "rel_ack", {"dir": directory, "epoch": meta.epoch},
                   dst_core=meta.proc, fifo_class=self._fifo("rel_ack", None))

    def _deliver(self, state: _State, msg: _Msg) -> None:
        """Consume ``msg``: the delivery row's opcode selects an inline
        expansion of the table effect (same mutations, same emission
        order); ``D_CALL`` rows run the closure against
        :class:`_CheckerContext`."""
        dop, rule = self._deliveries[msg.kind]
        fields = msg.fields
        if dop == D_WT_RLX:
            state.commit(msg.dst_dir, fields)
            state.mutable_dir(msg.dst_dir).on_relaxed(fields["meta"])
        elif dop == D_WT_REL:
            # Alg. 2 Release commit: directory state first, then the
            # value/RMW, then the epoch acknowledgment.
            meta = fields["meta"]
            state.mutable_dir(msg.dst_dir).commit_release(meta)
            if "atomic" in fields:
                self._perform_atomic(state, msg)
            elif not meta.barrier:
                state.commit(msg.dst_dir, fields)
            self._ack_release(state, msg.dst_dir, meta)
        elif dop == D_NOTIFY:
            state.mutable_dir(msg.dst_dir).on_notify(fields["meta"])
        elif dop == D_REL_ACK:
            state.mutable_core(msg.dst_core).cord.on_release_ack(
                fields["dir"], fields["epoch"])
        elif dop == D_REQ_NOTIFY:
            meta = fields["meta"]
            notify = state.mutable_dir(msg.dst_dir).consume_req_notify(meta)
            self._send(state, "notify", {"meta": notify},
                       dst_dir=meta.noti_dst,
                       fifo_class=self._fifo("notify", None))
        elif dop == D_WT_STORE:
            state.commit(msg.dst_dir, fields)
            self._send(state, "so_ack", {}, dst_core=fields["core"],
                       fifo_class=self._fifo("so_ack", None))
        elif dop == D_SO_ACK:
            state.mutable_core(msg.dst_core).so_outstanding -= 1
        elif dop == D_SEQ_STORE or dop == D_TARDIS_STORE:
            state.commit(msg.dst_dir, fields)
            state.seq_commit(msg.dst_dir, fields["core"])
        elif dop == D_POSTED:
            state.commit(msg.dst_dir, fields)
        else:
            self._closure(msg.kind)
            rule.effects(_CheckerContext(self, state, msg, mutate=True),
                         fields)

    # ------------------------------------------------------------------
    # Exploration
    # ------------------------------------------------------------------
    def _key(self, state: _State) -> Tuple:
        """Visited-set key: only what can differ between two states of
        this run (component positions stand in for their ids).

        Fragments of components no ``mutable_*`` accessor touched since
        they were keyed are reused as they are (see :class:`_State`)."""
        dirty = state.dirty_cores
        if dirty:
            keys = list(state.core_keys)
            while dirty:
                low = dirty & -dirty
                index = low.bit_length() - 1
                core = state.cores[index]
                keys[index] = (
                    core.pc, tuple(sorted(core.regs.items())),
                    core.cord.checker_key() if core.cord is not None
                    else None,
                    core.so_outstanding, core.fence_issued, core.blocked,
                    core.seq_next, core.seq_outstanding)
                dirty ^= low
            state.core_keys = tuple(keys)
            state.dirty_cores = 0
        dirty = state.dirty_dirs
        if dirty:
            keys = list(state.dir_keys)
            while dirty:
                low = dirty & -dirty
                index = low.bit_length() - 1
                keys[index] = state.dirs[index].checker_key()
                dirty ^= low
            state.dir_keys = tuple(keys)
            state.dirty_dirs = 0
        dirty = state.dirty_values
        if dirty:
            keys = list(state.value_keys)
            while dirty:
                low = dirty & -dirty
                index = low.bit_length() - 1
                keys[index] = tuple(sorted(state.values[index].items()))
                dirty ^= low
            state.value_keys = tuple(keys)
            state.dirty_values = 0
        # Messages in (kind, destination, send) order, each with its rank
        # within its FIFO class (``None`` included): relative FIFO order,
        # not absolute ``seq``.  One pass ranks them because ``network``
        # is in send order.
        messages: Tuple[Any, ...] = ()
        if state.network:
            sent: Dict[Optional[Tuple[Any, ...]], int] = {}
            flight = []
            for msg in state.network:
                fifo = msg.fifo_class
                rank = sent.get(fifo, 0)
                sent[fifo] = rank + 1
                flight.append((msg.order, msg.entry, rank))
            flight.sort()
            messages = tuple([(entry, rank)
                              for _order, entry, rank in flight])
        return (state.core_keys, state.dir_keys, state.value_keys,
                state.seq_key, messages)

    def _is_final(self, state: _State) -> bool:
        return (
            all(
                core.pc >= len(self.programs[i])
                for i, core in enumerate(state.cores)
            )
            and not state.network
        )

    def _witness(self, state: _State) -> DeadlockWitness:
        cores = []
        for core_index, core in enumerate(state.cores):
            program = self.programs[core_index]
            done = core.pc >= len(program)
            cores.append({
                "core": core_index,
                "protocol": self.core_protocols[core_index],
                "pc": core.pc,
                "ops": len(program),
                "done": done,
                "next_op": None if done else str(program[core.pc]),
                "blocked": core.blocked,
                "so_outstanding": core.so_outstanding,
                "seq_outstanding": core.seq_outstanding,
                "fence_issued": core.fence_issued,
                "cord_unacked": (core.cord.total_unacked()
                                 if core.cord is not None else 0),
            })
        messages = [
            {"kind": m.kind, "dst_dir": m.dst_dir, "dst_core": m.dst_core}
            for m in state.network
        ]
        return DeadlockWitness(cores=cores, messages=messages)

    def _history(self, state: _State) -> ExecutionHistory:
        history = ExecutionHistory()
        for core_index, pc, kind, ordering, addr, value in state.events:
            history.record(core_index, pc, kind, ordering, addr=addr,
                           value=value)
        for core_index, core in enumerate(state.cores):
            for register, value in core.regs.items():
                history.set_register(core_index, register, value)
        return history

    def _record_final(self, state: _State,
                      finals: Dict[Tuple, FinalState]) -> None:
        """Record a terminal state's outcome, validating its history
        against the axiomatic RC checker the first time it is seen."""
        memory = {"mem:" + loc: self._read(state, addr)
                  for loc, addr in self._locations.items()}
        outcome_key = _freeze(dict(
            {"P{}:{}".format(i, r): v
             for i, c in enumerate(state.cores)
             for r, v in c.regs.items()},
            **memory,
        ))
        if outcome_key not in finals:
            history = self._history(state)
            finals[outcome_key] = FinalState(
                outcome=dict(history.register_outcome(), **memory),
                history=history,
                violations=check_rc(history),
            )

    def run(self) -> CheckResult:
        """Exhaustively explore; returns all distinct final outcomes."""
        started = time.perf_counter()
        self.closure_calls = {}
        initial = self._initial()
        visited = {self._key(initial)}
        stack = [initial]
        finals: Dict[Tuple, FinalState] = {}
        deadlocks = 0
        explored = 0
        transitions = 0
        visited_hits = 0
        ample_pruned = 0
        peak_frontier = 1
        first_deadlock: Optional[DeadlockWitness] = None
        complete = True

        while stack:
            state = stack.pop()
            explored += 1
            if explored > self.max_states:
                explored -= 1  # this state was not expanded
                complete = False
                break
            actions = self._enabled(state)
            if not actions:
                if self._is_final(state):
                    self._record_final(state, finals)
                else:
                    deadlocks += 1
                    if first_deadlock is None:
                        first_deadlock = self._witness(state)
                continue
            if self.por:
                reduced = self._reduce(state, actions)
                ample_pruned += len(actions) - len(reduced)
                actions = reduced
            for action in actions:
                successor = self._apply(state, action)
                transitions += 1
                # One hash per successor (tuple hashes are not cached):
                # the set grew iff the key is new.
                seen = len(visited)
                visited.add(self._key(successor))
                if len(visited) != seen:
                    stack.append(successor)
                    if len(stack) > peak_frontier:
                        peak_frontier = len(stack)
                else:
                    visited_hits += 1

        elapsed = time.perf_counter() - started
        run_stats = {
            "states": float(explored),
            "transitions": float(transitions),
            "visited_hits": float(visited_hits),
            "visited_hit_rate": (visited_hits / transitions
                                 if transitions else 0.0),
            "peak_frontier": float(peak_frontier),
            "ample_pruned": float(ample_pruned),
            "closure_calls": float(sum(self.closure_calls.values())),
            "wall_s": elapsed,
            "states_per_sec": explored / elapsed if elapsed > 0 else 0.0,
        }
        self._accumulate_registry(run_stats)

        result = CheckResult(
            test=self.test,
            protocol=self.protocol,
            finals=list(finals.values()),
            deadlocks=deadlocks,
            states_explored=explored,
            complete=complete,
            first_deadlock=first_deadlock,
            stats=run_stats,
            elapsed_s=elapsed,
        )
        if not complete and not self.partial:
            raise ModelCheckError(
                "{}: exceeded {} states ({} finals, {} deadlocks so far)"
                .format(self.test.name, self.max_states, len(finals),
                        deadlocks),
                partial_result=result,
            )
        return result

    def _accumulate_registry(self, run_stats: Dict[str, float]) -> None:
        if self.stats is None:
            return
        self.stats.counter("modelcheck.states").add(run_stats["states"])
        self.stats.counter("modelcheck.transitions").add(
            run_stats["transitions"])
        self.stats.counter("modelcheck.visited_hits").add(
            run_stats["visited_hits"])
        self.stats.counter("modelcheck.ample_pruned").add(
            run_stats["ample_pruned"])
        self.stats.counter("modelcheck.closure_calls").add(
            run_stats["closure_calls"])
        self.stats.counter("modelcheck.wall_s").add(run_stats["wall_s"])
        self.stats.max_tracker("modelcheck.frontier").set(
            run_stats["peak_frontier"])
