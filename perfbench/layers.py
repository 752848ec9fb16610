"""Split a cProfile of one workload repeat across the simulator's layers.

A layer is a package under ``src/repro`` (``repro.config`` is a module
layer of its own).  Code in ``repro.litmus`` is split into the model
checker's five phases instead.  Three attribution rules turn the flat
profile into per-layer self time and call counts:

* a ``repro`` function is charged to its owning layer;
* a function from outside ``repro`` (builtins and the standard library)
  is charged to whatever its callers are charged to, edge by edge, so
  ``dict.get`` called from the kernel is kernel time;
* a function running on behalf of the checker (called, directly or
  indirectly, from a checker phase) is charged to that phase, so
  ``AddressMap.home_directory`` called by the checker's rule evaluation
  is ``litmus.rules``, not ``memory``.

Time and calls that never reach ``repro`` (the benchmark's own loop) are
left out, so the layer shares of a repeat sum to 1.  Self time is split
across call edges by the time measured on each edge; calls are split by
the call count on each edge, so call counts depend only on the call
graph and repeat exactly.
"""

from __future__ import annotations

import cProfile
from pathlib import Path
from types import CodeType
from typing import Dict, List, Optional, Tuple, Union

#: A profiled function: its code object, or cProfile's label for a builtin.
Key = Union[CodeType, str]

#: Timed-simulation layers, then the model checker's phases.
LAYERS = (
    "sim", "interconnect", "protocols", "core", "memory", "consistency",
    "cpu", "config", "workloads", "harness",
)
PHASES = (
    "litmus.clone", "litmus.freeze", "litmus.rules", "litmus.symmetry",
    "litmus.visited",
)
ALL_LAYERS = LAYERS + PHASES
#: Charge key for cost that never reaches ``repro`` (the benchmark's loop).
OUTSIDE = ""
#: Bound on solver sweeps; call graphs here settle in a few dozen.
_MAX_SWEEPS = 500

#: Top-level ``repro`` modules that are not packages, and the layer that
#: owns them.  Fault injection runs inside network delivery; the trace
#: collector, energy/storage harvest and the CLI entry are harness code.
_MODULE_LAYER = {
    "config.py": "config",
    "faults.py": "interconnect",
    "trace.py": "harness",
    "overheads": "harness",
    "__init__.py": "harness",
    "__main__.py": "harness",
}

#: model_checker.py functions by phase; the rest of that file (successor
#: generation, delivery, guards) is ``litmus.rules``.
_CHECKER_PHASES = {
    "litmus.clone": {"clone", "mutable_core", "mutable_dir",
                     "mutable_values"},
    "litmus.freeze": {"_freeze", "_freeze_cached", "_attr_state",
                      "_digest_of", "_key", "frozen_fields", "_state_key"},
    "litmus.symmetry": {"_permuted_frozen", "_build_permuted_proc",
                        "_permute_partitioned", "_build_permuted_dir",
                        "_permute_meta", "_perm_msg", "_permuted_key",
                        "_canonical_digest", "_permuted_history"},
    "litmus.visited": {"run", "_run_serial", "_finish",
                       "_accumulate_registry"},
}
#: Whole litmus modules that belong to one phase.
_LITMUS_MODULE_PHASE = {
    "symmetry.py": "litmus.symmetry",
    "visited.py": "litmus.visited",
    "parallel.py": "litmus.visited",
}


def _inside(charge: Dict[str, float]) -> Dict[str, float]:
    """``charge`` without its ``OUTSIDE`` part, renormalised, unless that
    is all of it.  A builtin such as ``len`` is one profile node for all
    its callers, so a ``repro`` function it calls back (``__len__``) would
    otherwise inherit a share of the benchmark's own calls to ``len``."""
    outside = charge.get(OUTSIDE, 0.0)
    if not outside or outside >= 1.0:
        return charge
    return {layer: frac / (1.0 - outside)
            for layer, frac in charge.items() if layer != OUTSIDE}


class Profile:
    """One profiled repeat, keyed by code object.

    ``cProfile``'s ``pstats`` view keys functions by (file, line, name),
    which merges distinct functions that share it, such as every
    dataclass-generated ``__init__`` (``<string>``, line 2); the raw
    entries keep them apart.
    """

    def __init__(self, profiler: cProfile.Profile, repro_dir: Path) -> None:
        self._root = str(repro_dir) + "/"
        self.calls: Dict[Key, int] = {}
        self.self_time: Dict[Key, float] = {}
        #: callee -> caller -> (calls, self time of the callee on that edge)
        self.callers: Dict[Key, Dict[Key, Tuple[int, float]]] = {}
        entries = profiler.getstats()
        for entry in entries:
            self.calls[entry.code] = entry.callcount
            self.self_time[entry.code] = entry.inlinetime
            self.callers.setdefault(entry.code, {})
        for entry in entries:
            for sub in entry.calls or ():
                edges = self.callers.setdefault(sub.code, {})
                calls, spent = edges.get(entry.code, (0, 0.0))
                edges[entry.code] = (calls + sub.callcount,
                                     spent + sub.inlinetime)
        self._owner: Dict[Key, Optional[str]] = {}
        # A fixed visiting order keeps float sums, and so the rounded call
        # counts, identical from run to run.
        self.order = sorted(self.calls, key=self._sort_key)
        self._rank = {key: index for index, key in enumerate(self.order)}

    @staticmethod
    def label(key: Key) -> Tuple[str, int, str]:
        if isinstance(key, str):
            return ("~", 0, key)
        return (key.co_filename, key.co_firstlineno, key.co_name)

    def _sort_key(self, key: Key):
        return (self.label(key), self.calls[key],
                sorted((self.label(caller), edge[0])
                       for caller, edge in self.callers[key].items()))

    # -- ownership -------------------------------------------------------
    def rel(self, key: Key) -> Optional[str]:
        """``key``'s file relative to the ``repro`` package, or None."""
        filename = self.label(key)[0]
        if filename.startswith(self._root):
            return filename[len(self._root):]
        return None

    def owner(self, key: Key) -> Optional[str]:
        if key not in self._owner:
            self._owner[key] = self._owner_of(key)
        return self._owner[key]

    def _owner_of(self, key: Key) -> Optional[str]:
        rel = self.rel(key)
        if rel is None:
            return None
        head, _, tail = rel.partition("/")
        if head != "litmus":
            return _MODULE_LAYER.get(head, head)
        if tail in _LITMUS_MODULE_PHASE:
            return _LITMUS_MODULE_PHASE[tail]
        if tail == "model_checker.py":
            for phase, names in _CHECKER_PHASES.items():
                if key.co_name in names:
                    return phase
        return "litmus.rules"

    # -- attribution -----------------------------------------------------
    def _charges(self, by_time: bool) -> Dict[Key, Dict[str, float]]:
        """Fraction of each function's cost charged to each layer.

        The fractions solve ``charge(F) = sum over callers C of
        weight(C -> F) * passed(charge(C))``, where ``passed`` keeps a
        checker phase and otherwise substitutes F's own layer when F is in
        ``repro``.  Edges are weighted by time or by call count.  The
        system is solved by in-place sweeps until nothing changes, so call
        cycles (kernel dispatch and callbacks) need no special case.  Cost
        that only reaches code outside ``repro`` is charged to ``OUTSIDE``
        and dropped.
        """
        index = 1 if by_time else 0          # caller edge: (calls, time)
        weights: Dict[Key, List[Tuple[Key, float]]] = {}
        charges: Dict[Key, Dict[str, float]] = {}
        for func in self.order:
            own = self.owner(func)
            callers = self.callers[func]
            column = index
            total = sum(edge[column] for edge in callers.values())
            if total <= 0:
                column = 0
                total = sum(edge[0] for edge in callers.values())
            if (own is not None and own.startswith("litmus.")) or total <= 0:
                charges[func] = {own if own is not None else OUTSIDE: 1.0}
                continue
            weights[func] = [(caller, callers[caller][column] / total)
                             for caller in sorted(callers,
                                                  key=self._rank.__getitem__)]
            charges[func] = {}
        for _ in range(_MAX_SWEEPS):
            moved = 0.0
            for func, edges in weights.items():
                own = self.owner(func)
                charge: Dict[str, float] = {}
                for caller, weight in edges:
                    upstream = charges.get(caller, {})
                    if own is not None:
                        upstream = _inside(upstream)
                    for layer, frac in upstream.items():
                        if own is not None and not layer.startswith("litmus."):
                            layer = own
                        charge[layer] = charge.get(layer, 0.0) + weight * frac
                previous = charges[func]
                moved = max([moved] + [abs(charge.get(layer, 0.0)
                                           - previous.get(layer, 0.0))
                                       for layer in set(charge) | set(previous)])
                charges[func] = charge
            if moved < 1e-12:
                break
        for charge in charges.values():
            charge.pop(OUTSIDE, None)
        return charges

    def layer_totals(self) -> Tuple[Dict[str, float], Dict[str, float]]:
        """``(self_seconds, calls)`` per layer."""
        self_s = {layer: 0.0 for layer in ALL_LAYERS}
        calls = {layer: 0.0 for layer in ALL_LAYERS}
        by_time, by_calls = self._charges(True), self._charges(False)
        for func in self.order:
            for layer, frac in by_time[func].items():
                self_s[layer] += self.self_time[func] * frac
            for layer, frac in by_calls[func].items():
                calls[layer] += self.calls[func] * frac
        return self_s, calls

    # -- named call counts -----------------------------------------------
    def calls_to(self, rel: str, *names: str) -> int:
        """Calls of the functions ``names`` defined in ``rel``."""
        return sum(count for key, count in self.calls.items()
                   if self.label(key)[2] in names and self.rel(key) == rel)

    def edge_calls(self, caller_layer: str, callee_layer: str) -> int:
        """Calls from functions owned by one layer into another's."""
        return sum(
            edge[0]
            for key, edges in self.callers.items()
            if self.owner(key) == callee_layer
            for caller, edge in edges.items()
            if self.owner(caller) == caller_layer
        )
