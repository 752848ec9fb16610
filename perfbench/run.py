"""Repository benchmark: host cost of fixed simulation and checking work.

Run from the repository root::

    python3 perfbench/run.py --workload store_stream --seed 0 --seconds 20 --trace 0

One process runs one workload.  The workload's fixed work is repeated
until ``--seconds`` have passed (at least twice), each repeat timed as
set-up then run, with no result cache.  Every repeat's outputs are
checked, and each deterministic output (final-state hash, simulated
times, counts) must repeat exactly.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` measures an
untraced baseline for half of ``--seconds`` (at least one repeat), then
profiles two more repeats and prints the per-layer split (see
``layers.py``); the two traced repeats must give identical call counts.
The last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``; the line before it carries the seed,
the final-state hash, the error rate, the run-time tail percentile and
the simulated outputs.  METRICS.md documents every metric.
"""

from __future__ import annotations

import argparse
import cProfile
import functools
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 0
TRACED_REPEATS = 2
#: Set-ups timed on their own before the first repeat; ``setup_s`` is the
#: median of these and every repeat's set-up.
SETUP_SAMPLES = 5
#: Environment switches that select non-default code paths; a run under
#: either would measure something other than the shipped program.
REFUSED_ENV = ("REPRO_LEGACY_PROTOCOLS", "REPRO_INTERPRETED_TABLES")

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}


def _per_layer_units() -> Dict[str, str]:
    from layers import ALL_LAYERS
    units: Dict[str, str] = {}
    for layer in ALL_LAYERS:
        units[f"{layer}.self_s"] = "s"
        units[f"{layer}.share"] = "fraction"
        units[f"{layer}.calls_per_unit"] = "calls/unit"
    units.update({
        "sim.events": "count",
        "sim.events_per_s": "1/s",
        "sim.events_per_op": "count",
        "sim.sim_time_us": "us",
        "interconnect.messages": "count",
        "interconnect.msgs_per_event": "count",
        "interconnect.queue_ns": "ns",
        "interconnect.inter_host_kb": "KiB",
        "protocols.core_ops": "count",
        "protocols.dir_msgs": "count",
        "core.stall_checks_per_store": "count",
        "core.stall_ns": "ns",
        "memory.cache_lookups": "count",
        "memory.cache_hit_ratio": "fraction",
        "memory.llc_commits": "count",
        "consistency.history_events": "count",
        "harness.per_run_s": "s",
        "workloads.delivery_p50_ns": "ns",
        "workloads.delivery_p99_ns": "ns",
        "workloads.delivery_samples": "count",
        "litmus.states": "count",
        "litmus.states_per_s": "1/s",
        "litmus.dedup_ratio": "fraction",
        "tracing_overhead": "ratio",
    })
    return units


class Phase:
    """Samples and checks from a sequence of repeats."""

    def __init__(self) -> None:
        self.setup_s: List[float] = []
        self.run_s: List[float] = []
        self.outcomes: List[Any] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def fail(self, units: int, reason: str) -> None:
        self.failed += units
        self.failures.append(reason)


def _repeat(workload, seed: int, phase: Phase,
            reference: Optional[Dict[str, Any]],
            profiler: Optional[cProfile.Profile] = None) -> Any:
    """Set up and run ``workload`` once, recording times and checks."""
    units = phase.outcomes[0].units if phase.outcomes else 1
    gc.collect()
    try:
        if profiler is not None:
            profiler.enable()
        try:
            started = time.perf_counter()
            prepared = workload.setup(seed)
            ready = time.perf_counter()
            outcome = workload.run(prepared)
            done = time.perf_counter()
        finally:
            if profiler is not None:
                profiler.disable()
    except Exception as error:  # a failed repeat is counted, not fatal
        traceback.print_exc(file=sys.stderr)
        phase.attempted += units
        phase.fail(units, f"{type(error).__name__}: {error}")
        return None
    phase.attempted += outcome.units
    phase.setup_s.append(ready - started)
    phase.run_s.append(done - ready)
    phase.outcomes.append(outcome)
    if outcome.failures:
        phase.fail(min(outcome.units, len(outcome.failures)),
                   "; ".join(outcome.failures))
    elif reference is not None and outcome.repeatable() != reference:
        changed = sorted(key for key, value in outcome.repeatable().items()
                         if reference.get(key) != value)
        phase.fail(outcome.units, f"repeat changed {', '.join(changed)}")
    return outcome


def _measure(workload, seed: int, seconds: float, min_repeats: int,
             phase: Phase) -> None:
    """Set up ``SETUP_SAMPLES`` times on their own (which also finishes
    lazy imports before any run is timed), then repeat until ``seconds``
    have passed and ``min_repeats`` are done; stop at the first failed
    repeat."""
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        started = time.perf_counter()
        try:
            workload.setup(seed)
        except Exception as error:  # counted like a failed repeat
            traceback.print_exc(file=sys.stderr)
            phase.attempted += 1
            phase.fail(1, f"setup: {type(error).__name__}: {error}")
            return
        phase.setup_s.append(time.perf_counter() - started)
    deadline = time.perf_counter() + seconds
    while phase.failed == 0 and (len(phase.outcomes) < min_repeats
                                 or time.perf_counter() < deadline):
        reference = (phase.outcomes[0].repeatable()
                     if phase.outcomes else None)
        _repeat(workload, seed, phase, reference)


@contextmanager
def _engine_timer() -> Iterator[List[float]]:
    """Time spent inside ``Machine.run`` and ``ModelChecker.run``, by
    wrapping both for the duration; harness cost per run is the rest."""
    from repro.litmus.model_checker import ModelChecker
    from repro.protocols.machine import Machine

    spent = [0.0]
    originals = {cls: cls.run for cls in (Machine, ModelChecker)}

    def timed(method):
        @functools.wraps(method)
        def wrapper(self, *args, **kwargs):
            started = time.perf_counter()
            try:
                return method(self, *args, **kwargs)
            finally:
                spent[0] += time.perf_counter() - started
        return wrapper

    for cls, method in originals.items():
        cls.run = timed(method)
    try:
        yield spent
    finally:
        for cls, method in originals.items():
            cls.run = method


def _tail(samples: List[float]) -> Dict[str, Any]:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return {"run_s_tail": None, "run_s_tail_pct": None}
    index = n - 11
    return {"run_s_tail": ordered[index],
            "run_s_tail_pct": round(100.0 * index / (n - 1), 1)}


def _layer_metrics(profile, outcome, untraced_run_s: float,
                   per_run_s: float) -> Dict[str, float]:
    """Per-layer metrics from one traced repeat (shares are added by the
    caller, from the mean self time of all traced repeats)."""
    from layers import ALL_LAYERS
    self_s, calls = profile.layer_totals()
    units = outcome.events or outcome.states or 1
    metrics: Dict[str, float] = {}
    for layer in ALL_LAYERS:
        metrics[f"{layer}.self_s"] = self_s[layer]
        metrics[f"{layer}.calls_per_unit"] = round(calls[layer] / units, 6)
    events = outcome.events
    messages = profile.calls_to("interconnect/network.py", "send")
    lookups = profile.calls_to("memory/cache.py", "lookup", "contains")
    fills = profile.calls_to("memory/cache.py", "insert")
    stall_checks = profile.calls_to("core/processor.py",
                                    "relaxed_stall_reason",
                                    "release_stall_reason")
    metrics.update({
        "sim.events": events,
        "sim.events_per_s": events / untraced_run_s,
        "sim.events_per_op": (events / outcome.mem_ops
                              if outcome.mem_ops else 0.0),
        "sim.sim_time_us": outcome.sim_time_ns / 1e3,
        "interconnect.messages": messages,
        "interconnect.msgs_per_event": messages / events if events else 0.0,
        "interconnect.queue_ns": outcome.queue_ns,
        "interconnect.inter_host_kb": outcome.inter_host_bytes / 1024,
        "protocols.core_ops": profile.edge_calls("cpu", "protocols"),
        "protocols.dir_msgs": profile.calls_to("protocols/base.py",
                                               "handle"),
        "core.stall_checks_per_store": (stall_checks / outcome.stores
                                        if outcome.stores else 0.0),
        "core.stall_ns": outcome.stall_ns,
        "memory.cache_lookups": lookups,
        "memory.cache_hit_ratio": 1.0 - fills / lookups if lookups else 0.0,
        "memory.llc_commits": profile.calls_to("memory/llc.py",
                                               "commit_write_through"),
        "consistency.history_events": profile.calls_to(
            "consistency/history.py", "record"),
        "harness.per_run_s": per_run_s,
        "workloads.delivery_p50_ns": outcome.delivery_p50_ns,
        "workloads.delivery_p99_ns": outcome.delivery_p99_ns,
        "workloads.delivery_samples": outcome.delivery_samples,
        "litmus.states": outcome.states,
        "litmus.states_per_s": outcome.states / untraced_run_s,
        "litmus.dedup_ratio": (outcome.states / outcome.transitions
                               if outcome.transitions else 0.0),
    })
    return metrics


#: Count metrics two traced repeats must reproduce exactly.
_EXACT_NAMES = ("sim.events", "interconnect.messages", "litmus.states",
                "protocols.core_ops", "protocols.dir_msgs",
                "memory.cache_lookups", "memory.llc_commits",
                "consistency.history_events")


def _traced(workload, seed: int, seconds: float,
            phase: Phase) -> Dict[str, float]:
    from layers import ALL_LAYERS, Profile
    import repro

    # Half the budget untraced: the traced repeats run about three times
    # slower, and the whole run must stay within a few minutes.
    with _engine_timer() as engine_s:
        _measure(workload, seed, seconds / 2, 1, phase)
    if not phase.outcomes:
        return {}
    untraced_run_s = statistics.median(phase.run_s)
    units = sum(outcome.units for outcome in phase.outcomes)
    per_run_s = (sum(phase.run_s) - engine_s[0]) / units
    untraced_total = (statistics.median(phase.setup_s)
                      + statistics.median(phase.run_s))

    repro_dir = Path(repro.__file__).parent
    reference = phase.outcomes[0].repeatable()
    traced = Phase()
    runs: List[Dict[str, float]] = []
    for _ in range(TRACED_REPEATS):
        profiler = cProfile.Profile()
        outcome = _repeat(workload, seed, traced, reference, profiler)
        if outcome is None:
            break
        runs.append(_layer_metrics(Profile(profiler, repro_dir), outcome,
                                   untraced_run_s, per_run_s))
    phase.attempted += traced.attempted
    phase.failed += traced.failed
    phase.failures += traced.failures
    if len(runs) < TRACED_REPEATS:
        return {}
    drifted = sorted(
        name for name in runs[0]
        if (name.endswith(".calls_per_unit") or name in _EXACT_NAMES)
        and any(run[name] != runs[0][name] for run in runs))
    if drifted:
        phase.fail(traced.outcomes[-1].units,
                   "traced repeats disagree on " + ", ".join(drifted))
    metrics = dict(runs[0])
    for layer in ALL_LAYERS:
        name = f"{layer}.self_s"
        metrics[name] = statistics.fmean(run[name] for run in runs)
    total_self = sum(metrics[f"{layer}.self_s"] for layer in ALL_LAYERS)
    for layer in ALL_LAYERS:
        metrics[f"{layer}.share"] = (metrics[f"{layer}.self_s"] / total_self
                                     if total_self else 0.0)
    metrics["tracing_overhead"] = statistics.median(
        s + r for s, r in zip(traced.setup_s, traced.run_s)) / untraced_total
    return metrics


def _summary(workload_name: str, seed: int, phase: Phase) -> Dict[str, Any]:
    outcome = phase.outcomes[0] if phase.outcomes else None
    summary: Dict[str, Any] = {
        "workload": workload_name,
        "seed": seed,
        "final_state_hash": outcome.digest if outcome else None,
        "error_rate": (phase.failed / phase.attempted
                       if phase.attempted else 1.0),
        "run_s_samples": len(phase.run_s),
    }
    summary.update(_tail(phase.run_s))
    if outcome is not None:
        summary.update({
            "sim_time_us": outcome.sim_time_ns / 1e3,
            "inter_host_kb": outcome.inter_host_bytes / 1024,
            "delivery_p50_ns": outcome.delivery_p50_ns,
            "delivery_p99_ns": outcome.delivery_p99_ns,
            "delivery_samples": outcome.delivery_samples,
            "states": outcome.states,
        })
    summary["failures"] = phase.failures[:5]
    return summary


def _parse(argv: List[str], workloads) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: List[str]) -> int:
    for name in REFUSED_ENV:
        if name in os.environ:
            print(f"error: {name} is set; the benchmark measures the default "
                  f"compiled-table protocols only. Unset {name} and rerun.",
                  file=sys.stderr)
            return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run the benchmark from "
              f"a full checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.setrecursionlimit(max(sys.getrecursionlimit(), 20_000))
    from workloads import WORKLOADS

    args = _parse(argv, WORKLOADS)
    workload = WORKLOADS[args.workload]
    phase = Phase()
    if args.trace:
        metrics = _traced(workload, args.seed, args.seconds, phase)
        units = _per_layer_units()
        values = {name: metrics.get(name, 0.0) for name in units}
    else:
        _measure(workload, args.seed, args.seconds, 2, phase)
        units = END_TO_END
        values = {
            "run_s": statistics.median(phase.run_s) if phase.run_s else 0.0,
            "setup_s": (statistics.median(phase.setup_s)
                        if phase.setup_s else 0.0),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    correct = phase.failed == 0 and bool(phase.outcomes)
    print(json.dumps(_summary(args.workload, args.seed, phase)))
    print(json.dumps({
        "correct": correct,
        "attempted": max(phase.attempted, 1),
        "failed": phase.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
