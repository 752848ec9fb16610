"""Engine benchmark harness: wall-clock throughput on a fixed basket.

The simulator's correctness is pinned by the test suite and the state-hash
basket (``tests/test_state_hash.py``); this module pins its *speed*.  A
fixed basket of runs — the kernel microbenchmark, the Fig. 2 CXL
application point and the classic timed litmus suite — is timed with
``time.perf_counter`` and reported as events/second and wall seconds per
point.  Results are written to ``BENCH_engine.json`` (repo root by
convention) and compared against the previous file's numbers, flagging any
point whose throughput regressed by more than a configurable threshold.

Usage::

    python -m repro bench                 # full basket, 3 repeats/point
    python -m repro bench --quick         # smoke mode (CI): small basket
    python -m repro bench --threshold 0.3 # tolerate 30% slowdown
    python -m repro bench --strict        # exit 1 on regression

Simulated results are deterministic, so event counts are stable across
machines; only the wall-clock side varies.  Two design rules keep the
wall-clock side meaningful:

* every *timed* point runs enough events that per-event dispatch cost
  dominates process startup (the micro point drives ≥50k kernel events in
  both modes — a ~1k-event run times interpreter warm-up, not the
  engine), each point reports the **median** of its repeated runs
  (default 3), which damps scheduler noise without the optimistic bias of
  best-of-N, and each timed run executes with the cyclic garbage
  collector paused (collect before, disable during, restore after — the
  standard ``pyperf`` discipline): a 70k-event run otherwise eats one or
  two multi-hundred-millisecond gen-2 sweeps at nondeterministic points,
  which is allocator noise, not engine speed;
* the regression check compares per-point events/second against the
  previous file with a documented tolerance (``DEFAULT_THRESHOLD`` = 25%
  — generous because CI machines are noisy) and ignores points below
  ``MIN_COMPARE_EVENTS`` events, whose wall time is dispatch noise.  The
  check is advisory by default — pass ``--strict`` to turn a regression
  into a failing exit code.
"""

from __future__ import annotations

import gc
import json
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import CXL
from repro.harness.executor import RunSpec, _execute_spec
from repro.harness.experiments import default_config
from repro.workloads.micro import MicroSpec
from repro.workloads.table2 import APPLICATIONS

__all__ = [
    "SCHEMA_VERSION",
    "DEFAULT_OUTPUT",
    "DEFAULT_THRESHOLD",
    "DEFAULT_REPEATS",
    "MIN_COMPARE_EVENTS",
    "bench_points",
    "run_basket",
    "validate_payload",
    "compare_payloads",
    "run_bench_cli",
]

SCHEMA_VERSION = 1
DEFAULT_OUTPUT = "BENCH_engine.json"
#: Allowed fractional events/sec drop before a point counts as regressed.
#: Generous because CI machines are noisy; local runs can tighten it.
DEFAULT_THRESHOLD = 0.25
#: Points below this many events are excluded from the regression
#: comparison: their wall time measures per-run dispatch overhead (module
#: import, object construction), not engine throughput, so their ev/s
#: ratio is pure noise.  They are still timed and archived.
MIN_COMPARE_EVENTS = 5000
#: Default number of timed runs per point; the reported wall time is the
#: median across runs.
DEFAULT_REPEATS = 3

#: Point name -> required record fields and their types (the schema).
_POINT_FIELDS = {
    "name": str,
    "repeats": int,
    "events": int,
    "sim_time_ns": float,
    "wall_s": float,
    "events_per_sec": float,
}
_TOP_FIELDS = {
    "schema": int,
    "quick": bool,
    "created_unix": float,
    "python": str,
    "platform": str,
    "points": list,
    "totals": dict,
}


# ---------------------------------------------------------------------------
# The basket
# ---------------------------------------------------------------------------
def _micro_runner(quick: bool) -> Callable[[], Tuple[int, float]]:
    # 1 MB of payload (~70k kernel events) in *both* modes: the point
    # exists to measure per-event dispatch cost, and a sub-5k-event run
    # times Python warm-up instead (the old quick basket clocked ~1k
    # events and its ev/s swung with import order).  One run is still
    # well under a second.
    spec = RunSpec(
        kind="micro", protocol="cord",
        workload=MicroSpec(store_granularity=64, sync_granularity=1024,
                           fanout=1, total_bytes=1024 * 1024),
        config=default_config(CXL, hosts=2, cores_per_host=1),
        seed=0, experiment="bench",
    )

    def run() -> Tuple[int, float]:
        record = _execute_spec(spec)
        return record.events, record.time_ns

    return run


def _micro_tardis_runner(quick: bool) -> Callable[[], Tuple[int, float]]:
    # The same 1 MB kernel point under the table-native tardis backend:
    # timestamp bookkeeping (lease grants, pts bumps, per-core commit
    # gating) rides the hot path, so this point catches regressions the
    # cord point can't see.
    spec = RunSpec(
        kind="micro", protocol="tardis",
        workload=MicroSpec(store_granularity=64, sync_granularity=1024,
                           fanout=1, total_bytes=1024 * 1024),
        config=default_config(CXL, hosts=2, cores_per_host=1),
        seed=0, experiment="bench",
    )

    def run() -> Tuple[int, float]:
        record = _execute_spec(spec)
        return record.events, record.time_ns

    return run


def _fig2_runner(quick: bool) -> Callable[[], Tuple[int, float]]:
    # The Fig. 2 CXL point: the CR application under the source-ordered
    # baseline (the protocol Fig. 2 characterizes), scaled-down Table 1.
    spec = RunSpec(
        kind="app", protocol="so", workload=APPLICATIONS["CR"],
        config=default_config(CXL), seed=0, experiment="bench",
    )

    def run() -> Tuple[int, float]:
        record = _execute_spec(spec)
        return record.events, record.time_ns

    return run


def _modelcheck_runner(quick: bool) -> Callable[[], Tuple[int, float]]:
    # The checker-scalability point: the ISA2 causality shape over every
    # placement under CORD, explored from scratch.  Events are explored
    # states (exploration is untimed, so simulated time is 0).
    def run() -> Tuple[int, float]:
        from repro.litmus.model_checker import ModelChecker
        from repro.litmus.suite import classic_tests
        tests = [t for t in classic_tests() if t.name.startswith("ISA2")]
        if quick:
            tests = tests[:2]
        states = 0
        for test in tests:
            result = ModelChecker(test, protocol="cord").run()
            states += result.states_explored
        return states, 0.0

    return run


def _litmus_runner(quick: bool) -> Callable[[], Tuple[int, float]]:
    def run() -> Tuple[int, float]:
        from repro.litmus import run_timed
        from repro.litmus.suite import classic_tests
        tests = classic_tests()
        if quick:
            tests = tests[:4]
        events = 0
        sim_ns = 0.0
        for test in tests:
            result = run_timed(test, protocol="cord")
            events += result.run.machine.sim.processed_events
            sim_ns += result.run.time_ns
        return events, sim_ns

    return run


def bench_points(quick: bool = False) -> List[Tuple[str, Callable[[], Tuple[int, float]]]]:
    """The fixed basket: ``(name, runner)`` pairs.

    Each runner executes one basket point from scratch (no result cache —
    the point is to exercise the engine) and returns
    ``(processed_events, simulated_ns)``.
    """
    return [
        ("micro.kernel", _micro_runner(quick)),
        ("micro.tardis", _micro_tardis_runner(quick)),
        ("fig2.cxl", _fig2_runner(quick)),
        ("litmus.classic", _litmus_runner(quick)),
        ("modelcheck", _modelcheck_runner(quick)),
    ]


# ---------------------------------------------------------------------------
# Running and reporting
# ---------------------------------------------------------------------------
def run_basket(quick: bool = False,
               repeats: Optional[int] = None) -> Dict[str, Any]:
    """Time the basket; returns the ``BENCH_engine.json`` payload.

    Each point runs ``repeats`` times (default ``DEFAULT_REPEATS``) and
    reports the **median** wall time — robust to one noisy run in either
    direction, unlike best-of-N which systematically flatters the result.

    ``totals.events_per_sec`` aggregates only the *timed-simulation*
    points (``sim_time_ns > 0``): the ``modelcheck`` point counts
    explored states, not kernel events, and folding states/second into an
    events/second total made the headline number meaningless.
    ``totals.events``/``totals.wall_s`` still cover the whole basket.
    """
    if repeats is None:
        repeats = DEFAULT_REPEATS
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    points: List[Dict[str, Any]] = []
    for name, runner in bench_points(quick):
        walls: List[float] = []
        events, sim_ns = 0, 0.0
        for _ in range(repeats):
            # Pause cyclic GC across the timed region so the measurement
            # reflects dispatch cost, not when a gen-2 sweep happened to
            # land; the explicit collect keeps memory flat across repeats.
            gc.collect()
            gc_was_enabled = gc.isenabled()
            gc.disable()
            try:
                started = time.perf_counter()
                events, sim_ns = runner()
                walls.append(time.perf_counter() - started)
            finally:
                if gc_was_enabled:
                    gc.enable()
        wall = statistics.median(walls)
        points.append({
            "name": name,
            "repeats": repeats,
            "events": events,
            "sim_time_ns": float(sim_ns),
            "wall_s": wall,
            "events_per_sec": events / wall if wall > 0 else 0.0,
        })
    total_events = sum(p["events"] for p in points)
    total_wall = sum(p["wall_s"] for p in points)
    timed = [p for p in points if p["sim_time_ns"] > 0]
    timed_events = sum(p["events"] for p in timed)
    timed_wall = sum(p["wall_s"] for p in timed)
    payload = {
        "schema": SCHEMA_VERSION,
        "quick": quick,
        "created_unix": time.time(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "points": points,
        "totals": {
            "events": total_events,
            "wall_s": total_wall,
            "events_per_sec": (timed_events / timed_wall
                               if timed_wall > 0 else 0.0),
        },
    }
    validate_payload(payload)
    return payload


def validate_payload(payload: Dict[str, Any]) -> None:
    """Schema check; raises ``ValueError`` on any malformed field."""
    for name, kind in _TOP_FIELDS.items():
        if name not in payload:
            raise ValueError(f"bench payload missing field {name!r}")
        value = payload[name]
        if kind is float and isinstance(value, int) and not isinstance(value, bool):
            continue  # JSON round-trips whole floats as ints
        if kind is int and isinstance(value, bool):
            raise ValueError(f"bench payload field {name!r} is a bool")
        if not isinstance(value, kind):
            raise ValueError(
                f"bench payload field {name!r} should be {kind.__name__}, "
                f"got {type(value).__name__}"
            )
    if payload["schema"] != SCHEMA_VERSION:
        raise ValueError(
            f"bench payload schema {payload['schema']} != {SCHEMA_VERSION}"
        )
    if not payload["points"]:
        raise ValueError("bench payload has no points")
    for point in payload["points"]:
        for name, kind in _POINT_FIELDS.items():
            if name not in point:
                raise ValueError(f"bench point missing field {name!r}")
            value = point[name]
            if kind is float and isinstance(value, int) and not isinstance(value, bool):
                continue
            if not isinstance(value, kind) or isinstance(value, bool):
                raise ValueError(
                    f"bench point field {name!r} should be {kind.__name__}, "
                    f"got {type(value).__name__}"
                )


def compare_payloads(
    current: Dict[str, Any],
    previous: Dict[str, Any],
    threshold: float = DEFAULT_THRESHOLD,
) -> List[Dict[str, Any]]:
    """Per-point throughput deltas vs ``previous``.

    Returns one row per point present in both payloads:
    ``{"name", "before", "after", "ratio", "regressed"}`` where ``ratio``
    is after/before events-per-second and ``regressed`` marks a drop
    beyond ``threshold`` (``DEFAULT_THRESHOLD`` = 0.25, i.e. tolerate a
    25% slowdown — the documented noise allowance for shared CI
    runners).  Points with fewer than ``MIN_COMPARE_EVENTS`` events on
    either side are skipped: at that size wall time is per-run dispatch
    overhead, and a "regression" there is indistinguishable from noise.
    Only same-mode files are comparable; quick and full baskets differ,
    so a mode mismatch yields no rows.
    """
    if current.get("quick") != previous.get("quick"):
        return []
    before = {p["name"]: p for p in previous.get("points", [])}
    rows: List[Dict[str, Any]] = []
    for point in current["points"]:
        prior = before.get(point["name"])
        if prior is None or prior["events_per_sec"] <= 0:
            continue
        if (point["events"] < MIN_COMPARE_EVENTS
                or prior["events"] < MIN_COMPARE_EVENTS):
            continue
        ratio = point["events_per_sec"] / prior["events_per_sec"]
        rows.append({
            "name": point["name"],
            "before": prior["events_per_sec"],
            "after": point["events_per_sec"],
            "ratio": ratio,
            "regressed": ratio < 1.0 - threshold,
        })
    return rows


# ---------------------------------------------------------------------------
# CLI (python -m repro bench)
# ---------------------------------------------------------------------------
def run_bench_cli(argv: List[str]) -> int:
    quick = False
    strict = False
    repeats: Optional[int] = None
    threshold = DEFAULT_THRESHOLD
    out = DEFAULT_OUTPUT
    index = 0
    while index < len(argv):
        arg = argv[index]
        if arg == "--quick":
            quick = True
        elif arg == "--strict":
            strict = True
        elif arg in ("--repeats", "--threshold", "--out"):
            if index + 1 >= len(argv):
                print(f"{arg} requires a value")
                return 2
            index += 1
            value = argv[index]
            try:
                if arg == "--repeats":
                    repeats = int(value)
                elif arg == "--threshold":
                    threshold = float(value)
                else:
                    out = value
            except ValueError:
                print(f"{arg} expects a number, got {value!r}")
                return 2
        else:
            print(f"unknown bench option {arg!r}; supported: --quick "
                  "--repeats N --threshold F --out PATH --strict")
            return 2
        index += 1

    previous: Optional[Dict[str, Any]] = None
    out_path = Path(out)
    if out_path.exists():
        try:
            previous = json.loads(out_path.read_text())
            validate_payload(previous)
        except (ValueError, OSError):
            previous = None  # unreadable/incompatible: skip the comparison

    payload = run_basket(quick=quick, repeats=repeats)
    for point in payload["points"]:
        print(f"{point['name']:16s} {point['events']:>9d} events  "
              f"{point['wall_s']:8.4f}s  "
              f"{point['events_per_sec']:>12,.0f} ev/s")
    totals = payload["totals"]
    print(f"{'total':16s} {totals['events']:>9d} events  "
          f"{totals['wall_s']:8.4f}s  "
          f"{totals['events_per_sec']:>12,.0f} ev/s")

    regressed = False
    if previous is not None:
        for row in compare_payloads(payload, previous, threshold):
            marker = "REGRESSED" if row["regressed"] else "ok"
            print(f"  vs previous: {row['name']:16s} "
                  f"{row['ratio']:.2f}x ({marker})")
            regressed = regressed or row["regressed"]

    out_path.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {out_path}")
    if regressed:
        print(f"throughput regression beyond {threshold:.0%} threshold"
              + ("" if strict else " (advisory; pass --strict to fail)"))
        return 1 if strict else 0
    return 0
