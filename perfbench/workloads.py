"""The benchmark's workloads: fixed pieces of work, each run serially.

Each workload splits one repeat into ``setup(seed)`` (build machines and
programs, or checkers) and ``run(prepared)`` (simulate or explore, then
harvest and check the outputs).  ``run`` returns an :class:`Outcome`
whose deterministic fields must repeat exactly across repeats of one
seed.  Why each workload exists is recorded in ``BENCHMARK.json`` and
``METRICS.md``.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.config import CXL, SystemConfig
from repro.consistency.ops import OpKind
from repro.harness.executor import Executor, RunSpec, _final_state_hash
from repro.harness.experiments import PROTOCOLS, default_config
from repro.litmus.dsl import LitmusTest
from repro.litmus.generate import GeneratorParams, generate_test
from repro.litmus.model_checker import ModelChecker
from repro.protocols.machine import Machine
from repro.workloads.base import build_workload_programs
from repro.workloads.micro import MicroSpec, build_micro_programs
from repro.workloads.openloop import (
    DELIVERY_LATENCY_STAT, OpenLoopSpec, build_openloop_programs,
)
from repro.workloads.table2 import APPLICATIONS, app_names

MAX_EVENTS = 20_000_000


@dataclass
class Outcome:
    """What one repeat produced.  Every field except ``failures`` is
    deterministic for a seed; ``digest`` is the repeat's final-state hash."""

    units: int
    digest: str = ""
    failures: List[str] = field(default_factory=list)
    events: int = 0
    mem_ops: int = 0
    stores: int = 0
    sim_time_ns: float = 0.0
    inter_host_bytes: float = 0.0
    queue_ns: float = 0.0
    stall_ns: float = 0.0
    delivery_samples: int = 0
    delivery_p50_ns: float = 0.0
    delivery_p99_ns: float = 0.0
    states: int = 0
    transitions: int = 0

    def repeatable(self) -> Dict[str, Any]:
        data = dict(self.__dict__)
        data.pop("failures")
        return data


def _program_counts(programs) -> Tuple[int, int]:
    """(memory ops, stores) across ``programs``; compute gaps excluded."""
    mem_ops = sum(1 for program in programs.values() for op in program.ops
                  if op.kind is not OpKind.COMPUTE)
    stores = sum(program.store_count for program in programs.values())
    return mem_ops, stores


def _stall_ns(stats: Dict[str, float]) -> float:
    return sum(v for k, v in stats.items() if k.startswith("stall."))


def _queue_ns(stats: Dict[str, float]) -> float:
    return (stats.get("traffic.pod_uplink.queue_ns", 0.0)
            + stats.get("traffic.inter_pod.queue_ns", 0.0))


class _MachineWorkload:
    """One timed machine run per repeat (``store_stream``, ``openloop_pods``)."""

    protocol = "cord"

    def config(self) -> SystemConfig:
        raise NotImplementedError

    def programs(self, seed: int, config: SystemConfig):
        raise NotImplementedError

    def setup(self, seed: int):
        config = self.config()
        machine = Machine(config, protocol=self.protocol, seed=seed)
        return machine, self.programs(seed, config)

    def run(self, prepared) -> Outcome:
        machine, programs = prepared
        result = machine.run(programs, max_events=MAX_EVENTS)
        stats = result.stats.as_dict()
        mem_ops, stores = _program_counts(programs)
        outcome = Outcome(
            units=1,
            digest=_final_state_hash(result, stats),
            events=machine.sim.processed_events,
            mem_ops=mem_ops,
            stores=stores,
            sim_time_ns=result.time_ns,
            inter_host_bytes=result.inter_host_bytes,
            queue_ns=_queue_ns(stats),
            stall_ns=_stall_ns(stats),
        )
        unfinished = [core_id for core_id, core in machine.cores.items()
                      if core.finish_time_ns is None]
        if unfinished:
            outcome.failures.append(f"cores {unfinished} never finished")
        self.check(outcome, stats)
        return outcome

    def check(self, outcome: Outcome, stats: Dict[str, float]) -> None:
        pass


class StoreStream(_MachineWorkload):
    """§5.3 micro-benchmark: one producer streaming 64 B relaxed stores
    to one peer host, a release every 1 KiB, 2 MiB in all."""

    name = "store_stream"
    spec = MicroSpec(store_granularity=64, sync_granularity=1024, fanout=1,
                     total_bytes=2 * 1024 * 1024)

    def config(self) -> SystemConfig:
        return default_config(CXL, hosts=2, cores_per_host=1)

    def programs(self, seed: int, config: SystemConfig):
        return build_micro_programs(self.spec, config)


class OpenLoopPods(_MachineWorkload):
    """Open-loop Poisson requests on 16 hosts in 4 pods, below saturation."""

    name = "openloop_pods"
    hosts, pods = 16, 4

    def config(self) -> SystemConfig:
        return (SystemConfig().scaled(self.hosts, 2)
                .with_interconnect(CXL).with_pods(self.pods))

    def spec(self, seed: int) -> OpenLoopSpec:
        return OpenLoopSpec(arrival="poisson", interarrival_ns=1_000.0,
                            requests=64, warmup=2, seed=seed)

    def programs(self, seed: int, config: SystemConfig):
        return build_openloop_programs(self.spec(seed), config)

    def check(self, outcome: Outcome, stats: Dict[str, float]) -> None:
        outcome.delivery_samples = int(
            stats.get(f"{DELIVERY_LATENCY_STAT}.count", 0))
        outcome.delivery_p50_ns = stats.get(f"{DELIVERY_LATENCY_STAT}.p50", 0.0)
        outcome.delivery_p99_ns = stats.get(f"{DELIVERY_LATENCY_STAT}.p99", 0.0)
        expected = self.hosts * self.spec(0).sampled_requests
        if outcome.delivery_samples != expected:
            outcome.failures.append(
                f"{outcome.delivery_samples} latency samples, expected "
                f"{expected} (producers x (requests - warmup))")


class AppSweep:
    """The Fig. 7 grid on CXL: every Table-2 app under mp/cord/so/wb,
    through the sweep executor with no result cache, serially."""

    name = "app_sweep"

    def setup(self, seed: int):
        config = default_config(CXL)
        # Fig. 7 leaves TQH under MP out: it hits the ISA2-style error
        # pattern (paper §3.2), as fig7_end_to_end does.
        specs = [
            RunSpec(kind="app", protocol=protocol,
                    workload=APPLICATIONS[name], config=config, seed=seed,
                    experiment="fig7")
            for name in app_names() for protocol in PROTOCOLS
            if not (protocol == "mp" and name == "TQH")
        ]
        mem_ops = stores = 0
        counts = {name: _program_counts(
            build_workload_programs(APPLICATIONS[name], config))
            for name in app_names()}
        for spec in specs:
            ops, st = counts[spec.workload.name]
            mem_ops += ops
            stores += st
        return Executor(cache_dir=None, jobs=1), specs, mem_ops, stores

    def run(self, prepared) -> Outcome:
        executor, specs, mem_ops, stores = prepared
        records = executor.map(specs)
        digest = hashlib.sha256("\n".join(
            record.final_state_hash for record in records).encode())
        return Outcome(
            units=len(specs),
            digest=digest.hexdigest(),
            events=sum(record.events for record in records),
            mem_ops=mem_ops,
            stores=stores,
            sim_time_ns=sum(record.time_ns for record in records),
            inter_host_bytes=sum(record.inter_host_bytes
                                 for record in records),
            queue_ns=sum(_queue_ns(record.stats) for record in records),
            stall_ns=sum(_stall_ns(record.stats) for record in records),
        )


def relabel(test: LitmusTest, seed: int, values: int) -> LitmusTest:
    """An isomorphic copy of ``test``: threads (with the location homes
    that follow them), location names and store values permuted by
    ``seed``.  The state space keeps its shape, so the work per repeat
    does not depend on the seed while the checker's inputs do."""
    rng = random.Random(seed)
    thread_of = list(range(test.threads))
    rng.shuffle(thread_of)
    names = sorted(test.locations)
    renamed = names[:]
    rng.shuffle(renamed)
    loc = dict(zip(names, renamed))
    shuffled = list(range(1, values + 1))
    rng.shuffle(shuffled)
    value = dict(zip(range(1, values + 1), shuffled))

    def op(abstract: Tuple) -> Tuple:
        kind = abstract[0]
        if kind == "st":
            _, name, stored, size, ordering = abstract
            return ("st", loc[name], value[stored], size, ordering)
        if kind == "ld":
            _, name, register, ordering = abstract
            return ("ld", loc[name], register, ordering)
        if kind == "fence":
            return abstract
        raise ValueError(f"relabel cannot map op kind {kind!r}")

    programs: List[List[Tuple]] = [[] for _ in test.programs]
    for thread, program in enumerate(test.programs):
        programs[thread_of[thread]] = [op(abstract) for abstract in program]
    return LitmusTest(
        name=f"{test.name}.relabel{seed}",
        locations={loc[name]: thread_of[home]
                   for name, home in test.locations.items()},
        programs=programs,
    )


class CheckerGen:
    """Serial model check of a generated suite: 4 threads, 2 locations,
    2 values, 2 ops per thread, under cord/so/tardis."""

    name = "checker_gen"
    params = GeneratorParams(threads=4, locations=2, values=2,
                             ops_per_thread=2)
    generator_seed = 0
    programs = 1
    protocols = ("cord", "so", "tardis")
    max_states = 500_000

    def setup(self, seed: int):
        tests = [relabel(generate_test(self.generator_seed + index,
                                       self.params),
                         seed, self.params.values)
                 for index in range(self.programs)]
        return [ModelChecker(test, protocol=protocol,
                             max_states=self.max_states, partial=True)
                for test in tests for protocol in self.protocols]

    def run(self, checkers) -> Outcome:
        outcome = Outcome(units=len(checkers))
        verdicts = []
        for checker in checkers:
            result = checker.run()
            missing = [pattern for pattern in checker.test.required
                       if not result.reaches(pattern)]
            label = f"{checker.test.name}@{checker.protocol}"
            if not result.complete:
                outcome.failures.append(
                    f"{label}: truncated at {self.max_states} states")
            elif not result.passed or missing:
                outcome.failures.append(f"{label}: failed its check")
            outcome.states += result.states_explored
            outcome.transitions += int(result.stats["transitions"])
            verdicts.append({
                "case": label,
                "states": result.states_explored,
                "deadlocks": result.deadlocks,
                "outcomes": sorted(json.dumps(o, sort_keys=True)
                                   for o in result.outcomes),
            })
        outcome.digest = hashlib.sha256(json.dumps(
            verdicts, sort_keys=True).encode()).hexdigest()
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (StoreStream(), AppSweep(), OpenLoopPods(), CheckerGen())
}
