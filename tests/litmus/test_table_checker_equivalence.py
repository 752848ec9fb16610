"""Golden checker signatures, plus the fence-batch regression.

The model checker explores each protocol through its transition table
(:mod:`repro.protocols.spec`).  ``tests/data/checker_signatures.json``
pins the *state graph* it explores — state count, transition count,
deadlock count and final outcome set — for every classic litmus case
under so/cord/mp/seq2, two TSO cases and the starved-table fence batch.
The counts are those of the unreduced search.  They replaced an older
recording made under symmetry reduction (since deleted); every outcome
set and deadlock count equals that recording's, entry by entry.  The
file was first recorded while a second, hand-written transition model
still existed and agreed with the tables on every entry, so a drift
here means the tables no longer encode the protocol they were checked
against.
"""

import json
from pathlib import Path

import pytest

from repro.config import CordConfig
from repro.litmus.dsl import (
    LitmusTest,
    fence_rel,
    ld,
    ld_acq,
    st,
    st_rel,
)
from repro.litmus.model_checker import ModelChecker
from repro.litmus.suite import classic_tests

PROTOCOLS = ("so", "cord", "mp", "seq2")

GOLDEN_PATH = Path(__file__).parents[1] / "data" / "checker_signatures.json"


def _signature(test, protocol, **kwargs):
    result = ModelChecker(test, protocol, max_states=200_000,
                          **kwargs).run()
    outcomes = sorted(
        ",".join(f"{reg}={value}"
                 for reg, value in sorted(final.outcome.items()))
        for final in result.finals
    )
    return {"states": result.states_explored,
            "transitions": int(result.stats["transitions"]),
            "deadlocks": result.deadlocks, "outcomes": outcomes}


def _golden(label):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert label in golden, f"no golden signature for {label}"
    return golden[label]


class TestCheckerEquivalence:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_classic_suite_identical_state_graphs(self, protocol):
        for test in classic_tests():
            label = f"{test.name}/{protocol}"
            assert _signature(test, protocol) == _golden(label), (
                f"{label}: exploration drifted from the golden signature"
            )

    def test_tso_mode_identical(self):
        test = classic_tests()[0]
        for protocol in ("so", "cord"):
            label = f"{test.name}/{protocol}/tso"
            assert _signature(test, protocol, tso=True) == _golden(label)

    def test_golden_file_has_no_stale_entries(self):
        labels = {f"{test.name}/{protocol}"
                  for protocol in PROTOCOLS for test in classic_tests()}
        labels |= {f"{classic_tests()[0].name}/{protocol}/tso"
                   for protocol in ("so", "cord")}
        labels.add("fence-batch/cord/tiny-tables")
        assert set(json.loads(GOLDEN_PATH.read_text())) == labels


#: Relaxed stores to two homes, then a release fence: the fence must
#: broadcast one barrier Release per pending directory in a single step.
FENCE_BATCH = LitmusTest(
    name="fence-batch",
    locations={"x": 0, "y": 1, "flag": 1},
    programs=[
        [st("x", 1), st("y", 1), fence_rel(), st("flag", 1)],
        [ld_acq("flag", "r0"), ld("x", "r1"), ld("y", "r2")],
    ],
    forbidden=[{"P1:r0": 1, "P1:r1": 0}, {"P1:r0": 1, "P1:r2": 0}],
)

#: Starved tables: a 2-entry unacked-epoch table and 3-entry directory
#: partitions make the 2-barrier fence batch brush every capacity bound.
TINY_CORD = CordConfig(
    epoch_bits=2,
    proc_unacked_epoch_entries=2,
    proc_store_counter_entries=2,
    dir_store_counter_entries_per_proc=3,
    dir_notification_entries_per_proc=3,
)


class TestCordFenceBatch:
    """Divergence fix: a release fence issues its barrier batch atomically,
    so the whole batch — not just the first barrier — must fit the
    unacked-epoch table, the epoch window and the directory partitions.
    Guarding only the first issue crashed exploration (``release store
    must stall``) on under-provisioned configs."""

    def test_starved_tables_explore_without_crashing(self):
        result = ModelChecker(FENCE_BATCH, "cord", cord_config=TINY_CORD,
                              max_states=200_000).run()
        assert result.states_explored > 0
        for final in result.finals:
            assert FENCE_BATCH.matches_forbidden(final.outcome) is None

    def test_starved_tables_signature_is_pinned(self):
        assert (_signature(FENCE_BATCH, "cord", cord_config=TINY_CORD)
                == _golden("fence-batch/cord/tiny-tables"))

    def test_batch_reason_bounds_whole_batch(self):
        from repro.core.processor import CordProcessorState
        from repro.protocols.spec import cord_barrier_batch_reason

        config = CordConfig(proc_unacked_epoch_entries=2,
                            proc_store_counter_entries=8)

        # No pending directories: nothing to broadcast, nothing to stall.
        idle = CordProcessorState(0, config)
        assert cord_barrier_batch_reason(idle) is None

        # Three pending directories vs a 2-entry unacked table: the first
        # barrier alone would fit (a first-issue guard passes), the batch
        # cannot.
        cord = CordProcessorState(0, config)
        for directory in (0, 1, 2):
            cord.on_relaxed_store(directory)
        reason = cord_barrier_batch_reason(cord)
        assert reason is not None
        assert cord.release_stall_reason(0) is None  # first-issue guard blind

        # Two pending directories fit the 2-entry table: the batch clears.
        cord = CordProcessorState(0, config)
        cord.on_relaxed_store(0)
        cord.on_relaxed_store(1)
        assert cord_barrier_batch_reason(cord) is None


class TestStoresDrainedGate:
    """Divergence fix: terminal states must drain *every* protocol's
    in-flight stores — the gate ignored SEQ's outstanding sequence
    numbers, so exploration could declare a state final (or deadlocked)
    with seq stores still buffered at a directory."""

    def test_seq_message_passing_is_clean(self):
        test = LitmusTest(
            name="seq-mp",
            locations={"x": 0, "flag": 1},
            programs=[
                [st("x", 1), st_rel("flag", 1)],
                [ld_acq("flag", "r0"), ld("x", "r1")],
            ],
            forbidden=[{"P1:r0": 1, "P1:r1": 0}],
        )
        result = ModelChecker(test, "seq2", max_states=200_000).run()
        assert result.deadlocks == 0
        for final in result.finals:
            assert test.matches_forbidden(final.outcome) is None
