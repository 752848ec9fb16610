"""Visited-set keys: completeness of the CORD component keys.

The checker keys each CORD processor/directory state by its compact
``checker_key()``, which lists the keyed fields by hand.  The guard below
classifies every instance attribute as keyed, static for a whole checker
run, or statistics, so a new mutable field cannot silently fall out of
the key: it fails here until someone decides which set it belongs to.
"""

import pytest

from repro.config import CordConfig
from repro.core.directory import CordDirectoryState
from repro.core.messages import NotifyMeta, RelaxedMeta
from repro.core.processor import CordProcessorState
from repro.core.seqnum import SequenceSpace
from repro.core.tables import BoundedTable, PartitionedTable
from repro.litmus import model_checker as mc

#: class -> (keyed, static per checker run, statistics and observers).
#: Static fields are the same in every state of one run or fixed by the
#: component's position in ``state.cores`` / ``state.dirs``.
FIELDS = {
    CordProcessorState: (
        {"epoch", "store_counters", "unacked"},
        {"config", "proc"},
        {"relaxed_issued", "releases_issued", "stalls", "on_transition"},
    ),
    CordDirectoryState: (
        {"store_counters", "notification_counters", "largest_committed"},
        {"config", "directory"},
        {"relaxed_committed", "releases_committed", "notifications_sent"},
    ),
    BoundedTable: (
        {"_entries"},
        {"name", "capacity", "entry_bytes"},
        {"insertions", "peak_occupancy"},
    ),
    PartitionedTable: (
        {"_partitions"},
        {"name", "entries_per_proc", "entry_bytes"},
        set(),
    ),
    SequenceSpace: ({"value"}, {"bits"}, set()),
}


def _components():
    config = CordConfig()
    proc = CordProcessorState(0, config)
    proc.on_relaxed_store(1)
    directory = CordDirectoryState(1, procs=2, config=config)
    directory.on_relaxed(proc.on_relaxed_store(1))
    return [proc, proc.clone(), directory, directory.clone()]


def _parts(component):
    """The component and every sub-object whose fields feed its key."""
    yield component
    for name in FIELDS[type(component)][0]:
        value = getattr(component, name)
        if isinstance(value, PartitionedTable):
            yield value
            yield from value._partitions.values()
        elif type(value) in FIELDS:
            yield value


class TestKeyCompleteness:
    def test_field_sets_are_disjoint(self):
        for keyed, static, stats in FIELDS.values():
            assert not (keyed & static or keyed & stats or static & stats)

    @pytest.mark.parametrize("index", range(4),
                             ids=["proc", "proc.clone", "dir", "dir.clone"])
    def test_every_field_is_classified(self, index):
        for obj in _parts(_components()[index]):
            keyed, static, stats = FIELDS[type(obj)]
            unclassified = set(mc._attr_state(obj)) - keyed - static - stats
            assert not unclassified, (
                f"{type(obj).__name__} has fields {sorted(unclassified)} "
                f"that are neither keyed, static nor statistics; add them "
                f"to checker_key() or to a set here")

    def test_keyed_fields_reach_the_key(self):
        config = CordConfig()
        proc = CordProcessorState(0, config)
        keys = [proc.checker_key()]
        proc.on_relaxed_store(1)                 # store counters
        keys.append(proc.checker_key())
        proc.on_release_store(0)                 # epoch and unacked
        keys.append(proc.checker_key())
        assert len(set(keys)) == 3

        directory = CordDirectoryState(0, procs=2, config=config)
        keys = [directory.checker_key()]
        directory.on_relaxed(RelaxedMeta(proc=0, epoch=0))
        keys.append(directory.checker_key())
        directory.on_notify(NotifyMeta(proc=0, epoch=0))
        keys.append(directory.checker_key())
        clean = CordProcessorState(1, config)
        directory.commit_release(clean.on_release_store(0).release)
        keys.append(directory.checker_key())     # largest_committed
        assert len(set(keys)) == 4

    def test_statistics_stay_out_of_the_key(self):
        proc = CordProcessorState(0, CordConfig())
        key = proc.checker_key()
        proc.relaxed_issued = proc.releases_issued = 7
        proc.stalls["epoch-wrap"] = 3
        proc.store_counters.insertions = 9
        assert proc.checker_key() == key

