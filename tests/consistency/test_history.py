"""Tests for execution histories."""

from repro.consistency import (
    EventKind,
    ExecutionHistory,
    HistoryEvent,
    Ordering,
)


class TestRecording:
    def test_uids_monotonic(self):
        history = ExecutionHistory()
        a = history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        b = history.record(0, 1, EventKind.LOAD, Ordering.RELAXED, 0x1, 1)
        assert b.uid == a.uid + 1

    def test_len_and_iter(self):
        history = ExecutionHistory()
        for i in range(5):
            history.record(0, i, EventKind.STORE, Ordering.RELAXED, i, i)
        assert len(history) == 5
        assert len(list(history)) == 5

    def test_by_core_sorted_by_program_index(self):
        history = ExecutionHistory()
        history.record(1, 2, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        history.record(1, 0, EventKind.STORE, Ordering.RELAXED, 0x2, 2)
        history.record(0, 0, EventKind.LOAD, Ordering.ACQUIRE, 0x1, 1)
        cores = history.by_core()
        assert set(cores) == {0, 1}
        assert [e.program_index for e in cores[1]] == [0, 2]

    def test_stores_to_filters_by_addr(self):
        history = ExecutionHistory()
        history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 0x1, 1)
        history.record(0, 1, EventKind.STORE, Ordering.RELAXED, 0x2, 2)
        history.record(1, 0, EventKind.LOAD, Ordering.RELAXED, 0x1, 1)
        assert len(history.stores_to(0x1)) == 1


class TestHistoryEvent:
    def test_fields_equality_and_kind_predicates(self):
        history = ExecutionHistory()
        store = history.record(2, 5, EventKind.STORE, Ordering.RELEASE,
                               0x40, 7)
        assert store == HistoryEvent(0, 2, 5, EventKind.STORE,
                                     Ordering.RELEASE, 0x40, 7)
        assert (store.uid, store.core, store.program_index) == (0, 2, 5)
        assert store.kind is EventKind.STORE
        assert store.ordering is Ordering.RELEASE
        assert (store.addr, store.value) == (0x40, 7)
        assert store.is_store and not store.is_load
        load = history.record(3, 0, EventKind.LOAD, Ordering.ACQUIRE)
        assert (load.addr, load.value) == (None, None)
        assert load.is_load and not load.is_store
        assert load != store
        fence = HistoryEvent(9, 0, 1, EventKind.FENCE, Ordering.ACQ_REL)
        assert not fence.is_store and not fence.is_load


class TestRegisters:
    def test_set_and_get(self):
        history = ExecutionHistory()
        history.set_register(2, "r1", 42)
        assert history.register(2, "r1") == 42
        assert history.register(2, "r2") is None

    def test_register_outcome_flattening(self):
        history = ExecutionHistory()
        history.set_register(0, "r1", 1)
        history.set_register(1, "r0", 0)
        assert history.register_outcome() == {"P0:r1": 1, "P1:r0": 0}

    def test_event_store_load_flags(self):
        history = ExecutionHistory()
        store = history.record(0, 0, EventKind.STORE, Ordering.RELAXED, 1, 1)
        load = history.record(0, 1, EventKind.LOAD, Ordering.RELAXED, 1, 1)
        fence = history.record(0, 2, EventKind.FENCE, Ordering.ACQ_REL)
        assert store.is_store and not store.is_load
        assert load.is_load and not load.is_store
        assert not fence.is_store and not fence.is_load
