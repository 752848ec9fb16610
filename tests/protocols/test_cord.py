"""Tests for the CORD protocol actors."""

import pytest

from repro import Machine, ProgramBuilder, SystemConfig
from repro.config import CordConfig
from repro.core.processor import CordProcessorState
from repro.protocols.table import INTERPRETED_ENV
from tests.protocols.conftest import producer_consumer


class TestSingleDirectory:
    def test_producer_consumer_value_flows(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        programs, _, _ = producer_consumer(machine)
        result = machine.run(programs)
        assert result.history.register(1, "r0") == 42

    def test_relaxed_stores_unacknowledged(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(8):
            builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
        result = machine.run({0: builder.build()})
        assert result.message_count("wt_rlx") == 8
        assert result.message_count("rel_ack") == 0
        assert result.message_count("wt_ack") == 0

    def test_release_is_acknowledged_but_core_does_not_stall(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        amap = machine.address_map
        program = (ProgramBuilder()
                   .store(amap.address_in_host(1, 0x1000), size=64)
                   .release_store(amap.address_in_host(1, 0x2000))
                   .build())
        result = machine.run({0: program})
        assert result.message_count("rel_ack") == 1
        # No processor stall (the SO comparison point of Fig. 1/Fig. 5).
        assert result.stall_ns("release_table") == 0
        assert result.time_ns < machine.config.interconnect.inter_host_latency_ns

    def test_release_blocked_until_relaxed_arrive(self, two_hosts):
        """Directory ordering: the flag commits only after the data."""
        machine = Machine(two_hosts, protocol="cord")
        programs, data, flag = producer_consumer(machine)
        result = machine.run(programs)
        events = result.history.events
        data_commit = next(e for e in events if e.addr == data and e.is_store)
        flag_commit = next(e for e in events if e.addr == flag and e.is_store)
        assert data_commit.uid < flag_commit.uid  # commit order at the LLC

    def test_cord_faster_than_so_for_producer_consumer(self, two_hosts):
        def run(protocol):
            machine = Machine(two_hosts, protocol=protocol)
            programs, _, _ = producer_consumer(machine)
            return machine.run(programs).time_ns

        assert run("cord") < run("so")


class TestMultiDirectory:
    def test_notifications_flow_between_directories(self, two_hosts_two_slices):
        machine = Machine(two_hosts_two_slices, protocol="cord")
        amap = machine.address_map
        data = amap.address_in_host(1, 0)      # slice 0 of host 1
        flag = amap.address_in_host(1, 64)     # slice 1 of host 1
        assert amap.home_directory(data) != amap.home_directory(flag)
        producer = (ProgramBuilder()
                    .store(data, value=7, size=64)
                    .release_store(flag, value=1)
                    .build())
        consumer = (ProgramBuilder()
                    .load_until(flag, 1)
                    .load(data, register="r0")
                    .build())
        result = machine.run({0: producer, 2: consumer})
        assert result.history.register(2, "r0") == 7
        total = lambda t: (result.message_count(t, "inter_host")
                           + result.message_count(t, "intra_host"))
        assert total("req_notify") == 1
        assert total("notify") == 1

    def test_fig5_control_message_count(self):
        """m relaxed stores to n-1 dirs + 1 release: 2n-1 control messages."""
        config = SystemConfig().scaled(hosts=4, cores_per_host=1)
        machine = Machine(config, protocol="cord")
        amap = machine.address_map
        builder = ProgramBuilder()
        m, pending_dirs = 6, 2
        for i in range(m):
            target = 1 + (i % pending_dirs)     # hosts 1..2 = dirs 1..2
            builder.store(amap.address_in_host(target, 0x1000 + 64 * i))
        builder.release_store(amap.address_in_host(3, 0x2000))  # dir 3
        result = machine.run({0: builder.build()})
        n = pending_dirs + 1
        total = lambda t: (result.message_count(t, "inter_host")
                           + result.message_count(t, "intra_host"))
        assert total("req_notify") == n - 1
        assert total("notify") == n - 1
        assert total("rel_ack") == 1
        # 2n - 1 control messages in total (Fig. 5).
        assert total("req_notify") + total("notify") + total("rel_ack") \
            == 2 * n - 1

    def test_release_chain_across_directories_preserves_order(
        self, two_hosts_two_slices
    ):
        """Two back-to-back releases to different directories commit in
        program order (lastPrevEp + notification chaining)."""
        machine = Machine(two_hosts_two_slices, protocol="cord")
        amap = machine.address_map
        flag_a = amap.address_in_host(1, 0)
        flag_b = amap.address_in_host(1, 64)
        producer = (ProgramBuilder()
                    .release_store(flag_a, value=1)
                    .release_store(flag_b, value=1)
                    .build())
        consumer = (ProgramBuilder()
                    .load_until(flag_b, 1)
                    .load(flag_a, register="r0")
                    .build())
        result = machine.run({0: producer, 2: consumer})
        assert result.history.register(2, "r0") == 1


class TestBoundedStorage:
    def test_tiny_unacked_table_stalls_but_completes(self, two_hosts):
        from dataclasses import replace
        config = replace(two_hosts, cord=CordConfig(
            proc_unacked_epoch_entries=1,
        ))
        machine = Machine(config, protocol="cord")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(6):
            builder.release_store(amap.address_in_host(1, 0x1000 + 64 * i))
        builder.fence()
        result = machine.run({0: builder.build()})
        assert result.stall_ns("release_table") > 0
        assert result.message_count("rel_ack") >= 6

    def test_counter_overflow_injects_barrier_release(self, two_hosts,
                                                      monkeypatch):
        from dataclasses import replace

        # Compiled timed stores issue through the fused check-and-issue
        # entry point, never through the raising wrapper.
        def unexpected(self, directory):
            raise AssertionError("timed store bypassed try_relaxed_store")

        monkeypatch.setattr(CordProcessorState, "on_relaxed_store",
                            unexpected)
        monkeypatch.delenv(INTERPRETED_ENV, raising=False)
        config = replace(two_hosts, cord=CordConfig(counter_bits=2))
        machine = Machine(config, protocol="cord")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(8):   # > 2^2 relaxed stores to one directory
            builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
        builder.fence()
        result = machine.run({0: builder.build()})
        assert result.message_count("wt_rlx") == 8
        # Barrier releases (empty) were injected to reset the counter.
        assert result.message_count("wt_rel") >= 2
        # Each overflowing attempt recorded its §4.3 stall reason.
        stalls = machine.cores[0].port.cord.stalls
        assert stalls == {"store-counter-overflow":
                          result.message_count("wt_rel") - 1}

    def test_one_stall_check_per_relaxed_store(self, two_hosts, monkeypatch):
        """The §4.3 relaxed check runs once per issued store: the
        compiled row's fused entry point both checks and issues."""
        checks = []
        original = CordProcessorState.relaxed_stall_reason

        def counting(self, directory):
            checks.append(directory)
            return original(self, directory)

        monkeypatch.setattr(CordProcessorState, "relaxed_stall_reason",
                            counting)
        monkeypatch.delenv(INTERPRETED_ENV, raising=False)
        machine = Machine(two_hosts, protocol="cord")
        amap = machine.address_map
        builder = ProgramBuilder()
        stores = 16
        for i in range(stores):
            builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
        result = machine.run({0: builder.build()})
        assert result.message_count("wt_rlx") == stores
        assert len(checks) == stores


class TestFences:
    def test_release_fence_drains_pending_directories(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        amap = machine.address_map
        program = (ProgramBuilder()
                   .store(amap.address_in_host(1, 0x1000), size=64)
                   .fence()
                   .build())
        result = machine.run({0: program})
        # The fence issued an empty Release and waited for its ack.
        assert result.message_count("wt_rel") == 1
        assert result.message_count("rel_ack") == 1
        assert result.stall_ns("fence_ack") > 0

    def test_fence_with_nothing_pending_is_free(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord")
        result = machine.run({0: ProgramBuilder().fence().build()})
        assert result.message_count("wt_rel") == 0
        assert result.time_ns == 0.0


class TestTsoMode:
    def test_every_store_release_ordered_under_tso(self, two_hosts):
        machine = Machine(two_hosts, protocol="cord", consistency="tso")
        amap = machine.address_map
        builder = ProgramBuilder()
        for i in range(4):
            builder.store(amap.address_in_host(1, 0x1000 + 64 * i))
        result = machine.run({0: builder.build()})
        assert result.message_count("wt_rel") == 4
        assert result.message_count("wt_rlx") == 0
        assert result.message_count("rel_ack") == 4
