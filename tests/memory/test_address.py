"""Tests for physical address mapping."""

import pytest

from repro.config import SystemConfig
from repro.interconnect import NodeId
from repro.memory import AddressMap


@pytest.fixture
def amap():
    return AddressMap(SystemConfig())  # 8 hosts x 8 slices, 4 GB regions


class TestLineMath:
    def test_line_address_truncates(self, amap):
        assert amap.line_address(0) == 0
        assert amap.line_address(63) == 0
        assert amap.line_address(64) == 64
        assert amap.line_address(130) == 128

    def test_lines_spanned(self, amap):
        assert amap.lines_spanned(0, 1) == 1
        assert amap.lines_spanned(0, 64) == 1
        assert amap.lines_spanned(0, 65) == 2
        assert amap.lines_spanned(60, 8) == 2
        assert amap.lines_spanned(0, 4096) == 64


class TestHostMapping:
    def test_host_regions_are_contiguous(self, amap):
        region = amap.host_region_bytes
        assert amap.host_of(0) == 0
        assert amap.host_of(region - 1) == 0
        assert amap.host_of(region) == 1
        assert amap.host_of(7 * region) == 7

    def test_address_beyond_last_host_rejected(self, amap):
        with pytest.raises(ValueError):
            amap.host_of(8 * amap.host_region_bytes)

    def test_address_in_host_roundtrip(self, amap):
        addr = amap.address_in_host(3, 0x1234)
        assert amap.host_of(addr) == 3
        assert addr % amap.host_region_bytes == 0x1234

    def test_offset_outside_region_rejected(self, amap):
        with pytest.raises(ValueError):
            amap.address_in_host(0, amap.host_region_bytes)

    def test_negative_offset_rejected(self, amap):
        with pytest.raises(ValueError, match=r"valid offsets are \[0, "):
            amap.address_in_host(0, -5)

    def test_host_beyond_config_rejected(self):
        four_hosts = AddressMap(SystemConfig().scaled(hosts=4))
        with pytest.raises(ValueError, match="valid hosts are 0..3"):
            four_hosts.address_in_host(7, 0)
        with pytest.raises(ValueError, match="valid hosts are 0..3"):
            four_hosts.address_in_host(-1, 0)

    def test_negative_address_rejected(self, amap):
        with pytest.raises(ValueError, match="hosts 0..7"):
            amap.host_of(-64)


class TestSliceInterleaving:
    def test_consecutive_lines_interleave_across_slices(self, amap):
        slices = [amap.slice_of(line * 64) for line in range(8)]
        assert slices == list(range(8))

    def test_same_line_same_slice(self, amap):
        assert amap.slice_of(0) == amap.slice_of(63)

    def test_home_directory_matches_host_and_slice(self, amap):
        addr = amap.address_in_host(2, 64)  # host 2, line 1 -> slice 1
        home = amap.home_directory(addr)
        assert home.kind == "dir"
        assert home.host == 2
        assert home.index == 2 * 8 + 1

    def test_home_directory_deterministic(self, amap):
        addr = amap.address_in_host(5, 0x8000)
        assert amap.home_directory(addr) == amap.home_directory(addr)

    def test_home_directory_matches_host_and_slice_formula(self):
        config = SystemConfig().scaled(hosts=3, cores_per_host=4)
        amap = AddressMap(config)
        slices = config.slices_per_host
        last_lines = amap.host_region_bytes - 64 * slices
        seen = set()
        for host in range(config.hosts):
            for offset in (0, last_lines):
                for line in range(slices):
                    addr = amap.address_in_host(host, offset + 64 * line)
                    expected = NodeId.directory(
                        amap.host_of(addr) * slices + amap.slice_of(addr),
                        host)
                    assert amap.home_directory(addr) == expected
                    assert amap.home_directory(addr + 63) == expected
                    seen.add(expected.index)
        assert seen == set(range(config.total_directories))

    def test_home_directory_rejects_addresses_outside_memory(self, amap):
        for addr in (-64, -1, amap.limit, amap.limit + 64):
            with pytest.raises(ValueError, match="outside the physical"):
                amap.home_directory(addr)
