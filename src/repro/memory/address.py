"""Physical address mapping: addresses -> hosts -> home LLC slices.

Per Table 1, each host owns a contiguous region of the shared physical
address space (4 GB of HBM by default).  Within a host, cache lines are
interleaved across its LLC slices, so the *home directory* of a line is a
deterministic function of the address.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.interconnect.message import NodeId

__all__ = ["AddressMap"]


class AddressMap:
    """Maps physical addresses to home hosts, slices and directory nodes."""

    def __init__(self, config: SystemConfig) -> None:
        self.config = config
        self.line_bytes = config.llc_slice.line_bytes
        self.host_region_bytes = config.memory.size_bytes
        self.hosts = config.hosts
        self.slices_per_host = config.slices_per_host
        #: One past the last valid physical address.
        self.limit = self.hosts * self.host_region_bytes
        # Every directory node, indexed by global slice: the home lookup is
        # two divisions and a tuple index, with no per-address state.
        self._directories = tuple(
            NodeId.directory(index, index // self.slices_per_host)
            for index in range(self.hosts * self.slices_per_host)
        )

    def _out_of_range(self, addr: int) -> ValueError:
        return ValueError(
            f"address {addr:#x} outside the physical address space "
            f"[0, {self.limit:#x}) of hosts 0..{self.hosts - 1}"
        )

    def line_address(self, addr: int) -> int:
        return addr - (addr % self.line_bytes)

    def host_of(self, addr: int) -> int:
        if not 0 <= addr < self.limit:
            raise self._out_of_range(addr)
        return addr // self.host_region_bytes

    def slice_of(self, addr: int) -> int:
        """Local slice index within the home host (line interleaving)."""
        line = self.line_address(addr) // self.line_bytes
        return line % self.slices_per_host

    def home_directory(self, addr: int) -> NodeId:
        if not 0 <= addr < self.limit:
            raise self._out_of_range(addr)
        slices = self.slices_per_host
        return self._directories[addr // self.host_region_bytes * slices
                                 + addr // self.line_bytes % slices]

    def address_in_host(self, host: int, offset: int) -> int:
        """Physical address at byte ``offset`` into ``host``'s memory region."""
        if not 0 <= host < self.hosts:
            raise ValueError(
                f"host {host} out of range: valid hosts are "
                f"0..{self.hosts - 1}"
            )
        if not 0 <= offset < self.host_region_bytes:
            raise ValueError(
                f"offset {offset:#x} outside host region: valid offsets "
                f"are [0, {self.host_region_bytes:#x})"
            )
        return host * self.host_region_bytes + offset

    def lines_spanned(self, addr: int, size: int) -> int:
        """Number of cache lines a [addr, addr+size) access touches."""
        first = self.line_address(addr)
        last = self.line_address(addr + size - 1)
        return (last - first) // self.line_bytes + 1
