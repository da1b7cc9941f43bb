"""Physical memory map: flash, SRAM, and memory-mapped I/O.

The map mirrors Figure 2 of the paper: code in flash, data/stack in
SRAM, peripherals at fixed bus addresses, core peripherals on the
Private Peripheral Bus.  Accesses that hit no mapped range raise
:class:`HardFault` (the real bus would raise a fault too); MPU and
privilege checks happen one layer up, in :class:`repro.hw.machine.Machine`.
"""

from __future__ import annotations

from typing import Optional, Protocol

from ..obs.metrics import Counter
from .exceptions import HardFault


class MMIODevice(Protocol):
    """Interface of a memory-mapped device model.

    **Quiet reads.**  A read that has no side effect and whose value
    cannot change before some future cycle — a status register polled
    while the device is still busy — may be reported from inside
    ``mmio_read`` through ``machine.quiet_read(deadline)``, where
    ``deadline`` is the first cycle at which the same read can return
    a different value.  The interpreter's idle skipping fast-forwards
    polling loops whose every MMIO read was reported quiet; a read a
    device does not report is treated as observable, so reporting is
    optional and never changes what a run computes.
    """

    def mmio_read(self, offset: int, size: int) -> int: ...

    def mmio_write(self, offset: int, size: int, value: int) -> None: ...


class Region:
    """A contiguous mapped address range."""

    def __init__(self, name: str, base: int, size: int):
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def read(self, address: int, size: int) -> int:
        raise NotImplementedError

    def write(self, address: int, size: int, value: int) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name} 0x{self.base:08X}+0x{self.size:X}>"


class RamRegion(Region):
    """Plain byte-addressable RAM."""

    def __init__(self, name: str, base: int, size: int):
        super().__init__(name, base, size)
        self.data = bytearray(size)

    def read(self, address: int, size: int) -> int:
        off = address - self.base
        return int.from_bytes(self.data[off : off + size], "little")

    def write(self, address: int, size: int, value: int) -> None:
        off = address - self.base
        self.data[off : off + size] = (value & ((1 << (size * 8)) - 1)).to_bytes(
            size, "little"
        )

    def read_bytes(self, address: int, length: int) -> bytes:
        if address < self.base or address + length > self.end:
            # Slicing past the bytearray end would silently return
            # short data; bulk reads must stay within the region.
            raise HardFault(
                f"bulk read of 0x{length:X} bytes at 0x{address:08X} "
                f"leaves region {self.name}"
            )
        off = address - self.base
        return bytes(self.data[off : off + length])

    def write_bytes(self, address: int, blob: bytes) -> None:
        if address < self.base or address + len(blob) > self.end:
            # Slice assignment past the end would *grow* the backing
            # bytearray — memory the bus does not have.
            raise HardFault(
                f"bulk write of 0x{len(blob):X} bytes at 0x{address:08X} "
                f"leaves region {self.name}"
            )
        off = address - self.base
        self.data[off : off + len(blob)] = blob


class FlashRegion(RamRegion):
    """Flash: writable only through the programmer (image load)."""

    def write(self, address: int, size: int, value: int) -> None:
        raise HardFault(f"write to flash at 0x{address:08X}")

    def program(self, address: int, blob: bytes) -> None:
        """Burn bytes into flash (used by the image loader only)."""
        off = address - self.base
        self.data[off : off + len(blob)] = blob


class MMIORegion(Region):
    """A device's register window.

    ``reads`` counts device reads; :meth:`MemoryMap.map` swaps in the
    map-wide counter, so the machine sees every MMIO read in one cell.
    """

    def __init__(self, name: str, base: int, size: int, device: MMIODevice):
        super().__init__(name, base, size)
        self.device = device
        self.reads = Counter("mmio_reads")

    def read(self, address: int, size: int) -> int:
        self.reads.value += 1
        return self.device.mmio_read(address - self.base, size)

    def write(self, address: int, size: int, value: int) -> None:
        self.device.mmio_write(address - self.base, size, value)


class MemoryMap:
    """The full physical address space of the simulated SoC."""

    def __init__(self):
        self.regions: list[Region] = []
        self._cache: Optional[Region] = None
        self.mmio_reads = Counter("mmio_reads")

    def map(self, region: Region) -> Region:
        for existing in self.regions:
            if region.base < existing.end and existing.base < region.end:
                raise ValueError(
                    f"region {region.name} overlaps {existing.name}"
                )
        if isinstance(region, MMIORegion):
            region.reads = self.mmio_reads
        self.regions.append(region)
        self.regions.sort(key=lambda r: r.base)
        self._cache = None
        return region

    def find(self, address: int) -> Optional[Region]:
        cached = self._cache
        if cached is not None and cached.contains(address):
            return cached
        for region in self.regions:
            if region.contains(address):
                self._cache = region
                return region
        return None

    def region_for(self, address: int) -> Region:
        region = self.find(address)
        if region is None:
            raise HardFault(f"access to unmapped address 0x{address:08X}")
        return region

    def read(self, address: int, size: int) -> int:
        # Last-region fast path: the common SRAM access skips the scan.
        region = self._cache
        if (region is None or address < region.base
                or address + size > region.end):
            region = self.region_for(address)
            if address + size > region.end:
                raise HardFault(
                    f"access crosses region end at 0x{address:08X}"
                )
        return region.read(address, size)

    def write(self, address: int, size: int, value: int) -> None:
        region = self._cache
        if (region is None or address < region.base
                or address + size > region.end):
            region = self.region_for(address)
            if address + size > region.end:
                raise HardFault(
                    f"access crosses region end at 0x{address:08X}"
                )
        region.write(address, size, value)

    def read_bytes(self, address: int, length: int) -> bytes:
        """Bulk read (DMA / monitor use); must stay within one region."""
        region = self.region_for(address)
        if address + length > region.end:
            raise HardFault(
                f"bulk read crosses region end at 0x{address:08X}"
                f"+0x{length:X}"
            )
        if isinstance(region, RamRegion):
            return region.read_bytes(address, length)
        return bytes(
            region.read(address + i, 1) for i in range(length)
        )

    def write_bytes(self, address: int, blob: bytes) -> None:
        """Bulk write (DMA / monitor use); must stay within one region."""
        region = self.region_for(address)
        if isinstance(region, FlashRegion):
            raise HardFault(f"bulk write to flash at 0x{address:08X}")
        if address + len(blob) > region.end:
            raise HardFault(
                f"bulk write crosses region end at 0x{address:08X}"
                f"+0x{len(blob):X}"
            )
        if isinstance(region, RamRegion):
            region.write_bytes(address, blob)
            return
        for i, byte in enumerate(blob):
            region.write(address + i, 1, byte)
