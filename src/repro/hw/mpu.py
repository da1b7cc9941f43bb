"""ARMv7-M Memory Protection Unit model.

Implements the MPU semantics the whole OPEC design hinges on (§2.2):

* eight regions, each with a power-of-two size (minimum 32 bytes) and a
  base address aligned to that size;
* when regions overlap, the **highest-numbered** enabled region decides
  the access permission;
* each region splits into eight equal sub-regions that can be disabled
  individually; a disabled sub-region falls through to lower-numbered
  regions (this is what OPEC's stack protection exploits, §5.2);
* with ``PRIVDEFENA`` set, privileged code falls back to the default
  memory map when no region matches; unprivileged code faults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .backend import NUM_REGIONS, EnforcementBackend

ACCESS_NONE = "NA"
ACCESS_READ = "RO"
ACCESS_READWRITE = "RW"

MIN_REGION_SIZE = 32
NUM_SUBREGIONS = 8


def is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


def region_size_for(length: int) -> int:
    """Smallest legal MPU region size covering ``length`` bytes."""
    size = MIN_REGION_SIZE
    while size < length:
        size <<= 1
    return size


def align_base(address: int, size: int) -> int:
    """Round ``address`` down to a legal base for a region of ``size``."""
    return address & ~(size - 1)


@dataclass
class MPURegion:
    """One MPU region descriptor.

    ``priv`` / ``unpriv`` are the access permissions at each privilege
    level, one of ``"NA"``, ``"RO"``, ``"RW"``.  ``subregion_disable``
    is an 8-bit mask; bit *i* set disables sub-region *i* (lowest
    addresses first, matching the SRD field).
    """

    number: int
    base: int
    size: int
    priv: str = ACCESS_READWRITE
    unpriv: str = ACCESS_NONE
    executable: bool = False
    subregion_disable: int = 0
    enabled: bool = True

    def __post_init__(self) -> None:
        if not 0 <= self.number < NUM_REGIONS:
            raise ValueError(f"region number {self.number} out of range")
        if not is_power_of_two(self.size) or self.size < MIN_REGION_SIZE:
            raise ValueError(f"illegal region size {self.size}")
        if self.base % self.size != 0:
            raise ValueError(
                f"base 0x{self.base:08X} not aligned to size 0x{self.size:X}"
            )
        if self.priv not in (ACCESS_NONE, ACCESS_READ, ACCESS_READWRITE):
            raise ValueError(f"bad priv access {self.priv!r}")
        if self.unpriv not in (ACCESS_NONE, ACCESS_READ, ACCESS_READWRITE):
            raise ValueError(f"bad unpriv access {self.unpriv!r}")
        if not 0 <= self.subregion_disable < 256:
            raise ValueError("subregion_disable must be an 8-bit mask")

    @property
    def subregion_size(self) -> int:
        return self.size // NUM_SUBREGIONS

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end

    def subregion_of(self, address: int) -> int:
        return (address - self.base) // self.subregion_size

    def matches(self, address: int) -> bool:
        """True if this region claims ``address`` (sub-region enabled)."""
        if not self.enabled or not self.contains(address):
            return False
        return not (self.subregion_disable >> self.subregion_of(address)) & 1

    def permits(self, privileged: bool, write: bool) -> bool:
        access = self.priv if privileged else self.unpriv
        if access == ACCESS_NONE:
            return False
        if write and access != ACCESS_READWRITE:
            return False
        return True


class MPU(EnforcementBackend):
    """The MPU: eight region slots plus the control register bits.

    Arbitrates the base class's ``regions`` table directly — there is
    no lowering step — with the §2.2 highest-numbered-region scan.
    """

    # EnforcementBackend identity + cost model.  A full reconfiguration
    # is eight RBAR/RASR register pairs plus the SVC path around them;
    # a fault-driven remap rewrites one pair inside the MemManage
    # handler.  These are the exact constants the monitor charged
    # before the interface existed (interp.costs.SWITCH_BASE_COST /
    # REGION_SWITCH_COST), so MPU-backend results stay bit-identical.
    name = "mpu"
    switch_base_cost = 60
    region_switch_cost = 40

    def matching_region(self, address: int) -> Optional[MPURegion]:
        """Highest-numbered enabled region claiming ``address``."""
        for region in reversed(self.regions):
            if region is not None and region.matches(address):
                return region
        return None

    def _arbitrate(self, address: int, size: int, privileged: bool,
                   write: bool) -> bool:
        """The uncached §2.2 arbitration (first and last probe byte).

        Both the first and last byte are checked so accesses straddling
        a sub-region or region boundary are confined correctly.
        """
        last = address + size - 1
        for probe in (address, last) if last != address else (address,):
            region = self.matching_region(probe)
            if region is None:
                if privileged and self.privdefena:
                    continue
                return False
            if not region.permits(privileged, write):
                return False
        return True
