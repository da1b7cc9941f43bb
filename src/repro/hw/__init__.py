"""Simulated ARMv7-M hardware substrate.

Stands in for the paper's STM32 boards: byte-addressable memory map
(Figure 2), two privilege levels with PPB protection (§2.1), exception
plumbing for SVC / MemManage / BusFault, a DWT-style cycle counter,
and device models for every peripheral the six applications use.

Memory isolation is pluggable (:mod:`repro.hw.backend`): a faithful
8-region MPU with sub-regions (§2.2), a RISC-V PMP adapter (§7), and a
Complets-style permission-overlay model all enforce the same policy
language behind :class:`~repro.hw.backend.EnforcementBackend`.
"""

from .backend import (
    DEFAULT_BACKEND,
    EnforcementBackend,
    KNOWN_BACKENDS,
    create_backend,
)
from .board import (
    Board,
    CORE_PERIPHERALS,
    Peripheral,
    PPB_BASE,
    PPB_END,
    stm32479i_eval,
    stm32f4_discovery,
)
from .exceptions import (
    BusFault,
    HardFault,
    MachineError,
    MachineHalt,
    MemManageFault,
    SecurityAbort,
)
from .machine import Machine, MachineStats
from .memory import FlashRegion, MemoryMap, MMIORegion, RamRegion, Region
from .mpu import (
    ACCESS_NONE,
    ACCESS_READ,
    ACCESS_READWRITE,
    MIN_REGION_SIZE,
    MPU,
    MPURegion,
    NUM_REGIONS,
    NUM_SUBREGIONS,
    align_base,
    is_power_of_two,
    region_size_for,
)
from .overlay import (
    OverlayProtection,
    compile_regions_to_overlay,
)
from .pmp import (
    NUM_PMP_ENTRIES,
    PMP,
    PMPEntry,
    PmpProtection,
    compile_regions_to_pmp,
    napot_cover,
)

__all__ = [
    "DEFAULT_BACKEND", "EnforcementBackend", "KNOWN_BACKENDS",
    "create_backend",
    "Board", "CORE_PERIPHERALS", "Peripheral", "PPB_BASE", "PPB_END",
    "stm32479i_eval", "stm32f4_discovery",
    "BusFault", "HardFault", "MachineError", "MachineHalt",
    "MemManageFault", "SecurityAbort",
    "Machine", "MachineStats",
    "FlashRegion", "MemoryMap", "MMIORegion", "RamRegion", "Region",
    "ACCESS_NONE", "ACCESS_READ", "ACCESS_READWRITE",
    "MIN_REGION_SIZE", "MPU", "MPURegion", "NUM_REGIONS",
    "NUM_SUBREGIONS", "align_base", "is_power_of_two", "region_size_for",
    "NUM_PMP_ENTRIES", "PMP", "PMPEntry", "PmpProtection",
    "compile_regions_to_pmp", "napot_cover",
    "OverlayProtection", "compile_regions_to_overlay",
]
