"""The OPEC linker: program-image generation (§4.4).

Builds an :class:`OpecImage` from a module and its
:class:`~repro.partition.policy.SystemPolicy`:

* flash — vector table, application code, OPEC-Monitor code, read-only
  data, operation metadata, SVC instrumentation stubs;
* SRAM — the public data section (originals of external variables plus
  globals no operation touches, and the monitor's privileged state),
  the variable relocation table, the operation-data zone (heap plus one
  data section per operation, sections sorted by size descending and
  placed at MPU-legal bases, §4.4), and the stack;
* per-operation MPU region templates (R0–R4 plus peripheral windows).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.board import Board
from ..hw.mpu import MIN_REGION_SIZE, region_size_for
from ..ir.module import Module
from ..ir.values import GlobalVariable
from ..partition.operations import Operation
from ..partition.policy import SystemPolicy
from . import metadata as md
from .layout import (
    DEFAULT_HEAP_SIZE,
    DEFAULT_STACK_SIZE,
    Image,
    Section,
    VECTOR_TABLE_SIZE,
    align_up,
)
from .mpu_config import (
    RegionTemplate,
    background_region,
    code_region,
    covering_regions,
    data_zone_region,
    opdata_region,
    stack_region,
)

_WORD = 4

# Functions whose presence in an operation marks it as a heap user.
HEAP_FUNCTION_NAMES = frozenset(
    {"malloc", "free", "calloc", "realloc", "heap_alloc", "heap_free",
     "mem_malloc", "mem_free"}
)


class LinkError(Exception):
    """The image does not fit the board's memories."""


@dataclass
class OperationLayout:
    """Per-operation link products consumed by the monitor."""

    operation: Operation
    section: Section
    region_size: int
    templates: list[RegionTemplate] = field(default_factory=list)
    static_windows: list[tuple[int, int]] = field(default_factory=list)
    uses_heap: bool = False


class ByName(dict):
    """``{global name: address}`` that the :class:`GlobalVariable`
    itself also indexes, from any copy of the module."""

    def __getitem__(self, key):
        return super().__getitem__(getattr(key, "name", key))

    def __contains__(self, key):
        return super().__contains__(getattr(key, "name", key))

    def get(self, key, default=None):
        return super().get(getattr(key, "name", key), default)


class OpecImage(Image):
    """A firmware image armed with OPEC (Figure 6)."""

    kind = "opec"

    def __init__(self, module: Module, board: Board, policy: SystemPolicy,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 heap_size: int = DEFAULT_HEAP_SIZE):
        super().__init__(module, board, stack_size, heap_size)
        self.policy = policy
        self.op_layouts: dict[int, OperationLayout] = {}
        # Keyed by global *name*, like ``_global_addresses``: a
        # store-served image carries its own unpickled module, and the
        # globals of the caller's live module must resolve against it.
        self.shadow_addresses: dict[tuple[int, str], int] = {}
        self.public_addresses = ByName()
        self.reloc_slots = ByName()
        self.entry_to_operation: dict[str, Operation] = {
            op.entry.name: op for op in policy.operations
        }
        self.stack_base = 0
        self.monitor_code_bytes = 0
        self.metadata_bytes = 0
        self.instrumentation_bytes = 0

    # -- queries used by the monitor -------------------------------------

    def operation_for_entry(self, func) -> Optional[Operation]:
        return self.entry_to_operation.get(func.name)

    def shadow_address(self, operation: Operation,
                       gvar: GlobalVariable) -> int:
        return self.shadow_addresses[(operation.index, gvar.name)]

    def layout_of(self, operation: Operation) -> OperationLayout:
        return self.op_layouts[operation.index]

    @property
    def subregion_size(self) -> int:
        return self.stack_size // 8


def build_opec_image(module: Module, board: Board, policy: SystemPolicy,
                     stack_size: int = DEFAULT_STACK_SIZE,
                     heap_size: int = DEFAULT_HEAP_SIZE) -> OpecImage:
    """Link a module + policy into an OPEC image."""
    if stack_size & (stack_size - 1):
        raise LinkError("stack size must be a power of two (one MPU region)")
    image = OpecImage(module, board, policy, stack_size, heap_size)

    _layout_flash(image)
    _layout_sram(image)
    _build_region_templates(image)
    return image


# -- flash ---------------------------------------------------------------


def _layout_flash(image: OpecImage) -> None:
    board = image.board
    cursor = board.flash_base
    image.add_section("vectors", cursor, VECTOR_TABLE_SIZE, "code")
    cursor += VECTOR_TABLE_SIZE

    text_start = cursor
    cursor = image._layout_code(cursor)
    image.add_section("text", text_start, cursor - text_start, "code")

    image.instrumentation_bytes = md.instrumentation_size(
        image.module, image.policy
    )
    image.add_section("svc_stubs", cursor, image.instrumentation_bytes, "code")
    cursor += image.instrumentation_bytes

    image.monitor_code_bytes = md.monitor_code_size(len(image.policy.operations))
    image.add_section("monitor", cursor, image.monitor_code_bytes, "monitor")
    cursor += image.monitor_code_bytes

    rodata_start = cursor
    cursor = image._layout_rodata(cursor)
    if cursor > rodata_start:
        image.add_section("rodata", rodata_start, cursor - rodata_start,
                          "rodata")

    image.metadata_bytes = md.metadata_size(image.policy)
    image.add_section("metadata", cursor, image.metadata_bytes, "metadata")
    cursor += image.metadata_bytes

    if cursor > board.flash_base + board.flash_size:
        raise LinkError("OPEC image does not fit in flash")


# -- SRAM -----------------------------------------------------------------


def _layout_sram(image: OpecImage) -> None:
    board = image.board
    policy = image.policy
    cursor = board.sram_base

    # Public data section: external originals + unpartitioned globals,
    # then the monitor's privileged state.
    public_start = cursor
    for gvar in policy.all_external_vars() + policy.public_only_vars():
        address = align_up(cursor, max(gvar.value_type.alignment, _WORD))
        image.public_addresses[gvar.name] = address
        image._global_addresses[gvar.name] = address
        cursor = address + align_up(gvar.size, _WORD)
    cursor = align_up(cursor, _WORD) + md.MONITOR_DATA_BYTES
    image.add_section("public", public_start, cursor - public_start, "public")

    # Variable relocation table: one pointer slot per external variable.
    reloc_start = cursor
    for gvar in policy.all_external_vars():
        image.reloc_slots[gvar.name] = cursor
        cursor += _WORD
    image.add_section("reloc", reloc_start, max(cursor - reloc_start, _WORD),
                      "reloc")

    # Operation-data zone: per-operation sections (descending size at
    # MPU-legal bases) followed by the heap.  A dry relative-placement
    # pass sizes the zone so its single covering MPU region (R2) can be
    # based exactly at the zone start, never reaching down over the
    # relocation table.
    sections = []
    for operation in policy.operations:
        content = policy.section_size(operation)
        region = region_size_for(max(content, MIN_REGION_SIZE))
        sections.append((region, content, operation))
    sections.sort(key=lambda item: item[0], reverse=True)

    relative = 0
    offsets: list[int] = []
    for region, _content, _operation in sections:
        base = align_up(relative, region)
        offsets.append(base)
        relative = base + region
    heap_offset = align_up(relative, MIN_REGION_SIZE)
    zone_length = heap_offset + image.heap_size
    zone_region_size = region_size_for(max(zone_length, MIN_REGION_SIZE))
    zone_start = align_up(cursor, zone_region_size)

    for (region, content, operation), offset in zip(sections, offsets):
        base = zone_start + offset
        section = image.add_section(
            f"opdata.{operation.entry.name}", base, region, "opdata"
        )
        image.op_layouts[operation.index] = OperationLayout(
            operation=operation, section=section, region_size=region,
            uses_heap=_operation_uses_heap(operation),
        )
        _place_section_vars(image, operation, base)

    image.heap_base = zone_start + heap_offset
    image.add_section("heap", image.heap_base, image.heap_size, "heap")
    image.zone_start = zone_start
    image.zone_size = zone_region_size
    zone_end = image.heap_base + image.heap_size

    # Stack: one power-of-two MPU region at the top of SRAM.
    sram_end = board.sram_base + board.sram_size
    image.stack_base = sram_end - image.stack_size
    if image.stack_base % image.stack_size != 0:
        raise LinkError("stack base not aligned for its MPU region")
    image.stack_top = sram_end
    image.stack_limit = image.stack_base
    image.add_section("stack", image.stack_base, image.stack_size, "stack")

    if zone_end > image.stack_base:
        raise LinkError(
            f"SRAM overflow: operation-data zone ends at 0x{zone_end:08X}, "
            f"stack begins at 0x{image.stack_base:08X}"
        )


def _place_section_vars(image: OpecImage, operation: Operation,
                        base: int) -> None:
    """Lay out internal variables and external shadows in a section."""
    policy = image.policy
    cursor = base
    for gvar in policy.internal_vars(operation):
        address = align_up(cursor, max(gvar.value_type.alignment, _WORD))
        image._global_addresses[gvar.name] = address
        cursor = address + align_up(gvar.size, _WORD)
    for gvar in policy.external_vars(operation):
        address = align_up(cursor, max(gvar.value_type.alignment, _WORD))
        image.shadow_addresses[(operation.index, gvar.name)] = address
        cursor = address + align_up(gvar.size, _WORD)


def _operation_uses_heap(operation: Operation) -> bool:
    return any(f.name in HEAP_FUNCTION_NAMES for f in operation.functions)


# -- MPU templates ------------------------------------------------------------


def _build_region_templates(image: OpecImage) -> None:
    board = image.board
    shared = [
        background_region(),
        code_region(board.flash_base, board.flash_size),
        data_zone_region(image.zone_start, image.zone_size),
    ]
    # The SRAM layout aligned the zone start to the zone region size, so
    # the NA overlay starts exactly at the zone and can never reach down
    # over the relocation table.
    zone_template = shared[2]
    if zone_template.base < image.section("reloc").end:
        raise LinkError(
            "data zone MPU region would cover the relocation table"
        )

    for operation in image.policy.operations:
        layout = image.op_layouts[operation.index]
        templates = list(shared)
        templates.append(
            stack_region(image.stack_base, image.stack_size)
        )
        templates.append(
            opdata_region(layout.section.base, layout.region_size)
        )
        layout.templates = templates
        layout.static_windows = _static_windows(operation, layout)


def _static_windows(operation: Operation,
                    layout: OperationLayout) -> list[tuple[int, int]]:
    """The peripheral windows wired statically into R5–R7.

    The heap (when used) takes the first slot; remaining slots hold the
    operation's first merged windows; everything else is served by the
    fault-driven virtualisation (§5.2).
    """
    slots: list[tuple[int, int]] = []
    # The heap region (when used) is attached by the monitor at switch
    # time and occupies the first peripheral slot.
    budget = 2 if layout.uses_heap else 3
    for window in operation.windows:
        for base, size in covering_regions(window.base, window.size):
            if len(slots) < budget:
                slots.append((base, size))
    return slots
