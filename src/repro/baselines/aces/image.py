"""ACES image generation: layout + MPU templates per compartment.

Differences from the OPEC image that matter for the comparison (§6.4):

* **no shadowing** — every global has exactly one home; shared regions
  are granted to every accessor (partition-time over-privilege);
* **whole-stack access** — one RW region covers the entire stack for
  every compartment (no sub-region masking / relocation);
* **privilege lifting** — compartments that touch core peripherals run
  privileged (Table 2's PAC column);
* **peripheral inflexibility** — one MPU window spans the compartment's
  lowest to highest peripheral (no virtualisation).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ...hw.board import Board
from ...hw.mpu import MIN_REGION_SIZE, MPURegion, align_base, region_size_for
from ...image.layout import (
    DEFAULT_HEAP_SIZE,
    DEFAULT_STACK_SIZE,
    Image,
    VECTOR_TABLE_SIZE,
    align_up,
)
from ...image.mpu_config import background_region, code_region
from ...ir.instructions import Call
from ...ir.module import Module
from .compartments import Compartment
from .regions import RegionAssignment, assign_regions

ACES_RUNTIME_CODE_BYTES = 4096
ACES_COMPARTMENT_METADATA_BYTES = 72
ACES_PER_FUNCTION_METADATA_BYTES = 8
ACES_SWITCH_STUB_BYTES = 8

_WORD = 4


@dataclass
class CompartmentLayout:
    """Link products for one compartment."""

    compartment: Compartment
    templates: list[MPURegion] = field(default_factory=list)


class AcesImage(Image):
    """A firmware image armed with the ACES baseline."""

    kind = "aces"

    def __init__(self, module: Module, board: Board,
                 compartments: list[Compartment],
                 assignment: RegionAssignment,
                 strategy: str,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 heap_size: int = DEFAULT_HEAP_SIZE):
        super().__init__(module, board, stack_size, heap_size)
        self.compartments = compartments
        self.assignment = assignment
        self.strategy = strategy
        self.layouts: dict[int, CompartmentLayout] = {}
        self.function_compartment = {
            f: c for c in compartments for f in c.functions
        }
        self.group_sections: dict[int, tuple[int, int]] = {}
        self.stack_base = 0
        self.runtime_code_bytes = 0
        self.metadata_bytes = 0
        self.instrumentation_bytes = 0

    def compartment_for(self, func) -> Optional[Compartment]:
        return self.function_compartment.get(func)

    def layout_of(self, compartment: Compartment) -> CompartmentLayout:
        return self.layouts[compartment.index]

    def privileged_code_bytes(self) -> int:
        """Application code lifted to the privileged level (PAC)."""
        return sum(c.code_bytes() for c in self.compartments if c.privileged)


def _cross_compartment_call_sites(module: Module,
                                  compartments: list[Compartment]) -> int:
    owner = {f: c.index for c in compartments for f in c.functions}
    sites = 0
    for func in module.defined_functions():
        src = owner.get(func)
        for inst in func.iter_instructions():
            if isinstance(inst, Call):
                dst = owner.get(inst.callee)
                if dst is not None and src is not None and dst != src:
                    sites += 1
    return sites


def build_aces_image(module: Module, board: Board,
                     compartments: list[Compartment],
                     assignment: Optional[RegionAssignment] = None,
                     strategy: str = "ACES1",
                     stack_size: int = DEFAULT_STACK_SIZE,
                     heap_size: int = DEFAULT_HEAP_SIZE) -> AcesImage:
    if assignment is None:
        assignment = assign_regions(compartments, module.writable_globals())
    image = AcesImage(module, board, compartments, assignment, strategy,
                      stack_size, heap_size)

    # -- flash ---------------------------------------------------------
    cursor = board.flash_base
    image.add_section("vectors", cursor, VECTOR_TABLE_SIZE, "code")
    cursor += VECTOR_TABLE_SIZE
    text_start = cursor
    cursor = image._layout_code(cursor)
    image.add_section("text", text_start, cursor - text_start, "code")

    image.instrumentation_bytes = (
        ACES_SWITCH_STUB_BYTES
        * _cross_compartment_call_sites(module, compartments)
    )
    image.add_section("switch_stubs", cursor, image.instrumentation_bytes,
                      "code")
    cursor += image.instrumentation_bytes

    image.runtime_code_bytes = ACES_RUNTIME_CODE_BYTES
    image.add_section("aces_runtime", cursor, image.runtime_code_bytes,
                      "monitor")
    cursor += image.runtime_code_bytes

    rodata_start = cursor
    cursor = image._layout_rodata(cursor)
    if cursor > rodata_start:
        image.add_section("rodata", rodata_start, cursor - rodata_start,
                          "rodata")

    image.metadata_bytes = sum(
        ACES_COMPARTMENT_METADATA_BYTES
        + ACES_PER_FUNCTION_METADATA_BYTES * len(c.functions)
        for c in compartments
    )
    image.add_section("metadata", cursor, image.metadata_bytes, "metadata")
    cursor += image.metadata_bytes

    # -- SRAM ----------------------------------------------------------------
    cursor = board.sram_base
    # Globals no compartment touches keep a plain data section.
    grouped = {v for g in assignment.groups for v in g.variables}
    loose_start = cursor
    for gvar in module.writable_globals():
        if gvar in grouped:
            continue
        address = align_up(cursor, max(gvar.value_type.alignment, _WORD))
        image._global_addresses[gvar.name] = address
        cursor = address + align_up(gvar.size, _WORD)
    image.add_section("data", loose_start, cursor - loose_start, "data")

    # One MPU-aligned section per variable group, largest first.
    ordered = sorted(
        enumerate(assignment.groups),
        key=lambda item: item[1].byte_size(), reverse=True,
    )
    for group_id, group in ordered:
        content = max(group.byte_size(), MIN_REGION_SIZE)
        region = region_size_for(content)
        base = align_up(cursor, region)
        image.group_sections[group_id] = (base, region)
        image.add_section(f"region.{group_id}", base, region, "opdata")
        offset = base
        for gvar in group.variables:
            address = align_up(offset, max(gvar.value_type.alignment, _WORD))
            image._global_addresses[gvar.name] = address
            offset = address + align_up(gvar.size, _WORD)
        cursor = base + region

    image.heap_base = align_up(cursor, 8)
    image.add_section("heap", image.heap_base, heap_size, "heap")

    sram_end = board.sram_base + board.sram_size
    image.stack_base = sram_end - stack_size
    image.stack_top = sram_end
    image.stack_limit = image.stack_base
    image.add_section("stack", image.stack_base, stack_size, "stack")
    if image.heap_base + heap_size > image.stack_base:
        raise ValueError("ACES image SRAM overflow")

    _build_templates(image)
    return image


def _build_templates(image: AcesImage) -> None:
    board = image.board
    group_index = {id(g): i for i, g in enumerate(image.assignment.groups)}
    for compartment in image.compartments:
        regions: list[MPURegion] = []
        regions.append(background_region().instantiate())
        regions.append(code_region(board.flash_base,
                                   board.flash_size).instantiate())
        regions.append(MPURegion(
            number=2, base=image.stack_base, size=image.stack_size,
            priv="RW", unpriv="RW",
        ))
        # Up to four data regions (the merge pass guarantees the bound).
        groups = image.assignment.groups_of(compartment)
        for slot, group in zip((3, 4, 5, 6), groups):
            base, size = image.group_sections[group_index[id(group)]]
            regions.append(MPURegion(
                number=slot, base=base, size=size, priv="RW", unpriv="RW",
            ))
        # One window spanning every peripheral the compartment touches.
        peripherals = sorted(compartment.resources.peripherals,
                             key=lambda p: p.base)
        if peripherals:
            low = peripherals[0].base
            high = max(p.end for p in peripherals)
            size = region_size_for(high - low)
            base = align_base(low, size)
            while base + size < high:
                size <<= 1
                base = align_base(low, size)
            regions.append(MPURegion(
                number=7, base=base, size=size, priv="RW", unpriv="RW",
            ))
        image.layouts[compartment.index] = CompartmentLayout(
            compartment=compartment, templates=regions,
        )
