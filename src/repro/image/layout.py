"""Memory layout primitives and the baseline (vanilla) image.

An :class:`Image` is what the interpreter executes: the module plus
concrete addresses for every function and global, the stack/heap
bounds, and section bookkeeping for the flash/SRAM overhead metrics
(Figure 9).  The vanilla image is the paper's baseline build — no
monitor, no MPU, everything privileged.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..hw.board import Board
from ..ir.function import Function
from ..ir.module import Module
from ..ir.values import GlobalVariable

VECTOR_TABLE_SIZE = 0x400
DEFAULT_STACK_SIZE = 16 * 1024
DEFAULT_HEAP_SIZE = 8 * 1024
_WORD_ALIGN = 4


def align_up(value: int, alignment: int) -> int:
    return (value + alignment - 1) // alignment * alignment


def function_code_size(func: Function) -> int:
    """Flash bytes a function occupies: ~4 bytes per IR instruction."""
    return max(4, func.instruction_count() * 4)


@dataclass
class Section:
    """A named contiguous range in the final image."""

    name: str
    base: int
    size: int
    kind: str  # code | rodata | metadata | monitor | data | opdata |
    #            public | reloc | heap | stack

    @property
    def end(self) -> int:
        return self.base + self.size

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


class Image:
    """Base image: address assignment shared by all build flavours."""

    kind = "vanilla"

    def __init__(self, module: Module, board: Board,
                 stack_size: int = DEFAULT_STACK_SIZE,
                 heap_size: int = DEFAULT_HEAP_SIZE):
        self.module = module
        self.board = board
        self.stack_size = stack_size
        self.heap_size = heap_size
        self.sections: list[Section] = []
        self._function_addresses: dict[Function, int] = {}
        self._functions_by_address: dict[int, Function] = {}
        # Keyed by name, like TaskTrace.functions_of: a store-served
        # image carries its own unpickled copy of the module, so callers
        # holding the live module's GlobalVariable still resolve.
        self._global_addresses: dict[str, int] = {}
        self.stack_top = 0
        self.stack_limit = 0
        self.heap_base = 0
        # Interrupt vector table: exception number -> handler function.
        self.irq_handlers: dict[int, Function] = {
            f.irq_number: f
            for f in module.iter_functions()
            if f.irq_number is not None and not f.is_declaration
        }

    # -- interpreter interface ------------------------------------------

    def function_address(self, func: Function) -> int:
        return self._function_addresses[func]

    def function_at(self, address: int) -> Optional[Function]:
        return self._functions_by_address.get(address)

    def global_address(self, gvar: GlobalVariable) -> int:
        return self._global_addresses[gvar.name]

    # -- layout helpers -------------------------------------------------

    def add_section(self, name: str, base: int, size: int, kind: str) -> Section:
        section = Section(name, base, size, kind)
        self.sections.append(section)
        return section

    def section(self, name: str) -> Section:
        for section in self.sections:
            if section.name == name:
                return section
        raise KeyError(f"no section named {name!r}")

    def _layout_code(self, cursor: int) -> int:
        """Place every defined function; returns the new flash cursor."""
        for func in self.module.defined_functions():
            address = align_up(cursor, _WORD_ALIGN)
            self._function_addresses[func] = address
            self._functions_by_address[address] = func
            cursor = address + function_code_size(func)
        return cursor

    def _layout_rodata(self, cursor: int) -> int:
        """Place const globals in flash; returns the new flash cursor."""
        for gvar in self.module.iter_globals():
            if not gvar.is_const:
                continue
            address = align_up(cursor, gvar.value_type.alignment)
            self._global_addresses[gvar.name] = address
            cursor = address + gvar.size
        return cursor

    def code_bytes(self) -> int:
        return sum(
            function_code_size(f) for f in self.module.defined_functions()
        )

    # -- overhead metrics (Figure 9 inputs) ---------------------------------

    def flash_used(self) -> int:
        return sum(s.size for s in self.sections
                   if s.base >= self.board.flash_base
                   and s.end <= self.board.flash_base + self.board.flash_size)

    def sram_used(self) -> int:
        return sum(s.size for s in self.sections
                   if s.base >= self.board.sram_base
                   and s.end <= self.board.sram_base + self.board.sram_size)

    def initialize_memory(self, machine) -> None:
        """Program flash and set globals' initial SRAM contents."""
        for name, address in self._global_addresses.items():
            gvar = self.module.get_global(name)
            blob = gvar.encode_initializer()
            if gvar.is_const:
                machine.program_flash(address, blob)
            else:
                machine.write_bytes(address, blob)


class VanillaImage(Image):
    """The unprotected baseline: one data blob, full-privilege."""

    kind = "vanilla"


def build_vanilla_image(module: Module, board: Board,
                        stack_size: int = DEFAULT_STACK_SIZE,
                        heap_size: int = DEFAULT_HEAP_SIZE) -> VanillaImage:
    image = VanillaImage(module, board, stack_size, heap_size)

    # Flash: vector table, code, read-only data.
    flash_cursor = board.flash_base
    image.add_section("vectors", flash_cursor, VECTOR_TABLE_SIZE, "code")
    flash_cursor += VECTOR_TABLE_SIZE
    code_start = flash_cursor
    flash_cursor = image._layout_code(flash_cursor)
    image.add_section("text", code_start, flash_cursor - code_start, "code")
    rodata_start = flash_cursor
    flash_cursor = image._layout_rodata(flash_cursor)
    if flash_cursor > rodata_start:
        image.add_section("rodata", rodata_start,
                          flash_cursor - rodata_start, "rodata")
    if flash_cursor > board.flash_base + board.flash_size:
        raise ValueError("image does not fit in flash")

    # SRAM: .data/.bss, heap, stack at the top.
    sram_cursor = board.sram_base
    data_start = sram_cursor
    for gvar in module.writable_globals():
        address = align_up(sram_cursor, max(gvar.value_type.alignment, 4))
        image._global_addresses[gvar.name] = address
        sram_cursor = address + align_up(gvar.size, _WORD_ALIGN)
    image.add_section("data", data_start, sram_cursor - data_start, "data")

    image.heap_base = align_up(sram_cursor, 8)
    image.add_section("heap", image.heap_base, heap_size, "heap")

    sram_end = board.sram_base + board.sram_size
    image.stack_top = sram_end
    image.stack_limit = sram_end - stack_size
    image.add_section("stack", image.stack_limit, stack_size, "stack")
    if image.heap_base + heap_size > image.stack_limit:
        raise ValueError("SRAM layout overflow: heap collides with stack")
    return image
