"""Global-variable synchronisation and sanitisation (§5.2, Figure 7).

External (shared) globals have one *public* original plus a shadow copy
per accessing operation.  On a switch the monitor writes the suspended
operation's shadows back to the public copies — after checking each
value against its developer-provided valid range — then refreshes the
resumed/entered operation's shadows from the public copies, and finally
redirects any pointer fields that still point into another operation's
data section (§5.3).
"""

from __future__ import annotations

from typing import Optional

from ..hw.exceptions import SecurityAbort
from ..hw.machine import Machine
from ..image.linker import OpecImage
from ..interp.costs import SANITIZE_CHECK_COST, SYNC_WORD_COST
from ..ir.values import GlobalVariable
from ..partition.operations import Operation


class DataSynchronizer:
    """Performs the Figure-7 data movement for one image."""

    def __init__(self, machine: Machine, image: OpecImage):
        self.machine = machine
        self.image = image
        self.policy = image.policy
        # Address index over every shadow copy and public original so
        # pointer fields can be retargeted across sections (§5.3).
        self._intervals: list[tuple[int, int, Optional[int], str]] = []
        get_global = image.module.get_global
        for (op_index, name), addr in image.shadow_addresses.items():
            end = addr + get_global(name).size
            self._intervals.append((addr, end, op_index, name))
        for name, addr in image.public_addresses.items():
            end = addr + get_global(name).size
            self._intervals.append((addr, end, None, name))
        self._intervals.sort()
        self._bytes_copied = machine.metrics.counter("monitor.sync_bytes_copied")

    # -- words ------------------------------------------------------------

    def _copy(self, src: int, dst: int, size: int) -> None:
        blob = self.machine.read_bytes(src, size)
        self.machine.write_bytes(dst, blob)
        self._bytes_copied.value += size
        self.machine.consume(SYNC_WORD_COST * ((size + 3) // 4))

    # -- sanitisation -------------------------------------------------------

    def sanitize(self, operation: Operation, gvar: GlobalVariable) -> None:
        """Abort if a scalar shadow value left its declared range."""
        if gvar.sanitize_range is None or gvar.size > 4:
            return
        shadow = self.image.shadow_address(operation, gvar)
        value = self.machine.read_direct(shadow, gvar.size)
        self.machine.consume(SANITIZE_CHECK_COST)
        lo, hi = gvar.sanitize_range
        if not lo <= value <= hi:
            raise SecurityAbort(
                f"sanitisation failed for @{gvar.name} in operation "
                f"{operation.name}: value {value} outside [{lo}, {hi}]"
            )

    def sanitize_operation(self, operation: Operation) -> None:
        """Range-check every external shadow of ``operation``.

        The monitor runs this as its own switch phase (so it traces as a
        distinct span) and then copies with ``sanitize=False``; checking
        all shadows before copying any is equivalent to the interleaved
        order because a failed check aborts the run.
        """
        for gvar in self.policy.external_vars(operation):
            self.sanitize(operation, gvar)

    # -- Figure 7 steps ------------------------------------------------------

    def write_back(self, operation: Operation, *,
                   sanitize: bool = True) -> None:
        """Shadows of ``operation`` → public copies (sanitised)."""
        for gvar in self.policy.external_vars(operation):
            if sanitize:
                self.sanitize(operation, gvar)
            shadow = self.image.shadow_address(operation, gvar)
            self._copy(shadow, self.image.public_addresses[gvar], gvar.size)

    def refresh(self, operation: Operation) -> None:
        """Public copies → shadows of ``operation``."""
        for gvar in self.policy.external_vars(operation):
            shadow = self.image.shadow_address(operation, gvar)
            self._copy(self.image.public_addresses[gvar], shadow, gvar.size)

    def update_relocation_table(self, operation: Operation) -> None:
        """Point every external's slot at ``operation``'s shadow, or at
        the public original when the operation does not access it."""
        accessible = {gvar.name for gvar in
                      self.policy.external_vars(operation)}
        for name, slot in self.image.reloc_slots.items():
            if name in accessible:
                target = self.image.shadow_addresses[(operation.index, name)]
            else:
                target = self.image.public_addresses[name]
            self.machine.write_direct(slot, 4, target)
            self.machine.consume(1)

    # -- pointer-field redirection (§5.3) --------------------------------------

    def _locate(self, address: int) -> Optional[tuple[Optional[int],
                                                      str, int]]:
        for start, end, op_index, name in self._intervals:
            if start <= address < end:
                return op_index, name, address - start
        return None

    def redirect_pointers(self, operation: Operation) -> None:
        """Rewrite pointer fields in ``operation``'s section that point
        at another operation's shadow (or a public original) of a
        variable this operation holds its own shadow of."""
        own_shadows = {
            gvar.name: self.image.shadow_address(operation, gvar)
            for gvar in self.policy.external_vars(operation)
        }
        section_vars = self.policy.section_vars(operation)
        for gvar in section_vars:
            if not gvar.pointer_field_offsets:
                continue
            base = self._home_address(operation, gvar)
            for offset in gvar.pointer_field_offsets:
                pointer = self.machine.read_direct(base + offset, 4)
                self.machine.consume(2)
                located = self._locate(pointer)
                if located is None:
                    continue
                target_op, target_name, delta = located
                if target_op == operation.index:
                    continue
                if target_name in own_shadows:
                    self.machine.write_direct(
                        base + offset, 4, own_shadows[target_name] + delta
                    )
                    self.machine.consume(1)

    def _home_address(self, operation: Operation, gvar: GlobalVariable) -> int:
        key = (operation.index, gvar.name)
        if key in self.image.shadow_addresses:
            return self.image.shadow_addresses[key]
        return self.image.global_address(gvar)
