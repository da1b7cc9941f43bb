"""Runtime hook interface between the interpreter and a monitor.

A build flavour (vanilla / OPEC / ACES) plugs in by subclassing
:class:`RuntimeHooks`.  The interpreter consults the hooks exactly
where the hardware would transfer control to privileged software:

* before/after calls to functions the build instrumented (operation
  entries for OPEC, compartment-crossing edges for ACES) — the SVC
  path of §4.4/§5.3;
* on a MemManage fault (peripheral MPU-region virtualisation, §5.2);
* on a BusFault from unprivileged PPB access (core-peripheral
  emulation, §5.2);
* when resolving a global variable's address (the variable relocation
  table indirection the instrumentation inserts, §4.4).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from ..hw.exceptions import BusFault, MemManageFault
from ..ir.function import Function
from ..ir.values import GlobalVariable

if TYPE_CHECKING:
    from .interpreter import Interpreter


class RuntimeHooks:
    """Default hooks: a vanilla build — no isolation, all privileged."""

    def on_reset(self, interp: "Interpreter") -> None:
        """Called once before ``main`` starts (monitor init, §5.1)."""

    def global_address(self, interp: "Interpreter", gvar: GlobalVariable) -> int:
        """Resolve a global's address (may go through the reloc table)."""
        return interp.image.global_address(gvar)

    def before_call(self, interp: "Interpreter", callee: Function,
                    args: list[int]) -> list[int]:
        """Called before a direct/indirect call; may rewrite ``args``
        (OPEC's stack-argument relocation, §5.2) after a domain switch."""
        return args

    def after_return(self, interp: "Interpreter", callee: Function) -> None:
        """Called after a call instrumented by :meth:`before_call`
        returns (the exit-side SVC)."""

    def is_switch_point(self, interp: "Interpreter", callee: Function) -> bool:
        """Whether a call to ``callee`` crosses a domain boundary."""
        return False

    def handle_memmanage(self, interp: "Interpreter", fault: MemManageFault):
        """MemManage handler.  Return values:

        * ``False`` — unhandled: the fault escalates;
        * ``True`` — fixed up (e.g. an MPU region was mapped in):
          the faulting access is retried;
        * ``("emulated", value)`` — the handler performed the access
          itself (ACES' micro-emulator, §5.2): for a load ``value`` is
          the result, for a store it is ignored.
        """
        return False

    def handle_busfault(self, interp: "Interpreter",
                        fault: BusFault) -> Optional[int]:
        """BusFault handler.  For an emulated *load* return the value;
        for an emulated *store* return any int (e.g. 0) to signal the
        store was performed.  ``None`` means unhandled → HardFault."""
        return None

    def on_halt(self, interp: "Interpreter", code: int) -> None:
        """Called when the firmware halts."""

    def idle_state(self, interp: "Interpreter") -> object:
        """A token of any hook state that code running between switches
        can change (e.g. a lookup cache whose miss costs cycles).  Idle
        skipping only fast-forwards a polling loop while it is equal
        across iterations."""
        return None
