"""Attack injection for generated firmware.

Attacks are *host-side stimuli*, not IR edits: every generated
firmware carries the same planted arbitrary-write primitive (the
victim task's mailbox poll, :mod:`.generator`), and an attack is one
``(address, value)`` payload programmed into the :class:`AttackPort`
device before the run.  What differs per attack kind is only *where*
the write lands — and that address is resolved against the concrete
image under test, exactly the way ``examples/pinlock_attack.py``
resolves ``KEY`` per build flavour:

* ``global`` — another operation's private ``secret`` variable;
* ``stack`` — a suspended caller frame (``main``'s canary buffer, 32
  bytes below the stack top);
* ``peripheral`` — the forbidden GPIO port's ODR, a peripheral no
  task's policy includes;
* ``icall`` — the dispatch-table slot the victim indirect-calls
  through, redirected to the ``gadget`` function (corrupted-icall
  control flow); the gadget's flag shows whether the payload ran.

Each plan also carries an **evidence** address/value pair: after a run
halts normally, the executor reads the evidence cell to classify the
outcome as *succeeded* (payload landed) or *survived* (run finished
but the payload left no trace); a terminal fault classifies as
*blocked*.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.machine import Machine
from ..hw.peripherals import GPIO
from ..image.layout import Image
from ..image.linker import OpecImage
from .generator import (
    FORBIDDEN_GPIO,
    GADGET_MAGIC,
    MAILBOX_ADDR,
    MAILBOX_CMD,
    MAILBOX_PERIPHERAL,
    MAILBOX_VALUE,
    GeneratedFirmware,
)

#: The four injected attack classes (§6.1 generalized).
ATTACK_KINDS = ("global", "stack", "peripheral", "icall")

#: Payload planted by the global-corruption and stack-smash attacks.
PLANTED_VALUE = 0x5EADBEEF & 0x7FFFFFFF
#: Payload the peripheral-abuse attack drives onto the forbidden port.
PLANTED_ODR = 0xA5A


class AttackPort:
    """One-shot mailbox the victim task polls.

    ``CMD`` self-clears on read, so an armed port fires the planted
    write exactly once; an unarmed port (the baseline lanes) always
    reads zero and the victim's poll falls through.
    """

    def __init__(self) -> None:
        self.machine = None
        self.command = 0
        self.address = 0
        self.value = 0
        self.fired = 0

    def program(self, address: int, value: int) -> None:
        self.command = 1
        self.address = address & 0xFFFFFFFF
        self.value = value & 0xFFFFFFFF

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == MAILBOX_CMD:
            command, self.command = self.command, 0
            if command:
                self.fired += 1
            return command
        if offset == MAILBOX_ADDR:
            return self.address
        if offset == MAILBOX_VALUE:
            return self.value
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        return None


@dataclass(frozen=True)
class AttackPlan:
    """A resolved attack: the write payload plus its evidence cell."""

    kind: str
    address: int
    value: int
    evidence_address: int
    evidence_value: int


def _dispatch_slot_address(firmware: GeneratedFirmware,
                           image: Image) -> int:
    """Where the victim task's dispatch-table load actually reads."""
    table = image.module.get_global("dispatch_table")
    slot_offset = 4 * firmware.victim_slot
    if isinstance(image, OpecImage):
        # The victim reads (and the planted write corrupts) its own
        # relocated shadow of the table — writable from inside the
        # operation, which is exactly why the *payload*, not the
        # corruption, is what OPEC must contain.
        operation = image.policy.operation_by_entry(firmware.victim)
        shadow = image.shadow_addresses.get((operation.index, table.name))
        if shadow is not None:
            return shadow + slot_offset
        public = image.public_addresses.get(table)
        if public is not None:
            return public + slot_offset
    return image.global_address(table) + slot_offset


def _secret_address(firmware: GeneratedFirmware, image: Image) -> int:
    """The gadget owner's secret, where it lives in this image."""
    secret = image.module.get_global(f"{firmware.gadget_owner}_secret")
    if isinstance(image, OpecImage):
        public = image.public_addresses.get(secret)
        if public is not None:
            return public
    return image.global_address(secret)


def resolve_attack(kind: str, firmware: GeneratedFirmware,
                   image: Image) -> AttackPlan:
    """Resolve attack ``kind`` against a concrete build of
    ``firmware`` (addresses differ per flavour, like PinLock's
    ``KEY``)."""
    if kind == "global":
        address = _secret_address(firmware, image)
        return AttackPlan(kind, address, PLANTED_VALUE,
                          address, PLANTED_VALUE)
    if kind == "stack":
        address = image.stack_top - 32
        return AttackPlan(kind, address, PLANTED_VALUE,
                          address, PLANTED_VALUE)
    if kind == "peripheral":
        port = image.board.peripheral(FORBIDDEN_GPIO)
        address = port.base + GPIO.ODR
        return AttackPlan(kind, address, PLANTED_ODR,
                          address, PLANTED_ODR)
    if kind == "icall":
        gadget = image.module.get_function("gadget")
        flag = image.module.get_global("gadget_flag")
        return AttackPlan(
            kind,
            _dispatch_slot_address(firmware, image),
            image.function_address(gadget),
            image.global_address(flag),
            GADGET_MAGIC,
        )
    raise ValueError(
        f"unknown attack kind {kind!r}: expected one of "
        f"{', '.join(ATTACK_KINDS)}")


def attack_setup(firmware: GeneratedFirmware, plan: AttackPlan):
    """Machine setup attaching the firmware's devices plus an armed
    attack port."""

    def setup(machine: Machine) -> None:
        firmware.attach_devices(machine)
        port = AttackPort()
        port.program(plan.address, plan.value)
        machine.attach_device(MAILBOX_PERIPHERAL, port)

    return setup


__all__ = [
    "ATTACK_KINDS",
    "PLANTED_ODR",
    "PLANTED_VALUE",
    "AttackPlan",
    "AttackPort",
    "attack_setup",
    "resolve_attack",
]
