"""The PinLock case study (§6.1).

A vulnerability in ``HAL_UART_Receive_IT`` gives the attacker an
arbitrary-write primitive.  The attacker, driving the serial port while
``Lock_Task`` is receiving, overwrites the stored ``KEY`` hash so a
wrong PIN unlocks the lock:

* vanilla build — the attack succeeds (no isolation);
* OPEC build — the write faults: ``KEY``'s shadow is not in
  ``Lock_Task``'s operation data section, and the public copy is
  unprivileged-read-only.
"""

import pytest

from repro import build_opec, build_vanilla, run_image
from repro.apps import pinlock
from repro.apps.hal.crypto import fnv1a_host
from repro.apps.hal.uart import ATTACK_TRIGGER
from repro.hw import SecurityAbort
from repro.hw.peripherals import GPIO, RCC, UART

ATTACK_PIN = b"6666"


def _attack_setup(key_address: int):
    """Host-side stimulus: one legit round, then the exploit."""
    forged_key = fnv1a_host(ATTACK_PIN)

    def setup(machine):
        machine.attach_device("RCC", RCC())
        for port in ("GPIOA", "GPIOB", "GPIOC", "GPIOD"):
            machine.attach_device(port, GPIO())
        uart = machine.attach_device("USART2", UART())
        # Round 1 (Unlock_Task): wrong pin, rejected.
        uart.feed(b"9999")
        # Round 1 (Lock_Task): the exploit rides the receive path —
        # trigger byte, then the arbitrary write (address, value).
        uart.feed(bytes([ATTACK_TRIGGER]))
        uart.feed(key_address.to_bytes(4, "little"))
        uart.feed(forged_key.to_bytes(4, "little"))
        # Round 2 (Unlock_Task): the attacker's PIN.
        uart.feed(ATTACK_PIN)
        uart.feed(b"0000")  # Lock_Task, ends the round

    return setup


def _key_address_vanilla():
    app = pinlock.build(rounds=1, vulnerable=True)
    image = build_vanilla(app.module, app.board)
    return app, image, image.global_address(app.module.get_global("KEY"))


def test_attack_succeeds_on_vanilla():
    app, image, key_address = _key_address_vanilla()
    result = run_image(image, setup=_attack_setup(key_address),
                       max_instructions=app.max_instructions)
    # The wrong PIN unlocked the lock: halt code counts one "success".
    assert result.halt_code == 1
    transcript = result.machine.device("USART2").transmitted()
    assert b"Y" in transcript  # the forged key matched ATTACK_PIN


def test_attack_blocked_by_opec():
    app = pinlock.build(rounds=1, vulnerable=True)
    artifacts = build_opec(app.module, app.board, app.specs)
    key = artifacts.module.get_global("KEY")
    # KEY is shared by Key_Init and Unlock_Task -> external -> the
    # attacker can try the public original or Unlock_Task's shadow.
    public_address = artifacts.image.public_addresses[key]
    with pytest.raises(SecurityAbort, match="outside its policy"):
        run_image(artifacts.image, setup=_attack_setup(public_address),
                  max_instructions=app.max_instructions)


def test_attack_on_unlock_shadow_also_blocked():
    app = pinlock.build(rounds=1, vulnerable=True)
    artifacts = build_opec(app.module, app.board, app.specs)
    key = artifacts.module.get_global("KEY")
    unlock_op = artifacts.policy.operation_by_entry("Unlock_Task")
    shadow_address = artifacts.image.shadow_address(unlock_op, key)
    with pytest.raises(SecurityAbort, match="outside its policy"):
        run_image(artifacts.image, setup=_attack_setup(shadow_address),
                  max_instructions=app.max_instructions)


def test_key_not_in_lock_task_section():
    """The structural reason the attack fails (§6.1): Lock_Task's
    operation data section holds no copy of KEY."""
    app = pinlock.build(rounds=1, vulnerable=True)
    artifacts = build_opec(app.module, app.board, app.specs)
    key = artifacts.module.get_global("KEY")
    lock_op = artifacts.policy.operation_by_entry("Lock_Task")
    assert key not in artifacts.policy.section_vars(lock_op)
    unlock_op = artifacts.policy.operation_by_entry("Unlock_Task")
    assert key in artifacts.policy.section_vars(unlock_op)


def test_benign_run_of_vulnerable_build_still_works():
    app = pinlock.build(rounds=2, vulnerable=True)
    artifacts = build_opec(app.module, app.board, app.specs)
    result = run_image(artifacts.image, setup=app.setup,
                       max_instructions=app.max_instructions)
    app.verify_run(result.machine, result.halt_code)
