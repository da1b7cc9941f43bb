"""Simple peripheral models: register files, GPIO, and the UART.

These carry just enough behaviour for the HAL in :mod:`repro.apps.hal`
to run the paper's workloads end-to-end: clock-enable bits that the
init tasks poke, GPIO pins the applications toggle/read, and a UART
with host-fed RX and captured TX (PinLock's serial port, §6).
"""

from __future__ import annotations

from collections import deque

from ..exceptions import HardFault

# A polling loop spinning this many times on an empty RX queue means the
# host forgot to feed input; fail loudly instead of hanging the run.
_POLL_LIMIT = 2_000_000


class RegisterFile:
    """A generic peripheral whose registers are plain storage.

    Models configuration-only blocks (RCC, SYSCFG, EXTI, PWR, timers,
    I2C config, …) where the HAL writes bits and occasionally reads
    them back (e.g. waiting for a PLL-ready flag).  ``readonly_ones``
    lists offsets whose reads also OR-in a constant — used for
    always-ready status flags.
    """

    def __init__(self, readonly_ones: dict[int, int] | None = None):
        self.machine = None
        self.registers: dict[int, int] = {}
        self.readonly_ones = dict(readonly_ones or {})
        self.write_log: list[tuple[int, int]] = []

    def mmio_read(self, offset: int, size: int) -> int:
        value = self.registers.get(offset, 0)
        return value | self.readonly_ones.get(offset, 0)

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        self.registers[offset] = value
        self.write_log.append((offset, value))


class RCC(RegisterFile):
    """Reset and clock control; CR reads report PLL/HSE ready."""

    CR = 0x00
    PLLCFGR = 0x04
    CFGR = 0x08
    AHB1ENR = 0x30
    APB1ENR = 0x40
    APB2ENR = 0x44

    def __init__(self):
        # HSERDY (bit 17) and PLLRDY (bit 25) always read as set.
        super().__init__(readonly_ones={self.CR: (1 << 17) | (1 << 25)})


class GPIO(RegisterFile):
    """GPIO port: MODER/OTYPER/ODR as storage, IDR host-controlled."""

    MODER = 0x00
    IDR = 0x10
    ODR = 0x14
    BSRR = 0x18

    def __init__(self):
        super().__init__()
        self.input_state = 0

    def set_input(self, pin: int, high: bool) -> None:
        """Host-side: drive an input pin (button press, lock sensor)."""
        if high:
            self.input_state |= 1 << pin
        else:
            self.input_state &= ~(1 << pin)

    def output_state(self) -> int:
        return self.registers.get(self.ODR, 0)

    def pin_is_high(self, pin: int) -> bool:
        return bool(self.output_state() >> pin & 1)

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.IDR:
            return self.input_state
        return super().mmio_read(offset, size)

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.BSRR:
            odr = self.registers.get(self.ODR, 0)
            odr |= value & 0xFFFF           # set bits
            odr &= ~(value >> 16 & 0xFFFF)  # reset bits
            self.registers[self.ODR] = odr
            self.write_log.append((offset, value))
            return
        super().mmio_write(offset, size, value)


class UART:
    """USART with host-fed receive queue and captured transmit bytes.

    Register layout matches the STM32 USART: SR at 0x00 (RXNE bit 5,
    TC bit 6, TXE bit 7), DR at 0x04, BRR at 0x08, CR1 at 0x0C.
    """

    SR = 0x00
    DR = 0x04
    BRR = 0x08
    CR1 = 0x0C

    SR_RXNE = 1 << 5
    SR_TC = 1 << 6
    SR_TXE = 1 << 7

    def __init__(self, cycles_per_byte: int = 14_000):
        # ~115200 baud at a 168 MHz core: the wire is what firmware
        # waits on, so receive is paced — one byte becomes visible every
        # `cycles_per_byte` machine cycles.  This keeps the baseline
        # runtime I/O-bound, as in the paper's measurements (§6.3).
        self.machine = None
        self.cycles_per_byte = cycles_per_byte
        self._next_ready = 0
        self.rx_queue: deque[int] = deque()
        self.tx_bytes = bytearray()
        self.brr = 0
        self.cr1 = 0
        self._empty_polls = 0

    # -- host side ---------------------------------------------------

    def feed(self, data: bytes) -> None:
        """Queue bytes for the firmware to receive."""
        self.rx_queue.extend(data)

    def transmitted(self) -> bytes:
        return bytes(self.tx_bytes)

    # -- device side ---------------------------------------------------

    def _rx_ready(self) -> bool:
        if not self.rx_queue:
            return False
        return self.machine is None or self.machine.cycles >= self._next_ready

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.SR:
            status = self.SR_TXE | self.SR_TC
            if self._rx_ready():
                status |= self.SR_RXNE
                self._empty_polls = 0
            elif not self.rx_queue:
                self._empty_polls += 1
                if self._empty_polls > _POLL_LIMIT:
                    raise HardFault("UART RX polled forever with no input")
            else:
                # A byte is still on the wire: until it lands, this
                # read returns the same status and changes nothing.
                self.machine.quiet_read(self._next_ready)
            return status
        if offset == self.DR:
            if self.rx_queue:
                byte = self.rx_queue.popleft()
                if self.machine is not None:
                    self._next_ready = self.machine.cycles + self.cycles_per_byte
                return byte
            return 0
        if offset == self.BRR:
            return self.brr
        if offset == self.CR1:
            return self.cr1
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.DR:
            self.tx_bytes.append(value & 0xFF)
        elif offset == self.BRR:
            self.brr = value
        elif offset == self.CR1:
            self.cr1 = value
