"""Ethernet MAC model for the TCP-Echo workload.

Real STM32 MACs move frames through DMA descriptor rings; the model
keeps the same software-visible shape — poll for a frame, read its
length, drain data words, release the buffer — through a compact
register protocol so the IR network stack exercises genuine
MMIO-per-word receive/transmit paths.
"""

from __future__ import annotations

from collections import deque


class EthernetMAC:
    """MAC with host-fed RX frames and captured TX frames."""

    MACCR = 0x00
    RX_STAT = 0x10   # number of frames waiting
    RX_LEN = 0x14    # byte length of the head frame
    RX_DATA = 0x18   # pop 4 bytes of the head frame
    RX_RELEASE = 0x1C  # writing 1 drops the head frame
    TX_DATA = 0x20   # push 4 bytes into the TX staging buffer
    TX_LEN = 0x24    # set outgoing frame length
    TX_GO = 0x28     # writing 1 sends the staged frame

    def __init__(self, frame_interval_cycles: int = 120_000):
        # Frames arrive at line-rate-ish pacing: the next queued frame
        # becomes visible `frame_interval_cycles` after the previous one
        # is released, keeping the echo server I/O-bound (§6.3).
        self.machine = None
        self.frame_interval_cycles = frame_interval_cycles
        self._next_ready = 0
        self.maccr = 0
        self.rx_frames: deque[bytes] = deque()
        self._rx_cursor = 0
        self.tx_frames: list[bytes] = []
        self._tx_buffer = bytearray()
        self._tx_len = 0

    # -- host side ---------------------------------------------------

    def enqueue_frame(self, frame: bytes) -> None:
        self.rx_frames.append(bytes(frame))

    def sent_frames(self) -> list[bytes]:
        return list(self.tx_frames)

    # -- device side ---------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.MACCR:
            return self.maccr
        if offset == self.RX_STAT:
            if not self.rx_frames:
                return 0
            machine = self.machine
            if machine is not None and machine.cycles < self._next_ready:
                # The next frame is still in flight: quiet until it lands.
                machine.quiet_read(self._next_ready)
                return 0
            return len(self.rx_frames)
        if offset == self.RX_LEN:
            return len(self.rx_frames[0]) if self.rx_frames else 0
        if offset == self.RX_DATA:
            if not self.rx_frames:
                return 0
            frame = self.rx_frames[0]
            chunk = frame[self._rx_cursor : self._rx_cursor + 4]
            self._rx_cursor += 4
            return int.from_bytes(chunk.ljust(4, b"\x00"), "little")
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.MACCR:
            self.maccr = value
        elif offset == self.RX_RELEASE:
            if value & 1 and self.rx_frames:
                self.rx_frames.popleft()
                self._rx_cursor = 0
                if self.machine is not None:
                    self._next_ready = (
                        self.machine.cycles + self.frame_interval_cycles
                    )
        elif offset == self.TX_DATA:
            self._tx_buffer.extend((value & 0xFFFFFFFF).to_bytes(4, "little"))
        elif offset == self.TX_LEN:
            self._tx_len = value
        elif offset == self.TX_GO:
            if value & 1:
                self.tx_frames.append(bytes(self._tx_buffer[: self._tx_len]))
                self._tx_buffer = bytearray()
                self._tx_len = 0


class DCMI:
    """Digital camera interface: capture fills a FIFO the HAL drains.

    The host installs a frame with :meth:`set_frame`; the firmware sets
    the capture bit in CR and pulls 32-bit words from DR until SR's
    FIFO-not-empty flag clears (same polling structure as the real
    snapshot mode).
    """

    CR = 0x00
    SR = 0x04
    DR = 0x28

    CR_CAPTURE = 1 << 0
    SR_FNE = 1 << 2

    def __init__(self, capture_latency_cycles: int = 2_000_000):
        self.machine = None
        self.capture_latency_cycles = capture_latency_cycles
        self.frame = b""
        self._fifo: deque[int] = deque()
        self.captures = 0

    # -- host side ---------------------------------------------------

    def set_frame(self, frame: bytes) -> None:
        padded = frame + bytes((-len(frame)) % 4)
        self.frame = padded

    # -- device side ---------------------------------------------------

    def mmio_read(self, offset: int, size: int) -> int:
        if offset == self.SR:
            return self.SR_FNE if self._fifo else 0
        if offset == self.DR:
            return self._fifo.popleft() if self._fifo else 0
        return 0

    def mmio_write(self, offset: int, size: int, value: int) -> None:
        if offset == self.CR and value & self.CR_CAPTURE:
            if self.machine is not None:
                self.machine.consume(self.capture_latency_cycles)
            self._fifo = deque(
                int.from_bytes(self.frame[i : i + 4], "little")
                for i in range(0, len(self.frame), 4)
            )
            self.captures += 1
