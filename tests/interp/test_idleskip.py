"""Device-aware idle skipping: polling loops fast-forwarded exactly.

The compiled tier charges a fixed-point polling loop's remaining
iterations in bulk (``Interpreter._idle_skip``).  Every test here runs
a small firmware on the single-step reference and on the compiled
tiers and demands the same halt code or fault, cycles, instruction
count, full metrics snapshot, SRAM and recorder event stream — then
checks whether the block tier actually skipped.
"""

import pytest

import repro.ir as ir
from repro.eval.tracing import TaskTracer
from repro.hw import Machine, stm32479i_eval, stm32f4_discovery
from repro.hw.exceptions import MachineError
from repro.hw.peripherals import EthernetMAC, UART
from repro.hw.peripherals import basic as uart_model
from repro.image import build_vanilla_image
from repro.interp import Interpreter, RuntimeHooks
from repro.ir import I32, VOID
from repro.obs.recorder import FlightRecorder

USART2 = 0x40004400
USART1 = 0x40011000
ETH = 0x40028000
SR_RXNE = 1 << 5
DWT_CYCCNT = 0xE0001004
SYST_CSR = 0xE000E010
SYST_RVR = 0xE000E014

#: (block_compile, trace_fuse) for the reference and the compiled tiers.
REFERENCE = (False, False)
BLOCK_TIER = (True, False)
TRACE_TIER = (True, True)


def _uart_module(nbytes: int = 4, *, systick_reload=None,
                 count_ticks: bool = True,
                 read_cyccnt: bool = False, store_in_loop: bool = False,
                 read_idle_uart: bool = False, load_global: bool = False):
    """Sum ``nbytes`` UART bytes, busy-waiting on SR.RXNE before each.

    With ``systick_reload``, SysTick ticks into a handler that counts
    them, or (``count_ticks=False``) only returns.  The wait loop's
    body optionally reads DWT ``CYCCNT``, transmits a byte (an MMIO
    store that changes no register or SRAM word), polls a second UART
    whose queue is empty (a read with a side effect but a constant
    value), or loads a global.
    """
    module = ir.Module("uart_poll")
    ticks = module.add_global("ticks", I32, 0)
    flag = module.add_global("flag", I32, 3)
    if systick_reload is not None:
        _h, b = ir.define(module, "SysTick_Handler", VOID, [],
                          irq_number=15)
        if count_ticks:
            b.store(b.add(b.load(ticks), 1), ticks)
        b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    if systick_reload is not None:
        b.store(systick_reload, b.mmio(SYST_RVR))
        b.store(7, b.mmio(SYST_CSR))
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, nbytes):
        status = lambda: b.load(b.mmio(USART2))  # noqa: E731
        with b.while_loop(
                lambda: b.icmp("eq", b.and_(status(), SR_RXNE), 0)):
            if read_cyccnt:
                b.load(b.mmio(DWT_CYCCNT))
            if store_in_loop:
                b.store(0x2E, b.mmio(USART2 + 4))
            if read_idle_uart:
                b.load(b.mmio(USART1))
            if load_global:
                b.load(flag)
        b.store(b.add(b.load(acc), b.load(b.mmio(USART2 + 4))), acc)
        if load_global:
            b.svc(1)  # the hooks drop their cache here
    b.halt(b.load(acc))
    return module


def _eth_module(frames: int = 3):
    """Receive ``frames`` frames, polling RX_STAT through a call each
    iteration — TCP-Echo's ``Rx_Task`` → ``ETH_Frames_Waiting`` shape."""
    module = ir.Module("eth_poll")
    waiting, b = ir.define(module, "ETH_Frames_Waiting", I32, [])
    b.ret(b.load(b.mmio(ETH + EthernetMAC.RX_STAT)))
    _m, b = ir.define(module, "main", I32, [])
    total = b.alloca(I32)
    b.store(0, total)
    with b.for_range(0, frames):
        with b.while_loop(lambda: b.icmp("eq", b.call(waiting), 0)):
            pass
        length = b.load(b.mmio(ETH + EthernetMAC.RX_LEN))
        b.store(b.add(b.load(total), length), total)
        b.store(1, b.mmio(ETH + EthernetMAC.RX_RELEASE))
    b.halt(b.load(total))
    return module


def _uart_setup(data: bytes = b"\x01\x02\x03\x04"):
    def setup(machine):
        machine.attach_device("USART2", UART()).feed(data)
        machine.attach_device("USART1", UART())
    return setup


def _eth_setup(machine):
    mac = machine.attach_device("ETH", EthernetMAC())
    for length in (60, 64, 72):
        mac.enqueue_frame(bytes(length))


class _CachingHooks(RuntimeHooks):
    """Resolves globals through a cache whose miss costs cycles and
    which every SVC clears — the OPEC monitor's relocation-table
    lookup and operation switch in miniature."""

    def __init__(self):
        self.cache = {}

    def on_svc(self, interp, number, payload):
        self.cache.clear()

    def global_address(self, interp, gvar):
        if gvar not in self.cache:
            interp.machine.consume(2)
            self.cache[gvar] = interp.image.global_address(gvar)
        return self.cache[gvar]

    def idle_state(self, interp):
        return len(self.cache)


def _run(module, board, setup, tier, *, max_instructions=2_000_000,
         install=None, hooks=None, record=True):
    """One run on ``tier``; returns (observable outcome, interpreter)."""
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    machine.recorder = FlightRecorder(1 << 16) if record else None
    setup(machine)
    image.initialize_memory(machine)
    block_compile, trace_fuse = tier
    interp = Interpreter(machine, image, hooks() if hooks else None,
                         max_instructions=max_instructions,
                         block_compile=block_compile, trace_fuse=trace_fuse)
    if install is not None:
        install(interp)
    try:
        outcome = interp.run()
    except MachineError as error:
        outcome = (type(error).__name__, str(error))
    events = [(e.seq, e.ts, e.ph, e.kind, e.name,
               sorted((e.args or {}).items()))
              for e in machine.recorder.events()] if record else []
    observed = {
        "outcome": outcome,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "metrics": machine.metrics.snapshot(),
        "sram": machine.read_bytes(machine.sram.base, machine.sram.size),
        "events": events,
        "tx": [device.transmitted() for device in machine.devices.values()
               if isinstance(device, UART)],
    }
    return observed, interp


def _skips(interp) -> int:
    return interp.compile_metrics.counter("idle.skips").value


def _compare(module, board, setup, **kwargs):
    """Run every tier, assert identical observables; return the block
    tier's interpreter and the shared observables."""
    reference, _ = _run(module, board, setup, REFERENCE, **kwargs)
    block, block_interp = _run(module, board, setup, BLOCK_TIER, **kwargs)
    traced, _ = _run(module, board, setup, TRACE_TIER, **kwargs)
    assert block == reference
    assert traced == reference
    return block_interp, reference


class TestUartWait:
    def test_plain_wait_skips_and_matches(self):
        interp, seen = _compare(_uart_module(), stm32f4_discovery(),
                                _uart_setup())
        assert seen["outcome"] == 1 + 2 + 3 + 4
        assert _skips(interp) >= 3  # one per paced byte
        assert interp.compile_metrics.counter(
            "idle.cycles_skipped").value > 30_000

    @pytest.mark.parametrize("reload", [999, 19_999],
                             ids=["tick-shorter-than-wait",
                                  "tick-longer-than-wait"])
    def test_systick_caps_the_skip(self, reload):
        interp, seen = _compare(_uart_module(systick_reload=reload),
                                stm32f4_discovery(), _uart_setup())
        assert seen["outcome"] == 10
        assert _skips(interp) > 0
        assert any(e[3] == "irq" for e in seen["events"])  # ticks fired

    def test_silent_tick_handler_caps_the_skip(self):
        # No store and no recorder: only the SysTick schedule shows
        # that a tick fell inside a measured iteration.  A period a few
        # iterations long puts ticks inside measured iterations.
        interp, seen = _compare(
            _uart_module(systick_reload=67, count_ticks=False),
            stm32f4_discovery(), _uart_setup(), record=False)
        assert seen["outcome"] == 10
        assert _skips(interp) > 0

    def test_budget_runs_out_mid_wait(self):
        interp, seen = _compare(_uart_module(), stm32f4_discovery(),
                                _uart_setup(), max_instructions=5_000)
        kind, message = seen["outcome"]
        assert kind == "ExecutionLimitExceeded"
        assert seen["instructions"] == 5_001
        assert _skips(interp) > 0

    def test_cyccnt_read_in_loop_never_skips(self):
        interp, _ = _compare(_uart_module(read_cyccnt=True),
                             stm32f4_discovery(), _uart_setup())
        assert _skips(interp) == 0

    def test_store_in_loop_never_skips(self):
        interp, seen = _compare(_uart_module(store_in_loop=True),
                                stm32f4_discovery(), _uart_setup())
        assert len(seen["tx"][0]) > 1000  # one byte per poll
        assert _skips(interp) == 0

    def test_side_effecting_read_in_loop_never_skips(self, monkeypatch):
        # The idle UART counts every empty poll: the reference hits its
        # poll limit inside the first paced wait.
        monkeypatch.setattr(uart_model, "_POLL_LIMIT", 300)
        interp, seen = _compare(_uart_module(read_idle_uart=True),
                                stm32f4_discovery(), _uart_setup())
        kind, message = seen["outcome"]
        assert "UART RX polled forever" in message
        assert _skips(interp) == 0

    def test_hook_cache_miss_is_not_scaled(self):
        # From the second wait on, the body's global load already has
        # its register but misses the freshly cleared hook cache (two
        # extra cycles) in the first measured iteration only.
        interp, seen = _compare(_uart_module(load_global=True),
                                stm32f4_discovery(), _uart_setup(),
                                hooks=_CachingHooks)
        assert seen["outcome"] == 10
        assert _skips(interp) > 0

    def test_empty_queue_hard_faults_at_the_same_poll(self, monkeypatch):
        monkeypatch.setattr(uart_model, "_POLL_LIMIT", 300)
        interp, seen = _compare(_uart_module(), stm32f4_discovery(),
                                _uart_setup(b""))
        kind, message = seen["outcome"]
        assert kind == "HardFault"
        assert "UART RX polled forever" in message
        assert _skips(interp) == 0


class TestCallBasedPoll:
    def test_frames_waiting_call_loop_skips_and_matches(self):
        interp, seen = _compare(_eth_module(), stm32479i_eval(), _eth_setup)
        assert seen["outcome"] == 60 + 64 + 72
        assert _skips(interp) >= 2  # one per paced frame

    @pytest.mark.parametrize("entry, skips", [("main", True),
                                              ("ETH_Frames_Waiting", False)])
    def test_task_tracer_state_is_respected(self, entry, skips):
        """Enter/exit callbacks run every poll.  The tracer's state
        token lets the loop skip while the trace stays unchanged, and
        stops it when every poll opens a new task window."""
        traces = []

        def install(interp):
            tracer = TaskTracer([entry])
            tracer.install(interp)
            traces.append(tracer.trace)

        board = stm32479i_eval()
        reference, _ = _run(_eth_module(), board, _eth_setup, REFERENCE,
                            install=install)
        block, interp = _run(_eth_module(), board, _eth_setup, BLOCK_TIER,
                             install=install)
        assert block == reference
        assert traces[0] == traces[1]
        assert (_skips(interp) > 0) == skips

    def test_callbacks_without_state_disable_skipping(self):
        entered = []

        def install(interp):
            interp.on_function_enter = lambda func: entered.append(func.name)

        board = stm32479i_eval()
        reference, _ = _run(_eth_module(), board, _eth_setup, REFERENCE,
                            install=install)
        calls = len(entered)
        block, interp = _run(_eth_module(), board, _eth_setup, BLOCK_TIER,
                             install=install)
        assert block == reference
        assert len(entered) == 2 * calls  # every call observed
        assert _skips(interp) == 0
