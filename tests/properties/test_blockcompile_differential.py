"""Differential property tests: compiled blocks vs single-stepping.

The superinstruction compiler claims *bit-identity* with the reference
single-step interpreter: same halt code (or same terminal fault,
identically worded), same simulated cycles, same instruction count,
same :class:`MachineStats`, same final SRAM image.  Random programs
probe the claim where hand-written tests tend not to look — mixed
binop/icmp/select/cast chains over memory, division by runtime zeros,
armed SysTick delivering IRQs mid-block, loads and stores that fault —
and quantify it over all three enforcement backends, since the
compiled fast path binds each backend's ``fast_allows`` closure.
"""

import pytest
from hypothesis import given, settings, strategies as st

import repro.ir as ir
from repro import build_opec, build_vanilla, run_image
from repro.apps import tcp_echo
from repro.hw import Machine, stm32f4_discovery
from repro.hw.backend import KNOWN_BACKENDS
from repro.hw.exceptions import MachineError
from repro.image import build_vanilla_image
from repro.interp import Interpreter
from repro.ir import I8, I32, VOID

WORD = 0xFFFFFFFF
u32 = st.integers(min_value=0, max_value=WORD)

BINOPS = list(ir.BINARY_OPS)
PREDS = list(ir.ICMP_PREDICATES)

op_steps = st.one_of(
    st.tuples(st.just("binop"), st.sampled_from(BINOPS)),
    st.tuples(st.just("icmp"), st.sampled_from(PREDS)),
    st.tuples(st.just("select"), st.sampled_from(PREDS)),
    st.tuples(st.just("truncext"), st.just("")),
)


@st.composite
def programs(draw):
    return {
        "seeds": draw(st.lists(u32, min_size=8, max_size=8)),
        "steps": draw(st.lists(op_steps, min_size=1, max_size=6)),
        "iterations": draw(st.integers(min_value=1, max_value=25)),
        "start": draw(u32),
        # 0 = SysTick disarmed; small reloads force IRQs mid-block.
        "reload": draw(st.sampled_from([0, 0, 67, 131])),
        # None = clean halt; otherwise a trailing access that faults
        # (unmapped space) or doesn't (SRAM), chosen adversarially.
        "probe": draw(st.sampled_from(
            [None, 0x60000000, 0x00000000, 0x20000000])),
        "probe_write": draw(st.booleans()),
    }


def _build_module(spec) -> ir.Module:
    module = ir.Module("differential")
    ticks = module.add_global("ticks", I32, 0)
    if spec["reload"]:
        _h, hb = ir.define(module, "SysTick_Handler", VOID, [],
                           irq_number=15)
        hb.store(hb.add(hb.load(ticks), 1), ticks)
        hb.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    arr = b.alloca(I32, 8)
    for j, seed in enumerate(spec["seeds"]):
        b.store(seed, b.gep(arr, j))
    acc_slot = b.alloca(I32)
    b.store(spec["start"], acc_slot)
    if spec["reload"]:
        b.store(spec["reload"], b.mmio(0xE000E014))
        b.store(7, b.mmio(0xE000E010))
    with b.for_range(0, spec["iterations"]) as load_i:
        acc = b.load(acc_slot)
        cell = b.gep(arr, b.and_(acc, 7))
        value = b.load(cell)
        for kind, arg in spec["steps"]:
            if kind == "binop":
                acc = b.binop(arg, acc, value)
            elif kind == "icmp":
                acc = b.add(b.zext(b.icmp(arg, acc, value)), value)
            elif kind == "select":
                acc = b.select(b.icmp(arg, acc, load_i()), acc, value)
            else:
                acc = b.zext(b.trunc(acc, I8))
        b.store(acc, cell)
        b.store(acc, acc_slot)
    final = b.add(b.load(acc_slot), b.load(ticks))
    if spec["probe"] is not None:
        if spec["probe_write"]:
            b.store(final, b.mmio(spec["probe"]))
        else:
            final = b.add(final, b.load(b.mmio(spec["probe"])))
    b.halt(final)
    return module


def _observe(module, block_compile) -> dict:
    """One run's complete simulated observable state."""
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image, max_instructions=200_000,
                         block_compile=block_compile)
    try:
        outcome = ("halt", interp.run())
    except MachineError as error:
        outcome = (type(error).__name__, str(error))
    return {
        "outcome": outcome,
        "cycles": machine.cycles,
        "instructions": interp.instructions_executed,
        "stats": machine.stats.as_dict(),
        "sram": machine.read_bytes(machine.sram.base, machine.sram.size),
    }


@given(programs())
@settings(max_examples=40, deadline=None)
def test_compiled_matches_singlestep(spec):
    module = _build_module(spec)
    compiled = _observe(module, True)
    singlestep = _observe(module, False)
    assert compiled == singlestep


def _observe_backend(image, app, backend, block_compile) -> dict:
    try:
        result = run_image(image, setup=app.setup,
                           max_instructions=app.max_instructions,
                           backend=backend, block_compile=block_compile)
    except MachineError as error:
        return {"outcome": (type(error).__name__, str(error))}
    return {
        "outcome": ("halt", result.halt_code),
        "cycles": result.machine.cycles,
        "instructions": result.interpreter.instructions_executed,
        "stats": result.machine.stats.as_dict(),
        "switches": result.hooks.switch_count,
    }


def test_pinlock_opec_identical_on_every_backend():
    """End-to-end differential under real enforcement: operation
    switches, SVC dispatch, MemManage retries, SysTick — per backend."""
    from repro.eval.workloads import build_app, opec_artifacts

    app = build_app("PinLock", profile="quick")
    image = opec_artifacts("PinLock", profile="quick").image
    for backend in KNOWN_BACKENDS:
        compiled = _observe_backend(image, app, backend, True)
        singlestep = _observe_backend(image, app, backend, False)
        assert compiled == singlestep, backend


@pytest.mark.parametrize("kind", ["vanilla", "opec"])
def test_tcp_echo_idle_skipping_identical(kind):
    """TCP-Echo spins in ``Rx_Task`` → ``ETH_Frames_Waiting`` between
    paced frames; the compiled tier fast-forwards that loop, the
    single-step reference never does, and every observable agrees."""
    app = tcp_echo.build(valid=2, invalid=4)
    if kind == "vanilla":
        image = build_vanilla(app.module, app.board)
    else:
        image = build_opec(app.module, app.board, app.specs).image
    observed = []
    for block_compile in (True, False):
        result = run_image(image, setup=app.setup,
                           max_instructions=app.max_instructions,
                           backend="mpu", block_compile=block_compile)
        app.verify_run(result.machine, result.halt_code)
        machine = result.machine
        observed.append({
            "outcome": result.halt_code,
            "cycles": machine.cycles,
            "instructions": result.interpreter.instructions_executed,
            "metrics": machine.metrics.snapshot(),
            "sram": machine.read_bytes(machine.sram.base,
                                       machine.sram.size),
            "skips": result.interpreter.compile_metrics.counter(
                "idle.skips").value,
        })
    compiled, singlestep = observed
    assert compiled.pop("skips") > 0
    assert singlestep.pop("skips") == 0
    assert compiled == singlestep
