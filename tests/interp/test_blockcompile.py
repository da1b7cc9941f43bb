"""Unit tests for the per-block superinstruction compiler.

The compiler's contract is bit-identity with single-step execution —
same halt codes, same simulated cycles, same stats, same memory image,
same fault messages — plus structural guarantees: closures are cached
on the (image-independent) IR block, uncompilable blocks degrade to a
cached ``None`` sentinel, and ``REPRO_BLOCKCOMPILE`` validates loudly
and reaches the interpreter.
"""

import pickle

import pytest

import repro.ir as ir
from repro import config
from repro.hw import Machine, stm32f4_discovery
from repro.hw.exceptions import MachineError
from repro.image import build_vanilla_image
from repro.interp import (
    ExecutionLimitExceeded,
    Interpreter,
    compile_block,
)
from repro.ir import I32, VOID


def _loop_module(iterations: int = 500):
    module = ir.Module("loop")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, iterations) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    return module


def _run(module, block_compile, *, max_instructions=1_000_000,
         raise_irqs=()):
    """Run a vanilla build; return (interp, machine, outcome).

    ``outcome`` is the halt code, or the terminal :class:`MachineError`
    when the firmware faults — callers compare it across modes.
    """
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    for number in raise_irqs:
        machine.raise_irq(number)
    interp = Interpreter(machine, image, max_instructions=max_instructions,
                         block_compile=block_compile)
    try:
        outcome = interp.run()
    except MachineError as error:
        outcome = error
    return interp, machine, outcome


def _compare_modes(module, *, max_instructions=1_000_000, raise_irqs=()):
    """Run both modes and assert the simulated outcomes are identical."""
    results = []
    for mode in (True, False):
        interp, machine, outcome = _run(
            module, mode, max_instructions=max_instructions,
            raise_irqs=raise_irqs)
        sram = machine.read_bytes(machine.sram.base, machine.sram.size)
        results.append({
            "outcome": (type(outcome).__name__, str(outcome))
            if isinstance(outcome, MachineError) else outcome,
            "cycles": machine.cycles,
            "instructions": interp.instructions_executed,
            "stats": machine.stats.as_dict(),
            "sram": sram,
        })
    compiled, singlestep = results
    assert compiled == singlestep
    return compiled


class TestEnvKnob:
    # Empty counts as set-but-blank: the default, which is on.
    @pytest.mark.parametrize("raw", ["", *sorted(config.ON_VALUES)])
    def test_on_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", raw)
        assert config.current().block_compile is True

    @pytest.mark.parametrize("raw", sorted(config.OFF_VALUES))
    def test_off_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", raw)
        assert config.current().block_compile is False

    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_BLOCKCOMPILE", raising=False)
        assert config.current().block_compile is True

    def test_misspelling_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", "fastish")
        with pytest.raises(ValueError, match="REPRO_BLOCKCOMPILE"):
            config.current().block_compile

    def test_interpreter_consults_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCKCOMPILE", "off")
        module = _loop_module(5)
        board = stm32f4_discovery()
        image = build_vanilla_image(module, board)
        machine = Machine(board)
        image.initialize_memory(machine)
        assert Interpreter(machine, image).block_compile is False
        # An explicit constructor argument overrides the environment.
        assert Interpreter(machine, image,
                           block_compile=True).block_compile is True


class TestClosureCache:
    def test_closure_cached_and_shared_across_machines(self):
        module = _loop_module(50)
        interp1, _, code1 = _run(module, True)
        first = interp1.compile_metrics.snapshot()["counters"]
        assert first["blockcompile.blocks_compiled"] > 0
        assert first["blockcompile.compile_errors"] == 0
        for block in module.get_function("main").blocks:
            assert callable(block._compiled)
        # A second run over the same IR reuses every closure.
        interp2, _, code2 = _run(module, True)
        second = interp2.compile_metrics.snapshot()["counters"]
        assert second["blockcompile.blocks_compiled"] == 0
        assert second["blockcompile.block_entries"] > 0
        assert code1 == code2

    def test_compile_failure_caches_none_sentinel(self):
        class Broken:
            """Not a BasicBlock: codegen dies, compile_block must not."""
            instructions = None

        broken = Broken()
        assert compile_block(broken) is None
        assert broken._compiled is None

    def test_pickle_drops_compiled_closures(self):
        module = _loop_module(10)
        _run(module, True)
        main = module.get_function("main")
        assert any(callable(b._compiled) for b in main.blocks)
        clone = pickle.loads(pickle.dumps(module))
        for block in clone.get_function("main").blocks:
            assert not hasattr(block, "_compiled")

    def test_generated_source_attached(self):
        module = _loop_module(10)
        _run(module, True)
        entry = module.get_function("main").blocks[0]
        assert "frame.index" in entry._compiled.__repro_source__


class TestEquivalence:
    def test_arith_loop_bit_identical(self):
        result = _compare_modes(_loop_module(500))
        assert result["outcome"] == sum(range(500)) & 0xFFFFFFFF

    def test_budget_exhaustion_identical(self):
        module = _loop_module(10_000)
        outcomes = []
        for mode in (True, False):
            board = stm32f4_discovery()
            image = build_vanilla_image(module, board)
            machine = Machine(board)
            image.initialize_memory(machine)
            interp = Interpreter(machine, image, max_instructions=777,
                                 block_compile=mode)
            with pytest.raises(ExecutionLimitExceeded) as excinfo:
                interp.run()
            outcomes.append((str(excinfo.value), machine.cycles,
                             interp.instructions_executed))
        assert outcomes[0] == outcomes[1]
        # The limit trips on the first instruction past the budget.
        assert outcomes[0][2] == 778

    def test_bus_fault_identical(self):
        # Load from unmapped address space: terminal fault either mode.
        module = ir.Module("crash")
        _m, b = ir.define(module, "main", I32, [])
        acc = b.alloca(I32)
        b.store(1, acc)
        b.halt(b.load(b.mmio(0x60000000)))
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert message  # a real diagnostic, identically worded

    def test_undefined_value_identical(self):
        # A value defined only on a never-taken path: the compiled
        # register fetch raises KeyError and must replay through the
        # single-step handler for the canonical HardFault message.
        module = ir.Module("undef")
        main = ir.Function("main", ir.FunctionType(I32, []))
        module.add_function(main)
        b = ir.IRBuilder(main)
        dead = main.add_block("dead")
        live = main.add_block("live")
        b.jump(live)
        b.position_at_end(dead)
        phantom = b.add(1, 2)
        b.jump(live)
        b.position_at_end(live)
        b.halt(b.add(phantom, 1))
        result = _compare_modes(module)
        kind, message = result["outcome"]
        assert kind == "HardFault"
        assert "use of undefined value" in message

    def test_mid_run_irqs_identical(self):
        # SysTick armed: compiled blocks must suspend for pending IRQs
        # at instruction boundaries exactly like single-stepping.
        module = ir.Module("ticks")
        ticks = module.add_global("uwTick", I32, 0)
        _h, b = ir.define(module, "SysTick_Handler", VOID, [],
                          irq_number=15)
        b.store(b.add(b.load(ticks), 1), ticks)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        b.store(99, b.mmio(0xE000E014))   # RVR: tick every 100 cycles
        b.store(7, b.mmio(0xE000E010))    # CSR: ENABLE | TICKINT
        with b.for_range(0, 2000):
            pass
        b.halt(b.load(ticks))
        result = _compare_modes(module, max_instructions=10_000_000)
        assert result["outcome"] > 10  # the handler really fired

    def test_fallback_steps_counted_for_irq_windows(self):
        module = ir.Module("irq")
        flag = module.add_global("flag", I32, 0)
        _h, b = ir.define(module, "H", VOID, [], irq_number=40)
        b.store(1, flag)
        b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        with b.for_range(0, 20):
            pass
        b.halt(b.load(flag))
        interp, _, code = _run(module, True, raise_irqs=[40])
        assert code == 1
        counters = interp.compile_metrics.snapshot()["counters"]
        assert counters["blockcompile.fallback_steps"] > 0


class TestIRQDeliveryOrder:
    def test_pending_irqs_are_fifo(self):
        """Regression pin for the ``pop(0)`` → ``popleft()`` migration:
        two IRQs raised back-to-back must be delivered oldest-first."""
        module = ir.Module("order")
        order = module.add_global("order", I32, 0)
        for number in (40, 41):
            _h, b = ir.define(module, f"H{number}", VOID, [],
                              irq_number=number)
            b.store(b.add(b.mul(b.load(order), 100), number), order)
            b.ret_void()
        _m, b = ir.define(module, "main", I32, [])
        with b.for_range(0, 50):
            pass
        b.halt(b.load(order))
        for mode in (True, False):
            _, _, code = _run(module, mode, raise_irqs=[40, 41])
            assert code == 40 * 100 + 41  # FIFO: 40 first, then 41
