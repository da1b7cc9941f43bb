"""The ablations EXPERIMENTS.md reports, as pass/fail checks.

* switch cost grows with the volume of shared globals to synchronise;
* an external global's relocation slot costs no extra switches;
* merging adjacent peripheral windows saves MPU regions (§4.3);
* range sanitisation (§5.2) costs cycles but not behaviour;
* the substrate itself: MPU sub-regions and a long interpreted loop.
"""

import pytest

import repro.ir as ir
from repro import build_opec, build_vanilla, run_image
from repro.apps import ACES_APPS
from repro.eval.workloads import opec_artifacts
from repro.hw import MPU, MPURegion, Machine, stm32f4_discovery
from repro.image import build_vanilla_image
from repro.image.mpu_config import covering_regions
from repro.interp import Interpreter
from repro.ir import I32, VOID, array
from repro.partition import OperationSpec
from repro.partition.operations import merge_peripheral_windows


def _switch_module(shared_bytes: int, calls: int = 50):
    """main repeatedly enters a trivial operation sharing
    ``shared_bytes`` of globals with it."""
    module = ir.Module("switchbench")
    shared = module.add_global("shared", array(ir.I8, shared_bytes))
    task, b = ir.define(module, "task", VOID, [])
    slot = b.gep(shared, 0, 0)
    b.store(b.trunc(b.add(b.zext(b.load(slot)), 1)), slot)
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    first = b.gep(shared, 0, 0)
    b.store(b.trunc(b.zext(b.load(first))), first)  # main shares it too
    with b.for_range(0, calls):
        b.call(task)
    b.halt(b.zext(b.load(first)))
    return module


def _cycles_per_switch(shared_bytes: int) -> float:
    board = stm32f4_discovery()
    artifacts = build_opec(_switch_module(shared_bytes), board,
                           [OperationSpec("task")])
    opec = run_image(artifacts.image)
    vanilla = run_image(build_vanilla(_switch_module(shared_bytes), board))
    assert opec.halt_code == vanilla.halt_code == 50
    return (opec.cycles - vanilla.cycles) / opec.hooks.switch_count


def test_switch_cost_scales_with_sync_volume():
    costs = [_cycles_per_switch(size) for size in (4, 64, 1024)]
    assert 0 < costs[0] < costs[1] < costs[2]


def test_reloc_indirection_costs_no_extra_switches():
    board = stm32f4_discovery()
    artifacts = build_opec(_switch_module(4, calls=1), board,
                           [OperationSpec("task")])
    result = run_image(artifacts.image)
    # One enter/exit pair: exactly two switches worth of SVC traffic.
    assert result.machine.stats.svc_calls == 2


def _mpu_pieces(windows) -> int:
    return sum(len(covering_regions(w.base, w.size)) for w in windows)


@pytest.mark.parametrize("app_name", ACES_APPS)
def test_window_merging_never_costs_regions(app_name):
    for operation in opec_artifacts(app_name).operations:
        peripherals = operation.resources.peripherals
        assert _mpu_pieces(merge_peripheral_windows(peripherals)) \
            <= _mpu_pieces(peripherals)


def test_window_merging_saves_regions_on_adjacent_ports():
    board = stm32f4_discovery()
    adjacent = [board.peripheral(name)
                for name in ("GPIOA", "GPIOB", "GPIOC", "GPIOD", "GPIOE")]
    assert _mpu_pieces(merge_peripheral_windows(adjacent)) \
        < _mpu_pieces(adjacent)


def _sanitize_module(with_ranges: bool):
    module = ir.Module("sanbench")
    for i in range(6):
        module.add_global(
            f"g{i}", ir.I32, i,
            sanitize_range=(0, 1000) if with_ranges else None)
    task, b = ir.define(module, "task", ir.VOID, [])
    for i in range(6):
        g = module.get_global(f"g{i}")
        b.store(b.add(b.load(g), 1), g)
    b.ret_void()
    _m, b = ir.define(module, "main", ir.I32, [])
    acc = b.alloca(ir.I32)
    b.store(0, acc)
    with b.for_range(0, 40):
        b.call(task)
    b.halt(b.load(module.get_global("g0")))
    return module


def test_sanitization_costs_cycles_not_behaviour():
    board = stm32f4_discovery()
    results = {}
    for with_ranges in (False, True):
        artifacts = build_opec(_sanitize_module(with_ranges), board,
                               [OperationSpec("task")])
        results[with_ranges] = run_image(artifacts.image)
    assert results[False].halt_code == results[True].halt_code == 40
    assert results[True].cycles > results[False].cycles


def test_mpu_subregions_gate_a_sweep():
    mpu = MPU(enabled=True, privdefena=True)
    mpu.set_region(MPURegion(number=0, base=0x0, size=0x40000000,
                             priv="RW", unpriv="RO"))
    mpu.set_region(MPURegion(number=3, base=0x20000000, size=0x4000,
                             priv="RW", unpriv="RW",
                             subregion_disable=0xF0))
    mpu.set_region(MPURegion(number=4, base=0x20008000, size=0x400,
                             priv="RW", unpriv="RW"))
    allowed = [mpu.allows(address, 4, False, True)
               for address in range(0x20000000, 0x20004000, 0x800)]
    # Sub-regions 0-3 of region 3 are enabled; 4-7 fall back to the
    # read-only background region.
    assert allowed == [True] * 4 + [False] * 4


def test_interpreter_runs_a_long_loop():
    module = ir.Module("throughput")
    _m, b = ir.define(module, "main", I32, [])
    acc = b.alloca(I32)
    b.store(0, acc)
    with b.for_range(0, 20_000) as load_i:
        b.store(b.add(b.load(acc), load_i()), acc)
    b.halt(b.load(acc))
    board = stm32f4_discovery()
    image = build_vanilla_image(module, board)
    machine = Machine(board)
    image.initialize_memory(machine)
    interp = Interpreter(machine, image)
    assert interp.run() == sum(range(20_000)) & 0xFFFFFFFF
    assert interp.instructions_executed > 100_000
