"""Property-based tests on link-time invariants and data sync.

Random firmwares — random global sizes, random sharing patterns across
a random number of tasks — are partitioned and linked; the resulting
OPEC image must always satisfy the layout invariants of DESIGN.md, and
a run must always produce the same result as the vanilla build.
"""

from hypothesis import given, settings, strategies as st

import repro.ir as ir
from repro import build_opec, build_vanilla, run_image
from repro.hw import stm32f4_discovery
from repro.ir import I32, VOID, array
from repro.partition import OperationSpec


@st.composite
def firmware(draw):
    """A random module: N tasks, M globals, random access matrix."""
    num_tasks = draw(st.integers(min_value=1, max_value=5))
    num_globals = draw(st.integers(min_value=1, max_value=8))
    sizes = [draw(st.sampled_from([4, 8, 16, 64, 256]))
             for _ in range(num_globals)]
    # access[t] = set of globals task t increments.
    access = [
        draw(st.sets(st.integers(0, num_globals - 1), max_size=num_globals))
        for _ in range(num_tasks)
    ]

    module = ir.Module("random_fw")
    gvars = []
    for i, size in enumerate(sizes):
        gvars.append(module.add_global(f"g{i}", array(ir.I8, size)))

    tasks = []
    for t, touched in enumerate(access):
        func, b = ir.define(module, f"task{t}", VOID, [],
                            source_file=f"t{t}.c")
        for gi in sorted(touched):
            slot = b.gep(gvars[gi], 0, 0)
            b.store(b.trunc(b.add(b.zext(b.load(slot)), 1)), slot)
        b.ret_void()
        tasks.append(func)

    _m, b = ir.define(module, "main", I32, [], source_file="main.c")
    total_calls = 0
    for func in tasks:
        b.call(func)
        total_calls += 1
    # Sum first bytes of all globals as the observable result.
    acc = b.alloca(I32)
    b.store(0, acc)
    for gvar in gvars:
        byte = b.zext(b.load(b.gep(gvar, 0, 0)))
        b.store(b.add(b.load(acc), byte), acc)
    b.halt(b.load(acc))
    specs = [OperationSpec(f.name) for f in tasks]
    return module, specs


@given(firmware())
@settings(max_examples=40, deadline=None)
def test_layout_invariants_hold_for_random_firmware(fw):
    module, specs = fw
    board = stm32f4_discovery()
    artifacts = build_opec(module, board, specs)
    image = artifacts.image

    # 1. No two sections overlap.
    ordered = sorted(image.sections, key=lambda s: s.base)
    for a, b in zip(ordered, ordered[1:]):
        assert a.end <= b.base, f"{a.name} overlaps {b.name}"

    # 2. Every shadow lies inside its operation's section.
    size = {name: image.module.get_global(name).size
            for _op, name in image.shadow_addresses}
    for (op_index, name), address in image.shadow_addresses.items():
        section = image.op_layouts[op_index].section
        assert section.base <= address
        assert address + size[name] <= section.end

    # 3. Distinct shadows never overlap.
    spans = sorted(
        (addr, addr + size[name])
        for (_op, name), addr in image.shadow_addresses.items()
    )
    for (s1, e1), (s2, _e2) in zip(spans, spans[1:]):
        assert e1 <= s2

    # 4. The data-zone region covers every operation section and never
    #    reaches down over the relocation table.
    zone_end = image.zone_start + image.zone_size
    for layout in image.op_layouts.values():
        assert image.zone_start <= layout.section.base
        assert layout.section.end <= zone_end
    assert image.zone_start >= image.section("reloc").end

    # 5. Section MPU templates are legal by construction (validated in
    #    MPURegion.__post_init__ when instantiated).
    for layout in image.op_layouts.values():
        for template in layout.templates:
            template.instantiate()


@given(firmware())
@settings(max_examples=25, deadline=None)
def test_opec_run_equals_vanilla_run(fw):
    module, specs = fw
    board = stm32f4_discovery()
    vanilla = run_image(build_vanilla(module, board))
    artifacts = build_opec(module, board, specs)
    opec = run_image(artifacts.image)
    assert opec.halt_code == vanilla.halt_code


@given(firmware())
@settings(max_examples=25, deadline=None)
def test_shadow_classification_is_consistent(fw):
    module, specs = fw
    board = stm32f4_discovery()
    artifacts = build_opec(module, board, specs)
    policy = artifacts.policy
    for gvar, placement in policy.placements.items():
        accessors = policy.accessors_of(gvar)
        if placement.is_external:
            assert len(accessors) >= 2
            # Every accessor has exactly one shadow.
            for op in accessors:
                assert (op.index, gvar.name) in artifacts.image.shadow_addresses
        elif placement.is_internal:
            assert len(accessors) == 1
            assert gvar in policy.internal_vars(accessors[0])
