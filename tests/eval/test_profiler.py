"""Tests for the per-function cycle profiler."""

import pytest

import repro.ir as ir
from repro import build_opec, build_vanilla, run_image
from repro.baselines import build_aces
from repro.eval.profiler import FunctionProfile, Profile, profile_image
from repro.hw import stm32f4_discovery
from repro.ir import I32, VOID

from ..conftest import MINI_SPECS, build_mini_module


def _heavy_module():
    module = ir.Module("prof")
    light, b = ir.define(module, "light", VOID, [])
    b.ret_void()
    heavy, b = ir.define(module, "heavy", VOID, [])
    with b.for_range(0, 500):
        pass
    b.ret_void()
    _m, b = ir.define(module, "main", I32, [])
    b.call(light)
    b.call(heavy)
    b.call(light)
    b.halt(0)
    return module


class TestProfiler:
    def test_attribution_shape(self, board):
        profile = profile_image(build_vanilla(_heavy_module(), board))
        heavy = profile.functions["heavy"]
        light = profile.functions["light"]
        assert heavy.self_cycles > light.self_cycles * 10
        assert heavy.calls == 1
        assert light.calls == 2

    def test_total_includes_callees(self, board):
        profile = profile_image(build_vanilla(_heavy_module(), board))
        main = profile.functions["main"]
        heavy = profile.functions["heavy"]
        assert main.total_cycles >= heavy.total_cycles
        assert main.self_cycles < main.total_cycles

    def test_cycles_sum_to_run_total(self, board):
        profile = profile_image(build_vanilla(_heavy_module(), board))
        total_self = sum(p.self_cycles for p in profile.functions.values())
        assert total_self == profile.total_cycles

    def test_opec_run_shows_switch_overhead_in_main(self, board):
        """Under OPEC, the SVC/switch cost lands in the caller's self
        time — visible as main's self-cycles growing vs the baseline."""
        vanilla = profile_image(build_vanilla(build_mini_module(), board))
        artifacts = build_opec(build_mini_module(), board, MINI_SPECS)
        opec = profile_image(artifacts.image)
        assert opec.halt_code == vanilla.halt_code
        assert opec.functions["main"].self_cycles > \
            vanilla.functions["main"].self_cycles

    def test_aces_profile_runs_under_the_aces_runtime(self, board):
        """Regression: ACES images were profiled without their runtime,
        so no compartment switch was charged and the MPU stayed off."""
        image = build_aces(build_mini_module(), board, "ACES2").image
        profile = profile_image(image)
        assert profile.total_cycles == run_image(image).cycles

    def test_render(self, board):
        profile = profile_image(build_vanilla(_heavy_module(), board))
        text = profile.render()
        assert "heavy" in text
        assert "Self %" in text


class TestTop:
    def _profile(self):
        profile = Profile()
        profile.functions = {
            name: FunctionProfile(name=name, calls=calls, self_cycles=sc,
                                  total_cycles=tc)
            for name, calls, sc, tc in [
                ("beta", 2, 50, 90), ("alpha", 2, 50, 90),
                ("gamma", 1, 100, 100),
            ]
        }
        return profile

    def test_sorts_by_requested_key(self):
        profile = self._profile()
        assert [p.name for p in profile.top(by="self_cycles")][0] == "gamma"
        assert [p.name for p in profile.top(by="calls")][:2] \
            == ["alpha", "beta"]

    def test_ties_break_on_function_name(self):
        names = [p.name for p in self._profile().top(by="self_cycles")]
        assert names == ["gamma", "alpha", "beta"]  # alpha < beta

    def test_count_truncates(self):
        assert len(self._profile().top(count=2)) == 2

    def test_unknown_sort_key_rejected(self):
        with pytest.raises(ValueError, match="unknown profile sort key"):
            self._profile().top(by="wall_clock")
        with pytest.raises(ValueError, match="name"):
            self._profile().top(by="name")  # exists but not numeric
