"""Tests for backend selection in the evaluation harness and the
comparative backend matrix."""

import pytest

from repro import config
from repro.cache.digest import run_digest
from repro.cli import BACKEND_CHOICES, build_parser
from repro.hw.backend import (
    DEFAULT_BACKEND,
    KNOWN_BACKENDS,
    create_backend,
)
from repro.hw.mpu import MPU
from repro.hw.overlay import OverlayProtection
from repro.hw.pmp import PmpProtection
from repro.eval import backends as backends_mod
from repro.eval.workloads import run_build


class TestBackendRegistry:
    def test_create_backend_by_name(self):
        assert isinstance(create_backend("mpu"), MPU)
        assert isinstance(create_backend("pmp"), PmpProtection)
        assert isinstance(create_backend("overlay"), OverlayProtection)

    def test_create_backend_passes_instances_through(self):
        overlay = OverlayProtection()
        assert create_backend(overlay) is overlay

    def test_unknown_backend_fails_loudly(self, monkeypatch):
        with pytest.raises(ValueError, match="unknown enforcement backend"):
            create_backend("mmu")
        monkeypatch.setenv("REPRO_BACKEND", "bogus")
        with pytest.raises(ValueError, match="bogus"):
            config.current()

    def test_ambient_backend_defaults_and_reads_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_BACKEND", raising=False)
        assert config.current().backend == DEFAULT_BACKEND
        monkeypatch.setenv("REPRO_BACKEND", "overlay")
        assert config.current().backend == "overlay"

    def test_cli_choices_match_known_backends(self):
        """The CLI spells the choices out (parser construction must not
        import the package); this pins the parity."""
        assert BACKEND_CHOICES == list(KNOWN_BACKENDS)

    def test_eval_parser_accepts_backends_target(self):
        args = build_parser().parse_args(
            ["eval", "backends", "--backend", "pmp"])
        assert args.target == "backends"
        assert args.backend == "pmp"


class TestRunCacheSeparation:
    def test_run_digest_differs_per_backend(self):
        digests = {run_digest("b" * 64, "PinLock", "quick", backend=b)
                   for b in KNOWN_BACKENDS}
        assert len(digests) == len(KNOWN_BACKENDS)

    def test_run_build_memoises_per_backend(self):
        mpu = run_build("PinLock", "opec", profile="quick", backend="mpu")
        overlay = run_build("PinLock", "opec", profile="quick",
                            backend="overlay")
        assert mpu is not overlay
        assert mpu is run_build("PinLock", "opec", profile="quick",
                                backend="mpu")

    def test_vanilla_cycles_are_backend_independent(self):
        cycles = {run_build("PinLock", "vanilla", profile="quick",
                            backend=b).cycles for b in KNOWN_BACKENDS}
        assert len(cycles) == 1


class TestMatrix:
    @pytest.fixture(scope="class")
    def cells(self):
        return {b: backends_mod.compute_cell("PinLock", b, "quick")
                for b in KNOWN_BACKENDS}

    def test_policy_properties_are_backend_invariant(self, cells):
        assert len({c.switches for c in cells.values()}) == 1
        assert len({c.memmanage_faults for c in cells.values()}) == 1
        assert len({c.region_swaps for c in cells.values()}) == 1
        assert len({c.pt_avg for c in cells.values()}) == 1

    def test_switch_costs_order_the_backends(self, cells):
        assert (cells["overlay"].switch_cycles
                < cells["mpu"].switch_cycles
                < cells["pmp"].switch_cycles)
        assert (cells["overlay"].cycles
                < cells["mpu"].cycles
                < cells["pmp"].cycles)

    def test_fanned_out_matrix_matches_inline(self):
        assert backends_mod.compute_matrix(apps=("PinLock",), jobs=2) \
            == backends_mod.compute_matrix(apps=("PinLock",), jobs=1)

    def test_render_is_deterministic_and_complete(self):
        rows = backends_mod.compute_matrix(apps=("PinLock",), jobs=1)
        text = backends_mod.render(rows)
        assert text == backends_mod.render(rows)
        for backend in KNOWN_BACKENDS:
            assert backend in text
        assert "Average" in text
