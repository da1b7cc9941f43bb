"""The benchmark's three workloads.

Each workload drives one public entry point serially (``jobs=1``) in
this process: :func:`repro.eval.workloads.compute_all_rows` or
:func:`repro.campaign.run_campaign`.  A *rep* is one timed call.
Before each rep every in-process memo is dropped, so a rep sees what a
fresh ``repro`` process would see; the artifact store on disk is what
tells the workloads apart.
"""

from __future__ import annotations

import os
import shutil
import time
from pathlib import Path

import checks

#: §6.1 case study: PIN the attacker makes the lock accept.
ATTACK_PIN = b"6666"
BACKENDS = ("mpu", "pmp", "overlay")

#: Campaign corpus size per rep: covers the 8 smoke firmwares.
CAMPAIGN_FIRMWARES = 32


def reset_process_memos() -> None:
    """Forget every in-process memo the program keeps (builds, runs,
    digests, store instances and their counters, telemetry)."""
    from repro import cache
    from repro.eval.workloads import clear_caches
    from repro.obs import fleet

    clear_caches()
    cache.clear_digest_memos()
    cache.reset_store_state()
    fleet.reset()


def use_store(path) -> None:
    os.environ["REPRO_CACHE"] = str(path)
    reset_process_memos()


class Workload:
    """One workload: set-up, the timed rep, and its output checks."""

    def __init__(self, work: Path, golden: Path, campaign_seed: int):
        self.work = work
        self.golden = golden
        self.campaign_seed = campaign_seed
        self._reps = 0

    def _fresh_store(self) -> Path:
        self._reps += 1
        path = self.work / f"store-{self._reps}"
        use_store(path)
        return path

    def prepare(self) -> float:
        """Set-up beyond start-up; returns its host seconds."""
        return 0.0

    def before_rep(self) -> None:
        raise NotImplementedError

    def rep(self):
        raise NotImplementedError

    def after_rep(self) -> None:
        """Runs after the timed call and its checks."""

    def checks(self, result) -> list:
        raise NotImplementedError

    def simulated(self, result) -> dict[str, float]:
        """Simulated end-to-end values of one rep (exact)."""
        raise NotImplementedError

    def counters(self, result) -> tuple[dict, dict]:
        """(compile counters, store counters) the program returned."""
        raise NotImplementedError

    def lanes(self, result) -> int:
        return 0

    def finish(self) -> tuple[dict[str, float], list]:
        """Work after the timed reps: extra simulated values, checks."""
        return {}, []


class EvalWorkload(Workload):
    """One full §6 evaluation under the ``quick`` profile."""

    def __init__(self, *args, cold: bool):
        super().__init__(*args)
        self.cold = cold
        self._store: Path | None = None

    def prepare(self) -> float:
        if self.cold:
            return 0.0
        # Fill the store once; every rep then reads it warm.
        start = time.perf_counter()
        self._store = self._fresh_store()
        self.rep()
        return time.perf_counter() - start

    def before_rep(self) -> None:
        if self.cold:
            self._store = self._fresh_store()
        else:
            use_store(self._store)

    def rep(self):
        from repro.eval.workloads import compute_all_rows

        return compute_all_rows(jobs=1, backend="mpu")

    def after_rep(self) -> None:
        if self.cold:
            shutil.rmtree(self._store, ignore_errors=True)

    def checks(self, result) -> list:
        return checks.eval_checks(result, self.golden)

    def simulated(self, result) -> dict[str, float]:
        return {"opec_overhead_pct": result["figure9"][-1].runtime_pct}

    def counters(self, result) -> tuple[dict, dict]:
        return result["compile"], result["cache"]

    def finish(self) -> tuple[dict[str, float], list]:
        os.environ["REPRO_CACHE"] = "off"
        reset_process_memos()
        contained, case_checks = case_study()
        return {"opec_contained_pct": contained}, case_checks


class CampaignWorkload(Workload):
    """One differential campaign corpus against an empty store."""

    def __init__(self, *args, firmwares: int = CAMPAIGN_FIRMWARES):
        super().__init__(*args)
        from repro.campaign import ATTACK_KINDS, CampaignConfig

        self.config = CampaignConfig(
            seed=self.campaign_seed, firmwares=firmwares,
            attacks=ATTACK_KINDS, flavours=("vanilla", "opec", "aces"),
            backends=BACKENDS, jobs=1)
        self._store: Path | None = None

    def before_rep(self) -> None:
        self._store = self._fresh_store()

    def rep(self):
        from repro.campaign import run_campaign

        return run_campaign(self.config)

    def after_rep(self) -> None:
        shutil.rmtree(self._store, ignore_errors=True)

    def checks(self, result) -> list:
        from repro.campaign import render_report

        return checks.campaign_checks(result, render_report(result),
                                      self.golden)

    def simulated(self, result) -> dict[str, float]:
        blocked = total = 0
        overheads = []
        for report in result.reports:
            for (_kind, flavour, _backend), outcome in report.cells.items():
                if flavour == "opec":
                    total += 1
                    blocked += outcome.outcome == "blocked"
            opec = report.baseline[("opec", "mpu")].cycles
            vanilla = report.baseline[("vanilla", "mpu")].cycles
            overheads.append(100.0 * (opec / vanilla - 1.0))
        return {
            "opec_contained_pct": 100.0 * blocked / total,
            # Same quantity as Figure 9's runtime column, averaged over
            # the corpus's attack-free MPU baseline lanes.
            "opec_overhead_pct": sum(overheads) / len(overheads),
        }

    def counters(self, result) -> tuple[dict, dict]:
        return checks.campaign_counters(result)

    def lanes(self, result) -> int:
        return sum(len(report.baseline) + len(report.cells)
                   for report in result.reports)


def make(name: str, work: Path, golden: Path, campaign_seed: int,
         firmwares: int = CAMPAIGN_FIRMWARES) -> Workload:
    if name == "eval_cold":
        return EvalWorkload(work, golden, campaign_seed, cold=True)
    if name == "eval_warm":
        return EvalWorkload(work, golden, campaign_seed, cold=False)
    if name == "campaign":
        return CampaignWorkload(work, golden, campaign_seed,
                                firmwares=firmwares)
    raise ValueError(f"unknown workload {name!r}")


# -- §6.1 case study -------------------------------------------------------


def _attack_setup(key_address: int):
    """PinLock host stimulus: a rejected PIN, then the exploit that
    overwrites the stored key hash, then the attacker's PIN."""
    from repro.apps.hal.crypto import fnv1a_host
    from repro.apps.hal.uart import ATTACK_TRIGGER
    from repro.hw.peripherals import GPIO, RCC, UART

    forged = fnv1a_host(ATTACK_PIN)

    def setup(machine):
        machine.attach_device("RCC", RCC())
        for port in ("GPIOA", "GPIOB", "GPIOC", "GPIOD"):
            machine.attach_device(port, GPIO())
        uart = machine.attach_device("USART2", UART())
        uart.feed(b"9999")
        uart.feed(bytes([ATTACK_TRIGGER]))
        uart.feed(key_address.to_bytes(4, "little"))
        uart.feed(forged.to_bytes(4, "little"))
        uart.feed(ATTACK_PIN)
        uart.feed(b"0000")

    return setup


def case_study() -> tuple[float, list]:
    """The §6.1 PinLock attack: it must succeed on the vanilla build;
    returns the share of backends on which OPEC contains it."""
    from repro import build_opec, build_vanilla, run_image
    from repro.apps import pinlock
    from repro.hw import SecurityAbort

    app = pinlock.build(rounds=1, vulnerable=True)
    image = build_vanilla(app.module, app.board)
    key = image.global_address(image.module.get_global("KEY"))
    result = run_image(image, setup=_attack_setup(key),
                       max_instructions=app.max_instructions)
    succeeded = (result.halt_code == 1 and
                 b"Y" in result.machine.device("USART2").transmitted())
    found = [("case study: attack succeeds on vanilla", succeeded)]

    artifacts = build_opec(app.module, app.board, app.specs)
    target = artifacts.image.public_addresses[
        artifacts.module.get_global("KEY")]
    blocked = 0
    for backend in BACKENDS:
        try:
            run_image(artifacts.image, setup=_attack_setup(target),
                      max_instructions=app.max_instructions,
                      backend=backend)
        except SecurityAbort:
            blocked += 1
    found.append(("case study: OPEC blocks on every backend",
                  blocked == len(BACKENDS)))
    return 100.0 * blocked / len(BACKENDS), found
