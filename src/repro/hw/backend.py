"""The enforcement-backend core (ROADMAP item 3, paper §7).

OPEC's design claims portability to any substrate with MPU-like
physical memory permissions.  This module makes that claim a contract:
:class:`EnforcementBackend` is what the monitor, the ACES baseline
runtime, and the image pipeline program against, and it implements
every part of the contract that does not depend on the hardware.
Three substrates specialise it:

* ``mpu`` — the faithful ARMv7-M MPU (:class:`repro.hw.mpu.MPU`), the
  substrate every committed ``results/`` figure was produced on;
* ``pmp`` — the RISC-V PMP adapter (:class:`repro.hw.pmp.PmpProtection`),
  which lowers MPU region sets onto NAPOT entries;
* ``overlay`` — a Complets-style permission-overlay model
  (:class:`repro.hw.overlay.OverlayProtection`): the region set is
  compiled into a flat permission table once per configuration and a
  switch is a single overlay-select register write.

The contract has five parts:

1. **region/overlay load** — ``load_configuration`` /  ``set_region`` /
   ``clear_region`` / ``get_region`` consume the backend-neutral policy
   language, :class:`repro.hw.mpu.MPURegion` descriptors (the output of
   :mod:`repro.image.mpu_config`), kept in an 8-slot ``regions`` table;
2. **per-access arbitration** — ``allows(address, size, privileged,
   write)``; for unprivileged accesses every backend must arbitrate
   identically (property-tested in
   ``tests/properties/test_backend_differential.py``); privileged
   deltas are documented per backend (DESIGN.md, "Enforcement
   backends");
3. **cost model** — ``switch_base_cost`` (cycles charged per full
   reconfiguration, i.e. one operation/compartment switch) and
   ``region_switch_cost`` (cycles per fault-driven single-window
   remap); the monitor charges these instead of hard-wired constants,
   so backends with cheaper or dearer switch hardware show up in the
   Figure 9 matrix;
4. **snapshot/restore** — the opaque configuration capsule saved in
   operation context;
5. **decision-cache epoch** — every configuration change bumps
   ``epoch`` and drops the memoised verdicts (``invalidate``), so
   cached arbitration never survives a reconfiguration.

The base class implements parts 1, 2 (the memo around arbitration),
4 and 5.  A substrate supplies only its costs (part 3), ``_lower`` —
rebuilding its own representation from ``regions``, run once at
construction and once per configuration change — and ``_arbitrate``,
the uncached per-access check against that representation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Union

# Backend names the factory, the CLI, and ``REPRO_BACKEND`` accept, and
# the substrate the committed ``results/`` were produced on.
from ..config import DEFAULT_BACKEND, KNOWN_BACKENDS

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .mpu import MPURegion

#: Slots in the policy language's region table (the ARMv7-M MPU's).
NUM_REGIONS = 8


class EnforcementBackend:
    """One memory-isolation substrate (MPU / PMP / permission overlay).

    Holds the control bits (``enabled``, checked before any
    arbitration, and ``privdefena``, the privileged default-map
    fall-back), the ``regions`` table, and the verdict memo of the
    current configuration ``epoch``.

    Verdicts are memoised under ``(first-word, last-word, privileged,
    write, privdefena)``.  Every substrate's region edges fall on
    multiples of four bytes — MPU regions and sub-regions are at least
    four bytes wide and aligned, PMP entries are NAPOT (≥ 4 bytes), the
    overlay's intervals are sub-region edges — so the verdict for a
    probe byte is constant across its aligned 4-byte word.
    ``privileged`` is part of the key, so privilege changes need no
    invalidation; ``enabled`` is re-checked on every call before the
    memo is consulted.
    """

    #: Registry name (also the CLI/``REPRO_BACKEND`` spelling).
    name: str = "abstract"
    #: Cycles charged for a full reconfiguration (operation switch).
    switch_base_cost: int = 0
    #: Cycles charged for a fault-driven single-window remap.
    region_switch_cost: int = 0

    def __init__(self, *, enabled: bool = False, privdefena: bool = True):
        self.enabled = enabled
        self.privdefena = privdefena
        self.regions: list[Optional["MPURegion"]] = [None] * NUM_REGIONS
        self.epoch = 0
        self._decisions: dict = {}
        self._lower()

    # -- configuration (the backend-neutral policy language) -----------

    def load_configuration(self, regions: list["MPURegion"]) -> None:
        """Replace the whole configuration (operation switch, §5.3)."""
        self.regions = [None] * NUM_REGIONS
        for region in regions:
            self.regions[region.number] = region
        self._reconfigure()

    def set_region(self, region: "MPURegion") -> None:
        """Install one region descriptor (fault-time virtualisation)."""
        self.regions[region.number] = region
        self._reconfigure()

    def clear_region(self, number: int) -> None:
        """Remove the descriptor in slot ``number``."""
        self.regions[number] = None
        self._reconfigure()

    def get_region(self, number: int) -> Optional["MPURegion"]:
        """The descriptor currently in slot ``number`` (or ``None``)."""
        return self.regions[number]

    # -- context capsule ------------------------------------------------

    def snapshot(self) -> list[Optional["MPURegion"]]:
        """Copy of the current configuration (operation context)."""
        return list(self.regions)

    def restore(self, snapshot: list[Optional["MPURegion"]]) -> None:
        """Reinstall a :meth:`snapshot` capsule."""
        self.regions = list(snapshot)
        self._reconfigure()

    # -- decision-cache epoch -------------------------------------------

    def _reconfigure(self) -> None:
        """Lower the new ``regions`` table and start a new epoch."""
        self._lower()
        self.invalidate()

    def invalidate(self) -> None:
        """Start a new configuration epoch, dropping cached verdicts."""
        self.epoch += 1
        self._decisions = {}

    # -- substrate hooks --------------------------------------------------

    def _lower(self) -> None:
        """Rebuild the substrate's representation of ``regions``.

        The MPU arbitrates the table directly and keeps this no-op.
        """

    def _arbitrate(self, address: int, size: int, privileged: bool,
                   write: bool) -> bool:
        """The uncached check of the first and last probe byte."""
        raise NotImplementedError

    # -- arbitration ----------------------------------------------------

    def allows(self, address: int, size: int, privileged: bool,
               write: bool) -> bool:
        """Arbitrate one access of ``size`` bytes at ``address``."""
        if not self.enabled:
            return True
        key = (address >> 2, (address + size - 1) >> 2, privileged, write,
               self.privdefena)
        verdict = self._decisions.get(key)
        if verdict is None:
            verdict = self._arbitrate(address, size, privileged, write)
            self._decisions[key] = verdict
        return verdict

    def fast_allows(self):
        """An arbitration callable specialised for the current ``epoch``.

        The block compiler's fault-free load/store path calls the
        returned callable instead of :meth:`allows`; it arbitrates
        identically for as long as ``self.epoch`` keeps its current
        value.  Callers re-validate ``(backend identity, epoch)`` before
        every use and rebind after any mismatch (see
        ``Machine._refresh_fast_path``).  The closure captures this
        epoch's verdict memo and the arbitrator — ``invalidate``
        *replaces* ``_decisions`` and ``_lower`` replaces the
        representation, so neither can serve a later epoch — and reads
        ``enabled`` and ``privdefena`` live, because they flip without
        an epoch bump.
        """
        def fast(address, size, privileged, write, _self=self,
                 _decisions=self._decisions, _arbitrate=self._arbitrate):
            if not _self.enabled:
                return True
            key = (address >> 2, (address + size - 1) >> 2, privileged,
                   write, _self.privdefena)
            verdict = _decisions.get(key)
            if verdict is None:
                verdict = _arbitrate(address, size, privileged, write)
                _decisions[key] = verdict
            return verdict

        return fast


BackendSpec = Union[str, EnforcementBackend]


def create_backend(spec: BackendSpec = DEFAULT_BACKEND) -> EnforcementBackend:
    """Instantiate a backend by registry name (or pass one through).

    Imports lazily so this module stays import-light and free of
    cycles (the concrete backends import :class:`EnforcementBackend`).
    """
    if isinstance(spec, EnforcementBackend):
        return spec
    if spec == "mpu":
        from .mpu import MPU

        return MPU()
    if spec == "pmp":
        from .pmp import PmpProtection

        return PmpProtection()
    if spec == "overlay":
        from .overlay import OverlayProtection

        return OverlayProtection()
    raise ValueError(
        f"unknown enforcement backend {spec!r}: "
        f"expected one of {', '.join(KNOWN_BACKENDS)}")
