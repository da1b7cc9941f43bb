"""Permission-overlay enforcement backend (Complets-style, PAPERS.md).

Arm's Permission Overlay Extension (POE) — and Intel MPK before it —
decouple *which* memory a domain may touch from *how fast* the domain
boundary is crossed: page/region permissions are tagged with an
overlay index once, and switching domains is a single overlay-select
register write instead of a run of MPU region-register pairs.
Complets builds thread-level compartments for Cortex-M on exactly this
primitive.

:class:`OverlayProtection` models that substrate for OPEC:

* every configuration change *compiles* (``_lower``) the
  backend-neutral :class:`~repro.hw.mpu.MPURegion` set into one flat
  permission table —
  disjoint address intervals, each carrying the resolved
  (privileged, unprivileged) access pair of the highest-priority
  claiming region.  This is the overlay-tagging step; in hardware it
  happens once per operation at image-load time, so the modelled
  *switch* cost is a single register write plus a barrier;
* ``_arbitrate`` is a binary search over the interval table —
  semantically identical to the MPU's highest-region-wins scan
  (including sub-region fall-through and ``PRIVDEFENA``), which the
  differential property suite pins across all backends;
* the shared core (:class:`~repro.hw.backend.EnforcementBackend`)
  memoises verdicts and drops them on every configuration epoch.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional

from .backend import EnforcementBackend
from .mpu import ACCESS_NONE, ACCESS_READWRITE, MPURegion


def compile_regions_to_overlay(
    regions: list[Optional[MPURegion]],
) -> tuple[list[int], list[Optional[tuple[str, str]]]]:
    """Flatten a prioritised region set into a disjoint interval table.

    Returns parallel lists: sorted interval start addresses and, for
    each interval, the winning region's ``(priv, unpriv)`` access pair
    — or ``None`` where no enabled region (sub-region) claims the
    interval, i.e. the default-map fall-through.

    Every region edge is a sub-region edge (base + i·size/8), so
    within one interval the winning region — and therefore the verdict
    — is constant; probing the interval start decides the whole span.
    """
    live = [r for r in regions if r is not None and r.enabled]
    edges: set[int] = {0}
    for region in live:
        sub = region.subregion_size
        edges.update(region.base + i * sub for i in range(9))
    starts = sorted(edges)
    perms: list[Optional[tuple[str, str]]] = []
    for start in starts:
        winner: Optional[MPURegion] = None
        for region in live:
            if region.matches(start) and (
                    winner is None or region.number > winner.number):
                winner = region
        perms.append(None if winner is None
                     else (winner.priv, winner.unpriv))
    return starts, perms


class OverlayProtection(EnforcementBackend):
    """A POE/MPK-style permission-overlay backend.

    Same policy language and arbitration semantics as the MPU; a
    different lowering (flat interval table instead of prioritised
    region registers) and a much cheaper switch-cost model.
    """

    # Cost model: switching overlays is one POR-style register write
    # plus a context-synchronising barrier; a fault-driven remap
    # re-tags one window's intervals.
    name = "overlay"
    switch_base_cost = 16
    region_switch_cost = 12

    def _lower(self) -> None:
        self._starts, self._perms = compile_regions_to_overlay(self.regions)

    def _arbitrate(self, address: int, size: int, privileged: bool,
                   write: bool) -> bool:
        starts, perms = self._starts, self._perms
        last = address + size - 1
        for probe in (address, last) if last != address else (address,):
            pair = perms[bisect_right(starts, probe) - 1]
            if pair is None:
                if privileged and self.privdefena:
                    continue
                return False
            access = pair[0] if privileged else pair[1]
            if access == ACCESS_NONE:
                return False
            if write and access != ACCESS_READWRITE:
                return False
        return True
