"""The enforcement-backend contract, checked once for every backend.

Every configuration change — ``set_region``, ``clear_region``,
``load_configuration``, ``restore`` — must start exactly one new epoch,
drop the verdict memo, re-arbitrate correctly, and lower the region
set onto the substrate exactly once.
"""

import pytest

import repro.hw.overlay
import repro.hw.pmp
from repro.hw.backend import KNOWN_BACKENDS, create_backend
from repro.hw.mpu import MPURegion

REGION = MPURegion(number=2, base=0x20000000, size=0x100,
                   priv="RW", unpriv="RW")
ADDRESS = 0x20000010

#: The module-level lowering function each substrate calls per change.
LOWERINGS = {
    "pmp": (repro.hw.pmp, "compile_regions_to_pmp"),
    "overlay": (repro.hw.overlay, "compile_regions_to_overlay"),
}


def _set_region(backend):
    return lambda: backend.set_region(REGION)


def _clear_region(backend):
    backend.set_region(REGION)
    return lambda: backend.clear_region(REGION.number)


def _load_configuration(backend):
    backend.set_region(REGION)
    return lambda: backend.load_configuration([])


def _restore(backend):
    backend.set_region(REGION)
    saved = backend.snapshot()
    backend.clear_region(REGION.number)
    return lambda: backend.restore(saved)


#: operation -> (arrange the backend and return the change, verdict after)
OPERATIONS = {
    "set_region": (_set_region, True),
    "clear_region": (_clear_region, False),
    "load_configuration": (_load_configuration, False),
    "restore": (_restore, True),
}


@pytest.mark.parametrize("operation", sorted(OPERATIONS))
@pytest.mark.parametrize("name", KNOWN_BACKENDS)
def test_configuration_change_starts_one_epoch(name, operation,
                                               monkeypatch):
    arrange, granted = OPERATIONS[operation]
    backend = create_backend(name)
    backend.enabled = True
    change = arrange(backend)
    assert backend.allows(ADDRESS, 4, False, True) is not granted
    assert backend._decisions  # the verdict is memoised

    lowerings = []
    if name in LOWERINGS:
        module, attr = LOWERINGS[name]
        lower = getattr(module, attr)

        def counted(regions):
            lowerings.append(regions)
            return lower(regions)

        monkeypatch.setattr(module, attr, counted)

    epoch = backend.epoch
    change()
    assert backend.epoch == epoch + 1
    assert not backend._decisions
    assert backend.allows(ADDRESS, 4, False, True) is granted
    assert backend.fast_allows()(ADDRESS, 4, False, True) is granted
    if name in LOWERINGS:
        assert len(lowerings) == 1
