"""Differential security campaigns (ROADMAP item 4).

A campaign takes a seed, generates a corpus of random-but-plausible
firmwares (:mod:`.generator`), injects attacks through a host-side
mailbox device (:mod:`.attacks`), runs every (firmware, attack) pair
under vanilla / OPEC / ACES on each enforcement backend
(:mod:`.engine`, fanned out over ``REPRO_JOBS`` worker processes by
:func:`repro.fanout.fanout`, with ``BatchRunner`` lanes inside each), and renders a corpus-level
containment / over-privilege / switch-cost report (:mod:`.report`).

Same seed ⇒ byte-identical report, regardless of job or lane count —
the same contract every other subsystem in this repository is held to
(``tools/check_determinism.py`` covers the committed smoke report).
"""

from .attacks import ATTACK_KINDS, AttackPort, resolve_attack
from .engine import (
    CampaignConfig,
    CampaignResult,
    SMOKE_CONFIG,
    run_campaign,
)
from .generator import GeneratedFirmware, generate_corpus, generate_firmware
from .report import render_report, report_rows

__all__ = [
    "ATTACK_KINDS",
    "AttackPort",
    "CampaignConfig",
    "CampaignResult",
    "GeneratedFirmware",
    "SMOKE_CONFIG",
    "generate_corpus",
    "generate_firmware",
    "render_report",
    "report_rows",
    "resolve_attack",
    "run_campaign",
]
