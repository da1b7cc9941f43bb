"""The run configuration: one module parses and validates every knob.

Per-knob spelling cases live beside the code each knob drives
(``test_recorder``, ``test_blockcompile``, ``test_store``,
``test_workloads``, ``test_backends``); this file pins what holds for
all of them at once: the field/knob mapping, the shared parsers, the
error wording, the CLI boundary and the README table.
"""

import argparse
import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro import config
from repro.cli import build_parser, main
from repro.config import RunConfig

REPO = Path(__file__).resolve().parent.parent

#: One misspelt value per knob that can be misspelt (any directory is
#: a valid ``REPRO_CACHE``).
BAD_VALUES = {
    "REPRO_PROFILE": "papr",
    "REPRO_JOBS": "bogus",
    "REPRO_TRACE": "maybe",
    "REPRO_TRACE_BUF": "0",
    "REPRO_BACKEND": "mpuu",
    "REPRO_BLOCKCOMPILE": "fastish",
}

#: A minimal command line for every CLI verb.
VERB_ARGV = {
    "list": ["list"],
    "build": ["build", "PinLock"],
    "run": ["run", "PinLock"],
    "eval": ["eval", "table1"],
    "trace": ["trace", "PinLock"],
    "metrics": ["metrics", "PinLock"],
    "dump": ["dump", "PinLock"],
    "profile": ["profile", "PinLock"],
    "cache": ["cache", "fingerprint"],
    "bench": ["bench", "batch", "PinLock"],
    "campaign": ["campaign"],
    "fleet": ["fleet", "PinLock"],
    "attack": ["attack"],
}


def test_every_field_has_one_knob():
    assert list(config.KNOBS) == \
        [field.name for field in dataclasses.fields(RunConfig)]
    assert len(set(config.KNOBS.values())) == len(config.KNOBS) == 7


def test_empty_environment_gives_the_defaults():
    settings = RunConfig.from_env({})
    assert settings == RunConfig()
    assert settings == RunConfig(
        profile="paper", jobs=1, cache=Path(".repro-cache"), trace=False,
        trace_buf=65536, backend="mpu", block_compile=True)


def test_values_parse():
    settings = RunConfig.from_env({
        "REPRO_PROFILE": " Quick ", "REPRO_JOBS": "3",
        "REPRO_CACHE": "/tmp/store", "REPRO_TRACE": "on",
        "REPRO_TRACE_BUF": "128", "REPRO_BACKEND": "PMP",
        "REPRO_BLOCKCOMPILE": "off"})
    assert settings == RunConfig(
        profile="quick", jobs=3, cache=Path("/tmp/store"), trace=True,
        trace_buf=128, backend="pmp", block_compile=False)
    assert RunConfig.from_env({"REPRO_JOBS": "auto"}).jobs >= 1


@pytest.mark.parametrize("knob", sorted(BAD_VALUES))
def test_misspelt_value_names_its_knob(knob):
    with pytest.raises(ValueError, match=knob) as error:
        RunConfig.from_env({knob: BAD_VALUES[knob]})
    assert repr(BAD_VALUES[knob]) in str(error.value)


def test_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        RunConfig().jobs = 2


def test_on_off_parser():
    for raw in config.ON_VALUES | {" ON ", "Yes"}:
        assert config.on_off(raw, "REPRO_X", False) is True
    for raw in config.OFF_VALUES | {"OFF", " None "}:
        assert config.on_off(raw, "REPRO_X", True) is False
    assert config.on_off("", "REPRO_X", True) is True
    assert config.on_off(" ", "REPRO_X", False) is False
    with pytest.raises(ValueError, match="REPRO_X"):
        config.on_off("sometimes", "REPRO_X", True)


def test_positive_int_parser_names_what_and_where():
    assert config.positive_int(" 7 ", "ring capacity", "--buf") == 7
    for bad in (0, -1, "x", "1.5", None):
        with pytest.raises(ValueError,
                           match=r"invalid ring capacity .* \(--buf\)"):
            config.positive_int(bad, "ring capacity", "--buf")


def test_current_rereads_the_environment(monkeypatch, tmp_path):
    """No memo: a store switched mid-process (as a benchmark does
    between reps) shows at the next ambient lookup."""
    monkeypatch.setenv("REPRO_CACHE", str(tmp_path / "one"))
    assert config.current().cache == tmp_path / "one"
    monkeypatch.setenv("REPRO_CACHE", "off")
    assert config.current().cache is None


def test_verb_table_covers_every_verb():
    verbs = next(action for action in build_parser()._actions
                 if isinstance(action, argparse._SubParsersAction))
    assert set(verbs.choices) == set(VERB_ARGV)


@pytest.mark.parametrize("knob", sorted(BAD_VALUES))
def test_every_verb_rejects_a_misspelt_knob(knob, monkeypatch, capsys):
    monkeypatch.setenv(knob, BAD_VALUES[knob])
    for verb, argv in VERB_ARGV.items():
        assert main(argv) == 2, verb
        captured = capsys.readouterr()
        assert captured.out == "", verb  # nothing ran
        assert knob in captured.err, verb


def test_cli_rejects_misspelt_backend_in_a_fresh_process():
    env = dict(os.environ, REPRO_BACKEND="mpuu",
               PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-m", "repro.cli", "list"],
                          cwd=REPO, env=env, capture_output=True,
                          text=True)
    assert proc.returncode != 0
    assert "REPRO_BACKEND" in proc.stderr
    assert "mpuu" in proc.stderr
    assert proc.stdout == ""


def test_readme_knob_table_lists_exactly_the_knobs():
    rows = re.findall(r"^\| `(REPRO_[A-Z_]+)` \|",
                      (REPO / "README.md").read_text(), re.MULTILINE)
    assert sorted(rows) == sorted(config.KNOBS.values())
