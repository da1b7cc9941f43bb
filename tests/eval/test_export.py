"""Tests for the results exporter."""

import os
import subprocess
import sys
from pathlib import Path

from repro.eval.export import export_all

SRC = Path(__file__).resolve().parents[2] / "src"


def test_package_import_leaves_export_unloaded():
    """``python -m repro.eval.export`` imports the package first; if the
    package had already imported ``export``, runpy would warn that the
    module is executed twice."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = ("import sys, repro.eval; "
             "print('repro.eval.export' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_export_writes_text_and_tsv(tmp_path):
    written = export_all(str(tmp_path))
    names = {p.split("/")[-1] for p in written}
    for target in ("table1", "table2", "table3",
                   "figure9", "figure10", "figure11"):
        assert f"{target}.txt" in names
        assert f"{target}.tsv" in names
    tsv = (tmp_path / "figure9.tsv").read_text().splitlines()
    assert tsv[0].split("\t") == ["app", "runtime_pct", "flash_pct",
                                  "sram_pct"]
    assert any(line.startswith("PinLock") for line in tsv)
    table1_txt = (tmp_path / "table1.txt").read_text()
    assert "#OPs" in table1_txt
    assert "campaign_smoke.txt" in names
    assert "campaign_smoke.tsv" in names
    campaign_txt = (tmp_path / "campaign_smoke.txt").read_text()
    assert "PASS (OPEC strictly more)" in campaign_txt
    assert "PASS (OPEC strictly lower)" in campaign_txt
