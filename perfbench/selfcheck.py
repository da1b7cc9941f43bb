"""Self-check of the benchmark: every output check passes on the real
outputs and fires on a tampered copy.

Runs each workload's entry point once at its smallest size (one cold
evaluation, a two-firmware campaign), then:

* points the golden-file checks at a copy of ``results/`` with one
  cell changed per file, and expects exactly that file's check to
  fail (and a change in Table 3's masked host column to pass);
* flips each campaign verdict to FAIL and one lane to ``error``;
* corrupts every store entry and breaks one block's codegen, and
  expects the degradation checks to fire on the real counters;
* compares ``BENCHMARK.json`` with the metric table in ``layers.py``.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py

Exit status 0 when every check behaved as expected.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import suite  # noqa: E402
from layers import LAYER_METRICS  # noqa: E402

WORK = run.OUT / "selfcheck"
failures: list[str] = []


def expect(label: str, found: list, failing: set[str]) -> None:
    """``found`` must fail on exactly the ``failing`` labels."""
    failed = {name for name, ok in found if not ok}
    ok = failed == failing
    print(f"{'ok  ' if ok else 'FAIL'} {label}: failed={sorted(failed)}")
    if not ok:
        failures.append(label)


def tamper_cell(path: Path, column: int) -> None:
    """Change one data cell of a TSV/text file in ``column``."""
    lines = path.read_text().splitlines(keepends=True)
    sep = "\t" if path.suffix == ".tsv" else None
    for index, line in enumerate(lines[1:], start=1):
        fields = line.rstrip("\n").split(sep)
        if len(fields) > column and any(c.isdigit() for c in fields[column]):
            fields[column] = fields[column].replace(
                next(c for c in fields[column] if c.isdigit()), "X", 1)
            lines[index] = (sep or "  ").join(fields) + "\n"
            path.write_text("".join(lines))
            return
    raise ValueError(f"no numeric cell in column {column} of {path}")


def golden_copy() -> Path:
    target = WORK / "golden"
    shutil.rmtree(target, ignore_errors=True)
    shutil.copytree(ROOT / "results", target)
    return target


def check_declaration() -> None:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = [{"name": m.name, "unit": m.unit, "better": m.better}
            for m in LAYER_METRICS]
    expect("BENCHMARK.json per_layer matches layers.py",
           [("per_layer", declared["per_layer"] == want)], set())
    names = [entry["name"] for key in ("end_to_end", "per_layer")
             for entry in declared[key]]
    expect("metric names unique",
           [("unique", len(names) == len(set(names)))], set())


def check_eval() -> None:
    suite.use_store(WORK / "eval-store")
    from repro.eval.workloads import compute_all_rows

    rows = compute_all_rows(jobs=1, backend="mpu")
    golden = ROOT / "results"
    expect("eval: real outputs", checks.eval_checks(rows, golden), set())
    for target in checks.EVAL_TARGETS:
        for suffix in (".tsv", ".txt"):
            name = target + suffix
            tampered = golden_copy()
            tamper_cell(tampered / name, -1)
            expect(f"eval: tampered {name}",
                   checks.eval_checks(rows, tampered), {f"golden {name}"})
    for name in ("table3.tsv", "table3.txt"):
        tampered = golden_copy()
        tamper_cell(tampered / name, checks.MASKED_COLUMNS[name])
        expect(f"eval: host column of {name} is masked",
               checks.eval_checks(rows, tampered), set())
    broken = dict(rows, compile={"blockcompile.compile_errors": 1},
                  cache=dict(rows["cache"], corrupt=1))
    expect("eval: degradation counters",
           checks.eval_checks(broken, golden),
           {"no compile errors", "no corrupt store entries"})


def check_campaign() -> None:
    from repro.campaign import render_report

    store = WORK / "campaign-store"
    suite.use_store(store)
    workload = suite.make("campaign", WORK, ROOT / "results", 2026,
                          firmwares=2)
    result = workload.rep()
    text = render_report(result)
    golden = ROOT / "results"
    expect("campaign: real outputs",
           checks.campaign_checks(result, text, golden), set())

    tampered = golden_copy()
    tamper_cell(tampered / "campaign_smoke.tsv", 8)
    first = result.reports[0].name
    expect("campaign: tampered smoke rows",
           checks.campaign_checks(result, text, tampered),
           {f"smoke rows {first}"})

    for verdict in ("containment", "over-privilege"):
        flipped = "\n".join(
            line.replace("-> PASS", "-> FAIL")
            if line.startswith(verdict + ":") else line
            for line in text.splitlines())
        expect(f"campaign: {verdict} verdict FAIL",
               checks.campaign_checks(result, flipped, golden),
               {f"verdict {verdict}"})

    errored = copy.deepcopy(result)
    # An attack kind the smoke rows leave out, so only the lane fires.
    key = next(key for key in errored.reports[1].cells
               if key[0] not in checks.SMOKE_ATTACKS)
    errored.reports[1].cells[key].outcome = "error"
    expect("campaign: a lane in error",
           checks.campaign_checks(errored, text, golden),
           {f"lane {errored.reports[1].name}:{':'.join(key)}"})

    # Real degradations.  A store whose every entry is corrupt: the
    # rep reads them back, counts them and rebuilds.
    for entry in store.glob("*/*/*.bin"):
        entry.write_bytes(b"not a cache entry")
    suite.reset_process_memos()
    found = checks.campaign_checks(workload.rep(), text, golden)
    expect("campaign: corrupt store entries", found,
           {"no corrupt store entries"})

    # A block whose codegen fails once, on an empty store.
    from repro.interp import interpreter

    original = interpreter.compile_block
    calls = []

    def failing_once(block):
        calls.append(block)
        return None if len(calls) == 1 else original(block)

    suite.use_store(WORK / "campaign-store-2")
    interpreter.compile_block = failing_once
    try:
        degraded = workload.rep()
    finally:
        interpreter.compile_block = original
    expect("campaign: codegen failure",
           checks.campaign_checks(degraded, text, golden),
           {"no compile errors"})


def main() -> int:
    run.configure_environment()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        check_declaration()
        check_campaign()
        check_eval()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print("self-check " + ("FAILED: " + ", ".join(failures)
                           if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
