"""Output checks behind ``ops_failed_ratio``.

Every check is one operation: it returns ``(label, ok)``.  A workload
run counts the checks it attempted and the ones that failed.  Golden
files are read from a ``results/`` directory passed in, so the
self-check can point the same checks at a tampered copy.

* Evaluation: the six table/figure TSVs and rendered texts must equal
  the committed ``results/`` files, with Table 3's host wall-clock
  column masked as ``tools/check_determinism.py`` masks it.
* Campaign: the first eight firmwares' ``baseline``, ``global``,
  ``icall`` and ``pt`` rows must equal ``results/campaign_smoke.tsv``
  (seed 2026 only), both verdict lines must read PASS, and no lane may
  end in ``error``.
* Both: a nonzero ``blockcompile.compile_errors`` or store ``corrupt``
  count fails, since either one degrades a run silently.
"""

from __future__ import annotations

from pathlib import Path

#: The seed and corpus size of the committed smoke report.
SMOKE_SEED = 2026
SMOKE_FIRMWARES = 8
SMOKE_ATTACKS = ("global", "icall")

#: Host wall-clock column dropped before comparing, by filename.
MASKED_COLUMNS = {"table3.tsv": 3, "table3.txt": 3}

EVAL_TARGETS = ("table1", "figure9", "table2", "figure10", "figure11",
                "table3")

Check = tuple[str, bool]


def _fields(name: str, text: str) -> list[tuple[str, ...]]:
    masked = MASKED_COLUMNS.get(name)
    rows = []
    for line in text.splitlines():
        fields = line.split("\t") if name.endswith(".tsv") else line.split()
        if masked is not None and len(fields) > masked:
            fields = fields[:masked] + fields[masked + 1:]
        rows.append(tuple(fields))
    return rows


def same_as_golden(golden: Path, name: str, text: str) -> Check:
    path = golden / name
    ok = path.is_file() and _fields(name, path.read_text()) == \
        _fields(name, text)
    return (f"golden {name}", ok)


def _tsv(rows: list[list[object]]) -> str:
    return "\n".join("\t".join(str(c) for c in row) for row in rows) + "\n"


def eval_tsv_rows(target: str, data) -> list[list[object]]:
    """The rows ``repro.eval.export`` writes to ``<target>.tsv``."""
    from repro.eval import figure10

    if target == "table1":
        return [["app", "ops", "avg_funcs", "pri_code", "pri_pct",
                 "avg_gvars", "avg_gvars_pct"],
                *[[r.app, r.operations, f"{r.avg_functions:.2f}",
                   r.privileged_code, f"{r.privileged_pct:.2f}",
                   f"{r.avg_gvars:.2f}", f"{r.avg_gvars_pct:.2f}"]
                  for r in data]]
    if target == "figure9":
        return [["app", "runtime_pct", "flash_pct", "sram_pct"],
                *[[r.app, f"{r.runtime_pct:.4f}", f"{r.flash_pct:.3f}",
                   f"{r.sram_pct:.3f}"] for r in data]]
    if target == "table2":
        return [["app", "policy", "ro_x", "fo_pct", "so_pct", "pac_pct"],
                *[[r.app, r.policy, f"{r.runtime_ratio:.3f}",
                   f"{r.flash_pct:.3f}", f"{r.sram_pct:.3f}",
                   f"{r.privileged_app_pct:.2f}"] for r in data]]
    if target == "figure10":
        rows: list[list[object]] = [
            ["app", "policy", *(f"pt<={t}" for t in figure10.THRESHOLDS)]]
        for entry in data:
            for policy in (*figure10.ALL_STRATEGIES, "OPEC"):
                rows.append([entry.app, policy,
                             *(f"{v:.3f}" for v in entry.cumulative(policy))])
        return rows
    if target == "figure11":
        rows = [["app", "policy", "task", "et"]]
        for entry in data:
            for policy, values in entry.et.items():
                for task, value in zip(entry.tasks, values):
                    rows.append([entry.app, policy, task, f"{value:.3f}"])
        return rows
    return [["app", "icalls", "svf", "time_s", "type", "avg", "max"],
            *[[r.app, r.icalls, r.svf_resolved, f"{r.solve_time_s:.3f}",
               r.type_resolved, f"{r.avg_targets:.2f}", r.max_targets]
              for r in data]]


def degradation_checks(compile_counters: dict, cache_counters: dict
                       ) -> list[Check]:
    return [
        ("no compile errors",
         compile_counters.get("blockcompile.compile_errors", 0) == 0),
        ("no corrupt store entries", cache_counters.get("corrupt", 0) == 0),
    ]


def eval_checks(rows: dict, golden: Path) -> list[Check]:
    """Checks for one ``compute_all_rows`` result."""
    from repro.eval import (figure9, figure10, figure11, table1, table2,
                            table3)

    renderers = {"table1": table1, "figure9": figure9, "table2": table2,
                 "figure10": figure10, "figure11": figure11,
                 "table3": table3}
    checks = []
    for target in EVAL_TARGETS:
        data = rows[target]
        checks.append(same_as_golden(
            golden, f"{target}.tsv", _tsv(eval_tsv_rows(target, data))))
        checks.append(same_as_golden(
            golden, f"{target}.txt", renderers[target].render(data) + "\n"))
    checks += degradation_checks(rows["compile"], rows["cache"])
    return checks


def smoke_rows(result, firmwares: int) -> list[list[str]]:
    """The committed smoke report's rows for the first ``firmwares``
    corpus members, picked out of a larger campaign's rows."""
    from repro.campaign import report_rows

    names = {report.name for report in result.reports[:firmwares]}
    kept = []
    for row in report_rows(result)[1:]:
        record, firmware, attack = row[0], row[1], row[2]
        if firmware not in names:
            continue
        if record == "cell" and attack not in SMOKE_ATTACKS:
            continue
        kept.append([str(cell) for cell in row])
    return kept


def golden_smoke_rows(golden: Path, firmwares: int) -> list[list[str]]:
    """The committed rows of the first ``firmwares`` smoke firmwares."""
    lines = (golden / "campaign_smoke.tsv").read_text().splitlines()[1:]
    rows = [line.split("\t") for line in lines]
    names = []
    for row in rows:
        if row[1] not in names:
            names.append(row[1])
    keep = set(names[:firmwares])
    return [row for row in rows if row[1] in keep]


def campaign_checks(result, text: str, golden: Path) -> list[Check]:
    """Checks for one ``run_campaign`` result and its rendered report."""
    checks: list[Check] = []
    config = result.config
    if config.seed == SMOKE_SEED:
        compared = min(SMOKE_FIRMWARES, len(result.reports))
        want = golden_smoke_rows(golden, compared)
        got = smoke_rows(result, compared)
        for report in result.reports[:compared]:
            checks.append((
                f"smoke rows {report.name}",
                [row for row in got if row[1] == report.name]
                == [row for row in want if row[1] == report.name]))
    verdicts = [line for line in text.splitlines()
                if line.startswith(("containment:", "over-privilege:"))]
    checks.append(("two verdict lines", len(verdicts) == 2))
    for line in verdicts:
        checks.append((f"verdict {line.split(':')[0]}", "-> PASS" in line))
    for report in result.reports:
        lanes = [*report.baseline.items(), *report.cells.items()]
        for key, outcome in lanes:
            checks.append((f"lane {report.name}:{':'.join(key)}",
                           outcome.outcome != "error"))
    checks += degradation_checks(*campaign_counters(result))
    return checks


def campaign_counters(result) -> tuple[dict, dict]:
    """Compile and store counters summed over a campaign's telemetry
    envelopes: the counts the program already returns."""
    compile_counters: dict = {}
    cache_counters: dict = {}
    for envelope in result.telemetry:
        for name, value in envelope.compile_counters.items():
            compile_counters[name] = compile_counters.get(name, 0) + value
        for name, value in envelope.cache_counters.items():
            cache_counters[name] = cache_counters.get(name, 0) + value
    return compile_counters, cache_counters
