"""Repository benchmark: one workload, one run, one JSON line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload eval_cold --seed 1 --seconds 10 --trace 0

Workloads: ``eval_cold``, ``eval_warm`` and ``campaign`` (see
``suite.py`` and ``BENCHMARK.json``).  The run repeats the workload's
timed call until ``--seconds`` have passed (at least once) and reports
medians.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it measures untraced reps first, then traced reps, and
prints the per-layer metrics of the traced reps.

The inputs do not depend on ``--seed``: the evaluation simulates the
paper's seven firmwares, and the campaign corpus is generated from
``--campaign-seed`` (default 2026, the committed smoke seed).  Pass
another ``--campaign-seed`` to confirm a result on a held-out corpus;
the smoke-row check is then skipped.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller
record of the run (every rep, host calibration, failed checks) goes to
``.perfbench/runs/``; a traced run's spans go to ``.perfbench/traces/``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
WORKLOADS = ("eval_cold", "eval_warm", "campaign")
#: Extra start-up samples taken in fresh interpreters for ``setup_s``.
SETUP_PROBES = 6


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--campaign-seed", type=int, default=2026)
    parser.add_argument("--probe-setup", action="store_true",
                        help="do the start-up only and print its time")
    return parser.parse_args(argv)


def configure_environment() -> None:
    """Pin every program knob: no inherited ``REPRO_*`` setting may
    change what a run measures."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]
    os.environ["REPRO_PROFILE"] = "quick"
    os.environ["REPRO_JOBS"] = "1"
    os.environ["REPRO_CACHE"] = "off"
    sys.path.insert(0, str(ROOT / "src"))


def calibrate(rounds: int = 5) -> float:
    """Median seconds of a fixed pure-Python reference loop.  Recorded
    beside every run so figures from different hosts can be scaled."""
    times = []
    for _ in range(rounds):
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(300_000):
            total = (total * 31 + i) & 0xFFFFFFFF
            table[i & 1023] = total
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def probe_setup(args) -> float:
    """Start-up time of a fresh interpreter, as it measures itself."""
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--probe-setup",
               "--campaign-seed", str(args.campaign_seed)]
    done = subprocess.run(command, cwd=ROOT, capture_output=True,
                          text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["startup_s"]


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def measure(workload, seconds: float, tracer=None, trace_path=None):
    """Repeat the workload's timed call for ``seconds`` (at least
    once).  Returns per-rep walls, checks and simulated values, and —
    when traced — per-rep layer metrics."""
    walls, found, simulated, layers = [], [], [], []
    start = time.perf_counter()
    while True:
        workload.before_rep()
        if tracer is not None:
            tracer.reset()
        gc.collect()
        begin = time.perf_counter()
        result = workload.rep()
        walls.append(time.perf_counter() - begin)
        found += workload.checks(result)
        values = workload.simulated(result)
        if simulated:
            found.append(("simulated values repeat", values == simulated[0]))
        simulated.append(values)
        if tracer is not None:
            layers.append(layer_metrics(workload, result, tracer))
            tracer.write(trace_path, len(layers) - 1)
        workload.after_rep()
        if time.perf_counter() - start >= seconds:
            return walls, found, simulated, layers


def layer_metrics(workload, result, tracer) -> dict[str, float]:
    metrics = tracer.layer_metrics()
    compile_counters, cache_counters = workload.counters(result)

    def count(name):
        return compile_counters.get(name, 0)

    traces = count("tracefuse.traces_compiled")
    rejected = count("tracefuse.trace_rejects")
    entries = count("blockcompile.block_entries")
    hits = cache_counters.get("hits", 0)
    misses = cache_counters.get("misses", 0)
    metrics.update({
        "interp.blocks_compiled": count("blockcompile.blocks_compiled"),
        "interp.trace_accept_ratio": (traces / (traces + rejected)
                                      if traces + rejected else 0.0),
        "interp.trace_entry_share": (count("tracefuse.trace_entries")
                                     / entries if entries else 0.0),
        "interp.closures_loaded": (count("closurecache.blocks_loaded")
                                   + count("closurecache.traces_loaded")),
        "interp.fallback_steps": count("blockcompile.fallback_steps"),
        "interp.compile_errors": count("blockcompile.compile_errors"),
        "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "cache.bytes_read": cache_counters.get("bytes_read", 0),
        "cache.bytes_written": cache_counters.get("bytes_written", 0),
        "campaign.lanes": workload.lanes(result),
    })
    return metrics


def load_declared() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def measure_traced(args, workload, untraced_wall: float):
    """Traced reps: per-layer medians (with ``trace_overhead_pct``
    against the untraced median), their checks, and the span file."""
    from spans import Tracer

    (OUT / "traces").mkdir(parents=True, exist_ok=True)
    trace_path = OUT / "traces" / (
        f"{args.workload}-seed{args.seed}-{os.getpid()}.jsonl.gz")
    tracer = Tracer()
    tracer.install()
    try:
        walls, found, _, layers = measure(workload, args.seconds, tracer,
                                          trace_path)
    finally:
        tracer.uninstall()
    per_layer = {name: statistics.median(rep[name] for rep in layers)
                 for name in layers[0]}
    per_layer["trace_overhead_pct"] = 100.0 * (
        statistics.median(walls) / untraced_wall - 1)
    return per_layer, found, trace_path


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or \
            not (ROOT / "results").is_dir():
        print(f"error: {ROOT} holds no src/repro and results/ to measure",
              file=sys.stderr)
        return 2
    configure_environment()
    import suite
    from spans import import_all_repro_modules

    # Every module a rep could import lazily, so the first rep pays
    # no import the later ones skip.
    import_all_repro_modules()
    run_dir = OUT / f"work-{os.getpid()}"
    workload = suite.make(args.workload, run_dir, ROOT / "results",
                          args.campaign_seed)
    startup = time.perf_counter() - START
    if args.probe_setup:
        print(json.dumps({"startup_s": startup}))
        return 0

    declared = load_declared()
    # Half the start-up probes run before the reps and half after, so
    # their median spans the host's state over the whole run.
    startups = [startup] + [probe_setup(args)
                            for _ in range(SETUP_PROBES // 2)]
    calibration = [calibrate()]
    try:
        fill = workload.prepare()
        walls, found, simulated, _ = measure(workload, args.seconds)
        wall_s = statistics.median(walls)
        if args.trace:
            per_layer, traced_found, trace_path = measure_traced(
                args, workload, wall_s)
            found += traced_found
        extra, finish_checks = workload.finish()
        found += finish_checks
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    startups += [probe_setup(args)
                 for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setup_s = statistics.median(startups) + fill
    calibration.append(calibrate())

    values = {**simulated[0], **extra}
    end_to_end = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": peak_rss_mb(), **values}
    failed = [label for label, ok in found if not ok]
    reported, declared_metrics = (
        (per_layer, declared["per_layer"]) if args.trace
        else (end_to_end, declared["end_to_end"]))
    metrics = {entry["name"]: {"value": reported[entry["name"]],
                               "unit": entry["unit"]}
               for entry in declared_metrics}

    record = {
        "workload": args.workload, "seed": args.seed,
        "campaign_seed": args.campaign_seed, "seconds": args.seconds,
        "trace": args.trace, "reps": len(walls), "walls_s": walls,
        "setup": {"startup_samples_s": startups, "fill_s": fill},
        "end_to_end": end_to_end,
        "ops_failed_ratio": len(failed) / len(found),
        "failed_checks": failed,
        "calibration_s": calibration,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(), "cpus": os.cpu_count()},
    }
    if args.trace:
        record.update(per_layer=per_layer, trace_file=str(
            trace_path.relative_to(ROOT)))
    (OUT / "runs").mkdir(parents=True, exist_ok=True)
    record_path = OUT / "runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-"
        f"{os.getpid()}.json")
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in sorted(end_to_end.items()):
        print(f"{name:20s} {value:.6g}")
    print(f"{'ops_failed_ratio':20s} {len(failed)}/{len(found)} = "
          f"{len(failed) / len(found):.6g}")
    print(f"{'calibration_s':20s} {calibration[0]:.6g} (before), "
          f"{calibration[1]:.6g} (after)")
    for label in failed:
        print(f"FAILED: {label}")
    print(json.dumps({"correct": not failed, "attempted": len(found),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
