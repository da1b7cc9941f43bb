"""Run one workload under several seeds and report each end-to-end
metric's median and quartile spread (IQR as a share of the median),
next to the bound ``BENCHMARK.json`` fixes for it.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload eval_warm --seeds 1 2 3 4 5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    args = parser.parse_args(argv)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        command = [sys.executable, "perfbench/run.py", "--workload",
                   args.workload, "--seed", str(seed), "--seconds",
                   str(declared["run_seconds"]), "--trace", "0"]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900, check=True)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} checks failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4g}"
            for name, metric in result["metrics"].items()), flush=True)
    for entry in declared["end_to_end"]:
        series = values[entry["name"]]
        median = statistics.median(series)
        q1, _, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else float("inf")
        print(f"{entry['name']:20s} median={median:.6g} "
              f"spread={spread:.4f} bound={entry['bound']} "
              f"{'ok' if spread < entry['bound'] / 3 else 'WIDE'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
