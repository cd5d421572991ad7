"""Run the benchmark on several seeds and report each end-to-end metric's
median, quartiles and spread (interquartile range over median).

    python3 perfbench/steadiness.py [--out perfbench/results/steadiness.json]

Every workload of BENCHMARK.json runs ten times, one run after another,
with seeds 1..10, each for BENCHMARK.json's ``run_seconds``.  A spread is
flagged when it is not below a third of the metric's bound; ``setup_s`` is
reported but, like the acceptance rule it mirrors, not held to its bound.
The raw ``items_per_s`` that run.py prints is reported beside them, unbounded,
to show what the reference units take out.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    report: dict[str, dict] = {}
    steady = True
    for name in (w["name"] for w in bench["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in bench["end_to_end"]}
        raw: list[float] = []
        for seed in SEEDS:
            cmd = [
                *bench["command"], "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{name} seed {seed}: FAILED\n{proc.stderr}", file=sys.stderr)
                return 1
            for metric, v in result["metrics"].items():
                values[metric].append(v["value"])
            raw.append(float(re.search(r"items_per_s ([0-9.]+)", proc.stdout).group(1)))
            print(f"{name} seed {seed}: " + json.dumps(
                {k: round(v["value"], 6) for k, v in result["metrics"].items()}
            ), flush=True)
        q1, median, q3 = statistics.quantiles(raw, n=4)
        report[name] = {"items_per_s (printed, unbounded)": {
            "median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": raw,
        }}
        print(f"  {name:7s} {'items_per_s':15s} median {median:.6g} spread {(q3 - q1) / median:.4f} (unbounded)")
        for m in bench["end_to_end"]:
            vals = values[m["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = m["name"] == "setup_s" or spread < m["bound"] / 3
            steady &= ok
            report[name][m["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "bound": m["bound"], "values": vals,
            }
            print(f"  {name:7s} {m['name']:15s} median {median:.6g} "
                  f"q1 {q1:.6g} q3 {q3:.6g} spread {spread:.4f} "
                  f"bound {m['bound']}{'' if ok else '  <-- not below bound/3'}")
    if args.out:
        out = Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
