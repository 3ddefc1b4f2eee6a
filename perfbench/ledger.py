#!/usr/bin/env python3
"""Regenerate the committed per-layer ledger (perfbench/ledger.json).

Run from the repository root:

    python3 perfbench/ledger.py --label "hbmvolt at <commit>"

It makes one traced run (--trace 1) of every workload at seed 1, for
BENCHMARK.json's run_seconds, and records each run's per-layer metrics,
op counts and results digest, together with the machine it ran on.
Later performance changes cite the file as their per-layer baseline.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

WORKLOADS = ["sweep", "campaign", "serve-hit", "serve-miss"]
SEED = 1
OUT = os.path.join("perfbench", "ledger.json")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", default="", help="what was measured, e.g. the program's commit")
    args = ap.parse_args()
    here = os.path.dirname(os.path.abspath(__file__))
    with open("BENCHMARK.json") as f:
        seconds = json.load(f)["run_seconds"]
    ledger = {
        "label": args.label,
        "date": time.strftime("%Y-%m-%d"),
        "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(), "os": platform.platform()},
        "seed": SEED,
        "seconds": seconds,
        "note": "per-layer metrics from traced runs: a quarter of the time untraced, half under the CPU "
                "profiler, a quarter untraced; trace.overhead_pct is the traced CPU per op against the "
                "untraced phases', trace.overhead_noise_pct the untraced phases' own difference",
        "workloads": {},
    }
    for w in WORKLOADS:
        out = subprocess.run([sys.executable, os.path.join(here, "run.py"), "--workload", w,
                              "--seed", str(SEED), "--seconds", str(seconds), "--trace", "1"],
                             stdout=subprocess.PIPE, text=True)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            print(f"ledger: {w} failed (exit {out.returncode})", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        ledger["workloads"][w] = {
            "attempted": res["attempted"],
            "failed": res["failed"],
            "summary": [l for l in lines[:-1] if not l.startswith("  ")],
            "per_layer": {k: v["value"] for k, v in sorted(res["metrics"].items())},
        }
    with open(OUT, "w") as f:
        json.dump(ledger, f, indent=2)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
