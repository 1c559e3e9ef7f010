#!/usr/bin/env python3
"""Run every workload over ten seeds, twice, and report the spreads.

    python3 perfbench/collect.py --workloads verify tables
    python3 perfbench/collect.py --traced --out perfbench/baseline.json

Each workload runs ``run.py`` once per seed (``--first-seed`` and the nine
after it) in each of two sets, A and B, at the run length ``BENCHMARK.json``
fixes.  The sets are interleaved: for each seed, set A then set B runs
every workload, so both sets see the same host phases.  Per end-to-end
metric and set it prints the median, the quartiles of the run values
(``statistics.quantiles(n=4)``) and their spread, (q3 - q1) / median,
beside the metric's bound and a third of it, and the ratio of B's median
to A's.  ``--traced`` adds one ``--trace 1`` run per workload.  ``--out``
writes every value with the machine's description (cores, CPU model,
Python and numpy versions, commit).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
SETS = ("A", "B")


def bench_run(workload, seed, seconds, trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run failed: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    return {**json.loads(lines[-1]), "log": lines[:-1]}


def machine():
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                "",
            )
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        ).stdout.strip()
    except OSError:
        commit = ""
    sys.path.insert(0, str(ROOT / "src"))
    import numpy

    return {
        "cores": os.cpu_count(),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "commit": commit or "unknown",
    }


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med if med else 0.0,
        "n": len(values),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    args = p.parse_args()
    seconds = spec["run_seconds"]

    runs = {(w, s): [] for w in args.workloads for s in SETS}
    for i in range(RUNS):
        seed = args.first_seed + i
        for set_name in SETS:
            for workload in args.workloads:
                out = bench_run(workload, seed, seconds, 0)
                runs[workload, set_name].append({"seed": seed, **out})
                vals = {k: round(v["value"], 4) for k, v in out["metrics"].items()}
                print(f"{workload} {set_name} seed {seed}: {vals} "
                      f"failed {out['failed']}/{out['attempted']}", flush=True)

    report = {"machine": machine(), "run_seconds": seconds, "workloads": {}}
    steady = True
    for workload in args.workloads:
        entry = {}
        for set_name in SETS:
            summary = {}
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in runs[workload, set_name]]
                s = summary[m["name"]] = spread(values)
                flag = "ok" if s["spread"] <= m["bound"] / 3 else "WIDE"
                if m["name"] != "setup_s" and s["spread"] > m["bound"]:
                    steady = False
                print(f"  {workload} {set_name} {m['name']}: median {s['median']:.4f} "
                      f"q1 {s['q1']:.4f} q3 {s['q3']:.4f} spread {s['spread']:.4f} "
                      f"bound {m['bound']} {flag}", flush=True)
            entry[set_name] = {"runs": runs[workload, set_name], "summary": summary}
        ratios = {}
        for m in spec["end_to_end"]:
            a, b = (entry[s]["summary"][m["name"]]["median"] for s in SETS)
            ratios[m["name"]] = b / a
            worse = b / a - 1 if m["better"] == "lower" else 1 - b / a
            if worse > m["bound"]:
                steady = False
            print(f"  {workload} B/A {m['name']}: {b / a:.4f}", flush=True)
        entry["median_ratio_b_over_a"] = ratios
        if args.traced:
            entry["traced"] = bench_run(workload, args.first_seed, seconds, 1)
        report["workloads"][workload] = entry
    print("within bounds" if steady else "NOT within bounds: a spread or a B/A ratio")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
