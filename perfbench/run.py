#!/usr/bin/env python3
"""The expk benchmark: cold passes of one workload, checked and measured.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  Every pass is a fresh process
(``worker.py``) that imports ``expk`` from ``src/``, sets up, runs the
workload's timed phase once and judges every output.  Passes are started
until ``--seconds`` have elapsed, at least one; a pass is never cut.
BLAS and OpenMP pools are pinned to one thread; ``cache-jobs2`` runs two
threads inside ``run_verify``.

``--trace 0`` reports the end-to-end metrics: the medians over the run's
passes of ``wall_s`` (the timed phase) and ``peak_rss_mb`` (peak RSS of
the pass process), the median ``setup_s`` (spawn to ready: interpreter,
imports and the workload's preparation; for ``cache-jobs2`` the process
that populates a fresh cache dir), and ``ok_ratio``, the share of items
(checks, tables or squares) that passed with the expected value.
``fail_ratio`` = ``failed / attempted`` is printed beside them.

``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics (see ``tracer.py``) and ``trace.overhead_ratio``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CACHE_DIR = WORK / f"cache-{os.getpid()}"

# Set-up-only processes added to each run, so set-up has several samples
# even when one pass fills the run.  A cache-jobs2 set-up takes longer
# than its pass, so a run has only the one its passes need.
EXTRA_SETUPS = {"verify": 4, "tables": 4, "squares": 1, "cache-jobs2": 0}
WORKER_TIMEOUT_S = 170


class Run:
    """Samples and judged items collected over one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.walls = []
        self.rss = []
        self.setups = []
        self.items = []
        self.traces = []
        self.check_times = {}

    def spawn(self, phase, trace=0, cache_dir=None):
        args = self.args
        t0 = time.monotonic()
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--phase", phase,
            "--seed", str(args.seed), "--trace", str(trace), "--t0", repr(t0),
        ]
        if cache_dir is not None:
            cmd += ["--cache-dir", str(cache_dir)]
        if trace:
            cmd += ["--spans-out", str(WORK / f"spans-{args.workload}-{phase}.jsonl")]
        if args.inject_wrong:
            cmd.append("--inject-wrong")
        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                   MKL_NUM_THREADS="1")
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"perfbench: {phase} process failed ({proc.returncode})")
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        if trace:
            self.traces.append(out["trace"])
        return out

    def run_pass(self, trace=0, cache_dir=None):
        out = self.spawn("pass", trace, cache_dir)
        self.items += out["items"]
        self.check_times = out.get("check_times", {})
        return out

    def timed_pass(self, cache_dir=None):
        out = self.run_pass(cache_dir=cache_dir)
        self.walls.append(out["wall_s"])
        self.rss.append(out["peak_rss_mb"])
        if cache_dir is None:  # a cache-jobs2 pass's set-up is the populate
            self.setups.append(out["setup_s"])

    def populate(self, trace=0):
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
        CACHE_DIR.mkdir(parents=True)
        self.setups.append(self.spawn("populate", trace, CACHE_DIR)["setup_s"])
        return CACHE_DIR

    def measure(self):
        """Cold passes until the run's seconds are used, then set-up samples.

        ``cache-jobs2`` populates one cache dir first and every pass reads it.
        """
        cache_dir = self.populate() if self.args.workload == "cache-jobs2" else None
        deadline = time.monotonic() + self.args.seconds
        while True:
            self.timed_pass(cache_dir)
            if time.monotonic() >= deadline:
                break
        for _ in range(EXTRA_SETUPS[self.args.workload]):
            self.setups.append(self.spawn("setup")["setup_s"])

    def trace(self):
        """One untraced and one traced pass; the ratio is the overhead."""
        cache_dir = None
        if self.args.workload == "cache-jobs2":
            cache_dir = self.populate(trace=1)
        plain = self.run_pass(cache_dir=cache_dir)["wall_s"]
        traced = self.run_pass(trace=1, cache_dir=cache_dir)["wall_s"]
        metrics = layer_metrics(self.traces, self.check_times)
        metrics["trace.overhead_ratio"] = traced / plain
        return metrics


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--inject-wrong", action="store_true",
        help="expect a wrong value for one item (benchmark self-test)",
    )
    args = p.parse_args()

    if not (ROOT / "src" / "expk" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no expk sources under {ROOT / 'src'}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    WORK.mkdir(exist_ok=True)

    run = Run(args)
    try:
        if args.trace:
            values = run.trace()
        else:
            run.measure()
    finally:
        shutil.rmtree(CACHE_DIR, ignore_errors=True)
    if args.trace:
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(run.walls),
            "peak_rss_mb": statistics.median(run.rss),
            "setup_s": statistics.median(run.setups),
            "ok_ratio": sum(i["ok"] for i in run.items) / len(run.items),
        }
        wanted = spec["end_to_end"]
        q1, med, q3 = quartiles(run.walls)
        print(f"{args.workload}: wall_s median {med:.3f} s (q1 {q1:.3f}, "
              f"q3 {q3:.3f}, n={len(run.walls)})")
        print(f"{args.workload}: peak_rss_mb {values['peak_rss_mb']:.1f} MB; "
              f"setup_s median {values['setup_s']:.3f} s (n={len(run.setups)})")
    attempted = len(run.items)
    failed = sum(not i["ok"] for i in run.items)
    print(f"{args.workload}: fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")
    for item in run.items:
        if not item["ok"]:
            print(f"  not ok: {item['name']} [{item['status']}] computed={item['computed']} "
                  f"expected={item['expected']} {item['detail']}")

    metrics = {}
    for m in wanted:
        name = m["name"]
        if name.startswith("verify.check."):
            value = values.get(name, 0.0)  # a check this workload does not run
        else:
            value = values[name]
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": not any(i["wrong"] for i in run.items),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
