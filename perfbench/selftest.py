#!/usr/bin/env python3
"""Self-test of the benchmark's checks; exits non-zero on the first failure.

    python3 perfbench/selftest.py

* An injected wrong expected value must raise ``fail_ratio`` and clear
  ``correct``: end to end through ``run.py`` on ``tables``, and through
  each of the other workloads' judges on their real output shape.
* A skipped (over-budget) item is not ok but not wrong.
* The traced run's metric names are exactly ``BENCHMARK.json``'s
  ``per_layer`` names.
* In a directory holding only ``BENCHMARK.json`` and ``perfbench/``, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from tracer import layer_metrics  # noqa: E402


def bench(*extra, cwd=ROOT, script=HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", "tables", "--seed", "1",
           "--seconds", "1", "--trace", "0", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise SystemExit(f"selftest FAILED: {what}")
    print(f"ok: {what}")


def fake_report(scope, tables, status=None):
    results = []
    for check_id in scope:
        name = check_id.removeprefix("betti-")
        computed = list(tables[name]) if name in tables else None
        results.append(SimpleNamespace(
            check_id=check_id, status=(status or {}).get(check_id, "pass"),
            computed=computed, detail=""))
    return SimpleNamespace(results=results, warnings=[])


def judge_fails(workload, result, inject, **ctx_fields):
    ctx = SimpleNamespace(inject_wrong=inject, **ctx_fields)
    items = workload.judge(ctx, result)
    return sum(not i.ok for i in items), any(i.wrong for i in items)


def main() -> int:
    plain, wrong = bench(), bench("--inject-wrong")
    check(plain.returncode == 0 and wrong.returncode == 0, "tables runs exit 0")
    a, b = last_json(plain), last_json(wrong)
    check(a["correct"] and a["failed"] == 0, "tables: every table matches the paper")
    check(not b["correct"] and b["failed"] == 1,
          "tables: an injected wrong expectation fails one table and clears correct")
    check(b["metrics"]["ok_ratio"]["value"] < a["metrics"]["ok_ratio"]["value"],
          "tables: the injected mismatch lowers ok_ratio")

    from expk import verify

    W = workloads.WORKLOADS
    tables = workloads.PAPER_TABLES
    scope = sorted(verify.CHECKS)
    report = fake_report(scope, tables, {"betti-exp3-sphere3": "skipped"})
    check(judge_fails(W["verify"], report, False) == (1, False),
          "verify: a skipped check is not ok and not wrong")
    check(judge_fails(W["verify"], report, True) == (2, True),
          "verify: an injected wrong expectation is counted and wrong")
    bad = fake_report(scope, {**tables, "exp2-sphere2": (1, 0, 1)})
    check(judge_fails(W["verify"], bad, False) == (1, True),
          "verify: a passing check with a wrong table is wrong")

    squares = {item: [1] for item in workloads.SQUARES}
    check(judge_fails(W["squares"], squares, False) == (0, False), "squares: [1] is ok")
    check(judge_fails(W["squares"], squares, True) == (1, True),
          "squares: an injected wrong expectation is counted and wrong")

    cache_dir = HERE / ".work" / "selftest-cache"
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    (cache_dir / "model-x.json").write_text("{}")
    files = workloads.cache_files(cache_dir)
    report = fake_report(workloads.CACHE_SCOPE, tables)
    cw = W["cache-jobs2"]
    check(judge_fails(cw, report, False, cache_dir=cache_dir, files_before=files)
          == (0, False), "cache-jobs2: an untouched cache and right tables are ok")
    check(judge_fails(cw, report, True, cache_dir=cache_dir, files_before=files)[1],
          "cache-jobs2: an injected wrong expectation is wrong")
    (cache_dir / "model-y.json").write_text("{}")
    check(judge_fails(cw, report, False, cache_dir=cache_dir, files_before=files)
          == (1, True), "cache-jobs2: a pass that writes the cache is wrong")
    shutil.rmtree(cache_dir)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    empty = [{"spans": {}, "counts": {}, "cache_models": 0}]
    names = set(layer_metrics(empty, {c: 0.0 for c in verify.CHECKS}))
    names.add("trace.overhead_ratio")
    check(names == {m["name"] for m in spec["per_layer"]},
          "the traced metrics are exactly BENCHMARK.json's per_layer")

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = bench(cwd=bare, script=bare / "perfbench" / "run.py")
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "without src/ the benchmark exits non-zero and prints no result")
    shutil.rmtree(bare)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
