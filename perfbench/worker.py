"""One cold benchmark process: import expk, set up, run one timed pass.

Run by ``run.py``, never imported.  Each pass gets a fresh interpreter, so
no model or boundary survives from an earlier pass, as for a CLI user.
The last line of standard output is a JSON object:

* ``setup_s``: from the parent's spawn time (``--t0``, a monotonic clock
  reading) to the end of imports and the workload's preparation;
* ``wall_s``: the timed phase; ``peak_rss_mb``: this process's peak RSS;
* ``items``: the judged outputs; with ``--trace 1`` also the trace summary.

Phases: ``pass`` (set-up and timed pass), ``setup`` (set-up only) and
``populate`` (fill ``--cache-dir`` for ``cache-jobs2``).
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Context:
    def __init__(self, args):
        self.seed = args.seed
        self.cache_dir = args.cache_dir
        self.inject_wrong = args.inject_wrong


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--phase", choices=("pass", "setup", "populate"), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--t0", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--cache-dir")
    p.add_argument("--spans-out")
    p.add_argument("--inject-wrong", action="store_true")
    args = p.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import expk

    if Path(expk.__file__).resolve().parent != ROOT / "src" / "expk":
        raise SystemExit(f"expk imported from {expk.__file__}, not from this checkout")
    from workloads import WORKLOADS

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    workload = WORKLOADS[args.workload]
    ctx = Context(args)
    out = {}
    if args.phase == "populate":
        workload.populate(ctx)
    else:
        workload.prepare(ctx)
    out["setup_s"] = time.monotonic() - args.t0

    if args.phase == "pass":
        start = time.perf_counter()
        result = workload.run(ctx)
        out["wall_s"] = time.perf_counter() - start
        items = workload.judge(ctx, result)
        out["items"] = [item.to_json() for item in items]
        if hasattr(result, "results"):
            out["check_times"] = {r.check_id: r.wall_time_s for r in result.results}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = tracer.summary()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
