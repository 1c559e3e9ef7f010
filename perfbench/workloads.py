"""The benchmark's workloads: what one cold pass does and how it is judged.

Each workload has a ``prepare`` step (set-up that the pass process pays
before the timed phase), a ``run`` step (the timed phase) and a judge
that turns the outputs into items.  An item is ok when its status is
``pass`` and its value equals the value the benchmark expects; a
``skipped`` item (over budget) is not ok.  An item whose value is wrong,
or which the library reports as ``fail``, also makes the run incorrect.

Expected values are written down here, from the paper's tables, so they
do not come from the library under test.  Only ``verify`` and
``cache-jobs2`` use the seed (it goes to ``run_verify``); the tables and
squares are fixed inputs.
"""

from __future__ import annotations

import os

# Betti tables of the paper, trailing zeros dropped.  Sym_3(S^2) is
# complex projective 3-space.
PAPER_TABLES = {
    "exp2-circle": (1, 1),
    "exp3-circle": (1, 0, 0, 1),
    "exp2-sphere2": (1, 0, 1, 0, 1),
    "exp2-sphere3": (1, 0, 0, 1, 0, 1, 1),
    "exp3-sphere2": (1, 0, 0, 0, 2, 1, 1),
    "exp3-sphere3": (1, 0, 0, 0, 0, 2, 2, 1, 1, 1),
    "sym3-sphere2": (1, 0, 1, 0, 1, 0, 1),
}

# item -> (space kind, sphere dimension n, k)
TABLE_SPACES = {
    "exp3-circle": ("exp", 1, 3),
    "exp2-sphere2": ("exp", 2, 2),
    "exp2-sphere3": ("exp", 3, 2),
    "exp3-sphere2": ("exp", 2, 3),
    "sym3-sphere2": ("sym", 2, 3),
}

SQUARE_SPACES = {
    "exp2-sphere2": ("exp", 2, 2),
    "exp2-sphere3": ("exp", 3, 2),
    "sym3-sphere2": ("sym", 2, 3),
}

# item -> (space, square index i, source degree, target degree); each
# square of the generator must read coordinates [1] in the target basis.
SQUARES = {
    "sq2-exp2-sphere2": ("exp2-sphere2", 2, 2, 4),
    "sq2-exp2-sphere3": ("exp2-sphere3", 2, 3, 5),
    "sq3-exp2-sphere3": ("exp2-sphere3", 3, 3, 6),
    "sq2-sym3-sphere2": ("sym3-sphere2", 2, 2, 4),
}

CACHE_SCOPE = (
    "betti-exp3-sphere2",
    "betti-sym3-sphere2",
    "euler-exp3-sphere2",
    "lesolve-gluing",
)
# Every model the CACHE_SCOPE checks ask ModelCache for, as
# (kind, n, k, cap); cap None is the spec's default.
CACHE_SPECS = (
    ("exp", 2, 3, None),
    ("sym", 2, 3, None),
    ("exp", 2, 2, None),
    ("sphere", 2, None, 7),
    ("exp", 1, 2, None),
    ("sym", 1, 3, None),
)

WRONG = "injected-wrong-expectation"


def _trim(dims):
    dims = list(dims)
    while dims and dims[-1] == 0:
        dims.pop()
    return tuple(dims)


def _spec(kind, n, k=None, cap=None):
    from expk import spaces

    return spaces.SpaceSpec(kind, n=n, k=k, cap=cap)


def _build(kind, n, k):
    from expk import errors, spaces

    try:
        return spaces.build_space(_spec(kind, n, k))
    except errors.LevelSizeError as exc:
        return exc


class Item:
    """One judged output: a table, a square or a verify check."""

    def __init__(self, name, status, computed, expected, detail=""):
        self.name = name
        self.status = status
        self.computed = computed
        self.expected = expected
        self.detail = detail

    @property
    def wrong(self) -> bool:
        return self.status == "fail" or (
            self.status == "pass" and self.computed != self.expected
        )

    @property
    def ok(self) -> bool:
        return self.status == "pass" and not self.wrong

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "ok": self.ok,
            "wrong": self.wrong,
            "computed": repr(self.computed),
            "expected": repr(self.expected),
            "detail": self.detail,
        }


# ---------------------------------------------------------------------------
# verify: the full registry, serial, no cache dir


def _judge_report(report, scope, expected_tables):
    """Items from a verification report; betti checks are also re-judged."""
    by_id = {r.check_id: r for r in report.results}
    items = []
    for check_id in scope:
        r = by_id.get(check_id)
        if r is None:
            items.append(Item(check_id, "fail", None, "a result", "missing"))
            continue
        table = check_id.removeprefix("betti-")
        if table in expected_tables and r.status == "pass":
            computed = _trim(r.computed or ())
            items.append(Item(check_id, r.status, computed, expected_tables[table]))
        else:
            items.append(Item(check_id, r.status, r.status, r.status, r.detail))
    if report.warnings:
        items.append(Item("report-warnings", "fail", report.warnings, []))
    return items


class Verify:
    name = "verify"

    def prepare(self, ctx):
        pass

    def run(self, ctx):
        from expk import verify

        return verify.run_verify(seed=ctx.seed)

    def judge(self, ctx, report):
        from expk import verify

        tables = dict(PAPER_TABLES)
        if ctx.inject_wrong:
            tables["exp2-circle"] = WRONG
        return _judge_report(report, sorted(verify.CHECKS), tables)


# ---------------------------------------------------------------------------
# tables: build from scratch, then the Betti table


class Tables:
    name = "tables"

    def prepare(self, ctx):
        pass

    def run(self, ctx):
        out = {}
        for item, (kind, n, k) in TABLE_SPACES.items():
            model = _build(kind, n, k)
            out[item] = model if isinstance(model, Exception) else model.betti_table()
        return out

    def judge(self, ctx, out):
        expected = dict(PAPER_TABLES)
        if ctx.inject_wrong:
            expected["exp2-sphere2"] = WRONG
        items = []
        for item, table in out.items():
            if isinstance(table, Exception):
                items.append(Item(item, "skipped", None, expected[item], str(table)))
            else:
                items.append(Item(item, "pass", _trim(table.dims), expected[item]))
        return items


# ---------------------------------------------------------------------------
# squares: models built in set-up; the pass is bases plus squares


class Squares:
    name = "squares"

    def prepare(self, ctx):
        ctx.models = {name: _build(*spec) for name, spec in SQUARE_SPACES.items()}

    def run(self, ctx):
        from expk import cochains

        out = {}
        for item, (space, i, d_from, d_to) in SQUARES.items():
            model = ctx.models[space]
            if isinstance(model, Exception):
                out[item] = model
                continue
            basis_from = model.cohomology_basis(d_from)
            basis_to = model.cohomology_basis(d_to)
            if len(basis_from) != 1 or len(basis_to) != 1:
                out[item] = ("ranks", len(basis_from), len(basis_to))
                continue
            image = cochains.steenrod_square(model, i, basis_from[0])
            coords = cochains.express_in_basis(model, image, basis_to)
            out[item] = coords.to_bits().tolist()
        return out

    def judge(self, ctx, out):
        items = []
        for item, coords in out.items():
            expected = WRONG if ctx.inject_wrong and item == "sq2-exp2-sphere2" else [1]
            if isinstance(coords, Exception):
                items.append(Item(item, "skipped", None, expected, str(coords)))
            else:
                items.append(Item(item, "pass", coords, expected))
        return items


# ---------------------------------------------------------------------------
# cache-jobs2: a populated cache dir, read back by two threads


def cache_files(cache_dir):
    """(name, size, mtime) of every cache file, to show the pass wrote none."""
    return sorted(
        (e.name, e.stat().st_size, e.stat().st_mtime_ns) for e in os.scandir(cache_dir)
    )


class CacheJobs2:
    name = "cache-jobs2"

    def populate(self, ctx):
        from expk import verify

        cache = verify.ModelCache(cache_dir=ctx.cache_dir)
        for kind, n, k, cap in CACHE_SPECS:
            cache.model_for(_spec(kind, n, k, cap))

    def prepare(self, ctx):
        ctx.files_before = cache_files(ctx.cache_dir)

    def run(self, ctx):
        from expk import verify

        return verify.run_verify(
            scope=list(CACHE_SCOPE), jobs=2, cache_dir=ctx.cache_dir, seed=ctx.seed
        )

    def judge(self, ctx, report):
        tables = dict(PAPER_TABLES)
        if ctx.inject_wrong:
            tables["exp3-sphere2"] = WRONG
        items = _judge_report(report, sorted(CACHE_SCOPE), tables)
        files_after = cache_files(ctx.cache_dir)
        if files_after != ctx.files_before or not files_after:
            items.append(
                Item("cache-untouched", "fail", files_after, ctx.files_before,
                     "the pass rebuilt or rewrote cache entries")
            )
        return items


WORKLOADS = {w.name: w for w in (Verify(), Tables(), Squares(), CacheJobs2())}
