"""Batch verification: every quantitative claim as a named, budgeted check.

``run_verify`` executes a selection of checks, each of which builds (or
loads from cache) the models it needs, compares computed values against
the catalog, and reports pass / fail / skipped together with the numbers
involved.  A check that would blow the per-level simplex budget reports
``skipped`` with the offending level rather than failing the run.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import catalog, complexes, grassmannian, spaces
from .cochains import (
    cohomologous,
    coboundary,
    cup,
    cup_i,
    random_cochain,
    ring_table,
    square_coordinates,
    unit_class,
)
from .errors import LevelSizeError
from .exact_sequences import (
    exp2_cover_template,
    exp3_cover_template,
    exp3_gluing_template,
    extract_degree_dims,
    gysin_template,
    solve_template,
)
from .gf2 import Gf2Span, Gf2Vector, relations
from .simplicial import BettiTable, SimplicialSetModel, canonical_json
from .spaces import (
    DEFAULT_MAX_LEVEL_SIZE,
    SPHERE_BASES,
    SpaceSpec,
    build_space,
    product,
    sphere,
)

REPORT_FORMAT = "verification-report/1"


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    description: str
    status: str  # "pass" | "fail" | "skipped"
    detail: str = ""
    computed: object = None
    expected: object = None
    source: str = ""
    spec: dict | None = None
    wall_time_s: float = 0.0

    def to_json_dict(self) -> dict:
        return {**asdict(self), "wall_time_s": round(self.wall_time_s, 3)}


@dataclass
class VerificationReport:
    results: list
    toolchain: dict
    model_hashes: dict
    warnings: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(r.status != "fail" for r in self.results)

    def to_json_dict(self) -> dict:
        return {
            "format": REPORT_FORMAT,
            "passed": self.passed,
            "toolchain": self.toolchain,
            "model_hashes": self.model_hashes,
            "warnings": self.warnings,
            "checks": [r.to_json_dict() for r in self.results],
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    def human_table(self) -> str:
        width = max([len(r.check_id) for r in self.results] + [8])
        lines = [f"{'check':<{width}}  {'status':<8}  detail"]
        lines.append("-" * (width + 40))
        for r in self.results:
            detail = r.detail
            if r.computed is not None and r.status != "pass":
                detail = f"{detail} computed={r.computed} expected={r.expected}"
            lines.append(f"{r.check_id:<{width}}  {r.status:<8}  {detail}")
        lines.append(
            f"{'TOTAL':<{width}}  {'pass' if self.passed else 'FAIL':<8}  "
            f"{sum(r.status == 'pass' for r in self.results)} passed, "
            f"{sum(r.status == 'fail' for r in self.results)} failed, "
            f"{sum(r.status == 'skipped' for r in self.results)} skipped"
        )
        return "\n".join(lines)


class ModelCache:
    """Builds models on demand; optionally persists them with hashes."""

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self.memory = {}
        self.hashes = {}  # spec key -> content hash of its model
        self.warnings = []
        self._locks = {}  # spec key -> the lock its build or load holds

    def model_for(self, spec: SpaceSpec):
        key = spec.to_json_text()
        # one setdefault call on a str key is atomic: every thread gets one lock
        with self._locks.setdefault(key, threading.Lock()):
            if key in self.memory:
                return self.memory[key]
            model = model_hash = path = None
            if self.cache_dir is not None:
                os.makedirs(self.cache_dir, exist_ok=True)
                digest = hashlib.sha256(key.encode()).hexdigest()[:24]
                path = os.path.join(self.cache_dir, f"model-{digest}.bin")
                if os.path.exists(path):
                    model, model_hash = self._load(path, key) or (None, None)
            if model is None:
                model = build_space(spec)
                model_hash = model.content_hash()
                if path is not None:
                    self._store(path, key, model, model_hash)
            self.memory[key] = model
            self.hashes[key] = model_hash
            return model

    def _store(self, path, key, model, model_hash):
        """Write an entry atomically: a crash leaves the old file or none.

        An entry is one canonical-JSON header line (``spec``, ``hash`` and the
        model's ``header()``), then the model's word stream.
        """
        header = {"spec": json.loads(key), "hash": model_hash, **model.header()}
        # mode 0o666 under the umask, as a plain open() gives; O_EXCL keeps
        # a name clash from sharing a file
        tmp = os.path.join(self.cache_dir, f".model-{os.urandom(8).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(canonical_json(header).encode() + b"\n")
                for table in model.words():
                    fh.write(table)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _load(self, path, key):
        """The cached model and its verified content hash, or None."""
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                words = np.frombuffer(fh.read(), dtype="<i4")
            if canonical_json(header["spec"]) != key:
                raise ValueError("entry is for another spec")
            model = SimplicialSetModel.from_words(header, words)
            model_hash = model.content_hash()
            if model_hash != header["hash"]:
                raise ValueError("hash mismatch")
            return model, model_hash
        except Exception as exc:  # corrupt cache: rebuild with a warning
            self.warnings.append(f"cache entry {path} rebuilt: {exc}")
            return None


@dataclass
class CheckContext:
    cache: ModelCache
    max_level_size: int
    seed: int

    def spec(self, kind, n=None, k=None, cap=None, base="boundary") -> SpaceSpec:
        """The spec of a space under the run's per-level simplex budget."""
        return SpaceSpec(
            kind, n=n, k=k, cap=cap, max_level_size=self.max_level_size, base=base
        )

    def space(self, kind, n=None, k=None, cap=None, base="boundary"):
        return self.cache.model_for(self.spec(kind, n, k, cap, base))


def _verdict(ok, detail="", **fields) -> dict:
    """A check's outcome as ``CheckResult`` fields: status, detail and the rest."""
    return {"status": "pass" if ok else "fail", "detail": detail, **fields}


def _all_hold(bad, detail, **fields) -> dict:
    """Pass with ``detail`` when ``bad`` is empty; otherwise fail listing it."""
    return _verdict(not bad, f"failures: {bad}" if bad else detail, **fields)


# ---------------------------------------------------------------------------
# row kinds: each factory turns one row's data into a check


def _betti(kind, n, k, expected=None, source="", detail="", base="boundary"):
    """The Betti table of ``kind`` (``exp`` or ``sym``) at (n, k) is ``expected``.

    Without ``expected`` the row compares with the catalog table of
    ``f"{kind}{k}"`` and reports that table's source.  ``base`` names the
    sphere model the space is built on.
    """

    def run(ctx):
        spec = ctx.spec(kind, n=n, k=k, base=base)
        computed = ctx.cache.model_for(spec).betti_table()
        want, tag = expected, source
        if want is None:
            table = catalog.expected_betti(f"{kind}{k}", n)
            want, tag = table.dims, table.source
        return _verdict(
            computed.matches(want),
            detail,
            computed=list(computed.dims),
            expected=list(want),
            source=tag,
            spec=spec.to_json_dict(),
        )

    return run


def _squares(space, *squares):
    """Each listed Sq^i on H^d sends the one generator to the one generator.

    ``space(ctx)`` gives the model and ``squares`` are (i, d) pairs.  The row
    passes when every square has coordinates ``[[1]]`` in H^(d+i).
    """
    labels = [f"Sq{i} H{d}->H{d + i}" for i, d in squares]

    def run(ctx):
        model = space(ctx)
        computed = {
            label: square_coordinates(model, i, d)
            for label, (i, d) in zip(labels, squares)
        }
        expected = {label: [[1]] for label in labels}
        return _verdict(
            computed == expected,
            "generator to generator: " + ", ".join(labels),
            computed=computed,
            expected=expected,
        )

    return run


def _sequence(ns, template, prefix, expected_kind, detail, source=""):
    """For each n in ``ns`` the solved ``template(ctx, n)`` forces the catalog.

    The forced dimensions of the terms named ``f"{prefix}{k}"`` must equal
    the catalog table of ``expected_kind`` at n.
    """

    def run(ctx):
        bad = []
        for n in ns:
            t = template(ctx, n)
            got = extract_degree_dims(t, solve_template(t), prefix)
            if not got.matches(catalog.expected_betti(expected_kind, n).dims):
                bad.append((n, got.dims))
        return _all_hold(bad, detail, source=source)

    return run


def _comparison(compare, cap_per_n, n, base="boundary"):
    """The ``spaces`` comparison named ``compare`` holds on the n-sphere.

    The sphere, the model ``base`` names, gets level cap ``cap_per_n * n + 1``.
    The function is looked up when the check runs, so a wrapper installed
    on ``spaces`` after import (as the benchmark's tracer does) is the one
    called.
    """

    def run(ctx):
        x = SPHERE_BASES[base](n, cap_per_n * n + 1)
        return _verdict(*getattr(spaces, compare)(x, max_level_size=ctx.max_level_size))

    return run


# templates of the ``_sequence`` rows, as (ctx, n) -> ExactTemplate


def _sphere_bundle_over_projective_space(ctx, n):
    return gysin_template(BettiTable((1,) * (n + 1)), n - 1, {0: 1})


def _exp2_cover(ctx, n):
    return exp2_cover_template(n, catalog.expected_betti("E0", n).dims)


def _exp3_cover(ctx, n):
    dims = [catalog.expected_betti(kind, n).dims for kind in ("C3", "exp2", "E")]
    return exp3_cover_template(n, *dims)


def _circle_bundle_over_grassmannian(ctx, n):
    ranks = {
        j: grassmannian.alpha2_multiplication_rank(n, j + 2)
        for j in range(0, 2 * n - 3)
    }
    return gysin_template(grassmannian.graded_dims(n), 1, ranks)


def _gluing_square(ctx, n):
    s = sphere(n, 2 * n + 1)
    return exp3_gluing_template(
        n,
        ctx.space("exp", n=n, k=2).betti_table(),
        ctx.space("sym", n=n, k=3).betti_table(),
        product(s, s, max_level_size=ctx.max_level_size).betti_table(),
    )


# ---------------------------------------------------------------------------
# bespoke checks


def check_euler_exp3_sphere2(ctx):
    chi = {}
    for name, kind, k in (
        ("exp3", "exp", 3),
        ("sym3", "sym", 3),
        ("exp2", "exp", 2),
    ):
        chi[name] = ctx.space(kind, n=2, k=k).betti_table().euler_characteristic()
    s2 = ctx.space("sphere", n=2, cap=7)
    square = product(s2, s2, max_level_size=ctx.max_level_size)
    chi["square"] = square.betti_table().euler_characteristic()
    lhs = chi["exp3"]
    rhs = chi["sym3"] + chi["exp2"] - chi["square"]
    return _verdict(
        lhs == rhs == 3,
        "inclusion-exclusion over the gluing square",
        computed={"lhs": lhs, "rhs": rhs, **chi},
        expected=3,
    )


# (kind, n, k) of the spaces whose tables must not depend on the sphere base
AGREEING_SPACES = (
    ("exp", 1, 2),
    ("exp", 1, 3),
    ("exp", 2, 2),
    ("exp", 2, 3),
    ("exp", 3, 2),
    ("sym", 2, 3),
)


def check_models_agree(ctx):
    """Each space's table on the one-vertex sphere is its table on ∂Δⁿ⁺¹."""
    computed, expected = {}, {}
    for kind, n, k in AGREEING_SPACES:
        label = f"{kind}{k}(S{n})"
        one_vertex = ctx.space(kind, n=n, k=k, base="one-vertex").betti_table()
        computed[label] = list(one_vertex.dims)
        expected[label] = list(ctx.space(kind, n=n, k=k).betti_table().dims)
    bad = [
        label
        for label, dims in computed.items()
        if not BettiTable(dims).matches(expected[label])
    ]
    return _all_hold(
        bad,
        "one-vertex and boundary sphere models give the same tables",
        computed=computed,
        expected=expected,
    )


def _suite_models(ctx):
    return [
        sphere(1, 3),
        sphere(2, 4),
        complexes.torus(),
        complexes.projective_plane(),
        complexes.moebius_band(),
        ctx.space("exp", n=1, k=2, cap=3),
        ctx.space("exp", n=1, k=3, cap=4),
        ctx.space("exp", n=2, k=2),
        ctx.space("sym", n=1, k=2, cap=3),
        ctx.space("sym", n=2, k=2),
    ]


def check_sq0_identity(ctx):
    bad = []
    for model in _suite_models(ctx):
        for d in range(model.top_nondegenerate_level() + 1):
            coords = square_coordinates(model, 0, d)
            if coords != np.eye(len(coords), dtype=int).tolist():
                bad.append((model.description, d))
    return _all_hold(bad, "degree-0 square is the identity on every basis class")


def check_cup_torus(ctx):
    t2 = complexes.torus()
    a = t2.cohomology_basis(1)[0]
    unit_ok = cohomologous(t2, cup(t2, unit_class(t2), a), a)
    table = ring_table(t2)
    h1 = {(i, j): list(c) for (da, i, db, j), c in table.products if da == db == 1}
    ab, aa, bb = h1[0, 1], h1[0, 0], h1[1, 1]
    return _verdict(
        ab == [1] and aa == [0] and bb == [0] and unit_ok,
        f"[a.b]={ab} [a.a]={aa} [b.b]={bb} unit={unit_ok}",
        computed=table.to_json_dict(),
    )


def check_grassmannian_dims(ctx):
    stable = list(grassmannian.graded_dims(8).dims[:7])
    n4 = list(grassmannian.graded_dims(4).dims)
    totals = all(
        grassmannian.total_dimension(n) == grassmannian.schubert_cell_count(n)
        for n in range(2, 9)
    )
    catalog_n4 = catalog.expected_betti("grassmannian", 4)
    expected = {"stable": [1, 1, 2, 2, 3, 3, 4], "n4": [1, 1, 2, 2, 2, 1, 1]}
    computed = {"stable": stable, "n4": n4}
    return _verdict(
        computed == expected and totals and BettiTable(n4).matches(catalog_n4.dims),
        computed=computed,
        expected=expected,
        source=catalog_n4.source,
    )


def check_grassmannian_alpha2(ctx):
    bad = []
    for n in range(3, 9):
        gd = grassmannian.graded_dims(n)
        for k in range(2, 2 * n - 1):
            r = grassmannian.alpha2_multiplication_rank(n, k)
            # injective below the middle degree n, then an isomorphism and onto
            want = gd.dim(k - 2) if k < n else gd.dim(k)
            if r != want:
                bad.append((n, k, r, want))
    return _all_hold(
        bad, "injective below the middle, isomorphism at it, onto after"
    )


def check_props_gf2(ctx):
    # the chain layer's two eliminations: Gf2Span of the rows is the rank,
    # relations among the columns a kernel basis
    rng = np.random.default_rng(ctx.seed + 1)
    for _ in range(20):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 13))
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        rows = (dense @ (1 << np.arange(c))).tolist()
        columns = (dense.T @ (1 << np.arange(r))).tolist()
        # the image of every one of the 2^c vectors, one row each
        xs = np.array(list(itertools.product((0, 1), repeat=c)), dtype=np.uint8)
        images = xs @ dense.T % 2
        if len(Gf2Span(rows)) != len(np.unique(images, axis=0)).bit_length() - 1:
            return _verdict(False, "rank disagrees with enumeration")
        kernel_count = int((~images.any(axis=1)).sum())
        if 2 ** len(relations(columns)) != kernel_count:
            return _verdict(False, "kernel disagrees with enumeration")
    return _verdict(
        True, "rank and kernel match exhaustive enumeration up to 12 columns"
    )


def check_props_simplicial(ctx):
    for model in _suite_models(ctx):
        if (bad := model.validate()) is not None:
            return _verdict(False, f"{model.description}: fail: {bad}")
        top = model.top_nondegenerate_level()
        for n in range(2, top + 1):
            # boundary squared is zero: every row of d_(n-1) is an (n-1)-cocycle
            length = model.nondeg_count(n - 1)
            rows = (Gf2Vector(length, row) for row in model._boundary_rows(n - 1)[1])
            if not all(model.is_cocycle(n - 1, row) for row in rows):
                return _verdict(
                    False, f"{model.description}: boundary squared nonzero at {n}"
                )
        cells = sum(
            (-1) ** n * model.nondeg_count(n) for n in range(model.level_cap + 1)
        )
        if cells != model.betti_table().euler_characteristic():
            return _verdict(False, f"{model.description}: euler characteristic mismatch")
    # cap stability on a representative pair
    a = ctx.space("exp", n=1, k=2, cap=3).betti_table()
    b = ctx.space("exp", n=1, k=2, cap=4).betti_table()
    if not a.matches(b):
        return _verdict(False, "betti table changed with the cap")
    return _verdict(True, "identities, boundary-squared, euler counts, cap stability")


def check_props_kunneth(ctx):
    pairs = [(1, 1), (1, 2), (2, 2)]
    for na, nb in pairs:
        cap = na + nb + 1
        a, b = sphere(na, cap), sphere(nb, cap)
        pt = product(a, b, max_level_size=ctx.max_level_size).betti_table()
        ta, tb = a.betti_table(), b.betti_table()
        for k in range(pt.max_degree + 1):
            want = sum(ta.dim(i) * tb.dim(k - i) for i in range(k + 1))
            if pt.dim(k) != want:
                return _verdict(
                    False, f"kunneth fails for spheres {na},{nb} at degree {k}"
                )
    return _verdict(True, "kunneth over the two-element field")


def check_props_cup_identity(ctx):
    rng = np.random.default_rng(ctx.seed)
    models = [
        complexes.torus(),
        complexes.projective_plane(),
        ctx.space("exp", n=2, k=2),
        ctx.space("sym", n=1, k=2, cap=3),
        sphere(2, 4),
    ]
    for model in models:
        top = model.top_nondegenerate_level()
        checked = 0
        while checked < 100:
            p = int(rng.integers(1, max(top, 2)))
            q = int(rng.integers(1, max(top, 2)))
            i = int(rng.integers(0, min(p, q) + 1))
            if p + q - i + 1 > min(model.level_cap, top + 1):
                continue
            a = random_cochain(model, p, rng)
            b = random_cochain(model, q, rng)
            lhs = coboundary(model, cup_i(model, a, b, i)).support
            rhs = (
                cup_i(model, coboundary(model, a), b, i).support
                ^ cup_i(model, a, coboundary(model, b), i).support
            )
            if i > 0:
                rhs = (
                    rhs
                    ^ cup_i(model, a, b, i - 1).support
                    ^ cup_i(model, b, a, i - 1).support
                )
            if lhs != rhs:
                return _verdict(
                    False,
                    f"{model.description}: identity fails at p={p} q={q} i={i}",
                )
            checked += 1
    return _verdict(True, "coboundary identity on 100 seeded pairs per model")


CHECKS = {
    "betti-exp2-circle": ("two-point subsets of the circle", _betti("exp", 1, 2)),
    "betti-exp2-sphere2": ("two-point subsets of the 2-sphere", _betti("exp", 2, 2)),
    "betti-exp3-circle": ("three-point subsets of the circle", _betti("exp", 1, 3)),
    "betti-exp3-sphere2": ("three-point subsets of the 2-sphere", _betti("exp", 2, 3)),
    "betti-exp3-sphere3": ("three-point subsets of the 3-sphere",
        _betti("exp", 3, 3, base="one-vertex")),
    "betti-sym3-sphere2": ("triple symmetric power of the 2-sphere", _betti(
        "sym", 2, 3, expected=(1, 0, 1, 0, 1, 0, 1),
        source="derived:triple-symmetric-power-of-2-sphere",
        detail="table of complex projective 3-space",
    )),
    "euler-exp3-sphere2": ("euler characteristic cross-check", check_euler_exp3_sphere2),
    "models-agree": ("tables on the two sphere models", check_models_agree),
    "pushout-circle": ("gluing square vs subsets, circle",
        _comparison("compare_pushout_with_subsets", 3, 1, base="one-vertex")),
    "pushout-sphere2": ("gluing square vs subsets, 2-sphere",
        _comparison("compare_pushout_with_subsets", 3, 2, base="one-vertex")),
    "sym2-bijection-circle": ("double power vs two-point subsets, circle",
        _comparison("compare_sym2_with_subsets", 2, 1)),
    "sym2-bijection-sphere2": ("double power vs two-point subsets, 2-sphere",
        _comparison("compare_sym2_with_subsets", 2, 2)),
    "sq-exp2-sphere2": ("square of the middle generator, 2-sphere",
        _squares(lambda ctx: ctx.space("exp", n=2, k=2), (2, 2))),
    "sq-exp2-sphere3": ("squares of the middle generator, 3-sphere",
        _squares(lambda ctx: ctx.space("exp", n=3, k=2), (2, 3), (3, 3))),
    "sq-sym3-sphere2": ("square on the triple symmetric power",
        _squares(lambda ctx: ctx.space("sym", n=2, k=3), (2, 2))),
    "sq0-identity": ("degree-0 squares are the identity", check_sq0_identity),
    "sq1-projective-plane": ("degree-1 square on the projective plane",
        _squares(lambda ctx: complexes.projective_plane(), (1, 1))),
    "cup-torus": ("cup products on the torus", check_cup_torus),
    "grassmannian-dims": ("graded dimensions of the Grassmannian ring", check_grassmannian_dims),
    "grassmannian-alpha2": ("multiplication by the degree-2 class", check_grassmannian_alpha2),
    "lesolve-gysin-e0": ("sphere-bundle sequence over projective space", _sequence(
        range(2, 7), _sphere_bundle_over_projective_space, "E^", "E0",
        "sphere-bundle sequence forces one dimension in 0..2n-1",
        source="catalog:line-complement-sphere-bundle",
    )),
    "lesolve-exp2-cover": ("covering sequence for two-point subsets", _sequence(
        range(2, 7), _exp2_cover, "X^", "exp2",
        "covering sequence reproduces the two-point tables for n=2..6",
    )),
    "lesolve-exp3-cover": ("covering sequence for three-point subsets", _sequence(
        range(2, 7), _exp3_cover, "X^", "exp3",
        "covering sequence reproduces the three-point tables for n=2..6",
    )),
    "lesolve-c3-crosscheck": ("circle bundle over the Grassmannian", _sequence(
        range(3, 9), _circle_bundle_over_grassmannian, "E^", "C3",
        "circle-bundle sequence over the Grassmannian matches the "
        "documentation-only distinct-triples table",
        source="catalog:distinct-triples",
    )),
    "lesolve-gluing": ("gluing-square sequence with computed inputs", _sequence(
        (1, 2), _gluing_square, "X^", "exp3",
        "gluing-square sequence with computed inputs reproduces the "
        "three-point tables for n=1,2",
    )),
    "props-gf2": ("rank/kernel against enumeration", check_props_gf2),
    "props-simplicial": ("identities, boundaries, euler, cap stability", check_props_simplicial),
    "props-kunneth": ("product tables against the coefficient pairing", check_props_kunneth),
    "props-cup-identity": ("chain-level coboundary identity", check_props_cup_identity),
}


def run_verify(
    scope=None,
    max_level_size: int = DEFAULT_MAX_LEVEL_SIZE,
    cache_dir=None,
    jobs: int = 1,
    seed: int = 0,
    progress=None,
) -> VerificationReport:
    """Run the selected checks (all by default) and assemble the report."""
    selected = sorted(CHECKS if scope is None else set(scope))
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    cache = ModelCache(cache_dir=cache_dir)
    ctx = CheckContext(cache=cache, max_level_size=max_level_size, seed=seed)

    def run_one(check_id):
        description, fn = CHECKS[check_id]
        start = time.perf_counter()
        try:
            out = fn(ctx)
        except LevelSizeError as exc:
            out = {"status": "skipped", "detail": f"over budget: {exc}"}
        elapsed = time.perf_counter() - start
        result = CheckResult(check_id, description, wall_time_s=elapsed, **out)
        if progress is not None:
            progress(result)
        return result

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(run_one, selected))
    else:
        results = [run_one(c) for c in selected]
    results.sort(key=lambda r: r.check_id)
    toolchain = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "package": "expk 0.1.0",
    }
    return VerificationReport(
        results=results,
        toolchain=toolchain,
        model_hashes=dict(sorted(cache.hashes.items())),
        warnings=list(cache.warnings),
    )
