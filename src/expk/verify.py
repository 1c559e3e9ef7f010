"""Batch verification: every quantitative claim as a named, budgeted check.

``run_verify`` executes a selection of checks, each of which gets every
model it declares from the run's ``ModelCache``, compares computed values
against the catalog, and reports pass / fail / skipped together with the
numbers involved.  A check that would blow the per-level simplex budget
reports ``skipped`` with the offending level rather than failing the run.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import platform
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

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
from .errors import ContractViolation, LevelSizeError
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
from .spaces import DEFAULT_MAX_LEVEL_SIZE, SpaceSpec, build_space, product

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
    """Builds models on demand; optionally persists them with hashes.

    A stored model is written to ``cache_dir`` as its header and word
    stream, under its content hash (``_store``), and read back given its
    tables, which its content hash then checks (``_load``).  A normalized
    model is built in milliseconds, so it is only kept in ``memory``: it
    never reads or writes ``cache_dir`` and has no hash.
    The sphere a stored or normalized spec builds on, and the model of a
    sphere spec, is built once and kept in ``bases`` for as long as the
    cache; it is neither hashed nor stored.
    """

    def __init__(self, cache_dir=None):
        self.cache_dir = cache_dir
        self.memory = {}
        self.hashes = {}  # spec key -> content hash of its model
        self.bases = {}  # (base, n, cap, budget) -> the sphere model
        self.warnings = []
        self._locks = {}  # spec or base key -> the lock its build or load holds

    def model_for(self, spec: SpaceSpec):
        key = spec.to_json_text()
        # one setdefault call on a str key is atomic: every thread gets one lock
        with self._locks.setdefault(key, threading.Lock()):
            if key in self.memory:
                return self.memory[key]
            if spec.kind == "sphere":
                return self._base(spec)
            if spec.normalized:
                self.memory[key] = build_space(spec, self._base(spec))
                return self.memory[key]
            model = model_hash = path = None
            if self.cache_dir is not None:
                os.makedirs(self.cache_dir, exist_ok=True)
                digest = hashlib.sha256(key.encode()).hexdigest()[:24]
                path = os.path.join(self.cache_dir, f"model-{digest}.bin")
                if os.path.exists(path):
                    model, model_hash = self._load(path, key) or (None, None)
            if model is None:
                model = build_space(spec, self._base(spec))
                if path is None:
                    model_hash = model.content_hash()
                else:
                    model_hash = self._store(path, key, model)
            self.memory[key] = model
            self.hashes[key] = model_hash
            return model

    def _base(self, spec: SpaceSpec):
        """The sphere ``spec`` builds on, built once; None for a complex."""
        if spec.kind == "complex":
            return None
        key = spec.base, spec.n, spec.default_cap(), spec.max_level_size
        # taken under the caller's spec lock; a tuple key is never a spec key
        with self._locks.setdefault(key, threading.Lock()):
            if key not in self.bases:
                self.bases[key] = spaces.sphere_base(spec)
            return self.bases[key]

    def _store(self, path, key, model) -> str:
        """Write an entry atomically and return the model's content hash.

        A crash leaves the old file or none.  An entry is one canonical-JSON
        header line (``spec``, ``hash`` and the model's ``header()``), then
        the model's word stream, which the hash reads too.
        """
        header = {"spec": json.loads(key), "hash": model.content_hash(), **model.header()}
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
        return header["hash"]

    def _load(self, path, key):
        """The cached model and its verified content hash, or None.

        The entry's word block is read whole, into one int32 array made
        read-only, and the model is given its tables as views of it
        (``from_words``).  Its ``content_hash`` reads every word, so a
        damaged word is refused wherever it lies.
        """
        try:
            with open(path, "rb") as fh:
                header = json.loads(fh.readline())
                if canonical_json(header["spec"]) != key:
                    raise ValueError("entry is for another spec")
                size = os.fstat(fh.fileno()).st_size - fh.tell()
                if size % 4:
                    raise ValueError("buffer size must be a multiple of element size")
                words = np.empty(size // 4, dtype="<i4")
                if (got := fh.readinto(words.view(np.uint8))) != words.nbytes:
                    raise ValueError(f"word block read short: {got} of {size} bytes")
            words.setflags(write=False)
            model = SimplicialSetModel.from_words(header, words)
            if model.content_hash() != header["hash"]:
                raise ValueError("hash mismatch")
            return model, header["hash"]
        except Exception as exc:  # corrupt cache: rebuild with a warning
            self.warnings.append(f"cache entry {path} rebuilt: {exc}")
            return None


@dataclass
class CheckContext:
    max_level_size: int
    seed: int


def _reads(*specs):
    """Declare the models a row reads, as ``SpaceSpec``s at the default budget.

    ``run_verify`` puts the run's budget on each spec, gets its model from
    the run's cache and calls the row as ``fn(ctx, *models)``, in
    declaration order.  This is the only way a row gets a model: it may
    combine the ones it read, under ``ctx.max_level_size``, but never
    builds a fixed one.  Each model stays in memory until the last row in
    scope that declares it ends.
    """

    def declare(fn):
        fn.reads = specs
        return fn

    return declare


def _verdict(ok, detail="", **fields) -> dict:
    """A check's outcome as ``CheckResult`` fields: status, detail and the rest."""
    return {"status": "pass" if ok else "fail", "detail": detail, **fields}


def _all_hold(bad, detail, **fields) -> dict:
    """Pass with ``detail`` when ``bad`` is empty; otherwise fail listing it."""
    return _verdict(not bad, f"failures: {bad}" if bad else detail, **fields)


# ---------------------------------------------------------------------------
# row kinds: each factory turns one row's data into a check


def _normalized(kind, n, k, base="one-vertex"):
    """The spec of the normalized ``kind`` at (n, k) over the sphere ``base``."""
    return SpaceSpec(kind, n=n, k=k, base=base, normalized=True)


def _betti(kind, n, k, oracle=None, detail=""):
    """The normalized ``kind`` (exp or sym) at (n, k) has the catalog's Betti table.

    ``oracle`` is the catalog (kind, n) the row compares with, by default
    ``(f"{kind}{k}", n)``; the row reports that table's source.
    """

    space = _normalized(kind, n, k)
    oracle = oracle or (f"{kind}{k}", n)

    @_reads(space)
    def run(ctx, model):
        computed = model.betti_table()
        table = catalog.expected_betti(*oracle)
        return _verdict(
            computed.matches(table.dims),
            detail,
            computed=list(computed.dims),
            expected=list(table.dims),
            source=table.source,
            spec=replace(space, max_level_size=ctx.max_level_size).to_json_dict(),
        )

    return run


def _squares(*squares):
    """Each listed Sq^i on H^d sends the one generator to the one generator.

    ``squares`` are (i, d) pairs; the row is called with the model it
    checks.  It passes when every square has coordinates ``[[1]]`` in
    H^(d+i).
    """
    labels = [f"Sq{i} H{d}->H{d + i}" for i, d in squares]

    def run(ctx, model):
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
    """For each n in ``ns`` the solved ``template(ctx, n, *models)`` forces the catalog.

    ``models`` are the ones the row declares it reads.  The forced
    dimensions of the terms named ``f"{prefix}{k}"`` must equal the catalog
    table of ``expected_kind`` at n.
    """

    def run(ctx, *models):
        bad = []
        for n in ns:
            t = template(ctx, n, *models)
            got = extract_degree_dims(t, solve_template(t), prefix)
            if not got.matches(catalog.expected_betti(expected_kind, n).dims):
                bad.append((n, got.dims))
        return _all_hold(bad, detail, source=source)

    return run


def _comparison(compare, *reads):
    """The ``spaces`` comparison named ``compare`` holds on the declared ``reads``.

    The function is looked up when the check runs, so a wrapper installed
    on ``spaces`` after import (as the benchmark's tracer does) is the one
    called.
    """

    @_reads(*reads)
    def run(ctx, *models):
        return _verdict(*getattr(spaces, compare)(*models))

    return run


def _pushout_reads(n):
    """The one-vertex n-sphere, its square, Sym₃, Sym₂ and exp₃, at cap 3n + 1."""
    parts = (("sphere", None), ("product", None), ("sym", 3), ("sym", 2), ("exp", 3))
    return [
        SpaceSpec(kind, n=n, k=k, cap=3 * n + 1, base="one-vertex")
        for kind, k in parts
    ]


def _bijection_reads(n):
    """The boundary n-sphere, its Sym₂ and exp₂, at cap 2n + 1."""
    parts = (("sphere", None), ("sym", 2), ("exp", 2))
    return [SpaceSpec(kind, n=n, k=k, cap=2 * n + 1) for kind, k in parts]


# templates of the ``_sequence`` rows, as (ctx, n, *models) -> ExactTemplate


def _sphere_bundle_over_projective_space(ctx, n):
    return gysin_template(BettiTable((1,) * (n + 1)), n - 1, {0: 1})


def _exp2_cover(ctx, n):
    return exp2_cover_template(n, BettiTable(catalog.expected_betti("E0", n).dims))


def _exp3_cover(ctx, n):
    kinds = ("C3", "exp2", "E")
    tables = [BettiTable(catalog.expected_betti(kind, n).dims) for kind in kinds]
    return exp3_cover_template(n, *tables)


def _circle_bundle_over_grassmannian(ctx, n):
    ranks = {
        j: grassmannian.alpha2_multiplication_rank(n, j + 2)
        for j in range(0, 2 * n - 3)
    }
    return gysin_template(grassmannian.graded_dims(n), 1, ranks)


# (kind, n) -> the spec of each model _gluing_square reads for n = 1, 2:
# the normalized exp₂ and Sym₃ of Sⁿ, and Sⁿ at cap 2n + 1 for its square
GLUING_SPACES = {
    **{(kind, n): _normalized(kind, n, k) for n in (1, 2)
       for kind, k in (("exp", 2), ("sym", 3))},
    **{("sphere", n): SpaceSpec("sphere", n=n, cap=2 * n + 1) for n in (1, 2)},
}


def _gluing_square(ctx, n, *models):
    """The gluing template at n, from the ``GLUING_SPACES`` models for n."""
    by_space = dict(zip(GLUING_SPACES, models))
    s = by_space["sphere", n]
    return exp3_gluing_template(
        n,
        by_space["exp", n].betti_table(),
        by_space["sym", n].betti_table(),
        product(s, s, max_level_size=ctx.max_level_size).betti_table(),
    )


# ---------------------------------------------------------------------------
# bespoke checks


@_reads(
    _normalized("exp", 2, 3),
    _normalized("sym", 2, 3),
    _normalized("exp", 2, 2),
    SpaceSpec("sphere", n=2, cap=7),
)
def check_euler_exp3_sphere2(ctx, exp3, sym3, exp2, s2):
    chi = {
        name: model.betti_table().euler_characteristic()
        for name, model in (("exp3", exp3), ("sym3", sym3), ("exp2", exp2))
    }
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


@_reads(*[spec for kind, n, k in AGREEING_SPACES
          for spec in (SpaceSpec(kind, n=n, k=k, base="one-vertex"),
                       _normalized(kind, n, k, base="boundary"))])
def check_models_agree(ctx, *models):
    """Each space's stored table on the one-vertex sphere is its table on ∂Δⁿ⁺¹.

    The ∂Δⁿ⁺¹ side is the normalized complex; ``normalized-agree`` holds
    it to the stored ∂Δⁿ⁺¹ models of the three smallest spaces.
    """
    computed, expected = {}, {}
    pairs = zip(models[::2], models[1::2])
    for (kind, n, k), (one_vertex, boundary) in zip(AGREEING_SPACES, pairs):
        label = f"{kind}{k}(S{n})"
        computed[label] = list(one_vertex.betti_table().dims)
        expected[label] = list(boundary.betti_table().dims)
    bad = [
        label
        for label, dims in computed.items()
        if not BettiTable(dims).matches(expected[label])
    ]
    return _all_hold(
        bad,
        "stored one-vertex and normalized boundary sphere models give the same "
        "tables",
        computed=computed,
        expected=expected,
    )


# (kind, n, k) -> the (i, d) of each Sq^i on H^d its sq row checks
SQUARED_SPACES = {
    ("exp", 2, 2): ((2, 2),),
    ("exp", 3, 2): ((2, 3), (3, 3)),
    ("sym", 2, 3): ((2, 2),),
}


def _squares_on(kind, n, k):
    """The ``SQUARED_SPACES`` row of (kind, n, k), on its normalized complex."""
    return _reads(_normalized(kind, n, k))(_squares(*SQUARED_SPACES[kind, n, k]))


def _invariants(model, squares) -> dict:
    """What a chain model computes for a space: counts, tables, ring and squares."""
    return {
        "counts": [model.nondeg_count(m) for m in range(model.level_cap + 1)],
        "betti": list(model.betti_table().dims),
        "ring": ring_table(model).to_json_dict(),
        "squares": {
            f"Sq{i} H{d}": square_coordinates(model, i, d) for i, d in squares
        },
    }


# (kind, n, k, base) of each space whose normalized complex is held to its
# stored model: every AGREEING_SPACES space on the one-vertex sphere, and
# on ∂Δⁿ⁺¹ the three whose stored models the SUITE rows read
NORMALIZED_AGREEING = [(*space, "one-vertex") for space in AGREEING_SPACES] + [
    (*space, "boundary") for space in AGREEING_SPACES[:3]
]


@_reads(*[spec for kind, n, k, base in NORMALIZED_AGREEING
          for spec in (SpaceSpec(kind, n=n, k=k, base=base),
                       _normalized(kind, n, k, base=base))])
def check_normalized_agree(ctx, *models):
    """Each space's normalized complex computes what its stored model does."""
    computed, expected, bad = {}, {}, []
    pairs = zip(models[::2], models[1::2])
    for (kind, n, k, base), (stored, normalized) in zip(NORMALIZED_AGREEING, pairs):
        label = f"{kind}{k}(S{n})" + (", boundary" if base == "boundary" else "")
        squares = SQUARED_SPACES.get((kind, n, k), ())
        got = computed[label] = _invariants(normalized, squares)
        want = expected[label] = _invariants(stored, squares)
        bad += [(label, aspect) for aspect in got if got[aspect] != want[aspect]]
    return _all_hold(
        bad,
        "normalized and stored models on either sphere give the same counts, "
        "tables, rings and squares",
        computed=computed,
        expected=expected,
    )


TORUS = SpaceSpec("complex", facets=complexes.torus_facets(), cap=3)
PROJECTIVE_PLANE = SpaceSpec("complex", facets=complexes.PROJECTIVE_PLANE_FACETS)
MOEBIUS_BAND = SpaceSpec("complex", facets=complexes.MOEBIUS_BAND_FACETS, cap=3)

# the models of the sq0 and simplicial suites, by the name a failure gives
SUITE = {
    "sphere(1)": SpaceSpec("sphere", n=1, cap=3),
    "sphere(2)": SpaceSpec("sphere", n=2, cap=4),
    "9-vertex torus": TORUS,
    "projective plane": PROJECTIVE_PLANE,
    "moebius band": MOEBIUS_BAND,
    "exp_2(sphere(1))": SpaceSpec("exp", n=1, k=2, cap=3),
    "exp_3(sphere(1))": SpaceSpec("exp", n=1, k=3),
    "exp_2(sphere(2))": SpaceSpec("exp", n=2, k=2),
    "sym_2(sphere(1))": SpaceSpec("sym", n=1, k=2, cap=3),
    "sym_2(sphere(2))": SpaceSpec("sym", n=2, k=2),
}
# the SUITE models the coboundary identity is checked on, in its order
CUP_IDENTITY_SUITE = (
    "9-vertex torus",
    "projective plane",
    "exp_2(sphere(2))",
    "sym_2(sphere(1))",
    "sphere(2)",
)


@_reads(*SUITE.values())
def check_sq0_identity(ctx, *models):
    bad = []
    for name, model in zip(SUITE, models):
        for d in range(model.top_nondegenerate_level() + 1):
            coords = square_coordinates(model, 0, d)
            if coords != np.eye(len(coords), dtype=int).tolist():
                bad.append((name, d))
    return _all_hold(bad, "degree-0 square is the identity on every basis class")


@_reads(TORUS)
def check_cup_torus(ctx, t2):
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


def _enumerated_counts(dense: np.ndarray) -> tuple[int, int]:
    """The distinct images and the zero images of all 2^c vectors under ``dense``.

    Each image is packed into an int, so counting needs no ``np.unique``.
    """
    r, c = dense.shape
    xs = (np.arange(2**c)[:, None] >> np.arange(c - 1, -1, -1)) & 1
    images = (xs @ dense.T % 2) @ (1 << np.arange(r))
    return len(set(images.tolist())), int((images == 0).sum())


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
        distinct, kernel_count = _enumerated_counts(dense)
        if len(Gf2Span(rows)) != distinct.bit_length() - 1:
            return _verdict(False, "rank disagrees with enumeration")
        if 2 ** len(relations(columns)) != kernel_count:
            return _verdict(False, "kernel disagrees with enumeration")
    return _verdict(
        True, "rank and kernel match exhaustive enumeration up to 12 columns"
    )


@_reads(SUITE["exp_2(sphere(1))"], SpaceSpec("exp", n=1, k=2, cap=4),
        *SUITE.values())
def check_props_simplicial(ctx, cap3, cap4, *models):
    for name, model in zip(SUITE, models):
        if (bad := model.validate()) is not None:
            return _verdict(False, f"{name}: fail: {bad}")
        top = model.top_nondegenerate_level()
        for n in range(2, top + 1):
            # boundary squared is zero: every row of d_(n-1) is an (n-1)-cocycle
            length = model.nondeg_count(n - 1)
            blocks = model._boundary_rows(n - 1)
            rows = (Gf2Vector(length, row) for _, block in blocks for row in block)
            if not all(model.is_cocycle(n - 1, row) for row in rows):
                return _verdict(False, f"{name}: boundary squared nonzero at {n}")
        cells = sum(
            (-1) ** n * model.nondeg_count(n) for n in range(model.level_cap + 1)
        )
        if cells != model.betti_table().euler_characteristic():
            return _verdict(False, f"{name}: euler characteristic mismatch")
    # cap stability on a representative pair
    if not cap3.betti_table().matches(cap4.betti_table().dims):
        return _verdict(False, "betti table changed with the cap")
    return _verdict(True, "identities, boundary-squared, euler counts, cap stability")


# (na, nb) of each pair of spheres, at cap na + nb + 1, whose product is checked
KUNNETH_PAIRS = ((1, 1), (1, 2), (2, 2))


@_reads(*[SpaceSpec("sphere", n=n, cap=na + nb + 1)
          for na, nb in KUNNETH_PAIRS for n in (na, nb)])
def check_props_kunneth(ctx, *spheres):
    for (na, nb), a, b in zip(KUNNETH_PAIRS, spheres[::2], spheres[1::2]):
        pt = product(a, b, max_level_size=ctx.max_level_size).betti_table()
        ta, tb = a.betti_table(), b.betti_table()
        for k in range(pt.max_degree + 1):
            want = sum(ta.dim(i) * tb.dim(k - i) for i in range(k + 1))
            if pt.dim(k) != want:
                return _verdict(
                    False, f"kunneth fails for spheres {na},{nb} at degree {k}"
                )
    return _verdict(True, "kunneth over the two-element field")


@_reads(*[SUITE[name] for name in CUP_IDENTITY_SUITE])
def check_props_cup_identity(ctx, *models):
    rng = np.random.default_rng(ctx.seed)
    for name, model in zip(CUP_IDENTITY_SUITE, models):
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
                return _verdict(False, f"{name}: identity fails at p={p} q={q} i={i}")
            checked += 1
    return _verdict(True, "coboundary identity on 100 seeded pairs per model")


CHECKS = {
    "betti-exp2-circle": ("two-point subsets of the circle", _betti("exp", 1, 2)),
    "betti-exp2-sphere2": ("two-point subsets of the 2-sphere", _betti("exp", 2, 2)),
    "betti-exp3-circle": ("three-point subsets of the circle", _betti("exp", 1, 3)),
    "betti-exp3-sphere2": ("three-point subsets of the 2-sphere", _betti("exp", 2, 3)),
    "betti-exp3-sphere3": ("three-point subsets of the 3-sphere", _betti("exp", 3, 3)),
    "betti-sym3-sphere2": ("triple symmetric power of the 2-sphere", _betti(
        "sym", 2, 3, oracle=("CP", 3), detail="table of complex projective 3-space",
    )),
    "euler-exp3-sphere2": ("euler characteristic cross-check", check_euler_exp3_sphere2),
    "models-agree": ("tables on the two sphere models", check_models_agree),
    "normalized-agree": ("normalized and stored models of the same spaces",
        check_normalized_agree),
    "pushout-circle": ("gluing square vs subsets, circle",
        _comparison("compare_pushout_with_subsets", *_pushout_reads(1))),
    "pushout-sphere2": ("gluing square vs subsets, 2-sphere",
        _comparison("compare_pushout_with_subsets", *_pushout_reads(2))),
    "sym2-bijection-circle": ("double power vs two-point subsets, circle",
        _comparison("compare_sym2_with_subsets", *_bijection_reads(1))),
    "sym2-bijection-sphere2": ("double power vs two-point subsets, 2-sphere",
        _comparison("compare_sym2_with_subsets", *_bijection_reads(2))),
    "sq-exp2-sphere2": ("square of the middle generator, 2-sphere",
        _squares_on("exp", 2, 2)),
    "sq-exp2-sphere3": ("squares of the middle generator, 3-sphere",
        _squares_on("exp", 3, 2)),
    "sq-sym3-sphere2": ("square on the triple symmetric power",
        _squares_on("sym", 2, 3)),
    "sq0-identity": ("degree-0 squares are the identity", check_sq0_identity),
    "sq1-projective-plane": ("degree-1 square on the projective plane",
        _reads(PROJECTIVE_PLANE)(_squares((1, 1)))),
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
    "lesolve-gluing": ("gluing-square sequence with computed inputs",
        _reads(*GLUING_SPACES.values())(_sequence(
            (1, 2), _gluing_square, "X^", "exp3",
            "gluing-square sequence with computed inputs reproduces the "
            "three-point tables for n=1,2",
        ))),
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
    """Run the selected checks (all by default) and assemble the report.

    Each row gets the models it declares (see ``_reads``).  A model stays
    in memory from its first reader to the last row in scope that declares
    it, so the run holds only the models some unfinished row still reads.
    """
    selected = sorted(CHECKS if scope is None else set(scope))
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    if jobs < 1:
        raise ContractViolation(f"jobs must be at least 1, not {jobs}")
    if max_level_size < 1:
        raise ContractViolation(
            f"max_level_size must be at least 1, not {max_level_size}"
        )
    cache = ModelCache(cache_dir=cache_dir)
    ctx = CheckContext(max_level_size=max_level_size, seed=seed)
    specs = {
        c: [
            replace(spec, max_level_size=max_level_size)
            for spec in getattr(CHECKS[c][1], "reads", ())
        ]
        for c in selected
    }
    reads = {c: {spec.to_json_text() for spec in specs[c]} for c in selected}
    readers = collections.Counter(key for keys in reads.values() for key in keys)
    countdown = threading.Lock()

    def run_one(check_id):
        description, fn = CHECKS[check_id]
        start = time.perf_counter()
        try:
            out = fn(ctx, *[cache.model_for(spec) for spec in specs[check_id]])
        except LevelSizeError as exc:
            out = {"status": "skipped", "detail": f"over budget: {exc}"}
        finally:
            with countdown:
                for key in reads[check_id]:
                    readers[key] -= 1
                    if not readers[key]:
                        cache.memory.pop(key, None)
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
