"""Batch verification: every quantitative claim as a named, budgeted check.

``run_verify`` executes a selection of checks, each of which builds (or
loads from cache) the models it needs, compares computed values against
the catalog, and reports pass / fail / skipped together with the numbers
involved.  A check that would blow the per-level simplex budget reports
``skipped`` with the offending level rather than failing the run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import catalog, complexes, grassmannian
from .cochains import (
    cohomologous,
    coboundary,
    cup,
    cup_i,
    express_in_basis,
    random_cochain,
    ring_table,
    steenrod_square,
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
from .gf2 import Gf2Matrix
from .simplicial import BettiTable, SimplicialSetModel, canonical_json
from .spaces import (
    DEFAULT_MAX_LEVEL_SIZE,
    SpaceSpec,
    build_space,
    compare_pushout_with_subsets,
    compare_sym2_with_subsets,
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
        return {
            "check_id": self.check_id,
            "description": self.description,
            "status": self.status,
            "detail": self.detail,
            "computed": self.computed,
            "expected": self.expected,
            "source": self.source,
            "spec": self.spec,
            "wall_time_s": round(self.wall_time_s, 3),
        }


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


# entries get the mode a plain open() would give them; mkstemp makes 0600
_UMASK = os.umask(0)
os.umask(_UMASK)


class ModelCache:
    """Builds models on demand; optionally persists them with hashes."""

    def __init__(self, cache_dir=None, max_level_size=DEFAULT_MAX_LEVEL_SIZE):
        self.cache_dir = cache_dir
        self.max_level_size = max_level_size
        self.memory = {}
        self.hashes = {}
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
            self.hashes[model.description or key] = model_hash
            return model

    def _store(self, path, key, model, model_hash):
        """Write an entry atomically: a crash leaves the old file or none.

        An entry is one canonical-JSON header line (``spec``, ``hash`` and the
        model's ``header()``), then the model's word stream.
        """
        header = {"spec": json.loads(key), "hash": model_hash, **model.header()}
        fd, tmp = tempfile.mkstemp(dir=self.cache_dir, prefix=".model-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(canonical_json(header).encode() + b"\n")
                for table in model.words():
                    fh.write(table)
            os.chmod(tmp, 0o666 & ~_UMASK)
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

    def space(self, kind, n=None, k=None, cap=None, facets=None):
        return self.cache.model_for(
            SpaceSpec(
                kind,
                n=n,
                k=k,
                cap=cap,
                facets=facets,
                max_level_size=self.max_level_size,
            )
        )


def _table_check(computed: BettiTable, expected) -> dict:
    ok = computed.matches(expected.dims if hasattr(expected, "dims") else expected)
    return {
        "status": "pass" if ok else "fail",
        "computed": list(computed.dims),
        "expected": list(expected.dims) if hasattr(expected, "dims") else list(expected),
        "source": getattr(expected, "source", ""),
    }


# ---------------------------------------------------------------------------
# individual checks


def check_exp_betti(k, n):
    def run(ctx):
        model = ctx.space("exp", n=n, k=k)
        exp = catalog.expected_betti(f"exp{k}", n)
        out = _table_check(model.betti_table(), exp)
        out["spec"] = SpaceSpec("exp", n=n, k=k).to_json_dict()
        return out

    return run


def check_sym3_sphere2(ctx):
    model = ctx.space("sym", n=2, k=3)
    expected = BettiTable((1, 0, 1, 0, 1, 0, 1))
    out = _table_check(model.betti_table(), expected)
    out["source"] = "derived:triple-symmetric-power-of-2-sphere"
    out["detail"] = "table of complex projective 3-space"
    return out


def check_euler_exp3_sphere2(ctx):
    chi = {}
    for name, kind, k in (
        ("exp3", "exp", 3),
        ("sym3", "sym", 3),
        ("exp2", "exp", 2),
    ):
        chi[name] = ctx.space(kind, n=2, k=k).betti_table().euler_characteristic()
    s2 = ctx.space("sphere", n=2, cap=7)
    chi["square"] = product(s2, s2).betti_table().euler_characteristic()
    lhs = chi["exp3"]
    rhs = chi["sym3"] + chi["exp2"] - chi["square"]
    ok = lhs == rhs == 3
    return {
        "status": "pass" if ok else "fail",
        "computed": {"lhs": lhs, "rhs": rhs, **chi},
        "expected": 3,
        "detail": "inclusion-exclusion over the gluing square",
    }


def check_pushout(n):
    def run(ctx):
        cap = 3 * n + 1
        ok, detail = compare_pushout_with_subsets(
            sphere(n, cap), max_level_size=ctx.max_level_size
        )
        return {"status": "pass" if ok else "fail", "detail": detail}

    return run


def check_sym2_bijection(n):
    def run(ctx):
        cap = 2 * n + 1
        ok, detail = compare_sym2_with_subsets(
            sphere(n, cap), max_level_size=ctx.max_level_size
        )
        return {"status": "pass" if ok else "fail", "detail": detail}

    return run


def _square_hits_generator(model, deg_from, index, deg_to):
    basis_from = model.cohomology_basis(deg_from)
    basis_to = model.cohomology_basis(deg_to)
    if len(basis_from) != 1 or len(basis_to) != 1:
        return False, "expected rank-one groups at both ends"
    image = steenrod_square(model, index, basis_from[0])
    coords = express_in_basis(model, image, basis_to)
    return coords.to_bits().tolist() == [1], f"coordinates {coords.to_bits().tolist()}"


def check_sq_exp2_sphere2(ctx):
    model = ctx.space("exp", n=2, k=2)
    ok, detail = _square_hits_generator(model, 2, 2, 4)
    return {
        "status": "pass" if ok else "fail",
        "detail": f"degree-2 square of the degree-2 generator: {detail}",
        "computed": detail,
        "expected": "coordinates [1]",
    }


def check_sq_exp2_sphere3(ctx):
    model = ctx.space("exp", n=3, k=2)
    ok2, d2 = _square_hits_generator(model, 3, 2, 5)
    ok3, d3 = _square_hits_generator(model, 3, 3, 6)
    return {
        "status": "pass" if ok2 and ok3 else "fail",
        "detail": f"Sq2: {d2}; Sq3: {d3}",
    }


def check_sq_sym3_sphere2(ctx):
    model = ctx.space("sym", n=2, k=3)
    ok, detail = _square_hits_generator(model, 2, 2, 4)
    return {
        "status": "pass" if ok else "fail",
        "detail": f"recorded outcome for the triple symmetric power: {detail}",
    }


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
        top = model.top_nondegenerate_level()
        for d in range(0, top + 1):
            for c in model.cohomology_basis(d):
                if not cohomologous(model, steenrod_square(model, 0, c), c):
                    bad.append((model.description, d))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "degree-0 square is the identity on every basis class"
        if not bad
        else f"failures: {bad}",
    }


def check_sq1_projective_plane(ctx):
    rp2 = complexes.projective_plane()
    ok, detail = _square_hits_generator(rp2, 1, 1, 2)
    return {
        "status": "pass" if ok else "fail",
        "detail": f"degree-1 square on the projective plane: {detail}",
    }


def check_cup_torus(ctx):
    t2 = complexes.torus()
    a, b = t2.cohomology_basis(1)
    h2 = t2.cohomology_basis(2)
    ab = express_in_basis(t2, cup(t2, a, b), h2).to_bits().tolist()
    aa = express_in_basis(t2, cup(t2, a, a), h2).to_bits().tolist()
    bb = express_in_basis(t2, cup(t2, b, b), h2).to_bits().tolist()
    unit_ok = cohomologous(t2, cup(t2, unit_class(t2), a), a)
    table = ring_table(t2)
    ok = ab == [1] and aa == [0] and bb == [0] and unit_ok
    return {
        "status": "pass" if ok else "fail",
        "detail": f"[a.b]={ab} [a.a]={aa} [b.b]={bb} unit={unit_ok}",
        "computed": table.to_json_dict(),
    }


def check_grassmannian_dims(ctx):
    stable = grassmannian.graded_dims(8).dims[:7]
    n4 = grassmannian.graded_dims(4).dims
    totals = all(
        grassmannian.total_dimension(n) == grassmannian.schubert_cell_count(n)
        for n in range(2, 9)
    )
    expected = catalog.expected_betti("grassmannian", 4)
    ok = (
        list(stable) == [1, 1, 2, 2, 3, 3, 4]
        and list(n4) == [1, 1, 2, 2, 2, 1, 1]
        and totals
        and BettiTable(n4).matches(expected.dims)
    )
    return {
        "status": "pass" if ok else "fail",
        "computed": {"stable": list(stable), "n4": list(n4)},
        "expected": {"stable": [1, 1, 2, 2, 3, 3, 4], "n4": [1, 1, 2, 2, 2, 1, 1]},
        "source": expected.source,
    }


def check_grassmannian_alpha2(ctx):
    bad = []
    for n in range(3, 9):
        gd = grassmannian.graded_dims(n)
        for k in range(2, 2 * n - 1):
            r = grassmannian.alpha2_multiplication_rank(n, k)
            if k <= n - 1:
                want = gd.dim(k - 2)  # injective
            elif k == n:
                want = gd.dim(k)  # isomorphism
            else:
                want = gd.dim(k)  # surjective
            if r != want:
                bad.append((n, k, r, want))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "injective below the middle, isomorphism at it, onto after"
        if not bad
        else f"failures: {bad}",
    }


def check_gysin_e0(ctx):
    bad = []
    for n in range(2, 7):
        base = BettiTable((1,) * (n + 1))
        template = gysin_template(base, n - 1, {0: 1})
        got = extract_degree_dims(template, solve_template(template), "E^")
        if not got.matches(catalog.expected_betti("E0", n).dims):
            bad.append((n, got.dims))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "sphere-bundle sequence forces one dimension in 0..2n-1"
        if not bad
        else f"failures: {bad}",
        "source": "catalog:line-complement-sphere-bundle",
    }


def check_exp2_cover(ctx):
    bad = []
    for n in range(2, 7):
        template = exp2_cover_template(n, catalog.expected_betti("E0", n).dims)
        got = extract_degree_dims(template, solve_template(template), "X^")
        if not got.matches(catalog.expected_betti("exp2", n).dims):
            bad.append((n, got.dims))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "covering sequence reproduces the two-point tables for n=2..6"
        if not bad
        else f"failures: {bad}",
    }


def check_exp3_cover(ctx):
    bad = []
    for n in range(2, 7):
        template = exp3_cover_template(
            n,
            catalog.expected_betti("C3", n).dims,
            catalog.expected_betti("exp2", n).dims,
            catalog.expected_betti("E", n).dims,
        )
        got = extract_degree_dims(template, solve_template(template), "X^")
        if not got.matches(catalog.expected_betti("exp3", n).dims):
            bad.append((n, got.dims))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "covering sequence reproduces the three-point tables for n=2..6"
        if not bad
        else f"failures: {bad}",
    }


def check_c3_crosscheck(ctx):
    bad = []
    for n in range(3, 9):
        gd = grassmannian.graded_dims(n)
        ranks = {
            j: grassmannian.alpha2_multiplication_rank(n, j + 2)
            for j in range(0, 2 * n - 3)
        }
        template = gysin_template(gd, 1, ranks)
        got = extract_degree_dims(template, solve_template(template), "E^")
        if not got.matches(catalog.expected_betti("C3", n).dims):
            bad.append((n, got.dims))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "circle-bundle sequence over the Grassmannian matches the "
        "documentation-only distinct-triples table"
        if not bad
        else f"failures: {bad}",
        "source": "catalog:distinct-triples",
    }


def check_gluing_sequence(ctx):
    bad = []
    for n in (1, 2):
        exp2_t = ctx.space("exp", n=n, k=2).betti_table()
        sym3_t = ctx.space("sym", n=n, k=3).betti_table()
        s = sphere(n, 2 * n + 1)
        prod_t = product(s, s).betti_table()
        template = exp3_gluing_template(n, exp2_t, sym3_t, prod_t)
        got = extract_degree_dims(template, solve_template(template), "X^")
        if not got.matches(catalog.expected_betti("exp3", n).dims):
            bad.append((n, got.dims))
    return {
        "status": "pass" if not bad else "fail",
        "detail": "gluing-square sequence with computed inputs reproduces the "
        "three-point tables for n=1,2"
        if not bad
        else f"failures: {bad}",
    }


def check_props_gf2(ctx):
    import itertools

    rng = np.random.default_rng(ctx.seed + 1)
    for _ in range(20):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 13))
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        m = Gf2Matrix.from_rows(dense)
        seen = set()
        for x in itertools.product((0, 1), repeat=c):
            seen.add(tuple((dense @ np.array(x, dtype=np.uint8)) % 2))
        if m.rank() != len(seen).bit_length() - 1:
            return {"status": "fail", "detail": "rank disagrees with enumeration"}
        kernel_count = sum(
            1
            for x in itertools.product((0, 1), repeat=c)
            if not ((dense @ np.array(x, dtype=np.uint8)) % 2).any()
        )
        if 2 ** len(m.kernel_basis()) != kernel_count:
            return {"status": "fail", "detail": "kernel disagrees with enumeration"}
    return {
        "status": "pass",
        "detail": "rank and kernel match exhaustive enumeration up to 12 columns",
    }


def check_props_simplicial(ctx):
    for model in _suite_models(ctx):
        rep = model.validate()
        if not rep.ok:
            return {"status": "fail", "detail": f"{model.description}: {rep}"}
        top = model.top_nondegenerate_level()
        for n in range(2, top + 1):
            if not model.boundary_matrix(n - 1).matmul(model.boundary_matrix(n)).is_zero():
                return {
                    "status": "fail",
                    "detail": f"{model.description}: boundary squared nonzero at {n}",
                }
        cells = sum(
            (-1) ** n * model.nondeg_count(n) for n in range(model.level_cap + 1)
        )
        if cells != model.betti_table().euler_characteristic():
            return {
                "status": "fail",
                "detail": f"{model.description}: euler characteristic mismatch",
            }
    # cap stability on a representative pair
    a = ctx.space("exp", n=1, k=2, cap=3).betti_table()
    b = ctx.space("exp", n=1, k=2, cap=4).betti_table()
    if not a.matches(b):
        return {"status": "fail", "detail": "betti table changed with the cap"}
    return {
        "status": "pass",
        "detail": "identities, boundary-squared, euler counts, cap stability",
    }


def check_props_kunneth(ctx):
    pairs = [(1, 1), (1, 2), (2, 2)]
    for na, nb in pairs:
        cap = na + nb + 1
        a, b = sphere(na, cap), sphere(nb, cap)
        pt = product(a, b).betti_table()
        ta, tb = a.betti_table(), b.betti_table()
        for k in range(pt.max_degree + 1):
            want = sum(ta.dim(i) * tb.dim(k - i) for i in range(k + 1))
            if pt.dim(k) != want:
                return {
                    "status": "fail",
                    "detail": f"kunneth fails for spheres {na},{nb} at degree {k}",
                }
    return {"status": "pass", "detail": "kunneth over the two-element field"}


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
                return {
                    "status": "fail",
                    "detail": f"{model.description}: identity fails at p={p} q={q} i={i}",
                }
            checked += 1
    return {
        "status": "pass",
        "detail": "coboundary identity on 100 seeded pairs per model",
    }


CHECKS = {
    "betti-exp2-circle": ("two-point subsets of the circle", check_exp_betti(2, 1)),
    "betti-exp2-sphere2": ("two-point subsets of the 2-sphere", check_exp_betti(2, 2)),
    "betti-exp3-circle": ("three-point subsets of the circle", check_exp_betti(3, 1)),
    "betti-exp3-sphere2": ("three-point subsets of the 2-sphere", check_exp_betti(3, 2)),
    "betti-exp3-sphere3": ("three-point subsets of the 3-sphere", check_exp_betti(3, 3)),
    "betti-sym3-sphere2": ("triple symmetric power of the 2-sphere", check_sym3_sphere2),
    "euler-exp3-sphere2": ("euler characteristic cross-check", check_euler_exp3_sphere2),
    "pushout-circle": ("gluing square vs subsets, circle", check_pushout(1)),
    "pushout-sphere2": ("gluing square vs subsets, 2-sphere", check_pushout(2)),
    "sym2-bijection-circle": ("double power vs two-point subsets, circle", check_sym2_bijection(1)),
    "sym2-bijection-sphere2": ("double power vs two-point subsets, 2-sphere", check_sym2_bijection(2)),
    "sq-exp2-sphere2": ("square of the middle generator, 2-sphere", check_sq_exp2_sphere2),
    "sq-exp2-sphere3": ("squares of the middle generator, 3-sphere", check_sq_exp2_sphere3),
    "sq-sym3-sphere2": ("square on the triple symmetric power", check_sq_sym3_sphere2),
    "sq0-identity": ("degree-0 squares are the identity", check_sq0_identity),
    "sq1-projective-plane": ("degree-1 square on the projective plane", check_sq1_projective_plane),
    "cup-torus": ("cup products on the torus", check_cup_torus),
    "grassmannian-dims": ("graded dimensions of the Grassmannian ring", check_grassmannian_dims),
    "grassmannian-alpha2": ("multiplication by the degree-2 class", check_grassmannian_alpha2),
    "lesolve-gysin-e0": ("sphere-bundle sequence over projective space", check_gysin_e0),
    "lesolve-exp2-cover": ("covering sequence for two-point subsets", check_exp2_cover),
    "lesolve-exp3-cover": ("covering sequence for three-point subsets", check_exp3_cover),
    "lesolve-c3-crosscheck": ("circle bundle over the Grassmannian", check_c3_crosscheck),
    "lesolve-gluing": ("gluing-square sequence with computed inputs", check_gluing_sequence),
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
    selected = sorted(CHECKS) if scope is None else sorted(scope)
    unknown = [s for s in selected if s not in CHECKS]
    if unknown:
        raise KeyError(f"unknown checks: {unknown}")
    cache = ModelCache(cache_dir=cache_dir, max_level_size=max_level_size)
    ctx = CheckContext(cache=cache, max_level_size=max_level_size, seed=seed)

    def run_one(check_id):
        description, fn = CHECKS[check_id]
        start = time.perf_counter()
        try:
            out = fn(ctx)
        except LevelSizeError as exc:
            out = {"status": "skipped", "detail": f"over budget: {exc}"}
        elapsed = time.perf_counter() - start
        result = CheckResult(
            check_id=check_id,
            description=description,
            status=out.get("status", "fail"),
            detail=out.get("detail", ""),
            computed=out.get("computed"),
            expected=out.get("expected"),
            source=out.get("source", ""),
            spec=out.get("spec"),
            wall_time_s=elapsed,
        )
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
