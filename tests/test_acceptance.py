"""Acceptance suite: every headline quantity at its stated budget.

Each criterion prints one line (visible under ``pytest -s`` and in the
captured output of a failing run) and asserts exact integer equality; the
budgets are wall-clock ceilings, not targets.
"""

import itertools
import time

import numpy as np
import pytest

from expk.catalog import expected_betti
from expk.cochains import (
    coboundary,
    cohomologous,
    cup_i,
    express_in_basis,
    random_cochain,
    steenrod_square,
)
from expk.complexes import moebius_band, projective_plane, torus
from expk.exact_sequences import (
    Arrow,
    ExactTemplate,
    Term,
    exp2_cover_template,
    extract_degree_dims,
    gysin_template,
    solve_template,
)
from expk.gf2 import Gf2Matrix
from expk.grassmannian import alpha2_multiplication_rank, graded_dims
from expk.simplicial import BettiTable
from expk.spaces import (
    compare_pushout_with_subsets,
    exp_subsets,
    product,
    sphere,
    sym_power,
)
from expk.verify import run_verify


class Budget:
    def __init__(self, number, label, seconds):
        self.number = number
        self.label = label
        self.seconds = seconds
        self.start = time.perf_counter()

    def done(self, ok=True):
        elapsed = time.perf_counter() - self.start
        verdict = "PASS" if ok else "FAIL"
        print(
            f"[ACCEPTANCE {self.number}] {self.label}: {verdict} "
            f"({elapsed:.2f}s of {self.seconds}s budget)"
        )
        assert ok
        assert elapsed <= self.seconds, f"over budget: {elapsed:.1f}s"


@pytest.fixture(scope="module")
def exp3_sphere2():
    return exp_subsets(sphere(2, 7), 3)


@pytest.fixture(scope="module")
def exp2_sphere2():
    return exp_subsets(sphere(2, 5), 2)


@pytest.fixture(scope="module")
def sym3_sphere2():
    model = sym_power(sphere(2, 7), 3)
    return model


def test_acceptance_1_exp3_circle():
    budget = Budget(1, "three-point subsets of the circle give the 3-sphere", 10)
    table = exp_subsets(sphere(1, 4), 3).betti_table()
    budget.done(table.dims == (1, 0, 0, 1))


def test_acceptance_2_exp2_circle_and_sphere(exp2_sphere2):
    budget = Budget(2, "two-point subset tables for the circle", 10)
    table1 = exp_subsets(sphere(1, 3), 2).betti_table()
    budget.done(table1.matches(expected_betti("exp2", 1).dims))
    budget = Budget(2, "two-point subset tables for the 2-sphere", 10)
    table2 = exp2_sphere2.betti_table()
    budget.done(table2.matches(expected_betti("exp2", 2).dims))


def test_acceptance_3_exp3_sphere2(exp3_sphere2):
    budget = Budget(3, "three-point subsets of the 2-sphere", 15 * 60)
    table = exp3_sphere2.betti_table()
    budget.done(table.dims == (1, 0, 0, 0, 2, 1, 1))


def test_acceptance_4_pushout_comparison():
    budget = Budget(4, "gluing square matches subset levels, n=1 and n=2", 5 * 60)
    ok1, d1 = compare_pushout_with_subsets(sphere(1, 4))
    ok2, d2 = compare_pushout_with_subsets(sphere(2, 7))
    budget.done(ok1 and ok2)


def test_acceptance_5_steenrod(exp2_sphere2):
    budget = Budget(5, "squares: middle generator, identity, projective plane", 10 * 60)
    g2 = exp2_sphere2.cohomology_basis(2)[0]
    h4 = exp2_sphere2.cohomology_basis(4)
    sq_ok = express_in_basis(
        exp2_sphere2, steenrod_square(exp2_sphere2, 2, g2), h4
    ).to_bits().tolist() == [1]

    suite = [
        sphere(1, 3),
        sphere(2, 4),
        torus(),
        projective_plane(),
        moebius_band(),
        exp_subsets(sphere(1, 3), 2),
        exp_subsets(sphere(1, 4), 3),
        exp2_sphere2,
        sym_power(sphere(1, 3), 2),
        sym_power(sphere(2, 5), 2),
    ]
    sq0_ok = True
    for model in suite:
        for d in range(model.top_nondegenerate_level() + 1):
            for c in model.cohomology_basis(d):
                sq0_ok &= cohomologous(model, steenrod_square(model, 0, c), c)

    rp2 = projective_plane()
    image = steenrod_square(rp2, 1, rp2.cohomology_basis(1)[0])
    sq1_ok = express_in_basis(rp2, image, rp2.cohomology_basis(2)).to_bits().tolist() == [1]
    budget.done(sq_ok and sq0_ok and sq1_ok)


def test_acceptance_6_sym3_and_euler(exp3_sphere2, exp2_sphere2, sym3_sphere2):
    budget = Budget(6, "triple symmetric power table and euler cross-check", 10 * 60)
    table = sym3_sphere2.betti_table()
    table_ok = table.dims == (1, 0, 1, 0, 1, 0, 1)
    s2 = sphere(2, 5)
    chi_exp3 = exp3_sphere2.betti_table().euler_characteristic()
    chi_sym3 = table.euler_characteristic()
    chi_exp2 = exp2_sphere2.betti_table().euler_characteristic()
    chi_square = product(s2, s2).betti_table().euler_characteristic()
    euler_ok = chi_exp3 == chi_sym3 + chi_exp2 - chi_square == 3
    budget.done(table_ok and euler_ok)


def test_acceptance_7_grassmannian():
    budget = Budget(7, "grassmannian dimensions and multiplication ranks", 10)
    stable_ok = graded_dims(8).dims[:7] == (1, 1, 2, 2, 3, 3, 4)
    n4_ok = graded_dims(4).dims == (1, 1, 2, 2, 2, 1, 1)
    ranks_ok = True
    for n in range(3, 9):
        dims = graded_dims(n)
        for k in range(2, 2 * n - 1):
            r = alpha2_multiplication_rank(n, k)
            if k <= n - 1:
                ranks_ok &= r == dims.dim(k - 2)
            elif k == n:
                ranks_ok &= r == dims.dim(k) == dims.dim(k - 2)
            else:
                ranks_ok &= r == dims.dim(k)
    budget.done(stable_ok and n4_ok and ranks_ok)


def test_acceptance_8_exact_sequence_solver():
    budget = Budget(8, "solver reproduces both derived tables, rejects junk", 10)
    gysin_ok = True
    cover_ok = True
    for n in range(2, 7):
        base = BettiTable((1,) * (n + 1))
        template = gysin_template(base, n - 1, {0: 1})
        got = extract_degree_dims(template, solve_template(template), "E^")
        gysin_ok &= got.matches(expected_betti("E0", n).dims)
        template = exp2_cover_template(n, expected_betti("E0", n).dims)
        got = extract_degree_dims(template, solve_template(template), "X^")
        cover_ok &= got.matches(expected_betti("exp2", n).dims)
    bad = ExactTemplate(
        (Term("0", 0), Term("A", 1), Term("B", 3), Term("C", 1), Term("0", 0)),
        (Arrow(), Arrow(), Arrow(), Arrow()),
    )
    res = solve_template(bad)
    reject_ok = not res.consistent and bool(res.certificate)
    budget.done(gysin_ok and cover_ok and reject_ok)


def test_acceptance_9_property_suites(exp2_sphere2):
    budget = Budget(9, "identity, boundary, euler, kunneth, gf2, cup-i suites", 10 * 60)
    models = [
        sphere(1, 3),
        sphere(2, 4),
        torus(),
        projective_plane(),
        moebius_band(),
        exp_subsets(sphere(1, 4), 3),
        exp2_sphere2,
        sym_power(sphere(1, 3), 2),
    ]
    ok = True
    for model in models:
        ok &= model.validate().ok
        top = model.top_nondegenerate_level()
        for n in range(2, top + 1):
            ok &= model.boundary_matrix(n - 1).matmul(model.boundary_matrix(n)).is_zero()
        cells = sum(
            (-1) ** n * model.nondeg_count(n) for n in range(model.level_cap + 1)
        )
        ok &= cells == model.betti_table().euler_characteristic()

    for na, nb in ((1, 1), (1, 2), (2, 2)):
        cap = na + nb + 1
        a, b = sphere(na, cap), sphere(nb, cap)
        pt = product(a, b).betti_table()
        ta, tb = a.betti_table(), b.betti_table()
        for k in range(pt.max_degree + 1):
            ok &= pt.dim(k) == sum(ta.dim(i) * tb.dim(k - i) for i in range(k + 1))

    rng = np.random.default_rng(0)
    for _ in range(15):
        r = int(rng.integers(1, 7))
        c = int(rng.integers(1, 13))
        dense = rng.integers(0, 2, size=(r, c), dtype=np.uint8)
        m = Gf2Matrix.from_rows(dense)
        image = {
            tuple((dense @ np.array(x, dtype=np.uint8)) % 2)
            for x in itertools.product((0, 1), repeat=c)
        }
        ok &= m.rank() == len(image).bit_length() - 1
        kernel_size = sum(
            1
            for x in itertools.product((0, 1), repeat=c)
            if not ((dense @ np.array(x, dtype=np.uint8)) % 2).any()
        )
        ok &= 2 ** len(m.kernel_basis()) == kernel_size

    for model in (torus(), projective_plane(), exp2_sphere2):
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
            ok &= lhs == rhs
            checked += 1
    budget.done(bool(ok))


def test_full_default_suite_reports_sphere3_as_skipped():
    report = run_verify()
    assert report.passed
    by_id = {r.check_id: r for r in report.results}
    assert by_id["betti-exp3-sphere3"].status == "skipped"
    assert "over budget" in by_id["betti-exp3-sphere3"].detail
    failing = [r.check_id for r in report.results if r.status == "fail"]
    assert failing == []
