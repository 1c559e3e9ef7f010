"""Acceptance suite: every headline quantity at its stated budget.

Each criterion names the ``verify`` rows that establish it, read from one
default run of the registry; nothing here computes a claim a second time.
A criterion passes when its rows pass, each Betti row's table is the
literal one below and the rows' summed wall time is within its budget.
It prints one line (visible under ``pytest -s`` and in the captured
output of a failing run); the budgets are wall-clock ceilings, not
targets.
"""

import hashlib

import pytest

from expk.simplicial import canonical_json
from expk.verify import run_verify

# number -> (label, budget in seconds, {row id: its literal table, or None})
CRITERIA = {
    1: ("three-point subsets of the circle give the 3-sphere", 10, {
        "betti-exp3-circle": [1, 0, 0, 1],
    }),
    2: ("two-point subset tables for the circle and the 2-sphere", 10, {
        "betti-exp2-circle": [1, 1, 0],
        "betti-exp2-sphere2": [1, 0, 1, 0, 1],
    }),
    3: ("three-point subsets of the 2-sphere", 15 * 60, {
        "betti-exp3-sphere2": [1, 0, 0, 0, 2, 1, 1],
    }),
    4: ("gluing square matches subset levels, n=1 and n=2", 5 * 60, {
        "pushout-circle": None,
        "pushout-sphere2": None,
    }),
    5: ("squares: middle generator, identity, projective plane", 10 * 60, {
        "sq-exp2-sphere2": None,
        "sq0-identity": None,
        "sq1-projective-plane": None,
    }),
    6: ("triple symmetric power table and euler cross-check", 10 * 60, {
        "betti-sym3-sphere2": [1, 0, 1, 0, 1, 0, 1],
        "euler-exp3-sphere2": None,
    }),
    7: ("grassmannian dimensions and multiplication ranks", 10, {
        "grassmannian-dims": None,
        "grassmannian-alpha2": None,
    }),
    8: ("solver reproduces both derived tables", 10, {
        "lesolve-gysin-e0": None,
        "lesolve-exp2-cover": None,
    }),
    9: ("identity, boundary, euler, kunneth, gf2, cup-i suites", 10 * 60, {
        "props-simplicial": None,
        "props-kunneth": None,
        "props-gf2": None,
        "props-cup-identity": None,
    }),
}


# sha256 of the default report's canonical JSON without its toolchain and
# the rows' wall times: every row's status, detail, tables and spec, the
# model hashes and the warnings.  A change that moves any of them must
# update this on purpose.
PINNED_REPORT_SHA256 = "00a180f1d8e2f270d12a899e420bf52e6d8a7a0284a0cd91cf6d41629291dec2"


@pytest.fixture(scope="module")
def report():
    return run_verify()


@pytest.fixture(scope="module")
def rows(report):
    return {r.check_id: r for r in report.results}


def accept(rows, number):
    label, budget, tables = CRITERIA[number]
    failing = [i for i in tables if rows[i].status != "pass"]
    elapsed = sum(rows[i].wall_time_s for i in tables)
    print(
        f"[ACCEPTANCE {number}] {label}: {'FAIL' if failing else 'PASS'} "
        f"({elapsed:.2f}s of {budget}s budget)"
    )
    assert failing == []
    for i, table in tables.items():
        if table is not None:
            assert rows[i].computed == table, i
    assert elapsed <= budget, f"over budget: {elapsed:.1f}s"


def test_acceptance_1_exp3_circle(rows):
    accept(rows, 1)


def test_acceptance_2_exp2_circle_and_sphere(rows):
    accept(rows, 2)


def test_acceptance_3_exp3_sphere2(rows):
    accept(rows, 3)


def test_acceptance_4_pushout_comparison(rows):
    accept(rows, 4)


def test_acceptance_5_steenrod(rows):
    accept(rows, 5)


def test_acceptance_6_sym3_and_euler(rows):
    accept(rows, 6)


def test_acceptance_7_grassmannian(rows):
    accept(rows, 7)


def test_acceptance_8_exact_sequence_solver(rows):
    accept(rows, 8)


def test_acceptance_9_property_suites(rows):
    accept(rows, 9)


def test_full_default_suite_computes_sphere3_table(rows):
    assert [i for i, r in rows.items() if r.status != "pass"] == []
    assert rows["betti-exp3-sphere3"].computed == [1, 0, 0, 0, 0, 2, 2, 1, 1, 1]


def test_default_report_is_pinned(report):
    d = report.to_json_dict()
    del d["toolchain"]
    for check in d["checks"]:
        del check["wall_time_s"]
    text = canonical_json(d)
    assert hashlib.sha256(text.encode()).hexdigest() == PINNED_REPORT_SHA256
