"""Machine-readable catalog of the expected mod-2 cohomology tables.

Each entry renders a closed-form description as explicit dimensions so
verification runs can compare computed tables against a fixed oracle.
Degree 0 is always reported as 1 for these nonempty connected spaces
(tables are unreduced).

Kinds
-----
exp2          space of at most two points in the n-sphere: nonzero in
              degrees 0, n, and n+2..2n (for n = 1 the tail n+2..2n is
              empty, leaving degrees 0 and 1 only; see ``note``).
exp3          space of at most three points in the n-sphere: one
              dimension in degrees 0 and 2n+1..3n, two in n+2..2n.
E0            sphere bundle of the complement of the tautological line
              bundle over real projective n-space: one dimension in
              degrees 0..2n-1.
E             total space over the 2-plane Grassmannian whose fiber is
              the boundary of a ball times the triple configuration
              space of the circle: one dimension in 0..n-1 and 2n..3n-1,
              two in n..2n-1.
C3            space of three distinct unordered points in the n-sphere:
              one dimension in degrees 0..2n-1.  Documentation only; no
              finite model computes it here, it is cross-checked through
              the sphere-bundle sequence.
grassmannian  2-planes in (n+1)-space: stable pattern 1,1,2,2,3,3,...
              truncated symmetrically about degree n-1.
CP            complex projective n-space, which is the n-fold symmetric
              product of the 2-sphere: one dimension in each even degree
              0..2n.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ContractViolation

KINDS = ("exp2", "exp3", "E0", "E", "C3", "grassmannian", "CP")


@dataclass(frozen=True)
class ExpectedTable:
    kind: str
    n: int
    dims: tuple
    source: str
    note: str = ""
    documentation_only: bool = False

    def to_json_dict(self) -> dict:
        d = {
            "kind": self.kind,
            "n": self.n,
            "dims": list(self.dims),
            "source": self.source,
        }
        if self.note:
            d["note"] = self.note
        if self.documentation_only:
            d["documentation_only"] = True
        return d


def expected_betti(kind: str, n: int) -> ExpectedTable:
    """The catalog table for one space kind at one sphere dimension."""
    if kind not in KINDS:
        raise ContractViolation(f"unknown table kind {kind!r}")
    min_n = 2 if kind == "grassmannian" else 1
    if n < min_n:
        raise ContractViolation(f"{kind} tables need n >= {min_n}")

    if kind == "exp2":
        dims = [0] * (2 * n + 1)
        dims[0] = 1
        dims[n] = 1
        for k in range(n + 2, 2 * n + 1):
            dims[k] = 1
        note = ""
        if n == 1:
            dims = dims[: n + 1]
            note = (
                "for n = 1 the listed degrees n+2..2n are empty, so only "
                "degrees 0 and 1 carry cohomology"
            )
        return ExpectedTable(
            "exp2",
            n,
            tuple(dims),
            "catalog:exp2-table",
            note=note,
        )

    if kind == "exp3":
        dims = [0] * (3 * n + 1)
        dims[0] = 1
        for k in range(n + 2, 2 * n + 1):
            dims[k] = 2
        for k in range(2 * n + 1, 3 * n + 1):
            dims[k] = 1
        return ExpectedTable("exp3", n, tuple(dims), "catalog:exp3-table")

    if kind == "E0":
        return ExpectedTable(
            "E0", n, (1,) * (2 * n), "catalog:line-complement-sphere-bundle"
        )

    if kind == "E":
        dims = [0] * (3 * n)
        for k in range(0, n):
            dims[k] = 1
        for k in range(n, 2 * n):
            dims[k] = 2
        for k in range(2 * n, 3 * n):
            dims[k] = 1
        return ExpectedTable("E", n, tuple(dims), "catalog:grassmannian-bundle-total-space")

    if kind == "C3":
        return ExpectedTable(
            "C3",
            n,
            (1,) * (2 * n),
            "catalog:distinct-triples",
            note="no finite model computes this space; cross-checked via "
            "the circle-bundle sequence over the Grassmannian",
            documentation_only=True,
        )

    if kind == "CP":
        dims = tuple(int(d % 2 == 0) for d in range(2 * n + 1))
        return ExpectedTable("CP", n, dims, "catalog:complex-projective-space")

    # grassmannian: stable dims floor(i/2)+1, symmetric about n-1
    top = 2 * n - 2
    dims = tuple(min(i, top - i) // 2 + 1 for i in range(top + 1))
    return ExpectedTable("grassmannian", n, dims, "catalog:two-plane-grassmannian")
