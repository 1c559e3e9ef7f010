"""Dimension bookkeeping for long exact sequences of mod-2 vector spaces.

A template is a finite sequence of terms, each with a known dimension or
left unknown, joined by arrows that may carry annotations (zero map,
injective, surjective, isomorphism, or a pinned rank).  Exactness says
each term's dimension is the sum of the ranks of its incoming and
outgoing arrows.  Each annotation pins one rank, and ranks joined by known
dimensions move together with one free integer, so the solver gives every
dimension and rank its exact bounds in closed form: forced values,
residual intervals, or an inconsistency certificate naming the violated
constraint.

Ranks, not matrices, are the primitives: the geometric facts that feed a
template (which restriction maps vanish, which are isomorphisms) are
recorded as annotations supplied by the caller, never derived here.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from math import inf

from .errors import ContractViolation
from .simplicial import BettiTable, canonical_json, malformed_fields, read_document

TEMPLATE_FORMAT = "exact-template/1"

ARROW_KINDS = ("unconstrained", "zero", "injective", "surjective", "isomorphism", "rank")


def _check_count(x, what: str):
    """``x`` is a nonnegative integer; numpy integers count, bools do not."""
    if not isinstance(x, numbers.Integral) or isinstance(x, bool):
        raise ContractViolation(f"{what} must be an integer, not {x!r}")
    if x < 0:
        raise ContractViolation(f"{what} must be nonnegative")


@dataclass(frozen=True)
class Term:
    name: str
    dim: int | None = None  # None marks an unknown

    def __post_init__(self):
        if self.dim is not None:
            _check_count(self.dim, f"the dimension of term {self.name!r}")


@dataclass(frozen=True)
class Arrow:
    kind: str = "unconstrained"
    rank: int | None = None

    def __post_init__(self):
        if self.kind not in ARROW_KINDS:
            raise ContractViolation(f"unknown arrow annotation {self.kind!r}")
        if (self.kind == "rank") != (self.rank is not None):
            raise ContractViolation("rank annotations carry exactly one rank")
        if self.rank is not None:
            _check_count(self.rank, "an arrow's rank")


@dataclass(frozen=True)
class ExactTemplate:
    terms: tuple
    arrows: tuple

    def __post_init__(self):
        if len(self.terms) < 2:
            raise ContractViolation("template needs at least the two boundary zeros")
        if len(self.arrows) != len(self.terms) - 1:
            raise ContractViolation("need exactly one arrow between consecutive terms")
        if self.terms[0].dim != 0 or self.terms[-1].dim != 0:
            raise ContractViolation("template must start and end with zero terms")

    def to_json_dict(self) -> dict:
        return {
            "format": TEMPLATE_FORMAT,
            "terms": [{"name": t.name, "dim": t.dim} for t in self.terms],
            "arrows": [
                {"kind": a.kind, **({"rank": a.rank} if a.rank is not None else {})}
                for a in self.arrows
            ],
        }

    def to_json_text(self) -> str:
        return canonical_json(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, d) -> "ExactTemplate":
        read_document(d, TEMPLATE_FORMAT, "terms", "arrows")
        with malformed_fields(TEMPLATE_FORMAT):
            terms = tuple(Term(t["name"], t.get("dim")) for t in d["terms"])
            arrows = tuple(
                Arrow(a.get("kind", "unconstrained"), a.get("rank"))
                for a in d["arrows"]
            )
            return cls(terms, arrows)


@dataclass(frozen=True)
class SolveResult:
    consistent: bool
    dims: tuple = ()  # per term: (lo, hi) with hi None when unbounded
    ranks: tuple = ()
    certificate: str | None = None

    def to_json_dict(self, template: ExactTemplate) -> dict:
        return {
            "consistent": self.consistent,
            "certificate": self.certificate,
            "dims": [
                {"name": t.name, "lo": lo, "hi": hi}
                for t, (lo, hi) in zip(template.terms, self.dims)
            ],
            "ranks": [{"lo": lo, "hi": hi} for lo, hi in self.ranks],
        }


# ---------------------------------------------------------------------------
# closed-form solve


def solve_template(t: ExactTemplate) -> SolveResult:
    """Exact bounds for every dimension and rank, or an inconsistency certificate.

    Let r_i be the rank of the arrow into ``terms[i]``, with virtual arrows
    into the first term and out of the last, so exactness at term i is
    dim_i = r_i + r_(i+1); the zero ends force both virtual ranks to 0.
    A zero or rank arrow pins its own rank, an injective arrow out of term
    i pins r_i to 0, a surjective arrow into term i pins r_(i+1) to 0, and
    an isomorphism does both.  Ranks joined by known dimensions
    form a run in which r_i = c_i + s_i x, s_i = +1 or -1, for one free
    integer x >= 0, so one interval for x bounds every rank of the run
    exactly.  An unknown dimension is the sum of two ranks from independent
    runs.  The certificate is the first constraint, in rank order, that
    leaves some run no x.
    """
    nt = len(t.terms)
    pins = [[] for _ in range(nt + 1)]
    for j, a in enumerate(t.arrows):
        arrow = f"arrow {t.terms[j].name} -> {t.terms[j + 1].name}"
        if a.kind in ("zero", "rank"):
            pins[j + 1].append((a.rank or 0, f"rank pin on {arrow}"))
        if a.kind in ("injective", "isomorphism"):
            pins[j].append((0, f"injectivity of {arrow}"))
        if a.kind in ("surjective", "isomorphism"):
            pins[j + 2].append((0, f"surjectivity of {arrow}"))

    ranks = []  # (lo, hi) of r_0 .. r_nt, hi inf when unbounded
    while len(ranks) <= nt:
        run = [(len(ranks), 0, 1)]  # (i, c_i, s_i); x is the first rank
        while run[-1][0] < nt and t.terms[run[-1][0]].dim is not None:
            i, c, s = run[-1]
            run.append((i + 1, t.terms[i].dim - c, -s))
        lo, hi = 0, inf
        for i, c, s in run:
            limits = [(s * (v - c), s * (v - c), why) for v, why in pins[i]]
            if i > run[0][0]:
                why = f"exactness at term {t.terms[i - 1].name!r}"
                limits.append((-c, inf, why) if s > 0 else (0, c, why))
            for new_lo, new_hi, why in limits:
                lo, hi = max(lo, new_lo), min(hi, new_hi)
                if lo > hi:
                    return SolveResult(False, certificate=why)
        ranks += [(c + lo, c + hi) if s > 0 else (c - hi, c - lo) for _, c, s in run]

    dims = [
        (d.dim, d.dim) if d.dim is not None
        else (ranks[i][0] + ranks[i + 1][0], ranks[i][1] + ranks[i + 1][1])
        for i, d in enumerate(t.terms)
    ]
    return SolveResult(True, _bounded(dims), _bounded(ranks[1:-1]))


def _bounded(intervals) -> tuple:
    return tuple((lo, None if hi == inf else hi) for lo, hi in intervals)


def extract_degree_dims(template: ExactTemplate, result: SolveResult, prefix: str):
    """Forced dimensions of terms named ``f"{prefix}{k}"``, as a BettiTable."""
    found = {}
    for term, (lo, hi) in zip(template.terms, result.dims):
        if term.name.startswith(prefix):
            k = int(term.name[len(prefix):])
            if lo != hi:
                raise ContractViolation(
                    f"term {term.name} not forced: bounds ({lo}, {hi})"
                )
            found[k] = lo
    top = max(found) if found else -1
    return BettiTable(tuple(found.get(k, 0) for k in range(top + 1)))


# ---------------------------------------------------------------------------
# template builders


def _ladder(blocks) -> ExactTemplate:
    """The template 0 -> a -> b -(given)-> c -> a' -> ... -> c'' -> 0.

    Each block is ``(a, b, given, c)``: three terms, joined by a plain
    arrow, the ``given`` arrow and, after c, a plain arrow into the next
    block (or the closing zero).
    """
    terms, arrows = [Term("0", 0)], [Arrow()]
    for a, b, given, c in blocks:
        terms += (a, b, c)
        arrows += (Arrow(), given, Arrow())
    terms.append(Term("0", 0))
    return ExactTemplate(tuple(terms), tuple(arrows))


def gysin_template(
    base: BettiTable, fiber_dim: int, euler_cup_ranks: dict
) -> ExactTemplate:
    """Long exact sequence of a sphere-bundle with the given Euler ranks.

    ``fiber_dim`` is the dimension d of the sphere fiber, so the Euler
    class lives in degree d + 1 and ``euler_cup_ranks[j]`` pins the rank
    of the cup map from base degree j to base degree j + d + 1; a degree
    missing from the dict has rank 0.  Total space dimensions appear as
    unknowns named ``E^k``.
    """
    d = fiber_dim
    if d < 1:
        raise ContractViolation("fiber dimension must be at least 1")
    top = base.max_degree

    def cup_rank(j: int) -> int:
        r = euler_cup_ranks.get(j, 0)
        if r > min(base.dim(j), base.dim(j + d + 1)):
            raise ContractViolation(
                f"euler cup rank {r} at degree {j} exceeds the base dimensions"
            )
        return r

    # Repeating block: E^k -> B^{k-d} -(cup e)-> B^{k+1} -> E^{k+1} -> ...
    # The k = -1 block is all zeros except its trailing B^0, which feeds
    # the first genuine unknown E^0 the way the sequence itself does.
    return _ladder(
        (
            Term(f"E^{k}", 0 if k < 0 else None),
            Term(f"B^{k - d}", base.dim(k - d)),
            Arrow("rank", cup_rank(k - d)),
            Term(f"B^{k + 1}", base.dim(k + 1)),
        )
        for k in range(-1, top + d + 2)
    )


def exp2_cover_template(n: int, overlap: BettiTable) -> ExactTemplate:
    """Covering of the two-point subset space by its distance pieces.

    The space of at most two points in the n-sphere is covered by a piece
    that retracts to real projective n-space (pairs far from the diagonal)
    and a piece that retracts to the sphere (pairs near it); the overlap
    is the sphere bundle whose dimensions are supplied.  The combined
    restriction map to the overlap has rank 1 in degrees 0..n and 0 above;
    this encodes the following externally supplied facts: the projective
    piece restricts isomorphically below degree n - 1 and injectively
    there, it restricts to zero in degree n, and the sphere piece
    restricts isomorphically in degree n.  Unknowns are named ``X^k``.
    """
    if n < 2:
        raise ContractViolation("the covering argument needs n >= 2")
    return _ladder(
        (
            Term(f"X^{k}", None),
            Term(f"U^{k}", (1 if k <= n else 0) + (1 if k in (0, n) else 0)),
            Arrow("rank", 1 if k <= n else 0),
            Term(f"I^{k}", overlap.dim(k)),
        )
        for k in range(0, 2 * n + 2)
    )


def exp3_cover_template(
    n: int, c3: BettiTable, exp2: BettiTable, total: BettiTable
) -> ExactTemplate:
    """Covering of the three-point subset space by its two natural pieces.

    One piece carries the cohomology of the space of three distinct
    points, the other that of the two-point subset space; the overlap has
    the supplied dimensions.  The combined restriction ranks encode the
    externally supplied facts: the distinct-triples piece restricts
    injectively in every degree, the two-point piece restricts
    isomorphically in degree n and to zero in degrees n+2..2n, and the
    combined map is onto in degree n.  Unknowns are named ``X^k``.
    """
    if n < 2:
        raise ContractViolation("the covering argument needs n >= 2")

    def rank(k):
        if k < n:
            return 1
        if k == n:
            return 2
        # the distinct-triples piece alone survives below 2n; the two-point
        # piece restricts to zero from 2n on
        return 1 if k < 2 * n else 0

    return _ladder(
        (
            Term(f"X^{k}", None),
            Term(f"U^{k}", c3.dim(k) + exp2.dim(k)),
            Arrow("rank", rank(k)),
            Term(f"I^{k}", total.dim(k)),
        )
        for k in range(0, 3 * n + 2)
    )


def exp3_gluing_template(
    n: int, exp2: BettiTable, sym3: BettiTable, product: BettiTable
) -> ExactTemplate:
    """Sequence of the gluing square for the three-point subset space.

    The square glues the triple symmetric power and the two-point subset
    space along the doubled-coordinate insertion of the product; its
    sequence compares the glued space with the pair.  Externally supplied
    inputs: the glued space is n-connected (degrees n and n+1 vanish),
    the restriction in degree 0 has rank 1, and the restriction in degree
    2n vanishes because squares act trivially on the product's middle
    cohomology.  Unknowns are named ``X^k``.
    """
    if n < 1:
        raise ContractViolation("needs n >= 1")

    def restriction(k):
        if k == 0:
            return Arrow("rank", 1)
        return Arrow("zero") if k == 2 * n else Arrow()

    return _ladder(
        (
            Term(f"X^{k}", 0 if k in (n, n + 1) else None),
            Term(f"U^{k}", exp2.dim(k) + sym3.dim(k)),
            restriction(k),
            Term(f"P^{k}", product.dim(k)),
        )
        for k in range(0, 3 * n + 2)
    )
