"""The fixed quotient ring used by the three-variable bracket.

Requiring a second Reidemeister move to be invisible to the state sum forces
two relations on the weights a (vertical smoothing), b (horizontal smoothing),
and d (disjoint circle):

    rel1 = (ab - 1) d^2 + (a^2 + b^2 + abd) d = a^2 d + 2abd^2 - d^2 + b^2 d
    rel2 = (ab - 1) d   + (a^2 + b^2 + abd) d^2

Everything here lives modulo the ideal I generated by those two polynomials.
The module carries a Groebner basis for I under lex a > b > d, the lift of
a raw sum to ``ambient3`` (:func:`lift`), the normal form of a raw sum,
which is its lift at writhe 0 plus one of two fixed residues picked by the
sum's exponents mod 4 (:func:`normal_form`), the 34
solution branches of the variety rel1 = rel2 = 0 (stored as their
catalogued text, one label appearing twice, and read exactly by
:func:`parse_exact`, a map over the package's one value reader,
:func:`.multipoly.read_terms`), their exact verification and
component labels, and the specialization b -> 1/a, d -> -a^-2 - a^2 that
recovers the classical one-variable bracket.

The Groebner basis is not taken on trust: :func:`verify_groebner` recomputes
a basis from the generators with Buchberger's algorithm and certifies both
inclusions with explicit zero remainders, each against the basis it
certifies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from .classical import LaurentPolynomial, bracket_from_raw
from .multipoly import (
    Polynomial,
    buchberger_run,
    format_poly,
    mono_divides,
    parse_poly,
    read_terms,
    reduce_basis,
    remainder,
    s_poly,
)

#: Generators of the move-two ideal I, exactly as in their expanded form.
IDEAL_GENERATORS: tuple[Polynomial, Polynomial] = (
    parse_poly("+a^2*d +2*a*b*d^2 +b^2*d -d^2"),
    parse_poly("+a^2*d^2 +a*b*d^3 +a*b*d +b^2*d^2 -d"),
)

#: Groebner basis of I under lex a > b > d, g1, g2, g3 in the order stored;
#: each is d times a generator of J (I = d*J).  ``remainder`` by it reduces
#: any polynomial, and the certificates rest on it.
GROEBNER_BASIS: tuple[Polynomial, Polynomial, Polynomial] = (
    parse_poly("+b^4*d^3 -b^4*d +b^2*d^4 -b^2*d^2 +d^3 -d"),
    parse_poly("+a*d^3 -a*d +b^3*d^3 -b^3*d +b*d^4 -b*d^2"),
    parse_poly("+a^2*d +2*a*b*d^2 +b^2*d -d^2"),
)


#: The residue of :func:`normal_form` by class: 0, d*g, 0 and d^2*g, with
#: g = a + b^3 + b*d, the cofactor of d^3 - d in g2.
_RESIDUES = (
    Polynomial.zero(),
    parse_poly("+a*d +b^3*d +b*d^2"),
    Polynomial.zero(),
    parse_poly("+a*d^2 +b^3*d^2 +b*d^3"),
)


def normal_form(p: Polynomial) -> Polynomial:
    """Canonical representative of p + I, for p the raw sum of a closed planar
    diagram (a curl-padded sum, or one times a power of d, is again one).

    Every monomial a^i*b^j*d^k of such a sum has one class
    c = (i - j + 2k - 2) mod 4, and the result is ``lift(p, 0)`` plus the
    class's residue (README, "What the invariant is").  It equals
    ``remainder(p, list(GROEBNER_BASIS))``; reduce any other polynomial with
    that.
    """
    if not p:
        return p
    i, j, k = next(iter(p.terms))
    return lift(p, 0) + _RESIDUES[(i - j + 2 * k - 2) % 4]


def lift(raw: Polynomial, w: int) -> Polynomial:
    """``ambient3`` of a writhe-w diagram from its raw sum: d*sum_j b^j*P_j(d),
    j <= 3, the normal form whose classical fold is the f-invariant (README,
    "What the invariant is").  A raw term c*a^i*b^j*d^k folds to
    (-1)^w*c*a^(i-j-3w) times k - 1 circle factors, kept here as d^(k-1):
    :func:`_lift` is Z[d]-linear, so no power of the circle factor is built."""
    sign = -1 if w % 2 else 1
    curve: dict[int, dict[int, int]] = {}
    for (i, j, k), c in raw:
        col = curve.setdefault(i - j - 3 * w, {})
        col[k - 1] = col.get(k - 1, 0) + sign * c
    return Polynomial._from_clean({(0, j, k + 1): c for (j, k), c in _lift(curve).items() if c})


def _lift(curve: dict[int, dict[int, int]]) -> dict[tuple[int, int], int]:
    """The one sum_j b^j*P_j(d), j <= 3, whose image on the classical curve
    is sum_n a^n*N_n(-a^2 - a^-2), for ``curve`` = {n: {k: coefficient of
    d^k in N_n}}, as {(j, k): coefficient of b^j*d^k}.

    On the curve, Z[a, 1/a] is free over Z[d] on 1, b, b^2, b^3 (b = 1/a),
    with a^4 + d*a^2 + 1 = 0.  The sum is Horner's rule in a over n >= 0 and
    in b over n < 0, and a or b moves the four coefficients round with one
    shift in d: a*(P0, P1, P2, P3) = (P1, P2 - d*P0, P3, -P0), as
    a = -d*b - b^3, and b*(P0, P1, P2, P3) = (-P3, P0, P1 - d*P3, P2), as
    b^4 = -d*b^2 - 1.
    """
    p0: dict[int, int] = {}
    p1: dict[int, int] = {}
    p2: dict[int, int] = {}
    p3: dict[int, int] = {}
    for n in range(max(curve, default=-1), -1, -1):  # ((N_top*a + ...)*a + N_1)*a + N_0
        for k, c in p0.items():
            p2[k + 1] = p2.get(k + 1, 0) - c
        p0, p1, p2, p3 = p1, p2, p3, {k: -c for k, c in p0.items()}
        for k, c in curve.get(n, {}).items():
            p0[k] = p0.get(k, 0) + c
    lifted = {(j, k): c for j, pj in enumerate((p0, p1, p2, p3)) for k, c in pj.items()}
    p0, p1, p2, p3 = {}, {}, {}, {}
    for n in range(min(curve, default=0), 0):  # ((N_bottom*b + ...)*b + N_-1)*b
        for k, c in curve.get(n, {}).items():
            p0[k] = p0.get(k, 0) + c
        for k, c in p3.items():
            p1[k + 1] = p1.get(k + 1, 0) - c
        p0, p1, p2, p3 = {k: -c for k, c in p3.items()}, p0, p1, p2
    for j, pj in enumerate((p0, p1, p2, p3)):
        for k, c in pj.items():
            lifted[j, k] = lifted.get((j, k), 0) + c
    return lifted


def is_normal(p: Polynomial) -> bool:
    """True when no term of p is reducible by the basis leading monomials."""
    leads = [g.leading()[0] for g in GROEBNER_BASIS]
    return all(not mono_divides(lm, m) for m in p.terms for lm in leads)


# -- Groebner verification ---------------------------------------------------

@dataclass
class Check:
    name: str
    passed: bool
    witness: str | None = None


@dataclass
class GroebnerReport:
    """Outcome of re-deriving the basis from the generators.

    ``z_exact`` records whether every certificate stayed inside integer
    combinations (no content was ever divided out), i.e. whether the two
    ideals coincide over Z itself and not merely over the rationals.
    """

    checks: list[Check] = field(default_factory=list)
    computed_basis: list[Polynomial] = field(default_factory=list)
    content_events: list[tuple[str, int]] = field(default_factory=list)
    z_exact: bool = False

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _zero_remainders(name: str, remainders: Iterator[tuple[str, Polynomial]]) -> Check:
    """Passes when every ``(label, remainder)`` has a zero remainder; else the
    witness names the first nonzero one, and no later remainder is computed."""
    for label, rem in remainders:
        if not rem.is_zero:
            return Check(name, False, f"{label} -> {format_poly(rem)}")
    return Check(name, True)


def verify_groebner() -> GroebnerReport:
    """Certify that the stored basis and the generated ideal agree.

    Checks, in order: every S-polynomial of the stored basis reduces to zero
    against it; both generators reduce to zero against it; each basis element
    reduces to zero against a basis recomputed from the generators; and the
    reduced recomputed basis equals the stored one element for element.
    """
    report = GroebnerReport()
    basis = list(GROEBNER_BASIS)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    report.checks.append(_zero_remainders("spolys_reduce_to_zero", (
        (f"S(g{i + 1},g{j + 1})", remainder(s_poly(basis[i], basis[j]), basis)) for i, j in pairs)))
    report.checks.append(_zero_remainders("generators_reduce_to_zero", (
        (f"generator {k}", remainder(gen, basis)) for k, gen in enumerate(IDEAL_GENERATORS, start=1))))

    run = buchberger_run(list(IDEAL_GENERATORS))
    report.computed_basis = reduce_basis(run.basis)
    report.content_events = list(run.content_events)
    report.checks.append(_zero_remainders("basis_reduces_against_computed", (
        (f"basis element {k}", remainder(g, run.basis)) for k, g in enumerate(basis, start=1))))

    match = set(report.computed_basis) == set(basis)
    report.checks.append(
        Check(
            "reduced_computed_basis_matches",
            match,
            None if match else "; ".join(format_poly(g) for g in report.computed_basis),
        )
    )

    report.z_exact = report.all_passed and not run.content_events
    return report


# -- exact branch values ------------------------------------------------------

# Branch constants live in the cyclotomic field Q(z), z = exp(i*pi/6): every
# (-1)^(p/q) in the catalogued list has q dividing 6, hence equals z^(6p/q).
# Coordinates are over the basis (1, z, z^2, z^3) with z^4 = z^2 - 1.
_ZETA_COORDS: tuple[tuple[int, int, int, int], ...] = (
    (1, 0, 0, 0),    # z^0
    (0, 1, 0, 0),    # z^1
    (0, 0, 1, 0),    # z^2
    (0, 0, 0, 1),    # z^3
    (-1, 0, 1, 0),   # z^4 = z^2 - 1
    (0, -1, 0, 1),   # z^5 = z^3 - z
    (-1, 0, 0, 0),   # z^6 = -1
    (0, -1, 0, 0),
    (0, 0, -1, 0),
    (0, 0, 0, -1),
    (1, 0, -1, 0),
    (0, 1, 0, -1),   # z^11
)

#: An element of Z[z][a, 1/a, b]: (power of a, power of b, power of z) ->
#: coefficient, with the powers of z reduced only by :func:`_coords`.
Exact = dict[tuple[int, int, int], int]


def _coords(p: Exact) -> dict[tuple[int, int], tuple[int, int, int, int]]:
    """p by powers of a and b, each coefficient in coordinates over
    (1, z, z^2, z^3); a zero coefficient is dropped, so p == 0 exactly when
    the result is empty."""
    acc: dict[tuple[int, int], list[int]] = {}
    for (ea, eb, ez), coeff in p.items():
        row = acc.setdefault((ea, eb), [0, 0, 0, 0])
        for i, x in enumerate(_ZETA_COORDS[ez % 12]):
            row[i] += coeff * x
    return {mono: tuple(row) for mono, row in acc.items() if any(row)}  # type: ignore[misc]


def _mul(p: Exact, q: Exact) -> Exact:
    out: Exact = {}
    for (a1, b1, z1), c1 in p.items():
        for (a2, b2, z2), c2 in q.items():
            key = (a1 + a2, b1 + b2, (z1 + z2) % 12)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def parse_exact(text: str) -> Exact:
    """A catalogued value, such as ``-I + (-1)^(1/6)`` or ``-a^2 - a^-2``,
    exactly, in the grammar of :func:`.multipoly.read_terms`; a factor b or
    d raises ValueError."""
    out: Exact = {}
    for coeff, (ea, eb, ed, ez) in read_terms(text):
        if eb or ed:
            raise ValueError(f"branch value {text!r} has a factor b or d")
        key = (ea, 0, ez % 12)
        out[key] = out.get(key, 0) + coeff
    return {key: c for key, c in out.items() if c}


@dataclass(frozen=True)
class BranchSubstitution:
    """One catalogued solution branch: a partial assignment of a, b, d,
    each value kept as its catalogued text (see :func:`parse_exact`)."""

    ordinal: int            # 1-based position in the catalogued list
    label: str              # label as written (one label occurs twice)
    assignments: tuple[tuple[str, str], ...]

    def canonical_key(self) -> tuple:
        """Each assigned value in exact cyclotomic coordinates per power of
        a, which is what deduplication compares."""
        return tuple(
            (var, tuple(sorted((ea, row) for (ea, _), row in _coords(parse_exact(text)).items())))
            for var, text in self.assignments
        )


def _branch(ordinal: int, label: str, **vals: str) -> BranchSubstitution:
    return BranchSubstitution(ordinal, label, tuple(sorted(vals.items())))


#: The solution list exactly as catalogued: 34 entries, labels sol_1..sol_33
#: with sol_12 appearing twice.  Deduplication happens in `distinct_branches`.
BRANCHES: tuple[BranchSubstitution, ...] = (
    _branch(1, "sol_1", b="a^-1", d="-a^2 - a^-2"),
    _branch(2, "sol_2", d="-1", b="a - I"),
    _branch(3, "sol_3", d="-1", b="a + I"),
    _branch(4, "sol_4", d="1", b="-a - 1"),
    _branch(5, "sol_5", d="1", b="1 - a"),
    _branch(6, "sol_6", b="-(-1)^(1/6)", d="-1", a="(-1)^(5/6)"),
    _branch(7, "sol_7", b="(-1)^(1/6)", d="-1", a="-(-1)^(5/6)"),
    _branch(8, "sol_8", b="-(-1)^(1/3)", d="1", a="(-1)^(2/3)"),
    _branch(9, "sol_9", b="(-1)^(1/3)", d="1", a="-(-1)^(2/3)"),
    _branch(10, "sol_10", b="-I - (-1)^(1/6)", d="-1", a="-(-1)^(1/6)"),
    _branch(11, "sol_11", b="I - (-1)^(1/6)", d="-1", a="-(-1)^(1/6)"),
    _branch(12, "sol_12", b="2*I - (-1)^(1/6)", d="-1", a="(-1)^(5/6)"),
    _branch(13, "sol_12", b="-I + (-1)^(1/6)", d="-1", a="(-1)^(1/6)"),
    _branch(14, "sol_13", b="I + (-1)^(1/6)", d="-1", a="(-1)^(1/6)"),
    _branch(15, "sol_14", b="-2*I + (-1)^(1/6)", d="-1", a="-(-1)^(5/6)"),
    _branch(16, "sol_15", b="-1 - (-1)^(1/3)", d="1", a="(-1)^(1/3)"),
    _branch(17, "sol_16", b="1 - (-1)^(1/3)", d="1", a="(-1)^(1/3)"),
    _branch(18, "sol_17", b="2 - (-1)^(1/3)", d="1", a="(-1)^(2/3)"),
    _branch(19, "sol_18", b="-2 + (-1)^(1/3)", d="1", a="-(-1)^(2/3)"),
    _branch(20, "sol_19", b="-1 + (-1)^(1/3)", d="1", a="-(-1)^(1/3)"),
    _branch(21, "sol_20", b="1 + (-1)^(1/3)", d="1", a="-(-1)^(1/3)"),
    _branch(22, "sol_21", d="-1", b="-2*I", a="-I"),
    _branch(23, "sol_22", d="-1", b="2*I", a="I"),
    _branch(24, "sol_23", d="-1", b="I - (-1)^(1/6)", a="-(-1)^(1/6)"),
    _branch(25, "sol_24", d="-1", b="-I + (-1)^(1/6)", a="(-1)^(1/6)"),
    _branch(26, "sol_25", d="-1", b="I - (-1)^(5/6)", a="-(-1)^(5/6)"),
    _branch(27, "sol_26", d="-1", b="-I + (-1)^(5/6)", a="(-1)^(5/6)"),
    _branch(28, "sol_27", d="1", b="-2", a="1"),
    _branch(29, "sol_28", d="1", b="2", a="-1"),
    _branch(30, "sol_29", d="1", b="1 - (-1)^(1/3)", a="(-1)^(1/3)"),
    _branch(31, "sol_30", d="1", b="-1 + (-1)^(1/3)", a="-(-1)^(1/3)"),
    _branch(32, "sol_31", d="1", b="-1 - (-1)^(2/3)", a="(-1)^(2/3)"),
    _branch(33, "sol_32", d="1", b="1 + (-1)^(2/3)", a="-(-1)^(2/3)"),
    _branch(34, "sol_33", d="0"),
)


def distinct_branches() -> list[BranchSubstitution]:
    """Branches deduplicated by exact assignment equality, first occurrence kept."""
    first: dict[tuple, BranchSubstitution] = {}
    for br in BRANCHES:
        first.setdefault(br.canonical_key(), br)
    return list(first.values())


#: The components of V(I) = V(d) u V(Jc) u V(J+) u V(J-) by name, each with
#: its generators (README, "What the invariant is").
COMPONENTS: tuple[tuple[str, tuple[Polynomial, ...]], ...] = (
    ("d=0", (parse_poly("+d"),)),
    ("Jc", (parse_poly("+a*b -1"), parse_poly("+a^2 +b^2 +d"))),
    ("J+", (parse_poly("+d -1"), parse_poly("+a^2 +2*a*b +b^2 -1"))),
    ("J-", (parse_poly("+d +1"), parse_poly("+a^2 -2*a*b +b^2 +1"))),
)


def _vanishes(p: Polynomial, values: dict[str, Exact]) -> bool:
    """True when p is exactly 0 with a, b and d replaced by ``values``."""
    total: Exact = {}
    for exps, coeff in p:
        term: Exact = {(0, 0, 0): coeff}
        for var, e in zip("abd", exps):
            for _ in range(e):
                term = _mul(term, values[var])
        for key, c in term.items():
            total[key] = total.get(key, 0) + c
    return not _coords(total)


@dataclass
class BranchCheck:
    ordinal: int
    label: str
    passed: bool                 # both ideal generators are exactly 0 on the branch
    components: list[str]        # names of the COMPONENTS the branch lies on


def verify_branch(branch: BranchSubstitution) -> BranchCheck:
    """Substitute the branch into both ideal generators and every component's
    generators, exactly, over Z[z][a, 1/a, b] with the free variables kept."""
    values: dict[str, Exact] = {"a": {(1, 0, 0): 1}, "b": {(0, 1, 0): 1}}
    values.update((var, parse_exact(text)) for var, text in branch.assignments)
    return BranchCheck(
        branch.ordinal,
        branch.label,
        all(_vanishes(gen, values) for gen in IDEAL_GENERATORS),
        [name for name, gens in COMPONENTS if all(_vanishes(g, values) for g in gens)],
    )


@dataclass
class BranchReport:
    raw_count: int
    distinct_count: int
    checks: list[BranchCheck]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def verify_all_branches() -> BranchReport:
    """Verify every distinct branch; the report also carries both counts."""
    distinct = distinct_branches()
    return BranchReport(
        raw_count=len(BRANCHES),
        distinct_count=len(distinct),
        checks=[verify_branch(br) for br in distinct],
    )


# -- classical specialization -------------------------------------------------

def specialize_classical(p: Polynomial) -> LaurentPolynomial:
    """Substitute b -> a^-1 and d -> -a^-2 - a^2, exactly.

    This is the first solution branch; it annihilates both ideal generators,
    so the map factors through the quotient.  The classical bracket drops
    one circle from the raw sum, so this is its fold of d*p.
    """
    return bracket_from_raw(p.mul_term(1, (0, 0, 1)))
