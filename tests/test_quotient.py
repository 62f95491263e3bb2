"""Normal forms, the ideal-equality report, variety branches, specialization."""

import dataclasses
import hashlib
import time

import pytest
from hypothesis import example, given, settings, strategies as st

import state_oracle
from qbracket.bracket3 import CURL_MINUS, tl_evaluate
from qbracket.classical import CIRCLE, LaurentPolynomial, bracket_from_raw, writhe_normalize
from qbracket.diagram import BraidWord
from qbracket.multipoly import Polynomial, parse_poly, remainder
from qbracket.quotient import (
    BRANCHES,
    COMPONENTS,
    GROEBNER_BASIS,
    IDEAL_GENERATORS,
    BranchCheck,
    distinct_branches,
    is_normal,
    lift,
    normal_form,
    parse_exact,
    specialize_classical,
    verify_all_branches,
    verify_branch,
    verify_groebner,
    _lift,
)

P1, P2 = IDEAL_GENERATORS

monomials = st.tuples(
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
    st.integers(min_value=0, max_value=5),
)
coefficients = st.integers(min_value=-20, max_value=20)
polynomials = st.dictionaries(monomials, coefficients, max_size=5).map(Polynomial)
small_polys = st.dictionaries(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
    ),
    coefficients,
    max_size=4,
).map(Polynomial)


# -- fixed ideal data ----------------------------------------------------------

def test_generators_stored_exactly():
    assert P1 == parse_poly("+a^2*d +2*a*b*d^2 -d^2 +b^2*d")
    assert P2 == parse_poly("+a*b*d^3 +a^2*d^2 +b^2*d^2 +a*b*d -d")


def test_basis_leading_monomials():
    leads = [g.leading()[0] for g in GROEBNER_BASIS]
    assert leads == [(0, 4, 3), (1, 0, 3), (2, 0, 1)]
    assert [g.leading()[1] for g in GROEBNER_BASIS] == [1, 1, 1]


def test_third_basis_element_equals_first_generator():
    assert GROEBNER_BASIS[2] == P1


def test_groebner_basis_factors():
    # I = d*J with J = <q1, (d^2-1)(b^4+b^2d+1), (d^2-1)(a+b^3+bd)>: the
    # d-divisibility every basis element shares, in in-repo arithmetic
    a, b, d = (Polynomial.variable(x) for x in "abd")
    assert GROEBNER_BASIS == (
        (d**3 - d) * (b**4 + b**2 * d + 1),
        (d**3 - d) * (a + b**3 + b * d),
        d * (a**2 + 2 * a * b * d + b**2 - d),
    )


def test_derived_identity_delta_p1_minus_p2():
    lhs = Polynomial.variable("d") * P1 - P2
    rhs = parse_poly("+d") * (parse_poly("+d^2") - 1) * (parse_poly("+a*b") - 1)
    assert lhs == rhs


# -- normal forms by the basis ------------------------------------------------------
#
# ``remainder`` by the stored basis reduces any polynomial; ``normal_form``
# takes raw sums only, and is checked against it below.

BASIS = list(GROEBNER_BASIS)


def test_normal_form_of_basis_elements_is_zero():
    for q in GROEBNER_BASIS:
        assert remainder(q, BASIS).is_zero


def test_normal_form_of_generators_is_zero():
    assert remainder(P1, BASIS).is_zero
    assert remainder(P2, BASIS).is_zero


def test_normal_form_single_step():
    assert remainder(parse_poly("+a^2*d"), BASIS) == parse_poly("-2*a*b*d^2 +d^2 -b^2*d")


def test_normal_form_has_no_reducible_monomial():
    p = parse_poly("+a^4*b^2*d^3 -5*a*d^5 +b^6*d^4")
    assert is_normal(remainder(p, BASIS))


@settings(max_examples=100, deadline=None)
@given(polynomials)
def test_normal_form_idempotent(p):
    nf = remainder(p, BASIS)
    assert remainder(nf, BASIS) == nf
    assert is_normal(nf)


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials)
def test_normal_form_linear(p, q):
    assert remainder(p + q, BASIS) == remainder(p, BASIS) + remainder(q, BASIS)


@settings(max_examples=50, deadline=None)
@given(polynomials, polynomials)
def test_normal_form_multiplicative_through_reduction(p, q):
    assert remainder(p * q, BASIS) == remainder(remainder(p, BASIS) * remainder(q, BASIS), BASIS)


@settings(max_examples=50, deadline=None)
@given(polynomials, small_polys, small_polys)
def test_normal_form_constant_on_cosets(p, f, g):
    assert remainder(p + f * P1 + g * P2, BASIS) == remainder(p, BASIS)


def test_e_times_the_curve_lies_in_the_ideal():
    # e*Jc lies in J, e = d^2 - 1, as e vanishes on both line pairs: so d*e
    # times each generator of the classical curve reduces to zero
    d = Polynomial.variable("d")
    for g in dict(COMPONENTS)["Jc"]:
        assert remainder(d * (d**2 - 1) * g, BASIS).is_zero, g


#: {a-power: {d-power: coefficient}}: sum_n a^n*N_n(d) on the classical
#: curve; with d-power 0 only, a Laurent polynomial in a
curves = st.dictionaries(
    st.integers(min_value=-40, max_value=40),
    st.dictionaries(st.integers(min_value=0, max_value=6), coefficients, max_size=3),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(curves, st.integers(min_value=-4, max_value=4))
@example({}, 0)
def test_lift_specializes_back_on_the_curve(curve, w):
    lifted = Polynomial({(0, j, k): c for (j, k), c in _lift(curve).items()})
    assert all(j <= 3 for (_, j, _) in lifted.terms)
    want = LaurentPolynomial()
    for n, col in curve.items():
        for k, c in col.items():
            want = want + (CIRCLE**k).shift(n) * c
    assert specialize_classical(lifted) == want
    # the public lift reads the curve off a raw sum, a^n (b^-n for n < 0)
    # times one circle more, and folds in the writhe
    raw = Polynomial({(max(n, 0), max(-n, 0), k + 1): c for n, col in curve.items() for k, c in col.items()})
    assert lift(raw, 0) == parse_poly("d") * lifted
    amb = lift(raw, w)
    assert all(i == 0 and j <= 3 and k >= 1 for i, j, k in amb.terms)
    assert is_normal(amb)
    assert bracket_from_raw(amb) == writhe_normalize(bracket_from_raw(raw), w)


# -- normal forms of raw sums ------------------------------------------------------

def _scan_padding_step() -> Polynomial:
    # one curl on T(2,7), whose normal form has b^3*d^k terms: times the
    # curl's a, they are reducible
    raw = tl_evaluate(BraidWord(2, (1,) * 7))
    assert any(j == 3 and k > 3 for (_, j, k) in normal_form(raw).terms)
    return CURL_MINUS * raw


WORD_8_22 = BraidWord(8, (-4, -1, -3, 7, 2, 7, -1, 6, -2, 4, -5, -6, -4, 1, 6, 5, 5, 3, -3, 1, -7, 2))


@pytest.mark.parametrize("build", [
    lambda: tl_evaluate(WORD_8_22),
    lambda: CURL_MINUS**2 * tl_evaluate(WORD_8_22),  # its writhe is 2
    _scan_padding_step,
    lambda: CURL_MINUS**14 * tl_evaluate(BraidWord(2, (1,) * 14)),
], ids=["raw_8_strands_22_letters", "that_raw_sum_curl_padded", "scan_padding_step", "padded_torus_14"])
def test_normal_form_equals_remainder_on_workload_shaped_inputs(build):
    p = build()
    assert normal_form(p) == remainder(p, BASIS)


def test_normal_form_equals_remainder_on_two_strand_torus_links():
    # the residue class of T(2,n) runs through all four as n and the sign vary
    for n in range(1, 61):
        for letter in (1, -1):
            raw = tl_evaluate(BraidWord(2, (letter,) * n))
            assert normal_form(raw) == remainder(raw, BASIS), (n, letter)


Gaussian = tuple[int, int]  # x + y*i


def _times(u: Gaussian, v: Gaussian) -> Gaussian:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def _value(p: Polynomial, point: tuple[Gaussian, Gaussian, Gaussian]) -> Gaussian:
    """p at ``point`` = (a, b, d), exactly, over the Gaussian integers."""
    top = max((max(m) for m in p.terms), default=0)
    powers = []
    for x in point:
        row = [(1, 0)]
        for _ in range(top):
            row.append(_times(row[-1], x))
        powers.append(row)
    pa, pb, pd = powers
    re = im = 0
    for (i, j, k), c in p:
        x, y = _times(_times(pa[i], pb[j]), pd[k])
        re, im = re + c * x, im + c * y
    return re, im


#: Points on the line pairs, where I vanishes and a wrong residue would not:
#: J+ is d = 1, b = +-1 - a, and J- is d = -1, b = a -+ i.
LINE_POINTS = [((a, 0), (s - a, 0), (1, 0)) for a in (2, -3, 5) for s in (1, -1)]
LINE_POINTS += [((a, 0), (a, -s), (-1, 0)) for a in (2, -3, 5) for s in (1, -1)]


def test_normal_form_of_torus_120_is_fast():
    # the raw sum of T(2,120), 121 terms up to d^121: the general division
    # loop took 0.65 s on a 2-core machine (Python 3.11), bringing each d^k
    # down two powers a step; Horner in a and two folds, 4-7 ms; the lift
    # and the residue, about 1 ms
    raw = tl_evaluate(BraidWord(2, (1,) * 120))
    start = time.perf_counter()
    nf = normal_form(raw)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.4, f"normal_form of the T(2,120) raw sum took {elapsed:.2f}s"
    assert nf == remainder(raw, BASIS)


def _assert_long_torus_normal_form(n: int, bound: float) -> None:
    """T(2,n)'s normal form within ``bound`` seconds, checked by normality,
    the classical specialization (blind to the residue, as g vanishes on the
    curve) and exact values on both line pairs."""
    raw = tl_evaluate(BraidWord(2, (1,) * n))
    start = time.perf_counter()
    nf = normal_form(raw)
    elapsed = time.perf_counter() - start
    assert elapsed < bound, f"normal_form of the T(2,{n}) raw sum took {elapsed:.2f}s"
    assert is_normal(nf)
    assert specialize_classical(nf) == specialize_classical(raw)
    for point in LINE_POINTS:
        assert _value(nf, point) == _value(raw, point), point


def test_normal_form_of_torus_200_is_fast():
    # 201 raw terms up to a^200 and d^201: on a 2-core machine (Python 3.11)
    # one step per term took 1.0-1.4 s, Horner in a and two folds 12-14 ms,
    # the lift and the residue 2 ms; the remainder oracle takes 4.5 s
    _assert_long_torus_normal_form(200, 0.8)


def test_normal_form_of_torus_400_is_fast():
    # 401 raw terms up to a^400 and d^401: on a 2-core machine (Python 3.11)
    # Horner in a with d-growth took 4.4-5.6 s, and without it, in two folds,
    # 58-75 ms; the lift and the residue take 8-10 ms
    _assert_long_torus_normal_form(400, 1.0)


def test_kink_pair_product_is_congruent_to_one_on_multiples_of_delta():
    product = parse_poly("+a*d +b") * parse_poly("+a +b*d")
    delta = Polynomial.variable("d")
    assert normal_form(delta * product) == normal_form(delta)
    # and explicitly: d * (product - 1) is the second ideal generator
    assert delta * (product - Polynomial.one()) == P2


# -- Groebner verification ---------------------------------------------------------

def test_verify_groebner_all_checks_pass():
    report = verify_groebner()
    assert report.all_passed, [c for c in report.checks if not c.passed]
    names = [c.name for c in report.checks]
    assert names == [
        "spolys_reduce_to_zero",
        "generators_reduce_to_zero",
        "basis_reduces_against_computed",
        "reduced_computed_basis_matches",
    ]


def test_verify_groebner_certifies_over_z():
    report = verify_groebner()
    assert report.z_exact
    assert report.content_events == []
    assert set(report.computed_basis) == set(GROEBNER_BASIS)


# -- branches ------------------------------------------------------------------------

def test_branch_list_counts():
    raw = BRANCHES
    assert len(raw) == 34  # the catalogued list has 34 displayed entries
    labels = [br.label for br in raw]
    assert labels.count("sol_12") == 2  # one label occurs twice, as catalogued
    assert len({br.label for br in raw}) == 33
    assert len(distinct_branches()) == 26  # dedup by exact assignment values


def test_known_duplicate_pairs_collapse():
    by_ordinal = {br.ordinal: br for br in BRANCHES}
    # sol_23 repeats sol_11, sol_24 repeats the second sol_12 entry,
    # sol_25/26 repeat sol_7/6, sol_29/30 repeat sol_16/19, sol_31/32 repeat sol_8/9
    for dup, original in [(24, 11), (25, 13), (26, 7), (27, 6), (30, 17), (31, 20), (32, 8), (33, 9)]:
        assert by_ordinal[dup].canonical_key() == by_ordinal[original].canonical_key()


ONE = (1, 0, 0, 0)  # the cyclotomic coordinates of 1


#: sha256 of every (ordinal, variable, exact coordinates per power of a) of
#: the catalogue, in catalogue order; pins each value against a changed text.
CATALOGUE_DIGEST = "adf3e31dfbd97c4fe57a24ee8a2d8b36a0597dd8fdb37c4f2c62837de88aa4fc"


def test_catalogue_values_are_pinned():
    data = [(br.ordinal, var, coords) for br in BRANCHES for var, coords in br.canonical_key()]
    assert len(data) == 95
    assert hashlib.sha256(repr(data).encode()).hexdigest() == CATALOGUE_DIGEST


def test_parse_exact_reads_each_kind_of_term():
    # keys are (power of a, power of b, power of z), z = exp(i*pi/6)
    assert parse_exact("-a^2 + 1 - a^-2") == {(2, 0, 0): -1, (0, 0, 0): 1, (-2, 0, 0): -1}
    assert parse_exact("-2*I + (-1)^(1/6)") == {(0, 0, 3): -2, (0, 0, 1): 1}
    assert parse_exact("-(-1)^(2/3)") == {(0, 0, 4): -1}
    assert parse_exact("a - a") == parse_exact("0") == {}


@pytest.mark.parametrize(
    "text", ["", "1/a", "a*b", "2*", "a^", "--1", "2 3", "(-1)^(1/5)", "(-1)^(1/0)"]
)
def test_parse_exact_rejects_other_text(text):
    with pytest.raises(ValueError):
        parse_exact(text)


def test_branch_sol1_assignments():
    sol1 = BRANCHES[0]
    assert sol1.label == "sol_1"
    assert dict(sol1.assignments) == {"b": "a^-1", "d": "-a^2 - a^-2"}  # a is free
    values = dict(sol1.canonical_key())
    assert values["b"] == ((-1, ONE),)  # 1/a
    assert values["d"] == ((-2, (-1, 0, 0, 0)), (2, (-1, 0, 0, 0)))  # -a^-2 - a^2


def test_branch_sol33_is_delta_zero():
    sol33 = BRANCHES[-1]
    assert sol33.label == "sol_33"
    assert dict(sol33.canonical_key()) == {"d": ()}  # a and b are free


def test_branch_sol27_is_rational_point():
    sol27 = next(br for br in BRANCHES if br.label == "sol_27")
    values = dict(sol27.canonical_key())  # no variable is free
    assert values == {"a": ((0, ONE),), "b": ((0, (-2, 0, 0, 0)),), "d": ((0, ONE),)}


def test_verify_branch_examples():
    assert verify_branch(BRANCHES[0]) == BranchCheck(1, "sol_1", True, ["Jc"])
    assert verify_branch(BRANCHES[-1]) == BranchCheck(34, "sol_33", True, ["d=0"])
    sol27 = next(br for br in BRANCHES if br.label == "sol_27")
    assert verify_branch(sol27) == BranchCheck(28, "sol_27", True, ["J+"])


def perturbed(label: str, var: str, value: str):
    branch = next(br for br in BRANCHES if br.label == label)
    return dataclasses.replace(branch, assignments=tuple(sorted({**dict(branch.assignments), var: value}.items())))


@pytest.mark.parametrize(
    "branch",
    [
        perturbed("sol_27", "b", "-3"),
        perturbed("sol_1", "d", "-a^2 + 1 - a^-2"),
    ],
    ids=["sol_27_b", "sol_1_d"],
)
def test_a_perturbed_branch_fails(branch):
    check = verify_branch(branch)
    assert not check.passed and check.components == []


#: The components of V(I) each distinct branch lies on, by ordinal: sol_1 is
#: the curve Jc, sol_2/3 the lines of J-, sol_4/5 those of J+ and sol_33 the
#: plane d = 0; the other 20 are points on those lines, eight of them where
#: the lines meet Jc.
ON_COMPONENT = {
    "d=0": {34},
    "Jc": {1, 6, 7, 8, 9, 11, 13, 17, 20},
    "J+": {4, 5, 8, 9, 16, 17, 18, 19, 20, 21, 28, 29},
    "J-": {2, 3, 6, 7, 10, 11, 12, 13, 14, 15, 22, 23},
}


def test_all_distinct_branches_satisfy_both_relations():
    report = verify_all_branches()
    assert report.raw_count == 34
    assert report.distinct_count == 26
    assert report.all_passed
    assert {chk.ordinal: chk.components for chk in report.checks} == {
        br.ordinal: [name for name, ordinals in ON_COMPONENT.items() if br.ordinal in ordinals]
        for br in distinct_branches()
    }


# -- classical specialization ----------------------------------------------------------

def test_specialize_constant_and_delta():
    assert specialize_classical(Polynomial.one()) == LaurentPolynomial.one()
    assert specialize_classical(Polynomial.variable("d")) == CIRCLE


def test_specialize_kills_generators():
    assert specialize_classical(P1) == LaurentPolynomial.zero()
    assert specialize_classical(P2) == LaurentPolynomial.zero()


@settings(max_examples=50, deadline=None)
@given(small_polys, small_polys)
def test_specialize_kills_the_whole_ideal(f, g):
    assert specialize_classical(f * P1 + g * P2) == LaurentPolynomial.zero()


@settings(max_examples=50, deadline=None)
@given(polynomials)
def test_specialize_factors_through_normal_form(p):
    assert specialize_classical(remainder(p, BASIS)) == specialize_classical(p)


@settings(max_examples=50, deadline=None)
@given(polynomials)
def test_specialize_equals_the_per_term_fold_of_d_times_p(p):
    # the classical fold drops one circle, so it sees d*p; the per-term
    # oracle sums one shifted, scaled circle power per term of it
    assert specialize_classical(p) == state_oracle.bracket_from_raw_per_term(Polynomial.variable("d") * p)
