"""Ring arithmetic, division, and Buchberger completion."""

import pytest
from hypothesis import given, settings, strategies as st

from qbracket.multipoly import (
    Polynomial,
    TermLimitError,
    buchberger,
    buchberger_run,
    format_poly,
    mono_mul,
    parse_poly,
    read_terms,
    reduce_basis,
    remainder,
    s_poly,
)
from qbracket.bracket3 import CURL_MINUS, tl_evaluate
from qbracket.classical import LaurentPolynomial, format_laurent, parse_laurent
from qbracket.diagram import BraidWord
from qbracket.quotient import GROEBNER_BASIS, IDEAL_GENERATORS, normal_form, parse_exact

from division_oracle import divide_by_max_scan

P1, P2 = IDEAL_GENERATORS
Q1, Q2, Q3 = GROEBNER_BASIS

A = Polynomial.variable("a")
B = Polynomial.variable("b")
D = Polynomial.variable("d")


# -- strategies ---------------------------------------------------------------

monomials = st.tuples(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6),
)
coefficients = st.integers(min_value=-50, max_value=50)
polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(Polynomial)
nonzero_polynomials = polynomials.filter(bool)


# -- monomial order -----------------------------------------------------------

def test_leading_term_and_text_follow_lex_abd():
    # alpha power dominates: a^2 d > a d^3, and any a beats pure b/d monomials
    assert parse_poly("+a*d^3 +a^2*d").leading() == ((2, 0, 1), 1)
    assert parse_poly("+b^4*d^3 -3*a*d").leading() == ((1, 0, 1), -3)
    assert parse_poly("+d^9 +b").leading() == ((0, 1, 0), 1)
    assert parse_poly("+5").leading() == ((0, 0, 0), 5)
    assert format_poly(parse_poly("+d^9 +b +a*d^3 +a^2*d -b^4*d^3 +1")) == (
        "+a^2*d +a*d^3 -b^4*d^3 +b +d^9 +1"
    )


@settings(max_examples=100, deadline=None)
@given(nonzero_polynomials, nonzero_polynomials)
def test_mono_order_is_multiplicative_and_has_unit_minimum(p, q):
    # over Z there are no zero divisors, so the leading terms never cancel;
    # this is what makes every division step strictly lower the work set
    assert (p * q).leading() == (
        mono_mul(p.leading()[0], q.leading()[0]),
        p.leading()[1] * q.leading()[1],
    )
    if any(m != (0, 0, 0) for m in p.terms):
        assert (p + Polynomial.one()).leading()[0] != (0, 0, 0)


# -- construction and text ----------------------------------------------------

def test_parse_format_round_trip_fixed_polys():
    for p in (P1, P2, Q1, Q2, Q3):
        assert parse_poly(format_poly(p)) == p


def test_parse_accepts_whitespace_and_elisions():
    assert parse_poly(" a^2*d  +  2*a*b*d^2\n+b^2*d -d^2 ") == P1
    assert parse_poly("+1*a") == A
    assert parse_poly("-3") == Polynomial.constant(-3)
    assert parse_poly("0") == Polynomial.zero()


def test_parse_rejects_garbage():
    for bad in ("", "+", "a^-1", "2**a", "x+1"):
        with pytest.raises(ValueError):
            parse_poly(bad)


#: Coefficients well past 2^64, both signs.
big_coefficients = st.integers(min_value=-(2**80), max_value=2**80)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(monomials, big_coefficients, max_size=8).map(Polynomial))
def test_parse_poly_reads_back_format_poly(p):
    assert parse_poly(format_poly(p)) == p


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(min_value=-40, max_value=40), big_coefficients, max_size=8)
       .map(LaurentPolynomial))
def test_parse_laurent_reads_back_format_laurent(p):
    assert parse_laurent(format_laurent(p)) == p


def test_read_terms_yields_each_signed_term():
    # (coefficient, (a, b, d, z) exponents), z = exp(i*pi/6); the "*" may be
    # left out after an integer, and powers of a variable add up
    assert list(read_terms(" 2a*b^2 - 3 I*(-1)^(1/6)+a^-1*a^3 ")) == [
        (2, (1, 2, 0, 0)), (-3, (0, 0, 0, 4)), (1, (2, 0, 0, 0))]
    assert list(read_terms("-(-1) ^ (2/3) * 2 * 5d")) == [(-10, (0, 0, 1, 4))]
    assert list(read_terms("0")) == [(0, (0, 0, 0, 0))]


READERS = {"parse_poly": parse_poly, "parse_laurent": parse_laurent, "parse_exact": parse_exact}

#: Text no reader accepts, then the factors each ring lacks: roots of unity
#: and negative powers in Z[a, b, d], b and d in both Laurent rings.
REJECTED = [(reader, text) for reader in READERS for text in (
    "", "+", "2**a", "x+1", "2 3", "a^", "--1", "(-1)^(1/5)", "a b")] + [
    ("parse_poly", "I"), ("parse_poly", "a^-1"), ("parse_laurent", "b^2"), ("parse_exact", "a*b")]


@pytest.mark.parametrize("reader, text", REJECTED)
def test_readers_reject_text_outside_their_ring(reader, text):
    with pytest.raises(ValueError):
        READERS[reader](text)


def test_a_rejection_names_where_reading_stopped():
    with pytest.raises(ValueError, match="position 4"):
        parse_poly("+a +x")
    with pytest.raises(ValueError, match="position 3: not a 12th root of unity"):
        parse_exact("1 -(-1)^(1/4)")


def test_canonical_text_is_lex_descending():
    assert format_poly(P1) == "+a^2*d +2*a*b*d^2 +b^2*d -d^2"
    assert format_poly(Polynomial.zero()) == "0"


def test_negative_exponents_rejected():
    with pytest.raises(ValueError):
        Polynomial({(-1, 0, 0): 1})
    with pytest.raises(ValueError):
        A.mul_term(1, (0, -1, 0))


def test_term_limit_guard(monkeypatch):
    monkeypatch.setattr("qbracket.multipoly.TERM_LIMIT", 100)
    with pytest.raises(TermLimitError):
        Polynomial({(i, j, 0): 1 for i in range(11) for j in range(11)})
    dense = Polynomial({(i, 0, 0): 1 for i in range(11)})
    with pytest.raises(TermLimitError):
        (dense * Polynomial({(0, j, 0): 1 for j in range(11)}))
    # 60 + 60 terms with no monomial in common
    with pytest.raises(TermLimitError):
        Polynomial({(0, j, 0): 1 for j in range(60)}) + Polynomial({(0, 0, k): 1 for k in range(1, 61)})
    # 60 terms a*b^j, each rewritten to the two terms -b^j*d - b^j*d^2
    with pytest.raises(TermLimitError):
        remainder(Polynomial({(1, j, 0): 1 for j in range(60)}), [parse_poly("+a +d +d^2")])


# -- ring arithmetic -----------------------------------------------------------

def test_addition_identity_and_cancellation():
    p = parse_poly("+a*d")
    assert p + Polynomial.zero() == p
    assert p + (-p) == Polynomial.zero()


def test_sum_of_ideal_generators_has_nine_terms():
    # no monomial is shared between the two generators, so nothing cancels
    total = P1 + P2
    assert len(total) == 9
    assert total == parse_poly(
        "+a^2*d^2 +a*b*d^3 +a^2*d +2*a*b*d^2 +a*b*d +b^2*d^2 +b^2*d -d^2 -d"
    )


def test_product_example_curl_factors():
    assert parse_poly("+a*d +b") * parse_poly("+a +b*d") == parse_poly(
        "+a^2*d +a*b*d^2 +a*b +b^2*d"
    )


def test_delta_times_cofactor_gives_first_generator():
    c1 = parse_poly("+2*a*b*d -d +a^2 +b^2")
    assert D * c1 == P1


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, polynomials)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def _is_clean(p: Polynomial) -> bool:
    """True when p holds no zero coefficient and no negative exponent: the
    public constructor, which drops the one and rejects the other, rebuilds
    it unchanged."""
    return p == Polynomial(dict(p.terms))


@settings(max_examples=100, deadline=None)
@given(polynomials, polynomials, monomials, coefficients)
def test_every_operation_returns_a_clean_polynomial(p, q, mono, c):
    # p - p, p + (-p) and p * 0 cancel every term
    results = [p + q, p - q, p - p, p + (-p), -p, p * q, p * c, p * 0, p.mul_term(c, mono)]
    results += [remainder(p * q, [Q1, Q2, Q3]), remainder(p, [q] if q else [])]
    assert all(_is_clean(x) for x in results)


@settings(max_examples=50, deadline=None)
@given(polynomials)
def test_multiplicative_identity(p):
    assert p * Polynomial.one() == p
    assert p * Polynomial.zero() == Polynomial.zero()


# -- division -------------------------------------------------------------------

def _check_division(p, basis):
    """The oracle's quotients and remainder satisfy p == sum(q_i * g_i) + r
    exactly, and ``remainder`` returns the same r; gives (quotients, r)."""
    quotients, r = divide_by_max_scan(p, basis)
    recombined = r
    for q, g in zip(quotients, basis):
        recombined = recombined + q * g
    assert recombined == p
    assert remainder(p, basis) == r
    return quotients, r


def test_divide_by_basis_element_is_exact():
    assert remainder(Q3, list(GROEBNER_BASIS)).is_zero


def test_divide_delta_is_irreducible():
    quotients, r = _check_division(D, list(GROEBNER_BASIS))
    assert r == D
    assert all(q.is_zero for q in quotients)


def test_divide_single_step_by_q3():
    quotients, r = _check_division(parse_poly("+a^2*d"), [Q3])
    assert r == parse_poly("-2*a*b*d^2 -b^2*d +d^2")
    assert quotients[0] == Polynomial.one()


def test_divide_empty_basis_returns_input():
    p = parse_poly("+a*b -d")
    quotients, r = _check_division(p, [])
    assert r == p and quotients == []


def test_divide_rejects_zero_divisor():
    with pytest.raises(ValueError):
        remainder(A, [Polynomial.zero()])


@settings(max_examples=100, deadline=None)
@given(polynomials)
def test_division_identity_holds_exactly(p):
    _check_division(p, [Q1, Q2, Q3])


@settings(max_examples=50, deadline=None)
@given(polynomials, st.lists(nonzero_polynomials, min_size=1, max_size=3))
def test_division_identity_random_bases(p, basis):
    _check_division(p, basis)


# small divisors with leading coefficients up to 3 in size, so that steps
# happen often, some terms are skipped for an indivisible coefficient, and
# on these non-Groebner bases the remainder depends on the selection order
divisors = st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3),
    st.integers(min_value=-3, max_value=3),
    max_size=4,
).map(Polynomial).filter(bool)


@settings(max_examples=300, deadline=None)
@given(polynomials, st.lists(divisors, min_size=1, max_size=3))
def test_divide_matches_max_scan_oracle(p, basis):
    assert remainder(p, basis) == divide_by_max_scan(p, basis)[1]


def test_divide_matches_max_scan_oracle_on_stored_basis():
    basis = list(GROEBNER_BASIS)
    for p in ((A + B * D) ** 12 * parse_poly("+a^3*b*d -2*b^5 +d^4"), (P1 + P2) ** 3):
        assert remainder(p, basis) == divide_by_max_scan(p, basis)[1]


# -- S-polynomials ----------------------------------------------------------------

def test_s_poly_self_cancels():
    assert s_poly(P1, P1).is_zero


def test_s_poly_of_monomials_cancels():
    assert s_poly(parse_poly("+a*d"), parse_poly("+b*d")).is_zero


def test_s_poly_hand_example():
    assert s_poly(A + B, B + D) == B * B - A * D


def test_s_poly_zero_input_rejected():
    with pytest.raises(ValueError):
        s_poly(Polynomial.zero(), A)


# -- Buchberger and basis reduction ------------------------------------------------

def test_buchberger_monomial_ideal_is_already_a_basis():
    assert buchberger([A, B]) == [A, B]


def test_buchberger_empty_input():
    assert buchberger([]) == []


def test_buchberger_of_stored_basis_adds_nothing_after_reduction():
    out = reduce_basis(buchberger(list(GROEBNER_BASIS)))
    assert set(out) == set(GROEBNER_BASIS)


def test_buchberger_output_is_groebner():
    basis = buchberger([P1, P2])
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            rem = remainder(s_poly(basis[i], basis[j]), basis)
            assert rem.is_zero, f"S({i},{j}) does not reduce"
    for gen in (P1, P2):
        assert remainder(gen, basis).is_zero


def test_buchberger_is_self_stable():
    basis = buchberger([P1, P2])
    again = reduce_basis(buchberger(basis))
    assert set(again) == set(reduce_basis(basis))


def test_reduce_basis_drops_redundant_elements():
    assert reduce_basis([A, A * A]) == [A]


def test_reduce_basis_content_flag():
    two_a = Polynomial.term(2, (1, 0, 0))
    assert reduce_basis([two_a]) == [A]


def test_reduce_basis_normalizes_leading_sign():
    assert reduce_basis([-A]) == [A]


def test_computed_basis_matches_stored_one():
    run = buchberger_run([P1, P2])
    reduced = reduce_basis(run.basis)
    assert set(reduced) == set(GROEBNER_BASIS)
    # the run never had to divide out integer content, so the match is exact
    # over Z, not only up to content
    assert run.content_events == []


def test_stored_basis_elements_lie_in_generated_ideal():
    computed = buchberger([P1, P2])
    for q in GROEBNER_BASIS:
        assert remainder(q, computed).is_zero


# -- cross-check against an independent implementation ------------------------------

def _to_sympy(p):
    import sympy as sp

    a, b, d = sp.symbols("a b d")
    return sum(c * a**ea * b**eb * d**ed for (ea, eb, ed), c in p.terms.items()), (a, b, d)


@settings(max_examples=25, deadline=None)
@given(polynomials)
def test_normal_form_matches_sympy_reduced(p):
    import sympy as sp

    expr, gens = _to_sympy(p)
    basis_exprs = [_to_sympy(q)[0] for q in GROEBNER_BASIS]
    _, sympy_rem = sp.reduced(expr, basis_exprs, gens=list(gens), order="lex")
    ours, _ = _to_sympy(remainder(p, list(GROEBNER_BASIS)))
    assert sp.expand(ours - sympy_rem) == 0


def test_normal_form_equals_remainder_on_padded_torus_sums():
    # T(2,n) padded by its n curls in one product is the raw sum of a
    # diagram too, with few terms of high d degree
    for n in range(10, 41):
        padded = CURL_MINUS**n * tl_evaluate(BraidWord(2, (1,) * n))
        assert normal_form(padded) == remainder(padded, list(GROEBNER_BASIS)), n


def test_groebner_basis_matches_sympy():
    import sympy as sp

    expr1, gens = _to_sympy(P1)
    expr2, _ = _to_sympy(P2)
    sympy_basis = {sp.expand(g) for g in sp.groebner([expr1, expr2], *gens, order="lex").exprs}
    ours = {sp.expand(_to_sympy(g)[0]) for g in reduce_basis(buchberger([P1, P2]))}
    assert ours == sympy_basis
