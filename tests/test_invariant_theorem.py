"""ambient3 is a function of the classical invariant f.

The move-two ideal factors as I = d*J with J = Jc & J+ & J-: the classical
curve Jc = <ab-1, d+a^2+b^2> and the two line pairs J+ = <d-1, (a+b)^2-1>,
J- = <d+1, (a-b)^2+1>.  Write ambient3 = d*y.  On Jc, y is f; on each line
pair y is a constant, which is f's value where the pair meets Jc.  So y is
fixed by f modulo J, and ambient3 = d*y by f modulo I.  ``from_classical``
rebuilds ambient3 from f alone, over Z, and the tests below compare it with
the state sum; ``test_move_two_ideal_decomposes`` certifies the ideal
identities with sympy.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from qbracket.bracket3 import ambient3, bracket3_raw, tl_evaluate
from qbracket.classical import LaurentPolynomial, bracket_from_raw, parse_laurent, writhe_normalize
from qbracket.diagram import BraidWord, closure, writhe
from qbracket.multipoly import Polynomial, buchberger, format_poly, reduce_basis, remainder
from qbracket.quotient import COMPONENTS, GROEBNER_BASIS, IDEAL_GENERATORS, normal_form
from qbracket.search import bundled_table_path, load_table

import state_oracle
from division_oracle import divide_by_max_scan

A, B, D = (Polynomial.variable(x) for x in "abd")


def _exact(p: Polynomial, n: Polynomial, what: str) -> Polynomial:
    """p / n over Z[a]; raises unless the division leaves no remainder."""
    (q,), r = divide_by_max_scan(p, [n])
    if r:
        raise ValueError(f"{what}: remainder {format_poly(r)}")
    return q


def from_classical(f: LaurentPolynomial) -> Polynomial:
    """ambient3 of any diagram whose f-invariant is ``f``, from f alone.

    Y = F + (ab-1) * sum_s (1-s*d)/2 * G_s, where F lifts f (a^-k -> b^k),
    and G_s corrects F to the constant t_s on the line pair d = -s.  There
    v = a - s*b has v^2 = -s, and N = a^4 - s*a^2 + 1, the norm of ab - 1,
    cuts out the meeting points with Jc.  The result is NF(d*Y); it raises
    when f is no bracket value (t_s not 1, or not +-1 at d = -1, or an
    inexact division).
    """
    F = Polynomial({(e, 0, 0) if e >= 0 else (0, -e, 0): c for e, c in f.terms.items()})
    two_y = F * 2
    top = max((j for _, j, _ in F.terms), default=0)
    for s in (1, -1):
        # F = p0 + v*p1 over Z[a]; b^j = x0 + v*x1, stepping by b = s*a - s*v
        p0, p1 = Polynomial({m: c for m, c in F if not m[1]}), Polynomial.zero()
        x0, x1 = Polynomial.one(), Polynomial.zero()
        for j in range(1, top + 1):
            x0, x1 = A * x0 * s + x1, (A * x1 - x0) * s
            c = F.terms.get((0, j, 0), 0)
            p0, p1 = p0 + x0 * c, p1 + x1 * c
        n = A**4 - A**2 * s + 1
        # F where the pair meets Jc: y there is (a+b)^even = 1 at d = 1 and
        # +-(a-b)^even = +-1 at d = -1
        t = remainder(p0 + A**3 * p1 * s, [n])
        if not (t == 1 or (s == 1 and t == -1)):
            raise ValueError(f"no bracket value on the line pair d = {-s}: {format_poly(t)}")
        u, w = t - p0, A**2 * s - 1
        g0 = _exact(u * w + A * p1, n, "G0")
        g1 = _exact(A * u * s - w * p1, n, "G1")
        two_y = two_y + (A * B - 1) * (1 - D * s) * (g0 + (A - B * s) * g1)
    doubled = normal_form(D * two_y)
    if any(c % 2 for c in doubled.terms.values()):
        raise ValueError(f"odd coefficient in 2*ambient3: {format_poly(doubled)}")
    return Polynomial({m: c // 2 for m, c in doubled.terms.items()})


@st.composite
def braid_words(draw, max_strands=4, max_letters=9):
    n = draw(st.integers(min_value=1, max_value=max_strands))
    letter = st.integers(min_value=1, max_value=max(n - 1, 1)).flatmap(lambda i: st.sampled_from([i, -i]))
    letters = draw(st.lists(letter, max_size=max_letters)) if n > 1 else []
    return BraidWord(n, tuple(letters))


@settings(max_examples=60, deadline=None)
@given(braid_words())
def test_from_classical_rebuilds_ambient3_on_random_braids(word):
    # f from the per-state oracle enumeration, ambient3 from the frontier pass
    d = closure(word)
    assert from_classical(state_oracle.f_invariant(d)) == ambient3(d)


def test_from_classical_rebuilds_ambient3_on_every_table_entry():
    entries = load_table(bundled_table_path()).entries
    assert sum(e.word is None for e in entries) == 2  # the PD-only entries are covered
    for e in entries:
        raw = tl_evaluate(e.word) if e.word is not None else bracket3_raw(e.diagram)
        w = writhe(e.diagram)
        amb = state_oracle.ambient_from_normal(normal_form(raw), w)
        assert from_classical(writhe_normalize(bracket_from_raw(raw), w)) == amb, e.name


def _census(strands: int, max_letters: int) -> list[BraidWord]:
    """Cyclically reduced words of 1 to ``max_letters`` letters, one per rotation class."""
    alphabet = [x for i in range(1, strands) for x in (i, -i)]
    words = []
    for length in range(1, max_letters + 1):
        for letters in itertools.product(alphabet, repeat=length):
            if any(letters[k] == -letters[k - 1] for k in range(length)):
                continue
            if letters == min(letters[k:] + letters[:k] for k in range(length)):
                words.append(BraidWord(strands, letters))
    return words


def test_three_strand_census_ambient3_is_a_function_of_f():
    words = _census(3, 7)
    buckets: dict[LaurentPolynomial, set[Polynomial]] = {}
    for word in words:
        raw = tl_evaluate(word)
        w = writhe(closure(word))
        amb = state_oracle.ambient_from_normal(normal_form(raw), w)
        buckets.setdefault(writhe_normalize(bracket_from_raw(raw), w), set()).add(amb)
    assert (len(words), len(buckets)) == (550, 84)
    for f, values in buckets.items():
        assert values == {from_classical(f)}, f


@pytest.mark.parametrize("text", ["+1*a^1", "+1*a^4", "+2", "-1"])
def test_from_classical_rejects_values_that_are_no_bracket(text):
    with pytest.raises(ValueError):
        from_classical(parse_laurent(text))


#: The generators of J, where I = d*J.
J = (
    A**2 + A * B * D * 2 + B**2 - D,
    (D**2 - 1) * (B**4 + B**2 * D + 1),
    (D**2 - 1) * (A + B**3 + B * D),
)


def test_move_two_ideal_is_d_times_j_and_j_lies_in_each_component():
    # in-repo certificates: each basis element of I is d times an element of
    # J, d times each generator of J lies in I, and J lies in each line or
    # curve component; the reverse inclusion, Jc & J+ & J- inside J, needs an
    # elimination and is certified with sympy below
    j_basis = reduce_basis(buchberger(list(J)))
    for g in GROEBNER_BASIS:
        assert remainder(_exact(g, D, "g/d"), j_basis).is_zero, format_poly(g)
    for j in J:
        assert normal_form(D * j).is_zero, format_poly(j)
    assert [name for name, _ in COMPONENTS] == ["d=0", "Jc", "J+", "J-"]
    for name, gens in COMPONENTS[1:]:
        basis = reduce_basis(buchberger(list(gens)))
        for j in J:
            assert remainder(j, basis).is_zero, (name, format_poly(j))


def test_move_two_ideal_decomposes():
    import sympy as sp

    a, b, d, t = sp.symbols("a b d t")

    def basis(gens, *order):
        return list(sp.groebner(gens, *order, order="lex").exprs)

    def intersect(f, g):
        # eliminate t from t*F + (1-t)*G
        return [p for p in basis([t * x for x in f] + [(1 - t) * x for x in g], t, a, b, d)
                if not p.has(t)]

    def sympy_of(polys):
        return [sp.sympify(format_poly(p).replace("^", "**")) for p in polys]

    j = sympy_of(J)
    assert basis(sympy_of(IDEAL_GENERATORS), a, b, d) == basis([d * x for x in j], a, b, d)
    jc, j_plus, j_minus = (sympy_of(gens) for _, gens in COMPONENTS[1:])
    meet = intersect(intersect(jc, j_plus), j_minus)
    assert basis(meet, a, b, d) == basis(j, a, b, d)
