"""ambient3 is a function of the classical invariant f.

The move-two ideal factors as I = d*J with J = Jc & J+ & J-: the classical
curve Jc = <ab-1, d+a^2+b^2> and the two line pairs J+ = <d-1, (a+b)^2-1>,
J- = <d+1, (a-b)^2+1>.  Write ambient3 = d*y.  On Jc, y is f; on each line
pair y is a constant, which is f's value where the pair meets Jc.  So y is
fixed by f modulo J, and ambient3 = d*y by f modulo I.  The census below
checks that the curl-padded normal form is ``quotient.lift`` of f on every
short 3-strand word; ``test_move_two_ideal_decomposes`` certifies the ideal
identities with sympy.
"""

import itertools

from qbracket.bracket3 import tl_evaluate
from qbracket.classical import LaurentPolynomial, bracket_from_raw, writhe_normalize
from qbracket.diagram import BraidWord, closure, writhe
from qbracket.multipoly import Polynomial, buchberger, format_poly, reduce_basis, remainder
from qbracket.quotient import COMPONENTS, GROEBNER_BASIS, IDEAL_GENERATORS, lift, normal_form

import state_oracle
from division_oracle import divide_by_max_scan

A, B, D = (Polynomial.variable(x) for x in "abd")


def _exact(p: Polynomial, n: Polynomial, what: str) -> Polynomial:
    """p / n over Z[a]; raises unless the division leaves no remainder."""
    (q,), r = divide_by_max_scan(p, [n])
    if r:
        raise ValueError(f"{what}: remainder {format_poly(r)}")
    return q


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
    # the padding (the definition) equals the lift of f on every word, so one
    # value per f-bucket
    words = _census(3, 7)
    buckets: dict[LaurentPolynomial, set[Polynomial]] = {}
    for word in words:
        raw = tl_evaluate(word)
        w = writhe(closure(word))
        amb = state_oracle.ambient_from_normal(normal_form(raw), w)
        assert amb == lift(raw, w), word.text
        buckets.setdefault(writhe_normalize(bracket_from_raw(raw), w), set()).add(amb)
    assert (len(words), len(buckets)) == (550, 84)
    assert all(len(values) == 1 for values in buckets.values())


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
        assert remainder(D * j, list(GROEBNER_BASIS)).is_zero, format_poly(j)
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
