"""Classical bracket: frozen values, laws, and move invariance."""

import random

import pytest
from hypothesis import given, settings, strategies as st

import state_oracle
from qbracket.bracket3 import CapacityError, bracket3_raw, tl_evaluate
from qbracket.classical import (
    CIRCLE,
    LaurentPolynomial,
    bracket_from_raw,
    f_invariant,
    format_laurent,
    kauffman_bracket,
    parse_laurent,
)
from qbracket.diagram import BraidWord, Diagram, DiagramError, add_kink, closure, parse_braid, rewrite_moves


def bracket_of(text: str) -> LaurentPolynomial:
    return kauffman_bracket(closure(parse_braid(text)))


def mirror(p: LaurentPolynomial) -> LaurentPolynomial:
    """Substitute a -> a^-1 (the effect of mirroring a diagram)."""
    return LaurentPolynomial({-e: c for e, c in p.terms.items()})


# -- Laurent arithmetic and text ------------------------------------------------

def test_laurent_round_trip():
    p = LaurentPolynomial({-7: 1, -3: -1, 5: -1})
    assert parse_laurent(format_laurent(p)) == p
    assert format_laurent(p) == "-1*a^5 -1*a^-3 +1*a^-7"
    assert format_laurent(p) != format_laurent(mirror(p))


def test_laurent_parse_flexibility():
    assert parse_laurent("a^2 - a^-2") == LaurentPolynomial({2: 1, -2: -1})
    assert parse_laurent("0") == LaurentPolynomial.zero()
    assert parse_laurent("-2*a") == LaurentPolynomial({1: -2})
    with pytest.raises(ValueError):
        parse_laurent("b^2")


def test_laurent_power_and_shift():
    assert CIRCLE**2 == LaurentPolynomial({-4: 1, 0: 2, 4: 1})
    assert LaurentPolynomial.one().shift(-3) == LaurentPolynomial({-3: 1})
    with pytest.raises(ValueError):
        CIRCLE**-1


# -- frozen bracket values --------------------------------------------------------

def test_unknot_is_one():
    assert bracket_of("braid:1:") == LaurentPolynomial.one()


def test_crossingless_circle_law():
    # k disjoint circles give the (k-1)-st power of the circle factor: its
    # closed form against repeated squaring
    for k in (1, 2, 3, 4, 5, 18, 65):
        d = Diagram((), k)
        assert kauffman_bracket(d) == CIRCLE ** (k - 1)


def test_kink_values_pin_the_smoothing_convention():
    assert bracket_of("braid:2:1") == LaurentPolynomial({3: -1})
    assert bracket_of("braid:2:-1") == LaurentPolynomial({-3: -1})


def test_hopf_bracket():
    assert bracket_of("braid:2:1,1") == LaurentPolynomial({4: -1, -4: -1})


def test_trefoil_bracket_and_f():
    # frozen from the eight-state hand expansion (and the standard tables)
    assert bracket_of("braid:2:1,1,1") == LaurentPolynomial({-7: 1, -3: -1, 5: -1})
    assert f_invariant(closure(parse_braid("braid:2:1,1,1"))) == LaurentPolynomial(
        {-4: 1, -12: 1, -16: -1}
    )


def test_figure_eight_bracket_matches_literature():
    assert bracket_of("braid:3:1,-2,1,-2") == LaurentPolynomial(
        {8: 1, 4: -1, 0: 1, -4: -1, -8: 1}
    )


def test_empty_diagram_rejected_capacity_respected():
    # the empty diagram cannot be built, so no state sum ever sees it
    with pytest.raises(DiagramError, match="empty diagram"):
        Diagram((), 0)
    # no crossing cap: a 25-crossing closure is narrow, so the bracket has a value
    word = parse_braid("braid:2:" + ",".join(["1"] * 25))
    assert kauffman_bracket(closure(word)) == bracket_from_raw(tl_evaluate(word))
    # while the 2^n oracle keeps a cap of its own
    with pytest.raises(CapacityError, match=f"cap {state_oracle.ORACLE_CAP}"):
        state_oracle.kauffman_bracket(closure(word))


# -- structural laws ----------------------------------------------------------------

def test_mirror_property():
    for text in ("braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:2:1,1"):
        word = parse_braid(text)
        mirror_word = parse_braid(
            f"braid:{word.strands}:" + ",".join(str(-l) for l in word.letters)
        )
        assert kauffman_bracket(closure(mirror_word)) == mirror(kauffman_bracket(closure(word)))


def test_kink_multiplies_bracket_by_minus_a_cubed():
    for text in ("braid:1:", "braid:2:1,1,1", "braid:3:1,-2,1,-2"):
        word = parse_braid(text)
        base = kauffman_bracket(closure(word))
        assert kauffman_bracket(closure(add_kink(word, 1))) == base * LaurentPolynomial({3: -1})
        assert kauffman_bracket(closure(add_kink(word, -1))) == base * LaurentPolynomial({-3: -1})


def test_f_invariant_unchanged_by_kinks():
    for text in ("braid:1:", "braid:2:1,1,1", "braid:3:1,-2,1,-2"):
        word = parse_braid(text)
        reference = f_invariant(closure(word))
        assert f_invariant(closure(add_kink(word, 1))) == reference
        assert f_invariant(closure(add_kink(word, -1))) == reference


def test_f_equal_across_unknot_presentations():
    presentations = ("braid:1:", "braid:2:1", "braid:2:-1", "braid:3:1,2", "braid:3:-1,-2")
    values = {format_laurent(f_invariant(closure(parse_braid(t)))) for t in presentations}
    assert values == {"+1"}


def test_trefoil_and_mirror_differ_but_swap_under_mirroring():
    left = f_invariant(closure(parse_braid("braid:2:-1,-1,-1")))
    right = f_invariant(closure(parse_braid("braid:2:1,1,1")))
    assert left != right
    assert left == mirror(right)


# -- the bracket folded out of the raw sum ----------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_bracket_from_raw_matches_per_term_oracle_and_state_sum(seed):
    rng = random.Random(seed)
    strands = rng.randint(2, 5)
    letters = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(rng.randint(0, 10))]
    d = closure(BraidWord(strands, tuple(letters)))
    raw = bracket3_raw(d)
    assert bracket_from_raw(raw) == state_oracle.bracket_from_raw_per_term(raw) == state_oracle.kauffman_bracket(d)


@pytest.mark.parametrize("text", ["braid:2:", "braid:3:1,1,1", "braid:4:1,-1", "braid:4:-2,-2"])
def test_bracket_from_raw_where_every_state_has_more_than_one_circle(text):
    # an untouched strand is a circle in every state, so the fold ends with a
    # power of CIRCLE, which it skips where some state has one circle
    d = closure(parse_braid(text))
    raw = bracket3_raw(d)
    assert min(k for _, _, k in raw.terms) > 1
    assert bracket_from_raw(raw) == state_oracle.bracket_from_raw_per_term(raw) == state_oracle.kauffman_bracket(d)


# -- move invariance ------------------------------------------------------------------

@pytest.mark.parametrize("text", ["braid:3:1,-2", "braid:2:1,1", "braid:2:1,1,1", "braid:3:1,-2,1,-2"])
def test_bracket_invariant_under_seeded_rewrites(text):
    word = parse_braid(text)
    reference = kauffman_bracket(closure(word))
    for seed in range(25):
        variant = rewrite_moves(word, seed=seed, count=10)
        assert kauffman_bracket(closure(variant)) == reference


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32))
def test_bracket_invariant_under_random_seeds(seed):
    word = parse_braid("braid:2:1,1,1")
    variant = rewrite_moves(word, seed=seed, count=8)
    # variants reach 19 crossings, which the frontier pass takes as they come
    assert kauffman_bracket(closure(variant)) == LaurentPolynomial({-7: 1, -3: -1, 5: -1})
