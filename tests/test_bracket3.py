"""Three-variable bracket: state sum, normal form, curl algebra, engines."""

import contextlib
import hashlib
import io
import itertools
import json
import random
import time
import unittest.mock

import pytest
from hypothesis import example, given, settings, strategies as st

import qbracket.bracket3 as bracket3_module
import state_oracle
from conftest import braid_words, every_arrangement, pd_code, pd_codes
from qbracket.bracket3 import (
    CURL_MINUS,
    CURL_PLUS,
    OPEN_ARC_CAP,
    CapacityError,
    ambient3,
    ambient3_with_circle_factors,
    bracket3,
    bracket3_raw,
    circle_variant,
    raw_bracket,
    tl_evaluate,
    tl_transfer,
    _TL_PLAN_FLOOR,
    _close,
    _close_strands,
    _extreme_circles,
    _frontier_pass,
    _greedy_order,
    _identity_matching,
    _letter_order,
    _plan,
    _unpack,
    _walk_letters,
)
from qbracket.classical import CIRCLE, bracket_from_raw, writhe_normalize
from qbracket.cli import main
from qbracket.diagram import (
    BraidWord,
    Diagram,
    DiagramError,
    Quad,
    add_kink,
    closure,
    conjugate,
    parse_braid,
    parse_pd,
    pd_text,
    rewrite_moves,
    writhe,
)
from qbracket.multipoly import Polynomial, format_poly, parse_poly, remainder
from qbracket.quotient import GROEBNER_BASIS, is_normal, normal_form, specialize_classical
from qbracket.search import bundled_table_path, compute_record, load_table, parse_presentation


#: The circle weight d.
DELTA = Polynomial.variable("d")
BASIS = list(GROEBNER_BASIS)


@st.composite
def negative_heavy_words(draw, max_strands=8, max_pieces=7):
    """Braid words weighted to negative letters, which the transfer pass
    pre-offsets and shifts down: all-negative words, and words that start
    and end with a negative letter around single letters and opposite pairs
    on one generator, whose second letter splits a circle off the cup-cap
    path."""
    n = draw(st.integers(min_value=2, max_value=max_strands))
    gen = st.integers(min_value=1, max_value=n - 1)
    if draw(st.booleans()):
        return BraidWord(n, tuple(-i for i in draw(st.lists(gen, max_size=2 * max_pieces))))
    piece = st.one_of(
        gen.map(lambda i: (-i,)),
        gen.map(lambda i: (-i, -i)),
        gen.map(lambda i: (i,)),
        gen.map(lambda i: (-i, i)),
        gen.map(lambda i: (i, -i)),
    )
    middle = itertools.chain.from_iterable(draw(st.lists(piece, max_size=max_pieces)))
    return BraidWord(n, (-draw(gen), *middle, -draw(gen)))


def raw_of(text: str) -> Polynomial:
    return bracket3_raw(closure(parse_braid(text)))


# -- raw state sum -----------------------------------------------------------------

def test_crossingless_circles_give_delta_powers():
    for k in range(1, 4):
        assert bracket3_raw(Diagram((), k)) == parse_poly("+d") ** k


def test_single_kink_raw_values():
    assert raw_of("braid:2:1") == parse_poly("+a*d^2 +b*d")
    assert raw_of("braid:2:-1") == parse_poly("+b*d^2 +a*d")


def test_hopf_raw_four_state_sum():
    assert raw_of("braid:2:1,1") == parse_poly("+a^2*d^2 +2*a*b*d +b^2*d^2")


def test_trefoil_raw_eight_state_sum():
    assert raw_of("braid:2:1,1,1") == parse_poly("+a^3*d^2 +3*a^2*b*d +3*a*b^2*d^2 +b^3*d^3")


def test_every_raw_monomial_carries_delta():
    for text in ("braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:2:1,1"):
        raw = raw_of(text)
        assert all(mono[2] >= 1 for mono in raw.terms)


def raw_state_by_state(d: Diagram) -> Polynomial:
    """The raw sum from an independent circle count of each state on its own."""
    counts: dict = {}
    for state in itertools.product((0, 1), repeat=d.n):
        b = sum(state)
        mono = (d.n - b, b, state_oracle.resolve_state_walk(d, state))
        counts[mono] = counts.get(mono, 0) + 1
    return Polynomial(counts)


def assert_extremes(d: Diagram, raw: Polynomial) -> None:
    """The j = 0 and j = n terms of ``raw`` are a^n d^k_A and b^n d^k_B for
    the circle counts that :func:`_extreme_circles` walks, which size the
    packed slots (the free loops are counted on top)."""
    n, f = d.n, d.free_loops
    k_a, k_b = _extreme_circles(d.crossings)
    extremes = {mono: c for mono, c in raw.terms.items() if mono[1] in (0, n)}
    assert extremes == {(n, 0, k_a + f): 1, (0, n, k_b + f): 1}


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=4, max_letters=8), st.integers(min_value=0, max_value=3))
@example(BraidWord(2, ()), 0)
@example(BraidWord(3, ()), 2)
@example(BraidWord(2, (1,)), 3)
def test_depth_first_walk_equals_state_by_state_count(word, unused):
    # the frontier pass against each state on its own, exact in all three
    # exponents, unlike the classical fold (only i - j); the name is kept from
    # the depth-first walk that the frontier pass replaced.  The unused strands
    # are free circles, which the transfer pass closes before the first
    # letter, and its extreme walks count them
    word = BraidWord(word.strands + unused, word.letters)
    d = closure(word)
    raw = raw_state_by_state(d)
    assert bracket3_raw(d) == raw == tl_evaluate(word)
    assert_extremes(d, raw)
    k_a, k_b = _extreme_circles(d.crossings)
    assert _walk_letters(word)[1:] == (k_a + d.free_loops, k_b + d.free_loops)


@settings(max_examples=40, deadline=None)
@given(
    braid_words(max_strands=5, max_letters=10),
    st.integers(min_value=0, max_value=3),
    st.randoms(use_true_random=False),
)
def test_frontier_pass_equals_state_by_state_count_in_any_crossing_order(word, unused, rng):
    # a shuffled closure opens arcs far from where they close, so the open
    # boundary is wide and its matchings are not the planar ones of a braid
    d = closure(BraidWord(word.strands + unused, word.letters))
    shuffled = list(d.crossings)
    rng.shuffle(shuffled)
    d = Diagram(tuple(shuffled), d.free_loops)
    raw = raw_state_by_state(d)
    assert bracket3_raw(d) == raw
    assert_extremes(d, raw)


#: Raw sums of fixed PD codes without free loops: an arc that starts and ends
#: at one crossing, both ways round, and two disjoint kinks, whose all-B state
#: has four circles, the most that n crossings can close.
KINK_AND_SPLIT_RAW = {
    (): "+1",
    ((1, 1, 2, 2),): "+a*d^2 +b*d",
    ((1, 2, 2, 1),): "+a*d +b*d^2",
    ((1, 2, 2, 1), (3, 4, 4, 3)): "+a^2*d^2 +2*a*b*d^3 +b^2*d^4",
}


@pytest.mark.parametrize(
    "crossings, free_loops",
    [(q, f) for q in KINK_AND_SPLIT_RAW if q for f in (0, 2)] + [((), 1), ((), 3)],
)
def test_frontier_pass_on_kinks_split_codes_and_free_loops(crossings, free_loops):
    d = Diagram(crossings, free_loops)
    expected = parse_poly(KINK_AND_SPLIT_RAW[crossings]) * parse_poly("+d") ** free_loops
    assert bracket3_raw(d) == expected == raw_state_by_state(d)
    assert_extremes(d, expected)


@pytest.mark.parametrize("n, planar", [(1, 4), (2, 960)])
def test_frontier_pass_equals_state_by_state_count_on_every_planar_arrangement(n, planar):
    # every placement of the labels on one or two crossings that the plane
    # can hold, orientable or not: the packed slots are sized for planar
    # diagrams, where switching one smoothing moves the circle count by one
    checked = 0
    for crossings in every_arrangement(n):
        try:
            d = Diagram(crossings)
        except DiagramError as exc:
            assert str(exc).startswith("not a planar diagram"), crossings
            continue
        raw = raw_state_by_state(d)
        assert bracket3_raw(d) == raw, d.crossings
        assert_extremes(d, raw)
        checked += 1
    assert checked == planar


def with_kink(crossings: tuple[Quad, ...], label: int, pair: int) -> tuple[Quad, ...]:
    """``crossings`` with a first-move kink on the arc ``label``: a new last
    crossing whose loop sits on ports ``pair`` and ``pair + 1`` (mod 4), and
    whose other two ports take the arc and, past the kink, a new label for
    the arc's second end."""
    loop, past = 2 * len(crossings) + 1, 2 * len(crossings) + 2
    flat = [x for quad in crossings for x in quad]
    flat[max(i for i, x in enumerate(flat) if x == label)] = past
    kink = tuple((loop, loop, label, past)[(s - pair) % 4] for s in range(4))
    return (*(tuple(flat[4 * k:4 * k + 4]) for k in range(len(crossings))), kink)


@st.composite
def kinked_split_diagrams(draw) -> Diagram:
    """One or two braid closures side by side, first-move kinks on drawn
    arcs with their loops on drawn pairs of adjacent ports, free loops, and
    the crossings shuffled: at most 10 crossings."""
    crossings: tuple[Quad, ...] = ()
    loops = draw(st.integers(min_value=0, max_value=2))
    for word in draw(st.lists(braid_words(max_strands=3, max_letters=4, min_letters=1), min_size=1, max_size=2)):
        d = closure(word)
        crossings += tuple(tuple(x + 2 * len(crossings) for x in quad) for quad in d.crossings)
        loops += d.free_loops
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        label = draw(st.integers(min_value=1, max_value=2 * len(crossings)))
        crossings = with_kink(crossings, label, draw(st.integers(min_value=0, max_value=3)))
    return Diagram(tuple(draw(st.permutations(crossings))), loops)


#: The trefoil's closure with a kink on each pair of adjacent ports.
KINKED_TREFOILS = [
    Diagram(with_kink(closure(parse_braid("braid:2:1,1,1")).crossings, 1, pair)) for pair in range(4)
]


@settings(max_examples=60, deadline=None)
@given(kinked_split_diagrams(), st.booleans())
@example(KINKED_TREFOILS[0], False)
@example(KINKED_TREFOILS[1], False)
@example(KINKED_TREFOILS[2], True)
@example(KINKED_TREFOILS[3], True)
@example(Diagram(with_kink(closure(parse_braid("braid:3:1,-2,1,-2")).crossings, 3, 1), 1), True)
@example(Diagram(with_kink(closure(parse_braid("braid:3:1,2,1,2,1,2")).crossings, 5, 2)), True)
def test_frontier_pass_equals_state_by_state_count_on_kinks_split_pieces_and_free_loops(d, narrow):
    # under a cap of 4 open arcs, a diagram wider than that in its own order
    # takes the greedy order, and one wider in both is refused
    expected = raw_state_by_state(d)
    cap = 4 if narrow else OPEN_ARC_CAP
    with unittest.mock.patch.object(bracket3_module, "OPEN_ARC_CAP", cap):
        try:
            assert bracket3_raw(d) == expected
        except CapacityError:
            assert min(_plan(d.crossings)[1], _plan(_greedy_order(d.crossings))[1]) > cap
    assert_extremes(d, expected)


@settings(max_examples=40, deadline=None)
@given(st.one_of(kinked_split_diagrams(), pd_codes(max_strands=4, max_letters=9).map(lambda case: case[1])))
@example(KINKED_TREFOILS[1])
@example(closure(parse_braid("braid:4:1,-2,3,1,-2,3,-1,2,-3")))
def test_frontier_tables_hold_one_entry_per_reachable_matching(d):
    # a value test cannot see a key that two states with one matching do not
    # share: it only grows the tables.  So after each crossing the table
    # holds as many entries as the prefix's states reach open-arc matchings
    assert _frontier_pass(d).sizes == [len(m) for m in state_oracle.prefix_matchings(d.crossings)]


def test_depth_first_walk_equals_state_by_state_count_on_table_pd_entries():
    # the frontier pass on the PD codes, the one input kind with no tl engine
    pd_entries = [e for e in load_table(bundled_table_path()).entries if e.word is None]
    assert pd_entries
    for e in pd_entries:
        assert bracket3_raw(e.diagram) == raw_state_by_state(e.diagram), e.name


def test_naive_18_crossings_is_fast():
    # one union-find forest per state took 7.1-7.2 s on a 2-core machine
    # (Python 3.11); sharing each crossing prefix depth-first, about 0.5 s;
    # merging states by their open-arc matching, about 1 ms
    word = parse_braid("braid:3:" + ",".join(["1,-2"] * 9))
    d = closure(word)
    start = time.perf_counter()
    raw = bracket3_raw(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"bracket3_raw at 18 crossings took {elapsed:.2f}s"
    assert raw == tl_evaluate(word)


def test_naive_24_crossing_poke_pairs_are_fast():
    # 24 crossings, the old crossing cap: walking all 2^24 states depth-first
    # would take about 30 s on a 2-core machine (7.5 s at 22 crossings, Python
    # 3.11); the frontier pass carries at most 89 matchings, about 6 ms
    pairs = (1, 2, 3, 4, 5, 1, 2, 3, 4, 5, 1, 2)
    word = BraidWord(6, tuple(x for i in pairs for x in (i, -i)))
    d = closure(word)
    start = time.perf_counter()
    raw = bracket3_raw(d)
    elapsed = time.perf_counter() - start
    assert elapsed < 0.5, f"bracket3_raw at 24 crossings took {elapsed:.2f}s"
    assert raw == tl_evaluate(word)


def test_torus_400_is_fast_in_both_engines():
    # T(2,400): with one b-power row per circle count, tl_evaluate took 7.0 s
    # and bracket3_raw 11.8 s on a 2-core machine (Python 3.11); with slots
    # sized to the state diamond, 3 slots per crossing, about 0.02 s each.
    # The bounds are a fifth of the old times
    word = BraidWord(2, (1,) * 400)
    d = closure(word)
    start = time.perf_counter()
    by_tl = tl_evaluate(word)
    tl_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    by_frontier = bracket3_raw(d)
    frontier_elapsed = time.perf_counter() - start
    assert tl_elapsed < 1.4, f"tl_evaluate of T(2,400) took {tl_elapsed:.2f}s"
    assert frontier_elapsed < 2.3, f"bracket3_raw of T(2,400) took {frontier_elapsed:.2f}s"
    assert by_tl == by_frontier
    assert len(by_tl) == 401 and sum(c for _, c in by_tl) == 2**400


#: The full twist on 13 strands: 156 crossings whose closure is 26 open arcs
#: wide in its own order and in the greedy one.
FULL_TWIST_13 = BraidWord(13, tuple(range(1, 13)) * 13)


def test_capacity_error_propagates(capsys, monkeypatch):
    # too wide in both orders: refused with the width and the cap before any
    # state work, where up to 25!! matchings of 26 open arcs would be carried
    pd = pd_text(closure(FULL_TWIST_13))
    message = (
        "156 crossings need 26 open arcs at once in the narrowest crossing order tried, "
        "over the frontier pass's cap of 24"
    )
    start = time.perf_counter()
    with pytest.raises(CapacityError) as wide:
        bracket3_raw(parse_pd(pd))
    elapsed = time.perf_counter() - start
    assert str(wide.value) == message
    assert elapsed < 1.0, f"refusing a 156-crossing diagram took {elapsed:.2f}s"
    assert main(["bracket3", pd]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    # under a cap of 4 the figure-eight closure (6 wide in its own order, 4
    # greedy) still gets its value, and T(3,3) (6 wide in both) is refused
    monkeypatch.setattr(bracket3_module, "OPEN_ARC_CAP", 4)
    figure8 = parse_braid("braid:3:1,-2,1,-2")
    assert bracket3_raw(closure(figure8)) == tl_evaluate(figure8)
    with pytest.raises(CapacityError, match="^6 crossings need 6 open arcs .* cap of 4$"):
        bracket3_raw(closure(parse_braid("braid:3:1,2,1,2,1,2")))
    # the 2^n oracle refuses past a crossing cap of its own
    past_oracle_cap = closure(parse_braid("braid:2:" + ",".join(["1"] * (state_oracle.ORACLE_CAP + 1))))
    with pytest.raises(CapacityError, match=f"oracle's cap {state_oracle.ORACLE_CAP}$"):
        state_oracle.kauffman_bracket(past_oracle_cap)


def random_word(rng: random.Random, strands: int, letters: int) -> BraidWord:
    return BraidWord(strands, tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(letters)))


def test_pd_codes_past_24_crossings_equal_the_transfer_pass():
    # the old crossing cap refused all of these; shuffled, their own order is
    # wider than the open-arc cap, so the pass takes the greedy order
    rng = random.Random(40)
    for strands, letters in ((6, 30), (8, 30), (6, 40), (8, 40)):
        word = random_word(rng, strands, letters)
        d = closure(word)
        shuffled = list(d.crossings)
        rng.shuffle(shuffled)
        assert bracket3_module._plan(tuple(shuffled))[1] > OPEN_ARC_CAP
        expected = tl_evaluate(word)
        assert bracket3_raw(parse_pd(pd_text(d))) == expected, word.text
        assert bracket3_raw(Diagram(tuple(shuffled), d.free_loops)) == expected, word.text


@settings(max_examples=25, deadline=None)
@given(braid_words(max_strands=12, max_letters=24, min_letters=13), st.randoms(use_true_random=False))
def test_shuffled_closures_up_to_24_crossings_are_never_refused(word, rng):
    # the old 24-crossing cap took each of these, so the open-arc cap must
    # too; at most 12 crossings have at most 24 arcs, so fewer need no check
    d = closure(word)
    shuffled = list(d.crossings)
    rng.shuffle(shuffled)
    assert bracket3_raw(Diagram(tuple(shuffled), d.free_loops)) == tl_evaluate(word)


# -- normal forms (frozen after cross-checking with an independent CAS) -------------

def test_unknot_normal_form_is_delta():
    assert bracket3(closure(parse_braid("braid:1:"))) == DELTA


def test_hopf_normal_form():
    assert bracket3(closure(parse_braid("braid:2:1,1"))) == parse_poly("-d^3 +2*d")


def test_trefoil_normal_form():
    assert bracket3(closure(parse_braid("braid:2:1,1,1"))) == parse_poly(
        "+a*d +2*b^3*d^3 -2*b^3*d +b*d^4"
    )


def test_two_crossing_unknot_normal_form_is_delta():
    # closure of s1 s2^-1 on three strands destabilizes twice to the unknot
    assert bracket3(closure(parse_braid("braid:3:1,-2"))) == DELTA


def test_poked_unlink_normal_form_is_delta_squared():
    # closure of s1 s1^-1 is the two-component unlink (identity permutation),
    # so its invariant is that of two disjoint circles
    d = closure(parse_braid("braid:2:1,-1"))
    assert bracket3(d) == parse_poly("+d^2")


# -- curl factors ---------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(braid_words(max_strands=3, max_letters=6))
def test_kink_multipliers_exact(word):
    raw = bracket3_raw(closure(word))
    assert bracket3_raw(closure(add_kink(word, 1))) == CURL_PLUS * raw
    assert bracket3_raw(closure(add_kink(word, -1))) == CURL_MINUS * raw


def test_curl_factors_specialize_to_classical_kink_factors():
    assert specialize_classical(CURL_PLUS).terms == {3: -1}
    assert specialize_classical(CURL_MINUS).terms == {-3: -1}


def test_kink_pair_absorption():
    # adding a positive and a negative kink multiplies the raw bracket by
    # CURL_PLUS*CURL_MINUS, which the normal form absorbs on multiples of d
    for text in ("braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:2:1,1"):
        raw = raw_of(text)
        assert normal_form(CURL_PLUS * CURL_MINUS * raw) == normal_form(raw)


# -- transfer-matrix engine -------------------------------------------------------------

def test_tl_identity_braids():
    # the empty word's one state is both extremes: d^n packed into one one-bit slot
    for n in range(1, 13):
        word = BraidWord(n, ())
        assert tl_evaluate(word) == parse_poly("+d") ** n == bracket3_raw(closure(word)), n


def test_tl_equals_naive_on_corpus(corpus):
    for name, word in corpus.items():
        assert tl_evaluate(word) == bracket3_raw(closure(word)), name


@settings(max_examples=40, deadline=None)
@given(braid_words())
def test_tl_equals_naive_random_words(word):
    assert tl_evaluate(word) == bracket3_raw(closure(word))


@settings(max_examples=40, deadline=None)
@given(pd_codes())
def test_tl_equals_naive_on_shuffled_relabelled_codes(case):
    word, d = case
    assert bracket3_raw(d) == tl_evaluate(word)


@settings(max_examples=40, deadline=None)
@given(braid_words(max_letters=12))
def test_raw_sums_are_clean_polynomials(word):
    # both engines unpack without the public constructor's cleaning pass, so
    # rebuilding through it must change nothing: no zero coefficient, no
    # negative exponent
    for raw in (tl_evaluate(word), bracket3_raw(closure(word))):
        assert raw == Polynomial(dict(raw.terms))


@st.composite
def poke_pair_words(draw, max_strands, max_pairs):
    # the two cup-caps of a pair (i, -i) meet and split off a circle, so
    # these words put the most counts into high d-slots per letter
    n = draw(st.integers(min_value=2, max_value=max_strands))
    letters: list[int] = []
    for i in draw(st.lists(st.integers(min_value=1, max_value=n - 1), max_size=max_pairs)):
        letters += draw(st.sampled_from([(i, -i), (-i, i)]))
    return BraidWord(n, tuple(letters))


@settings(max_examples=25, deadline=None)
@given(poke_pair_words(max_strands=12, max_pairs=12))
def test_tl_equals_naive_on_poke_pair_words(word):
    # up to 24 crossings (16 while the naive engine walked every state: it
    # took about 7 s at 22)
    assert tl_evaluate(word) == bracket3_raw(closure(word))


@settings(max_examples=25, deadline=None)
@given(poke_pair_words(max_strands=12, max_pairs=12))
def test_tl_poke_pair_words_reduce_to_the_unlink(word):
    # up to 24 crossings: the closure is the n-component unlink up to move
    # II, so a count carried into a neighbouring slot would change the normal
    # form
    raw = tl_evaluate(word)
    assert normal_form(raw) == normal_form(parse_poly("+d") ** word.strands)
    assert sum(c for _, c in raw) == 2 ** len(word.letters)


def test_tl_strand_cap():
    with pytest.raises(CapacityError):
        tl_evaluate(BraidWord(13, ()))


@settings(max_examples=15, deadline=None)
@given(braid_words(max_strands=8, max_letters=30, min_letters=25))
def test_tl_counts_every_state_once(word):
    # 25 to 30 letters: each of the 2^letters states adds +1 to one
    # monomial a^i b^j d^k with one smoothing per letter and a circle
    raw = tl_evaluate(word)
    n = len(word.letters)
    assert sum(c for _, c in raw) == 2**n
    assert all(i + j == n and k >= 1 for (i, j, k), _ in raw)


def test_tl_evaluate_40_letters_on_8_strands_is_fast():
    # carrying Polynomial arithmetic per matching and letter took 4.4-4.8 s on
    # a 2-core machine (Python 3.11); a table of counts per monomial, 1.2 s;
    # one packed int per matching in a dict, 0.05-0.06 s; numbered matchings
    # with cup-cap rows and a free identity path, 0.03-0.04 s; with closure
    # counts carried through the numbering, 0.024-0.048 s against 0.025-0.053 s
    # before it, interleaved on a loaded 2-core machine
    word = BraidWord(8, (
        -6, -7, 7, -7, 6, 2, 3, -7, 4, 5, 1, 4, -2, -2, 2, -2, 1, 2, 2, 3,
        -2, 2, 4, -1, -4, 2, -1, -3, 5, -1, -3, -4, -2, -4, 1, -1, -7, -1, -3, -5,
    ))
    start = time.perf_counter()
    raw = tl_evaluate(word)
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"tl_evaluate of a 40-letter 8-strand word took {elapsed:.2f}s"
    assert len(raw) == 331
    assert sum(c for _, c in raw) == 2**40


def test_tl_evaluate_40_letters_on_10_strands_is_fast():
    # a table of counts per monomial took 6-8 s on a 2-core machine
    # (Python 3.11); one packed int per matching in a dict, 0.47-0.59 s;
    # numbered matchings with cup-cap rows and a free identity path,
    # 0.33-0.44 s; with closure counts carried through the numbering,
    # 0.24-0.38 s against 0.25-0.45 s before it, interleaved on a loaded
    # 2-core machine.  The value was pinned from the table-of-counts engine.
    word = BraidWord(10, (
        6, 4, -9, -8, 1, 2, -2, -1, -6, 7, -6, -7, 6, 9, -5, -3, -1, -6, -7, 7,
        -2, -9, -7, -7, -9, 4, 1, 7, -3, -4, 8, -9, -9, -5, -7, -4, -5, 1, 8, -6,
    ))
    start = time.perf_counter()
    raw = tl_evaluate(word)
    elapsed = time.perf_counter() - start
    assert elapsed < 4.0, f"tl_evaluate of a 40-letter 10-strand word took {elapsed:.2f}s"
    assert len(raw) == 359
    assert hashlib.sha256(format_poly(raw).encode()).hexdigest() == (
        "ef34c5620c496d3acc1a7fd3eef0563c629ee8b84820a2ec4a24ff04f7001832"
    )
    assert sum(c for _, c in raw) == 2**40
    assert all(i + j == 40 for (i, j, _), _ in raw)


@contextlib.contextmanager
def recorded_closings():
    """The transfer pass's table closings, each call's arguments and result
    in call order, while the block runs."""
    calls: list = []

    def recording(*args):
        result = _close_strands(*args)
        calls.append((args, result))
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bracket3_module, "_close_strands", recording)
        yield calls


def test_poke_composition_locks_the_convention():
    # composing the two crossings of a move-II poke must give exactly
    # a*b on the identity matching and a^2+b^2+a*b*d on the cup-cap, each
    # times d per circle that closing both strands makes (2 and 1): the
    # table that the last letter leaves, each entry closed on its own
    word = parse_braid("braid:2:1,-1")
    with recorded_closings() as closings:
        raw = tl_transfer(word)
    ((matchings, table, strands, n, circle), _), = closings
    assert matchings == [_identity_matching(2), (1, 0, 3, 2)] and strands == (0, 1)

    def closed(m, packed):
        (one,) = _close_strands([m], [packed], strands, n, circle)[2]
        return _unpack(one, len(word.letters), raw.width, raw.k_a, raw.beta)

    assert [closed(m, packed) for m, packed in zip(matchings, table)] == [
        parse_poly("+a*b*d^2"), parse_poly("+a^2*d +b^2*d +a*b*d^2")]


@settings(max_examples=60, deadline=None)
@given(st.one_of(braid_words(max_strands=6, max_letters=10), negative_heavy_words(max_strands=6, max_pieces=4)))
@example(BraidWord(2, (-1, 1)))
@example(BraidWord(2, (1, -1)))
@example(BraidWord(3, (-1, -1, -2, -2)))
@example(BraidWord(4, (-2, 1, 3, -2, -2)))
@example(BraidWord(5, (1, -3, 3, 1, 2)))
@example(BraidWord(1, ()))
def test_tl_transfer_equals_a_build_one_state_at_a_time(word):
    # the pass's numbered matchings, cup-cap rows, free identity path,
    # pre-offset and closings must put each state's +1 where the state on its
    # own lands: in the table after each closing, slot alpha*j + beta*k of its
    # closed matching, with the pre-offset of the negative letters still ahead
    with recorded_closings() as closings:
        raw = tl_transfer(word)
    width, beta = raw.width, raw.beta
    last = state_oracle.last_letters(word)
    ahead = [sum(letter < 0 for letter in word.letters[t + 1:]) for t in sorted(set(last))]
    expected: list[dict] = [{} for _ in ahead]
    for table, snapshots, negatives in zip(expected, state_oracle.closing_snapshots(word), ahead):
        for m, j, k in snapshots:
            table[m] = table.get(m, 0) + (1 << width * ((beta + 1) * (j + negatives) + beta * k))
    assert [dict(zip(closed, merged)) for _, (closed, _, merged) in closings] == expected
    assert expected[-1] == {tuple(range(2 * word.strands)): raw.packed}


@settings(max_examples=60, deadline=None)
@given(negative_heavy_words())
@example(BraidWord(8, (-1, -2, -3, -4, -5, -6, -7) * 2))
@example(BraidWord(8, (-7, 7, -7, -1, 1, -4, -4)))
def test_tl_equals_naive_on_negative_heavy_words(word):
    assert tl_evaluate(word) == bracket3_raw(closure(word))


def doubled_letters(word: BraidWord) -> BraidWord:
    """Each letter twice: the second cup-cap of a pair splits a circle off."""
    return BraidWord(word.strands, tuple(letter for letter in word.letters for _ in range(2)))


@st.composite
def early_closing_words(draw, max_strands=9):
    """Words whose strands close before the last letter: runs of 1-4 letters,
    each on a window of positions, the windows moving left to right.  A
    window past the next position leaves the strands between them done, so
    they close together at the run's last letter, which may be the word's
    first; strands outside every window are never touched; 1-strand words
    have no letters."""
    n = draw(st.integers(min_value=1, max_value=max_strands))
    letters: list[int] = []
    lo = 1
    while lo < n and draw(st.booleans()):
        hi = draw(st.integers(min_value=lo, max_value=n - 1))
        letter = st.integers(min_value=lo, max_value=hi).flatmap(lambda i: st.sampled_from([i, -i]))
        letters += draw(st.lists(letter, min_size=1, max_size=4))
        lo = draw(st.integers(min_value=hi, max_value=n))
    return BraidWord(n, tuple(letters))


def all_negative(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple(-abs(letter) for letter in word.letters))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    early_closing_words(),
    early_closing_words().map(all_negative),
    early_closing_words().map(doubled_letters),
    negative_heavy_words(),
))
@example(BraidWord(1, ()))
@example(BraidWord(6, (2, 4, -4)))  # strands 0 and 5 untouched, strands 1 and 2 closed by the first letter
@example(BraidWord(6, (-2, -2, -5, -5, 5)))  # strands 0 and 3 untouched, 1 and 2 closed mid-word
@example(BraidWord(4, (1, -3, -3)))  # the first letter closes strands 0 and 1, then down shifts follow
@example(BraidWord(4, (-1, -1, -3, -3, -2, -2)))  # doubled negative letters, one strand closed at a time
def test_tl_equals_naive_where_strands_close_early(word):
    # the closings of the transfer pass at their edges: untouched strands,
    # one strand, several strands at one letter, a strand closed by the
    # first letter, down shifts after a closing's up shift, doubled letters
    assert tl_evaluate(word) == bracket3_raw(closure(word))


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    braid_words(max_strands=9, max_letters=14),
    negative_heavy_words(max_strands=9),
    braid_words(max_strands=9, max_letters=7).map(doubled_letters),
))
@example(BraidWord(1, ()))
@example(BraidWord(9, ()))
@example(BraidWord(3, (1, 1, -2, -2, 1, -1)))
def test_carried_closure_counts_equal_the_closure_walk(word):
    # every strand closing, in the pass and in its extreme-state walks, must
    # leave the matching and close the circles that a walk over the closed
    # points finds; the name is kept from the closure counts the pass
    # carried before it closed strands one by one
    calls: list = []

    def recording(m, strands, n):
        before = tuple(m)
        circles = _close(m, strands, n)
        calls.append((before, tuple(strands), n, tuple(m), circles))
        return circles

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bracket3_module, "_close", recording)
        tl_transfer(word)
    assert calls
    for before, strands, n, after, circles in calls:
        assert (after, circles) == state_oracle.close_strands(before, n, set(strands))


@st.composite
def packed_slots(draw):
    """Counts in 0-300 slots of 1-40 bits: runs of empty slots, each ended by a
    count (full width at times), and the first slot set or left empty."""
    width = draw(st.integers(min_value=1, max_value=40))
    full = (1 << width) - 1
    count = st.one_of(st.just(full), st.integers(min_value=1, max_value=full))
    slots: list[int] = []
    for zeros, c in draw(st.lists(st.tuples(st.integers(min_value=0, max_value=60), count), max_size=40)):
        slots += [0] * zeros + [c]
    slots = slots[:300]
    if slots and draw(st.booleans()):
        slots[0] = draw(count)
    return width, slots


@settings(max_examples=200, deadline=None)
@given(packed_slots(), st.integers(min_value=0, max_value=40), st.integers(min_value=0, max_value=6),
       st.integers(min_value=0, max_value=6))
@example((40, [(1 << 40) - 1] * 300), 40, 2, 5)
@example((1, [1] + [0] * 298 + [1]), 0, 0, 0)
@example((7, []), 3, 1, 1)
def test_unpack_matches_the_string_reader(layout, n, k_a, beta):
    width, slots = layout
    packed = sum(c << s * width for s, c in enumerate(slots))
    got = _unpack(packed, n, width, k_a, beta)
    # the same terms in the same (slot) order, one per nonempty slot
    assert list(got.terms.items()) == list(state_oracle.unpack_string(packed, n, width, k_a, beta).terms.items())
    assert sorted(got.terms.values()) == sorted(c for c in slots if c)


def peak_closed_matchings(word: BraidWord) -> int:
    """The most distinct matchings that the states reach after any one
    letter, with every strand whose last letter is before it closed: one
    state at a time."""
    n, last = word.strands, state_oracle.last_letters(word)
    after: list[set] = [set() for _ in word.letters]
    for state in itertools.product((0, 1), repeat=len(word.letters)):
        m = _identity_matching(n)
        for t, (letter, cup) in enumerate(zip(word.letters, state)):
            if cup:
                m = state_oracle.apply_cupcap(m, n + abs(letter) - 1, n + abs(letter))[0]
            after[t].add(state_oracle.close_strands(m, n, {s for s in range(n) if last[s] < t})[0])
    return max([1] + [len(reached) for reached in after])


def test_tl_transfer_is_called_once_per_evaluation(monkeypatch):
    # the traced benchmark counts calls of the module attribute and reads the
    # result's length as the number of matchings carried, the most after any
    # one letter
    lengths: list[int] = []

    def counting(word):
        raw = tl_transfer(word)
        lengths.append(len(raw))
        return raw

    monkeypatch.setattr(bracket3_module, "tl_transfer", counting)
    for text, peak in (("braid:2:1,-1", 2), ("braid:3:1,-2,1,-2", 5), ("braid:4:1,2,-3,-1,2,3,-2,1,-3", 14),
                       ("braid:5:1,3,1,4,-4", 4), ("braid:3:", 1)):
        word = parse_braid(text)
        lengths.clear()
        tl_evaluate(word)
        raw_bracket(word, "tl")
        assert lengths == [peak, peak] == [peak_closed_matchings(word)] * 2, text


#: Words on 1-9 strands for the letter-order plan, many of them at or above
#: its floor, where it runs.
plan_words = st.one_of(
    braid_words(max_strands=9, max_letters=18, min_strands=_TL_PLAN_FLOOR),
    braid_words(max_strands=9, max_letters=14),
    negative_heavy_words(max_strands=9),
    braid_words(max_strands=9, max_letters=8, min_strands=_TL_PLAN_FLOOR).map(doubled_letters),
)


def on_positions(letters, positions: set[int]) -> list[int]:
    return [letter for letter in letters if abs(letter) in positions]


@settings(max_examples=80, deadline=None)
@given(plan_words)
@example(BraidWord(1, ()))
@example(parse_braid("braid:8:-4,-1,-3,7,2,7,-1,6,-2,4,-5,-6,-4,1,6,5,5,3,-3,1,-7,2"))
@example(BraidWord(9, (-8, -8, 1, 1, -8, -8, 5, -5)))
def test_tl_evaluate_in_the_planned_order_equals_the_frontier_pass(word):
    assert tl_evaluate(word) == bracket3_raw(closure(word))


@settings(max_examples=150, deadline=None)
@given(plan_words)
@example(BraidWord(1, ()))
@example(parse_braid("braid:6:1,2,3,4,5"))
@example(parse_braid("braid:8:3,-1,2,7,2,-4,-7,1,-3,1,-5,6,-4,-7,3,2,-5,-5,6,6,1,-4"))
def test_letter_order_is_a_rotation_then_far_commutations(word):
    # Cartier & Foata: two words are equal up to swaps of letters two or more
    # positions apart exactly when their letters on every position p, and on
    # every pair p, p + 1, come in the same order
    letters, order = word.letters, _letter_order(word)
    pairs = [{p} for p in range(1, word.strands)] + [{p, p + 1} for p in range(1, word.strands)]
    shifts = [letters[s:] + letters[:s] for s in range(max(len(letters), 1))]
    assert any(all(on_positions(order, q) == on_positions(rotated, q) for q in pairs) for rotated in shifts)


def test_words_below_the_plan_floor_reach_the_transfer_pass_as_given(monkeypatch):
    passed: list[BraidWord] = []
    monkeypatch.setattr(bracket3_module, "tl_transfer", lambda word: passed.append(word) or tl_transfer(word))
    wide = parse_braid("braid:5:4,-4,1,2,3,4,-1,-2")
    with monkeypatch.context() as lowered:  # the floor alone keeps this word's order
        lowered.setattr(bracket3_module, "_TL_PLAN_FLOOR", 2)
        assert _letter_order(wide) != wide.letters
    # the last word is above the floor, with an order the plan cannot improve
    for text in ("braid:1:", "braid:2:1,-1,1", "braid:3:1,-2,1,-2", wide.text, "braid:7:3,-3,3"):
        word = parse_braid(text)
        passed.clear()
        tl_evaluate(word)
        assert len(passed) == 1 and passed[0] is word, text


#: The 8-strand words of the bench's ``words`` workload, with the table
#: lengths of the transfer pass summed over their letters, in the given
#: order and in the planned one.
EIGHT_STRAND_BENCH_WORDS = (
    ("braid:8:-4,-1,-3,7,2,7,-1,6,-2,4,-5,-6,-4,1,6,5,5,3,-3,1,-7,2", 2822, 295),
    ("braid:8:-5,-5,-1,2,6,-6,2,-1,-3,-4,3,7,-4,-1,2,-3,4,6,-5,7,-7,1", 1816, 372),
    ("braid:8:3,-1,2,7,2,-4,-7,1,-3,1,-5,6,-4,-7,3,2,-5,-5,6,6,1,-4", 2520, 489),
)


def test_planned_order_shrinks_the_tables_of_the_eight_strand_bench_words(monkeypatch):
    passed: list[BraidWord] = []
    monkeypatch.setattr(bracket3_module, "tl_transfer", lambda word: passed.append(word) or tl_transfer(word))
    for text, given, planned in EIGHT_STRAND_BENCH_WORDS:
        word = parse_braid(text)
        tl_evaluate(word)
        summed = [sum(tl_transfer(w).sizes[1:]) for w in (word, passed[-1])]
        assert summed == [given, planned] and planned <= 0.8 * given, text


def test_raw_bracket_engine_dispatch(corpus):
    trefoil = corpus["trefoil"]
    naive = raw_bracket(closure(trefoil), "naive")
    assert raw_bracket(trefoil, "tl") == naive
    with pytest.raises(ValueError):
        raw_bracket(closure(trefoil), "tl")
    with pytest.raises(ValueError):
        raw_bracket(trefoil, "warp")


# -- regular isotopy ----------------------------------------------------------------------

@pytest.mark.parametrize("text", ["braid:3:1,-2", "braid:2:1,1", "braid:2:1,1,1", "braid:3:1,-2,1,-2"])
def test_bracket3_invariant_under_rewrites(text):
    # the `verify moves` inputs, with both engines' raw sums checked equal
    word = parse_braid(text)
    reference = normal_form(tl_evaluate(word))
    for seed in range(25):
        variant = rewrite_moves(word, seed=seed, count=10)
        raw = tl_evaluate(variant)
        assert raw == bracket3_raw(closure(variant)), variant.text
        assert normal_form(raw) == reference


def test_bracket3_invariant_under_conjugation(corpus):
    # braid conjugation preserves the closure up to moves II and III; checked
    # separately from the insertion/relation rewrites
    for name, word in corpus.items():
        reference = normal_form(tl_evaluate(word))
        for g in range(1, word.strands):
            for sign in (1, -1):
                variant = conjugate(word, sign * g)
                raw = tl_evaluate(variant)
                assert raw == bracket3_raw(closure(variant)), variant.text
                assert normal_form(raw) == reference, name


def test_rii_padded_trefoil_matches():
    plain = parse_braid("braid:2:1,1,1")
    padded = parse_braid("braid:2:1,1,-1,1,1")
    assert bracket3(closure(plain)) == bracket3(closure(padded))


# -- ambient normalization --------------------------------------------------------------

def test_ambient3_of_unknot_presentations_all_delta():
    for text in ("braid:1:", "braid:2:1", "braid:2:-1", "braid:3:1,2", "braid:3:-1,-2"):
        assert ambient3(closure(parse_braid(text))) == DELTA, text


def test_ambient3_stable_under_stabilization():
    trefoil = parse_braid("braid:2:1,1,1")          # writhe 3
    stabilized = add_kink(trefoil, 1)                # writhe 4
    destabilized = add_kink(trefoil, -1)             # writhe 2
    reference = ambient3(closure(trefoil))
    assert ambient3(closure(stabilized)) == reference
    assert ambient3(closure(destabilized)) == reference


def test_ambient3_on_rii_padded_words():
    plain = parse_braid("braid:2:1,1,1")
    padded = parse_braid("braid:2:1,1,-1,1,1")
    assert ambient3(closure(plain)) == ambient3(closure(padded))


def test_ambient3_distinguishes_unknot_from_trefoil():
    assert ambient3(closure(parse_braid("braid:2:1,1,1"))) != DELTA


def test_circle_factor_variant_reported_separately():
    d = closure(parse_braid("braid:2:1,1,1"))
    plain = ambient3(d)
    variant = ambient3_with_circle_factors(d)
    assert variant == remainder(DELTA**3 * plain, BASIS)
    assert variant == normal_form((CURL_MINUS * DELTA) ** 3 * bracket3_raw(d))  # curls with circles
    assert variant != plain  # the variant keeps one circle factor per curl
    unknot = closure(parse_braid("braid:1:"))
    assert ambient3_with_circle_factors(unknot) == ambient3(unknot)  # writhe 0


def mirror_word(word: BraidWord) -> BraidWord:
    return BraidWord(word.strands, tuple(-letter for letter in word.letters))


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=4, max_letters=8), st.integers(min_value=0, max_value=2))
def test_circle_variant_is_normal_without_reduction(word, loops):
    # untouched strands and the extra loops are free circles
    for w in (word, mirror_word(word)):
        d = closure(w)
        d = Diagram(d.crossings, d.free_loops + loops)
        amb, k = ambient3(d), writhe(d)
        assert circle_variant(amb, k) == remainder(DELTA ** abs(k) * amb, BASIS), w.text


def test_circle_variant_is_normal_without_reduction_on_every_table_entry(monkeypatch):
    entries = load_table(bundled_table_path()).entries
    assert any(e.word is None for e in entries)  # PD entries are covered
    cases = []
    for e in entries:
        words = [] if e.word is None else [e.word, mirror_word(e.word)]
        raws = [(tl_evaluate(w), writhe(closure(w))) for w in words] or [(bracket3_raw(e.diagram), e.writhe)]
        for raw, w in raws:
            amb = state_oracle.ambient_from_normal(normal_form(raw), w)
            cases.append((e.name, amb, w, remainder(DELTA ** abs(w) * amb, BASIS)))

    def forbidden(p):
        raise AssertionError("circle_variant reduced")

    monkeypatch.setattr(bracket3_module, "normal_form", forbidden)
    for name, amb, w, expected in cases:
        assert circle_variant(amb, w) == expected, name


# -- ambient3 against its definition --------------------------------------------------------

def production_ambient3(text: str) -> set[str]:
    """ambient3 of one presentation as each production path lifts it:
    :func:`ambient3`, the search record through each engine that takes the
    input, and the ``bracket3`` command."""
    entry = parse_presentation(text)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["bracket3", text, "--json"]) == 0
    values = {format_poly(ambient3(entry.diagram)), compute_record(entry).ambient3_text,
              json.loads(out.getvalue())["ambient3"]}
    if entry.word is not None:
        values.add(compute_record(entry, "tl").ambient3_text)
    return values


def assert_ambient3_is_the_padded_normal_form(text: str) -> None:
    """Every production ambient3 is the definition: the normal form padded
    with one opposite-sign curl factor per unit of writhe."""
    entry = parse_presentation(text)
    padded = state_oracle.ambient_from_normal(normal_form(bracket3_raw(entry.diagram)), entry.writhe)
    assert production_ambient3(text) == {format_poly(padded)}, text


def assert_normal_form_is_the_remainder(text: str) -> None:
    """The residue rule of ``normal_form`` against the general reducer, on
    the raw sum and on that sum padded with one curl per unit of writhe."""
    entry = parse_presentation(text)
    raw = bracket3_raw(entry.diagram)
    padded = (CURL_MINUS if entry.writhe > 0 else CURL_PLUS) ** abs(entry.writhe) * raw
    for p in (raw, padded):
        assert normal_form(p) == remainder(p, BASIS), text


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=5, max_letters=10))
@example(BraidWord(2, ()))
@example(BraidWord(3, (1, 1, -2)))
@example(BraidWord(12, (1, 1, -5, 11)))  # eight free circles
def test_ambient3_is_the_padded_normal_form_on_braids_and_mirrors(word):
    # untouched strands are free circles
    for w in (word, mirror_word(word)):
        assert_ambient3_is_the_padded_normal_form(w.text)
        assert_normal_form_is_the_remainder(w.text)


@st.composite
def split_pd_texts(draw) -> str:
    """PD text of one or two shuffled, relabelled closures side by side, the
    second one's labels past the first one's, with up to two more free
    circles beyond their untouched strands."""
    crossings: list = []
    loops = draw(st.integers(min_value=0, max_value=2))
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        _, d = draw(pd_codes(max_strands=4, max_letters=7))
        offset = 2 * len(crossings)
        crossings += [tuple(label + offset for label in quad) for quad in d.crossings]
        loops += d.free_loops
    return pd_code(tuple(crossings))[:-1] + ",O" * loops + "]"


@settings(max_examples=40, deadline=None)
@given(split_pd_texts())
@example("PD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2),O]")
@example("PD[X(1,1,2,2),X(3,4,4,3),O,O]")
def test_ambient3_is_the_padded_normal_form_on_pd_codes_with_free_loops_and_split_pieces(text):
    assert_ambient3_is_the_padded_normal_form(text)
    assert_normal_form_is_the_remainder(text)


def test_ambient3_is_the_padded_normal_form_on_every_table_entry_and_mirror():
    entries = load_table(bundled_table_path()).entries
    assert any(e.word is None for e in entries)  # PD entries are covered
    for e in entries:
        assert_ambient3_is_the_padded_normal_form(e.presentation)
        assert_normal_form_is_the_remainder(e.presentation)
        if e.word is not None:
            assert_ambient3_is_the_padded_normal_form(mirror_word(e.word).text)
            assert_normal_form_is_the_remainder(mirror_word(e.word).text)


@pytest.mark.parametrize("n", [1, 2, 3, 64, 127, 200])
def test_ambient3_is_the_padded_normal_form_on_two_strand_torus_links(n):
    for letter in ("1", "-1"):
        assert_ambient3_is_the_padded_normal_form("braid:2:" + ",".join([letter] * n))


# -- specialization bridge ------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    ["braid:1:", "braid:2:1", "braid:2:1,1", "braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:2:1,1,1,1,1"],
)
def test_specialization_bridge(text):
    d = closure(parse_braid(text))
    assert specialize_classical(bracket3(d)) == CIRCLE * state_oracle.kauffman_bracket(d)


@settings(max_examples=25, deadline=None)
@given(braid_words(max_strands=3, max_letters=7))
def test_specialization_bridge_random(word):
    d = closure(word)
    assert specialize_classical(bracket3(d)) == CIRCLE * state_oracle.kauffman_bracket(d)


# -- classical readouts from the raw sum ------------------------------------------------------

def assert_classical_readouts_from_raw(d: Diagram) -> None:
    bracket = bracket_from_raw(bracket3_raw(d))
    assert bracket == state_oracle.kauffman_bracket(d)
    assert writhe_normalize(bracket, writhe(d)) == state_oracle.f_invariant(d)


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=3, max_letters=8))
def test_classical_readouts_fold_out_of_the_raw_sum(word):
    assert_classical_readouts_from_raw(closure(word))


def test_classical_readouts_fold_out_of_the_raw_sum_on_table_pd_entries():
    pd_entries = [e for e in load_table(bundled_table_path()).entries if e.word is None]
    assert pd_entries
    for e in pd_entries:
        assert_classical_readouts_from_raw(e.diagram)


# -- interleaved reduction --------------------------------------------------------------------

@settings(max_examples=25, deadline=None)
@given(braid_words(max_strands=3, max_letters=6), st.integers(min_value=1, max_value=7))
def test_chunked_reduction_equals_reduce_at_end(word, chunk):
    # the remainder by the basis is linear, so reducing partial sums early
    # must not change the final answer, the normal form of the raw sum
    raw = bracket3_raw(closure(word))
    terms = list(raw.terms.items())
    partial = Polynomial.zero()
    for start in range(0, len(terms), chunk):
        partial = remainder(partial + Polynomial(dict(terms[start:start + chunk])), BASIS)
    assert partial == normal_form(raw)


def test_padded_torus_30_normal_form_is_fast():
    # the padded input of T(2,30) is 31 raw terms times (a + b*d)^30; normal
    # form once took over a minute here, because division rebuilt a whole
    # quotient polynomial on every step; on a 2-core machine (Python 3.11) one
    # step per term took 16-21 ms, Horner in a and two folds 8-9 ms
    raw = tl_evaluate(parse_braid("braid:2:" + ",".join(["1"] * 30)))
    start = time.perf_counter()
    amb = state_oracle.ambient_from_normal(normal_form(raw), 30)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"padded T(2,30) normal form took {elapsed:.2f}s"
    assert is_normal(amb)
    assert specialize_classical(amb) == CIRCLE * writhe_normalize(bracket_from_raw(raw), 30)


def test_padded_torus_60_reduces_per_curl_factor_fast():
    # on a 2-core machine (Python 3.11), with Horner in a and two folds: one
    # reduction per curl factor 0.04-0.07 s, the one-call reference
    # 0.06-0.11 s (0.08-0.10 s and 0.18-0.27 s with one heap step per term,
    # 0.12-0.20 s and 0.45-0.76 s with the heap-ordered remainder loop)
    raw = tl_evaluate(parse_braid("braid:2:" + ",".join(["1"] * 60)))
    start = time.perf_counter()
    amb = state_oracle.ambient_from_normal(normal_form(raw), 60)
    elapsed = time.perf_counter() - start
    assert elapsed < 2.0, f"padded T(2,60) normal form took {elapsed:.2f}s"
    start = time.perf_counter()
    reference = normal_form(CURL_MINUS**60 * raw)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.5, f"padded T(2,60) one-call normal form took {elapsed:.2f}s"
    assert amb == reference
