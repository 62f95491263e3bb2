"""Braid and PD parsing, closures, orientation, smoothing, rewrites."""

import itertools
import re
import time
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conftest import braid_words, cycle_count, every_arrangement, label_arrangements, pd_code, pd_codes, permutation
from qbracket.bracket3 import bracket3_raw
from qbracket.diagram import (
    BraidWord,
    Diagram,
    DiagramError,
    Orientation,
    add_kink,
    check_planar,
    closure,
    components,
    conjugate,
    orient,
    parse_braid,
    parse_pd,
    pd_text,
    rewrite_moves,
    writhe,
)
from state_oracle import resolve_state, resolve_state_walk, state_from_index


# -- braid parsing --------------------------------------------------------------

def test_parse_braid_round_trips():
    for text in ("braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:1:", "braid:4:3,-1,2"):
        assert parse_braid(text).text == text


def test_parse_braid_rejects_out_of_range_letter():
    with pytest.raises(DiagramError, match="position 0"):
        parse_braid("braid:2:3,1")


def test_parse_braid_rejects_zero_letter_and_bad_counts():
    with pytest.raises(DiagramError):
        parse_braid("braid:2:0")
    with pytest.raises(DiagramError):
        parse_braid("braid:0:")
    with pytest.raises(DiagramError):
        parse_braid("braid:2:x")
    with pytest.raises(DiagramError):
        parse_braid("bride:2:1")


@pytest.mark.parametrize("text", ["braid:2:\u0661", "braid:2:1_0", "braid:3:1,-\u0662", "braid:\u0662:1", "braid:1_0:1"])
def test_parse_braid_reads_ascii_digits_only(text):
    # int() alone reads Arabic-Indic digits and underscore separators, so one
    # word had two texts and two cache keys
    with pytest.raises(DiagramError, match="ASCII digits"):
        parse_braid(text)


def test_parse_braid_keeps_signs_and_spaces_around_letters():
    assert parse_braid("braid:+3: +1 , -2").letters == (1, -2)


def test_writhe_is_letter_sign_sum():
    assert parse_braid("braid:2:1,1,1").writhe == 3
    assert parse_braid("braid:2:1,-1").writhe == 0
    assert parse_braid("braid:3:-1,-2,-1").writhe == -3


# -- closures ---------------------------------------------------------------------

def test_closure_counts_components_by_permutation_cycles():
    assert components(closure(parse_braid("braid:2:1,1"))) == 2   # Hopf link
    assert components(closure(parse_braid("braid:2:1,1,1"))) == 1  # trefoil
    assert components(closure(parse_braid("braid:1:"))) == 1       # unknot circle
    assert components(closure(parse_braid("braid:3:"))) == 3


#: Closure codes pinned as first written: labels run along each component
#: from its lowest strand position, and unused strands are free circles.
PINNED_CLOSURES = {
    "braid:2:1": "PD[X(1,1,2,2)]",
    "braid:3:": "PD[O,O,O]",
    "braid:5:2,-3,2": "PD[X(1,2,2,3),X(3,6,4,5),X(6,1,5,4),O,O]",
    "braid:3:-1,2,-1,2": "PD[X(2,6,3,5),X(4,7,5,8),X(6,2,7,1),X(8,3,1,4)]",
    "braid:4:1,2,3,1": "PD[X(3,3,4,2),X(4,2,5,1),X(5,8,6,7),X(8,1,7,6)]",
    "braid:6:-4,-4,-4,2": "PD[X(1,1,2,2),X(4,7,5,8),X(6,3,7,4),X(8,5,3,6),O,O]",
    "braid:4:1,-3,1,-3": "PD[X(1,4,2,3),X(4,1,3,2),X(6,8,5,7),X(7,5,8,6)]",
    "braid:4:1,2,-3,3": "PD[X(2,8,3,7),X(3,8,4,7),X(4,2,5,1),X(5,1,6,6)]",
}


def test_closure_crossing_count_equals_letter_count():
    w = parse_braid("braid:3:1,-2,1,-2")
    assert closure(w).n == 4
    for text, pd in PINNED_CLOSURES.items():
        word = parse_braid(text)
        assert closure(word).n == len(word.letters)
        assert pd_text(closure(word)) == pd, text


def test_long_closure_is_linear_time():
    # each strand position's next crossing up is looked up, not rescanned
    word = BraidWord(3, (1, -2, 2, 1, -1, -2, 2, 2) * 2000)
    start = time.perf_counter()
    d = closure(word)
    elapsed = time.perf_counter() - start
    assert d.n == 16_000
    assert writhe(d) == word.writhe and components(d) == cycle_count(word)
    assert elapsed < 1.0, f"closing a 16,000-letter word took {elapsed:.2f}s"


def test_closure_single_positive_kink_is_the_one_crossing_kink_code():
    assert closure(parse_braid("braid:2:1")).crossings == ((1, 1, 2, 2),)


def test_closure_writhe_matches_letter_signs():
    for text in ("braid:2:1,1,1", "braid:2:-1,-1,-1", "braid:3:1,-2,1,-2", "braid:4:1,2,-3,3"):
        word = parse_braid(text)
        assert writhe(closure(word)) == word.writhe


@settings(max_examples=60, deadline=None)
@given(braid_words())
def test_closure_invariants_random_words(word):
    d = closure(word)
    assert d.n == len(word.letters)
    assert components(d) == cycle_count(word)
    assert writhe(d) == word.writhe


# -- PD parsing and orientation ------------------------------------------------------

def test_parse_pd_hopf_presentation():
    d = parse_pd("PD[X(1,4,2,3),X(3,2,4,1)]")
    assert d.n == 2
    assert components(d) == 2


def test_parse_pd_one_crossing_kink():
    d = parse_pd("PD[X(1,1,2,2)]")
    assert d.n == 1
    assert components(d) == 1
    assert writhe(d) in (-1, 1)


def test_parse_pd_rejects_single_occurrences():
    with pytest.raises(DiagramError, match="occurs 1"):
        parse_pd("PD[X(1,2,3,4)]")


def test_parse_pd_rejects_bad_labels_and_syntax():
    with pytest.raises(DiagramError):
        parse_pd("PD[X(1,1,3,3)]")  # labels must cover 1..2n
    with pytest.raises(DiagramError):
        parse_pd("PD[X(1,1,2,2]")
    with pytest.raises(DiagramError):
        parse_pd("X(1,1,2,2)")
    # the walk from crossing 0 enters crossing 1 at slot c, where its
    # under-strand leaves, so arc 3 would leave two crossings
    with pytest.raises(DiagramError, match="arc 3 leaves two crossings"):
        parse_pd("PD[X(1,4,4,3),X(2,2,3,1)]")
    # the trefoil with labels 1 and 2 swapped: orientable, but labels drop twice
    with pytest.raises(DiagramError, match="do not increase"):
        parse_pd("PD[X(2,4,1,5),X(3,6,4,2),X(5,1,6,3)]")
    # \d alone reads an Arabic-Indic one as the trefoil's arc 1
    with pytest.raises(DiagramError, match="ASCII digits"):
        parse_pd("PD[X(\u0661,5,2,4),X(3,1,4,6),X(5,3,6,2)]")


def test_parse_pd_refuses_a_code_that_only_a_torus_can_hold():
    # orientable, but its faces (cycles of "along the arc, then turn to the
    # next slot") number 2, where two crossings in one piece bound 4 in the
    # plane; the check is the Diagram's own, so no engine is handed the code
    message = "not a planar diagram: 2 crossings in 1 connected piece(s) bound 2 faces, where the plane has 4"
    with pytest.raises(DiagramError, match=re.escape(message)):
        parse_pd("PD[X(4,2,1,3),X(3,2,4,1)]")
    with pytest.raises(DiagramError, match=re.escape(message)):
        bracket3_raw(Diagram(((4, 2, 1, 3), (3, 2, 4, 1))))
    # two disjoint kinks are two pieces, 1 + 2 faces each
    check_planar(parse_pd("PD[X(1,1,2,2),X(3,4,4,3)]"))


def test_parse_pd_accepts_only_the_planar_two_crossing_codes():
    # of the 2,520 placements of the labels 1..4 on two crossings, 960 are
    # planar, and 120 of those orient; the state-sum layout needs planarity
    accepted, refused = 0, Counter()
    for crossings in every_arrangement(2):
        try:
            parse_pd(pd_code(crossings))
        except DiagramError as exc:
            refused["planar" if str(exc).startswith("not a planar diagram: 2 crossings") else "orient"] += 1
        else:
            accepted += 1
    assert (accepted, refused["planar"], refused["orient"]) == (120, 1560, 840)


def test_parse_pd_accepts_whitespace_and_free_circles():
    d = parse_pd(" PD[ X(1,1,2,2) , O , O ] ")
    assert d.n == 1 and d.free_loops == 2


def test_pd_round_trip_through_text():
    # pd_text sorts crossings, so compare semantically: same canonical text,
    # same orientation data
    for text in ("braid:2:1,1,1", "braid:3:1,-2,1,-2", "braid:4:1,2,3,1"):
        d = closure(parse_braid(text))
        again = parse_pd(pd_text(d))
        assert pd_text(again) == pd_text(d)
        assert sorted(again.crossings) == sorted(d.crossings)
        assert writhe(again) == writhe(d)
        assert components(again) == components(d)


def test_empty_diagram_rejected():
    with pytest.raises(DiagramError):
        Diagram((), 0)


def test_standard_table_trefoil_code_parses_with_writhe_three():
    d = parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]")
    assert components(d) == 1
    assert abs(writhe(d)) == 3


def test_over_only_component_with_cancelling_signs_is_accepted():
    # one component of this closure passes over both shared crossings; its
    # direction cannot be read off the labels, but both choices agree on the
    # writhe, so the diagram is accepted
    word = parse_braid("braid:4:1,2,-3,3")
    d = closure(word)
    assert writhe(d) == word.writhe
    assert components(d) == cycle_count(word)
    # strand 1 passes over all four crossings; with more than two arcs its
    # labels fix its direction, so every sign is its letter's
    d = closure(parse_braid("braid:3:1,2,-2,-1"))
    assert orient(d) == Orientation((1, 1, -1, -1), 3)


@settings(max_examples=80, deadline=None)
@given(pd_codes())
def test_orient_reads_shuffled_and_relabelled_closures(case):
    word, d = case
    assert writhe(d) == word.writhe
    assert components(d) == cycle_count(word)
    check_planar(d)  # closures are planar, however shuffled and relabelled


@settings(max_examples=500, deadline=None)
@given(label_arrangements())
def test_orient_answers_or_raises_diagram_error_on_any_labels(crossings):
    try:
        d = Diagram(crossings)
    except DiagramError as exc:
        assert str(exc).startswith("not a planar diagram"), crossings
        return
    try:
        orientation = orient(d)
    except DiagramError:
        return
    assert isinstance(orientation, Orientation)
    assert len(orientation.signs) == d.n and set(orientation.signs) <= {1, -1}


def test_over_only_component_with_writhe_ambiguity_is_rejected():
    # a clasp whose over-only component would make the diagram the positive
    # or the negative Hopf link depending on an unrecorded orientation.  In
    # the plane, the two crossings of a two-arc over-only component are with
    # one other component, which enters and leaves the disc it bounds, so
    # their signs cancel: a clasp whose signs agree fits only on a torus
    message = "not a planar diagram: 2 crossings in 1 connected piece(s) bound 2 faces, where the plane has 4"
    with pytest.raises(DiagramError, match=re.escape(message)):
        parse_pd("PD[X(1,3,2,4),X(2,4,1,3)]")


# -- state resolution (the test-side oracles) -------------------------------------------

def test_zero_crossing_circle_resolves_to_one_loop():
    d = closure(parse_braid("braid:1:"))
    assert resolve_state(d, ()) == 1


def test_trefoil_extreme_states_give_two_and_three_loops():
    d = closure(parse_braid("braid:2:1,1,1"))
    all_a = resolve_state(d, (0, 0, 0))
    all_b = resolve_state(d, (1, 1, 1))
    # the all-vertical state closes to two circles, the all-cup-cap to three
    assert (all_a, all_b) == (2, 3)


def test_hopf_mixed_states_give_one_loop():
    d = closure(parse_braid("braid:2:1,1"))
    assert resolve_state(d, (0, 1)) == 1
    assert resolve_state(d, (1, 0)) == 1


def test_state_length_validated():
    d = closure(parse_braid("braid:2:1,1"))
    with pytest.raises(ValueError):
        resolve_state(d, (0,))


@settings(max_examples=40, deadline=None)
@given(braid_words(max_strands=4, max_letters=8))
def test_union_find_agrees_with_walking_tracer(word):
    d = closure(word)
    for index in range(1 << min(d.n, 8)):
        state = state_from_index(index, d.n)
        assert resolve_state(d, state) == resolve_state_walk(d, state)


def test_tracer_agreement_on_pd_inputs():
    d = parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]")
    for state in itertools.product((0, 1), repeat=3):
        assert resolve_state(d, state) == resolve_state_walk(d, state)


# -- rewrites -----------------------------------------------------------------------------

def test_rewrite_zero_count_is_identity():
    b = parse_braid("braid:2:1,1,1")
    assert rewrite_moves(b, seed=7, count=0) == b


def test_rewrite_moves_preserve_writhe_strands_and_components():
    for seed in range(30):
        b = parse_braid("braid:3:1,-2,1,-2")
        out = rewrite_moves(b, seed=seed, count=15)
        assert out.strands == b.strands
        assert out.writhe == b.writhe
        assert cycle_count(out) == cycle_count(b)


def test_rewrite_moves_deterministic():
    b = parse_braid("braid:3:1,2,1")
    assert rewrite_moves(b, seed=123, count=20) == rewrite_moves(b, seed=123, count=20)
    assert rewrite_moves(b, seed=123, count=20) != rewrite_moves(b, seed=124, count=20)


def test_rewrite_moves_change_the_word():
    b = parse_braid("braid:2:1,1,1")
    # with enough rewrites at least one insertion lands
    assert rewrite_moves(b, seed=1, count=10) != b


def test_rewrite_on_one_strand_word_is_noop():
    b = parse_braid("braid:1:")
    assert rewrite_moves(b, seed=5, count=10) == b


#: (word, seed, count, rewritten word): the draw sequence pinned on 1-6
#: strands, taken before the draws were written inline.  On 2 strands only
#: the pair moves apply, on 3 the braid relation too, and from 4 strands far
#: commutation as well.
REWRITE_TABLE = [
    ("braid:1:", 4, 3, "braid:1:"),
    ("braid:2:1,1,1", 3, 12, "braid:2:1,1,1"),
    ("braid:2:-1", 11, 20, "braid:2:1,-1,-1,1,-1,1,-1,1,-1,1,-1,1,-1,-1,1,1,-1"),
    ("braid:3:1,-2", 3, 12, "braid:3:1,-2"),
    ("braid:3:1,-2,1,-2", 7, 12, "braid:3:1,-2,1,2,-2,-1,1,-2,-1,1,1,-1"),
    ("braid:3:2,2,-1", 123, 25, "braid:3:2,2,-1,1,-1"),
    ("braid:3:1,2,1", 0, 8, "braid:3:2,1,2,1,-1"),
    ("braid:3:-2,-1,-2,1", 3, 8, "braid:3:-1,-2"),
    ("braid:4:1,3,-2", 5, 15, "braid:4:3,-3,3,1,-2,2,-1,-1,1,1,-2"),
    ("braid:5:1,-2,3,-4,2", 9, 12, "braid:5:1,-2,3,2,-2,2,-4"),
    ("braid:5:1,2,1,3,4,-3", 42, 30, "braid:5:-4,4,2,1,2,3,-4,4,-1,1,4,-3"),
    ("braid:6:5,-1,2,4", 2, 18, "braid:6:-1,5,-5,1,-2,5,5,-1,1,-1,-5,-2,-4,-3,3,1,4,2,2,4"),
    ("braid:6:1,2,3,4,5,1", 17, 40, "braid:6:1,2,3,4,1,5,-3,-1,3,1"),
]


@pytest.mark.parametrize("text, seed, count, expected", REWRITE_TABLE)
def test_rewrite_moves_draw_sequence_is_pinned(text, seed, count, expected):
    assert rewrite_moves(parse_braid(text), seed=seed, count=count).text == expected


@settings(max_examples=40, deadline=None)
@given(braid_words(), st.integers(min_value=0, max_value=2**63), st.integers(min_value=0, max_value=20))
def test_rewrite_moves_invariants_random(word, seed, count):
    out = rewrite_moves(word, seed=seed, count=count)
    assert out.strands == word.strands
    assert out.writhe == word.writhe
    assert permutation(out) == permutation(word)


# -- kinks and conjugation ---------------------------------------------------------------

def test_add_kink_examples():
    assert add_kink(parse_braid("braid:1:"), 1) == parse_braid("braid:2:1")
    assert add_kink(parse_braid("braid:2:1,1,1"), -1) == parse_braid("braid:3:1,1,1,-2")
    assert add_kink(parse_braid("braid:2:1,1,1"), -1).writhe == 2


def test_add_kink_sign_validated():
    with pytest.raises(ValueError):
        add_kink(parse_braid("braid:2:1"), 2)


@settings(max_examples=40, deadline=None)
@given(braid_words(), st.sampled_from([1, -1]))
def test_add_kink_shifts_writhe_and_keeps_components(word, sign):
    out = add_kink(word, sign)
    assert out.writhe == word.writhe + sign
    assert out.strands == word.strands + 1
    assert cycle_count(out) == cycle_count(word)  # Markov move keeps the link


def test_conjugate_validates_letter():
    with pytest.raises(DiagramError):
        conjugate(parse_braid("braid:2:1"), 5)
    assert conjugate(parse_braid("braid:2:1"), 1) == parse_braid("braid:2:1,1,-1")
