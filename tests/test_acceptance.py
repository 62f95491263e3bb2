"""Acceptance suite: the eight exit criteria, each timed and reported.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance and time bound is pinned here; nothing is left
to later calibration.
"""

import hashlib
import random
import time

from qbracket.bracket3 import (
    ambient3,
    bracket3,
    bracket3_raw,
    tl_evaluate,
)
from qbracket.classical import CIRCLE, LaurentPolynomial, f_invariant, kauffman_bracket
from qbracket.diagram import BraidWord, Diagram, add_kink, closure, parse_braid, rewrite_moves
from qbracket.multipoly import buchberger, format_poly, reduce_basis, remainder, s_poly
from qbracket.quotient import (
    GROEBNER_BASIS,
    IDEAL_GENERATORS,
    normal_form,
    specialize_classical,
    verify_all_branches,
)
from qbracket.search import bundled_table_path, conjecture_scan, load_table

import state_oracle


def report(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number} {status}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_1_groebner_verification():
    start = time.perf_counter()
    computed = reduce_basis(buchberger(list(IDEAL_GENERATORS)))
    basis_match = set(computed) == set(GROEBNER_BASIS)
    spolys_ok = all(
        remainder(s_poly(GROEBNER_BASIS[i], GROEBNER_BASIS[j]), list(GROEBNER_BASIS)).is_zero
        for i in range(3)
        for j in range(i, 3)
    )
    gens_ok = all(remainder(p, list(GROEBNER_BASIS)).is_zero for p in IDEAL_GENERATORS)
    elapsed = time.perf_counter() - start
    report(
        1,
        basis_match and spolys_ok and gens_ok and elapsed < 5.0,
        f"basis match {basis_match}, S-polys to zero {spolys_ok}, "
        f"generators to zero {gens_ok}, {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_variety_branches():
    start = time.perf_counter()
    branch_report = verify_all_branches()
    elapsed = time.perf_counter() - start
    report(
        2,
        branch_report.all_passed and elapsed < 1.0,
        f"{branch_report.distinct_count} distinct branches of {branch_report.raw_count} "
        f"catalogued entries, every one exactly zero on both relations, {elapsed:.2f}s (< 1s)",
    )


def test_criterion_3_regular_isotopy_orbits():
    base_words = {
        "unknot": "braid:3:1,-2",
        "hopf": "braid:2:1,1",
        "trefoil": "braid:2:1,1,1",
        "figure8": "braid:3:1,-2,1,-2",
    }
    start = time.perf_counter()
    failures = []
    for name, text in base_words.items():
        word = parse_braid(text)
        reference = format_poly(normal_form(tl_evaluate(word)))
        for seed in range(200):
            variant = rewrite_moves(word, seed=seed, count=12)
            value = format_poly(normal_form(tl_evaluate(variant)))
            if value != reference:
                failures.append((name, seed))
    elapsed = time.perf_counter() - start
    report(
        3,
        not failures and elapsed < 60.0,
        f"4 orbits x 200 seeded move-II/III rewrites all bitwise identical, "
        f"{elapsed:.1f}s (< 60s); failures: {failures!r}",
    )


def test_criterion_4_ambient_isotopy():
    unknots = ["braid:1:", "braid:2:1", "braid:2:-1", "braid:3:1,2", "braid:3:-1,-2"]
    unknot_values = {format_poly(ambient3(closure(parse_braid(t)))) for t in unknots}
    unknot_writhes = {parse_braid(t).writhe for t in unknots}
    trefoil = parse_braid("braid:2:1,1,1")
    stabilized = add_kink(trefoil, 1)
    trefoil_values = {
        format_poly(ambient3(closure(trefoil))),
        format_poly(ambient3(closure(stabilized))),
    }
    ok = (
        unknot_values == {"+d"}
        and unknot_writhes == {0, 1, -1, 2, -2}
        and len(trefoil_values) == 1
    )
    report(
        4,
        ok,
        f"ambient invariant constant on unknot presentations with writhes {sorted(unknot_writhes)} "
        f"and on trefoil presentations with writhes {{3, 4}}; exact normal-form equality",
    )


def test_criterion_5_classical_consistency():
    unknot_ok = kauffman_bracket(closure(parse_braid("braid:1:"))) == LaurentPolynomial.one()
    circles_ok = all(
        kauffman_bracket(Diagram((), k)) == CIRCLE ** (k - 1) for k in range(1, 6)
    )
    kink_plus = kauffman_bracket(closure(parse_braid("braid:2:1")))
    kink_minus = kauffman_bracket(closure(parse_braid("braid:2:-1")))
    kinks_ok = {kink_plus, kink_minus} == {
        LaurentPolynomial({3: -1}),
        LaurentPolynomial({-3: -1}),
    }
    unknots = ["braid:1:", "braid:2:1", "braid:2:-1", "braid:3:1,2", "braid:3:-1,-2"]
    f_ok = {f_invariant(closure(parse_braid(t))) for t in unknots} == {LaurentPolynomial.one()}
    report(
        5,
        unknot_ok and circles_ok and kinks_ok and f_ok,
        f"unknot bracket 1: {unknot_ok}; k-circle law to k=5: {circles_ok}; "
        f"kink factors -a^3/-a^-3: {kinks_ok}; f constant on unknots: {f_ok}",
    )


def test_criterion_6_specialization_bridge():
    entries = [e for e in load_table(bundled_table_path()).entries if e.crossings <= 8]
    assert entries, "bundled table must carry entries of at most 8 crossings"
    start = time.perf_counter()
    bridge_ok = all(
        specialize_classical(bracket3(e.diagram)) == CIRCLE * state_oracle.kauffman_bracket(e.diagram)
        for e in entries
    )
    naive_elapsed = time.perf_counter() - start
    start = time.perf_counter()
    tl_ok = all(
        specialize_classical(normal_form(tl_evaluate(e.word)))
        == CIRCLE * state_oracle.kauffman_bracket(e.diagram)
        for e in entries
        if e.word is not None
    )
    tl_elapsed = time.perf_counter() - start
    report(
        6,
        bridge_ok and tl_ok and naive_elapsed < 300.0 and tl_elapsed < 30.0,
        f"specialized quotient invariant equals circle times classical bracket on all "
        f"{len(entries)} table entries of <= 8 crossings; naive {naive_elapsed:.1f}s (< 300s), "
        f"transfer-matrix {tl_elapsed:.1f}s (< 30s)",
    )


#: Digests of format_poly of the raw sums of the three 12-strand 60-letter
#: words that ``random.Random(12)`` draws below, and their term counts,
#: pinned from the frontier pass (``bracket3_raw`` of the closure), which
#: takes 1-12 s per word on a 2-core machine.
WIDE_WORD_DIGESTS = (
    (763, "93582583d6e36f3b67c112e40d0df1d0e840a71b578d8f90f04b3b6879efb0ee"),
    (803, "778b80ac0f460b15074f435da12750b86784b2e46c4c18d72b107f6045cb6910"),
    (798, "b9bd5dd060faa802f5cb310ddb5da6cc9b3b847a08b40efbf5c350d11a165c39"),
)


def test_transfer_pass_on_wide_words_is_fast():
    # a floor, not a loosened bound: carrying every matching to the closure,
    # the pass took about 12.5 s on these three words; closing each strand
    # after its last letter, about 0.25 s (2 cores, Python 3.11)
    rng = random.Random(12)
    words = [BraidWord(12, tuple(rng.choice((1, -1)) * rng.randint(1, 11) for _ in range(60))) for _ in range(3)]
    start = time.perf_counter()
    raws = [tl_evaluate(word) for word in words]
    elapsed = time.perf_counter() - start
    assert elapsed < 3.0, f"tl_evaluate of three 60-letter 12-strand words took {elapsed:.2f}s"
    for raw, (terms, digest) in zip(raws, WIDE_WORD_DIGESTS):
        assert len(raw) == terms and sum(c for _, c in raw) == 2**60
        assert hashlib.sha256(format_poly(raw).encode()).hexdigest() == digest


def test_criterion_7_engine_equivalence():
    entries = [
        e for e in load_table(bundled_table_path()).entries
        if e.word is not None and e.crossings <= 14
    ]
    equal_ok = all(tl_evaluate(e.word) == bracket3_raw(e.diagram) for e in entries)
    twelve = next(e for e in entries if e.crossings == 12)
    start = time.perf_counter()
    value = normal_form(tl_evaluate(twelve.word))
    elapsed = time.perf_counter() - start
    report(
        7,
        equal_ok and not value.is_zero and elapsed < 1.0,
        f"transfer-matrix equals naive enumeration on all {len(entries)} braid entries "
        f"(<= 14 crossings); 12-crossing invariant in {elapsed:.3f}s (< 1s)",
    )


def test_criterion_8_conjecture_scan():
    entries = load_table(bundled_table_path()).entries
    start = time.perf_counter()
    first = conjecture_scan(entries)
    second = conjecture_scan(entries)
    elapsed = time.perf_counter() - start
    deterministic = first.pairs == second.pairs and first.bucket_sizes == second.bucket_sizes
    mismatches = [p for p in first.pairs if p.verdict == "ENGINE_MISMATCH"]
    report(
        8,
        deterministic and not mismatches and elapsed < 0.5,
        f"full {first.entry_count}-entry table scanned deterministically twice in "
        f"{elapsed:.3f}s (< 0.5s); {len(first.pairs)} bucket comparisons, a consistency "
        f"check since ambient3 is a function of f: engine mismatches {len(mismatches)} (must be 0)",
    )
