"""Command-line entry point.

Four workflows: ``bracket`` (classical invariants of one diagram),
``bracket3`` (the quotient-ring invariants), ``verify`` (re-derive and check
the algebraic claims the invariants rest on), and ``search`` (check on a knot
table that entries with equal classical invariant f also have equal ambient3,
which the theory forces; a pair that differs is an ENGINE_MISMATCH).

Every stochastic run prints its seed and case count in the output header, so
a report is reproducible from its own text.  Exit codes: 0 success, 1
computation error, 2 verification failure (report still emitted), 64 usage.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable

from .bracket3 import (
    CONVENTION,
    TL_STRAND_CAP,
    CapacityError,
    bracket3_raw,
    circle_variant,
    tl_evaluate,
)
from .classical import bracket_from_raw, format_laurent, writhe_normalize
from .diagram import DiagramError, conjugate, parse_braid, rewrite_moves
from .multipoly import TermLimitError, format_poly
from .quotient import lift, normal_form, verify_all_branches, verify_groebner
from .search import (
    RecordCache,
    bundled_table_path,
    conjecture_scan,
    fingerprint,
    load_table,
    parse_presentation,
)

USAGE_EXIT = 64

#: Braid words whose closures anchor the move-invariance checks.
MOVE_BASE_WORDS = (
    ("unknot", "braid:3:1,-2"),
    ("hopf", "braid:2:1,1"),
    ("trefoil", "braid:2:1,1,1"),
    ("figure8", "braid:3:1,-2,1,-2"),
)

MOVES_PER_CASE = 12


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_EXIT)


def _ascii_int(least: int | None, kind: str) -> Callable[[str], int]:
    """An argparse type: an optional ``-`` and ASCII digits, at least ``least``."""
    def integer(text: str) -> int:  # its name shows in argparse's own errors, as at int()'s digit limit
        digits = text.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()) or (least is not None and int(text) < least):
            raise argparse.ArgumentTypeError(f"expected {kind}, got {text!r}")
        return int(text)
    return integer


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="qbracket", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_bracket = sub.add_parser("bracket", help="classical bracket and f-invariant")
    p_bracket.add_argument("input", help="braid:<n>:<letters> or PD[X(..),..]")
    p_bracket.add_argument("--json", action="store_true")

    p_b3 = sub.add_parser("bracket3", help="three-variable bracket invariants")
    p_b3.add_argument("input")
    p_b3.add_argument("--json", action="store_true")

    p_verify = sub.add_parser("verify", help="re-check the algebraic claims")
    vsub = p_verify.add_subparsers(dest="what", required=True)

    p_g = vsub.add_parser("groebner", help="basis and ideal-equality certificates")
    p_g.add_argument("--json", action="store_true")

    p_v = vsub.add_parser("variety", help="exact check and components of every branch")
    p_v.add_argument("--json", action="store_true")

    p_m = vsub.add_parser("moves", help="move-invariance orbits on base words")
    p_m.add_argument("--json", action="store_true")
    p_m.add_argument("--seed", type=_ascii_int(None, "an integer"), default=7)
    p_m.add_argument("--cases", type=_ascii_int(1, "a positive integer"), default=200)

    p_s = sub.add_parser("search", help="f-bucket consistency check over a knot table")
    p_s.add_argument("--table", default=None, help="TSV file (default: bundled table)")
    p_s.add_argument("--max-crossings", type=_ascii_int(0, "a non-negative integer"), default=None)
    p_s.add_argument("--cache", default=None)
    fmt = p_s.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    return parser


def _print_line(obj: dict, as_json: bool) -> None:
    """One output line: sorted-key JSON, or the dict's repr."""
    print(json.dumps(obj, sort_keys=True) if as_json else obj)


def _emit(obj: dict, as_json: bool) -> None:
    if as_json:
        _print_line(obj, as_json)
    else:
        for key, value in obj.items():
            print(f"{key}: {value}")


def cmd_bracket(args: argparse.Namespace) -> int:
    entry = parse_presentation(args.input)
    # the transfer pass for braid words it can hold, the frontier pass for the rest
    if entry.word is not None and entry.word.strands <= TL_STRAND_CAP:
        raw = tl_evaluate(entry.word)
    else:
        raw = bracket3_raw(entry.diagram)
    bracket = bracket_from_raw(raw)
    w = entry.writhe
    payload = {
        "input": entry.presentation,
        "writhe": w,
        "bracket": format_laurent(bracket),
        "f": format_laurent(writhe_normalize(bracket, w)),
    }
    _emit(payload, args.json)
    return 0


def cmd_bracket3(args: argparse.Namespace) -> int:
    entry = parse_presentation(args.input)
    raw = bracket3_raw(entry.diagram)
    w = entry.writhe
    amb = lift(raw, w)
    payload = {
        "input": entry.presentation,
        "engine": "naive",
        "convention": CONVENTION,
        "writhe": w,
        "raw": format_poly(raw),
        "normal_form": format_poly(normal_form(raw)),
        "ambient3": format_poly(amb),
        "ambient3_circle_variant": format_poly(circle_variant(amb, w)),
    }
    _emit(payload, args.json)
    return 0


def cmd_verify_groebner(args: argparse.Namespace) -> int:
    report = verify_groebner()
    lines = []
    for check in report.checks:
        obj: dict = {"check": check.name, "pass": check.passed}
        if check.witness:
            obj["witness"] = check.witness
        lines.append(obj)
    lines.append(
        {
            "check": "summary",
            "pass": report.all_passed,
            "z_exact": report.z_exact,
            "content_events": len(report.content_events),
            "computed_basis": [format_poly(g) for g in report.computed_basis],
        }
    )
    for obj in lines:
        _print_line(obj, args.json)
    return 0 if report.all_passed else 2


def cmd_verify_variety(args: argparse.Namespace) -> int:
    report = verify_all_branches()
    header = {
        "check": "branch_list",
        "raw_count": report.raw_count,
        "distinct_count": report.distinct_count,
    }
    _print_line(header, args.json)
    for chk in report.checks:
        obj = {
            "check": f"branch_{chk.ordinal}_{chk.label}",
            "pass": chk.passed,
            "components": chk.components,
        }
        _print_line(obj, args.json)
    return 0 if report.all_passed else 2


def cmd_verify_moves(args: argparse.Namespace) -> int:
    header = {
        "check": "moves_config",
        "seed": args.seed,
        "cases": args.cases,
        "moves_per_case": MOVES_PER_CASE,
        "engine": "tl",
    }
    _print_line(header, args.json)
    all_ok = True
    references = []
    for name, text in MOVE_BASE_WORDS:
        base = parse_braid(text)
        reference = normal_form(tl_evaluate(base))
        references.append((name, base, reference))
        failures = 0
        for case in range(args.cases):
            variant = rewrite_moves(base, seed=args.seed + case, count=MOVES_PER_CASE)
            if normal_form(tl_evaluate(variant)) != reference:
                failures += 1
        ok = failures == 0
        all_ok = all_ok and ok
        obj = {"check": f"moves_{name}", "pass": ok, "cases": args.cases, "failures": failures}
        _print_line(obj, args.json)
    # conjugation-based cases are a different move family; reported separately
    for name, base, reference in references:
        failures = sum(
            1
            for g in range(1, base.strands)
            for sign in (1, -1)
            if normal_form(tl_evaluate(conjugate(base, sign * g))) != reference
        )
        ok = failures == 0
        all_ok = all_ok and ok
        obj = {"check": f"conjugation_{name}", "pass": ok, "failures": failures}
        _print_line(obj, args.json)
    return 0 if all_ok else 2


def cmd_search(args: argparse.Namespace) -> int:
    table = args.table or bundled_table_path()
    loaded = load_table(table)
    entries = loaded.entries
    if args.max_crossings is not None:
        entries = [e for e in entries if e.crossings <= args.max_crossings]
    cache = RecordCache(args.cache) if args.cache else None
    report = conjecture_scan(entries, cache)
    report.load_errors = loaded.errors

    status = 2 if any(p.verdict == "ENGINE_MISMATCH" for p in report.pairs) else 0
    if args.csv:
        print("name1,name2,bucket,verdict,engines")
        for p in report.pairs:
            print(f"{p.name1},{p.name2},{p.digest},{p.verdict},{p.engines.replace(',', '+')}")
        return status
    header = {
        "table": str(table),
        "entries": report.entry_count,
        "fingerprint": report.fingerprint,
        "engine": "naive",
        "nontrivial_buckets": report.bucket_sizes,
        "load_errors": report.load_errors,
        "cache_warnings": report.cache_warnings,
    }
    _print_line(header, args.json)
    for p in report.pairs:
        obj = {
            "name1": p.name1,
            "name2": p.name2,
            "bucket": p.digest,
            "verdict": p.verdict,
            "engines": p.engines,
        }
        _print_line(obj, args.json)
    _print_line({"comparisons": len(report.pairs), "witness_candidates": 0}, args.json)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    commands = {"bracket": cmd_bracket, "bracket3": cmd_bracket3, "search": cmd_search,
                "groebner": cmd_verify_groebner, "variety": cmd_verify_variety, "moves": cmd_verify_moves}
    try:
        status = commands[args.what if args.command == "verify" else args.command](args)
        sys.stdout.flush()  # so that a closed stdout raises here, not at interpreter exit
        return status
    except BrokenPipeError:  # the reader is gone: end as SIGPIPE would, 128 + 13, quietly
        if sys.stdout is sys.__stdout__:  # in-process callers keep their own stream
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (DiagramError, CapacityError, TermLimitError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:  # its text is empty
        print("error: out of memory", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
