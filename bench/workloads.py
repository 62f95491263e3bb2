"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Every workload is built from ``--seed`` alone and drives qbracket through the
public calls its command line makes.  A pass runs the workload's operations
(``ops``) once each, in order, over its full input set; each operation returns
a piece of the canonical output text (``format_poly`` lines or the CLI's JSON
lines).  The runner times every operation on its own and digests the joined
text, so byte-identical output is checked on every pass.  Why each workload exists,
and which layer it is meant to load, is written down in ``NOTES.md``.

Calls into qbracket go through module attributes (``quotient.normal_form``,
never a name imported into this file), so the wrappers that ``tracing.py``
installs on those attributes see the benchmark's own calls too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import json
import os

# importlib, because the package re-exports a function named ``bracket3``
# that shadows the submodule of that name as a package attribute.
bracket3, cli, diagram, multipoly, quotient, search = (
    importlib.import_module(f"qbracket.{m}")
    for m in ("bracket3", "cli", "diagram", "multipoly", "quotient", "search")
)

WORKDIR = ".bench_out"


class Lcg:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    The inputs depend only on the seed and on this code, never on the Python
    version's ``random`` module, so golden digests stay valid across versions.
    """

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MASK = (1 << 64) - 1

    def __init__(self, seed: int, stream: int = 0):
        self.state = (seed * 0x9E3779B97F4A7C15 + stream) & self.MASK
        for _ in range(4):
            self.below(2)

    def below(self, n: int) -> int:
        self.state = (self.MULT * self.state + self.INC) & self.MASK
        return (self.state >> 33) % n

    def shuffle(self, items: list) -> list:
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def pad(raw, writhe: int):
    """Curl-pad a raw sum exactly as ``search.compute_record`` does for ``tl``."""
    factor = bracket3.CURL_MINUS if writhe > 0 else bracket3.CURL_PLUS
    return factor ** abs(writhe) * raw


def run_cli(argv: list[str]) -> str:
    """One CLI invocation in-process; its stdout is the pass output."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"qbracket {' '.join(argv)} exited {code}")
    return buf.getvalue()


class Workload:
    """Base class.  ``setup`` builds the inputs and ``ops`` (timed as
    ``setup_s``), ``reset`` runs untimed before each pass, and a pass runs
    every operation in ``ops`` once, in order."""

    name = ""
    engines: tuple[str, ...] = ()
    #: per-layer counts that must hold for every seed (checked in traced runs)
    expected_counts: dict[str, int] = {}

    def __init__(self, seed: int):
        self.seed = seed
        self.ops: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        pass

    def run(self) -> str:
        """One whole pass; its output text."""
        return "".join(op() for op in self.ops)

    def canonical(self, text: str) -> str:
        """The text the golden digest covers, given one pass's output (untimed)."""
        return text

    def check_output(self, text: str) -> tuple[int, list[str]]:
        """Workload-specific checks on one pass's output: (checks made, failures)."""
        return 0, []

    def check_counts(self, counts: dict[str, float]) -> list[str]:
        return [
            f"{key} = {counts.get(key)}, expected {want}"
            for key, want in self.expected_counts.items()
            if counts.get(key) != want
        ]


# -- scan / rescan --------------------------------------------------------------

SCAN_MAX_CROSSINGS = 13
# Odd, so a 2-strand word (where only move II applies, +-2 letters each) can
# end exactly two letters longer.
VARIANT_MOVES = 7


class Scan(Workload):
    """A cold ``qbracket search --json`` with the default engine (``naive``)
    on the bundled table plus one seeded move-II/III rewrite variant of each
    braid entry.  A variant has exactly two crossings more than its base
    (kept at <= 13), so the enumeration work is the same for every seed.

    The cold scan is timed one record at a time, so that machine noise hits
    short operations: each entry's ``compute_record``, stored in the cache
    file, in the order ``compute_records`` uses, is one operation; the CLI
    search against that cache then does the table load, the lookups, the
    bucketing and the output.  The output and the cache file are
    byte-identical to a cold CLI search (the golden digests cover both)."""

    name = "scan"
    engines = ("naive",)
    table = "table.tsv"
    cache = "cache.jsonl"

    def setup(self) -> None:
        bundled = search.load_table(search.bundled_table_path())
        rng = Lcg(self.seed, stream=1)
        lines = [f"{e.name}\t{e.presentation}" for e in bundled.entries]
        self.variants: list[tuple[str, str]] = []
        for e in bundled.entries:
            if e.word is None or e.crossings + 2 > SCAN_MAX_CROSSINGS:
                continue
            for _ in range(10_000):
                v = diagram.rewrite_moves(e.word, seed=rng.below(1 << 32), count=VARIANT_MOVES)
                if len(v.letters) == e.crossings + 2:
                    break
            else:
                raise RuntimeError(f"no rewrite variant of {e.name} found")
            name = f"{e.name}~v"
            lines.append(f"{name}\t{v.text}")
            self.variants.append((e.name, name))
        with open(self.table, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        loaded = search.load_table(self.table)
        if loaded.errors:
            raise RuntimeError(f"generated table has errors: {loaded.errors}")
        self.entries = len(loaded.entries)
        self.expected_counts = {"search.records": self.entries, "search.cache_hits": self.entries,
                                "search.cache_misses": 0}
        self.ops = [functools.partial(self.record, e)
                    for e in sorted(loaded.entries, key=lambda e: e.name)]
        self.ops.append(self.search)
        self.reset()

    def reset(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cache)
        self.record_cache = search.RecordCache(self.cache)

    def record(self, entry) -> str:
        self.record_cache.store(search.compute_record(entry, "naive"))
        return ""

    def search(self) -> str:
        return run_cli(["search", "--json", "--table", self.table, "--cache", self.cache])

    def canonical(self, text: str) -> str:
        """The scan's JSON lines plus the cache file, whose records carry
        every entry's canonical f and ambient3 text."""
        with open(self.cache, encoding="utf-8") as fh:
            return text + fh.read()

    def check_output(self, text: str) -> tuple[int, list[str]]:
        """Every (base, variant) pair is SAME; no pair is an ENGINE_MISMATCH."""
        verdicts = {}
        for line in text.splitlines():
            obj = json.loads(line)
            if "verdict" in obj:
                verdicts[(obj["name1"], obj["name2"])] = obj["verdict"]
        failures = [f"{a} vs {b}: {v}" for (a, b), v in verdicts.items() if v == "ENGINE_MISMATCH"]
        for base, variant in self.variants:
            got = verdicts.get((base, variant))
            if got != "SAME":
                failures.append(f"{base} vs {variant}: {got}")
        return len(verdicts) + len(self.variants), failures


class Rescan(Scan):
    """The CLI search alone, re-run against the cache file the first pass
    (a cold CLI search) wrote: what a returning user waits for."""

    name = "rescan"

    def setup(self) -> None:
        super().setup()
        with contextlib.suppress(FileNotFoundError):
            os.remove(self.cache)
        self.ops = [self.search]

    def reset(self) -> None:
        pass


# -- torus ----------------------------------------------------------------------

TORUS_LADDER = (10, 12, 14)


class Torus(Workload):
    """Writhe-padded ambient invariant of T(2,n) over a fixed ladder, raw sum
    via ``tl``.  The seed only orders the rungs, so the work is the same for
    every seed."""

    name = "torus"
    engines = ("tl",)
    expected_counts = {"quotient.nf_calls": len(TORUS_LADDER), "bracket3.tl_calls": len(TORUS_LADDER)}

    def setup(self) -> None:
        order = Lcg(self.seed, stream=2).shuffle(list(TORUS_LADDER))
        for n in order:
            word = diagram.parse_braid("braid:2:" + ",".join(["1"] * n))
            self.ops.append(functools.partial(self.rung, word, diagram.writhe(diagram.closure(word))))

    @staticmethod
    def rung(word, w: int) -> str:
        raw = bracket3.raw_bracket(word, "tl")
        amb = quotient.normal_form(pad(raw, w))
        return f"{word.text}\t{multipoly.format_poly(raw)}\t{multipoly.format_poly(amb)}\n"


# -- words ----------------------------------------------------------------------

#: (strands, letters, words).  Every word uses each generator equally often
#: and has writhe +2 or -2.
WORD_SPECS = ((4, 18, 3), (6, 20, 3), (8, 22, 3))
#: The words themselves are drawn once, from this seed.
WORDS_DRAW_SEED = 0


def seeded_word(rng: Lcg, strands: int, length: int, writhe: int) -> str:
    gens = rng.shuffle([k % (strands - 1) + 1 for k in range(length)])
    signs = rng.shuffle([1] * ((length + writhe) // 2) + [-1] * ((length - writhe) // 2))
    return f"braid:{strands}:" + ",".join(str(g * s) for g, s in zip(gens, signs))


class Words(Workload):
    """``bracket3`` readouts (raw via ``tl``, normal form, padded ambient) of
    braid words on 4, 6 and 8 strands.

    The words are fixed and the seed only orders them: the cost of both the
    transfer pass and the normal forms depends strongly on the word (and on
    its letter order), so words drawn or rotated per seed made the time
    swing by 10-20 % from seed to seed."""

    name = "words"
    engines = ("tl",)
    expected_counts = {
        "quotient.nf_calls": 2 * sum(k for _, _, k in WORD_SPECS),
        "bracket3.tl_calls": sum(k for _, _, k in WORD_SPECS),
    }

    def setup(self) -> None:
        draw = Lcg(WORDS_DRAW_SEED, stream=3)
        texts = [seeded_word(draw, strands, length, 2 if i % 2 == 0 else -2)
                 for strands, length, count in WORD_SPECS for i in range(count)]
        for text in Lcg(self.seed, stream=4).shuffle(texts):
            word = diagram.parse_braid(text)
            self.ops.append(functools.partial(self.readout, word, diagram.writhe(diagram.closure(word))))

    @staticmethod
    def readout(word, w: int) -> str:
        raw = bracket3.raw_bracket(word, "tl")
        nf = quotient.normal_form(raw)
        amb = quotient.normal_form(pad(raw, w))
        return "\t".join([word.text] + [multipoly.format_poly(p) for p in (raw, nf, amb)]) + "\n"


# -- moves ----------------------------------------------------------------------

#: (letters a variant has beyond its base word, cases per base word).  A
#: variant's cost grows about 3.5x with every 4 letters, and ``verify moves``
#: draws lengths from a long tail, so cases drawn freely from the seed made
#: the time swing by up to 1.8x from seed to seed.  Fixed strata keep the
#: work the same for every seed; most cases stay small.
MOVES_STRATA = ((0, 20), (4, 20), (8, 8), (12, 2))
MOVES_CASES = sum(k for _, k in MOVES_STRATA)


class Moves(Workload):
    """What ``qbracket verify moves`` does, through the same public calls, with
    the default engine (``tl``): for each of the CLI's 4 base words, the
    reference normal form, ``MOVES_CASES`` seeded ``rewrite_moves`` variants
    (``MOVES_PER_CASE`` moves each) whose normal form must equal it, and the
    conjugation checks.  Set-up draws each case's rewrite seed from ``--seed``
    until every length stratum of ``MOVES_STRATA`` is filled; the pass
    rewrites the word again from that seed."""

    name = "moves"
    engines = ("tl",)
    # one reference and MOVES_CASES variants per base word, plus 12 conjugation checks
    expected_counts = {"quotient.nf_calls": 4 * (MOVES_CASES + 1) + 12,
                       "diagram.rewrite_calls": 4 * MOVES_CASES}

    def setup(self) -> None:
        rng = Lcg(self.seed, stream=5)
        self.references: dict = {}
        cases, conjugations = [], []
        for name, text in cli.MOVE_BASE_WORDS:
            base = diagram.parse_braid(text)
            self.ops.append(functools.partial(self.reference, name, base))
            wanted = dict(MOVES_STRATA)
            for _ in range(100_000):
                case_seed = rng.below(1 << 32)
                variant = diagram.rewrite_moves(base, seed=case_seed, count=cli.MOVES_PER_CASE)
                extra = len(variant.letters) - len(base.letters)
                if wanted.get(extra, 0) > 0:
                    wanted[extra] -= 1
                    cases.append(functools.partial(self.case, name, base, case_seed))
                    if not any(wanted.values()):
                        break
            else:
                raise RuntimeError(f"no moves cases found for {name}")
            conjugations += [functools.partial(self.conjugation, name, base, sign * g)
                             for g in range(1, base.strands) for sign in (1, -1)]
        self.ops += cases + conjugations

    def reset(self) -> None:
        self.references.clear()

    def reference(self, name: str, base) -> str:
        ref = self.references[name] = quotient.normal_form(bracket3.raw_bracket(base, "tl"))
        return f"reference\t{name}\t{multipoly.format_poly(ref)}\n"

    def case(self, name: str, base, case_seed: int) -> str:
        variant = diagram.rewrite_moves(base, seed=case_seed, count=cli.MOVES_PER_CASE)
        ok = quotient.normal_form(bracket3.raw_bracket(variant, "tl")) == self.references[name]
        return f"moves\t{name}\t{case_seed}\t{variant.text}\t{'pass' if ok else 'FAIL'}\n"

    def conjugation(self, name: str, base, letter: int) -> str:
        variant = diagram.conjugate(base, letter)
        ok = quotient.normal_form(bracket3.raw_bracket(variant, "tl")) == self.references[name]
        return f"conjugation\t{name}\t{letter}\t{'pass' if ok else 'FAIL'}\n"

    def check_output(self, text: str) -> tuple[int, list[str]]:
        """Every move and conjugation variant has its base word's normal form."""
        checks = [line for line in text.splitlines() if not line.startswith("reference")]
        failures = [line for line in checks if line.endswith("\tFAIL")]
        return len(checks), failures


WORKLOADS: dict[str, type[Workload]] = {w.name: w for w in (Scan, Rescan, Torus, Words, Moves)}
