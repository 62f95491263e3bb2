"""Search harness: bucket a knot table by the classical invariant, then check
that the quotient-ring invariant agrees inside every bucket.

The table is partitioned by the canonical f text, and inside each bucket all
pairs are compared on their writhe-normalized quotient invariant.  The pairs
the paper asks for -- equal f, different ``ambient3`` -- do not exist:
``ambient3`` is a function of f (see the README, "What the invariant is",
and its certificate in the tests).  So the scan is a consistency check: a
pair is SAME when its ``ambient3`` texts match, and a difference is an
implementation fault, reported as ENGINE_MISMATCH.  A record's ``ambient3``
is lifted from the raw sum its f is folded from (:func:`.quotient.lift`),
so a cold search reports none; only a cache line can.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .bracket3 import CONVENTION, raw_bracket
from .classical import bracket_from_raw, format_laurent, writhe_normalize
from .diagram import BraidWord, Diagram, DiagramError, closure, parse_braid, parse_pd, writhe
from .multipoly import format_poly
from .quotient import lift


@dataclass(frozen=True)
class TableEntry:
    """One parsed presentation: a braid word or a PD code, never both.

    ``crossings`` is the letter count of a braid (the crossing count of its
    closure) or the crossing count of a PD code.  A braid entry builds its
    closure on the first read of ``diagram`` and keeps it; a PD entry's
    diagram is the one ``parse_pd`` returned.
    """

    name: str
    presentation: str
    crossings: int
    word: BraidWord | None  # None for PD-only entries
    pd: Diagram | None = None  # None for braid entries

    @functools.cached_property
    def diagram(self) -> Diagram:
        return closure(self.word) if self.pd is None else self.pd

    @property
    def writhe(self) -> int:
        """The writhe of ``diagram``; a braid word's needs no closure."""
        return writhe(self.pd) if self.word is None else self.word.writhe


@dataclass(frozen=True)
class InvariantRecord:
    name: str
    presentation: str
    writhe: int
    f_text: str
    ambient3_text: str
    engine: str
    fingerprint: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "presentation": self.presentation,
            "writhe": self.writhe,
            "f": self.f_text,
            "ambient3": self.ambient3_text,
            "engine": self.engine,
            "fingerprint": self.fingerprint,
        }


@dataclass
class LoadResult:
    entries: list[TableEntry]
    errors: list[tuple[int, str]] = field(default_factory=list)


def parse_presentation(text: str, name: str = "") -> TableEntry:
    """A braid word or a PD code as an entry; a braid's closure is not built
    here, only when ``diagram`` is first read."""
    s = text.strip()
    if s.startswith("braid:"):
        word = parse_braid(s)
        return TableEntry(name, s, len(word.letters), word)
    if s.startswith("PD["):
        d = parse_pd(s)
        return TableEntry(name, s, d.n, None, d)
    raise DiagramError(f"presentation must start with 'braid:' or 'PD[', got {s[:24]!r}")


def load_table(path: str | Path) -> LoadResult:
    """Read ``name<TAB>presentation`` lines; blank lines and # comments skip.

    Every malformed line, one that is not UTF-8 included, lands in the
    error list with its line number, and duplicate names are rejected;
    parsing continues either way.  Braid lines are parsed and validated but
    not closed: a search answered from the cache builds no diagram.
    """
    result = LoadResult(entries=[])
    seen: set[str] = set()
    for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            s = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            result.errors.append((lineno, str(exc)))
            continue
        if not s or s.startswith("#"):
            continue
        if "\t" not in s:
            result.errors.append((lineno, "expected 'name<TAB>presentation'"))
            continue
        name, presentation = s.split("\t", 1)
        name = name.strip()
        if name in seen:
            result.errors.append((lineno, f"duplicate name {name!r}"))
            continue
        try:
            entry = parse_presentation(presentation, name)
        except (DiagramError, ValueError) as exc:
            result.errors.append((lineno, str(exc)))
            continue
        seen.add(name)
        result.entries.append(entry)
    return result


def bundled_table_path() -> Path:
    return Path(__file__).parent / "data" / "knots.tsv"


# -- invariant computation with caching ----------------------------------------

_FINGERPRINT = hashlib.sha256(CONVENTION.encode()).hexdigest()[:16]


def fingerprint() -> str:
    """The convention digest every cache key and record carries."""
    return _FINGERPRINT


def compute_record(entry: TableEntry, engine: str = "naive") -> InvariantRecord:
    """Both invariants of one entry, from one raw sum via the named engine.

    PD-only entries always use the naive engine.
    """
    used = "naive" if entry.word is None else engine
    raw = raw_bracket(entry.diagram if used == "naive" else entry.word, used)
    w = entry.writhe
    f_text = format_laurent(writhe_normalize(bracket_from_raw(raw), w))
    return InvariantRecord(
        entry.name, entry.presentation, w, f_text, format_poly(lift(raw, w)), used, fingerprint()
    )


class RecordCache:
    """Line-oriented JSON cache keyed by (name, presentation, fingerprint).

    Corrupt lines (not UTF-8 or not JSON), lines whose fields have the
    wrong JSON type, and lines of an engine other than ``naive``, the one
    that ``search`` runs, are skipped with a warning and never fatal, and
    dropped from the file, so they warn once; lookups hit only on exact key
    matches, so convention changes invalidate everything.
    """

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path else None
        self.records: dict[tuple[str, str, str], InvariantRecord] = {}
        self.warnings: list[str] = []
        if self.path and self.path.exists():
            self._load()

    def _load(self) -> None:
        assert self.path is not None
        data = self.path.read_bytes()
        kept: list[bytes] = []
        for lineno, raw in enumerate(data.splitlines(keepends=True), start=1):
            try:
                line = raw.rstrip(b"\r\n").decode("utf-8")
                if not line.strip():
                    continue
                obj = json.loads(line)
                rec = InvariantRecord(
                    obj["name"], obj["presentation"], obj["writhe"],
                    obj["f"], obj["ambient3"], obj["engine"], obj["fingerprint"],
                )
                texts = (rec.name, rec.presentation, rec.f_text, rec.ambient3_text, rec.engine, rec.fingerprint)
                if type(rec.writhe) is not int or not all(isinstance(text, str) for text in texts):
                    raise TypeError("writhe must be an integer and every other field a string")
                if rec.engine != "naive":
                    raise ValueError(f"engine {rec.engine!r} is not naive, the one search runs")
            except (KeyError, TypeError, ValueError) as exc:  # ValueError covers bad UTF-8 and JSON
                self.warnings.append(f"cache line {lineno} skipped: {exc}")
                continue
            kept.append(raw)
            self.records[(rec.name, rec.presentation, rec.fingerprint)] = rec
        if self.warnings or data and not data.endswith((b"\n", b"\r")):
            # rewritten without the skipped lines, every good line's bytes kept
            # and the last one ended, so the next stored record starts a line
            tmp = self.path.with_name(self.path.name + ".tmp")
            ended = (line if line.endswith((b"\n", b"\r")) else line + b"\n" for line in kept)
            tmp.write_bytes(b"".join(ended))
            os.replace(tmp, self.path)

    def lookup(self, entry: TableEntry) -> InvariantRecord | None:
        return self.records.get((entry.name, entry.presentation, fingerprint()))

    def store(self, rec: InvariantRecord) -> None:
        key = (rec.name, rec.presentation, rec.fingerprint)
        if key in self.records:
            return
        self.records[key] = rec
        if self.path:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(rec.to_json(), sort_keys=True) + "\n")


def compute_records(entries: list[TableEntry], cache: RecordCache | None = None) -> list[InvariantRecord]:
    """Records for all entries, cache-first, sorted by name."""
    records: list[InvariantRecord] = []
    for entry in sorted(entries, key=lambda e: e.name):
        rec = cache.lookup(entry) if cache else None
        if rec is None:
            rec = compute_record(entry)
            if cache:
                cache.store(rec)
        records.append(rec)
    return records


# -- bucketing and the scan ------------------------------------------------------

def bucket_by_classical(records: list[InvariantRecord]) -> dict[str, list[InvariantRecord]]:
    """Partition by exact canonical f text (the keys are auditable, not hashed)."""
    buckets: dict[str, list[InvariantRecord]] = {}
    for rec in sorted(records, key=lambda r: r.name):
        buckets.setdefault(rec.f_text, []).append(rec)
    return dict(sorted(buckets.items()))


def bucket_digest(f_text: str) -> str:
    return hashlib.sha256(f_text.encode()).hexdigest()[:12]


@dataclass(frozen=True)
class PairVerdict:
    name1: str
    name2: str
    digest: str
    verdict: str            # SAME | ENGINE_MISMATCH (equal f, different ambient3)
    engines: str            # the two records' engines, comma separated


@dataclass
class ScanReport:
    fingerprint: str
    entry_count: int
    bucket_sizes: dict[str, int]
    pairs: list[PairVerdict]
    cache_warnings: list[str] = field(default_factory=list)
    load_errors: list[tuple[int, str]] = field(default_factory=list)


def conjecture_scan(entries: list[TableEntry], cache: RecordCache | None = None) -> ScanReport:
    """Compare the quotient invariant inside every classical-equal bucket.

    Each entry's record is computed (or read from the cache) once.  A pair
    is SAME when its ``ambient3`` texts match and ENGINE_MISMATCH otherwise:
    equal f forces equal ``ambient3``, so a difference can only be a fault.
    The scan is fully deterministic for a fixed table.
    """
    records = compute_records(entries, cache)
    buckets = bucket_by_classical(records)
    pairs: list[PairVerdict] = []
    for f_text, group in buckets.items():
        if len(group) < 2:
            continue
        digest = bucket_digest(f_text)
        for i, r1 in enumerate(group):
            for r2 in group[i + 1:]:
                verdict = "SAME" if r1.ambient3_text == r2.ambient3_text else "ENGINE_MISMATCH"
                pairs.append(PairVerdict(r1.name, r2.name, digest, verdict, f"{r1.engine},{r2.engine}"))
    pairs.sort(key=lambda p: (p.name1, p.name2))
    return ScanReport(
        fingerprint=fingerprint(),
        entry_count=len(entries),
        bucket_sizes={bucket_digest(k): len(v) for k, v in buckets.items() if len(v) > 1},
        pairs=pairs,
        cache_warnings=list(cache.warnings) if cache else [],
    )
