"""Table ingestion, caching, bucketing, and the conjecture scan."""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path

import pytest

import qbracket.bracket3 as bracket3_module
import qbracket.classical as classical
import qbracket.quotient as quotient
import qbracket.search as search
from qbracket.cli import main
from qbracket.diagram import closure, parse_braid, parse_pd, rewrite_moves, writhe
from qbracket.search import (
    InvariantRecord,
    RecordCache,
    TableEntry,
    bucket_by_classical,
    bundled_table_path,
    compute_record,
    compute_records,
    conjecture_scan,
    fingerprint,
    load_table,
    parse_presentation,
)

import state_oracle


def entry(name: str, presentation: str) -> TableEntry:
    return parse_presentation(presentation, name)


# -- loading ---------------------------------------------------------------------

def test_load_table_round_trip(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n# comment\n\n4_1\tbraid:3:1,-2,1,-2\n")
    result = load_table(table)
    assert [e.name for e in result.entries] == ["3_1", "4_1"]
    assert result.entries[0].crossings == 3
    assert result.errors == []


def test_load_table_collects_per_line_errors(tmp_path):
    table = tmp_path / "t.tsv"
    table.write_text(
        "good\tbraid:2:1,1,1\n"
        "bad\tbraid:2:5\n"          # letter out of range
        "noseparator\n"
        "good\tbraid:2:1\n"          # duplicate name
        "weird\tSGC[1,2]\n"
    )
    result = load_table(table)
    assert [e.name for e in result.entries] == ["good"]
    assert sorted(lineno for lineno, _ in result.errors) == [2, 3, 4, 5]


def test_load_table_closes_a_braid_only_when_its_diagram_is_read(tmp_path, monkeypatch):
    pd = "PD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)]"
    table = tmp_path / "t.tsv"
    table.write_text(f"3_1\tbraid:2:1,1,1\n3_1pd\t{pd}\nbad\tbraid:2:1,x\n")
    built: list = []
    monkeypatch.setattr(search, "closure", lambda word: built.append(word) or closure(word))
    result = load_table(table)
    assert built == []
    braid, pd_entry = result.entries
    assert braid.crossings == len(braid.word.letters) == 3
    assert braid.writhe == 3
    assert built == []
    assert braid.diagram is braid.diagram  # built once and kept
    assert braid.diagram == closure(braid.word)
    assert built == [braid.word]
    assert pd_entry.word is None and pd_entry.crossings == 3
    assert pd_entry.diagram is pd_entry.pd and pd_entry.diagram == parse_pd(pd)
    assert pd_entry.writhe == writhe(pd_entry.diagram)
    assert built == [braid.word]
    assert len(result.errors) == 1 and result.errors[0][0] == 3
    assert "'x' at position 1" in result.errors[0][1]


def test_load_table_missing_file():
    with pytest.raises(OSError):
        load_table("/nonexistent/table.tsv")


def test_bundled_table_loads_cleanly():
    result = load_table(bundled_table_path())
    assert len(result.entries) == 24
    assert result.errors == []
    names = {e.name for e in result.entries}
    assert {"3_1", "4_1", "8_19", "9_1", "pb3_12"} <= names


def test_bundled_table_entries_are_knots_where_named_as_such():
    from qbracket.diagram import components

    for e in load_table(bundled_table_path()).entries:
        assert components(e.diagram) == 1, e.name


def test_specialization_consistent_for_every_table_entry():
    # guards against convention drift between the classical and the
    # three-variable pipelines, on the whole bundled table
    from qbracket.bracket3 import bracket3
    from qbracket.classical import CIRCLE
    from qbracket.quotient import specialize_classical

    for e in load_table(bundled_table_path()).entries:
        assert specialize_classical(bracket3(e.diagram)) == CIRCLE * state_oracle.kauffman_bracket(e.diagram), e.name


# -- records and cache ------------------------------------------------------------

def test_record_engines_agree():
    e = entry("trefoil", "braid:2:1,1,1")
    naive = compute_record(e, "naive")
    tl = compute_record(e, "tl")
    assert naive.f_text == tl.f_text
    assert naive.ambient3_text == tl.ambient3_text
    assert (naive.engine, tl.engine) == ("naive", "tl")


def test_record_engines_agree_on_every_table_braid_and_a_rewrite_of_each():
    # the scan's inputs: on braids the naive record is the frontier pass over
    # the closure, the tl record the planar-matching transfer over the word
    braids = [e for e in load_table(bundled_table_path()).entries if e.word is not None]
    assert braids
    for k, e in enumerate(braids):
        variant = rewrite_moves(e.word, seed=k, count=3)
        for name, word in ((e.name, e.word), (f"{e.name}~v", variant)):
            naive = compute_record(entry(name, word.text), "naive")
            tl = compute_record(entry(name, word.text), "tl")
            assert (naive.f_text, naive.ambient3_text) == (tl.f_text, tl.ambient3_text), word.text


def test_record_reproducible():
    e = entry("fig8", "braid:3:1,-2,1,-2")
    assert compute_record(e) == compute_record(e)


def test_cache_round_trip(tmp_path):
    path = tmp_path / "cache.jsonl"
    e = entry("trefoil", "braid:2:1,1,1")
    cache = RecordCache(path)
    rec = compute_record(e)
    cache.store(rec)
    reloaded = RecordCache(path)
    assert reloaded.lookup(e) == rec
    assert reloaded.warnings == []


def test_fingerprint_is_pinned():
    # every cache key and the bench's golden digests carry it, so a changed
    # convention, a curl factor included, must change it on purpose
    assert fingerprint() == "8cf46868cf04ccdb"


def test_cache_misses_on_fingerprint_change(tmp_path):
    path = tmp_path / "cache.jsonl"
    e = entry("trefoil", "braid:2:1,1,1")
    rec = compute_record(e)
    stale = InvariantRecord(
        rec.name, rec.presentation, rec.writhe, rec.f_text, rec.ambient3_text,
        rec.engine, "0" * 16,
    )
    path.write_text(json.dumps(stale.to_json()) + "\n")
    cache = RecordCache(path)
    assert cache.lookup(e) is None


def _mistyped(rec: InvariantRecord, **fields) -> str:
    """A cache line for ``rec`` with some fields replaced."""
    return json.dumps({**rec.to_json(), **fields}) + "\n"


#: Cache fields of the wrong JSON type: an int ``f`` once crashed the bucket
#: sort, a null ``ambient3`` was reported as an ENGINE_MISMATCH, and a list
#: ``presentation`` crashed the cache load as an unhashable key.
MISTYPED_FIELDS = [{"f": 1}, {"ambient3": None}, {"presentation": ["braid:2:1,1,1"]},
                   {"writhe": True}, {"writhe": "3"}, {"writhe": 3.0}]


def test_cache_skips_corrupt_lines(tmp_path):
    path = tmp_path / "cache.jsonl"
    e = entry("trefoil", "braid:2:1,1,1")
    rec = compute_record(e)
    mistyped = "".join(_mistyped(rec, name=f"t{k}", **fields) for k, fields in enumerate(MISTYPED_FIELDS))
    path.write_text("{not json\n" + json.dumps(rec.to_json()) + "\n" + '{"name": "partial"}\n' + mistyped)
    cache = RecordCache(path)
    assert len(cache.warnings) == 2 + len(MISTYPED_FIELDS)
    assert list(cache.records.values()) == [rec]


# an older `search --engine tl` wrote tl lines; they are recomputed, not
# served with a tl label
@pytest.mark.parametrize("fields", [*MISTYPED_FIELDS[:2], {"engine": "tl"}], ids=["int-f", "null-ambient3", "tl-engine"])
def test_search_recomputes_an_entry_whose_cache_line_is_mistyped(tmp_path, capsys, fields):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n3_1pad\tbraid:2:1,1,-1,1,1\n")
    cache = tmp_path / "cache.jsonl"
    cache.write_text(_mistyped(compute_record(entry("3_1", "braid:2:1,1,1")), **fields))
    code = main(["search", "--json", "--table", str(table), "--cache", str(cache)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert len(lines[0]["cache_warnings"]) == 1
    assert (lines[1]["verdict"], lines[1]["engines"]) == ("SAME", "naive,naive")
    # the file is rewritten without the skipped line, and both records appended
    assert [json.loads(line)["engine"] for line in cache.read_text().splitlines()] == ["naive", "naive"]


def test_search_recomputes_an_entry_whose_cache_line_is_not_utf8(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n3_1pad\tbraid:2:1,1,-1,1,1\n")
    good = _mistyped(compute_record(entry("3_1pad", "braid:2:1,1,-1,1,1")))
    bad = _mistyped(compute_record(entry("3_1", "braid:2:1,1,1")), engine="naive?")
    cache = tmp_path / "cache.jsonl"
    cache.write_bytes((good + bad).replace("\n", "\r\n").replace("?", "\xff").encode("latin-1"))
    code = main(["search", "--json", "--table", str(table), "--cache", str(cache)])
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert code == 0
    assert len(lines[0]["cache_warnings"]) == 1 and lines[0]["cache_warnings"][0].startswith("cache line 2 ")
    assert lines[1]["verdict"] == "SAME"
    # the CRLF line is served and kept byte for byte, the bad line dropped,
    # and the recomputed 3_1 appended
    kept = cache.read_bytes().splitlines(keepends=True)
    assert len(kept) == 2 and kept[0] == good.replace("\n", "\r\n").encode()


def _search_header(table: Path, cache: Path, capsys) -> dict:
    code = main(["search", "--json", "--table", str(table), "--cache", str(cache)])
    header = json.loads(capsys.readouterr().out.splitlines()[0])
    assert code == 0
    return header


def test_a_skipped_cache_line_is_reported_by_one_run_only(tmp_path, capsys):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n")
    cache = tmp_path / "c.jsonl"
    cache.write_text("{bad\n")
    warnings = [_search_header(table, cache, capsys)["cache_warnings"] for _ in range(3)]
    assert len(warnings[0]) == 1 and warnings[0][0].startswith("cache line 1 skipped: ")
    assert warnings[1:] == [[], []]
    assert [json.loads(line)["name"] for line in cache.read_text().splitlines()] == ["3_1"]


def test_a_truncated_last_cache_line_does_not_swallow_the_next_record(tmp_path, capsys, monkeypatch):
    table = tmp_path / "t.tsv"
    table.write_text("3_1\tbraid:2:1,1,1\n")
    cache = tmp_path / "c.jsonl"
    cache.write_text('{"name": "3_1", "presen')  # a killed run's last line
    assert len(_search_header(table, cache, capsys)["cache_warnings"]) == 1
    monkeypatch.setattr(search, "compute_record", _forbid("compute_record"))
    assert _search_header(table, cache, capsys)["cache_warnings"] == []  # served from the cache


def test_only_a_cache_with_a_skipped_or_unended_line_is_rewritten(tmp_path):
    path = tmp_path / "cache.jsonl"
    t, f = (compute_record(entry(*e)) for e in (("t", "braid:2:1,1,1"), ("f", "braid:3:1,-2,1,-2")))
    path.write_text(json.dumps(t.to_json()) + "\n")
    inode = path.stat().st_ino
    RecordCache(path)
    assert path.stat().st_ino == inode  # a clean cache is left alone
    path.write_text(json.dumps(t.to_json()))  # a good last line without its end
    RecordCache(path).store(f)
    reloaded = RecordCache(path)
    assert reloaded.warnings == [] and set(reloaded.records.values()) == {t, f}


def test_partial_cache_only_recomputes_missing(tmp_path, monkeypatch):
    path = tmp_path / "cache.jsonl"
    e1, e2 = entry("t", "braid:2:1,1,1"), entry("f", "braid:3:1,-2,1,-2")
    cache = RecordCache(path)
    cache.store(compute_record(e1))
    calls: list[str] = []
    real = search.compute_record

    def counting(entry_, engine="naive"):
        calls.append(entry_.name)
        return real(entry_, engine)

    monkeypatch.setattr(search, "compute_record", counting)
    records = compute_records([e1, e2], cache=cache)
    assert calls == ["f"]  # the cached trefoil is not recomputed
    assert [r.name for r in records] == ["f", "t"]


def _forbid(name):
    def forbidden(*args, **kwargs):
        raise AssertionError(f"{name} was called")

    return forbidden


def test_tl_record_runs_no_enumeration(monkeypatch, forbid_closure):
    forbid_closure()
    monkeypatch.setattr(bracket3_module, "bracket3_raw", _forbid("bracket3_raw"))
    monkeypatch.setattr(classical, "kauffman_bracket", _forbid("kauffman_bracket"))
    rec = compute_record(entry("trefoil", "braid:2:1,1,1"), "tl")
    assert rec.engine == "tl"
    assert rec.f_text == "+1*a^-4 +1*a^-12 -1*a^-16"


def test_naive_record_enumerates_once(monkeypatch):
    calls: list[int] = []
    real = bracket3_module.bracket3_raw

    def counting(d, *args, **kwargs):
        calls.append(d.n)
        return real(d, *args, **kwargs)

    monkeypatch.setattr(bracket3_module, "bracket3_raw", counting)
    monkeypatch.setattr(classical, "kauffman_bracket", _forbid("kauffman_bracket"))
    compute_record(entry("fig8", "braid:3:1,-2,1,-2"), "naive")
    assert calls == [4]


def test_record_takes_no_normal_form(monkeypatch):
    # ambient3 is lifted from the raw sum, so no module reduces anything for a record
    real, patched = quotient.normal_form, []
    for name, module in list(sys.modules.items()):
        if name.startswith("qbracket") and getattr(module, "normal_form", None) is real:
            monkeypatch.setattr(module, "normal_form", _forbid("normal_form"))
            patched.append(name)
    assert {"qbracket.quotient", "qbracket.bracket3", "qbracket.cli"} <= set(patched)
    for text in ("braid:2:1,1,1", "braid:4:1,-2,3,-2,-2", "PD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2),O]"):
        for engine in ("naive", "tl"):
            rec = compute_record(entry("x", text), engine)
            assert rec.ambient3_text.startswith(("+", "-")), text


# -- bucketing -----------------------------------------------------------------------

def test_unknot_and_trefoil_land_in_distinct_buckets():
    records = compute_records([entry("unknot", "braid:1:"), entry("trefoil", "braid:2:1,1,1")])
    buckets = bucket_by_classical(records)
    assert len(buckets) == 2
    assert all(len(group) == 1 for group in buckets.values())


def test_same_knot_two_presentations_share_a_bucket():
    trefoil = parse_braid("braid:2:1,1,1")
    pd = closure(trefoil).text
    records = compute_records([entry("braidform", "braid:2:1,1,1"), entry("pdform", pd)])
    buckets = bucket_by_classical(records)
    assert len(buckets) == 1
    (group,) = buckets.values()
    assert {r.name for r in group} == {"braidform", "pdform"}


# -- the scan ---------------------------------------------------------------------------

def test_scan_singletons_produce_no_comparisons():
    report = conjecture_scan([entry("unknot", "braid:1:"), entry("trefoil", "braid:2:1,1,1")])
    assert report.pairs == []
    assert report.bucket_sizes == {}


def test_scan_same_knot_pair_is_same():
    trefoil = parse_braid("braid:2:1,1,1")
    pd = closure(trefoil).text
    report = conjecture_scan([entry("braidform", "braid:2:1,1,1"), entry("pdform", pd)])
    assert len(report.pairs) == 1
    assert report.pairs[0].verdict == "SAME"
    assert report.bucket_sizes == {report.pairs[0].digest: 2}


def test_scan_deterministic_over_bundled_subset():
    entries = [e for e in load_table(bundled_table_path()).entries if e.crossings <= 6]
    first = conjecture_scan(entries)
    second = conjecture_scan(entries)
    assert first.pairs == second.pairs
    assert first.bucket_sizes == second.bucket_sizes


def _stub_records(table, calls):
    def stub(entry_, engine="naive"):
        calls[entry_.name] += 1
        # like compute_record, a PD-only entry always runs the naive engine
        used = "naive" if entry_.word is None else engine
        f_text, ambient = table[entry_.name]
        return InvariantRecord(
            entry_.name, entry_.presentation, 0, f_text, ambient, used, fingerprint(),
        )

    return stub


#: k1 and k2 share an f bucket but not an ambient3 text, which equal f rules out
MISMATCHED = {"k1": ("F", "+d"), "k2": ("F", "+d^2"), "k3": ("G", "+d")}


def test_scan_reports_a_differing_pair_as_engine_mismatch(monkeypatch):
    calls = Counter()
    monkeypatch.setattr(search, "compute_record", _stub_records(MISMATCHED, calls))
    entries = [entry("k1", "braid:2:1,1,1"), entry("k2", "PD[X(1,5,2,4),X(3,1,4,6),X(5,3,6,2)]"),
               entry("k3", "braid:1:")]
    report = search.conjecture_scan(entries)
    assert report.pairs == [search.PairVerdict("k1", "k2", search.bucket_digest("F"), "ENGINE_MISMATCH", "naive,naive")]
    assert report.bucket_sizes == {search.bucket_digest("F"): 2}
    assert calls == {"k1": 1, "k2": 1, "k3": 1}  # no member is recomputed


@pytest.mark.parametrize("fmt", [[], ["--json"], ["--csv"]])
def test_search_exits_2_after_reporting_an_engine_mismatch(tmp_path, monkeypatch, capsys, fmt):
    table = tmp_path / "t.tsv"
    table.write_text("k1\tbraid:2:1,1,1\nk2\tbraid:2:1,1,-1,1,1\nk3\tbraid:1:\n")
    calls = Counter()
    monkeypatch.setattr(search, "compute_record", _stub_records(MISMATCHED, calls))
    code = main(["search", "--table", str(table), *fmt])
    lines = capsys.readouterr().out.splitlines()
    assert code == 2
    assert calls == {"k1": 1, "k2": 1, "k3": 1}
    (pair,) = [line for line in lines if "k1" in line]
    assert "k2" in pair and "ENGINE_MISMATCH" in pair
    assert fmt == ["--csv"] or "witness_candidates" in lines[-1]  # the full report came first


# -- the benchmark passes -------------------------------------------------------

BENCH_DIR = Path(__file__).resolve().parents[1] / "bench"
GOLDEN_SEED = 5


@pytest.fixture
def bench_child(monkeypatch):
    """``bench/child.py``, loaded with the bench directory first on the path
    so that its own ``import tracing`` and ``import workloads`` resolve."""
    monkeypatch.syspath_prepend(str(BENCH_DIR))
    fresh = {"tracing", "workloads"} - sys.modules.keys()
    spec = importlib.util.spec_from_file_location("bench_child", BENCH_DIR / "child.py")
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    yield child
    for name in fresh:
        sys.modules.pop(name, None)


@pytest.mark.parametrize("workload", ["scan", "rescan", "torus", "words", "moves"])
def test_bench_search_passes_match_the_golden_digests(bench_child, workload, tmp_path, monkeypatch):
    # output drift on any benchmark path fails here, before any benchmark run
    monkeypatch.chdir(tmp_path)
    wl = bench_child.workloads.WORKLOADS[workload](GOLDEN_SEED)
    wl.setup()
    text, checks, failures = bench_child.gate_pass(wl)
    assert checks > 0 and failures == []
    golden = bench_child.load_golden()[str(GOLDEN_SEED)][workload]
    assert bench_child.digest(text) == golden
    # and one timed-style pass after it: for rescan, the warm search
    wl.reset()
    assert bench_child.digest(wl.canonical(wl.run())) == golden
