"""One workload run in a fresh, single-threaded process; ``run.py`` starts it.

    python3 bench/child.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Order: set up (timed as ``setup_s``), one untimed gate pass that checks
every normal form and the workload's output (also the warm-up), then timed
rounds of the workload's operations for ``--seconds`` (at least
``MIN_PASSES``).  With ``--trace 1`` a round is one untraced and one traced
whole pass instead.  Every pass's output must be byte-identical to the gate
pass's, and to the golden digest when one is stored for the seed.  Prints one JSON object.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import bisect  # noqa: E402
import hashlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import qbracket  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qbracket import quotient, search  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
MIN_PASSES = 2
MIN_TRACED_PASSES = 2
BLOCK_S = 0.5
REF_ITERATIONS = 6
REF_REPEATS = 5
REF_SHARE = 0.1
REF_WINDOW_S = 1.0
REF_MIN_RUNS = 20


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_golden() -> dict:
    with open(BENCH_DIR / "golden.json", encoding="utf-8") as fh:
        return json.load(fh)


class Gate:
    """Checks every normal form computed while installed: the result is
    reduced (``is_normal``) and keeps the classical specialization."""

    def __init__(self) -> None:
        self.checks = 0
        self.failures: list[str] = []

    def install(self, patch) -> None:
        normal_form = quotient.normal_form
        is_normal = quotient.is_normal
        specialize = quotient.specialize_classical
        gate = self

        def gated(p):
            try:
                out = normal_form(p)
            except Exception as exc:
                gate.checks += 1
                gate.failures.append(f"normal_form raised {exc!r}")
                raise
            gate.checks += 1
            if not is_normal(out):
                gate.failures.append(f"normal form not reduced: {out}")
            elif specialize(out) != specialize(p):
                gate.failures.append(f"normal form changed the classical specialization: {out}")
            return out

        patch.function(normal_form, gated)


def gate_pass(wl) -> tuple[str, int, list[str]]:
    """The first pass: returns (output, checks made, failures)."""
    patch = tracing.Patch()
    gate = Gate()
    gate.install(patch)
    wl.reset()
    try:
        text = wl.run()
    except Exception as exc:
        return "", gate.checks + 1, gate.failures + [f"gate pass raised {exc!r}"]
    finally:
        patch.undo()
    checks, failures = wl.check_output(text)
    return wl.canonical(text), gate.checks + checks, gate.failures + failures


#: Two fixed sparse polynomials in three variables, 400 terms each.
REF_P = {(i % 11, i // 11 % 7, i // 77): i * 7919 % 1000003 + 1 for i in range(400)}
REF_Q = {((i + 3) % 11, (i // 11 + 2) % 7, i // 77): i * 104729 % 1000033 + 1 for i in range(400)}


def reference_loop() -> int:
    """Fixed pure-Python work that no change to qbracket can alter: repeated
    sums of sparse polynomials stored as tuple-keyed dicts, copied and
    rebuilt the way qbracket's polynomial arithmetic does (the hot path of
    every workload's normal forms)."""
    p = REF_P
    for _ in range(REF_ITERATIONS):
        out = dict(p)
        for mono, coeff in REF_Q.items():
            total = out.get(mono, 0) + coeff
            if total:
                out[mono] = total
            else:
                out.pop(mono, None)
        clean: dict = {}
        for (ea, eb, ed), coeff in out.items():
            if coeff:
                clean[(ea, eb, ed)] = clean.get((ea, eb, ed), 0) + coeff
        p = {mono: coeff for mono, coeff in clean.items() if coeff}
    return len(p)


def reference_runs(seconds: float, out: list[tuple[float, float]]) -> None:
    """Run ``reference_loop`` for ``seconds`` and at least ``REF_REPEATS``
    times; append each run's (midpoint, duration) to ``out``."""
    start = time.perf_counter()
    for k in itertools.count():
        if k >= REF_REPEATS and time.perf_counter() - start >= seconds:
            return
        t = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        out.append(((t + end) / 2, end - t))


def local_reference(refs: list[tuple[float, float]], mids: list[float], at: float) -> float:
    """Median duration of the reference runs within ``REF_WINDOW_S`` of
    ``at``; the window widens until it holds ``REF_MIN_RUNS`` runs."""
    window = REF_WINDOW_S
    while True:
        lo = bisect.bisect_left(mids, at - window)
        hi = bisect.bisect_right(mids, at + window)
        if hi - lo >= REF_MIN_RUNS or hi - lo == len(refs):
            return statistics.median(d for _, d in refs[lo:hi])
        window *= 2


def run_rounds(ops, reset, seconds: float, minimum: int, expect: str, canonical,
               failures: list[str]) -> dict:
    """Rounds for ``seconds``, at least ``minimum`` of them.  A round calls
    ``reset`` and then every operation in ``ops`` once, in order: one pass
    over the workload's full input set.  Each operation is timed on its own.
    After every ``BLOCK_S`` of operations the reference loop runs for
    ``REF_SHARE`` of that time.  An operation's cost in reference units is its
    time over the median reference run near it (``local_reference``).  The
    pass cost is the sum over the operations of each one's median, so a
    burst of machine noise moves only the samples it hits.  A round whose
    output differs from the gate pass fails."""
    samples: list[list[tuple[float, float]]] = [[] for _ in ops]
    rounds: list[float] = []
    refs: list[tuple[float, float]] = []
    reference_runs(REF_SHARE * BLOCK_S, refs)
    start = block_start = time.perf_counter()
    while len(rounds) < minimum or time.perf_counter() - start + rounds[-1] <= seconds:
        reset()
        parts, total = [], 0.0
        for i, op in enumerate(ops):
            t = time.perf_counter()
            parts.append(op())
            end = time.perf_counter()
            total += end - t
            samples[i].append(((t + end) / 2, end - t))
            if end - block_start >= BLOCK_S:
                reference_runs(REF_SHARE * (end - block_start), refs)
                block_start = time.perf_counter()
        rounds.append(total)
        if digest(canonical("".join(parts))) != expect:
            failures.append(f"pass {len(rounds)} output differs from the gate pass")
    reference_runs(REF_SHARE * BLOCK_S, refs)

    mids = [m for m, _ in refs]
    ratios = [[dt / local_reference(refs, mids, at) for at, dt in op] for op in samples]
    op_ref = [statistics.median(op) for op in ratios]
    return {
        "wall_s": sum(statistics.median(dt for _, dt in op) for op in samples),
        "wall_ref": sum(op_ref),
        "op_ref": op_ref,
        "round_s": rounds,
        "round_ref": [sum(op[r] for op in ratios) for r in range(len(rounds))],
        "ref_s": [d for _, d in refs],
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    workdir = Path(workloads.WORKDIR) / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    os.chdir(workdir)
    wl = workloads.WORKLOADS[args.workload](args.seed)
    wl.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    text, attempted, failures = gate_pass(wl)
    expect = digest(text)
    golden = load_golden().get(str(args.seed), {}).get(args.workload)
    if golden is not None:
        attempted += 1
        if golden != expect:
            failures.append(f"output digest {expect[:16]} differs from the golden {golden[:16]}")

    result: dict = {"setup_s": setup_s}
    if not failures and args.trace:
        result.update(traced_rounds(wl, args.seconds, text, failures))
        attempted += 2 * len(result["passes"]["round_s"]) + 1
        failures.extend(wl.check_counts(result["counts"]))
    elif not failures:
        result["passes"] = run_rounds(wl.ops, wl.reset, args.seconds, MIN_PASSES, expect,
                                      wl.canonical, failures)
        attempted += len(result["passes"]["round_s"])

    result.update({
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "digest": expect,
        "golden": "none" if golden is None else "match" if golden == expect else "mismatch",
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "report": {
            "qbracket_version": qbracket.__version__,
            "fingerprint": search.fingerprint(),
            "engines": list(wl.engines),
            "python": sys.version.split()[0],
            "qbracket_threads": os.environ.get("QBRACKET_THREADS"),
        },
    })
    print(json.dumps(result))
    return 0


def traced_rounds(wl, seconds: float, text: str, failures: list[str]) -> dict:
    """Rounds of one untraced and one traced whole pass, so that both see the
    same machine: per-layer times (median over the traced passes), counts
    (which must repeat exactly from pass to pass) and the tracing overhead.
    Each pass resets the workload and reads its canonical output itself; the
    two passes do the same extra work."""
    tracers = []

    def untraced_pass() -> str:
        wl.reset()
        return wl.canonical(wl.run())

    def traced_pass() -> str:
        tracer, patch = tracing.Tracer(), tracing.Patch()
        wl.reset()
        tracing.install(tracer, patch, workloads)
        try:
            out = wl.run()
        finally:
            patch.undo()
        tracers.append(tracer)
        return wl.canonical(out)

    paired = run_rounds([untraced_pass, traced_pass], lambda: None, seconds, MIN_TRACED_PASSES,
                        digest(text * 2), lambda joined: joined, failures)
    runs = [tracer.metrics() for tracer in tracers]
    counts = runs[0][1]
    if any(c != counts for _, c in runs[1:]):
        failures.append("per-layer counts differ between traced passes")
    times = {k: statistics.median(t[k] for t, _ in runs) for k in runs[0][0]}
    write_spans(tracers[0].spans)
    untraced_ref, traced_ref = paired["op_ref"]
    return {"passes": paired, "times": times, "counts": counts,
            "overhead_frac": traced_ref / untraced_ref - 1}


def write_spans(spans) -> None:
    """Spans of the first traced pass, one JSON list per line."""
    with open("spans.jsonl", "w", encoding="utf-8") as fh:
        for span in sorted(spans):
            fh.write(json.dumps(span) + "\n")


if __name__ == "__main__":
    raise SystemExit(main())
