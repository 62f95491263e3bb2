"""qbracket benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload scan|rescan|torus|words|moves --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` (nothing is installed).  Each run starts fresh single-threaded
processes (``child.py``) with ``QBRACKET_THREADS=1``: ``SETUP_SAMPLES - 1``
that only set up, for the ``setup_s`` median, and one that sets up, checks
and measures.  With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer ones from a traced run.  The last stdout
line is the result; the line before it and ``.bench_out/BENCH_<workload>_
seed<N>_trace<T>.json`` hold the self-describing report.  Exit status is 0
only when every check passed; otherwise the failed checks go to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from tracing import PER_LAYER

BENCH_DIR = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("scan", "rescan", "torus", "words", "moves")
SETUP_SAMPLES = 7  # odd: the measuring process plus three before and three after
CHILD_TIMEOUT_S = 120
SETUP_TIMEOUT_S = 10


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from ``.git`` directly; ``unknown`` outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_child(root: Path, env: dict, args: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "child.py"), *args],
        cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    """Median, quartiles, sample count, and the highest of p90/p99 that has
    at least ten samples beyond it."""
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    out = {"median": statistics.median(values), "p25": q[0], "p75": q[2], "n": len(values)}
    if len(values) >= 1000:
        out["p99"] = statistics.quantiles(values, n=100)[98]
    elif len(values) >= 100:
        out["p90"] = statistics.quantiles(values, n=10)[8]
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "qbracket" / "__init__.py").is_file():
        print(f"error: no qbracket sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    user_threads = os.environ.get("QBRACKET_THREADS")
    env = dict(os.environ, QBRACKET_THREADS="1", PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    common = ["--workload", args.workload, "--seed", str(args.seed)]

    # Set-up-only processes run before and after the measuring one, so the
    # setup_s median spans the whole run.
    setup_only = SETUP_SAMPLES // 2 if not args.trace else 0
    setups = [run_child(root, env, common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
              for _ in range(setup_only)]
    out = run_child(root, env, common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                    CHILD_TIMEOUT_S)
    setups.append(out["setup_s"])
    setups += [run_child(root, env, common + ["--setup-only"], SETUP_TIMEOUT_S)["setup_s"]
               for _ in range(setup_only)]

    attempted, failed = out["attempted"], out["failed"]
    if failed:
        print("\n".join(["checks failed:"] + out["failures"]), file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}))
        return 1
    if args.trace:
        values = {**out["times"], **out["counts"], "trace.overhead_frac": out["overhead_frac"]}
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            metrics[name] = {"value": values[name], "unit": unit}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_ref": {"value": out["passes"]["wall_ref"], "unit": "ref"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "frac"},
        }

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "run_seconds": args.seconds,
        **out["report"],
        "qbracket_threads_user": user_threads,
        "git_commit": git_commit(root),
        "nproc": os.cpu_count(),
        "setup_s": summary(setups),
        "wall_s": out["passes"]["wall_s"],
        "wall_ref": out["passes"]["wall_ref"],
        "round_s": summary(out["passes"]["round_s"]),
        "round_ref": summary(out["passes"]["round_ref"]),
        "ref_s": summary(out["passes"]["ref_s"]),
        # with --trace 1, [untraced, traced] median pass cost in ref
        "pass_ref": out["passes"]["op_ref"] if args.trace else None,
        "digest": out["digest"],
        "golden": out["golden"],
        "metrics": metrics,
    }
    outdir = root / ".bench_out"
    outdir.mkdir(exist_ok=True)
    (outdir / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
