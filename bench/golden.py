"""Rewrite ``golden.json``: the sha256 of every workload's output text for
each seed in ``GOLDEN_SEEDS``, taken from a gate pass whose checks all pass.

    PYTHONPATH=src python3 bench/golden.py      # from the checkout root

Canonical output is meant to stay byte-identical, so this is run only when a
change of output is intended and explained; ``child.py`` fails any run whose
output differs from the digest stored for its seed.
"""

import json
import os
import sys
from pathlib import Path

os.environ["QBRACKET_THREADS"] = "1"

import child  # noqa: E402
import workloads  # noqa: E402

GOLDEN_SEEDS = range(0, 11)


def main() -> int:
    root = Path.cwd()
    golden: dict[str, dict[str, str]] = {}
    for seed in GOLDEN_SEEDS:
        for name, cls in workloads.WORKLOADS.items():
            workdir = root / workloads.WORKDIR / name
            workdir.mkdir(parents=True, exist_ok=True)
            os.chdir(workdir)
            try:
                wl = cls(seed)
                wl.setup()
                text, _, failures = child.gate_pass(wl)
            finally:
                os.chdir(root)
            if failures:
                print(f"seed {seed} {name}: {failures[:5]}", file=sys.stderr)
                return 1
            golden.setdefault(str(seed), {})[name] = child.digest(text)
            print(f"seed {seed} {name}: {golden[str(seed)][name][:16]}", flush=True)
    (child.BENCH_DIR / "golden.json").write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
