import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from qbracket import BraidWord, closure, parse_braid

#: Base words whose closures exercise every code path: a two-crossing unknot
#: (destabilizes twice), the Hopf link, both torus knots on two strands, and
#: the figure-eight.
CORPUS_WORDS = {
    "unknot": "braid:3:1,-2",
    "hopf": "braid:2:1,1",
    "trefoil": "braid:2:1,1,1",
    "figure8": "braid:3:1,-2,1,-2",
    "torus5": "braid:2:1,1,1,1,1",
}


@pytest.fixture(scope="session")
def corpus() -> dict[str, BraidWord]:
    return {name: parse_braid(text) for name, text in CORPUS_WORDS.items()}


@pytest.fixture(scope="session")
def corpus_diagrams(corpus):
    return {name: closure(word) for name, word in corpus.items()}


@pytest.fixture
def forbid_closure(monkeypatch):
    """Call it to make every ``closure`` the package binds raise, for paths
    that must answer from the braid word alone."""

    def forbidden(*args, **kwargs):
        raise AssertionError("closure was called")

    def install() -> None:
        for name, module in list(sys.modules.items()):
            if (name == "qbracket" or name.startswith("qbracket.")) and getattr(module, "closure", None) is closure:
                monkeypatch.setattr(module, "closure", forbidden)

    return install


#: Address-space cap of a ``capped_cli`` run: an input that needs more memory
#: fails the test with a MemoryError instead of taking the machine's memory.
CLI_ADDRESS_SPACE = 1 << 30

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def capped_cli():
    """Call it with CLI arguments to run ``python -m qbracket.cli`` in a
    subprocess under ``CLI_ADDRESS_SPACE`` and a timeout (``TimeoutExpired``
    fails the test); it returns the ``CompletedProcess`` with text output."""

    def cap() -> None:
        resource.setrlimit(resource.RLIMIT_AS, (CLI_ADDRESS_SPACE, CLI_ADDRESS_SPACE))

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*argv: str, timeout: float = 30.0) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "qbracket.cli", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=cap,
            env=env,
        )

    return run
