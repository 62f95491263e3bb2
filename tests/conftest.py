import itertools
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import strategies as st

from qbracket.diagram import BraidWord, Diagram, Quad, closure, parse_braid

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


def permutation(word: BraidWord) -> tuple[int, ...]:
    """Image of each strand position (0-based) under the word."""
    perm = list(range(word.strands))
    pos_of = list(range(word.strands))  # strand currently at each position
    for letter in word.letters:
        i = abs(letter) - 1
        pos_of[i], pos_of[i + 1] = pos_of[i + 1], pos_of[i]
    for i, s in enumerate(pos_of):
        perm[s] = i
    return tuple(perm)


def cycle_count(word: BraidWord) -> int:
    """The number of components of the word's closure, by its permutation:
    the oracle that ``diagram.components`` is checked against."""
    perm = permutation(word)
    seen = [False] * word.strands
    cycles = 0
    for i in range(word.strands):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return cycles


@pytest.fixture(scope="session")
def corpus() -> dict[str, BraidWord]:
    return {name: parse_braid(text) for name, text in CORPUS_WORDS.items()}


@pytest.fixture(scope="session")
def corpus_diagrams(corpus):
    return {name: closure(word) for name, word in corpus.items()}


@st.composite
def braid_words(draw, max_strands: int = 4, max_letters: int = 8, min_letters: int = 0,
                min_strands: int = 2) -> BraidWord:
    """A word on ``min_strands`` to ``max_strands`` strands of
    ``min_letters`` to ``max_letters`` letters."""
    n = draw(st.integers(min_value=min_strands, max_value=max_strands))
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    return BraidWord(n, tuple(draw(st.lists(letter, min_size=min_letters, max_size=max_letters))))


@st.composite
def pd_codes(draw, max_strands: int = 5, max_letters: int = 10) -> tuple[BraidWord, Diagram]:
    """A braid word and its closure as a PD code that orientation must infer:
    the crossings shuffled and, for a one-component closure, the labels
    shifted cyclically, so neither the crossing order nor where the labels
    wrap follows the braid.  Writhe, components and raw sum are the word's."""
    n = draw(st.integers(min_value=2, max_value=max_strands))
    letter = st.integers(min_value=1, max_value=n - 1).flatmap(lambda i: st.sampled_from([i, -i]))
    word = BraidWord(n, tuple(draw(st.lists(letter, min_size=1, max_size=max_letters))))
    d = closure(word)
    quads = draw(st.permutations(d.crossings))
    if cycle_count(word) == 1:
        arcs = 2 * d.n
        shift = draw(st.integers(min_value=0, max_value=arcs - 1))
        quads = [tuple((label - 1 + shift) % arcs + 1 for label in quad) for quad in quads]
    return word, Diagram(tuple(quads), d.free_loops)


@st.composite
def label_arrangements(draw, max_crossings: int = 4) -> tuple[Quad, ...]:
    """Any placement of the labels 1..2n, each twice, on 1..``max_crossings``
    crossings: a valid ``Diagram`` exactly when it is planar, and most are
    not orientable."""
    n = draw(st.integers(min_value=1, max_value=max_crossings))
    labels = draw(st.permutations([label for label in range(1, 2 * n + 1) for _ in range(2)]))
    return tuple(tuple(labels[4 * k:4 * k + 4]) for k in range(n))


def every_arrangement(n: int) -> list[tuple[Quad, ...]]:
    """Every placement of the labels 1..2n, each twice, on n crossings, in
    sorted order (2,520 for two crossings)."""
    placements = sorted(set(itertools.permutations([label for label in range(1, 2 * n + 1) for _ in range(2)])))
    return [tuple(p[4 * k:4 * k + 4] for k in range(n)) for p in placements]


def pd_code(crossings: tuple[Quad, ...]) -> str:
    """The PD text of ``crossings`` in their own order (``pd_text`` sorts them)."""
    return "PD[" + ",".join("X({},{},{},{})".format(*quad) for quad in crossings) + "]"


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
    subprocess under an address-space cap (``address_space`` bytes,
    ``CLI_ADDRESS_SPACE`` by default) and a timeout (``TimeoutExpired``
    fails the test); it returns the ``CompletedProcess`` with text output."""

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}

    def run(*argv: str, timeout: float = 30.0, address_space: int = CLI_ADDRESS_SPACE) -> subprocess.CompletedProcess:
        def cap() -> None:
            resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

        return subprocess.run(
            [sys.executable, "-m", "qbracket.cli", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            preexec_fn=cap,
            env=env,
        )

    return run
