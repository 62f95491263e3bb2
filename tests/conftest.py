import sys

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
