"""Link diagrams: braid words, PD codes, closures, orientation, and rewrites.

Two input forms are supported.  A braid word ``braid:<n>:<letters>`` lists
signed generators (letter +i is the half-twist where strand i passes over
strand i+1, -i its inverse); its trace closure is the diagram of interest.
A PD code ``PD[X(a,b,c,d),...]`` lists crossings by the four incident arc
labels, counterclockwise starting at the incoming under-strand arc, with
labels increasing along each component (the usual knot-table convention).

Crossing smoothings, which the state sums of :mod:`.bracket3` apply, follow
one fixed convention throughout the package: for ``X(a,b,c,d)`` the
A-smoothing joins a-b and c-d and the B-smoothing joins a-d and b-c.  For a
positive braid letter this makes the A-smoothing the identity tangle and the
B-smoothing the cup-cap, and for a negative letter the roles swap; the
classical value -a^3 of a positive curl pins this choice down (see the test
suite, which validates rather than assumes it).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

Quad = tuple[int, int, int, int]


class DiagramError(ValueError):
    """Raised for malformed braid/PD input or failed orientation inference."""


# -- braid words --------------------------------------------------------------

@dataclass(frozen=True)
class BraidWord:
    """A word in the braid group on ``strands`` strands."""

    strands: int
    letters: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.strands < 1:
            raise DiagramError(f"strand count must be >= 1, got {self.strands}")
        for pos, letter in enumerate(self.letters):
            if letter == 0:
                raise DiagramError(f"letter 0 at position {pos} is not a generator")
            if abs(letter) >= self.strands:
                raise DiagramError(
                    f"letter {letter} at position {pos} out of range for {self.strands} strands"
                )

    @property
    def writhe(self) -> int:
        return sum(1 if l > 0 else -1 for l in self.letters)

    @property
    def text(self) -> str:
        return f"braid:{self.strands}:" + ",".join(str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.text


def parse_braid(text: str) -> BraidWord:
    """Parse ``braid:<n>:<comma-separated letters>`` (letters may be empty).

    The strand count and the letters are integers in ASCII digits: ``int``
    alone would also read other scripts' digits and ``_`` separators, which
    would give one braid word two texts."""
    s = text.strip()
    parts = s.split(":")
    if len(parts) != 3 or parts[0] != "braid":
        raise DiagramError(f"expected 'braid:<n>:<letters>', got {text!r}")
    if not s.isascii() or "_" in s:
        raise DiagramError(f"{text!r}: the strand count and letters take ASCII digits only")
    try:
        strands = int(parts[1])
    except ValueError:
        raise DiagramError(f"strand count {parts[1]!r} is not an integer") from None
    letters = []
    body = parts[2].strip()
    if body:
        for pos, tok in enumerate(body.split(",")):
            try:
                letters.append(int(tok.strip()))
            except ValueError:
                raise DiagramError(f"letter {tok.strip()!r} at position {pos} is not an integer") from None
    return BraidWord(strands, tuple(letters))


def add_kink(b: BraidWord, sign: int) -> BraidWord:
    """Markov stabilization: one extra strand and a curl of the given sign.

    The closure keeps its link type while the writhe moves by ``sign``.
    """
    if sign not in (1, -1):
        raise ValueError("kink sign must be +1 or -1")
    return BraidWord(b.strands + 1, b.letters + (sign * b.strands,))


def conjugate(b: BraidWord, letter: int) -> BraidWord:
    """The word g w g^-1; its closure is the same link."""
    if letter == 0 or abs(letter) >= b.strands:
        raise DiagramError(f"conjugating letter {letter} out of range")
    return BraidWord(b.strands, (letter,) + b.letters + (-letter,))


# -- deterministic rewrite engine ---------------------------------------------

# 64-bit linear congruential generator, Knuth's MMIX constants.  Chosen so
# rewrite sequences are reproducible from the seed alone, on any platform.
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407
_LCG_MASK = (1 << 64) - 1


def rewrite_moves(b: BraidWord, seed: int, count: int) -> BraidWord:
    """Apply ``count`` random closure-preserving rewrites.

    Moves: insert or delete an adjacent cancelling pair (move II), replace
    s_i s_{i+1} s_i by s_{i+1} s_i s_{i+1} with uniform sign (move III), and
    swap far-apart commuting letters.  Writhe, strand count, and the closure
    permutation are all preserved.  Each draw is the top bits of one LCG step
    modulo the range, and a draw of an inapplicable move is redrawn.  The pair
    moves need 2 strands, the braid relation 3 and far commutation 4; below
    that no spot is sought, and a 1-strand word is returned unchanged.
    """
    if count < 0:
        raise ValueError("rewrite count must be >= 0")
    state = seed & _LCG_MASK
    word = list(b.letters)
    n = b.strands
    for _ in range(count):
        for _attempt in range(100):
            state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
            move = (state >> 33) % 4
            if move == 0 and n >= 2:  # insert g g^-1
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                pos = (state >> 33) % (len(word) + 1)
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                g = (state >> 33) % (n - 1) + 1
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                word[pos:pos] = [g, -g] if (state >> 33) % 2 else [-g, g]
                break
            if move == 1:  # delete an adjacent cancelling pair
                spots = [k for k in range(len(word) - 1) if word[k] == -word[k + 1]]
            elif move == 2 and n >= 3:  # braid relation on a same-sign triple
                spots = [k for k in range(len(word) - 2) if word[k] == word[k + 2]
                         and (word[k] > 0) == (word[k + 1] > 0) and abs(abs(word[k]) - abs(word[k + 1])) == 1]
            elif move == 3 and n >= 4:  # commute distant generators
                spots = [k for k in range(len(word) - 1) if abs(abs(word[k]) - abs(word[k + 1])) >= 2]
            else:
                continue
            if spots:
                state = (_LCG_MULT * state + _LCG_INC) & _LCG_MASK
                k = spots[(state >> 33) % len(spots)]
                if move == 1:
                    del word[k:k + 2]
                elif move == 2:
                    word[k:k + 3] = [word[k + 1], word[k], word[k + 1]]
                else:
                    word[k], word[k + 1] = word[k + 1], word[k]
                break
        # all attempts inapplicable: skip this rewrite
    return BraidWord(n, tuple(word))


# -- PD diagrams ---------------------------------------------------------------

@dataclass(frozen=True)
class Diagram:
    """A diagram as PD crossings plus any crossing-free circles.

    Arc labels must each occur exactly twice and cover 1..2n for n crossings,
    which must fit in the plane (:func:`check_planar`).  ``free_loops`` counts
    closed curves that meet no crossing; they arise from braid closures (e.g.
    unused strands) and join the state sum as plain circles.
    """

    crossings: tuple[Quad, ...] = ()
    free_loops: int = 0

    def __post_init__(self) -> None:
        if self.free_loops < 0:
            raise DiagramError("free loop count cannot be negative")
        counts: dict[int, int] = {}
        for quad in self.crossings:
            for label in quad:
                counts[label] = counts.get(label, 0) + 1
        n = len(self.crossings)
        for label, cnt in sorted(counts.items()):
            if cnt != 2:
                raise DiagramError(f"arc label {label} occurs {cnt} times, expected 2")
        if counts and set(counts) != set(range(1, 2 * n + 1)):
            raise DiagramError(f"arc labels must be exactly 1..{2 * n}")
        if not self.crossings and self.free_loops == 0:
            raise DiagramError("empty diagram: no crossings and no circles")
        check_planar(self)

    @property
    def n(self) -> int:
        return len(self.crossings)

    @property
    def text(self) -> str:
        return pd_text(self)

    def __str__(self) -> str:
        return self.text


def pd_text(d: Diagram) -> str:
    """Canonical serialization: crossings sorted, free circles as ``O``."""
    parts = [f"X({a},{b},{c},{e})" for a, b, c, e in sorted(d.crossings)]
    parts.extend("O" * d.free_loops)
    return "PD[" + ",".join(parts) + "]"


_PD_SHELL = re.compile(r"^PD\[(.*)\]$", re.DOTALL)
_PD_ITEM = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|O")


def parse_pd(text: str) -> Diagram:
    """Parse ``PD[X(a,b,c,d),...]``; ``O`` entries stand for free circles."""
    s = re.sub(r"\s+", "", text.strip())
    m = _PD_SHELL.match(s)
    if not m:
        raise DiagramError(f"expected 'PD[...]', got {text!r}")
    if not s.isascii():  # \d alone also reads other scripts' digits
        raise DiagramError(f"{text!r}: the arc labels take ASCII digits only")
    body = m.group(1)
    crossings: list[Quad] = []
    free = 0
    pos = 0
    while pos < len(body):
        item = _PD_ITEM.match(body, pos)
        if not item:
            raise DiagramError(f"bad PD syntax at position {pos}: {body[pos:pos + 16]!r}")
        if item.group(0) == "O":
            free += 1
        else:
            crossings.append(tuple(int(item.group(k)) for k in range(1, 5)))  # type: ignore[arg-type]
        pos = item.end()
        if pos < len(body):
            if body[pos] != ",":
                raise DiagramError(f"expected ',' at position {pos} in PD body")
            pos += 1
    d = Diagram(tuple(crossings), free)
    if d.crossings:
        orient(d)  # reject diagrams whose orientation cannot be inferred
    return d


# -- ports, faces and planarity ------------------------------------------------

def port_mates(crossings: tuple[Quad, ...]) -> list[int]:
    """Port 4k+s is slot s of crossing k; entry p is the other port of p's
    arc, the other slot that carries its label."""
    mate = [0] * (4 * len(crossings))
    first: dict[int, int] = {}
    for port, label in enumerate(label for quad in crossings for label in quad):
        if label in first:
            mate[port], mate[first[label]] = first[label], port
        else:
            first[label] = port
    return mate


def count_cycles(perm: list[int]) -> int:
    """The number of cycles of ``perm``, a permutation of range(len(perm))."""
    seen = [False] * len(perm)
    cycles = 0
    for start in range(len(perm)):
        if not seen[start]:
            cycles += 1
            x = start
            while not seen[x]:
                seen[x] = True
                x = perm[x]
    return cycles


def check_planar(d: Diagram) -> None:
    """Raise DiagramError unless the crossings of ``d`` can be drawn in the plane.

    The faces are the cycles of: run along a port's arc to its other port,
    then turn to the next slot counterclockwise at that crossing.  By Euler's
    formula, n crossings in c connected pieces bound n + 2c faces in the
    plane and fewer on any surface of higher genus.
    """
    mate = port_mates(d.crossings)
    faces = count_cycles([q + 1 if q % 4 < 3 else q - 3 for q in mate])
    pieces = 0
    reached = [False] * d.n
    for k in range(d.n):
        if not reached[k]:
            pieces += 1
            reached[k] = True
            stack = [k]
            while stack:
                c = stack.pop()
                for q in mate[4 * c:4 * c + 4]:
                    if not reached[q // 4]:
                        reached[q // 4] = True
                        stack.append(q // 4)
    if faces != d.n + 2 * pieces:
        raise DiagramError(
            f"not a planar diagram: {d.n} crossings in {pieces} connected "
            f"piece(s) bound {faces} faces, where the plane has {d.n + 2 * pieces}"
        )


# -- orientation: crossing signs and component count ---------------------------

@dataclass(frozen=True)
class Orientation:
    signs: tuple[int, ...]       # one per crossing
    components: int              # including free loops


def orient(d: Diagram) -> Orientation:
    """Infer strand directions from the labels-increase convention.

    Port 4k+s is slot s of crossing k.  A strand that enters at slot s
    leaves at the opposite slot s^2 and runs along that slot's arc to the
    arc's other port.  Each component is walked once, from its start:

    - a component that passes under somewhere starts at the first crossing
      (by index) where it does, going a -> c, and must never enter a crossing
      at c, where an under-strand leaves;
    - a component that only passes over starts at the first crossing whose
      over labels step by one, entering at the lower label.  A two-arc such
      component reads the same both ways, but the writhe does not hang on
      the choice: its two crossings are with one other component, which
      enters and leaves the disc it bounds, so their signs cancel.  That
      holds in the plane, and every ``Diagram`` is planar.

    A crossing is positive when its over-strand enters at slot d.  Along each
    component the labels go up by one at every step but one (the wrap).
    Inconsistencies raise DiagramError rather than guessing.
    """
    labels = [label for quad in d.crossings for label in quad]
    mate = port_mates(d.crossings)
    signs = [0] * d.n
    entered = [False] * len(labels)

    def walk(start: int) -> None:
        """Walk the component entering at port ``start``, setting its signs."""
        port, wraps = start, 0
        while True:
            k, slot = divmod(port, 4)
            if slot == 2:
                raise DiagramError(f"arc {labels[port]} leaves two crossings; orientation failed")
            entered[port] = True
            if slot % 2:
                signs[k] = 1 if slot == 3 else -1
            wraps += labels[port ^ 2] != labels[port] + 1
            port = mate[port ^ 2]
            if port == start:
                break
        if wraps != 1:
            raise DiagramError("arc labels do not increase along a component")

    components = d.free_loops
    for k in range(d.n):
        if not entered[4 * k]:
            walk(4 * k)
            components += 1
    for k, (_, lb, _, ld) in enumerate(d.crossings):
        if lb == ld:
            raise DiagramError(f"crossing {k}: over-strand direction is ambiguous")
        if signs[k] or abs(ld - lb) != 1:
            continue
        walk(4 * k + (1 if ld == lb + 1 else 3))
        components += 1
    if not all(signs):
        raise DiagramError("cannot orient over-strands from arc labels")
    return Orientation(tuple(signs), components)


def writhe(d: Diagram) -> int:
    """Sum of crossing signs of the oriented diagram."""
    return sum(orient(d).signs)


def components(d: Diagram) -> int:
    return orient(d).components


# -- braid closure --------------------------------------------------------------

def closure(b: BraidWord) -> Diagram:
    """The trace closure of a braid word as a PD diagram.

    Port 4k+s is corner s of crossing k: bottom-left, bottom-right, top-left,
    top-right.  A strand enters a crossing at the bottom and leaves at the
    opposite top corner, then rises along its position to the bottom of the
    next crossing there, wrapping through the closure past the top.  That
    next-crossing-up map is built once; then each component is walked from
    the first crossing at the lowest position it occupies, and its arcs are
    labelled 1, 2, ... in walking order, so the code satisfies the same
    conventions as table PD codes.  The crossing count equals the letter
    count, and strands no letter touches become free circles.
    """
    up: dict[int, int] = {}  # top port -> bottom port of the next crossing up
    lowest: dict[int, int] = {}  # position -> bottom port of its first crossing
    top: dict[int, int] = {}  # position -> top port of its last crossing so far
    for k, letter in enumerate(b.letters):
        i = abs(letter)
        for position, bottom in ((i, 4 * k), (i + 1, 4 * k + 1)):
            if position in top:
                up[top[position]] = bottom
            else:
                lowest[position] = bottom
            top[position] = bottom + 2
    for position, port in top.items():
        up[port] = lowest[position]  # wrap through the closure

    labels = [0] * (4 * len(b.letters))
    label = 0
    for position in sorted(lowest):
        start = entry = lowest[position]
        if labels[start]:
            continue
        while True:
            out = entry ^ 3  # bottom-left leaves top-right and vice versa
            label += 1
            entry = up[out]
            labels[out] = labels[entry] = label
            if entry == start:
                break

    quads: list[Quad] = []
    for k, letter in enumerate(b.letters):
        bl, br, tl, tr = labels[4 * k:4 * k + 4]
        # the under-strand enters bottom-right for a positive letter, bottom-left for a negative one
        quads.append((br, tr, tl, bl) if letter > 0 else (bl, br, tr, tl))
    return Diagram(tuple(quads), b.strands - len(lowest))
