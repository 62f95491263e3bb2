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

import functools
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

    def permutation(self) -> tuple[int, ...]:
        """Image of each strand position (0-based) under the word."""
        perm = list(range(self.strands))
        pos_of = list(range(self.strands))  # strand currently at each position
        for letter in self.letters:
            i = abs(letter) - 1
            pos_of[i], pos_of[i + 1] = pos_of[i + 1], pos_of[i]
        for i, s in enumerate(pos_of):
            perm[s] = i
        return tuple(perm)

    def cycle_count(self) -> int:
        perm = self.permutation()
        seen = [False] * self.strands
        cycles = 0
        for i in range(self.strands):
            if not seen[i]:
                cycles += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = perm[j]
        return cycles

    @property
    def text(self) -> str:
        return f"braid:{self.strands}:" + ",".join(str(l) for l in self.letters)

    def __str__(self) -> str:
        return self.text


def parse_braid(text: str) -> BraidWord:
    """Parse ``braid:<n>:<comma-separated letters>`` (letters may be empty)."""
    s = text.strip()
    parts = s.split(":")
    if len(parts) != 3 or parts[0] != "braid":
        raise DiagramError(f"expected 'braid:<n>:<letters>', got {text!r}")
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


def _lcg(state: int) -> int:
    return (_LCG_MULT * state + _LCG_INC) & _LCG_MASK


def _draw(state: int, n: int) -> tuple[int, int]:
    """Next state and a uniform-ish draw from range(n) using the top bits."""
    state = _lcg(state)
    return state, (state >> 33) % n


def rewrite_moves(b: BraidWord, seed: int, count: int) -> BraidWord:
    """Apply ``count`` random closure-preserving rewrites.

    Moves: insert or delete an adjacent cancelling pair (move II), replace
    s_i s_{i+1} s_i by s_{i+1} s_i s_{i+1} with uniform sign (move III), and
    swap far-apart commuting letters.  Writhe, strand count, and the closure
    permutation are all preserved.  Draws that land on an inapplicable move
    are redrawn; on a 1-strand word every move is inapplicable and the word
    is returned unchanged.
    """
    if count < 0:
        raise ValueError("rewrite count must be >= 0")
    state = seed & _LCG_MASK
    word = list(b.letters)
    n = b.strands
    for _ in range(count):
        for _attempt in range(100):
            state, move = _draw(state, 4)
            if move == 0 and n >= 2:  # insert g g^-1
                state, pos = _draw(state, len(word) + 1)
                state, gen = _draw(state, n - 1)
                state, sgn = _draw(state, 2)
                g = (gen + 1) * (1 if sgn else -1)
                word[pos:pos] = [g, -g]
                break
            if move == 1:  # delete an adjacent cancelling pair
                spots = [k for k in range(len(word) - 1) if word[k] == -word[k + 1]]
                if spots:
                    state, pick = _draw(state, len(spots))
                    k = spots[pick]
                    del word[k:k + 2]
                    break
            if move == 2:  # braid relation on a same-sign triple
                spots = [
                    k for k in range(len(word) - 2)
                    if word[k] == word[k + 2]
                    and (word[k] > 0) == (word[k + 1] > 0)
                    and abs(abs(word[k]) - abs(word[k + 1])) == 1
                ]
                if spots:
                    state, pick = _draw(state, len(spots))
                    k = spots[pick]
                    g, h = word[k], word[k + 1]
                    word[k:k + 3] = [h, g, h]
                    break
            if move == 3:  # commute distant generators
                spots = [
                    k for k in range(len(word) - 1)
                    if abs(abs(word[k]) - abs(word[k + 1])) >= 2
                ]
                if spots:
                    state, pick = _draw(state, len(spots))
                    k = spots[pick]
                    word[k], word[k + 1] = word[k + 1], word[k]
                    break
        # all attempts inapplicable: skip this rewrite
    return BraidWord(n, tuple(word))


# -- PD diagrams ---------------------------------------------------------------

@dataclass(frozen=True)
class Diagram:
    """A diagram as PD crossings plus any crossing-free circles.

    Arc labels must each occur exactly twice and cover 1..2n for n crossings.
    ``free_loops`` counts closed curves that meet no crossing; they arise from
    braid closures (e.g. unused strands) and join the state sum as plain
    circles.
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


# -- orientation: crossing signs and component count ---------------------------

@dataclass(frozen=True)
class Orientation:
    signs: tuple[int, ...]       # one per crossing
    components: int              # including free loops
    successor: tuple[tuple[int, int], ...]  # arc -> next arc along the strand


@functools.lru_cache(maxsize=4096)
def orient(d: Diagram) -> Orientation:
    """Infer strand directions from the labels-increase convention.

    The under-strand of X(a,b,c,d) runs a -> c.  Over-strand directions are
    forced by requiring every arc to leave exactly one crossing and enter
    exactly one; leftover freedom is resolved by label continuity (successor
    label = label + 1, wrapping once per component).  A crossing whose over
    direction points from slot d to slot b is positive.  Inconsistencies
    raise DiagramError rather than guessing.
    """
    n = len(d.crossings)
    if n == 0:
        return Orientation((), d.free_loops, ())

    # occurrences[label] = list of (crossing, slot)
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for k, quad in enumerate(d.crossings):
        for slot, label in enumerate(quad):
            occurrences.setdefault(label, []).append((k, slot))

    # in/out assignment per port; under-strand ports are fixed.
    inbound: dict[tuple[int, int], bool] = {}
    for k in range(n):
        inbound[(k, 0)] = True    # slot a: under-strand enters
        inbound[(k, 2)] = False   # slot c: under-strand leaves

    def propagate() -> None:
        changed = True
        while changed:
            changed = False
            for ports in occurrences.values():
                p0, p1 = ports
                if (p0 in inbound) != (p1 in inbound):
                    known, unknown = (p0, p1) if p0 in inbound else (p1, p0)
                    inbound[unknown] = not inbound[known]
                    changed = True
            for k in range(n):
                pb, pd_ = (k, 1), (k, 3)
                if (pb in inbound) != (pd_ in inbound):
                    known, unknown = (pb, pd_) if pb in inbound else (pd_, pb)
                    inbound[unknown] = not inbound[known]
                    changed = True

    propagate()
    # components that only ever pass over leave their crossings undetermined;
    # resolve one crossing at a time by label continuity, re-propagating after
    # each choice.  (A two-arc such component reads the same in either
    # direction; the continuity rule then just picks deterministically, and
    # the sign guard below rejects the codes where the choice would matter.)
    while True:
        undetermined = [k for k in range(n) if (k, 1) not in inbound]
        if not undetermined:
            break
        for k in undetermined:
            lb, ld = d.crossings[k][1], d.crossings[k][3]
            if lb == ld:
                raise DiagramError(f"crossing {k}: over-strand direction is ambiguous")
            if ld == lb + 1:
                inbound[(k, 1)], inbound[(k, 3)] = True, False
                break
            if lb == ld + 1:
                inbound[(k, 1)], inbound[(k, 3)] = False, True
                break
        else:
            raise DiagramError("cannot orient over-strands from arc labels")
        propagate()

    for label, ports in occurrences.items():
        p0, p1 = ports
        if inbound[p0] == inbound[p1]:
            kind = "enters" if inbound[p0] else "leaves"
            raise DiagramError(f"arc {label} {kind} two crossings; orientation failed")

    # successor map on arcs and crossing signs
    successor: dict[int, int] = {}
    signs: list[int] = []
    for k, quad in enumerate(d.crossings):
        a, b, c, e = quad
        successor[a] = c
        if inbound[(k, 3)]:       # enters at slot d, leaves at slot b: positive
            successor[e] = b
            signs.append(1)
        else:
            successor[b] = e
            signs.append(-1)

    # components = cycles of the successor map; labels must step by one with
    # a single wrap per cycle, else the numbering convention was violated.
    seen: set[int] = set()
    components = 0
    for start in successor:
        if start in seen:
            continue
        components += 1
        drops = 0
        cur = start
        while True:
            seen.add(cur)
            nxt = successor[cur]
            if nxt != cur + 1:
                drops += 1
            cur = nxt
            if cur == start:
                break
        if drops != 1:
            raise DiagramError("arc labels do not increase along a component")

    # a two-arc component that only passes over reads identically in both
    # directions, so its orientation was a free choice above; that is harmless
    # exactly when its two crossing signs cancel, and a lie about the writhe
    # otherwise, so the latter codes are rejected.
    under_labels = {quad[0] for quad in d.crossings} | {quad[2] for quad in d.crossings}
    for label, ports in occurrences.items():
        partner = successor[label]
        if (
            partner != label
            and successor[partner] == label
            and label not in under_labels
            and partner not in under_labels
            and label < partner
        ):
            k1, k2 = (ports[0][0], ports[1][0])
            if signs[k1] + signs[k2] != 0:
                raise DiagramError(
                    f"arcs {label},{partner}: over-only component with writhe-dependent orientation"
                )

    return Orientation(tuple(signs), components + d.free_loops, tuple(successor.items()))


def writhe(d: Diagram) -> int:
    """Sum of crossing signs of the oriented diagram."""
    return sum(orient(d).signs)


def components(d: Diagram) -> int:
    return orient(d).components


# -- braid closure --------------------------------------------------------------

def closure(b: BraidWord) -> Diagram:
    """The trace closure of a braid word as a PD diagram.

    Arcs are labelled sequentially along each component so the resulting code
    satisfies the same conventions as table PD codes; crossing count equals
    the letter count and unused strands become free circles.
    """
    m = len(b.letters)
    n = b.strands
    if m == 0:
        return Diagram((), n)

    # only the strands the letters touch: an untouched one is a free circle
    touches: dict[int, list[int]] = {}
    for k, letter in enumerate(b.letters):
        i = abs(letter)
        touches.setdefault(i, []).append(k)
        touches.setdefault(i + 1, []).append(k)

    def first_crossing_at_or_above(position: int, height: int) -> tuple[int, str] | None:
        for k in touches[position]:
            if k >= height:
                side = "bl" if abs(b.letters[k]) == position else "br"
                return k, side
        return None

    def next_entry(position: int, height: int) -> tuple[int, str]:
        hit = first_crossing_at_or_above(position, height)
        if hit is None:
            hit = first_crossing_at_or_above(position, 0)  # wrap through the closure
            assert hit is not None
        return hit

    # port labels: ports[(crossing, port)] = arc label
    ports: dict[tuple[int, str], int] = {}
    visited: set[tuple[int, str]] = set()
    label = 0
    for p in sorted(touches):
        start = next_entry(p, 0)
        if start in visited:
            continue
        entry = start
        while True:
            visited.add(entry)
            k, side = entry
            i = abs(b.letters[k])
            # strands cross: bottom-left leaves at top-right and vice versa
            exit_side, exit_pos = ("tr", i + 1) if side == "bl" else ("tl", i)
            label += 1
            ports[(k, exit_side)] = label
            entry = next_entry(exit_pos, k + 1)
            ports[entry] = label
            if entry == start:
                break

    quads: list[Quad] = []
    for k, letter in enumerate(b.letters):
        bl, br = ports[(k, "bl")], ports[(k, "br")]
        tl, tr = ports[(k, "tl")], ports[(k, "tr")]
        if letter > 0:
            quads.append((br, tr, tl, bl))   # under-strand enters bottom-right
        else:
            quads.append((bl, br, tr, tl))   # under-strand enters bottom-left
    return Diagram(tuple(quads), n - len(touches))
