"""Reference state sums that visit every one of the 2^n states.

The library's ``bracket3_raw`` never resolves a state on its own: it merges
partial states by how they match the open arcs.  These loops are the
test-side oracles for it and for the classical readouts folded out of it:
each state is smoothed in full and its circles are counted, by a
disjoint-set forest (:func:`resolve_state`) and, independently, by walking
the port graph (:func:`resolve_state_walk`).  The smoothing convention is
the library's: for ``X(a,b,c,d)`` the A-smoothing joins a-b and c-d and the
B-smoothing joins a-d and b-c.

The frontier pass's tables have one too: :func:`prefix_matchings` smooths
each prefix of the crossings state by state and collects the matchings of
the open arcs that the states reach, where the library keys each partial
state by its open arcs' slots.

The ambient invariant has its definition as an oracle:
:func:`ambient_from_normal` pads the normal form with one curl factor per
unit of writhe and reduces after each by the Groebner basis, where the
library lifts f once.

The transfer pass's matchings have their own oracles: :func:`apply_cupcap`
composes one matching with one cup-cap, and :func:`close_strands` joins the
finished strands of a matching by walking their points, where the library
closes one strand after another in place.  :func:`closing_snapshots` builds
every state on its own, never closing it, and reads it through
:func:`close_strands` wherever the library closes strands.

The slot reader has one too: :func:`unpack_string` reads a packed sum off its
binary text, slot by slot, where the library splits the int by halving.
"""

import itertools
from collections.abc import Iterator

from qbracket.bracket3 import CURL_MINUS, CURL_PLUS, CapacityError, Matching
from qbracket.classical import LaurentPolynomial, circle_power
from qbracket.diagram import BraidWord, Diagram, Quad, writhe
from qbracket.multipoly import Monomial, Polynomial, remainder
from qbracket.quotient import GROEBNER_BASIS

State = tuple[int, ...]  # 0 = A-smoothing, 1 = B-smoothing, one per crossing

#: Crossing cap of the 2^n enumeration: 2^16 states take a few seconds.
ORACLE_CAP = 16


def state_from_index(index: int, n: int) -> State:
    """Binary-counter enumeration: bit k of ``index`` is crossing k's choice."""
    return tuple((index >> k) & 1 for k in range(n))


def smoothing_pairs(quad: Quad, choice: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """Arc pairs joined by the chosen smoothing (0 = A joins a-b and c-d)."""
    a, b, c, e = quad
    return ((a, b), (c, e)) if choice == 0 else ((a, e), (b, c))


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, x: int, y: int) -> None:
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[ry] = rx


def resolve_state(d: Diagram, state: State) -> int:
    """Number of circles after smoothing every crossing as the state says.

    Arc endpoints joined by a smoothing are merged in a disjoint-set forest;
    the circle count is the number of classes plus any free loops.
    """
    if len(state) != d.n:
        raise ValueError(f"state length {len(state)} != crossing count {d.n}")
    if d.n == 0:
        return d.free_loops
    uf = _UnionFind(2 * d.n + 1)
    for quad, choice in zip(d.crossings, state):
        (x1, y1), (x2, y2) = smoothing_pairs(quad, choice)
        uf.union(x1, y1)
        uf.union(x2, y2)
    roots = {uf.find(label) for label in range(1, 2 * d.n + 1)}
    return len(roots) + d.free_loops


def resolve_state_walk(d: Diagram, state: State) -> int:
    """Independent circle counter: walk the port graph and count cycles.

    Ports alternate between smoothing partners (within a crossing) and arc
    partners (the other occurrence of the same label).  Used as an oracle
    against :func:`resolve_state`; both must always agree.
    """
    if len(state) != d.n:
        raise ValueError(f"state length {len(state)} != crossing count {d.n}")
    partner_in_crossing: dict[tuple[int, int], tuple[int, int]] = {}
    for k, (quad, choice) in enumerate(zip(d.crossings, state)):
        pairs = ((0, 1), (2, 3)) if choice == 0 else ((0, 3), (1, 2))
        for s1, s2 in pairs:
            partner_in_crossing[(k, s1)] = (k, s2)
            partner_in_crossing[(k, s2)] = (k, s1)
    occurrences: dict[int, list[tuple[int, int]]] = {}
    for k, quad in enumerate(d.crossings):
        for slot, label in enumerate(quad):
            occurrences.setdefault(label, []).append((k, slot))
    arc_partner = {}
    for ports_ in occurrences.values():
        p0, p1 = ports_
        arc_partner[p0] = p1
        arc_partner[p1] = p0
    cycles = 0
    seen: set[tuple[int, int]] = set()
    for port in partner_in_crossing:
        if port in seen:
            continue
        cycles += 1
        cur = port
        while cur not in seen:
            seen.add(cur)
            step = partner_in_crossing[cur]
            seen.add(step)
            cur = arc_partner[step]
    return cycles + d.free_loops


def prefix_matchings(crossings: tuple[Quad, ...]) -> Iterator[set[frozenset[frozenset[int]]]]:
    """For each prefix of ``crossings``, the empty one first, the matchings
    of its open arcs (the labels it holds once) that its states reach: each
    state's curves are merged in a disjoint-set forest on the labels, and
    each open arc is paired with the other open arc on its curve."""
    labels = 2 * len(crossings) + 1
    for t in range(len(crossings) + 1):
        prefix = crossings[:t]
        seen = [label for quad in prefix for label in quad]
        open_arcs = [label for label in set(seen) if seen.count(label) == 1]
        matchings = set()
        for state in itertools.product((0, 1), repeat=t):
            uf = _UnionFind(labels)
            for quad, choice in zip(prefix, state):
                for x, y in smoothing_pairs(quad, choice):
                    uf.union(x, y)
            ends: dict[int, set[int]] = {}
            for label in open_arcs:
                ends.setdefault(uf.find(label), set()).add(label)
            matchings.add(frozenset(frozenset(pair) for pair in ends.values()))
        yield matchings


def kauffman_bracket(d: Diagram) -> LaurentPolynomial:
    """The bracket via its own 2^n state sum.

    Each state contributes a^(#A - #B) * (-a^-2 - a^2)^(circles - 1); a
    crossing-free k-circle diagram therefore evaluates to the (k-1)-st power
    of the circle factor, and the unknot to 1.
    """
    n = d.n
    if n > ORACLE_CAP:
        raise CapacityError(f"{n} crossings exceeds the oracle's cap {ORACLE_CAP}")
    # group states by (exponent, circle count); expand powers only once per group
    groups: dict[tuple[int, int], int] = {}
    for index in range(1 << n):
        state = state_from_index(index, n)
        b_count = sum(state)
        loops = resolve_state(d, state)
        key = (n - 2 * b_count, loops)
        groups[key] = groups.get(key, 0) + 1
    total = LaurentPolynomial.zero()
    for (exp, loops), mult in sorted(groups.items()):
        total = total + circle_power(loops - 1).shift(exp) * mult
    return total


def f_invariant(d: Diagram) -> LaurentPolynomial:
    """(-a^3)^(-w) times the oracle's bracket, w the writhe."""
    w = writhe(d)
    return kauffman_bracket(d).shift(-3 * w) * (-1 if w % 2 else 1)


def bracket_from_raw_per_term(raw) -> LaurentPolynomial:
    """One shifted, scaled power of the circle factor per raw term, summed
    as polynomials: the per-term oracle for the library's one-dict fold."""
    total = LaurentPolynomial.zero()
    for (i, j, k), coeff in raw.terms.items():
        total = total + circle_power(k - 1).shift(i - j) * coeff
    return total


def ambient_from_normal(nf: Polynomial, w: int) -> Polynomial:
    """Ambient-isotopy invariant of a writhe-w diagram from ``nf``, the normal
    form of its raw sum, by the definition (Kauffman, Topology 26 (1987)).

    The value is the normal form of CURL_MINUS^w times the raw sum for w > 0
    (CURL_PLUS^-w for w < 0), exactly the effect of normalizing the writhe to
    zero with opposite-sign curls.  The remainder by the Groebner basis is a
    ring map onto the quotient, so the raw sum is reduced first and again
    after each curl factor: every product stays a small multiple of a normal
    form, instead of one |w|-fold product reduced at the end.
    """
    factor = CURL_MINUS if w > 0 else CURL_PLUS
    basis = list(GROEBNER_BASIS)
    amb = nf
    for _ in range(abs(w)):
        amb = remainder(factor * amb, basis)
    return amb


def apply_cupcap(m: Matching, u: int, v: int) -> tuple[Matching, bool]:
    """Compose with the cup-cap generator on adjacent frontier points u, v.

    Returns the new matching and whether a closed circle split off (the case
    where u and v were each other's partners).
    """
    pu, pv = m[u], m[v]
    if pu == v:
        return m, True
    out = list(m)
    out[pu], out[pv] = pv, pu
    out[u], out[v] = v, u
    return tuple(out), False


def close_strands(m: Matching, n: int, closed: set[int]) -> tuple[Matching, int]:
    """Join frontier point n+j back to bottom point j for each strand j in
    ``closed``, by walking the closed points.  Returns the matching left on
    the other points, where each point of a closed strand is its own
    partner, and the circles that run through closed points only."""
    def is_closed(x: int) -> bool:
        return (x - n if x >= n else x) in closed

    out, seen, circles = list(range(2 * n)), [False] * (2 * n), 0
    for start in range(2 * n):
        if is_closed(start) or seen[start]:
            continue
        x = m[start]
        while is_closed(x):  # along the tangle to x, then along its closure arc
            y = x - n if x >= n else x + n
            seen[x] = seen[y] = True
            x = m[y]
        out[start], out[x] = x, start
        seen[start] = seen[x] = True
    for start in range(2 * n):
        if seen[start]:
            continue
        circles += 1
        x = start
        while not seen[x]:
            y = m[x]
            seen[x] = seen[y] = True
            x = y - n if y >= n else y + n
    return tuple(out), circles


def last_letters(word: BraidWord) -> list[int]:
    """The index of the last letter on each strand, -1 where no letter is."""
    return [max((t for t, letter in enumerate(word.letters) if abs(letter) in (j, j + 1)), default=-1)
            for j in range(word.strands)]


def closing_snapshots(word: BraidWord) -> Iterator[list[tuple[Matching, int, int]]]:
    """The states read where strands close: after the last letter on each
    strand, and before the first letter for a strand no letter touches.  For
    each closing point, in order, every smoothing choice of the letters
    before it, built on its own: its matching with every strand whose last
    letter is behind closed (:func:`close_strands`), its B-smoothings, and
    its circles, split off or closed."""
    n, letters = word.strands, word.letters
    last = last_letters(word)
    for point in sorted(set(last)):
        closed, snapshots = {s for s in range(n) if last[s] <= point}, []
        for state in itertools.product((0, 1), repeat=point + 1):
            m, j, k = tuple(range(n, 2 * n)) + tuple(range(n)), 0, 0
            for letter, cup in zip(letters, state):
                j += cup == (letter > 0)  # a positive letter's B-smoothing is its cup-cap
                if cup:
                    m, split = apply_cupcap(m, n + abs(letter) - 1, n + abs(letter))
                    k += split
            m, circles = close_strands(m, n, closed)
            snapshots.append((m, j, k + circles))
        yield snapshots


def unpack_string(packed: int, n: int, width: int, k_a: int, beta: int) -> Polynomial:
    """:func:`qbracket.bracket3._unpack` read off the reversed binary text of
    ``packed``: every ``width``-bit slice is one slot, empty slots included."""
    bits = format(packed, "b")[::-1]  # bit s*width starts slot s
    counts: dict[Monomial, int] = {}
    for start in range(0, len(bits), width):
        chunk = bits[start:start + width]
        if "1" in chunk:
            x, y = divmod(start // width - beta * k_a, 2 * beta + 1)
            counts[(n - x - y, x + y, x - y + k_a)] = int(chunk[::-1], 2)
    return Polynomial._from_clean(counts)
