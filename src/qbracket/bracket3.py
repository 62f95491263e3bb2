"""The three-variable bracket, its normal form, and writhe normalization.

The raw sum keeps all three smoothing weights free: a state with i
A-smoothings, j B-smoothings, and k resulting circles contributes the
monomial a^i b^j d^k.  Nothing is divided out, so every nonempty diagram's
raw bracket is divisible by d.  Reducing the raw sum modulo the move-two
ideal (see :mod:`.quotient`) gives a quantity unchanged by Reidemeister
moves II and III; a first move multiplies the raw sum by a curl factor,

    positive curl:  a*d + b        negative curl:  a + b*d

exactly (their product is congruent to 1 on multiples of d, since
d*((a*d + b)*(a + b*d) - 1) is the second ideal generator).  Padding with
|w| opposite-sign curl factors before reducing therefore yields an invariant
of the ambient isotopy class; it is a function of f, read off the raw sum
by one lift (:func:`.quotient.lift`) instead of |w| products and reductions.

Two engines compute the same raw polynomial.  ``naive`` (:func:`bracket3_raw`)
takes any planar diagram, one crossing at a time, merging the partial states
that join the open arcs alike (Bar-Natan, JKTR 16 (2007)), keyed by each
open arc's partner in a slot the arc keeps while it is open; ``tl`` carries
planar matchings (the Temperley-Lieb basis), numbered as they first appear,
across a braid word, one letter at a time, in an order with the same closure
that keeps the table small (:func:`_letter_order`).  Each keeps one packed int of
state counts per matching (Kronecker substitution), its slots sized to
Kauffman's state diamond (Topology 26 (1987)): in a planar diagram,
switching one smoothing moves the circle count by exactly one, so a state
with j B-smoothings has k circles within j of the all-A state's and within
n-j of the all-B state's, and k-j has one parity.  The count of
a^(n-j) b^j d^k sits in slot alpha*j + beta*k (see :func:`_unpack`), so a
B-smoothing and a closed circle each shift a matching's counts by a
constant; ``tl`` shifts only on the cup-cap path, worked out once per
matching and position between closings (:func:`tl_transfer`).  ``tl``
closes each strand of the closure after its last letter
(:func:`_close_strands`): matchings that differ only in how finished strands
ran merge, as the frontier pass merges partial states, and after the last
letter one entry, the packed raw sum, is left.  The engines are checked
against each other in the tests; a per-state enumeration is the oracle.

Every readout of a diagram is derived from its one raw sum: the normal form,
the lifted :func:`ambient3`, :func:`circle_variant`, and the classical
bracket (:func:`.classical.bracket_from_raw`).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable

from .diagram import BraidWord, Diagram, Quad, closure, count_cycles, port_mates, writhe
from .multipoly import Monomial, Polynomial, format_poly, parse_poly
from .quotient import lift, normal_form

#: Closed-diagram multiplier of one positive / negative curl on the raw sum.
CURL_PLUS: Polynomial = parse_poly("+a*d +b")
CURL_MINUS: Polynomial = parse_poly("+a +b*d")

#: Everything that pins the state-sum conventions, for cache keys and reports.
CONVENTION = (
    "order:a>b>d;A(positive)=vertical;circles:d^k;"
    f"curl+:{format_poly(CURL_PLUS)};curl-:{format_poly(CURL_MINUS)}"
)

#: Open-arc cap of the frontier pass: the boundary of a 12-strand closure.
OPEN_ARC_CAP = 24

#: Strand cap for the transfer-matrix pass (its basis size is Catalan(n)).
TL_STRAND_CAP = 12

#: Strands below which the transfer pass keeps a word's letter order: its table
#: holds at most Catalan(n) matchings, 42 on 5 strands, too few to repay the plan
#: and the rebuilt word (planned, 4- and 5-strand words of 20 letters took 1.64x
#: and 1.33x the time of the given order, and of 40 letters 1.22x and 1.08x).
_TL_PLAN_FLOOR = 6


class CapacityError(RuntimeError):
    """Input too wide for a state-sum pass."""


#: One crossing of the frontier pass: the slot of each of its four ports, and
#: the slots that it frees, those of the arcs whose second end it meets.
Step = tuple[tuple[int, int, int, int], tuple[int, ...]]


def _plan(crossings: tuple[Quad, ...]) -> tuple[list[Step], int]:
    """The state-independent part of the frontier pass over ``crossings`` in
    the given order, and the peak number of open arcs it carries.  An arc
    takes a free slot at the crossing that meets its first end and frees it
    after the crossing that meets its second, so a kink, both of whose ends
    are at one crossing, holds its slot for that crossing alone."""
    steps: list[Step] = []
    slots: dict[int, int] = {}  # each open arc's slot
    free: list[int] = []
    peak = 0
    for quad in crossings:
        ports, freed = [], []
        for arc in quad:
            slot = slots.pop(arc, None)
            if slot is None:  # its first end: a free slot, else a new one (each slot is open, free or freed)
                slot = slots[arc] = free.pop() if free else len(slots) + len(freed)
            else:
                freed.append(slot)
            ports.append(slot)
        free += freed
        steps.append((tuple(ports), tuple(freed)))
        peak = max(peak, len(slots))
    return steps, peak


def _greedy_order(crossings: tuple[Quad, ...]) -> tuple[Quad, ...]:
    """The crossings reordered so that each next one has the most ports on
    open arcs, ties going to the lowest input index."""
    left = list(crossings)
    order: list[Quad] = []
    open_arcs: set[int] = set()
    while left:
        quad = left.pop(max(range(len(left)), key=lambda k: sum(arc in open_arcs for arc in left[k])))
        order.append(quad)
        for arc in quad:
            open_arcs ^= {arc}
    return tuple(order)


def bracket3_raw(d: Diagram) -> Polynomial:
    """Raw three-variable state sum over all 2^n smoothing choices: the
    unpacked :func:`_frontier_pass` times d^f for the f free loops.  A
    crossing-free k-circle diagram gives d^k; every state of a nonempty
    diagram carries at least one circle, so d divides the result."""
    raw = _frontier_pass(d)
    poly = _unpack(raw.packed, d.n, raw.width, raw.k_a, raw.beta)
    return poly.mul_term(1, (0, 0, d.free_loops)) if d.free_loops else poly


def _frontier_pass(d: Diagram) -> PackedSum:
    """The packed raw sum of ``d``'s crossings by a frontier pass over them in
    the diagram's own order, or in a greedy order (:func:`_greedy_order`)
    when the own order would carry more than :data:`OPEN_ARC_CAP` open arcs
    at once; the sum does not depend on the order.

    Each partial curve ends on two open arcs (labels seen once so far), so
    partial states merge by their matching of the open arcs, keyed by a tuple
    over the key slots of :func:`_plan`: an open arc's partner, or a free
    slot's own index.  A crossing copies the key, joins its ports' slots in
    pairs and resets the slots it frees; a new arc's slot was free, so it is
    its own end until joined (a kink's two ports share one slot, and joining
    them closes a circle).  A matching carries one packed int of state
    counts, a^(n-j) b^j d^k in slot alpha*j + beta*k for n crossings (see
    :func:`_unpack`; the diagram must be planar, as :func:`.diagram.parse_pd`
    checks).  A smoothing shifts it alpha slots if it is B and beta slots
    per circle it closes, so the cost is set by the number of matchings,
    which the width of the open boundary bounds.
    """
    steps, peak = _plan(d.crossings)
    if peak > OPEN_ARC_CAP:  # a greedy order, else a refusal before any state work
        steps, greedy_peak = _plan(_greedy_order(d.crossings))
        if greedy_peak > OPEN_ARC_CAP:
            raise CapacityError(
                f"{d.n} crossings need {min(peak, greedy_peak)} open arcs at once in the narrowest "
                f"crossing order tried, over the frontier pass's cap of {OPEN_ARC_CAP}"
            )
    k_a, k_b = _extreme_circles(d.crossings)
    width, beta = _layout(d.n, k_a, k_b)
    circle = width * beta
    all_free = tuple(range(max((max(ports) + 1 for ports, _ in steps), default=0)))
    table, sizes = {all_free: 1}, [1]
    for (a, b, c, e), freed in steps:
        choices = ((0, ((a, b), (c, e))), (circle + width, ((a, e), (b, c))))
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for m, packed in table.items():
            for shift, joins in choices:
                mate = list(m)
                for x, y in joins:
                    fx, fy = mate[x], mate[y]
                    if fx == y:  # the join closes a circle; x and y are spent either way
                        shift += circle
                    mate[fx], mate[fy] = fy, fx
                for s in freed:
                    mate[s] = s
                key = tuple(mate)
                # a first arrival is stored as is: 0 + x would copy the bigint
                x = packed << shift
                prev = get(key)
                nxt[key] = x if prev is None else prev + x
        table = nxt
        sizes.append(len(table))
    return PackedSum(table[all_free], sizes, k_a, width, beta)


def _extreme_circles(crossings: tuple[Quad, ...]) -> tuple[int, int]:
    """Circles of the all-A and of the all-B state of ``crossings``, free
    loops aside.  Each circle is two cycles of "to the port the smoothing
    joins, then along its arc": one per direction."""
    mate = port_mates(crossings)
    # the A-smoothing joins slots 0-1 and 2-3 (port ^ 1), the B-smoothing 0-3 and 1-2 (port ^ 3)
    k_a, k_b = (count_cycles([mate[p ^ flip] for p in range(len(mate))]) // 2 for flip in (1, 3))
    return k_a, k_b


def _layout(n: int, k_a: int, k_b: int) -> tuple[int, int]:
    """Bits per slot and slots per circle (beta) of the packed counts of a
    sum over n smoothed crossings whose all-A and all-B states have k_a and
    k_b circles; a B-smoothing takes beta + 1 slots (see :func:`_unpack`)."""
    return n + 1, (n + k_a - k_b + 2) // 4


def bracket3(d: Diagram) -> Polynomial:
    """Normal form of the raw sum: the regular-isotopy invariant."""
    return normal_form(bracket3_raw(d))


def circle_variant(amb: Polynomial, w: int) -> Polynomial:
    """Variant normalization whose curl factors keep their circle: d*(a*d+b)
    and d*(a+b*d).  Reduction modulo I is a ring map onto the quotient, so
    this is d^|w| times the ambient invariant ``amb``, reduced; reported
    alongside it, since the two only agree for writhe-zero diagrams.

    No reduction is needed: every term of ``amb`` is c*d^k or c*b^2*d^k
    (README, "Normalization variant"), and no such term times a power of d
    is divisible by a basis leading monomial b^4*d^3, a*d^3 or a^2*d.
    """
    return amb.mul_term(1, (0, 0, abs(w)))


def ambient3(d: Diagram) -> Polynomial:
    """The ambient-isotopy invariant, lifted from the naive raw sum."""
    return lift(bracket3_raw(d), writhe(d))


def ambient3_with_circle_factors(d: Diagram) -> Polynomial:
    """:func:`circle_variant` of :func:`ambient3`."""
    return circle_variant(ambient3(d), writhe(d))


# -- transfer-matrix evaluation --------------------------------------------------

Matching = tuple[int, ...]
# A planar perfect matching on 2n points: indices 0..n-1 are the bottom
# boundary, n..2n-1 the current frontier (frontier position j is point n+j).
# matching[x] is the partner of point x; the two points of a closed strand
# are their own partners.


def _identity_matching(n: int) -> Matching:
    return tuple(list(range(n, 2 * n)) + list(range(n)))


class PackedSum:
    """A raw sum's packed state counts with their layout (see :func:`_unpack`),
    and ``sizes``, the matchings a pass carried at the start and after each
    letter or crossing; its ``len()`` is the largest."""

    def __init__(self, packed: int, sizes: list[int], k_a: int, width: int, beta: int):
        self.packed, self.sizes, self.k_a, self.width, self.beta = packed, sizes, k_a, width, beta

    def __len__(self) -> int:
        return max(self.sizes)


def _close(m: list[int], strands: Iterable[int], n: int) -> int:
    """Close each of ``strands`` in the matching ``m``, in place: join
    frontier point n+j to bottom point j, joining their partners, and fix
    both points.  Returns the circles closed: one per strand whose two
    points were each other's partners."""
    circles = 0
    for j in strands:
        x, y = m[n + j], m[j]
        if x == j:
            circles += 1
        else:
            m[x], m[y] = y, x
        m[j], m[n + j] = j, n + j
    return circles


def _close_strands(
    matchings: list[Matching], table: list[int], strands: tuple[int, ...], n: int, circle: int
) -> tuple[list[Matching], dict[Matching, int], list[int]]:
    """Close ``strands`` in every matching of the transfer pass's table
    (:func:`_close`), shifting its packed counts up ``circle`` bits per
    circle closed, and add up the entries whose matchings became equal.
    Returns the closed matchings, numbered anew in order of first
    appearance, their numbers, and the closed table."""
    closed: list[Matching] = []
    ids: dict[Matching, int] = {}
    merged: list[int] = []
    for m, packed in zip(matchings, table):
        out = list(m)
        packed <<= circle * _close(out, strands, n)
        key = tuple(out)
        t = ids.get(key)
        if t is None:
            ids[key] = len(closed)
            closed.append(key)
            merged.append(packed)
        else:
            merged[t] += packed
    return closed, ids, merged


def tl_transfer(b: BraidWord) -> PackedSum:
    """The raw sum of the closure of braid word ``b``, packed, by a pass over
    planar matchings (the Temperley-Lieb basis).

    Each letter maps the running element T to weight_vert * T plus
    weight_cup * T e_i, where e_i is the cup-cap generator at the letter's
    position; a circle split off during composition contributes a factor d.
    After the last letter on strand j, or before the first letter if no
    letter touches it, the pass closes the strand in every matching
    (:func:`_close_strands`); after the last letter one entry is left.
    Every state has weight +1, so each matching carries its state counts
    per monomial a^(L-j) b^j d^k, for a word of L letters, packed into one
    int: slot alpha*j + beta*k, L+1 bits wide, with the diamond of the
    closure's extreme states (:func:`_walk_letters`, :func:`_unpack`).
    Between closings the table is a list indexed by matching number, and
    each position keeps a row with the cup-cap of every numbered matching
    (its number, and whether a circle split off); a closing renumbers the
    matchings and starts the rows afresh.  The identity path is free: the
    next table starts as a copy, and only the cup-cap path adds a shifted
    count.  On a positive letter that is the B-smoothing, alpha slots up,
    plus beta if a circle splits off.  On a negative letter it is alpha
    slots down, or one (alpha - beta) if a circle splits off, as the table
    starts alpha slots up per negative letter.  Before the m-th negative
    letter from the end every count sits m*alpha slots up or more, so no
    down shift drops a bit; a closing shifts only up.
    """
    n, letters = b.strands, b.letters
    if n > TL_STRAND_CAP:
        raise CapacityError(f"{n} strands exceeds the transfer-matrix cap {TL_STRAND_CAP}")
    ends, k_a, k_b = _walk_letters(b)
    width, beta = _layout(len(letters), k_a, k_b)
    alpha, circle = width * (beta + 1), width * beta  # in bits, as the shifts below
    matchings = [_identity_matching(n)]
    ids, rows, sizes = {matchings[0]: 0}, [[] for _ in range(n)], [1]
    table = [1 << alpha * len([letter for letter in letters if letter < 0])]
    for letter, closing in zip(letters, ends):
        if closing:
            matchings, ids, table = _close_strands(matchings, table, closing, n, circle)
            rows = [[] for _ in range(n)]
        i = letter if letter > 0 else -letter
        row, size = rows[i], len(table)
        if len(row) < size:
            u, v = n + i - 1, n + i
            for k in range(len(row), size):
                m = matchings[k]
                pu, pv = m[u], m[v]
                if pu == v:  # the cap closes a circle and the cup restores m
                    row.append((k, True))
                    continue
                out = list(m)
                out[pu], out[pv], out[u], out[v] = pv, pu, v, u
                m2 = tuple(out)
                t = ids.get(m2)
                if t is None:
                    t = ids[m2] = len(matchings)
                    matchings.append(m2)
                row.append((t, False))
            prev, table = table, table + [0] * (len(matchings) - size)
        else:  # every matching's cup-cap is known, and none is new
            prev, table = table, table[:]
        sizes.append(len(table))
        if letter > 0:
            for packed, (t, split) in zip(prev, row):
                table[t] += packed << (alpha + circle if split else alpha)
        else:
            for packed, (t, split) in zip(prev, row):
                table[t] += packed >> (width if split else alpha)
    (packed,) = _close_strands(matchings, table, ends[-1], n, circle)[2]
    return PackedSum(packed, sizes, k_a, width, beta)


def _walk_letters(b: BraidWord) -> tuple[list[tuple[int, ...]], int, int]:
    """One walk over the letters of ``b``: ``ends[t]``, the strands whose
    last letter is letter t - 1 (letter i touches strands i - 1 and i, and
    ``ends[0]`` holds the untouched ones), which the transfer pass closes
    before letter t; and the circles of the closure's all-A and all-B states.
    A positive letter's B-smoothing is its cup-cap and a negative letter's
    A-smoothing is, so each letter composes one extreme's matching with its
    cup-cap; both matchings are closed (:func:`_close`) after the last letter."""
    n, letters = b.strands, b.letters
    a = [*range(n, 2 * n), *range(n)]  # the identity matching
    walks, circles, last = (a, a[:]), [0, 0], [-1] * n  # all-A, all-B
    for t, letter in enumerate(letters):
        w = letter > 0
        i = letter if w else -letter
        m, v = walks[w], n + i
        last[i - 1] = last[i] = t
        pu, pv = m[v - 1], m[v]
        if pu == v:
            circles[w] += 1
        else:
            m[pu], m[pv], m[v - 1], m[v] = pv, pu, v, v - 1
    ends: list[tuple[int, ...]] = [()] * (len(letters) + 1)
    for j, t in enumerate(last):
        ends[t + 1] += (j,)
    every = range(n)
    return ends, circles[0] + _close(a, every, n), circles[1] + _close(walks[1], every, n)


def _unpack(packed: int, n: int, width: int, k_a: int, beta: int) -> Polynomial:
    """The polynomial whose state counts ``packed`` holds, for a sum over n
    smoothed crossings whose all-A state has k_a circles.

    The count of a^(n-j) b^j d^k sits in slot alpha*j + beta*k, with
    alpha = beta + 1, and each slot is ``width`` = n+1 bits wide, because no
    count exceeds the 2^n states.  That slot is x*S + y + beta*k_a for the
    state's diamond coordinates x = (j+k-k_a)/2 and y = (j-k+k_a)/2, which
    are integers because k-j has the parity of k_a.  y is at most
    Y = (n+k_a-k_b)/2, for k_b circles in the all-B state, and S = 2*beta + 1
    is the least odd integer above Y, so each slot holds one (j, k).  Partial states of one matching share
    every completion, so they too share a slot only with the same (j, k).

    The int is halved at slot boundaries down to blocks of about 32 slots,
    each read by mask and shift: one such loop over the whole int would copy
    it once per slot (Brent & Zimmermann, Modern Computer Arithmetic, 1.7).
    """
    mask, rows, base = (1 << width) - 1, 2 * beta + 1, beta * k_a
    counts: dict[Monomial, int] = {}
    blocks = [(packed, 0)]  # (block, its first slot); the lower half pops first, so slots come in order
    while blocks:
        block, slot = blocks.pop()
        half = block.bit_length() // (2 * width)  # slots in the lower half
        if half > 16:
            blocks += (block >> half * width, slot + half), (block & (1 << half * width) - 1, slot)
            continue
        while block:
            count = block & mask
            if count:
                x, y = divmod(slot - base, rows)
                counts[(n - x - y, x + y, x - y + k_a)] = count
            block >>= width
            slot += 1
    return Polynomial._from_clean(counts)  # nonzero counts, j <= n


@functools.cache
def _runs_bound(live: int) -> int:
    """The product of Catalan(r + 1) over the runs r of set bits of ``live``."""
    return math.prod(math.comb(2 * r + 2, r + 1) // (r + 2) for r in map(len, format(live, "b").split("0")))


def _letter_order(b: BraidWord) -> tuple[int, ...]:
    """Letters with the closure of ``b`` in an order that keeps the transfer
    pass's table small; ``b.letters`` itself off :data:`_TL_PLAN_FLOOR` to
    :data:`TL_STRAND_CAP` strands or where the plan does not lower the score.

    Letters on positions P reach at most the product of Catalan(r + 1) over
    the maximal runs r of consecutive positions in P, and the pass closes a
    strand once the positions beside it are past their last letters.  So an
    order's score counts each position from its first letter to its last and
    sums that bound over the letters.  The plan takes the cyclic shift of
    least score, the smallest on ties, then each next letter as the first
    remaining one that commutes (positions two or more apart; Cartier &
    Foata 1969) with every remaining one before it, one on a touched
    position first.  That starts positions late and ends them early, which
    lowered the score of all but one of 300 random 6-10-strand words.  It
    costs O(L*n log n).
    """
    letters, n = b.letters, b.strands
    if not (_TL_PLAN_FLOOR <= n <= TL_STRAND_CAP and letters):
        return letters
    size = len(letters)

    def score(spans: dict[int, tuple[int, int]]) -> int:  # position: (first letter, last letter)
        total = live = at = 0
        # events 16 * letter + position, where the position starts counting and where it stops
        for event in sorted([f << 4 | p for p, (f, _) in spans.items()] + [e + 1 << 4 | p for p, (_, e) in spans.items()]):
            if event >> 4 > at:
                total += _runs_bound(live) * ((event >> 4) - at)
                at = event >> 4
            live ^= 1 << (event & 15)
        return total

    last, prev = {abs(letter): u for u, letter in enumerate(letters)}, []
    for u, letter in enumerate(letters):  # prev[u]: the letter before u on its position, cyclically
        prev.append(last[abs(letter)])
        last[abs(letter)] = u
    nxt, best = {}, (math.inf, 0)  # each position's next letter at or after t
    for t in range(2 * size - 1, -1, -1):  # in the word read twice
        p = abs(letters[t % size])
        nxt[p] = t
        if t < size:
            cost = score({q: (u - t, (prev[u % size] - t) % size) for q, u in nxt.items()})
            best = min(best, (cost, t))
    rest, order, touched = letters[best[1]:] + letters[:best[1]], [], set()
    while rest:  # the first letter left touches a new position; then take every letter that frees
        touched.add(abs(rest[0]))
        blocked, left = [False] * (n + 1), []
        for letter in rest:
            p = abs(letter)
            free = p in touched and not (blocked[p - 1] or blocked[p] or blocked[p + 1])
            blocked[p] |= not free
            (order if free else left).append(letter)
        rest = left
    spans: dict[int, tuple[int, int]] = {}
    for t, letter in enumerate(order):
        spans[abs(letter)] = (spans.get(abs(letter), (t,))[0], t)
    return tuple(order) if score(spans) < cost else letters  # cost is the given order's, shift 0's


def tl_evaluate(b: BraidWord) -> Polynomial:
    """Raw three-variable bracket of the closure via the transfer pass.

    Runs :func:`tl_transfer` once, in the order :func:`_letter_order` plans
    (on ``b`` itself where it keeps b's), and unpacks its one packed sum.
    Equals bracket3_raw(closure(b)) exactly.
    """
    order = _letter_order(b)
    raw = tl_transfer(b if order is b.letters else BraidWord(b.strands, order))
    return _unpack(raw.packed, len(b.letters), raw.width, raw.k_a, raw.beta)


def raw_bracket(source: BraidWord | Diagram, engine: str = "naive") -> Polynomial:
    """Raw bracket through a named engine: ``naive`` or ``tl``; ``tl``
    requires a braid word."""
    if engine == "naive":
        return bracket3_raw(source if isinstance(source, Diagram) else closure(source))
    if engine != "tl":
        raise ValueError(f"unknown engine {engine!r}")
    if not isinstance(source, BraidWord):
        raise ValueError("the transfer-matrix engine needs a braid word input")
    return tl_evaluate(source)
