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
that join the open arcs alike (Bar-Natan, JKTR 16 (2007)); ``tl`` carries
planar matchings (the Temperley-Lieb basis), numbered as they first appear,
across a braid word, one letter at a time, in an order with the same closure
that grows the table late (:func:`_letter_order`).  Each keeps one packed int of
state counts per matching (Kronecker substitution), its slots sized to
Kauffman's state diamond (Topology 26 (1987)): in a planar diagram,
switching one smoothing moves the circle count by exactly one, so a state
with j B-smoothings has k circles within j of the all-A state's and within
n-j of the all-B state's, and k-j has one parity.  The count of
a^(n-j) b^j d^k sits in slot alpha*j + beta*k (see :func:`_unpack`), so a
B-smoothing and a closed circle each shift a matching's counts by a
constant; ``tl`` shifts only on the cup-cap path, worked out once per
matching and position (:func:`tl_transfer`).  ``tl`` also carries the
circles of each matching's closure along the cup-caps that number it: a
cup-cap is a saddle on the closure, and in the planar annulus a saddle on
one circle splits it while a saddle across two circles merges them
(:func:`_number_matchings`).  The engines are checked against each other in
the tests; a per-state enumeration is the oracle.

Every readout of a diagram is derived from its one raw sum: the normal form,
the lifted :func:`ambient3`, :func:`circle_variant`, and the classical
bracket (:func:`.classical.bracket_from_raw`).
"""

from __future__ import annotations

import itertools
import math

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
#: and the rebuilt word (5-strand 20-letter words ran slower planned).
_TL_PLAN_FLOOR = 6


class CapacityError(RuntimeError):
    """Input too wide for a state-sum pass."""


#: One crossing of the frontier pass: its port and ext nodes, the nodes left
#: open after it, and each one's position in the next matching.
Step = tuple[list[int], list[int], list[int], dict[int, int]]


def _plan(crossings: tuple[Quad, ...]) -> tuple[list[Step], int]:
    """The state-independent part of the frontier pass over ``crossings`` in
    the given order, and the peak number of open arcs it carries."""
    steps: list[Step] = []
    peak = 0
    open_arcs: list[int] = []
    for quad in crossings:
        # nodes: the open arcs by position, then one per port; mate pairs the
        # two ends of each curve, and a new arc is its own end until joined
        base = len(open_arcs)
        port = [open_arcs.index(arc) if arc in open_arcs else base + s for s, arc in enumerate(quad)]
        ext = list(range(base, base + 4))
        for s, t in itertools.combinations(range(4), 2):
            if quad[s] == quad[t]:  # a kink: both ends of the arc are here
                ext[s], ext[t] = base + t, base + s
        after = [i for i, arc in enumerate(open_arcs) if arc not in quad]
        after += [base + s for s in range(4) if port[s] == ext[s]]  # new arcs, kinks' excepted
        open_arcs = [open_arcs[i] if i < base else quad[i - base] for i in after]
        steps.append((port, ext, after, {node: i for i, node in enumerate(after)}))
        peak = max(peak, len(after))
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
    """Raw three-variable state sum over all 2^n smoothing choices.

    A frontier pass over the crossings in the diagram's own order, or in a
    greedy order (:func:`_greedy_order`) when the own order would carry more
    than :data:`OPEN_ARC_CAP` open arcs at once; the sum does not depend on
    the order.  Each partial curve ends on two open arcs (labels seen once so
    far), so partial states merge by their matching of the open arcs: each
    arc's partner, in an arc order all states share.  A matching carries one
    packed int of state counts, a^(n-j) b^j d^k in slot alpha*j + beta*k for
    n crossings (see :func:`_unpack`; the diagram must be planar, as
    :func:`.diagram.parse_pd` checks).  A smoothing shifts it alpha slots if
    it is B and beta slots per circle it closes, so the cost is set by the
    number of matchings, which the width of the open boundary bounds.  The
    f free loops multiply the unpacked sum by d^f once, at the end.

    A crossing-free k-circle diagram gives d^k; every state of a nonempty
    diagram carries at least one circle, so d divides the result.
    """
    steps, peak = _plan(d.crossings)
    if peak > OPEN_ARC_CAP:  # a greedy order, else a refusal before any state work
        steps, greedy_peak = _plan(_greedy_order(d.crossings))
        if greedy_peak > OPEN_ARC_CAP:
            raise CapacityError(
                f"{d.n} crossings need {min(peak, greedy_peak)} open arcs at once in the narrowest "
                f"crossing order tried, over the frontier pass's cap of {OPEN_ARC_CAP}"
            )
    n = d.n
    k_a, k_b = _extreme_circles(d.crossings)
    width, beta = _layout(n, k_a, k_b)
    circle = width * beta
    table: dict[tuple[int, ...], int] = {(): 1}
    for port, ext, after, index in steps:
        a, b, c, e = port
        choices = ((0, ((a, b), (c, e))), (circle + width, ((a, e), (b, c))))
        nxt: dict[tuple[int, ...], int] = {}
        get = nxt.get
        for m, packed in table.items():
            for shift, joins in choices:
                mate = [*m, *ext]
                for x, y in joins:
                    fx, fy = mate[x], mate[y]
                    if fx == y:  # the join closes a circle; x and y are spent either way
                        shift += circle
                    mate[fx], mate[fy] = fy, fx
                key = tuple([index[mate[node]] for node in after])
                # a first arrival is stored as is: 0 + x would copy the bigint
                x = packed << shift
                prev = get(key)
                nxt[key] = x if prev is None else prev + x
        table = nxt
    return _unpack(table[()], n, width, k_a, beta).mul_term(1, (0, 0, d.free_loops))


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
# matching[x] is the partner of point x.
Row = list[tuple[int, bool]]  # row[k]: the number of matching k times e_i, and if a circle split off


def _identity_matching(n: int) -> Matching:
    return tuple(list(range(n, 2 * n)) + list(range(n)))


class PackedTable(dict[Matching, int]):
    """Packed state counts per matching, with the layout they are packed in
    (see :func:`_unpack`): the all-A circle count ``k_a``, the bits per slot
    ``width`` and the slots per circle ``beta``; ``closures[t]`` is the
    closure-circle count of the t-th matching in key order."""

    def __init__(self, counts: dict[Matching, int], closures: list[int], k_a: int, width: int, beta: int):
        super().__init__(counts)
        self.closures, self.k_a, self.width, self.beta = closures, k_a, width, beta


def _number_matchings(b: BraidWord) -> tuple[list[Matching], list[Row], list[int], list[int]]:
    """The matchings the states of braid word ``b`` reach, numbered in order
    of first appearance; their cup-cap rows, one per frontier position; the
    circles of each one's closure (frontier point n+j joined back to bottom
    point j); and ``sizes[t]``, how many are numbered before letter t.  Each
    letter extends its position's row over those, so each cup-cap runs once
    per matching and position.

    The identity's closure has n circles.  Where u and v, the letter's
    frontier points, are not partners in m, the cup-cap of m e_i is a saddle
    on m's closure arcs at u and v.  In the planar annulus a saddle on one
    circle splits it and one across two circles merges them, so m e_i has
    one circle more than m if one walk of u's circle meets v, else one fewer.
    The walk runs once, when m e_i is first numbered."""
    n, matchings = b.strands, [_identity_matching(b.strands)]
    ids, rows, closures, sizes = {matchings[0]: 0}, [[] for _ in range(n)], [n], [1]
    for letter in b.letters:
        i = abs(letter)
        u, v, row = n + i - 1, n + i, rows[i]
        for k in range(len(row), len(matchings)):
            m = matchings[k]
            pu, pv = m[u], m[v]
            if pu == v:  # the cap closes a circle and the cup restores m
                row.append((k, True))
                continue
            out = list(m)
            out[pu], out[pv], out[u], out[v] = pv, pu, v, u
            m2 = tuple(out)
            t = ids.setdefault(m2, len(matchings))
            row.append((t, False))
            if t == len(matchings):
                # step along the tangle, then back along a closure arc: the
                # points stepped from are every other point of u's circle, so
                # it holds v iff the walk meets v or pv before u again
                x = pu - n if pu >= n else pu + n
                while x != u and x != v and x != pv:
                    x = m[x] - n if m[x] >= n else m[x] + n
                matchings.append(m2)
                closures.append(closures[k] - 1 if x == u else closures[k] + 1)
        sizes.append(len(matchings))
    return matchings, rows, closures, sizes


def tl_transfer(b: BraidWord) -> PackedTable:
    """The braid word as a combination of planar matchings, before closure.

    Each letter maps the running element T to weight_vert * T plus
    weight_cup * T e_i, where e_i is the cup-cap generator at the letter's
    position; a circle split off during composition contributes a factor d.
    Every state has weight +1, so each matching carries its state counts
    per monomial a^(L-j) b^j d^k, for a word of L letters, packed into one
    int: slot alpha*j + beta*k, L+1 bits wide, with the diamond of the
    closure's extreme states, untouched strands included (see
    :func:`_unpack`); the table carries that layout.  It is a list indexed
    by matching number (:func:`_number_matchings`).  The identity path is
    free: the next table starts as a copy, and only the cup-cap path adds a
    shifted count.  On a positive letter that is the B-smoothing, alpha
    slots up, plus beta if a circle splits off.  On a negative letter it is
    alpha slots down, or one (alpha - beta) if a circle splits off, as the
    table starts alpha slots up per negative letter.  Before the m-th
    negative letter from the end every count sits m*alpha slots up or more,
    so no down shift drops a bit.  The table also carries the closure
    circles that :func:`_number_matchings` counts by the saddle rule.
    """
    n = b.strands
    if n > TL_STRAND_CAP:
        raise CapacityError(f"{n} strands exceeds the transfer-matrix cap {TL_STRAND_CAP}")
    matchings, rows, closures, sizes = _number_matchings(b)
    k_a, k_b = _tl_extremes(b, rows, closures)
    width, beta = _layout(len(b.letters), k_a, k_b)
    alpha, circle = width * (beta + 1), width * beta  # in bits, as the shifts below
    table = [1 << alpha * sum(letter < 0 for letter in b.letters)]
    for letter, size in zip(b.letters, sizes[1:]):
        prev, table = table, table + [0] * (size - len(table))
        if letter > 0:
            for packed, (t, split) in zip(prev, rows[letter]):
                table[t] += packed << (alpha + circle if split else alpha)
        else:
            for packed, (t, split) in zip(prev, rows[-letter]):
                table[t] += packed >> (width if split else alpha)
    return PackedTable(dict(zip(matchings, table)), closures, k_a, width, beta)


def _tl_extremes(b: BraidWord, rows: list[Row], closures: list[int]) -> tuple[int, int]:
    """Circles of the closure of ``b`` in its all-A and all-B states,
    untouched strands included: one walk per extreme through ``rows``
    (:func:`_number_matchings`), which ends on the carried closure count of
    the walk's last matching.  A positive letter's A-smoothing is the
    identity and its B-smoothing the cup-cap; a negative letter's are the
    other way round."""
    extremes = []
    for all_b in (False, True):
        k = circles = 0
        for letter in b.letters:
            if (letter > 0) == all_b:
                k, split = rows[abs(letter)][k]
                circles += split
        extremes.append(circles + closures[k])
    return extremes[0], extremes[1]


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


def _letter_order(b: BraidWord) -> tuple[int, ...]:
    """Letters with the closure of ``b`` in an order that grows the transfer
    pass's table late; ``b.letters`` itself off :data:`_TL_PLAN_FLOOR` to
    :data:`TL_STRAND_CAP` strands or where the plan does not lower the score.

    After letters on positions P the pass carries at most the product of
    Catalan(r + 1) over the maximal runs r of consecutive positions in P; an
    order's score sums that bound over its letters.  The plan takes the cyclic
    shift of least score, the smallest on ties, then each next letter as the
    first remaining one that commutes (positions two or more apart; Cartier &
    Foata 1969) with every remaining one before it, one on a touched position
    first.  Neither step raises the score.  It costs O(L*n).
    """
    letters, n = b.letters, b.strands
    if not (_TL_PLAN_FLOOR <= n <= TL_STRAND_CAP and letters):
        return letters
    size, catalan = len(letters), [math.comb(2 * m, m) // (m + 1) for m in range(n + 1)]

    def score(firsts: list[tuple[int, int]]) -> int:  # (index, position) of each position's first letter
        end, bound, total = [0] * (n + 1), 1, size  # end[x]: the far end of a run that x ends, 0 if none
        for t, p in firsts:  # p joins the runs beside it, and the bound's rise holds from letter t on
            lo, hi = end[p - 1] or p, end[p + 1] or p
            end[lo], end[hi] = hi, lo
            rise = bound * catalan[hi - lo + 2] // (catalan[p - lo + 1] * catalan[hi - p + 1]) - bound
            bound, total = bound + rise, total + (size - t) * rise
        return total

    nxt, best = {}, (math.inf, 0)  # each position's next letter at or after t, the nearest last
    for t in range(2 * size - 1, -1, -1):  # in the word read twice
        p = abs(letters[t % size])
        nxt.pop(p, None)
        nxt[p] = t
        if t < size:
            cost = score([(u - t, q) for q, u in reversed(nxt.items())])
            best = min(best, (cost, t))
    rest, order, firsts = letters[best[1]:] + letters[:best[1]], [], []
    while rest:  # the first letter left touches a new position; then take every letter that frees
        firsts.append((len(order), abs(rest[0])))
        touched, blocked, left = {p for _, p in firsts}, [False] * (n + 1), []
        for letter in rest:
            p = abs(letter)
            free = p in touched and not (blocked[p - 1] or blocked[p] or blocked[p + 1])
            blocked[p] |= not free
            (order if free else left).append(letter)
        rest = left
    return tuple(order) if score(firsts) < cost else letters  # cost is the given order's, shift 0's


def tl_evaluate(b: BraidWord) -> Polynomial:
    """Raw three-variable bracket of the closure via the transfer pass.

    Runs :func:`tl_transfer` once, in the order :func:`_letter_order` plans
    (on ``b`` itself where it keeps b's), and then joins top to bottom,
    shifting each matching's packed counts up beta slots per closure circle,
    as the table carries them (:func:`_number_matchings`); the sum is
    unpacked once, in the table's layout.  Equals bracket3_raw(closure(b)) exactly.
    """
    order = _letter_order(b)
    table = tl_transfer(b if order is b.letters else BraidWord(b.strands, order))
    circle = table.width * table.beta
    total = 0
    for packed, k in zip(table.values(), table.closures):
        total += packed << circle * k
    return _unpack(total, len(b.letters), table.width, table.k_a, table.beta)


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
