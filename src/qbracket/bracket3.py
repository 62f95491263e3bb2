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
of the ambient isotopy class.

Two evaluation engines compute the same raw polynomial: the naive 2^n state
enumeration, which walks the states depth-first over the crossings and
shares each crossing prefix, and a transfer-matrix pass that carries a
linear combination of planar matchings (the Temperley-Lieb basis) across the
braid word, one letter at a time.  The transfer pass packs each matching's
state counts into one int: for a word of L letters on n strands, the count
of a^(L-j) b^j d^k is slot j*(L+n+1) + k, and a slot is L+1 bits wide, since
no count exceeds 2^L.  The two engines are checked against each other in
the tests and can be cross-asserted at runtime; the per-state enumeration of
:func:`.classical.kauffman_bracket` is the oracle for both.

Every readout of a diagram is derived from its one raw sum: the normal form,
:func:`ambient_from_raw`, :func:`circle_variant`, and the classical bracket
(:func:`.classical.bracket_from_raw`).
"""

from __future__ import annotations

from .classical import TL_STRAND_CAP, CapacityError, check_enumerable
from .diagram import BraidWord, Diagram, closure, writhe
from .multipoly import Monomial, Polynomial, parse_poly
from .quotient import normal_form

#: Closed-diagram multiplier of one positive / negative curl on the raw sum.
CURL_PLUS: Polynomial = parse_poly("+a*d +b")
CURL_MINUS: Polynomial = parse_poly("+a +b*d")

DELTA: Polynomial = Polynomial.variable("d")

#: Everything that pins the state-sum conventions, for cache keys and reports.
CONVENTION = "order:a>b>d;A(positive)=vertical;circles:d^k;curl+:+a*d +b;curl-:+a +b*d"


def bracket3_raw(d: Diagram) -> Polynomial:
    """Raw three-variable state sum over all 2^n smoothing choices.

    The states are walked depth-first over the crossings, so states that
    agree on a prefix of smoothings share the arc forest built for it: each
    stack frame holds the next crossing, a parent list over the arc labels
    1..2n, its component count and the B-smoothings so far.  The A branch
    joins its two arc pairs on a copy of the list, the B branch on the
    frame's own; a join of two different roots is one component fewer.

    A crossing-free k-circle diagram gives d^k; every state of a nonempty
    diagram carries at least one circle, so d divides the result.
    """
    check_enumerable(d)
    n = d.n
    joins = [(((a, b), (c, e)), ((a, e), (b, c))) for a, b, c, e in d.crossings]
    counts: dict[Monomial, int] = {}
    stack = [(0, list(range(2 * n + 1)), 2 * n, 0)]
    while stack:
        k, parent, components, b_count = stack.pop()
        if k == n:
            mono = (n - b_count, b_count, components + d.free_loops)
            counts[mono] = counts.get(mono, 0) + 1
            continue
        for choice, pairs in enumerate(joins[k]):
            p = parent if choice else parent[:]  # A copies before B reuses the list
            left = components
            for x, y in pairs:
                while p[x] != x:
                    x = p[x]
                while p[y] != y:
                    y = p[y]
                if x != y:
                    p[y] = x
                    left -= 1
            stack.append((k + 1, p, left, b_count + choice))
    return Polynomial(counts)


def bracket3(d: Diagram) -> Polynomial:
    """Normal form of the raw sum: the regular-isotopy invariant."""
    return normal_form(bracket3_raw(d))


def ambient_from_raw(raw: Polynomial, w: int) -> Polynomial:
    """Ambient-isotopy invariant from the raw sum of a writhe-w diagram.

    The value is the normal form of CURL_MINUS^w times the raw sum for w > 0
    (CURL_PLUS^-w for w < 0), exactly the effect of normalizing the writhe to
    zero with opposite-sign curls.  Normal form is a ring map onto the
    quotient, so the raw sum is reduced first and again after each curl
    factor: every product stays a small multiple of a normal form, instead
    of one |w|-fold product reduced at the end.
    """
    return ambient_from_normal(normal_form(raw), w)


def ambient_from_normal(nf: Polynomial, w: int) -> Polynomial:
    """:func:`ambient_from_raw` from ``nf``, the raw sum's normal form, for a
    caller that reports that normal form too and so reduces the raw sum once."""
    factor = CURL_MINUS if w > 0 else CURL_PLUS
    amb = nf
    for _ in range(abs(w)):
        amb = normal_form(factor * amb)
    return amb


def circle_variant(amb: Polynomial, w: int) -> Polynomial:
    """Variant normalization whose curl factors keep their circle: d*(a*d+b)
    and d*(a+b*d).  Normal form is a ring map onto the quotient, so this is
    the normal form of d^|w| times the ambient invariant ``amb``; reported
    alongside it, since the two only agree for writhe-zero diagrams."""
    return normal_form(DELTA ** abs(w) * amb)


def ambient3(d: Diagram) -> Polynomial:
    """:func:`ambient_from_raw` of the naive raw sum."""
    return ambient_from_raw(bracket3_raw(d), writhe(d))


def ambient3_with_circle_factors(d: Diagram) -> Polynomial:
    """:func:`circle_variant` of :func:`ambient3`."""
    return circle_variant(ambient3(d), writhe(d))


# -- transfer-matrix evaluation --------------------------------------------------

Matching = tuple[int, ...]
# A planar perfect matching on 2n points: indices 0..n-1 are the bottom
# boundary, n..2n-1 the current frontier (frontier position j is point n+j).
# matching[x] is the partner of point x.


def _identity_matching(n: int) -> Matching:
    return tuple(list(range(n, 2 * n)) + list(range(n)))


def _apply_cupcap(m: Matching, u: int, v: int) -> tuple[Matching, bool]:
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


def _close_trace(m: Matching, n: int) -> int:
    """Circles formed when frontier point n+j is joined back to bottom point j."""
    seen = [False] * (2 * n)
    circles = 0
    for start in range(2 * n):
        if seen[start]:
            continue
        circles += 1
        x = start
        while not seen[x]:
            seen[x] = True
            y = m[x]                      # along the tangle
            seen[y] = True
            x = y - n if y >= n else y + n  # along the closure arc
    return circles


def tl_transfer(b: BraidWord) -> dict[Matching, int]:
    """The braid word as a combination of planar matchings, before closure.

    Each letter maps the running element T to weight_vert * T plus
    weight_cup * T e_i, where e_i is the cup-cap generator at the letter's
    position; a circle split off during composition contributes a factor d.
    Every state has weight +1, so each matching carries a table of state
    counts per monomial a^(L-j) b^j d^k, for a word of L letters on n
    strands.  The table is packed into one int (Kronecker substitution):
    the count of a^(L-j) b^j d^k sits in slot j*(L+n+1) + k, and each slot
    is L+1 bits wide, because no count exceeds the 2^L states.  Every count
    of a matching takes the same exponent step, so a letter costs two
    shifted additions per matching: by 0 or by one b-row, plus one d-slot
    when a circle splits off.  :func:`_unpack` reads a table back.
    """
    n = b.strands
    if n > TL_STRAND_CAP:
        raise CapacityError(f"{n} strands exceeds the transfer-matrix cap {TL_STRAND_CAP}")
    width, stride = _slot_layout(b)
    b_row = width * stride
    table: dict[Matching, int] = {_identity_matching(n): 1}
    for letter in b.letters:
        i = abs(letter)
        u, v = n + i - 1, n + i
        vert, cup = (0, b_row) if letter > 0 else (b_row, 0)
        nxt: dict[Matching, int] = {}
        get = nxt.get
        for m, packed in table.items():
            m2, circle = _apply_cupcap(m, u, v)
            # a first arrival is stored as is: 0 + x would copy the bigint
            x = packed << vert
            prev = get(m)
            nxt[m] = x if prev is None else prev + x
            x = packed << (cup + width if circle else cup)
            prev = get(m2)
            nxt[m2] = x if prev is None else prev + x
        table = nxt
    return table


def _slot_layout(b: BraidWord) -> tuple[int, int]:
    """Bits per slot and slots per b-row of the packed tables of ``b``."""
    letters = len(b.letters)
    return letters + 1, letters + b.strands + 1


def _unpack(packed: int, b: BraidWord) -> Polynomial:
    """The polynomial whose state counts ``packed`` holds, in the layout of
    :func:`tl_transfer` for the word ``b``."""
    letters = len(b.letters)
    width, stride = _slot_layout(b)
    bits = format(packed, "b")[::-1]  # bit s*width starts slot s
    counts: dict[Monomial, int] = {}
    for start in range(0, len(bits), width):
        chunk = bits[start:start + width]
        if "1" in chunk:
            j, k = divmod(start // width, stride)
            counts[(letters - j, j, k)] = int(chunk[::-1], 2)
    return Polynomial(counts)


def tl_evaluate(b: BraidWord) -> Polynomial:
    """Raw three-variable bracket of the closure via the transfer pass.

    Runs :func:`tl_transfer` and then joins top to bottom, shifting each
    matching's packed counts up one d-slot per closure circle; the sum is
    unpacked once.  Equals bracket3_raw(closure(b)) exactly.
    """
    width, _ = _slot_layout(b)
    total = 0
    for m, packed in tl_transfer(b).items():
        total += packed << (width * _close_trace(m, b.strands))
    return _unpack(total, b)


class EngineMismatchError(AssertionError):
    """The naive and transfer-matrix engines gave different raw sums."""


def raw_bracket(source: BraidWord | Diagram, engine: str = "naive") -> Polynomial:
    """Raw bracket through a named engine: ``naive``, ``tl``, or ``both``.

    ``tl`` requires a braid word; ``both`` runs the two engines and insists
    on exact agreement.
    """
    if engine not in ("naive", "tl", "both"):
        raise ValueError(f"unknown engine {engine!r}")
    word = source if isinstance(source, BraidWord) else None
    diagram = source if isinstance(source, Diagram) else None
    if engine in ("tl", "both") and word is None:
        raise ValueError("the transfer-matrix engine needs a braid word input")
    if engine == "tl":
        return tl_evaluate(word)
    if diagram is None:
        diagram = closure(word)
    naive = bracket3_raw(diagram)
    if engine == "both":
        tl = tl_evaluate(word)
        if tl != naive:
            raise EngineMismatchError(
                f"engine disagreement on {word.text}: naive={naive} tl={tl}"
            )
    return naive
