"""The classical one-variable bracket and its writhe normalization.

The bracket maps a diagram to an integer Laurent polynomial in a and is
characterized by three rules (Kauffman, *State models and the Jones
polynomial*, Topology 26 (1987)):

    <unknot> = 1,
    <D u circle> = (-a^-2 - a^2) <D>,
    <crossing> = a <A-smoothing> + a^-1 <B-smoothing>.

Expanding every crossing gives a 2^n state sum; :mod:`.bracket3` computes
it once per diagram as the raw three-variable sum, and the bracket is folded
out of that here (:func:`bracket_from_raw`).  The bracket only changes by
-a^(+-3) under a first Reidemeister move, so f(D) = (-a^3)^(-w(D)) <D> with
w the writhe is invariant under all three moves.
"""

from __future__ import annotations

from typing import Mapping

from .diagram import Diagram, writhe
from .multipoly import TERM_LIMIT, Polynomial, TermLimitError, read_terms


class LaurentPolynomial:
    """Sparse integer Laurent polynomial in the single variable a."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[int, int] = {}
        for exp, coeff in items:
            if coeff:
                clean[exp] = clean.get(exp, 0) + coeff
        self._terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def zero(cls) -> "LaurentPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPolynomial":
        return cls({0: 1})

    @property
    def terms(self) -> dict[int, int]:
        return dict(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __add__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return LaurentPolynomial([*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial({e: -c for e, c in self._terms.items()})

    def __sub__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial | int") -> "LaurentPolynomial":
        if isinstance(other, int):
            return LaurentPolynomial({e: c * other for e, c in self._terms.items()})
        out: dict[int, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return LaurentPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPolynomial":
        if n < 0:
            raise ValueError("negative powers are not built; shift() multiplies by a^k for any k")
        acc = LaurentPolynomial.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by a^k."""
        return LaurentPolynomial({e + k: c for e, c in self._terms.items()})

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {0: other})
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __str__(self) -> str:
        return format_laurent(self)

    def __repr__(self) -> str:
        return f"LaurentPolynomial({format_laurent(self)!r})"


def format_laurent(p: LaurentPolynomial) -> str:
    """Canonical text: terms by descending exponent, coefficient always
    printed with its sign, e.g. ``+1*a^4 -2*a -1*a^-4``."""
    if p.is_zero:
        return "0"
    chunks = []
    for exp, coeff in sorted(p.terms.items(), reverse=True):
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        if exp == 0:
            chunks.append(f"{sign}{mag}")
        elif exp == 1:
            chunks.append(f"{sign}{mag}*a")
        else:
            chunks.append(f"{sign}{mag}*a^{exp}")
    return " ".join(chunks)


def parse_laurent(text: str) -> LaurentPolynomial:
    """A Laurent polynomial in a, such as ``a^2 - a^-2``, in the grammar of
    :func:`.multipoly.read_terms`; a factor b, d or a root raises ValueError."""
    terms = []
    for coeff, (ea, eb, ed, ez) in read_terms(text):
        if eb or ed or ez:
            raise ValueError(f"{text!r} has a factor other than a")
        terms.append((ea, coeff))
    return LaurentPolynomial(terms)


#: Value of one extra disjoint circle: -a^-2 - a^2.
CIRCLE = LaurentPolynomial({-2: -1, 2: -1})


def circle_power(k: int) -> LaurentPolynomial:
    """CIRCLE^k = (-1)^k sum_i C(k, i) a^(4i-2k), the value of k extra
    disjoint circles."""
    _refuse_circles(k)
    terms: dict[int, int] = {}
    coeff = -1 if k % 2 else 1
    for i in range(k + 1):
        terms[4 * i - 2 * k] = coeff
        coeff = coeff * (k - i) // (i + 1)  # exact: the next C(k, i+1), signed
    return LaurentPolynomial(terms)


def _refuse_circles(k: int) -> None:
    """CIRCLE^k has k+1 coefficients of up to k bits each; when that bound
    exceeds TERM_LIMIT 64-bit words, it is refused before any of them is built."""
    if (k + 1) * (k // 64 + 1) > TERM_LIMIT:
        raise TermLimitError(
            f"the value of {k} extra circles has {k + 1} terms of up to {k} bits, "
            f"over the cap of {TERM_LIMIT} 64-bit words"
        )


def kauffman_bracket(d: Diagram) -> LaurentPolynomial:
    """The bracket of ``d``, folded out of its raw three-variable sum."""
    # imported here: bracket3 imports quotient, which imports this module
    from .bracket3 import bracket3_raw
    return bracket_from_raw(bracket3_raw(d))


def bracket_from_raw(raw: Polynomial) -> LaurentPolynomial:
    """The bracket folded out of the raw three-variable state sum: b -> a^-1
    and one circle fewer, so each raw term c*a^i*b^j*d^k (k >= 1, as every
    state has a circle) becomes c*a^(i-j)*CIRCLE^(k-1).

    The terms are grouped by circle count k and folded by Horner's rule in
    CIRCLE from the largest k down, then multiplied once by CIRCLE^(kmin-1),
    so only one power of CIRCLE is ever built.
    """
    by_circles: dict[int, dict[int, int]] = {}
    for (i, j, k), coeff in raw:
        group = by_circles.setdefault(k, {})
        group[i - j] = group.get(i - j, 0) + coeff
    low, high = min(by_circles, default=1), max(by_circles, default=0)
    _refuse_circles(high - 1)  # the fold is as wide as the highest power
    total: dict[int, int] = {}
    for k in range(high, low - 1, -1):
        step = by_circles.pop(k, {})  # becomes total * CIRCLE + the k-circle terms
        for e, c in total.items():
            step[e - 2] = step.get(e - 2, 0) - c
            step[e + 2] = step.get(e + 2, 0) - c
        total = step
    return LaurentPolynomial(total) * circle_power(low - 1)


def writhe_normalize(bracket: LaurentPolynomial, w: int) -> LaurentPolynomial:
    """(-a^3)^(-w) times the bracket of a writhe-w diagram: the f-invariant."""
    sign = -1 if w % 2 else 1
    return bracket.shift(-3 * w) * sign


def f_invariant(d: Diagram) -> LaurentPolynomial:
    """(-a^3)^(-w) <D>: unchanged by all three Reidemeister moves."""
    return writhe_normalize(kauffman_bracket(d), writhe(d))
