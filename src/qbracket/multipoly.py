"""Exact sparse polynomial arithmetic over the integers in the variables a, b, d.

The ring is Z[a, b, d] with the fixed lexicographic term order a > b > d.
Everything is exact: coefficients are arbitrary-precision ints, monomials
are exponent triples, and equality is equality of the term maps.  Lex
a > b > d on exponent triples is Python's own tuple order, so ``max`` and
``sorted`` on monomials need no key.

Besides ring arithmetic the module provides the Groebner toolkit needed to
work in quotients of this ring: the remainder of multivariate division,
S-polynomials, Buchberger completion, and basis reduction.  Division over Z
only rewrites a term when the divisor's leading coefficient divides it; for
bases whose leading coefficients are +-1 (every basis this package ships)
this coincides with division over the rationals and remainders are the usual
unique normal forms.  Every caller reads the remainder only, so ``remainder``
keeps no quotients.  It pops each step's term from a heap (Monagan & Pearce,
CASC 2007) rather than scanning the whole work set for its maximum.  Results
clean by construction skip every constructor check but ``TERM_LIMIT``
(``Polynomial._from_clean``).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from heapq import heappop, heappush
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

Monomial = tuple[int, int, int]

VARIABLES = ("a", "b", "d")

#: Hard cap on stored terms; arithmetic that would exceed it aborts loudly
#: instead of letting a runaway basis computation eat the machine.
TERM_LIMIT = 10**6


class TermLimitError(RuntimeError):
    """A polynomial operation produced more than TERM_LIMIT terms."""


def mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])


def mono_divides(m1: Monomial, m2: Monomial) -> bool:
    """True when m1 divides m2 componentwise."""
    return m1[0] <= m2[0] and m1[1] <= m2[1] and m1[2] <= m2[2]


def mono_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2; caller must ensure divisibility."""
    q = (m1[0] - m2[0], m1[1] - m2[1], m1[2] - m2[2])
    if min(q) < 0:
        raise ValueError(f"monomial {m2} does not divide {m1}")
    return q


def mono_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return (max(m1[0], m2[0]), max(m1[1], m2[1]), max(m1[2], m2[2]))


class Polynomial:
    """Immutable sparse polynomial in Z[a, b, d].

    Stored as a map from exponent triple to nonzero integer coefficient.
    All operators return new values; instances are safe to share freely.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms: Mapping[Monomial, int] | Iterable[tuple[Monomial, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, int] = {}
        for mono, coeff in items:
            if coeff:
                ea, eb, ed = mono
                if ea < 0 or eb < 0 or ed < 0:
                    raise ValueError(f"negative exponent in monomial {mono}")
                clean[(ea, eb, ed)] = clean.get((ea, eb, ed), 0) + coeff
        clean = {m: c for m, c in clean.items() if c}
        if len(clean) > TERM_LIMIT:
            raise TermLimitError(f"polynomial with {len(clean)} terms exceeds cap {TERM_LIMIT}")
        object.__setattr__(self, "_terms", clean)
        object.__setattr__(self, "_hash", None)

    # -- constructors ------------------------------------------------------

    @classmethod
    def _from_clean(cls, terms: dict[Monomial, int]) -> "Polynomial":
        """Adopt ``terms``, which has no zero coefficient or negative exponent."""
        if len(terms) > TERM_LIMIT:
            raise TermLimitError(f"polynomial with {len(terms)} terms exceeds cap {TERM_LIMIT}")
        p = object.__new__(cls)
        object.__setattr__(p, "_terms", terms)
        object.__setattr__(p, "_hash", None)
        return p

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({(0, 0, 0): 1})

    @classmethod
    def constant(cls, c: int) -> "Polynomial":
        return cls({(0, 0, 0): c})

    @classmethod
    def term(cls, coeff: int, mono: Monomial) -> "Polynomial":
        return cls({mono: coeff})

    @classmethod
    def variable(cls, name: str) -> "Polynomial":
        i = VARIABLES.index(name)
        mono = tuple(1 if j == i else 0 for j in range(3))
        return cls({mono: 1})  # type: ignore[dict-item]

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> Mapping[Monomial, int]:
        return MappingProxyType(self._terms)

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __iter__(self) -> Iterator[tuple[Monomial, int]]:
        return iter(self._terms.items())

    def leading(self) -> tuple[Monomial, int]:
        """Leading (monomial, coefficient) under lex a > b > d; error on zero."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        m = max(self._terms)
        return m, self._terms[m]

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self._terms.values():
            g = gcd(g, abs(c))
            if g == 1:
                break
        return g

    def primitive_part(self) -> "Polynomial":
        """Divide out the content and make the leading coefficient positive."""
        if not self._terms:
            return self
        g = self.content()
        _, lc = self.leading()
        if lc < 0:
            g = -g
        return Polynomial({m: c // g for m, c in self._terms.items()})

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            s = out.get(m, 0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return Polynomial._from_clean(out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_clean({m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.constant(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: int) -> "Polynomial":
        return Polynomial.constant(other) - self

    def __mul__(self, other: "Polynomial | int") -> "Polynomial":
        if isinstance(other, int):
            if other == 0:
                return Polynomial.zero()
            return Polynomial._from_clean({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                s = out.get(m, 0) + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
        return Polynomial._from_clean(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[a, b, d]")
        acc = Polynomial.one()
        base = self
        while n:
            if n & 1:
                acc = acc * base
            base = base * base if n > 1 else base
            n >>= 1
        return acc

    def mul_term(self, coeff: int, mono: Monomial) -> "Polynomial":
        """Multiply by a single term; cheaper than building a Polynomial."""
        if min(mono) < 0:
            raise ValueError(f"negative exponent in monomial {mono}")
        if coeff == 0:
            return Polynomial.zero()
        return Polynomial._from_clean(
            {(m[0] + mono[0], m[1] + mono[1], m[2] + mono[2]): c * coeff for m, c in self._terms.items()}
        )

    # -- equality / formatting ---------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return self._terms == ({} if other == 0 else {(0, 0, 0): other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        if self._hash is None:
            object.__setattr__(self, "_hash", hash(frozenset(self._terms.items())))
        return self._hash

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_poly(self)!r})"


# -- canonical text form ----------------------------------------------------

def format_poly(p: Polynomial) -> str:
    """Canonical text: terms lex-descending, every coefficient carries a sign.

    Magnitude 1 is elided unless the term is constant; exponent 1 is elided;
    variables with exponent 0 are omitted, e.g. ``+a^2*d +2*a*b*d^2``.
    """
    if p.is_zero:
        return "0"
    chunks = []
    for mono, coeff in sorted(p.terms.items(), reverse=True):
        sign = "+" if coeff > 0 else "-"
        mag = abs(coeff)
        factors = []
        for name, exp in zip(VARIABLES, mono):
            if exp == 1:
                factors.append(name)
            elif exp > 1:
                factors.append(f"{name}^{exp}")
        if not factors:
            chunks.append(f"{sign}{mag}")
        elif mag == 1:
            chunks.append(sign + "*".join(factors))
        else:
            chunks.append(f"{sign}{mag}*" + "*".join(factors))
    return " ".join(chunks)


# One factor of a term, with the whitespace around it (see read_terms).
_FACTOR = re.compile(
    r"\s*(?:(\d+)|([abd])(?:\s*\^\s*(-?\d+))?|(I)"
    r"|\(\s*-\s*1\s*\)\s*\^\s*\(\s*(\d+)\s*/\s*(\d+)\s*\))\s*"
)


def read_terms(text: str) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Each signed term of ``text`` as (coefficient, (a, b, d, z) exponents).

    A term is a sign and factors joined by ``*``; the first term's sign is
    optional, the ``*`` may be left out after an integer, and whitespace is
    free.  A factor is an integer, ``a``/``b``/``d`` with an optional power
    ``^k`` (k may be negative), ``I`` (z^3) or ``(-1)^(p/q)`` (z^(6p/q)), with
    z = e^(i*pi/6).  A root that is not a 12th root of unity, and any other
    text, raises ValueError with the position where reading stopped.
    """
    pos = len(text) - len(text.lstrip())
    while True:
        coeff, exps = 1, [0, 0, 0, 0]
        if text.startswith(("+", "-"), pos):
            coeff = -1 if text[pos] == "-" else 1
            pos += 1
        while True:
            m = _FACTOR.match(text, pos)
            if m is None:
                raise ValueError(f"cannot read {text!r} at position {pos}")
            num, var, power, unit, p, q = m.groups()
            if num:
                coeff *= int(num)
            elif var:
                exps[VARIABLES.index(var)] += int(power or 1)
            elif unit:
                exps[3] += 3
            elif int(q) == 0 or 6 * int(p) % int(q):
                raise ValueError(f"cannot read {text!r} at position {pos}: not a 12th root of unity")
            else:
                exps[3] += 6 * int(p) // int(q)
            pos = m.end()
            if text.startswith("*", pos):
                pos += 1
            elif not (num and text.startswith(("a", "b", "d", "I", "("), pos)):
                break
        yield coeff, tuple(exps)
        if pos == len(text):
            return
        if not text.startswith(("+", "-"), pos):
            raise ValueError(f"cannot read {text!r} at position {pos}")


def parse_poly(text: str) -> Polynomial:
    """A polynomial of Z[a, b, d] in the grammar of :func:`read_terms`, such
    as ``a^2*d + 2*a*b*d^2``; a root of unity raises ValueError, and so does
    a negative power, in ``Polynomial``'s own check."""
    terms = []
    for coeff, (ea, eb, ed, ez) in read_terms(text):
        if ez:
            raise ValueError(f"{text!r} has a root of unity, which Z[a, b, d] lacks")
        terms.append(((ea, eb, ed), coeff))
    return Polynomial(terms)


# -- division, S-polynomials, Buchberger ------------------------------------

def remainder(p: Polynomial, basis: list[Polynomial]) -> Polynomial:
    """Remainder of multivariate division of p by basis, exactly over Z.

    The largest monomial is rewritten first, by the earliest basis element
    whose leading monomial divides it (and whose leading coefficient divides
    its coefficient -- automatic for the monic-leading bases used here).
    Then p minus the result lies in the ideal of the basis; remainders
    against a Groebner basis with unit leading coefficients are the canonical
    normal forms.  The quotients are not kept.

    The work set is a dict of coefficients keyed by negated exponent
    triples, beside a heap of those keys whose minimum is the largest
    monomial.  Steps add only smaller terms, so each key is pushed once, when
    it enters the dict; a cancelled coefficient stays as 0 and is skipped
    when popped.
    """
    reducers = []
    for g in basis:
        if g.is_zero:
            raise ValueError("division by a basis containing zero")
        (la, lb, ld), lc = g.leading()
        # each tail term m as (lm - m, c): mono / lm * m has the key key + (lm - m)
        tail = [((la - m[0], lb - m[1], ld - m[2]), c) for m, c in g.terms.items() if m != (la, lb, ld)]
        reducers.append((la, lb, ld, lc, tail))
    rest: dict[Monomial, int] = {}
    work = {(-m[0], -m[1], -m[2]): c for m, c in p.terms.items()}
    get = work.get
    heap = sorted(work)  # a sorted list is a heap
    while heap:
        na, nb, nd = key = heappop(heap)
        coeff = work.pop(key)
        if not coeff:
            continue
        for la, lb, ld, lc, tail in reducers:
            if na + la <= 0 and nb + lb <= 0 and nd + ld <= 0 and coeff % lc == 0:
                qc = coeff // lc
                for (da, db, dd), c in tail:
                    tgt = (na + da, nb + db, nd + dd)
                    old = get(tgt)
                    if old is None:
                        work[tgt] = -qc * c
                        heappush(heap, tgt)
                    else:
                        work[tgt] = old - qc * c
                break
        else:
            rest[(-na, -nb, -nd)] = coeff
    return Polynomial._from_clean(rest)


def s_poly(p: Polynomial, q: Polynomial) -> Polynomial:
    """S-polynomial over Z: leading terms cancelled after scaling by the
    integer lcm of the leading coefficients, so no rationals appear."""
    if p.is_zero or q.is_zero:
        raise ValueError("S-polynomial of a zero polynomial is undefined")
    (mp, cp) = p.leading()
    (mq, cq) = q.leading()
    lcm_m = mono_lcm(mp, mq)
    lcm_c = lcm(cp, cq)
    return p.mul_term(lcm_c // cp, mono_div(lcm_m, mp)) - q.mul_term(lcm_c // cq, mono_div(lcm_m, mq))


@dataclass
class BuchbergerRun:
    """Completion trace: the basis plus bookkeeping for honest reporting."""

    basis: list[Polynomial]
    #: (polynomial text, content divided out) for every element that was not
    #: primitive when adjoined; empty means the run never left Z[a,b,d]
    #: combinations of the inputs.
    content_events: list[tuple[str, int]] = field(default_factory=list)


MAX_BASIS = 500


def buchberger_run(gens: list[Polynomial]) -> BuchbergerRun:
    """Buchberger completion with the coprime-leading-monomial criterion.

    Nonzero S-polynomial remainders are adjoined as sign-normalized primitive
    parts; any content actually divided out is recorded so callers can tell a
    genuine Z-basis from one that is only a basis after clearing contents.
    """
    basis = [g for g in gens if not g.is_zero]
    if any(g.is_zero for g in gens):
        raise ValueError("Buchberger input contains the zero polynomial")
    run = BuchbergerRun(basis=basis)
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        lm_i, _ = basis[i].leading()
        lm_j, _ = basis[j].leading()
        if mono_lcm(lm_i, lm_j) == mono_mul(lm_i, lm_j):
            continue  # coprime leading monomials: S-poly reduces to 0
        rem = remainder(s_poly(basis[i], basis[j]), basis)
        if rem.is_zero:
            continue
        content = rem.content()
        prim = rem.primitive_part()
        if content > 1:
            run.content_events.append((format_poly(rem), content))
        basis.append(prim)
        if len(basis) > MAX_BASIS:
            raise TermLimitError(f"Buchberger basis exceeded {MAX_BASIS} elements")
        pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    return run


def buchberger(gens: list[Polynomial]) -> list[Polynomial]:
    """Groebner basis of the ideal generated by gens (empty input gives [])."""
    if not gens:
        return []
    return buchberger_run(gens).basis


def reduce_basis(basis: list[Polynomial]) -> list[Polynomial]:
    """Minimal, inter-reduced form of a Groebner basis.

    Elements whose leading monomial is divisible by another's are dropped,
    the survivors are fully reduced against each other, each is replaced by
    its primitive part (content divided out, leading coefficient positive),
    and the result is sorted by leading monomial.  The input must already be
    a Groebner basis.
    """
    work = [g for g in basis if not g.is_zero]
    # minimality: drop redundant leading monomials (keep the earliest)
    kept: list[Polynomial] = []
    leads = [g.leading()[0] for g in work]
    for i, g in enumerate(work):
        lm = leads[i]
        redundant = any(
            j != i and mono_divides(leads[j], lm) and (leads[j] != lm or j < i)
            for j in range(len(work))
        )
        if not redundant:
            kept.append(g)
    # inter-reduce tails until stable
    changed = True
    while changed:
        changed = False
        for i in range(len(kept)):
            others = kept[:i] + kept[i + 1:]
            if not others:
                continue
            rem = remainder(kept[i], others)
            if rem.is_zero:
                kept.pop(i)
                changed = True
                break
            if rem != kept[i]:
                kept[i] = rem
                changed = True
    return sorted((g.primitive_part() for g in kept), key=lambda g: g.leading()[0])
