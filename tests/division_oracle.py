"""Reference multivariate division that keeps its quotients.

The library's ``remainder`` returns the remainder only.  This loop is the
test-side oracle for it: each step rewrites ``max(work)``, the largest live
monomial, by the earliest basis element whose leading term (monomial and
coefficient) divides it, which is the selection rule ``remainder`` must
follow, and it records the quotients, so a test can check the division
identity p == sum(q_i * g_i) + r exactly.
"""

from qbracket.multipoly import Polynomial, mono_div, mono_divides, mono_mul


def divide_by_max_scan(p: Polynomial, basis: list[Polynomial]) -> tuple[list[Polynomial], Polynomial]:
    """(quotients, remainder) of p by basis, one quotient per basis element."""
    leads = [g.leading() for g in basis]
    quotient_terms = [{} for _ in basis]
    remainder_terms = {}
    work = dict(p.terms)
    while work:
        mono = max(work)
        coeff = work.pop(mono)
        for i, (lm, lc) in enumerate(leads):
            if mono_divides(lm, mono) and coeff % lc == 0:
                qm = mono_div(mono, lm)
                qc = coeff // lc
                quotient_terms[i][qm] = qc
                for m2, c2 in basis[i].terms.items():
                    if m2 != lm:
                        tgt = mono_mul(qm, m2)
                        s = work.get(tgt, 0) - qc * c2
                        if s:
                            work[tgt] = s
                        else:
                            work.pop(tgt, None)
                break
        else:
            remainder_terms[mono] = coeff
    return [Polynomial(q) for q in quotient_terms], Polynomial(remainder_terms)
