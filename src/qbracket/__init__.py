"""Bracket invariants of knot diagrams, classical and quotient-ring valued.

The package computes the classical one-variable bracket, a three-variable
state sum reduced modulo the ideal that makes second Reidemeister moves
invisible, the writhe-normalized invariants built from both, verification
routines for every algebraic ingredient, and a search harness over knot
tables.
"""

from .bracket3 import (
    CONVENTION,
    CURL_MINUS,
    CURL_PLUS,
    CapacityError,
    ambient3,
    ambient3_with_circle_factors,
    bracket3_raw,
    raw_bracket,
    tl_evaluate,
)
from .classical import (
    CIRCLE,
    LaurentPolynomial,
    f_invariant,
    format_laurent,
    kauffman_bracket,
    parse_laurent,
)
from .diagram import (
    BraidWord,
    Diagram,
    DiagramError,
    add_kink,
    closure,
    components,
    conjugate,
    parse_braid,
    parse_pd,
    pd_text,
    rewrite_moves,
    writhe,
)
from .multipoly import (
    Polynomial,
    TermLimitError,
    buchberger,
    format_poly,
    parse_poly,
    reduce_basis,
    remainder,
    s_poly,
)
from .quotient import (
    BRANCHES,
    GROEBNER_BASIS,
    IDEAL_GENERATORS,
    distinct_branches,
    normal_form,
    specialize_classical,
    verify_all_branches,
    verify_branch,
    verify_groebner,
)
from .search import (
    InvariantRecord,
    RecordCache,
    TableEntry,
    bucket_by_classical,
    bundled_table_path,
    compute_record,
    compute_records,
    conjecture_scan,
    load_table,
)

__version__ = "0.1.0"
