"""Bracket invariants of knot diagrams, classical and quotient-ring valued.

The package computes the classical one-variable bracket, a three-variable
state sum reduced modulo the ideal that makes second Reidemeister moves
invisible, the writhe-normalized invariants built from both, verification
routines for every algebraic ingredient, and a search harness over knot
tables.  Each name is imported from the module that defines it, for example
``from qbracket.bracket3 import ambient3``.
"""

__version__ = "0.1.0"
