"""lcs-lab: quantitative residual properties of the free group F2.

Exact word arithmetic, the recursive deep-commutator families, Magnus
expansions for lower-central-series depth, certified girth searches for
normal subgroups and their derived subgroups, Nielsen reduction, and
word-map contraction measurements on SU(2).
"""

from .words import (
    Word,
    commutator,
    concat,
    conjugate,
    cyclic_reduce,
    exponent_sums,
)

__all__ = [
    "Word",
    "commutator",
    "concat",
    "conjugate",
    "cyclic_reduce",
    "exponent_sums",
]

__version__ = "0.1.0"
