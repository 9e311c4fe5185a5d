"""The 3x lower bound on the girth of a derived kernel subgroup, and the
shortest-member bracket for the second derived subgroup.  Both rest on
search.girth, which this module re-exports with GirthResult.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .construction import build
from .search import (
    GirthResult,
    NotFoundBelow,
    NotFoundBelowError,
    girth,
    search_min,  # noqa: F401  perfbench's self-test reads girth.search_min
    verify_minimum,  # noqa: F401  and girth.verify_minimum
)
from .words import Word


@dataclass(frozen=True)
class ThreeXReport:
    """girth of the derived subgroup against three times the kernel's."""
    kernel_girth: GirthResult
    derived_girth: Union[GirthResult, NotFoundBelow]
    derived_lower: int           # certified: girth([kernel, kernel]) >= this
    factor_ok: Optional[bool]    # None = inconclusive


def verify_three_x(kernel_id: str, max_len: int) -> ThreeXReport:
    """Check girth([kernel, kernel]) >= 3 * girth(kernel) for a kernel
    oracle id, 'z2' or 'perm:<spec>'.

    Raises NotFoundBelowError when the kernel girth lies beyond max_len."""
    derived_id = "derived2" if kernel_id == "z2" else f"derived-{kernel_id}"
    g1 = girth(kernel_id, max_len)
    if isinstance(g1, NotFoundBelow):
        raise NotFoundBelowError(g1.bound)
    g2 = girth(derived_id, max_len)
    if isinstance(g2, NotFoundBelow):
        lower = g2.bound + 1
        ok = True if lower >= 3 * g1.value else None
    else:
        lower = g2.value
        ok = lower >= 3 * g1.value
    return ThreeXReport(kernel_girth=g1, derived_girth=g2,
                        derived_lower=lower, factor_ok=ok)


@dataclass(frozen=True)
class BetaBracket:
    n: int
    lower: int                 # 3^n
    upper: int                 # witness from the recursive family
    exact: Optional[int]       # settled by search for n <= 2, open beyond
    witness: Optional[Word]


def beta_bracket(n: int = 2) -> BetaBracket:
    """Bracket for the shortest nontrivial word in the n-th derived subgroup.

    The lower bound is 3^n; the upper bound is the recursive family's
    witness b_n, a member.  Exact membership testing is available only
    through the abelianization (n <= 2), where the search runs to len(b_n)
    and so always settles the value; higher n report the bracket alone.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    seq = build(max(n, 1))
    upper = len(seq.b(n))
    lower = 3 ** n
    if n == 0:
        return BetaBracket(n=0, lower=1, upper=1, exact=1,
                           witness=Word.parse("A"))
    oracle_id = "z2" if n == 1 else ("derived2" if n == 2 else None)
    if oracle_id is None:
        return BetaBracket(n=n, lower=lower, upper=upper, exact=None,
                           witness=None)
    result = girth(oracle_id, max_len=upper)
    if isinstance(result, NotFoundBelow):  # cannot happen: upper is a member
        raise AssertionError("search missed the structural witness")
    if not (lower <= result.value <= upper):
        raise AssertionError(
            f"measured girth {result.value} escapes [{lower}, {upper}]")
    return BetaBracket(n=n, lower=lower, upper=upper, exact=result.value,
                       witness=result.witness)
