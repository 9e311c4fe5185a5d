"""Girth of kernel subgroups and their derived subgroups, the 3x lower
bound verification, and the shortest-member bracket for the second
derived subgroup.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Union

from .construction import build
from .quotients import QuotientGroup
from .search import (
    NotFoundBelow,
    NotFoundBelowError,
    SearchSpec,
    SearchStats,
    build_oracle,
    engine_flags,
    search_min,
    verify_minimum,
)
from .words import Word


@dataclass(frozen=True)
class GirthResult:
    value: int
    witness: Word
    stats: Optional[SearchStats] = field(default=None, compare=False,
                                         repr=False)

    def __post_init__(self):
        if len(self.witness) != self.value:
            raise ValueError("witness length disagrees with girth value")


def girth(oracle_id: str, max_len: int, reverify: bool = True
          ) -> Union[GirthResult, NotFoundBelow]:
    """Length of the shortest nontrivial member, by exhaustive search.

    Either outcome carries the engine counters as `stats`.  A hit is
    re-verified by verify_minimum, an unpruned meet in the middle over
    every shorter reduced word, unless reverify is off; a disagreement
    raises AssertionError.  NotFoundBelow is an explicit outcome, never an
    absence claim beyond the bound.
    """
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    spec = SearchSpec(oracle_id=oracle_id, max_len=max_len,
                      flags=engine_flags(build_oracle(oracle_id)))
    outcome, stats = search_min(spec)
    if isinstance(outcome, NotFoundBelow):
        return dataclasses.replace(outcome, stats=stats)
    length, witness = outcome
    if reverify and not verify_minimum(oracle_id, length, witness):
        raise AssertionError(
            f"pruned search and independent scan disagree for {oracle_id} "
            f"at length {length}")
    return GirthResult(value=length, witness=witness, stats=stats)


@dataclass(frozen=True)
class ThreeXReport:
    """girth of the derived subgroup against three times the kernel's."""
    kernel_girth: GirthResult
    derived_girth: Union[GirthResult, NotFoundBelow]
    derived_lower: int           # certified: girth([kernel, kernel]) >= this
    factor_ok: Optional[bool]    # None = inconclusive


def verify_three_x(q: QuotientGroup, max_len: int) -> ThreeXReport:
    """Check girth([kernel, kernel]) >= 3 * girth(kernel) for the quotient.

    Raises NotFoundBelowError when the kernel girth lies beyond max_len."""
    spec_string = q.spec_string()
    kernel_id = "z2" if spec_string == "z2" else spec_string
    derived_id = "derived2" if spec_string == "z2" else f"derived-{spec_string}"
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


def beta_bracket(n: int = 2, max_len: int = 14) -> BetaBracket:
    """Bracket for the shortest nontrivial word in the n-th derived subgroup.

    The lower bound is 3^n; the upper bound is the recursive family's
    witness.  Exact membership testing is available only through the
    abelianization (n <= 2), so higher n report the bracket alone.
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
    result = girth(oracle_id, max_len=max(max_len, upper))
    if isinstance(result, NotFoundBelow):  # cannot happen: upper is a member
        raise AssertionError("search missed the structural witness")
    if not (lower <= result.value <= upper):
        raise AssertionError(
            f"measured girth {result.value} escapes [{lower}, {upper}]")
    return BetaBracket(n=n, lower=lower, upper=upper, exact=result.value,
                       witness=result.witness)
