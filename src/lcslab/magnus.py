"""Magnus expansion into truncated noncommutative integer series.

A series truncated at degree D is one flat coefficient array of 2^(D+1)-1
slots in heap order: the degree-d monomial X_{g1}...X_{gd} is the integer m
whose bits, most significant first, are 0 for X_a and 1 for X_b, and it
sits at slot 2^d - 1 + m.  Appending a letter with bit beta sends slot i to
slot 2i+1+beta, so right-multiplying by (1 + X_g) is the single statement
f[1+beta::2] += f[:2^D-1]; numpy evaluates an in-place ufunc whose input
overlaps its output as if the input were copied first, so every slot adds
its old value.  Dividing by (1 + X_g) (the inverse letter) solves
T + T*X_g = S one degree at a time, ascending, so row d-1 is already T when
row d subtracts it: D row slices.

An expansion is that array itself: expand returns it, its degree D is read
off its length and `_row` slices one degree; `series_product`, the generic
truncated product in exact ints, serves the homomorphism check.

Coefficients grow combinatorially and must never wrap.  expand runs on
int64 under a bound M >= max |coefficient|: a positive letter at most
doubles M and an inverse letter multiplies it by at most D+1, since
|T_d| <= |S_d| + |T_(d-1)|.  Before a letter that could push M past 2^62,
M is measured again as the true max; if that letter could still push it
past, the array turns into Python ints (object dtype) and the expansion
finishes exactly.

Depth: w lies in the n-th lower central subgroup iff its expansion has no
nonzero term of positive degree < n (Magnus; treated as imported
mathematics and cross-checked against the structural certificates of the
recursive families).

The degree ladder.  `lcs_depth` and `depth_terms` share one route,
`_ladder`, which returns the depth and the coefficients of that degree.
Degrees 1 to 3 are settled in closed form, with no expansion:

  * degree 1: the terms are the exponent sums, so a word with a nonzero
    exponent sum has depth 1;
  * degree 2: with zero exponent sums the degree-2 part is c (X_a X_b -
    X_b X_a), c = sum over i < j of alpha_i beta_j the signed area, where
    alpha_i = +-1 if letter i is a^+-1 (0 otherwise) and beta_i likewise
    for b;
  * degree 3, when c = 0: the degree-3 part is a Lie element, -p
    [[X_a, X_b], X_a] + q [[X_a, X_b], X_b], so in heap order aab, aba,
    abb, baa, bab, bba its row is (p, -2p, q, p, -2q, q), where p and q are
    the coefficients of X_a X_a X_b and X_b X_b X_a (Magnus, Karrass and
    Solitar 1966).

c, p and q come from one pass of running sums over the word
(`_running_sums`).  Above degree 3 the ladder expands at truncations 4, 8,
16, ..., capped at D, and stops at the first with a nonzero term of
positive degree: a truncation at t holds the exact coefficients of every
degree <= t, so a nonzero term found there settles the depth whatever D
is.  A word reaches D only if its depth exceeds the last power of two
below D, and its lower rungs then cost at most about as much again as the
expansion at D.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

import numpy as np

from .words import (
    LETTER_A,
    LETTER_AI,
    LETTER_B,
    LETTER_BI,
    LETTERS,
    Word,
    exponent_sums,
)

MAX_TRUNCATION = 22  # 2^23 coefficient slots, the desk-scale memory ceiling
_INT64_LIMIT = 1 << 62  # int64 holds any sum of two values below this

_BIT = {LETTER_A: 0, LETTER_AI: 0, LETTER_B: 1, LETTER_BI: 1}
_POSITIVE = {LETTER_A: True, LETTER_B: True, LETTER_AI: False, LETTER_BI: False}


def _check_degree(D: int) -> None:
    if D < 1:
        raise ValueError("truncation degree must be >= 1")
    if D > MAX_TRUNCATION:
        raise ValueError(
            f"truncation degree {D} exceeds the memory budget "
            f"(term count bound 2^(D+1), cap D={MAX_TRUNCATION})")


def _row(d: int) -> slice:
    """The heap slots of the degree-d monomials."""
    return slice((1 << d) - 1, (1 << (d + 1)) - 1)


@lru_cache(maxsize=None)  # one entry per truncation degree
def _letter_updates(D: int) -> Dict[int, Tuple[bool, tuple]]:
    """letter -> (positive, the (target, source) slot slices of its update).

    A positive letter is the one pair target += source, every source slot
    read before any target slot is written; an inverse letter is one pair
    per degree, ascending, each target -= source."""
    out = {}
    for c in LETTERS:
        beta = _BIT[c]
        if _POSITIVE[c]:
            out[c] = True, ((slice(1 + beta, None, 2),
                             slice(0, (1 << D) - 1)),)
        else:
            out[c] = False, tuple(
                (slice((1 << d) - 1 + beta, (1 << (d + 1)) - 1, 2),
                 _row(d - 1)) for d in range(1, D + 1))
    return out


def _one(D: int) -> np.ndarray:
    f = np.zeros((2 << D) - 1, dtype=np.int64)
    f[0] = 1
    return f


def monomial_name(degree: int, packed: int) -> str:
    """Spelling of a packed monomial, e.g. 'ab' for X_a X_b; '' has degree 0."""
    return "".join("b" if (packed >> (degree - 1 - i)) & 1 else "a"
                   for i in range(degree))


def min_positive_degree(f: np.ndarray) -> Optional[int]:
    """The lowest positive degree with a nonzero coefficient, else None."""
    nonzero = np.flatnonzero(f[1:])
    return int(nonzero[0] + 2).bit_length() - 1 if len(nonzero) else None


def series_product(f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The truncated product in exact Python ints, which expand never calls:
    monomials m1 of degree d1 and m2 of degree d2 multiply to
    m1 * 2^d2 + m2, the flat index of outer(row1, row2)."""
    if len(f) != len(g):
        raise ValueError("truncation degrees differ")
    D = len(f).bit_length() - 1
    f, g = f.astype(object), g.astype(object)
    out = np.zeros_like(f)
    for d1 in range(D + 1):
        row1 = f[_row(d1)]
        if not row1.any():
            continue
        for d2 in range(D - d1 + 1):
            out[_row(d1 + d2)] += np.outer(row1, g[_row(d2)]).ravel()
    return out


def expand(w: Word, D: int) -> np.ndarray:
    """Magnus expansion of a word: one slice update per letter (D for an
    inverse letter), on int64 while the overflow guard allows it."""
    _check_degree(D)
    f = _one(D)
    updates = _letter_updates(D)
    exact = False  # True once f holds Python ints
    bound = 1  # >= max |f| while f is int64
    for c in w.data:
        positive, pairs = updates[c]
        if not exact:
            grow = 2 if positive else D + 1
            bound *= grow
            if bound > _INT64_LIMIT:  # measure the true max before this letter
                bound = int(np.abs(f).max()) * grow
                exact = bound > _INT64_LIMIT
                if exact:
                    f = f.astype(object)
        for target, source in pairs:
            if positive:
                f[target] += f[source]
            else:
                f[target] -= f[source]
    return f


# ----------------------------------------------------------------------
# depth

@dataclass(frozen=True)
class Depth:
    kind: str  # "exact" | "at_least" | "infinite"
    value: Optional[int] = None

    @staticmethod
    def exact(d: int) -> "Depth":
        return Depth("exact", d)

    @staticmethod
    def at_least(bound: int) -> "Depth":
        return Depth("at_least", bound)

    @staticmethod
    def infinite() -> "Depth":
        return Depth("infinite")

    @property
    def is_exact(self) -> bool:
        return self.kind == "exact"

    def lower_bound(self) -> float:
        """The depth is certified to be >= this (inf for the identity)."""
        return float("inf") if self.kind == "infinite" else float(self.value)

    def __str__(self):
        if self.kind == "exact":
            return f"={self.value}"
        if self.kind == "at_least":
            return f">={self.value}"
        return "inf"


def _running_sums(data: bytes) -> Tuple[int, int, int]:
    """(c, p, q): the coefficients of X_a X_b, X_a X_a X_b and X_b X_b X_a
    in the expansion of a word, by one pass of running sums.

    sa, sb, aa and bb hold the prefix's coefficients of X_a, X_b, X_a^2 and
    X_b^2.  Appending g^+-1 adds to each coefficient ending in X_g the
    prefix's coefficient one degree down, times +-1; g^-1 adds as well the
    prefix's constant term times its X_g^2 term, +1."""
    c = p = q = sa = sb = aa = bb = 0
    for x in data:
        if x == LETTER_A:
            q += bb
            aa += sa
            sa += 1
        elif x == LETTER_AI:
            q -= bb
            aa += 1 - sa
            sa -= 1
        elif x == LETTER_B:
            p += aa
            c += sa
            bb += sb
            sb += 1
        else:
            p -= aa
            c -= sa
            bb += 1 - sb
            sb -= 1
    return c, p, q


def _ladder(w: Word, D: int) -> Tuple[Depth, List[int]]:
    """The depth of w decided up to degree D, and, when it is exact, the
    coefficients of that degree in heap order (else []): degrees 1, 2 and 3
    in closed form, then truncations 4, 8, ... capped at D, up to the first
    with a nonzero term."""
    _check_degree(D)
    if not w:
        return Depth.infinite(), []
    sums = exponent_sums(w)
    if sums != (0, 0):
        return Depth.exact(1), list(sums)
    c, p, q = _running_sums(w.data)
    if c and D >= 2:
        return Depth.exact(2), [0, c, -c, 0]
    if (p or q) and D >= 3:  # c = 0 here, so the row is the Lie one
        return Depth.exact(3), [0, p, -2 * p, q, p, -2 * q, q, 0]
    t = 4
    while t <= D:
        f = expand(w, t)
        d = min_positive_degree(f)
        if d is not None:
            return Depth.exact(d), f[_row(d)].tolist()
        t = D if t < D < 2 * t else 2 * t
    return Depth.at_least(D + 1), []


def lcs_depth(w: Word, D: int) -> Depth:
    """Lower-central-series depth of w, decided up to degree D."""
    return _ladder(w, D)[0]


def depth_terms(w: Word, D: int) -> Tuple[Depth, List[Tuple[str, int]]]:
    """Depth plus the nonzero terms at the depth degree (for reporting)."""
    depth, row = _ladder(w, D)
    return depth, [(monomial_name(depth.value, m), k)
                   for m, k in enumerate(row) if k]
