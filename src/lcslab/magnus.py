"""Magnus expansion into truncated noncommutative integer series, and Fox
derivatives in the integer group ring of F2.

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
recursive families).  The degree-1 terms are the exponent sums, so a word
with a nonzero exponent sum has depth 1 without an expansion.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .words import (
    LETTER_A,
    LETTER_AI,
    LETTER_B,
    LETTER_BI,
    LETTERS,
    Word,
    concat_bytes,
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


class NcSeries:
    """Degree-truncated series in two noncommuting indeterminates, held as
    one heap-ordered coefficient array (int64, or object for Python ints)."""

    __slots__ = ("D", "coeffs")

    def __init__(self, D: int, coeffs: np.ndarray):
        self.D = D
        self.coeffs = coeffs

    @staticmethod
    def one(D: int) -> "NcSeries":
        _check_degree(D)
        return NcSeries(D, _one(D))

    @property
    def rows(self) -> List[List[int]]:
        """The coefficients of each degree as Python ints, rows[d][m]."""
        return [self.coeffs[_row(d)].tolist() for d in range(self.D + 1)]

    def __eq__(self, other) -> bool:
        return (isinstance(other, NcSeries) and self.D == other.D
                and np.array_equal(self.coeffs, other.coeffs))

    def terms(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (degree, packed_monomial, coeff) for every nonzero term."""
        for i in np.flatnonzero(self.coeffs).tolist():
            d = (i + 1).bit_length() - 1
            yield d, i + 1 - (1 << d), int(self.coeffs[i])

    def coefficient(self, degree: int, packed: int) -> int:
        return int(self.coeffs[(1 << degree) - 1 + packed])

    def min_positive_degree(self) -> Optional[int]:
        nonzero = np.flatnonzero(self.coeffs[1:])
        if not len(nonzero):
            return None
        return int(nonzero[0] + 2).bit_length() - 1

    def __mul__(self, other: "NcSeries") -> "NcSeries":
        """Generic truncated product in exact Python ints; the expand fast
        path never calls this, it exists for the homomorphism property and
        as a cross-check.  The product of monomials m1 (degree d1) and m2
        (degree d2) is m1 * 2^d2 + m2, the flat index of outer(row1, row2)."""
        if self.D != other.D:
            raise ValueError("truncation degrees differ")
        D = self.D
        f, g = self.coeffs.astype(object), other.coeffs.astype(object)
        out = np.zeros_like(f)
        for d1 in range(D + 1):
            row1 = f[_row(d1)]
            if not row1.any():
                continue
            for d2 in range(D - d1 + 1):
                out[_row(d1 + d2)] += np.outer(row1, g[_row(d2)]).ravel()
        return NcSeries(D, out)

    def __repr__(self):
        parts = []
        for d, m, c in self.terms():
            name = monomial_name(d, m) or "1"
            parts.append(f"{c}*{name}")
            if len(parts) > 8:
                parts.append("...")
                break
        return f"NcSeries(D={self.D}: {' + '.join(parts) or '0'})"


def expand(w: Word, D: int) -> NcSeries:
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
    return NcSeries(D, f)


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


def lcs_depth(w: Word, D: int) -> Depth:
    """Lower-central-series depth of w, decided up to degree D."""
    _check_degree(D)
    if not w:
        return Depth.infinite()
    if exponent_sums(w) != (0, 0):  # the degree-1 terms
        return Depth.exact(1)
    series = expand(w, D)
    d = series.min_positive_degree()
    if d is None:
        return Depth.at_least(D + 1)
    return Depth.exact(d)


def depth_terms(w: Word, D: int) -> Tuple[Depth, List[Tuple[str, int]]]:
    """Depth plus the nonzero terms at the depth degree (for reporting)."""
    _check_degree(D)
    if not w:
        return Depth.infinite(), []
    series = expand(w, D)
    d = series.min_positive_degree()
    if d is None:
        return Depth.at_least(D + 1), []
    row = series.rows[d]
    terms = [(monomial_name(d, m), c) for m, c in enumerate(row) if c]
    return Depth.exact(d), terms


# ----------------------------------------------------------------------
# Fox calculus in the integer group ring of F2

GroupRing = Dict[Word, int]


def fox_derivative(w: Word, gen: str) -> GroupRing:
    """Free derivative with respect to 'a' or 'b'.

    d(uv)/dx = du/dx + u * dv/dx;  dx/dx = 1,  d(x^-1)/dx = -x^-1.
    The i-th letter contributes +prefix_i for x and -(prefix_i x^-1),
    which is the prefix including the letter, for x^-1.
    """
    if gen not in ("a", "b"):
        raise ValueError("gen must be 'a' or 'b'")
    pos = LETTER_A if gen == "a" else LETTER_B
    neg = LETTER_AI if gen == "a" else LETTER_BI
    out: Dict[bytes, int] = {}
    data = w.data
    for i, c in enumerate(data):
        if c == pos:
            key = data[:i]
            out[key] = out.get(key, 0) + 1
        elif c == neg:
            key = data[:i + 1]
            out[key] = out.get(key, 0) - 1
    return {Word.from_reduced(k): v for k, v in out.items() if v}


def ring_add(p: GroupRing, q: GroupRing) -> GroupRing:
    out = dict(p)
    for w, c in q.items():
        s = out.get(w, 0) + c
        if s:
            out[w] = s
        else:
            out.pop(w, None)
    return out


def ring_mul(p: GroupRing, q: GroupRing) -> GroupRing:
    out: Dict[Word, int] = {}
    for u, cu in p.items():
        for v, cv in q.items():
            w_bytes, _ = concat_bytes(u.data, v.data)
            w = Word.from_reduced(w_bytes)
            s = out.get(w, 0) + cu * cv
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def ring_augmentation(p: GroupRing) -> int:
    return sum(p.values())


def fundamental_identity_holds(w: Word) -> bool:
    """w - 1 = (dw/da)(a - 1) + (dw/db)(b - 1) in the group ring."""
    one = Word.identity()
    lhs: GroupRing = {}
    if w != one:
        lhs = {w: 1, one: -1}
    rhs = ring_add(
        ring_mul(fox_derivative(w, "a"), {Word.parse("a"): 1, one: -1}),
        ring_mul(fox_derivative(w, "b"), {Word.parse("b"): 1, one: -1}))
    return lhs == rhs
