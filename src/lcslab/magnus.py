"""Magnus expansion into truncated noncommutative integer series, and Fox
derivatives in the integer group ring of F2.

A series truncated at degree D is stored as one dense coefficient list per
degree: the degree-d monomial X_{g1}...X_{gd} is the integer whose bits,
most significant first, are 0 for X_a and 1 for X_b, so rows[d] has 2^d
slots.  Appending a letter maps slot m to (m << 1) | bit, which is why
multiplying by a single letter series is a strided slice update rather
than a generic product: right-multiplying by (1 + X_g) adds rows[d-1]
into rows[d][bit::2], and dividing by (1 + X_g) (the inverse letter) is
the same update run in the other direction with subtraction.  Coefficients
are Python ints; they grow combinatorially and must never wrap.

Depth: w lies in the n-th lower central subgroup iff its expansion has no
nonzero term of positive degree < n (Magnus; treated as imported
mathematics and cross-checked against the structural certificates of the
recursive families).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from .words import (
    LETTER_A,
    LETTER_AI,
    LETTER_B,
    LETTER_BI,
    Word,
    concat_bytes,
)

MAX_TRUNCATION = 22  # 2^23 coefficient slots, the desk-scale memory ceiling

_BIT = {LETTER_A: 0, LETTER_AI: 0, LETTER_B: 1, LETTER_BI: 1}
_POSITIVE = {LETTER_A: True, LETTER_B: True, LETTER_AI: False, LETTER_BI: False}


def _check_degree(D: int) -> None:
    if D < 1:
        raise ValueError("truncation degree must be >= 1")
    if D > MAX_TRUNCATION:
        raise ValueError(
            f"truncation degree {D} exceeds the memory budget "
            f"(term count bound 2^(D+1), cap D={MAX_TRUNCATION})")


def _one_rows(D: int) -> List[List[int]]:
    rows = [[0] * (1 << d) for d in range(D + 1)]
    rows[0][0] = 1
    return rows


def _mul_letter_inplace(rows: List[List[int]], letter: int, D: int) -> None:
    """rows *= letter_series(letter), in place."""
    beta = _BIT[letter]
    if _POSITIVE[letter]:
        # R = S + S*X_g, descending so rows[d-1] is still the old S
        for d in range(D, 0, -1):
            row, prev = rows[d], rows[d - 1]
            row[beta::2] = [x + y for x, y in zip(row[beta::2], prev)]
    else:
        # T solves T + T*X_g = S, ascending so rows[d-1] is already T
        for d in range(1, D + 1):
            row, prev = rows[d], rows[d - 1]
            row[beta::2] = [x - y for x, y in zip(row[beta::2], prev)]


def monomial_name(degree: int, packed: int) -> str:
    """Spelling of a packed monomial, e.g. 'ab' for X_a X_b; '' has degree 0."""
    return "".join("b" if (packed >> (degree - 1 - i)) & 1 else "a"
                   for i in range(degree))


class NcSeries:
    """Degree-truncated series in two noncommuting indeterminates."""

    __slots__ = ("D", "rows")

    def __init__(self, D: int, rows: List[List[int]]):
        self.D = D
        self.rows = rows

    @staticmethod
    def one(D: int) -> "NcSeries":
        _check_degree(D)
        return NcSeries(D, _one_rows(D))

    def __eq__(self, other) -> bool:
        return (isinstance(other, NcSeries) and self.D == other.D
                and self.rows == other.rows)

    def __hash__(self):
        raise TypeError("NcSeries is not hashable")

    def terms(self) -> Iterator[Tuple[int, int, int]]:
        """Yield (degree, packed_monomial, coeff) for every nonzero term."""
        for d, row in enumerate(self.rows):
            for m, c in enumerate(row):
                if c:
                    yield d, m, c

    def coefficient(self, degree: int, packed: int) -> int:
        return self.rows[degree][packed]

    def min_positive_degree(self) -> Optional[int]:
        for d in range(1, self.D + 1):
            if any(self.rows[d]):
                return d
        return None

    def __mul__(self, other: "NcSeries") -> "NcSeries":
        """Generic truncated product; the expand fast path never calls this,
        it exists for the homomorphism property and as a cross-check."""
        if self.D != other.D:
            raise ValueError("truncation degrees differ")
        D = self.D
        out = [[0] * (1 << d) for d in range(D + 1)]
        for d1, row1 in enumerate(self.rows):
            for m1, c1 in enumerate(row1):
                if not c1:
                    continue
                for d2 in range(D - d1 + 1):
                    row2 = other.rows[d2]
                    if not any(row2):
                        continue
                    dest = out[d1 + d2]
                    off = m1 << d2
                    dest[off:off + len(row2)] = [
                        x + c1 * y for x, y in zip(dest[off:off + len(row2)], row2)]
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


def letter_series(letter: int, D: int) -> NcSeries:
    """Magnus image of one letter: g -> 1 + X_g, g^-1 -> sum (-1)^i X_g^i."""
    _check_degree(D)
    rows = _one_rows(D)
    beta = _BIT[letter]
    if _POSITIVE[letter]:
        rows[1][beta] = 1
    else:
        for d in range(1, D + 1):
            # X_g^d is the all-beta monomial
            packed = 0 if beta == 0 else (1 << d) - 1
            rows[d][packed] = -1 if d % 2 else 1
    return NcSeries(D, rows)


def expand(w: Word, D: int) -> NcSeries:
    """Magnus expansion of a word, one letter series at a time."""
    _check_degree(D)
    rows = _one_rows(D)
    for c in w.data:
        _mul_letter_inplace(rows, c, D)
    return NcSeries(D, rows)


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
    if not w:
        return Depth.infinite()
    series = expand(w, D)
    d = series.min_positive_degree()
    if d is None:
        return Depth.at_least(D + 1)
    return Depth.exact(d)


def depth_terms(w: Word, D: int) -> Tuple[Depth, List[Tuple[str, int]]]:
    """Depth plus the nonzero terms at the depth degree (for reporting)."""
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
