"""The recursive word families a_n, b_n and their machine checks.

    a_0 = first seed,  b_0 = second seed  (defaults a, b)
    a_{n+1} = [b_n^-1, a_n]
    b_{n+1} = [a_n, b_n]

Both inverses are products of the same four level-n words,

    a_{n+1}^-1 = a_n b_n^-1 a_n^-1 b_n
    b_{n+1}^-1 = b_n a_n b_n^-1 a_n^-1

so `build` carries each level as (a, a^-1, b, b^-1) and gets all four
words of the next level as reduced products; only the seeds are reversed.
In a free group the reduced form is unique, so a carried inverse equals the
reversed word byte for byte.  Every piece of a product carries its inverse
(`words.with_inverses`), so a long junction is a memcmp against it.  Levels
up to n_max - 2 are joined into bytes.  The top two levels stay spans
(`words.SpanWord`): level n_max - 1 of the bytes of level n_max - 2, and
level n_max, most of the family's letters, of those spans, at most 16 spans
of level n_max - 2 per word.  Their lengths are the spans' totals, and
their letters are joined only when something reads them.
`PairSequence.check_derivation` recomputes each level through `commutator`
and `~`, a route independent of the carried inverses.

The no-cancellation check forms no product on a joined level: it reads
common prefixes and suffixes.  On a span-held level it forms five of the
eight products as spans, from the carried inverse spans, and counts what
they lost; the other three cancel as three of those five do.  The identity
checks build no product: every inner commutator is a span list, the
inverse of [u, v] is [v, u] on the same pieces, and both sides of an
identity are compared with `words.products_equal`.  Only stored
words are reversed, never a commutator, and the reversals are the inverses
their junctions compare against.

Lengths grow like MU^n with MU = (3+sqrt(17))/2, so n around 14 is the
practical ceiling under the default letter budget.  Every check returns a
report object with the raw numbers; nothing is asserted here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from .words import (Pieces, SpanWord, Word, cancellation_bytes,
                    common_prefix_bytes, common_suffix_bytes, commutator,
                    inverse_bytes, product_bytes, product_spans, products_equal,
                    spans_length, with_inverses)

MU = (3.0 + math.sqrt(17.0)) / 2.0

DEFAULT_LETTER_BUDGET = 10 ** 8


class BudgetExceeded(ValueError):
    """A requested computation is larger than its budget; refused before
    any of it runs."""


class PairSequence:
    """Words a_0..a_n, b_0..b_n for one choice of seeds."""

    def __init__(self, a_words: List[Word], b_words: List[Word], seeds: Tuple[Word, Word]):
        self.a_words = a_words
        self.b_words = b_words
        self.seeds = seeds

    @property
    def n_max(self) -> int:
        return len(self.b_words) - 1

    def a(self, n: int) -> Word:
        return self.a_words[n]

    def b(self, n: int) -> Word:
        return self.b_words[n]

    def derivation(self, n: int) -> object:
        """Symbolic derivation of level n: how each word is a commutator
        of level n-1 words.  This is the membership certificate for the
        n-th derived subgroup (each level is a commutator of two words of
        the previous level)."""
        if n == 0:
            return {"n": 0, "a": str(self.seeds[0]), "b": str(self.seeds[1])}
        return {
            "n": n,
            "a": ["comm", ["inv", f"b{n - 1}"], f"a{n - 1}"],
            "b": ["comm", f"a{n - 1}", f"b{n - 1}"],
        }

    def check_derivation(self) -> bool:
        """Recompute every node from its children."""
        for n in range(1, self.n_max + 1):
            if self.a_words[n] != commutator(~self.b_words[n - 1], self.a_words[n - 1]):
                return False
            if self.b_words[n] != commutator(self.a_words[n - 1], self.b_words[n - 1]):
                return False
        return True


def _commutator_pair(u: Pieces, ui: Pieces, v: Pieces, vi: Pieces
                     ) -> Tuple[list, list]:
    """[u, v] = u v u^-1 v^-1 and its inverse [v, u] = v u v^-1 u^-1, as
    spans of u, v and their inverses, each carrying its inverse; no word is
    reversed or copied."""
    u, ui = with_inverses(u, ui)
    v, vi = with_inverses(v, vi)
    return product_spans(u, v, ui, vi), product_spans(v, u, vi, ui)


def _next_level(ad: Pieces, ai: Pieces, bd: Pieces, bi: Pieces
                ) -> Tuple[list, list, list, list]:
    """(a, a^-1, b, b^-1) of level n+1 as spans of those of level n:
    a' = [b^-1, a] and b' = [a, b], with inverses [a, b^-1] and [b, a]."""
    return _commutator_pair(bi, bd, ad, ai) + _commutator_pair(ad, ai, bd, bi)


def build(n_max: int,
          seeds: Optional[Tuple[Word, Word]] = None,
          budget_letters: int = DEFAULT_LETTER_BUDGET) -> PairSequence:
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if seeds is None:
        seeds = (Word.parse("a"), Word.parse("b"))
    wa, wb = seeds
    if not wa or not wb:
        raise ValueError("seeds must be nontrivial")
    a_words = [wa]
    b_words = [wb]
    # each level is carried as (a, a^-1, b, b^-1): the next level's four
    # words are reduced products of these, so only the seeds are reversed
    ad, bd = wa.data, wb.data
    ai, bi = inverse_bytes(ad), inverse_bytes(bd)
    for n in range(n_max):
        # the next level is at most 2(len a + len b) letters per word;
        # refuse before allocating anything that size
        if 2 * (len(a_words[n]) + len(b_words[n])) > budget_letters:
            raise BudgetExceeded(
                f"n_max={n_max} would exceed the letter budget {budget_letters} "
                f"at level {n + 1} (lengths grow like {MU:.3f}^n)")
        ad, ai, bd, bi = _next_level(ad, ai, bd, bi)
        if n + 3 <= n_max:
            ad, ai, bd, bi = map(product_bytes, (ad, ai, bd, bi))
            a_words.append(Word.from_reduced(ad))
            b_words.append(Word.from_reduced(bd))
        else:
            # the top two levels stay spans, joined only if read
            a_words.append(SpanWord(ad, ai))
            b_words.append(SpanWord(bd, bi))
    return PairSequence(a_words, b_words, seeds)


# ----------------------------------------------------------------------
# checks

PRODUCT_LABELS = ("a.a", "b.b", "a^-1.b", "b^-1.a", "a.b^-1", "b.a^-1", "a^-1.b^-1", "b.a")


@dataclass
class NoCancellationReport:
    n: int
    cancelled: dict  # product label -> cancelled pairs

    @property
    def ok(self) -> bool:
        return all(v == 0 for v in self.cancelled.values())


def check_no_cancellation(seq: PairSequence, n: int) -> NoCancellationReport:
    """Cancellation counts of the eight products of the no-cancellation lemma.

    Three pairs of products cancel alike: a^-1 b and b^-1 a lose the common
    prefix of a and b, a b^-1 and b a^-1 their common suffix, and
    a^-1 b^-1 as much as b a.  On a joined level no product is formed: the
    prefix and suffix are read off the words.  A span-held level forms
    a a, b b, a^-1 b, a b^-1 and b a as spans, from the carried inverse
    spans, and each x y lost (|x| + |y| - |xy|) / 2 pairs; no letter is
    joined.
    """
    a, b = seq.a(n), seq.b(n)
    if isinstance(a, SpanWord) and isinstance(b, SpanWord):
        ad, ai, bd, bi = a.spans, a.inverse_spans, b.spans, b.inverse_spans
        aa, bb, prefix, suffix, ba = (
            (spans_length(x) + spans_length(y) - spans_length(product_spans(x, y))) // 2
            for x, y in ((ad, ad), (bd, bd), (ai, bd), (ad, bi), (bd, ad)))
    else:
        ad, bd = a.data, b.data
        aa, bb = cancellation_bytes(ad, ad), cancellation_bytes(bd, bd)
        prefix = common_prefix_bytes(ad, bd)
        suffix = common_suffix_bytes(ad, bd)
        ba = cancellation_bytes(bd, ad)
    counts = (aa, bb, prefix, prefix, suffix, suffix, ba, ba)
    return NoCancellationReport(n=n, cancelled=dict(zip(PRODUCT_LABELS, counts)))


@dataclass
class LengthRow:
    n: int
    len_a: int
    len_b: int
    lengths_equal: bool
    at_least_2n: bool
    recurrence_ok: Optional[bool]        # len_b <= 3*prev + 2*prevprev, n >= 2
    recurrence_equality: Optional[bool]  # recorded, not asserted


@dataclass
class LengthTable:
    rows: List[LengthRow] = field(default_factory=list)
    c_prime: float = 0.0  # measured max of len_b / MU^n

    @property
    def ok(self) -> bool:
        return all(r.lengths_equal and r.at_least_2n
                   and (r.recurrence_ok is not False) for r in self.rows)


def check_lengths(seq: PairSequence) -> LengthTable:
    table = LengthTable()
    lb = [len(w) for w in seq.b_words]
    for n in range(seq.n_max + 1):
        la = len(seq.a(n))
        rec_ok = rec_eq = None
        if n >= 2:
            bound = 3 * lb[n - 1] + 2 * lb[n - 2]
            rec_ok = lb[n] <= bound
            rec_eq = lb[n] == bound
        table.rows.append(LengthRow(
            n=n, len_a=la, len_b=lb[n],
            lengths_equal=la == lb[n],
            at_least_2n=lb[n] >= 2 ** n,
            recurrence_ok=rec_ok,
            recurrence_equality=rec_eq))
        table.c_prime = max(table.c_prime, lb[n] / MU ** n)
    return table


def _eqrel_pair(x: bytes, xi: bytes, y: bytes, yi: bytes) -> Tuple[bool, bool]:
    """The two rewriting identities, instantiated at (x, y):

        [[x^-1,y],[x,y]] = [[[x^-1,y],x],[x,y]]
        [[x^-1,y],[y,x]] = [[[x^-1,y],x],[y,x]]

    Every inner commutator comes with its inverse, and [y, x] is the
    inverse of [x, y], so x^-1 and y^-1 are the only inverses passed in.
    """
    c, ci = _commutator_pair(xi, x, y, yi)
    cx, cxi = _commutator_pair(c, ci, x, xi)
    xy, yx = _commutator_pair(x, xi, y, yi)
    left = products_equal(product_spans(c, xy, ci, yx), product_spans(cx, xy, cxi, yx))
    right = products_equal(product_spans(c, yx, ci, xy), product_spans(cx, yx, cxi, xy))
    return left, right


@dataclass
class IdentityReport:
    n: int
    eqrel_base: Tuple[bool, bool]
    eqrel_level: Tuple[bool, bool]
    bracket_identity: bool
    conjugation_identity: bool

    @property
    def ok(self) -> bool:
        return (all(self.eqrel_base) and all(self.eqrel_level)
                and self.bracket_identity and self.conjugation_identity)


def _reversed_pair(w: Word) -> Tuple[Pieces, Pieces]:
    """A stored word and its inverse made by reversal, carrying each other."""
    return with_inverses(w.data, inverse_bytes(w.data))


def check_identities(seq: PairSequence, n: int) -> IdentityReport:
    """Reduced-word identities behind the depth recurrence, at level n >= 2:

        b_n = [[a_{n-1}, b_{n-2}], b_{n-1}]
        b_{n-2} a_{n-1} b_{n-2}^-1 = b_{n-1}

    plus both rewriting identities at (a, b) and at (a_{n-2}, b_{n-2}).
    A stored word's inverse is its reversal, never the recurrence's
    product, so a sequence that breaks the recurrence fails a check; each
    word's junctions compare against that reversal.
    """
    if n < 2:
        raise ValueError("check_identities needs n >= 2")
    am1, am1i = _reversed_pair(seq.a(n - 1))
    bm1, bm1i = _reversed_pair(seq.b(n - 1))
    am2, am2i = _reversed_pair(seq.a(n - 2))
    bm2, bm2i = _reversed_pair(seq.b(n - 2))
    k, ki = _commutator_pair(am1, am1i, bm2, bm2i)
    return IdentityReport(
        n=n,
        eqrel_base=_eqrel_pair(b"a", b"A", b"b", b"B"),
        eqrel_level=_eqrel_pair(am2, am2i, bm2, bm2i),
        bracket_identity=products_equal(
            product_spans(seq.b(n).data), product_spans(k, bm1, ki, bm1i)),
        conjugation_identity=products_equal(
            product_spans(bm2, am1, bm2i), product_spans(bm1)),
    )
