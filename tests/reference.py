"""Brute-force references the tests compare the library against.

enumerate_words lists reduced words one by one, with no level store and no
meet in the middle; letter_series gives the Magnus image of one letter, so
a word's expansion can be rebuilt as a product of letter series.
"""

from typing import Iterator

from lcslab.magnus import _BIT, _POSITIVE, NcSeries, _check_degree, _one
from lcslab.search import _ALLOWED, _BYTE_ORDER, SearchFlags, canonical_bytes
from lcslab.words import Word


def enumerate_words(max_len: int, flags: SearchFlags = SearchFlags()) -> Iterator[Word]:
    """Every reduced word of length 1..max_len with pruning off; exactly one
    representative (the byte-least member) of each symmetry class otherwise.
    Nondecreasing length, lexicographic within a length."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    path = bytearray()

    def rec(depth: int, L: int) -> Iterator[Word]:
        if depth == L:
            w = bytes(path)
            if not flags.any() or w == canonical_bytes(w, flags):
                yield Word.from_reduced(w)
            return
        for c in (_ALLOWED[path[-1]] if path else _BYTE_ORDER):
            path.append(c)
            yield from rec(depth + 1, L)
            path.pop()

    for L in range(1, max_len + 1):
        yield from rec(0, L)


def letter_series(letter: int, D: int) -> NcSeries:
    """Magnus image of one letter: g -> 1 + X_g, g^-1 -> sum (-1)^i X_g^i."""
    _check_degree(D)
    f = _one(D)
    beta = _BIT[letter]
    if _POSITIVE[letter]:
        f[1 + beta] = 1
    else:
        i = 0
        for d in range(1, D + 1):
            i = 2 * i + 1 + beta  # X_g^d, the all-beta monomial
            f[i] = -1 if d % 2 else 1
    return NcSeries(D, f)
