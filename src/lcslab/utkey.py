"""Row-0 keys in UT(n, F_p) for the lcs:n square-root search.

The map a -> I + X_a, b -> I + X_b into the unitriangular n x n matrices
over F_p, p = 2^31 - 1, with X_a and X_b nonzero only on the first
superdiagonal, sends a word w to a matrix whose row 0 is (1, v_1, ...,
v_(n-1)).  Entry v_j is the degree-j part of the Magnus expansion of w
evaluated at the point x: the monomial X_(g_1)...X_(g_j) becomes the
product of x_(g_k)[k-1] over k, so distinct monomials become distinct
polynomial monomials.  The key of w is (v_1, ..., v_(n-1)).

Both directions of the join are settled exactly:

  * UT(n, .) is nilpotent of class n-1, so two words whose Magnus
    expansions agree below degree n have equal keys.  A word uv lies at
    depth >= n exactly when u and v^-1 agree there, so a length at which
    no pair of halves has equal keys has no member at all.
  * Distinct expansions collide only where a nonzero polynomial of degree
    at most n-1 vanishes at x, which a uniform point does with probability
    at most (n-1)/p (Schwartz 1980; Zippel 1979).  The caller confirms
    every key match on the exact state, so a collision costs one check,
    never a wrong answer.

The point comes from a fixed seed, so every run tests the same matches.

A key row is int64 with entries in [0, p): a positive letter does
v_j += v_(j-1) x[j-1], an inverse letter v'_j = v_j - v'_(j-1) x[j-1] for
ascending j, each product below 2^62.  Both act on a whole level at once.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

import numpy as np

from .magnus import _BIT, _POSITIVE
from .words import _INV_TABLE, LETTERS, inverse_letter

P = (1 << 31) - 1

# byte -> its inverse letter, for a whole array of letter bytes
_INVERSE = np.frombuffer(_INV_TABLE, dtype=np.uint8)


def evaluation_point(n: int) -> np.ndarray:
    """The superdiagonals (x_a, x_b) as a (2, n-1) int64 array, drawn from
    a fixed seed."""
    rng = random.Random(n)
    return np.array([[rng.randrange(P) for _ in range(n - 1)]
                     for _ in range(2)], dtype=np.int64)


def _step(keys: np.ndarray, c: int, x: np.ndarray) -> np.ndarray:
    """The key rows of every word followed by the letter c."""
    xs = x[_BIT[c]]
    out = keys.copy()
    if _POSITIVE[c]:
        out[:, 1:] += keys[:, :-1] * xs[1:]
        out[:, :1] += xs[:1]
        out %= P
        return out
    prev = 1  # v'_0: row 0 of a unitriangular matrix starts with 1
    for j in range(out.shape[1]):
        col = out[:, j]
        col -= prev * xs[j]
        col %= P
        prev = col
    return out


class Levels:
    """Every reduced word of length k as one row of a uint8 array of letter
    bytes (N, k), beside its key rows (N, n-1), the order that sorts their
    uint64 hashes, and the sorted hashes.  Level k+1 is made from level k,
    three letters per word, and each level is kept for the later lengths
    of the same search and of its re-check."""

    def __init__(self, n: int):
        self.x = evaluation_point(n)
        # odd multipliers for hashing a key row to one uint64, drawn from
        # a stream apart from the point's
        rng = random.Random(f"key hash {n}")
        self.mult = np.array([rng.getrandbits(64) | 1 for _ in range(n - 1)],
                             dtype=np.uint64)
        self.levels: List[Tuple[np.ndarray, ...]] = [
            (np.zeros((1, 0), dtype=np.uint8),
             np.zeros((1, n - 1), dtype=np.int64),
             np.zeros(1, dtype=np.intp), np.zeros(1, dtype=np.uint64))]
        self.distinct: Dict[int, bool] = {}  # level -> no two hashes equal

    def level(self, k: int) -> Tuple[np.ndarray, ...]:
        """(words, keys, order, sorted hashes) of the reduced words of
        length k."""
        while len(self.levels) <= k:
            words, keys = self.levels[-1][:2]
            length = words.shape[1]
            grown_words, grown_keys = [], []
            for c in LETTERS:
                keep = (words[:, -1] != inverse_letter(c) if length
                        else slice(None))
                kept = words[keep]
                grown = np.empty((len(kept), length + 1), dtype=np.uint8)
                grown[:, :length] = kept
                grown[:, length] = c
                grown_words.append(grown)
                grown_keys.append(_step(keys[keep], c, self.x))
            keys = np.concatenate(grown_keys)
            hashes = self._hash(keys)
            # the stable sort maps less of numpy's sort code than the
            # default one: about 0.2 MB less resident in a small search
            order = np.argsort(hashes, kind="stable")
            self.levels.append((np.concatenate(grown_words), keys, order,
                                hashes[order]))
        return self.levels[k]

    def _hash(self, keys: np.ndarray) -> np.ndarray:
        h = np.zeros(len(keys), dtype=np.uint64)
        for j, m in enumerate(self.mult):
            h += keys[:, j].view(np.uint64) * m  # wraps modulo 2^64
        return h

    def _is_distinct(self, k: int) -> bool:
        """Whether no two reduced words of length k hash alike, found in
        one pass over the sorted hashes the first time it is asked."""
        distinct = self.distinct.get(k)
        if distinct is None:
            h = self.level(k)[3]
            distinct = self.distinct[k] = bool((h[1:] != h[:-1]).all())
        return distinct

    def joins(self, length: int, split: int, roots: bytes,
              cyclic: bool) -> List[bytes]:
        """Every word uv of this length, with |u| = split and first(u) in
        roots (cyclically reduced too, with cyclic), whose halves u and
        v^-1 have equal keys, in byte order; roots other than all four
        letters need split >= 1.

        Both sides are taken in key hash order, so each right half v^-1
        finds its run of equal left hashes by searchsorted in one pass;
        pairs whose hashes match but whose key rows differ are dropped.
        Two joins end early with nothing, exactly where the full route
        would keep no pair: halves of equal length on a level whose hashes
        are distinct, where each u meets only itself and u u^-1 is not
        reduced, and halves that share no hash."""
        if split == length - split and self._is_distinct(split):
            return []
        lw, lk, lorder, lh = self.level(split)
        if len(roots) < len(LETTERS):
            is_root = np.zeros(256, dtype=bool)
            is_root[list(roots)] = True
            first = is_root[lw[lorder, 0]]
            lorder, lh = lorder[first], lh[first]
        rw, rk, rorder, rh = self.level(length - split)
        if split != length - split:
            # the left halves are the fewer here: look each up on the right
            at = np.minimum(np.searchsorted(rh, lh), len(rh) - 1)
            if not (rh[at] == lh).any():
                return []
        lo = np.searchsorted(lh, rh, side="left")
        count = np.searchsorted(lh, rh, side="right") - lo
        ri = np.repeat(np.arange(len(rh)), count)
        first_of_run = np.repeat(np.cumsum(count) - count, count)
        li = lorder[np.repeat(lo, count) + np.arange(len(ri)) - first_of_run]
        ri = rorder[ri]
        keep = (lk[li] == rk[ri]).all(axis=1)
        if split and length - split:
            keep &= lw[li, -1] != rw[ri, -1]
            if cyclic:
                keep &= lw[li, 0] != rw[ri, 0]
        li, ri = li[keep], ri[keep]
        joined = np.concatenate([lw[li], _INVERSE[rw[ri, ::-1]]], axis=1)
        return np.sort(joined.view(f"S{length}").ravel()).tolist()
