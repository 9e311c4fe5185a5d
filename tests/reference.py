"""Brute-force references the tests compare the library against.

enumerate_words lists reduced words one by one, with no level store and no
meet in the middle; letter_series gives the Magnus image of one letter, so
a word's expansion can be rebuilt as a product of letter series, and
series_rows and series_terms read an expansion's coefficient array;
generated_elements closes a finite quotient's letter images by search.
chunked_haar_pairs draws the SU(2) sample stream one chunk at a time, and
chunked_estimate and repeat_tile_net_max are the sampled estimate and the
grid's net maximum on copied-out pairs, one chunk or block at a time.

The library decides membership only through the search oracles.  The
routes here decide it from scratch, one word at a time, on the quotient's
(identity, step) pair from quotients.parse_quotient_spec: image, in_lambda
(the kernel), project_fox (a Fox derivative pushed into the group ring of
the quotient) and in_derived_lambda ([kernel, kernel]).  fox_derivative
is the free derivative in the integer group ring of F2, which project_fox
is checked against.
"""

from typing import Dict, Hashable, Iterator, List, Tuple

import numpy as np

from lcslab import almostlaw
from lcslab.magnus import _BIT, _POSITIVE, _check_degree, _one, _row
from lcslab.quotients import Quotient
from lcslab.search import _ALLOWED, _BYTE_ORDER, SearchFlags, canonical_bytes
from lcslab.words import LETTER_A, LETTER_AI, LETTER_B, LETTER_BI, LETTERS, Word


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


def letter_series(letter: int, D: int) -> np.ndarray:
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
    return f


def series_rows(f: np.ndarray) -> List[List[int]]:
    """The coefficients of each degree as Python ints, rows[d][m]."""
    return [f[_row(d)].tolist() for d in range(len(f).bit_length())]


def series_terms(f: np.ndarray) -> List[Tuple[int, int, int]]:
    """(degree, packed monomial, coefficient) of every nonzero term, in
    heap order."""
    return [(d, m, k) for d, row in enumerate(series_rows(f))
            for m, k in enumerate(row) if k]


def generated_elements(q: Quotient, limit: int = 100000) -> frozenset:
    """Every element of a finite quotient, as the closure of its letter images."""
    identity, step = q
    seen = {identity}
    frontier = [identity]
    while frontier:
        g = frontier.pop()
        for c in LETTERS:
            h = step(g, c)
            if h not in seen:
                if len(seen) >= limit:
                    raise ValueError("closure exceeds enumeration limit")
                seen.add(h)
                frontier.append(h)
    return frozenset(seen)


def fox_derivative(w: Word, gen: str) -> Dict[Word, int]:
    """Free derivative with respect to 'a' or 'b', as {group element:
    coefficient} in Z[F2].

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


def image(w: Word, q: Quotient) -> Hashable:
    """The image of w in the quotient, one step per letter."""
    g, step = q
    for c in w.data:
        g = step(g, c)
    return g


def in_lambda(w: Word, q: Quotient) -> bool:
    """Membership in the kernel of F2 -> q."""
    return image(w, q) == q[0]


def project_fox(w: Word, q: Quotient, gen: str) -> Dict[Hashable, int]:
    """Fox derivative of w pushed into the group ring of the quotient, as
    {g: coeff} with no zero stored.

    One left-to-right walk: a positive occurrence of the generator
    contributes +(image of the prefix before it), a negative one
    contributes -(image of the prefix including it).
    """
    if gen not in ("a", "b"):
        raise ValueError("gen must be 'a' or 'b'")
    pos = LETTER_A if gen == "a" else LETTER_B
    neg = LETTER_AI if gen == "a" else LETTER_BI
    p, step = q
    out: Dict[Hashable, int] = {}
    for c in w.data:
        if c == pos:
            out[p] = out.get(p, 0) + 1
        p = step(p, c)
        if c == neg:
            out[p] = out.get(p, 0) - 1
    return {g: n for g, n in out.items() if n}


def in_derived_lambda(w: Word, q: Quotient) -> bool:
    """Membership in [kernel, kernel]: the word must die in the quotient and
    both projected Fox derivatives must vanish."""
    return (in_lambda(w, q) and not project_fox(w, q, "a")
            and not project_fox(w, q, "b"))


def chunked_haar_pairs(seed: int, samples: int
                       ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The Haar sample stream as (us, vs) chunks: haar_su2 of _CHUNK u's,
    then of _CHUNK v's, each cut to the samples still wanted."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, almostlaw._CHUNK):
        m = min(almostlaw._CHUNK, samples - done)
        yield (almostlaw.haar_su2(rng, almostlaw._CHUNK)[:m],
               almostlaw.haar_su2(rng, almostlaw._CHUNK)[:m])


def chunked_estimate(w: Word, samples: int, polish_steps: int, seed: int
                     ) -> almostlaw.LEstimate:
    """estimate_L with each chunk evaluated on its own: a chunk's first
    maximum replaces the best only if it is strictly larger."""
    best, best_pair = -1.0, None
    for us, vs in chunked_haar_pairs(seed, samples):
        ds = almostlaw.distance_to_identity(almostlaw.batch_evaluate(w, us, vs))
        i = int(np.argmax(ds))
        if ds[i] > best:
            best, best_pair = float(ds[i]), (us[i], vs[i])
    u, v, _ = almostlaw._polish_pair(w, *best_pair, polish_steps)
    witness = (np.array(almostlaw._normalized(u)),
               np.array(almostlaw._normalized(v)))
    lower = float(almostlaw.distance_to_identity(almostlaw.evaluate(w, *witness)))
    return almostlaw.LEstimate(word=w, lower=lower, witness=witness)


def repeat_tile_net_max(w: Word, net: np.ndarray) -> float:
    """The largest distance from the identity of w over net x net, each
    block of about 4,000 pairs copied out row by row with np.repeat and
    np.tile."""
    m = len(net)
    block = max(1, 4_000 // m)
    worst = 0.0
    for i in range(0, m, block):
        us = np.repeat(net[i:i + block], m, axis=0)
        vs = np.tile(net, (len(us) // m, 1))
        ds = almostlaw.distance_to_identity(almostlaw.batch_evaluate(w, us, vs))
        worst = max(worst, float(np.max(ds)))
    return worst
