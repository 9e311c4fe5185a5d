"""Exact arithmetic on freely reduced words in the rank-2 free group F = <a, b>.

A word is stored as an immutable bytes object over the four letter bytes
a=0x61, A=0x41, b=0x62, B=0x42, where upper case means inverse.  The empty
bytes is the identity and serializes as "1".  Keeping words as bytes makes
concatenation, inversion and letter counting memcpy-speed, which matters
once the recursive families reach tens of millions of letters.

Cancellation costs memcmp time too.  A product of reduced words cancels
only at its junctions; the first few pairs of a junction are compared one
letter at a time, and a longer run is found by comparing blocks that double
after a match and halve after a mismatch.  A junction cancelling r pairs
costs O(log r + r / 2^16) block compares of at most 2^16 letters, not r
interpreter steps.  `product_bytes` settles every junction of a product
first and then copies each surviving letter once.
"""

from __future__ import annotations

from typing import Tuple

LETTER_A = 0x61  # a
LETTER_AI = 0x41  # a^-1
LETTER_B = 0x62  # b
LETTER_BI = 0x42  # b^-1

LETTERS = bytes([LETTER_A, LETTER_AI, LETTER_B, LETTER_BI])
# each letter's exponent sums: its image in Z^2 under abelianization
EXPONENT_DELTA = {LETTER_A: (1, 0), LETTER_AI: (-1, 0),
                  LETTER_B: (0, 1), LETTER_BI: (0, -1)}

# swap case = invert one letter
_INV_TABLE = bytes.maketrans(b"aAbB", b"AaBb")
_INV_BYTE = [0] * 256
for _c, _d in zip(b"aAbB", b"AaBb"):
    _INV_BYTE[_c] = _d


def inverse_letter(c: int) -> int:
    return _INV_BYTE[c]


def reduce_bytes(raw: bytes) -> bytes:
    """Freely reduce an arbitrary letter string (stack cancellation)."""
    out = []
    push = out.append
    pop = out.pop
    inv = _INV_BYTE
    for c in raw:
        if out and out[-1] == inv[c]:
            pop()
        else:
            push(c)
    return bytes(out)


def is_reduced(data: bytes) -> bool:
    inv = _INV_BYTE
    return all(data[i + 1] != inv[data[i]] for i in range(len(data) - 1))


# a junction compares its first _SHORT_RUN pairs letter by letter, and no
# block compare copies more than _BLOCK_MAX letters
_SHORT_RUN = 16
_BLOCK_MAX = 1 << 16


def _gallop(agree, k: int, n: int) -> int:
    """Extend a run of k agreeing positions as far as n allows.

    agree(i, j) says whether positions i..j-1 all agree.  Blocks double
    after a match and halve after a mismatch; the run ends at a mismatching
    block of one position.
    """
    m = max(k, 1)
    while k < n:
        step = min(m, n - k)
        if agree(k, k + step):
            k += step
            m = min(2 * step, _BLOCK_MAX)
        elif step == 1:
            break
        else:
            m = step // 2
    return k


def _junction(u: bytes, ue: int, v: bytes, vs: int, n: int) -> int:
    """Pairs cancelling where u[:ue] meets v[vs:], at most n."""
    inv = _INV_BYTE
    k = 0
    lim = min(n, _SHORT_RUN)
    while k < lim and u[ue - 1 - k] == inv[v[vs + k]]:
        k += 1
    if k < _SHORT_RUN:
        return k

    def agree(i: int, j: int) -> bool:
        return u[ue - j:ue - i][::-1].translate(_INV_TABLE) == v[vs + i:vs + j]

    return _gallop(agree, k, n)


def cancellation_bytes(u: bytes, v: bytes) -> int:
    """Number of letter pairs cancelling at the junction of reduced u, v."""
    if not (u and v and u[-1] == _INV_BYTE[v[0]]):
        return 0
    return _junction(u, len(u), v, 0, min(len(u), len(v)))


def common_prefix_bytes(u: bytes, v: bytes) -> int:
    """Length of the longest common prefix; it is the cancellation in u^-1 v."""
    if not (u and v and u[0] == v[0]):
        return 0
    return _gallop(lambda i, j: u[i:j] == v[i:j], 1, min(len(u), len(v)))


def common_suffix_bytes(u: bytes, v: bytes) -> int:
    """Length of the longest common suffix; it is the cancellation in u v^-1."""
    lu, lv = len(u), len(v)
    if not (u and v and u[-1] == v[-1]):
        return 0
    return _gallop(lambda i, j: u[lu - j:lu - i] == v[lv - j:lv - i],
                   1, min(lu, lv))


def concat_bytes(u: bytes, v: bytes) -> Tuple[bytes, int]:
    """Reduced product of two reduced words, plus the cancellation count.

    Cancellation in a product of reduced words happens only at the junction,
    so the result is u with its tail clipped followed by v with its head
    clipped.
    """
    k = cancellation_bytes(u, v)
    if k:
        return u[: len(u) - k] + v[k:], k
    return u + v, 0


def product_bytes(*pieces: bytes) -> bytes:
    """Reduced product of reduced words, copying each surviving letter once.

    The surviving span of every piece is settled first.  A junction may
    cancel a whole piece; cancellation then goes on into the piece before
    it.  One join over memoryview spans builds the result.
    """
    inv = _INV_BYTE
    spans = []  # [piece, start, end] of the non-empty surviving spans
    for p in pieces:
        s, e = 0, len(p)
        while spans and s < e:
            top = spans[-1]
            q, qs, qe = top
            if q[qe - 1] != inv[p[s]]:
                break
            k = _junction(q, qe, p, s, min(qe - qs, e - s))
            s += k
            if k < qe - qs:
                top[2] = qe - k
                break
            spans.pop()
        if s < e:
            spans.append([p, s, e])
    return b"".join([q if qe - qs == len(q) else memoryview(q)[qs:qe]
                     for q, qs, qe in spans])


def inverse_bytes(w: bytes) -> bytes:
    return w[::-1].translate(_INV_TABLE)


class Word:
    """An immutable freely reduced word; the identity is Word.identity()."""

    __slots__ = ("data",)

    def __init__(self, data: bytes = b"", *, _checked: bool = False):
        if not _checked:
            data = reduce_bytes(data)
        object.__setattr__(self, "data", data)

    def __setattr__(self, name, value):
        raise AttributeError("Word is immutable")

    # -- construction -----------------------------------------------------

    @staticmethod
    def identity() -> "Word":
        return _IDENTITY

    @staticmethod
    def from_reduced(data: bytes) -> "Word":
        """Wrap bytes already known to be reduced (no re-check in hot paths)."""
        return Word(data, _checked=True)

    @staticmethod
    def parse(text: str) -> "Word":
        """Parse the canonical serialization; '1' (or '') is the identity.

        Unreduced input is accepted and reduced.
        """
        text = text.strip()
        if text in ("1", ""):
            return _IDENTITY
        raw = text.encode("ascii", errors="strict")
        bad = set(raw) - set(LETTERS)
        if bad:
            raise ValueError(f"invalid letters in word: {text!r} (use a,A,b,B or 1)")
        return Word(raw)

    # -- basics -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.data)

    def __str__(self) -> str:
        return self.data.decode("ascii") if self.data else "1"

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Word) and self.data == other.data

    def __hash__(self) -> int:
        return hash(self.data)

    def __bool__(self) -> bool:
        return bool(self.data)

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "Word") -> "Word":
        w, _ = concat_bytes(self.data, other.data)
        return Word.from_reduced(w)

    def __invert__(self) -> "Word":
        return Word.from_reduced(inverse_bytes(self.data))


_IDENTITY = Word(b"", _checked=True)


def concat(u: Word, v: Word) -> Tuple[Word, int]:
    """Reduced product with its cancellation count."""
    w, k = concat_bytes(u.data, v.data)
    return Word.from_reduced(w), k


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u v u^-1 v^-1, reduced."""
    ud, vd = u.data, v.data
    return Word.from_reduced(
        product_bytes(ud, vd, inverse_bytes(ud), inverse_bytes(vd)))


def conjugate(u: Word, v: Word) -> Word:
    """v u v^-1, reduced."""
    vd = v.data
    return Word.from_reduced(product_bytes(vd, u.data, inverse_bytes(vd)))


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Return (core, conjugator) with w = conjugator * core * conjugator^-1.

    The core is cyclically reduced and len(core) is the conjugacy length |w|.
    """
    d = w.data
    i, j = 0, len(d)
    inv = _INV_BYTE
    while j - i >= 2 and d[i] == inv[d[j - 1]]:
        i += 1
        j -= 1
    return Word.from_reduced(d[i:j]), Word.from_reduced(d[:i])


def exponent_sums(w: Word) -> Tuple[int, int]:
    """Signed letter counts (image in Z^2 under abelianization)."""
    d = w.data
    return (d.count(LETTER_A) - d.count(LETTER_AI),
            d.count(LETTER_B) - d.count(LETTER_BI))


def random_word(rng, length: int) -> Word:
    """Uniform random reduced word of exactly the given length."""
    if length <= 0:
        return _IDENTITY
    inv = _INV_BYTE
    out = [rng.choice(LETTERS)]
    for _ in range(length - 1):
        banned = inv[out[-1]]
        c = rng.choice(LETTERS)
        while c == banned:
            c = rng.choice(LETTERS)
        out.append(c)
    return Word.from_reduced(bytes(out))
