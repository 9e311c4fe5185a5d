"""Word arithmetic: frozen examples plus randomized algebraic properties.

The expected values below were either hand-reduced or produced by the
naive quadratic reducer `slow_reduce`, which serves as the independent
oracle for the stack-based reduction.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from lcslab.words import (
    LETTERS,
    Word,
    cancellation_bytes,
    common_prefix_bytes,
    common_suffix_bytes,
    commutator,
    concat,
    conjugate,
    cyclic_reduce,
    exponent_sums,
    inverse_bytes,
    inverse_letter,
    is_reduced,
    product_bytes,
    product_spans,
    products_equal,
    random_word,
    reduce_bytes,
    with_inverses,
)


def slow_reduce(raw: bytes) -> bytes:
    """Oracle: rescan for one adjacent inverse pair at a time."""
    inv = dict(zip(b"aAbB", b"AaBb"))
    s = list(raw)
    changed = True
    while changed:
        changed = False
        for i in range(len(s) - 1):
            if s[i + 1] == inv[s[i]]:
                del s[i:i + 2]
                changed = True
                break
    return bytes(s)


def letter_cancellation(u: bytes, v: bytes) -> int:
    """Oracle: the junction of u and v compared one letter at a time."""
    inv = dict(zip(b"aAbB", b"AaBb"))
    k = 0
    while k < min(len(u), len(v)) and u[len(u) - 1 - k] == inv[v[k]]:
        k += 1
    return k


letter_strings = st.lists(st.sampled_from(list(LETTERS)), max_size=64).map(bytes)
words = letter_strings.map(lambda raw: Word(raw))


def test_reduce_examples():
    assert reduce_bytes(b"aA") == b""
    assert reduce_bytes(b"abBa") == b"aa"
    # a b a^-1 a b a^-1 b^-1  ->  a b b a^-1 b^-1
    assert reduce_bytes(b"abAabAB") == b"abbAB"


@given(letter_strings)
def test_reduce_matches_slow_oracle(raw):
    assert reduce_bytes(raw) == slow_reduce(raw)


@given(letter_strings)
def test_reduce_idempotent(raw):
    once = reduce_bytes(raw)
    assert reduce_bytes(once) == once
    assert is_reduced(once)


def test_concat_examples():
    w, k = concat(Word.parse("a"), Word.parse("A"))
    assert w == Word.identity() and k == 1
    w, k = concat(Word.parse("ab"), Word.parse("Ba"))
    assert str(w) == "aa" and k == 1
    w, k = concat(Word.parse("ab"), Word.parse("ab"))
    assert str(w) == "abab" and k == 0


@given(words, words)
def test_concat_length_bookkeeping(u, v):
    w, k = concat(u, v)
    assert len(w) == len(u) + len(v) - 2 * k
    assert k <= min(len(u), len(v))
    assert k == cancellation_bytes(u.data, v.data)
    assert w.data == reduce_bytes(u.data + v.data)


@given(words, words, words)
def test_concat_associative(u, v, w):
    assert (u * v) * w == u * (v * w)


def test_inverse_examples():
    assert ~Word.identity() == Word.identity()
    assert str(~Word.parse("ab")) == "BA"
    assert str(~Word.parse("abAB")) == "baBA"  # [a,b]^-1 = [b,a]


@given(words)
def test_inverse_involution(w):
    assert ~~w == w
    assert w * ~w == Word.identity()
    assert len(~w) == len(w)


def test_commutator_examples():
    a, b = Word.parse("a"), Word.parse("b")
    assert str(commutator(a, b)) == "abAB"
    assert commutator(a, a) == Word.identity()
    assert commutator(a, ~a) == Word.identity()
    assert commutator(a, Word.identity()) == Word.identity()
    w = commutator(commutator(a, b), commutator(b, ~a))
    assert len(w) == 14


@given(words, words)
def test_commutator_antisymmetry(u, v):
    assert commutator(u, v) == ~commutator(v, u)


def test_conjugate_examples():
    a, b = Word.parse("a"), Word.parse("b")
    assert conjugate(a, Word.identity()) == a
    assert conjugate(Word.identity(), Word.parse("ab")) == Word.identity()
    assert str(conjugate(a, b)) == "baB"


def test_cyclic_reduce_examples():
    core, v = cyclic_reduce(Word.parse("abA"))
    assert str(core) == "b" and str(v) == "a"
    w = Word.parse("abAB")
    core, v = cyclic_reduce(w)
    assert core == w and v == Word.identity()


def cyclically_reduced(w: Word) -> bool:
    d = w.data
    return len(d) < 2 or d[0] != inverse_letter(d[-1])


@given(words)
def test_cyclic_reduce_reassembles(w):
    core, v = cyclic_reduce(w)
    assert cyclically_reduced(core)
    assert conjugate(core, v) == w
    assert len(core) <= len(w)
    assert (len(core) == len(w)) == cyclically_reduced(w)


@given(words, words)
def test_conjugacy_length_invariant(w, v):
    core1, _ = cyclic_reduce(w)
    core2, _ = cyclic_reduce(conjugate(w, v))
    assert len(core1) == len(core2)


def test_exponent_sums_examples():
    assert exponent_sums(Word.identity()) == (0, 0)
    assert exponent_sums(Word.parse("abAB")) == (0, 0)
    assert exponent_sums(Word.parse("aaB")) == (2, -1)


@given(words, words)
def test_exponent_sums_homomorphism(u, v):
    su, sv = exponent_sums(u), exponent_sums(v)
    sw = exponent_sums(u * v)
    assert sw == (su[0] + sv[0], su[1] + sv[1])


def test_parse_serialize_roundtrip():
    for text in ("1", "a", "A", "abAB", "BabA"):
        assert str(Word.parse(text)) == text
    assert Word.parse("aA") == Word.identity()
    with pytest.raises(ValueError):
        Word.parse("xyz")


def test_random_word_reduced():
    rng = random.Random(7)
    for length in (0, 1, 5, 33):
        w = random_word(rng, length)
        assert len(w) == length
        assert is_reduced(w.data)


def test_inverse_bytes_matches_word_inverse():
    rng = random.Random(11)
    for _ in range(50):
        w = random_word(rng, rng.randrange(0, 40))
        assert inverse_bytes(w.data) == (~w).data


# Long junctions: u = x z and v = z^-1 y share a cancelling run of about
# |z| letters, long enough for the block compares to double and halve.
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 5000),
       st.integers(0, 40), st.integers(0, 40))
def test_long_junction_matches_letter_loop(seed, nz, nx, ny):
    rng = random.Random(seed)
    x, z, y = (random_word(rng, n).data for n in (nx, nz, ny))
    u = reduce_bytes(x + z)
    v = reduce_bytes(inverse_bytes(z) + y)
    k = cancellation_bytes(u, v)
    assert k == letter_cancellation(u, v)
    assert common_prefix_bytes(u, v) == letter_cancellation(inverse_bytes(u), v)
    assert common_suffix_bytes(u, v) == letter_cancellation(u, inverse_bytes(v))
    w, kc = concat(Word.from_reduced(u), Word.from_reduced(v))
    assert kc == k and w.data == reduce_bytes(u + v)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 3000),
       st.lists(st.integers(0, 4), max_size=6))
def test_product_matches_stack_reduction(seed, nz, picks):
    rng = random.Random(seed)
    z = random_word(rng, nz).data
    u = reduce_bytes(random_word(rng, rng.randrange(30)).data + z)
    v = reduce_bytes(inverse_bytes(z) + random_word(rng, rng.randrange(30)).data)
    menu = (u, v, inverse_bytes(u), inverse_bytes(v), random_word(rng, 7).data)
    pieces = [menu[i] for i in picks]
    assert product_bytes(*pieces) == reduce_bytes(b"".join(pieces))


def test_product_whole_word_and_swallowed_middle():
    rng = random.Random(3)
    u = random_word(rng, 4000).data
    ui = inverse_bytes(u)
    assert cancellation_bytes(u, ui) == letter_cancellation(u, ui) == 4000
    assert product_bytes(u, ui) == b""
    assert product_bytes(u, ui, u) == u
    # x z . z^-1 . x^-1 y: the middle piece cancels entirely, and the
    # cancellation goes on through the whole left piece
    x, z, y = (random_word(rng, n).data for n in (50, 3000, 50))
    z = z if cancellation_bytes(x, z) == 0 else inverse_bytes(z)
    y = y if cancellation_bytes(inverse_bytes(x), y) == 0 else inverse_bytes(y)
    pieces = (x + z, inverse_bytes(z), inverse_bytes(x) + y)
    assert all(is_reduced(p) for p in pieces)
    assert cancellation_bytes(pieces[0], pieces[1]) == len(z)
    assert product_bytes(*pieces) == y == reduce_bytes(b"".join(pieces))
    assert product_bytes() == b""
    assert commutator(Word.from_reduced(u), Word.from_reduced(ui)) == Word.identity()


def _ending(rng, n: int, last: int) -> bytes:
    """A random reduced word of n letters whose last letter is `last`."""
    while True:
        w = random_word(rng, n).data
        if w[-1] == last:
            return w


def _routes(u: bytes, v: bytes):
    """u and v as pieces: both plain, either or both carrying its inverse.
    Only the left piece's inverse picks the memcmp route; the mixed pair
    (plain, carrying) takes the reversed-copy route."""
    cu, cv = with_inverses(u, inverse_bytes(u))[0], with_inverses(v, inverse_bytes(v))[0]
    return ((u, v), (cu, v), (u, cv), (cu, cv))


# A junction cancelling r pairs: letter by letter up to 16, then block
# compares against the carried inverse of the left piece or, without it,
# against a reversed copy; 2^16 is the largest block.  Every route must
# give the letters of plain stack reduction.
@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([15, 16, 17, 2 ** 16, 2 ** 16 + 1]))
def test_junction_routes_agree(seed, r):
    rng = random.Random(seed)
    z = random_word(rng, r).data
    # x ends with c and y starts with d, so the run stops after exactly r
    c = rng.choice([l for l in LETTERS if l != inverse_letter(z[0])])
    d = rng.choice([l for l in LETTERS if l not in (z[0], inverse_letter(c))])
    u = _ending(rng, 8, c) + z
    v = inverse_bytes(z) + inverse_bytes(_ending(rng, 8, inverse_letter(d)))
    assert is_reduced(u) and is_reduced(v)
    expected = reduce_bytes(u + v)
    assert len(u) + len(v) - len(expected) == 2 * r == 2 * cancellation_bytes(u, v)
    for left, right in _routes(u, v):
        assert product_bytes(left, right) == expected
    # a run that eats the whole span z and cascades into the span x before
    # it: x z . z^-1 x^-1 y = y
    x = _ending(rng, 40, c)
    y = inverse_bytes(_ending(rng, 20, inverse_letter(
        rng.choice([l for l in LETTERS if l != x[0]]))))
    right = inverse_bytes(x + z) + y
    assert is_reduced(right)
    for (px, pr), (pz, _) in zip(_routes(x, right), _routes(z, z)):
        assert product_bytes(product_spans(px, pz), pr) == y
    assert y == reduce_bytes(x + z + right)


def _joined(spans) -> bytes:
    return b"".join(q[qs:qe] for q, qs, qe, _ in spans)


def _flat(piece) -> bytes:
    return piece if isinstance(piece, bytes) else _joined(piece)


def test_spans_and_equality_match_product_bytes():
    """Seeded random products, some pieces nested span lists, with long
    cancelling junctions: the joined spans are product_bytes, and
    products_equal agrees with == on the bytes, for the same word cut at
    other span boundaries and for a word one letter away."""
    rng = random.Random(20261020)
    for _ in range(300):
        z = random_word(rng, rng.randrange(0, 400)).data
        u = reduce_bytes(random_word(rng, rng.randrange(30)).data + z)
        v = reduce_bytes(inverse_bytes(z) + random_word(rng, rng.randrange(30)).data)
        menu = [u, v, inverse_bytes(u), inverse_bytes(v), random_word(rng, 7).data]
        menu.append(product_spans(*rng.choices(menu, k=3)))
        menu.append(product_spans(menu[-1], *rng.choices(menu, k=2)))
        pieces = rng.choices(menu, k=rng.randrange(7))
        spans = product_spans(*pieces)
        expected = reduce_bytes(b"".join(map(_flat, pieces)))
        assert _joined(spans) == product_bytes(*pieces) == expected
        # bytes pieces carry no inverse, and neither do their spans
        assert all(0 <= qs < qe <= len(q) and qi is None for q, qs, qe, qi in spans)
        # the same word cut elsewhere, and the pieces regrouped
        cut = rng.randrange(len(expected) + 1)
        assert products_equal(spans, product_spans(expected[:cut], expected[cut:]))
        assert products_equal(spans, product_spans(product_spans(*pieces[:2]),
                                                   *pieces[2:]))
        other = product_spans(*rng.choices(menu, k=rng.randrange(7)))
        assert products_equal(spans, other) == (_joined(other) == expected)


def _other_letter(w: bytes, i: int, rng) -> bytes:
    """w with letter i replaced, still reduced."""
    banned = {w[i]}
    banned.update(inverse_letter(w[j]) for j in (i - 1, i + 1) if 0 <= j < len(w))
    c = rng.choice([c for c in LETTERS if c not in banned])
    return w[:i] + bytes([c]) + w[i + 1:]


def test_products_equal_edge_cases():
    rng = random.Random(7)
    w = random_word(rng, 300).data
    # one letter differs right before, at and after a span boundary of
    # either side, and the two sides cut the word at different places
    for k in (1, 100, 299):
        xs = product_spans(w[:k], w[k:])
        assert products_equal(xs, product_spans(w))
        for i in (k - 1, k, k + 1):
            if i < len(w):
                y = _other_letter(w, i, rng)
                ys = product_spans(y[:k + 3], y[k + 3:])
                assert not products_equal(xs, ys)
                assert not products_equal(ys, xs)
    # unequal lengths, a common prefix and the empty word
    assert not products_equal(product_spans(w), product_spans(w[:-1]))
    assert not products_equal(product_spans(w[:-1]), product_spans(w))
    assert products_equal(product_spans(), product_spans(w, inverse_bytes(w)))
    assert not products_equal(product_spans(), product_spans(w))
    # a whole span list swallowed by the next piece, spans nested in spans
    x, z = random_word(rng, 40).data, random_word(rng, 500).data
    zx = product_spans(z, x)
    assert product_spans(zx, product_spans(inverse_bytes(x), inverse_bytes(z))) == []
    nested = product_spans(product_spans(zx, inverse_bytes(x)), x, inverse_bytes(x))
    assert _joined(nested) == z
    assert products_equal(nested, product_spans(z))
    # a span list used as a piece twice is not changed by either product
    before = [list(s) for s in zx]
    product_spans(zx, inverse_bytes(x))
    product_spans(zx, product_spans(inverse_bytes(x), inverse_bytes(z)))
    assert zx == before
