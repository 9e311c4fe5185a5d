"""The recursive families a_n, b_n: frozen small cases and the lemma checks.

b_2 was reduced by hand from the 16-letter concatenation a1 b1 a1^-1 b1^-1
and frozen below; everything else cross-checks the builder against
independent recomputation.
"""

from __future__ import annotations

import hashlib
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from lcslab import construction
from lcslab.construction import (MU, BudgetExceeded, PairSequence, build, check_identities,
                                 check_lengths, check_no_cancellation)
from lcslab.words import (LETTERS, Word, commutator, concat, conjugate, inverse_bytes,
                          product_bytes, random_word, reduce_bytes)

seed_words = st.lists(st.sampled_from(list(LETTERS)), min_size=1, max_size=6).map(
    lambda letters: Word(bytes(letters))).filter(bool)


def test_level_zero_is_seeds():
    seq = build(0)
    assert str(seq.a(0)) == "a"
    assert str(seq.b(0)) == "b"


def test_level_one_words():
    seq = build(1)
    assert str(seq.a(1)) == "BabA"
    assert str(seq.b(1)) == "abAB"


def test_level_two_frozen():
    seq = build(2)
    assert str(seq.b(2)) == "BabbABaBAbbaBA"
    assert len(seq.b(2)) == 14
    assert len(seq.a(2)) == 14


def test_lengths_small_n():
    seq = build(8)
    table = check_lengths(seq)
    lens = [r.len_b for r in table.rows]
    # independent recurrence: the first three values pin everything down
    # if the 3,2-recurrence holds with equality
    expected = [1, 4, 14]
    while len(expected) <= 8:
        expected.append(3 * expected[-1] + 2 * expected[-2])
    assert lens == expected
    assert table.ok
    for r in table.rows:
        assert r.len_a == r.len_b
        assert r.len_b >= 2 ** r.n
    assert table.rows[2].recurrence_equality is True
    # measured constant: the max of len_b / MU^n is attained at n=1 (4/MU)
    assert abs(table.c_prime - 4.0 / MU) < 1e-12


def test_doubling_step():
    seq = build(8)
    for n in range(1, 9):
        assert len(seq.b(n)) >= 2 * len(seq.b(n - 1))


def test_no_cancellation_small_n():
    seq = build(6)
    for n in range(7):
        rep = check_no_cancellation(seq, n)
        assert rep.ok, (n, rep.cancelled)
        assert set(rep.cancelled) == set(construction.PRODUCT_LABELS)


def test_no_cancellation_counts_equal_formed_products():
    """The counts read without products equal those of the products
    themselves, on families whose counts are not all zero."""
    rng = random.Random(2)
    nonzero = 0
    for _ in range(12):
        seeds = (random_word(rng, rng.randrange(1, 6)),
                 random_word(rng, rng.randrange(1, 6)))
        seq = build(4, seeds=seeds)
        for n in range(5):
            an, bn = seq.a(n), seq.b(n)
            ai, bi = ~an, ~bn
            pairs = ((an, an), (bn, bn), (ai, bn), (bi, an),
                     (an, bi), (bn, ai), (ai, bi), (bn, an))
            formed = {label: concat(u, v)[1]
                      for label, (u, v) in zip(construction.PRODUCT_LABELS, pairs)}
            assert check_no_cancellation(seq, n).cancelled == formed
            nonzero += sum(formed.values()) > 0
    assert nonzero > 0


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_build_passes_derivation_check(seed):
    """check_derivation recomputes every level through commutator, a route
    independent of the shared-inverse products in build."""
    seeds = None
    if seed is not None:
        rng = random.Random(seed)
        seeds = (random_word(rng, 3), random_word(rng, 2))
    seq = build(10, seeds=seeds)
    assert seq.check_derivation()


@settings(max_examples=60, deadline=None)
@example(Word.parse("ab"), Word.parse("aB"))
@example(Word.parse("a"), Word.parse("A"))   # level 1 is the identity
@example(Word.parse("ab"), Word.parse("ab"))
@given(seed_words, seed_words)
def test_carried_inverses_equal_reversed_words(wa, wb):
    """Each level's carried inverse is the reversed word byte for byte,
    also for seeds whose products cancel, and build's words pass the
    independent commutator route of check_derivation."""
    seq = build(5, seeds=(wa, wb))
    assert seq.check_derivation()
    ad, bd = wa.data, wb.data
    ai, bi = inverse_bytes(ad), inverse_bytes(bd)
    for n in range(1, 6):
        ad, ai, bd, bi = (product_bytes(x)
                          for x in construction._next_level(ad, ai, bd, bi))
        assert (ad, bd) == (seq.a(n).data, seq.b(n).data)
        assert (ai, bi) == (inverse_bytes(ad), inverse_bytes(bd))


def test_family_words_are_pinned():
    """sha256 over every word of build(n), n = 0..12, for the seeds (a, b)
    and (ab, aB); the digest was computed with the build that carried
    every level's inverses as bytes."""
    h = hashlib.sha256()
    for seeds in (("a", "b"), ("ab", "aB")):
        for n in range(13):
            seq = build(n, seeds=tuple(map(Word.parse, seeds)))
            for w in seq.a_words + seq.b_words:
                h.update(b"%d:" % len(w))
                h.update(w.data)
    assert h.hexdigest() == (
        "63e9296664a1e89b794803cc97352f149ad22d42e981f634ce5218cf73726cbe")


def _joined(w: Word) -> bool:
    """Whether a word's letters are bytes yet, asked without joining them."""
    try:
        object.__getattribute__(w, "data")
    except AttributeError:
        return False
    return True


def test_checks_leave_the_top_two_levels_as_spans():
    """The construction checks read the top two levels of build(14) from
    their spans: none of their letters is joined, and all of their spans
    carry inverses."""
    seq = build(14)
    assert check_lengths(seq).ok
    for n in range(15):
        assert check_no_cancellation(seq, n).ok
    for n in range(2, 13):
        assert check_identities(seq, n).ok
    assert len(seq.b(14)) == len(seq.a(14)) == 58457426
    for words in (seq.a_words, seq.b_words):
        assert [_joined(w) for w in words] == [True] * 13 + [False] * 2
        assert all(len(w.spans) <= 16 for w in words[13:])
        # every span carries its buffer's inverse, so junctions are memcmps
        assert all(span[3] is not None for w in words[13:]
                   for span in w.spans + w.inverse_spans)


@pytest.mark.parametrize("n_max", [0, 1, 2])
@pytest.mark.parametrize("seeds", [("a", "b"), ("ab", "aB"), ("aab", "bA")])
def test_lowest_levels_match_plain_reduction(n_max, seeds):
    """The top level comes from the seeds' own inverses (n_max = 1) or from
    level 1's inverses carried as spans (n_max = 2), through junctions that
    cancel for the seeds (ab, aB)."""
    seq = build(n_max, seeds=tuple(map(Word.parse, seeds)))
    assert seq.n_max == n_max
    assert (str(seq.a(0)), str(seq.b(0))) == seeds
    for n in range(1, n_max + 1):
        a, b = seq.a(n - 1).data, seq.b(n - 1).data
        ai, bi = inverse_bytes(a), inverse_bytes(b)
        assert seq.a(n).data == reduce_bytes(bi + a + b + ai)
        assert seq.b(n).data == reduce_bytes(a + b + ai + bi)
    assert seq.check_derivation()


def test_commutator_pair_matches_commutator():
    rng = random.Random(4)
    for _ in range(200):
        u, v = (random_word(rng, rng.randrange(0, 7)) for _ in range(2))
        pair = construction._commutator_pair(u.data, (~u).data, v.data, (~v).data)
        assert tuple(map(product_bytes, pair)) == (commutator(u, v).data,
                                                   commutator(v, u).data)


def _plain_eqrel(x, y):
    c = commutator(~x, y)
    cx = commutator(c, x)
    xy, yx = commutator(x, y), commutator(y, x)
    return (commutator(c, xy) == commutator(cx, xy),
            commutator(c, yx) == commutator(cx, yx))


def test_identities_agree_with_plain_commutators_on_random_words():
    """The pair-based checks answer as the commutator and conjugate
    formulation does.  On unrelated random words the bracket identity
    fails, so about 30% of the sequences have b_2 set to make it hold."""
    rng = random.Random(6)
    bracket_held = 0
    for _ in range(150):
        a_words = [random_word(rng, rng.randrange(1, 6)) for _ in range(3)]
        b_words = [random_word(rng, rng.randrange(1, 6)) for _ in range(3)]
        if rng.random() < 0.3:
            b_words[2] = commutator(commutator(a_words[1], b_words[0]), b_words[1])
        seq = PairSequence(a_words, b_words, (a_words[0], b_words[0]))
        rep = check_identities(seq, 2)
        assert rep.eqrel_base == _plain_eqrel(Word.parse("a"), Word.parse("b"))
        assert rep.eqrel_level == _plain_eqrel(a_words[0], b_words[0])
        assert rep.bracket_identity == (
            b_words[2] == commutator(commutator(a_words[1], b_words[0]), b_words[1]))
        assert rep.conjugation_identity == (
            conjugate(a_words[1], b_words[0]) == b_words[1])
        bracket_held += rep.bracket_identity
    assert 0 < bracket_held < 150


@pytest.mark.parametrize("n", [2, 4, 6])
def test_identities_fail_when_b_n_is_swapped_for_a_n(n):
    seq = build(6)
    seq.b_words[n] = seq.a_words[n]
    assert not seq.check_derivation()
    rep = check_identities(seq, n)
    assert not rep.ok
    assert not rep.bracket_identity


def test_a1_b1_product_does_cancel():
    # a_n b_n is deliberately absent from the lemma's eight products:
    # it cancels.
    seq = build(1)
    from lcslab.words import concat
    _, k = concat(seq.a(1), seq.b(1))
    assert k > 0


def test_identities_small_n():
    seq = build(6)
    for n in range(2, 7):
        rep = check_identities(seq, n)
        assert rep.ok, (n, rep)


def test_conjugation_identity_explicit():
    # b_0 a_1 b_0^-1 = b_1: b . BabA . B -> abAB
    seq = build(1)
    from lcslab.words import conjugate
    assert conjugate(seq.a(1), seq.b(0)) == seq.b(1)


def test_derivation_checker():
    seq = build(5)
    assert seq.check_derivation()
    d = seq.derivation(3)
    assert d["b"] == ["comm", "a2", "b2"]


def test_budget_guard():
    with pytest.raises(ValueError):
        build(60)
    with pytest.raises(ValueError):
        build(10, budget_letters=100)
    # level 3 needs 2 * (len a_2 + len b_2) = 2 * (14 + 14) letters
    assert len(build(3, budget_letters=56).b(3)) == 50
    with pytest.raises(BudgetExceeded, match="at level 3"):
        build(3, budget_letters=55)


def test_identities_need_n_at_least_two():
    seq = build(3)
    with pytest.raises(ValueError):
        check_identities(seq, 1)


def test_seed_composition():
    """a_{n+m}(a,b) = a_n(a_m, b_m): the recursion composes under
    substitution, which is what the almost-law module relies on."""
    base = build(4)
    inner = build(1)
    shifted = build(3, seeds=(inner.a(1), inner.b(1)))
    for n in range(4):
        assert shifted.a(n) == base.a(n + 1)
        assert shifted.b(n) == base.b(n + 1)


def test_nontrivial_seed_guard():
    with pytest.raises(ValueError):
        build(2, seeds=(Word.identity(), Word.parse("b")))


def test_mu_value():
    assert abs(MU - 3.5615528128088303) < 1e-12
