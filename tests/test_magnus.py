from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcslab.words import (
    LETTERS,
    Word,
    commutator,
    concat,
    conjugate,
    exponent_sums,
)
from lcslab.construction import build
from lcslab.search import DepthOracle
from lcslab.magnus import (
    Depth,
    NcSeries,
    depth_terms,
    expand,
    fox_derivative,
    fundamental_identity_holds,
    lcs_depth,
    monomial_name,
    ring_add,
    ring_augmentation,
    ring_mul,
)
from reference import letter_series

letter_strings = st.lists(st.sampled_from(list(LETTERS)), max_size=16).map(bytes)
words = letter_strings.map(Word)
small_words = st.lists(st.sampled_from(list(LETTERS)), max_size=8).map(
    lambda ls: Word(bytes(ls)))


def naive_expand(w, D):
    # independent route: generic truncated products of the letter series
    out = NcSeries.one(D)
    for c in w.data:
        out = out * letter_series(c, D)
    return out


def rows_expand(w, D):
    """Reference route in Python ints, one list per degree: rows[d][m] is
    the coefficient of the degree-d monomial m (bits most significant
    first, 1 for X_b), and a letter with bit beta updates rows[d][beta::2]
    from rows[d-1]."""
    rows = [[0] * (1 << d) for d in range(D + 1)]
    rows[0][0] = 1
    for c in w.data:
        beta = c in b"bB"
        if c in b"ab":
            # R = S + S*X_g, descending so rows[d-1] is still the old S
            for d in range(D, 0, -1):
                row, prev = rows[d], rows[d - 1]
                row[beta::2] = [x + y for x, y in zip(row[beta::2], prev)]
        else:
            # T solves T + T*X_g = S, ascending so rows[d-1] is already T
            for d in range(1, D + 1):
                row, prev = rows[d], rows[d - 1]
                row[beta::2] = [x - y for x, y in zip(row[beta::2], prev)]
    return rows


def test_letter_series_generator():
    s = letter_series(ord("a"), 3)
    assert sorted(s.terms()) == [(0, 0, 1), (1, 0, 1)]
    t = letter_series(ord("b"), 2)
    assert sorted(t.terms()) == [(0, 0, 1), (1, 1, 1)]


def test_letter_series_inverse_is_alternating_geometric():
    s = letter_series(ord("A"), 3)
    # 1 - X_a + X_a^2 - X_a^3
    assert sorted(s.terms()) == [(0, 0, 1), (1, 0, -1), (2, 0, 1), (3, 0, -1)]
    b = letter_series(ord("B"), 2)
    assert sorted(b.terms()) == [(0, 0, 1), (1, 1, -1), (2, 3, 1)]


def test_letter_times_inverse_is_one():
    one = NcSeries.one(5)
    assert letter_series(ord("a"), 5) * letter_series(ord("A"), 5) == one
    assert letter_series(ord("B"), 5) * letter_series(ord("b"), 5) == one


def test_expand_commutator_degree_two():
    s = expand(Word.parse("abAB"), 2)
    # 1 + X_aX_b - X_bX_a
    assert sorted(s.terms()) == [(0, 0, 1), (2, 1, 1), (2, 2, -1)]


def test_expand_commutator_degree_three():
    s = expand(Word.parse("abAB"), 3)
    assert sorted(s.terms()) == [
        (0, 0, 1), (2, 1, 1), (2, 2, -1),
        (3, 2, -1), (3, 3, -1), (3, 4, 1), (3, 5, 1)]


def test_expand_square():
    s = expand(Word.parse("aa"), 2)
    assert sorted(s.terms()) == [(0, 0, 1), (1, 0, 2), (2, 0, 1)]


def test_monomial_name():
    assert monomial_name(0, 0) == ""
    assert monomial_name(2, 1) == "ab"
    assert monomial_name(2, 2) == "ba"
    assert monomial_name(3, 5) == "bab"


def test_identity_expands_to_one():
    assert expand(Word.identity(), 4) == NcSeries.one(4)
    assert expand(Word.parse("aAbB"), 4) == NcSeries.one(4)


@settings(max_examples=60, deadline=None)
@given(words)
def test_expand_matches_generic_product_route(w):
    D = 4
    assert expand(w, D) == naive_expand(w, D)


@pytest.mark.parametrize("word, D, dtype, corner", [
    # true max |coef| stays small: the guard re-measures and keeps int64
    (build(4).b(4), 16, np.int64, 0),
    # the coefficient of X_a^12 is C(300, 12) > 2^62: Python ints
    (Word.parse("a" * 300 + "b" * 300), 12, object, comb(300, 12)),
    # (1 + X_a)^-300 has X_a^12 coefficient C(311, 12)
    (Word.parse("A" * 300 + "B" * 300), 12, object, comb(311, 12)),
], ids=["b4-D16", "a300b300-D12", "A300B300-D12"])
def test_expand_matches_row_reference(word, D, dtype, corner):
    # long words, where int64 could overflow: the generic product route
    # costs seconds per word here, so the reference is the list-of-rows
    # update in Python ints
    series = expand(word, D)
    assert series.coeffs.dtype == dtype
    assert series.rows == rows_expand(word, D)
    assert series.coefficient(D, 0) == corner


@settings(max_examples=60, deadline=None)
@given(words, st.integers(1, 6))
def test_lcs_depth_matches_full_expansion(w, D):
    # lcs_depth reads depth 1 off the exponent sums without expanding
    d = expand(w, D).min_positive_degree()
    expected = (Depth.infinite() if not w else
                Depth.at_least(D + 1) if d is None else Depth.exact(d))
    assert lcs_depth(w, D) == expected


@settings(max_examples=60, deadline=None)
@given(small_words, small_words)
def test_expand_is_a_homomorphism(u, v):
    D = 4
    uv, _ = concat(u, v)
    assert expand(uv, D) == expand(u, D) * expand(v, D)


def test_truncation_guard():
    with pytest.raises(ValueError):
        expand(Word.parse("a"), 0)
    with pytest.raises(ValueError):
        lcs_depth(Word.parse("a"), 23)
    # the identity's depth is known without expanding, but the degree
    # is still checked
    with pytest.raises(ValueError):
        lcs_depth(Word.identity(), 0)
    with pytest.raises(ValueError):
        depth_terms(Word.identity(), 23)


# ----------------------------------------------------------------------
# depth

def test_depth_identity_infinite():
    d = lcs_depth(Word.identity(), 5)
    assert d == Depth.infinite()
    assert d.lower_bound() == float("inf")


def test_depth_generators_and_commutator():
    assert lcs_depth(Word.parse("a"), 5) == Depth.exact(1)
    assert lcs_depth(Word.parse("aabb"), 5) == Depth.exact(1)
    assert lcs_depth(Word.parse("abAB"), 5) == Depth.exact(2)
    assert lcs_depth(Word.parse("aabAAB"), 5) == Depth.exact(2)


def test_depth_of_recursive_family():
    seq = build(4)
    # exact depths 1, 2, 5, 12 for both families; level 4 exceeds D=13
    expected = [1, 2, 5, 12]
    for n, d in enumerate(expected):
        assert lcs_depth(seq.a(n), 13) == Depth.exact(d)
        assert lcs_depth(seq.b(n), 13) == Depth.exact(d)
    assert lcs_depth(seq.a(4), 13) == Depth.at_least(14)
    assert lcs_depth(seq.b(4), 13) == Depth.at_least(14)


def test_depth_recurrence_on_family():
    # measured exact depths obey d_n = 2 d_{n-1} + d_{n-2}, with equality
    d = [1, 2, 5, 12]
    for n in (2, 3):
        assert d[n] == 2 * d[n - 1] + d[n - 2]


def test_depth_terms_of_b2():
    seq = build(2)
    dep, terms = depth_terms(seq.b(2), 13)
    assert dep == Depth.exact(5)
    assert terms == [
        ("ababb", -1), ("abbab", 3), ("abbba", -2), ("baabb", 1),
        ("babab", -4), ("babba", 3), ("bbaab", 1), ("bbaba", -1)]


def test_depth_terms_count_of_b3():
    seq = build(3)
    dep, terms = depth_terms(seq.b(3), 13)
    assert dep == Depth.exact(12)
    assert len(terms) == 192


@settings(max_examples=40, deadline=None)
@given(small_words, small_words)
def test_depth_subadditive_under_product(u, v):
    D = 5
    bound = min(lcs_depth(u, D).lower_bound(),
                lcs_depth(v, D).lower_bound(), D + 1)
    uv, _ = concat(u, v)
    assert lcs_depth(uv, D).lower_bound() >= bound


@settings(max_examples=40, deadline=None)
@given(small_words, small_words)
def test_depth_superadditive_under_commutator(u, v):
    D = 5
    lu = lcs_depth(u, D).lower_bound()
    lv = lcs_depth(v, D).lower_bound()
    bound = min(lu + lv, D + 1)
    assert lcs_depth(commutator(u, v), D).lower_bound() >= bound


@settings(max_examples=40, deadline=None)
@given(small_words, small_words)
def test_depth_invariant_under_conjugation(u, v):
    D = 5
    assert lcs_depth(conjugate(u, v), D) == lcs_depth(u, D)


def test_depth_str():
    assert str(Depth.exact(3)) == "=3"
    assert str(Depth.at_least(14)) == ">=14"
    assert str(Depth.infinite()) == "inf"


# ----------------------------------------------------------------------
# incremental walker (the depth oracle's stack of Magnus states)

def test_walker_tracks_expand():
    w = build(2).b(2)  # depth exactly 5
    walkers = {n: DepthOracle(n).make_walker() for n in (5, 6, 7)}
    for c in w.data:
        for walker in walkers.values():
            walker.push(c)
    assert walkers[7].state() == expand(w, 6).coeffs.tolist()
    assert walkers[5].is_member() and not walkers[6].is_member()


@settings(max_examples=30, deadline=None)
@given(letter_strings, st.integers(0, 16))
def test_walker_push_pop_roundtrip(letters, cut):
    walker = DepthOracle(5).make_walker()
    for c in letters:
        walker.push(c)
    for c in reversed(letters[cut:]):
        walker.pop(c)
    state = walker.state()
    assert len(walker.stack) == len(letters[:cut]) + 1
    assert state == naive_expand(Word(letters[:cut]), 4).coeffs.tolist()


# ----------------------------------------------------------------------
# Fox derivatives

def test_fox_single_letters():
    e = Word.identity()
    assert fox_derivative(Word.parse("a"), "a") == {e: 1}
    assert fox_derivative(Word.parse("A"), "a") == {Word.parse("A"): -1}
    assert fox_derivative(Word.parse("b"), "a") == {}
    assert fox_derivative(Word.parse("aa"), "a") == {e: 1, Word.parse("a"): 1}


def test_fox_commutator():
    w = Word.parse("abAB")
    assert fox_derivative(w, "a") == {Word.identity(): 1, Word.parse("abA"): -1}
    assert fox_derivative(w, "b") == {Word.parse("a"): 1, w: -1}


def test_fox_rejects_bad_generator():
    with pytest.raises(ValueError):
        fox_derivative(Word.parse("a"), "c")


@settings(max_examples=60, deadline=None)
@given(words)
def test_fox_augmentation_is_exponent_sum(w):
    ea, eb = exponent_sums(w)
    assert ring_augmentation(fox_derivative(w, "a")) == ea
    assert ring_augmentation(fox_derivative(w, "b")) == eb


@settings(max_examples=60, deadline=None)
@given(words)
def test_fox_fundamental_identity(w):
    assert fundamental_identity_holds(w)


@settings(max_examples=40, deadline=None)
@given(small_words, small_words)
def test_fox_product_rule(u, v):
    # d(uv) = du + u . dv
    uv, _ = concat(u, v)
    for gen in ("a", "b"):
        lhs = fox_derivative(uv, gen)
        rhs = ring_add(fox_derivative(u, gen),
                       ring_mul({u: 1}, fox_derivative(v, gen)))
        assert lhs == rhs


def test_ring_mul_cancels():
    a = Word.parse("a")
    p = {a: 1, Word.identity(): -1}
    q = {~a: 1}
    assert ring_mul(p, q) == {Word.identity(): 1, ~a: -1}
