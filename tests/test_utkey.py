import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lcslab import search, utkey
from lcslab.construction import build
from lcslab.girth import girth
from lcslab.search import SearchStats, build_oracle, search_mitm, verify_minimum
from lcslab.words import Word, inverse_letter, random_word
from reference import enumerate_words, folded_joins


def _key(w: bytes, x: np.ndarray) -> list:
    keys = np.zeros((1, x.shape[1]), dtype=np.int64)
    for c in w:
        keys = utkey._step(keys, c, x)
    return keys[0].tolist()


def _row0(w: bytes, x: np.ndarray) -> list:
    """Row 0 of the word's matrix in UT(n, F_p), by exact matrix products."""
    n = x.shape[1] + 1
    p = utkey.P
    row = [1] + [0] * (n - 1)
    for c in w:
        xs = [int(v) for v in x[0 if c in b"aA" else 1]]
        # I + X, or its inverse: entry (i, j) of (I + X)^-1 is
        # (-1)^(j-i) x[i]...x[j-1]
        sign = 1 if c in b"ab" else -1
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            prod = 1
            m[i][i] = 1
            for j in range(i + 1, n if sign < 0 else min(i + 2, n)):
                prod = prod * xs[j - 1] * sign
                m[i][j] = prod % p
        row = [sum(row[i] * m[i][j] for i in range(n)) % p for j in range(n)]
    return row[1:]


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 7), st.integers(0, 2 ** 32), st.integers(0, 16))
def test_key_is_row_zero_of_the_matrix_product(n, seed, length):
    w = random_word(random.Random(seed), length).data
    x = utkey.evaluation_point(n)
    assert _key(w, x) == _row0(w, x)


def test_key_is_trivial_exactly_at_depth():
    # b_2 lies at depth exactly 5, [a, b] at depth exactly 2: each key is
    # the empty word's in UT(n) for n up to its depth and differs beyond
    for w, depth in ((build(2).b(2).data, 5), (b"abAB", 2)):
        for n in range(1, depth + 2):
            trivial = _key(w, utkey.evaluation_point(n)) == [0] * (n - 1)
            assert trivial == (n <= depth), (w, n)


def test_levels_hold_every_reduced_word_once():
    levels = utkey.Levels(3)
    x = utkey.evaluation_point(3)
    for k in range(5):
        words, keys = levels.level(k)[:2]
        got = [bytes(row) for row in words]
        assert len(got) == len(set(got))
        assert set(got) == ({w.data for w in enumerate_words(4)
                             if len(w) == k} or {b""})
        for w, key in zip(got, keys.tolist()):
            assert key == _key(w, x)


# the search's join and the re-check's
_PARAMETERS = {
    "search": lambda length: ((length + 1) // 2, b"A", True),
    "recheck": lambda length: (length // 2, b"ABab", False),
}


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("join", sorted(_PARAMETERS))
def test_key_join_agrees_with_the_generic_join(n, join):
    oracle = build_oracle(f"lcs:{n}")
    levels = utkey.Levels(n)
    # the level store on the exact expansion, whose states never collide
    exact = search._Levels(*oracle.key_group())
    stats = SearchStats()
    for length in range(1, 11):
        split, roots, cyclic = _PARAMETERS[join](length)
        joins = levels.joins(length, split, roots, cyclic)
        assert joins == sorted(joins)
        keyed = list(search._confirmed(oracle, joins, stats))
        generic = exact.joins(length, split, roots, cyclic)
        assert len(keyed) == len(set(keyed))
        assert set(keyed) == set(generic), (length, split)
    assert stats.key_collisions == 0


def test_both_stores_join_as_folding_each_word_does():
    # every split the search and the re-check use, on utkey's arrays and
    # on the generic store over lcs:n's exact expansions, against joins
    # made one word at a time; every word is in lcs:1, so there every
    # join keeps pairs, unequal halves included
    by_length = {}
    for w in enumerate_words(10):
        by_length.setdefault(len(w), []).append(w.data)
    for n in range(1, 6):
        oracle = build_oracle(f"lcs:{n}")
        stores = (utkey.Levels(n), search._Levels(*oracle.key_group()))
        members = 0
        for length, words in sorted(by_length.items()):
            for join in sorted(_PARAMETERS):
                split, roots, cyclic = _PARAMETERS[join](length)
                want = folded_joins(oracle.group(), words, split, roots,
                                    cyclic)
                members += len(want)
                for store in stores:
                    got = store.joins(length, split, roots, cyclic)
                    assert got == want, (n, join, length, type(store))
        # alpha(1..3) = 1, 4, 8; alpha(4) and alpha(5) are 14
        assert (members > 0) == (n <= 3)


@pytest.fixture
def zero_point(monkeypatch):
    """The evaluation point at zero: every key equal, every pair a match."""
    monkeypatch.setattr(utkey, "evaluation_point",
                        lambda n: np.zeros((2, n - 1), dtype=np.int64))


def _cyclic_a_words(length):
    return [w.data for w in enumerate_words(length) if len(w) == length
            and w.data[:1] == b"A" and w.data[0] != inverse_letter(w.data[-1])]


def _refuted_before_lcs3_witness():
    """The words search_mitm("lcs:3", ...) joins before its witness when
    every key matches: each is refuted exactly."""
    refuted = sum(len(_cyclic_a_words(L)) for L in (2, 4, 6))
    return refuted + sum(1 for w in _cyclic_a_words(8) if w < b"AABabbaB")


def test_forced_collisions_cost_checks_not_answers(zero_point):
    stats = SearchStats()
    assert search_mitm("lcs:3", 10, stats) == (8, Word.parse("AABabbaB"))
    assert stats.key_collisions == _refuted_before_lcs3_witness()
    # one lookup per row of the right level: lengths 1..4 at L = 2..8
    assert stats.tested == 4 + 12 + 36 + 108


def test_girth_counts_the_recheck_collisions(zero_point):
    found = girth("lcs:3", 10)
    assert (found.value, str(found.witness)) == (8, "AABabbaB")
    # the search's refuted joins, then every reduced word shorter than 8,
    # each joined once by the unpruned re-check and refuted
    assert found.stats.key_collisions == (_refuted_before_lcs3_witness()
                                          + 2 * (3 ** 7 - 1))
    assert found.stats.tested == 4 + 12 + 36 + 108


def test_forced_collisions_recheck_tests_every_shorter_word_once(
        monkeypatch, zero_point):
    joins = utkey.Levels.joins
    log = []

    def recording(self, *args):
        out = joins(self, *args)
        log.extend(out)
        return out

    monkeypatch.setattr(utkey.Levels, "joins", recording)
    stats = SearchStats()
    L = 8
    assert verify_minimum("lcs:3", L, Word.parse("AABabbaB"), stats)
    assert len(log) == len(set(log)) == 2 * (3 ** (L - 1) - 1)
    assert set(log) == {w.data for w in enumerate_words(L - 1)}
    assert stats.key_collisions == len(log)

