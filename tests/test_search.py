from functools import reduce
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings, strategies as st

from lcslab import search
from lcslab.almostlaw import _a5_block_spec, seed_pool_obstruction
from lcslab.battery import matches_printed, quotient_tables, report_constants
from lcslab.construction import build
from lcslab.words import (LETTERS, Word, exponent_sums, inverse_bytes,
                          inverse_letter, is_reduced)
from lcslab.search import (
    AUTO_TABLES,
    DepthOracle,
    DerivedKernelOracle,
    NotFoundBelow,
    NotFoundBelowError,
    SearchFlags,
    SearchStats,
    SearchSpec,
    ZeroSumKernelOracle,
    alpha,
    alpha_table,
    build_oracle,
    canonical_bytes,
    check_alpha_table,
    engine_flags,
    orbit_words,
    search_min,
    search_mitm,
    verify_minimum,
)
from lcslab.magnus import expand, lcs_depth
from lcslab.girth import GirthResult, beta_bracket, girth, verify_three_x
from lcslab.quotients import cycles_string, parse_quotient_spec
from reference import (enumerate_words, image, in_derived_lambda, in_lambda,
                       project_fox)


def test_enumeration_counts_unpruned():
    # 4 * 3^(L-1) reduced words of each length
    per_len = {}
    for w in enumerate_words(4):
        per_len[len(w)] = per_len.get(len(w), 0) + 1
    assert per_len == {1: 4, 2: 12, 3: 36, 4: 108}


def test_enumeration_yields_reduced_in_order():
    seen = list(enumerate_words(3))
    assert all(is_reduced(w.data) for w in seen)
    lengths = [len(w) for w in seen]
    assert lengths == sorted(lengths)
    assert len(set(seen)) == len(seen)


def test_pruned_classes_cover_everything():
    flags = SearchFlags(cyclic=True, inverse=True)
    reps = [w for w in enumerate_words(3, flags) if len(w) == 3]
    assert len(reps) < 36
    union = set()
    for w in reps:
        assert w.data == canonical_bytes(w.data, flags)
        union |= orbit_words(w.data, flags)
    assert union == {w.data for w in enumerate_words(3) if len(w) == 3}


def test_full_pruning_also_covers():
    flags = SearchFlags(cyclic=True, inverse=True, automorphism=True)
    union = set()
    for w in enumerate_words(4, flags):
        union |= {u for u in orbit_words(w.data, flags) if len(u) == len(w)}
    assert union == {w.data for w in enumerate_words(4)}


def test_automorphism_tables_are_free_automorphisms():
    assert len(set(AUTO_TABLES)) == 8
    w = b"abAB"
    for t in AUTO_TABLES:
        img = w.translate(t)
        assert is_reduced(img)
        # inversion commutes with every letter automorphism
        assert inverse_bytes(img) == inverse_bytes(w).translate(t)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.sampled_from(list(LETTERS)), min_size=1, max_size=10))
def test_canonical_is_orbit_minimum_and_idempotent(letters):
    w = Word(bytes(letters))
    if not w:
        return
    flags = SearchFlags(cyclic=True, inverse=True, automorphism=True)
    c = canonical_bytes(w.data, flags)
    orb = orbit_words(w.data, flags)
    assert c == min(orb)
    assert canonical_bytes(c, flags) == c
    assert orbit_words(c, flags) == orb


def test_small_girths():
    g = girth("z2", 6)
    assert isinstance(g, GirthResult)
    assert g.value == 4
    assert str(g.witness) == "ABab"

    g = girth("perm:a=(1 2);b=(2 3)", 6)
    assert g.value == 2 and str(g.witness) == "AA"

    g = girth("perm:a=(1 2)(3 4);b=(1 3)(2 4)", 6)
    assert g.value == 2


def test_not_found_below_is_explicit():
    out = girth("derived2", 6)
    assert out == NotFoundBelow(6)


def test_pruned_and_unpruned_minima_agree():
    for oid, bound in (("z2", 8), ("lcs:2", 8), ("lcs:3", 8),
                       ("derived-perm:a=(1 2);b=(2 3)", 8)):
        pruned = girth(oid, bound, reverify=False)
        plain, _ = search_min(SearchSpec(oid, bound, SearchFlags()))
        assert (isinstance(pruned, NotFoundBelow)
                == isinstance(plain, NotFoundBelow))
        if isinstance(pruned, GirthResult):
            length, witness = plain
            assert pruned.value == length
            flags = engine_flags(build_oracle(oid))
            assert canonical_bytes(witness.data, flags) == pruned.witness.data


def test_search_outcome_and_count_are_pinned():
    for oid, max_len, outcome, tested in (
            ("derived-perm:a=(1 2);b=(2 3)", 8, (8, "AABBaabb"), 248),
            ("zerosum-perm:a=(1 2 3);b=(1 2)(3 4)", 10, (6, "ABBabb"), 32)):
        spec = SearchSpec(oid, max_len, engine_flags(build_oracle(oid)))
        out, stats = search_min(spec)
        assert (out[0], str(out[1])) == outcome
        assert stats.tested == tested


@pytest.mark.parametrize("oid,automorphism", [
    ("z2", True), ("derived2", True), ("lcs:3", True),
    ("perm:a=(1 2);b=(2 3)", False),
    ("derived-perm:a=(1 2);b=(2 3)", False),
    ("zerosum-perm:a=(1 2 3);b=(1 2)(3 4)", False)])
def test_engine_flags_are_pinned(oid, automorphism):
    # every oracle decides a normal subgroup, so the cyclic and inverse
    # prunes always hold; the DFS pins here and in the benchmark rest on
    # these flags
    assert engine_flags(build_oracle(oid)) == SearchFlags(
        cyclic=True, inverse=True, automorphism=automorphism)


def test_alpha_small_values():
    assert alpha(1, 4, 1).value == 1
    e2 = alpha(2, 6, 2)
    assert e2.value == 4 and str(e2.witness) == "ABab"
    e3 = alpha(3, 10, 3)
    assert e3.value == 8
    assert verify_minimum("lcs:3", 8, e3.witness)


def test_alpha_6_is_pinned():
    # the square-root search on UT(6, F_p) keys, re-checked inside alpha
    e6 = alpha(6, 22, 6)
    assert (e6.value, str(e6.witness)) == (22, "AAABaabABAbaaaBAAbaBab")
    assert e6.key_collisions == 0


@pytest.mark.parametrize("n,cap", [(2, 14), (3, 14), (4, 14), (5, 12),
                                   (6, 12)])
def test_alpha_is_the_girth_of_lcs_n(n, cap):
    # the benchmark's depth-search queries: alpha(5) = 14 and alpha(6) = 22
    # lie beyond the cap of 12
    found = girth(f"lcs:{n}", cap)
    assert isinstance(found, NotFoundBelow) == (n >= 5)
    if isinstance(found, NotFoundBelow):
        with pytest.raises(NotFoundBelowError) as raised:
            alpha(n, cap, n)
        assert raised.value.bound == found.bound == cap
        return
    entry = alpha(n, cap, n)
    assert (entry.value, entry.witness, entry.key_collisions) == (
        found.value, found.witness, found.stats.key_collisions)


def test_alpha_requires_degree_at_least_n():
    with pytest.raises(ValueError):
        alpha(3, 8, 2)


def test_alpha_not_found_raises():
    with pytest.raises(NotFoundBelowError):
        alpha(3, 6, 3)


def test_alpha_table_consistency():
    table = alpha_table(3, 10)
    assert [e.value for e in table] == [1, 4, 8]
    check_alpha_table(table)


def test_alpha_table_checks_fire():
    from lcslab.search import AlphaEntry
    w = Word.parse("A")
    # a minimum below n is impossible: depth(w) <= len(w)
    bad = [AlphaEntry(1, 1, w), AlphaEntry(3, 2, w)]
    with pytest.raises(AssertionError):
        check_alpha_table(bad)
    # the sequence is nondecreasing in n
    bad = [AlphaEntry(1, 4, w), AlphaEntry(2, 3, w)]
    with pytest.raises(AssertionError):
        check_alpha_table(bad)


def test_matches_printed():
    assert matches_printed(1.23456789, "1.2345")   # truncation
    assert matches_printed(1.23456789, "1.2346")   # rounding
    assert not matches_printed(1.23456789, "1.2344")
    assert not matches_printed(1.23456789, "1.2347")
    assert matches_printed(2.0, "2.00")
    with pytest.raises(ValueError):
        matches_printed(1.0, "12345")


def test_constants_closed_forms():
    c = report_constants()
    assert f"{c['mu']:.12f}" == "3.561552812809"
    assert f"{c['nu']:.12f}" == "1.441155773039"
    assert f"{c['delta']:.12f}" == "0.693887516331"
    assert f"{c['log2_3']:.12f}" == "1.584962500721"
    assert f"{c['log2_mu']:.12f}" == "1.832506383580"
    # nu and delta are reciprocal by definition
    assert abs(c["nu"] * c["delta"] - 1.0) < 1e-12
    # mu is the larger root of x^2 = 3x + 2
    assert abs(c["mu"] ** 2 - (3 * c["mu"] + 2)) < 1e-12


def test_quotient_tables_relation():
    entries = alpha_table(2, 6)
    doc = quotient_tables(entries, {0: 1, 1: 4})
    rel = {r["n"]: r for r in doc["alpha_vs_beta"]}
    assert rel[0]["ok"] and rel[1]["ok"]
    assert all(row["quotient"] is None or row["quotient"] >= 1.0
               for row in doc["alpha"])


def test_verify_three_x_small_quotients():
    for kernel, g1_want in (("perm:a=(1 2);b=(2 3)", 2), (KLEIN_KERNEL, 2)):
        rep = verify_three_x(kernel, max_len=8)
        assert rep.kernel_girth.value == g1_want
        assert rep.factor_ok is True
        assert rep.derived_lower >= 3 * g1_want


def test_verify_three_x_inconclusive_band():
    # bound too small to finish the derived search but big enough to
    # certify the 3x factor from the exhausted lengths
    rep = verify_three_x("perm:a=(1 2);b=(2 3)", max_len=7)
    assert rep.derived_girth == NotFoundBelow(7)
    assert rep.derived_lower == 8
    assert rep.factor_ok is True


def test_beta_bracket_trivial_levels():
    b0 = beta_bracket(0)
    assert (b0.lower, b0.upper, b0.exact) == (1, 1, 1)
    b1 = beta_bracket(1)
    assert b1.exact == 4 and b1.lower == 3 and b1.upper == 4
    b3 = beta_bracket(3)
    assert b3.exact is None
    assert (b3.lower, b3.upper) == (27, 50)


def test_girth_validates_bad_args():
    with pytest.raises(ValueError):
        girth("z2", 0)
    with pytest.raises(ValueError):
        build_oracle("bogus")


# ----------------------------------------------------------------------
# the independent re-check

S3_KERNEL = "perm:a=(1 2);b=(1 2 3)"
KLEIN_KERNEL = "perm:a=(1 2)(3 4);b=(1 3)(2 4)"
# oracle id -> membership decided from scratch (no walker): Fox
# derivatives projected to the quotient, or a fresh truncated expansion
BRUTE_FORCE = {
    "lcs:2": lambda w: lcs_depth(w, 1).lower_bound() >= 2,
    "lcs:3": lambda w: lcs_depth(w, 2).lower_bound() >= 3,
    "z2": lambda w: in_lambda(w, parse_quotient_spec("z2")),
    "derived2": lambda w: in_derived_lambda(w, parse_quotient_spec("z2")),
    S3_KERNEL: lambda w: in_lambda(w, parse_quotient_spec(S3_KERNEL)),
    KLEIN_KERNEL: lambda w: in_lambda(w, parse_quotient_spec(KLEIN_KERNEL)),
    "derived-" + S3_KERNEL:
        lambda w: in_derived_lambda(w, parse_quotient_spec(S3_KERNEL)),
    "derived-" + KLEIN_KERNEL:
        lambda w: in_derived_lambda(w, parse_quotient_spec(KLEIN_KERNEL)),
    "zerosum-" + S3_KERNEL:
        lambda w: (in_lambda(w, parse_quotient_spec(S3_KERNEL))
                   and exponent_sums(w) == (0, 0)),
    "lcs:4": lambda w: lcs_depth(w, 3).lower_bound() >= 4,
}


def _fresh_state(oracle, w: Word):
    """The walker state of w, computed from scratch."""
    if isinstance(oracle, DepthOracle):
        return expand(w, oracle.n - 1).tolist()
    q = oracle.q
    if isinstance(oracle, DerivedKernelOracle):
        return image(w, q), project_fox(w, q, "a"), project_fox(w, q, "b")
    if isinstance(oracle, ZeroSumKernelOracle):
        return (*exponent_sums(w), image(w, q))
    return image(w, q)


# b_2 lies at depth 5 and in derived2: push it, pop three letters, push
# them back
_B2 = [LETTERS.index(c) for c in build(2).b(2).data]


@settings(max_examples=40, deadline=None)
@example(_B2 + [-1] * 3 + _B2[-3:])
@given(st.lists(st.integers(-1, 3), max_size=30))
def test_walker_tracks_every_prefix(ops):
    # -1 pops, 0..3 pushes LETTERS[op] unless it would cancel
    for oid in sorted(BRUTE_FORCE):
        oracle = build_oracle(oid)
        walker = oracle.make_walker()
        path = bytearray()
        for op in ops:
            if op < 0:
                if path:
                    walker.pop(path.pop())
            elif not path or LETTERS[op] != inverse_letter(path[-1]):
                path.append(LETTERS[op])
                walker.push(LETTERS[op])
            w = Word.from_reduced(bytes(path))
            assert walker.state() == _fresh_state(oracle, w), (oid, w)
            assert walker.is_member() == (len(w) > 0
                                          and BRUTE_FORCE[oid](w)), (oid, w)


def _counted(step, counts):
    """step, counting its calls in counts["steps"]."""
    def counting_step(state, letter):
        counts["steps"] += 1
        return step(state, letter)
    return counting_step


# ops: -1 pops, -2 tests membership, -3 reads the state, 0..3 push
# LETTERS[op] unless it would cancel
@settings(max_examples=40, deadline=None)
@example([0, 2, -2, -1, -3])     # is_member on a pending leaf, then pop
@example([0, 2, -1, 3, -1, -3])  # pops of letters never read
@example([0, 2, -2, 0, -2, -3])  # a push right after is_member
@given(st.lists(st.integers(-3, 3), max_size=30))
def test_deferred_walker_matches_fresh_evaluation(ops):
    # every op in any order answers as fresh evaluation does, and each
    # pushed letter is stepped at most once: when a push, is_member or
    # state() first reads its state, never when it is popped unread
    for oid in sorted(BRUTE_FORCE):
        oracle = build_oracle(oid)
        walker = oracle.make_walker()
        counts = {"steps": 0}
        walker.step = _counted(walker.step, counts)
        path = bytearray()
        steps = 0
        unread = False  # the top letter's state has not been read yet
        for op in ops:
            w = Word.from_reduced(bytes(path))
            if op == -1:
                if path:
                    walker.pop(path.pop())
                    unread = False
            elif op == -2:
                member = len(w) > 0 and BRUTE_FORCE[oid](w)
                assert walker.is_member() == member, (oid, w)
                steps += unread
                unread = False
            elif op == -3:
                assert walker.state() == _fresh_state(oracle, w), (oid, w)
                steps += unread
                unread = False
            elif not path or LETTERS[op] != inverse_letter(path[-1]):
                path.append(LETTERS[op])
                walker.push(LETTERS[op])
                steps += unread
                unread = True
            assert counts["steps"] == steps, (oid, ops)


@pytest.mark.parametrize("oid", sorted(BRUTE_FORCE))
def test_verify_minimum_agrees_with_brute_force(oid):
    members, others = {}, {}
    for w in enumerate_words(8):
        (members if BRUTE_FORCE[oid](w) else others).setdefault(len(w), w)
    shortest = min(members, default=None)
    for L in range(1, 9):
        if L in members:
            assert verify_minimum(oid, L, members[L]) == (L == shortest)
        if L in others:
            assert not verify_minimum(oid, L, others[L])


def test_verify_minimum_rejections():
    oid = "derived-" + S3_KERNEL
    witness = Word.parse("AABABaabab")
    assert verify_minimum(oid, 10, witness)
    # a member, but not a shortest one
    longer = Word.parse("BAABABaababb")
    assert BRUTE_FORCE[oid](longer)
    assert not verify_minimum(oid, 12, longer)
    # a non-member, and a wrong claimed length
    assert not verify_minimum(oid, 4, Word.parse("ABab"))
    assert not verify_minimum(oid, 11, witness)
    assert not verify_minimum(oid, 9, witness)


def _constant_key(monkeypatch, cls):
    """Patch cls.key_group so every word has the same key state: every
    join the meet in the middle makes is then a match, confirmed on its
    exact state."""
    monkeypatch.setattr(cls, "key_group",
                        lambda self: (0, lambda state, letter: 0))


@pytest.mark.parametrize("oid,witness", [
    ("z2", "ABab"), ("derived-" + KLEIN_KERNEL, "AABBaabb")])
def test_verify_minimum_tests_every_shorter_word_once(monkeypatch, oid,
                                                      witness):
    _constant_key(monkeypatch, type(build_oracle(oid)))
    joins = search._Levels.joins
    log = []

    def recording(self, *args):
        out = joins(self, *args)
        log.extend(out)  # every word the join tests
        return out

    monkeypatch.setattr(search._Levels, "joins", recording)
    stats = SearchStats()
    L = len(witness)
    assert verify_minimum(oid, L, Word.parse(witness), stats)
    assert len(log) == len(set(log)) == 2 * (3 ** (L - 1) - 1)
    assert set(log) == {w.data for w in enumerate_words(L - 1)}
    for d in range(1, L):
        assert sum(1 for w in log if len(w) == d) == 4 * 3 ** (d - 1)
    # no shorter word is a member, so the exact state refutes each one
    assert stats.key_collisions == len(log)


def test_pruned_join_makes_each_cyclic_a_word_once(monkeypatch):
    # the search's join: words starting with 'A', cyclically reduced
    oracle = build_oracle("lcs:3")
    _constant_key(monkeypatch, DepthOracle)
    levels = search._Levels(*oracle.key_group())
    for length in range(1, 9):
        joined = levels.joins(length, (length + 1) // 2, b"A", cyclic=True)
        assert joined == sorted(joined)
        want = {w.data for w in enumerate_words(length)
                if len(w) == length and w.data[:1] == b"A"
                and (length == 1 or w.data[0] != inverse_letter(w.data[-1]))}
        assert len(joined) == len(set(joined))
        assert set(joined) == want, length


# ----------------------------------------------------------------------
# the square-root search

SHARED_LEN = 8
_PERMS = st.permutations(range(4)).map(cycles_string)
# the oracle kinds of BRUTE_FORCE, on named and on random permutation pairs
_ORACLE_IDS = st.one_of(
    st.sampled_from(sorted(BRUTE_FORCE)),
    st.builds(lambda kind, a, b: f"{kind}perm:a={a};b={b}",
              st.sampled_from(["", "derived-", "zerosum-"]), _PERMS, _PERMS))


@settings(max_examples=60, deadline=None)
@given(_ORACLE_IDS, st.integers(1, SHARED_LEN))
def test_square_root_search_agrees_with_dfs(oid, max_len):
    oracle = build_oracle(oid)
    dfs, _ = search_min(SearchSpec(oid, max_len, engine_flags(oracle)))
    assert search_mitm(oid, max_len) == dfs


# every named kind at the shared length, whatever hypothesis draws
for _oid in sorted(BRUTE_FORCE):
    test_square_root_search_agrees_with_dfs = example(_oid, SHARED_LEN)(
        test_square_root_search_agrees_with_dfs)


@pytest.mark.parametrize("oid", [
    "derived-perm:a=(1 2);b=(1 2 3)",
    "derived-perm:a=(1 2);b=(3 4 5)",
    "derived-perm:a=(1 2 3);b=(1 2)",
])
def test_girth_agrees_with_dfs_at_length_14(oid):
    dfs, _ = search_min(SearchSpec(oid, 14, engine_flags(build_oracle(oid))))
    assert girth(oid, 14) == GirthResult(*dfs)


@pytest.mark.parametrize("oid", sorted(BRUTE_FORCE))
def test_group_keys_are_equal_exactly_when_states_are(oid):
    # word to state is a homomorphism whose kernel is the oracle's
    # subgroup, so == on states decides u = v modulo it
    identity, step = build_oracle(oid).group()
    words = [Word.parse("")] + list(enumerate_words(4))
    states = [reduce(step, w.data, identity) for w in words]
    member = {}
    for u, su in zip(words, states):
        for v, sv in zip(words, states):
            w = u * ~v
            if w not in member:
                member[w] = not w or BRUTE_FORCE[oid](w)
            assert (su == sv) == member[w], (u, v)


@pytest.mark.parametrize("oid", ["z2", "derived2", "zerosum-" + S3_KERNEL])
def test_store_levels_are_the_reduced_words_in_byte_order(oid):
    identity, step = build_oracle(oid).key_group()
    levels = search._Levels(identity, step)
    for k in range(7):
        words, states = levels.level(k)
        assert words == ([w.data for w in enumerate_words(6) if len(w) == k]
                         or [b""])
        assert states == [reduce(step, w, identity) for w in words]


@pytest.mark.parametrize("oid", [
    "derived2", "derived-" + S3_KERNEL, "derived-" + KLEIN_KERNEL])
def test_hashed_keys_group_words_as_exact_keys_do(oid):
    oracle = build_oracle(oid)
    hashed = search._Levels(*oracle.key_group())
    exact = search._Levels(*oracle.group())
    pairs = []
    for k in range(7):
        words, keys = hashed.level(k)
        assert exact.level(k)[0] == words
        # an exact state's Fox derivatives are dicts: frozen to hash them
        pairs += zip(keys, [(p, frozenset(da.items()), frozenset(db.items()))
                            for p, da, db in exact.level(k)[1]])
    # one class of equal hashed keys per class of equal exact keys: u and
    # v share a state when u v^-1 is a member, which the derived S3 and
    # Klein subgroups have at length 10 and 8, derived2 only at 14
    classes = len(set(pairs))
    assert classes == len({h for h, _ in pairs}) == len({e for _, e in pairs})
    assert (classes < len(pairs)) == (oid != "derived2")


@pytest.mark.parametrize("oid,max_len", [
    ("derived2", 12), ("derived2", 14), ("derived-" + S3_KERNEL, 12),
    ("derived-" + KLEIN_KERNEL, 10)])
def test_forced_key_collisions_leave_girth_unchanged(monkeypatch, oid,
                                                      max_len):
    before = girth(oid, max_len)
    # every weight r = 0: a derived key is then the image alone
    monkeypatch.setattr(search, "Random",
                        lambda seed: SimpleNamespace(randrange=lambda n: 0))
    found = girth(oid, max_len)
    assert found == before
    assert found.stats.tested == before.stats.tested
    assert before.stats.key_collisions == 0 < found.stats.key_collisions


def test_forced_key_collisions_are_counted(monkeypatch):
    monkeypatch.setattr(search, "Random",
                        lambda seed: SimpleNamespace(randrange=lambda n: 0))
    oid = "derived-" + KLEIN_KERNEL
    found = girth(oid, 10)
    assert found == GirthResult(8, Word.parse("AABBaabb"))
    # every Klein kernel word a join makes is a key match, and each one
    # outside the derived subgroup is refuted: the search's cyclically
    # reduced ones of even length before the witness, then the re-check's
    # shorter than it
    kernel = [w.data for w in enumerate_words(8) if BRUTE_FORCE[KLEIN_KERNEL](w)]
    searched = [w for w in kernel if w[0] != inverse_letter(w[-1])
                and (len(w) < 8 or w < b"AABBaabb")]
    rechecked = [w for w in kernel if len(w) < 8]
    assert found.stats.key_collisions == len(searched) + len(rechecked) == 1070


# ----------------------------------------------------------------------
# the depth-first tree: pushes and leaf tests, pinned

class _CountingWalker:
    """Counts the pushes and leaf tests the engine makes on a walker."""

    def __init__(self, inner, counts):
        self.inner, self.counts = inner, counts

    def push(self, letter):
        self.counts["pushes"] += 1
        self.inner.push(letter)

    def pop(self, letter):
        self.inner.pop(letter)

    def is_member(self):
        self.counts["leaves"] += 1
        return self.inner.is_member()


def _count_walkers(monkeypatch, oracle_class):
    counts = {"pushes": 0, "leaves": 0, "steps": 0}
    make_walker = oracle_class.make_walker

    def counting_walker(self):
        inner = make_walker(self)
        inner.step = _counted(inner.step, counts)
        return _CountingWalker(inner, counts)

    monkeypatch.setattr(oracle_class, "make_walker", counting_walker)
    return counts


def test_dfs_tree_is_pinned_on_derived2(monkeypatch):
    # every child is pushed before the balance prune may cut it, and every
    # leaf that survives the prune is tested once
    counts = _count_walkers(monkeypatch, DerivedKernelOracle)
    spec = SearchSpec("derived2", 14, engine_flags(build_oracle("derived2")))
    out, stats = search_min(spec)
    assert out == (14, Word.parse("AABabaBAAbaBab"))
    assert stats.tested == counts["leaves"] == 27164
    assert counts["pushes"] == 375339
    # a state is stepped only when it is extended or tested, so a child
    # the balance prune cuts costs none
    assert counts["steps"] == 166504
    # girth meets in the middle on the same query: the DFS outcome, and
    # not one walker push
    before = dict(counts)
    assert girth("derived2", 14) == GirthResult(*out)
    assert counts == before


def _obstruction_spec(max_len):
    oid = "zerosum-" + _a5_block_spec()
    flags = SearchFlags(cyclic=True, inverse=True, automorphism=False)
    assert flags == engine_flags(build_oracle(oid))
    return SearchSpec(oid, max_len, flags)


def test_dfs_tree_is_pinned_on_the_obstruction(monkeypatch):
    counts = _count_walkers(monkeypatch, ZeroSumKernelOracle)
    out, stats = search_min(_obstruction_spec(12))
    assert out == NotFoundBelow(12)
    assert stats.tested == counts["leaves"] == 13848
    assert counts["pushes"] == 193868
    assert counts["steps"] == 85932
    # the obstruction meets in the middle: the same outcome, a tested
    # count equal to the depth-first leaves, and not one walker push
    before = dict(counts)
    obs = seed_pool_obstruction(12)
    assert (obs.outcome, obs.stats.tested) == (out, stats.tested)
    assert counts == before


@pytest.mark.parametrize("max_len", range(1, 11))
def test_obstruction_counts_the_search_min_leaves(max_len):
    # every cyclically reduced zero-sum word, counted from scratch
    words = sum(1 for w in enumerate_words(max_len, SearchFlags())
                if exponent_sums(w) == (0, 0)
                and w.data[0] != inverse_letter(w.data[-1]))
    out, stats = search_min(_obstruction_spec(max_len))
    obs = seed_pool_obstruction(max_len)
    assert obs.outcome == out == NotFoundBelow(max_len)
    assert obs.stats.tested == stats.tested == words


# ----------------------------------------------------------------------
# unpruned search

def test_unpruned_search_tests_every_word():
    pruned = girth("z2", 6, reverify=False)
    plain, stats = search_min(SearchSpec("z2", 6, SearchFlags()))
    assert pruned.value == plain[0] == 4
    # every reduced word of length 1..4, odd lengths included
    assert stats.tested == 2 * (3 ** 4 - 1)
    # the square-root search looks up the right halves of the even
    # lengths only, split after ceil(L/2) letters: 4 at length 2, 12 at 4
    assert pruned.stats.tested == 4 + 12


def test_flagless_search_is_unpruned_and_not_resumed_pruned():
    plain = SearchSpec(oracle_id="lcs:2", max_len=4, flags=SearchFlags())
    out, stats = search_min(plain)
    assert out[0] == 4
    # no balance prune and no odd-length skip: every word to length 4
    assert stats.tested == 2 * (3 ** 4 - 1)


def test_girth_outcomes_carry_stats():
    # tested counts the right halves looked up: z2 and derived2 skip odd
    # lengths and split L after ceil(L/2) letters, so length L looks up
    # every reduced word of length L/2, 4 * 3^(L/2 - 1) of them; the
    # re-check adds none
    found = girth("z2", 6)
    assert found.value == 4 and found.stats.tested == 4 + 12
    assert found.stats.key_collisions == 0
    missed = girth("derived2", 6)
    assert missed == NotFoundBelow(6) and missed.stats.tested == 4 + 12 + 36
    # search_min hands its counters back beside the outcome only
    out, stats = search_min(SearchSpec(oracle_id="derived2", max_len=6,
                                       flags=SearchFlags(cyclic=True)))
    assert out.stats is None and stats.tested == 32


def test_verify_three_x_kernel_beyond_budget():
    with pytest.raises(NotFoundBelowError):
        verify_three_x("z2", max_len=3)
