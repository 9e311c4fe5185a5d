import hashlib
import random

from lcslab.words import Word, commutator, inverse_letter, random_word
from lcslab.nielsen import (
    ReductionReport,
    SubgroupGraph,
    check_nielsen,
    expand_expression,
    reduce_with_witnesses,
    same_subgroup,
)

P = Word.parse


def test_duplicate_generator_collapses():
    assert SubgroupGraph([P("a"), P("a")]).basis == [P("a")]


def test_identity_generator_dropped():
    assert SubgroupGraph([P("1"), P("a")]).basis == [P("a")]
    assert SubgroupGraph([]).basis == []
    assert SubgroupGraph([P("1")]).basis == []


def test_ab_b_pair():
    out = SubgroupGraph([P("ab"), P("b")]).basis
    assert sum(len(w) for w in out) <= 3
    assert check_nielsen(out) is None
    assert same_subgroup(out, [P("a"), P("b")])


def test_conjugate_loop_kept_whole():
    # <aba^-1> is not <b>; the stem must survive
    g = SubgroupGraph([P("abA")])
    assert g.basis == [P("abA")]
    assert g.contains(P("abbA")) and not g.contains(P("b"))


def test_redundant_generator_reveals_full_group():
    # ab * b^-1 = a, so the three generators span everything
    out = SubgroupGraph([P("aa"), P("ab"), P("b")]).basis
    assert out == [P("a"), P("b")]


def test_checker_rejects_identity():
    assert check_nielsen([P("1")]) is not None
    assert check_nielsen([P("a"), P("1")]) is not None


def test_checker_rejects_length_drop():
    msg = check_nielsen([P("ab"), P("b")])
    assert msg is not None and "(ii)" in msg


def test_checker_rejects_exact_triple_cancellation():
    # passes (i) and (ii), but bbA * ab * Baa = bbaa has length exactly
    # l(u) - l(v) + l(w) = 4, violating the strict inequality
    gens = [P("bbA"), P("ab"), P("Baa")]
    msg = check_nielsen(gens)
    assert msg is not None and "(iii)" in msg
    fixed = SubgroupGraph(gens).basis
    assert check_nielsen(fixed) is None
    assert same_subgroup(gens, fixed)


def test_membership_basics():
    g = SubgroupGraph([P("aa"), P("b")])
    assert g.contains(Word.identity())
    for member in ["aa", "b", "aab", "baa", "AA", "bbaaB"]:
        assert g.contains(P(member))
    for outsider in ["a", "ab", "A", "aaa", "ba"]:
        assert not g.contains(P(outsider))


def test_rank_of_commutator_like_sets():
    assert SubgroupGraph([P("a"), P("b")]).rank == 2
    assert SubgroupGraph([commutator(P("a"), P("b"))]).rank == 1
    assert SubgroupGraph([]).rank == 0


def test_express_roundtrip():
    gens = [P("aa"), P("bab"), P("abA")]
    g = SubgroupGraph(gens)
    w = P("aa") * P("bab") * ~P("aa") * P("abA")
    expr = g.express(w)
    assert expr is not None
    assert expand_expression(g.basis, expr) == w
    assert g.express(P("a")) is None


def test_witness_report():
    gens = [P("abAB"), P("aabABB"), P("ba")]
    rep = reduce_with_witnesses(gens)
    assert isinstance(rep, ReductionReport)
    assert rep.verified()
    assert rep.rank == len(rep.basis)
    assert check_nielsen(rep.basis) is None


def test_same_subgroup_distinguishes():
    assert same_subgroup([P("ab"), P("b")], [P("a"), P("b")])
    assert not same_subgroup([P("aa"), P("b")], [P("a"), P("b")])
    assert not same_subgroup([P("abA")], [P("b")])


def test_random_lists_reduce_correctly():
    # acceptance-sized property: random inputs, verbatim (i)-(iii), same
    # subgroup both by double fold and by recorded rewriting
    rng = random.Random(20260822)
    for _ in range(500):
        gens = [random_word(rng, rng.randint(0, 8))
                for _ in range(rng.randint(1, 5))]
        out = SubgroupGraph(gens).basis
        assert check_nielsen(out) is None
        assert same_subgroup(gens, out)
        rep = reduce_with_witnesses(gens)
        assert rep.verified()
        assert list(rep.basis) == out


def test_reduction_is_idempotent_on_basis():
    # the basis is a function of the subgroup, listed shortlex, so reducing
    # it again, or any reordering or repetition of the inputs, gives the
    # same list exactly
    rng = random.Random(7)
    for _ in range(50):
        gens = [random_word(rng, rng.randint(1, 6)) for _ in range(3)]
        once = SubgroupGraph(gens).basis
        assert SubgroupGraph(once).basis == once
        shuffled = gens + [rng.choice(gens)]
        rng.shuffle(shuffled)
        assert SubgroupGraph(shuffled).basis == once
        assert SubgroupGraph(gens + gens[::-1]).basis == once


def test_core_graph_invariants():
    rng = random.Random(11)
    for _ in range(300):
        gens = [random_word(rng, rng.randint(0, 12))
                for _ in range(rng.randint(1, 5))]
        g = SubgroupGraph(gens)
        step = g._step
        for u, nbrs in step.items():
            for c, v in nbrs.items():
                assert step[v][inverse_letter(c)] == u
            assert u == 0 or len(nbrs) >= 2
        seen, todo = {0}, [0]
        while todo:
            for v in step[todo.pop()].values():
                if v not in seen:
                    seen.add(v)
                    todo.append(v)
        assert seen == set(step)
        assert all(g.contains(w) for w in gens)


def test_bases_and_rewrites_are_pinned():
    # the digest of 2,000 seeded reductions, so any change to the fold, the
    # spanning tree or the basis order shows as a different byte
    rng = random.Random(20261019)
    digest = hashlib.sha256()
    for _ in range(2000):
        gens = [random_word(rng, rng.randrange(0, 11))
                for _ in range(rng.randrange(1, 6))]
        rep = reduce_with_witnesses(gens)
        digest.update(repr(([str(w) for w in rep.basis],
                            [e for _, e in rep.rewrites])).encode())
    assert digest.hexdigest() == (
        "6abd08102718d3a7e49aade364e80341e0450cb91ab2f85e1b0097cc1da4fb3c")


def test_is_nielsen_reduced_wrapper():
    assert check_nielsen([P("a"), P("b")]) is None
    assert check_nielsen([P("ab"), P("b")]) is not None
