import pytest
from hypothesis import example, given, settings, strategies as st

from lcslab.almostlaw import _a5_block_quotient
from lcslab.words import LETTER_A, LETTER_B, LETTERS, Word, commutator, conjugate
from lcslab.construction import build
from lcslab.magnus import fox_derivative, lcs_depth
from lcslab.search import DerivedKernelOracle, KernelOracle
from lcslab.quotients import (
    MAX_DEGREE,
    PermutationQuotient,
    cycles_string,
    in_derived_lambda,
    in_lambda,
    parse_quotient_spec,
    permutation_from_cycles,
    project_fox,
)

# Z^2, S3 on two transpositions, and the regular Klein four-group
SPECS = ["z2", "perm:a=(1 2);b=(2 3)", "perm:a=(1 2)(3 4);b=(1 3)(2 4)"]
Z2, S3, KLEIN = QUOTIENTS = [parse_quotient_spec(spec) for spec in SPECS]

letter_lists = st.lists(st.sampled_from(list(LETTERS)), max_size=20)
words = letter_lists.map(lambda ls: Word(bytes(ls)))


def test_cycle_parsing():
    assert permutation_from_cycles("(1 2)", 3) == (1, 0, 2)
    assert permutation_from_cycles("(1 2)(3 4)") == (1, 0, 3, 2)
    assert permutation_from_cycles("()", 2) == (0, 1)
    with pytest.raises(ValueError):
        permutation_from_cycles("(1 1)")
    with pytest.raises(ValueError):
        permutation_from_cycles("1 2")


def test_cycles_roundtrip():
    for text in ("(1 2)", "(1 2)(3 4)", "(1 2 3)"):
        p = permutation_from_cycles(text)
        assert permutation_from_cycles(cycles_string(p), len(p)) == p


def test_parse_quotient_spec_roundtrip():
    for q in QUOTIENTS:
        q2 = parse_quotient_spec(q.spec_string())
        assert type(q2) is type(q)
        assert q2.letter_images == q.letter_images
    with pytest.raises(ValueError):
        parse_quotient_spec("perm:a=(1 2)")
    with pytest.raises(ValueError):
        parse_quotient_spec("nonsense")


def test_group_axioms_by_enumeration():
    # closure sizes pin the targets: S3 has 6 elements, the four-group 4
    for q, size in ((S3, 6), (KLEIN, 4)):
        els = q.generated_elements()
        assert len(els) == size
        e = q.identity()
        assert e in els
        for x in els:
            assert q.multiply(x, q.invert(x)) == e
            assert q.multiply(e, x) == x
            for y in els:
                assert q.multiply(x, y) in els
                for z in els:
                    assert (q.multiply(q.multiply(x, y), z)
                            == q.multiply(x, q.multiply(y, z)))


def test_permutation_product_acts_left_factor_first():
    q = S3
    x = bytes(permutation_from_cycles("(1 2)", 3))
    y = bytes(permutation_from_cycles("(2 3)", 3))
    # point 1 -> 2 under x, then 2 -> 3 under y
    assert q.multiply(x, y) == bytes(permutation_from_cycles("(1 3 2)", 3))
    assert q.multiply(y, x) == bytes(permutation_from_cycles("(1 2 3)", 3))


_A5_BLOCKS = _a5_block_quotient()  # 35 points, seven blocks of five
perm_pairs = st.integers(1, MAX_DEGREE).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@example((tuple(_A5_BLOCKS.letter_images[LETTER_A]),
          tuple(_A5_BLOCKS.letter_images[LETTER_B])))
@given(perm_pairs)
def test_bytes_product_is_tuple_composition(pair):
    x, y = pair
    q = PermutationQuotient(x, y)
    bx, by = bytes(x), bytes(y)
    assert q.multiply(bx, by) == bytes(tuple(y[i] for i in x))
    assert q.letter_step()(bx, LETTER_B) == q.multiply(bx, by)
    e = q.identity()
    assert e == bytes(range(len(x)))
    assert q.multiply(bx, q.invert(bx)) == e == q.multiply(q.invert(bx), bx)


def test_degree_limit_names_the_limit():
    # point 256 is the last one a byte can hold
    q = parse_quotient_spec("perm:a=(1 256);b=(1 2)")
    assert q.degree == MAX_DEGREE == 256
    with pytest.raises(ValueError, match="at most 256 points"):
        parse_quotient_spec("perm:a=(1 257);b=(1 2)")
    with pytest.raises(ValueError, match="at most 256 points"):
        permutation_from_cycles("()", 257)
    with pytest.raises(ValueError, match="at most 256 points"):
        PermutationQuotient(tuple(range(257)), (1, 0))


def test_image_is_homomorphism():
    q = S3
    u, v = Word.parse("abA"), Word.parse("aBBa")
    uv = u * v
    assert q.image(uv) == q.multiply(q.image(u), q.image(v))


def test_in_lambda_basics():
    assert in_lambda(Word.identity(), Z2)
    assert in_lambda(Word.parse("abAB"), Z2)
    assert not in_lambda(Word.parse("a"), Z2)
    assert not in_lambda(Word.parse("aab"), Z2)
    assert in_lambda(Word.parse("aa"), S3)
    assert not in_lambda(Word.parse("a"), S3)
    assert not in_lambda(Word.parse("ab"), S3)
    assert in_lambda(Word.parse("aa"), KLEIN)
    assert in_lambda(Word.parse("abAB"), KLEIN)  # abelian target


def test_in_derived_lambda_basics():
    assert in_derived_lambda(Word.identity(), Z2)
    # [a,b] lies in the kernel but not in its derived subgroup
    assert not in_derived_lambda(Word.parse("abAB"), Z2)
    # the level-2 word of the recursive family does, by construction
    assert in_derived_lambda(build(2).b(2), Z2)
    # a length-4 commutator cannot reach the derived subgroup of the
    # four-group kernel (its girth is at least 6)
    assert not in_derived_lambda(Word.parse("abAB"), KLEIN)


def test_derived_implies_kernel():
    for q in QUOTIENTS:
        for text in ("", "abAB", "aabb", "AABBaabb", "aa"):
            w = Word.parse(text) if text else Word.identity()
            if in_derived_lambda(w, q):
                assert in_lambda(w, q)


@settings(max_examples=50, deadline=None)
@given(words)
def test_project_fox_agrees_with_free_derivative(w):
    # independent route: push the free group-ring derivative into the
    # quotient ring by summing coefficients over fibers
    for q in QUOTIENTS:
        for gen in ("a", "b"):
            acc = {}
            for key, c in fox_derivative(w, gen).items():
                acc[q.image(key)] = acc.get(q.image(key), 0) + c
            assert project_fox(w, q, gen) == {g: c for g, c in acc.items() if c}


@settings(max_examples=40, deadline=None)
@given(words, words)
def test_membership_oracles_conjugation_invariant(w, v):
    for q in QUOTIENTS:
        c = conjugate(w, v)
        assert in_lambda(w, q) == in_lambda(c, q)
        assert in_derived_lambda(w, q) == in_derived_lambda(c, q)


@settings(max_examples=40, deadline=None)
@given(words)
def test_membership_oracles_inversion_invariant(w):
    for q in QUOTIENTS:
        assert in_lambda(w, q) == in_lambda(~w, q)
        assert in_derived_lambda(w, q) == in_derived_lambda(~w, q)


@settings(max_examples=50, deadline=None)
@given(words)
def test_walkers_match_direct_evaluation(w):
    for spec, q in zip(SPECS, QUOTIENTS):
        kw = KernelOracle(spec).make_walker()
        dw = DerivedKernelOracle(spec).make_walker()
        for c in w.data:
            kw.push(c)
            dw.push(c)
        assert kw.is_member() == (len(w) > 0 and in_lambda(w, q))
        assert dw.is_member() == (len(w) > 0 and in_derived_lambda(w, q))


@settings(max_examples=30, deadline=None)
@given(letter_lists, st.integers(0, 20))
def test_walker_push_pop_consistency(letters, cut):
    q, prefix = S3, Word(bytes(letters[:cut]))
    dw = DerivedKernelOracle(SPECS[1]).make_walker()
    for c in letters:
        dw.push(c)
    for c in reversed(letters[cut:]):
        dw.pop(c)
    state = dw.state()
    assert len(dw.stack) == len(letters[:cut]) + 1
    assert state == (q.image(prefix), project_fox(prefix, q, "a"),
                     project_fox(prefix, q, "b"))


def test_commutators_of_kernel_words_are_derived_members():
    # products of commutators of kernel elements land in the derived
    # subgroup; their depth must reach at least 4 over the z2 kernel
    pairs = [(Word.parse("abAB"), Word.parse("abbABB")),
             (Word.parse("abAB"), conjugate(Word.parse("abAB"), Word.parse("ba"))),
             (build(1).a(1), build(1).b(1))]
    for u, v in pairs:
        assert in_lambda(u, Z2) and in_lambda(v, Z2)
        w = commutator(u, v)
        assert in_derived_lambda(w, Z2)
        if w:
            assert lcs_depth(w, 8).lower_bound() >= 4
