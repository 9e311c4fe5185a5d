import re

import pytest
from hypothesis import example, given, settings, strategies as st

from lcslab.almostlaw import _a5_block_spec
from lcslab.words import (LETTER_A, LETTER_AI, LETTER_B, LETTER_BI, LETTERS,
                          Word, commutator, conjugate)
from lcslab.construction import build
from lcslab.magnus import lcs_depth
from lcslab.search import DerivedKernelOracle, KernelOracle
from lcslab.quotients import (
    MAX_DEGREE,
    cycles_string,
    parse_quotient_spec,
    permutation_from_cycles,
    permutation_quotient,
)
from reference import (enumerate_words, fox_derivative, generated_elements,
                       image, in_derived_lambda, in_lambda, project_fox)

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


@pytest.mark.parametrize("text, point", [
    ("(1 2)(1 2)", 1), ("(1 2 3)(3 2 1)", 1), ("(1 2)(2 3)", 2)])
def test_overlapping_cycles_name_the_point(text, point):
    # a product of overlapping cycles is no one-line permutation: refused,
    # naming the 1-based point that two cycles share
    with pytest.raises(ValueError, match=f"point {point} is in two cycles"):
        permutation_from_cycles(text)
    spec = f"perm:a={text};b=(1 2 3)"
    with pytest.raises(ValueError, match=f"point {point} is in two cycles"):
        parse_quotient_spec(spec)


def test_malformed_point_names_token_and_cycle():
    # int() alone would read '+2' as 2, '1_0' as 10 and a full-width digit
    # as its value; only ASCII digits are points
    for text, token, k in (("(1 x)", "x", 1), ("(1 2)(3 +2)", "+2", 2),
                           ("(1 1_0)", "1_0", 1), ("(1 2)(3 \uff14)", "\uff14", 2),
                           ("((1 2))", "(1", 1)):
        with pytest.raises(ValueError,
                           match=re.escape(f"bad point {token!r} in cycle {k} ")):
            permutation_from_cycles(text)


def test_cycles_roundtrip():
    for text in ("(1 2)", "(1 2)(3 4)", "(1 2 3)"):
        p = permutation_from_cycles(text)
        assert permutation_from_cycles(cycles_string(p), len(p)) == p


def _letter_images(q):
    e, step = q
    return [step(e, c) for c in (LETTER_A, LETTER_AI, LETTER_B, LETTER_BI)]


A5_BLOCK_SPEC = (
    "perm:a=(1 2 3 4 5)(6 7 8 9 10)(11 12 13)(16 17)(18 19)(23 24 25)"
    "(26 27 28)(31 32)(33 34);b=(3 4 5)(6 7)(8 9)(13 14 15)(16 18 20)"
    "(21 22 23 24 25)(27 28 29)(32 33)(34 35)")


def test_a5_block_spec_is_pinned():
    assert _a5_block_spec() == A5_BLOCK_SPEC


# the images of a, A, b, B: exponent sums for z2, else the image of each
# point 0..n-1
@pytest.mark.parametrize("spec, images", [
    ("z2", [(1, 0), (-1, 0), (0, 1), (0, -1)]),
    (SPECS[1], [(1, 0, 2), (1, 0, 2), (0, 2, 1), (0, 2, 1)]),
    ("perm:a=(1 2);b=(1 2 3)", [(1, 0, 2), (1, 0, 2), (1, 2, 0), (2, 0, 1)]),
    (SPECS[2], [(1, 0, 3, 2), (1, 0, 3, 2), (2, 3, 0, 1), (2, 3, 0, 1)]),
    ("perm:a=(1 2);b=(3 4 5)", [(1, 0, 2, 3, 4), (1, 0, 2, 3, 4),
                                (0, 1, 3, 4, 2), (0, 1, 4, 2, 3)]),
    ("perm:a=(1 2 3 4 5 6 7 8 9 10 11 12);b=(1 2)(3 5 7)(4 9)",
     [(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 0),
      (11, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
      (1, 0, 4, 8, 6, 5, 2, 7, 3, 9, 10, 11),
      (1, 0, 6, 8, 2, 5, 4, 7, 3, 9, 10, 11)]),
    (A5_BLOCK_SPEC,
     [(1, 2, 3, 4, 0, 6, 7, 8, 9, 5, 11, 12, 10, 13, 14, 16, 15, 18, 17, 19,
       20, 21, 23, 24, 22, 26, 27, 25, 28, 29, 31, 30, 33, 32, 34),
      (4, 0, 1, 2, 3, 9, 5, 6, 7, 8, 12, 10, 11, 13, 14, 16, 15, 18, 17, 19,
       20, 21, 24, 22, 23, 27, 25, 26, 28, 29, 31, 30, 33, 32, 34),
      (0, 1, 3, 4, 2, 6, 5, 8, 7, 9, 10, 11, 13, 14, 12, 17, 16, 19, 18, 15,
       21, 22, 23, 24, 20, 25, 27, 28, 26, 29, 30, 32, 31, 34, 33),
      (0, 1, 4, 2, 3, 6, 5, 8, 7, 9, 10, 11, 14, 12, 13, 19, 16, 15, 18, 17,
       24, 20, 21, 22, 23, 25, 28, 26, 27, 29, 30, 32, 31, 34, 33)]),
], ids=["z2", "s3", "s3-ci", "klein", "z2xz3", "s12-ci", "a5-blocks"])
def test_parsed_quotients_are_pinned(spec, images):
    got = _letter_images(parse_quotient_spec(spec))
    assert [tuple(x) for x in got] == images


def test_parse_quotient_spec_roundtrip():
    # a permutation quotient's images, written back as cycles, parse to the
    # same quotient
    for q in (S3, KLEIN):
        a, _, b, _ = _letter_images(q)
        text = f"perm:a={cycles_string(a)};b={cycles_string(b)}"
        assert _letter_images(parse_quotient_spec(text)) == _letter_images(q)
    with pytest.raises(ValueError):
        parse_quotient_spec("perm:a=(1 2)")
    with pytest.raises(ValueError):
        parse_quotient_spec("nonsense")


def _walk(step, x, w: Word):
    """x times the image of w, one step per letter."""
    for c in w.data:
        x = step(x, c)
    return x


def test_group_axioms_by_enumeration():
    # closure sizes pin the targets: S3 has 6 elements, the four-group 4.
    # x * y walks a word spelling y from x, so associativity also checks
    # that the product does not depend on which word spells an element
    for q, size in ((S3, 6), (KLEIN, 4)):
        els = generated_elements(q)
        assert len(els) == size
        e, step = q
        assert e in els
        spelled = {e: Word.identity()}
        for w in enumerate_words(size):
            spelled.setdefault(image(w, q), w)
        assert spelled.keys() == els

        def mul(x, y):
            return _walk(step, x, spelled[y])

        for x in els:
            assert mul(x, image(~spelled[x], q)) == e
            assert mul(e, x) == x
            for y in els:
                assert mul(x, y) in els
                for z in els:
                    assert mul(mul(x, y), z) == mul(x, mul(y, z))


def test_permutation_product_acts_left_factor_first():
    e, step = S3
    x = bytes(permutation_from_cycles("(1 2)", 3))
    y = bytes(permutation_from_cycles("(2 3)", 3))
    assert (step(e, LETTER_A), step(e, LETTER_B)) == (x, y)
    # point 1 -> 2 under x, then 2 -> 3 under y
    assert step(x, LETTER_B) == bytes(permutation_from_cycles("(1 3 2)", 3))
    assert step(y, LETTER_A) == bytes(permutation_from_cycles("(1 2 3)", 3))


_A5_E, _A5_STEP = parse_quotient_spec(_a5_block_spec())  # 35 points
perm_pairs = st.integers(1, MAX_DEGREE).flatmap(
    lambda n: st.tuples(st.permutations(range(n)), st.permutations(range(n))))


@settings(max_examples=60, deadline=None)
@example((tuple(_A5_STEP(_A5_E, LETTER_A)), tuple(_A5_STEP(_A5_E, LETTER_B))))
@given(perm_pairs)
def test_bytes_product_is_tuple_composition(pair):
    x, y = pair
    e, step = permutation_quotient(x, y)
    bx = bytes(x)
    assert step(bx, LETTER_B) == bytes(y[i] for i in x)
    assert e == bytes(range(len(x)))
    assert step(e, LETTER_A) == bx
    assert step(step(e, LETTER_A), LETTER_AI) == e == step(step(e, LETTER_AI),
                                                           LETTER_A)
    assert step(step(bx, LETTER_B), LETTER_BI) == bx


def test_degree_limit_names_the_limit():
    # point 256 is the last one a byte can hold
    e, _ = parse_quotient_spec("perm:a=(1 256);b=(1 2)")
    assert len(e) == MAX_DEGREE == 256
    with pytest.raises(ValueError, match="at most 256 points"):
        parse_quotient_spec("perm:a=(1 257);b=(1 2)")
    with pytest.raises(ValueError, match="at most 256 points"):
        permutation_from_cycles("()", 257)
    with pytest.raises(ValueError, match="at most 256 points"):
        permutation_quotient(tuple(range(257)), (1, 0))


def test_image_is_homomorphism():
    q = S3
    u, v = Word.parse("abA"), Word.parse("aBBa")
    uv = u * v  # abA * aBBa cancels to aBa
    assert image(uv, q) == _walk(q[1], image(u, q), v)


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
                acc[image(key, q)] = acc.get(image(key, q), 0) + c
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
    assert state == (image(prefix, q), project_fox(prefix, q, "a"),
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
