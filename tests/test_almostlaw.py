import math
import sys
from fractions import Fraction

import numpy as np
import pytest

from lcslab import almostlaw as al
from lcslab.construction import build
from lcslab.quotients import permutation_from_cycles, permutation_quotient
from lcslab.search import NotFoundBelow
from lcslab.words import Word, commutator, exponent_sums, random_word
from reference import (
    chunked_estimate,
    chunked_haar_pairs,
    generated_elements,
    repeat_tile_net_max,
)


def _matrix(p):
    """[[alpha, beta], [-conj(beta), conj(alpha)]] for one (2,) quaternion."""
    a, b = p
    return np.array([[a, b], [-np.conj(b), np.conj(a)]])


def _matmul_chain(w, us, vs):
    """Reference word map: the matrix of each argument row, and one plain
    2x2 product per letter and pair."""
    out = []
    for u, v in zip(map(_matrix, us), map(_matrix, vs)):
        mats = {"a": u, "A": u.conj().T, "b": v, "B": v.conj().T}
        acc = np.eye(2, dtype=complex)
        for c in w.data.decode("ascii"):
            acc = acc @ mats[c]
        out.append(acc)
    return np.array(out)


def test_haar_su2_unitary_and_deterministic():
    a = al.haar_su2(np.random.default_rng(5), 200)
    b = al.haar_su2(np.random.default_rng(5), 200)
    assert a.shape == (200, 2)
    assert np.array_equal(a, b)
    ms = np.array([_matrix(p) for p in a])
    gram = ms.conj().swapaxes(-1, -2) @ ms
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    assert np.abs(np.linalg.det(ms) - 1).max() < 1e-12


def test_normalized_corrects_small_defects():
    rng = np.random.default_rng(2)
    p = al.haar_su2(rng, 1)[0] + 1e-8 * rng.normal(size=2)
    q = np.array(al._normalized(p))
    assert abs(np.vdot(q, q).real - 1.0) <= 1e-15
    assert np.abs(q - p).max() < 1e-7
    # the division is the polar factor of the perturbed matrix
    u, _, vh = np.linalg.svd(_matrix(p))
    assert np.abs(_matrix(q) - u @ vh).max() < 1e-14


def test_evaluate_identities():
    rng = np.random.default_rng(3)
    u = al.haar_su2(rng, 1)[0]
    v = al.haar_su2(rng, 1)[0]
    assert al.distance_to_identity(al.evaluate(Word.parse(""), u, v)) == 0.0
    got = al.evaluate(Word.parse("a"), u, v)
    assert np.abs(got - u).max() < 1e-12
    got = al.evaluate(Word.parse("A"), u, v)
    assert np.abs(_matrix(got) - _matrix(u).conj().T).max() < 1e-12
    # a commutator vanishes when both arguments coincide
    d = al.distance_to_identity(al.evaluate(Word.parse("abAB"), u, u))
    assert d < 1e-6


def test_evaluate_respects_free_reduction():
    rng = np.random.default_rng(4)
    import random
    r = random.Random(11)
    u = al.haar_su2(rng, 1)[0]
    v = al.haar_su2(rng, 1)[0]
    for _ in range(20):
        w1 = random_word(r, r.randrange(0, 8))
        w2 = random_word(r, r.randrange(0, 8))
        lhs = _matrix(al.evaluate(w1 * w2, u, v))
        rhs = _matrix(al.evaluate(w1, u, v)) @ _matrix(al.evaluate(w2, u, v))
        assert np.abs(lhs - rhs).max() < 1e-10


def test_evaluate_rejects_nonunitary_argument():
    with pytest.raises(al.NumericFailure):
        al.evaluate(Word.parse("a"), np.array([2.0, 0.0]), np.array([1.0, 0.0]))


def test_evaluate_rejects_nonfinite_or_empty_argument():
    one = np.array([1.0, 0.0], dtype=complex)
    for bad in (np.array([np.nan, 0.0], dtype=complex),
                np.zeros((2, 0), dtype=complex)):
        with pytest.raises(al.NumericFailure):
            al.evaluate(Word.parse("ab"), bad, one)
        with pytest.raises(al.NumericFailure):
            al.evaluate(Word.parse("ab"), one, bad)


def test_batch_evaluate_matches_matmul_chain():
    rng = np.random.default_rng(21)
    us, vs = al.haar_su2(rng, 64), al.haar_su2(rng, 64)
    for text in ("", "a", "B", "aaa", "AAbb", "abAB", "aBBAbab",
                 "ababABBA", "AABabaBAAbaBab"):
        w = Word.parse(text)
        got = al.batch_evaluate(w, us, vs)
        assert got.shape == (64, 2)
        want = _matmul_chain(w, us, vs)
        # each value is the first row of the chain product, and its matrix
        # is the whole product
        assert np.abs(got - want[:, 0]).max() < 1e-12
        assert np.abs(np.array([_matrix(p) for p in got]) - want).max() < 1e-12


def test_word_pair_conjugates_once_bit_for_bit():
    """Forming each letter's conjugates once per call gives the values that
    conjugating the right factor at every letter gives, bit for bit, on a
    batch large enough for numpy's vector loops."""
    rng = np.random.default_rng(28)
    us, vs = al.haar_su2(rng, 5000), al.haar_su2(rng, 5000)
    for text in ("aBBAbab", "AABabaBAAbaBab", "ababABBABAba"):
        w = Word.parse(text)
        u, v = us.T, vs.T
        letters = {"a": u, "A": (u[0].conj(), -u[1]),
                   "b": v, "B": (v[0].conj(), -v[1])}
        acc = letters[text[0]]
        for c in text[1:]:
            acc = al._mul(acc, letters[c], al._bar(letters[c]))
        assert np.array_equal(al.batch_evaluate(w, us, vs), np.array(acc).T)


def test_scalar_distance_matches_batch_evaluate():
    """The polish scores a probe on Python complex scalars, where numpy's
    array loop may fuse a multiply and an add.  On 1,000 seeded pairs of
    the seed pool the scalar value is within 4 ulps of batch_evaluate's
    wherever the distance is at least 1, the range the polish works in
    (every pool word's best of 256 samples is above 1.5).  Nearer the
    identity the root magnifies a last-bit difference, so there the squared
    distances, 2 - 2 Re alpha, are compared, within 4 ulps of 2."""
    pool = al.seed_candidate_pool(16)
    rng = np.random.default_rng(20261020)
    us, vs = al.haar_su2(rng, 1000), al.haar_su2(rng, 1000)
    near = 0
    for i, (u, v) in enumerate(zip(us, vs)):
        w = pool[i % len(pool)]
        ref = float(al.distance_to_identity(al.batch_evaluate(w, u[None], v[None])[0]))
        got = al._scalar_distance(w, tuple(map(complex, u)), tuple(map(complex, v)))
        if ref >= 1.0:
            assert abs(got - ref) <= 4 * math.ulp(ref)
        else:
            near += 1
            assert abs(got * got - ref * ref) <= 4 * math.ulp(2.0)
    assert 100 < near < 900


def _batch_scored_polish(w, u, v, steps):
    """_polish_pair's greedy walk with every probe scored by
    batch_evaluate on a one-pair batch."""
    def score(u, v):
        return float(al.distance_to_identity(al.batch_evaluate(w, u[None], v[None])[0]))

    best, step, used = score(u, v), 0.2, 0
    while used < steps and step > 1e-9:
        improved = False
        for side in (0, 1):
            for axis in range(3):
                for sign in (1.0, -1.0):
                    if used >= steps:
                        break
                    used += 1
                    rot = al._rotation(axis, sign * step)
                    cu = np.array(al._mul(rot, u, al._bar(u))) if side == 0 else u
                    cv = np.array(al._mul(rot, v, al._bar(v))) if side == 1 else v
                    d = score(cu, cv)
                    if d > best:
                        best, u, v, improved = d, cu, cv, True
        if not improved:
            step /= 2.0
    return u, v


def test_scalar_polish_takes_the_batch_scored_path():
    """Scored on scalars, the polish reaches the same pair bit for bit as
    when every probe goes through batch_evaluate, from each pool word's
    best of 256 samples on three seeds."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        us, vs = al.haar_su2(rng, 256), al.haar_su2(rng, 256)
        for w in al.seed_candidate_pool(16):
            i = int(np.argmax(al.distance_to_identity(al.batch_evaluate(w, us, vs))))
            got_u, got_v, _ = al._polish_pair(w, us[i], vs[i], 200)
            want_u, want_v = _batch_scored_polish(w, us[i], vs[i], 200)
            assert np.array_equal(got_u, want_u) and np.array_equal(got_v, want_v)


def test_distance_closed_form_values():
    assert al.distance_to_identity(np.array([1.0 + 0j, 0.0])) == 0.0
    assert al.distance_to_identity(np.array([-1.0 + 0j, 0.0])) == pytest.approx(2.0)
    # diag(i, -i)
    assert al.distance_to_identity(np.array([1j, 0.0])) == pytest.approx(math.sqrt(2.0))


def test_distance_matches_operator_norm():
    rng = np.random.default_rng(6)
    for p in al.haar_su2(rng, 30):
        m = _matrix(p)
        direct = float(np.linalg.norm(np.eye(2) - m, ord=2))
        assert al.distance_to_identity(p) == pytest.approx(direct, abs=1e-12)
        # bit for bit the trace form: tr U = alpha + conj(alpha)
        assert al.distance_to_identity(p) == math.sqrt(max(0.0, 2.0 - np.trace(m).real))
    batch = al.haar_su2(rng, 30)
    ds = al.distance_to_identity(batch)
    assert ds.shape == (30,)
    for i in range(30):
        assert ds[i] == al.distance_to_identity(batch[i])


def test_estimate_identity_word_is_zero():
    est = al.estimate_L(Word.parse(""), samples=50, polish_steps=10, seed=1)
    assert est.lower == 0.0
    assert est.recheck()


def test_estimate_single_letter_reaches_two():
    est = al.estimate_L(Word.parse("a"), samples=2000, polish_steps=200, seed=3)
    assert est.lower > 1.95
    assert est.lower <= 2.0
    assert est.recheck()


def test_estimate_sampling_is_prefix_monotone():
    w = Word.parse("abAB")
    small = al.estimate_L(w, samples=300, polish_steps=0, seed=9)
    large = al.estimate_L(w, samples=900, polish_steps=0, seed=9)
    assert large.lower >= small.lower - 1e-12


@pytest.mark.parametrize("samples", [1, 255, 256, 257, 4000])
def test_haar_draw_is_the_chunked_stream(samples):
    """One draw of whole chunks gives, bit for bit, the pairs that haar_su2
    draws chunk by chunk, u batch before v batch."""
    for seed in (0, 3):
        us, vs = al._haar_pairs(seed, samples)
        chunks = list(chunked_haar_pairs(seed, samples))
        assert us.shape == vs.shape == (samples, 2)
        assert us.tobytes() == np.concatenate([u for u, _ in chunks]).tobytes()
        assert vs.tobytes() == np.concatenate([v for _, v in chunks]).tobytes()


@pytest.mark.parametrize("samples", [1, 255, 256, 257, 4000])
def test_estimate_matches_chunked_reference(samples):
    """estimate_L on its single draw, one argmax over the whole batch,
    returns the lower bound and witness bytes of the chunk-by-chunk loop
    on every pool word up to length 8."""
    for w in al.seed_candidate_pool(8):
        got = al.estimate_L(w, samples=samples, polish_steps=20, seed=3)
        ref = chunked_estimate(w, samples, polish_steps=20, seed=3)
        assert got.lower == ref.lower, (str(w), samples)
        assert [p.tobytes() for p in got.witness] == \
            [p.tobytes() for p in ref.witness], (str(w), samples)


def test_cached_draw_is_read_only_and_bounded():
    us, vs = al._haar_pairs(5, 300)
    assert al._haar_pairs(5, 300)[0] is us
    for batch in (us, vs):
        with pytest.raises(ValueError):
            batch[0, 0] = 1.0
    cap = al._haar_pairs.cache_info().maxsize
    assert cap is not None and cap <= 8
    for seed in range(cap + 2):
        al._haar_pairs(seed, 10)
    assert al._haar_pairs.cache_info().currsize == cap


def test_estimate_rejects_empty_budget():
    with pytest.raises(ValueError):
        al.estimate_L(Word.parse("a"), samples=0)


def test_su2_net_covers():
    eps = 0.8
    net = np.array([_matrix(p) for p in al.su2_net(eps)])
    rng = np.random.default_rng(12)
    targets = al.haar_su2(rng, 40)
    worst = 0.0
    for t in targets:
        diffs = net - _matrix(t)
        dists = np.linalg.svd(diffs, compute_uv=False)[:, 0]
        worst = max(worst, float(dists.min()))
    assert worst <= eps


def test_certify_identity_word():
    cb = al.certify_seed(Word.parse(""), eps=0.5)
    assert cb.upper == 0.0
    assert isinstance(cb.provenance, al.GridProvenance)


def test_certify_commutator_coarse():
    cb = al.certify_seed(Word.parse("abAB"), eps=1.0)
    assert cb.upper == 2.0  # slack swamps the net; clamped by d <= 2
    assert cb.provenance.net_resolution == 1.0
    assert cb.provenance.lipschitz_const == 4.0
    est = al.estimate_L(Word.parse("abAB"), samples=200, polish_steps=20, seed=2)
    assert est.lower <= cb.upper + 1e-9


@pytest.mark.parametrize("text", ["a", "B", "aa", "abAB"])
def test_broadcast_grid_matches_repeat_tile(text):
    """The net maximum over broadcast blocks is, bit for bit, the one over
    pairs copied out by np.repeat/np.tile.  At eps 1.0 the net has 686
    points and a block 5 rows, so the last block is one row.  The second
    grid keeps one of the 98 net points farthest from the identity and
    puts it last, alone in a one-row block (589 points, blocks of 6),
    where it alone decides the maximum of a.  A word that reads one
    argument still fills the block's full shape."""
    net = al.su2_net(1.0)
    d = al.distance_to_identity(net)
    lopsided = np.concatenate([net[d < d.max()], net[np.argmax(d)][None]])
    for grid, shape in ((net, (686, 5, 1)), (lopsided, (589, 6, 1))):
        m = len(grid)
        assert (m, 4_000 // m, m % (4_000 // m)) == shape
    w = Word.parse(text)
    for grid in (net, lopsided):
        assert al._net_max(w, grid) == repeat_tile_net_max(w, grid)
    if text == "a":
        assert al._net_max(w, lopsided) == d.max()
    assert al.batch_evaluate(w, net[:5, None], net[None]).shape == (5, 686, 2)


def test_batch_evaluate_broadcasts_like_copied_pairs():
    rng = np.random.default_rng(8)
    us, vs = al.haar_su2(rng, 7), al.haar_su2(rng, 11)
    for text in ("", "a", "b", "abAB", "aabAB"):
        w = Word.parse(text)
        got = al.batch_evaluate(w, us[:, None], vs[None])
        ref = al.batch_evaluate(w, np.repeat(us, 11, axis=0), np.tile(vs, (7, 1)))
        assert got.shape == (7, 11, 2)
        assert got.reshape(-1, 2).tobytes() == ref.tobytes(), text


def test_certify_budget_refusal():
    with pytest.raises(al.BudgetExceeded):
        al.certify_seed(Word.parse("abAB"), eps=0.01)
    with pytest.raises(ValueError):
        al.certify_seed(Word.parse("abAB"), eps=0.0)
    with pytest.raises(ValueError):
        al.su2_net(0.0)


def test_certify_budget_refusal_past_float_range():
    """At eps 1e-300 the pair count is too large for a float; the refusal
    spells it in full."""
    with pytest.raises(al.BudgetExceeded, match=r"needs 3\.504e\+1805 pair"):
        al.certify_seed(Word.parse("abAB"), eps=1e-300)


def test_scientific_spells_ints_as_float_format_does():
    for n in (1, 9, 10, 12345, 12355, 99_995, 999_950_000, 4_000_000,
              2 ** 53 - 1, 470_596):
        assert al._scientific(n) == f"{n:.3e}", n
    assert al._scientific(10 ** 400) == "1.000e+400"


def test_certification_cost_at_threshold_is_astronomical():
    w = Word.parse("AABabaBAAbaBab")  # 14 letters
    assert al.certification_cost_at_threshold(w) > 10 ** 16


def test_propagation_respects_exact_arithmetic():
    # the recursion itself, in exact rationals, from the given float
    bounds = [r.upper for r in al.decay_table(1.0 / 3.0, 8).rows]
    exact = [Fraction(1.0 / 3.0)]
    exact.append(2 * exact[0] ** 2)
    for n in range(2, 9):
        exact.append(4 * exact[n - 1] ** 2 * exact[n - 2])
    for f, e in zip(bounds, exact):
        assert Fraction(f) >= e  # never undershoots
        assert Fraction(f) <= e * (1 + Fraction(1, 10 ** 12))  # and stays tight


def test_decay_bounds_keep_falling_below_the_smallest_double():
    """The closed form does not underflow: at u0 = 0.3 every bound to level
    14 is positive and strictly below the one before, d_hat (the level-1
    ratio) is the same for every n_max from 2 to 14, and the length slope
    at 14 approaches delta = 0.693888."""
    t = al.decay_table(0.3, 14)
    uppers = [r.upper for r in t.rows]
    assert all(u > 0 for u in uppers)
    assert all(b < a for a, b in zip(uppers, uppers[1:]))
    assert uppers[-1] < sys.float_info.min
    d_hats = {al.decay_table(0.3, n).d_hat for n in range(2, 15)}
    assert d_hats == {t.d_hat}
    assert f"{t.d_hat:.12g}" == "0.423181802743"
    assert abs(t.exponent_hat - 0.68995) <= 0.005
    last = al.decay_csv(t).splitlines()[-1]
    assert last.startswith("14,58457426,4.43175837851e-43267,")


def test_decay_table_synthetic():
    t = al.decay_table(1.0 / 3.0, 8)
    assert t.d_hat > 0
    for row in t.rows:
        assert row.minus_log_2upper >= t.d_hat * al.SILVER ** row.n - 1e-12
    assert 0.6 <= t.exponent_hat <= 0.8
    assert [r.length for r in t.rows[:3]] == [1, 4, 14]
    seq = build(8)
    assert [r.length for r in t.rows] == [len(seq.a(n)) for n in range(9)]
    csv = al.decay_csv(t)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,len,upper,minus_log_2upper,ratio_to_(1+√2)^n"
    assert len(lines) == 10
    assert lines[1].startswith("0,1,")
    assert all(len(line.split(",")) == 5 for line in lines)


# decay_csv(decay_table(0.3, 8)): every bound here is a normal double,
# printed as that float, and every length a count, so any drift is a change
# to the recursion, the fits or the family
_PINNED_DECAY_ROWS = """\
0,1,0.3,0.510825623766,0.510825623766
1,4,0.18,1.02165124753,0.423181802743
2,14,0.03888,2.55412811883,0.438219105114
3,50,0.001088391168,6.12990748519,0.43563911191
4,178,1.84228266434e-07,14.8139430892,0.436081768763
5,634,1.47760220727e-16,35.7577936636,0.436005820854
6,2258,1.60890840023e-38,86.3295304165,0.436018851455
7,8042,1.52996029697e-91,208.416854497,0.436016615757
8,28642,1.50643928332e-219,503.16323941,0.436016999342
"""


def test_decay_table_is_pinned():
    t = al.decay_table(0.3, 8)
    assert al.decay_csv(t) == al.CSV_HEADER + "\n" + _PINNED_DECAY_ROWS
    assert f"{t.d_hat:.12g}" == "0.423181802743"
    assert f"{t.exponent_hat:.12g}" == "0.683199662338"


# seed_search(max_len=12, samples=3000, seed=0).sampled as the matrix-form
# evaluation (SVD polar factor, matrix rotations) ranked it; the quaternion
# form moves some values by an ulp, and a drifting polish path would move
# them much further or reorder them
_PINNED_RANKING = (
    ("ababABBABAba", 1.539546363838455),
    ("bbabABBaBA", 1.5395545901194414),
    ("abAB", 1.9990262411283428),
    ("aabABA", 1.9990262411283428),
    ("ababABBA", 1.9990262411283428),
    ("abbABB", 1.9993237813615448),
    ("abaBBAbA", 1.999323781361545),
    ("abaaBAAA", 1.9995305086980482),
    ("aabbAABB", 1.9998566229650583),
    ("babABaBA", 1.9998867162298328),
)


def test_seed_search_ranking_is_pinned():
    rep = al.seed_search(max_len=12, samples=3000, seed=0)
    assert [str(w) for w, _ in rep.sampled] == [w for w, _ in _PINNED_RANKING]
    for (_, got), (_, want) in zip(rep.sampled, _PINNED_RANKING):
        assert abs(got - want) <= 1e-12


def test_decay_table_rejections():
    # the recursion need not contract from a start bound above 1/3, and
    # the fits need three levels
    for u0, n_max in ((0.34, 3), (0.0, 3), (-0.1, 3), (float("nan"), 3),
                      (1.0 / 3.0, 1)):
        with pytest.raises(ValueError):
            al.decay_table(u0, n_max)


def test_icosahedral_gap_identity():
    # 2 - golden == golden^-2, so the gap is exactly 1/golden
    assert al.ICOSAHEDRAL_GAP == pytest.approx(math.sqrt(2.0 - al.GOLDEN), abs=1e-15)
    assert al.ICOSAHEDRAL_GAP > al.SEED_THRESHOLD


def test_seed_candidate_pool_shape():
    pool = al.seed_candidate_pool(16)
    assert Word.parse("abAB") in pool
    assert len(pool) >= 10
    for w in pool:
        assert w and len(w) <= 16
        assert exponent_sums(w) == (0, 0)
    assert len(set(pool)) == len(pool)


def _parity(perm):
    seen = [False] * len(perm)
    sign = 1
    for s in range(len(perm)):
        if seen[s]:
            continue
        length = 0
        j = s
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        sign *= -1 if length % 2 == 0 else 1
    return sign


def test_a5_pairs_are_even_and_first_five_generate():
    # every pair of even permutations is a valid constraint (it is the
    # image of some homomorphism into the alternating group); the first
    # five pairs generate the whole order-60 group, the last two only
    # subgroups, which still cut down the joint kernel
    for i, (ca, cb) in enumerate(al._A5_PAIRS):
        pa = permutation_from_cycles(ca, degree=5)
        pb = permutation_from_cycles(cb, degree=5)
        assert _parity(pa) == 1 and _parity(pb) == 1
        order = len(generated_elements(permutation_quotient(pa, pb)))
        assert order > 1 and 60 % order == 0
        if i < 5:
            assert order == 60


def test_obstruction_search_short_lengths():
    ob = al.seed_pool_obstruction(max_len=10)
    assert isinstance(ob.outcome, NotFoundBelow)
    assert ob.outcome.bound == 10
    assert ob.no_admissible_seed
    assert al.SEED_THRESHOLD == pytest.approx(1.0 / 3.0)


def test_seed_search_report():
    rep = al.seed_search(max_len=10, samples=200, seed=7)
    assert rep.obstruction.no_admissible_seed
    assert rep.admissible == ()
    best_word, best_lower = rep.best
    assert best_lower > al.SEED_THRESHOLD
    assert all(lo > al.SEED_THRESHOLD for _, lo in rep.sampled)
    assert commutator(Word.parse("a"), Word.parse("b")) in rep.pool
