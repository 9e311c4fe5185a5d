import math
from fractions import Fraction

import numpy as np
import pytest

from lcslab import almostlaw as al
from lcslab.construction import build
from lcslab.quotients import PermutationQuotient, permutation_from_cycles
from lcslab.search import NotFoundBelow
from lcslab.words import Word, commutator, exponent_sums, random_word


def test_haar_su2_unitary_and_deterministic():
    a = al.haar_su2(np.random.default_rng(5), 200)
    b = al.haar_su2(np.random.default_rng(5), 200)
    assert np.array_equal(a, b)
    gram = a.conj().swapaxes(-1, -2) @ a
    assert np.abs(gram - np.eye(2)).max() < 1e-12
    assert np.abs(np.linalg.det(a) - 1).max() < 1e-12


def test_unitary_corrects_small_defects():
    rng = np.random.default_rng(2)
    m = al.haar_su2(rng, 1)[0] + 1e-8 * rng.normal(size=(2, 2))
    u = al.unitary(m)
    assert u.defect <= al.TOLERANCE
    assert np.abs(u.matrix - m).max() < 1e-7


def test_unitary_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 1]], dtype=complex)
    with pytest.raises(al.NumericFailure):
        al.unitary(bad)


def test_evaluate_identities():
    rng = np.random.default_rng(3)
    u = al.unitary(al.haar_su2(rng, 1)[0])
    v = al.unitary(al.haar_su2(rng, 1)[0])
    assert al.distance_to_identity(al.evaluate(Word.parse(""), u, v)) == 0.0
    got = al.evaluate(Word.parse("a"), u, v).matrix
    assert np.abs(got - u.matrix).max() < 1e-12
    got = al.evaluate(Word.parse("A"), u, v).matrix
    assert np.abs(got - u.matrix.conj().T).max() < 1e-12
    # a commutator vanishes when both arguments coincide
    d = al.distance_to_identity(al.evaluate(Word.parse("abAB"), u, u))
    assert d < 1e-6


def test_evaluate_respects_free_reduction():
    rng = np.random.default_rng(4)
    import random
    r = random.Random(11)
    u = al.unitary(al.haar_su2(rng, 1)[0])
    v = al.unitary(al.haar_su2(rng, 1)[0])
    for _ in range(20):
        w1 = random_word(r, r.randrange(0, 8))
        w2 = random_word(r, r.randrange(0, 8))
        lhs = al.evaluate(w1 * w2, u, v).matrix
        rhs = al.evaluate(w1, u, v).matrix @ al.evaluate(w2, u, v).matrix
        assert np.abs(lhs - rhs).max() < 1e-10


def test_evaluate_rejects_nonunitary_argument():
    with pytest.raises(al.NumericFailure):
        al.evaluate(Word.parse("a"), np.eye(2) * 2.0, np.eye(2))


def test_evaluate_rejects_unitary_argument_outside_su2():
    # unitary, determinant i: row 0 alone would read it as the identity
    phase = np.diag([1.0, 1j])
    with pytest.raises(al.NumericFailure, match="not in SU"):
        al.evaluate(Word.parse("ab"), phase, np.eye(2))
    with pytest.raises(al.NumericFailure, match="not in SU"):
        al.evaluate(Word.parse("ab"), np.eye(2), phase)


def _matmul_chain(w, us, vs):
    """Reference word map: one plain 2x2 product per letter and pair."""
    out = []
    for u, v in zip(us, vs):
        mats = {"a": u, "A": u.conj().T, "b": v, "B": v.conj().T}
        acc = np.eye(2, dtype=complex)
        for c in w.data.decode("ascii"):
            acc = acc @ mats[c]
        out.append(acc)
    return np.array(out)


def test_batch_evaluate_matches_matmul_chain():
    rng = np.random.default_rng(21)
    us, vs = al.haar_su2(rng, 64), al.haar_su2(rng, 64)
    for text in ("", "a", "B", "aaa", "AAbb", "abAB", "aBBAbab",
                 "ababABBA", "AABabaBAAbaBab"):
        w = Word.parse(text)
        got = al.batch_evaluate(w, us, vs)
        assert got.shape == (64, 2, 2)
        assert np.abs(got - _matmul_chain(w, us, vs)).max() < 1e-12
        # every value has the form [[alpha, beta], [-conj(beta), conj(alpha)]]
        assert np.array_equal(got[:, 1, 0], -got[:, 0, 1].conj())
        assert np.array_equal(got[:, 1, 1], got[:, 0, 0].conj())


def test_distance_closed_form_values():
    assert al.distance_to_identity(np.eye(2, dtype=complex)) == 0.0
    assert al.distance_to_identity(-np.eye(2, dtype=complex)) == pytest.approx(2.0)
    diag = np.diag([1j, -1j])
    assert al.distance_to_identity(diag) == pytest.approx(math.sqrt(2.0))


def test_distance_matches_operator_norm():
    rng = np.random.default_rng(6)
    for m in al.haar_su2(rng, 30):
        direct = float(np.linalg.norm(np.eye(2) - m, ord=2))
        assert al.distance_to_identity(m) == pytest.approx(direct, abs=1e-12)
    batch = al.haar_su2(rng, 30)
    ds = al._batch_distance(batch)
    for i in range(30):
        assert ds[i] == pytest.approx(al.distance_to_identity(batch[i]), abs=1e-12)


def test_estimate_identity_word_is_zero():
    est = al.estimate_L(Word.parse(""), samples=50, polish_steps=10, seed=1)
    assert est.lower == 0.0
    assert est.recheck()


def test_estimate_single_letter_reaches_two():
    est = al.estimate_L(Word.parse("a"), samples=2000, polish_steps=200, seed=3)
    assert est.lower > 1.95
    assert est.lower <= 2.0
    assert est.recheck()
    assert est.samples == 2000


def test_estimate_sampling_is_prefix_monotone():
    w = Word.parse("abAB")
    small = al.estimate_L(w, samples=300, polish_steps=0, seed=9)
    large = al.estimate_L(w, samples=900, polish_steps=0, seed=9)
    assert large.lower >= small.lower - 1e-12


def test_estimate_rejects_empty_budget():
    with pytest.raises(ValueError):
        al.estimate_L(Word.parse("a"), samples=0)


def test_su2_net_covers():
    eps = 0.8
    net = al.su2_net(eps)
    rng = np.random.default_rng(12)
    targets = al.haar_su2(rng, 40)
    worst = 0.0
    for t in targets:
        diffs = net - t
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


def test_certify_budget_refusal():
    with pytest.raises(al.BudgetExceeded):
        al.certify_seed(Word.parse("abAB"), eps=0.01)
    with pytest.raises(ValueError):
        al.certify_seed(Word.parse("abAB"), eps=0.0)
    with pytest.raises(ValueError):
        al.su2_net(0.0)


def test_certification_cost_at_threshold_is_astronomical():
    w = Word.parse("AABabaBAAbaBab")  # 14 letters
    assert al.certification_cost_at_threshold(w) > 10 ** 16


def test_propagation_respects_exact_arithmetic():
    floats = al.propagate_bounds(1.0 / 3.0, 8)
    exact = [Fraction(floats[0])]  # the contract starts from the given float
    exact.append(2 * exact[0] ** 2)
    for n in range(2, 9):
        exact.append(4 * exact[n - 1] ** 2 * exact[n - 2])
    for f, e in zip(floats, exact):
        assert Fraction(f) >= e            # round-up never undershoots
        assert f <= float(e) * (1 + 1e-12) # and stays tight
    assert al.propagate_bounds(0.25, 0) == [0.25]
    with pytest.raises(ValueError):
        al.propagate_bounds(0.25, -1)


def test_compose_family_matches_plain_construction():
    words = al.compose_family((Word.parse("a"), Word.parse("b")), 4)
    seq = build(4)
    assert words == [seq.a(n) for n in range(5)]


def test_compose_family_rejects_collapse():
    w = Word.parse("ab")
    with pytest.raises(al.SeedRejected):
        al.compose_family((w, w), 3)
    with pytest.raises(al.SeedRejected):
        al.compose_family((Word.parse(""), Word.parse("b")), 3)


def test_run_decay_synthetic_table():
    b0 = al.CertifiedBound(0, 1.0 / 3.0, al.GridProvenance(0.01, 1.0))
    t = al.run_decay((Word.parse("a"), Word.parse("b")), (b0, b0),
                     n_max=8, samples=0)
    assert t.d_hat > 0
    for row in t.rows:
        assert row.minus_log_2upper >= t.d_hat * al.SILVER ** row.n - 1e-12
        assert row.lower is None
    assert 0.6 <= t.exponent_hat <= 0.8
    assert [r.length for r in t.rows[:3]] == [1, 4, 14]
    assert isinstance(t.bounds[0].provenance, al.GridProvenance)
    assert isinstance(t.bounds[2].provenance, al.PropagatedProvenance)
    assert t.bounds[3].provenance.source == (2, 1)
    csv = al.decay_csv(t)
    lines = csv.strip().split("\n")
    assert lines[0] == "n,len,upper,lower,minus_log_2upper,ratio_to_(1+√2)^n"
    assert len(lines) == 10
    assert lines[1].startswith("0,1,")
    assert ",," in lines[1]  # empty lower column


def test_sampled_lowers_match_composed_words():
    # the value recursion must give the maxima of the composed words
    # themselves, evaluated letter by letter on the same samples
    seeds = (Word.parse("ab"), Word.parse("aB"))
    words = al.compose_family(seeds, 3)
    lows = al._sampled_lowers(seeds, 3, samples=300, rng_seed=5)
    direct = [0.0] * 4
    for us, vs in al._haar_pairs(5, 300):
        for n, w in enumerate(words):
            ds = al._batch_distance(al.batch_evaluate(w, us, vs))
            direct[n] = max(direct[n], float(ds.max()))
    assert lows == pytest.approx(direct, abs=1e-10)


def test_run_decay_guard_catches_false_bounds():
    # no nontrivial short word is really admissible, so feeding a claimed
    # 1/3 bound with actual sampling MUST trip the consistency check
    b0 = al.CertifiedBound(0, 1.0 / 3.0, al.GridProvenance(0.01, 1.0))
    with pytest.raises(AssertionError, match="exceeds certified upper"):
        al.run_decay((Word.parse("a"), Word.parse("b")), (b0, b0),
                     n_max=2, samples=128)


def test_run_decay_rejections():
    b0 = al.CertifiedBound(0, 1.0 / 3.0, al.GridProvenance(0.01, 1.0))
    big = al.CertifiedBound(0, 0.34, al.GridProvenance(0.01, 1.0))
    with pytest.raises(al.SeedRejected):
        al.run_decay((Word.parse("a"), Word.parse("b")), (b0, big),
                     n_max=3, samples=0)
    with pytest.raises(al.SeedRejected):
        al.run_decay((Word.parse("ab"), Word.parse("ab")), (b0, b0),
                     n_max=3, samples=0)
    with pytest.raises(ValueError):
        al.run_decay((Word.parse("a"), Word.parse("b")), (b0, b0),
                     n_max=1, samples=0)


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
        order = len(PermutationQuotient(pa, pb).generated_elements())
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
