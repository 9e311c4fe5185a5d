"""Word maps on SU(2): sampling, certified bounds, decay.

A word w in two letters induces the evaluation map (u, v) -> w(u, v) on
SU(2) x SU(2).  The module measures how far that map gets from the identity
in operator norm, which on SU(2) has the closed form d(I, U) = sqrt(2 - tr U):

  * sampled lower bounds on the maximum (Haar samples plus a derivative-free
    polish step),
  * certified upper bounds (an epsilon-net over SU(2)^2 with an explicit
    Lipschitz slack, the only honest grid certificate, with its cost
    accounted up front),
  * propagated upper bounds through the commutator recursion
    U_n = 4 U_{n-1}^2 U_{n-2}, rounded upward so the chain never
    underestimates,
  * a decay table with the fitted constants of the contraction.

Evaluation.  Every element of SU(2) is [[alpha, beta], [-conj(beta),
conj(alpha)]], so a word's value on a batch of argument pairs is carried as
two complex arrays (alpha, beta), and each letter is four elementwise
products on them (`_word_pair`); no batched 2x2 matrix product is formed.
The grid certificate evaluates its pairs in blocks of about 50,000, so the
arrays alive during one block stay under 20 MB and barely add to the peak
memory of a caller that already holds long words.

Seed admissibility.  The propagation needs start words whose true maximum
is at most 1/3.  That is a very strong property: the 120-element
icosahedral subgroup of SU(2) has its nearest nontrivial element at
distance sqrt(2 - golden) = 1/golden = 0.6180..., so a word staying within
1/3 of the identity everywhere must evaluate to the identity *exactly* on
every pair from that subgroup, and must in particular lie in the kernel of
every induced pair in its simple quotient (the alternating group on five
points).  One-parameter rotation subgroups force both exponent sums to
vanish as well.  `seed_pool_obstruction` turns this into an exhaustive
search bound: no nontrivial word up to the pool's length cap passes, which
is why `certify_seed` can never accept a short seed and `run_decay` refuses
to start from one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple, Union

import numpy as np

from .construction import BudgetExceeded, build
from .quotients import PermutationQuotient, permutation_from_cycles
from .search import (
    NotFoundBelow,
    SearchFlags,
    SearchStats,
    canonical_bytes,
    search_min,  # noqa: F401  perfbench's self-test reads almostlaw.search_min
    search_mitm,
)
from .words import (
    EXPONENT_DELTA,
    LETTER_A,
    LETTER_AI,
    LETTER_B,
    LETTER_BI,
    Word,
    commutator,
    conjugate,
    inverse_letter,
)

TOLERANCE = 1e-12          # unitarity defect ceiling after correction
SEED_THRESHOLD = 1.0 / 3.0
SILVER = 1.0 + math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# smallest distance from the identity to a nontrivial element of the
# icosahedral subgroup: traces are {±2, ±golden, ±1/golden, ±1, 0}, and
# 2 - golden = golden^-2 exactly
ICOSAHEDRAL_GAP = 1.0 / GOLDEN


class NumericFailure(RuntimeError):
    """Unitarity could not be restored within tolerance."""


class SeedRejected(ValueError):
    """Propagation refused: a seed bound exceeds 1/3 or a composed word
    collapses to the identity."""


# ----------------------------------------------------------------------
# unitary matrices

@dataclass(frozen=True)
class UnitaryMatrix:
    matrix: np.ndarray
    defect: float


def unitarity_defect(m: np.ndarray) -> float:
    k = m.shape[-1]
    gram = m.conj().swapaxes(-1, -2) @ m
    return float(np.linalg.norm(gram - np.eye(k), ord=2))


def reorthonormalize(m: np.ndarray) -> np.ndarray:
    """Nearest unitary (polar factor); works on a single matrix or a batch."""
    u, _, vh = np.linalg.svd(m)
    return u @ vh


def unitary(m: np.ndarray) -> UnitaryMatrix:
    if not np.all(np.isfinite(m)):
        raise NumericFailure("non-finite matrix entries")
    fixed = reorthonormalize(np.asarray(m, dtype=complex))
    defect = unitarity_defect(fixed)
    if not defect <= TOLERANCE:
        raise NumericFailure(f"unitarity defect {defect:.3e} after correction")
    return UnitaryMatrix(matrix=fixed, defect=defect)


def _su2_matrices(alpha: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """The batch of matrices [[alpha, beta], [-conj(beta), conj(alpha)]]."""
    out = np.empty((len(alpha), 2, 2), dtype=complex)
    out[:, 0, 0] = alpha
    out[:, 0, 1] = beta
    out[:, 1, 0] = -beta.conj()
    out[:, 1, 1] = alpha.conj()
    return out


def _quaternions_su2(q: np.ndarray) -> np.ndarray:
    """Unit quaternions (rows of q) as a batch of SU(2) matrices."""
    return _su2_matrices(q[:, 0] + 1j * q[:, 1], q[:, 2] + 1j * q[:, 3])


def haar_su2(rng: np.random.Generator, size: int) -> np.ndarray:
    """Haar-distributed SU(2) batch via normalized 4-vectors of Gaussians."""
    q = rng.normal(size=(size, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    return _quaternions_su2(q)


_CHUNK = 256  # fixed draw granularity so larger budgets extend smaller ones


def _haar_pairs(seed: int, samples: int):
    """`samples` Haar argument pairs as (us, vs) batches of at most _CHUNK."""
    rng = np.random.default_rng(seed)
    for done in range(0, samples, _CHUNK):
        m = min(_CHUNK, samples - done)
        yield haar_su2(rng, _CHUNK)[:m], haar_su2(rng, _CHUNK)[:m]


_LETTER_SLOT = {LETTER_A: (0, False), LETTER_AI: (0, True),
                LETTER_B: (1, False), LETTER_BI: (1, True)}


def _word_pair(w: Word, us: np.ndarray, vs: np.ndarray):
    """The word map on a batch as (alpha, beta), read from row 0 of each
    argument.  A letter (x, y) sends (alpha, beta) to
    (alpha x - beta conj(y), alpha y + beta conj(x)), and its inverse is
    (conj(x), -y); each argument's row and its conjugate are formed once
    per call, however often its letters occur."""
    if not w:
        n = us.shape[0]
        return np.ones(n, dtype=complex), np.zeros(n, dtype=complex)
    rows = {}
    alpha = beta = None
    for c in w.data:
        slot, inv = _LETTER_SLOT[c]
        if slot not in rows:
            x, y = (us, vs)[slot][:, 0].T
            rows[slot] = (x, y, x.conj(), y.conj())
        x, y, x_bar, y_bar = rows[slot]
        if alpha is None:
            alpha, beta = (x_bar, -y) if inv else (x, y)
        elif inv:
            alpha, beta = alpha * x_bar + beta * y_bar, beta * x - alpha * y
        else:
            alpha, beta = alpha * x - beta * y_bar, alpha * y + beta * x_bar
    return alpha, beta


def batch_evaluate(w: Word, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Evaluate the word map on a batch of SU(2) argument pairs; no
    correction.  Only row 0 of each argument is read."""
    return _su2_matrices(*_word_pair(w, us, vs))


def evaluate(w: Word, u, v) -> UnitaryMatrix:
    """Word map at one argument pair, re-orthonormalized."""
    mu = u.matrix if isinstance(u, UnitaryMatrix) else np.asarray(u, dtype=complex)
    mv = v.matrix if isinstance(v, UnitaryMatrix) else np.asarray(v, dtype=complex)
    for name, m in (("u", mu), ("v", mv)):
        if unitarity_defect(m) > 1e-8:
            raise NumericFailure(f"argument {name} is not unitary")
        # batch_evaluate reads row 0 only, which fixes the matrix in SU(2)
        # but not in U(2): a determinant other than 1 would go unseen
        if abs(np.linalg.det(m) - 1.0) > 1e-8:
            raise NumericFailure(f"argument {name} is not in SU(2)")
    out = batch_evaluate(w, mu[None], mv[None])[0]
    return unitary(out)


def distance_to_identity(u) -> float:
    """Operator norm of I - U on SU(2): sqrt(2 - tr U)."""
    m = u.matrix if isinstance(u, UnitaryMatrix) else np.asarray(u)
    tr = m[0, 0] + m[1, 1]
    return min(2.0, math.sqrt(max(0.0, 2.0 - tr.real)))


def _batch_distance(ms: np.ndarray) -> np.ndarray:
    tr = np.trace(ms, axis1=-2, axis2=-1).real
    return np.sqrt(np.clip(2.0 - tr, 0.0, 4.0))


# ----------------------------------------------------------------------
# sampled lower bounds

@dataclass(frozen=True)
class LEstimate:
    word: Word
    lower: float
    witness: Tuple[UnitaryMatrix, UnitaryMatrix]
    samples: int

    def recheck(self, tol: float = 1e-10) -> bool:
        d = distance_to_identity(evaluate(self.word, *self.witness))
        return abs(d - self.lower) <= tol


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _su2_rotation(axis: int, theta: float) -> np.ndarray:
    return math.cos(theta) * np.eye(2, dtype=complex) + 1j * math.sin(theta) * _PAULI[axis]


def _polish_pair(w: Word, u: np.ndarray, v: np.ndarray, steps: int):
    """Greedy rotation about each Pauli axis; returns the improved pair and
    value."""
    best = distance_to_identity(batch_evaluate(w, u[None], v[None])[0])
    step = 0.2
    used = 0
    while used < steps and step > 1e-9:
        improved = False
        for side in (0, 1):
            for axis in range(3):
                for sign in (1.0, -1.0):
                    if used >= steps:
                        break
                    used += 1
                    rot = _su2_rotation(axis, sign * step)
                    cu = rot @ u if side == 0 else u
                    cv = rot @ v if side == 1 else v
                    d = distance_to_identity(batch_evaluate(w, cu[None], cv[None])[0])
                    if d > best:
                        best, u, v, improved = d, cu, cv, True
        if not improved:
            step /= 2.0
    return u, v, best


def estimate_L(w: Word, samples: int = 10_000, polish_steps: int = 200,
               seed: int = 0) -> LEstimate:
    """Best sampled distance from the identity, then a local polish.

    Deterministic for a fixed seed; the sample stream is drawn in fixed-size
    chunks, so a larger budget strictly extends a smaller one.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    best = -1.0
    best_pair = None
    for us, vs in _haar_pairs(seed, samples):
        ds = _batch_distance(batch_evaluate(w, us, vs))
        i = int(np.argmax(ds))
        if ds[i] > best:
            best = float(ds[i])
            best_pair = (us[i], vs[i])
    u, v, best = _polish_pair(w, *best_pair, polish_steps)
    witness = (unitary(u), unitary(v))
    best = distance_to_identity(evaluate(w, *witness))
    return LEstimate(word=w, lower=min(best, 2.0), witness=witness, samples=samples)


# ----------------------------------------------------------------------
# certified upper bounds

@dataclass(frozen=True)
class GridProvenance:
    net_resolution: float
    lipschitz_const: float


@dataclass(frozen=True)
class PropagatedProvenance:
    source: Tuple[int, int]  # the two previous levels


Provenance = Union[GridProvenance, PropagatedProvenance]


@dataclass(frozen=True)
class CertifiedBound:
    n: int
    upper: float
    provenance: Provenance


def _net_shape(eps: float) -> Tuple[int, int, int]:
    """Grid points per hypersphere angle (psi, theta, phi) of the eps-net.

    Quaternion coordinates are 1-Lipschitz in each angle, so a grid with
    step h leaves gaps of at most 3h/2 in Euclidean norm, and
    ||U(p) - U(q)|| <= ||.||_F = sqrt(2) |p - q|.
    """
    r = eps / math.sqrt(2.0)     # Euclidean covering radius needed on S^3
    h = 2.0 * r / 3.0
    n_half = max(1, math.ceil(math.pi / h))
    return n_half, n_half, max(1, math.ceil(2.0 * math.pi / h))


def su2_net(eps: float) -> np.ndarray:
    """A finite subset of SU(2) within operator distance eps of every point
    (see _net_shape)."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    n_psi, n_theta, n_phi = _net_shape(eps)
    psi = (np.arange(n_psi) + 0.5) * (math.pi / n_psi)
    theta = (np.arange(n_theta) + 0.5) * (math.pi / n_theta)
    phi = (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    ps, ts, fs = np.meshgrid(psi, theta, phi, indexing="ij")
    ps, ts, fs = ps.ravel(), ts.ravel(), fs.ravel()
    q = np.stack([np.cos(ps),
                  np.sin(ps) * np.sin(ts) * np.cos(fs),
                  np.sin(ps) * np.sin(ts) * np.sin(fs),
                  np.sin(ps) * np.cos(ts)], axis=1)
    return _quaternions_su2(q)


# the most argument pairs certify_seed evaluates before it refuses
CERTIFY_BUDGET_POINTS = 4_000_000


def net_points_required(w: Word, eps: float) -> int:
    """Number of argument pairs a grid certificate at this eps must evaluate."""
    if not w:
        return 1
    return math.prod(_net_shape(eps)) ** 2


def certify_seed(w: Word, eps: float) -> CertifiedBound:
    """Grid certificate: max over an eps-net plus the Lipschitz slack.

    Each letter is 1-Lipschitz in each argument, so the word map moves by at
    most len(w) * (shift of u) + len(w) * (shift of v): the slack is
    2 * len(w) * eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    lip = float(len(w))
    if not w:
        return CertifiedBound(n=0, upper=0.0,
                              provenance=GridProvenance(eps, 0.0))
    needed = net_points_required(w, eps)
    if needed > CERTIFY_BUDGET_POINTS:
        raise BudgetExceeded(
            f"eps={eps:g} needs {needed:.3e} pair evaluations "
            f"(budget {CERTIFY_BUDGET_POINTS:.3e})")
    net = su2_net(eps)
    m = len(net)
    worst = 0.0
    # about 50,000 pairs per block: the arrays alive during one block (the
    # arguments, their first rows, the (alpha, beta) temporaries and the
    # values) then take under 20 MB, which a run already holding the
    # level-14 family absorbs with its peak memory almost unchanged; blocks
    # four times larger raised that peak by 10-19 MB
    block = max(1, 50_000 // max(1, m))
    for i in range(0, m, block):
        us = np.repeat(net[i:i + block], m, axis=0)
        vs = np.tile(net, (len(net[i:i + block]), 1, 1))
        ds = _batch_distance(batch_evaluate(w, us, vs))
        worst = max(worst, float(np.max(ds)))
    # any unitary is within 2 of the identity, so 2 always certifies
    upper = min(2.0, worst + 2.0 * lip * eps)
    return CertifiedBound(n=0, upper=upper, provenance=GridProvenance(eps, lip))


def certification_cost_at_threshold(w: Word,
                                    target: float = SEED_THRESHOLD) -> int:
    """Pairs the grid would need even in the best case (net max 0)."""
    if not w:
        return 1
    eps = target / (2.0 * len(w))
    return net_points_required(w, eps)


# ----------------------------------------------------------------------
# seed admissibility

def seed_candidate_pool(max_len: int = 16) -> List[Word]:
    """Commutators and short conjugate products, deduplicated by symmetry."""
    a, b = Word.parse("a"), Word.parse("b")
    basics = [a, b, a * b, a * ~b, a * a, b * b, a * b * ~a]
    cands: List[Word] = []
    for u in basics:
        for v in basics:
            cands.append(commutator(u, v))
    for c in (a, b, a * b):
        cands.append(commutator(conjugate(commutator(a, b), c),
                                commutator(a, b)))
        cands.append(conjugate(commutator(a, b), c)
                     * conjugate(commutator(b, a), ~c))
    seq = build(2)
    cands += [seq.a(1), seq.b(1), seq.a(2), seq.b(2)]
    flags = SearchFlags(cyclic=True, inverse=True, automorphism=True)
    seen = set()
    pool = []
    for w in cands:
        if not w or len(w) > max_len:
            continue
        key = canonical_bytes(w.data, flags)
        if key not in seen:
            seen.add(key)
            pool.append(w)
    pool.sort(key=lambda w: (len(w), w.data))
    return pool


# Pairs of even permutations on five points.  A word whose map stays within
# 1/3 of the identity on SU(2)^2 is a law of the icosahedral subgroup (see
# module docstring), so it must die under EVERY homomorphism to the
# alternating group on five points; each pair below is one such
# homomorphism, so their joint kernel over-approximates the admissible set.
# Seven pairs happen to be enough to empty it up to length 16: the first
# five were chosen for variety of element orders, the last two kill the
# only two joint-kernel words of length 16 the five-pair search found.
_A5_PAIRS = (
    ("(1 2 3 4 5)", "(3 4 5)"),
    ("(1 2 3 4 5)", "(1 2)(3 4)"),
    ("(1 2 3)", "(3 4 5)"),
    ("(1 2)(3 4)", "(1 3 5)"),
    ("(3 4 5)", "(1 2 3 4 5)"),
    ("(1 2 3)", "(2 3 4)"),
    ("(1 2)(3 4)", "(2 3)(4 5)"),
)


def _a5_block_quotient() -> PermutationQuotient:
    blocks_a, blocks_b = [], []
    offset = 0
    for ca, cb in _A5_PAIRS:
        pa = permutation_from_cycles(ca, degree=5)
        pb = permutation_from_cycles(cb, degree=5)
        blocks_a.extend(p + offset for p in pa)
        blocks_b.extend(p + offset for p in pb)
        offset += 5
    return PermutationQuotient(tuple(blocks_a), tuple(blocks_b))


@dataclass(frozen=True)
class SeedObstruction:
    max_len: int
    outcome: Union[NotFoundBelow, Tuple[int, Word]]
    stats: SearchStats

    @property
    def no_admissible_seed(self) -> bool:
        return isinstance(self.outcome, NotFoundBelow)


def seed_pool_obstruction(max_len: int = 16) -> SeedObstruction:
    """Exhaustively verify that no nontrivial word up to max_len letters
    vanishes on all the alternating-group pairs while having zero exponent
    sums — the two necessary conditions for a word map to stay within 1/3
    of the identity on all of SU(2)^2.

    search_mitm meets in the middle on the zerosum-perm: oracle of the
    pairs' block quotient, and stats.tested counts the candidates it rules
    out: every cyclically reduced zero-sum word up to max_len, 13,848 up
    to length 12 and 870,760 up to 16 (see _zero_sum_cyclic_words)."""
    q = _a5_block_quotient()
    outcome = search_mitm(f"zerosum-{q.spec_string()}", max_len)
    stats = SearchStats(tested=_zero_sum_cyclic_words(max_len))
    return SeedObstruction(max_len=max_len, outcome=outcome, stats=stats)


def _zero_sum_cyclic_words(max_len: int) -> int:
    """The cyclically reduced words of length 1..max_len with both
    exponent sums zero.  These are also the leaves search_min tests on the
    obstruction's oracle under its flags, since the balance prune cuts no
    node with a zero-sum leaf below it.

    Counted over the prefixes that start with a, by their last letter and
    exponent sums, keeping those that can still return to zero sums; the
    symmetries a <-> a^-1 and a <-> b carry them onto the words that start
    with each of the other three letters, so the total is four times that."""
    first = LETTER_A
    prefixes = {(first, 1, 0): 1}
    total = 0
    for n in range(2, max_len + 1):
        left = max_len - n
        grown: dict = {}
        for (last, ea, eb), count in prefixes.items():
            for c, (da, db) in EXPONENT_DELTA.items():
                if c != inverse_letter(last) and \
                        abs(ea + da) + abs(eb + db) <= left:
                    key = (c, ea + da, eb + db)
                    grown[key] = grown.get(key, 0) + count
        prefixes = grown
        total += sum(count for (last, ea, eb), count in prefixes.items()
                     if ea == eb == 0 and last != inverse_letter(first))
    return 4 * total


@dataclass(frozen=True)
class SeedSearchReport:
    pool: Tuple[Word, ...]
    sampled: Tuple[Tuple[Word, float], ...]  # (word, sampled lower), ascending
    obstruction: SeedObstruction
    admissible: Tuple[Word, ...]             # words that could still qualify

    @property
    def best(self) -> Tuple[Word, float]:
        return self.sampled[0]


def seed_search(max_len: int = 16, samples: int = 2000, seed: int = 7
                ) -> SeedSearchReport:
    """The whole pipeline: pool, sampled ranking, exhaustive obstruction."""
    pool = seed_candidate_pool(max_len)
    sampled = []
    for w in pool:
        est = estimate_L(w, samples=samples, polish_steps=60, seed=seed)
        sampled.append((w, est.lower))
    sampled.sort(key=lambda t: (t[1], len(t[0]), t[0].data))
    obstruction = seed_pool_obstruction(max_len=max_len)
    admissible = tuple(w for w, lo in sampled
                       if lo <= SEED_THRESHOLD and not obstruction.no_admissible_seed)
    return SeedSearchReport(pool=tuple(pool), sampled=tuple(sampled),
                            obstruction=obstruction, admissible=admissible)


# ----------------------------------------------------------------------
# propagation and the decay table

def _up(x: float) -> float:
    return math.nextafter(x, math.inf)


def propagate_bounds(u0: float, n_max: int) -> List[float]:
    """U_1 = 2 U_0^2, then U_n = 4 U_{n-1}^2 U_{n-2}, every product rounded
    upward so floating point can only overestimate."""
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    us = [float(u0)]
    if n_max >= 1:
        us.append(_up(2.0 * _up(u0 * u0)))
    for _ in range(2, n_max + 1):
        prev, prev2 = us[-1], us[-2]
        us.append(_up(4.0 * _up(_up(prev * prev) * prev2)))
    return us


@dataclass(frozen=True)
class DecayRow:
    n: int
    length: int
    upper: float
    lower: Optional[float]
    minus_log_2upper: float
    ratio_silver: float


@dataclass(frozen=True)
class DecayTable:
    seeds: Tuple[Word, Word]
    rows: Tuple[DecayRow, ...]
    bounds: Tuple[CertifiedBound, ...]
    d_hat: float            # largest D with -log(2 U_n) >= D (1+sqrt2)^n
    d_lsq: float            # least-squares slope against (1+sqrt2)^n
    c_hat: float            # intercept of the log-log length regression
    exponent_hat: float     # slope of the log-log length regression
    samples: int
    rng_seed: int


def compose_family(seeds: Tuple[Word, Word], n_max: int) -> List[Word]:
    """The first family member at each level, seeds substituted, reduced."""
    if not seeds[0] or not seeds[1]:
        raise SeedRejected("seed words must be nontrivial")
    seq = build(n_max, seeds=seeds)
    words = [seq.a(n) for n in range(n_max + 1)]
    for n, w in enumerate(words):
        if not w:
            raise SeedRejected(f"composed word at level {n} is trivial")
    return words


def _su2_chain(*factors):
    """(alpha, beta) of the product of (alpha, beta) batches, left to right."""
    a, b = factors[0]
    for x, y in factors[1:]:
        a, b = a * x - b * y.conj(), a * y + b * x.conj()
    return a, b


def _su2_inverse(p):
    a, b = p
    return a.conj(), -b


def _su2_normalized(p):
    """Polar factor of [[a, b], [-conj(b), conj(a)]], which is that matrix
    divided by sqrt(|a|^2 + |b|^2)."""
    a, b = p
    r = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / r, b / r


def _sampled_lowers(seeds: Tuple[Word, Word], n_max: int, samples: int,
                    rng_seed: int) -> List[float]:
    """Max sampled distance per level via the value recursion (one pass of
    commutators per level on (alpha, beta) arrays instead of re-reading the
    long words)."""
    def distance(p):
        return float(np.max(np.sqrt(np.clip(2.0 - 2.0 * p[0].real, 0.0, 4.0))))

    lows = [0.0] * (n_max + 1)
    for us, vs in _haar_pairs(rng_seed, samples):
        a = _word_pair(seeds[0], us, vs)
        b = _word_pair(seeds[1], us, vs)
        lows[0] = max(lows[0], distance(a))
        for n in range(1, n_max + 1):
            ai, bi = _su2_inverse(a), _su2_inverse(b)
            a, b = (_su2_normalized(_su2_chain(bi, a, b, ai)),
                    _su2_normalized(_su2_chain(a, b, ai, bi)))
            lows[n] = max(lows[n], distance(a))
    return lows


def run_decay(seeds: Tuple[Word, Word],
              seed_bounds: Tuple[CertifiedBound, CertifiedBound],
              n_max: int, samples: int = 10_000,
              rng_seed: int = 0) -> DecayTable:
    """Propagated upper bounds against sampled lower bounds, with fits.

    Refuses to run unless both seed bounds are at most 1/3 (the recursion
    need not contract otherwise) and every composed word is nontrivial.
    With samples = 0 the lower column is left empty; otherwise a sampled
    lower exceeding the certified upper at any level is a hard error, since
    both bound the same maximum.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2 so the fits have enough points")
    for b in seed_bounds:
        if b.upper > SEED_THRESHOLD:
            raise SeedRejected(
                f"seed bound {b.upper:.6f} exceeds {SEED_THRESHOLD:.6f}")
    words = compose_family(seeds, n_max)
    u0 = max(b.upper for b in seed_bounds)
    uppers = propagate_bounds(u0, n_max)
    bounds = [max(seed_bounds, key=lambda b: b.upper)]
    for n in range(1, n_max + 1):
        bounds.append(CertifiedBound(
            n=n, upper=uppers[n],
            provenance=PropagatedProvenance(source=(n - 1, max(0, n - 2)))))
    lowers: List[Optional[float]] = [None] * (n_max + 1)
    if samples > 0:
        lows = _sampled_lowers(seeds, n_max, samples, rng_seed)
        for n in range(n_max + 1):
            if lows[n] > uppers[n] + 1e-9:
                raise AssertionError(
                    f"sampled lower {lows[n]:.6f} exceeds certified upper "
                    f"{uppers[n]:.6f} at level {n}: one of the bounds is wrong")
            lowers[n] = lows[n]
    ms = [-math.log(2.0 * u) for u in uppers]
    ratios = [ms[n] / SILVER ** n for n in range(n_max + 1)]
    d_hat = min(ratios)
    xs = np.array([SILVER ** n for n in range(n_max + 1)])
    d_lsq = float(np.dot(xs, ms) / np.dot(xs, xs))
    log_len = np.log([len(w) for w in words])
    log_m = np.log(ms)
    exponent_hat, log_c = np.polyfit(log_len, log_m, 1)
    rows = tuple(DecayRow(n=n, length=len(words[n]), upper=uppers[n],
                          lower=lowers[n], minus_log_2upper=ms[n],
                          ratio_silver=ratios[n])
                 for n in range(n_max + 1))
    return DecayTable(seeds=tuple(seeds), rows=rows, bounds=tuple(bounds),
                      d_hat=d_hat, d_lsq=d_lsq, c_hat=float(math.exp(log_c)),
                      exponent_hat=float(exponent_hat),
                      samples=samples, rng_seed=rng_seed)


CSV_HEADER = "n,len,upper,lower,minus_log_2upper,ratio_to_(1+√2)^n"


def decay_csv(table: DecayTable) -> str:
    lines = [CSV_HEADER]
    for r in table.rows:
        low = "" if r.lower is None else f"{r.lower:.12g}"
        lines.append(f"{r.n},{r.length},{r.upper:.12g},{low},"
                     f"{r.minus_log_2upper:.12g},{r.ratio_silver:.12g}")
    return "\n".join(lines) + "\n"
