"""Word maps on SU(2): sampling, certified bounds, decay.

A word w in two letters induces the evaluation map (u, v) -> w(u, v) on
SU(2) x SU(2).  The module measures how far that map gets from the identity
in operator norm, which on SU(2) has the closed form d(I, U) = sqrt(2 - tr U):

  * sampled lower bounds on the maximum (Haar samples plus a derivative-free
    polish step),
  * certified upper bounds (an epsilon-net over SU(2)^2 with an explicit
    Lipschitz slack, the only honest grid certificate, with its cost
    accounted up front),
  * a hypothetical decay table: an assumed start bound u0 <= 1/3 carried
    through the commutator recursion U_n = 4 U_{n-1}^2 U_{n-2} by its closed
    form U_n = (2 u0)^P_(n+1) / 2 (P the Pell numbers 1, 2, 5, 12, ...),
    rounded up in 40-digit decimal so that no bound underestimates or
    underflows, beside the family's lengths and the contraction's fits.

Evaluation.  An element of SU(2) is a unit quaternion, held as the pair
(alpha, beta) = (q0 + i q1, q2 + i q3): the first row of [[alpha, beta],
[-conj(beta), conj(alpha)]], a matrix that is never formed.  One element is
a (2,) complex array and a batch an (n, 2) array.  `_mul` is the one
product; `_letter_pairs` gives an element's inverse (conj(alpha), -beta)
and the conjugates `_mul` takes for each; `_normalized` is the nearest
unit quaternion (the polar factor of that matrix, by one division); the
distance is sqrt(2 - 2 Re alpha).  A word's value on a batch of argument
pairs is one `_mul` per letter on the batch's columns, four elementwise
complex products (`_word_value`); each letter's pair and its conjugates
are formed once per call and passed to `_mul` by name.  The u and v
batches need only broadcast: the grid certificate evaluates a block of net
rows against the whole net, (b, 1) against (1, m), and copies no pair out.
Its blocks of about 4,000 pairs are small enough that each reuses the heap
memory the last one freed (about 0.6 MB in all) instead of faulting in
fresh pages.

Sampling draws each (seed, samples) stream once, in one call of whole
chunks, and keeps it read-only in a small memo (`_haar_pairs`): the seed
search and the criteria estimate every pool word on the same stream.  A
word is evaluated on the whole stream at once, and its first maximum
starts the polish.

One pair at a time, numpy's per-call cost outweighs four products, so the
polish after sampling scores each probe on Python complex scalars through
the same `_mul` (`_scalar_distance`).  numpy's array loop may fuse a
multiply and an add where Python rounds twice, so a scalar score can differ
from `batch_evaluate`'s in the last bits; the polish only compares its own
scores, and the witness it returns is scored again through
`batch_evaluate`.

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
is why `certify_seed` can never accept a short seed and `decay_table` takes
its start bound as an assumption rather than from a certificate.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Tuple, Union

import numpy as np

from .construction import BudgetExceeded, build
from .quotients import cycles_string, permutation_from_cycles
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

SEED_THRESHOLD = 1.0 / 3.0
SILVER = 1.0 + math.sqrt(2.0)
GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0
# smallest distance from the identity to a nontrivial element of the
# icosahedral subgroup: traces are {±2, ±golden, ±1/golden, ±1, 0}, and
# 2 - golden = golden^-2 exactly
ICOSAHEDRAL_GAP = 1.0 / GOLDEN


class NumericFailure(RuntimeError):
    """An argument is not a finite unit quaternion."""


# ----------------------------------------------------------------------
# unit quaternions

def _mul(p, q, q_bar):
    """The product of (alpha, beta) pairs p = (a, b) and q = (x, y),
    (a x - b conj(y), a y + b conj(x)), as a tuple, given q's conjugates
    q_bar = (conj(x), conj(y)).  A pair is one (2,) element, the columns
    `batch.T` of an (n, 2) batch, or two Python complex scalars."""
    (a, b), (x, y), (x_bar, y_bar) = p, q, q_bar
    return a * x - b * y_bar, a * y + b * x_bar


def _bar(q):
    """q's conjugates, to pass to _mul as bound names: numpy may multiply
    into a temporary conjugate in place, which on a large batch swaps the
    operands and can move the last bit."""
    x, y = q
    return x.conjugate(), y.conjugate()


def _letter_pairs(q):
    """(pair, conjugates) of q = (x, y) and of its inverse (conj(x), -y),
    from two conjugations and two negations."""
    x, y = q
    x_bar, y_bar = _bar(q)
    return ((x, y), (x_bar, y_bar)), ((x_bar, -y), (x, -y_bar))


def _normalized(p):
    """The nearest unit quaternion, p / sqrt(|alpha|^2 + |beta|^2), as a
    tuple: the polar factor of p's matrix."""
    a, b = p
    r = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    return a / r, b / r


def haar_su2(rng: np.random.Generator, *shape: int) -> np.ndarray:
    """Haar-distributed (*shape, 2) batch: normalized 4-vectors of
    Gaussians read as (q0 + i q1, q2 + i q3), drawn in C order."""
    q = rng.normal(size=(*shape, 4))
    q /= np.linalg.norm(q, axis=-1, keepdims=True)
    return q.view(complex)


_CHUNK = 256  # fixed draw granularity so larger budgets extend smaller ones


@lru_cache(maxsize=4)  # one entry per (seed, samples) a caller repeats
def _haar_pairs(seed: int, samples: int) -> Tuple[np.ndarray, np.ndarray]:
    """`samples` Haar argument pairs as read-only (us, vs) batches.

    The stream is whole chunks of _CHUNK u's, then _CHUNK v's, drawn in
    one call; the last chunk is cut to length.  These are the pairs that
    haar_su2 draws chunk by chunk, u batch before v batch."""
    q = haar_su2(np.random.default_rng(seed), -(-samples // _CHUNK), 2, _CHUNK)
    pairs = tuple(q[:, i].reshape(-1, 2)[:samples] for i in (0, 1))
    for batch in pairs:
        batch.setflags(write=False)
    return pairs


def _word_value(w: Word, u, v):
    """w(u, v) for a nontrivial w, as an (alpha, beta) pair: one _mul per
    letter.  Each letter's pair and its conjugates are formed once per
    call, however often the letter occurs."""
    letter = dict(zip((LETTER_A, LETTER_AI, LETTER_B, LETTER_BI),
                      _letter_pairs(u) + _letter_pairs(v)))
    acc = letter[w.data[0]][0]
    for c in w.data[1:]:
        acc = _mul(acc, *letter[c])
    return acc


def batch_evaluate(w: Word, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
    """Evaluate the word map on batches of argument pairs, (..., 2) arrays
    whose leading shapes broadcast, as a batch of the broadcast shape; no
    normalization."""
    out = np.empty(np.broadcast_shapes(us.shape, vs.shape), dtype=complex)
    out[..., 0], out[..., 1] = (
        _word_value(w, np.moveaxis(us, -1, 0), np.moveaxis(vs, -1, 0))
        if w else (1.0, 0.0))
    return out


def evaluate(w: Word, u, v) -> np.ndarray:
    """Word map at one pair of unit quaternions, normalized."""
    for name, p in (("u", u), ("v", v)):
        if np.shape(p) != (2,) or not abs(np.vdot(p, p).real - 1.0) <= 1e-8:
            raise NumericFailure(f"argument {name} is not a unit quaternion")
    out = batch_evaluate(w, np.asarray(u)[None], np.asarray(v)[None])[0]
    return np.array(_normalized(out))


def distance_to_identity(p):
    """Operator norm of I - U on SU(2), for one element or a batch:
    sqrt(2 - tr U), where tr U = 2 Re alpha, clipped to [0, 4] under the
    root (np.clip costs more than two ufunc calls on one element)."""
    return np.sqrt(np.minimum(np.maximum(2.0 - 2.0 * p[..., 0].real, 0.0), 4.0))


# ----------------------------------------------------------------------
# sampled lower bounds

@dataclass(frozen=True)
class LEstimate:
    word: Word
    lower: float
    witness: Tuple[np.ndarray, np.ndarray]

    def recheck(self) -> bool:
        d = distance_to_identity(evaluate(self.word, *self.witness))
        return bool(abs(d - self.lower) <= 1e-10)


def _rotation(axis: int, theta: float):
    """exp(i theta sigma_axis) for the Pauli matrix sigma_axis, as a pair."""
    c, s = math.cos(theta), math.sin(theta)
    return ((c, 1j * s), (c, s), (complex(c, s), 0.0))[axis]


def _scalar_distance(w: Word, u, v) -> float:
    """distance_to_identity of w(u, v) for one pair of Python complex
    pairs, with no numpy call (see the module docstring on rounding)."""
    alpha = _word_value(w, u, v)[0] if w else 1.0
    return math.sqrt(min(max(2.0 - 2.0 * alpha.real, 0.0), 4.0))


def _polish_pair(w: Word, u: np.ndarray, v: np.ndarray, steps: int):
    """Greedy rotation about each Pauli axis; returns the improved pair and
    value.  Each probe is scored on Python complex scalars."""
    u, v = tuple(map(complex, u)), tuple(map(complex, v))
    best = _scalar_distance(w, u, v)
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
                    rot = _rotation(axis, sign * step)
                    cu = _mul(rot, u, _bar(u)) if side == 0 else u
                    cv = _mul(rot, v, _bar(v)) if side == 1 else v
                    d = _scalar_distance(w, cu, cv)
                    if d > best:
                        best, u, v, improved = d, cu, cv, True
        if not improved:
            step /= 2.0
    return np.array(u), np.array(v), best


def estimate_L(w: Word, samples: int = 10_000, polish_steps: int = 200,
               seed: int = 0) -> LEstimate:
    """Best sampled distance from the identity, then a local polish.

    Deterministic for a fixed seed; the sample stream is drawn in fixed-size
    chunks, so a larger budget strictly extends a smaller one.  The first
    sample at the batch's maximum starts the polish.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    us, vs = _haar_pairs(seed, samples)
    i = int(np.argmax(distance_to_identity(batch_evaluate(w, us, vs))))
    u, v, best = _polish_pair(w, us[i], vs[i], polish_steps)
    witness = (np.array(_normalized(u)), np.array(_normalized(v)))
    best = float(distance_to_identity(evaluate(w, *witness)))
    return LEstimate(word=w, lower=best, witness=witness)


# ----------------------------------------------------------------------
# certified upper bounds

@dataclass(frozen=True)
class GridProvenance:
    net_resolution: float
    lipschitz_const: float


@dataclass(frozen=True)
class CertifiedBound:
    upper: float
    provenance: GridProvenance


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
    return q.view(complex)


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
        return CertifiedBound(upper=0.0, provenance=GridProvenance(eps, 0.0))
    needed = net_points_required(w, eps)
    if needed > CERTIFY_BUDGET_POINTS:
        raise BudgetExceeded(
            f"eps={eps:g} needs {_scientific(needed)} pair evaluations "
            f"(budget {CERTIFY_BUDGET_POINTS:.3e})")
    # every element of SU(2) is within 2 of the identity, so 2 certifies
    upper = min(2.0, _net_max(w, su2_net(eps)) + 2.0 * lip * eps)
    return CertifiedBound(upper=upper, provenance=GridProvenance(eps, lip))


def _net_max(w: Word, net: np.ndarray) -> float:
    """The largest distance from the identity of w over net x net.

    About 4,000 pairs per block, a block of net rows against the whole net
    by broadcasting: each column array is then about 64 KB, under glibc's
    default 128 KB mmap threshold, so one block's arrays reuse the heap
    memory the last block freed instead of being mapped and faulted in
    afresh (0.56 MB traced for a 10-letter word at eps 1.0).  Blocks of
    50,000 pairs took 1.6 times as long for abAB at eps 1.2 (11.0 ms
    against 6.8, best of 20 on a 2-core Xeon), with about 3,600 minor
    faults per call against none."""
    m = len(net)
    block = max(1, 4_000 // m)
    worst = 0.0
    for i in range(0, m, block):
        ds = distance_to_identity(
            batch_evaluate(w, net[i:i + block, None], net[None]))
        worst = max(worst, float(np.max(ds)))
    return worst


def _scientific(n: int) -> str:
    """A positive int as f"{n:.3e}" spells it, by integer arithmetic, so
    an int too large for a float still formats."""
    e = len(str(n)) - 1
    m, r = divmod(n * 1000, 10 ** e)  # four significant digits, remainder
    if 2 * r > 10 ** e or (2 * r == 10 ** e and m % 2):  # half to even
        m += 1
    if m == 10_000:
        m, e = 1000, e + 1
    return f"{m // 1000}.{m % 1000:03d}e{e:+03d}"


def certification_cost_at_threshold(w: Word) -> int:
    """Pairs the grid would need at the seed threshold, even at net max 0."""
    if not w:
        return 1
    eps = SEED_THRESHOLD / (2.0 * len(w))
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


def _a5_block_spec() -> str:
    blocks_a, blocks_b = [], []
    offset = 0
    for ca, cb in _A5_PAIRS:
        pa = permutation_from_cycles(ca, degree=5)
        pb = permutation_from_cycles(cb, degree=5)
        blocks_a.extend(p + offset for p in pa)
        blocks_b.extend(p + offset for p in pb)
        offset += 5
    return f"perm:a={cycles_string(blocks_a)};b={cycles_string(blocks_b)}"


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
    outcome = search_mitm(f"zerosum-{_a5_block_spec()}", max_len)
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

# 40 digits rounded up, over an exponent range no table can leave; ln and
# exp round to nearest in any context, so their results step one ulp by hand
_UP = decimal.Context(prec=40, rounding=decimal.ROUND_CEILING,
                      Emin=decimal.MIN_EMIN, Emax=decimal.MAX_EMAX)


@dataclass(frozen=True)
class DecayRow:
    n: int
    length: int
    upper: decimal.Decimal
    minus_log_2upper: float
    ratio_silver: float


@dataclass(frozen=True)
class DecayTable:
    rows: Tuple[DecayRow, ...]
    d_hat: float            # largest D with -log(2 U_n) >= D (1+sqrt2)^n
    exponent_hat: float     # slope of the log-log length regression


def decay_table(u0: float, n_max: int) -> DecayTable:
    """The start bound u0 propagated to level n_max beside the length of
    each level's a_n, with the fitted constants of the contraction.

    u0 is an assumed bound on both seeds' word-map maxima, not a
    certificate: no short word can have one (see seed admissibility in the
    module docstring).  The recursion need not contract above 1/3.
    """
    if not 0.0 < u0 <= SEED_THRESHOLD:
        raise ValueError(f"u0 must be in (0, 1/3], not {u0!r}")
    if n_max < 2:
        raise ValueError("n_max must be >= 2 so the fits have enough points")
    seq = build(n_max)
    lengths = [len(seq.a(n)) for n in range(n_max + 1)]
    pell = [1, 2]  # P_1, P_2, ...: P_(n+1) = 2 P_n + P_(n-1)
    while len(pell) <= n_max:
        pell.append(2 * pell[-1] + pell[-2])
    # log(2 U_n) = P_(n+1) log(2 u0) = -m_n, rounded up, so m_n rounds down
    # and U_n up; 2.0 * u0 is exact
    log0 = decimal.Decimal(2.0 * u0).ln(_UP).next_plus(_UP)
    logs = [_UP.multiply(p, log0) for p in pell]
    uppers = [_UP.divide(x.exp(_UP).next_plus(_UP), 2) for x in logs]
    ms = [-float(x) for x in logs]
    ratios = [ms[n] / SILVER ** n for n in range(n_max + 1)]
    exponent_hat = np.polyfit(np.log(lengths), np.log(ms), 1)[0]
    rows = tuple(DecayRow(n=n, length=lengths[n], upper=uppers[n],
                          minus_log_2upper=ms[n], ratio_silver=ratios[n])
                 for n in range(n_max + 1))
    return DecayTable(rows=rows, d_hat=min(ratios),
                      exponent_hat=float(exponent_hat))


CSV_HEADER = "n,len,upper,minus_log_2upper,ratio_to_(1+√2)^n"


def decay_csv(table: DecayTable) -> str:
    """A bound below the smallest normal double prints rounded up to 12
    digits (format rounds in the context's mode), with its own exponent."""
    lines = [CSV_HEADER]
    with decimal.localcontext(_UP):
        for r in table.rows:
            u = r.upper if r.upper < sys.float_info.min else float(r.upper)
            lines.append(f"{r.n},{r.length},{u:.12g},"
                         f"{r.minus_log_2upper:.12g},{r.ratio_silver:.12g}")
    return "\n".join(lines) + "\n"
