"""The three benchmark workloads: their queries, their inputs, and the table
of expected answers every query is checked against after timing.

Every query calls a public function of ``lcslab`` through its module
attribute (``search.alpha``, ``girth.girth``, ...), so the traced run's
shims, which replace those attributes, see every call.  A query returns a
small comparable answer; queries that need heavy verification return the
raw result and a ``settle`` step turns it into the answer after the timed
pass.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from lcslab import almostlaw, construction, girth, magnus, nielsen, search
from lcslab.words import Word, commutator, random_word

S3_KERNEL = "perm:a=(1 2);b=(1 2 3)"
KLEIN_KERNEL = "perm:a=(1 2)(3 4);b=(1 3)(2 4)"
Z2Z3_KERNEL = "perm:a=(1 2);b=(3 4 5)"

# family-certify sizes (the seed changes the inputs, never their number)
LAW_PAIRS = 400
LAW_DEGREE = 8
NIELSEN_LISTS = 600
POOL_MAX_LEN = 16
SAMPLES = 4000
POLISH_STEPS = 100
CERTIFY_WORD = "abAB"
CERTIFY_EPS = 1.2


@dataclass(frozen=True)
class Query:
    name: str
    run: Callable[[dict], object]
    settle: Optional[Callable[[object], object]] = None


def _found_or_bound(result) -> tuple:
    if isinstance(result, search.NotFoundBelow):
        return ("not_found_below", result.bound)
    return ("found", result.value, str(result.witness))


def _alpha(n: int, cap: int) -> Query:
    def run(state):
        try:
            entry = search.alpha(n, cap, n)
        except search.NotFoundBelowError as ex:
            return ("not_found_below", ex.bound)
        return ("found", entry.value, str(entry.witness))
    return Query(f"alpha({n}) to {cap}", run)


def _girth(label: str, oracle_id: str, reverify: bool) -> Query:
    def run(state):
        return _found_or_bound(girth.girth(oracle_id, 14, reverify=reverify))
    return Query(f"girth {label} to 14" + ("" if reverify else ", search only"),
                 run)


def _obstruction(cap: int) -> Query:
    def run(state):
        obs = almostlaw.seed_pool_obstruction(cap)
        return _found_or_bound(obs.outcome) + (obs.stats.tested,)
    return Query(f"seed_pool_obstruction({cap})", run)


# ----------------------------------------------------------------------
# family-certify queries: one pass shares the level-14 family in `state`

def _build(state):
    seq = state["seq"] = construction.build(14)
    return (tuple(len(seq.b(n)) for n in range(15)),
            all(len(seq.a(n)) == len(seq.b(n)) for n in range(15)))


def _no_cancellation(state):
    seq = state["seq"]
    return tuple(sum(construction.check_no_cancellation(seq, n).cancelled.values())
                 for n in range(15))


def _identities(state):
    seq = state["seq"]
    return tuple(construction.check_identities(seq, n).ok for n in range(2, 13))


def _depths_low(state):
    seq = state["seq"]
    return tuple(str(magnus.lcs_depth(seq.b(n), 13)) for n in range(4))


def _depth_b4(state):
    return str(magnus.lcs_depth(state["seq"].b(4), 16))


def _law_depths(state):
    out = []
    for u, v in state["inputs"]["law_pairs"]:
        words = (u, v, u * v, commutator(u, v), v * u * ~v)
        out.append(tuple(magnus.lcs_depth(w, LAW_DEGREE) for w in words))
    return out


def _law_violations(rows) -> int:
    """Subadditivity, commutator additivity and conjugation invariance,
    the laws of criterion 05, over the depths one query computed."""
    bad = 0
    for du, dv, dp, dc, dj in rows:
        both = du.is_exact and dv.is_exact
        subadditive = not (both and dp.is_exact
                           and dp.value < min(du.value, dv.value))
        additive = not (both and du.value + dv.value <= LAW_DEGREE
                        and dc.lower_bound() < du.value + dv.value)
        invariant = (du.kind, du.value) == (dj.kind, dj.value)
        bad += not (subadditive and additive and invariant)
    return bad


def _nielsen(state):
    return [(gens, nielsen.reduce_with_witnesses(gens))
            for gens in state["inputs"]["nielsen_lists"]]


def _nielsen_failures(results) -> int:
    return sum(1 for gens, rep in results
               if nielsen.check_nielsen(rep.basis) is not None
               or not rep.verified()
               or not nielsen.same_subgroup(gens, list(rep.basis)))


def _estimate(state):
    inputs = state["inputs"]
    return [almostlaw.estimate_L(w, samples=SAMPLES, polish_steps=POLISH_STEPS,
                                 seed=inputs["seed"])
            for w in inputs["pool"]]


def _estimate_failures(estimates) -> int:
    """Estimates at or below the 1/3 threshold, or whose witness pair does
    not reproduce the reported distance."""
    return sum(1 for est in estimates
               if est.lower <= almostlaw.SEED_THRESHOLD or not est.recheck())


def _certify(state):
    bound = almostlaw.certify_seed(Word.parse(CERTIFY_WORD), CERTIFY_EPS)
    return (bound.upper, bound.provenance.net_resolution,
            bound.provenance.lipschitz_const)


WORKLOADS: Dict[str, List[Query]] = {
    "depth-search": [
        _alpha(2, 14),
        _alpha(3, 14),
        _alpha(4, 14),
        _alpha(5, 12),
        _alpha(6, 12),
    ],
    "kernel-girth": [
        _girth("z2", "z2", True),
        _girth("S3 kernel", S3_KERNEL, True),
        _girth("Klein kernel", KLEIN_KERNEL, True),
        _girth("derived S3", "derived-" + S3_KERNEL, True),
        _girth("derived Klein", "derived-" + KLEIN_KERNEL, True),
        _girth("derived Z2xZ3", "derived-" + Z2Z3_KERNEL, True),
        _girth("derived2", "derived2", False),
        _obstruction(12),
    ],
    "family-certify": [
        Query("build(14)", _build),
        Query("no-cancellation n<=14", _no_cancellation),
        Query("identities 2<=n<=12", _identities),
        Query("depth b0..b3 at D=13", _depths_low),
        Query("depth b4 at D=16", _depth_b4),
        Query(f"depth laws, {LAW_PAIRS} pairs at D={LAW_DEGREE}", _law_depths,
              _law_violations),
        Query(f"nielsen, {NIELSEN_LISTS} lists", _nielsen, _nielsen_failures),
        Query(f"estimate_L over seed_candidate_pool({POOL_MAX_LEN})", _estimate,
              _estimate_failures),
        Query(f"certify_seed({CERTIFY_WORD}, eps={CERTIFY_EPS})", _certify),
    ],
}

# Certified answers: values, witnesses (the byte-least canonical minimum, so
# they are stable), NotFoundBelow bounds with the engine's leaf count, and for
# the seeded queries the number of law or check violations, which is zero.
EXPECTED: Dict[str, Dict[str, object]] = {
    "depth-search": {
        "alpha(2) to 14": ("found", 4, "ABab"),
        "alpha(3) to 14": ("found", 8, "AABabbaB"),
        "alpha(4) to 14": ("found", 14, "AAABBAbaaabbaB"),
        "alpha(5) to 12": ("not_found_below", 12),
        "alpha(6) to 12": ("not_found_below", 12),
    },
    "kernel-girth": {
        "girth z2 to 14": ("found", 4, "ABab"),
        "girth S3 kernel to 14": ("found", 2, "AA"),
        "girth Klein kernel to 14": ("found", 2, "AA"),
        "girth derived S3 to 14": ("found", 10, "AABABaabab"),
        "girth derived Klein to 14": ("found", 8, "AABBaabb"),
        "girth derived Z2xZ3 to 14": ("found", 10, "AABAbaaBab"),
        "girth derived2 to 14, search only": ("found", 14, "AABabaBAAbaBab"),
        "seed_pool_obstruction(12)": ("not_found_below", 12, 13848),
    },
    "family-certify": {
        "build(14)": ((1, 4, 14, 50, 178, 634, 2258, 8042, 28642, 102010,
                       363314, 1293962, 4608514, 16413466, 58457426), True),
        "no-cancellation n<=14": (0,) * 15,
        "identities 2<=n<=12": (True,) * 11,
        "depth b0..b3 at D=13": ("=1", "=2", "=5", "=12"),
        "depth b4 at D=16": ">=17",
        f"depth laws, {LAW_PAIRS} pairs at D={LAW_DEGREE}": 0,
        f"nielsen, {NIELSEN_LISTS} lists": 0,
        f"estimate_L over seed_candidate_pool({POOL_MAX_LEN})": 0,
        f"certify_seed({CERTIFY_WORD}, eps={CERTIFY_EPS})": (2.0, CERTIFY_EPS, 4.0),
    },
}

# What the workload seed drives; the other two workloads have no randomness.
SEED_DRIVES = {
    "depth-search": "nothing: the workload has no randomness",
    "kernel-girth": "nothing: the workload has no randomness",
    "family-certify": "the depth-law pairs, the Nielsen lists and the SU(2) samples",
}


def make_inputs(workload: str, seed: int) -> dict:
    """Inputs generated from the seed; empty for the deterministic workloads."""
    if workload != "family-certify":
        return {}
    rng = random.Random(seed)
    pairs = [(random_word(rng, rng.randrange(1, 13)),
              random_word(rng, rng.randrange(1, 13)))
             for _ in range(LAW_PAIRS)]
    lists = [[random_word(rng, rng.randrange(0, 9))
              for _ in range(rng.randrange(1, 6))]
             for _ in range(NIELSEN_LISTS)]
    return {"seed": seed, "law_pairs": pairs, "nielsen_lists": lists,
            "pool": almostlaw.seed_candidate_pool(POOL_MAX_LEN)}


def warm_up(workload: str) -> None:
    """One tiny call through each layer the workload's queries use."""
    if workload == "depth-search":
        search.alpha(3, 8, 3)
    elif workload == "kernel-girth":
        girth.girth("derived-" + KLEIN_KERNEL, 8)
        almostlaw.seed_pool_obstruction(4)
    else:
        seq = construction.build(4)
        construction.check_no_cancellation(seq, 4)
        construction.check_identities(seq, 4)
        magnus.lcs_depth(seq.b(2), 6)
        nielsen.reduce_with_witnesses([seq.a(2), seq.b(2)])
        almostlaw.estimate_L(seq.b(1), samples=16, polish_steps=4)
        almostlaw.certify_seed(seq.b(1), 2.0)
