"""The verification battery: one check per shipped guarantee, and the one
table of printed constants.

`lcs-lab verify` and tests/test_acceptance.py both run these checks, so
the two cannot disagree.  Each check takes a shared context dict
(`max_len_cap`, from --budget-letters) and returns (status, detail).
Checks also leave what later readers reuse in the same dict: the
level-14 construction (`seq14`), the alpha entries (`alpha`) and beta(2)
(`beta2`).

Without a cap every check asserts exact values.  Under a cap a search cut
short gives `inconclusive`, never `fail`; a certified bound that already
settles the claim still gives `pass`.

Two checks fail by design: almost-law (no admissible certified seed
exists within reach) and constants-report (one printed decimal, delta, is
reachable from its closed form by neither truncation nor rounding).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import almostlaw
from .construction import (MU, build, check_identities, check_lengths,
                           check_no_cancellation)
from .girth import beta_bracket, girth, verify_three_x
from .magnus import Depth, expand, lcs_depth, series_product
from .nielsen import check_nielsen, reduce_with_witnesses, same_subgroup
from .search import AlphaEntry, NotFoundBelow, NotFoundBelowError, alpha_table
from .words import commutator, random_word

# reference decimal strings of the growth constants, in report order
PRINTED_DIGITS = [("mu", "3.56155"), ("nu", "1.44115577304"),
                  ("delta", "0.69391"), ("log2_3", "1.5849"),
                  ("log2_mu", "1.8325")]

DEPTHS = [1, 2, 5, 12]            # lower-central depths of b_0..b_3
ALPHA_VALUES = [1, 4, 8, 14, 14]  # alpha(1..5); alpha(5) is witnessed by b_2
# girth(kernel) and girth([kernel, kernel]) for each kernel oracle
THREE_X = [("z2", "z2", (4, 14)),
           ("S3-kernel", "perm:a=(1 2);b=(1 2 3)", (2, 10)),
           ("klein-kernel", "perm:a=(1 2)(3 4);b=(1 3)(2 4)", (2, 8))]
BETA2, BETA2_WITNESS = 14, "AABabaBAAbaBab"


@dataclass
class CheckRow:
    name: str
    status: str       # pass | fail | inconclusive | skipped
    detail: str
    seconds: float


def _cap(ctx, full: int) -> int:
    return min(full, ctx["max_len_cap"] or full)


def _seq14(ctx):
    if "seq14" not in ctx:
        ctx["seq14"] = build(14)
    return ctx["seq14"]


def _check_construction_lengths(ctx) -> Tuple[str, str]:
    table = check_lengths(_seq14(ctx))
    lens = [r.len_b for r in table.rows]
    if lens[:3] != [1, 4, 14]:
        return "fail", f"lengths start {lens[:3]}, not [1, 4, 14]"
    for r in table.rows:
        if (not (r.lengths_equal and r.at_least_2n)
                or (r.n >= 2 and not r.recurrence_ok)):
            return "fail", f"length law broken at n={r.n}"
    return "pass", (f"len(b_n) for n<=14 starts {lens[:5]}, equals len(a_n), "
                    f">= 2^n, upper recurrence holds; "
                    f"C' = {table.c_prime:.6f}")


def _check_no_cancellation(ctx) -> Tuple[str, str]:
    seq = _seq14(ctx)
    for n in range(15):
        rep = check_no_cancellation(seq, n)
        if not rep.ok:
            return "fail", f"cancellation at n={n}: {rep.cancelled}"
    return "pass", "8 products per level, n <= 14, zero cancelled letters"


def _check_identities(ctx) -> Tuple[str, str]:
    seq = _seq14(ctx)
    for n in range(2, 13):
        if not check_identities(seq, n).ok:
            return "fail", f"identity broken at n={n}"
    return "pass", "defining identities hold for 2 <= n <= 12"


def _check_magnus_depths(ctx) -> Tuple[str, str]:
    # the exact depths meet the recurrence d_n = 2d_(n-1) + d_(n-2)
    seq = _seq14(ctx)
    D = 13
    depths = [lcs_depth(seq.b(n), D) for n in range(4)]
    if depths != [Depth.exact(d) for d in DEPTHS]:
        return "fail", (f"depths of b_0..b_3 = {[str(d) for d in depths]} "
                        f"at D={D}, expected {DEPTHS}")
    return "pass", (f"depths of b_0..b_3 = {DEPTHS} (exact at D={D}), "
                    f"recurrence d_n = 2d_(n-1)+d_(n-2) holds")


def _check_depth_laws(ctx) -> Tuple[str, str]:
    r = random.Random(20260822)
    D = 8
    for _ in range(1000):
        u = random_word(r, r.randrange(1, 13))
        v = random_word(r, r.randrange(1, 13))
        du, dv = lcs_depth(u, D), lcs_depth(v, D)
        dp = lcs_depth(u * v, D)
        if du.is_exact and dv.is_exact and dp.is_exact:
            if dp.value < min(du.value, dv.value):
                return "fail", f"product subadditivity broken: {u} {v}"
        dc = lcs_depth(commutator(u, v), D)
        if du.is_exact and dv.is_exact and du.value + dv.value <= D:
            if dc.lower_bound() < du.value + dv.value:
                return "fail", f"commutator additivity broken: {u} {v}"
        dj = lcs_depth(v * u * ~v, D)
        if (du.kind, du.value) != (dj.kind, dj.value):
            return "fail", f"conjugation changed depth: {u} by {v}"
        if not np.array_equal(expand(u * v, D),
                              series_product(expand(u, D), expand(v, D))):
            return "fail", f"expansion not multiplicative: {u} {v}"
    return "pass", (f"1000 random pairs (len <= 12) at D={D}: subadditivity, "
                    f"commutator additivity, conjugation invariance, "
                    f"expansion homomorphism all hold")


def _check_alpha_table(ctx) -> Tuple[str, str]:
    try:
        entries = alpha_table(len(ALPHA_VALUES), max_len=_cap(ctx, 16))
    except NotFoundBelowError as ex:
        return "inconclusive", f"alpha search exhausted length {ex.bound}"
    ctx["alpha"] = entries
    values = [e.value for e in entries]
    if values != ALPHA_VALUES:
        return "fail", f"alpha(1..5) = {values}, expected {ALPHA_VALUES}"
    return "pass", (f"alpha(1..5) = {values}, witnesses "
                    f"{[str(e.witness) for e in entries]}, each found by "
                    f"the pruned square-root search and re-checked by an "
                    f"unpruned meet in the middle over every shorter word, "
                    f"alpha(4) <= alpha(2)^2")


def _check_girth_theorem(ctx) -> Tuple[str, str]:
    cap = _cap(ctx, 14)
    lines = []
    for label, spec, (kernel, derived) in THREE_X:
        try:
            rep = verify_three_x(spec, max_len=cap)
        except NotFoundBelowError as ex:
            return "inconclusive", (f"{label}: kernel girth not found below "
                                    f"{ex.bound}")
        exact = not isinstance(rep.derived_girth, NotFoundBelow)
        got = (rep.kernel_girth.value, rep.derived_lower)
        # only a budget-capped search may leave the derived girth as a bound
        if (rep.factor_ok is False or got[0] != kernel
                or ((exact or cap == 14) and got[1] != derived)):
            return "fail", (f"{label}: girths {got[0]} -> {got[1]}, "
                            f"expected {kernel} -> {derived}")
        if rep.factor_ok is None:
            return "inconclusive", f"{label}: derived search exhausted budget"
        lines.append(f"{label}: {got[0]} -> {'' if exact else '>= '}{got[1]}")
    return "pass", ("girth of derived kernel >= 3x kernel girth: "
                    + "; ".join(lines))


def _check_beta2(ctx) -> Tuple[str, str]:
    cap = _cap(ctx, BETA2)
    if cap < BETA2:
        # the structural witness lies beyond the budget; search what we can
        outcome = girth("derived2", cap)
        if isinstance(outcome, NotFoundBelow):
            return "inconclusive", f"no member below {cap}; need max_len 14"
        return "fail", (f"beta(2) = {outcome.value} < {BETA2}, witness "
                        f"{outcome.witness}")
    bracket = beta_bracket(2)
    ctx["beta2"] = bracket.exact
    detail = (f"beta(2) = {bracket.exact} in [{bracket.lower}, "
              f"{bracket.upper}], witness {bracket.witness}")
    if ((bracket.exact, bracket.lower, bracket.upper, str(bracket.witness))
            != (BETA2, 9, BETA2, BETA2_WITNESS)):
        return "fail", (f"{detail}; expected {BETA2} in [9, 14], witness "
                        f"{BETA2_WITNESS}")
    return "pass", detail


def _check_nielsen(ctx) -> Tuple[str, str]:
    r = random.Random(20260822)
    for i in range(500):
        gens = [random_word(r, r.randrange(0, 9))
                for _ in range(r.randrange(1, 6))]
        rep = reduce_with_witnesses(gens)
        msg = check_nielsen(rep.basis)
        if msg is not None:
            return "fail", f"case {i}: {msg}"
        if not rep.verified():
            return "fail", f"case {i}: rewriting witnesses broken"
        if not same_subgroup(gens, list(rep.basis)):
            return "fail", f"case {i}: subgroup changed"
    return "pass", ("500 random generating lists: reduced bases satisfy "
                    "conditions (i)-(iii), rewriting witnesses verified, "
                    "subgroup unchanged")


def _check_almostlaw(ctx) -> Tuple[str, str]:
    # Expected red.  The decay pipeline demands seed words whose certified
    # bound is <= 1/3; three independent obstructions show none exists
    # within reach, so this check cannot be satisfied honestly.  The
    # machinery itself (sampling, grid certification, bound propagation,
    # the decay table) is exercised green in tests/test_almostlaw.py.
    cap = _cap(ctx, 16)
    report = almostlaw.seed_search(max_len=cap, samples=10_000, seed=7)
    if not report.pool:
        return "fail", (f"no admissible certified seed: every seed "
                        f"candidate is longer than the letter budget {cap}")
    if report.admissible:
        # a certified seed would have to be produced here; no candidate
        # ever passes the sampled threshold, so this branch is unreachable
        return "fail", "admissible seed claimed but not certified"
    best_word, best_lower = report.best
    obs = report.obstruction
    cost = almostlaw.certification_cost_at_threshold(best_word)
    return "fail", (
        f"no admissible certified seed: (1) best sampled lower bound "
        f"{best_lower:.4f} (word {best_word}) far exceeds the 1/3 "
        f"threshold over a pool of {len(report.pool)} candidates at "
        f"10^4 samples each; (2) exhaustive search proves no word of "
        f"length <= {obs.max_len} has zero exponent sums and dies in "
        f"every alternating-degree-5 image ({obs.stats.tested} words "
        f"tested), both necessary for a bound <= 1/3, since the "
        f"nearest nontrivial value of a <= 1/3 word map would lie in "
        f"the binary icosahedral subgroup at distance "
        f"{almostlaw.ICOSAHEDRAL_GAP:.4f} "
        f"> 1/3; (3) grid certification of the best candidate at the "
        f"threshold would need ~{cost:.3e} pair evaluations")


def _check_constants(ctx) -> Tuple[str, str]:
    # Expected red: delta's printed decimal is unreachable from the closed
    # form by truncation or rounding (the others match).
    consts = report_constants()
    bad = [(r["name"], r["printed"]) for r in printed_digit_checks(consts)
           if not r["matches"]]
    if bad:
        return "fail", ("printed digits unreachable from closed form: "
                        + ", ".join(f"{n} prints '{p}' but computes "
                                    f"{consts[n]:.12f}" for n, p in bad))
    return "pass", "all printed decimals reachable from closed forms"


CHECKS: Dict[str, Callable] = {
    "construction-lengths": _check_construction_lengths,
    "no-cancellation": _check_no_cancellation,
    "word-identities": _check_identities,
    "magnus-depths": _check_magnus_depths,
    "depth-laws": _check_depth_laws,
    "alpha-table": _check_alpha_table,
    "girth-theorem": _check_girth_theorem,
    "beta2-bracket": _check_beta2,
    "nielsen-reduction": _check_nielsen,
    "almost-law": _check_almostlaw,
    "constants-report": _check_constants,
}


def run_check(name: str, ctx: dict) -> CheckRow:
    t0 = time.monotonic()
    try:
        status, detail = CHECKS[name](ctx)
    except Exception as ex:  # a crash is a failure, not a crash of verify
        status, detail = "fail", f"{type(ex).__name__}: {ex}"
    return CheckRow(name, status, detail, round(time.monotonic() - t0, 2))


def run_battery(budget_seconds: Optional[float] = None,
                budget_letters: Optional[int] = None) -> List[CheckRow]:
    """Run every check in order; a check that would start after the time
    budget is exhausted is marked skipped, never failed."""
    ctx = {"max_len_cap": budget_letters}
    rows: List[CheckRow] = []
    t0 = time.monotonic()
    for name in CHECKS:
        if budget_seconds is not None and time.monotonic() - t0 >= budget_seconds:
            rows.append(CheckRow(name, "skipped", "time budget exhausted", 0.0))
        else:
            rows.append(run_check(name, ctx))
    return rows


# ----------------------------------------------------------------------
# constants and finite-scale tables

def matches_printed(value: float, printed: str) -> bool:
    """Does the printed decimal string agree with the value?

    Sources print either truncated or rounded digits, so accept both
    renderings at the printed precision.
    """
    if "." not in printed:
        raise ValueError("printed form must contain a decimal point")
    places = len(printed) - printed.index(".") - 1
    scaled = value * 10 ** places
    truncated = f"{math.floor(scaled) / 10 ** places:.{places}f}"
    rounded = f"{value:.{places}f}"
    return printed in (truncated, rounded)


def printed_digit_checks(consts: dict) -> List[dict]:
    """One row per PRINTED_DIGITS entry, in report order: its name, the
    printed string and whether the computed constant matches it."""
    return [{"name": name, "printed": p,
             "matches": matches_printed(consts[name], p)}
            for name, p in PRINTED_DIGITS]


def report_constants() -> dict:
    """Closed-form constants of the growth analysis, to double precision."""
    growth_log = math.log2(3.0 + math.sqrt(17.0)) - 1.0  # = log2(mu)
    contraction_log = math.log2(almostlaw.SILVER)
    delta = contraction_log / growth_log
    nu = growth_log / contraction_log
    return {
        "mu": MU,
        "nu": nu,
        "delta": delta,
        "log2_3": math.log2(3.0),
        "log2_mu": growth_log,
        "log2_silver": contraction_log,
    }


def quotient_tables(alpha_entries: Sequence[AlphaEntry],
                    beta_values: Dict[int, int]) -> dict:
    """Finite-scale sample quotients; the limits themselves are out of reach,
    so these are emitted only with consistency checks, never asserted against
    the asymptotic constants."""
    alpha_rows = []
    for e in alpha_entries:
        q = math.log2(e.value) / math.log2(e.n) if e.n > 1 else None
        alpha_rows.append({"n": e.n, "alpha": e.value,
                           "witness": str(e.witness), "quotient": q})
    beta_rows = [{"n": n, "beta": v,
                  "quotient": (math.log2(v) / n if n > 0 else None)}
                 for n, v in sorted(beta_values.items())]
    relation = []
    by_n = {e.n: e.value for e in alpha_entries}
    for n, beta_v in sorted(beta_values.items()):
        a = by_n.get(2 ** n)
        if a is not None:
            relation.append({"n": n, "alpha_2^n": a, "beta": beta_v,
                             "ok": a <= beta_v})
    return {"alpha": alpha_rows, "beta": beta_rows,
            "alpha_vs_beta": relation}
