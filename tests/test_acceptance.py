"""Acceptance battery: one test per shipped guarantee.

The checks live in ``lcslab/battery.py`` and are the ones ``lcs-lab verify``
runs; criterion NN is the NN-th check there.  Each test prints exactly one
line

    [criterion-NN slug] PASS|FAIL (T.Ts): detail

and then asserts.  Run with ``pytest tests/test_acceptance.py -v -s`` to see
every line; without ``-s`` the lines still appear for failing criteria in the
captured-stdout section; ``-k criterion-07`` selects one check.  Runtime
budgets are part of the guarantees and are asserted after the substance of
each check.

Two criteria fail by design and are expected to stay red:

* criterion-10 (almost-law): no admissible certified seed exists — every
  short candidate word has a sampled lower bound far above the 1/3 threshold,
  and an exhaustive search proves no word of length <= 16 satisfies the
  necessary algebraic conditions.  The test's failure message carries the
  full analysis.
* criterion-11 (constants): one published decimal (delta) is reachable from
  the closed form by neither truncation nor rounding.
"""

import time

import pytest

from lcslab import battery
from lcslab.girth import beta_bracket

# battery check -> (test name, runtime budget in seconds)
CRITERIA = {
    "construction-lengths": ("lengths", 10),
    "no-cancellation": ("no_cancellation", 10),
    "word-identities": ("identities", 30),
    "magnus-depths": ("depths", 300),
    "depth-laws": ("depth_laws", 120),
    "alpha-table": ("alpha_table", 600),
    "girth-theorem": ("girth_factor_three", 600),
    "beta2-bracket": ("beta2_bracket", 1800),
    "nielsen-reduction": ("nielsen", 120),
    "almost-law": ("almost_law_decay", 600),
    "constants-report": ("constants", 1),
}
assert list(CRITERIA) == list(battery.CHECKS)


@pytest.fixture(scope="module")
def ctx():
    # shared across the module: the construction, alpha entries and beta(2)
    return {"max_len_cap": None}


def _report(tag, ok, seconds, detail, budget):
    line = (f"[{tag}] {'PASS' if ok else 'FAIL'} "
            f"({seconds:.1f}s): {detail}")
    print(line)
    assert ok, line
    assert seconds < budget, f"[{tag}] over budget: {seconds:.1f}s >= {budget}s"


def _criterion_test(number, name, budget):
    def test(ctx):
        row = battery.run_check(name, ctx)
        _report(f"criterion-{number:02d} {name}", row.status == "pass",
                row.seconds, row.detail, budget)
    # pytest takes function attributes as keywords: -k criterion-07 selects
    setattr(test, f"criterion-{number:02d}-{name}", True)
    return test


for _number, (_name, (_stem, _budget)) in enumerate(CRITERIA.items(), 1):
    globals()[f"test_criterion_{_number:02d}_{_stem}"] = _criterion_test(
        _number, _name, _budget)


def test_quotient_tables_consistency(ctx):
    # Finite-scale quotients are emitted for inspection only; here they
    # are checked for internal consistency, never against the limits.
    # They reuse what criteria 06 and 08 left in the context, and run
    # those checks only when they were deselected.
    t0 = time.monotonic()
    for name, key in (("alpha-table", "alpha"), ("beta2-bracket", "beta2")):
        if key not in ctx:
            battery.run_check(name, ctx)
    beta_values = {1: beta_bracket(1, max_len=4).exact, 2: ctx["beta2"]}
    tables = battery.quotient_tables(ctx["alpha"], beta_values)
    ok = (all(row["quotient"] >= 1.0 for row in tables["alpha"]
              if row["quotient"] is not None)
          and all(row["quotient"] >= 1.0 for row in tables["beta"])
          and all(row["ok"] for row in tables["alpha_vs_beta"])
          and len(tables["alpha_vs_beta"]) == 2)
    _report("consistency quotient-tables", ok, time.monotonic() - t0,
            f"alpha quotients "
            f"{[round(r['quotient'], 3) for r in tables['alpha'] if r['quotient']]}"
            f" >= 1, beta quotients "
            f"{[round(r['quotient'], 3) for r in tables['beta']]} >= 1, "
            f"alpha(2^n) <= beta(n) at n = 1, 2",
            budget=600)
