"""Command-line front end: generation, depth, girths, tables, the full
verification battery, and the word-map decay experiment.

Every output artifact embeds its own configuration, the library versions
and the wall-clock time; with a fixed config and seed the output is
byte-identical across runs except for the timing fields.  JSON for
machine reading, CSV for tables, both UTF-8 with LF line endings and `.`
as the decimal separator (sources that print comma decimals are
normalized).

Only `--out` is global.  Every other flag sits on the subcommands that
read it: `--seed` on almostlaw, `--budget-letters` on gen and verify,
`--budget-seconds` on verify.

`main` is the one runner: it starts the timer, wraps each result in the
envelope, and maps outcomes to exit codes: 0 success, 1 check failure (an
independent re-check refuted a search), 2 inconclusive (a bounded search,
a budget or a Ctrl-C ended the run before an answer), 3 usage error (a bad
flag, or input the library rejects).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import platform
import sys
import time
from typing import List, Optional

import numpy as np

from . import __version__
from . import almostlaw
from .battery import (
    PRINTED_DIGITS,
    CheckRow,
    matches_printed,
    quotient_tables,
    report_constants,
    run_battery,
)
from .construction import DEFAULT_LETTER_BUDGET, BudgetExceeded, build
from .girth import beta_bracket, girth
from .magnus import depth_terms
from .search import (
    NotFoundBelow,
    NotFoundBelowError,
    alpha,
    alpha_table,
)
from .words import Word

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class _Misplaced(argparse.Action):
    """A subcommand's flag given before the subcommand: a usage error that
    names the flag, where argparse would name the flag's value."""

    def __init__(self, option_strings, dest, takers):
        super().__init__(option_strings, dest, nargs="?",
                         default=argparse.SUPPRESS, help=argparse.SUPPRESS)
        self.takers = takers

    def __call__(self, parser, namespace, values, option_string=None):
        parser.error(f"{option_string} goes after a subcommand that takes "
                     f"it ({', '.join(self.takers)})")


def _versions() -> dict:
    return {"lcs-lab": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__}


def _envelope(args, t0: float, result) -> dict:
    return {"config": {k: v for k, v in sorted(vars(args).items())
                       if k != "func"},
            "versions": _versions(),
            "elapsed_seconds": round(time.monotonic() - t0, 3),
            "result": result}


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_word(text: str, what: str) -> Word:
    try:
        return Word.parse(text)
    except ValueError as ex:
        raise ValueError(f"bad {what}: {ex}")


# ----------------------------------------------------------------------
# subcommands: each returns (exit code, result), with None for the result
# when it writes its own output

def _cmd_gen(args, t0):
    if (args.seed_a is None) != (args.seed_b is None):
        raise ValueError("--seed-a and --seed-b go together")
    seeds = None
    if args.seed_a is not None:
        seeds = (_parse_word(args.seed_a, "--seed-a"),
                 _parse_word(args.seed_b, "--seed-b"))
    seq = build(args.n, seeds=seeds,
                budget_letters=args.budget_letters or DEFAULT_LETTER_BUDGET)
    a, b = seq.a(args.n), seq.b(args.n)
    return EXIT_OK, {"n": args.n, "a_word": str(a), "b_word": str(b),
                     "len": {"a": len(a), "b": len(b)},
                     "derivation": seq.derivation(args.n)}


def _cmd_depth(args, t0):
    w = _parse_word(args.word, "--word")
    depth, terms = depth_terms(w, args.max_degree)
    return EXIT_OK, {"word": str(w),
                     "depth": {"kind": depth.kind, "value": depth.value},
                     "nonzero_terms_at_depth": [{"monomial": m, "coeff": c}
                                                for m, c in terms]}


def _cmd_girth(args, t0):
    outcome = girth(args.quotient, args.max_len)
    collisions = outcome.stats.key_collisions
    if isinstance(outcome, NotFoundBelow):
        return EXIT_INCONCLUSIVE, {"girth": None, "witness": None,
                                   "exact": False, "searched_to": outcome.bound,
                                   "key_collisions": collisions}
    return EXIT_OK, {"girth": outcome.value, "witness": str(outcome.witness),
                     "exact": True, "key_collisions": collisions}


def _cmd_alpha(args, t0):
    entry = alpha(args.n, args.max_len, args.n)
    return EXIT_OK, {"n": entry.n, "alpha": entry.value,
                     "witness": str(entry.witness), "exact": True,
                     "quotient_log2": (math.log2(entry.value)
                                       / math.log2(entry.n)
                                       if entry.n > 1 else None),
                     "key_collisions": entry.key_collisions}


def _cmd_beta(args, t0):
    bracket = beta_bracket(args.n)
    result = {"n": bracket.n, "lower": bracket.lower, "upper": bracket.upper,
              "beta": bracket.exact,
              "witness": str(bracket.witness) if bracket.witness else None}
    return (EXIT_OK if bracket.exact is not None else EXIT_INCONCLUSIVE,
            result)


def _cmd_report(args, t0):
    consts = report_constants()
    checks = [{"name": name, "printed": p,
               "matches": matches_printed(consts[name], p)}
              for name, p in PRINTED_DIGITS]
    entries = []
    if args.alpha_n_max >= 1:
        entries = alpha_table(args.alpha_n_max, max_len=args.max_len)
    betas = {}
    for n in range(1, args.beta_n_max + 1):
        b = beta_bracket(n)
        if b.exact is not None:
            betas[n] = b.exact
    return EXIT_OK, {
        "constants": {k: round(v, 12) for k, v in sorted(consts.items())},
        "printed_digit_checks": checks,
        "tables": quotient_tables(entries, betas)}


def _cmd_almostlaw(args, t0):
    if args.hypothetical_u0 is not None:
        if not (0.0 < args.hypothetical_u0 <= almostlaw.SEED_THRESHOLD):
            raise ValueError("--hypothetical-u0 must be in (0, 1/3]")
        if args.n_max < 2:
            raise ValueError("--n-max must be at least 2")
        # clearly-labeled arithmetic demonstration: the start bound is an
        # assumption, not a certificate, so no sampled column is attached
        b0 = almostlaw.CertifiedBound(
            0, args.hypothetical_u0,
            almostlaw.GridProvenance(float("nan"), 0.0))
        seeds = (Word.parse("a"), Word.parse("b"))
        table = almostlaw.run_decay(seeds, (b0, b0), n_max=args.n_max,
                                    samples=0, rng_seed=args.seed)
        env = _envelope(args, t0, None)
        head = [
            "# HYPOTHETICAL: the level-0 bound below is an assumption "
            "(no certificate exists; see the almostlaw refusal report)",
            *(f"# {k}: {json.dumps(env[k], sort_keys=True)}"
              for k in ("config", "versions", "elapsed_seconds")),
            f"# d_hat: {table.d_hat:.12g}",
            f"# exponent_hat: {table.exponent_hat:.12g}",
        ]
        _emit("\n".join(head) + "\n" + almostlaw.decay_csv(table), args.out)
        return EXIT_OK, None
    # honest mode: try to obtain a certified seed and report why none exists
    shortest = min(len(w) for w in almostlaw.seed_candidate_pool())
    if args.pool_max_len < shortest:
        raise ValueError(f"--pool-max-len must be at least {shortest}: the "
                         f"shortest pool word has length {shortest}")
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    if args.certify_eps is not None and not args.certify_eps > 0:
        raise ValueError("--certify-eps must be positive")
    report = almostlaw.seed_search(max_len=args.pool_max_len,
                                   samples=args.samples, seed=args.seed)
    best_word, best_lower = report.best
    result = {
        "admissible_seeds": [str(w) for w in report.admissible],
        "pool_size": len(report.pool),
        "threshold": almostlaw.SEED_THRESHOLD,
        "best_candidate": {"word": str(best_word),
                           "sampled_lower": best_lower},
        "sampled": [{"word": str(w), "lower": lo} for w, lo in report.sampled],
        "exhaustive_obstruction": {
            "max_len": report.obstruction.max_len,
            "no_word_satisfies_necessary_conditions":
                report.obstruction.no_admissible_seed,
            "icosahedral_gap": almostlaw.ICOSAHEDRAL_GAP,
        },
        "grid_cost_at_threshold_best":
            almostlaw.certification_cost_at_threshold(best_word),
        "note": ("no word up to the pool cap can have word-map maximum "
                 "<= 1/3, so no certified seed exists and the decay table "
                 "cannot be produced honestly; rerun with "
                 "--hypothetical-u0 for the arithmetic demonstration"),
    }
    if args.certify_eps is not None:
        try:
            cb = almostlaw.certify_seed(best_word, args.certify_eps)
            result["certify_best"] = {"eps": args.certify_eps,
                                      "upper": cb.upper}
        except BudgetExceeded as ex:
            result["certify_best"] = {"eps": args.certify_eps,
                                      "error": str(ex)}
    return EXIT_INCONCLUSIVE, result


# ----------------------------------------------------------------------
# the verification battery (the checks live in battery.py)

def _battery_exit(rows: List[CheckRow]) -> int:
    if any(r.status == "fail" for r in rows):
        return EXIT_FAIL
    if any(r.status in ("inconclusive", "skipped") for r in rows):
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_verify(args, t0):
    rows = run_battery(budget_seconds=args.budget_seconds,
                       budget_letters=args.budget_letters)
    code = _battery_exit(rows)
    if args.format == "json":
        return code, [dataclasses.asdict(r) for r in rows]
    width = max(len(r.name) for r in rows)
    lines = [f"{r.name:<{width}}  {r.status:<12} {r.detail}" for r in rows]
    counts = {}
    for r in rows:
        counts[r.status] = counts.get(r.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"-- {summary}; {round(time.monotonic() - t0, 1)}s")
    _emit("\n".join(lines) + "\n", args.out)
    return code, None


# ----------------------------------------------------------------------
# parser plumbing

def _at_least(low, kind=int):
    """argparse type: a number of the given kind that is at least low."""
    def parse(text):
        value = kind(text)
        if not value >= low:  # also refuses a float nan
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse: "invalid int value: 'x'"
    return parse


def _flag(*names, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one flag, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*names, **kwargs)
    return parent


def build_parser() -> _Parser:
    p = _Parser(prog="lcs-lab", description=__doc__.split("\n")[0])
    p.add_argument("--out", help="write output to this file instead of stdout")
    sub = p.add_subparsers(dest="command", required=True)
    seed = _flag("--seed", type=int, default=0, help="random seed")
    letters = _flag("--budget-letters", type=_at_least(1), default=None,
                    help="cap on total letters / search length")
    seconds = _flag("--budget-seconds", type=_at_least(0, float),
                    default=None,
                    help="wall-clock budget; exceeded checks are skipped")

    g = sub.add_parser("gen", parents=[letters],
                       help="construct the word family at a level")
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--seed-a", help="replacement for the level-0 first word")
    g.add_argument("--seed-b", help="replacement for the level-0 second word")
    g.set_defaults(func=_cmd_gen)

    d = sub.add_parser("depth", help="lower-central-series depth of a word")
    d.add_argument("--word", required=True)
    d.add_argument("--max-degree", type=int, default=8)
    d.set_defaults(func=_cmd_depth)

    gi = sub.add_parser("girth",
                        help="shortest nontrivial member of a kernel or "
                             "filtration subgroup")
    gi.add_argument("--quotient", required=True,
                    help="z2 | perm:a=(..);b=(..) | lcs:<n> | derived2 | "
                         "derived-perm:... | zerosum-perm:...")
    gi.add_argument("--max-len", type=int, required=True)
    gi.set_defaults(func=_cmd_girth)

    a = sub.add_parser("alpha", help="minimal length at a filtration depth")
    a.add_argument("--n", type=int, required=True)
    a.add_argument("--max-len", type=int, required=True)
    a.set_defaults(func=_cmd_alpha)

    b = sub.add_parser("beta", help="minimal length in a derived subgroup")
    b.add_argument("--n", type=int, default=2)
    b.set_defaults(func=_cmd_beta)

    v = sub.add_parser("verify", parents=[letters, seconds],
                       help="run the full verification battery")
    v.add_argument("--format", choices=("json", "text"), default="text")
    v.set_defaults(func=_cmd_verify)

    al = sub.add_parser("almostlaw", parents=[seed],
                        help="word-map decay experiment")
    al.add_argument("--n-max", type=int, default=8)
    al.add_argument("--samples", type=int, default=10_000)
    al.add_argument("--certify-eps", type=float, default=None)
    al.add_argument("--pool-max-len", type=int, default=16)
    al.add_argument("--hypothetical-u0", type=float, default=None,
                    help="run the propagation table from an assumed "
                         "(uncertified, clearly labeled) start bound")
    al.set_defaults(func=_cmd_almostlaw)

    r = sub.add_parser("report", help="constants and finite-scale tables")
    r.add_argument("--alpha-n-max", type=int, default=2)
    r.add_argument("--beta-n-max", type=int, default=0)
    r.add_argument("--max-len", type=int, default=14)
    r.set_defaults(func=_cmd_report)

    takers = {}
    for name, subparser in sub.choices.items():
        for action in subparser._actions:
            for flag in action.option_strings:
                if flag not in ("-h", "--help"):
                    takers.setdefault(flag, []).append(name)
    for flag, names in takers.items():
        p.add_argument(flag, action=_Misplaced, takers=names)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code, result = args.func(args, t0)
    except (NotFoundBelowError, BudgetExceeded) as ex:
        print(f"{args.command}: {ex}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except AssertionError as ex:  # an independent re-check refuted a search
        print(f"{args.command}: {ex}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as ex:  # a bad flag value, or input the library rejects
        print(f"lcs-lab: error: {ex}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print(f"{args.command}: interrupted", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    if result is not None:
        _emit(json.dumps(_envelope(args, t0, result), indent=2,
                         sort_keys=True, ensure_ascii=False) + "\n", args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
