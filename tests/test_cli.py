import contextlib
import io
import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from lcslab import battery, cli, search
from lcslab.construction import build
from lcslab.search import AlphaEntry
from lcslab.words import Word


def run_cli(*argv, expect=0):
    """cli.main in this process, its stdout and stderr captured.  argparse
    ends a usage error with SystemExit (see cli._Parser.error), whose code
    is then the exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as ex:
            code = ex.code
    proc = subprocess.CompletedProcess(argv, code, out.getvalue(),
                                       err.getvalue())
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def run_module(*argv, expect=0):
    """python -m lcslab.cli in a fresh process."""
    proc = subprocess.run([sys.executable, "-m", "lcslab.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


def run_json(*argv, expect=0):
    return json.loads(run_cli(*argv, expect=expect).stdout)


def test_gen_envelope_and_determinism():
    # the module entry point prints what cli.main prints in-process
    one = json.loads(run_module("gen", "--n", "2").stdout)
    two = run_json("gen", "--n", "2")
    for doc in (one, two):
        del doc["elapsed_seconds"]
    assert one == two
    r = one["result"]
    assert r["len"] == {"a": 14, "b": 14}
    assert len(r["a_word"]) == 14
    assert r["derivation"]["n"] == 2
    assert one["config"]["command"] == "gen"
    assert "numpy" in one["versions"]
    assert "workers" not in one


def test_gen_custom_seeds():
    doc = run_json("gen", "--n", "1", "--seed-a", "ab", "--seed-b", "ba")
    r = doc["result"]
    assert r["a_word"] == str(~Word.parse("ba") * Word.parse("ab")
                              * Word.parse("ba") * ~Word.parse("ab"))


def test_gen_seed_flags_must_pair():
    run_cli("gen", "--n", "1", "--seed-a", "ab", expect=3)


def test_gen_budget_refusal_is_inconclusive():
    run_cli("gen", "--budget-letters", "10", "--n", "5", expect=2)


def test_depth_output():
    doc = run_json("depth", "--word", "abAB", "--max-degree", "6")
    assert doc["result"]["depth"] == {"kind": "exact", "value": 2}
    terms = {t["monomial"]: t["coeff"]
             for t in doc["result"]["nonzero_terms_at_depth"]}
    assert terms == {"ab": 1, "ba": -1}
    assert "workers" not in doc
    doc = run_json("depth", "--word", "", "--max-degree", "4")
    assert doc["result"]["depth"] == {"kind": "infinite", "value": None}


def test_girth_found_and_not_found():
    doc = run_json("girth", "--quotient", "z2", "--max-len", "6")
    assert doc["result"]["girth"] == 4
    assert doc["result"]["witness"] == "ABab"
    assert doc["result"]["exact"] is True
    assert doc["result"]["key_collisions"] == 0
    doc = run_json("girth", "--quotient", "lcs:5", "--max-len", "4", expect=2)
    assert doc["result"]["girth"] is None
    assert doc["result"]["searched_to"] == 4
    assert doc["result"]["key_collisions"] == 0


def run_twice_masked(*argv, expect=0, run=run_cli):
    # a plain diff with the one timing field masked
    runs = [run(*argv, expect=expect).stdout for _ in range(2)]
    masked = [re.sub(r'"elapsed_seconds": [0-9.e+-]+', '"elapsed_seconds": 0',
                     text) for text in runs]
    assert masked[0] == masked[1]
    return masked[0]


def test_girth_output_is_deterministic():
    # across two fresh processes: no state a process leaves behind, such
    # as the derived key's weights, may show in the output
    text = run_twice_masked("girth", "--quotient", "derived-perm:a=(1 2)(3 4);"
                            "b=(1 3)(2 4)", "--max-len", "8", run=run_module)
    result = json.loads(text)["result"]
    assert result["girth"] == 8 and "elapsed" not in result


@pytest.mark.parametrize("argv, expect", [
    (("gen", "--n", "3"), 0),
    (("depth", "--word", "abAB"), 0),
    (("alpha", "--n", "2", "--max-len", "6"), 0),
    (("beta", "--n", "1"), 0),
    (("report",), 0),
    (("almostlaw", "--pool-max-len", "8", "--samples", "100"), 2),
], ids=["gen", "depth", "alpha", "beta", "report", "almostlaw"])
def test_output_is_deterministic(argv, expect):
    run_twice_masked(*argv, expect=expect)


def test_girth_reverifies_every_minimum(monkeypatch, capsys):
    from lcslab import search
    calls = []

    def refuting(oracle_id, length, witness, stats=None, *, levels=None):
        calls.append((oracle_id, length, str(witness)))
        return False

    monkeypatch.setattr(search, "verify_minimum", refuting)
    assert cli.main(["girth", "--quotient", "z2", "--max-len", "6"]) == 1
    assert calls == [("z2", 4, "ABab")]
    assert "disagree" in capsys.readouterr().err


def test_girth_bad_oracle_is_usage_error():
    run_cli("girth", "--quotient", "bogus", "--max-len", "4", expect=3)


def test_alpha_values_and_inconclusive():
    doc = run_json("alpha", "--n", "2", "--max-len", "6")
    assert doc["result"]["alpha"] == 4
    assert doc["result"]["exact"] is True
    assert doc["result"]["key_collisions"] == 0
    assert "workers" not in doc
    run_cli("alpha", "--n", "4", "--max-len", "6", expect=2)


def test_alpha_reverifies_every_minimum(monkeypatch, capsys):
    from lcslab import search
    calls = []

    def refuting(oracle_id, length, witness, stats=None, *, levels=None):
        calls.append((oracle_id, length, str(witness)))
        return False

    monkeypatch.setattr(search, "verify_minimum", refuting)
    assert cli.main(["alpha", "--n", "2", "--max-len", "6"]) == 1
    assert calls == [("lcs:2", 4, "ABab")]
    assert "disagree" in capsys.readouterr().err


def test_beta_small_and_open():
    doc = run_json("beta", "--n", "1")
    assert doc["result"]["beta"] == 4
    assert "max_len" not in doc["config"]
    doc = run_json("beta", "--n", "3", expect=2)
    assert doc["result"]["beta"] is None
    assert doc["result"]["lower"] == 27
    assert doc["result"]["upper"] == 50


def test_report_constants_and_digit_checks():
    doc = run_json("report")
    c = doc["result"]["constants"]
    assert c["mu"] == 3.561552812809
    assert c["nu"] == 1.441155773039
    assert c["delta"] == 0.693887516331
    checks = {row["name"]: row["matches"]
              for row in doc["result"]["printed_digit_checks"]}
    assert checks["mu"] and checks["nu"] and checks["log2_3"] and checks["log2_mu"]
    assert checks["delta"] is False  # the printed value contradicts its own closed form
    alpha_rows = doc["result"]["tables"]["alpha"]
    assert [r["alpha"] for r in alpha_rows] == [1, 4]


def test_almostlaw_hypothetical_csv(tmp_path):
    out = tmp_path / "decay.csv"
    run_cli("--out", str(out), "decay", "--u0", "0.333", "--n-max", "4")
    text = out.read_text(encoding="utf-8")
    lines = text.strip().split("\n")
    assert lines[0].startswith("# HYPOTHETICAL")
    assert any(l.startswith("# config:") for l in lines)
    assert any(l.startswith("# versions:") for l in lines)
    header = [l for l in lines if not l.startswith("#")][0]
    assert header == "n,len,upper,minus_log_2upper,ratio_to_(1+√2)^n"
    data = [l for l in lines if not l.startswith("#")][1:]
    assert len(data) == 5
    assert data[0].split(",")[:2] == ["0", "1"]
    assert "\r" not in text


def test_almostlaw_honest_mode_refuses(tmp_path):
    doc = run_json("almostlaw", "--pool-max-len", "8", "--samples", "100",
                   expect=2)
    r = doc["result"]
    assert r["admissible_seeds"] == []
    assert r["exhaustive_obstruction"]["no_word_satisfies_necessary_conditions"]
    assert r["best_candidate"]["sampled_lower"] > 1.0 / 3.0
    assert r["grid_cost_at_threshold_best"] > 10 ** 12


def test_almostlaw_bad_hypothetical_is_usage_error():
    run_cli("decay", "--u0", "0.5", expect=3)


@pytest.mark.parametrize("argv, flag", [
    (("decay", "--u0", "0.3", "--samples", "200"), "--samples"),
    (("decay", "--u0", "0.3", "--seed", "5"), "--seed"),
    (("decay", "--u0", "0.3", "--certify-eps", "1.0"), "--certify-eps"),
    (("decay", "--u0", "0.3", "--pool-max-len", "12"), "--pool-max-len"),
    (("almostlaw", "--pool-max-len", "8", "--n-max", "5"), "--n-max"),
    (("almostlaw", "--hypothetical-u0", "0.3"), "--hypothetical-u0"),
], ids=["decay-samples", "decay-seed", "decay-certify-eps",
        "decay-pool-max-len", "almostlaw-n-max", "almostlaw-hypothetical-u0"])
def test_flag_of_the_other_command_is_usage_error(argv, flag):
    proc = run_cli(*argv, expect=3)
    assert f"error: unrecognized arguments: {flag} " in proc.stderr


def test_config_holds_the_flags_each_command_reads(tmp_path):
    out = tmp_path / "decay.csv"
    run_cli("--out", str(out), "decay", "--u0", "0.3")
    line = next(l for l in out.read_text(encoding="utf-8").split("\n")
                if l.startswith("# config: "))
    config = json.loads(line[len("# config: "):])
    assert config == {"command": "decay", "n_max": 8, "out": str(out),
                      "u0": 0.3}
    doc = run_json("almostlaw", "--pool-max-len", "8", "--samples", "100",
                   expect=2)
    assert doc["config"] == {"certify_eps": None, "command": "almostlaw",
                             "out": None, "pool_max_len": 8, "samples": 100,
                             "seed": 0}
    assert "lcs-lab decay --u0 U" in doc["result"]["note"]


@pytest.mark.parametrize("argv, expect", [
    (("depth", "--word", "abAB", "--max-degree", "0"), 3),
    (("depth", "--word", "abAB", "--max-degree", "30"), 3),
    (("depth", "--word", "1", "--max-degree", "0"), 3),
    (("depth", "--word", "1", "--max-degree", "30"), 3),
    (("report", "--alpha-n-max", "3", "--max-len", "6"), 2),
    (("almostlaw", "--pool-max-len", "4", "--samples", "0"), 3),
    (("decay", "--u0", "0.3", "--n-max", "1"), 3),
    (("almostlaw", "--pool-max-len", "4", "--samples", "10",
      "--certify-eps", "0"), 3),
    (("almostlaw", "--pool-max-len", "4", "--samples", "10", "--k", "2"), 3),
    (("decay", "--u0", "0.3", "--samples", "200"), 3),
    (("almostlaw", "--pool-max-len", "8", "--n-max", "5"), 3),
    (("gen", "--n", "-1"), 3),
    (("gen", "--n", "1", "--seed-a", "aA", "--seed-b", "b"), 3),
    (("verify", "--budget-letters", "0"), 3),
    (("verify", "--budget-letters", "-5"), 3),
    (("verify", "--budget-seconds", "-1"), 3),
    (("girth", "--workers", "0", "--quotient", "z2", "--max-len", "4"), 3),
    (("--budget-letters", "10", "gen", "--n", "1"), 3),
    (("--seed", "1", "gen", "--n", "1"), 3),
    (("girth", "--quotient", "perm:a=(1 257);b=(1 2)", "--max-len", "4"), 3),
    (("alpha", "--n", "2", "--max-len", "0"), 3),
    (("alpha", "--n", "2", "--max-len", "-3"), 3),
    (("report", "--max-len", "0"), 3),
    (("girth", "--quotient", "z2", "--max-len", "0"), 3),
    (("girth", "--quotient", "z2", "--max-len", "4", "--checkpoint", "x"), 3),
    (("beta", "--checkpoint", "x"), 3),
    (("beta", "--max-len", "6"), 3),
    (("girth", "--workers", "2", "--quotient", "z2", "--max-len", "4"), 3),
    (("beta", "--workers", "2"), 3),
    (("girth", "--quotient", "z2", "--max-len", "4", "--no-prune"), 3),
    (("girth", "--quotient", "lcs:x", "--max-len", "4"), 3),
    (("girth", "--quotient", "derived-perm:", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=(1 2);b", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=(1 2)(1 2);b=(1 2 3)", "--max-len", "4"),
     3),
    (("girth", "--quotient", "perm:a=(1 2 3)(3 2 1);b=(1 2 3)", "--max-len",
      "4"), 3),
    (("girth", "--quotient", "perm:a=(1 x);b=(1 2)", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=((1 2));b=(1 2)", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=(1 +2);b=(1 2)", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=(1 1_0);b=(1 2)", "--max-len", "4"), 3),
    (("girth", "--quotient", "perm:a=(1 2);a=(1 3);b=(1 2 3)", "--max-len",
      "4"), 3),
    (("girth", "--quotient", "lcs:²", "--max-len", "4"), 3),
    (("girth", "--quotient", "lcs:٣", "--max-len", "4"), 3),
    (("--out", ".", "gen", "--n", "1"), 3),
    (("--out", ".", "decay", "--u0", "0.3"), 3),
    (("--out", ".", "verify", "--budget-seconds", "0"), 3),
    (("--out", "no-such-directory/out.json", "gen", "--n", "1"), 3),
], ids=["depth-degree-0", "depth-degree-30", "depth-identity-degree-0",
        "depth-identity-degree-30", "report-alpha-cap",
        "almostlaw-samples-0", "decay-n-max-1", "almostlaw-eps-0",
        "almostlaw-k", "decay-samples",
        "almostlaw-honest-n-max", "gen-n-negative", "gen-trivial-seed",
        "verify-letters-0", "verify-letters-negative",
        "verify-seconds-negative", "girth-workers-0", "letters-before-gen",
        "seed-before-gen", "girth-perm-degree-257", "alpha-cap-0",
        "alpha-cap-negative", "report-cap-0", "girth-cap-0",
        "girth-checkpoint", "beta-checkpoint", "beta-max-len",
        "girth-workers-2",
        "beta-workers-2", "girth-no-prune", "girth-lcs-not-integer",
        "girth-derived-perm-empty", "girth-perm-b-without-cycles",
        "girth-perm-repeated-cycle", "girth-perm-overlapping-cycles",
        "girth-perm-letter-point", "girth-perm-nested-cycle",
        "girth-perm-signed-point", "girth-perm-underscored-point",
        "girth-perm-repeated-generator", "girth-lcs-superscript-digit",
        "girth-lcs-arabic-indic-digit", "out-is-a-directory",
        "out-is-a-directory-decay-csv", "out-is-a-directory-verify-text",
        "out-in-a-missing-directory"])
def test_bad_input_exits_without_traceback(argv, expect):
    # usage errors exit 3 with "error:", an exhausted cap exits 2 with one
    # line; neither may leak a traceback or int()'s own message (exit 1
    # means a check failed)
    proc = run_cli(*argv, expect=expect)
    assert "Traceback" not in proc.stderr
    assert "invalid literal" not in proc.stderr
    if argv[0] == "--out":  # a file that cannot be written
        assert f"error: cannot write --out {argv[1]}: " in proc.stderr
    elif argv[0].startswith("--"):  # a subcommand's flag before the subcommand
        assert (f"error: {argv[0]} goes after a subcommand that takes it"
                in proc.stderr)
    if expect == 3:
        assert "error:" in proc.stderr
    else:
        assert len(proc.stderr.strip().split("\n")) == 1
    # every row that passes a quotient other than z2 has a bad spec, and
    # the message names it
    spec = argv[argv.index("--quotient") + 1] if "--quotient" in argv else "z2"
    if spec != "z2":
        assert repr(spec) in proc.stderr


@pytest.mark.parametrize("cap", ["3", "0"])
def test_almostlaw_pool_cap_below_shortest_word_is_usage_error(cap):
    proc = run_cli("almostlaw", "--pool-max-len", cap, expect=3)
    assert "shortest pool word has length 4" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("eps", ["inf", "-inf", "nan", "0", "-1"])
def test_almostlaw_certify_eps_must_be_finite_and_positive(eps):
    proc = run_cli("almostlaw", "--pool-max-len", "8", "--samples", "10",
                   f"--certify-eps={eps}", expect=3)
    assert "--certify-eps must be" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_almostlaw_certify_eps_past_float_range_is_a_budget_refusal():
    """The pair count at eps 1e-300 is too large for a float; the budget
    refusal still spells it and ends inconclusive (exit 2)."""
    doc = run_json("almostlaw", "--pool-max-len", "8", "--samples", "10",
                   "--certify-eps", "1e-300", expect=2)
    best = doc["result"]["certify_best"]
    assert best["eps"] == 1e-300
    assert re.fullmatch(r"eps=1e-300 needs \d\.\d{3}e\+\d{4} pair evaluations "
                        r"\(budget 4\.000e\+06\)", best["error"]), best


def test_verify_time_budget_skips_everything():
    proc = run_cli("verify", "--budget-seconds", "0", expect=2)
    lines = proc.stdout.strip().split("\n")
    assert all("skipped" in l for l in lines[:-1])
    assert "11 skipped" in lines[-1]
    doc = run_json("verify", "--budget-seconds", "0", "--format", "json",
                   expect=2)
    assert [r["status"] for r in doc["result"]] == ["skipped"] * 11


def test_interrupt_is_inconclusive(monkeypatch, capsys):
    # Ctrl-C ends a search before an answer: exit 2 with one line
    def interrupted(args, t0):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_alpha", interrupted)
    assert cli.main(["alpha", "--n", "2", "--max-len", "6"]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "alpha: interrupted\n")


def test_unknown_command_is_usage_error():
    run_cli("nosuch", expect=3)
    # --format belongs to verify alone, and csv is no choice
    run_cli("--format", "csv", "gen", "--n", "1", expect=3)
    run_cli("verify", "--format", "csv", expect=3)


def test_readme_command_lines_parse():
    # a flag moved between subcommands must not leave the docs behind
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    lines = re.findall(r"^lcs-lab (.*?)(?:\s+#.*)?$", text, re.M)
    lines += re.findall(r"`lcs-lab ([^`]*)`", text)
    assert len(lines) >= 10
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line))
        except SystemExit:
            pytest.fail(f"README command line does not parse: lcs-lab {line}")


def test_battery_exit_mapping():
    mk = lambda s: battery.CheckRow("x", s, "", 0.0)
    assert cli._battery_exit([mk("pass")]) == 0
    assert cli._battery_exit([mk("pass"), mk("inconclusive")]) == 2
    assert cli._battery_exit([mk("pass"), mk("skipped")]) == 2
    assert cli._battery_exit([mk("skipped"), mk("fail")]) == 1


def _ctx(max_len_cap=None):
    return {"max_len_cap": max_len_cap}


def test_battery_checks_detect_tampering(monkeypatch):
    # a battery wired to a wrong engine must say so: swap the construction
    # for one with a corrupted level-2 word and watch the first check fail
    real = build(14)
    real.b_words[2] = Word.parse("ab")
    monkeypatch.setattr(battery, "build", lambda *a, **k: real)
    row = battery.run_check("construction-lengths", _ctx())
    assert row.status == "fail"


def test_battery_alpha_check_asserts_every_value(monkeypatch):
    # alpha(3) = 9 keeps the table monotone and submultiplicative; only the
    # exact values catch it
    w = Word.parse("a")
    wrong = [AlphaEntry(n, v, w)
             for n, v in enumerate([1, 4, 9, 14], 1)]
    monkeypatch.setattr(battery, "alpha_table", lambda *a, **k: wrong)
    row = battery.run_check("alpha-table", _ctx())
    assert row.status == "fail", row.detail
    assert "[1, 4, 9, 14]" in row.detail


def test_battery_alpha_check_runs_no_depth_first_search(monkeypatch):
    # the check rests on the routes that produce the alpha values: the
    # pruned square-root search, re-checked by an unpruned meet in the
    # middle inside alpha
    def unreachable(*args, **kwargs):
        raise AssertionError("the depth-first engine was called")

    original = search.search_min
    for name, module in list(sys.modules.items()):
        if (name.split(".")[0] == "lcslab"
                and getattr(module, "search_min", None) is original):
            monkeypatch.setattr(module, "search_min", unreachable)
    row = battery.run_check("alpha-table", _ctx())
    assert row.status == "pass", row.detail
    assert "re-checked by an unpruned meet in the middle" in row.detail


def test_battery_constants_check_fails_on_delta():
    row = battery.run_check("constants-report", _ctx())
    assert row.status == "fail"
    assert "delta" in row.detail


def test_battery_budgets_give_inconclusive():
    row = battery.run_check("alpha-table", _ctx(10))
    assert row.status == "inconclusive", row.detail
    # NotFoundBelow(3) rules out every length <= 3, and the rows say so
    row = battery.run_check("girth-theorem", _ctx(3))
    assert row.status == "inconclusive", row.detail
    assert row.detail == "z2: kernel girth not found up to length 3"
    row = battery.run_check("beta2-bracket", _ctx(3))
    assert row.status == "inconclusive", row.detail
    assert row.detail == "no member up to length 3; need max_len 14"
    # a search cut short by the budget never turns into a failure
    for cap in (1, 2, 3, 8, 10, 12, 13):
        for name in ("alpha-table", "girth-theorem", "beta2-bracket"):
            row = battery.run_check(name, _ctx(cap))
            assert row.status != "fail", (cap, row)
    # almost-law is red by design under any cap, but it searches only to
    # the cap, and below the shortest seed candidate (length 4) says so
    row = battery.run_check("almost-law", _ctx(3))
    assert row.status == "fail" and "letter budget 3" in row.detail, row
    row = battery.run_check("almost-law", _ctx(8))
    assert row.status == "fail" and "length <= 8 " in row.detail, row
