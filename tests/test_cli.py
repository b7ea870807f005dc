"""CLI surface: golden JSON/CSV/text documents and --help, the shared parser,
exit codes, figure boundaries."""

import json
import os
import shlex
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import pytest

from diagalg import cli
from diagalg.errors import DegreeCapError, InternalDefectError
from diagalg.exactalg import PolyRing
from diagalg.frobenius import f_regular_certificate_graded, random_biform

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parent.parent / "README.md"
SRC = Path(__file__).parent.parent / "src"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_golden(capsys, name, *argv):
    code, out, _ = run_cli(capsys, *argv)
    assert code == cli.EXIT_OK
    expected = (GOLDEN / name).read_text()
    assert out == expected


# ---------------------------------------------------------------------------
# golden documents, one per subcommand

def test_golden_classify(capsys):
    check_golden(capsys, "classify.json", "classify", "--m", "3", "--n", "3",
                 "--d", "4", "--e", "2", "--g", "1", "--h", "1",
                 "--format", "json")


def test_golden_hilbert(capsys):
    check_golden(capsys, "hilbert.json", "hilbert", "--m", "2", "--n", "2",
                 "--d", "1", "--e", "1", "--k-max", "4", "--format", "json")


def test_golden_lcdim(capsys):
    check_golden(capsys, "lcdim.json", "lcdim", "--m", "3", "--n", "2",
                 "--d", "5", "--e", "1", "--format", "json")


def test_golden_frobenius(capsys):
    check_golden(capsys, "frobenius.json", "frobenius", "--mode", "graded",
                 "--m", "3", "--p", "5", "--poly", "x1^2 + x2*x3",
                 "--format", "json")


def test_frobenius_default_mode_is_graded_at_n_0(capsys):
    # A form with no y-variables is the graded case of a bigraded
    # certificate: the default mode prints the graded golden document but
    # for its mode, and certifies at q = 5.
    argv = ("frobenius", "--m", "3", "--p", "5", "--poly", "x1^2+x2*x3")
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert (code, err) == (cli.EXIT_OK, "")
    expected = (GOLDEN / "frobenius.json").read_text()
    assert out == expected.replace('"mode": "graded"', '"mode": "bigraded"')
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (cli.EXIT_OK, "")
    assert "verdict: f_regular\nq used: 5\n" in out


def test_golden_frobenius_bigraded(capsys):
    # The README's sampled bigraded certificate; recorded with the tuple
    # kernel, which took about two minutes for it.
    check_golden(capsys, "frobenius_bigraded.json", "frobenius", "--mode",
                 "bigraded", "--m", "3", "--n", "3", "--d", "2", "--e", "2",
                 "--p", "7", "--seed", "1", "--format", "json")


def test_golden_rees(capsys):
    check_golden(capsys, "rees.json", "rees", "--m", "3", "--k", "4",
                 "--s", "2", "--g", "1", "--h", "1", "--i-max", "3",
                 "--format", "json")


def test_golden_figure_csv(capsys):
    check_golden(capsys, "figure.csv", "figure", "--m", "3", "--n", "3",
                 "--d-max", "4", "--e-max", "3", "--format", "csv")


# The text output of the README commands, each recorded as
# `python -m diagalg <command> > tests/golden/<name>`.
TEXT_GOLDENS = {
    "classify.txt": "classify --m 3 --n 3 --d 4 --e 2 --g 1 --h 1",
    "lcdim.txt": "lcdim --m 3 --n 2 --d 5 --e 1",
    "frobenius_graded.txt":
        "frobenius --mode graded --m 3 --p 5 --poly 'x1^2 + x2*x3'",
    "frobenius_bigraded.txt":
        "frobenius --mode bigraded --m 3 --n 3 --d 2 --e 2 --p 7 --seed 1",
    "frobenius_fpure.txt":
        "frobenius --mode fpure --m 3 --n 0 --p 3 --poly 'x1*x2*x3'",
    "rees.txt": "rees --m 3 --k 4 --s 2 --g 1 --h 1 --i-max 4",
    "rees_ci.txt": "rees --m 4 --degrees 2,2 --g 3 --h 1",
    "figure.txt": "figure --m 3 --n 3 --d-max 12 --e-max 12",
}


@pytest.mark.parametrize("name", sorted(TEXT_GOLDENS))
def test_golden_text(capsys, name):
    check_golden(capsys, name, *shlex.split(TEXT_GOLDENS[name]))


# Every golden document with the command that prints it.
GOLDEN_COMMANDS = {
    "classify.json": "classify --m 3 --n 3 --d 4 --e 2 --g 1 --h 1 --format json",
    "hilbert.json": "hilbert --m 2 --n 2 --d 1 --e 1 --k-max 4 --format json",
    "lcdim.json": "lcdim --m 3 --n 2 --d 5 --e 1 --format json",
    "frobenius.json":
        "frobenius --mode graded --m 3 --p 5 --poly 'x1^2 + x2*x3' --format json",
    "frobenius_bigraded.json": "frobenius --mode bigraded --m 3 --n 3 --d 2 "
                               "--e 2 --p 7 --seed 1 --format json",
    "rees.json": "rees --m 3 --k 4 --s 2 --g 1 --h 1 --i-max 3 --format json",
    "figure.csv": "figure --m 3 --n 3 --d-max 4 --e-max 3 --format csv",
    # Fedder's test on the printed random_biform(3, 3, 1, 1, 13, 0), which
    # its first restriction, to x1*y1, shows F-pure, and on
    # random_biform(3, 0, 3, 0, 7, 0), a supersingular cubic: every term has
    # x-degree 3, so the whole ring is its only restriction, and the
    # truncated power is zero.
    "frobenius_fpure_dense.json": (
        "frobenius --mode fpure --m 3 --n 3 --p 13 --poly 'x1*y1 + x2*y1 + "
        "8*x3*y1 + 7*x1*y2 + 5*x2*y2 + 7*x3*y2 + 7*x1*y3 + 9*x2*y3 + 5*x3*y3' "
        "--format json"),
    "frobenius_not_fpure_dense.json": (
        "frobenius --mode fpure --m 3 --n 0 --p 7 --poly 'x1^3 + 4*x1^2*x2 + "
        "x1*x2^2 + 4*x2^3 + 4*x1^2*x3 + 3*x1*x2*x3 + 4*x2^2*x3 + 5*x1*x3^2 + "
        "3*x2*x3^2 + 4*x3^3' --format json"),
    **TEXT_GOLDENS,
}

# Golden documents that take seconds to print, with their commands.  CI
# diffs each through the console script under a time limit instead of this
# suite: the bigraded (4,4,2,2) certificate at p = 5 has S-pairs above the
# socle degree, which the certificate's truncated basis skips.
CI_GOLDENS = {
    "frobenius_bigraded_4422.json": "frobenius --mode bigraded --m 4 --n 4 "
                                    "--d 2 --e 2 --p 5 --seed 0 --format json",
    "frobenius_bigraded_4322.json": "frobenius --mode bigraded --m 4 --n 3 "
                                    "--d 2 --e 2 --p 7 --seed 1 --format json",
}
WORKFLOW = Path(__file__).parent.parent / ".github" / "workflows" / "tests.yml"


def test_ci_diffs_every_slow_golden():
    workflow = WORKFLOW.read_text()
    for name, command in CI_GOLDENS.items():
        assert (f"timeout 60 diagalg {command} | diff - tests/golden/{name}"
                in workflow), name


def test_shared_parser_keeps_calls_apart(capsys):
    # One parser serves every main() call of a process.  No call may see a
    # value of an earlier one, in either order, and hilbert and lcdim keep
    # their own default for the --k-max they share (8 and None).
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert set(GOLDEN_COMMANDS) | set(CI_GOLDENS) == {
        path.name for path in GOLDEN.iterdir()} - {"help.txt"}
    names = sorted(GOLDEN_COMMANDS)
    for name in names + names[::-1]:
        check_golden(capsys, name, *shlex.split(GOLDEN_COMMANDS[name]))
    hyp_flags = ["--m", "3", "--n", "2", "--d", "5", "--e", "1"]
    for _ in range(2):
        assert parser.parse_args(["hilbert", *hyp_flags]).k_max == 8
        assert parser.parse_args(["lcdim", *hyp_flags]).k_max is None
    # A usage error (argparse exits 2) leaves nothing behind either.
    with pytest.raises(SystemExit) as exc:
        cli.main(["hilbert", "--n", "2", "--d", "1", "--e", "1"])
    assert exc.value.code == cli.EXIT_PRECONDITION
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: the following arguments are required: --m\n")
    check_golden(capsys, "hilbert.json",
                 *shlex.split(GOLDEN_COMMANDS["hilbert.json"]))


def test_golden_help(capsys, monkeypatch):
    # `diagalg --help` and each subcommand's --help, one section each after
    # a `$ diagalg ... --help` line.  argparse wraps to the terminal width,
    # which COLUMNS sets.
    monkeypatch.setenv("COLUMNS", "80")
    sections = []
    for command in ([], ["classify"], ["hilbert"], ["lcdim"], ["frobenius"],
                    ["rees"], ["figure"]):
        argv = [*command, "--help"]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == cli.EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        sections.append(f"$ diagalg {' '.join(argv)}\n{captured.out}")
    assert "".join(sections) == (GOLDEN / "help.txt").read_text()


def test_import_does_not_build_the_parser():
    check = ("import diagalg.cli as cli; "
             "assert cli.build_parser.cache_info().currsize == 0")
    subprocess.run([sys.executable, "-c", check], env=_cli_env(), check=True)


def test_json_documents_are_versioned(capsys):
    for argv in (
        ["classify", "--m", "3", "--n", "3", "--d", "1", "--e", "1",
         "--format", "json"],
        ["hilbert", "--m", "2", "--n", "2", "--d", "1", "--e", "1",
         "--format", "json"],
        ["lcdim", "--m", "2", "--n", "2", "--d", "1", "--e", "1",
         "--format", "json"],
        ["frobenius", "--mode", "fpure", "--m", "2", "--n", "0", "--p", "2",
         "--poly", "x1*x2", "--format", "json"],
        ["rees", "--a", "-3", "--dim", "3", "--k", "2", "--s", "2",
         "--format", "json"],
        ["figure", "--m", "3", "--n", "3", "--d-max", "2", "--e-max", "2",
         "--format", "json"],
    ):
        code, out, _ = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK
        doc = json.loads(out)
        assert doc["schema"].startswith("diagalg/") and doc["schema"].endswith("/1")


def test_readme_commands_succeed(capsys):
    # Every command of the README's command-line block, so it cannot go
    # stale.
    block = README.read_text().split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line)[1:] for line in block.splitlines()
                if line.startswith("diagalg ")]
    assert {argv[0] for argv in commands} == {
        "classify", "hilbert", "lcdim", "frobenius", "rees", "figure"}
    for argv in commands:
        code, out, err = run_cli(capsys, *argv)
        assert code == cli.EXIT_OK, (argv, err)
        assert out, argv


# ---------------------------------------------------------------------------
# behavior details per subcommand

def test_hilbert_values(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--m", "2", "--n", "2",
                           "--d", "1", "--e", "1", "--k-max", "3",
                           "--format", "csv")
    assert code == cli.EXIT_OK
    assert out.splitlines() == ["k,dim", "0,1", "1,3", "2,5", "3,7"]


def test_frobenius_sampled_form_seeded(capsys):
    argv = ["frobenius", "--mode", "bigraded", "--m", "3", "--n", "3",
            "--d", "1", "--e", "1", "--p", "7", "--seed", "3",
            "--format", "json"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == cli.EXIT_OK
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["certificate"]["verdict"] in ("f_regular", "inconclusive")


def test_frobenius_fpure_text(capsys):
    code, out, _ = run_cli(capsys, "frobenius", "--mode", "fpure", "--m", "3",
                           "--n", "0", "--p", "3", "--poly", "x1*x2*x3")
    assert code == cli.EXIT_OK
    assert "F-pure over F_3: True" in out


def test_rees_ci_mode(capsys):
    code, out, _ = run_cli(capsys, "rees", "--m", "4", "--degrees", "2,2",
                           "--g", "3", "--h", "1", "--format", "json")
    assert code == cli.EXIT_OK
    doc = json.loads(out)
    assert doc["mode"] == "ci" and doc["cohen_macaulay"] is True


def test_classify_text_mentions_caveat(capsys):
    code, out, _ = run_cli(capsys, "classify", "--m", "2", "--n", "3",
                           "--d", "5", "--e", "1")
    assert code == cli.EXIT_OK
    assert "caveat" in out and "normal" in out


def test_figure_text_grid(capsys):
    code, out, _ = run_cli(capsys, "figure", "--m", "3", "--n", "3",
                           "--d-max", "3", "--e-max", "3")
    assert code == cli.EXIT_OK
    assert "legend" in out
    assert "F*" in out  # the (1, 1) Gorenstein F-regular cell


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_parse_error(capsys):
    # A non-ASCII digit, a run of more digits than int() converts, seven
    # nested powers of a 640-digit exponent (an exponent of about 4500
    # digits, more than str() converts), or parentheses nested 300 deep is
    # a parse error, not a crash.
    nested = "(" * 7 + "x1" + f")^{'9' * 640}" * 7
    deep = "(" * 300 + "x1" + ")" * 300
    for poly in ("x1^-1", "x1^\u00b2", "1" * 5000 + "*x1", nested, deep):
        code, out, err = run_cli(capsys, "frobenius", "--mode", "graded",
                                 "--m", "3", "--p", "5", "--poly", poly)
        assert code == cli.EXIT_PRECONDITION, poly[:8]
        assert out == ""
        assert err.startswith("error:") and "parse error" in err
        assert "Traceback" not in err


def test_exit_code_precondition(capsys):
    code, _, err = run_cli(capsys, "classify", "--m", "1", "--n", "2",
                           "--d", "1", "--e", "1")
    assert code == cli.EXIT_PRECONDITION
    assert "error" in err
    code, _, err = run_cli(capsys, "figure", "--m", "2", "--n", "3")
    assert code == cli.EXIT_PRECONDITION
    for degrees, part in [("2,x", "'x'"), ("", "''")]:
        code, out, err = run_cli(capsys, "rees", "--m", "4", "--degrees", degrees,
                                 "--g", "3", "--h", "1")
        assert code == cli.EXIT_PRECONDITION
        assert out == ""
        assert err.startswith("error:") and part in err
        assert "Traceback" not in err
    # Every rees mode checks the diagonal, and --a/--dim must agree with --m.
    for argv, part in [
        (["--a", "0", "--dim", "3", "--k", "1", "--s", "2", "--g", "1", "--h", "0"],
         "need g, h >= 1: (1, 0)"),
        (["--a", "0", "--dim", "3", "--k", "1", "--s", "2", "--h", "-1"],
         "need g, h >= 1: (1, -1)"),
        (["--m", "3", "--a", "5", "--k", "2", "--s", "2"], "a = -m"),
        (["--m", "3", "--dim", "4", "--k", "2", "--s", "2"], "dimA = m"),
    ]:
        code, out, err = run_cli(capsys, "rees", *argv)
        assert code == cli.EXIT_PRECONDITION, argv
        assert out == "" and part in err
    code, out, _ = run_cli(capsys, "rees", "--m", "3", "--a", "-3", "--dim", "3",
                           "--k", "2", "--s", "2", "--format", "json")
    assert code == 0
    assert out == run_cli(capsys, "rees", "--m", "3", "--k", "2", "--s", "2",
                          "--format", "json")[1]
    for mode in ("graded", "bigraded"):
        code, out, err = run_cli(capsys, "frobenius", "--mode", mode, "--m", "3",
                                 "--n", "0" if mode == "graded" else "2",
                                 "--p", "5", "--poly", "1")
        assert code == cli.EXIT_PRECONDITION
        assert "degree" in err and "exponent" not in err


@pytest.mark.parametrize("argv, message", [
    (["frobenius", "--mode", "graded", "--m", "3", "--n", "2", "--p", "5",
      "--poly", "x1^2+x2*x3"], "graded mode takes --n 0"),
    (["frobenius", "--mode", "fpure", "--m", "3", "--p", "5"],
     "--poly is required for --mode fpure"),
    (["frobenius", "--mode", "graded", "--m", "3", "--p", "5"],
     "--d is required when sampling a form"),
    (["frobenius", "--mode", "bigraded", "--m", "3", "--n", "3", "--d", "1",
      "--p", "5"], "--d and --e are required when sampling a form"),
    (["frobenius", "--mode", "graded", "--m", "3", "--p", "5",
      "--poly", "x1^2+x2"], "--poly must be nonzero homogeneous"),
    (["frobenius", "--mode", "bigraded", "--m", "3", "--n", "3", "--p", "5",
      "--poly", "x1*y1+x2"], "--poly must be nonzero bihomogeneous"),
    (["frobenius", "--mode", "bigraded", "--m", "3", "--n", "3", "--p", "5",
      "--poly", "0"], "--poly must be nonzero bihomogeneous"),
    (["rees", "--degrees", "2,2", "--g", "3", "--h", "1"],
     "--m is required with --degrees"),
    (["rees", "--m", "3", "--k", "2"], "rigidity mode requires --k and --s"),
    (["rees", "--a", "0", "--k", "2", "--s", "2"],
     "need either --m or both --a and --dim"),
])
def test_exit_code_missing_or_mismatched_flags(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == f"error: {message}\n"


def test_lcdim_empty_range(capsys):
    code, out, _ = run_cli(capsys, "lcdim", "--m", "3", "--n", "3", "--d", "1",
                           "--e", "1", "--k-min", "5", "--k-max", "6")
    assert code == cli.EXIT_OK
    assert "\n  (none in range)\n" in out


def test_exit_code_degree_flags_differ_from_poly(capsys):
    # A given --d or --e must match the parsed form's (bi)degree; with
    # n = 0 the bidegree is (degree, 0).  A matching flag is accepted.
    for argv, part in [
        (["--mode", "bigraded", "--m", "3", "--n", "3", "--d", "1", "--e", "1",
          "--poly", "x1^2*y1+x2*x3*y2"], "--d 1 differs"),
        (["--mode", "bigraded", "--m", "3", "--n", "3", "--e", "2",
          "--poly", "x1^2*y1+x2*x3*y2"], "--e 2 differs"),
        (["--mode", "graded", "--m", "3", "--d", "3", "--e", "5",
          "--poly", "x1^2+x2*x3"], "--d 3 differs"),
        (["--mode", "graded", "--m", "3", "--e", "1",
          "--poly", "x1^2+x2*x3"], "--e 1 differs"),
    ]:
        code, out, err = run_cli(capsys, "frobenius", *argv, "--p", "5")
        assert code == cli.EXIT_PRECONDITION, argv
        assert out == ""
        assert part in err and "bidegree" in err
    code, out, _ = run_cli(capsys, "frobenius", "--mode", "graded", "--m", "3",
                           "--d", "2", "--e", "0", "--p", "5",
                           "--poly", "x1^2 + x2*x3", "--format", "json")
    assert code == cli.EXIT_OK
    assert out == (GOLDEN / "frobenius.json").read_text()


def test_exit_code_fpure_refuses_degree_flags(capsys):
    # Fedder's test has no degree to match, so --d and --e are refused
    # rather than ignored, alone or together.
    for flags in (["--d", "5", "--e", "4"], ["--d", "3"], ["--e", "0"]):
        code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure",
                                 "--m", "3", "--p", "3", *flags,
                                 "--poly", "x1*x2*x3")
        assert code == cli.EXIT_PRECONDITION, flags
        assert out == ""
        assert err == "error: fpure mode takes no --d or --e\n"


def test_exit_code_power_over_monomial_cap(capsys):
    # The first power is refused before any work.  The other two pass that
    # check but form a product of more than 10^7 candidate monomials: at
    # p = 1000003, f^(p-1) of the binomial keeps about p/2 terms per power,
    # and its only restriction with a term, x1^2, is not F-pure.
    for p, poly in [("5", "(x1+x2+x3)^100000"),
                    ("1000003", "x1^2+x2*x3"),
                    ("1000003", "(x1+x2+x3)^200*(x1+x2+x3)^200")]:
        code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure",
                                 "--m", "3", "--p", p, "--poly", poly)
        assert code == cli.EXIT_PRECONDITION, poly
        assert out == ""
        assert "monomial cap" in err


def test_exit_code_fedder_power_over_monomial_cap(capsys):
    # Fedder's test computes f^(p-1) truncated, yet refuses it as f ** (p-1)
    # does: a dense cubic in 4 variables at p = 101 exits 2, at a product of
    # its restriction to x1..x3.
    code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure", "--m", "4",
                             "--p", "101", "--poly", "(x1+x2+x3+x4)^3")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert "monomial cap" in err


def test_fedder_power_bound_counts_only_the_variables_of_f(capsys):
    # A binary cubic in a ring of 3 variables: its power p - 1 has few
    # enough monomials in x1, x2, so it is computed, not refused as if x3
    # could occur in it.
    code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure", "--m", "3",
                             "--p", "1009",
                             "--poly", "x1^3+x1^2*x2+x1*x2^2+x2^3")
    assert code == cli.EXIT_OK
    assert out == ("f = x1^3 + x1^2*x2 + x1*x2^2 + x2^3\n"
                   "F-pure over F_1009: False\n")
    assert err == ""


def test_exit_code_fedder_last_product_over_monomial_cap(capsys):
    # The Fermat cubic at p = 227 (2 mod 3): its restrictions x1^3 and
    # x1^3 + x2^3 are not F-pure, and every product of the whole form's
    # power but the last, f^98 * f^128 after truncation, stays under the
    # cap; that one is refused.
    code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure", "--m", "3",
                             "--p", "227", "--poly", "x1^3 + x2^3 + x3^3")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == ("error: a product of 4122 by 4092 terms exceeds the "
                   "monomial cap 10000000\n")


def test_exit_code_certificate_socle_over_monomial_cap(capsys):
    # A power q whose socle x1^((d + e - 1)q + 1) has degree above the
    # monomial cap is refused before its basis is built.  At p = 10000019
    # that is the first power, so the refusal comes at once.  Below the cap
    # a power keeps its verdict: at p = 3163, q = p certifies the form and
    # q = p^2, which is over the cap, is never reached.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "frobenius", "--mode", "bigraded",
                             "--m", "2", "--n", "2", "--p", "10000019",
                             "--poly", "x1*y1+x2*y2", "--q-max", "2")
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == ("error: the socle x1^10000020 at q=10000019 exceeds the "
                   "monomial cap 10000000\n")
    code, out, _ = run_cli(capsys, "frobenius", "--mode", "bigraded",
                           "--m", "2", "--n", "2", "--p", "3163",
                           "--poly", "x1*y1+x2*y2", "--q-max", "2",
                           "--format", "json")
    assert code == cli.EXIT_OK
    cert = json.loads(out)["certificate"]
    assert (cert["verdict"], cert["tested_powers"]) == ("f_regular", [3163])
    # An inconclusive power before the refusal is named in the error.
    ring = PolyRing(3163, 3)
    with pytest.raises(DegreeCapError, match=r"at q=10004569 exceeds the "
                       r"monomial cap 10000000 after inconclusive q in "
                       r"\[3163\]"):
        f_regular_certificate_graded(ring.x(1) ** 2 + ring.x(2) ** 2, 2, 3,
                                     3163, 2)


def test_exit_code_sampled_form_over_monomial_cap(capsys):
    # A dense form of about 1.9e12 (bigraded) or 5.9e16 (graded) terms is
    # refused before any coefficient is drawn, where enumerating its
    # monomials never ended.
    for argv, count in [
            (["--m", "4", "--n", "4", "--d", "200", "--e", "200", "--p", "5"],
             comb(203, 3) ** 2),
            (["--mode", "graded", "--m", "30", "--d", "30", "--p", "5"],
             comb(59, 29))]:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "frobenius", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == cli.EXIT_PRECONDITION, argv
        assert out == ""
        assert err.startswith("error: a dense form of bidegree ")
        assert err.endswith(f"has {count} terms, above the monomial cap "
                            "10000000\n")


def test_exit_code_certificate_power_bound(capsys):
    # --q-max is checked before the a-invariant decides the verdict, so a
    # form with d >= m is refused as one with d < m is.
    for m in ("2", "3"):
        for q_max in ("0", "-3"):
            code, out, err = run_cli(capsys, "frobenius", "--mode", "graded",
                                     "--m", m, "--p", "5",
                                     "--poly", "x1^2+x2^2", "--q-max", q_max)
            assert code == cli.EXIT_PRECONDITION, (m, q_max)
            assert out == ""
            assert err == f"error: need an integer e_max >= 1: {q_max}\n"


@pytest.mark.parametrize("argv", [
    ("lcdim", "--m", "3", "--n", "2", "--d", "5", "--e", "1",
     "--k-min", "-1000000000", "--k-max", "1000000000"),
    ("figure", "--m", "3", "--n", "3", "--d-max", "2000", "--e-max", "2000"),
    ("hilbert", "--m", "2", "--n", "2", "--d", "1", "--e", "1",
     "--k-max", "1000000"),
    ("frobenius", "--mode", "fpure", "--m", "100000", "--p", "5",
     "--poly", "x1^2+x2^2"),
    ("rees", "--m", "3", "--k", "4", "--s", "2", "--i-max", "100000000"),
], ids=["lcdim-range", "figure-grid", "hilbert-range", "ring-size",
        "rees-range"])
def test_exit_code_row_and_variable_caps(capsys, argv):
    # A table, grid or range of more than 10^5 rows, or a ring of more than
    # 1000 variables, is refused before any work: the first two ran for
    # more than 8 s, the hilbert range for seconds, the rees range for more
    # than 5 s, and the ring of 10^5 variables would need gigabytes for its
    # packing.
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "row cap 100000" in err or "variable cap 1000" in err


def test_exit_code_certificate_needs_x1(capsys):
    # The socle is a power of x1, so a ring with no x-variables is refused
    # instead of taking d = 0 >= m = 0 for a nonnegative a-invariant.
    code, out, err = run_cli(capsys, "frobenius", "--m", "0", "--n", "3",
                             "--p", "5", "--poly", "y1^2+y2*y3")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert err == "error: need m >= 1, since the socle is a power of x1: 0\n"


def test_fedder_restrictions_answer_forms_over_the_cap(capsys):
    # Each whole form's power is over the monomial cap, before any work or
    # at a product, but a restriction to a prefix of the variables is
    # F-pure: the printed random_biform(4, 0, 2, 0, 31, 0),
    # random_biform(3, 0, 2, 0, 101, 0) and random_biform(3, 3, 2, 2, 13,
    # 0), and a binomial at p = 1000003.
    for m, n, p, poly in [
            ("4", "0", "31", "x1^2 + 28*x1*x2 + 29*x2^2 + 13*x1*x3 + "
             "14*x2*x3 + 9*x3^2 + 25*x1*x4 + 2*x2*x4 + 17*x3*x4 + 16*x4^2"),
            ("3", "0", "101", "x1^2 + 50*x1*x2 + 54*x2^2 + 98*x1*x3 + "
             "6*x2*x3 + 34*x3^2"),
            ("3", "3", "13", str(random_biform(3, 3, 2, 2, 13, 0))),
            ("3", "0", "1000003", "x1*x2+x3^2")]:
        code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure",
                                 "--m", m, "--n", n, "--p", p, "--poly", poly,
                                 "--format", "json")
        assert (code, err) == (cli.EXIT_OK, ""), poly
        assert json.loads(out)["f_pure"] is True


def test_exit_code_frobenius_refuses_unused_flags(capsys):
    # --q-max bounds the certificates' search, which fpure mode does not
    # run, and --seed seeds a sampled form, which --poly replaces.
    for argv, message in [
            (["--mode", "fpure", "--m", "3", "--p", "3", "--q-max", "9",
              "--poly", "x1*x2*x3"], "fpure mode takes no --q-max"),
            (["--mode", "graded", "--m", "3", "--p", "5", "--seed", "4",
              "--poly", "x1^2+x2*x3"],
             "--poly takes no --seed, which seeds a sampled form"),
            (["--mode", "fpure", "--m", "3", "--p", "3", "--seed", "0",
              "--poly", "x1*x2*x3"],
             "--poly takes no --seed, which seeds a sampled form")]:
        code, out, err = run_cli(capsys, "frobenius", *argv)
        assert code == cli.EXIT_PRECONDITION, argv
        assert out == ""
        assert err == f"error: {message}\n"


def test_exit_code_internal_defect(capsys, monkeypatch):
    # Internal defects cannot be triggered through valid inputs, so install a
    # synthetic one and confirm main() maps it to exit code 3.
    def boom(args):
        raise InternalDefectError("synthetic defect")

    monkeypatch.setattr(cli, "cmd_classify", boom)
    code = cli.main(["classify", "--m", "3", "--n", "3", "--d", "1",
                     "--e", "1"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL
    assert "internal defect" in captured.err


@pytest.mark.parametrize("argv, module, name", [
    (["classify", "--m", "3", "--n", "3", "--d", "4", "--e", "2"],
     cli.hyp, "classify"),
    (["hilbert", "--m", "2", "--n", "2", "--d", "1", "--e", "1"],
     cli.hyp, "dim_piece"),
    (["lcdim", "--m", "3", "--n", "2", "--d", "5", "--e", "1"],
     cli.hyp, "a_invariant"),
    (["frobenius", "--mode", "graded", "--m", "3", "--p", "5",
      "--poly", "x1^2 + x2*x3"], cli.frob, "f_regular_certificate_bigraded"),
    (["rees", "--m", "3", "--k", "4", "--s", "2"],
     cli.rees, "cm_criteria_consistent"),
    (["figure", "--m", "3", "--n", "3", "--d-max", "3", "--e-max", "3"],
     cli.hyp, "classify"),
])
def test_exit_code_internal_defect_leaves_stdout_empty(capsys, monkeypatch,
                                                       argv, module, name):
    # A defect raised by the last library call of a subcommand writes
    # nothing to stdout, in every format.
    def boom(*args, **kwargs):
        raise InternalDefectError("synthetic defect")

    monkeypatch.setattr(module, name, boom)
    formats = ("json", "csv", "text") if argv[0] in (
        "classify", "hilbert", "lcdim", "figure") else ("json", "text")
    for fmt in formats:
        code, out, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == cli.EXIT_INTERNAL, fmt
        assert out == ""
        assert err == "internal defect: synthetic defect\n"


def test_exit_code_rees_criteria_inconsistent(capsys, monkeypatch):
    monkeypatch.setattr(cli.rees, "cm_criteria_consistent",
                        lambda *args: False)
    code, out, err = run_cli(capsys, "rees", "--m", "3", "--k", "4",
                             "--s", "2", "--g", "1", "--h", "1",
                             "--format", "json")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "internal defect" in err


def _cli_env():
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _cli_process(stdout, *argv):
    # A whole `python -m diagalg` process with block-buffered stdout, as in a
    # shell pipeline.
    return subprocess.Popen([sys.executable, "-m", "diagalg", *argv],
                            stdout=stdout, stderr=subprocess.PIPE,
                            env=_cli_env())


def test_exit_code_closed_stdout():
    # `| head -1`: the reader stops after one line.  The grid is far larger
    # than a pipe's buffer, so the writes after that line hit the closed pipe.
    with _cli_process(subprocess.PIPE, "figure", "--m", "3", "--n", "3",
                      "--d-max", "300", "--e-max", "300") as proc:
        assert proc.stdout.readline().startswith(b"flags over")
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert err == b""
    # `| true`: the reader is gone before anything is written, and the short
    # report stays in stdout's buffer until the flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    with _cli_process(write_end, "classify", "--m", "3", "--n", "3",
                      "--d", "4", "--e", "2") as proc:
        os.close(write_end)
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
    assert err == b""


# ---------------------------------------------------------------------------
# figure boundary lines

def test_figure_regions_match_line_equations():
    for m in (3, 4, 5):
        for n in (3, 4, 5):
            grid = cli.figure_grid(m, n, 12, 12)
            for (d, e), report in grid.items():
                assert report.cohen_macaulay == (d - m + 1 <= e <= d + n - 1)
                assert report.gorenstein == (e == d - m + n)
                assert report.f_regular_type_generic == (d <= m - 1 and e <= n - 1)
                assert report.rational_singularities_generic == (
                    report.cohen_macaulay and (d < m or e < n))
