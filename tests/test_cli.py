"""CLI surface: golden JSON/CSV documents, exit codes, figure boundaries."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

from diagalg import cli
from diagalg.errors import InternalDefectError

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
    # A non-ASCII digit, a run of more digits than int() converts, or seven
    # nested powers of a 640-digit exponent (an exponent of about 4500
    # digits, more than str() converts) is a parse error, not a crash.
    nested = "(" * 7 + "x1" + f")^{'9' * 640}" * 7
    for poly in ("x1^-1", "x1^\u00b2", "1" * 5000 + "*x1", nested):
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


def test_exit_code_power_over_monomial_cap(capsys):
    # The first power is refused before any work.  The other two pass that
    # check but form a product of more than 10^7 candidate monomials: at
    # p = 1000003, f^(p-1) of the binomial keeps about p/2 terms per power.
    for p, poly in [("5", "(x1+x2+x3)^100000"),
                    ("1000003", "x1*x2+x3^2"),
                    ("1000003", "(x1+x2+x3)^200*(x1+x2+x3)^200")]:
        code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure",
                                 "--m", "3", "--p", p, "--poly", poly)
        assert code == cli.EXIT_PRECONDITION, poly
        assert out == ""
        assert "monomial cap" in err


def test_exit_code_fedder_power_over_monomial_cap(capsys):
    # Fedder's test computes f^(p-1) truncated, yet refuses it as f ** (p-1)
    # does: a dense cubic in 4 variables at p = 101 exits 2 at once.
    code, out, err = run_cli(capsys, "frobenius", "--mode", "fpure", "--m", "4",
                             "--p", "101", "--poly", "(x1+x2+x3+x4)^3")
    assert code == cli.EXIT_PRECONDITION
    assert out == ""
    assert "monomial cap" in err


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


def test_exit_code_rees_criteria_inconsistent(capsys, monkeypatch):
    monkeypatch.setattr(cli.rees, "cm_criteria_consistent",
                        lambda *args: False)
    code, out, err = run_cli(capsys, "rees", "--m", "3", "--k", "4",
                             "--s", "2", "--g", "1", "--h", "1",
                             "--format", "json")
    assert code == cli.EXIT_INTERNAL
    assert out == ""
    assert "internal defect" in err


def _cli_process(stdout, *argv):
    # A whole `python -m diagalg` process with block-buffered stdout, as in a
    # shell pipeline.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen([sys.executable, "-m", "diagalg", *argv],
                            stdout=stdout, stderr=subprocess.PIPE, env=env)


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
