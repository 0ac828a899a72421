import json
import os
import subprocess
import sys

import pytest

from ppcf import corpus
from ppcf.cli import main
from ppcf.syntax import free_vars, parse_term


@pytest.fixture
def programs(tmp_path):
    def write(name, text=None):
        p = tmp_path / f"{name}.ppcf"
        p.write_text(text if text is not None else
                     corpus.read_text(f"{name}.ppcf"), encoding="utf-8")
        return str(p)
    return write


def run_cli(capsys, *argv):
    rc = main(["--quiet", *argv])
    out = capsys.readouterr().out
    return rc, (json.loads(out) if out else None)


def test_eval_exhaustive_zero(capsys, programs):
    rc, out = run_cli(capsys, "eval", programs("zero"), "--exhaustive")
    assert rc == 0
    assert out["converged_mass"] == "1"
    assert out["paths"] == [{"choices": "", "labels": {}, "weight": "1"}]


def test_eval_exhaustive_recursive(capsys, programs):
    rc, out = run_cli(capsys, "eval", programs("mq075"),
                      "--max-choices", "16")
    assert rc == 0
    num, den = map(int, out["converged_mass"].split("/"))
    assert abs(num / den - 1 / 3) < 0.02


def test_eval_loop_definitive_empty(capsys, programs):
    rc, out = run_cli(capsys, "eval", programs("loop"))
    assert rc == 0                      # empty but not a budget artifact
    assert out["diverged_mass"] == "1" and out["open_mass"] == "0"


def test_eval_budget_empty_exits_3(capsys, programs):
    src = programs("retry", "(fix (\\f:nat -> nat. \\n:nat. "
                            "ifz dice(1/2) then f n else f (succ n))) 0")
    rc, out = run_cli(capsys, "eval", src, "--max-choices", "3")
    assert rc == 3
    assert out["paths"] == [] and out["open_mass"] != "0"


def test_eval_explicit_choices(capsys, programs):
    src = programs("letpair")
    rc, out = run_cli(capsys, "eval", src, "--choices", "0")
    assert rc == 0
    assert out["accepted"] and out["weight"] == "1/3"
    assert out["labels"] == {"a": 1}
    rc, out = run_cli(capsys, "eval", src, "--choices", "11")
    assert rc == 0 and out["accepted"] is False
    rc, _ = run_cli(capsys, "eval", src, "--choices", "02")
    assert rc == 2


@pytest.mark.parametrize("modes", [
    ["--choices", "0", "--samples", "5"],
    ["--exhaustive", "--samples", "5"],
    ["--exhaustive", "--choices", "0"],
])
def test_eval_modes_exclude_each_other(capsys, programs, modes):
    # each pair used to run one mode, ignore the other and exit 0
    rc = main(["--quiet", "eval", programs("letpair"), *modes])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "not allowed with argument" in captured.err


def test_eval_sampling_seeded(capsys, programs):
    src = programs("dice010")
    rc, a = run_cli(capsys, "eval", src, "--samples", "300", "--seed", "9")
    assert rc == 0
    assert a["accepted"] + a["cut"] <= 300
    assert a["values"]["0"] == a["accepted"]
    _, b = run_cli(capsys, "eval", src, "--samples", "300", "--seed", "9")
    assert a == b


def test_eval_sampling_env_seed(capsys, programs, monkeypatch):
    src = programs("dice010")
    _, a = run_cli(capsys, "eval", src, "--samples", "100", "--seed", "4")
    monkeypatch.setenv("PPCF_SEED", "4")
    _, b = run_cli(capsys, "eval", src, "--samples", "100")
    assert a == b


@pytest.mark.parametrize("argv", [
    ["check", "chain", "--trials", "1"],
    ["eval", "dice010", "--samples", "3"],
])
def test_bad_env_seed_exits_2(capsys, programs, monkeypatch, argv):
    monkeypatch.setenv("PPCF_SEED", "abc")
    if argv[0] == "eval":
        argv = [argv[0], programs(argv[1]), *argv[2:]]
    assert main(["--quiet", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: PPCF_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("suite", ["lipschitz", "chain", "distance"])
@pytest.mark.parametrize("via_env", [False, True])
def test_negative_seed_in_cone_suite_exits_2(capsys, monkeypatch, suite,
                                             via_env):
    # numpy rejects negative seeds; that is bad input, not a violation
    argv = ["--quiet", "check", suite, "--trials", "1"]
    if via_env:
        monkeypatch.setenv("PPCF_SEED", "-3")
    else:
        argv += ["--seed", "-5"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: the {suite} suite needs a seed >= 0, "
                            f"got {-3 if via_env else -5}\n")


def test_negative_seed_elsewhere_still_runs(capsys):
    rc, out = run_cli(capsys, "check", "adequacy", "--trials", "2",
                      "--seed", "-2")
    assert rc == 0 and out["ok"]


def test_eval_all_cut_exits_3(capsys, programs):
    rc, out = run_cli(capsys, "eval", programs("loop"),
                      "--samples", "5", "--max-steps", "40")
    assert rc == 3 and out["cut"] == 5


def test_parse_and_type_errors_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.ppcf"
    bad.write_text("succ (")
    assert main(["--quiet", "eval", str(bad)]) == 2
    bad.write_text("succ (\\x:nat. x)")
    assert main(["--quiet", "eval", str(bad)]) == 2
    assert main(["--quiet", "eval", str(tmp_path / "missing.ppcf")]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["denot", "geo", "--tol", "0"],
    ["denot", "geo", "--tol", "-1"],
    ["denot", "geo", "--tol", "nan"],
    ["denot", "geo", "--nmax", "-1"],
    ["denot", "geo", "--fix-iters", "0"],
    ["eval", "geo", "--samples", "-3"],
    ["expect", "mq025_marked", "--label", "t", "--samples", "0"],
    ["eval", "geo", "--max-steps", "0"],
    ["eval", "geo", "--max-steps", "-5"],
    ["eval", "geo", "--choices", "0", "--max-steps", "-1"],
    ["eval", "geo", "--samples", "5", "--max-steps", "0"],
    ["eval", "geo", "--max-choices", "-1"],
    ["expect", "mq025_marked", "--label", "t", "--method", "mc",
     "--max-steps", "0"],
    ["check", "lipschitz", "--trials", "-3"],
    ["check", "adequacy", "--trials", "0"],
    ["check", "chain", "--trials", "0"],
    ["check", "distance", "--trials", "-1"],
    ["check", "lipschitz", "--p", "7", "--trials", "5"],
    ["check", "chain", "--p", "7"],
    ["check", "distance", "--p", "0", "--trials", "5"],
    ["check", "adequacy", "--p", "1", "--trials", "1"],
    ["check", "tamed", "--p", "nan"],
    ["eval", "geo", "--samples", "5", "--jobs", "2"],
])
def test_bad_settings_exit_2(programs, argv):
    # in a fresh process with a timeout: a tolerance of 0 used to make
    # a ground fixpoint's iteration run forever
    if argv[0] != "check":
        argv = [argv[0], programs(argv[1]), *argv[2:]]
    r = subprocess.run([sys.executable, "-m", "ppcf.cli", "--quiet", *argv],
                       capture_output=True, text=True, timeout=60)
    assert r.returncode == 2
    assert r.stdout == ""
    assert "error:" in r.stderr and "Traceback" not in r.stderr


@pytest.mark.parametrize("argv, unbuffered", [
    (["denot", "geo"], ""),
    (["denot", "geo", "--nmax", "1000"], "1"),
    (["eval", "zero"], ""),
    (["--help"], ""),
    (["eval", "--help"], ""),
])
def test_closed_stdout_exits_2(programs, monkeypatch, argv, unbuffered):
    # a reader that went away, as in `ppcf denot geo.ppcf | head -c 150`;
    # a buffered stdout meets the closed pipe only at its flush, and
    # argparse would drop the failed write of its help
    monkeypatch.setenv("PYTHONUNBUFFERED", unbuffered)
    argv = [programs(a) if a in ("geo", "zero") else a for a in argv]
    read, write = os.pipe()
    os.close(read)
    try:
        r = subprocess.run([sys.executable, "-m", "ppcf.cli", "--quiet",
                            *argv],
                           stdout=write, stderr=subprocess.PIPE, text=True,
                           timeout=60)
    finally:
        os.close(write)
    assert r.returncode == 2
    assert "error:" in r.stderr and "Traceback" not in r.stderr
    assert "Exception ignored" not in r.stderr


def test_deep_input_exits_2(capsys, programs):
    # the parser recurses through parentheses, the evaluator on the term;
    # '²' is a digit but not a decimal one, which int() refuses, and so
    # are numerals past Python's 4300-digit limit on str to int
    long = "1" * 5000
    for cmd, text in [("eval", "(" * 10_000 + "0" + ")" * 10_000),
                      ("denot", "succ " * 10_000 + "0"),
                      ("eval", "succ \u00b2"),
                      ("eval", "dice(1/\u00b2)"),
                      ("eval", long),
                      ("eval", f"dice(1/{long})"),
                      ("eval", f"dice(0.{long})")]:
        assert main(["--quiet", cmd, programs("deep", text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [
    ["denot", "SLOW", "--rate", "t=1"],
    ["expect", "SLOW", "--label", "t", "--tol", "1e-12"],
])
def test_ladder_rung_too_deep_for_the_stack_is_unconverged(capsys, programs,
                                                           argv):
    # the ladder climbs past rung 256, which 0.99^256 of mass still
    # reaches, to a rung whose unrolling exhausts the Python stack: that
    # ends the ladder at the last finished rung, not as bad input
    slow = programs("slow", r"(fix (\F:(nat->nat)->nat->nat. \k:nat->nat. "
                    r"\x:nat. ifz dice(1/100) then k x else F k x)) "
                    r"(\z:nat. mark[t] z) 0")
    rc, out = run_cli(capsys, *(slow if a == "SLOW" else a for a in argv))
    assert rc == 0
    if argv[0] == "denot":
        assert out["converged"] is False and out["depth"] >= 64
        assert 0.4 < out["dist"]["coords"][0]["v"] < 1.0
    else:
        assert out["dual"]["converged"] is False
        assert out["dual"]["conditional"] == pytest.approx(1.0)


@pytest.mark.parametrize("op, converged", [("pred", 1), ("succ", 0)])
def test_deep_chain_runs_under_eval(capsys, programs, op, converged):
    # the value returns through 10^4 frames after the coin; every run
    # after the first replays the segments recorded on the way
    path = programs("deep", f"{op} " * 10_000 + "dice(1/2)")
    rc, out = run_cli(capsys, "eval", path)
    assert rc == 0 and out["converged_mass"] == str(converged)
    rc, out = run_cli(capsys, "eval", path, "--samples", "3",
                      "--max-steps", "100000")
    assert rc == 0 and out["cut"] == 0 and out["accepted"] == 3 * converged


@pytest.mark.parametrize("argv", [
    ["eval", "BAD"],
    ["denot", "BAD"],
    ["expect", "BAD", "--label", "t"],
    ["dist", "BAD", "GOOD"],
    ["translate", "BAD", "--mode", "strip"],
    ["check", "tamed", "--left", "BAD"],
    ["check", "tamed", "--contexts", "BAD"],
    ["check", "tamed", "--contexts", "MISSING"],
])
def test_unreadable_input_exits_2(capsys, tmp_path, programs, argv):
    bad = tmp_path / "latin1.ppcf"
    bad.write_bytes("# caf\xe9\n0\n".encode("latin-1"))
    files = {"BAD": str(bad), "GOOD": programs("zero"),
             "MISSING": str(tmp_path / "missing.ctx")}
    assert main(["--quiet", *(files.get(a, a) for a in argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


@pytest.mark.parametrize("src", [
    r"fix (\x:nat. ifz dice(1/2) then 0 else ifz mark[t] x then x else 1)",
    r"(fix (\f:nat->nat. \n:nat. ifz dice(1/2) then 0 "
    r"else ifz mark[t] (f n) then f n else 1)) 0",
], ids=["ground", "table"])
def test_expect_at_a_critical_fixpoint_diverges(capsys, programs, src):
    # the same critical system as a ground fixpoint and as a table:
    # u = 1/2 + u^2/2 has a double root at 1, so the count is infinite
    assert main(["--quiet", "expect", programs("crit", src),
                 "--label", "t"]) == 0
    assert capsys.readouterr().out == '{"dual": "DIVERGES", "label": "t"}\n'


def test_denot_ground(capsys, programs):
    rc, out = run_cli(capsys, "denot", programs("mq075"), "--tol", "1e-12")
    assert rc == 0 and out["converged"]
    assert abs(out["dist"]["coords"][0]["v"] - 1 / 3) < 1e-9
    assert out["dist"]["overflow"] == {"v": 0.0, "d": {}}


# a divergent term of type nat -> nat: its functional returns its
# argument, so iterating it from the ground zero once looked converged
ARROW_FIX = r"fix (\f:nat->nat. f)"


@pytest.mark.parametrize("argv", [
    ["denot", "FIX"],
    ["dist", "FIX", "zero"],
    ["dist", "FIX", "FIX"],
    ["check", "tamed", "--left", "FIX", "--right", "zero"],
])
def test_arrow_term_observed_exits_2(capsys, programs, argv):
    files = {"FIX": programs("fix", ARROW_FIX), "zero": programs("zero")}
    assert main(["--quiet", *(files.get(a, a) for a in argv)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert "type nat -> nat" in captured.err


def test_denot_arrow_term_exits_2(capsys, programs):
    rc, _ = run_cli(capsys, "denot", programs("fn", r"\x:nat. x"))
    assert rc == 2


def test_denot_with_rates(capsys, programs):
    src = programs("mq025_marked")
    rc, _ = run_cli(capsys, "denot", src)
    assert rc == 2                      # label without a rate
    rc, out = run_cli(capsys, "denot", src, "--rate", "t=1",
                      "--seed-labels")
    assert rc == 0
    c0 = out["dist"]["coords"][0]
    assert abs(c0["v"] - 1.0) < 1e-6
    assert abs(c0["d"]["t"] - 3.0) < 1e-3
    rc, _ = run_cli(capsys, "denot", src, "--rate", "t=huh")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ["denot", "zero"],
    ["translate", "zero", "--mode", "lcof"],
])
def test_every_rate_is_read_even_without_labels(capsys, programs, argv):
    # denot used to skip reading --rate on a program without marks
    rc = main(["--quiet", argv[0], programs(argv[1]), *argv[2:],
               "--rate", "a=garbage"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == \
        "error: --rate expects label=rational, got 'a=garbage'\n"


@pytest.mark.parametrize("argv", [
    ["denot", "--rate", "a=1/2", "--rate", "b=1", "--rate", "zz=7"],
    ["translate", "--mode", "lcof", "--rate", "a=1/2", "--rate", "b=1",
     "--rate", "zz=7"],
    ["translate", "--mode", "spy", "--var", "a=pa", "--var", "b=pb",
     "--var", "zz=pz"],
])
def test_a_label_not_in_the_program_exits_2(capsys, programs, argv):
    # as expect --label zz does; these used to ignore zz and exit 0
    rc = main(["--quiet", argv[0], programs("letpair"), *argv[1:]])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    flag = argv[-2]
    assert captured.err == f"error: {flag} label 'zz' not in program\n"


def test_expect_dual(capsys, programs):
    rc, out = run_cli(capsys, "expect", programs("mq025_marked"),
                      "--label", "t")
    assert rc == 0
    assert abs(out["dual"]["conditional"] - 3.0) < 1e-6
    assert out["dual"]["converged"] is True
    rc, _ = run_cli(capsys, "expect", programs("mq025_marked"),
                    "--label", "zz")
    assert rc == 2


def test_expect_diverges_surfaced(capsys, programs):
    rc, out = run_cli(capsys, "expect", programs("mq050_marked",
                      corpus.read_text("mq050.ppcf").replace(" 0\n", " (mark[t] 0)\n")),
                      "--label", "t")
    assert rc == 0
    assert out["dual"] == "DIVERGES"


def test_expect_budget_cut_is_not_divergence(capsys, programs):
    # one Newton step gives an estimate of the count, 3, marked
    # unconverged; only a singular I - J or the threshold mean DIVERGES
    rc, out = run_cli(capsys, "expect", programs("mq075_marked"),
                      "--label", "t", "--fix-iters", "1")
    assert rc == 0
    assert out["dual"] != "DIVERGES"
    assert out["dual"]["converged"] is False
    assert 2.0 < out["dual"]["conditional"] < 4.0


def test_expect_both_methods(capsys, programs):
    rc, out = run_cli(capsys, "expect", programs("mq025_marked"),
                      "--label", "t", "--method", "both",
                      "--samples", "1500", "--seed", "2")
    assert rc == 0
    assert out["mc"]["converged"] == 1500
    assert out["gap"] == abs(out["dual"]["conditional"] - out["mc"]["mean"])
    assert out["gap"] < 4 * out["mc"]["stderr"]


def test_dist(capsys, programs):
    rc, out = run_cli(capsys, "dist", programs("dice000"),
                      programs("dice010"))
    assert rc == 0
    assert abs(out["distance"] - 0.2) < 1e-12


def test_translate_modes(capsys, programs):
    src = programs("letpair")
    rc, out = run_cli(capsys, "translate", src, "--mode", "strip")
    assert rc == 0 and "mark" not in out["term"]
    rc, out = run_cli(capsys, "translate", src, "--mode", "lcof",
                      "--rate", "a=1/2", "--rate", "b=2/3")
    assert rc == 0
    assert "dice(1/2)" in out["term"] and "dice(2/3)" in out["term"]
    rc, _ = run_cli(capsys, "translate", src, "--mode", "lcof")
    assert rc == 2
    rc, out = run_cli(capsys, "translate", src, "--mode", "spy",
                      "--var", "a=pa", "--var", "b=pb")
    assert rc == 0 and "pa" in out["term"] and "pb" in out["term"]


@pytest.mark.parametrize("name", ["ifz", "in", "1x", "", "r b"])
def test_translate_spy_refuses_a_name_that_is_not_an_identifier(
        capsys, programs, name):
    # each of these prints a term that does not parse back
    rc = main(["--quiet", "translate", programs("letpair"), "--mode", "spy",
               "--var", f"a={name}", "--var", "b=pb"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "identifier" in captured.err


def test_translate_spy_output_parses_back(capsys, programs):
    rc, out = run_cli(capsys, "translate", programs("letpair"), "--mode",
                      "spy", "--var", "a=a'", "--var", "b=_b")
    assert rc == 0
    t = parse_term(out["term"])
    assert {"a'", "_b"} <= free_vars(t)


def test_check_tamed_contexts_error_names_file_and_line(capsys, tmp_path):
    path = tmp_path / "bad.ctx"
    path.write_text("# contexts\n\\x:nat. x\n\n  \\x:nat. succ (x\n")
    rc = main(["--quiet", "check", "tamed", "--contexts", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {path}: line 4:18: ")


@pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
def test_check_tamed_without_contexts_exits_2(capsys, tmp_path, text):
    # the bound over no context at all would hold vacuously
    path = tmp_path / "empty.ctx"
    path.write_text(text)
    rc = main(["--quiet", "check", "tamed", "--contexts", str(path)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"error: {path}: no contexts\n"


def test_check_suites_pass(capsys):
    rc, out = run_cli(capsys, "check", "distance", "--trials", "200",
                      "--seed", "3")
    assert rc == 0 and out["ok"]
    rc, out = run_cli(capsys, "check", "chain", "--trials", "50",
                      "--seed", "3")
    assert rc == 0 and out["max_err"] < 1e-9
    rc, out = run_cli(capsys, "check", "lipschitz", "--trials", "200",
                      "--p", "0.9", "--seed", "3")
    assert rc == 0 and out["ok"]
    rc, out = run_cli(capsys, "check", "adequacy", "--trials", "4",
                      "--seed", "321")
    assert rc == 0 and out["ok"]


def test_check_tamed_defaults(capsys):
    rc, out = run_cli(capsys, "check", "tamed", "--p", "0.5")
    assert rc == 0 and out["ok"]
    assert len(out["gaps"]) == 10
    assert out["max_gap"] <= out["bound"] <= 0.2 + 1e-5


def test_quiet_suppresses_logs(capsys, programs):
    src = programs("dice010")
    main(["eval", src, "--samples", "10", "--seed", "1"])
    assert "sampling" in capsys.readouterr().err
    main(["--quiet", "eval", src, "--samples", "10", "--seed", "1"])
    assert capsys.readouterr().err == ""


def test_console_entry_point(tmp_path):
    p = tmp_path / "zero.ppcf"
    p.write_text(corpus.read_text("zero.ppcf"))
    r1 = subprocess.run([sys.executable, "-m", "ppcf.cli", "--quiet",
                         "eval", str(p)], capture_output=True, text=True)
    r2 = subprocess.run([sys.executable, "-m", "ppcf.cli", "--quiet",
                         "eval", str(p)], capture_output=True, text=True)
    assert r1.returncode == 0
    assert r1.stdout == r2.stdout       # byte-identical
    assert json.loads(r1.stdout)["converged_mass"] == "1"


def test_check_tamed_treats_marks_as_transparent(capsys, programs):
    # like dist, check tamed gates every mark at 1
    runs = []
    for left in ("mq075", "mq075_marked"):
        rc = main(["--quiet", "check", "tamed", "--left", programs(left),
                   "--right", programs("zero")])
        runs.append((rc, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


@pytest.mark.parametrize("arg, p", [
    ("0.3333333", 0.3333333), ("0.9999999", 0.9999999), ("0.0000001", 1e-7),
])
def test_check_tamed_keeps_p_as_given(capsys, arg, p):
    rc, out = run_cli(capsys, "check", "tamed", "--p", arg)
    assert rc == 0 and out["p"] == p
    assert out["bound"] == p / (1.0 - p) * out["denot_distance"] + 1e-6
