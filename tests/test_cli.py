import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import ewlext
from ewlext import Angle, enumerate_discrete_solutions
from ewlext.cli import main

PD_JSON = '{"payoffs": [[["3","3"],["0","5"]],[["5","0"],["1","1"]]]}'


@pytest.fixture
def pd_file(tmp_path):
    path = tmp_path / "pd.json"
    path.write_text(PD_JSON)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_extend_c_class_golden(capsys, pd_file):
    code, out, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/3 pi",
                       "--game", pd_file)
    assert code == 0
    data = json.loads(out)
    assert data["labels"] == ["I", "iX", "U1", "U2"]
    assert data["payoffs"][0][2] == ["17/8", "17/8"]
    assert data["payoffs"][2][3] == ["57/16", "17/16"]
    assert data["payoffs"][3][3] == ["43/16", "43/16"]


def test_extend_b_class_uniform(capsys, pd_file):
    code, out, _ = run(capsys, "extend", "--class", "B", "--game", pd_file)
    assert code == 0
    data = json.loads(out)
    for i in range(4):
        for j in range(4):
            if i >= 2 or j >= 2:
                assert data["payoffs"][i][j] == ["9/4", "9/4"]


def test_extend_a1_pauli(capsys, pd_file):
    code, out, _ = run(capsys, "extend", "--class", "A1", "--alpha1", "1/2 pi",
                       "--game", pd_file)
    assert code == 0
    data = json.loads(out)
    assert data["payoffs"][2] == [["1", "1"], ["5", "0"], ["3", "3"], ["0", "5"]]


def test_extend_inline_game_and_oracle_check(capsys):
    code, out, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/3 pi",
                       "--game", PD_JSON, "--oracle-check")
    assert code == 0


def test_extend_json_round_trip(capsys, pd_file):
    code, first, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/3 pi",
                         "--game", pd_file)
    data = json.loads(first)
    # feed the emitted entries back through a fresh run; exact strings
    # must come out bit-identical
    code, second, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/3 pi",
                          "--game", pd_file)
    assert first == second
    assert json.loads(second) == data


def test_extend_invalid_params_names_congruence(capsys, pd_file):
    code, _, err = run(capsys, "extend", "--class", "B", "--theta1", "1/3 pi",
                       "--game", pd_file)
    assert code == 2
    assert "theta1 = pi/2" in err


def test_extend_explicit_set(capsys, pd_file):
    strategies = json.dumps([
        {"theta": "0", "alpha": "0", "beta": "0"},
        {"theta": "pi", "alpha": "0", "beta": "0"},
        {"theta": "1/2 pi", "alpha": "1/4 pi", "beta": "3/4 pi"},
        {"theta": "1/2 pi", "alpha": "3/4 pi", "beta": "1/4 pi"},
    ])
    code, out, _ = run(capsys, "extend", "--set", strategies, "--game", pd_file)
    assert code == 0
    data = json.loads(out)
    assert data["payoffs"][3][3] == ["9/4", "9/4"]


def test_verify_exit_codes(capsys, pd_file):
    code, out, _ = run(capsys, "verify", "--class", "E1", "--theta1", "1/3 pi",
                       "--game", pd_file)
    assert code == 0
    report = json.loads(out)
    assert [w["variant"] for w in report] == ["GAMMA1", "GAMMA2", "GAMMA3"]
    assert all(w["isomorphic"] for w in report)
    bad = json.dumps([
        {"theta": "0", "alpha": "0", "beta": "0"},
        {"theta": "pi", "alpha": "0", "beta": "0"},
        {"theta": "1/2 pi", "alpha": "1/2 pi", "beta": "0"},
        {"theta": "1/2 pi", "alpha": "0", "beta": "0"},
    ])
    code, out, _ = run(capsys, "verify", "--set", bad, "--game", pd_file)
    assert code == 1
    report = json.loads(out)
    assert any(not w["isomorphic"] for w in report)


def test_verify_classical_pair(capsys, pd_file):
    pair = json.dumps([
        {"theta": "0", "alpha": "0", "beta": "0"},
        {"theta": "pi", "alpha": "0", "beta": "0"},
    ])
    code, _, _ = run(capsys, "verify", "--set", pair, "--game", pd_file)
    assert code == 0


def test_equilibria_classical(capsys, pd_file):
    code, out, _ = run(capsys, "equilibria", "--game", pd_file)
    assert code == 0
    eqs = json.loads(out)
    assert len(eqs) == 1
    assert eqs[0]["payoff"] == ["1", "1"]


def test_equilibria_extend_first(capsys, pd_file):
    code, out, _ = run(capsys, "equilibria", "--extend-first", "--class", "C",
                       "--theta1", "1/3 pi", "--game", pd_file)
    assert code == 0
    eqs = json.loads(out)
    payoffs = sorted(tuple(e["payoff"]) for e in eqs)
    assert payoffs == [("19/8", "19/8"), ("19/8", "19/8"), ("23/12", "23/12")]
    mixed = [e for e in eqs if e["kind"] == "mixed"][0]
    assert mixed["p1"] == ["0", "1/3", "2/3", "0"]


def test_payoff_command(capsys, pd_file):
    code, out, _ = run(capsys, "payoff", "--game", pd_file,
                       "--p1", "1/2 pi,1/2 pi,1/2 pi", "--p2", "0,0,0",
                       "--oracle-check")
    assert code == 0
    data = json.loads(out)
    assert data["u1"] == "1/2"
    assert data["coefficients"] == ["0", "1/2", "0", "1/2"]


def test_payoff_malformed_game(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"payoffs": [[1, 2]]}')
    code, _, err = run(capsys, "payoff", "--game", str(bad),
                       "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 2
    assert "malformed" in err or "error" in err


def test_exact_mode_rejects_float_game(capsys, tmp_path):
    path = tmp_path / "floats.json"
    path.write_text(
        '{"payoffs": [[[3.5, 3.0], [0.1, 5.0]], [[5.0, 0.0], [1.0, 1.0]]]}'
    )
    code, _, err = run(capsys, "payoff", "--game", str(path),
                       "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 2
    assert "rational game entries" in err
    # the same game is fine in float mode
    code, out, _ = run(capsys, "payoff", "--game", str(path), "--mode", "float",
                       "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 0
    assert json.loads(out)["u1"] == 3.5


def test_extend_csv_format(capsys, pd_file):
    code, out, _ = run(capsys, "extend", "--class", "B", "--game", pd_file,
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "row,col,u1,u2"
    assert len(lines) == 1 + 16
    assert "I,U1,9/4,9/4" in lines


@pytest.mark.parametrize("argv", [
    ["verify", "--class", "B", "--format", "csv"],
    ["payoff", "--p1", "0,0,0", "--p2", "0,0,0", "--format", "pretty"],
    ["limits", "--mode", "exact"],
])
def test_options_a_command_would_ignore_are_usage_errors(capsys, pd_file, argv):
    # only extend and equilibria have output formats; limits is float only
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--game", pd_file])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_equilibria_csv_and_pretty(capsys, pd_file):
    code, out, _ = run(capsys, "equilibria", "--extend-first", "--class", "C",
                       "--theta1", "1/3 pi", "--game", pd_file, "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,u1,u2,p1,p2"
    assert "mixed,23/12,23/12,0;1/3;2/3;0,0;1/3;2/3;0" in lines
    code, out, _ = run(capsys, "equilibria", "--extend-first", "--class", "C",
                       "--theta1", "1/3 pi", "--game", pd_file,
                       "--format", "pretty")
    assert code == 0
    assert "payoff (23/12, 23/12)" in out


def test_equilibria_pre_extended_game(capsys, pd_file):
    code, out, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/3 pi",
                       "--game", pd_file)
    assert code == 0
    ext_path_content = out
    code, out, _ = run(capsys, "equilibria", "--game", ext_path_content)
    assert code == 0
    eqs = json.loads(out)
    payoffs = sorted(tuple(e["payoff"]) for e in eqs)
    assert payoffs == [("19/8", "19/8"), ("19/8", "19/8"), ("23/12", "23/12")]
    assert eqs[0]["support_labels"][0][0] in ("I", "iX", "U1", "U2")


@pytest.mark.parametrize("game", [
    '{"labels": [], "payoffs": []}',
    '{"labels": "ab", "payoffs": [[[1, 1], [0, 0]], [[0, 0], [1, 1]]]}',
    '{"labels": [1, 2], "payoffs": [[[1, 1], [0, 0]], [[0, 0], [1, 1]]]}',
])
def test_equilibria_game_without_strategies_or_string_labels_is_input_error(capsys, game):
    code, out, err = run(capsys, "equilibria", "--game", game)
    assert code == 2 and out == ""
    assert len(err.strip().splitlines()) == 1 and "malformed game JSON" in err


def test_limits_csv(capsys, pd_file):
    code, out, _ = run(capsys, "limits", "--game", pd_file, "--epsilons", "1e-6")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "class,direction,theta1,max_abs_diff,bound,converged"
    assert len(lines) == 1 + 8  # 4 classes x 2 directions x 1 epsilon
    assert all(line.endswith("True") for line in lines[1:])


def test_enumerate_summary(capsys):
    code, out, err = run(capsys, "enumerate", "--theta", "0")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta1,alpha1,beta1,alpha2,beta2,class"
    assert len(lines) == 1 + 1024
    assert "A1=1024" in err


def test_enumerate_counts_hits_with_and_without_the_named_relations(capsys):
    # the 96 mixed- and split-grid hits at pi/2 pass the criterion but
    # violate a named relation; stdout keeps the CSV alone
    code, out, err = run(capsys, "enumerate", "--theta", "1/2 pi")
    assert code == 0
    assert len(out.strip().splitlines()) == 1 + 288
    assert err.splitlines() == [
        "tested 4096 tuples: B=64, C=64, D1=16, D2=16, E1=16, E2=16, UNCLASSIFIED=96",
        "criterion only: 288, criterion + named relations: 192"]


def test_enumerate_stdout_ends_in_one_newline(capsys, tmp_path):
    code, out, _ = run(capsys, "enumerate", "--theta", "1/2 pi")
    assert code == 0
    assert out.endswith("\n") and not out.endswith("\n\n")
    assert out.count("\n") == 1 + 288
    path = tmp_path / "hits.csv"
    code, _, _ = run(capsys, "enumerate", "--theta", "1/2 pi", "--output", str(path))
    assert code == 0 and path.read_text() == out


# Imports ewlext and runs the one-game commands and two lattice searches (an
# exact pi/4 slice, a float pi/8 slice) in a fresh interpreter; after each
# step it reports the exit code, the modules loaded since start-up that are
# neither in the standard library nor ewlext, and whether ewlext.solver is
# loaded.
_START_UP = """
import sys
before = set(sys.modules)
import contextlib, io, json
import ewlext, ewlext.cli


def foreign():
    return sorted(m for m in set(sys.modules) - before
                  if m.partition(".")[0] not in (*sys.stdlib_module_names, "ewlext"))


game = sys.argv[1]
cls = ["--class", "C", "--theta1", "1/3 pi", "--game", game]
runs = [["extend", *cls, "--oracle-check"], ["verify", *cls],
        ["verify", *cls, "--mode", "float"],
        ["equilibria", "--extend-first", *cls],
        ["payoff", "--game", game, "--p1", "1/2 pi,1/2 pi,1/2 pi", "--p2", "0,0,0",
         "--oracle-check"],
        ["limits", "--game", game],
        ["enumerate", "--theta", "1/3 pi"],
        ["enumerate", "--theta", "1/3 pi", "--step", "1/8", "--mode", "float"]]
report = [["import", 0, foreign(), "ewlext.solver" in sys.modules]]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = ewlext.cli.main(argv)
    report.append([argv[0], code, foreign(), "ewlext.solver" in sys.modules])
print(json.dumps(report))
"""


def test_one_game_commands_do_not_load_numpy(pd_file):
    # nor any other module outside the standard library
    src = str(Path(ewlext.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _START_UP, pd_file],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [
        [command, 0, [], True]
        for command in ("import", "extend", "verify", "verify", "equilibria", "payoff",
                        "limits", "enumerate", "enumerate")]


def test_enumerate_half_pi_prints_the_reference_hits(capsys):
    # each family's hits are its enumerated set, and the other 96 the mixed-
    # and split-grid groups
    code, out, _ = run(capsys, "enumerate", "--theta", "1/2 pi")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theta1,alpha1,beta1,alpha2,beta2,class"
    hits = {}
    for line in lines[1:]:
        theta, *phases, label = line.split(",")
        assert theta == "1/2 pi"
        family = label if label == "UNCLASSIFIED" else label[0]
        hits.setdefault(family, set()).add(tuple(Angle.parse(p).frac for p in phases))
    assert sorted(hits) == ["B", "C", "D", "E", "UNCLASSIFIED"]
    for family in "BCDE":
        assert hits[family] == set(enumerate_discrete_solutions(family))
    assert len(hits["UNCLASSIFIED"]) == 96


def test_enumerate_theta_outside_q_sqrt2_is_input_error(capsys):
    code, out, err = run(capsys, "enumerate", "--theta", "1/6 pi")
    assert code == 2
    assert out == ""
    assert err == "error: cos(1/6*pi) is not representable in Q(sqrt(2))\n"


@pytest.mark.parametrize("argv", [
    *(["enumerate", "--theta", bad] for bad in ("1/0 pi", "1/0", "nan", "inf", "1e400")),
    ["payoff", "--game", PD_JSON, "--p1", "1/0 pi,0,0", "--p2", "0,0,0"],
])
def test_bad_angle_is_one_line_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: angle ") and err.count("\n") == 1


def test_missing_game_is_input_error(capsys):
    code, _, err = run(capsys, "extend", "--class", "B", "--game", "/nope/missing.json")
    assert code == 2
    assert "cannot read" in err


def test_pre_extended_float_game_needs_float_mode(capsys):
    ext = ('{"labels": ["a","b"], "payoffs": '
           '[[[1.5, 1.0],[0.0,0.0]],[[0.0,0.0],[1.0,1.5]]]}')
    code, _, err = run(capsys, "equilibria", "--game", ext)
    assert code == 2 and "exact mode" in err
    code, out, _ = run(capsys, "equilibria", "--game", ext, "--mode", "float")
    assert code == 0
    assert len(json.loads(out)) == 3  # two pure corners plus one mixed


def test_output_flag_writes_file(capsys, pd_file, tmp_path):
    out_path = tmp_path / "ext.json"
    code, out, _ = run(capsys, "extend", "--class", "B", "--game", pd_file,
                       "--output", str(out_path))
    assert code == 0
    assert out == ""
    data = json.loads(out_path.read_text())
    assert data["payoffs"][2][2] == ["9/4", "9/4"]


@pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
def test_limits_bad_epsilon_is_one_line_input_error(capsys, pd_file, bad):
    code, out, err = run(capsys, "limits", "--game", pd_file, "--epsilons", "1e-3", bad)
    assert code == 2
    assert out == ""
    assert err.startswith("error: --epsilons") and err.count("\n") == 1


@pytest.mark.parametrize("entry", ["NaN", "Infinity", '"nan"', '"-inf"', "1e400"])
def test_payoff_non_finite_float_entry_is_input_error(capsys, entry):
    game = f'{{"payoffs": [[[{entry}, 3], [0, 5]], [[5, 0], [1, 1]]]}}'
    code, out, err = run(capsys, "payoff", "--mode", "float", "--game", game,
                         "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 2
    assert out == ""
    assert err.startswith("error: payoff entry ") and err.count("\n") == 1
    assert err.rstrip().endswith("is not finite")


@pytest.mark.parametrize("entry", ["1e-5000", "1e-4000", "0e12345", "-1e99999999999",
                                   "1/" + "9" * 4001, "1e-3999+1e4000*sqrt(2)",
                                   "3+1e-4001*sqrt(2)"])
def test_exact_entry_beyond_4000_digits_is_one_line_input_error(capsys, entry):
    game = f'{{"payoffs": [[["{entry}", 2], [3, 4]], [[5, 6], [7, 8]]]}}'
    code, out, err = run(capsys, "payoff", "--game", game, "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 2 and out == ""
    assert err.startswith("error: exact payoff entry ") and err.count("\n") == 1
    assert err.rstrip().endswith("exceeds 4000 digits")


def test_exact_entry_of_4000_digits_is_printed(capsys):
    game = '{"payoffs": [[["1e-3999", 2], [3, 4]], [[5, 6], [7, 8]]]}'
    code, out, _ = run(capsys, "payoff", "--game", game, "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 0
    assert json.loads(out)["u1"] == "1/1" + "0" * 3999


def test_exact_entry_with_an_exponent_in_its_sqrt2_part_is_read(capsys):
    game = '{"payoffs": [[["3+1e-3*sqrt(2)", 2], [3, 4]], [[5, 6], [7, 8]]]}'
    code, out, _ = run(capsys, "payoff", "--game", game, "--p1", "0,0,0", "--p2", "0,0,0")
    assert code == 0
    assert json.loads(out)["u1"] == "3+1/1000*sqrt(2)"


@pytest.mark.parametrize("option,value,argv,code", [
    ("--alpha1", "-pi/4", ["extend", "--class", "A1"], 0),
    ("--beta1", "-1/4 pi", ["extend", "--class", "A1"], 0),
    ("--alpha2", "-pi/4", ["extend", "--class", "C"], 0),
    ("--beta2", "-pi/4", ["extend", "--class", "C"], 0),
    ("--alpha2", "-pi/2", ["equilibria", "--extend-first", "--class", "A2"], 0),
    # a theta below 0 is refused as an input error, not a usage error
    ("--theta1", "-pi/3", ["verify", "--class", "C"], 2),
    ("--p1", "-pi/4,0,0", ["payoff", "--p2", "0,0,0"], 2),
    ("--p2", "-1/2 pi,-pi,0", ["payoff", "--p1", "0,0,0"], 2),
])
def test_negative_angle_may_follow_its_option(capsys, pd_file, option, value, argv, code):
    joined = run(capsys, *argv, "--game", pd_file, f"{option}={value}")
    assert run(capsys, *argv, "--game", pd_file, option, value) == joined
    assert joined[0] == code
    assert joined[2] == "" if code == 0 else joined[2].startswith("error: ")


def test_negative_theta_may_follow_its_option_in_enumerate(capsys):
    code, out, err = run(capsys, "enumerate", "--theta", "-1/2 pi")
    assert code == 2 and out == "" and "outside [0, pi]" in err


@pytest.mark.parametrize("argv", [
    ["extend", "--class", "A1", "--alpha1"],
    ["extend", "--class", "A1", "--alpha1", "--beta1", "0"],
    ["extend", "--class", "A1", "--theta1", "-pi/4", "--gam"],
    ["payoff", "--p1", "-pi/4,0,0", "--p2", "0,0,0", "-x"],
])
def test_usage_errors_around_angle_options_still_exit_2(capsys, pd_file, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--game", pd_file])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage:")


def test_extend_empty_set_is_input_error(capsys, pd_file):
    code, out, err = run(capsys, "extend", "--set", "[]", "--game", pd_file)
    assert code == 2
    assert out == ""
    assert err == "error: strategy set must be nonempty\n"


def test_inline_json_list_game_is_malformed_not_a_file(capsys):
    code, out, err = run(capsys, "extend", "--class", "B",
                         "--game", "[[[3, 3], [0, 5]], [[5, 0], [1, 1]]]")
    assert code == 2
    assert out == ""
    assert err.startswith("error: malformed game JSON") and "cannot read" not in err


def test_extend_exact_mode_refuses_entries_outside_q_sqrt2(capsys, pd_file):
    argv = ("extend", "--class", "C", "--theta1", "1/6 pi", "--game", pd_file)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "--mode float" in err
    code, out, _ = run(capsys, *argv, "--mode", "float")
    assert code == 0
    assert isinstance(json.loads(out)["payoffs"][2][3][0], float)


def test_float_verify_refuses_payoffs_within_the_guard_band(capsys):
    # one payoff 3e-9 from another: neither clearly equal nor distinct at 1e-9
    game = '{"payoffs": [[[3, 3], [0, 5]], [[5, 0], [1, 1.000000003]]]}'
    code, out, err = run(capsys, "verify", "--class", "C", "--theta1", "1/3 pi",
                         "--mode", "float", "--game", game)
    assert code == 2
    assert out == ""
    assert err.startswith("error: float values do not separate at tol = 1e-09")


def test_float_equilibria_of_a_pre_extended_q_sqrt2_game(capsys, pd_file):
    # the C(pi/4) extension has Q(sqrt(2)) entries; float mode converts them
    code, ext, _ = run(capsys, "extend", "--class", "C", "--theta1", "1/4 pi",
                       "--game", pd_file)
    assert code == 0 and "sqrt(2)" in ext
    code, out, _ = run(capsys, "equilibria", "--game", ext, "--mode", "float")
    assert code == 0
    assert all(isinstance(v, float) for e in json.loads(out) for v in e["p1"] + e["p2"])


def test_float_equilibria_print_no_negative_zero(capsys):
    game = '{"payoffs": [[["0","0"],["-1","1"]],[["1","-1"],["0","0"]]]}'
    code, out, _ = run(capsys, "equilibria", "--mode", "float", "--game", game)
    assert code == 0 and json.loads(out)
    assert "-0.0" not in out


# a float game and a D1 point at a float theta1 whose extension is degenerate
# through identities in cos(theta1): rounding the extension to floats before
# solving leaves 1 equilibrium, not degenerate
D1_FLOAT_GAME = json.dumps({"payoffs": [
    [[4.685315169882433, 4.486392487443613], [0.1608139762254579, 4.5487520886533765]],
    [[2.3022375650016382, 1.1856396686080384], [4.717153163136926, -3.8194047059476777]]]})
D1_FLOAT_ARGS = ("--mode", "float", "--class", "D1", "--theta1", "0.4159773836125266",
                 "--alpha1", "1 pi", "--beta1", "0 pi", "--alpha2", "1 pi", "--beta2", "1 pi",
                 "--game", D1_FLOAT_GAME)


def test_float_extend_first_keeps_the_ties_of_the_exact_extension(capsys):
    code, out, err = run(capsys, "equilibria", "--extend-first", *D1_FLOAT_ARGS)
    assert code == 0
    assert len(json.loads(out)) == 12
    assert err.startswith("warning: degenerate game")
    # extend prints the same extension, each entry converted by float()
    code, out, _ = run(capsys, "extend", *D1_FLOAT_ARGS)
    assert code == 0
    params = ewlext.ClassParams.create("D1", theta1=0.4159773836125266, alpha1="1 pi",
                                       beta1="0 pi", alpha2="1 pi", beta2="1 pi")
    ext = ewlext.extension_matrix(params, ewlext.Bimatrix2.from_json(json.loads(D1_FLOAT_GAME)))
    assert json.loads(out)["payoffs"] == [[[float(v) for v in p] for p in row]
                                          for row in ext.payoffs]


ZERO_DENOMINATOR_GAMES = [
    '{"payoffs": [[["1/0",2],[3,4]],[[5,6],[7,8]]]}',
    '{"payoffs": [[["1+1/0*sqrt(2)",2],[3,4]],[[5,6],[7,8]]]}',
    '{"labels": ["a","b"], "payoffs": [[["1/0",2],[3,4]],[[5,6],[7,8]]]}',
]


@pytest.mark.parametrize("argv", [
    *(["extend", "--class", "C", "--game", g] for g in ZERO_DENOMINATOR_GAMES[:2]),
    *(["equilibria", "--game", g] for g in ZERO_DENOMINATOR_GAMES),
    ["payoff", "--game", ZERO_DENOMINATOR_GAMES[0], "--p1", "0,0,0", "--p2", "0,0,0"],
])
def test_zero_denominator_entry_is_one_line_input_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: payoff entry ") and err.count("\n") == 1
    assert "zero denominator" in err


# Pieces of input, mostly valid, each with a few malformed or borderline ones.
VALID_ENTRIES = ["3", "1/2", "-5/3", 2, 0, "1/2+3/4*sqrt(2)", "-1/4*sqrt(2)", 1.5]
BAD_ENTRIES = ["1/0", "0/0", "1+1/0*sqrt(2)", "1/0*sqrt(2)", "nan", "inf", "-inf", "1e400",
               "", " ", "abc", "1/2/3", "sqrt(2)", "1+sqrt(2)", "1+*sqrt(2)",
               "1+2*sqrt(2)x", None, True, [], {}, [1, 2], 10 ** 30]
VALID_ANGLES = ["0", "pi", "1/3 pi", "1/4 pi", "2pi/3", "-pi/4", "3/4", "7/2 pi", "0.3"]
BAD_ANGLES = ["1/6 pi", "pi/0", "1/0 pi", "1/0", "nan", "inf", "-inf", "1e400", "",
              "pi/", "abc", "1/2 pi/3", "2/pi"]


def mostly(valid, bad):
    return st.sampled_from(valid * 4 + bad)


def one_spoiled(draw, items, bad):
    """items with one of them replaced by a bad piece, half of the time."""
    if items and draw(st.booleans()):
        items[draw(st.integers(0, len(items) - 1))] = draw(st.sampled_from(bad))
    return items


@st.composite
def fuzz_games(draw, extended=False):
    if draw(st.integers(0, 4)) < 4:  # a 2x2 grid of pairs with at most one bad entry
        flat = one_spoiled(draw, [draw(st.sampled_from(VALID_ENTRIES)) for _ in range(8)],
                           BAD_ENTRIES)
        rows = [[flat[0:2], flat[2:4]], [flat[4:6], flat[6:8]]]
    else:
        entry = mostly(VALID_ENTRIES, BAD_ENTRIES)
        rows = draw(st.lists(st.lists(st.lists(entry, max_size=3), max_size=3), max_size=3))
    game = {"payoffs": rows}
    if extended:
        game["labels"] = draw(mostly([["a", "b"]], [["a"], "ab", [1, 2]]))
    return json.dumps(game)


@st.composite
def fuzz_strategies(draw):
    parts = [draw(st.sampled_from(VALID_ANGLES)) for _ in range(draw(mostly([3], [2, 4])))]
    parts = one_spoiled(draw, parts, BAD_ANGLES)
    form = draw(st.sampled_from(["text", "text", "list", "object"]))
    if form == "text":
        return ",".join(parts)
    return json.dumps(parts if form == "list" else dict(zip(("theta", "alpha", "beta"), parts)))


@st.composite
def fuzz_argv(draw):
    command = draw(st.sampled_from(["extend", "payoff", "equilibria"]))
    mode = ["--mode", draw(st.sampled_from(["exact", "float"]))]
    if command == "payoff":
        return ["payoff", "--game", draw(fuzz_games()), *mode,
                "--p1", draw(fuzz_strategies()), "--p2", draw(fuzz_strategies())]
    cls = ["--class", draw(st.sampled_from(["A1", "B", "C", "D1", "E2"])),
           "--theta1", draw(mostly(VALID_ANGLES, BAD_ANGLES))]
    if command == "extend":
        return ["extend", *cls, "--game", draw(fuzz_games()), *mode]
    if draw(st.booleans()):
        return ["equilibria", "--extend-first", *cls, "--game", draw(fuzz_games()), *mode]
    return ["equilibria", "--game", draw(fuzz_games(extended=draw(st.booleans()))), *mode]


@settings(max_examples=200, deadline=None, derandomize=True)
@example(["extend", "--class", "C", "--game", ZERO_DENOMINATOR_GAMES[0]])
@example(["extend", "--class", "C", "--game", ZERO_DENOMINATOR_GAMES[1]])
@given(fuzz_argv())
def test_cli_fuzz_exits_0_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 2), (argv, err.getvalue())
    if code == 2 and not err.getvalue().startswith("usage:"):
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
