import json

import pytest

from torusgaps import numerics
from torusgaps.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gaps_json_output(capsys):
    code, out, _ = run_cli(capsys, "gaps", "0.3", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["gaps"] == pytest.approx([0.3, 0.3, 0.3, 0.1])
    assert payload["distinct_count"] == 2
    assert payload["n"] == 3


def test_gaps_exact_fraction(capsys):
    code, out, _ = run_cli(capsys, "gaps", "1/3", "2")
    assert code == 0
    assert "1/3" in out
    code, out, _ = run_cli(capsys, "gaps", "1/3", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["distinct_gaps"] == ["1/3"]


def test_gaps_json_writes_exact_zero_as_integer(capsys):
    code, out, _ = run_cli(capsys, "gaps", "1/2", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["points"] == ["0", "0", "1/2", "1/2"]
    assert payload["gaps"] == ["0", "0", "1/2", "0", "1/2"]
    assert payload["alpha"] == "1/2"


def test_gaps_exact_flag_promotes_decimals(capsys):
    code, out, _ = run_cli(capsys, "gaps", "0.3", "3", "--exact",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] is True
    assert payload["distinct_gaps"] == ["1/10", "3/10"]


def test_gaps_parse_failure_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "gaps", "abc", "3")
    assert code == 1
    assert "cannot parse" in err


def test_gaps_assert_bound_passes(capsys):
    code, _, _ = run_cli(capsys, "gaps", "0.61803398", "200", "--assert-bound")
    assert code == 0


def test_gaps_csv_output(capsys):
    code, out, _ = run_cli(capsys, "gaps", "0.3", "3", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,from_point,to_point,gap"
    assert len(lines) == 5  # header + n+1 gaps


def test_survivors_single_edge(capsys):
    code, out, _ = run_cli(capsys, "survivors", "0.3,0.4", "2",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct_lengths"] == pytest.approx([0.5])
    assert payload["bound"] == 11


def test_survivors_both_modes_agree(capsys):
    code, out, _ = run_cli(capsys, "survivors", "0.3", "3", "--mode", "both")
    assert code == 0
    assert "sweep and brute agree" in out


def test_survivors_both_modes_csv_names_the_engine(capsys):
    code, out, _ = run_cli(capsys, "survivors", "1/2,1/3", "7", "--mode", "both",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "mode,index,length,witness_j,witness_k"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["sweep"] * 3 + ["brute"] * 3
    assert [r[1:] for r in rows[:3]] == [r[1:] for r in rows[3:]]


def test_brute_runs_past_the_old_cap(capsys):
    code, out, _ = run_cli(capsys, "survivors", "0.3", "201", "--mode", "brute")
    assert code == 0
    assert "mode = brute" in out


@pytest.mark.parametrize("argv", [
    ["survivors", "0.3", "1000000000000"],
    ["survivors", "0.3,0.2", "1000000000000", "--mode", "brute"],
    ["gaps", "1/3", "1000000000000"],
    ["denominators", "0.3,0.2", "1000000000000"],
    ["verify", "planar", "--max-n", "1000000000000"],
    # Past the m = 3 rules, within the m = 1 ones: refused before any trial.
    ["verify", "lemmas", "--max-n", "1500000"],
    ["verify", "oracle", "--max-n", "4000"],
], ids=lambda argv: "-".join(argv[:2]))
def test_too_large_n_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert err.startswith("torusgaps: ") and "too large" in err
    assert "Traceback" not in err and not out


def test_too_many_survivors_is_a_usage_error(capsys, monkeypatch):
    # At a = 1/2 every edge survives; under a 1 MiB budget the points of
    # n = 400 fit but its 79,800 survivors do not.
    monkeypatch.setattr(numerics, "MEMORY_BUDGET", 2 ** 20)
    code, out, err = run_cli(capsys, "survivors", "1/2", "400")
    assert code == 1
    assert err.startswith("torusgaps: ") and "survivors would exceed" in err
    assert "Traceback" not in err and not out
    code, out, _ = run_cli(capsys, "survivors", "0.3819660112501051", "400")
    assert code == 0 and "mode = sweep" in out


def test_sweep_config_with_too_large_n_is_a_usage_error(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"m": 2, "n_values": [10, 10 ** 12],
                                    "alpha_source": {"kind": "uniform_random",
                                                     "trials": 2}}))
    code, out, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 1
    assert err.startswith("torusgaps: config error:") and "n_values" in err
    assert not out


def test_survivors_assert_bound_m3(capsys):
    code, out, _ = run_cli(capsys, "survivors", "0.3,0.4,0.7", "20",
                           "--assert-bound", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["distinct_count"] <= 290


def test_survivors_dimension_cap(capsys):
    code, _, err = run_cli(capsys, "survivors", "0.1,0.2,0.3,0.4,0.5", "5")
    assert code == 1
    assert "max-m" in err


def test_survivors_svg_requires_m2(capsys, tmp_path):
    path = tmp_path / "plot.svg"
    code, _, err = run_cli(capsys, "survivors", "0.3", "5", "--svg", str(path))
    assert code == 1
    assert "m = 2" in err
    assert not path.exists()


def test_survivors_svg_renders(capsys, tmp_path):
    path = tmp_path / "plot.svg"
    code, _, _ = run_cli(capsys, "survivors", "0.31,0.47", "12",
                         "--svg", str(path))
    assert code == 0
    body = path.read_text()
    assert body.startswith("<svg")
    assert body.count("<circle") == 12
    assert "<line" in body


def test_denominators_table(capsys):
    code, out, _ = run_cli(capsys, "denominators", "0.3", "10")
    assert code == 0
    assert "Q1 = 3" in out
    assert "Q2 = 7" in out
    assert "primary   = [10]" in out
    assert "PASS" in out and "FAIL" not in out


def test_denominators_type_rows(capsys):
    code, out, _ = run_cli(capsys, "denominators", "0.75,0.25", "8")
    assert code == 0
    assert "+-" in out


def test_denominators_json(capsys):
    code, out, _ = run_cli(capsys, "denominators", "0.3", "10",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["q1"] == 3
    assert payload["q2"] == 7
    assert payload["lemma2_count"] == 0
    assert payload["passed"] is True


def test_denominators_csv(capsys):
    code, out, _ = run_cli(capsys, "denominators", "0.5", "4", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q,dev_1,type,length,angle,role"
    assert len(lines) == 5
    # A zero deviation counts as '+'; an integral multiple is the circle
    # point 0: deviation -1/2, sign '-', length 0 and no angle.
    assert lines[1:3] == ["1,0,+,0.5,,q2", "2,-0.5,-,0,,q1"]
    code, out, _ = run_cli(capsys, "denominators", "1/2", "4", "--format", "csv")
    assert code == 0
    exact = out.splitlines()[1:3]
    assert exact == ["1,0,+,0.5,,q2", "2,-1/2,-,0,,q1"]
    # An exact zero deviation prints as 0, the row float mode prints.
    assert exact[0] == lines[1]


def test_verify_suite_small(capsys):
    code, out, _ = run_cli(capsys, "verify", "planar", "--trials", "5",
                           "--seed", "7")
    assert code == 0
    assert "PASS" in out
    assert "max_distinct" in out


def test_verify_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "oracle", "--trials", "3",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert len(payload["checks"]) == 3


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "bogus")
    assert code == 1
    assert "invalid choice" in err
    for argv, name in ((["planar", "--trials", "-3"], "trials"),
                       (["oracle", "--trials", "0"], "trials"),
                       (["planar", "--max-n", "1"], "max_n"),
                       (["classical", "--max-n", "1"], "max_n")):
        code, out, err = run_cli(capsys, "verify", *argv)
        assert code == 1 and "PASS" not in out
        assert err.startswith("torusgaps: error:") and name in err


def test_sweep_command(capsys, tmp_path):
    out_csv = tmp_path / "trials.csv"
    out_json = tmp_path / "summary.json"
    config = {
        "m": 1,
        "alpha_source": {"kind": "uniform_random", "trials": 4},
        "n_values": [10, 20],
        "seed": 5,
        "output": {"trials_csv": str(out_csv), "summary_json": str(out_json)},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 0
    assert "status = PASSED" in out
    assert out_csv.exists() and out_json.exists()
    assert json.loads(out_json.read_text())["trials"] == 4


def test_sweep_malformed_config(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"m": 2, "n_values": [5],
                                    "alpha_source": {"kind": "uniform_random",
                                                     "trials": 2},
                                    "bogus": True}))
    code, _, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 1
    assert "bogus" in err


@pytest.mark.parametrize("override, key", [
    ({"m": True}, "m"),
    ({"epsilon": True}, "epsilon"),
    ({"seed": False}, "seed"),
    ({"alpha_source": {"kind": "explicit", "alphas": [[0.3, True]]}},
     "alpha_source.alphas[0]"),
])
def test_sweep_rejects_boolean_values(capsys, tmp_path, override, key):
    config = {"m": 2, "n_values": [5],
              "alpha_source": {"kind": "uniform_random", "trials": 2}}
    config.update(override)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 1 and "PASSED" not in out
    assert err.startswith("torusgaps: config error:") and key in err


def test_sweep_invalid_json(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text("{not json")
    code, _, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 1


def test_unreadable_and_unwritable_paths_are_usage_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "sweep", str(tmp_path / "missing.json"))
    assert code == 1
    assert err.startswith("torusgaps: error:") and "missing.json" in err
    code, _, err = run_cli(capsys, "survivors", "0.3,0.2", "10",
                           "--svg", str(tmp_path / "no" / "x.svg"))
    assert code == 1
    assert err.startswith("torusgaps: error:") and "x.svg" in err


def test_commands_take_only_the_flags_they_read(capsys, tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({"m": 1, "n_values": [5],
                                    "alpha_source": {"kind": "uniform_random",
                                                     "trials": 2}}))
    code, _, err = run_cli(capsys, "sweep", str(cfg_path), "--epsilon", "1e-5")
    assert code == 1
    assert "unrecognized arguments" in err
    code, _, err = run_cli(capsys, "verify", "planar", "--format", "csv")
    assert code == 1
    assert "invalid choice" in err
    for argv in (["gaps", "0.3", "3", "--seed", "1"],
                 ["verify", "planar", "--exact"],
                 ["verify", "planar", "--oracle-cap", "5"],
                 ["survivors", "0.3", "5", "--oracle-cap", "5"],
                 ["sweep", str(cfg_path), "--seed", "1"]):
        assert main(argv) == 1


@pytest.mark.parametrize("epsilon", ["nan", "inf", "-0.01"])
@pytest.mark.parametrize("command", [
    ["gaps", "0.3", "30"],
    ["survivors", "0.31,0.47", "30"],
    ["denominators", "0.31,0.47", "30"],
    ["verify", "planar", "--trials", "2", "--max-n", "5"],
], ids=lambda argv: argv[0])
def test_epsilon_must_be_finite_and_non_negative(capsys, command, epsilon):
    code, _, err = run_cli(capsys, *command, "--epsilon", epsilon)
    assert code == 1
    assert "--epsilon" in err


def test_mixed_mode_warning(capsys):
    code, _, err = run_cli(capsys, "survivors", "1/3,0.4", "5")
    assert code == 0
    assert "mixed" in err


def test_usage_error_without_subcommand(capsys):
    assert main([]) == 1


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["gaps", "--help"]) == 0
