import hashlib
import json

import pytest

from torusgaps import numerics
from torusgaps.cli import main
from torusgaps.experiments import VERIFY_SUITES


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
    code, _, err = run_cli(capsys, "gaps", "0.61803398", "200")
    assert code == 0 and not err


# One exit contract: every command checks its bounds in every format; each
# bound exceeded is one BOUND VIOLATION line on stderr and exit code 2.
# Each entry: the argv, how many checks a forced violation fails, and the
# sha256 prefixes of stdout in table, csv and json under the real bounds:
# checking a bound never changes what a passing command prints.
BOUND_COMMANDS = {
    "gaps": (["gaps", "0.3", "3"], 1,
             "bd7325d1cb5afb67 e5e758caef1c769f 4889ff9176c46b97"),
    "survivors-sweep": (["survivors", "0.3,0.41", "20"], 1,
                        "ace55db1ab7cde99 5614efb953017182 a711cbe8ff0672e1"),
    "survivors-brute": (["survivors", "0.3,0.41", "20", "--mode", "brute"], 1,
                        "746a09f7f7c818ce 15b0375a22637987 5d666e7eb385daa3"),
    "survivors-both": (["survivors", "0.3,0.41", "20", "--mode", "both"], 2,
                       "cd90800a4cf6dbcf ab6cf57c7da93418 361243f9633c2a7a"),
    "denominators": (["denominators", "0.3,0.2", "10"], 1,
                     "0059bf02deeb9d68 158cc7fd1f41e246 cf4ff9ad5db44df0"),
}
FORMATS = ["table", "csv", "json"]


def force_violation(monkeypatch, command):
    """Lower one bound below the answer of the command's instance."""
    from torusgaps import cli, denominators
    if command == "gaps":
        monkeypatch.setattr(cli, "THREE_GAP_BOUND", 1)  # 0.3, n = 3: two gaps
    elif command == "survivors":
        monkeypatch.setattr(cli, "survivor_bound", lambda m: 0)
    else:
        monkeypatch.setattr(denominators, "primary_count_bound", lambda m: -1)


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("name", sorted(BOUND_COMMANDS))
def test_violated_bound_exits_2_in_every_format(capsys, monkeypatch, name, fmt):
    argv, failed, digests = BOUND_COMMANDS[name]
    code, out, err = run_cli(capsys, *argv, "--format", fmt)
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert code == 0 and not err and digest == digests.split()[FORMATS.index(fmt)]
    force_violation(monkeypatch, argv[0])
    code, forced_out, err = run_cli(capsys, *argv, "--format", fmt)
    assert code == 2 and forced_out
    lines = err.splitlines()
    assert len(lines) == failed
    assert all(line.startswith("BOUND VIOLATION: ") for line in lines)
    if argv[0] == "gaps":  # the bound is not printed, so stdout is unchanged
        assert forced_out == out
    if fmt == "json":
        json.loads(forced_out)


def test_assert_bound_is_an_unknown_option(capsys):
    for argv in (["gaps", "0.3", "10"], ["survivors", "0.3,0.4", "10"]):
        code, out, err = run_cli(capsys, *argv, "--assert-bound")
        assert code == 1 and not out
        assert "unrecognized arguments: --assert-bound" in err


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


def test_survivors_both_modes_read_one_agreement_rule(capsys, monkeypatch):
    # modes_agree and the exit code both come from experiments._reports_agree,
    # called once on the two reports; a single engine never calls it.
    from torusgaps import cli
    calls = []

    def disagree(a, b):
        calls.append((a.mode, b.mode))
        return False

    monkeypatch.setattr(cli, "_reports_agree", disagree)
    code, out, err = run_cli(capsys, "survivors", "0.3,0.41", "20", "--mode", "both",
                             "--format", "json")
    assert code == 2 and "ENGINE MISMATCH" in err
    payload = json.loads(out)
    assert payload["modes_agree"] is False
    assert payload["survivor_count"] == payload["brute"]["survivor_count"] == 13
    assert calls == [("sweep", "brute")]
    assert run_cli(capsys, "survivors", "0.3,0.41", "20")[0] == 0
    assert calls == [("sweep", "brute")]
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "survivors", "0.3,0.41", "20", "--mode", "both",
                           "--format", "json")
    assert code == 0 and json.loads(out)["modes_agree"] is True


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



@pytest.mark.parametrize("suite", ["planar", "oracle", "dual_mode"])
def test_verify_refuses_a_negative_seed(capsys, monkeypatch, suite):
    # numpy would refuse it at the first trial, naming nothing.
    import torusgaps.experiments as ex
    monkeypatch.setattr(ex, "_trial_rng", lambda *args: pytest.fail("a trial ran"))
    code, out, err = run_cli(capsys, "verify", suite, "--seed", "-1", "--trials", "2")
    assert code == 1 and not out
    assert err == "torusgaps: error: seed must be >= 0, got -1\n"


def test_verify_oracle_names_errors_and_a_witness(capsys, monkeypatch):
    # An engine error is counted apart from the mismatches, and a failing
    # check prints its first witness with the instance and the error.
    import torusgaps.experiments as ex
    real = ex.survivors_brute

    def odd_fails(alphas, n, **kwargs):
        if n % 2:
            raise RuntimeError(f"odd n={n}")
        return real(alphas, n, **kwargs)

    monkeypatch.setattr(ex, "survivors_brute", odd_fails)
    code, out, err = run_cli(capsys, "verify", "oracle", "--trials", "3",
                             "--max-n", "20", "--format", "json")
    assert code == 2 and not err
    checks = json.loads(out)["checks"]
    assert not any(check["ok"] for check in checks)
    for check in checks:
        info = check["info"]
        assert info["mismatches"] == 0 and info["errors"] >= 1
        witness = info["witness"]
        assert witness["n"] % 2 == 1 and len(witness["alphas"]) >= 1
        assert witness["error"] == f"RuntimeError: odd n={witness['n']}"


def test_verify_dual_mode_names_errors_and_a_witness(capsys, monkeypatch):
    # Float runs that lose their last survivor disagree with the exact ones,
    # and the exact run of trial 1 raises: the table names both counts and
    # the first witness, and the run exits 2.
    import dataclasses
    import torusgaps.experiments as ex
    real = ex.survivors_sweep
    calls = []

    def skewed(alphas, n, **kwargs):
        calls.append(n)
        if len(calls) == 3:
            raise RuntimeError("boom")
        report = real(alphas, n, **kwargs)
        if isinstance(alphas[0], float):
            report = dataclasses.replace(report, survivors=report.survivors[:-1])
        return report

    monkeypatch.setattr(ex, "survivors_sweep", skewed)
    code, out, err = run_cli(capsys, "verify", "dual_mode", "--trials", "3")
    assert code == 2 and not err
    line, = out.splitlines()
    assert line.startswith("FAIL  exact == float on 3 rational trials (q <= 50, n <= 40)"
                           "  mismatches=2  errors=1  witness={'trial_id': 0, 'alphas': [")
    assert f"'n': {calls[0]}, 'exact_survivors': [" in line


@pytest.mark.parametrize("command", ["survivors", "denominators"])
@pytest.mark.parametrize("alphas, position", [
    ("0.3,,0.4", "2 of 3"), ("0.3,", "2 of 2"), (",0.3", "1 of 2"),
    (" ", "1 of 1"), ("1/3, ,2/5", "2 of 3"),
])
def test_empty_generator_component_is_a_usage_error(capsys, command, alphas,
                                                    position):
    # Dropping the empty item would run the instance at a smaller m.
    code, out, err = run_cli(capsys, command, alphas, "5")
    assert code == 1 and not out
    assert err == f"torusgaps: error: generator component {position} is empty\n"

def test_survivors_assert_bound_m3(capsys):
    code, out, err = run_cli(capsys, "survivors", "0.3,0.4,0.7", "20",
                             "--format", "json")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["distinct_count"] <= 290


def test_survivors_dimension_is_bounded_by_the_size_rule_alone(capsys):
    code, out, _ = run_cli(capsys, "survivors", "0.1,0.2,0.3,0.4,0.5", "5",
                           "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["m"] == 5 and payload["survivor_count"] >= 1
    code, out, err = run_cli(capsys, "survivors", "0.1,0.2,0.3,0.4,0.5",
                             "1000000000000")
    assert code == 1
    assert err.startswith("torusgaps: ") and "too large at m=5" in err
    assert "Traceback" not in err and not out


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


def test_sweep_accepts_a_circular_gap_of_one_half(capsys, tmp_path):
    # At 1/4 and 3/4 with n = 3, and 1/8 and 7/8 with n = 5, one circular
    # gap is exactly 1/2 and its edge is defeated: the m = 1 identity lets
    # such a gap be in S or not.
    config = {"m": 1, "alpha_source": {"kind": "rational_grid", "max_denominator": 8},
              "n_values": [3, 5, 9]}
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 0 and not err
    assert "violations = 0" in out and "status = PASSED" in out



# sha256 prefixes of stdout in table and json, computed before the sweep
# and brute-force cross-checks shared one disagreement loop; one_d re-pinned
# when its identity check's label came to state the rule for a gap of 1/2,
# and dual_mode pinned when the exact-vs-float agreement became a suite.
VERIFY_DIGESTS = {
    "classical": "ece57170841f37bc 1c96e8149f0b8e0a",
    "dual_mode": "25c2a9c4e0f3217c f4055feb49c7b4f9",
    "higher": "a936fc32c767d163 61484487585be14d",
    "lemmas": "603a95ed0ae9ceb6 102031eec51fa19b",
    "one_d": "800e9349f79b10ea e360cf4b313b3515",
    "oracle": "c23860ae872b7f1a ca92f1c48e60093b",
    "planar": "d6081103763324fb 9e5ef3a898d20c6d",
}


def test_every_verify_suite_is_pinned():
    assert set(VERIFY_DIGESTS) == set(VERIFY_SUITES)


@pytest.mark.parametrize("fmt", ["table", "json"])
@pytest.mark.parametrize("suite", sorted(VERIFY_DIGESTS))
def test_verify_output_is_pinned(capsys, suite, fmt):
    size = [] if suite == "classical" else ["--max-n", "60"]
    code, out, err = run_cli(capsys, "verify", suite, "--trials", "40", *size,
                             "--seed", "3", "--format", fmt)
    assert code == 0 and not err
    digest = hashlib.sha256(out.encode()).hexdigest()[:16]
    assert digest == VERIFY_DIGESTS[suite].split()[["table", "json"].index(fmt)]


# Configs without sinks, so that no path enters the output; the sha256
# prefix of `sweep --format json` for each, pinned once the summary stopped
# carrying every trial record.
SWEEP_DIGESTS = {
    "uniform-m2": ({"m": 2, "alpha_source": {"kind": "uniform_random", "trials": 6},
                    "n_values": [8, 15], "seed": 42}, "b90a1a167c21ca1d"),
    "grid-m1": ({"m": 1, "alpha_source": {"kind": "rational_grid",
                                          "max_denominator": 6},
                 "n_values": [5, 9]}, "cd425d26af83f4f3"),
    "quadratic-m3": ({"m": 3, "alpha_source": {"kind": "quadratic_irrationals"},
                      "n_values": [10, 20]}, "33935cba524a32bd"),
}


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_sweep_json_is_pinned(capsys, tmp_path, name):
    config, want = SWEEP_DIGESTS[name]
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    code, out, err = run_cli(capsys, "sweep", str(cfg_path), "--format", "json")
    assert code == 0 and not err
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == want

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


@pytest.mark.parametrize("component", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_sweep_rejects_non_finite_generators(capsys, tmp_path, component):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text('{"m": 2, "n_values": [5], "alpha_source": {"kind": '
                        f'"explicit", "alphas": [[0.3, 0.4], [0.3, {component}]]}}}}')
    code, out, err = run_cli(capsys, "sweep", str(cfg_path))
    assert code == 1 and not out
    assert err.startswith("torusgaps: config error:")
    assert "alpha_source.alphas[1]" in err


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
                 ["survivors", "0.3", "5", "--max-m", "5"],
                 ["verify", "classical", "--trials", "2", "--max-n", "50"],
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
