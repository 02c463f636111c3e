import csv
import json
import math
from fractions import Fraction

import pytest

from torusgaps.experiments import (
    QUADRATIC_IRRATIONALS,
    ConfigError,
    config_from_dict,
    cross_check,
    csv_header,
    dual_mode_agreement,
    run_sweep,
    run_trial,
    verify_suite,
    _enumerate_trials,
)


def cfg_dict(**overrides):
    base = {
        "m": 2,
        "alpha_source": {"kind": "uniform_random", "trials": 6},
        "n_values": [8, 15],
        "seed": 42,
    }
    base.update(overrides)
    return base


def test_config_round_trip():
    cfg = config_from_dict(cfg_dict(epsilon=1e-8, output={"trials_csv": "x.csv"}))
    assert cfg.m == 2
    assert cfg.epsilon == 1e-8
    assert cfg.output.trials_csv == "x.csv"
    assert cfg.to_dict()["alpha_source"]["kind"] == "uniform_random"
    assert config_from_dict(cfg.to_dict()) == cfg
    # An exact integer alpha is written "1", not "1/1", and reads back.
    exact = config_from_dict(cfg_dict(m=1, alpha_source={"kind": "explicit",
                                                         "alphas": [["1"], ["2/7"]]}))
    assert exact.to_dict()["alpha_source"]["alphas"] == [["1"], ["2/7"]]
    assert config_from_dict(exact.to_dict()) == exact


@pytest.mark.parametrize("mutation, expected_key", [
    ({"m": 0}, "m"),
    ({"n_values": []}, "n_values"),
    ({"n_values": [1]}, "n_values"),
    ({"epsilon": -1.0}, "epsilon"),
    ({"n_values": [8, 10 ** 12]}, "n_values"),  # breaks the size rule
    ({"seed": "x"}, "seed"),
    ({"output": {"bogus": 1}}, "output"),
    ({"epsilon": float("nan")}, "epsilon"),
    ({"epsilon": float("inf")}, "epsilon"),
    ({"epsilon": 10 ** 400}, "epsilon"),
    # JSON true and false load as bool, an int subclass, but are not numbers.
    ({"m": True}, "m"),
    ({"epsilon": True}, "epsilon"),
    ({"seed": False}, "seed"),
    ({"n_values": [True, 5]}, "n_values"),
    ({"alpha_source": {"kind": "uniform_random", "trials": True}},
     "alpha_source.trials"),
    ({"alpha_source": {"kind": "quadratic_irrationals", "catalog": 5}},
     "alpha_source.catalog"),
    ({"alpha_source": {"kind": "quadratic_irrationals", "catalog": [["golden"], "sqrt2"]}},
     "alpha_source.catalog"),
    ({"alpha_source": {"kind": "bogus"}}, "alpha_source.kind"),
    # A kind that is not a string cannot name a source (a list is unhashable).
    ({"alpha_source": {"kind": ["explicit"]}}, "alpha_source.kind"),
])
def test_config_rejects_bad_values(mutation, expected_key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(**mutation))
    assert expected_key in err.value.offending


def test_config_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(bogus=1))
    assert err.value.offending == ["bogus"]
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(oracle_cap=200))  # the brute force has no cap
    assert err.value.offending == ["oracle_cap"]
    with pytest.raises(ConfigError) as err:
        config_from_dict({"m": 2})
    assert "alpha_source" in err.value.offending
    assert "n_values" in err.value.offending


def test_config_rejects_bad_sources():
    with pytest.raises(ConfigError):
        config_from_dict(cfg_dict(alpha_source={"kind": "nope"}))
    with pytest.raises(ConfigError):
        config_from_dict(cfg_dict(alpha_source={"kind": "uniform_random"}))
    with pytest.raises(ConfigError):
        config_from_dict(cfg_dict(
            alpha_source={"kind": "quadratic_irrationals", "catalog": ["nope"]}))
    with pytest.raises(ConfigError):
        config_from_dict(cfg_dict(
            alpha_source={"kind": "explicit", "alphas": [[0.3]]}))  # m mismatch


@pytest.mark.parametrize("component", ["1/0", "abc", True])
def test_config_rejects_unparseable_component(component):
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(
            alpha_source={"kind": "explicit", "alphas": [[0.3, 0.4], [0.1, component]]}))
    assert err.value.offending == ["alpha_source.alphas[1]"]


def test_trial_enumeration_is_seed_deterministic():
    cfg1 = config_from_dict(cfg_dict())
    cfg2 = config_from_dict(cfg_dict())
    assert list(_enumerate_trials(cfg1)) == list(_enumerate_trials(cfg2))
    cfg3 = config_from_dict(cfg_dict(seed=43))
    assert list(_enumerate_trials(cfg1)) != list(_enumerate_trials(cfg3))


def test_uniform_draws_respect_degeneracy_guard():
    cfg = config_from_dict(cfg_dict(alpha_source={"kind": "uniform_random",
                                                  "trials": 50}))
    for _, alphas, n, _ in _enumerate_trials(cfg):
        for a in alphas:
            best = Fraction(a).limit_denominator(n)
            assert abs(a - best) >= 1e-12


def test_quadratic_catalog_enumeration():
    cfg = config_from_dict(cfg_dict(
        alpha_source={"kind": "quadratic_irrationals"}, n_values=[10]))
    trials = list(_enumerate_trials(cfg))
    assert len(trials) == 6  # C(4, 2) pairs, one n value
    values = set(QUADRATIC_IRRATIONALS.values())
    assert all(set(alphas) <= values for _, alphas, _, _ in trials)


def test_rational_grid_is_exact():
    cfg = config_from_dict(cfg_dict(
        m=1, alpha_source={"kind": "rational_grid", "max_denominator": 5},
        n_values=[6]))
    trials = list(_enumerate_trials(cfg))
    # Farey fractions with denominator 2..5: 1/2, 1/3, 2/3, ..., 4/5
    assert len(trials) == 9
    assert all(isinstance(alphas[0], Fraction) for _, alphas, _, _ in trials)
    summary = run_sweep(cfg)
    assert summary.status == "PASSED"
    # exact-mode records serialize cleanly (fractions become "p/q" strings)
    loaded = json.loads(summary.to_json())
    assert loaded["records"][0]["alphas"] == ["1/2"]


def test_run_trial_record_fields():
    record = run_trial(0, [0.31, 0.47], 20)
    assert record.error is None
    assert record.violations == []
    assert record.distinct_count == len(record.distinct_lengths)
    assert record.max_length == pytest.approx(max(record.distinct_lengths))
    assert record.q1 is not None
    assert record.lemma2_count is not None


def test_run_trial_records_gap_containment_for_1d(monkeypatch):
    # On the circle S equals the circular gaps <= 1/2; coincident points
    # of a rational instance add the zero length on both sides.
    for alphas, n in (([0.618033], 30), ([0.98], 23), ([Fraction(2, 7)], 20)):
        assert run_trial(0, alphas, n).violations == []
    # A spectrum with one gap changed breaks the identity, and the sweep
    # summary serializes the instance as the witness.
    import torusgaps.experiments as ex
    real = ex.gap_spectrum

    def shifted(*args, **kwargs):
        spectrum = real(*args, **kwargs)
        spectrum.gaps[0] += 0.01
        return spectrum

    monkeypatch.setattr(ex, "gap_spectrum", shifted)
    record = run_trial(7, [0.618033], 30)
    assert record.violations == ["gap_identity"]
    summary = ex.SweepSummary(config={})
    summary.add(record)
    assert summary.status == "FAILED"
    witness = json.loads(summary.to_json())["violation_witnesses"][0]
    assert witness["trial_id"] == 7 and witness["n"] == 30
    assert witness["alphas"] == [0.618033]
    assert witness["violations"] == ["gap_identity"]


def test_degenerate_rational_instance_completes():
    record = run_trial(0, [0.5, 0.5], 4)
    assert record.error is None
    assert 0.0 in record.distinct_lengths


def test_run_sweep_summary_and_sinks(tmp_path):
    out_json = tmp_path / "summary.json"
    out_csv = tmp_path / "trials.csv"
    cfg = config_from_dict(cfg_dict(output={"summary_json": str(out_json),
                                            "trials_csv": str(out_csv)}))
    summary = run_sweep(cfg)
    assert summary.status == "PASSED"
    assert summary.trials == 6
    assert sum(summary.distinct_histogram.values()) == 6
    assert summary.max_distinct == max(summary.distinct_histogram)

    loaded = json.loads(out_json.read_text())
    assert loaded["status"] == "PASSED"
    assert loaded["trials"] == 6
    assert len(loaded["records"]) == 6

    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial_id", "m", "n", "alpha_1", "alpha_2",
                       "survivor_count", "distinct_count", "max_length",
                       "q1", "q2", "primary_count", "secondary_count",
                       "lemma2_count"]
    assert len(rows) == 7
    assert csv_header(2) == rows[0]


def test_run_sweep_is_byte_deterministic():
    cfg_a = config_from_dict(cfg_dict())
    cfg_b = config_from_dict(cfg_dict())
    assert run_sweep(cfg_a).to_json() == run_sweep(cfg_b).to_json()


def test_cross_check_passes_and_validates_edge_rule():
    cfg = config_from_dict(cfg_dict())
    report = cross_check(cfg)
    assert report.passed
    assert report.trials == 6
    # 10**5 points fit; their brute-force edges do not.
    with pytest.raises(ConfigError) as err:
        cross_check(config_from_dict(cfg_dict(n_values=[8, 10 ** 5])))
    assert err.value.offending == ["n_values"]


def test_explicit_source_runs_exact_instances():
    cfg = config_from_dict(cfg_dict(
        m=1,
        alpha_source={"kind": "explicit", "alphas": [["1/3"], ["2/7"], [0.618]]},
        n_values=[6]))
    summary = run_sweep(cfg)
    assert summary.trials == 3
    assert summary.status == "PASSED"
    assert summary.records[0].alphas == [Fraction(1, 3)]
    row = summary.records[0].csv_row()
    assert row[3] == "1/3"


def test_golden_ratio_oracle_agreement():
    golden = (math.sqrt(5) - 1) / 2
    cfg = config_from_dict({
        "m": 1,
        "alpha_source": {"kind": "explicit", "alphas": [[golden]]},
        "n_values": list(range(3, 51)),
        "seed": 0,
    })
    report = cross_check(cfg)
    assert report.passed
    assert report.trials == 48


def test_oracle_suite_honours_max_n():
    result = verify_suite("oracle", trials=3, max_n=70)
    assert result.passed
    assert [label for label, _, _ in result.checks] == [
        f"sweep == brute on 3 trials (m={m}, n <= 70)" for m in (1, 2, 3)]


def test_verify_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        verify_suite("bogus")


@pytest.mark.parametrize("call, name", [
    pytest.param(lambda: verify_suite("planar", trials=2, max_n=1), "max_n",
                 id="planar-max_n"),
    pytest.param(lambda: verify_suite("classical", trials=2, max_n=1), "max_n",
                 id="classical-max_n"),
    pytest.param(lambda: verify_suite("classical", trials=2, max_n=50), "max_n",
                 id="classical-any-max_n"),
    pytest.param(lambda: verify_suite("planar", trials=-3), "trials",
                 id="planar-trials"),
    pytest.param(lambda: verify_suite("oracle", trials=0), "trials",
                 id="oracle-trials"),
    pytest.param(lambda: verify_suite("classical", trials=0), "trials",
                 id="classical-trials"),
    pytest.param(lambda: dual_mode_agreement(instances=0), "instances",
                 id="dual_mode-instances"),
    pytest.param(lambda: verify_suite("planar", trials=2, epsilon=math.nan), "epsilon",
                 id="planar-epsilon-nan"),
    pytest.param(lambda: verify_suite("oracle", trials=2, epsilon=-1e-3), "epsilon",
                 id="oracle-epsilon-negative"),
])
def test_verify_suite_rejects_max_n_below_two(call, name):
    # A suite over no trials would pass vacuously; it is a usage error.
    with pytest.raises(ValueError, match=name):
        call()


@pytest.mark.parametrize("suite", ["one_d", "planar", "higher", "lemmas",
                                   "classical", "oracle"])
def test_verify_suites_pass_at_smoke_scale(suite):
    # classical draws its own n and refuses a max_n.
    sizes = {} if suite == "classical" else {"max_n": 40}
    result = verify_suite(suite, trials=8, seed=3, **sizes)
    assert result.passed, result.checks
    assert result.checks


def test_dual_mode_agreement_smoke():
    report = dual_mode_agreement(instances=25, seed=5)
    assert report.passed, report.mismatches[:1]
    assert report.trials == 25


def test_dual_mode_agreement_compares_whole_profile(monkeypatch):
    # A float profile that differs from the exact one in any field beyond
    # q1 and q2 is a mismatch.
    import torusgaps.experiments as ex
    real = ex.approximation_profile

    def skewed(alphas, n, **kwargs):
        profile = real(alphas, n, **kwargs)
        if isinstance(alphas[0], float):
            profile.primary_distinct += 1
        return profile

    monkeypatch.setattr(ex, "approximation_profile", skewed)
    report = dual_mode_agreement(instances=3, seed=5)
    assert len(report.mismatches) == 3
    witness = report.mismatches[0]
    assert (witness["float_profile"]["primary_distinct"]
            == witness["exact_profile"]["primary_distinct"] + 1)


def test_run_sweep_defaults_stay_within_bounds():
    for m, bound in ((1, 3), (2, 11)):
        cfg = config_from_dict({
            "m": m,
            "alpha_source": {"kind": "uniform_random", "trials": 100},
            "n_values": [100],
            "seed": 77 + m,
        })
        summary = run_sweep(cfg)
        assert summary.status == "PASSED"
        assert summary.max_distinct <= bound


def test_violation_marks_run_failed(monkeypatch):
    # The bounds are theorems, so a real violation cannot be produced;
    # shrink the ceiling to exercise the failure path.
    import torusgaps.experiments as ex
    monkeypatch.setattr(ex, "survivor_bound", lambda m: 0)
    summary = run_sweep(config_from_dict(cfg_dict()))
    assert summary.status == "FAILED"
    assert summary.violations["survivor_bound"] == 6
    assert summary.violation_witnesses
    witness = summary.violation_witnesses[0]
    assert witness["violations"] == ["survivor_bound"]
    assert witness["alphas"] and witness["n"]


def test_computation_errors_are_recorded_not_swallowed():
    record = run_trial(0, [float("inf"), 0.3], 10)
    assert record.error is not None
    summary = run_sweep(config_from_dict(cfg_dict(
        alpha_source={"kind": "explicit", "alphas": [[0.3, 0.4]]})))
    assert summary.errors == 0


def test_counting_checks_read_one_table(monkeypatch, capsys):
    # run_trial, the lemmas suite and the denominators command all read
    # their ceilings from denominators.profile_checks, so one patched
    # ceiling reaches all three.
    import torusgaps.denominators as dn
    from torusgaps.cli import main
    profile = dn.approximation_profile([0.31, 0.47], 20)
    assert [name for name, _, _ in dn.profile_checks(profile)][:2] == [
        "primary_count", "primary_distinct"]
    monkeypatch.setattr(dn, "primary_count_bound", lambda m: -1)
    assert "primary_count" in run_trial(0, [0.31, 0.47], 20).violations
    result = verify_suite("lemmas", trials=8, seed=3, max_n=40)
    assert not result.passed
    assert all(info["violations"]["primary_count"] > 0 for _, _, info in result.checks)
    assert main(["denominators", "0.3,0.2", "10"]) == 2
    assert "FAIL  primary count" in capsys.readouterr().out
