import csv
import json
import math
import time
from fractions import Fraction

import pytest

from torusgaps.experiments import (
    QUADRATIC_IRRATIONALS,
    VERIFY_SUITES,
    ConfigError,
    SweepSummary,
    TrialRecord,
    config_from_dict,
    cross_check,
    csv_header,
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
    # Explicit rows pass the engines' coercion rule: finite components only.
    ({"alpha_source": {"kind": "explicit", "alphas": [[0.3, float("nan")]]}},
     "alpha_source.alphas[0]"),
    ({"alpha_source": {"kind": "explicit", "alphas": [[0.3, 0.4], ["1/3", math.inf]]}},
     "alpha_source.alphas[1]"),
    ({"alpha_source": {"kind": "explicit", "alphas": json.loads("[[1e400, 0.4]]")}},
     "alpha_source.alphas[0]"),
    ({"alpha_source": {"kind": "explicit", "alphas": [[0.3, 10 ** 400]]}},
     "alpha_source.alphas[0]"),
    # The enumeration lists the grid: its 2897 * 2896 / 2 fraction bound
    # breaks the size rule at one axis.
    ({"alpha_source": {"kind": "rational_grid", "max_denominator": 2897}},
     "alpha_source.max_denominator"),
    ({"alpha_source": {"kind": "rational_grid", "max_denominator": 10 ** 400}},
     "alpha_source.max_denominator"),
    # A negative seed would fail inside numpy, at the first trial.
    ({"seed": -3}, "seed"),
])
def test_config_rejects_bad_values(mutation, expected_key):
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(**mutation))
    assert expected_key in err.value.offending


def test_rational_grid_size_is_counted_not_listed():
    start = time.perf_counter()
    with pytest.raises(ConfigError) as err:
        config_from_dict(cfg_dict(m=3, alpha_source={"kind": "rational_grid",
                                                     "max_denominator": 10 ** 4}))
    assert time.perf_counter() - start < 1.0
    assert err.value.offending == ["alpha_source.max_denominator"]
    # The grid's fraction bound md(md - 1)/2 meets the points rule at one
    # axis, 2**32 / 1 KiB = 4,194,304: 4,191,960 at md 2896, 4,194,856 at
    # 2897.  Trials are not counted: a sweep streams them.
    config_from_dict(cfg_dict(alpha_source={"kind": "rational_grid",
                                            "max_denominator": 2896}))
    with pytest.raises(ConfigError):
        config_from_dict(cfg_dict(alpha_source={"kind": "rational_grid",
                                                "max_denominator": 2897}))


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


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_rational_grid_is_exact(tmp_path):
    out_csv = tmp_path / "trials.csv"
    cfg = config_from_dict(cfg_dict(
        m=1, alpha_source={"kind": "rational_grid", "max_denominator": 5},
        n_values=[6], output={"trials_csv": str(out_csv)}))
    trials = list(_enumerate_trials(cfg))
    # Farey fractions with denominator 2..5: 1/2, 1/3, 2/3, ..., 4/5
    assert len(trials) == 9
    assert all(isinstance(alphas[0], Fraction) for _, alphas, _, _ in trials)
    summary = run_sweep(cfg)
    assert summary.status == "PASSED"
    # exact-mode rows serialize cleanly (fractions become "p/q" strings)
    rows = read_csv(out_csv)
    assert [row["alpha_1"] for row in rows[:3]] == ["1/2", "1/3", "2/3"]
    assert all(row["error"] == "" and row["violations"] == "" for row in rows)


def test_run_trial_record_fields():
    record = run_trial(0, [0.31, 0.47], 20)
    assert record.error is None
    assert record.violations == []
    assert record.distinct_count == len(record.distinct_lengths)
    assert record.max_length == pytest.approx(max(record.distinct_lengths))
    assert record.q1 is not None
    assert record.lemma2_count is not None


def test_run_trial_records_gap_containment_for_1d(monkeypatch):
    # On the circle S equals the circular gaps below 1/2; coincident points
    # of a rational instance add the zero length on both sides.  At 1/4,
    # 3/4 and 0.25 with n = 3 a gap is exactly 1/2 and its edge is defeated,
    # which the identity allows, at every tolerance.
    for alphas, n in (([0.618033], 30), ([0.98], 23), ([Fraction(2, 7)], 20),
                      ([Fraction(1, 4)], 3), ([Fraction(3, 4)], 3)):
        assert run_trial(0, alphas, n).violations == []
    for epsilon in (0, 1e-9, 1e-3):
        assert run_trial(0, [0.25], 3, epsilon=epsilon).violations == []
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


def test_a_gap_below_one_half_missing_from_s_is_a_gap_identity_violation(monkeypatch):
    # Only a gap of exactly 1/2 may be missing from S: a sweep that drops
    # the shortest length (a gap far below 1/2) breaks the identity.
    import torusgaps.experiments as ex
    real = ex.survivors_sweep

    def dropped(*args, **kwargs):
        report = real(*args, **kwargs)
        assert report.distinct_lengths[0] < 0.4
        del report.distinct_lengths[0]
        return report

    monkeypatch.setattr(ex, "survivors_sweep", dropped)
    for alphas, n in (([0.618033], 30), ([0.3], 9), ([Fraction(2, 7)], 20)):
        assert run_trial(0, alphas, n).violations == ["gap_identity"]


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
    assert "records" not in loaded  # the summary holds aggregates only

    with out_csv.open() as fh:
        rows = list(csv.reader(fh))
    # Every record field; the first 13 columns are the ones CSV has always had.
    assert rows[0] == ["trial_id", "m", "n", "alpha_1", "alpha_2",
                       "survivor_count", "distinct_count", "max_length",
                       "q1", "q2", "primary_count", "secondary_count",
                       "lemma2_count", "distinct_lengths", "primary_distinct",
                       "secondary_distinct", "violations", "error"]
    assert len(rows) == 7
    assert csv_header(2) == rows[0]
    # Each row is the record run_trial makes for its trial.
    for row, (i, alphas, n, _) in zip(read_csv(out_csv), _enumerate_trials(cfg)):
        record = run_trial(i, alphas, n)
        assert [float(row["alpha_1"]), float(row["alpha_2"])] == alphas
        assert int(row["survivor_count"]) == record.survivor_count
        assert ([float(x) for x in row["distinct_lengths"].split(";")]
                == record.distinct_lengths)
        assert int(row["secondary_distinct"]) == record.secondary_distinct


@pytest.mark.parametrize("failure", ["open", "write"])
def test_a_failing_csv_sink_spares_the_trials_and_the_summary(tmp_path, monkeypatch,
                                                              failure):
    # The CSV sink opens before the first trial and writes as trials run; a
    # sink that cannot be opened, or fails midway, is one sink error.
    out_csv = tmp_path / "trials.csv"
    if failure == "open":
        out_csv = tmp_path / "missing" / "trials.csv"
    else:
        real = TrialRecord.csv_row

        def disk_full(record):
            if record.trial_id == 3:
                raise OSError(28, "No space left on device")
            return real(record)

        monkeypatch.setattr(TrialRecord, "csv_row", disk_full)
    out_json = tmp_path / "summary.json"
    summary = run_sweep(config_from_dict(cfg_dict(
        output={"summary_json": str(out_json), "trials_csv": str(out_csv)})))
    assert summary.trials == 6 and summary.status == "PASSED"
    assert [e.split(":")[0] for e in summary.sink_errors] == ["trials_csv"]
    assert json.loads(out_json.read_text())["trials"] == 6


def test_run_sweep_is_byte_deterministic():
    cfg_a = config_from_dict(cfg_dict())
    cfg_b = config_from_dict(cfg_dict())
    assert run_sweep(cfg_a).to_json() == run_sweep(cfg_b).to_json()



def test_summary_json_writes_histogram_keys_as_strings():
    # The sweep digests never reach |S| >= 10, where string keys sort
    # apart from integer ones.
    summary = SweepSummary(config={})
    for k in (2, 10, 2):
        summary.add(TrialRecord(trial_id=0, m=2, n=5, alphas=[0.3, 0.4],
                                distinct_count=k))
    assert summary.to_json_dict()["distinct_histogram"] == {"2": 2, "10": 1}
    assert list(json.loads(summary.to_json())["distinct_histogram"]) == ["10", "2"]

def test_cross_check_passes_and_validates_edge_rule():
    cfg = config_from_dict(cfg_dict())
    report = cross_check(cfg)
    assert report.passed
    assert report.trials == 6
    # 10**5 points fit; their brute-force edges do not.
    with pytest.raises(ConfigError) as err:
        cross_check(config_from_dict(cfg_dict(n_values=[8, 10 ** 5])))
    assert err.value.offending == ["n_values"]


def test_explicit_source_runs_exact_instances(tmp_path):
    out_csv = tmp_path / "trials.csv"
    cfg = config_from_dict(cfg_dict(
        m=1,
        alpha_source={"kind": "explicit", "alphas": [["1/3"], ["2/7"], [0.618]]},
        n_values=[6], output={"trials_csv": str(out_csv)}))
    assert cfg.alpha_source.alphas[0] == [Fraction(1, 3)]
    summary = run_sweep(cfg)
    assert summary.trials == 3
    assert summary.status == "PASSED"
    assert [row["alpha_1"] for row in read_csv(out_csv)] == ["1/3", "2/7", "0.618"]


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


_NO_MAX_N = r"suite 'classical' draws its own n and takes no max_n"


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: verify_suite("planar", trials=2, max_n=1),
                 "max_n must be >= 2, got 1", id="planar-max_n"),
    pytest.param(lambda: verify_suite("classical", trials=2, max_n=1), _NO_MAX_N,
                 id="classical-max_n"),
    pytest.param(lambda: verify_suite("classical", trials=2, max_n=50), _NO_MAX_N,
                 id="classical-any-max_n"),
    pytest.param(lambda: verify_suite("planar", trials=-3), "trials must be >= 1, got -3",
                 id="planar-trials"),
    pytest.param(lambda: verify_suite("oracle", trials=0), "trials must be >= 1, got 0",
                 id="oracle-trials"),
    pytest.param(lambda: verify_suite("classical", trials=0), "trials must be >= 1, got 0",
                 id="classical-trials"),
    pytest.param(lambda: verify_suite("dual_mode", trials=0), "trials must be >= 1, got 0",
                 id="dual_mode-trials"),
    # The suite draws n from [5, max_n].
    pytest.param(lambda: verify_suite("dual_mode", trials=2, max_n=4),
                 "max_n must be >= 5, got 4", id="dual_mode-max_n"),
    pytest.param(lambda: verify_suite("dual_mode", trials=2, seed=-1),
                 "seed must be >= 0, got -1", id="dual_mode-seed"),
    pytest.param(lambda: verify_suite("planar", trials=2, seed=-1),
                 "seed must be >= 0, got -1", id="planar-seed"),
    pytest.param(lambda: verify_suite("planar", trials=2, epsilon=math.nan),
                 "epsilon must be finite and >= 0, got nan", id="planar-epsilon-nan"),
    pytest.param(lambda: verify_suite("oracle", trials=2, epsilon=-1e-3),
                 "epsilon must be finite and >= 0, got -0.001",
                 id="oracle-epsilon-negative"),
])
def test_verify_suite_rejects_max_n_below_two(call, message):
    # A suite over no trials would pass vacuously; it is a usage error.
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_pass_at_smoke_scale(suite):
    # classical draws its own n and refuses a max_n.
    sizes = {} if suite == "classical" else {"max_n": 40}
    result = verify_suite(suite, trials=8, seed=3, **sizes)
    assert result.passed, result.checks
    assert result.checks


def test_dual_mode_agreement_smoke():
    result = verify_suite("dual_mode", trials=25, seed=5)
    assert result.passed, result.checks
    assert result.checks == [("exact == float on 25 rational trials (q <= 50, n <= 40)",
                              True, {"mismatches": 0})]


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
    (_, ok, info), = verify_suite("dual_mode", trials=3, seed=5).checks
    assert not ok and info["mismatches"] == 3 and info["errors"] == 0
    witness = info["witness"]
    assert witness["trial_id"] == 0
    assert (witness["float_profile"]["primary_distinct"]
            == witness["exact_profile"]["primary_distinct"] + 1)


def test_dual_mode_agreement_records_engine_errors(monkeypatch):
    # An engine error is one witness carrying the instance, as in
    # cross_check: it neither aborts the run nor passes it.
    import torusgaps.experiments as ex
    real = ex.survivors_sweep
    calls = []

    def failing(alphas, n, **kwargs):
        calls.append((alphas, n))
        if len(calls) == 3:  # the exact run of trial 1
            raise RuntimeError("boom")
        return real(alphas, n, **kwargs)

    monkeypatch.setattr(ex, "survivors_sweep", failing)
    (_, ok, info), = verify_suite("dual_mode", trials=4, seed=5).checks
    assert len(calls) == 7  # two runs per trial, one for the trial that raised
    alphas, n = calls[2]
    assert not ok and info == {
        "mismatches": 0, "errors": 1,
        "witness": {"trial_id": 1, "alphas": [str(a) for a in alphas], "n": n,
                    "error": "RuntimeError: boom"}}


def test_dual_mode_agreement_checks_the_size_rule_first(monkeypatch):
    import torusgaps.experiments as ex
    monkeypatch.setattr(ex, "survivors_sweep",
                        lambda *args, **kwargs: pytest.fail("a trial ran"))
    with pytest.raises(ValueError, match="n=1000000000 is too large at m=2"):
        verify_suite("dual_mode", trials=2, max_n=10 ** 9)


def test_sweep_memory_does_not_grow_with_trials(monkeypatch, tmp_path):
    # run_sweep streams each record to trials.csv and keeps at most
    # _WITNESSES failing ones, so ten times the trials peak at the same
    # memory.  Every third stubbed trial violates, to fill the witnesses.
    import tracemalloc
    import torusgaps.experiments as ex

    def stub(trial_id, alphas, n, *, epsilon):
        return TrialRecord(
            trial_id=trial_id, m=2, n=n, alphas=alphas, survivor_count=4 * n,
            distinct_count=3, max_length=0.5, q1=3, q2=5, primary_count=2,
            secondary_count=2, lemma2_count=1, distinct_lengths=[0.1, 0.25, 0.5],
            primary_distinct=2, secondary_distinct=1,
            violations=["survivor_bound"] if trial_id % 3 == 0 else [])

    monkeypatch.setattr(ex, "run_trial", stub)

    def peak(trials):
        cfg = config_from_dict(cfg_dict(
            alpha_source={"kind": "uniform_random", "trials": trials},
            output={"summary_json": str(tmp_path / "summary.json"),
                    "trials_csv": str(tmp_path / "trials.csv")}))
        tracemalloc.start()
        try:
            summary = run_sweep(cfg)
            return tracemalloc.get_traced_memory()[1], summary
        finally:
            tracemalloc.stop()

    # Warm up at full size: the interpreter's caches and free lists fill
    # once, and are not the sweep's memory.
    peak(4000)
    (small, _), (large, summary) = peak(400), peak(4000)
    assert large - small < 64 * 1024, (small, large)
    assert summary.trials == 4000 and summary.violations == {"survivor_bound": 1334}
    assert len(summary.violation_witnesses) == 20
    with open(tmp_path / "trials.csv") as fh:
        assert sum(1 for _ in fh) == 4001


def test_errored_trial_is_a_witness_and_a_csv_row(monkeypatch, tmp_path):
    import torusgaps.experiments as ex
    real = ex.survivors_sweep

    def failing(alphas, n, **kwargs):
        if n == 15:
            raise RuntimeError("boom")
        return real(alphas, n, **kwargs)

    monkeypatch.setattr(ex, "survivors_sweep", failing)
    out_csv = tmp_path / "trials.csv"
    summary = run_sweep(config_from_dict(cfg_dict(
        alpha_source={"kind": "explicit", "alphas": [[0.3, 0.4]]},
        output={"trials_csv": str(out_csv)})))
    assert summary.trials == 2 and summary.errors == 1
    assert summary.status == "FAILED" and summary.total_violations == 0
    assert [(w["trial_id"], w["n"], w["error"]) for w in summary.violation_witnesses] \
        == [(1, 15, "RuntimeError: boom")]
    rows = read_csv(out_csv)
    assert [row["error"] for row in rows] == ["", "RuntimeError: boom"]
    assert rows[1]["survivor_count"] == "" and rows[1]["distinct_lengths"] == ""

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
