"""The package's public surface, pinned: adding or removing a public name, a
module, a CLI option or a config key shows up as a diff of these lists."""

import argparse
import importlib
import math
from fractions import Fraction
from pathlib import Path

import pytest

import torusgaps
from torusgaps.cli import build_parser
from torusgaps.experiments import config_from_dict

PUBLIC = [
    "ApproximationProfile",
    "DenominatorRecord",
    "GapSpectrum",
    "SurvivorReport",
    "approximation_profile",
    "chung_graham_gaps",
    "gap_spectrum",
    "geelen_simpson_gaps",
    "primary_count_bound",
    "secondary_distinct_bound",
    "survivor_bound",
    "survivors_brute",
    "survivors_sweep",
    "undercut_bound",
]

MODULE_PUBLIC = {
    "denominators": [
        "ApproximationProfile",
        "DenominatorRecord",
        "approximation_profile",
        "primary_count_bound",
        "profile_checks",
        "secondary_distinct_bound",
        "undercut_bound",
        "PRIMARY_DISTINCT_BOUND_2D",
    ],
    "experiments": [
        "ConfigError",
        "CrossCheckReport",
        "ExperimentConfig",
        "OutputSpec",
        "SweepSummary",
        "TrialRecord",
        "VerifyResult",
        "cross_check",
        "dual_mode_agreement",
        "load_config",
        "run_sweep",
        "verify_suite",
        "QUADRATIC_IRRATIONALS",
        "VERIFY_SUITES",
    ],
    "gaps": ["GapSpectrum", "gap_spectrum", "chung_graham_gaps", "geelen_simpson_gaps"],
    "tournament": ["SurvivorReport", "survivor_bound", "survivors_brute",
                   "survivors_sweep"],
}

MODULES = ["__init__", "cli", "denominators", "experiments", "gaps", "numerics",
           "svgplot", "tournament"]


def test_public_names_are_pinned():
    assert torusgaps.__all__ == PUBLIC


def test_every_public_name_imports():
    module = importlib.import_module("torusgaps")
    for name in PUBLIC:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec("from torusgaps import *", namespace)
    assert set(PUBLIC) <= set(namespace)


@pytest.mark.parametrize("name", sorted(MODULE_PUBLIC))
def test_module_public_names_are_pinned(name):
    module = importlib.import_module(f"torusgaps.{name}")
    assert module.__all__ == MODULE_PUBLIC[name]
    assert all(getattr(module, attr) is not None for attr in module.__all__)


def test_package_modules_are_pinned():
    package = Path(torusgaps.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py")) == MODULES


# Each subcommand's arguments in declaration order: flags by their option
# strings, positionals by name.
CLI_ARGUMENTS = {
    "gaps": ["--format", "--epsilon", "--exact", "alpha", "n", "--circular",
             "--assert-bound"],
    "survivors": ["--format", "--epsilon", "--exact", "alphas", "n", "--mode", "--svg",
                  "--assert-bound"],
    "denominators": ["--format", "--epsilon", "--exact", "alphas", "n"],
    "verify": ["suite", "--format", "--epsilon", "--seed", "--trials", "--max-n"],
    "sweep": ["config", "--format"],
}

CONFIG_KEYS = ["alpha_source", "epsilon", "m", "n_values", "output", "seed"]

SOURCE_KEYS = {
    "uniform_random": ["kind", "trials"],
    "quadratic_irrationals": ["catalog", "kind"],
    "rational_grid": ["kind", "max_denominator"],
    "explicit": ["alphas", "kind"],
}


def test_cli_arguments_are_pinned():
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    arguments = {name: [opt for a in parser._actions
                        for opt in (a.option_strings or [a.dest])
                        if opt not in ("-h", "--help")]
                 for name, parser in sub.choices.items()}
    assert arguments == CLI_ARGUMENTS


def test_config_keys_are_pinned():
    example = {"uniform_random": {"trials": 2}, "quadratic_irrationals": {},
               "rational_grid": {"max_denominator": 3}, "explicit": {"alphas": [[0.3]]}}
    for kind, fields in example.items():
        config = config_from_dict({"m": 1, "n_values": [5],
                                   "alpha_source": {"kind": kind, **fields}})
        written = config.to_dict()
        assert sorted(written) == CONFIG_KEYS
        assert sorted(written["alpha_source"]) == SOURCE_KEYS[kind]
        # Every key the config writes is one it accepts.
        assert config_from_dict(written) == config


# The six public entry points that take a tolerance, each called with the
# generators (a, b) of one numeric mode and an epsilon.
TOLERANT = {
    "survivors_sweep": lambda a, b, eps: torusgaps.survivors_sweep([a, b], 20, epsilon=eps),
    "survivors_brute": lambda a, b, eps: torusgaps.survivors_brute([a, b], 20, epsilon=eps),
    "approximation_profile":
        lambda a, b, eps: torusgaps.approximation_profile([a, b], 20, epsilon=eps),
    "gap_spectrum": lambda a, b, eps: torusgaps.gap_spectrum(a, 20, epsilon=eps),
    "chung_graham_gaps":
        lambda a, b, eps: torusgaps.chung_graham_gaps(a, [b], [20], epsilon=eps),
    "geelen_simpson_gaps":
        lambda a, b, eps: torusgaps.geelen_simpson_gaps(a, b, 5, 4, epsilon=eps),
}
MODES = {"float": (0.3, 0.41), "exact": (Fraction(3, 10), Fraction(41, 100))}


@pytest.mark.parametrize("epsilon", [math.nan, math.inf, -0.01], ids=str)
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("entry", sorted(TOLERANT))
def test_entry_points_refuse_a_bad_epsilon(entry, mode, epsilon):
    # Unchecked, NaN answered silently: survivors_sweep([0.3, 0.41], 20)
    # kept all 190 edges (13 survive), the profile gave q1 = 1 and no q2
    # (10 and 7), and gap_spectrum(0.3, 20) found no distinct gap (1).
    TOLERANT[entry](*MODES[mode], 1e-9)
    with pytest.raises(ValueError, match="epsilon must be finite and >= 0"):
        TOLERANT[entry](*MODES[mode], epsilon)
