"""The package's public surface, pinned: adding or removing a public name or
a module shows up as a diff of these lists."""

import importlib
from pathlib import Path

import pytest

import torusgaps

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
