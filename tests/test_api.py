"""The package's public surface, pinned: adding or removing a public name
shows up as a diff of this list."""

import importlib

import torusgaps

PUBLIC = [
    "ApproximationProfile",
    "DenominatorRecord",
    "GapSpectrum",
    "SurvivorReport",
    "TypeRelation",
    "approximation_profile",
    "chung_graham_gaps",
    "circle_norm",
    "classify",
    "fractional_part",
    "gap_spectrum",
    "geelen_simpson_gaps",
    "primary_count_bound",
    "relation",
    "secondary_distinct_bound",
    "signed_deviation",
    "survivor_bound",
    "survivors_brute",
    "survivors_sweep",
    "undercut_bound",
]


def test_public_names_are_pinned():
    assert torusgaps.__all__ == PUBLIC


def test_every_public_name_imports():
    module = importlib.import_module("torusgaps")
    for name in PUBLIC:
        assert getattr(module, name) is not None, name
    namespace: dict = {}
    exec("from torusgaps import *", namespace)
    assert set(PUBLIC) <= set(namespace)
