"""Gap spectra and undefeated-edge distance sets for Kronecker sequences.

The package computes, for the sequence of points ({k a_1}, ..., {k a_m})
on the m-torus:

* the one-dimensional gap spectrum and its classical generalisations
  (:mod:`torusgaps.gaps`),
* the set of undefeated-edge Euclidean distances, by a grouped sweep and
  by a brute-force oracle (:mod:`torusgaps.tournament`),
* the champion-denominator machinery whose counting bounds explain why
  those sets stay small (:mod:`torusgaps.denominators`),
* seeded experiment sweeps that stress every bound
  (:mod:`torusgaps.experiments`),

plus a CLI (``torusgaps``) exposing all of it.
"""

from .denominators import (
    ApproximationProfile,
    DenominatorRecord,
    approximation_profile,
    primary_count_bound,
    secondary_distinct_bound,
    undercut_bound,
)
from .gaps import GapSpectrum, chung_graham_gaps, gap_spectrum, geelen_simpson_gaps
from .tournament import SurvivorReport, survivor_bound, survivors_brute, survivors_sweep

__version__ = "0.1.0"

__all__ = [
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
