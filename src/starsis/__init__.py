"""Discrete-time SIS mean-field dynamics on k-level starlike graphs."""

from .fixedpoint import (FixedPointReport, Regime, RegimeKind,
                         SolverInvariantError, classify_regime, critical_b,
                         hub_gap, phi_hub, phi_hub_inverse, phi_leaf, phi_middle,
                         solve_fixed_point, spectral_threshold, tail_curve,
                         tail_state_of_hub)
from .geometry import (ConvexityReport, SlopeReport, check_convexity,
                       in_region_one, region_slice, sample_curves,
                       slopes_at_zero, tail_composition)
from .meanfield import Trajectory, coalescence_gap, iterate, step_full, step_level
from .model import (ModelParams, StarlikeTopology, expand_state, make_topology,
                    reduce_state)
from .stochastic import ChainState, RunSummary, make_chain_state, run_trials, step_chain

__all__ = [
    "ModelParams", "StarlikeTopology", "make_topology",
    "expand_state", "reduce_state",
    "step_level", "step_full", "iterate", "Trajectory",
    "coalescence_gap",
    "critical_b", "spectral_threshold", "classify_regime", "Regime", "RegimeKind",
    "phi_hub", "phi_hub_inverse", "phi_middle", "phi_leaf", "tail_curve",
    "hub_gap",
    "tail_state_of_hub", "solve_fixed_point", "FixedPointReport",
    "SolverInvariantError",
    "in_region_one", "region_slice",
    "check_convexity", "ConvexityReport", "slopes_at_zero", "SlopeReport",
    "tail_composition", "sample_curves",
    "ChainState", "make_chain_state", "step_chain", "run_trials",
    "RunSummary",
]

__version__ = "0.1.0"
