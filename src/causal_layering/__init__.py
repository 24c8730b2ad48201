"""Layering discovery for discrete structural causal models via entropy oracles.

The package re-exports the names its README example and scripts use, and
the two preset chains; every other name is imported from its submodule
(``graph``, ``scm``, ``oracle``, ``discovery``, ``verify``, ``cli``,
``presets``).
"""

from .discovery import (
    KnownNoiseEntropy,
    MonotoneEntropy,
    render_discovery_report,
    sir_discover,
    sour_discover,
)
from .graph import render_dag
from .oracle import EntropyOracle, joint_distribution, render_joint_table
from .presets import affine_chain3, xor_chain3
from .scm import GeneratorConfig, generate_scm, noise_entropy
from .verify import (
    check_call_bound,
    check_discovery_result,
    check_entropy_bounds,
    render_bound_report,
)

__version__ = "0.1.0"

__all__ = [
    "EntropyOracle",
    "GeneratorConfig",
    "KnownNoiseEntropy",
    "MonotoneEntropy",
    "affine_chain3",
    "check_call_bound",
    "check_discovery_result",
    "check_entropy_bounds",
    "generate_scm",
    "joint_distribution",
    "noise_entropy",
    "render_bound_report",
    "render_dag",
    "render_discovery_report",
    "render_joint_table",
    "sir_discover",
    "sour_discover",
    "xor_chain3",
]
