"""Information storage measures for discrete input-driven processes.

Estimates local and average active information storage, its
input-corrected variant, and interaction information from symbol
sequences, and computes the same quantities exactly from the stationary
distribution of the composite input/unit Markov chain.
"""

from .symseq import (
    Alphabet,
    BINARY,
    EmbeddingConfig,
    JointCountTable,
    SymbolSeries,
    count_joint,
)
from .estimators import (
    Distribution,
    conditional_mutual_information,
    entropy,
    mutual_information,
    plugin_distribution,
)
from .infodyn import (
    LocalProfile,
    MeasureResult,
    MEASURES,
    ais,
    compute,
    evaluate,
    icais,
    interaction,
    local_ais,
    local_icais,
    local_interaction,
)
from .procsim import (
    ConvergenceError,
    MarkovChainModel,
    ProcessSpec,
    TableUnit,
    UnitSpec,
    build_joint_chain,
    exact_joint,
    generate_input,
    make_unit,
    oracle_joint,
    simulate_unit,
    stationary_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BINARY",
    "ConvergenceError",
    "Distribution",
    "EmbeddingConfig",
    "JointCountTable",
    "LocalProfile",
    "MEASURES",
    "MarkovChainModel",
    "MeasureResult",
    "ProcessSpec",
    "SymbolSeries",
    "TableUnit",
    "UnitSpec",
    "ais",
    "build_joint_chain",
    "compute",
    "conditional_mutual_information",
    "count_joint",
    "entropy",
    "evaluate",
    "exact_joint",
    "generate_input",
    "icais",
    "interaction",
    "local_ais",
    "local_icais",
    "local_interaction",
    "make_unit",
    "mutual_information",
    "oracle_joint",
    "plugin_distribution",
    "simulate_unit",
    "stationary_distribution",
]
