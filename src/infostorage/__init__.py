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
from .estimators import Distribution, plugin_distribution
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
    MarkovChainModel,
    ProcessSpec,
    TableUnit,
    UnitSpec,
    build_joint_chain,
    generate_input,
    oracle_joint,
    simulate_unit,
    stationary_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "BINARY",
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
    "count_joint",
    "evaluate",
    "generate_input",
    "icais",
    "interaction",
    "local_ais",
    "local_icais",
    "local_interaction",
    "oracle_joint",
    "plugin_distribution",
    "simulate_unit",
    "stationary_distribution",
]
