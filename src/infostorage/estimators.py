"""The dense joint distribution the measures are evaluated on.

A ``Distribution`` is a validated, read-only probability array: either the
(history, next, input) joint the measures consume or the oracle's
stationary law over its chain's states.  ``plugin_distribution`` turns a
sparse empirical count table into the dense joint.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symseq import JointCountTable

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """A probability array: a float64, read-only copy of ``probs``, checked
    to be non-negative and to sum to one.  Its axes are its shape."""

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64, order="C")
        if not (probs >= 0).all():
            raise ValueError("probabilities must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


def plugin_distribution(table: JointCountTable) -> Distribution:
    """Maximum-likelihood (plug-in) distribution: counts / total, as a
    dense (history, next, input) array."""
    nx = table.alphabet_x.size
    probs = np.zeros((nx**table.k, nx, table.n_inputs))
    probs.ravel()[table.cells] = table.counts / table.total
    return Distribution(probs)
