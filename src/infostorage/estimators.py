"""The dense joint distribution the measures are evaluated on.

``Distribution`` is an exact probability table over (history, next, input)
axes, as the Markov-chain oracle produces it; ``plugin_distribution`` turns
a sparse empirical count table into the same dense form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .symseq import Alphabet, JointCountTable

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Distribution:
    """An exact probability table over a finite composite state space."""

    axes: tuple[Alphabet, ...]
    probs: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        expected = tuple(a.size for a in self.axes)
        if probs.shape != expected:
            raise ValueError(
                f"probability table shape {probs.shape} does not match axes {expected}"
            )
        if probs.min() < 0:
            raise ValueError("probabilities must be non-negative")
        total = probs.sum()
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, expected 1")
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "axes", tuple(self.axes))


def plugin_distribution(table: JointCountTable) -> Distribution:
    """Maximum-likelihood (plug-in) distribution: counts / total, as a
    dense (history, next, input) table."""
    total = table.total
    if total == 0:
        raise ValueError("cannot normalize an empty count table")
    nx = table.alphabet_x.size
    axes = (
        Alphabet(nx**table.k),
        table.alphabet_x,
        table.alphabet_u if table.alphabet_u is not None else Alphabet(1),
    )
    probs = np.zeros(tuple(a.size for a in axes))
    probs.ravel()[table.cells] = table.counts / total
    return Distribution(axes, probs)
