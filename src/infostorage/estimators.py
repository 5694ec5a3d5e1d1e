"""Information-theoretic functionals over finite distributions.

All quantities are in bits (log base 2), with the continuity convention
0 log 0 = 0.  Variables are addressed by axis index into the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

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

    @property
    def n_axes(self) -> int:
        return len(self.axes)


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


def _axes_tuple(axes: Iterable[int]) -> tuple[int, ...]:
    return tuple(int(a) for a in axes)


def _check_disjoint(d: Distribution, **groups: tuple[int, ...]):
    seen: dict[int, str] = {}
    for name, group in groups.items():
        for a in group:
            if a < 0 or a >= d.n_axes:
                raise ValueError(f"axis {a} out of range for {d.n_axes} axes")
            if a in seen:
                raise ValueError(
                    f"axis {a} appears in both '{seen[a]}' and '{name}'"
                )
            seen[a] = name


def _joint_entropy(d: Distribution, axes: tuple[int, ...]) -> float:
    # Entropy does not depend on the order of the kept axes.
    dropped = tuple(i for i in range(d.n_axes) if i not in axes)
    p = d.probs.sum(axis=dropped).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def entropy(d: Distribution, axes: Iterable[int]) -> float:
    """Shannon entropy H of the marginal over ``axes``, in bits."""
    axes = _axes_tuple(axes)
    if not axes:
        raise ValueError("entropy requires at least one axis")
    _check_disjoint(d, axes=axes)
    return _joint_entropy(d, axes)


def mutual_information(d: Distribution, a: Iterable[int], b: Iterable[int]) -> float:
    """I(A; B) = H(A) + H(B) - H(A,B), in bits."""
    a = _axes_tuple(a)
    b = _axes_tuple(b)
    if not a or not b:
        raise ValueError("mutual information requires two nonempty variable sets")
    _check_disjoint(d, a=a, b=b)
    return _joint_entropy(d, a) + _joint_entropy(d, b) - _joint_entropy(d, a + b)


def conditional_mutual_information(
    d: Distribution, a: Iterable[int], b: Iterable[int], given: Iterable[int]
) -> float:
    """I(A; B | G) = H(A,G) + H(B,G) - H(A,B,G) - H(G), in bits."""
    a = _axes_tuple(a)
    b = _axes_tuple(b)
    given = _axes_tuple(given)
    if not a or not b:
        raise ValueError("CMI requires two nonempty variable sets")
    _check_disjoint(d, a=a, b=b, given=given)
    if not given:
        return mutual_information(d, a, b)
    return (
        _joint_entropy(d, a + given)
        + _joint_entropy(d, b + given)
        - _joint_entropy(d, a + b + given)
        - _joint_entropy(d, given)
    )
