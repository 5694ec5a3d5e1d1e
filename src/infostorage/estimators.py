"""Information-theoretic functionals over finite distributions.

All quantities are in bits (log base 2), with the continuity convention
0 log 0 = 0.  Variables are addressed by axis index into the distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .symseq import Alphabet, JointCountTable

_LN2 = float(np.log(2.0))
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

    def marginal(self, axes: Sequence[int]) -> np.ndarray:
        """Marginal table over the given axes, in the given order."""
        keep = tuple(axes)
        drop = tuple(i for i in range(self.n_axes) if i not in keep)
        marg = self.probs.sum(axis=drop) if drop else self.probs
        # probs.sum keeps remaining axes in their original order
        order = tuple(sorted(keep))
        if keep != order:
            marg = np.moveaxis(marg, [order.index(a) for a in keep], range(len(keep)))
        return marg


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
    p = d.marginal(axes).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def entropy(
    d: Distribution,
    axes: Iterable[int],
    *,
    miller_madow_samples: int | None = None,
) -> float:
    """Shannon entropy H of the marginal over ``axes``, in bits.

    With ``miller_madow_samples`` set to the sample count behind a plug-in
    distribution, adds the Miller-Madow bias correction (m-1)/(2N ln 2),
    m being the number of occupied cells.
    """
    axes = _axes_tuple(axes)
    if not axes:
        raise ValueError("entropy requires at least one axis")
    _check_disjoint(d, axes=axes)
    h = _joint_entropy(d, axes)
    if miller_madow_samples is not None:
        if miller_madow_samples < 1:
            raise ValueError("sample count must be >= 1")
        m = int(np.count_nonzero(d.marginal(axes)))
        h += (m - 1) / (2.0 * miller_madow_samples * _LN2)
    return h


def conditional_entropy(
    d: Distribution, target: Iterable[int], given: Iterable[int]
) -> float:
    """H(target | given) in bits; conditioning on nothing gives H(target)."""
    target = _axes_tuple(target)
    given = _axes_tuple(given)
    if not target:
        raise ValueError("conditional entropy requires a nonempty target")
    _check_disjoint(d, target=target, given=given)
    if not given:
        return _joint_entropy(d, target)
    return _joint_entropy(d, target + given) - _joint_entropy(d, given)


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
