"""Storage measures for driven processes: AIS, input-corrected AIS, and
interaction information, in local (per time step) and average form.

Every measure of a dataset is evaluated against one shared distribution per
k, counted from one series or pooled over an ensemble of realisations (see
``count_joint``), so the identity

    local icAIS = local AIS + local interaction

holds exactly, not just in the limit.  Sources can be empirical count
tables (plug-in estimation) or exact joint distributions from the
Markov-chain oracle.  Either evaluates at any k' up to its own history
length k, from its cells' last k' history symbols: a count table on the same
transitions, an exact joint as its marginal.  So a k-sweep counts or solves
once, at its longest history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Distribution
from .symseq import JointCountTable, _take, decode_history

MEASURES = ("ais", "icais", "interaction")


@dataclass(frozen=True)
class LocalProfile:
    """Local measure values (bits) of a count table's time steps, held per
    cell: a step's value depends only on its cell.

    ``cell_values[c]`` is the value of ``table``'s cell ``c``; the steps,
    their counts and their start are read from the table, not copied, so a
    profile adds one float64 per cell.  ``values[i]`` belongs to the step
    whose `next` symbol sits at series index ``start_index + i``.  The
    profile checks it holds one value per cell, the table that every step
    names a cell (see ``JointCountTable``), so every step names a value.
    """

    measure: str
    k: int
    cell_values: np.ndarray
    table: JointCountTable

    def __post_init__(self):
        vals = np.ascontiguousarray(self.cell_values, dtype=np.float64).view()
        if vals.shape != self.table.cells.shape:
            raise ValueError(f"cell_values of shape {vals.shape} for {self.table.cells.size} cells")
        vals.setflags(write=False)
        object.__setattr__(self, "cell_values", vals)

    def __len__(self) -> int:
        return int(self.table.transitions.size)

    @property
    def start_index(self) -> int:
        return self.table.start_index

    @property
    def values(self) -> np.ndarray:
        """The per-step values, gathered afresh on each read: a read-only
        float64 array of 8 bytes per step."""
        vals = _take(self.cell_values, self.table.transitions)
        vals.setflags(write=False)
        return vals

    @property
    def mean(self) -> float:
        """The mean over steps, as the count-weighted mean over cells."""
        return float(self.table.counts @ self.cell_values / self.table.total)


@dataclass(frozen=True)
class MeasureResult:
    """One measure's average, in bits, at history length ``k``.

    ``source`` is ``"empirical"`` for a count table and ``"oracle"`` for an
    exact joint distribution; ``n_transitions`` is the table's count of
    transitions, and 0 for oracle results.  ``local`` is set only by
    ``evaluate(..., local=True)`` on a count table.
    """

    measure: str
    k: int
    average_bits: float
    n_transitions: int
    source: str
    local: LocalProfile | None = None


def _weighted_cells(source, k: int):
    """Sorted flat cell codes of a source's support at history length k,
    their probabilities, and the source's (|X|, |U|).

    A source evaluates at any k from 1 to its own history length: a count
    table's k, or for a distribution the K of its |X|**K histories (any k
    when |X| = 1, whose every history length has one history).
    """
    if isinstance(source, JointCountTable):
        codes, weights, total = source.cells, source.counts, source.total
        nx, nu, own_k, name = source.alphabet_x.size, source.n_inputs, source.k, "count table"
    elif isinstance(source, Distribution):
        if source.probs.ndim != 3:
            raise ValueError("joint distribution must have (history, next, input) axes")
        nh, nx, nu = source.probs.shape
        own_k = round(math.log(nh, nx)) if nx > 1 else k
        if nx**own_k != nh:
            raise ValueError(f"distribution has {nh} histories, not a power of |X| = {nx}")
        flat = source.probs.ravel()
        codes = np.flatnonzero(flat)
        weights, total, name = flat[codes], 1.0, "distribution"
    else:
        raise TypeError(f"expected JointCountTable or Distribution, got {type(source)!r}")
    if not 1 <= k <= own_k:
        raise ValueError(f"k={k} is outside 1..{own_k}, the {name}'s history lengths")
    if k == own_k:
        return codes, weights / total, nx, nu
    # The oldest history digit is the most significant, so a cell's code
    # at the shorter k is its code mod |X|**(k+1) * |U|.
    codes, inverse = np.unique(codes % (nx ** (k + 1) * nu), return_inverse=True)
    return codes, np.bincount(inverse, weights=weights) / total, nx, nu


def _grouped(keys: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Per cell, the total probability of the cells sharing its key."""
    _, inverse = np.unique(keys, return_inverse=True)
    return np.bincount(inverse, weights=p)[inverse]


@dataclass(frozen=True)
class _Cells:
    """The support of a source with each cell's probability and local values.

    Local AIS is log2 p(h, x') - log2 p(h) - log2 p(x'); local icAIS is
    log2 p(x' | h, u') - log2 p(x' | u'); local interaction is their
    difference, so the identity holds cell by cell.
    """

    codes: np.ndarray
    p: np.ndarray
    n_inputs: int
    values: dict[str, np.ndarray]


def _evaluate(source, k: int) -> _Cells:
    codes, p, nx, nu = _weighted_cells(source, k)
    hx, u = np.divmod(codes, nu)
    h, x = np.divmod(hx, nx)
    ais_v = np.log2(_grouped(hx, p)) - np.log2(_grouped(h, p)) - np.log2(_grouped(x, p))
    icais_v = (
        np.log2(p)
        + np.log2(_grouped(u, p))
        - np.log2(_grouped(h * nu + u, p))
        - np.log2(_grouped(x * nu + u, p))
    )
    values = {"ais": ais_v, "icais": icais_v, "interaction": icais_v - ais_v}
    return _Cells(codes, p, nu, values)


def _check_measures(measures: Sequence[str], source) -> None:
    for m in measures:
        if m not in MEASURES:
            raise ValueError(f"unknown measure {m!r}; expected one of {MEASURES}")
        if (
            m != "ais"
            and isinstance(source, JointCountTable)
            and source.alphabet_u is None
        ):
            raise ValueError(f"measure {m!r} requires an input dimension; counts have none")


def _at_steps(cells: _Cells, measure: str, table: JointCountTable, k: int) -> LocalProfile:
    """The profile of ``measure`` over the table's time steps: each table
    cell's code at history length k is looked up among the evaluated cells.

    AIS depends on (history, next) only, so it is looked up by that pair;
    the other measures by the whole cell.
    """
    nx, nu = table.alphabet_x.size, table.n_inputs
    codes = table.cells % (nx ** (k + 1) * nu)
    if measure == "ais":
        keys, queries = cells.codes // cells.n_inputs, codes // nu
        what = "p(history, next)"
    else:
        keys, queries = cells.codes, codes
        what = "p(history, next, input)"
    idx = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    missing = keys[idx] != queries
    if np.any(missing):
        h, x = divmod(int(codes[np.argmax(missing)]) // nu, nx)
        raise ValueError(
            f"observed transition (history={decode_history(h, k, nx)}, next={x}) has zero "
            f"probability under the supplied distribution ({what})"
        )
    return LocalProfile(measure, k, cells.values[measure][idx], table)


def evaluate(
    measures: Sequence[str], source, *, k: int | None = None, local: bool = False
) -> list[MeasureResult]:
    """Evaluate several measures at history length k from one pass over the
    source's cells.

    ``source`` is an empirical JointCountTable (plug-in estimation) or an
    exact joint Distribution.  For a table, ``k`` defaults to the table's
    own k and may be any length from 1 to it: the same transitions are then
    evaluated with their last k history symbols, as if the series had been
    counted at k with the table's alignment.  For a distribution ``k`` is
    required, and may be any length from 1 to its own (|X|**K histories):
    the joint is then marginalised onto the last k history symbols.  Each
    average is the probability-weighted sum of the per-cell local values;
    ``local`` attaches local profiles, which exist for count tables only:
    asking for them from a distribution raises TypeError.
    """
    _check_measures(measures, source)
    table = source if isinstance(source, JointCountTable) else None
    if local and table is None:
        raise TypeError("local profiles need an empirical count table")
    k = table.k if table is not None and k is None else k
    if k is None:
        raise ValueError("k must be given when evaluating a bare distribution")
    cells = _evaluate(source, k)
    return [
        MeasureResult(
            measure=m,
            k=k,
            average_bits=float(cells.p @ cells.values[m]),
            n_transitions=table.total if table is not None else 0,
            source="empirical" if table is not None else "oracle",
            local=_at_steps(cells, m, table, k) if local else None,
        )
        for m in measures
    ]


def compute(measure: str, source, *, k: int | None = None) -> MeasureResult:
    """Dispatch by measure name ('ais' | 'icais' | 'interaction')."""
    return evaluate([measure], source, k=k)[0]


def ais(source, *, k: int | None = None) -> MeasureResult:
    """Average active information storage I(history; next), in bits."""
    return compute("ais", source, k=k)


def icais(source, *, k: int | None = None) -> MeasureResult:
    """Average input-corrected storage I(history; next | input), in bits."""
    return compute("icais", source, k=k)


def interaction(source, *, k: int | None = None) -> MeasureResult:
    """Average interaction information: icAIS minus AIS, in bits."""
    return compute("interaction", source, k=k)


def local_profile(measure: str, table: JointCountTable, dist: Distribution | None = None) -> LocalProfile:
    """Per-transition local values of ``measure``.

    ``dist`` defaults to the plug-in distribution of the same table;
    passing a separately estimated (or exact) distribution gives held-out
    local values; its history may be longer than the table's, and is then
    marginalised onto the table's k.  Its next axis must be the table's |X|
    and, except for AIS, which reads p(history, next) only, its input axis
    the table's |U|.
    """
    if not isinstance(table, JointCountTable):
        raise TypeError("local profiles need an empirical count table")
    _check_measures([measure], table)
    if dist is not None:
        axes = (table.alphabet_x.size, table.n_inputs)[: 1 if measure == "ais" else 2]
        if dist.probs.shape[1 : 1 + len(axes)] != axes:
            raise ValueError(f"{measure!r} needs a distribution with (next, input) axes {axes}, "
                             f"not {dist.probs.shape[1:3]}")
    return _at_steps(_evaluate(table if dist is None else dist, table.k), measure, table, table.k)


def local_ais(table: JointCountTable, dist: Distribution | None = None) -> LocalProfile:
    """Local active storage per transition:
    log2 p(h, x') - log2 p(h) - log2 p(x')."""
    return local_profile("ais", table, dist)


def local_icais(table: JointCountTable, dist: Distribution | None = None) -> LocalProfile:
    """Local input-corrected storage per transition:
    log2 p(x' | h, u') - log2 p(x' | u')."""
    return local_profile("icais", table, dist)


def local_interaction(table: JointCountTable, dist: Distribution | None = None) -> LocalProfile:
    """Local interaction information: local icAIS minus local AIS on the
    shared distribution.  Negative values flag redundancy between history
    and input, positive values synergy."""
    return local_profile("interaction", table, dist)
