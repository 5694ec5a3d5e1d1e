"""Storage measures for driven processes: AIS, input-corrected AIS, and
interaction information, in local (per time step) and average form.

Every measure of a dataset is evaluated against one shared distribution per
k, counted from one series or pooled over an ensemble of realisations (see
``count_joint``), so the identity

    local icAIS = local AIS + local interaction

holds exactly, not just in the limit.  Sources can be empirical count
tables (plug-in estimation) or exact joint distributions from the
Markov-chain oracle.  A table counted at history length k evaluates at any
k' <= k, on the same transitions with their last k' history symbols, so a
k-sweep counts once at its longest history.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .estimators import Distribution
from .symseq import JointCountTable, decode_history

MEASURES = ("ais", "icais", "interaction")


@dataclass(frozen=True)
class LocalProfile:
    """Per-time-step local measure values (bits), aligned to the series.

    ``values[i]`` belongs to the transition whose `next` symbol sits at
    series index ``start_index + i``.
    """

    measure: str
    k: int
    values: np.ndarray
    start_index: int

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)

    @property
    def mean(self) -> float:
        return float(self.values.mean())


@dataclass(frozen=True)
class MeasureResult:
    measure: str
    k: int
    average_bits: float
    n_transitions: int
    source: str  # "empirical" | "oracle"
    local: LocalProfile | None = None


def _weighted_cells(source, k: int):
    """Sorted flat cell codes of a source's support at history length k,
    their probabilities, the source's (|X|, |U|), and for a table evaluated
    below its own k the index of each table cell's code among them."""
    if isinstance(source, JointCountTable):
        if not 1 <= k <= source.k:
            raise ValueError(f"k={k} is outside 1..{source.k}, the count table's history lengths")
        total = source.total
        if total == 0:
            raise ValueError("cannot evaluate an empty count table")
        nx, nu = source.alphabet_x.size, source.n_inputs
        if k == source.k:
            return source.cells, source.counts / total, nx, nu, None
        # The oldest history digit is the most significant, so a cell's code
        # at the shorter k is its code mod |X|**(k+1) * |U|.
        codes, inverse = np.unique(source.cells % (nx ** (k + 1) * nu), return_inverse=True)
        return codes, np.bincount(inverse, weights=source.counts) / total, nx, nu, inverse
    if isinstance(source, Distribution):
        if source.n_axes != 3:
            raise ValueError("joint distribution must have (history, next, input) axes")
        nh, nx, nu = source.probs.shape
        if nh != nx**k:
            raise ValueError(f"distribution has {nh} histories, not |X|^k = {nx}^{k}")
        flat = source.probs.ravel()
        codes = np.flatnonzero(flat)
        return codes, flat[codes], nx, nu, None
    raise TypeError(f"expected JointCountTable or Distribution, got {type(source)!r}")


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
    # a table cell's index among ``codes``; None when they are the table's cells
    inverse: np.ndarray | None = None

    def at_table_cells(self, measure: str) -> np.ndarray:
        values = self.values[measure]
        return values if self.inverse is None else values[self.inverse]


def _evaluate(source, k: int) -> _Cells:
    codes, p, nx, nu, inverse = _weighted_cells(source, k)
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
    return _Cells(codes, p, nu, values, inverse)


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


def _held_out(cells: _Cells, measure: str, table: JointCountTable) -> np.ndarray:
    """Values of ``measure`` at the table's observed cells, looked up among
    a separately evaluated distribution's cells.

    AIS depends on (history, next) only, so it is looked up by that pair;
    the other measures by the whole cell.
    """
    if measure == "ais":
        keys, queries = cells.codes // cells.n_inputs, table.cells // table.n_inputs
        what = "p(history, next)"
    else:
        if cells.n_inputs != table.n_inputs:
            raise ValueError("distribution and count table have different input alphabets")
        keys, queries = cells.codes, table.cells
        what = "p(history, next, input)"
    idx = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    missing = keys[idx] != queries
    if np.any(missing):
        code = int(table.cells[np.argmax(missing)]) // table.n_inputs
        nx = table.alphabet_x.size
        hist = decode_history(code // nx, table.k, nx)
        raise ValueError(
            f"observed transition (history={hist}, next={code % nx}) has zero "
            f"probability under the supplied distribution ({what})"
        )
    return cells.values[measure][idx]


def _steps(measure: str, per_cell: np.ndarray, table: JointCountTable, k: int) -> LocalProfile:
    """Spread per-cell values of the table's cells over its time steps."""
    return LocalProfile(measure, k, per_cell[table.transitions], table.start_index)


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
    required and must match its history axis (|X|**k histories); an exact
    joint is never marginalised.  Each average is the probability-weighted
    sum of the per-cell local values; ``local`` attaches per-step profiles,
    which exist for count tables only.
    """
    _check_measures(measures, source)
    table = source if isinstance(source, JointCountTable) else None
    k = table.k if table is not None and k is None else k
    if k is None:
        raise ValueError("k must be given when evaluating a bare distribution")
    cells = _evaluate(source, k)
    local = local and table is not None
    return [
        MeasureResult(
            measure=m,
            k=k,
            average_bits=float(cells.p @ cells.values[m]),
            n_transitions=table.total if table is not None else 0,
            source="empirical" if table is not None else "oracle",
            local=_steps(m, cells.at_table_cells(m), table, k) if local else None,
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
    local values.
    """
    if not isinstance(table, JointCountTable):
        raise TypeError("local profiles need an empirical count table")
    _check_measures([measure], table)
    if dist is None:
        return evaluate([measure], table, local=True)[0].local
    nx = table.alphabet_x.size
    if dist.probs.shape[:2] != (nx**table.k, nx):
        raise ValueError("distribution axes do not match the count table's history and next")
    return _steps(measure, _held_out(_evaluate(dist, table.k), measure, table), table, table.k)


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
