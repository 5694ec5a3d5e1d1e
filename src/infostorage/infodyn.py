"""Storage measures for driven processes: AIS, input-corrected AIS, and
interaction information, in local (per time step) and average form.

Every measure of a dataset is evaluated against one shared distribution per
k, counted from one series or pooled over an ensemble of realisations (see
``count_joint``), so the identity

    local icAIS = local AIS + local interaction

holds exactly, not just in the limit.  Sources can be empirical count
tables (plug-in estimation) or exact joint distributions from the
Markov-chain oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .estimators import Distribution
from .symseq import EmbeddingConfig, JointCountTable, SymbolSeries, count_joint, decode_history

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


def _weighted_cells(source) -> tuple[np.ndarray, np.ndarray, int, int]:
    """Sorted flat cell codes of a source's support, their probabilities,
    and the source's (|X|, |U|)."""
    if isinstance(source, JointCountTable):
        total = source.total
        if total == 0:
            raise ValueError("cannot evaluate an empty count table")
        return source.cells, source.counts / total, source.alphabet_x.size, source.n_inputs
    if isinstance(source, Distribution):
        if source.n_axes != 3:
            raise ValueError("joint distribution must have (history, next, input) axes")
        flat = source.probs.ravel()
        codes = np.flatnonzero(flat)
        _, nx, nu = source.probs.shape
        return codes, flat[codes], nx, nu
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


def _evaluate(source) -> _Cells:
    codes, p, nx, nu = _weighted_cells(source)
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


def _steps(measure: str, per_cell: np.ndarray, table: JointCountTable) -> LocalProfile:
    """Spread per-cell values of the table's cells over its time steps."""
    return LocalProfile(measure, table.k, per_cell[table.transitions], table.start_index)


def evaluate(
    measures: Sequence[str], source, *, k: int | None = None, local: bool = False
) -> list[MeasureResult]:
    """Evaluate several measures from one pass over the source's cells.

    ``source`` is an empirical JointCountTable (plug-in estimation) or an
    exact joint Distribution (then ``k`` must be given).  Each average is
    the probability-weighted sum of the per-cell local values; ``local``
    attaches per-step profiles, which exist for count tables only.
    """
    _check_measures(measures, source)
    table = source if isinstance(source, JointCountTable) else None
    if table is None and k is None:
        raise ValueError("k must be given when evaluating a bare distribution")
    cells = _evaluate(source)
    return [
        MeasureResult(
            measure=m,
            k=table.k if table is not None else k,
            average_bits=float(cells.p @ cells.values[m]),
            n_transitions=table.total if table is not None else 0,
            source="empirical" if table is not None else "oracle",
            local=_steps(m, cells.values[m], table) if local and table is not None else None,
        )
        for m in measures
    ]


def compute(measure: str, source, *, k: int | None = None, local: bool = False) -> MeasureResult:
    """Dispatch by measure name ('ais' | 'icais' | 'interaction')."""
    return evaluate([measure], source, k=k, local=local)[0]


def ais(source, *, k: int | None = None, local: bool = False) -> MeasureResult:
    """Average active information storage I(history; next), in bits."""
    return compute("ais", source, k=k, local=local)


def icais(source, *, k: int | None = None, local: bool = False) -> MeasureResult:
    """Average input-corrected storage I(history; next | input), in bits."""
    return compute("icais", source, k=k, local=local)


def interaction(source, *, k: int | None = None, local: bool = False) -> MeasureResult:
    """Average interaction information: icAIS minus AIS, in bits."""
    return compute("interaction", source, k=k, local=local)


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
        return _steps(measure, _evaluate(table).values[measure], table)
    nx = table.alphabet_x.size
    if dist.probs.shape[:2] != (nx**table.k, nx):
        raise ValueError("distribution axes do not match the count table's history and next")
    return _steps(measure, _held_out(_evaluate(dist), measure, table), table)


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


def _shorter_history(table: JointCountTable, k: int) -> JointCountTable:
    """The table of the same transitions at history length k < table.k.  The oldest
    digit is the most significant, so a cell's code at k is its code mod |X|**(k+1) * |U|."""
    cell_space = table.alphabet_x.size ** (k + 1) * table.n_inputs
    cells, inverse = np.unique(table.cells % cell_space, return_inverse=True)
    transitions = inverse[table.transitions]
    counts = np.bincount(transitions, minlength=cells.size)
    return replace(table, k=k, cells=cells, counts=counts, transitions=transitions)


def sweep_k(
    x: SymbolSeries | Sequence[SymbolSeries],
    u: SymbolSeries | Sequence[SymbolSeries] | None,
    k_range: Iterable[int],
    measures: Iterable[str],
    *,
    input_lag: int = 0,
) -> list[MeasureResult]:
    """Evaluate measures for several history lengths on one series or on
    the pooled table of several realisations (see ``count_joint``).

    Counts once, at max(k), and derives each shorter history's table from
    that count, so every k has the same transitions: the first max(k)
    samples of each realisation are never `next` positions.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("empty k range")
    if ks[0] < 1:
        raise ValueError("history lengths must be >= 1")
    measures = list(measures)
    _check_measures(measures, None)
    table = count_joint(x, u, EmbeddingConfig(ks[-1], input_lag))
    results = []
    for k in ks:
        results += evaluate(measures, table if k == table.k else _shorter_history(table, k))
    return results
