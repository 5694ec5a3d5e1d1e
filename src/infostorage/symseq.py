"""Symbol sequences, history embedding, and joint transition counting.

Everything downstream (plug-in estimation, storage measures) consumes the
JointCountTable produced here: occurrence counts of the observed
(history-of-k, next-symbol, input-symbol) cells.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# A flat cell code is held in the narrowest dtype of the cell space
# |X|**k * |X| * |U|, and in int64 beyond 2^32 cells, so the space must
# stay below this.
_CODE_LIMIT = 2**63

# Codes counted per bincount call on the dense pass, and searched per
# searchsorted call on the sort path (see _rank_codes).
_COUNT_CHUNK = 2**16

# Steps gathered per np.take call by _take.  The intp copy of a chunk of
# the index, 256 KiB, stays in a core's L2 cache; on a 2-vCPU Xeon (2 MiB
# L2 a core) a 1e7-step uint8 gather took 12.2 ms at 2^13, 10.1 ms at 2^15
# and 9.9 ms at 2^16, where the larger buffer would add 0.26 bytes per
# step to a gather of N = 1e6 steps.
_TAKE_CHUNK = 2**15


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol domain {0, ..., size-1}."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", operator.index(self.size))
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")


BINARY = Alphabet(2)


def _integer_array(name: str, values) -> np.ndarray:
    """``values`` as an array, or a ValueError unless its dtype is integer
    or bool: a float or a string is never read as a symbol."""
    arr = np.asarray(values)
    if not (arr.dtype == np.bool_ or np.issubdtype(arr.dtype, np.integer)):
        raise ValueError(f"{name} must hold integers, got dtype {arr.dtype}")
    return arr


def _symbol_dtype(size: int) -> np.dtype:
    """The narrowest dtype that holds the symbols 0..size-1: uint8, uint16
    or uint32, and int64 for wider alphabets, because int64 code
    arithmetic does not mix with uint64."""
    dtype = np.min_scalar_type(size - 1)
    return dtype if dtype.itemsize <= 4 else np.dtype(np.int64)


@dataclass(frozen=True)
class SymbolSeries:
    """A finite sequence of small-integer symbols over a declared alphabet.

    The symbols must be integers or bools.  ``data`` is a read-only copy
    of them in the narrowest dtype for the alphabet: uint8 up to 2^8
    symbols, uint16 up to 2^16, uint32 up to 2^32 and int64 beyond, so a
    binary symbol takes one byte and the series never shares memory with
    the caller's array.  The narrow dtypes wrap on overflow: arithmetic
    that combines symbols, such as a cell code, accumulates into a dtype
    that holds every combination.
    """

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self):
        arr = np.atleast_1d(_integer_array("series data", self.data))
        if arr.ndim != 1:
            raise ValueError("series data must be one-dimensional")
        if arr.size < 1:
            raise ValueError("series must contain at least one symbol")
        lo, hi = int(arr.min()), int(arr.max())
        dtype = _symbol_dtype(self.alphabet.size)
        if lo < 0 or hi >= self.alphabet.size or hi > np.iinfo(dtype).max:
            raise ValueError(
                f"symbol out of range: saw values in [{lo}, {hi}] for "
                f"alphabet of size {self.alphabet.size}"
            )
        arr = arr.astype(dtype)
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)


@dataclass(frozen=True)
class EmbeddingConfig:
    """History length k and input lag L.

    The input symbol paired with the transition x_n -> x_{n+1} is
    u_{n+1-L}.  Lag 0 (the default) pairs u_{n+1} with x_{n+1}.
    """

    k: int
    input_lag: int = 0

    def __post_init__(self):
        object.__setattr__(self, "k", operator.index(self.k))
        object.__setattr__(self, "input_lag", operator.index(self.input_lag))
        if self.k < 1:
            raise ValueError("history length k must be >= 1")
        if self.input_lag < 0:
            raise ValueError("input_lag must be >= 0")


def _check_length(n: int, cfg: EmbeddingConfig) -> int:
    """Return the index of the first analyzed `next` position, or raise."""
    start = cfg.k + max(0, cfg.input_lag - 1)
    if n < start + 1:
        raise ValueError(
            f"series of length {n} too short for k={cfg.k}"
            + (f", input_lag={cfg.input_lag}" if cfg.input_lag > 1 else "")
            + f"; need length >= {start + 1}"
        )
    return start


def decode_history(code: int, k: int, base: int) -> tuple[int, ...]:
    """The k symbols, oldest first, of a history's radix code in ``base``:
    the oldest symbol is the most significant digit."""
    out = []
    for _ in range(k):
        out.append(code % base)
        code //= base
    return tuple(reversed(out))


@dataclass(frozen=True)
class JointCountTable:
    """Counts of the observed (history, next, input) cells; the sufficient
    statistic.

    A cell's flat code is ``(h * |X| + x) * |U| + u``, h being the radix
    code of the history with its oldest symbol most significant (see
    ``decode_history``) and |U| being 1 when counting without an input.
    ``cells`` holds the sorted codes of the cells seen at least once,
    ``counts[i]`` how often cell ``cells[i]`` was seen, and
    ``transitions[t]`` the index into ``cells`` of the transition whose
    `next` symbol sits at series index ``start_index + t``, so local
    measures stay aligned to the series.
    A table pooled over several realisations lists their transitions one
    realisation after another, each realisation's from its own index
    ``start_index`` on.  ``count_joint`` builds it by one dense
    ``bincount`` over the cell space |X|^(k+1)·|U| when that space is at
    most the number of transitions N, and by sorting the cell codes
    otherwise; both give the same arrays, and memory is O(N + observed
    cells) either way, whatever the alphabet sizes.

    The constructor checks this contract, so no table is empty: integer
    arrays, at least one cell, strictly increasing in the cell space, each
    counted at least once, and every step's index naming a cell.

    ``cells`` and ``counts`` are held as int64, and ``transitions`` in the
    narrowest dtype that indexes the observed cells: uint8 up to 2^8 cells,
    uint16 up to 2^16, uint32 up to 2^32 and int64 beyond, so a step's
    index takes one byte while at most 256 cells are seen.  All three are
    read-only.
    """

    k: int
    alphabet_x: Alphabet
    alphabet_u: Alphabet | None
    cells: np.ndarray
    counts: np.ndarray
    transitions: np.ndarray
    start_index: int = 0

    def __post_init__(self):
        for name in ("cells", "counts", "transitions"):
            arr = np.asarray(getattr(self, name))
            # numpy types an empty list float64, so only a non-empty array's dtype is checked.
            arr = _integer_array(name, arr) if arr.size else arr
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            dtype = np.int64
            if name == "transitions":
                # Checked before the cast, which would wrap a wider index.
                if arr.size and (arr.min() < 0 or arr.max() >= self.cells.size):
                    raise ValueError("transitions must index cells")
                dtype = _index_dtype(self.cells.size)
            arr = np.ascontiguousarray(arr, dtype=dtype).view()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.cells.shape != self.counts.shape:
            raise ValueError("cells and counts must have the same length")
        if self.cells.size < 1:
            raise ValueError("cannot build an empty count table")
        if self.counts.min() < 1:
            raise ValueError("counts must be non-negative and nonzero")
        # With |X| >= 2 every int64 code lies below |X|**64, so the exponent
        # is capped there; with |X| = 1 the space is |U|.
        space = self.alphabet_x.size ** min(self.k + 1, 64) * self.n_inputs
        if not (np.all(self.cells[1:] > self.cells[:-1])
                and 0 <= int(self.cells[0]) and int(self.cells[-1]) < space):
            raise ValueError(f"cells must be strictly increasing codes in [0, {space})")

    @property
    def n_inputs(self) -> int:
        """|U|, the size of the input axis (1 without an input)."""
        return self.alphabet_u.size if self.alphabet_u is not None else 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def count_joint(
    x: SymbolSeries | Sequence[SymbolSeries],
    u: SymbolSeries | Sequence[SymbolSeries] | None = None,
    cfg: EmbeddingConfig = EmbeddingConfig(1),
) -> JointCountTable:
    """Count (history, next, input) cells over all embedded transitions.

    ``x`` is one series or a sequence of realisations of the same process;
    ``u`` is then None, one series or a matching sequence of input series.
    Realisations share one x alphabet and one u alphabet, may differ in
    length, and are pooled into one table: ``transitions`` lists each
    realisation's steps in turn, all from the same ``start_index``.

    When a lag L > 1 would reach before the start of the input series, the
    first L-1 transitions are dropped, so each realisation of length N
    contributes N - k - max(0, L-1) transitions.

    Each step's cell code is built in the narrowest dtype that holds the
    cell space |X|^(k+1)·|U|: uint8, uint16 or uint32, and int64 beyond
    2^32 cells.  When that space is at most the number of pooled
    transitions, the cells are counted and ranked in one dense ``bincount``
    pass over it, O(N) time, with codes of at most four bytes; a wider
    space is sorted instead, O(N log N).  Either way the arrays held are at
    most N long besides the observed cells, so memory is O(N + observed
    cells), and each step's index into the observed cells takes the
    narrowest dtype that holds it (see ``JointCountTable``).
    """
    xs = [x] if isinstance(x, SymbolSeries) else list(x)
    us = [None] * len(xs) if u is None else [u] if isinstance(u, SymbolSeries) else list(u)
    if not xs:
        raise ValueError("need at least one realisation")
    if len(us) != len(xs):
        raise ValueError(f"got {len(us)} input series for {len(xs)} realisations")
    inputs = us if u is not None else []
    if not all(isinstance(s, SymbolSeries) for s in [*xs, *inputs]):
        raise ValueError("every realisation and input series must be a SymbolSeries")
    alphabet_x = xs[0].alphabet
    alphabet_u = us[0].alphabet if u is not None else None
    if any(xi.alphabet != alphabet_x for xi in xs):
        raise ValueError("realisations must share one x alphabet")
    for xi, ui in zip(xs, inputs):
        if len(ui) != len(xi):
            raise ValueError(
                f"input length {len(ui)} does not match series length {len(xi)}"
            )
        if ui.alphabet != alphabet_u:
            raise ValueError("realisations must share one u alphabet")
    # Lag only matters when inputs are present.
    cfg = cfg if u is not None else EmbeddingConfig(cfg.k)
    start = _check_length(min(len(xi) for xi in xs), cfg)
    k = cfg.k
    nx = alphabet_x.size
    nu = alphabet_u.size if alphabet_u is not None else 1
    space = nx ** (k + 1) * nu
    if space >= _CODE_LIMIT:
        raise ValueError(
            f"cell space |X|^k * |X| * |U| = {nx}^{k} * {nx} * {nu} does not "
            "fit a 64-bit code; reduce k"
        )
    # Every code lies below the space.  The multipliers |X| and |U| must fit
    # the dtype too, as numpy does not scale a narrow array by a Python int
    # it cannot hold; only |X| = 1 lets |U| reach the space.
    dtype = _symbol_dtype(max(space, nx + 1, nu + 1))
    flat = _flat_codes(xs, us, cfg, start, dtype)
    cells, counts, transitions = _rank_codes(flat, space)
    return JointCountTable(
        k=k,
        alphabet_x=alphabet_x,
        alphabet_u=alphabet_u,
        cells=cells,
        counts=counts,
        transitions=transitions,
        start_index=start,
    )


def _flat_codes(xs, us, cfg: EmbeddingConfig, start: int, dtype: np.dtype) -> np.ndarray:
    """Flat cell codes, in ``dtype``, of each realisation's transitions in
    turn, each realisation's from the `next` symbol at index ``start`` on."""
    k, lag = cfg.k, cfg.input_lag
    ends = np.cumsum([len(x) - start for x in xs]).tolist()
    codes = np.empty(ends[-1], dtype=dtype)
    for x, u, end in zip(xs, us, ends):
        m = len(x) - start
        part = codes[end - m : end]
        # Horner over the window x[t-k..t], oldest symbol first, gives the
        # (history, next) code h * |X| + x of the step whose next is x[t].
        # With |X| = 1 every window codes 0, so the k passes are skipped.
        part[...] = x.data[start - k : start - k + m]
        for j in range(1, k + 1 if x.alphabet.size > 1 else 1):
            part *= x.alphabet.size
            part += x.data[start - k + j : start - k + j + m]
        if u is not None:
            part *= u.alphabet.size
            part += u.data[start - lag : len(u) - lag]
    return codes


def _index_dtype(n_cells: int) -> np.dtype:
    """The dtype of an index into ``n_cells`` cells: the symbol dtype of
    that many symbols (uint8 up to 2^8 cells, uint16 up to 2^16, uint32 up
    to 2^32, int64 beyond)."""
    return _symbol_dtype(max(n_cells, 1))


def _rank_codes(codes: np.ndarray, space: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct values of ``codes``, how often each occurs, and the
    index of each code among them, in the dtype ``_index_dtype`` gives for
    their number.

    ``codes`` lie in ``[0, space)``, in any integer dtype that holds them,
    such as the narrowest one of the space.  When the space is no larger
    than the number of codes, one dense ``bincount`` over it ranks them in
    O(N); otherwise they are sorted, in O(N log N).  Memory is O(N +
    distinct codes) either way.
    """
    if space <= codes.size:
        # bincount casts its input to intp.  Counted a chunk at a time, the
        # cast stays in cache instead of taking 8 bytes per code; a chunk
        # holds at least `space` codes, so adding up the per-chunk counts
        # costs at most one more pass over N.
        step = max(space, _COUNT_CHUNK)
        dense = np.bincount(codes[:step], minlength=space)
        for i in range(step, codes.size, step):
            dense += np.bincount(codes[i : i + step], minlength=space)
        distinct = np.flatnonzero(dense)
        # The rank table is at most N long; gathering from it in the index
        # dtype, through _take, makes no N-sized intp array.  Its unseen
        # cells are never gathered, so they stay 0.
        rank = np.zeros(dense.size, dtype=_index_dtype(distinct.size))
        rank[distinct] = np.arange(distinct.size, dtype=rank.dtype)
        return distinct, dense[distinct], _take(rank, codes)
    # Searching the sorted cells gives np.unique's inverse without its
    # argsort and gathers, which hold about six N-sized arrays at once.
    # Searched a chunk at a time, the intp positions stay in cache and are
    # written straight into the index dtype; the counts are the lengths of
    # the sorted runs, so nothing casts the index back to intp.  Asking for
    # them also keeps np.unique on its sorting path: numpy 2.3 and later
    # hash instead, which is far slower when most codes are distinct.
    distinct, counts = np.unique(codes, return_counts=True)
    index = np.empty(codes.size, dtype=_index_dtype(distinct.size))
    for i in range(0, codes.size, _COUNT_CHUNK):
        index[i : i + _COUNT_CHUNK] = np.searchsorted(distinct, codes[i : i + _COUNT_CHUNK])
    return distinct, counts, index


def _take(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``values[index]`` for a 1-D ``index`` of any integer dtype: the rows
    of ``values`` (its entries when it is 1-D) that ``index`` names.

    A fancy index that is not intp is cast in numpy's buffered chunks,
    which is slower than an intp index, and ``np.take`` casts the whole
    index to intp at once, eight bytes per step.  Here each chunk of
    ``_TAKE_CHUNK`` steps is cast into one reused intp buffer, 256 KiB,
    and gathered straight into the result, so the only N-sized array is
    the result.
    Every caller's index, in ``_rank_codes``, ``simulate_unit`` and
    ``LocalProfile.values``, lies in range by construction, so the gather
    skips ``np.take``'s bounds check, which copies the result via a buffer.
    """
    out = np.empty(index.shape + values.shape[1:], dtype=values.dtype)
    buf = np.empty(min(index.size, _TAKE_CHUNK), dtype=np.intp)
    for i in range(0, index.size, _TAKE_CHUNK):
        chunk = buf[: min(_TAKE_CHUNK, index.size - i)]
        chunk[...] = index[i : i + _TAKE_CHUNK]
        np.take(values, chunk, axis=0, out=out[i : i + _TAKE_CHUNK], mode="wrap")
    return out
