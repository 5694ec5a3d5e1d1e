"""Symbol sequences, history embedding, and joint transition counting.

Everything downstream (plug-in estimation, storage measures) consumes the
JointCountTable produced here: occurrence counts of the observed
(history-of-k, next-symbol, input-symbol) cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Flat cell codes are int64, so |X|**k * |X| * |U| must stay below this.
_CODE_LIMIT = 2**63


@dataclass(frozen=True)
class Alphabet:
    """A finite symbol domain {0, ..., size-1} with optional display labels."""

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("alphabet size must be >= 1")
        if self.labels is not None:
            labels = tuple(str(s) for s in self.labels)
            if len(labels) != self.size:
                raise ValueError(
                    f"got {len(labels)} labels for alphabet of size {self.size}"
                )
            if len(set(labels)) != len(labels):
                raise ValueError("alphabet labels must be distinct")
            object.__setattr__(self, "labels", labels)


BINARY = Alphabet(2)


@dataclass(frozen=True)
class SymbolSeries:
    """A finite sequence of small-integer symbols over a declared alphabet."""

    alphabet: Alphabet
    data: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.data, dtype=np.int64)
        if arr.ndim != 1:
            raise ValueError("series data must be one-dimensional")
        if arr.size < 1:
            raise ValueError("series must contain at least one symbol")
        lo, hi = int(arr.min()), int(arr.max())
        if lo < 0 or hi >= self.alphabet.size:
            raise ValueError(
                f"symbol out of range: saw values in [{lo}, {hi}] for "
                f"alphabet of size {self.alphabet.size}"
            )
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    def __len__(self) -> int:
        return int(self.data.size)

    @classmethod
    def from_values(cls, values: Sequence, alphabet: Alphabet | None = None):
        """Ingest arbitrary hashable labels, mapping them to dense codes.

        Labels are assigned codes in sorted order and recorded on the
        alphabet, so output can be mapped back.  If ``alphabet`` is given,
        the values must already be in-range integer codes.
        """
        if alphabet is not None:
            return cls(alphabet, np.asarray(values, dtype=np.int64))
        distinct = sorted(set(values), key=str)
        code = {label: i for i, label in enumerate(distinct)}
        data = np.fromiter((code[v] for v in values), dtype=np.int64, count=len(values))
        return cls(Alphabet(len(distinct), tuple(str(v) for v in distinct)), data)


@dataclass(frozen=True)
class EmbeddingConfig:
    """History length k and input lag L.

    The input symbol paired with the transition x_n -> x_{n+1} is
    u_{n+1-L}.  Lag 0 (the default) pairs u_{n+1} with x_{n+1}.
    """

    k: int
    input_lag: int = 0

    def __post_init__(self):
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


def history_codes(x: np.ndarray, k: int, base: int) -> np.ndarray:
    """Radix-encode every length-k window of x; codes[i] encodes x[i:i+k].

    The oldest symbol is the most significant digit.
    """
    m = x.size - k + 1
    codes = np.zeros(m, dtype=np.int64)
    for j in range(k):
        codes *= base
        codes += x[j : j + m]
    return codes


def decode_history(code: int, k: int, base: int) -> tuple[int, ...]:
    """Inverse of history_codes for a single code."""
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
    code of the history (see ``history_codes``) and |U| being 1 when
    counting without an input.  ``cells`` holds the sorted codes of the
    cells seen at least once, ``counts[i]`` how often cell ``cells[i]``
    was seen, and ``transitions[t]`` the index into ``cells`` of the
    transition whose `next` symbol sits at series index
    ``start_index + t``, so local measures stay aligned to the series.
    Memory is O(N + observed cells), whatever the alphabet sizes.
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
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.int64).view()
            if arr.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if self.cells.shape != self.counts.shape:
            raise ValueError("cells and counts must have the same length")
        if self.counts.size and self.counts.min() < 0:
            raise ValueError("counts must be non-negative")

    @property
    def n_inputs(self) -> int:
        """|U|, the size of the input axis (1 without an input)."""
        return self.alphabet_u.size if self.alphabet_u is not None else 1

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def count_joint(
    x: SymbolSeries,
    u: SymbolSeries | None = None,
    cfg: EmbeddingConfig = EmbeddingConfig(1),
) -> JointCountTable:
    """Count (history, next, input) cells over all embedded transitions.

    When a lag L > 1 would reach before the start of the input series, the
    first L-1 transitions are dropped, so the total is always
    N - k - max(0, L-1).
    """
    n = len(x)
    if u is not None and len(u) != n:
        raise ValueError(
            f"input length {len(u)} does not match series length {n}"
        )
    # Lag only matters when inputs are present.
    start = _check_length(n, cfg if u is not None else EmbeddingConfig(cfg.k))
    k = cfg.k
    nx = x.alphabet.size
    nu = u.alphabet.size if u is not None else 1
    if nx ** (k + 1) * nu >= _CODE_LIMIT:
        raise ValueError(
            f"cell space |X|^k * |X| * |U| = {nx}^{k} * {nx} * {nu} does not "
            "fit a 64-bit code; reduce k"
        )
    # A length-(k+1) window codes (history, next) as h * |X| + x.
    flat = history_codes(x.data, k + 1, nx)[start - k :]
    if u is not None:
        flat *= nu
        flat += u.data[start - cfg.input_lag : n - cfg.input_lag]
    cells, transitions, counts = np.unique(flat, return_inverse=True, return_counts=True)
    return JointCountTable(
        k=k,
        alphabet_x=x.alphabet,
        alphabet_u=u.alphabet if u is not None else None,
        cells=cells,
        counts=counts,
        transitions=transitions,
        start_index=start,
    )
