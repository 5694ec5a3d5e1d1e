"""Input-process generators, table-driven units, and the exact oracle.

Every unit is a ``TableUnit``, a finite-state transducer given by its
(next_state, output) tables; a ``UnitSpec`` is a built-in unit, a
``TableUnit`` whose tables its kind names, and ``simulate_unit`` runs one
vectorised kernel for all.

The oracle builds the Markov chain over composite (input symbol, unit
state, last k outputs) states for any ``TableUnit``, held as sparse
successor and probability arrays of size states x |U|.  Its long-run
law from the unit's own start, solved on the small (input, unit state)
chain and carried k steps along the full one, projects onto the exact
joint p(history, next output, next input) that the storage measures
consume, which yields analytic values with no sampling at all.

Pseudorandom generation uses numpy's Philox counter-based generator,
seeded directly with the integer seed, so identical seeds give identical
series across runs and platforms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimators import Distribution
from .symseq import BINARY, Alphabet, SymbolSeries, _integer_array, _symbol_dtype, _take

STATE_SPACE_LIMIT = 2**20

# stationary_distribution's pair chain: its size limit and its stop rule.
PAIR_LIMIT = 2**10
_MAX_SQUARINGS = 64
_SQUARING_TOL = 1e-12

# simulate_unit's word table has at most _WORD_CELLS (state, word) pairs,
# and a word at most _WORD_MAX inputs, which bounds a one-symbol input.
_WORD_CELLS = 2**12
_WORD_MAX = 16

# Raw Philox words drawn per call in generate_input.
_DRAW_CHUNK = 2**16


@dataclass(frozen=True)
class ProcessSpec:
    """An input process: i.i.d. Bernoulli draws, or a binary Markov chain
    that repeats its last value with probability p_stay."""

    kind: str  # "bernoulli" | "markov_binary"
    p: float | None = None
    p_stay: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.kind == "bernoulli":
            if self.p is None or not (0.0 <= self.p <= 1.0):
                raise ValueError("bernoulli requires 0 <= p <= 1")
        elif self.kind == "markov_binary":
            if self.p_stay is None or not (0.0 < self.p_stay < 1.0):
                raise ValueError("markov_binary requires 0 < p_stay < 1")
        else:
            raise ValueError(f"unknown process kind {self.kind!r}")

    def transition_matrix(self) -> np.ndarray:
        """Row-stochastic P(u' | u) over the binary input alphabet."""
        if self.kind == "bernoulli":
            row = np.array([1.0 - self.p, self.p])
            return np.vstack([row, row])
        s = self.p_stay
        return np.array([[s, 1.0 - s], [1.0 - s, s]])


def generate_input(spec: ProcessSpec, n: int) -> SymbolSeries:
    """Draw a length-n realization of the input process, reproducibly."""
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = np.random.Generator(np.random.Philox(spec.seed))
    data = np.empty(n, dtype=np.uint8)
    if spec.kind == "bernoulli":
        _draw_below(rng, spec.p, data)
    else:
        # u[t] is the first symbol XOR the flips before t, taken in place
        # on a bool view, since every byte is 0 or 1.
        data[0] = rng.integers(0, 2)
        _draw_below(rng, 1.0 - spec.p_stay, data[1:])
        bits = data.view(np.bool_)
        np.logical_xor.accumulate(bits, out=bits)
    return SymbolSeries(BINARY, data)


def _draw_below(rng: np.random.Generator, p: float, out: np.ndarray) -> None:
    """Set ``out[t]`` to 1 where the t-th uniform draw falls below p, else
    to 0, the draws being the same stream as one ``rng.random(out.size)``.

    ``rng.random`` makes each draw from one raw 64-bit word w as
    ``(w >> 11) * 2**-53``, so the draw falls below p exactly when
    ``w >> 11`` falls below ``ceil(p * 2**53)``, an integer of at most 2^53
    (p * 2**53 is exact in floating point).  The raw words are taken
    ``_DRAW_CHUNK`` at a time and compared with that integer, so nothing is
    converted to float.
    """
    threshold = np.uint64(math.ceil(p * 2.0**53))
    raw = rng.bit_generator.random_raw
    for i in range(0, out.size, _DRAW_CHUNK):
        words = raw(min(_DRAW_CHUNK, out.size - i))
        words >>= np.uint64(11)
        np.less(words, threshold, out=out[i : i + _DRAW_CHUNK])


class TableUnit:
    """A finite-state transducer given by explicit tables.

    ``next_state[s, u]`` is the state the unit moves to when input u
    arrives in state s, and ``output[s, u]`` the symbol it emits on that
    step; both are (n_states, n_inputs) integer arrays.  The tables are
    validated here and then read-only, since simulation and the oracle
    index with their entries.
    """

    def __init__(self, next_state, output, n_outputs: int, initial_state: int = 0):
        self.next_state = _table("next_state", next_state)
        self.output = _table("output", output)
        if self.next_state.shape != self.output.shape:
            raise ValueError("next_state and output tables must share a shape")
        self.n_states = self.next_state.shape[0]
        self.input_alphabet = Alphabet(self.next_state.shape[1])
        self.output_alphabet = Alphabet(n_outputs)
        if not (0 <= initial_state < self.n_states):
            raise ValueError("initial state out of range")
        self.initial_state = initial_state
        for name, table, bound in (
            ("next_state", self.next_state, self.n_states),
            ("output", self.output, n_outputs),
        ):
            lo, hi = int(table.min()), int(table.max())
            if lo < 0 or hi >= bound:
                raise ValueError(
                    f"{name} table entries must lie in [0, {bound}); "
                    f"saw values in [{lo}, {hi}]"
                )


def _table(name: str, values) -> np.ndarray:
    arr = _integer_array(f"{name} table", values)
    if arr.ndim != 2:
        raise ValueError(f"{name} table must be a 2-D integer array")
    arr = arr.astype(np.int64)
    arr.setflags(write=False)
    return arr


class UnitSpec(TableUnit):
    """A built-in unit by name.  Forwarding has one state and emits its
    input; xor_memory emits input XOR its state and keeps that output as
    its next state."""

    def __init__(self, kind: str, initial_state: int = 0):
        if kind == "forwarding":
            super().__init__([[0, 0]], [[0, 1]], n_outputs=2, initial_state=initial_state)
        elif kind == "xor_memory":
            xor = [[0, 1], [1, 0]]
            super().__init__(xor, xor, n_outputs=2, initial_state=initial_state)
        else:
            raise ValueError(f"unknown unit kind {kind!r}")
        self.kind = kind


def simulate_unit(unit: TableUnit, input_series: SymbolSeries) -> SymbolSeries:
    """Run the unit over the whole input series; output has equal length.

    The unit steps through a word of w inputs per table lookup: a word
    table gives, for every (state, word) pair, the state at the word's end
    and the w outputs on the way.  w is the largest length, at most
    ``_WORD_MAX``, whose table has at most ``_WORD_CELLS`` pairs (w = 1
    when even one input per state exceeds that).  The inputs are packed
    into word codes, oldest symbol most significant, and the words cut
    into blocks of about sqrt(N / w) words; each word below runs across
    all blocks at once.  The first pass moves every possible start state
    of every block through its block, which gives each block's end-state
    map; chaining those maps from the initial state gives each block's
    true start state; the second pass replays every block from that state
    and records each word's (state, word) pair, whose output row is then
    gathered from the table.

    The first pass costs O(N·S/w) for S unit states and holds an
    n_blocks x S array, so a unit with many states is slow: at N = 1e6
    with binary inputs on a 2-vCPU machine, S = 64 took 0.04 s, S = 1024
    took 2.0 s and S = 4096 (w = 1) took 33 s and 250 MB.
    """
    n_inputs = unit.input_alphabet.size
    if input_series.alphabet.size != n_inputs:
        raise ValueError(
            f"unit expects inputs over {n_inputs} symbols, "
            f"series uses {input_series.alphabet.size}"
        )
    n_states = unit.n_states
    w = 1
    while w < _WORD_MAX and n_states * n_inputs ** (w + 1) <= _WORD_CELLS:
        w += 1
    n_words = n_inputs**w
    word_next, word_output = _word_table(unit, w)

    n = len(input_series)
    n_codes = -(-n // w)
    width = math.isqrt(n_codes)
    n_blocks = -(-n_codes // width)
    # codes[b, t]: word t of block b, later its (state, word) pair
    # state * n_words + word.  Both fit the dtype of the table's pairs,
    # which also holds the multiplier |U| whenever w > 1.  Symbols past the
    # end count as input 0: they pad the last word and the last block.
    data = input_series.data
    codes = np.zeros(n_blocks * width, dtype=_symbol_dtype(n_states * n_words))
    codes[:n_codes] = data[::w]
    for j in range(1, w):
        codes *= n_inputs
        column = data[j::w]
        codes[: column.size] += column
    codes = codes.reshape(n_blocks, width)

    ends = np.tile(np.arange(n_states), (n_blocks, 1))
    for word in codes.T:
        ends = word_next[ends * n_words + word[:, None]]
    starts = np.empty(n_blocks, dtype=np.int64)
    state = unit.initial_state
    for b, end in enumerate(ends.tolist()):
        starts[b] = state
        state = end[state]

    state = starts
    for word in codes.T:  # each word is overwritten by its (state, word) pair
        pair = state * n_words + word
        word[:] = pair
        state = word_next[pair]
    outputs = _take(word_output, codes.ravel())
    return SymbolSeries(unit.output_alphabet, outputs.ravel()[:n])


def _word_table(unit: TableUnit, w: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit's moves over words of w inputs.  Pair state * |U|^w + word,
    the word coding its inputs oldest first in base |U|, has end state
    ``word_next[pair]`` and outputs ``word_output[pair]``, a row of w in
    the output alphabet's dtype."""
    n_inputs = unit.input_alphabet.size
    pairs = np.arange(unit.n_states * n_inputs**w)
    state = pairs // n_inputs**w
    word_output = np.empty(
        (pairs.size, w), dtype=_symbol_dtype(unit.output_alphabet.size)
    )
    for j in range(w):
        # flat table index of (state, input) is state * |U| + input
        cell = state * n_inputs + pairs // n_inputs ** (w - 1 - j) % n_inputs
        word_output[:, j] = unit.output.ravel()[cell]
        state = unit.next_state.ravel()[cell]
    return state, word_output


@dataclass(frozen=True)
class MarkovChainModel:
    """Markov chain over composite (input, unit state, output history) states.

    State (u, s, h) has index ``(u * S + s) * |X|**k + h``, where S is the
    unit's number of states and h codes the last k outputs in base |X|,
    the most recent output as the least significant digit.  Given the next
    input u' the chain moves deterministically, so it is stored sparsely:
    ``successor[i, u']`` is the state that state i moves to on input u',
    and ``prob[i, u']`` = P(u' | u) is the probability of that move.  Both
    are (states x |U|) arrays, so |U| is ``successor.shape[1]``.
    ``start`` is the law of the first (input, unit state) pair, indexed
    u * S + s: the first input u0 and the state the unit moves to on it
    from its initial state.  ``transition`` builds the dense
    row-stochastic states x states matrix anew on each access; it is meant
    for checks on small chains.
    """

    k: int
    output_alphabet: Alphabet
    successor: np.ndarray
    prob: np.ndarray
    start: np.ndarray

    @property
    def n_states(self) -> int:
        return self.successor.shape[0]

    @property
    def transition(self) -> np.ndarray:
        T = np.zeros((self.n_states, self.n_states))
        np.add.at(T, (np.arange(self.n_states)[:, None], self.successor), self.prob)
        return T


def build_joint_chain(proc: ProcessSpec, unit: TableUnit, k: int) -> MarkovChainModel:
    """Compose the input process law with the unit's deterministic update."""
    if k < 1:
        raise ValueError("history length k must be >= 1")
    nu = unit.input_alphabet.size
    nx = unit.output_alphabet.size
    ns = unit.n_states
    # With |X| >= 2, |X|^cap alone exceeds the limit, so a larger k is
    # refused without building its power; with |X| = 1 the history space
    # stays 1 at any k.
    cap = STATE_SPACE_LIMIT.bit_length()
    nh = nx ** min(k, cap)
    n_states = nu * ns * nh
    if n_states > STATE_SPACE_LIMIT:
        raise ValueError(
            f"composite state space |U| * S * |X|^k = {nu} * {ns} * {nx}^{k}"
            + (f" = {n_states}" if k <= cap else "")
            + f" states exceeds the limit {STATE_SPACE_LIMIT}; reduce k"
        )
    pu = proc.transition_matrix()
    if pu.shape != (nu, nu):
        raise ValueError("input process alphabet does not match the unit")
    # u0 is drawn as generate_input draws it: Bernoulli(p), else uniformly
    start = np.zeros(nu * ns)
    first = pu[0] if proc.kind == "bernoulli" else np.full(nu, 1 / nu)
    start[np.arange(nu) * ns + unit.next_state[unit.initial_state]] = first

    # [s, h, u'] -> (u' * S + next_state[s, u']) * nh + (h * nx + output[s, u']) % nh
    head = (np.arange(nu) * ns + unit.next_state)[:, None, :] * nh
    tail = (np.arange(nh)[:, None] * nx + unit.output[:, None, :]) % nh
    shape = (nu, ns, nh, nu)
    return MarkovChainModel(
        k=k,
        output_alphabet=unit.output_alphabet,
        successor=np.broadcast_to(head + tail, shape).reshape(n_states, nu),
        prob=np.broadcast_to(pu[:, None, None, :], shape).reshape(n_states, nu),
        start=start,
    )


def stationary_distribution(model: MarkovChainModel) -> Distribution:
    """Stationary distribution over the model's composite states, for the
    chain started from ``model.start``.

    The (input, unit state) pair never reads the output history, so it is
    a chain L of its own, read off the rows with h = 0.  The limit of its
    lazy matrix (I + L)/2, which exists even for periodic L, is found by
    squaring (rows renormalised after each product) and maps the start
    law to the time-averaged law of the pair: no mass stays on transient
    pairs, and when the start reaches several closed classes each gets the
    probability of reaching it, the mixture a pooled ensemble of runs
    estimates.  Spread over the histories, that pair law takes k bincount
    steps of the full chain, which overwrite every history digit.  A
    product costs O((|U|·S)^3), so |U|·S is limited to ``PAIR_LIMIT``.
    """
    n = model.n_states
    nh = model.output_alphabet.size ** model.k
    pairs = n // nh
    if pairs > PAIR_LIMIT:
        raise ValueError(f"(input, unit state) chain of {pairs} states exceeds the limit {PAIR_LIMIT}")
    cell = np.arange(pairs)[:, None] * pairs + model.successor[::nh] // nh
    lazy = np.bincount(cell.ravel(), weights=model.prob[::nh].ravel(), minlength=pairs * pairs)
    lazy = 0.5 * (lazy.reshape(pairs, pairs) + np.eye(pairs))
    for _ in range(_MAX_SQUARINGS):
        lazy, last = lazy @ lazy, lazy
        lazy /= lazy.sum(axis=1, keepdims=True)
        if np.abs(lazy - last).max() <= _SQUARING_TOL:
            break
    successor = model.successor.ravel()
    pi = np.repeat(model.start @ lazy, nh)
    for _ in range(model.k if nh > 1 else 0):
        pi = np.bincount(successor, weights=(pi[:, None] * model.prob).ravel(), minlength=n)
    return Distribution(pi / pi.sum())


def oracle_joint(proc: ProcessSpec, unit: TableUnit, k: int) -> Distribution:
    """Exact stationary joint p(history, next output, next input) of the
    unit driven by the process, over histories of k outputs."""
    model = build_joint_chain(proc, unit, k)
    pi = stationary_distribution(model).probs
    nu = model.successor.shape[1]
    nx = model.output_alphabet.size
    nh = nx**model.k
    # the next output is the last history digit of the successor state
    history = np.arange(model.n_states)[:, None] % nh
    cell = (history * nx + model.successor % nx) * nu + np.arange(nu)
    p = np.bincount(cell.ravel(), weights=(pi[:, None] * model.prob).ravel(), minlength=nh * nx * nu)
    p /= p.sum()
    return Distribution(p.reshape(nh, nx, nu))
