import time

import numpy as np
import pytest

from infostorage import (
    Alphabet,
    BINARY,
    EmbeddingConfig,
    SymbolSeries,
    count_joint,
)
from infostorage import symseq
from infostorage.symseq import decode_history

from conftest import naive_count, random_series, step_cells, table_to_dict


def bseries(data):
    return SymbolSeries(BINARY, np.asarray(data))


def naive_pooled(xs, us, cfg):
    """naive_count summed over pooled realisations."""
    want = {}
    for x, u in zip(xs, us or [None] * len(xs)):
        for key, n in naive_count(x, u, cfg).items():
            want[key] = want.get(key, 0) + n
    return want


class TestAlphabet:
    def test_size_must_be_positive(self):
        with pytest.raises(ValueError):
            Alphabet(0)


class TestSymbolSeries:
    def test_rejects_out_of_range_symbols(self):
        with pytest.raises(ValueError):
            SymbolSeries(BINARY, np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            SymbolSeries(BINARY, np.array([-1, 0]))
        # in range of the alphabet, but not of the int64 its series is held in
        with pytest.raises(ValueError):
            SymbolSeries(Alphabet(2**64), np.array([0, 2**63], dtype=np.uint64))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            SymbolSeries(BINARY, np.array([], dtype=int))

    def test_rejects_two_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            bseries([[0, 1], [1, 0]])

    def test_data_is_immutable(self):
        s = bseries([0, 1])
        with pytest.raises(ValueError):
            s.data[0] = 1

    @pytest.mark.parametrize(
        "values", [[0.7, 1.9], np.array([0.0, 1.0]), ["1", "0"], np.array([0, 1], dtype=object)]
    )
    def test_rejects_non_integer_dtypes(self, values):
        # a float is not truncated and a string is not parsed into a symbol
        with pytest.raises(ValueError, match="integers"):
            SymbolSeries(BINARY, values)

    def test_accepts_bool(self):
        assert bseries([True, False, True]).data.tolist() == [1, 0, 1]


class TestSymbolDtype:
    """A series holds its symbols in the narrowest dtype for its alphabet."""

    @pytest.mark.parametrize(
        "size, dtype",
        [(2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
         (65_537, np.uint32), (2**20, np.uint32)],
    )
    def test_narrowest_dtype(self, size, dtype):
        s = SymbolSeries(Alphabet(size), np.array([0, size - 1]))
        assert s.data.dtype == dtype
        assert s.data.tolist() == [0, size - 1]

    def test_beyond_uint32_is_int64(self):
        assert symseq._symbol_dtype(2**32) == np.uint32
        assert symseq._symbol_dtype(2**32 + 1) == np.int64

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.int8, np.bool_])
    def test_read_only_copy_of_the_callers_array(self, dtype):
        given = np.array([0, 1, 1, 0], dtype=dtype)
        s = SymbolSeries(BINARY, given)
        assert not s.data.flags.writeable and s.data.flags.c_contiguous
        given[0] = 1
        assert s.data.tolist() == [0, 1, 1, 0]
        assert not np.shares_memory(s.data, given)

    def test_strided_input_is_copied_contiguous(self):
        s = bseries(np.arange(10)[::3] % 2)
        assert s.data.flags.c_contiguous and s.data.tolist() == [0, 1, 0, 1]


class TestHistoryCodes:
    def test_roundtrip(self, rng):
        # without an input a step's cell code is its length-(k+1) window
        # x[t-k..t] in radix |X|, which decode_history reads back
        x = random_series(rng, 30, 3)
        t = count_joint(x, None, EmbeddingConfig(2))
        codes = t.cells[t.transitions]
        assert codes.size == 28
        for i, c in enumerate(codes.tolist()):
            assert decode_history(c, 3, 3) == tuple(x.data[i : i + 3].tolist())


class TestEmbeddingConfig:
    @pytest.mark.parametrize("k, lag, match", [(0, 0, "k must be >= 1"), (1, -1, "input_lag must be >= 0")])
    def test_rejects_bad_values(self, k, lag, match):
        with pytest.raises(ValueError, match=match):
            EmbeddingConfig(k, input_lag=lag)


class TestCountJoint:
    def test_constant_series(self):
        t = count_joint(bseries([0, 0, 0, 0]), None, EmbeddingConfig(1))
        assert t.total == 3
        assert table_to_dict(t) == {((0,), 0, 0): 3}

    def test_with_input(self):
        x = bseries([0, 1, 0, 1])
        u = bseries([1, 1, 1, 1])
        t = count_joint(x, u, EmbeddingConfig(1))
        assert table_to_dict(t) == {((0,), 1, 1): 2, ((1,), 0, 1): 1}
        assert t.total == 3

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            count_joint(bseries([0, 1, 0]), bseries([0, 1]), EmbeddingConfig(1))

    def test_too_short(self):
        with pytest.raises(ValueError, match="too short"):
            count_joint(bseries([0, 1]), None, EmbeddingConfig(2))

    def test_total_matches_lag_invariant(self, rng):
        for lag in (0, 1, 2, 3):
            x = random_series(rng, 30, 2)
            u = random_series(rng, 30, 2)
            t = count_joint(x, u, EmbeddingConfig(2, lag))
            assert t.total == 30 - 2 - max(0, lag - 1)

    def test_matches_naive_loop(self, rng):
        # randomized sweep over x alphabets <= 5, input alphabets <= 3,
        # k <= 8, lags, lengths <= 100
        for _ in range(150):
            k = int(rng.integers(1, 9))
            n = int(rng.integers(k + 3, 100))
            nx = int(rng.integers(2, 6))
            nu = int(rng.integers(2, 4))
            lag = int(rng.integers(0, 3))
            with_u = bool(rng.integers(0, 2))
            x = random_series(rng, n, nx)
            u = random_series(rng, n, nu) if with_u else None
            cfg = EmbeddingConfig(k, lag)
            t = count_joint(x, u, cfg)
            assert table_to_dict(t) == naive_count(x, u, cfg)
            assert t.total == sum(naive_count(x, u, cfg).values())

    def test_transitions_align_with_series(self, rng):
        x = random_series(rng, 50, 2)
        t = count_joint(x, None, EmbeddingConfig(3))
        assert t.start_index == 3
        assert step_cells(t)[1].tolist() == x.data[3:].tolist()

    def test_keeps_observed_cells_only(self):
        # a symbol of 10**6 must not size the table by the alphabet
        x = SymbolSeries(Alphabet(10**6 + 1), np.array([0, 10**6, 0, 10**6, 5]))
        t = count_joint(x, None, EmbeddingConfig(1))
        assert t.cells.size == t.counts.size == 3
        assert table_to_dict(t) == {((0,), 10**6, 0): 2, ((10**6,), 0, 0): 1, ((10**6,), 5, 0): 1}

    def test_uint8_and_uint16_symbols_do_not_wrap(self, rng):
        # x at the top of uint8 (256 symbols), u in uint16 (300 symbols):
        # every code is accumulated in int64, so none wraps
        x = SymbolSeries(Alphabet(256), np.r_[255, 255, 255, 255, 0, rng.integers(0, 256, 300)])
        u = SymbolSeries(Alphabet(300), np.r_[299, 299, 299, 299, 0, rng.integers(0, 300, 300)])
        assert (x.data.dtype, u.data.dtype) == (np.uint8, np.uint16)
        for lag in (0, 1):
            cfg = EmbeddingConfig(3, lag)
            t = count_joint(x, u, cfg)
            assert table_to_dict(t) == naive_count(x, u, cfg)
            assert t.cells[t.transitions].tolist() == naive_steps([x], [u], cfg)
        # the all-top cell, far above what uint8 or uint16 hold
        assert t.cells.max() == (256**4 - 1) * 300 + 299

    def test_code_overflow_rejected(self):
        x = SymbolSeries(Alphabet(2**20), np.arange(10))
        with pytest.raises(ValueError, match="reduce k"):
            count_joint(x, None, EmbeddingConfig(3))

    def test_one_symbol_series_skips_the_history_passes(self, rng):
        # |X| = 1 keeps the cell space at |U| whatever k, and every history
        # codes 0: k Horner passes over N steps took 3.1 s here
        n, k = 4 * 10**5, 2 * 10**5
        x = SymbolSeries(Alphabet(1), np.zeros(n, dtype=np.uint8))
        u = random_series(rng, n, 2)
        start = time.perf_counter()
        t = count_joint(x, u, EmbeddingConfig(k))
        elapsed = time.perf_counter() - start
        want = np.bincount(u.data[k:], minlength=2)
        assert t.cells.tolist() == np.flatnonzero(want).tolist()
        assert t.counts.tolist() == want[want > 0].tolist()
        assert t.cells[t.transitions].tolist() == u.data[k:].tolist()
        assert elapsed < 0.5


class TestCountJointEnsemble:
    def test_pools_realisations_of_unequal_length(self, rng):
        for _ in range(50):
            nx, nu = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            cfg = EmbeddingConfig(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            with_u = bool(rng.integers(0, 2))
            lengths = rng.integers(5, 60, int(rng.integers(1, 5)))
            xs = [random_series(rng, n, nx) for n in lengths]
            us = [random_series(rng, n, nu) for n in lengths] if with_u else None
            t = count_joint(xs, us, cfg)
            assert table_to_dict(t) == naive_pooled(xs, us, cfg)
            # each realisation's steps in turn, all from start_index
            start = cfg.k + (max(0, cfg.input_lag - 1) if with_u else 0)
            assert t.start_index == start
            assert step_cells(t)[1].tolist() == [v for x in xs for v in x.data[start:].tolist()]

    def test_rejects_mixed_alphabets(self, rng):
        a, b = random_series(rng, 20, 2), random_series(rng, 20, 3)
        with pytest.raises(ValueError, match="x alphabet"):
            count_joint([a, b], None, EmbeddingConfig(1))
        with pytest.raises(ValueError, match="u alphabet"):
            count_joint([a, a], [a, b], EmbeddingConfig(1))

    def test_rejects_mismatched_inputs(self, rng):
        a, b = random_series(rng, 20, 2), random_series(rng, 21, 2)
        with pytest.raises(ValueError, match="2 input series for 3"):
            count_joint([a, a, a], [a, a], EmbeddingConfig(1))
        with pytest.raises(ValueError, match="match"):
            count_joint([a, b], [a, a], EmbeddingConfig(1))
        with pytest.raises(ValueError, match="1 input series for 2"):
            count_joint([a, a], a, EmbeddingConfig(1))
        with pytest.raises(ValueError, match="at least one"):
            count_joint([], None, EmbeddingConfig(1))

    @pytest.mark.parametrize("order", ["missing second", "missing first"])
    def test_rejects_a_missing_input_series(self, rng, order):
        # an input for some realisations only would code the others without
        # an input digit, on the wrong cells of one table
        x, u = random_series(rng, 20, 2), random_series(rng, 20, 2)
        us = [u, None] if order == "missing second" else [None, u]
        with pytest.raises(ValueError, match="must be a SymbolSeries"):
            count_joint([x, x], us, EmbeddingConfig(2))
        with pytest.raises(ValueError, match="must be a SymbolSeries"):
            count_joint(us, [u, u], EmbeddingConfig(2))

    def test_shortest_realisation_sets_the_length_check(self, rng):
        long, short = random_series(rng, 20, 2), random_series(rng, 3, 2)
        with pytest.raises(ValueError, match="length 3 too short"):
            count_joint([long, short], None, EmbeddingConfig(3))


def naive_steps(xs, us, cfg):
    """Each pooled step's flat cell code, by a direct loop."""
    k, lag = cfg.k, cfg.input_lag
    codes = []
    for x, u in zip(xs, us or [None] * len(xs)):
        nu = u.alphabet.size if u is not None else 1
        start = k + (max(0, lag - 1) if u is not None else 0)
        for m in range(start, len(x)):
            code = 0
            for v in x.data[m - k : m + 1].tolist():
                code = code * x.alphabet.size + v
            codes.append(code * nu + (int(u.data[m - lag]) if u is not None else 0))
    return codes


class TestCountingPaths:
    """Cells are ranked by one dense bincount when the cell space
    |X|^(k+1)·|U| is at most the number of transitions, else by sorting."""

    @staticmethod
    def draw(rng, offset):
        """Pooled realisations whose transitions number the cell space plus
        ``offset``, or None when that leaves fewer than one per realisation."""
        nx, k, lag = int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(0, 4))
        nu = int(rng.integers(1, 4)) if rng.integers(0, 2) else None
        space = nx ** (k + 1) * (nu or 1)
        n, r = space + offset, int(rng.integers(1, 4))
        if n < r:
            return None
        start = k + (max(0, lag - 1) if nu else 0)
        cuts = np.sort(rng.choice(np.arange(1, n), r - 1, replace=False))
        lengths = np.diff([0, *cuts, n]) + start
        xs = [random_series(rng, int(m), nx) for m in lengths]
        us = [random_series(rng, int(m), nu) for m in lengths] if nu else None
        return xs, us, EmbeddingConfig(k, lag), space, n

    def test_paths_agree_at_the_threshold(self, rng, monkeypatch):
        rank = symseq._rank_codes
        unique = np.unique
        seen = set()
        for _ in range(60):
            for offset in (-1, 0, 1):
                case = self.draw(rng, offset)
                if case is None:
                    continue
                xs, us, cfg, space, n = case
                sorts = []
                with monkeypatch.context() as m:
                    m.setattr(np, "unique", lambda *a, **kw: sorts.append(1) or unique(*a, **kw))
                    natural = count_joint(xs, us, cfg)
                # the dense pass runs exactly when the space fits the data
                assert bool(sorts) == (space > n)
                seen.add(space > n)
                tables = [natural]
                with monkeypatch.context() as m:
                    # a space of 0 takes the dense pass, one above N the sort
                    for forced in (lambda c: 0, lambda c: c.size + 1):
                        m.setattr(symseq, "_rank_codes", lambda c, s, f=forced: rank(c, f(c)))
                        tables.append(count_joint(xs, us, cfg))
                for t in tables:
                    for name in ("cells", "counts", "transitions"):
                        assert np.array_equal(getattr(t, name), getattr(natural, name))
                    assert t.start_index == natural.start_index
                assert table_to_dict(natural) == naive_pooled(xs, us, cfg)
                assert natural.cells[natural.transitions].tolist() == naive_steps(xs, us, cfg)
        assert seen == {False, True}

    @pytest.mark.parametrize("chunk", [1, 100])
    def test_dense_pass_counts_in_chunks(self, rng, monkeypatch, chunk):
        # 997 steps over 48 cells: a chunk holds at least the 48 cells, so
        # the chunk of 1 counts 48 codes at a time; neither divides 997
        x, u = random_series(rng, 1000, 2), random_series(rng, 1000, 3)
        cfg = EmbeddingConfig(3, 1)
        monkeypatch.setattr(symseq, "_COUNT_CHUNK", chunk)
        t = count_joint(x, u, cfg)
        assert table_to_dict(t) == naive_count(x, u, cfg)
        assert t.cells[t.transitions].tolist() == naive_steps([x], [u], cfg)


class TestCodeDtypeEdges:
    """Each step's cell code is built in the narrowest dtype that holds the
    cell space |X|^(k+1)·|U| and the multipliers |X| and |U|; the tables
    are exact at every edge of uint8, uint16 and uint32."""

    @staticmethod
    def check(xs, us, cfg, code_dtype):
        rank = symseq._rank_codes
        seen = []
        with pytest.MonkeyPatch.context() as m:
            m.setattr(symseq, "_rank_codes", lambda c, s: seen.append(c.dtype) or rank(c, s))
            t = count_joint(xs, us, cfg)
        assert seen == [code_dtype]
        assert table_to_dict(t) == naive_pooled(xs, us, cfg)
        assert t.cells[t.transitions].tolist() == naive_steps(xs, us, cfg)
        assert t.cells.dtype == t.counts.dtype == np.int64
        want = np.uint8 if t.cells.size <= 2**8 else np.uint16 if t.cells.size <= 2**16 else np.uint32
        assert t.transitions.dtype == symseq._index_dtype(t.cells.size) == want
        return t

    @pytest.mark.parametrize(
        "k, nu, code_dtype",
        [(7, 1, np.uint8), (7, 2, np.uint16), (15, 1, np.uint16), (15, 2, np.uint32),
         (31, 1, np.uint32), (31, 2, np.int64)],
    )
    def test_binary_spaces_at_the_edges(self, rng, k, nu, code_dtype):
        # spaces 2^8, 2^9, 2^16, 2^17, 2^32 and 2^33; 600 steps count 2^8
        # and 2^9 densely and sort the wider ones.  A leading run of ones
        # reaches the top cell, space - 1.
        n = 600 if k == 7 else 300
        top = np.ones(k + 1, dtype=int)
        x = bseries(np.r_[top, rng.integers(0, 2, n)])
        u = SymbolSeries(Alphabet(nu), np.r_[top, rng.integers(0, 2, n)] % nu) if nu > 1 else None
        t = self.check([x], None if u is None else [u], EmbeddingConfig(k), code_dtype)
        assert t.cells.max() == 2 ** (k + 1) * nu - 1

    @pytest.mark.parametrize("k, code_dtype", [(1, np.uint8), (4, np.uint16)])
    def test_alphabets_not_powers_of_two(self, rng, k, code_dtype):
        # |X| = 3 with |U| = 5: spaces 45 and 1215, both counted densely
        x, u = random_series(rng, 2000, 3), random_series(rng, 2000, 5)
        self.check([x], [u], EmbeddingConfig(k, 1), code_dtype)

    @pytest.mark.parametrize("nu, n, code_dtype", [(256, 600, np.uint16), (65_536, 300, np.uint32)])
    def test_one_symbol_x_with_a_wide_input(self, rng, nu, n, code_dtype):
        # the space is |U| itself, and the multiplier |U| does not fit the
        # space's own dtype, so the codes take the next one
        x = SymbolSeries(Alphabet(1), np.zeros(n, dtype=int))
        u = SymbolSeries(Alphabet(nu), np.r_[rng.integers(0, nu, n - 1), nu - 1])
        t = self.check([x], [u], EmbeddingConfig(1), code_dtype)
        assert t.cells.max() == nu - 1

    @pytest.mark.parametrize("k, code_dtype", [(7, np.uint16), (15, np.uint32)])
    def test_pooled_ensemble_with_lag(self, rng, k, code_dtype):
        # three realisations with input_lag 3: 2^9 cells counted densely
        # over about 900 steps, 2^17 sorted
        xs = [random_series(rng, n, 2) for n in (300, 250, 400)]
        us = [random_series(rng, n, 2) for n in (300, 250, 400)]
        self.check(xs, us, EmbeddingConfig(k, 3), code_dtype)


class TestTake:
    """``_take`` gathers ``_TAKE_CHUNK`` steps at a time; it must equal a
    plain fancy index whatever the index dtype and however the length
    falls against the chunk."""

    @pytest.mark.parametrize("index_dtype", [np.uint8, np.uint16, np.int32, np.int64])
    @pytest.mark.parametrize("value_dtype", [np.float64, np.int32])
    # Lengths within one chunk and at a chunk's edges.
    @pytest.mark.parametrize(
        "size",
        [0, 1, 2**13 - 1, 2**13, 2**13 + 1,
         symseq._TAKE_CHUNK - 1, symseq._TAKE_CHUNK, symseq._TAKE_CHUNK + 1],
    )
    def test_equals_fancy_index(self, rng, index_dtype, value_dtype, size):
        values = rng.integers(-1000, 1000, 200).astype(value_dtype)
        index = rng.integers(0, values.size, size).astype(index_dtype)
        index[:1] = values.size - 1
        got = symseq._take(values, index)
        assert got.dtype == values.dtype
        assert np.array_equal(got, values[index])

    def test_gathers_rows(self, rng):
        values = rng.integers(0, 300, (50, 7)).astype(np.uint16)
        index = rng.integers(0, 50, 3 * symseq._TAKE_CHUNK + 5).astype(np.uint8)
        assert np.array_equal(symseq._take(values, index), values[index])
