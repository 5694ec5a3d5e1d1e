"""Memory budgets per time step, read from tracemalloc.

numpy reports its buffers to tracemalloc, so a peak is a count of bytes the
code asked for, not resident-set noise.  Each bound is the measured peak
with about 25 % headroom: a binary symbol takes one byte, and so does a
step's index into at most 256 observed cells, so a wider copy of either
breaks the bound.
"""

import io
import tracemalloc

import numpy as np
import pytest

from infostorage import (
    Alphabet,
    EmbeddingConfig,
    ProcessSpec,
    SymbolSeries,
    UnitSpec,
    count_joint,
    generate_input,
    infodyn,
    simulate_unit,
)
from infostorage.cli import _load_series, _read_csv, _read_csv_cells, _write_csv, _write_profile

N = 10**6


def peak_bytes_per_step(fn, *args, steps=N):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / steps


@pytest.mark.parametrize(
    "spec", [ProcessSpec("markov_binary", p_stay=0.7, seed=1), ProcessSpec("bernoulli", p=0.3, seed=1)]
)
def test_generate_input_budget(spec):
    # measured 2.05 for both: the uint8 series with its copy; the raw draws
    # are made 2^16 at a time and the running XOR is taken in place, so
    # neither holds a byte per step
    assert peak_bytes_per_step(generate_input, spec, N) < 3.5


def test_count_joint_budget():
    # measured 2.27: the uint8 cell codes (64 cells at k = 4 with an input)
    # and the step indices into the 64 observed cells, uint8 too; an int32
    # index (4 bytes) breaks the bound
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    assert peak_bytes_per_step(count_joint, x, u, EmbeddingConfig(4)) < 2.6
    # measured 4.34: at k = 10, 4096 cells, the codes and the step indices
    # are uint16; an int32 index or int32 codes (2 more bytes) break the
    # bound
    assert peak_bytes_per_step(count_joint, x, u, EmbeddingConfig(10)) < 5.4


def test_simulate_unit_budget():
    # measured 2.28: the uint8 outputs with the series' copy of them, and
    # one uint16 code per word of 11 inputs; the outputs are gathered
    # through an intp buffer of 2^15 words, so no 8-byte array per step or
    # per word is made
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    assert peak_bytes_per_step(simulate_unit, UnitSpec("xor_memory"), u) < 2.9


def test_count_joint_sort_path_budget():
    # measured 29.0: 65 536 symbols at k = 1 make a cell space of 2^32, so
    # the uint32 codes are sorted, and nearly every step has its own cell:
    # the codes, their sorted copy and np.unique's run bounds, then the
    # uint32 step indices beside the int64 cells and counts
    x = SymbolSeries(Alphabet(2**16), np.random.default_rng(0).permutation(N) % 2**16)
    assert peak_bytes_per_step(count_joint, x, None, EmbeddingConfig(1)) < 36


def test_write_local_profile_budget():
    # measured 20.6: the text itself, about 20 characters a step; each of
    # the 64 cells is formatted once and the steps' text is gathered a
    # block at a time, so no 8-byte array per step is made
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    table = count_joint(x, u, EmbeddingConfig(4))
    (res,) = infodyn.evaluate(["ais"], table, local=True)
    assert peak_bytes_per_step(_write_profile, io.StringIO(), res.local.cell_values, table.transitions) < 26


class _DiscardText(io.TextIOBase):
    def write(self, text):
        return len(text)


@pytest.mark.parametrize("k", [1, 4])
def test_write_local_profile_chunk_budget(k):
    # measured 0.71 at k = 1 and 0.59 at k = 4 (3 and 9 distinct values):
    # the table of every tuple of 7 (k = 1) or 3 (k = 4) cell texts, and
    # the text of one write of 2^14 steps; a write of 2^16 steps breaks it.
    # AIS, whose texts are longer here, reads 1.04 at k = 1
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    table = count_joint(x, u, EmbeddingConfig(k))
    (res,) = infodyn.evaluate(["icais"], table, local=True)
    assert peak_bytes_per_step(_write_profile, _DiscardText(), res.local.cell_values, table.transitions) < 1


@pytest.mark.parametrize("measure", ["ais", "icais"])
def test_local_profile_budget(measure):
    # measured 0.01: one float64 per cell (64 cells at k = 4 with an
    # input) and the cell lookups; the profile shares the table's step
    # index, so any array of one byte per step breaks the bound
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    table = count_joint(x, u, EmbeddingConfig(4))
    assert peak_bytes_per_step(infodyn.local_profile, measure, table) < 1


def test_local_profile_values_budget():
    # measured 8.26: reading .values gathers the float64 profile itself;
    # the uint8 step index is cast to intp 2^15 steps at a time, so an intp
    # copy of it (8 more bytes per step) breaks the bound
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    profile = infodyn.local_profile("icais", count_joint(x, u, EmbeddingConfig(4)))
    assert peak_bytes_per_step(lambda: profile.values) < 10


def _binary_csv(path, n):
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), n)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    with path.open("wb") as fh:
        _write_csv(fh, {"input": u.data, "output": x.data})
    return path


def test_load_series_budget(tmp_path):
    # measured 6.2 per row of an input,output file, while its body is
    # tokenised: the file's 4 bytes a row, read once, the block of both
    # columns, uint8 as every value fits (2), and about 0.2 MB of one
    # chunk's temporaries, whatever N.  A second copy of the
    # file (4 more) or an int32 block (6 more) breaks the bound
    path = _binary_csv(tmp_path / "long.csv", N)
    assert peak_bytes_per_step(_load_series, str(path), ["output"], ["input"]) < 9.6


def test_read_csv_unended_budget(tmp_path):
    # measured 6.2 per row, as with a final line end: the unended last row
    # is closed in a copy of its own chunk, so a copy of the file to close
    # it (4 more) breaks the bound of the file that has one
    path = _binary_csv(tmp_path / "unended.csv", N)
    path.write_bytes(path.read_bytes().rstrip(b"\n"))
    assert peak_bytes_per_step(_read_csv, str(path)) < 9.6


def test_read_csv_one_digit_budget(tmp_path):
    # measured 6.2 per row of generate's input,output file: the file's 4
    # bytes a row and the uint8 block (2); each chunk of one-digit rows is
    # read as one block, so no chunk holds more than a few copies of its
    # own bytes.  The general tokenizer's temporaries (1.5 more) break it
    path = _binary_csv(tmp_path / "digits.csv", N)
    assert peak_bytes_per_step(_read_csv, str(path)) < 7.7


def test_read_csv_cells_budget(tmp_path):
    # measured 17.2 per row of an input,output file read cell by cell: the
    # two int64 cells (16) with their array's spare room; the text reader
    # decodes the file's bytes in place.  A copy of the file's 4 bytes a
    # row, or a Python object per row (a list of two ints is 144 bytes),
    # breaks the bound
    n = 10**5
    path = _binary_csv(tmp_path / "cells.csv", n)
    data = path.read_bytes()
    assert peak_bytes_per_step(_read_csv_cells, data, str(path), steps=n) < 20


class _Discard(io.RawIOBase):
    def write(self, data):
        return len(data)


def test_write_csv_rows_budget():
    # measured 0.52, whatever N: one block of 2^16 rows' bytes and its
    # copy for the write; the whole file's bytes at once (4 a row), or an
    # int64 code per step (8), breaks it
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    assert peak_bytes_per_step(_write_csv, _Discard(), {"input": u.data, "output": x.data}) < 2
