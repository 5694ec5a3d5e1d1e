"""Memory budgets per time step, read from tracemalloc.

numpy reports its buffers to tracemalloc, so a peak is a count of bytes the
code asked for, not resident-set noise.  Each bound is the measured peak
with about 25 % headroom: a binary symbol takes one byte and a step's index
into the cells four, so an int64 copy of either breaks the bound.
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
from infostorage.cli import _write_json_line

N = 10**6


def peak_bytes_per_step(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / N


@pytest.mark.parametrize(
    "spec", [ProcessSpec("markov_binary", p_stay=0.7, seed=1), ProcessSpec("bernoulli", p=0.3, seed=1)]
)
def test_generate_input_budget(spec):
    # measured 10.8 (markov) and 9.0 (bernoulli): the float draws, their
    # comparison, and the uint8 series with its copy
    assert peak_bytes_per_step(generate_input, spec, N) < 13.5


def test_count_joint_budget():
    # measured 5.1: the uint8 cell codes (64 cells at k = 4 with an input)
    # and the int32 step indices
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    x = simulate_unit(UnitSpec("xor_memory"), u)
    assert peak_bytes_per_step(count_joint, x, u, EmbeddingConfig(4)) < 6.4


def test_simulate_unit_budget():
    # measured 10.0: the int64 step buffer, the uint8 input padded for it,
    # and the uint8 outputs with the series' copy of them
    u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), N)
    assert peak_bytes_per_step(simulate_unit, UnitSpec("xor_memory"), u) < 12.5


def test_count_joint_sort_path_budget():
    # measured 29.0: 65 536 symbols at k = 1 make a cell space of 2^32, so
    # the uint32 codes are sorted, and nearly every step has its own cell:
    # the codes, their sorted copy and np.unique's run bounds, then the
    # int32 step indices beside the int64 cells and counts
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
    record = {"measure": "ais", "local": res.local.values, "start_index": res.local.start_index}
    assert peak_bytes_per_step(_write_json_line, io.StringIO(), record, table.transitions) < 26
