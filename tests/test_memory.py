"""Memory budgets per time step, read from tracemalloc.

numpy reports its buffers to tracemalloc, so a peak is a count of bytes the
code asked for, not resident-set noise.  Each bound is the measured peak
with about 25 % headroom: a binary symbol takes one byte and a step's index
into the cells four, so an int64 copy of either breaks the bound.
"""

import tracemalloc

import pytest

from infostorage import EmbeddingConfig, ProcessSpec, UnitSpec, count_joint, generate_input, simulate_unit

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
