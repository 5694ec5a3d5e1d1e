import numpy as np
import pytest

from infostorage import (
    BINARY,
    Distribution,
    EmbeddingConfig,
    count_joint,
    plugin_distribution,
)

from conftest import random_series


class TestDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Distribution([0.5, 0.4])

    def test_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            Distribution([1.5, -0.5])

    def test_nan_rejected(self):
        # NaN compares false both ways, so a check for negatives would let it by
        with pytest.raises(ValueError, match="non-negative"):
            Distribution([0.5, np.nan, 0.5])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="sum to 0.0"):
            Distribution([])


class TestPluginDistribution:
    def test_normalizes_counts(self, rng):
        x = random_series(rng, 50, 2)
        t = count_joint(x, None, EmbeddingConfig(1))
        d = plugin_distribution(t)
        dense = np.zeros(d.probs.size)
        dense[t.cells] = t.counts
        assert np.allclose(d.probs.ravel() * t.total, dense)

    def test_degenerate(self):
        from infostorage import SymbolSeries

        t = count_joint(SymbolSeries(BINARY, [0] * 6), None, EmbeddingConfig(1))
        d = plugin_distribution(t)
        assert d.probs[0, 0, 0] == 1.0

    def test_empty_rejected(self):
        from infostorage.symseq import JointCountTable

        # the table refuses to be empty, so no plug-in distribution meets one
        none = np.zeros(0, dtype=int)
        with pytest.raises(ValueError, match="empty count table"):
            JointCountTable(1, BINARY, None, none, none, none)
