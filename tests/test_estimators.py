import numpy as np
import pytest

from infostorage import (
    Alphabet,
    BINARY,
    Distribution,
    EmbeddingConfig,
    ProcessSpec,
    UnitSpec,
    conditional_mutual_information,
    count_joint,
    entropy,
    mutual_information,
    oracle_joint,
    plugin_distribution,
)

from conftest import random_series

H_BERN_07 = -(0.7 * np.log2(0.7) + 0.3 * np.log2(0.3))  # 0.8812908992306927


def dist(probs, sizes=None):
    probs = np.asarray(probs, dtype=float)
    sizes = sizes or probs.shape
    return Distribution(tuple(Alphabet(s) for s in sizes), probs)


def random_dist(rng, sizes):
    p = rng.random(sizes)
    return dist(p / p.sum(), sizes)


class TestDistribution:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            dist([0.5, 0.4])

    def test_must_be_nonnegative(self):
        with pytest.raises(ValueError):
            dist([1.5, -0.5])

    def test_shape_must_match_axes(self):
        with pytest.raises(ValueError):
            Distribution((Alphabet(3),), np.array([0.5, 0.5]))


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

        none = np.zeros(0, dtype=int)
        empty = JointCountTable(1, BINARY, None, none, none, none)
        with pytest.raises(ValueError):
            plugin_distribution(empty)


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(dist([0.5, 0.5]), [0]) == pytest.approx(1.0, abs=1e-15)

    def test_point_mass(self):
        assert entropy(dist([1.0, 0.0]), [0]) == 0.0

    def test_bernoulli_07(self):
        assert entropy(dist([0.3, 0.7]), [0]) == pytest.approx(H_BERN_07, abs=1e-15)

    def test_requires_axes(self):
        with pytest.raises(ValueError):
            entropy(dist([0.5, 0.5]), [])

    def test_bounded_by_log_alphabet(self, rng):
        for _ in range(50):
            d = random_dist(rng, (3, 2))
            h = entropy(d, [0, 1])
            assert -1e-12 <= h <= np.log2(6) + 1e-12


class TestConditionalEntropy:
    def test_markov_chain_step(self):
        # stationary pair distribution of the repeat-with-0.7 chain:
        # H(next | previous) = H(previous, next) - H(previous)
        d = dist([[0.35, 0.15], [0.15, 0.35]])
        assert entropy(d, [0, 1]) - entropy(d, [0]) == pytest.approx(H_BERN_07, abs=1e-12)


class TestMutualInformation:
    def test_independent(self):
        d = dist(np.outer([0.3, 0.7], [0.6, 0.4]))
        assert mutual_information(d, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_identical(self):
        d = dist([[0.5, 0.0], [0.0, 0.5]])
        assert mutual_information(d, [0], [1]) == pytest.approx(1.0, abs=1e-12)

    def test_markov_pair(self):
        d = dist([[0.35, 0.15], [0.15, 0.35]])
        assert mutual_information(d, [0], [1]) == pytest.approx(
            1.0 - H_BERN_07, abs=1e-12
        )

    def test_symmetry(self, rng):
        for _ in range(100):
            d = random_dist(rng, (3, 3))
            assert mutual_information(d, [0], [1]) == pytest.approx(
                mutual_information(d, [1], [0]), abs=1e-12
            )

    def test_kl_consistency(self, rng):
        # I(A;B) equals the term-wise KL sum
        for _ in range(100):
            d = random_dist(rng, (3, 2))
            p = d.probs
            pa = p.sum(1, keepdims=True)
            pb = p.sum(0, keepdims=True)
            kl = float((p * np.log2(p / (pa * pb))).sum())
            assert mutual_information(d, [0], [1]) == pytest.approx(kl, abs=1e-10)


class TestConditionalMutualInformation:
    def test_independent(self, rng):
        p = np.einsum("i,j,k->ijk", [0.4, 0.6], [0.5, 0.5], [0.2, 0.8])
        d = dist(p)
        assert conditional_mutual_information(d, [0], [1], [2]) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_xor_synergy(self):
        # A = B xor G, B and G independent uniform
        p = np.zeros((2, 2, 2))
        for b in range(2):
            for g in range(2):
                p[b ^ g, b, g] = 0.25
        d = dist(p)
        assert conditional_mutual_information(d, [0], [1], [2]) == pytest.approx(
            1.0, abs=1e-12
        )
        # unconditioned, the pair is independent
        assert mutual_information(d, [0], [1]) == pytest.approx(0.0, abs=1e-12)

    def test_xor_unit_conditioned_storage_is_one_bit(self):
        j = oracle_joint(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 1)
        assert conditional_mutual_information(j, [0], [1], [2]) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_nonnegative_and_symmetric(self, rng):
        for _ in range(100):
            d = random_dist(rng, (2, 3, 2))
            v = conditional_mutual_information(d, [0], [1], [2])
            assert v >= -1e-12
            assert v == pytest.approx(
                conditional_mutual_information(d, [1], [0], [2]), abs=1e-12
            )

    def test_overlap_rejected(self, rng):
        d = random_dist(rng, (2, 2, 2))
        with pytest.raises(ValueError):
            conditional_mutual_information(d, [0], [1], [1])


class TestChainRule:
    def test_chain_rule_random_distributions(self, rng):
        # H(A,B) = H(A) + H(B) - I(A;B) across random shapes up to 4 variables
        shapes = [(2, 2), (3, 2), (2, 3, 2), (3, 3, 2), (2, 2, 2, 3)]
        for _ in range(200):
            for shape in shapes:
                d = random_dist(rng, shape)
                axes = list(range(len(shape)))
                a = axes[: len(shape) // 2] or [0]
                b = [ax for ax in axes if ax not in a]
                lhs = entropy(d, a + b)
                rhs = entropy(d, a) + entropy(d, b) - mutual_information(d, a, b)
                assert lhs == pytest.approx(rhs, abs=1e-10)


class TestDataProcessing:
    def test_forwarding_output_fully_determined_by_input(self):
        # deterministic forwarding: I(next input; next output) = H(next output)
        j = oracle_joint(ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("forwarding"), 1)
        assert mutual_information(j, [2], [1]) == pytest.approx(
            entropy(j, [1]), abs=1e-12
        )
