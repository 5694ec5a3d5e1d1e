import numpy as np
import pytest

from infostorage import (
    BINARY,
    MEASURES,
    Alphabet,
    Distribution,
    EmbeddingConfig,
    ProcessSpec,
    SymbolSeries,
    TableUnit,
    UnitSpec,
    ais,
    compute,
    conditional_mutual_information,
    count_joint,
    evaluate,
    generate_input,
    icais,
    interaction,
    local_ais,
    local_icais,
    local_interaction,
    mutual_information,
    oracle_joint,
    plugin_distribution,
    simulate_unit,
)
from infostorage.infodyn import local_profile

from conftest import random_series, step_cells

U1 = ProcessSpec("bernoulli", p=0.5, seed=11)
U2 = ProcessSpec("markov_binary", p_stay=0.7, seed=22)
FWD = UnitSpec("forwarding")
XOR = UnitSpec("xor_memory")

AIS_FWD_U2 = 0.3 * np.log2(0.6) + 0.7 * np.log2(1.4)


def empirical_table(proc, unit, n, k=1, seed=None):
    if seed is not None:
        proc = ProcessSpec(proc.kind, p=proc.p, p_stay=proc.p_stay, seed=seed)
    u = generate_input(proc, n)
    x = simulate_unit(unit, u)
    return count_joint(x, u, EmbeddingConfig(k))


class TestLocalAis:
    def test_constant_series_is_zero(self):
        t = count_joint(SymbolSeries(BINARY, [0] * 20), None, EmbeddingConfig(1))
        prof = local_ais(t)
        assert np.all(prof.values == 0.0)

    def test_forwarding_u2_local_values(self):
        # against the exact transition law: repeat -> log2 1.4, switch -> log2 0.6
        t = empirical_table(U2, FWD, 200_000)
        d = oracle_joint(U2, FWD, 1)
        prof = local_ais(t, d)
        x_prev, x_next, _ = step_cells(t)
        repeat = x_prev == x_next
        assert np.allclose(prof.values[repeat], np.log2(1.4), atol=1e-12)
        assert np.allclose(prof.values[~repeat], np.log2(0.6), atol=1e-12)

    def test_mean_matches_average(self, rng):
        # and on a table pooled over realisations of unequal lengths
        lengths = (40, 300, 17)
        pooled = count_joint(
            [random_series(rng, n, 3) for n in lengths],
            [random_series(rng, n, 2) for n in lengths],
            EmbeddingConfig(2),
        )
        for t in (empirical_table(U2, FWD, 100_000), pooled):
            prof = local_ais(t)
            assert len(prof) == t.total
            assert prof.mean == pytest.approx(ais(t).average_bits, abs=1e-10)

    def test_zero_probability_transition_reported(self):
        # evaluate data against a distribution that forbids one of its cells
        t = count_joint(SymbolSeries(BINARY, [0, 1, 0, 1, 0]), None, EmbeddingConfig(1))
        other = count_joint(SymbolSeries(BINARY, [0, 0, 0, 0, 0]), None, EmbeddingConfig(1))
        with pytest.raises(ValueError, match="zero"):
            local_ais(t, plugin_distribution(other))


class TestAis:
    def test_forwarding_u1_zero(self):
        assert ais(oracle_joint(U1, FWD, 1), k=1).average_bits == pytest.approx(0.0, abs=1e-12)

    def test_forwarding_u2(self):
        assert ais(oracle_joint(U2, FWD, 1), k=1).average_bits == pytest.approx(
            AIS_FWD_U2, abs=1e-12
        )

    def test_xor_u1_zero(self):
        assert ais(oracle_joint(U1, XOR, 1), k=1).average_bits == pytest.approx(0.0, abs=1e-12)

    def test_oracle_source_marked(self):
        res = ais(oracle_joint(U1, FWD, 1), k=1)
        assert res.source == "oracle"
        assert res.k == 1


class TestIcais:
    def test_forwarding_both_inputs_zero(self):
        for proc in (U1, U2):
            assert icais(oracle_joint(proc, FWD, 1), k=1).average_bits == pytest.approx(
                0.0, abs=1e-12
            )

    def test_xor_u1_one_bit(self):
        assert icais(oracle_joint(U1, XOR, 1), k=1).average_bits == pytest.approx(
            1.0, abs=1e-12
        )

    def test_xor_u2_one_bit(self):
        assert icais(oracle_joint(U2, XOR, 1), k=1).average_bits == pytest.approx(
            1.0, abs=1e-12
        )

    def test_requires_input_dimension(self):
        t = count_joint(SymbolSeries(BINARY, [0, 1, 0, 1]), None, EmbeddingConfig(1))
        with pytest.raises(ValueError, match="input"):
            icais(t)

    def test_forwarding_locals_all_zero(self):
        t = empirical_table(U2, FWD, 10_000)
        assert np.allclose(local_icais(t).values, 0.0, atol=1e-12)

    def test_xor_locals_all_one(self):
        for proc in (U1, U2):
            t = empirical_table(proc, XOR, 100_000)
            d = oracle_joint(proc, XOR, 1)
            assert np.allclose(local_icais(t, d).values, 1.0, atol=1e-12)


class TestInteraction:
    def test_xor_u1_pure_synergy(self):
        assert interaction(oracle_joint(U1, XOR, 1), k=1).average_bits == pytest.approx(
            1.0, abs=1e-12
        )

    def test_forwarding_u2_redundancy(self):
        assert interaction(oracle_joint(U2, FWD, 1), k=1).average_bits == pytest.approx(
            -AIS_FWD_U2, abs=1e-12
        )

    def test_forwarding_u1_zero(self):
        assert interaction(oracle_joint(U1, FWD, 1), k=1).average_bits == pytest.approx(
            0.0, abs=1e-12
        )

    def test_local_identity_on_arbitrary_data(self, rng):
        # central self-check: local icais = local ais + local interaction
        for _ in range(10):
            nx = int(rng.integers(2, 4))
            nu = int(rng.integers(2, 4))
            x = random_series(rng, 2000, nx)
            u = random_series(rng, 2000, nu)
            t = count_joint(x, u, EmbeddingConfig(int(rng.integers(1, 3))))
            a = local_ais(t)
            c = local_icais(t)
            i = local_interaction(t)
            assert np.max(np.abs(c.values - a.values - i.values)) < 1e-12


class TestEnsembleAverage:
    """An ensemble is one table pooled over its realisations."""

    def test_shared_drive_ensemble_converges(self):
        # independent xor units driven by one i.i.d. input
        u = generate_input(U1, 100_000)
        xs = [simulate_unit(UnitSpec("xor_memory", initial_state=init), u) for init in (0, 1) * 5]
        res = icais(count_joint(xs, [u] * len(xs), EmbeddingConfig(1)))
        assert res.n_transitions == 10 * (100_000 - 1)
        assert abs(res.average_bits - 1.0) < 0.01

    def test_pooled_estimate_approaches_oracle(self):
        # R short forwarding runs under markov(0.7): with 294 transitions
        # per run and 2^8 cells at k = 6, each run's own plug-in estimate
        # is biased upwards, and the mean of those never converges.
        k, rows = 6, 300
        cfg = EmbeddingConfig(k)
        exact = {r.measure: r.average_bits for r in evaluate(MEASURES, oracle_joint(U2, FWD, k), k=k)}
        pooled_gap, mean_gap = [], []
        for n_runs in (4, 64, 1024):
            us = [
                generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=100 + r), rows)
                for r in range(n_runs)
            ]
            xs = [simulate_unit(FWD, u) for u in us]
            pooled = evaluate(MEASURES, count_joint(xs, us, cfg))
            assert all(r.n_transitions == n_runs * (rows - k) for r in pooled)
            per_run = [evaluate(MEASURES, count_joint(x, u, cfg)) for x, u in zip(xs, us)]
            pooled_gap.append(max(abs(r.average_bits - exact[r.measure]) for r in pooled))
            mean_gap.append(max(
                abs(np.mean([run[i].average_bits for run in per_run]) - exact[m])
                for i, m in enumerate(MEASURES)
            ))
        assert pooled_gap[0] > pooled_gap[1] > pooled_gap[2]
        assert pooled_gap[2] < 0.005
        assert min(mean_gap) > 0.1

    def test_repeated_realisation_is_bit_identical(self, rng):
        for _ in range(20):
            nx, nu = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            cfg = EmbeddingConfig(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            x, u = random_series(rng, 300, nx), random_series(rng, 300, nu)
            one = evaluate(MEASURES, count_joint(x, u, cfg), local=True)
            two = evaluate(MEASURES, count_joint([x, x], [u, u], cfg), local=True)
            for a, b in zip(one, two):
                assert a.average_bits == b.average_bits
                assert b.n_transitions == 2 * a.n_transitions
                assert b.local.start_index == a.local.start_index
                assert np.array_equal(b.local.values, np.tile(a.local.values, 2))


def sweep(x, u, ks, measures, input_lag=0):
    """A k-sweep as the library gives it: count once at max(k), then
    evaluate each k from that table."""
    table = count_joint(x, u, EmbeddingConfig(max(ks), input_lag))
    return [r for k in ks for r in evaluate(measures, table, k=k)]


def trimmed_count(xs, us, drop, k, lag):
    """The table of each realisation with its first ``drop`` samples cut."""
    groups = [
        [SymbolSeries(s.alphabet, s.data[drop:]) for s in group] if group else None
        for group in (xs, us)
    ]
    return count_joint(*groups, EmbeddingConfig(k, lag))


class TestSweepK:
    def test_common_alignment(self, rng):
        x = random_series(rng, 5000, 2)
        u = random_series(rng, 5000, 2)
        results = sweep(x, u, range(1, 4), ["ais"])
        # all k share the start index of the largest k
        assert all(r.n_transitions == 5000 - 3 for r in results)

    def test_realisations_share_the_alignment(self, rng):
        # each realisation drops its first max(k) samples, as trimming it would;
        # (lengths, |X|, |U| or None for no input, lag), one series passed bare
        cases = [
            ((50, 80), 2, 3, 2),
            ((50, 80), 3, 2, 0),
            ((60, 45, 70), 2, None, 2),
            ((90,), 3, None, 0),
            ((90,), 2, 2, 0),
        ]
        for lengths, nx, nu, lag in cases:
            xs = [random_series(rng, n, nx) for n in lengths]
            us = [random_series(rng, n, nu) for n in lengths] if nu else None
            measures = MEASURES if nu else ["ais"]
            x_arg, u_arg = (xs[0], us and us[0]) if len(lengths) == 1 else (xs, us)
            results = sweep(x_arg, u_arg, [1, 3], measures, input_lag=lag)
            assert [r.k for r in results] == [1] * len(measures) + [3] * len(measures)
            # without an input the lag is ignored
            drop = 3 + max(0, lag - 1) if nu else 3
            for r in results:
                want = compute(r.measure, trimmed_count(xs, us, 3 - r.k, r.k, lag))
                assert r.n_transitions == want.n_transitions == sum(n - drop for n in lengths)
                assert r.average_bits == want.average_bits

    def test_shorter_k_equals_trimmed_count(self, rng):
        # a table counted at k_max, evaluated at k, gives the averages and the
        # local profiles of the series counted at k after dropping its first
        # k_max - k samples, float for float
        for _ in range(40):
            nx, nu = int(rng.integers(2, 5)), int(rng.integers(0, 4))
            k_max, lag = int(rng.integers(2, 6)), int(rng.integers(0, 4))
            lengths = rng.integers(k_max + lag + 2, 200, int(rng.integers(1, 4)))
            xs = [random_series(rng, int(n), nx) for n in lengths]
            us = [random_series(rng, int(n), nu) for n in lengths] if nu else None
            measures = MEASURES if nu else ["ais"]
            table = count_joint(xs, us, EmbeddingConfig(k_max, lag))
            for k in range(1, k_max + 1):
                got = evaluate(measures, table, k=k, local=True)
                want = evaluate(measures, trimmed_count(xs, us, k_max - k, k, lag), local=True)
                for a, b in zip(got, want):
                    assert (a.k, a.n_transitions) == (b.k, b.n_transitions) == (k, table.total)
                    assert a.average_bits == b.average_bits
                    assert a.local.start_index == table.start_index
                    assert np.array_equal(a.local.values, b.local.values)

    def test_k_outside_table_raises(self, rng):
        table = count_joint(random_series(rng, 100, 2), random_series(rng, 100, 2), EmbeddingConfig(3))
        for k in (0, -1, 4):
            with pytest.raises(ValueError, match="outside 1..3"):
                evaluate(MEASURES, table, k=k)
            with pytest.raises(ValueError, match="outside 1..3"):
                ais(table, k=k)
            with pytest.raises(ValueError, match="outside 1..3"):
                evaluate(["ais"], table, k=k, local=True)

    def test_distribution_evaluates_at_shorter_k(self):
        # a joint solved at k = 8, marginalised onto k, gives the joint solved
        # at k; xor under bernoulli(0) and bernoulli(1) has a reducible and a
        # periodic chain
        cases = [(proc, unit) for proc in (U1, U2) for unit in (FWD, XOR)]
        cases += [(ProcessSpec("bernoulli", p=p), XOR) for p in (0.0, 1.0)]
        for proc, unit in cases:
            joint = oracle_joint(proc, unit, 8)
            for k in range(1, 9):
                got = evaluate(MEASURES, joint, k=k)
                want = evaluate(MEASURES, oracle_joint(proc, unit, k), k=k)
                for a, b in zip(got, want):
                    assert a.k == k
                    assert abs(a.average_bits - b.average_bits) < 1e-10
            for k in (0, 9):
                with pytest.raises(ValueError, match="outside 1..8"):
                    evaluate(MEASURES, joint, k=k)
        with pytest.raises(ValueError, match="k must be given"):
            evaluate(MEASURES, joint)
        six = Distribution((Alphabet(6), BINARY, BINARY), np.full((6, 2, 2), 1 / 24))
        for k in (1, 2, 3):
            with pytest.raises(ValueError, match="6 histories"):
                evaluate(MEASURES, six, k=k)
        # with |X| = 1 every history length has the one history
        flat = Distribution((Alphabet(1), Alphabet(1), BINARY), [[[0.25, 0.75]]])
        for k in (1, 5):
            assert [r.average_bits for r in evaluate(MEASURES, flat, k=k)] == [0.0] * 3

    def test_oracle_constant_across_k(self):
        for k in range(1, 5):
            assert ais(oracle_joint(U2, FWD, k), k=k).average_bits == pytest.approx(
                AIS_FWD_U2, abs=1e-12
            )
            assert ais(oracle_joint(U1, XOR, k), k=k).average_bits == pytest.approx(
                0.0, abs=1e-12
            )
            assert ais(oracle_joint(U1, FWD, k), k=k).average_bits == pytest.approx(
                0.0, abs=1e-12
            )

    def test_rejects_bad_arguments(self, rng):
        table = count_joint(random_series(rng, 100, 2), None, EmbeddingConfig(2))
        with pytest.raises(ValueError):
            evaluate(["nope"], table, k=1)

    def test_empirical_sweep_runs(self):
        u = generate_input(U2, 20_000)
        x = simulate_unit(FWD, u)
        results = sweep(x, u, [1, 2], ["ais", "icais", "interaction"])
        assert len(results) == 6
        by = {(r.k, r.measure): r.average_bits for r in results}
        assert abs(by[(1, "ais")] - AIS_FWD_U2) < 0.02
        assert abs(by[(1, "icais")]) < 1e-9


class TestAverageNonnegativity:
    def test_random_data(self, rng):
        for _ in range(30):
            x = random_series(rng, 500, int(rng.integers(2, 4)))
            u = random_series(rng, 500, int(rng.integers(2, 4)))
            t = count_joint(x, u, EmbeddingConfig(1))
            assert ais(t).average_bits >= -1e-9
            assert icais(t).average_bits >= -1e-9


def entropy_reference(d):
    """The three averages through the entropy-based MI and CMI."""
    mi = mutual_information(d, (0,), (1,))
    cmi = conditional_mutual_information(d, (0,), (1,), (2,))
    return {"ais": mi, "icais": cmi, "interaction": cmi - mi}


class TestAgainstEntropyReference:
    def test_random_tables(self, rng):
        # alphabets <= 3, k <= 3, input lags 0..2
        for _ in range(150):
            n = int(rng.integers(10, 300))
            nx, nu = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            cfg = EmbeddingConfig(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            t = count_joint(random_series(rng, n, nx), random_series(rng, n, nu), cfg)
            # and an ensemble of realisations of unequal lengths
            lengths = rng.integers(10, 300, int(rng.integers(2, 5)))
            pooled = count_joint(
                [random_series(rng, m, nx) for m in lengths],
                [random_series(rng, m, nu) for m in lengths],
                cfg,
            )
            for table in (t, pooled):
                want = entropy_reference(plugin_distribution(table))
                for m in MEASURES:
                    assert abs(compute(m, table).average_bits - want[m]) < 1e-12

    def test_oracle_distributions(self):
        for k in range(1, 7):
            for proc in (U1, U2):
                for unit in (FWD, XOR):
                    d = oracle_joint(proc, unit, k)
                    want = entropy_reference(d)
                    for m in MEASURES:
                        assert abs(compute(m, d, k=k).average_bits - want[m]) < 1e-12


def loop_locals(x, u, cfg, d):
    """Held-out local values by a per-step loop over the series.

    AIS reads p(history, next) and its marginals, icAIS reads
    p(history, next, input) and its marginals.
    """
    k, lag = cfg.k, cfg.input_lag
    p = d.probs
    p_hx = p.sum(axis=2)
    p_hu, p_xu = p.sum(axis=1), p.sum(axis=0)
    out = {m: [] for m in MEASURES}
    for m in range(k + max(0, lag - 1), len(x)):
        h = 0
        for v in x.data[m - k : m]:
            h = h * x.alphabet.size + int(v)
        xn, un = int(x.data[m]), int(u.data[m - lag])
        a = np.log2(p_hx[h, xn]) - np.log2(p_hx[h].sum()) - np.log2(p_hx[:, xn].sum())
        c = (
            np.log2(p[h, xn, un])
            + np.log2(p_xu[:, un].sum())
            - np.log2(p_hu[h, un])
            - np.log2(p_xu[xn, un])
        )
        out["ais"].append(a)
        out["icais"].append(c)
        out["interaction"].append(c - a)
    return out


def random_distribution(rng, nx, nu, k):
    shape = (nx**k, nx, nu)
    probs = rng.random(shape) + 0.05
    return Distribution(
        (Alphabet(shape[0]), Alphabet(nx), Alphabet(nu)), probs / probs.sum()
    )


class TestHeldOutLocals:
    def test_match_loop_reference(self, rng):
        for _ in range(30):
            nx, nu = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            cfg = EmbeddingConfig(int(rng.integers(1, 4)), int(rng.integers(0, 3)))
            x, u = random_series(rng, 200, nx), random_series(rng, 200, nu)
            t = count_joint(x, u, cfg)
            d = random_distribution(rng, nx, nu, cfg.k)
            want = loop_locals(x, u, cfg, d)
            for m in MEASURES:
                got = local_profile(m, t, d).values
                assert np.max(np.abs(got - np.array(want[m]))) < 1e-12

    def test_longer_distribution_is_marginalised(self, rng):
        # a k = 5 distribution against a k = 3 table: the loop reference reads
        # the joint summed over the two oldest history symbols
        for _ in range(10):
            nx, nu = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            cfg = EmbeddingConfig(3, int(rng.integers(0, 3)))
            x, u = random_series(rng, 200, nx), random_series(rng, 200, nu)
            d = random_distribution(rng, nx, nu, 5)
            d3 = Distribution(
                (Alphabet(nx**3), Alphabet(nx), Alphabet(nu)),
                d.probs.reshape(nx**2, nx**3, nx, nu).sum(axis=0),
            )
            want = loop_locals(x, u, cfg, d3)
            t = count_joint(x, u, cfg)
            for m in MEASURES:
                got = local_profile(m, t, d).values
                assert np.max(np.abs(got - np.array(want[m]))) < 1e-12

    def test_ais_without_input_against_joint(self, rng):
        # a table without input reads only p(history, next) of the joint
        x, u = random_series(rng, 200, 2), random_series(rng, 200, 2)
        d = random_distribution(rng, 2, 2, 2)
        bare = local_ais(count_joint(x, None, EmbeddingConfig(2)), d)
        full = local_ais(count_joint(x, u, EmbeddingConfig(2)), d)
        assert np.array_equal(bare.values, full.values)

    def test_missing_cell_fails_only_where_read(self, rng):
        x, u = random_series(rng, 200, 2), random_series(rng, 200, 2)
        t = count_joint(x, u, EmbeddingConfig(1))
        probs = random_distribution(rng, 2, 2, 1).probs.copy()
        h, xn, un = int(x.data[0]), int(x.data[1]), int(u.data[1])
        probs[h, xn, un] = 0.0
        d = Distribution((BINARY,) * 3, probs / probs.sum())
        # (history, next) keeps mass through the other input symbol
        with np.errstate(divide="ignore"):
            want = loop_locals(x, u, EmbeddingConfig(1), d)["ais"]
        assert np.allclose(local_ais(t, d).values, want, atol=1e-12)
        for fn in (local_icais, local_interaction):
            with pytest.raises(ValueError, match="zero probability"):
                fn(t, d)
        probs[h, xn, :] = 0.0
        d = Distribution((BINARY,) * 3, probs / probs.sum())
        with pytest.raises(ValueError, match="zero probability"):
            local_ais(t, d)
