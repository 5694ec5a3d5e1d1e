import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infostorage import (
    BINARY,
    Alphabet,
    Distribution,
    EmbeddingConfig,
    ProcessSpec,
    SymbolSeries,
    TableUnit,
    UnitSpec,
    ais,
    build_joint_chain,
    count_joint,
    generate_input,
    icais,
    oracle_joint,
    plugin_distribution,
    simulate_unit,
    stationary_distribution,
)
from infostorage.procsim import PAIR_LIMIT, STATE_SPACE_LIMIT


def step_loop(unit, u):
    """Reference outputs of a table unit, one Python step at a time."""
    state, out = unit.initial_state, []
    for ui in u:
        out.append(int(unit.output[state, ui]))
        state = int(unit.next_state[state, ui])
    return out


def random_table_unit(rng, n_states, n_inputs, n_outputs):
    return TableUnit(
        next_state=rng.integers(0, n_states, (n_states, n_inputs)),
        output=rng.integers(0, n_outputs, (n_states, n_inputs)),
        n_outputs=n_outputs,
        initial_state=int(rng.integers(0, n_states)),
    )


def reachability(unit):
    """reach[s, t]: some inputs move the unit from state s to state t."""
    reach = np.eye(unit.n_states, dtype=bool)
    reach[np.arange(unit.n_states)[:, None], unit.next_state] = True
    for _ in range(unit.n_states):
        reach = reach | (reach.astype(int) @ reach.astype(int) > 0)
    return reach


def strongly_connected(unit):
    return bool(reachability(unit).all())


def closed_classes_reached(unit):
    """The closed classes of unit states that its initial state reaches,
    under inputs that give every symbol positive probability: a state is in
    one when every state it reaches reaches it back."""
    reach = reachability(unit)
    return {
        frozenset(np.flatnonzero(reach[s]).tolist())
        for s in np.flatnonzero(reach[unit.initial_state])
        if (reach[:, s] | ~reach[s]).all()
    }


def power_iteration(model, tol=1e-12, max_iter=10**6):
    """Reference stationary law: power iteration on the lazy chain
    (I + T)/2 from the model's start law, spread evenly over the
    histories, until an L1 step falls below tol."""
    n = model.n_states
    successor = model.successor.ravel()
    nh = n // model.start.size
    v = np.repeat(model.start, nh) / nh
    for _ in range(max_iter):
        vt = np.bincount(successor, weights=(v[:, None] * model.prob).ravel(), minlength=n)
        if np.abs(vt - v).sum() < tol:
            return vt
        v = 0.5 * (v + vt)
    raise AssertionError("power iteration did not converge")


def cells_within_binomial_bound(exact, table):
    """Per cell of the plug-in joint: is it within 3 sigma of the exact
    probability at the table's sample size?"""
    emp = plugin_distribution(table).probs
    sigma = np.sqrt(exact * (1 - exact) / table.total)
    return np.abs(emp - exact) <= np.maximum(3 * sigma, 1e-12)


def share_within_binomial_bound(proc, unit, k, n=200_000, seeds=range(3), burn_in=10**4):
    """The share of cells, over one run per seed, whose plug-in probability
    is within 3 sigma of the oracle's.  Each run counts n steps after its
    first ``burn_in``: the oracle gives no mass to transient states, which a
    run visits only near its start."""
    exact = oracle_joint(proc, unit, k).probs
    within = []
    for seed in seeds:
        u = generate_input(ProcessSpec(proc.kind, p=proc.p, p_stay=proc.p_stay, seed=seed), burn_in + n)
        x = simulate_unit(unit, u)
        u, x = (SymbolSeries(s.alphabet, s.data[burn_in:]) for s in (u, x))
        within.append(cells_within_binomial_bound(exact, count_joint(x, u, EmbeddingConfig(k))))
    return float(np.mean(within))


class TestProcessSpec:
    def test_bernoulli_validation(self):
        with pytest.raises(ValueError):
            ProcessSpec("bernoulli", p=1.5)
        with pytest.raises(ValueError):
            ProcessSpec("bernoulli")

    def test_markov_boundaries_rejected(self):
        with pytest.raises(ValueError):
            ProcessSpec("markov_binary", p_stay=1.0)
        with pytest.raises(ValueError):
            ProcessSpec("markov_binary", p_stay=0.0)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ProcessSpec("uniform")


class TestGenerateInput:
    def test_bernoulli_sure_thing(self):
        s = generate_input(ProcessSpec("bernoulli", p=1.0), 5)
        assert s.data.tolist() == [1, 1, 1, 1, 1]

    def test_deterministic_under_seed(self):
        a = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=9), 1000)
        b = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=9), 1000)
        c = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=10), 1000)
        assert np.array_equal(a.data, b.data)
        assert not np.array_equal(a.data, c.data)

    def test_markov_repeat_frequency(self):
        s = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=1), 10**6)
        repeats = float(np.mean(s.data[1:] == s.data[:-1]))
        assert abs(repeats - 0.7) < 0.003  # 3 sigma binomial bound at N=1e6

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError):
            generate_input(ProcessSpec("bernoulli", p=0.5), 0)

    # The lengths straddle 64 steps and the _DRAW_CHUNK of raw draws.
    @pytest.mark.parametrize("n", [1, 2, 10**5, 63, 64, 65, 2**16, 2**16 + 1, 2**16 + 65])
    @pytest.mark.parametrize("seed", [0, 1, 7, 2**40])
    def test_seeded_series_match_the_int64_draws(self, n, seed):
        # The series drawn before symbols were held as uint8, written out
        # in int64: the same Philox stream must give the same symbols as
        # float draws compared with p.  p = 2^-53 sets the integer
        # threshold to 1 and p = 1 - 2^-53 to 2^53 - 1; p * 2^53 is an
        # integer at 5 * 2^-20, as at 0.5.
        for p_stay in (0.3, 0.7, 0.999, 2**-53, 1 - 2**-53):
            rng = np.random.Generator(np.random.Philox(seed))
            first = int(rng.integers(0, 2))
            flips = (rng.random(n - 1) < (1.0 - p_stay)).astype(np.int64)
            want = np.r_[first, (first + np.cumsum(flips)) % 2]
            got = generate_input(ProcessSpec("markov_binary", p_stay=p_stay, seed=seed), n)
            assert got.data.dtype == np.uint8
            assert np.array_equal(got.data, want)
        for p in (0.0, 0.3, 0.5, 1.0, 2**-53, 1 - 2**-53, 5 * 2**-20):
            rng = np.random.Generator(np.random.Philox(seed))
            want = (rng.random(n) < p).astype(np.int64)
            got = generate_input(ProcessSpec("bernoulli", p=p, seed=seed), n)
            assert got.data.dtype == np.uint8
            assert np.array_equal(got.data, want)

    def test_a_draw_equal_to_p_is_not_below_it(self):
        # p at a draw's exact value, then one float above it: below 0.5 a
        # float need not be a multiple of 2^-53, so the integer threshold
        # must round p * 2^53 up, and compare strictly.
        draws = np.random.Generator(np.random.Philox(3)).random(64)
        t = int(np.flatnonzero(draws < 0.5)[0])
        for p, want in ((draws[t], 0), (np.nextafter(draws[t], 1.0), 1)):
            got = generate_input(ProcessSpec("bernoulli", p=float(p), seed=3), 64).data
            assert got[t] == want
            assert np.array_equal(got, draws < p)


class TestSimulateUnit:
    def test_forwarding(self):
        u = SymbolSeries(BINARY, [0, 1, 1])
        assert simulate_unit(UnitSpec("forwarding"), u).data.tolist() == [0, 1, 1]

    def test_xor_hand_unrolled(self):
        u = SymbolSeries(BINARY, [1, 1, 1])
        assert simulate_unit(UnitSpec("xor_memory"), u).data.tolist() == [1, 0, 1]

    def test_xor_identity_input(self):
        u = SymbolSeries(BINARY, [0] * 8)
        assert simulate_unit(UnitSpec("xor_memory"), u).data.tolist() == [0] * 8

    def test_xor_self_inverse(self):
        # u is recoverable from the output and the initial state
        u = generate_input(ProcessSpec("bernoulli", p=0.5, seed=3), 1000)
        x = simulate_unit(UnitSpec("xor_memory", initial_state=1), u).data
        prev = np.concatenate([[1], x[:-1]])
        assert np.array_equal(x ^ prev, u.data)

    def test_fast_path_matches_step_loop(self):
        u = generate_input(ProcessSpec("bernoulli", p=0.5, seed=4), 500)
        for init in (0, 1):
            spec = UnitSpec("xor_memory", initial_state=init)
            fast = simulate_unit(spec, u).data
            assert fast.tolist() == step_loop(spec, u.data)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 16, 17, 99, 1000, 1001])
    def test_kernel_matches_step_loop_at_any_length(self, n):
        # n = 1 is a single one-step block; non-square n leaves the last
        # block partly padded
        rng = np.random.default_rng(n)
        for _ in range(20):
            unit = random_table_unit(
                rng, int(rng.integers(1, 5)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
            )
            u = SymbolSeries(unit.input_alphabet, rng.integers(0, unit.input_alphabet.size, n))
            assert simulate_unit(unit, u).data.tolist() == step_loop(unit, u.data)

    # xor has 2 states and 2 inputs, so a word holds w = 11 inputs
    # (2 * 2^11 = 2^12 pairs); 121 = 11^2 words fill 11 blocks of 11 words.
    @pytest.mark.parametrize(
        "n", [10, 11, 12, 21, 22, 23, 11 * 121 - 1, 11 * 121, 11 * 121 + 1, 11 * 122 + 1]
    )
    def test_kernel_at_word_and_block_edges(self, n):
        rng = np.random.default_rng(n)
        u = SymbolSeries(BINARY, rng.integers(0, 2, n))
        for init in (0, 1):
            spec = UnitSpec("xor_memory", initial_state=init)
            assert simulate_unit(spec, u).data.tolist() == step_loop(spec, u.data)
        # 4 states and 2 inputs: w = 10
        unit = random_table_unit(rng, 4, 2, 3)
        assert simulate_unit(unit, u).data.tolist() == step_loop(unit, u.data)

    def test_one_input_symbol_caps_the_word(self):
        # with |U| = 1 every word length fits the table; the cap of 16
        # inputs per word keeps it finite
        cycle = TableUnit(
            next_state=[[1], [2], [3], [4], [0]], output=[[0], [1], [2], [3], [4]],
            n_outputs=5, initial_state=2,
        )
        u = SymbolSeries(Alphabet(1), np.zeros(10**5, dtype=np.int64))
        x = simulate_unit(cycle, u)
        assert x.data.tolist() == step_loop(cycle, u.data)
        assert x.data.tolist()[:6] == [2, 3, 4, 0, 1, 2]

    @pytest.mark.parametrize(
        "n_states, n_inputs, n_outputs",
        [
            (2049, 2, 2),  # S * |U| = 4098 > 2^12: one input per lookup
            (8, 32, 2),  # 2^8 pairs of one input: the widest uint8 pair codes
            (1, 257, 3),  # 2^8 + 1 pairs: the narrowest uint16 ones
            (256, 256, 300),  # 2^16 pairs: the widest uint16 ones, uint16 outputs
            (1, 2**16 + 1, 2),  # 2^16 + 1 pairs: the narrowest uint32 ones
        ],
    )
    def test_one_input_words_at_pair_dtype_edges(self, n_states, n_inputs, n_outputs):
        rng = np.random.default_rng(n_states)
        for n in (1, 1000, 3001):
            unit = random_table_unit(rng, n_states, n_inputs, n_outputs)
            u = SymbolSeries(unit.input_alphabet, rng.integers(0, n_inputs, n))
            assert simulate_unit(unit, u).data.tolist() == step_loop(unit, u.data)
        # The state is the last input mod S, and the inputs run through
        # every pair (a, b) with a < min(S, |U|): with S <= |U| every
        # (state, input) pair occurs, the largest pair code included.
        unit = TableUnit(
            np.broadcast_to(np.arange(n_inputs) % n_states, (n_states, n_inputs)),
            rng.integers(0, n_outputs, (n_states, n_inputs)),
            n_outputs,
        )
        a, b = np.divmod(np.arange(min(n_states, n_inputs) * n_inputs), n_inputs)
        u = SymbolSeries(unit.input_alphabet, np.column_stack([a, b]).ravel())
        assert simulate_unit(unit, u).data.tolist() == step_loop(unit, u.data)

    def test_random_initial_states(self):
        rng = np.random.default_rng(17)
        u = SymbolSeries(Alphabet(3), rng.integers(0, 3, 4000))
        for _ in range(10):
            tables = random_table_unit(rng, 7, 3, 4)
            for init in rng.choice(7, 3, replace=False):
                unit = TableUnit(tables.next_state, tables.output, 4, initial_state=int(init))
                assert simulate_unit(unit, u).data.tolist() == step_loop(unit, u.data)

    @settings(max_examples=60, deadline=None)
    @given(
        n_states=st.integers(1, 12),
        n_inputs=st.integers(1, 5),
        n_outputs=st.integers(1, 300),
        n=st.integers(1, 3000),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_step_loop_property(self, n_states, n_inputs, n_outputs, n, seed):
        rng = np.random.default_rng(seed)
        unit = random_table_unit(rng, n_states, n_inputs, n_outputs)
        u = SymbolSeries(unit.input_alphabet, rng.integers(0, n_inputs, n))
        x = simulate_unit(unit, u)
        assert x.data.dtype == np.min_scalar_type(n_outputs - 1)
        assert x.data.tolist() == step_loop(unit, u.data)

    def test_wide_output_alphabet_does_not_wrap(self):
        # 300 outputs are held as uint16; the kernel's cell arithmetic
        # stays int64 throughout
        rng = np.random.default_rng(300)
        unit = random_table_unit(rng, 5, 2, 300)
        u = SymbolSeries(BINARY, rng.integers(0, 2, 5000))
        x = simulate_unit(unit, u)
        assert x.data.dtype == np.uint16
        assert x.data.tolist() == step_loop(unit, u.data)
        assert x.data.max() > 255

    def test_one_state_units(self):
        u = generate_input(ProcessSpec("markov_binary", p_stay=0.7, seed=5), 1001)
        assert np.array_equal(simulate_unit(UnitSpec("forwarding"), u).data, u.data)
        relabel = TableUnit(next_state=[[0, 0, 0]], output=[[2, 0, 1]], n_outputs=3)
        v = SymbolSeries(Alphabet(3), np.arange(30) % 3)
        assert simulate_unit(relabel, v).data.tolist() == [2, 0, 1] * 10

    def test_non_binary_input_rejected(self):
        u = SymbolSeries(Alphabet(3), [0, 1, 2])
        with pytest.raises(ValueError, match="symbols"):
            simulate_unit(UnitSpec("xor_memory"), u)

    def test_table_unit(self):
        # 2-state transducer: emits its state, toggles on input 1
        unit = TableUnit(
            next_state=[[0, 1], [1, 0]], output=[[0, 0], [1, 1]], n_outputs=2
        )
        u = SymbolSeries(BINARY, [1, 0, 1, 1])
        assert simulate_unit(unit, u).data.tolist() == [0, 1, 1, 0]


class TestTableUnitValidation:
    @pytest.mark.parametrize("table", ["next_state", "output"])
    @pytest.mark.parametrize("bad", [-1, 5])
    def test_entry_out_of_range(self, table, bad):
        tables = {"next_state": [[0, 1], [1, 0]], "output": [[0, 1], [1, 0]]}
        tables[table][0][1] = bad
        with pytest.raises(ValueError, match=table):
            TableUnit(**tables, n_outputs=2)

    @pytest.mark.parametrize("table", ["next_state", "output"])
    def test_table_must_be_2d_integer(self, table):
        for bad in ([0, 1], [[0.0, 1.0]]):
            tables = {"next_state": [[0, 0]], "output": [[0, 1]], table: bad}
            with pytest.raises(ValueError, match=table):
                TableUnit(**tables, n_outputs=2)

    @pytest.mark.parametrize("table", ["next_state", "output"])
    def test_strings_rejected(self, table):
        tables = {"next_state": [[0, 0]], "output": [[0, 1]], table: [["0", "1"]]}
        with pytest.raises(ValueError, match=table):
            TableUnit(**tables, n_outputs=2)

    def test_shapes_must_match(self):
        with pytest.raises(ValueError, match="shape"):
            TableUnit(next_state=[[0, 0]], output=[[0, 1, 1]], n_outputs=2)

    def test_tables_are_read_only(self):
        unit = UnitSpec("xor_memory")
        with pytest.raises(ValueError):
            unit.next_state[0, 0] = 1

    @pytest.mark.parametrize("kind, n_states", [("forwarding", 1), ("xor_memory", 2)])
    def test_built_in_units_are_table_units(self, kind, n_states):
        unit = UnitSpec(kind, initial_state=n_states - 1)
        assert isinstance(unit, TableUnit)
        assert (unit.kind, unit.n_states, unit.initial_state) == (kind, n_states, n_states - 1)
        with pytest.raises(ValueError, match="initial state out of range"):
            UnitSpec(kind, initial_state=n_states)

    def test_unknown_unit_kind(self):
        with pytest.raises(ValueError, match="unknown unit kind"):
            UnitSpec("delay")


class TestJointChain:
    def test_rows_sum_to_one(self):
        for proc in (
            ProcessSpec("bernoulli", p=0.5),
            ProcessSpec("bernoulli", p=0.3),
            ProcessSpec("markov_binary", p_stay=0.7),
        ):
            for unit in (UnitSpec("forwarding"), UnitSpec("xor_memory")):
                for k in (1, 2, 3):
                    m = build_joint_chain(proc, unit, k)
                    assert np.allclose(m.transition.sum(axis=1), 1.0, atol=1e-12)

    def test_state_count(self):
        # |U| * |S| * |X|**k composite states
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), UnitSpec("forwarding"), 1)
        assert m.n_states == 4
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 3)
        assert m.n_states == 32
        unit = random_table_unit(np.random.default_rng(0), 3, 2, 3)
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), unit, 2)
        assert m.n_states == 2 * 3 * 9
        assert m.successor.shape == m.prob.shape == (m.n_states, 2)

    def test_forwarding_rows_match_direct_enumeration(self):
        # from any state, input u' arrives with P(u'|u) and forces output u';
        # forwarding has one unit state, so state (u, 0, h) has index u*2 + h
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.3), UnitSpec("forwarding"), 1)
        for si in range(m.n_states):
            expected = np.zeros(4)
            for u2, pu2 in enumerate([0.7, 0.3]):
                expected[u2 * 2 + u2] += pu2  # next state (u', 0, (u',))
            assert np.allclose(m.transition[si], expected, atol=1e-12)

    def test_successors_follow_documented_layout(self):
        # state (u, s, h) has index (u*S + s)*|X|**k + h, the newest output
        # being h's least significant digit
        rng = np.random.default_rng(1)
        proc = ProcessSpec("markov_binary", p_stay=0.7)
        for _ in range(5):
            unit = random_table_unit(rng, 3, 2, 3)
            k, n_s, n_x = 2, 3, 3
            n_h = n_x**k
            m = build_joint_chain(proc, unit, k)
            for u in range(2):
                for s in range(n_s):
                    for h in range(n_h):
                        i = (u * n_s + s) * n_h + h
                        for u2 in range(2):
                            s2 = unit.next_state[s, u2]
                            h2 = (h * n_x + unit.output[s, u2]) % n_h
                            assert m.successor[i, u2] == (u2 * n_s + s2) * n_h + h2
                            assert m.prob[i, u2] == proc.transition_matrix()[u, u2]

    def test_state_space_limit_says_reduce_k(self):
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 18)
        assert m.n_states == STATE_SPACE_LIMIT
        with pytest.raises(ValueError, match="reduce k$"):
            build_joint_chain(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 19)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError, match="k must be >= 1"):
            build_joint_chain(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 0)
        # a binary drive against a unit that reads three input symbols
        ternary = TableUnit(next_state=[[0, 0, 0]], output=[[0, 1, 0]], n_outputs=2)
        with pytest.raises(ValueError, match="does not match the unit"):
            build_joint_chain(ProcessSpec("bernoulli", p=0.5), ternary, 1)

    def test_one_output_symbol_has_one_history_at_any_k(self):
        silent = TableUnit(next_state=[[0, 0]], output=[[0, 0]], n_outputs=1)
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), silent, 10**12)
        assert m.n_states == 2


class TestStationary:
    def test_period_two_flip_chain(self):
        # a unit that emits its state and toggles it, under a constant
        # input 1: the recurrent states (1, 0, (1,)) and (1, 1, (0,)),
        # indices 5 and 6, alternate with period two
        toggle = TableUnit(next_state=[[1, 1], [0, 0]], output=[[0, 0], [1, 1]], n_outputs=2)
        m = build_joint_chain(ProcessSpec("bernoulli", p=1.0), toggle, 1)
        pi = stationary_distribution(m).probs
        expected = np.zeros(8)
        expected[[5, 6]] = 0.5
        assert np.allclose(pi, expected, atol=1e-9)

    def test_xor_markov_uniform(self):
        m = build_joint_chain(
            ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("xor_memory"), 1
        )
        # index (u*2 + s)*2 + h: the unit state s is the last output h on
        # the recurrent states, which are uniform; s != h is transient
        pi = stationary_distribution(m).probs.reshape(2, 2, 2)
        for s in range(2):
            for h in range(2):
                assert np.allclose(pi[:, s, h], 0.25 if s == h else 0.0, atol=1e-9)

    def test_forwarding_bernoulli_03_concentrates_on_matching(self):
        # forwarding state (u, 0, (h,)) has index u*2 + h
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.3), UnitSpec("forwarding"), 1)
        pi = stationary_distribution(m).probs
        assert pi[0] == pytest.approx(0.7, abs=1e-9)  # (0, 0, (0,))
        assert pi[3] == pytest.approx(0.3, abs=1e-9)  # (1, 0, (1,))
        assert pi[1] == pytest.approx(0.0, abs=1e-9)  # (0, 0, (1,))
        assert pi[2] == pytest.approx(0.0, abs=1e-9)  # (1, 0, (0,))

    def test_matches_linear_solve(self):
        # balance equations solved directly, for every chain in scope
        for proc in (
            ProcessSpec("bernoulli", p=0.5),
            ProcessSpec("bernoulli", p=0.3),
            ProcessSpec("markov_binary", p_stay=0.7),
        ):
            for unit in (UnitSpec("forwarding"), UnitSpec("xor_memory")):
                for k in (1, 2):
                    m = build_joint_chain(proc, unit, k)
                    pi = stationary_distribution(m).probs
                    A = np.vstack([m.transition.T - np.eye(m.n_states), np.ones(m.n_states)])
                    b = np.zeros(m.n_states + 1)
                    b[-1] = 1.0
                    ref, *_ = np.linalg.lstsq(A, b, rcond=None)
                    assert np.abs(pi - ref).sum() < 1e-9

    def test_matches_power_iteration_on_random_units(self):
        rng = np.random.default_rng(18)
        procs = [ProcessSpec("markov_binary", p_stay=q) for q in (0.3, 0.7, 0.9)]
        procs += [ProcessSpec("bernoulli", p=p) for p in (0.0, 0.2, 0.5, 1.0)]
        for _ in range(200):
            unit = random_table_unit(rng, int(rng.integers(1, 7)), 2, int(rng.integers(1, 4)))
            proc = procs[rng.integers(len(procs))]
            m = build_joint_chain(proc, unit, int(rng.integers(1, 8)))
            ref = power_iteration(m)
            assert np.abs(stationary_distribution(m).probs - ref).sum() < 1e-10

    def test_slowly_mixing_pair_chain_matches_linear_solve(self):
        # under markov(0.999) power iteration takes ~1e5 steps here and
        # stops about 1e-9 from the balance-equation solve
        rng = np.random.default_rng(3)
        unit = random_table_unit(rng, 6, 2, 2)
        while not strongly_connected(unit):
            unit = random_table_unit(rng, 6, 2, 2)
        m = build_joint_chain(ProcessSpec("markov_binary", p_stay=0.999), unit, 8)
        nh = 2**8
        pairs = m.n_states // nh
        L = np.zeros((pairs, pairs))
        np.add.at(L, (np.arange(pairs)[:, None], m.successor[::nh] // nh), m.prob[::nh])
        A = np.vstack([L.T - np.eye(pairs), np.ones(pairs)])
        b = np.zeros(pairs + 1)
        b[-1] = 1.0
        ref, *_ = np.linalg.lstsq(A, b, rcond=None)
        marginal = stationary_distribution(m).probs.reshape(pairs, nh).sum(axis=1)
        assert np.abs(marginal - ref).sum() < 1e-11

    def test_pair_chain_limit(self):
        unit = TableUnit(np.zeros((513, 2), dtype=int), np.zeros((513, 2), dtype=int), n_outputs=2)
        m = build_joint_chain(ProcessSpec("bernoulli", p=0.5), unit, 1)
        with pytest.raises(ValueError, match=str(PAIR_LIMIT)):
            stationary_distribution(m)


class TestExactJoint:
    def test_forwarding_u2_repeat_probability(self):
        j = oracle_joint(ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("forwarding"), 1)
        p_hx = j.probs.sum(axis=2)
        assert p_hx[0, 0] + p_hx[1, 1] == pytest.approx(0.7, abs=1e-9)
        assert p_hx[0, 1] + p_hx[1, 0] == pytest.approx(0.3, abs=1e-9)

    def test_forwarding_u1_uniform_pairs(self):
        j = oracle_joint(ProcessSpec("bernoulli", p=0.5), UnitSpec("forwarding"), 1)
        assert np.allclose(j.probs.sum(axis=2), 0.25, atol=1e-9)

    def test_xor_u1_four_deterministic_cells(self):
        j = oracle_joint(ProcessSpec("bernoulli", p=0.5), UnitSpec("xor_memory"), 1)
        p = j.probs
        for h in range(2):
            for u in range(2):
                assert p[h, u ^ h, u] == pytest.approx(0.25, abs=1e-9)
                assert p[h, 1 - (u ^ h), u] == pytest.approx(0.0, abs=1e-9)

    def test_initial_state_independent(self):
        a = oracle_joint(ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("xor_memory", 0), 2)
        b = oracle_joint(ProcessSpec("markov_binary", p_stay=0.7), UnitSpec("xor_memory", 1), 2)
        assert np.allclose(a.probs, b.probs, atol=1e-12)

    def test_several_closed_classes_give_the_start_weighted_mixture(self):
        # state 0 moves to state 1 + u on its first input u and the unit
        # stays there: state 1 forwards its input, state 2 inverts it
        proc = ProcessSpec("bernoulli", p=0.3)
        tables = ([[1, 2], [1, 1], [2, 2]], [[0, 1], [0, 1], [1, 0]])
        joint = {s: oracle_joint(proc, TableUnit(*tables, n_outputs=2, initial_state=s), 3).probs
                 for s in range(3)}
        assert np.allclose(joint[0], 0.7 * joint[1] + 0.3 * joint[2], atol=1e-12)
        # each run's outputs are i.i.d., but the pooled history tells the
        # classes apart
        assert ais(Distribution(joint[1]), k=3).average_bits == pytest.approx(0.0, abs=1e-12)
        assert ais(Distribution(joint[0]), k=3).average_bits > 0.03


class TestSimulationOracleAgreement:
    @pytest.mark.parametrize("unit_kind", ["forwarding", "xor_memory"])
    @pytest.mark.parametrize(
        "proc",
        [ProcessSpec("bernoulli", p=0.5), ProcessSpec("markov_binary", p_stay=0.7)],
    )
    @pytest.mark.parametrize("k", [1, 2])
    def test_cellwise_binomial_bounds(self, proc, unit_kind, k):
        n = 200_000
        unit = UnitSpec(unit_kind)
        exact = oracle_joint(proc, unit, k).probs
        ok_cells = total_cells = 0
        for seed in range(5):
            spec = ProcessSpec(proc.kind, p=proc.p, p_stay=proc.p_stay, seed=seed)
            u = generate_input(spec, n)
            x = simulate_unit(unit, u)
            within = cells_within_binomial_bound(exact, count_joint(x, u, EmbeddingConfig(k)))
            ok_cells += int(within.sum())
            total_cells += within.size
        assert ok_cells / total_cells >= 0.95

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_table_units(self, k):
        # hidden-state transducers: the unit state is generally not a
        # function of the last k outputs, so only the (input, state,
        # history) chain gives their exact joint
        rng = np.random.default_rng(300 + k)
        n = 10**6
        ok_cells = total_cells = n_units = 0
        while n_units < 6:
            unit = random_table_unit(rng, int(rng.integers(2, 5)), 2, int(rng.integers(2, 4)))
            if not strongly_connected(unit):
                continue
            proc = ProcessSpec("markov_binary", p_stay=0.7, seed=n_units)
            if n_units % 2:
                proc = ProcessSpec("bernoulli", p=0.5, seed=n_units)
            exact = oracle_joint(proc, unit, k).probs
            u = generate_input(proc, n)
            x = simulate_unit(unit, u)
            within = cells_within_binomial_bound(exact, count_joint(x, u, EmbeddingConfig(k)))
            ok_cells += int(within.sum())
            total_cells += within.size
            n_units += 1
        assert ok_cells / total_cells >= 0.95

    @pytest.mark.parametrize("k", [1, 2])
    def test_random_units_reaching_one_closed_class(self, k):
        # not strongly connected: the oracle must start where the unit
        # starts, or the transient states and the classes the start never
        # reaches would carry mass
        rng = np.random.default_rng(500 + k)
        shares = []
        while len(shares) < 6:
            unit = random_table_unit(rng, int(rng.integers(3, 6)), 2, int(rng.integers(2, 4)))
            if strongly_connected(unit) or len(closed_classes_reached(unit)) != 1:
                continue
            proc = ProcessSpec("markov_binary", p_stay=0.7)
            if len(shares) % 2:
                proc = ProcessSpec("bernoulli", p=0.5)
            shares.append(share_within_binomial_bound(proc, unit, k, n=10**6, seeds=[len(shares)]))
        assert np.mean(shares) >= 0.95

    @pytest.mark.parametrize("init", [0, 1])
    @pytest.mark.parametrize("k", [1, 3])
    def test_unit_that_never_changes_state(self, init, k):
        # each state is a closed class of its own; the output is input XOR
        # the state, so it stores nothing the input does not explain
        unit = TableUnit([[0, 0], [1, 1]], [[0, 1], [1, 0]], n_outputs=2, initial_state=init)
        proc = ProcessSpec("markov_binary", p_stay=0.7)
        assert icais(oracle_joint(proc, unit, k), k=k).average_bits == pytest.approx(0.0, abs=1e-12)
        assert share_within_binomial_bound(proc, unit, k) >= 0.95

    @pytest.mark.parametrize("init", [0, 1, 2])
    def test_unit_with_an_absorbing_state(self, init):
        # states 0 and 1 pass to each other or fall into state 2, which
        # forwards its input for ever
        unit = TableUnit([[1, 2], [0, 2], [2, 2]], [[0, 1], [1, 1], [0, 1]], n_outputs=2,
                         initial_state=init)
        for proc in (ProcessSpec("markov_binary", p_stay=0.7), ProcessSpec("bernoulli", p=0.3)):
            assert share_within_binomial_bound(proc, unit, 2) >= 0.95

    @pytest.mark.parametrize("init", [0, 1])
    def test_xor_under_a_constant_input(self, init):
        # bernoulli(0) feeds only 0s, so xor repeats its initial state
        proc, unit = ProcessSpec("bernoulli", p=0.0), UnitSpec("xor_memory", init)
        exact = oracle_joint(proc, unit, 2).probs
        assert exact[3 * init, init, 0] == 1.0
        assert ais(Distribution(exact), k=2).average_bits == 0.0
        assert share_within_binomial_bound(proc, unit, 2) == 1.0
