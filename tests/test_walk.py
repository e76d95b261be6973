import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from strategies import dense_graphs
from gridwalk import walk
from gridwalk.errors import InvariantViolation, UnitarityError
from gridwalk.graph import Graph, complete_graph, cycle_graph, remove_edge
from gridwalk.util import check_unitary, random_unitary, unitarity_defect
from gridwalk.walk import (
    CoinGroup,
    CoinPlan,
    CoinSet,
    WalkState,
    apply_coin_cols,
    apply_coin_rows,
    coin_for_degree,
    dft_coin,
    distribution_to_text,
    evolve,
    grover_coin,
    hadamard_coin,
    init_localized,
    position_distribution,
    reference_evolve,
    state_from_json,
    state_to_json,
    transpose_state,
)


def random_state(n, rng):
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return WalkState(n, amp / np.linalg.norm(amp))


def random_plan(n, steps, rng):
    return CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )


# ---------------------------------------------------------------------------
# States


def test_init_localized_two():
    s = init_localized(2, 1, 1)
    assert s.amp.tolist() == [[1, 0], [0, 0]]


def test_init_localized_offdiagonal():
    s = init_localized(4, 2, 3)
    expected = np.zeros((4, 4))
    expected[1, 2] = 1
    assert np.array_equal(s.amp, expected)


def test_init_localized_trivial():
    assert init_localized(1, 1, 1).amp.tolist() == [[1]]


def test_init_balanced_splits_a_degree_two_node_over_its_two_coin_states():
    s = walk.init_balanced(cycle_graph(6), 1)
    expected = np.zeros((6, 6), dtype=complex)
    expected[0, [1, 5]] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    assert s.amp.tobytes() == expected.tobytes()
    with pytest.raises(ValueError, match="needs a degree-2 node, node 1 has degree 3"):
        walk.init_balanced(complete_graph(3), 1)


def test_init_localized_out_of_range():
    with pytest.raises(ValueError):
        init_localized(2, 3, 1)


def test_state_norm_enforced():
    with pytest.raises(InvariantViolation):
        WalkState(2, np.ones((2, 2)))


def test_state_amplitudes_read_only():
    s = init_localized(2, 1, 1)
    with pytest.raises(ValueError):
        s.amp[0, 0] = 0


# ---------------------------------------------------------------------------
# Coins


def test_hadamard_involution():
    h = hadamard_coin()
    assert np.allclose(h @ h, np.eye(2), atol=1e-15)


def test_hadamard_column():
    h = hadamard_coin()
    assert np.allclose(h @ [1, 0], [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_hadamard_determinant():
    assert np.isclose(np.linalg.det(hadamard_coin()).real, -1.0)


def test_grover_two_is_swap():
    assert np.allclose(grover_coin(2), [[0, 1], [1, 0]])


def test_grover_four_entries():
    g = grover_coin(4)
    assert np.allclose(np.diag(g), -0.5)
    off = g[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.5)


def test_dft_two_is_hadamard():
    assert np.allclose(dft_coin(2), hadamard_coin(), atol=1e-15)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_standard_coins_unitary(n):
    assert unitarity_defect(grover_coin(n)) < 1e-12
    assert unitarity_defect(dft_coin(n)) < 1e-12


def test_dft_coin_from_its_roots_equals_the_coin_formed_entry_by_entry():
    for n in range(1, 601):
        assert dft_coin(n).tobytes() == oracles.dft_coin_by_entries(n).tobytes(), n


@pytest.mark.parametrize("n", [255, 256, 512])
def test_dft_coin_matches_the_fft_to_rounding(n, rng):
    # at these sizes a phase 2π·jk/n formed from the unreduced jk is up to 1e-14 off
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x /= np.linalg.norm(x)
    assert np.max(np.abs(dft_coin(n) @ x - np.fft.ifft(x, norm="ortho"))) <= 1e-15


def test_coin_rejects_zero_dimension():
    with pytest.raises(ValueError):
        grover_coin(0)
    with pytest.raises(ValueError):
        dft_coin(0)


def test_mask_coin_all_false_is_identity():
    out = oracles.mask_coin(None, np.zeros(4, dtype=bool))
    assert np.array_equal(out, np.eye(4))


def test_mask_coin_all_true_is_coin():
    c = dft_coin(3)
    assert np.array_equal(oracles.mask_coin(c, np.ones(3, dtype=bool)), c)


def test_mask_coin_embedding():
    out = oracles.mask_coin(hadamard_coin(), np.array([True, False, True]))
    h = 1 / np.sqrt(2)
    expected = np.array([[h, 0, h], [0, 1, 0], [h, 0, -h]])
    assert np.allclose(out, expected, atol=1e-15)
    # untouched index stays an exact identity row
    assert out[1, 1] == 1.0 and out[1, 0] == 0.0 and out[1, 2] == 0.0


def test_mask_coin_dimension_mismatch():
    with pytest.raises(ValueError):
        oracles.mask_coin(hadamard_coin(), np.array([True, True, True]))


def test_masked_node_coins_degrees():
    g = remove_edge(complete_graph(3), 1, 2)
    coins = CoinSet.from_graph(g).dense
    for j, coin in enumerate(coins, start=1):
        assert unitarity_defect(coin) < 1e-12
    # node 3 keeps degree 3, nodes 1 and 2 drop to 2
    assert np.allclose(coins[2][np.ix_([0, 1, 2], [0, 1, 2])], grover_coin(3))


# ---------------------------------------------------------------------------
# Coin application


def test_apply_rows_localized():
    out = apply_coin_rows(init_localized(2, 1, 1).amp.copy(), CoinSet.from_dense([hadamard_coin()] * 2))
    h = 1 / np.sqrt(2)
    assert np.allclose(out, [[h, h], [0, 0]])


def test_apply_rows_identity():
    s0 = init_localized(3, 2, 3)
    out = apply_coin_rows(s0.amp.copy(), CoinSet.from_dense([np.eye(3, dtype=complex)] * 3))
    assert np.array_equal(out, s0.amp)


def test_apply_rows_matches_dense_oracle(rng):
    n = 5
    s = random_state(n, rng)
    coins = [random_unitary(n, rng) for _ in range(n)]
    out = apply_coin_rows(s.amp.copy(), CoinSet.from_dense(coins))
    expected = oracles.apply_rows_dense(s.amp, coins)
    assert np.max(np.abs(out - expected)) < 1e-12
    assert abs(np.sum(np.abs(out) ** 2) - 1) < 1e-12


def test_apply_cols_matches_dense_oracle(rng):
    n = 4
    s = random_state(n, rng)
    coins = [random_unitary(n, rng) for _ in range(n)]
    out = apply_coin_cols(s.amp.copy(), CoinSet.from_dense(coins))
    expected = oracles.apply_cols_dense(s.amp, coins)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_transpose_covariance(rng):
    n = 4
    s = random_state(n, rng)
    coins = CoinSet.from_dense([random_unitary(n, rng) for _ in range(n)])
    direct = apply_coin_cols(s.amp.copy(), coins)
    via_transpose = apply_coin_rows(transpose_state(s).amp.copy(), coins).T
    assert np.array_equal(direct, via_transpose)


def test_primitives_work_in_place_on_the_buffer(rng):
    n = 4
    amp = random_state(n, rng).amp.copy()
    coins = CoinSet.from_dense([random_unitary(n, rng) for _ in range(n)])
    expected = oracles.apply_cols_dense(oracles.apply_rows_dense(amp, coins.dense), coins.dense)
    assert apply_coin_rows(amp, coins) is amp and apply_coin_cols(amp, coins) is amp
    assert np.max(np.abs(amp - expected)) < 1e-12


@pytest.mark.parametrize("apply", [apply_coin_rows, apply_coin_cols])
def test_primitives_reject_a_wrong_buffer_or_dense_coins(apply, rng):
    n = 3
    amp = random_state(n, rng).amp.copy()
    dense = [oracles.mask_coin(hadamard_coin(), np.array([True, True, False]))] * n
    coins = CoinSet.from_dense(dense)
    for bad in (amp[:2], amp.reshape(-1), np.zeros((4, 4), dtype=complex), amp.real.copy(),
                amp.astype(np.complex64), amp.tolist()):
        with pytest.raises(ValueError, match="amplitude buffer"):
            apply(bad, coins)
    with pytest.raises(TypeError, match="CoinSet"):
        apply(amp, dense)
    with pytest.raises(ValueError, match="read-only"):
        apply(random_state(n, rng).amp, coins)


def test_masking_isolation(rng):
    n = 6
    mask = np.array([True, False, True, True, False, True])
    sub = random_unitary(4, rng)
    coin = oracles.mask_coin(sub, mask)
    s = random_state(n, rng)
    out = apply_coin_rows(s.amp.copy(), CoinSet.from_dense([coin] * n))
    # masked-out columns are untouched, bit for bit
    assert np.array_equal(out[:, ~mask], s.amp[:, ~mask])
    # probability on the masked-in subspace is conserved row by row
    before = np.sum(np.abs(s.amp[:, mask]) ** 2, axis=1)
    after = np.sum(np.abs(out[:, mask]) ** 2, axis=1)
    assert np.max(np.abs(before - after)) < 1e-12


# ---------------------------------------------------------------------------
# Evolution


def test_evolve_zero_steps(rng):
    s0 = random_state(3, rng)
    assert evolve(s0, CoinPlan(3, ())) is s0


def test_evolve_matches_reference_on_k2():
    plan = CoinPlan.uniform(hadamard_coin(), 2)
    s0 = init_localized(2, 1, 1)
    a = evolve(s0, plan)
    b = reference_evolve(s0, plan)
    assert np.max(np.abs(a.amp - b.amp)) < 1e-14


@pytest.mark.parametrize("n,m", [(2, 10), (4, 6), (8, 4)])
def test_oracle_equivalence_even_steps(n, m, rng):
    plan = random_plan(n, 2 * m, rng)
    s0 = random_state(n, rng)
    a = evolve(s0, plan)
    b = reference_evolve(s0, plan)
    assert np.max(np.abs(a.amp - b.amp)) < 1e-10


def test_odd_steps_differ_by_transpose(rng):
    n, steps = 4, 7
    plan = random_plan(n, steps, rng)
    s0 = random_state(n, rng)
    a = evolve(s0, plan)
    b = reference_evolve(s0, plan)
    assert np.max(np.abs(a.amp.T - b.amp)) < 1e-12


@pytest.mark.parametrize("steps", [1, 3, 4])
def test_walk_node_distribution_reads_out_the_reference_state(steps, rng):
    n = 4
    plan = random_plan(n, steps, rng)
    s0 = random_state(n, rng)
    readout, dist = walk.walk_node_distribution(s0, plan)
    assert np.max(np.abs(readout.amp - reference_evolve(s0, plan).amp)) < 1e-12
    assert dist == position_distribution(readout)


def test_evolve_builds_one_state_and_checks_the_norm_after_every_step(monkeypatch, rng):
    n, steps = 4, 5
    plan = random_plan(n, steps, rng)
    s0 = random_state(n, rng)
    checked, built = [], []
    check_norm, post_init = walk.check_norm, WalkState.__post_init__
    monkeypatch.setattr(walk, "check_norm", lambda *a: checked.append(a[2]) or check_norm(*a))
    monkeypatch.setattr(WalkState, "__post_init__", lambda s: built.append(1) or post_init(s))
    final = evolve(s0, plan)
    assert len(built) == 1 and final is not s0
    assert checked == [f"state after step {i}" for i in range(1, steps + 1)] + ["state"]
    assert np.max(np.abs(final.amp.T - reference_evolve(s0, plan).amp)) < 1e-12


@pytest.mark.parametrize("spoil, step", [(lambda amp: amp.fill(np.nan), 2),
                                         (lambda amp: np.multiply(amp, 0.5, out=amp), 4)],
                         ids=["nan", "norm_loss"])
def test_evolve_raises_at_the_step_that_spoils_the_norm(spoil, step, monkeypatch, rng):
    n = 3
    plan = random_plan(n, 6, rng)
    cols = walk.apply_coin_cols
    calls = []

    def spoiled_cols(amp, coins):
        calls.append(1)
        cols(amp, coins)
        if 2 * len(calls) == step:
            spoil(amp)
        return amp

    monkeypatch.setattr(walk, "apply_coin_cols", spoiled_cols)
    with pytest.raises(InvariantViolation, match=f"state after step {step} norm²"):
        evolve(random_state(n, rng), plan)
    assert 2 * len(calls) == step


def test_evolve_norm_after_many_steps(rng):
    plan = random_plan(4, 20, rng)
    s = evolve(random_state(4, rng), plan)
    assert abs(np.sum(np.abs(s.amp) ** 2) - 1) < 1e-10


def test_reference_identity_coins_transpose(rng):
    s0 = random_state(3, rng)
    plan = CoinPlan.uniform(np.eye(3, dtype=complex), 1)
    s = reference_evolve(s0, plan)
    assert np.array_equal(s.amp, s0.amp.T)


def test_reference_norm_fifty_steps(rng):
    plan = random_plan(4, 50, rng)
    s = reference_evolve(random_state(4, rng), plan)
    assert abs(np.sum(np.abs(s.amp) ** 2) - 1) < 1e-10


def test_unitarity_drift_hundred_steps(rng):
    n = 16
    plan = random_plan(n, 100, rng)
    s = evolve(random_state(n, rng), plan)
    assert abs(np.sum(np.abs(s.amp) ** 2) - 1) < 1e-10


def test_a_uniform_plan_splits_its_coin_once_into_the_groups_of_from_dense(monkeypatch, rng):
    partial = np.eye(6, dtype=complex)
    partial[np.ix_([1, 4], [1, 4])] = hadamard_coin()
    coins = [grover_coin(8), dft_coin(5), partial, random_unitary(4, rng), np.eye(3, dtype=complex)]
    splits = []
    split = walk._split

    def counted(*args):
        splits.append(args[2])
        return split(*args)

    monkeypatch.setattr(walk, "_split", counted)
    for coin in coins:
        n = len(coin)
        splits.clear()
        plan = CoinPlan.uniform(coin, 3)
        assert splits == ["coin"]
        assert plan.n == n and plan.steps == 3 and len(set(map(id, plan.coin_sets))) == 1
        expected = CoinSet.from_dense([coin] * n).groups
        assert len(plan.coin_sets[0].groups) == len(expected) == (0 if np.array_equal(coin, np.eye(n)) else 1)
        for got, want in zip(plan.coin_sets[0].groups, expected):
            assert np.array_equal(got.lines, want.lines) and np.array_equal(got.states, want.states)
            assert got.kind == want.kind
            assert (got.sub is None and want.sub is None) or got.sub.tobytes() == want.sub.tobytes()


def test_plan_rejects_non_unitary():
    from gridwalk.errors import UnitarityError

    with pytest.raises(UnitarityError):
        CoinPlan.uniform(np.ones((2, 2), dtype=complex), 1)


# ---------------------------------------------------------------------------
# Distributions and serialization


def test_distribution_localized():
    d = position_distribution(init_localized(3, 1, 1))
    assert np.allclose(d.p, [1, 0, 0])


def test_distribution_uniform_amplitudes():
    n = 4
    s = WalkState(n, np.full((n, n), 1 / n, dtype=complex))
    d = position_distribution(s)
    assert np.allclose(d.p, 1 / n)


def test_distribution_sums_to_one(rng):
    d = position_distribution(random_state(6, rng))
    assert abs(d.p.sum() - 1) < 1e-12


def test_distribution_export_format(rng):
    d = position_distribution(init_localized(2, 2, 1))
    text = distribution_to_text(d)
    lines = text.strip().splitlines()
    assert lines[0].split()[0] == "1"
    assert float(lines[1].split()[1]) == 1.0


def test_state_json_round_trip(rng):
    s = random_state(3, rng)
    back = state_from_json(state_to_json(s))
    assert np.array_equal(back.amp, s.amp)


@given(st.integers(min_value=1, max_value=8), st.data())
def test_localized_distribution_property(n, data):
    j = data.draw(st.integers(1, n))
    k = data.draw(st.integers(1, n))
    d = position_distribution(init_localized(n, j, k))
    assert d.p[j - 1] == 1.0


# ---------------------------------------------------------------------------
# Cycle walk (embedded two-dimensional coins)


def test_cycle_walk_matches_line_walk_oracle():
    n, start, steps = 64, 33, 30
    g = cycle_graph(n)
    plan = CoinPlan.from_graph(g, steps, kind="hadamard")
    amp = np.zeros((n, n), dtype=complex)
    amp[start - 1, start - 2] = 1 / np.sqrt(2)
    amp[start - 1, start] = 1j / np.sqrt(2)
    s0 = WalkState(n, amp)
    final = evolve(s0, plan)
    d = position_distribution(final)
    expected = oracles.two_state_line_walk(n, start, steps)
    assert np.max(np.abs(d.p - expected)) < 1e-10


# ---------------------------------------------------------------------------
# Grouped sub-coins against the dense oracles


def random_graph(data, n):
    """Every pair (j ≤ k), self-loops included, drawn in or out; isolated nodes allowed."""
    pairs = [(j, k) for j in range(1, n + 1) for k in range(j, n + 1)]
    keep = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, frozenset(p for p, k in zip(pairs, keep) if k))


def dense_graph_coins(g, kind):
    """Per-node dense coins embedded one node at a time, the pre-grouping way."""
    coins = []
    for j in range(1, g.n + 1):
        row = g.row(j)
        degree = int(row.sum())
        coins.append(oracles.mask_coin(coin_for_degree(kind, degree) if degree else None, row))
    return coins


def random_partial_coin(n, rng):
    """A Haar sub-coin on a random subset of the coin states (possibly none)."""
    support = rng.random(n) < rng.random()
    d = int(support.sum())
    return oracles.mask_coin(random_unitary(d, rng) if d else None, support)


def assert_kernel_matches_oracles(s, coin_set, dense):
    """Both steps match the dense oracles, and keep the bits of every coin state its line's coin fixes."""
    rows, cols = oracles.apply_rows_dense(s.amp, dense), oracles.apply_cols_dense(s.amp, dense)
    moved = np.stack(dense) != np.eye(s.n)
    fixed = ~(moved.any(axis=1) | moved.any(axis=2))  # fixed[j, k]: coin j has identity row and column k
    for grouped in (coin_set, CoinSet.from_dense(dense)):
        on_rows, on_cols = apply_coin_rows(s.amp.copy(), grouped), apply_coin_cols(s.amp.copy(), grouped)
        assert np.max(np.abs(on_rows - rows)) < 1e-12
        assert np.max(np.abs(on_cols - cols)) < 1e-12
        assert on_rows[fixed].tobytes() == s.amp[fixed].tobytes()
        assert on_cols[fixed.T].tobytes() == s.amp[fixed.T].tobytes()


@given(st.integers(1, 7), st.sampled_from(["grover", "dft"]), st.integers(1, 5),
       st.integers(0, 2**32 - 1), st.data())
def test_grouped_graph_coins_match_dense_oracles(n, kind, steps, seed, data):
    g = random_graph(data, n)
    rng = np.random.default_rng(seed)
    s0 = random_state(n, rng)
    plan = CoinPlan.from_graph(g, steps, kind)
    dense = dense_graph_coins(g, kind)
    assert_kernel_matches_oracles(s0, plan.coin_set(1), dense)
    reference = reference_evolve(s0, CoinPlan.from_node_coins(dense, steps))
    grid = evolve(s0, plan).amp
    assert np.max(np.abs((grid.T if steps % 2 else grid) - reference.amp)) < 1e-12


@given(st.integers(1, 6), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_grouped_step_coins_match_dense_oracles(n, steps, seed):
    rng = np.random.default_rng(seed)
    s0 = random_state(n, rng)
    step_coins = [[random_partial_coin(n, rng) for _ in range(n)] for _ in range(steps)]
    # an array of coins is read as nested lists of coins are
    plan = CoinPlan.from_step_coins(np.array(step_coins))
    for i, dense in enumerate(step_coins, start=1):
        assert_kernel_matches_oracles(s0, plan.coin_set(i), dense)
        assert all(np.array_equal(a, b) for a, b in zip(plan.coins_for_step(i), dense))
    grid = evolve(s0, plan).amp
    reference = reference_evolve(s0, plan)
    assert np.max(np.abs((grid.T if steps % 2 else grid) - reference.amp)) < 1e-12


def one_group(sub):
    d = len(sub)
    return CoinGroup(np.arange(3), np.arange(d) + np.zeros((3, 1), dtype=int), sub)


@pytest.mark.parametrize("d", [1, 2, 3, 16, 255])
def test_coin_group_kind_is_recognized_by_value(d):
    grover, dft = one_group(grover_coin(d)), one_group(dft_coin(d))
    assert grover.kind == "grover"
    # the 1×1 DFT coin is [[1]], the 1×1 Grover coin bit for bit, and takes its name
    assert dft.kind == ("grover" if d == 1 else "dft")
    # a recognized group keeps its kind and no matrix
    assert grover.sub is None and dft.sub is None


@pytest.mark.parametrize("sub, kind, reason", [
    (None, None, "either a sub-coin or a kind"),
    (grover_coin(3), "grover", "either a sub-coin or a kind"),
    (None, "hadamard", r"kind is one of \('grover', 'dft'\), got 'hadamard'"),
])
def test_a_coin_group_takes_a_sub_coin_or_a_structured_kind(sub, kind, reason):
    with pytest.raises(ValueError, match=reason):
        CoinGroup(np.arange(3), np.arange(3) + np.zeros((3, 1), dtype=int), sub, kind)


def test_hadamard_and_a_coin_one_ulp_off_grover_have_no_kind_and_match_the_oracle(rng):
    n = 16
    near = grover_coin(n)
    near[0, 1] = np.nextafter(near[0, 1].real, 1.0)
    coins = CoinSet.from_dense([near] * n)
    assert [grp.kind for grp in coins.groups] == [None]
    assert one_group(hadamard_coin()).kind is None
    s = random_state(n, rng)
    assert_kernel_matches_oracles(s, coins, [near] * n)


# K64 with self-loops minus two edges: 60 whole lines of 64 states and 4 lines of 63
K64_MINUS_TWO = remove_edge(remove_edge(complete_graph(64), 1, 2), 3, 4)


@example(g=K64_MINUS_TWO, kind="grover", seed=1)
@example(g=K64_MINUS_TWO, kind="dft", seed=1)
@given(dense_graphs(64), st.sampled_from(["grover", "dft"]), st.integers(0, 2**32 - 1))
def test_structured_coin_kernels_match_dense_oracles(g, kind, seed):
    graph_coins, dense = CoinSet.from_graph(g, kind), dense_graph_coins(g, kind)
    for coins in (graph_coins, CoinSet.from_dense(dense)):
        # a degree-1 node's coin is [[1]] under either kind, and is named Grover
        assert all(grp.kind == (kind if grp.states.shape[1] > 1 else "grover") for grp in coins.groups)
    for grp in graph_coins.groups:
        # a structured group is its kind: the coin its kernel applies is built only by dense
        assert grp.sub is None
        assert oracles.gram_defect(coin_for_degree(kind, grp.states.shape[1])) < 1e-12
    assert_kernel_matches_oracles(random_state(g.n, np.random.default_rng(seed)), graph_coins, dense)


def whole_line_coins(n, kind, whole, rng):
    """Dense coins of n lines: ``whole`` random lines carry the whole-line coin of ``kind``.

    Each other line carries an exact identity, a Hadamard sub-coin on two
    random states or a Haar sub-coin on a random subset of the states.
    """
    coin = coin_for_degree(kind, n)
    order = rng.permutation(n)
    coins = [coin] * n
    for j in order[whole:]:
        other = rng.integers(3)
        if other == 0:
            coins[j] = np.eye(n, dtype=complex)
        elif other == 1:
            coins[j] = oracles.mask_coin(hadamard_coin(), np.isin(np.arange(n), rng.choice(n, 2, replace=False)))
        else:
            coins[j] = random_partial_coin(n, rng)
    return coins


@example(n=16, kind="grover", whole=12, seed=1)
@example(n=16, kind="dft", whole=12, seed=1)
@example(n=17, kind="grover", whole=9, seed=2)  # just over half of the lines: in place
@example(n=16, kind="dft", whole=8, seed=3)  # half of the lines: gathered
@example(n=16, kind="grover", whole=16, seed=4)  # every line: nothing to restore
@given(st.integers(2, 33), st.sampled_from(["grover", "dft"]), st.integers(1, 33), st.integers(0, 2**32 - 1))
def test_whole_line_structured_groups_match_dense_oracles(n, kind, whole, seed):
    whole = min(whole, n)
    rng = np.random.default_rng(seed)
    dense = whole_line_coins(n, kind, whole, rng)
    coins = CoinSet.from_dense(dense)
    # the group steps in place exactly when it holds more than half of the lines
    assert len(coins._in_place) == (2 * whole > n)
    assert_kernel_matches_oracles(random_state(n, rng), coins, dense)


@pytest.mark.parametrize("kind", ["grover", "dft"])
def test_an_in_place_step_that_does_not_restore_the_other_lines_fails_the_oracles(kind, rng):
    n = 16
    dense = whole_line_coins(n, kind, 12, rng)
    coins = CoinSet.from_dense(dense)
    ((kernel, (rows, cols)),) = coins._in_place
    # the mutant saves and restores nothing, in either orientation
    object.__setattr__(coins, "_in_place", ((kernel, (rows[:0], cols[:0])),))
    with pytest.raises(AssertionError):
        assert_kernel_matches_oracles(random_state(n, rng), coins, dense)


@example(n=17, kind="grover", whole=9, seed=1, g=remove_edge(complete_graph(17), 1, 2))  # in place, d = 16
@example(n=16, kind="dft", whole=8, seed=2, g=remove_edge(complete_graph(16), 3, 3))  # half: gathered
@example(n=33, kind="grover", whole=5, seed=3, g=cycle_graph(33))
@example(n=2, kind="dft", whole=0, seed=4, g=Graph(2))
@given(st.integers(2, 33), st.sampled_from(["grover", "dft"]), st.integers(0, 33), st.integers(0, 2**32 - 1),
       dense_graphs(33))
def test_flat_index_groups_equal_the_fancy_index_oracle_bit_for_bit(n, kind, whole, seed, g):
    rng = np.random.default_rng(seed)
    sets = (
        # a whole-line group in place or gathered, identity lines, Hadamard and Haar groups
        CoinSet.from_dense(whole_line_coins(n, kind, min(whole, n), rng)),
        # whole-line and partial-line groups of one kind
        CoinSet.from_graph(g, kind),
        CoinSet.from_graph(cycle_graph(max(n, 3)), "hadamard"),
    )
    for coins in sets:
        amp = random_state(coins.n, rng).amp.copy()
        for orientation, apply in enumerate((apply_coin_rows, apply_coin_cols)):
            expected = oracles.apply_groups_fancy(coins, amp, orientation)
            assert apply(amp.copy(), coins).tobytes() == expected.tobytes()


@pytest.mark.parametrize("apply", [apply_coin_rows, apply_coin_cols])
@pytest.mark.parametrize("whole", [0, 12])
def test_a_buffer_that_is_not_c_contiguous_is_rejected_untouched(apply, whole, rng):
    n = 16
    coins = CoinSet.from_dense(whole_line_coins(n, "grover", whole, rng))
    assert len(coins._in_place) == (whole > 0)
    big = random_state(2 * n, rng).amp.copy()
    amp = big[:n, :n].copy()
    for bad, whole_buffer in ((amp.T, amp), (big[::2, ::2], big)):
        before = whole_buffer.copy()
        with pytest.raises(ValueError, match="amplitude buffer"):
            apply(bad, coins)
        assert whole_buffer.tobytes() == before.tobytes()


def k64_minus_many():
    """K64 with self-loops minus edges: node degrees 1 and 57 to 63."""
    present = np.ones((64, 64), dtype=bool)
    present[0, 1:] = present[1:, 0] = False  # node 1 keeps its loop alone
    for j in range(2, 7):  # node j loses its edges to the last j nodes
        present[j - 1, 64 - j:] = present[64 - j:, j - 1] = False
    return Graph(64, np.argwhere(present) + 1)


@pytest.mark.parametrize("kind", ["grover", "dft"])
@pytest.mark.parametrize("spoil", ["shift", "nan", "sign"])
def test_a_sub_coin_off_its_kinds_coin_is_checked_as_a_general_one(kind, spoil, rng):
    d = 64
    coin = coin_for_degree(kind, d)
    if spoil == "sign":
        spoiled = -coin  # unitary and symmetric, but not the coin the kernel applies
        grp = one_group(spoiled)
        # no kernel: the group holds its own copy and steps by a matmul
        assert grp.kind is None and grp.sub.tobytes() == spoiled.tobytes()
        assert_kernel_matches_oracles(random_state(d, rng), CoinSet.from_dense([spoiled] * d), [spoiled] * d)
    else:
        spoiled = coin.copy()
        spoiled[d // 2, d - 1] += 1e-9 if spoil == "shift" else np.nan
        with pytest.raises(UnitarityError, match=r"^sub-coin is not unitary: max\|u†u − I\| = .* ≥ 1\.0e-12$"):
            one_group(spoiled)


@pytest.mark.parametrize("g, kind", [
    (k64_minus_many(), "grover"), (k64_minus_many(), "dft"), (cycle_graph(64), "hadamard"),
])
def test_a_graph_coin_set_builds_each_structured_coin_once(g, kind, monkeypatch, rng):
    calls = []
    for name, build in (("grover_coin", grover_coin), ("dft_coin", dft_coin)):
        monkeypatch.setattr(walk, name, lambda d, build=build: calls.append(d) or build(d))
    plan = CoinPlan.from_graph(g, 3, kind)
    evolve(random_state(g.n, rng), plan)
    coins = plan.coin_set(1)
    structured = kind in ("grover", "dft")
    # a Grover or DFT group is its kind, so neither the plan nor the walk builds its coin;
    # the Hadamard sub-coin is compared once with the Grover and DFT coins of its size
    assert sorted(calls) == ([] if structured else [2, 2])
    calls.clear()
    dense = coins.dense
    monkeypatch.undo()
    # a degree-1 node's Grover or DFT coin is [[1]]: it is neither built nor grouped
    degrees = {g.degree(j) for j in range(1, g.n + 1)} - ({1} if structured else set())
    assert sorted(calls) == (sorted(degrees) if structured else [])
    assert sorted(grp.states.shape[1] for grp in coins.groups) == sorted(degrees)
    for grp in coins.groups:
        coin = coin_for_degree(kind, grp.states.shape[1])
        if structured:
            assert grp.kind == kind and grp.sub is None
        else:
            assert grp.kind is None and grp.sub.tobytes() == coin.tobytes() and not grp.sub.flags.writeable
        for line, states in zip(grp.lines, grp.states):
            assert dense[line][np.ix_(states, states)].tobytes() == coin.tobytes()


@pytest.mark.parametrize("kind", ["grover", "dft"])
def test_a_degree_one_line_joins_no_group(kind):
    # the path 1–2–…–8: the end nodes have degree 1, whose coin [[1]] fixes their lines
    n = 8
    g = Graph(n, frozenset((j, j + 1) for j in range(1, n)))
    coins = CoinSet.from_graph(g, kind)
    assert [grp.states.shape[1] for grp in coins.groups] == [2]
    assert coins.groups[0].lines.tolist() == list(range(1, n - 1))
    assert np.array_equal(coins.dense[0], np.eye(n)) and np.array_equal(coins.dense[-1], np.eye(n))
    assert all(np.array_equal(a, b) for a, b in zip(coins.dense, dense_graph_coins(g, kind)))
    with pytest.raises(ValueError, match="hadamard coin needs degree 2, node has degree 1"):
        CoinSet.from_graph(g, "hadamard")


@pytest.mark.parametrize("view", [False, True])
def test_a_constructed_coin_group_keeps_its_own_sub_coin(view):
    """A caller's array, or the writable base of a read-only view of it, stays the caller's to change."""
    caller = hadamard_coin()
    sub = caller
    if view:
        sub = caller.view()
        sub.setflags(write=False)
    grp = one_group(sub)
    caller[:] = 0
    assert grp.sub.tobytes() == hadamard_coin().tobytes() and grp.kind is None
    assert not grp.sub.flags.writeable


def sparse_graph(n, rng):
    """A random Hamiltonian path plus n/2 random edges: low mixed degrees, some loops."""
    order = rng.permutation(n) + 1
    edges = set(zip(order[:-1].tolist(), order[1:].tolist()))
    edges |= {tuple(e) for e in rng.integers(1, n + 1, size=(n // 2, 2)).tolist()}
    return Graph(n, frozenset(edges))


@pytest.mark.parametrize("which", ["ring", "sparse"])
def test_graph_plan_holds_no_dense_coins(which, monkeypatch, rng):
    n = 256
    g, kind = (cycle_graph(n), "hadamard") if which == "ring" else (sparse_graph(n, rng), "grover")
    calls = []
    build = walk.coin_for_degree
    monkeypatch.setattr(walk, "coin_for_degree", lambda k, d: calls.append(d) or build(k, d))
    plan = CoinPlan.from_graph(g, 40, kind)
    sets = {id(c): c for c in plan.coin_sets}.values()
    arrays = [a for c in sets for grp in c.groups for a in (grp.lines, grp.states, grp.sub) if a is not None]
    assert len(sets) == 1 and all("dense" not in vars(c) for c in sets)
    assert all(a.shape != (n, n) for a in arrays)
    assert sum(a.nbytes for a in arrays) < 2**20
    # the ring's one Hadamard coin is built; a Grover group is its kind and builds none
    assert calls == ([2] if which == "ring" else [])


def test_equal_sub_coins_share_one_group():
    sub = hadamard_coin()
    coins = [oracles.mask_coin(sub, np.array(m, dtype=bool))
             for m in ([1, 1, 0], [0, 1, 1], [0, 0, 0])]
    (group,) = CoinSet.from_dense(coins).groups
    assert group.lines.tolist() == [0, 1]
    assert group.states.tolist() == [[0, 1], [1, 2]]


def test_dense_coins_keep_their_identity():
    plan = CoinPlan.from_graph(cycle_graph(6), 3, "hadamard")
    first = plan.coins_for_step(1)
    assert all(a is b for a, b in zip(first, plan.coins_for_step(3)))
    assert not first[0].flags.writeable


def test_coin_set_checks_only_the_sub_block():
    coin = np.eye(4, dtype=complex)
    coin[np.ix_([1, 3], [1, 3])] = [[1, 1], [1, -1]]
    with pytest.raises(UnitarityError):
        CoinSet.from_dense([coin] * 4)


@pytest.mark.parametrize("lines, states, reason", [
    ([0, 0], [[0, 1], [1, 2]], "two coin groups"),
    ([0], [[0, 3]], "outside"),
    ([0], [[1, 0]], "increase"),
])
def test_coin_set_rejects_bad_groups(lines, states, reason):
    with pytest.raises(ValueError, match=reason):
        CoinSet(3, (CoinGroup(np.array(lines), np.array(states), hadamard_coin()),))


def test_a_coin_group_without_active_states_is_rejected_by_name():
    # a d = 0 group would reach CoinSet with an empty sub-coin
    with pytest.raises(ValueError, match="at least one active coin state per line, got d = 0"):
        CoinGroup(np.array([0, 1]), np.zeros((2, 0), dtype=int), np.zeros((0, 0)))


def test_nan_matrix_is_not_unitary():
    with pytest.raises(UnitarityError):
        check_unitary(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-12)


def test_nan_coin_is_rejected():
    with pytest.raises(UnitarityError):
        CoinPlan.uniform(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1)


def test_nan_walk_state_is_rejected():
    with pytest.raises(InvariantViolation):
        WalkState(2, np.full((2, 2), np.nan, dtype=complex))


def test_nan_distribution_is_rejected():
    with pytest.raises(InvariantViolation):
        walk.Distribution(np.array([np.nan, 0.5]))


def test_walk_state_and_distribution_compare_and_hash_by_value(rng):
    s = random_state(4, rng)
    a, b = WalkState(4, s.amp.copy()), WalkState(4, s.amp.copy())
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != random_state(4, rng) and a != init_localized(2, 1, 1) and a != a.amp
    p, q = position_distribution(a), position_distribution(b)
    assert p is not q and p == q and hash(p) == hash(q)
    assert p != position_distribution(random_state(4, rng)) and p != p.p
    # −0.0 and +0.0 are equal numbers with other bytes; a distribution clips −0.0 to +0.0
    assert WalkState(2, [[1.0, 0.0], [0.0, 0.0]]) != WalkState(2, [[1.0, -0.0], [0.0, 0.0]])
    assert walk.Distribution(np.array([1.0, -0.0])) == walk.Distribution(np.array([1.0, 0.0]))
