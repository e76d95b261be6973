import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import cossin

import oracles
from gridwalk import decompose
from gridwalk.decompose import (
    INPUT_UNITARITY_TOL,
    RECONSTRUCTION_TOL,
    ROTATION_TOL,
    Stage,
    StageSequence,
    apply_stage,
    cs_decompose,
    cs_factor,
    grover_stages,
    reconstruct,
    rotate_in_place,
    sequence_from_json,
    sequence_to_json,
    stage_matrix,
    stage_sites,
    unitary_from_json,
    unitary_to_json,
)
from gridwalk.conveyor import COLUMN, ROW
from gridwalk.errors import UnitarityError
from gridwalk.util import next_power_of_two, random_unitary, unitarity_defect
from gridwalk.walk import CoinSet, hadamard_coin
from strategies import dense_graphs


def enumerate_pairs(n, d):
    # direct enumeration of the 1-based index formula, independent of stage_sites
    out = []
    for k in range(n // d):
        for r in range(1, d // 2 + 1):
            out.append([k * d + r, k * d + r + d // 2])
    return sorted(out)


def random_stage(n, d, rng):
    return Stage(d, np.stack([random_unitary(2, rng) for _ in range(n // 2)]))


def identity_stage(n, d):
    return Stage(d, np.broadcast_to(np.eye(2), (n // 2, 2, 2)))


def one_stage_json(d, pairs, u):
    doc = {"version": 1, "n": 2 * len(pairs), "stages": [{"d": d, "pairs": [
        {"a": a, "b": b, "u": [[z.real, z.imag] for z in np.asarray(u, dtype=complex).reshape(-1)]}
        for a, b in pairs
    ]}]}
    return json.dumps(doc)


# ---------------------------------------------------------------------------
# Stage pair schedule


def one_based_pairs(n, d):
    return (stage_sites(n, d) + 1).tolist()


def test_stage_pairs_n4_d2():
    assert one_based_pairs(4, 2) == [[1, 2], [3, 4]]


def test_stage_pairs_n4_d4():
    assert one_based_pairs(4, 4) == [[1, 3], [2, 4]]


def test_stage_pairs_n8_d4():
    assert one_based_pairs(8, 4) == [[1, 3], [2, 4], [5, 7], [6, 8]]


@pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
def test_stage_pairs_match_enumeration(n):
    d = 2
    while d <= n:
        assert one_based_pairs(n, d) == enumerate_pairs(n, d)
        d *= 2


@pytest.mark.parametrize("n,d", [(4, 3), (4, 8), (8, 3), (6, 2), (8, 0)])
def test_stage_pairs_rejects_bad_strides(n, d):
    with pytest.raises(ValueError):
        stage_sites(n, d)


def test_stage_pairs_cover_all_indices():
    for n in (4, 8, 16):
        d = 2
        while d <= n:
            flat = [i for p in one_based_pairs(n, d) for i in p]
            assert sorted(flat) == list(range(1, n + 1))
            d *= 2


def test_stage_validates_pattern(rng):
    u = random_unitary(2, rng)
    # the stride-4 pairs (1,3), (2,4) declared as a stride-2 stage
    with pytest.raises(ValueError):
        sequence_from_json(one_stage_json(2, [(1, 3), (2, 4)], u))
    # a stack of rotations that no stride-d pattern on n = 2·len fits
    with pytest.raises(ValueError):
        Stage(8, np.stack([u, u]))
    with pytest.raises(ValueError):
        Stage(2, np.stack([u, u, u]))


def test_pair_rotation_validates():
    with pytest.raises(ValueError):
        sequence_from_json(one_stage_json(2, [(2, 1)], np.eye(2)))
    with pytest.raises(ValueError):
        Stage(2, np.eye(3, dtype=complex)[None])
    with pytest.raises(UnitarityError):
        Stage(2, np.ones((1, 2, 2), dtype=complex))


# ---------------------------------------------------------------------------
# Decomposition and reconstruction


def test_identity_decomposes_to_identity_stages():
    seq = cs_decompose(np.eye(4, dtype=complex))
    assert len(seq.stages) == 3
    for stage in seq.stages:
        assert np.array_equal(stage.u, identity_stage(4, stage.d).u)


def test_hadamard_tensor_round_trip():
    u = np.kron(hadamard_coin(), hadamard_coin())
    seq = cs_decompose(u)
    assert np.max(np.abs(reconstruct(seq) - u)) < 1e-12


def test_two_by_two_single_stage(rng):
    u = random_unitary(2, rng)
    seq = cs_decompose(u)
    assert len(seq.stages) == 1
    assert seq.stages[0].d == 2
    assert np.max(np.abs(reconstruct(seq) - u)) < 1e-14


@pytest.mark.parametrize("n", [4, 8, 16])
def test_haar_random_round_trip(n, rng):
    for _ in range(10):
        u = random_unitary(n, rng)
        seq = cs_decompose(u)
        assert len(seq.stages) == n - 1
        assert np.max(np.abs(reconstruct(seq) - u)) < 1e-10


def test_stride_schedule_structure(rng):
    seq = cs_decompose(random_unitary(8, rng))
    assert [s.d for s in seq.stages] == [2, 4, 2, 8, 2, 4, 2]


def test_rejects_non_unitary():
    with pytest.raises(UnitarityError):
        cs_decompose(np.ones((4, 4), dtype=complex))


@given(st.integers(1, 8), st.sampled_from([2, 4, 8, 16]), st.data(), st.integers(0, 2**32 - 1))
def test_stack_decomposes_coin_by_coin(coins, n, data, seed):
    # L = 1..8 coins, Haar and exact identity mixed; a stack whose L·n is not
    # a power of two is padded with identity coins, as run_walk_physical pads
    rng = np.random.default_rng(seed)
    eye = data.draw(st.lists(st.booleans(), min_size=coins, max_size=coins))
    size = next_power_of_two(coins)
    stack = np.stack([np.eye(n, dtype=complex) if e else random_unitary(n, rng) for e in eye]
                     + [np.eye(n, dtype=complex)] * (size - coins))
    seq = cs_decompose(stack)
    assert seq.n == size * n and len(seq.stages) == n - 1
    h = n // 2
    for t, coin in enumerate(stack):
        for stage, own in zip(seq.stages, cs_decompose(coin).stages, strict=True):
            assert stage.d == own.d and stage.u[t * h:(t + 1) * h].tobytes() == own.u.tobytes()
    assert np.max(np.abs(reconstruct(seq) - oracles.rows_coin_matrix(stack))) < 1e-10
    if size != coins:
        with pytest.raises(ValueError):
            cs_decompose(stack[:coins])


@pytest.mark.parametrize("shape", [(4,), (2, 4, 2), (0, 4, 4), (2, 2, 4, 4), (1, 1), (2, 1, 1)])
def test_rejects_malformed_stacks(shape):
    with pytest.raises(ValueError):
        cs_decompose(np.zeros(shape, dtype=complex))


def test_rejects_a_non_unitary_coin_in_a_stack(rng):
    stack = np.stack([random_unitary(4, rng), np.ones((4, 4), dtype=complex)])
    with pytest.raises(UnitarityError):
        cs_decompose(stack)


def test_rejects_non_power_of_two(rng):
    u = random_unitary(3, rng)
    with pytest.raises(ValueError):
        cs_decompose(u)


def test_reconstruct_empty_sequence():
    assert np.array_equal(reconstruct(StageSequence(4, ())), np.eye(4))


def test_reconstruct_single_hadamard_stage():
    stage = Stage(2, hadamard_coin()[None])
    assert np.allclose(reconstruct(StageSequence(2, (stage,))), hadamard_coin())


def test_identity_stack_decomposes_into_exact_identity_stages():
    # every block of every level is an exact identity and skips the factorization
    seq = cs_decompose(np.broadcast_to(np.eye(8), (2, 8, 8)))
    assert [s.d for s in seq.stages] == [2, 4, 2, 8, 2, 4, 2]
    assert all(s.u.tobytes() == identity_stage(16, s.d).u.tobytes() for s in seq.stages)
    assert np.array_equal(reconstruct(seq), np.eye(16))


def test_reconstruction_is_unitary(rng):
    seq = cs_decompose(random_unitary(16, rng))
    assert unitarity_defect(reconstruct(seq)) < 1e-10


# ---------------------------------------------------------------------------
# Stage application


def test_apply_stage_identity_rotations(rng):
    line = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    stage = identity_stage(4, 2)
    assert np.array_equal(apply_stage(line, stage), line)


def test_apply_stage_swap():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    stage = Stage(2, np.stack([swap, eye]))
    out = apply_stage(np.array([1, 0, 0, 0], dtype=complex), stage)
    assert out.tolist() == [0, 1, 0, 0]


def test_apply_stage_norm_preserved(rng):
    stage = random_stage(8, 4, rng)
    line = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    line /= np.linalg.norm(line)
    assert abs(np.linalg.norm(apply_stage(line, stage)) - 1) < 1e-12


def test_apply_stage_matches_dense_oracle(rng):
    n, d = 8, 4
    stage = random_stage(n, d, rng)
    pairs = one_based_pairs(n, d)
    units = list(stage.u)
    dense = oracles.stage_matrix_dense(n, pairs, units)
    line = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    assert np.max(np.abs(apply_stage(line, stage) - dense @ line)) < 1e-12
    assert np.max(np.abs(stage_matrix(stage) - dense)) < 1e-15


def test_apply_stage_order_insensitive(rng):
    n, d = 16, 8
    stage = random_stage(n, d, rng)
    line = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    base = apply_stage(line, stage)
    for perm_seed in range(4):
        # one 2×2 rotation at a time, in a shuffled pair order
        perm = np.random.default_rng(perm_seed).permutation(n // 2)
        shuffled = line.copy()
        for k in perm:
            a, b = stage_sites(n, d)[k]
            xa, xb = shuffled[a], shuffled[b]
            shuffled[a] = stage.u[k, 0, 0] * xa + stage.u[k, 0, 1] * xb
            shuffled[b] = stage.u[k, 1, 0] * xa + stage.u[k, 1, 1] * xb
        assert shuffled.tobytes() == base.tobytes()


@given(st.integers(1, 5), st.data(), st.sampled_from([ROW, COLUMN]), st.integers(0, 2**32 - 1))
def test_rotate_in_place_is_bitwise_per_pair_scalar_products(log_n, data, orientation, seed):
    # every stride 2..n for n up to 32, on the data sites of L = 1, 2, 4 or 8 of the n
    # lines of 2n cells of one buffer, a strided view for COLUMN; L = 1 runs on the bare line
    n = 2**log_n
    d = 2 ** data.draw(st.integers(1, log_n))
    size = 2 ** data.draw(st.integers(0, min(3, log_n)))
    rng = np.random.default_rng(seed)
    shape = (n, 2 * n) if orientation == ROW else (2 * n, n)
    amp = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    def lines_of(buffer):
        return buffer if orientation == ROW else buffer.T

    stage = random_stage(size * n, d, rng)
    sites = stage_sites(n, d)
    expected = amp.copy()
    u = stage.u.reshape(size, n // 2, 2, 2)
    for t, line in enumerate(lines_of(expected)[:size, 0::2]):
        for k, (a, b) in enumerate(sites.tolist()):
            xa, xb = line[a], line[b]
            line[a] = u[t, k, 0, 0] * xa + u[t, k, 0, 1] * xb
            line[b] = u[t, k, 1, 0] * xa + u[t, k, 1, 1] * xb
    block = lines_of(amp)[:size, 0::2]
    rotate_in_place(block[0] if size == 1 else block, sites, stage)
    assert amp.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# Serialization


def test_sequence_json_round_trip(rng):
    seq = cs_decompose(random_unitary(8, rng))
    back = sequence_from_json(sequence_to_json(seq))
    assert back.n == seq.n
    assert [s.d for s in back.stages] == [s.d for s in seq.stages]
    assert np.max(np.abs(reconstruct(back) - reconstruct(seq))) == 0.0


def test_unitary_json_round_trip(rng):
    u = random_unitary(4, rng)
    assert np.array_equal(unitary_from_json(unitary_to_json(u)), u)


def test_sequence_json_keeps_every_bit(rng):
    seq = cs_decompose(random_unitary(16, rng))
    text = sequence_to_json(seq)
    back = sequence_from_json(text)
    assert back == seq
    assert sequence_to_json(back) == text


def test_sequence_from_json_rejects_other_versions(rng):
    doc = json.loads(sequence_to_json(cs_decompose(random_unitary(4, rng))))
    for version in (99, None):
        doc["version"] = version
        with pytest.raises(ValueError, match="version"):
            sequence_from_json(json.dumps(doc))


def test_sequence_from_json_rejects_reordered_pairs(rng):
    u = np.stack([random_unitary(2, rng), random_unitary(2, rng)])
    with pytest.raises(ValueError):
        sequence_from_json(one_stage_json(4, [(2, 4), (1, 3)], u))
    with pytest.raises(ValueError):
        sequence_from_json(one_stage_json(4, [(1, 3), (1, 3)], u))


# ---------------------------------------------------------------------------
# Value semantics


def test_stage_and_sequence_compare_and_hash_by_value(rng):
    u = random_unitary(8, rng)
    a, b = cs_decompose(u), cs_decompose(u.copy())
    assert a is not b and a == b and hash(a) == hash(b)
    assert a.stages[3] == b.stages[3] and hash(a.stages[3]) == hash(b.stages[3])
    assert len({a, b}) == 1
    assert a != cs_decompose(random_unitary(8, rng))
    assert a.stages[0] != a.stages[1]
    # the same stack of rotations at another stride is another stage
    stack = random_stage(4, 2, rng).u
    assert Stage(2, stack) != Stage(4, stack)
    assert Stage(2, stack) != stack


def test_stage_arrays_are_read_only(rng):
    stage = random_stage(8, 4, rng)
    for array in (stage.u, stage_sites(stage.n, stage.d)):
        with pytest.raises(ValueError):
            array[0] = 0
    # the pairs follow from n and d: a stage keeps no table of its own
    assert set(vars(stage)) == {"d", "u"}


def test_stage_rejects_nan():
    u = np.broadcast_to(np.eye(2, dtype=complex), (4, 2, 2)).copy()
    u[2, 1, 0] = np.nan
    with pytest.raises(UnitarityError):
        Stage(4, u)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("entry", [(0, 0), (0, 1), (1, 0), (1, 1)], ids=["a", "b", "c", "d"])
def test_a_non_finite_rotation_entry_fails_every_stage_check(entry, value, rng):
    stack = np.stack([random_stage(8, 2, rng).u, random_stage(8, 4, rng).u])
    stack[1, 3][entry] = value
    with pytest.raises(UnitarityError, match="stride-4 stage rotation"):
        Stage(4, stack[1])
    with pytest.raises(UnitarityError, match="stride-4 stage 2 rotation"):
        decompose._stage_sequence(8, [2, 4], stack)


@given(st.sampled_from([2, 4, 8, 16, 32, 64]), st.integers(0, 2**32 - 1))
def test_cs_factor_is_bitwise_cossin(m, seed):
    blk = random_unitary(m, np.random.default_rng(seed))
    (u1, u2), theta, (v1h, v2h) = cs_factor(blk)
    expected = cossin(blk, p=m // 2, q=m // 2, separate=True)
    (e1, e2), etheta, (ev1h, ev2h) = expected
    for got, want in ((u1, e1), (u2, e2), (theta, etheta), (v1h, ev1h), (v2h, ev2h)):
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# Closed-form Grover synthesis


def padded_stack(coins, npad):
    """The (npad, npad, npad) stack of a coin set's dense coins, padded with identity lines and states."""
    stack = np.broadcast_to(np.eye(npad, dtype=complex), (npad, npad, npad)).copy()
    stack[:coins.n, :coins.n, :coins.n] = coins.dense
    return stack


def grover_mask(g):
    """The active states of a graph's coins, padded to a power-of-two square of at least 2."""
    npad = max(2, next_power_of_two(g.n))
    mask = np.zeros((npad, npad), dtype=bool)
    mask[:g.n, :g.n] = g.present
    return mask


@given(st.integers(1, 8), st.integers(0, 3), st.floats(0, 1), st.integers(0, 2**32 - 1))
def test_every_grover_stage_is_unitary_read_only_and_a_public_stage(log_m, log_lines, density, seed):
    # the stages are checked once per sequence, as one stack; each must still
    # pass the public constructor's own check and equal what it keeps
    mask = np.random.default_rng(seed).random((2**log_lines, 2**log_m)) < density
    for stage in grover_stages(mask).stages:
        assert oracles.gram_defect(stage.u) < ROTATION_TOL
        assert not stage.u.flags.writeable
        assert stage == Stage(stage.d, stage.u.copy())


@pytest.mark.parametrize("shape", [(2, 2), (4, 2, 2)], ids=["2x2", "8x8-of-2x2-coins"])
def test_a_near_unitary_input_passes_the_input_check_but_not_the_stage_check(shape, rng):
    # at n = 2 the input blocks are the stage's rotations, so a defect between
    # ROTATION_TOL and INPUT_UNITARITY_TOL is caught where the stage is made
    u = np.stack([random_unitary(2, rng) for _ in range(math.prod(shape[:-2]))]).reshape(shape) * np.sqrt(1 + 5e-11)
    assert ROTATION_TOL < oracles.gram_defect(u) < INPUT_UNITARITY_TOL
    with pytest.raises(UnitarityError, match="stride-2 stage 1 rotation"):
        cs_decompose(u)


def test_a_near_unitary_full_coin_keeps_unitary_factors(rng):
    # LAPACK's side factors of a full 8×8 coin are unitary to rounding, so its
    # 5e-11 defect passes every stage check and shows in the reconstruction
    u = random_unitary(8, rng) * np.sqrt(1 + 5e-11)
    assert ROTATION_TOL < oracles.gram_defect(u) < INPUT_UNITARITY_TOL
    seq = cs_decompose(u)
    assert all(oracles.gram_defect(stage.u) < ROTATION_TOL for stage in seq.stages)
    assert np.max(np.abs(reconstruct(seq) - u)) < RECONSTRUCTION_TOL


@pytest.mark.parametrize("which", [0, 3, -1])
@pytest.mark.parametrize("synthesize", [
    lambda rng: grover_stages(rng.random((4, 16)) < 0.6),
    lambda rng: cs_decompose(np.stack([random_unitary(16, rng) for _ in range(2)])),
], ids=["grover", "cs"])
def test_a_mutant_block_in_the_stage_stack_is_named_by_its_stride(synthesize, which, rng, monkeypatch):
    build, named = decompose._stage_sequence, []

    def mutant(n, strides, stack):
        stack[which, len(stack[which]) // 2] *= 1 + 1e-11
        named.append(f"stride-{strides[which]} stage {range(len(strides))[which] + 1} rotation")
        return build(n, strides, stack)

    monkeypatch.setattr(decompose, "_stage_sequence", mutant)
    with pytest.raises(UnitarityError) as err:
        synthesize(rng)
    assert str(err.value).startswith(named[0] + " is not unitary")


@pytest.mark.parametrize("lines", [1, 2, 8])
@pytest.mark.parametrize("m", [2, 4, 8, 16, 32, 64])
def test_grover_stages_count_is_2_log2_m_minus_1(lines, m, rng):
    seq = grover_stages(rng.random((lines, m)) < 0.5)
    assert seq.n == lines * m and len(seq.stages) == 2 * int(np.log2(m)) - 1
    tree = [2**e for e in range(1, int(np.log2(m)))]
    assert [s.d for s in seq.stages] == tree + [m] + tree[::-1]


@pytest.mark.parametrize("active", [
    np.ones((2, 3), dtype=bool), np.ones((3, 4), dtype=bool), np.ones((4, 1), dtype=bool),
    np.ones((0, 4), dtype=bool), np.ones(4, dtype=bool), np.ones((2, 4), dtype=int),
])
def test_grover_stages_rejects_masks_that_do_not_fit(active):
    with pytest.raises(ValueError):
        grover_stages(active)


@given(dense_graphs(16))
def test_grover_stages_reconstruct_the_coins_of_a_graph(g):
    # the closed form and the CS factorization of the same padded stack both
    # give its block-diagonal; lines with at most one active state are exact
    # identities in every stage, and every rotation is real
    mask = grover_mask(g)
    npad = len(mask)
    stack = padded_stack(CoinSet.from_graph(g), npad)
    expected = oracles.rows_coin_matrix(stack)
    seq = grover_stages(mask)
    assert len(seq.stages) == 2 * npad.bit_length() - 3
    assert np.max(np.abs(reconstruct(seq) - expected)) < 1e-12
    assert np.max(np.abs(reconstruct(cs_decompose(stack)) - expected)) < 1e-12
    idle = mask.sum(axis=1) <= 1
    for stage in seq.stages:
        u = stage.u.reshape(npad, npad // 2, 2, 2)
        assert np.all(u[idle] == np.eye(2)) and not np.any(stage.u.imag)


@given(dense_graphs(64), st.integers(0, 2**32 - 1))
def test_grover_stages_apply_the_coins_of_a_graph_to_vectors(g, seed):
    # up to 64 lines of 64 states: stage by stage on a vector, not as a 4096² matrix
    mask = grover_mask(g)
    npad, n = len(mask), g.n
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(npad * npad) + 1j * rng.standard_normal(npad * npad)
    y = x
    for stage in grover_stages(mask).stages:
        y = apply_stage(y, stage)
    expected = x.reshape(npad, npad).copy()
    expected[:n, :n] = np.einsum("tij,tj->ti", np.stack(CoinSet.from_graph(g).dense), expected[:n, :n])
    assert np.max(np.abs(y - expected.reshape(-1))) < 1e-12
