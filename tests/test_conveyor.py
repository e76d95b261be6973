import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwalk import conveyor
from gridwalk.conveyor import (
    COLUMN,
    ROW,
    PhysicalGrid,
    ProtocolTrace,
    embed,
    extract,
    format_trace,
    pi_transfer,
    rotate_pairs,
    run_sequence,
    run_stage,
    run_walk_physical,
    shift_register,
)
from gridwalk.decompose import Stage, apply_stage, cs_decompose, stage_pairs
from gridwalk.errors import InvariantViolation, ProtocolIncompleteError, ShiftOutOfRangeError
from gridwalk.graph import Graph
from gridwalk.util import random_unitary
from gridwalk.walk import CoinPlan, WalkState, evolve, init_localized


def random_state(n, rng):
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return WalkState(n, amp / np.linalg.norm(amp))


def random_stage(n, d, rng):
    return Stage(d, np.stack([random_unitary(2, rng) for _ in stage_pairs(n, d)]))


def identity_stage(n, d):
    return Stage(d, np.broadcast_to(np.eye(2), (n // 2, 2, 2)))


# ---------------------------------------------------------------------------
# Embed / extract


def test_embed_localized():
    g = embed(init_localized(2, 1, 1))
    expected = np.zeros((4, 4))
    expected[0, 0] = 1
    assert np.array_equal(g.amp, expected)


def test_embed_norm_and_round_trip(rng):
    s = random_state(4, rng)
    g = embed(s)
    assert abs(np.sum(np.abs(g.amp) ** 2) - 1) < 1e-15
    assert np.array_equal(extract(g).amp, s.amp)


def test_extract_rejects_dirty_register(rng):
    amp = np.zeros((4, 4), dtype=complex)
    amp[0, 1] = 1.0  # register site
    with pytest.raises(ProtocolIncompleteError):
        extract(PhysicalGrid(2, amp))


# ---------------------------------------------------------------------------
# Primitives


def test_pi_transfer_moves_amplitude():
    g = embed(init_localized(2, 1, 1))
    g2 = pi_transfer(g, [1], ROW, 1)
    assert g2.amp[0, 0] == 0 and g2.amp[0, 1] == 1


def test_pi_transfer_involution(rng):
    s = random_state(4, rng)
    g = embed(s)
    g2 = pi_transfer(pi_transfer(g, [1, 3], ROW, 2), [1, 3], ROW, 2)
    assert np.array_equal(g2.amp, g.amp)


def test_pi_transfer_norm_on_occupied_line(rng):
    s = random_state(4, rng)
    g = pi_transfer(embed(s), [1, 2, 3, 4], ROW, 3)
    assert abs(np.sum(np.abs(g.amp) ** 2) - 1) < 1e-15


def test_pi_transfer_column_orientation():
    g = embed(init_localized(2, 2, 1))  # amplitude at physical (3,1)
    g2 = pi_transfer(g, [2], COLUMN, 1)
    assert g2.amp[2, 0] == 0 and g2.amp[3, 0] == 1


def test_shift_zero_is_identity(rng):
    g = embed(random_state(2, rng))
    assert np.array_equal(shift_register(g, 0, ROW, 1).amp, g.amp)


def test_shift_moves_register_cell():
    amp = np.zeros((8, 8), dtype=complex)
    amp[0, 1] = 1.0  # register at physical column 2 (1-based)
    g = PhysicalGrid(4, amp)
    g2 = shift_register(g, 4, ROW, 1)
    assert g2.amp[0, 1] == 0 and g2.amp[0, 5] == 1  # physical column 6


def test_shift_round_trip(rng):
    s = random_state(4, rng)
    g = pi_transfer(embed(s), [1, 2], ROW, 1)
    g2 = shift_register(shift_register(g, 4, ROW, 1), -4, ROW, 1)
    assert np.array_equal(g2.amp, g.amp)


def test_shift_rejects_odd_offset(rng):
    g = embed(random_state(2, rng))
    with pytest.raises(ValueError):
        shift_register(g, 3, ROW, 1)


def test_shift_out_of_range():
    amp = np.zeros((4, 4), dtype=complex)
    amp[0, 3] = 1.0  # last register cell of row line 1
    g = PhysicalGrid(2, amp)
    with pytest.raises(ShiftOutOfRangeError):
        shift_register(g, 2, ROW, 1)


def test_rotate_pairs_identity(rng):
    s = random_state(4, rng)
    g = embed(s)
    g2 = rotate_pairs(g, identity_stage(4, 2), ROW, 1)
    assert np.array_equal(g2.amp, g.amp)


# ---------------------------------------------------------------------------
# Full stage protocol


def test_run_stage_identity_rotations(rng):
    s = random_state(4, rng)
    g = embed(s)
    g2 = run_stage(g, identity_stage(4, 4), ROW, 2)
    assert np.max(np.abs(g2.amp - g.amp)) < 1e-12
    assert g2.max_register_amplitude() == 0.0


def test_run_stage_swap_via_full_protocol():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    stage = Stage(4, np.stack([swap, eye]))  # pairs (1,3), (2,4)
    s = init_localized(4, 1, 1)  # amplitude at logical (1,1)
    out = extract(run_stage(embed(s), stage, ROW, 1))
    # row line 1: position 1 and 3 swapped end to end
    assert out.amp[0, 2] == 1.0 and out.amp[0, 0] == 0.0


def test_run_stage_trace_schedule_matches_five_steps():
    # stride-4 stage on an 8-line: transfers at kd+r = 1,2,5,6, move by 4, rotate, undo
    trace = ProtocolTrace()
    stage = identity_stage(8, 4)
    run_stage(embed(init_localized(8, 1, 1)), stage, ROW, 1, trace)
    kinds = [a.action for a in trace.actions]
    assert kinds == ["pi_transfer", "shift", "rotate", "shift", "pi_transfer"]
    assert [a.step for a in trace.actions] == [1, 2, 3, 4, 5]
    assert trace.actions[0].params == "positions=1,2,5,6"
    assert trace.actions[1].params == "offset=4"
    assert trace.actions[3].params == "offset=-4"
    assert "(1,3)" in trace.actions[2].params and "(6,8)" in trace.actions[2].params


def test_trace_export_format():
    trace = ProtocolTrace()
    run_stage(embed(init_localized(4, 1, 1)), identity_stage(4, 2), COLUMN, 3, trace)
    text = format_trace(trace)
    lines = text.strip().splitlines()
    assert len(lines) == 5
    assert lines[0] == "STEP 1 ACTION=pi_transfer line=3 orient=V params=positions=1,3"
    assert lines[1].startswith("STEP 2 ACTION=shift")


@pytest.mark.parametrize("orientation", [ROW, COLUMN])
@pytest.mark.parametrize("n,d", [(4, 2), (4, 4), (8, 4), (16, 8)])
def test_physical_equals_logical(n, d, orientation, rng):
    for _ in range(5):
        stage = random_stage(n, d, rng)
        s = random_state(n, rng)
        line = int(rng.integers(1, n + 1))
        out = extract(run_stage(embed(s), stage, orientation, line))
        expected = s.amp.copy()
        if orientation == ROW:
            expected[line - 1, :] = apply_stage(expected[line - 1, :], stage)
        else:
            expected[:, line - 1] = apply_stage(expected[:, line - 1], stage)
        assert np.max(np.abs(out.amp - expected)) < 1e-12


def test_register_exactly_empty_after_stage(rng):
    g = embed(random_state(8, rng))
    g = run_stage(g, random_stage(8, 8, rng), ROW, 5)
    assert g.max_register_amplitude() == 0.0


def test_run_sequence_applies_whole_coin(rng):
    n = 8
    u = random_unitary(n, rng)
    seq = cs_decompose(u)
    s = random_state(n, rng)
    out = extract(run_sequence(embed(s), seq, ROW, 3))
    expected = s.amp.copy()
    expected[2, :] = u @ expected[2, :]
    assert np.max(np.abs(out.amp - expected)) < 1e-12


def test_run_sequence_consumes_exported_format(rng):
    from gridwalk.decompose import sequence_from_json, sequence_to_json

    n = 4
    u = random_unitary(n, rng)
    seq = sequence_from_json(sequence_to_json(cs_decompose(u)))
    s = random_state(n, rng)
    out = extract(run_sequence(embed(s), seq, COLUMN, 2))
    expected = s.amp.copy()
    expected[:, 1] = u @ expected[:, 1]
    assert np.max(np.abs(out.amp - expected)) < 1e-12


# ---------------------------------------------------------------------------
# Whole-walk equivalence


def test_physical_walk_identity_coins(rng):
    s0 = random_state(4, rng)
    plan = CoinPlan.uniform(np.eye(4, dtype=complex), 4)
    out = run_walk_physical(s0, plan)
    assert np.max(np.abs(out.amp - s0.amp)) < 1e-12


@pytest.mark.parametrize("n", [2, 4, 8])
def test_physical_walk_equals_grid_walk(n, rng):
    steps = 10
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    logical = evolve(s0, steps, plan)
    assert np.max(np.abs(physical.amp - logical.amp)) < 1e-10
    assert abs(np.sum(np.abs(physical.amp) ** 2) - 1) < 1e-10


def test_physical_walk_pads_non_power_of_two(rng):
    n, steps = 3, 4
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    logical = evolve(s0, steps, plan)
    assert np.max(np.abs(physical.amp - logical.amp)) < 1e-10


def test_physical_walk_records_trace(rng):
    n, steps = 4, 2
    plan = CoinPlan.uniform(random_unitary(n, rng), steps)
    trace = ProtocolTrace()
    run_walk_physical(random_state(n, rng), plan, trace)
    # steps × lines × (n−1) stages, five actions each
    assert len(trace.actions) == steps * n * (n - 1) * 5


def test_physical_walk_synthesizes_each_coin_once_per_run(monkeypatch, rng):
    n, steps = 8, 2
    g = Graph(n, frozenset({(j, j % n + 1) for j in range(1, n + 1)} | {(1, 5), (2, 2), (3, 7)}))
    plan = CoinPlan.from_graph(g, steps, "grover")
    calls = []
    monkeypatch.setattr(conveyor, "cs_decompose", lambda u: calls.append(u) or cs_decompose(u))
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    assert len(calls) == n
    assert np.max(np.abs(physical.amp - evolve(s0, steps, plan).amp)) < 1e-10


def test_nan_physical_grid_is_rejected():
    with pytest.raises(InvariantViolation):
        PhysicalGrid(2, np.full((4, 4), np.nan, dtype=complex))


# ---------------------------------------------------------------------------
# Line-local protocol


@given(st.integers(1, 6), st.data(), st.sampled_from([ROW, COLUMN]), st.integers(0, 2**32 - 1))
def test_line_run_stage_equals_apply_stage(log_n, data, orientation, seed):
    # every stride 2..n for n up to 64, in place on one line of one buffer
    n = 2**log_n
    d = 2 ** data.draw(st.integers(1, log_n))
    line = data.draw(st.integers(1, n))
    rng = np.random.default_rng(seed)
    stage = random_stage(n, d, rng)
    amp = embed(random_state(n, rng)).amp.copy()
    before = amp.copy()
    cells = conveyor._line_view(amp, orientation, line, n)
    logical = apply_stage(cells[0::2], stage)
    assert run_stage(cells, stage, orientation, line) is cells
    assert cells[0::2].tobytes() == logical.tobytes()
    assert not cells[1::2].any()
    # nothing off the line moved
    cells[:] = before[2 * line - 2] if orientation == ROW else before[:, 2 * line - 2]
    assert amp.tobytes() == before.tobytes()


def test_grid_run_stage_wraps_the_line_protocol(rng):
    n, d, line = 8, 4, 3
    stage = random_stage(n, d, rng)
    g = embed(random_state(n, rng))
    amp = g.amp.copy()
    trace_grid, trace_line = ProtocolTrace(), ProtocolTrace()
    out = run_stage(g, stage, COLUMN, line, trace_grid)
    run_stage(conveyor._line_view(amp, COLUMN, line, n), stage, COLUMN, line, trace_line)
    assert isinstance(out, PhysicalGrid) and out.amp.tobytes() == amp.tobytes()
    assert format_trace(trace_grid) == format_trace(trace_line)
    assert np.array_equal(g.amp, embed(extract(g)).amp)  # the input grid is untouched


def test_run_stage_rejects_a_dirty_register_on_its_line(rng):
    amp = embed(random_state(4, rng)).amp.copy()
    amp[0] *= np.sqrt(0.5)
    amp[0, 1] = np.sqrt(1 - np.sum(np.abs(amp) ** 2))  # register cell after position 1
    with pytest.raises(ProtocolIncompleteError):
        run_stage(conveyor._line_view(amp, ROW, 1, 4), identity_stage(4, 2), ROW, 1)
    with pytest.raises(ProtocolIncompleteError):
        run_stage(PhysicalGrid(4, amp), identity_stage(4, 2), ROW, 1)


def test_line_primitives_work_in_place():
    cells = np.zeros(8, dtype=complex)
    cells[2] = 1.0  # data site of position 2
    assert pi_transfer(cells, [2], ROW, 1) is cells
    assert cells[3] == 1 and cells[2] == 0
    shift_register(cells, 4, ROW, 1)
    assert cells[7] == 1 and not cells[:7].any()
    with pytest.raises(ShiftOutOfRangeError):
        shift_register(cells, 2, ROW, 1)
    assert cells[7] == 1  # a rejected shift leaves the line as it was


@pytest.mark.parametrize("positions", [[0], [5], [2, 5]])
def test_pi_transfer_rejects_bad_positions(positions, rng):
    g = embed(random_state(4, rng))
    with pytest.raises(ValueError):
        pi_transfer(g, positions, ROW, 1)
    with pytest.raises(ValueError):
        pi_transfer(g.amp.copy()[0], positions, ROW, 1)


def test_physical_walk_checks_the_norm_after_every_step(monkeypatch, rng):
    n, steps = 4, 3
    plan = CoinPlan.uniform(random_unitary(n, rng), steps)
    checked = []
    check_norm = conveyor._check_norm
    monkeypatch.setattr(conveyor, "_check_norm", lambda amp: checked.append(1) or check_norm(amp))
    run_walk_physical(random_state(n, rng), plan)
    assert len(checked) == steps + 2  # the embedded grid, every step, the extracted grid


def test_physical_grid_compares_and_hashes_by_value(rng):
    s = random_state(4, rng)
    a, b = embed(s), embed(WalkState(4, s.amp.copy()))
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != embed(random_state(4, rng))
    assert a != PhysicalGrid(2, embed(init_localized(2, 1, 1)).amp)
