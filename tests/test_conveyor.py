import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gridwalk import conveyor, walk
from gridwalk.conveyor import (
    COLUMN,
    ROW,
    ProtocolTrace,
    format_trace,
    pi_transfer,
    rotate_pairs,
    run_stage,
    run_walk_physical,
    shift_register,
)
from gridwalk.decompose import Stage, apply_stage, cs_decompose, grover_stages, stage_sites
from gridwalk.errors import InvariantViolation, ProtocolIncompleteError, ShiftOutOfRangeError
from gridwalk.graph import Graph
from gridwalk.util import next_power_of_two, random_unitary
from gridwalk.walk import CoinPlan, CoinSet, WalkState, evolve, grover_coin, init_localized
from strategies import dense_graphs


def random_state(n, rng):
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return WalkState(n, amp / np.linalg.norm(amp))


def random_stage(n, d, rng):
    return Stage(d, np.stack([random_unitary(2, rng) for _ in range(n // 2)]))


def identity_stage(n, d):
    return Stage(d, np.broadcast_to(np.eye(2), (n // 2, 2, 2)))


def random_line(n, rng):
    amp = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return amp / np.linalg.norm(amp)


def lay(logical):
    """Cells of one line, or a block of lines, with ``logical`` on the data sites and empty registers."""
    logical = np.asarray(logical, dtype=complex)
    cells = np.zeros(logical.shape[:-1] + (2 * logical.shape[-1],), dtype=complex)
    cells[..., 0::2] = logical
    return cells


def line_buffer(amp, orientation):
    """The (n, 2n) cells of all n lines of an n×n state; for COLUMN a strided view of a (2n, n) array."""
    n = amp.shape[0]
    if orientation == ROW:
        return lay(amp)
    lines = np.zeros((2 * n, n), dtype=complex).T
    lines[:, 0::2] = amp.T
    return lines


def line_stage(stage, n, t):
    """Line t's rotations (0-based) of a stage laid out over a block of n-site lines."""
    return Stage(stage.d, stage.u[t * n // 2:(t + 1) * n // 2])


# ---------------------------------------------------------------------------
# Primitives


def test_pi_transfer_moves_amplitude():
    cells = lay([1, 0])
    pi_transfer(cells, [1])
    assert cells[0] == 0 and cells[1] == 1


def test_pi_transfer_involution(rng):
    cells = lay(random_line(4, rng))
    before = cells.copy()
    pi_transfer(pi_transfer(cells, [1, 3]), [1, 3])
    assert np.array_equal(cells, before)


def test_pi_transfer_norm_on_occupied_line(rng):
    logical = random_line(4, rng)
    cells = lay(logical)
    pi_transfer(cells, [1, 2, 3, 4])
    assert abs(np.sum(np.abs(cells) ** 2) - 1) < 1e-15
    assert np.array_equal(cells[1::2], logical) and not cells[0::2].any()


def test_pi_transfer_column_orientation():
    grid = np.zeros((4, 2), dtype=complex)
    cells = grid[:, 0]  # a grid column: a strided view
    cells[2] = 1.0  # data site of position 2
    pi_transfer(cells, [2])
    assert grid[2, 0] == 0 and grid[3, 0] == 1


def test_shift_zero_is_identity(rng):
    cells = lay(random_line(2, rng))
    before = cells.copy()
    shift_register(cells, 0)
    assert np.array_equal(cells, before)


def test_shift_moves_register_cell():
    cells = np.zeros(8, dtype=complex)
    cells[1] = 1.0  # register at physical cell 2 (1-based)
    shift_register(cells, 4)
    assert cells[1] == 0 and cells[5] == 1  # physical cell 6


def test_shift_round_trip(rng):
    cells = lay(random_line(4, rng))
    pi_transfer(cells, [1, 2])
    before = cells.copy()
    shift_register(shift_register(cells, 4), -4)
    assert np.array_equal(cells, before)


def test_shift_rejects_odd_offset(rng):
    with pytest.raises(ValueError):
        shift_register(lay(random_line(2, rng)), 3)


def test_shift_out_of_range():
    cells = np.zeros(4, dtype=complex)
    cells[3] = 1.0  # last register cell of the line
    with pytest.raises(ShiftOutOfRangeError):
        shift_register(cells, 2)
    # on a block of lines the check runs per line and names the offending one
    block = line_buffer(np.zeros((4, 4)), COLUMN)
    block[2, 5] = 1.0  # register cell next to position 3 on column line 3
    with pytest.raises(ShiftOutOfRangeError, match="line 3"):
        shift_register(block, 4)
    assert block[2, 5] == 1.0 and np.count_nonzero(block) == 1
    shift_register(block, 2)
    assert block[2, 7] == 1.0 and np.count_nonzero(block) == 1


def test_rotate_pairs_identity(rng):
    cells = lay(random_line(4, rng))
    before = cells.copy()
    rotate_pairs(cells, identity_stage(4, 2))
    assert np.array_equal(cells, before)


# ---------------------------------------------------------------------------
# Full stage protocol


def test_run_stage_identity_rotations(rng):
    cells = lay(random_line(4, rng))
    before = cells.copy()
    run_stage(cells, identity_stage(4, 4), 2)
    assert np.max(np.abs(cells - before)) < 1e-12
    assert not cells[1::2].any()


def test_run_stage_swap_via_full_protocol():
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    eye = np.eye(2, dtype=complex)
    stage = Stage(4, np.stack([swap, eye]))  # pairs (1,3), (2,4)
    cells = lay([1, 0, 0, 0])
    run_stage(cells, stage)
    # positions 1 and 3 swapped end to end
    assert cells[4] == 1.0 and cells[0] == 0.0


def test_run_stage_trace_schedule_matches_five_steps(monkeypatch):
    # stride-4 stage on an 8-line: transfers at kd+r = 1,2,5,6, move by 4, rotate, undo
    calls = []
    for name in ("pi_transfer", "shift_register", "rotate_pairs"):
        primitive = getattr(conveyor, name)
        monkeypatch.setattr(conveyor, name, lambda cells, arg, *rest, name=name, primitive=primitive:
                            calls.append((name, arg)) or primitive(cells, arg, *rest))
    stage = identity_stage(8, 4)
    run_stage(lay(np.eye(8)[0]), stage)
    assert [name for name, _ in calls] == ["pi_transfer", "shift_register", "rotate_pairs", "shift_register",
                                           "pi_transfer"]
    transfer, up, rotated, down, back = (arg for _, arg in calls)
    assert transfer.tolist() == back.tolist() == [1, 2, 5, 6] and (up, down) == (4, -4) and rotated is stage
    # the record of that run reads as the same five steps
    trace = ProtocolTrace([(ROW, 1, 8, 4)])
    transfer = "ACTION=pi_transfer line=1 orient=H params=positions=1,2,5,6"
    assert format_trace(trace).splitlines() == [
        f"STEP 1 {transfer}",
        "STEP 2 ACTION=shift line=1 orient=H params=offset=4",
        "STEP 3 ACTION=rotate line=1 orient=H params=d=4;pairs=(1,3),(2,4),(5,7),(6,8)",
        "STEP 4 ACTION=shift line=1 orient=H params=offset=-4",
        f"STEP 5 {transfer}",
    ]


def test_trace_export_format():
    trace = ProtocolTrace([(COLUMN, 3, 4, 2)])
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
        cells = line_buffer(s.amp, orientation)[line - 1]
        logical = cells[0::2].copy()
        run_stage(cells, stage, line)
        assert np.max(np.abs(cells[0::2] - apply_stage(logical, stage))) < 1e-12
        assert not cells[1::2].any()


def test_register_exactly_empty_after_stage(rng):
    cells = lay(random_line(8, rng))
    run_stage(cells, random_stage(8, 8, rng), 5)
    assert not cells[1::2].any()


def test_run_sequence_applies_whole_coin(rng):
    # a full decomposition run stage by stage on one line applies the coin
    n = 8
    u = random_unitary(n, rng)
    seq = cs_decompose(u)
    logical = random_line(n, rng)
    cells = lay(logical)
    for stage in seq.stages:
        run_stage(cells, stage, 3)
    assert np.max(np.abs(cells[0::2] - u @ logical)) < 1e-12
    assert not cells[1::2].any()


def test_run_sequence_consumes_exported_format(rng):
    from gridwalk.decompose import sequence_from_json, sequence_to_json

    n = 4
    u = random_unitary(n, rng)
    seq = sequence_from_json(sequence_to_json(cs_decompose(u)))
    logical = random_line(n, rng)
    cells = lay(logical)
    for stage in seq.stages:
        run_stage(cells, stage, 2)
    assert np.max(np.abs(cells[0::2] - u @ logical)) < 1e-12
    assert not cells[1::2].any()


# ---------------------------------------------------------------------------
# Whole-walk equivalence


def test_physical_walk_identity_coins(rng):
    s0 = random_state(4, rng)
    plan = CoinPlan.uniform(np.eye(4, dtype=complex), 4)
    out = run_walk_physical(s0, plan)
    assert np.max(np.abs(out.amp - s0.amp)) < 1e-12


# n = 1 pads to 2: the 1×1 coins are bare phases, kept by a stride-2 stage; n = 3 and 6 pad
# to 4 and 8 with identity lines
@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 8])
def test_physical_walk_equals_grid_walk(n, rng):
    steps = 10
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    logical = evolve(s0, plan)
    assert np.max(np.abs(physical.amp - logical.amp)) < 1e-10
    assert abs(np.sum(np.abs(physical.amp) ** 2) - 1) < 1e-10
    # a plan of no steps returns the start state; a plan of another size is refused as evolve refuses it
    assert run_walk_physical(s0, CoinPlan(n, ())) == s0
    other = CoinPlan.uniform(np.eye(n + 1, dtype=complex), steps)
    for run in (run_walk_physical, evolve):
        with pytest.raises(ValueError, match=f"^plan dimension {n + 1} does not match state {n}$"):
            run(s0, other)


def test_physical_walk_pads_non_power_of_two(rng):
    n, steps = 3, 4
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    logical = evolve(s0, plan)
    assert np.max(np.abs(physical.amp - logical.amp)) < 1e-10


def test_physical_walk_records_trace(rng):
    n, steps = 4, 2
    plan = CoinPlan.uniform(random_unitary(n, rng), steps)
    trace = ProtocolTrace()
    run_walk_physical(random_state(n, rng), plan, trace)
    # steps × lines × (n−1) stages, five actions each
    assert len(trace.stages) == steps * n * (n - 1)
    assert len(format_trace(trace).splitlines()) == 5 * len(trace.stages)


def count_synthesis(monkeypatch):
    """Record the arguments of every cs_decompose and grover_stages call the conveyor makes."""
    calls = {"cs_decompose": [], "grover_stages": []}
    for name, fn in [("cs_decompose", cs_decompose), ("grover_stages", grover_stages)]:
        monkeypatch.setattr(conveyor, name, lambda u, fn=fn, seen=calls[name]: seen.append(u) or fn(u))
    return calls


def test_physical_walk_synthesizes_each_coin_once_per_run(monkeypatch, rng):
    # one grover_stages per Grover coin set per run, on its active states
    n, steps = 8, 2
    g = Graph(n, frozenset({(j, j % n + 1) for j in range(1, n + 1)} | {(1, 5), (2, 2), (3, 7)}))
    plan = CoinPlan.from_graph(g, steps, "grover")
    calls = count_synthesis(monkeypatch)
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    assert calls["cs_decompose"] == []
    assert len(calls["grover_stages"]) == 1 and np.array_equal(calls["grover_stages"][0], g.present)
    assert np.max(np.abs(physical.amp - evolve(s0, plan).amp)) < 1e-10

    # two coin sets taking turns over four steps; n = 6 pads to 8 identity lines
    n = 6
    a, b = (CoinSet.from_dense([random_unitary(n, rng) for _ in range(n)]) for _ in range(2))
    plan = CoinPlan(n, (a, b, a, b))
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    assert len(calls["cs_decompose"]) == 2
    for stack, coins in zip(calls["cs_decompose"], (a, b)):
        assert stack.shape == (8, 8, 8)
        assert np.array_equal(stack[:n, :n, :n], np.stack(coins.dense))
        assert np.array_equal(stack[n:], np.broadcast_to(np.eye(8), (2, 8, 8)))
        assert np.array_equal(stack[:n, n:, :], np.eye(8)[None, n:].repeat(n, 0))
    assert np.max(np.abs(physical.amp - evolve(s0, plan).amp)) < 1e-10


@given(dense_graphs(16), st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_grover_physical_walk_equals_grid_walk(g, steps, seed):
    # isolated nodes, degree-1 nodes and self-loops all occur among the graphs
    plan = CoinPlan.from_graph(g, steps)
    s0 = random_state(g.n, np.random.default_rng(seed))
    physical = run_walk_physical(s0, plan)
    assert np.max(np.abs(physical.amp - evolve(s0, plan).amp)) < 1e-10


def test_physical_walk_falls_back_to_cs_synthesis_for_one_line_that_is_not_grover(monkeypatch, rng):
    # n = 6 pads to 8; line 4 carries a Haar coin on its active states instead of the Grover coin
    n, steps = 6, 3
    g = Graph(n, frozenset({(j, j % n + 1) for j in range(1, n + 1)} | {(1, 4), (5, 5)}))
    coins = [np.array(c) for c in CoinSet.from_graph(g).dense]
    states = np.flatnonzero(g.present[3])
    coins[3][np.ix_(states, states)] = random_unitary(len(states), rng)
    plan = CoinPlan.from_node_coins(coins, steps)
    calls = count_synthesis(monkeypatch)
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    assert calls["grover_stages"] == [] and len(calls["cs_decompose"]) == 1
    assert np.array_equal(calls["cs_decompose"][0][:n, :n, :n], np.stack(coins))
    assert np.max(np.abs(physical.amp - evolve(s0, plan).amp)) < 1e-10


def test_a_uniform_grover_plan_takes_the_closed_form_synthesis(monkeypatch, rng):
    # from_dense splits the full 8×8 coin off unchanged, so its group is recognized as Grover
    n = 8
    plan = CoinPlan.uniform(grover_coin(n), 1)
    calls = count_synthesis(monkeypatch)
    trace = ProtocolTrace()
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan, trace)
    assert calls["cs_decompose"] == [] and len(calls["grover_stages"]) == 1
    assert len(trace.stages) == n * (2 * 3 - 1)
    assert np.max(np.abs(physical.amp - evolve(s0, plan).amp)) < 1e-10


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_grover_walk_records_2_log2_npad_minus_1_stages_per_line_and_step(n):
    steps = 3
    g = Graph(n, frozenset({(j, j % n + 1) for j in range(1, n + 1)}))
    trace = ProtocolTrace()
    run_walk_physical(init_localized(n, 1, 1), CoinPlan.from_graph(g, steps), trace)
    npad = max(2, next_power_of_two(n))
    assert len(trace.stages) == steps * n * (2 * npad.bit_length() - 3)
    assert {d for _, _, _, d in trace.stages} == {2**e for e in range(1, npad.bit_length())}


# ---------------------------------------------------------------------------
# Line and block protocol


@given(st.integers(1, 6), st.data(), st.sampled_from([ROW, COLUMN]), st.integers(0, 2**32 - 1))
def test_line_run_stage_equals_apply_stage(log_n, data, orientation, seed):
    # every stride 2..n for n up to 64, in place on a block of L of the n lines
    # of one buffer, a strided view for COLUMN; L = 1 runs on the bare (2n,) line
    n = 2**log_n
    d = 2 ** data.draw(st.integers(1, log_n))
    size = 2 ** data.draw(st.integers(0, log_n))
    first = data.draw(st.integers(1, n - size + 1))
    rng = np.random.default_rng(seed)
    stage = random_stage(size * n, d, rng)
    buffer = line_buffer(random_state(n, rng).amp, orientation)
    before = buffer.copy()
    lines = buffer[first - 1:first - 1 + size]
    cells = lines[0] if size == 1 else lines
    logical = [apply_stage(row[0::2], line_stage(stage, n, t)) for t, row in enumerate(lines)]
    assert run_stage(cells, stage, first) is cells
    for t, row in enumerate(lines):
        assert row[0::2].tobytes() == logical[t].tobytes()
    assert not lines[:, 1::2].any()
    # nothing off the block moved
    lines[:] = before[first - 1:first - 1 + size]
    assert buffer.tobytes() == before.tobytes()


def test_grid_run_stage_wraps_the_line_protocol(rng):
    # one stage on the whole block of a grid's lines equals each line's own run
    n, d = 8, 4
    stage = random_stage(n * n, d, rng)
    block = line_buffer(random_state(n, rng).amp, COLUMN)
    per_line = block.copy()
    assert run_stage(block, stage) is block
    for t in range(n):
        run_stage(per_line[t], line_stage(stage, n, t), t + 1)
    assert block.tobytes() == per_line.tobytes()


def test_run_stage_rejects_a_dirty_register_on_its_line(rng):
    lines = line_buffer(random_state(4, rng).amp, ROW)
    lines[1] *= np.sqrt(0.5)
    lines[1, 1] = np.sqrt(1 - np.sum(np.abs(lines) ** 2))  # register cell after position 1
    with pytest.raises(ProtocolIncompleteError, match="line 2"):
        run_stage(lines[1].copy(), identity_stage(4, 2), 2)
    with pytest.raises(ProtocolIncompleteError, match="line 2"):
        run_stage(lines.copy(), identity_stage(16, 2))


@pytest.mark.parametrize("n,d", [(4, 2), (4, 4), (8, 2), (8, 4), (8, 8)])
def test_a_nan_on_any_register_cell_fails_the_stage(n, d, rng):
    # the NaN moves only by exact exchanges and is never rotated, so it ends on a
    # register cell of its line, unless the +d shift would push it off the line first
    carried = set(stage_sites(n, d)[:, 0].tolist())
    for site in range(n):
        lost = site not in carried and site + d // 2 >= n
        error = ShiftOutOfRangeError if lost else ProtocolIncompleteError
        cells = lay(random_line(n, rng))
        cells[2 * site + 1] = np.nan
        with pytest.raises(error, match="line 1"):
            run_stage(cells, random_stage(n, d, rng))
        block = lay([random_line(n, rng) for _ in range(4)])  # lines 2..5
        block[1, 2 * site + 1] = np.nan
        with pytest.raises(error, match="line 3"):
            run_stage(block, random_stage(4 * n, d, rng), 2)


def test_line_primitives_work_in_place():
    cells = np.zeros(8, dtype=complex)
    cells[2] = 1.0  # data site of position 2
    assert pi_transfer(cells, [2]) is cells
    assert cells[3] == 1 and cells[2] == 0
    shift_register(cells, 4)
    assert cells[7] == 1 and not cells[:7].any()
    with pytest.raises(ShiftOutOfRangeError):
        shift_register(cells, 2)
    assert cells[7] == 1  # a rejected shift leaves the line as it was


@pytest.mark.parametrize("positions", [[0], [5], [2, 5]])
def test_pi_transfer_rejects_bad_positions(positions, rng):
    lines = line_buffer(random_state(4, rng).amp, ROW)
    with pytest.raises(ValueError):
        pi_transfer(lines[0], positions)
    with pytest.raises(ValueError):
        pi_transfer(lines, positions)


@pytest.mark.parametrize("run", [evolve, run_walk_physical],
                         ids=["evolve", "run_walk_physical"])
def test_both_walks_check_the_norm_after_every_step_in_the_one_walk_loop(run, monkeypatch, rng):
    n, steps = 4, 3
    plan = CoinPlan.uniform(random_unitary(n, rng), steps)
    s0 = random_state(n, rng)
    checked = []
    check_norm = walk.check_norm
    monkeypatch.setattr(walk, "check_norm", lambda *args: checked.append(args[2]) or check_norm(*args))
    run(s0, plan)
    # one check per step in walk's loop, and the final WalkState's own
    assert checked == [f"state after step {i}" for i in range(1, steps + 1)] + ["state"]
    assert not hasattr(conveyor, "check_norm") and not hasattr(conveyor, "NORM_TOL")


def test_a_step_that_fails_its_norm_check_adds_no_trace_records(monkeypatch):
    n = 8
    stages_per_step = 2 * 3 - 1
    plan = CoinPlan.from_graph(Graph(n, frozenset({(j, j % n + 1) for j in range(1, n + 1)})), 4)
    run_stage, calls = conveyor.run_stage, []

    def lossy_stage(cells, stage, *rest):
        run_stage(cells, stage, *rest)
        calls.append(stage.d)
        if len(calls) == stages_per_step + 1:  # the first stage of step 2
            cells *= 0.9
        return cells

    monkeypatch.setattr(conveyor, "run_stage", lossy_stage)
    trace = ProtocolTrace()
    with pytest.raises(InvariantViolation, match="state after step 2 norm²"):
        run_walk_physical(init_localized(n, 1, 1), plan, trace)
    assert len(calls) == 2 * stages_per_step
    step1 = [(ROW, line, n, d) for line in range(1, n + 1) for d in calls[:stages_per_step]]
    assert len(trace.stages) == n * stages_per_step and trace.stages == step1
