"""Interleaved data/register grid and the five-step conveyor protocol.

The physical register for an n×n walk state is a 2n×2n amplitude grid: odd
physical rows and columns (1-based) hold the data sites of logical indices
1..n, even ones are auxiliary register sites that stay empty between
operations. A stage of pairwise rotations at stride d runs on one line (a
physical row for the H orientation, a column for V) in five steps:

1. swap the amplitudes at positions k·d+r into their adjacent register sites,
2. shift those register sites by +d physical cells along the line,
3. apply each 2×2 rotation between a carried amplitude and the data site of
   its partner k·d+r+d/2,
4. shift the register sites back by −d,
5. swap the carried amplitudes back into their data sites.

All five moves are exact permutations or 2×2 products, so register sites
return to exactly zero and the net effect on the data sites equals the
logical stage application. Transfers are modeled as phase-free exchanges; any
phase a physical two-level swap would add is treated as absorbed into the
stage rotations by gate calibration. Register motion is an exact permutation
(ideal adiabatic transport). Pair schedules satisfy k·d+r+d/2 ≤ n, so a +d
shift never crosses the grid boundary.

Register dots off the data lines never hold amplitude in any stage, so the
code holds one line's 2n cells at a time (a grid row for H, a grid column for
V): the primitives and the stage runner work in place on the last axis, the 2n
cells of a line, of one line or a block of lines. A stage leaves every
register site empty, so ``run_walk_physical`` keeps just the n×n data sites
between steps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .decompose import Stage, StageSequence, cs_decompose, grover_stages, rotate_in_place, stage_sites
from .errors import ProtocolIncompleteError, ShiftOutOfRangeError
from .util import frozen, next_power_of_two
from .walk import CoinPlan, CoinSet, WalkState, _walk

REGISTER_TOL = 1e-10

ROW = "row"
COLUMN = "column"


@dataclass
class ProtocolTrace:
    """Ordered audit log of the conveyor, one record per stage run on a line.

    A record (orientation, line, n, d) stands for the five actions of a
    stride-d stage on a line of n data sites; ``format_trace`` writes them out.
    """

    stages: list[tuple[str, int, int, int]] = field(default_factory=list)


@functools.cache
def _stage_actions(n: int, d: int) -> tuple[tuple[int, str, str], ...]:
    """(step, action, params) of the five actions of a stride-d stage on n data sites."""
    pairs = stage_sites(n, d) + 1
    transfer = "positions=" + ",".join(map(str, pairs[:, 0].tolist()))
    rotate = f"d={d};pairs=" + ",".join(f"({a},{b})" for a, b in pairs.tolist())
    actions = ("pi_transfer", "shift", "rotate", "shift", "pi_transfer")
    return tuple(zip(range(1, 6), actions, (transfer, f"offset={d}", rotate, f"offset={-d}", transfer)))


def format_trace(trace: ProtocolTrace) -> str:
    """One action per line: STEP k ACTION=… line=… orient=… params=…"""
    return "".join(
        f"STEP {step} ACTION={action} line={line} orient={'H' if orientation == ROW else 'V'} "
        f"params={params}\n"
        for orientation, line, n, d in trace.stages
        for step, action, params in _stage_actions(n, d)
    )


def pi_transfer(cells: np.ndarray, positions) -> np.ndarray:
    """Exchange data and adjacent register amplitudes at the listed positions.

    Works in place on every line of ``cells``, one line or a block of lines
    along its last axis. An ideal π rotation moves an amplitude entirely
    between the two sites; applying it twice restores the original lines
    exactly.
    """
    data = 2 * np.asarray(positions, dtype=np.intp) - 2
    if data.size and not (0 <= data.min() and data.max() < cells.shape[-1]):
        raise ValueError(f"positions {np.asarray(positions).tolist()} outside 1..{cells.shape[-1] // 2}")
    cells[..., data], cells[..., data + 1] = cells[..., data + 1], cells[..., data]
    return cells


def shift_register(cells: np.ndarray, offset: int, line: int = 1) -> np.ndarray:
    """Translate the register-site amplitudes of each line by `offset` physical cells.

    The offset must be even so register sites land on register sites; any
    nonzero amplitude that would leave its line raises ShiftOutOfRangeError
    (there is no wraparound), naming the line counted from ``line``, the
    number of the first line in ``cells``, and leaving every line as it was.
    """
    if offset % 2 != 0:
        raise ValueError(f"offset must be even, got {offset}")
    regs = cells[..., 1::2]
    slots = offset // 2
    if slots == 0:
        return cells
    lost = regs[..., -slots:] if slots > 0 else regs[..., :-slots]
    dirty = np.flatnonzero(lost.any(axis=-1))
    if dirty.size:
        raise ShiftOutOfRangeError(
            f"shift by {offset} cells would move amplitude outside the grid on line {line + dirty[0]}"
        )
    if slots > 0:
        regs[..., slots:] = regs[..., :-slots]
        regs[..., :slots] = 0
    else:
        regs[..., :slots] = regs[..., -slots:]
        regs[..., slots:] = 0
    return cells


@functools.cache
def _carried_sites(n: int, d: int) -> np.ndarray:
    """Cells (register next to b, data of b) of every pair after the +d shift."""
    data_b = 2 * stage_sites(n, d)[:, 1]
    return frozen(np.stack([data_b + 1, data_b], axis=1))


def rotate_pairs(cells: np.ndarray, stage: Stage) -> np.ndarray:
    """Apply each pair rotation between a carried register amplitude and its partner.

    Assumes the stage's first-member amplitudes were shifted +d cells, so the
    amplitude of logical a sits on the register site adjacent to the data site
    of logical b = a + d/2. The 2×2 rotation acts on (carried a, data b). On a
    block of L lines of 2n cells the stage spans L·n indices, line t taking
    its rows t·n/2 … (t+1)·n/2 − 1, as ``cs_decompose`` lays out a stack.
    """
    n = cells.shape[-1] // 2
    if stage.n != cells.size // 2:
        raise ValueError(f"stage dimension {stage.n} does not match {cells.size // 2} data sites")
    rotate_in_place(cells, _carried_sites(n, stage.d), stage)
    return cells


def run_stage(cells: np.ndarray, stage: Stage, line: int = 1) -> np.ndarray:
    """Execute the five-step conveyor protocol for one stage on a line or a block of lines.

    ``cells`` holds one line, (2n,), or L lines, (L, 2n), numbered from
    ``line`` on in error messages; it is changed in place. Every line's
    register sites must be empty again afterwards. Nothing is recorded: a
    caller that keeps a ProtocolTrace adds its records once the stage has
    succeeded.
    """
    n, d = cells.shape[-1] // 2, stage.d
    positions = stage_sites(n, d)[:, 0] + 1
    pi_transfer(cells, positions)
    shift_register(cells, d, line)
    rotate_pairs(cells, stage)
    shift_register(cells, -d, line)
    pi_transfer(cells, positions)
    worst = np.abs(cells[..., 1::2]).max(axis=-1)
    dirty = np.flatnonzero(~(worst <= REGISTER_TOL))
    if dirty.size:
        raise ProtocolIncompleteError(
            f"register amplitude {worst.flat[dirty[0]]:.3e} left on line {line + dirty[0]} "
            f"exceeds {REGISTER_TOL:.0e}"
        )
    return cells


def _synthesize(coins: CoinSet, npad: int) -> StageSequence:
    """Stages of a coin set's line coins, padded to npad identity-fixed lines and states.

    A coin set whose every group is of kind ``"grover"`` gets the
    closed-form ``grover_stages`` of its active states, 2·log₂npad − 1
    stages; any other is factorized by one ``cs_decompose`` of its stacked
    dense coins, npad − 1 stages.
    """
    if all(grp.kind == "grover" for grp in coins.groups):
        active = np.zeros((npad, npad), dtype=bool)
        for grp in coins.groups:
            active[grp.lines[:, None], grp.states] = True
        return grover_stages(active)
    n = coins.n
    stack = np.broadcast_to(np.eye(npad, dtype=complex), (npad, npad, npad)).copy()
    stack[:n, :n, :n] = coins.dense
    return cs_decompose(stack)


def run_walk_physical(s0: WalkState, plan: CoinPlan, trace: ProtocolTrace | None = None) -> WalkState:
    """Evolve a walk entirely through the physical conveyor protocol.

    walk.evolve's loop runs it, with the conveyor as each step's coin kernel.
    Each coin set of the plan is synthesized once per run: in closed form by
    grover_stages when all its coins are Grover coins, else by one
    cs_decompose of its stacked line coins. A step lays the n lines of its
    orientation onto the data cells of an empty block, runs each stage once
    on the block and writes the data cells back. The trace gets a step's
    records line by line once its norm check has passed.

    Dimensions that are not powers of two, and n = 1, are padded with
    identity lines and identity-fixed indices for the synthesis (to at least
    2, so a 1×1 coin's phase lands in a stride-2 stage); amplitude on a
    padded site is not written back, so the norm check catches it.
    """
    n = s0.n
    npad = max(2, next_power_of_two(n))
    stages_of = functools.cache(lambda coins: _synthesize(coins, npad).stages)  # per coin set, once a run
    last: list[tuple[str, int, int, int]] = []  # records of the last step, held until its norm check passed

    def apply(orientation: str, amp: np.ndarray, coins: CoinSet) -> None:
        if trace is not None:  # the loop calls again only once the last step passed its norm check
            trace.stages.extend(last)
        stages = stages_of(coins)
        lines = amp if orientation == ROW else amp.T
        block = np.zeros((npad, 2 * npad), dtype=complex)
        block[:n, 0:2 * n:2] = lines
        for stage in stages:
            run_stage(block, stage)
        lines[:] = block[:n, 0:2 * n:2]
        if trace is not None:
            last[:] = [(orientation, line, npad, stage.d) for line in range(1, n + 1) for stage in stages]

    out = _walk(s0, plan, functools.partial(apply, ROW), functools.partial(apply, COLUMN))
    if trace is not None:
        trace.stages.extend(last)
    return out
