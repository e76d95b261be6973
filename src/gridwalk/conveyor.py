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

The primitives and the stage runner work in place on the 2n cells of one
line, a view into one amplitude buffer; given a whole PhysicalGrid instead,
they work on a copy and return a new grid.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .decompose import Stage, StageSequence, cs_decompose, pad_unitary, rotate_in_place, stage_sites
from .errors import InvariantViolation, ProtocolIncompleteError, ShiftOutOfRangeError
from .util import frozen, is_power_of_two
from .walk import CoinPlan, WalkState

NORM_TOL = 1e-12
REGISTER_TOL = 1e-10

ROW = "row"
COLUMN = "column"


def _check_norm(amp: np.ndarray) -> None:
    norm = float(np.sum(np.abs(amp) ** 2))
    if not abs(norm - 1.0) <= NORM_TOL:
        raise InvariantViolation(f"grid norm² = {norm!r} deviates from 1 beyond {NORM_TOL}")


@dataclass(frozen=True, eq=False)
class PhysicalGrid:
    """2n×2n amplitude grid; odd physical rows/columns are data sites. Compared by value."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amp, dtype=complex)
        if a.shape != (2 * self.n, 2 * self.n):
            raise InvariantViolation(
                f"physical grid shape {a.shape}, expected {(2 * self.n, 2 * self.n)}"
            )
        _check_norm(a)
        object.__setattr__(self, "amp", frozen(a))

    def __eq__(self, other):
        return (
            isinstance(other, PhysicalGrid)
            and self.n == other.n
            and self.amp.tobytes() == other.amp.tobytes()
        )

    def __hash__(self):
        return hash((self.n, self.amp.tobytes()))

    def data_view(self) -> np.ndarray:
        return self.amp[0::2, 0::2]

    def max_register_amplitude(self) -> float:
        a = self.amp
        return float(
            max(
                np.max(np.abs(a[0::2, 1::2])),
                np.max(np.abs(a[1::2, 0::2])),
                np.max(np.abs(a[1::2, 1::2])),
            )
        )


@dataclass
class TraceAction:
    step: int
    action: str
    orientation: str
    line: int
    params: str


@dataclass
class ProtocolTrace:
    """Ordered audit log of primitive conveyor actions, five per stage."""

    actions: list[TraceAction] = field(default_factory=list)

    def record(self, step: int, action: str, orientation: str, line: int, params: str) -> None:
        expected = {1: "pi_transfer", 2: "shift", 3: "rotate", 4: "shift", 5: "pi_transfer"}
        if expected[step] != action:
            raise InvariantViolation(f"step {step} must be {expected[step]}, got {action}")
        self.actions.append(TraceAction(step, action, orientation, line, params))

    def stage_count(self) -> int:
        return sum(1 for a in self.actions if a.step == 1)


def format_trace(trace: ProtocolTrace) -> str:
    """One action per line: STEP k ACTION=… line=… orient=… params=…"""
    lines = []
    for a in trace.actions:
        orient = "H" if a.orientation == ROW else "V"
        lines.append(
            f"STEP {a.step} ACTION={a.action} line={a.line} orient={orient} params={a.params}"
        )
    return "\n".join(lines) + ("\n" if lines else "")


def _check_orientation(orientation: str) -> None:
    if orientation not in (ROW, COLUMN):
        raise ValueError(f"orientation must be {ROW!r} or {COLUMN!r}, got {orientation!r}")


def _line_view(amp: np.ndarray, orientation: str, line: int, n: int) -> np.ndarray:
    """The 2n physical cells of a logical line; a view into amp."""
    if not (1 <= line <= n):
        raise ValueError(f"line {line} outside 1..{n}")
    phys = 2 * (line - 1)
    return amp[phys, :] if orientation == ROW else amp[:, phys]


def _on_line(op):
    """Let an in-place line operation take a whole PhysicalGrid as well.

    ``op(cells, arg, orientation, line, ...)`` changes the 2n cells of one
    line (a writable complex 1-D array) in place and returns them. Given a
    PhysicalGrid instead, the operation runs on that line of a copy of the
    grid and a new, norm-checked grid is returned.
    """

    @functools.wraps(op)
    def operation(g, arg, orientation: str, line: int, *rest, **options):
        _check_orientation(orientation)
        if not isinstance(g, PhysicalGrid):
            return op(g, arg, orientation, line, *rest, **options)
        amp = g.amp.copy()
        op(_line_view(amp, orientation, line, g.n), arg, orientation, line, *rest, **options)
        return PhysicalGrid(g.n, amp)

    return operation


def embed(s: WalkState) -> PhysicalGrid:
    """Place walk amplitudes on the data sites of an otherwise empty grid."""
    amp = np.zeros((2 * s.n, 2 * s.n), dtype=complex)
    amp[0::2, 0::2] = s.amp
    return PhysicalGrid(s.n, amp)


def extract(g: PhysicalGrid) -> WalkState:
    """Read the walk state off the data sites; register sites must be empty."""
    worst = g.max_register_amplitude()
    if worst > REGISTER_TOL:
        raise ProtocolIncompleteError(
            f"register amplitude {worst:.3e} exceeds {REGISTER_TOL:.0e}; protocol incomplete"
        )
    return WalkState(g.n, g.data_view().copy())


@_on_line
def pi_transfer(cells: np.ndarray, positions, orientation: str, line: int) -> np.ndarray:
    """Exchange data and adjacent register amplitudes at the listed positions.

    An ideal π rotation moves an amplitude entirely between the two sites;
    applying it twice restores the original line exactly.
    """
    data = 2 * np.asarray(positions, dtype=np.intp) - 2
    if data.size and not (0 <= data.min() and data.max() < len(cells)):
        raise ValueError(f"positions {np.asarray(positions).tolist()} outside 1..{len(cells) // 2}")
    cells[data], cells[data + 1] = cells[data + 1], cells[data]
    return cells


@_on_line
def shift_register(cells: np.ndarray, offset: int, orientation: str, line: int) -> np.ndarray:
    """Translate the register-site amplitudes of one line by `offset` physical cells.

    The offset must be even so register sites land on register sites; any
    nonzero amplitude that would leave the grid raises ShiftOutOfRangeError
    (there is no wraparound).
    """
    if offset % 2 != 0:
        raise ValueError(f"offset must be even, got {offset}")
    regs = cells[1::2]
    slots = offset // 2
    if slots == 0:
        return cells
    lost = regs[-slots:] if slots > 0 else regs[:-slots]
    if lost.any():
        raise ShiftOutOfRangeError(
            f"shift by {offset} cells would move amplitude outside the grid on line {line}"
        )
    if slots > 0:
        regs[slots:] = regs[:-slots]
        regs[:slots] = 0
    else:
        regs[:slots] = regs[-slots:]
        regs[slots:] = 0
    return cells


@functools.cache
def _carried_sites(n: int, d: int) -> np.ndarray:
    """Cells (register next to b, data of b) of every pair after the +d shift."""
    data_b = 2 * stage_sites(n, d)[:, 1]
    return frozen(np.stack([data_b + 1, data_b], axis=1))


@_on_line
def rotate_pairs(cells: np.ndarray, stage: Stage, orientation: str, line: int) -> np.ndarray:
    """Apply each pair rotation between a carried register amplitude and its partner.

    Assumes the stage's first-member amplitudes were shifted +d cells, so the
    amplitude of logical a sits on the register site adjacent to the data site
    of logical b = a + d/2. The 2×2 rotation acts on (carried a, data b).
    """
    if 2 * stage.n != len(cells):
        raise ValueError(f"stage dimension {stage.n} does not match a line of {len(cells)} cells")
    rotate_in_place(cells, _carried_sites(stage.n, stage.d), stage)
    return cells


@_on_line
def run_stage(
    cells: np.ndarray,
    stage: Stage,
    orientation: str,
    line: int,
    trace: ProtocolTrace | None = None,
) -> np.ndarray:
    """Execute the five-step conveyor protocol for one stage on one line.

    The line's register sites must be empty again afterwards.
    """
    positions, d = stage.positions, stage.d
    pi_transfer(cells, positions, orientation, line)
    shift_register(cells, d, orientation, line)
    rotate_pairs(cells, stage, orientation, line)
    shift_register(cells, -d, orientation, line)
    pi_transfer(cells, positions, orientation, line)
    if trace is not None:
        transfer = "positions=" + ",".join(map(str, positions.tolist()))
        pairs = ",".join(f"({a},{b})" for a, b in stage.pairs.tolist())
        trace.record(1, "pi_transfer", orientation, line, transfer)
        trace.record(2, "shift", orientation, line, f"offset={d}")
        trace.record(3, "rotate", orientation, line, f"d={d};pairs={pairs}")
        trace.record(4, "shift", orientation, line, f"offset={-d}")
        trace.record(5, "pi_transfer", orientation, line, transfer)
    worst = float(np.abs(cells[1::2]).max())
    if not worst <= REGISTER_TOL:
        raise ProtocolIncompleteError(
            f"register amplitude {worst:.3e} left on line {line} exceeds {REGISTER_TOL:.0e}"
        )
    return cells


@_on_line
def run_sequence(
    cells: np.ndarray,
    seq: StageSequence,
    orientation: str,
    line: int,
    trace: ProtocolTrace | None = None,
) -> np.ndarray:
    """Run all stages of a sequence on one line, in application order."""
    for stage in seq.stages:
        run_stage(cells, stage, orientation, line, trace)
    return cells


def run_walk_physical(
    s0: WalkState, plan: CoinPlan, trace: ProtocolTrace | None = None
) -> WalkState:
    """Evolve a walk entirely through the physical conveyor protocol.

    Every step's per-line coins are synthesized into stage sequences and run
    line by line, in place on one amplitude buffer: odd steps over the rows,
    even steps over the columns, which reproduces the alternating grid
    evolution of walk.evolve. Lines within one step are independent; the
    sequential order here is immaterial. The norm is checked after every
    step and again on the final grid, whose register extract checks.

    Dimensions that are not powers of two are padded with identity-fixed
    indices for the synthesis and stripped again on extraction.
    """
    if plan.n != s0.n:
        raise ValueError(f"plan dimension {plan.n} does not match state {s0.n}")
    n = s0.n
    padded = not is_power_of_two(n)
    if padded:
        probe, _ = pad_unitary(np.eye(n))
        npad = probe.shape[0]
        amp = np.zeros((npad, npad), dtype=complex)
        amp[:n, :n] = s0.amp
        state = WalkState(npad, amp)
    else:
        state = s0

    amp = embed(state).amp.copy()
    # coins_for_step hands out the plan's own coin objects, the same on every
    # step that shares a coin set, so each coin is synthesized once per run
    seq_cache: dict[int, StageSequence] = {}
    for i in range(1, plan.steps + 1):
        coins = plan.coins_for_step(i)
        orientation = ROW if i % 2 == 1 else COLUMN
        for line in range(1, n + 1):
            coin = coins[line - 1]
            key = id(coin)
            if key not in seq_cache:
                seq_cache[key] = cs_decompose(pad_unitary(coin)[0] if padded else coin)
            cells = _line_view(amp, orientation, line, state.n)
            run_sequence(cells, seq_cache[key], orientation, line, trace)
        _check_norm(amp)
    out = extract(PhysicalGrid(state.n, amp))
    if padded:
        return WalkState(n, out.amp[:n, :n])
    return out
