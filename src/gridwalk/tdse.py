"""Time-dependent Schrödinger solver for barrier-controlled qubit rotations.

A single particle on a periodic 1D grid (ħ = 1, effective mass 1,
dimensionless units) moves in a double-well potential whose central barrier
is lowered, held, and raised again to rotate the qubit spanned by the left-
and right-well ground states. Propagation expands the short-time propagator
exp(−iH·dt) in Chebyshev polynomials of the normalized Hamiltonian

    H̃ = (2H − E_max − E_min) / (E_max − E_min)

weighted by Bessel functions J_n(α), α = (E_max − E_min)·dt/2:

    ψ(t+dt) = e^{−i(E_max+E_min)dt/2} · Σ_n c_n (−i)^n J_n(α) T_n(H̃)ψ,
    T_0ψ = ψ,  T_1ψ = H̃ψ,  T_{n+1}ψ = 2H̃·T_nψ − T_{n−1}ψ,

with c_0 = 1 and c_n = 2 for n ≥ 1 (Tal-Ezer & Kosloff, J. Chem. Phys. 81,
3967 (1984)). The series is truncated at the first n > α with |J_n(α)| below
TAIL_TOLERANCE = 1e-14, where the Bessel tail decays super-exponentially; the
coefficients are computed once per α, the J_n(α) by Miller's backward
recurrence, so the solver needs no scipy.
The kinetic term is spectral: the exact Laplacian of the band-limited grid
function, so E_max = max(V) + k_max²/2 with k_max = π/dx bounds the grid
spectrum tightly. On grids of at most DENSE_MAX_M = 384 points a step forms
2H̃ as one dense m×m matrix from the grid's kinetic matrix (FFTs of the
identity, built once per grid) and runs the recursion as matrix products, in
real arithmetic when the potential is real; larger grids apply H by FFTs
(apply_hamiltonian). The cut is the measured per-step crossover: with one
BLAS thread on a 2-CPU x86-64 host at dt = 0.01, one build plus one product
per term took 0.37–0.47 ms against 0.93–1.08 ms of FFTs at m = 256, was
ahead in 4 of 5 runs at m = 384 and behind in 4 of 5 at m = 448
(scripts/chebyshev_crossover.py). A step keeps at most CHEBYSHEV_RING terms
at once, so its memory does not grow with the truncation order.

Time-dependent barriers are handled by piecewise-constant midpoint sampling
of the barrier height per step; steps never straddle ramp boundaries. One
loop carries a (k, m) block of states through the steps, building the
potential only when the barrier changes, from wells and a bump computed once
per loop. A run of equal steps, such as a hold, runs as one step propagator
P when its length × rows × PROPAGATOR_CROSSOVER = 192 reaches m² on a dense
grid (and the run has more than two steps): P is the Chebyshev step of the
m×m identity, whose terms are real, built once per run and checked once for
unitarity, and each step is then one product rows @ P with a step's per-row
norm check. The rule is the measured crossover: with one BLAS thread on a 2-CPU
x86-64 host at dt = 0.1 and 0.01, building P cost as much as 7–9 one-row
steps at m = 64, 20–33 at m = 128 and 67–111 at m = 256–384, against 22, 86
and 342–768 steps for the rule, and 2–5 at m = 16–32 against 3 and 6
(scripts/chebyshev_crossover.py). The barrier changes at every ramp step, so
each ramp step is one chebyshev_step.

Calibration is separable (HoldScan): of U_up·e^{−iH_low·h}·U_down only the middle
factor depends on the hold h, and the transfer at any hold is a sum of m phases in
the low-barrier eigenbasis. H is real, so the ramp up run backwards on the real
well states is the conjugate of a forward run through its steps in reverse; with
equal ramps that is the ramp down, and both ramps cost one forward pass of the
two states. The hold is then found by Newton's method on that closed form.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property, lru_cache, partial
from itertools import groupby

import numpy as np

from .errors import (
    CalibrationUnreachableError,
    InvariantViolation,
    SpectralBoundsError,
    ToleranceFailure,
)
from .util import ByValue, check_version, complex_from_json, complex_to_json, frozen, unitarity_defect

NORM_TOL = 1e-12
# largest norm change allowed over one Chebyshev step and over a trajectory
NORM_DRIFT_TOL = 1e-8
# largest grid whose Chebyshev steps apply H̃ as a dense matrix (the measured crossover);
# larger ones use FFTs
DENSE_MAX_M = 384
# the Chebyshev series is cut at the first term past α whose |J_n(α)| falls below this
TAIL_TOLERANCE = 1e-14
# Chebyshev terms a step keeps at once; a fuller ring is summed by one product with the weights
CHEBYSHEV_RING = 16
# a run of equal steps on a dense grid goes through one step propagator once run × rows × this
# ≥ m² (the measured crossover, see the module docstring)
PROPAGATOR_CROSSOVER = 192
# how close a polished scan extremum must come to a target no scan interval crosses
CALIBRATION_TOL = 0.005
# holds a calibration evaluates in closed form over slightly more than one tunneling oscillation
SCAN_POINTS = 24


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic grid of m points on [x_min, x_max)."""

    x_min: float
    x_max: float
    m: int
    x: np.ndarray = field(init=False, repr=False, compare=False)
    k: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 16:
            raise ValueError(f"grid needs at least 16 points, got {self.m}")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        dx = (self.x_max - self.x_min) / self.m
        object.__setattr__(self, "x", frozen(self.x_min + dx * np.arange(self.m)))
        object.__setattr__(self, "k", frozen(2 * np.pi * np.fft.fftfreq(self.m, d=dx)))

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.m

    @property
    def k_max(self) -> float:
        return np.pi / self.dx

    @cached_property
    def kinetic(self) -> np.ndarray:
        """Real symmetric m×m matrix of the spectral −½∇², from FFTs of the identity; built once."""
        cols = np.fft.ifft((self.k**2 / 2)[:, None] * np.fft.fft(np.eye(self.m), axis=0), axis=0)
        return frozen((cols.real + cols.real.T) / 2)


@dataclass(frozen=True, eq=False)
class WaveFunction(ByValue):
    """Complex amplitudes on a spatial grid, normalized so Σ|ψ|²·dx = 1; compared by value."""

    grid: SpatialGrid
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.m,):
            raise InvariantViolation(f"ψ has shape {psi.shape}, grid has {self.grid.m} points")
        norm = float(np.sum(np.abs(psi) ** 2) * self.grid.dx)
        if not abs(norm - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"‖ψ‖² = {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "psi", frozen(psi))

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)


def normalized(grid: SpatialGrid, psi: np.ndarray) -> WaveFunction:
    """Construct a unit-norm WaveFunction from raw samples."""
    psi = np.asarray(psi, dtype=complex)
    norm = math.sqrt(float(np.sum(np.abs(psi) ** 2) * grid.dx))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero function")
    return WaveFunction(grid, psi / norm)


def gaussian_packet(grid: SpatialGrid, x0: float, sigma: float, k0: float = 0.0) -> WaveFunction:
    psi = np.exp(-((grid.x - x0) ** 2) / (4 * sigma**2) + 1j * k0 * (grid.x - x0))
    return normalized(grid, psi)


@dataclass(frozen=True, kw_only=True)
class DoubleWellSpec:
    """Two inverted Gaussian wells plus a central Gaussian barrier, by keyword only.

    The wells sit at x = ±well_separation/2 and the barrier bump at x = 0, so
    the potential is mirror-symmetric about 0 whenever tilt is zero; the grid
    places them. The bump's height is not the spec's: a pulse sets it
    (BarrierTimeline), and every potential is built at a given height. A
    nonzero tilt adds a linear bias that detunes the two wells (used to model
    asymmetric dots).
    """

    well_depth: float
    well_width: float
    well_separation: float
    barrier_width: float
    tilt: float = 0.0

    def __post_init__(self):
        # written so that a NaN fails too
        for name in ("well_depth", "well_width", "well_separation", "barrier_width"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class BarrierTimeline:
    """Cosine ramp down, hold, cosine ramp up of the central barrier height."""

    ramp_down_duration: float
    hold_duration: float
    ramp_up_duration: float
    high_barrier: float
    low_barrier: float

    def __post_init__(self):
        # written so that a NaN fails too
        for name in ("ramp_down_duration", "hold_duration", "ramp_up_duration"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be ≥ 0, got {getattr(self, name)!r}")
        if not (self.high_barrier >= 0 and self.low_barrier >= 0):
            raise ValueError("barrier heights must be ≥ 0")

    @property
    def total_duration(self) -> float:
        return self.ramp_down_duration + self.hold_duration + self.ramp_up_duration

    def barrier_at(self, t: float) -> float:
        """Barrier height at time t; continuous, clamped outside [0, total]."""
        hi, lo = self.high_barrier, self.low_barrier
        if t <= 0:
            return hi
        if t < self.ramp_down_duration:
            return lo + (hi - lo) * (1 + math.cos(math.pi * t / self.ramp_down_duration)) / 2
        t -= self.ramp_down_duration
        if t < self.hold_duration:
            return lo
        t -= self.hold_duration
        if t < self.ramp_up_duration:
            return lo + (hi - lo) * (1 - math.cos(math.pi * t / self.ramp_up_duration)) / 2
        return hi


@dataclass(frozen=True)
class ChebyshevParams:
    """Step size and spectral bounds for the expansion."""

    dt: float
    e_min: float
    e_max: float

    def __post_init__(self):
        if not self.e_max > self.e_min:
            raise ValueError(f"need e_max > e_min, got ({self.e_min}, {self.e_max})")

    @property
    def alpha(self) -> float:
        return (self.e_max - self.e_min) * self.dt / 2


# ---------------------------------------------------------------------------
# Potential and Hamiltonian


def double_well_potential(grid: SpatialGrid, spec: DoubleWellSpec):
    """The potential as a function of the barrier height: build_double_well to the bit.

    The wells, the bump and the tilt do not depend on the barrier, so they are computed
    once; each call adds the scaled bump to them.
    """
    x = grid.x
    half = spec.well_separation / 2
    wells = -spec.well_depth * (
        np.exp(-((x - half) ** 2) / (2 * spec.well_width**2))
        + np.exp(-((x + half) ** 2) / (2 * spec.well_width**2))
    )
    bump = np.exp(-(x**2) / (2 * spec.barrier_width**2))
    slope = spec.tilt * x

    def potential(barrier: float) -> np.ndarray:
        if barrier < 0:
            raise ValueError(f"barrier height must be ≥ 0, got {barrier}")
        return wells + barrier * bump + slope

    return potential


def build_double_well(grid: SpatialGrid, spec: DoubleWellSpec, barrier: float) -> np.ndarray:
    """Potential samples for the given barrier height."""
    return double_well_potential(grid, spec)(barrier)


def apply_hamiltonian(psi, v: np.ndarray, grid: SpatialGrid) -> np.ndarray:
    """(−½∇² + V)ψ with the Laplacian applied spectrally; result not normalized."""
    arr = psi.psi if isinstance(psi, WaveFunction) else np.asarray(psi, dtype=complex)
    kinetic = np.fft.ifft((grid.k**2 / 2) * np.fft.fft(arr))
    return kinetic + v * arr


def energy_bounds(grid: SpatialGrid, v: np.ndarray) -> tuple[float, float]:
    """(min V, max V + k_max²/2): guaranteed bracket of the grid Hamiltonian."""
    return float(np.min(v)), float(np.max(v)) + grid.k_max**2 / 2


def timeline_energy_bounds(
    grid: SpatialGrid, spec: DoubleWellSpec, timeline: BarrierTimeline
) -> tuple[float, float]:
    """Bracket valid for every barrier height the timeline visits.

    The barrier bump is non-negative, so the potential is monotone in the
    barrier height: the low-barrier potential gives the global minimum and the
    high-barrier one the maximum.
    """
    lo = min(timeline.low_barrier, timeline.high_barrier)
    hi = max(timeline.low_barrier, timeline.high_barrier)
    e_min, _ = energy_bounds(grid, build_double_well(grid, spec, lo))
    _, e_max = energy_bounds(grid, build_double_well(grid, spec, hi))
    return e_min, e_max


def dense_hamiltonian(grid: SpatialGrid, v: np.ndarray) -> np.ndarray:
    """Dense real symmetric matrix of the same grid Hamiltonian (desk-scale m)."""
    return grid.kinetic + np.diag(np.asarray(v, dtype=float))


# ---------------------------------------------------------------------------
# Chebyshev propagation


# the backward recurrence divides its values by this whenever one exceeds it
_BESSEL_RESCALE = 1e150


def _bessel_j(alpha: float, n_max: int) -> np.ndarray:
    """J_n(α) for n = 0..n_max, by Miller's backward recurrence.

    J_{n−1} = (2n/|α|)·J_n − J_{n+1} runs down from J_{top+1} = 0, J_top = 1 at top = n_max + 32,
    where it has settled on J, the solution that decays with n; J_0 + 2·Σ_k J_2k = 1 fixes the
    scale, and J_n(−α) = (−1)ⁿ·J_n(α). Below |α| = 1e-9 the power series' leading term
    (|α|/2)ⁿ/n! is exact to double precision.
    """
    x = abs(alpha)
    if x < 1e-9:
        out = np.cumprod([1.0, *(x / 2 / n for n in range(1, n_max + 1))])
    else:
        values = [0.0] * (n_max + 1)
        upper, j, total = 0.0, 1.0, 0.0
        for n in range(n_max + 32, 0, -1):
            if n <= n_max:
                values[n] = j
            if n % 2 == 0:
                total += 2 * j
            upper, j = j, 2 * n / x * j - upper
            if abs(j) > _BESSEL_RESCALE:
                values[n:] = [value / _BESSEL_RESCALE for value in values[n:]]
                upper, j, total = upper / _BESSEL_RESCALE, j / _BESSEL_RESCALE, total / _BESSEL_RESCALE
        values[0] = j
        out = np.array(values) / (total + j)
    if alpha < 0:
        out[1::2] *= -1
    return out


@lru_cache(maxsize=256)
def chebyshev_coefficients(alpha: float) -> np.ndarray:
    """Weights c_n·(−i)^n·J_n(α) for n = 0..n_max, truncated as in the module docstring.

    Cached per α. Raises ToleranceFailure, on every call, when the tail never falls
    below TAIL_TOLERANCE or only beyond α + 60 terms.
    """
    first, limit = int(abs(alpha)) + 1, int(abs(alpha)) + 200
    bessel = _bessel_j(alpha, limit)
    below = np.flatnonzero(np.abs(bessel[first:]) < TAIL_TOLERANCE)
    if below.size == 0:
        raise ToleranceFailure(
            f"Chebyshev tail |J_n({alpha:.3g})| did not reach {TAIL_TOLERANCE:.1e} "
            f"within {limit} terms"
        )
    n_max = first + int(below[0])
    if n_max > abs(alpha) + 60:
        raise ToleranceFailure(
            f"truncation order {n_max} exceeds α + 60 = {abs(alpha) + 60:.1f}; reduce dt"
        )
    weights = 2 * bessel[: n_max + 1] * np.array([1, -1j, -1, 1j])[np.arange(n_max + 1) % 4]
    weights[0] = bessel[0]
    return frozen(weights)


def chebyshev_step(grid: SpatialGrid, rows: np.ndarray, v: np.ndarray, params: ChebyshevParams) -> np.ndarray:
    """Advance every row of a (k, m) block of states by params.dt under the static potential v.

    A negative dt applies the adjoint step. A real block under a real potential on a dense
    grid keeps its Chebyshev terms real, half the work of a complex block: the step of the
    m×m identity is the step propagator P, with rows @ P the step of any block. Raises
    SpectralBoundsError when the norm of a row grows by more than NORM_DRIFT_TOL
    (eigenvalues outside [e_min, e_max]) and ToleranceFailure when it falls by more than
    that or is not a number.
    """
    real = np.isrealobj(rows) and np.isrealobj(v) and grid.m <= DENSE_MAX_M
    rows = np.asarray(rows, dtype=float if real else complex)
    if rows.ndim != 2 or rows.shape[1] != grid.m:
        raise ValueError(f"expected a (k, {grid.m}) block of states, got shape {rows.shape}")
    if params.dt == 0.0:
        return np.asarray(rows, dtype=complex)
    weights = chebyshev_coefficients(params.alpha)
    de = params.e_max - params.e_min
    shift = params.e_max + params.e_min

    # the states as columns; T_n(H̃) acts on each column alone
    cols = np.ascontiguousarray(rows.T)
    if grid.m <= DENSE_MAX_M:
        two_h = np.multiply(grid.kinetic, 4 / de, dtype=np.result_type(grid.kinetic, v))
        two_h.reshape(-1)[:: grid.m + 1] += (4 * v - 2 * shift) / de
        apply_two_h = partial(np.dot, two_h)  # np.dot's out= skips matmul's ufunc dispatch
        # a real 2H̃ acts on the real and imaginary parts apart: two float columns per state
        work = cols.view(float) if two_h.dtype == float else cols
    else:
        work = cols

        def apply_two_h(arr: np.ndarray, out: np.ndarray) -> None:
            out[...] = (4 * apply_hamiltonian(arr.T, v, grid).T - 2 * shift * arr) / de

    ring = np.empty((min(CHEBYSHEV_RING, len(weights)), *work.shape), dtype=work.dtype)
    series = np.zeros(cols.size, dtype=complex)
    for first, k in _fill_ring(apply_two_h, work, len(weights), ring):
        terms = ring[:k].view(cols.dtype).reshape(k, -1)
        if real:  # real terms: the weights' real and imaginary parts apart
            series.real += weights.real[first : first + k] @ terms
            series.imag += weights.imag[first : first + k] @ terms
        else:
            series += weights[first : first + k] @ terms
    out = np.exp(-1j * shift * params.dt / 2) * np.ascontiguousarray(series.reshape(cols.shape).T)
    return _norm_checked(rows, out, params)


def _fill_ring(apply_two_h, work: np.ndarray, n_terms: int, ring: np.ndarray):
    """Compute T_n(H̃)·work for n < n_terms into a ring of len(ring) ≥ 2 terms.

    Each time the ring fills, and after the last term, yields (first, k): ring[:k] then
    holds T_first … T_first+k−1, to be summed before the ring goes round, so memory does
    not grow with n_terms. apply_two_h(arr, out) writes 2H̃·arr into out.
    """
    terms = list(ring)
    prev2, prev = terms[0], terms[1]
    prev2[...] = work
    apply_two_h(work, prev)
    prev /= 2
    start = 2
    for first in range(0, n_terms, len(terms)):
        k = min(len(terms), n_terms - first)
        for term in terms[start:k]:
            apply_two_h(prev, term)
            term -= prev2
            prev2, prev = prev, term
        start = 0
        yield first, k


def _norm_checked(rows: np.ndarray, out: np.ndarray, params: ChebyshevParams) -> np.ndarray:
    """out, the step of rows, once the norm of no row has moved by more than NORM_DRIFT_TOL."""
    norm = _row_norms(out) / _row_norms(rows)
    if not norm.size or (norm.min() >= 1 - NORM_DRIFT_TOL and norm.max() <= 1 + NORM_DRIFT_TOL):
        return out
    grew = norm > 1 + NORM_DRIFT_TOL
    if grew.any():
        raise SpectralBoundsError(
            f"norm grew by {norm[grew].max() - 1:.3e} in one step; spectral bounds "
            f"({params.e_min}, {params.e_max}) do not bracket the Hamiltonian"
        )
    fell = ~(norm >= 1 - NORM_DRIFT_TOL)
    raise ToleranceFailure(f"norm fell by {1 - norm[fell].min():.3e} in one step")


def _row_norms(block: np.ndarray) -> np.ndarray:
    """Σ|ψ|² of each row of a real or complex (k, m) block."""
    parts = np.ascontiguousarray(block).view(float)
    return np.einsum("ij,ij->i", parts, parts)


@dataclass(frozen=True, eq=False)
class Trajectory(ByValue):
    """Sampled states of one run, compared by value: row i of the read-only (k, m) states is ψ at times[i]."""

    grid: SpatialGrid
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "times", frozen(self.times))
        object.__setattr__(self, "states", frozen(self.states))

    def norms(self) -> np.ndarray:
        return np.sum(np.abs(self.states) ** 2, axis=1) * self.grid.dx


MIN_RAMP_STEPS = 16


def timeline_steps(timeline: BarrierTimeline, dt: float) -> list[tuple[float, list[tuple[float, float]]]]:
    """Start time and (barrier, step length) pairs of each of the three segments.

    Each segment is cut into uniform steps no longer than dt, the barrier sampled
    at the step midpoint; a ramp gets at least MIN_RAMP_STEPS steps. When the two
    ramps last equally long, the ramp up is the ramp down's steps in reverse order,
    so mirrored midpoints sample equal barriers to the bit (HoldScan relies on it).
    """
    if dt <= 0:
        raise ValueError("timeline propagation needs dt > 0")
    for name in ("ramp_down_duration", "ramp_up_duration"):
        dur = getattr(timeline, name)
        if 0 < dur < MIN_RAMP_STEPS * dt:
            raise ValueError(
                f"dt={dt} does not resolve {name}={dur}: "
                f"fewer than {MIN_RAMP_STEPS} steps per ramp"
            )
    down, hold, up = timeline.ramp_down_duration, timeline.hold_duration, timeline.ramp_up_duration

    def segment(t0: float, duration: float) -> list[tuple[float, float]]:
        if duration <= 0:
            return []
        # MIN_RAMP_STEPS·dt is exact (a power of two), so a checked ramp gets ≥ MIN_RAMP_STEPS steps
        n_steps = max(1, math.ceil(duration / dt))
        dt_seg = duration / n_steps
        return [(timeline.barrier_at(t0 + (i + 0.5) * dt_seg), dt_seg) for i in range(n_steps)]

    ramp_down = segment(0.0, down)
    ramp_up = ramp_down[::-1] if up == down else segment(down + hold, up)
    return [(0.0, ramp_down), (down, segment(down, hold)), (down + hold, ramp_up)]


def _propagate(
    grid: SpatialGrid, spec: DoubleWellSpec, rows: np.ndarray, steps, params: ChebyshevParams, sample_stride=0,
    steps_done=0,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Carry a (k, m) block of states through (barrier, step length) pairs.

    Returns the final block and the block after every sample_stride-th step (none
    when 0), counting from steps_done steps taken before these. A potential is
    built only when the barrier changes. A run of equal steps that
    _holds_by_propagator admits builds its step propagator P once and makes each
    step one product rows @ P; P lives for this call only.
    """
    potential = double_well_potential(grid, spec)
    samples = []
    barrier = step_dt = None
    n = steps_done
    for (b, dt), run in groupby(steps):
        count = sum(1 for _ in run)
        if b != barrier:
            barrier, v = b, potential(b)
        if dt != step_dt:
            step_dt, step_params = dt, replace(params, dt=dt)
        p = _step_propagator(grid, v, step_params) if _holds_by_propagator(grid.m, count, len(rows)) else None
        for _ in range(count):
            if p is None:
                rows = chebyshev_step(grid, rows, v, step_params)
            else:
                rows = _norm_checked(rows, rows @ p, step_params)
            n += 1
            if sample_stride and n % sample_stride == 0:
                samples.append(rows)
    return rows, samples


def _holds_by_propagator(m: int, run: int, rows: int) -> bool:
    """Whether a run of `run` equal steps of a (rows, m) block goes through one step propagator.

    Building P costs about two one-row steps even at m = 16, so a run of at most two
    steps, a ramp step's among them, never does.
    """
    return m <= DENSE_MAX_M and run > 2 and run * rows * PROPAGATOR_CROSSOVER >= m * m


def _step_propagator(grid: SpatialGrid, v: np.ndarray, params: ChebyshevParams) -> np.ndarray:
    """The m×m step propagator P: the step of the identity, so rows @ P is the step of rows.

    Raises ToleranceFailure when P is further from unitary than NORM_DRIFT_TOL.
    """
    p = chebyshev_step(grid, np.eye(grid.m), v, params)
    defect = unitarity_defect(p)
    if not defect <= NORM_DRIFT_TOL:
        raise ToleranceFailure(f"step propagator is off unitary by {defect:.3e}")
    return p


def evolve_timeline(
    psi0: WaveFunction,
    spec: DoubleWellSpec,
    timeline: BarrierTimeline,
    dt: float,
    sample_stride: int = 1,
    ramp_down: Trajectory | None = None,
) -> Trajectory:
    """Propagate psi0 on its own grid through a barrier timeline, sampling every `sample_stride` steps.

    Steps of at most dt as in timeline_steps, each a Chebyshev step bracketed by
    timeline_energy_bounds; the initial and final states are always sampled.
    ramp_down, when given, is psi0 and its state after each ramp-down step, as
    HoldScan.ramp_down holds them: the run then takes its ramp-down samples from it
    and steps only the hold and the ramp up. Raises ValueError when its times are not
    this timeline's ramp down or it does not start at psi0.
    """
    if sample_stride < 1:
        raise ValueError("sample stride must be ≥ 1")

    grid = psi0.grid
    params = ChebyshevParams(dt, *timeline_energy_bounds(grid, spec, timeline))
    segments = timeline_steps(timeline, dt)
    steps = [step for _, seg in segments for step in seg]
    ends = [t0 + (i + 1) * dt_seg for t0, seg in segments for i, (_, dt_seg) in enumerate(seg)]
    states, done = [psi0.psi], 0
    if ramp_down is not None:
        done = len(segments[0][1])
        starts_at_psi0 = np.array_equal(ramp_down.states[0], psi0.psi)
        if not (starts_at_psi0 and np.array_equal(ramp_down.times, [0.0, *ends[:done]])):
            raise ValueError("ramp_down is not this timeline's ramp down from psi0")
        states += list(ramp_down.states[sample_stride::sample_stride])
    start = psi0.psi[np.newaxis] if ramp_down is None else ramp_down.states[-1:]
    final, samples = _propagate(grid, spec, start, steps[done:], params, sample_stride, done)
    times = [0.0, *ends[sample_stride - 1 :: sample_stride]]
    states += [block[0] for block in samples]
    final_t = timeline.total_duration
    if final_t > 0 and abs(times[-1] - final_t) > 1e-12 * max(1.0, final_t):
        times.append(final_t)
        states.append(final[0])
    return Trajectory(grid, np.array(times), states)


# ---------------------------------------------------------------------------
# Qubit basis, projection, calibration


def well_ground_states(
    grid: SpatialGrid, spec: DoubleWellSpec, barrier: float
) -> tuple[WaveFunction, WaveFunction]:
    """Left- and right-localized combinations of the lowest doublet at the given barrier height.

    Diagonalizes the dense Hamiltonian and rotates within the span of the two
    lowest eigenstates so the position operator is diagonal there. For
    symmetric wells this is exactly the sum/difference combination
    (e0 ± e1)/√2 of the doublet; for detuned wells it still yields one state
    per well. Signs are fixed so each state has positive real amplitude at its
    own well minimum, x = ∓well_separation/2.
    """
    v = build_double_well(grid, spec, barrier)
    h = dense_hamiltonian(grid, v)
    _, vecs = np.linalg.eigh(h)
    e0, e1 = vecs[:, 0], vecs[:, 1]
    # dense_hamiltonian is real, so eigh's vectors are real: these lines only fix their signs
    e0 = np.real(e0 * np.exp(-1j * np.angle(e0[np.argmax(np.abs(e0))])))
    e1 = np.real(e1 * np.exp(-1j * np.angle(e1[np.argmax(np.abs(e1))])))
    e0 /= np.linalg.norm(e0)
    e1 /= np.linalg.norm(e1)
    x = grid.x
    pos = np.array(
        [
            [np.sum(x * e0 * e0), np.sum(x * e0 * e1)],
            [np.sum(x * e1 * e0), np.sum(x * e1 * e1)],
        ]
    )
    _, rot = np.linalg.eigh(pos)  # columns ordered by position expectation
    left = e0 * rot[0, 0] + e1 * rot[1, 0]
    right = e0 * rot[0, 1] + e1 * rot[1, 1]
    half = spec.well_separation / 2
    i_left, i_right = int(np.argmin(np.abs(x + half))), int(np.argmin(np.abs(x - half)))
    if left[i_left] < 0:
        left = -left
    if right[i_right] < 0:
        right = -right
    return normalized(grid, left), normalized(grid, right)


def qubit_projection(
    psi, phi_left: WaveFunction, phi_right: WaveFunction
) -> tuple[complex, complex, float]:
    """(⟨L|ψ⟩, ⟨R|ψ⟩, leakage) with leakage = 1 − |α|² − |β|²."""
    grid = phi_left.grid
    arr = psi.psi if isinstance(psi, WaveFunction) else np.asarray(psi, dtype=complex)
    alpha = complex(np.vdot(phi_left.psi, arr) * grid.dx)
    beta = complex(np.vdot(phi_right.psi, arr) * grid.dx)
    return alpha, beta, 1.0 - abs(alpha) ** 2 - abs(beta) ** 2


PHASE_DEFINED_TOL = 1e-6


_WF_VERSION = 1


def wavefunction_to_json(wf: WaveFunction) -> str:
    """Full-ψ snapshot: grid extent plus row of (re, im) samples."""
    return json.dumps({
        "version": _WF_VERSION,
        "x_min": wf.grid.x_min,
        "x_max": wf.grid.x_max,
        "m": wf.grid.m,
        "psi": complex_to_json(wf.psi),
    })


def wavefunction_from_json(text: str) -> WaveFunction:
    doc = json.loads(text)
    check_version(doc, _WF_VERSION, "wave function")
    grid = SpatialGrid(doc["x_min"], doc["x_max"], doc["m"])
    return WaveFunction(grid, complex_from_json(doc["psi"], (grid.m,), "ψ samples"))


def trajectory_to_text(
    traj: Trajectory, phi_left: WaveFunction, phi_right: WaveFunction
) -> str:
    """Delimited rows: t, |α|², |β|², relative phase, leakage, norm².

    Every sample is projected onto the qubit basis (qubit_projection). The
    relative phase arg(β/α) is NaN wherever |α| or |β| is at most
    PHASE_DEFINED_TOL.
    """
    proj = np.array([qubit_projection(state, phi_left, phi_right) for state in traj.states])
    a, b = np.abs(proj[:, 0]), np.abs(proj[:, 1])
    defined = np.minimum(a, b) > PHASE_DEFINED_TOL
    phase = np.angle(np.divide(proj[:, 1], proj[:, 0], out=np.full(len(a), np.nan, dtype=complex), where=defined))
    leakage, norms = proj[:, 2].real, traj.norms()
    lines = ["# t  pL  pR  phase  leakage  norm2"]
    for i, t in enumerate(traj.times):
        lines.append(
            f"{t:.10e} {a[i] ** 2:.10e} {b[i] ** 2:.10e} {phase[i]:.10e} {leakage[i]:.10e} {norms[i]:.10e}"
        )
    return "\n".join(lines) + "\n"


def doublet_splitting(grid: SpatialGrid, spec: DoubleWellSpec, barrier: float) -> float:
    """Energy gap of the two lowest eigenstates at a fixed barrier height."""
    v = build_double_well(grid, spec, barrier)
    vals = np.linalg.eigvalsh(dense_hamiltonian(grid, v))
    return float(vals[1] - vals[0])


@dataclass(frozen=True, eq=False)
class HoldScan:
    """Final qubit amplitudes of a pulse with fixed ramps, in closed form in the hold.

    From the left-well state L, ⟨φ|U_up·e^{−iH_low·h}·U_down|L⟩ = Σ_j w_j·e^{−iE_j·h}
    with H_low = Q·diag(E)·Q† and w = conj(Q†U_up†φ)·(Q†U_down L)·dx, for φ = L, R
    (the rows of weights): O(m) per hold. basis holds (L, R), the high-barrier well
    ground states, and ramp_down holds L and its state after each ramp-down step.
    Compared by identity, as nothing keys on it.
    """

    energies: np.ndarray
    weights: np.ndarray
    basis: tuple[WaveFunction, WaveFunction]
    ramp_down: Trajectory

    @classmethod
    def from_pulse(cls, grid: SpatialGrid, spec: DoubleWellSpec, template: BarrierTimeline, dt: float) -> HoldScan:
        """Propagate through the template's ramps forward only, in steps of at most dt; its hold is ignored.

        Every H(b) is real symmetric and L, R are real, so U_up†·φ = conj(F·φ), where F steps
        forward through the ramp up's steps in reverse order. With equal ramps those are the
        ramp down's own steps (timeline_steps), so one pass of (L, R) as a (2, m) block gives
        U_down L in row 0 and U_up†(L, R) as its conjugate. Unequal ramps take a 1-row pass
        of L through the ramp down and a 2-row pass through the reversed ramp up.
        """
        phi_left, phi_right = well_ground_states(grid, spec, template.high_barrier)
        params = ChebyshevParams(dt, *timeline_energy_bounds(grid, spec, template))
        (_, ramp_down), _, (_, ramp_up) = timeline_steps(replace(template, hold_duration=0.0), dt)
        basis = np.array([phi_left.psi, phi_right.psi])
        mirrored = ramp_up[::-1] == ramp_down
        down, samples = _propagate(grid, spec, basis if mirrored else basis[:1], ramp_down, params, 1)
        up = down if mirrored else _propagate(grid, spec, basis, ramp_up[::-1], params)[0]
        v_low = build_double_well(grid, spec, template.low_barrier)
        energies, modes = np.linalg.eigh(dense_hamiltonian(grid, v_low))
        coeffs = modes.conj().T @ np.vstack([down[0], up.conj()]).T
        weights = coeffs[:, 1:].T.conj() * coeffs[:, 0] * grid.dx
        times = [0.0, *((i + 1) * dt_seg for i, (_, dt_seg) in enumerate(ramp_down))]
        trajectory = Trajectory(grid, np.array(times), [phi_left.psi, *(block[0] for block in samples)])
        return cls(frozen(energies), frozen(weights), (phi_left, phi_right), trajectory)

    @property
    def period(self) -> float:
        """Tunneling period 2π/(E_1 − E_0) of the low-barrier doublet."""
        return float(2 * np.pi / (self.energies[1] - self.energies[0]))

    @cached_property
    def scan(self) -> tuple[np.ndarray, np.ndarray]:
        """SCAN_POINTS holds from 0 over 1.05 periods and their transfers, read-only."""
        holds = np.linspace(0.0, 1.05 * self.period, SCAN_POINTS)
        return frozen(holds), frozen(self.transfer(holds))

    def probabilities(self, holds) -> np.ndarray:
        """(|⟨L|ψ⟩|², |⟨R|ψ⟩|²) of the final state, each shaped like holds."""
        amps = np.exp(-1j * np.multiply.outer(holds, self.energies)) @ self.weights.T
        return np.moveaxis(np.abs(amps) ** 2, -1, 0)

    def transfer(self, holds) -> np.ndarray:
        return self.probabilities(holds)[1]

    def transfer_derivatives(self, hold: float) -> tuple[float, float, float]:
        """The transfer T = |a|², a = Σ_j w_j·e^{−iE_j·h}, and dT/dh and d²T/dh² at one hold, in O(m)."""
        terms = np.exp(-1j * self.energies * hold) * self.weights[1]
        slopes = -1j * self.energies * terms
        a, da, d2a = terms.sum(), slopes.sum(), (-1j * self.energies * slopes).sum()
        return abs(a) ** 2, 2 * (a.conjugate() * da).real, 2 * (abs(da) ** 2 + (a.conjugate() * d2a).real)

    def leakage(self, holds) -> np.ndarray:
        p_left, p_right = self.probabilities(holds)
        return 1.0 - p_left - p_right


def _bracketed_root(f, lo: float, hi: float) -> float | None:
    """A root of f in [lo, hi], or None when f(lo) and f(hi) are nonzero and of one sign.

    f(h) returns (f(h), f'(h)). Newton's method, safeguarded by bisection: every evaluation
    narrows the bracket, and a Newton step that would leave it, or that is not at most half
    the step before, is replaced by a step to its midpoint (as rtsafe in Numerical Recipes).
    It stops when a step moves h by no more than 4 ulps.
    """
    f_lo, f_hi = f(lo)[0], f(hi)[0]
    if f_lo == 0.0 or f_hi == 0.0:
        return lo if f_lo == 0.0 else hi
    if (f_lo > 0) == (f_hi > 0):
        return None
    if f_lo > 0:  # from here on f(lo) < 0 < f(hi), whichever end is larger
        lo, hi = hi, lo
    h, last = (lo + hi) / 2, abs(hi - lo)
    for _ in range(200):
        value, slope = f(h)
        if value == 0.0:
            return h
        lo, hi = (h, hi) if value < 0 else (lo, h)
        step = value / slope if slope else math.inf
        if not min(lo, hi) < h - step < max(lo, hi) or 2 * abs(step) > last:
            step = h - (lo + hi) / 2
        h, last = h - step, abs(step)
        if last <= 4 * np.spacing(abs(h)):
            return h
    return h


def calibrate_hold_time(pulse: HoldScan, target_transfer: float) -> float:
    """The smallest hold of the pulse whose transfer matches the target.

    Starting from the left-well state, the transfer T is evaluated in closed
    form (HoldScan) on the pulse's scan, SCAN_POINTS holds over slightly more
    than one tunneling oscillation. The root in the first scan interval that
    crosses the target is found by Newton's method on T, safeguarded by
    bisection; if none does (targets near 0 or 1), the scan's extrema towards
    the target are polished in order by the same method on dT/dh, between the
    neighbouring scan holds, and the first within CALIBRATION_TOL wins; a
    polish that crosses the target takes the root before it instead. Raises
    CalibrationUnreachableError when none is. One pulse serves any number of
    targets: its ramps are propagated once, by HoldScan.from_pulse.
    """
    if not 0.0 <= target_transfer <= 1.0:
        raise ValueError(f"target transfer must lie in [0, 1], got {target_transfer}")
    holds, values = pulse.scan

    def offset(hold: float) -> float:
        return float(pulse.transfer(hold)) - target_transfer

    def crossing(lo: float, hi: float) -> float:  # lo and hi bracket a crossing
        return _bracketed_root(lambda h: (offset(h), pulse.transfer_derivatives(h)[1]), lo, hi)

    gap = values - target_transfer
    crossings = np.flatnonzero(gap[:-1] * gap[1:] <= 0)
    if crossings.size:
        return float(crossing(holds[crossings[0]], holds[crossings[0] + 1]))

    # every scanned transfer lies on one side of the target: its extrema
    # towards the target are the local minima of |gap|
    side = math.copysign(1.0, gap[0])
    gap = np.abs(gap)
    padded = np.concatenate(([np.inf], gap, [np.inf]))
    for i in np.flatnonzero((gap <= padded[:-2]) & (gap <= padded[2:])):
        lo, hi = holds[max(i - 1, 0)], holds[min(i + 1, SCAN_POINTS - 1)]
        hold = holds[i]
        peak = _bracketed_root(lambda h: pulse.transfer_derivatives(h)[1:], lo, hi)
        if peak is not None and side * offset(peak) <= 0:
            hold = crossing(lo, peak)
        elif peak is not None and abs(offset(peak)) < gap[i]:
            hold = peak
        if abs(offset(hold)) <= CALIBRATION_TOL:
            return float(hold)

    best = float(np.max(values))
    raise CalibrationUnreachableError(
        f"transfer never came within {CALIBRATION_TOL} of {target_transfer} over one "
        f"oscillation (max achieved {best:.4f})",
        max_achieved=best,
    )
