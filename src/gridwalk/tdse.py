"""Time-dependent Schrödinger solver for barrier-controlled qubit rotations.

A single particle on a periodic 1D grid (ħ = 1, effective mass 1,
dimensionless units) moves in a double-well potential whose central barrier
is lowered, held, and raised again to rotate the qubit spanned by the left-
and right-well ground states. Propagation expands the short-time propagator
exp(−iH·dt) in Chebyshev polynomials of the normalized Hamiltonian

    H̃ = (2H − E_max − E_min) / (E_max − E_min)

weighted by Bessel functions J_n(α), α = (E_max − E_min)·dt/2:

    ψ(t+dt) = e^{−i(E_max+E_min)dt/2} · Σ_n c_n J_n(α) φ_n,
    φ_0 = ψ,  φ_1 = −iH̃ψ,  φ_{n+1} = −2iH̃φ_n + φ_{n−1},

with c_0 = 1 and c_n = 2 for n ≥ 1. The series is truncated at the first
n > α with |J_n(α)| below the tail tolerance, where the Bessel tail decays
super-exponentially. The kinetic term is applied spectrally (FFT), so E_max =
max(V) + k_max²/2 with k_max = π/dx bounds the grid spectrum tightly.

Time-dependent barriers are handled by piecewise-constant midpoint sampling
of the barrier height per step; steps never straddle ramp boundaries.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.linalg import dft
from scipy.special import jv

from .errors import (
    CalibrationUnreachableError,
    InvariantViolation,
    SpectralBoundsError,
    ToleranceFailure,
)
from .util import frozen

NORM_TOL = 1e-12
# largest norm change allowed over one Chebyshev step and over a trajectory
NORM_DRIFT_TOL = 1e-8


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
    def center(self) -> float:
        return 0.5 * (self.x_min + self.x_max)

    @property
    def k_max(self) -> float:
        return np.pi / self.dx


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a spatial grid, normalized so Σ|ψ|²·dx = 1."""

    grid: SpatialGrid
    psi: np.ndarray

    def __post_init__(self):
        psi = np.asarray(self.psi, dtype=complex)
        if psi.shape != (self.grid.m,):
            raise InvariantViolation(f"ψ has shape {psi.shape}, grid has {self.grid.m} points")
        norm = float(np.sum(np.abs(psi) ** 2) * self.grid.dx)
        if abs(norm - 1.0) > NORM_TOL:
            raise InvariantViolation(f"‖ψ‖² = {norm!r} deviates from 1 beyond {NORM_TOL}")
        object.__setattr__(self, "psi", frozen(psi))

    def norm_squared(self) -> float:
        return float(np.sum(np.abs(self.psi) ** 2) * self.grid.dx)


def _propagated(grid: SpatialGrid, psi: np.ndarray) -> WaveFunction:
    """WaveFunction without the construction norm check.

    Propagation legitimately drifts the norm by more than the construction
    tolerance over long runs; drift is bounded by explicit checks instead.
    """
    wf = object.__new__(WaveFunction)
    object.__setattr__(wf, "grid", grid)
    object.__setattr__(wf, "psi", frozen(psi))
    return wf


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


@dataclass(frozen=True)
class DoubleWellSpec:
    """Two inverted Gaussian wells plus a central Gaussian barrier.

    The wells sit at center ± well_separation/2 and the barrier bump of
    controllable height at the center, so the potential is mirror-symmetric
    about the center whenever tilt is zero. A nonzero tilt adds a linear bias
    that detunes the two wells (used to model asymmetric dots).
    """

    well_depth: float
    well_width: float
    well_separation: float
    barrier_width: float
    barrier_height: float
    center: float = 0.0
    tilt: float = 0.0

    def __post_init__(self):
        if self.barrier_height < 0:
            raise ValueError(f"barrier height must be ≥ 0, got {self.barrier_height}")
        for name in ("well_depth", "well_width", "well_separation", "barrier_width"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True)
class BarrierTimeline:
    """Cosine ramp down, hold, cosine ramp up of the central barrier height."""

    ramp_down_duration: float
    hold_duration: float
    ramp_up_duration: float
    high_barrier: float
    low_barrier: float

    def __post_init__(self):
        for name in ("ramp_down_duration", "hold_duration", "ramp_up_duration"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be ≥ 0")
        if self.high_barrier < 0 or self.low_barrier < 0:
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
    """Step size, spectral bounds, and truncation threshold for the expansion."""

    dt: float
    e_min: float
    e_max: float
    tail_tolerance: float = 1e-14

    def __post_init__(self):
        if not self.e_max > self.e_min:
            raise ValueError(f"need e_max > e_min, got ({self.e_min}, {self.e_max})")
        if not (0 < self.tail_tolerance <= 1e-8):
            raise ValueError(f"tail tolerance must lie in (0, 1e-8], got {self.tail_tolerance}")

    @property
    def alpha(self) -> float:
        return (self.e_max - self.e_min) * self.dt / 2


# ---------------------------------------------------------------------------
# Potential and Hamiltonian


def build_double_well(grid: SpatialGrid, spec: DoubleWellSpec, barrier: float | None = None) -> np.ndarray:
    """Potential samples for the given barrier height (spec's height if None)."""
    b = spec.barrier_height if barrier is None else barrier
    if b < 0:
        raise ValueError(f"barrier height must be ≥ 0, got {b}")
    u = grid.x - spec.center
    half = spec.well_separation / 2
    wells = np.exp(-((u - half) ** 2) / (2 * spec.well_width**2)) + np.exp(
        -((u + half) ** 2) / (2 * spec.well_width**2)
    )
    bump = np.exp(-(u**2) / (2 * spec.barrier_width**2))
    return -spec.well_depth * wells + b * bump + spec.tilt * u


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
    """Dense Hermitian matrix of the same grid Hamiltonian (desk-scale m)."""
    f = dft(grid.m)
    kinetic = (f.conj().T / grid.m) @ np.diag(grid.k**2 / 2) @ f
    h = kinetic + np.diag(np.asarray(v, dtype=float))
    return (h + h.conj().T) / 2


# ---------------------------------------------------------------------------
# Chebyshev propagation


def chebyshev_step(psi: WaveFunction, v: np.ndarray, params: ChebyshevParams) -> WaveFunction:
    """Advance ψ by params.dt under the static potential v.

    Raises SpectralBoundsError when the norm grows by more than
    NORM_DRIFT_TOL, the symptom of eigenvalues outside [e_min, e_max], and
    ToleranceFailure when it falls by more than that.
    """
    if params.dt == 0.0:
        return psi
    grid = psi.grid
    alpha = params.alpha
    de = params.e_max - params.e_min
    shift = params.e_max + params.e_min

    limit = int(abs(alpha)) + 200
    bessel = jv(np.arange(limit + 1), alpha)
    n_max = None
    for n in range(int(abs(alpha)) + 1, limit + 1):
        if abs(bessel[n]) < params.tail_tolerance:
            n_max = n
            break
    if n_max is None:
        raise ToleranceFailure(
            f"Chebyshev tail |J_n({alpha:.3g})| did not reach {params.tail_tolerance:.1e} "
            f"within {limit} terms"
        )
    if params.tail_tolerance >= 1e-14 and n_max > abs(alpha) + 60:
        raise ToleranceFailure(
            f"truncation order {n_max} exceeds α + 60 = {abs(alpha) + 60:.1f}; "
            "reduce dt or widen the tail tolerance"
        )

    def h_tilde(arr: np.ndarray) -> np.ndarray:
        return (2 * apply_hamiltonian(arr, v, grid) - shift * arr) / de

    phi_prev = psi.psi
    phi_cur = -1j * h_tilde(phi_prev)
    acc = bessel[0] * phi_prev + 2 * bessel[1] * phi_cur
    for n in range(2, n_max + 1):
        phi_next = -2j * h_tilde(phi_cur) + phi_prev
        acc += 2 * bessel[n] * phi_next
        phi_prev, phi_cur = phi_cur, phi_next
    out = np.exp(-1j * shift * params.dt / 2) * acc

    norm = float(np.sum(np.abs(out) ** 2) * grid.dx) / psi.norm_squared()
    if norm > 1 + NORM_DRIFT_TOL:
        raise SpectralBoundsError(
            f"norm grew by {norm - 1:.3e} in one step; spectral bounds "
            f"({params.e_min}, {params.e_max}) do not bracket the Hamiltonian"
        )
    if norm < 1 - NORM_DRIFT_TOL:
        raise ToleranceFailure(f"norm fell by {1 - norm:.3e} in one step")
    return _propagated(grid, out)


@dataclass
class Trajectory:
    """Sampled states of one propagation run."""

    grid: SpatialGrid
    times: np.ndarray
    states: list[WaveFunction]

    def final(self) -> WaveFunction:
        return self.states[-1]

    def norms(self) -> np.ndarray:
        return np.array([s.norm_squared() for s in self.states])


MIN_RAMP_STEPS = 16


def evolve_timeline(
    psi0: WaveFunction,
    grid: SpatialGrid,
    spec: DoubleWellSpec,
    timeline: BarrierTimeline,
    params: ChebyshevParams,
    sample_stride: int = 1,
) -> Trajectory:
    """Propagate through a barrier timeline, sampling every `sample_stride` steps.

    Each of the three timeline segments is subdivided into uniform steps no
    longer than params.dt, with the barrier sampled at the step midpoint;
    ramp segments get at least MIN_RAMP_STEPS steps. The initial and final
    states are always sampled.
    """
    if psi0.grid is not grid and psi0.grid != grid:
        raise ValueError("initial state lives on a different grid")
    if sample_stride < 1:
        raise ValueError("sample stride must be ≥ 1")
    if params.dt <= 0:
        raise ValueError("timeline propagation needs dt > 0")
    for name in ("ramp_down_duration", "ramp_up_duration"):
        dur = getattr(timeline, name)
        if 0 < dur < MIN_RAMP_STEPS * params.dt:
            raise ValueError(
                f"dt={params.dt} does not resolve {name}={dur}: "
                f"fewer than {MIN_RAMP_STEPS} steps per ramp"
            )

    segments = [
        (0.0, timeline.ramp_down_duration, True),
        (timeline.ramp_down_duration, timeline.hold_duration, False),
        (timeline.ramp_down_duration + timeline.hold_duration, timeline.ramp_up_duration, True),
    ]
    times = [0.0]
    states = [psi0]
    psi = psi0
    step_count = 0
    for t0, duration, is_ramp in segments:
        if duration <= 0:
            continue
        n_steps = max(1, math.ceil(duration / params.dt))
        if is_ramp:
            n_steps = max(n_steps, MIN_RAMP_STEPS)
        dt_seg = duration / n_steps
        seg_params = replace(params, dt=dt_seg)
        for i in range(n_steps):
            barrier = timeline.barrier_at(t0 + (i + 0.5) * dt_seg)
            v = build_double_well(grid, spec, barrier)
            psi = chebyshev_step(psi, v, seg_params)
            step_count += 1
            if step_count % sample_stride == 0:
                times.append(t0 + (i + 1) * dt_seg)
                states.append(psi)
    final_t = timeline.total_duration
    if final_t > 0 and abs(times[-1] - final_t) > 1e-12 * max(1.0, final_t):
        times.append(final_t)
        states.append(psi)
    return Trajectory(grid, np.array(times), states)


# ---------------------------------------------------------------------------
# Qubit basis, projection, calibration


def well_ground_states(
    grid: SpatialGrid, spec: DoubleWellSpec, barrier: float | None = None
) -> tuple[WaveFunction, WaveFunction]:
    """Left- and right-localized combinations of the lowest doublet.

    Diagonalizes the dense Hamiltonian at the given barrier (spec's height by
    default) and rotates within the span of the two lowest eigenstates so the
    position operator is diagonal there. For symmetric wells this is exactly
    the sum/difference combination (e0 ± e1)/√2 of the doublet; for detuned
    wells it still yields one state per well. Signs are fixed so each state
    has positive real amplitude at its own well minimum.
    """
    v = build_double_well(grid, spec, barrier)
    h = dense_hamiltonian(grid, v)
    _, vecs = np.linalg.eigh(h)
    e0, e1 = vecs[:, 0], vecs[:, 1]
    # eigh of a real-symmetric-in-disguise matrix may return a complex phase
    e0 = np.real(e0 * np.exp(-1j * np.angle(e0[np.argmax(np.abs(e0))])))
    e1 = np.real(e1 * np.exp(-1j * np.angle(e1[np.argmax(np.abs(e1))])))
    e0 /= np.linalg.norm(e0)
    e1 /= np.linalg.norm(e1)
    u = grid.x - spec.center
    pos = np.array(
        [
            [np.sum(u * e0 * e0), np.sum(u * e0 * e1)],
            [np.sum(u * e1 * e0), np.sum(u * e1 * e1)],
        ]
    )
    _, rot = np.linalg.eigh(pos)  # columns ordered by position expectation
    left = e0 * rot[0, 0] + e1 * rot[1, 0]
    right = e0 * rot[0, 1] + e1 * rot[1, 1]
    i_left = int(np.argmin(np.abs(grid.x - (spec.center - spec.well_separation / 2))))
    i_right = int(np.argmin(np.abs(grid.x - (spec.center + spec.well_separation / 2))))
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


@dataclass
class BlochSamples:
    """Qubit amplitudes along a trajectory; phase is NaN where undefined."""

    times: np.ndarray
    alpha_abs: np.ndarray
    beta_abs: np.ndarray
    relative_phase: np.ndarray
    leakage: np.ndarray


PHASE_DEFINED_TOL = 1e-6


def bloch_trajectory(
    traj: Trajectory, phi_left: WaveFunction, phi_right: WaveFunction
) -> BlochSamples:
    """Project every sample onto the qubit basis.

    The relative phase arg(β/α) is flagged NaN whenever either modulus drops
    below PHASE_DEFINED_TOL.
    """
    count = len(traj.states)
    a = np.empty(count)
    b = np.empty(count)
    ph = np.empty(count)
    lk = np.empty(count)
    for i, state in enumerate(traj.states):
        alpha, beta, leak = qubit_projection(state, phi_left, phi_right)
        a[i], b[i], lk[i] = abs(alpha), abs(beta), leak
        ph[i] = np.angle(beta / alpha) if min(abs(alpha), abs(beta)) > PHASE_DEFINED_TOL else np.nan
    return BlochSamples(traj.times.copy(), a, b, ph, lk)


_WF_VERSION = 1


def wavefunction_to_json(wf: WaveFunction) -> str:
    """Full-ψ snapshot: grid extent plus row of (re, im) samples."""
    pairs = [[float(z.real), float(z.imag)] for z in wf.psi]
    return json.dumps({
        "version": _WF_VERSION,
        "x_min": wf.grid.x_min,
        "x_max": wf.grid.x_max,
        "m": wf.grid.m,
        "psi": pairs,
    })


def wavefunction_from_json(text: str) -> WaveFunction:
    doc = json.loads(text)
    grid = SpatialGrid(doc["x_min"], doc["x_max"], doc["m"])
    psi = np.array([complex(re, im) for re, im in doc["psi"]])
    return WaveFunction(grid, psi)


def trajectory_to_text(
    traj: Trajectory, phi_left: WaveFunction, phi_right: WaveFunction
) -> str:
    """Delimited rows: t, |α|², |β|², relative phase, leakage, norm²."""
    samples = bloch_trajectory(traj, phi_left, phi_right)
    norms = traj.norms()
    lines = ["# t  pL  pR  phase  leakage  norm2"]
    for i in range(len(samples.times)):
        lines.append(
            f"{samples.times[i]:.10e} {samples.alpha_abs[i] ** 2:.10e} "
            f"{samples.beta_abs[i] ** 2:.10e} {samples.relative_phase[i]:.10e} "
            f"{samples.leakage[i]:.10e} {norms[i]:.10e}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class CalibrationResult:
    hold_duration: float
    achieved_transfer: float
    leakage: float
    target: float
    period_estimate: float
    scan: list[tuple[float, float]]


def doublet_splitting(grid: SpatialGrid, spec: DoubleWellSpec, barrier: float) -> float:
    """Energy gap of the two lowest eigenstates at a fixed barrier height."""
    v = build_double_well(grid, spec, barrier)
    vals = np.linalg.eigvalsh(dense_hamiltonian(grid, v))
    return float(vals[1] - vals[0])


def calibrate_hold_time(
    grid: SpatialGrid,
    spec: DoubleWellSpec,
    timeline_template: BarrierTimeline,
    target_transfer: float,
    params: ChebyshevParams | None = None,
    scan_points: int = 24,
    tolerance: float = 0.005,
    dt: float = 0.01,
) -> CalibrationResult:
    """Find the smallest hold duration whose transfer matches the target.

    Starting from the left-well state, the template's ramps are fixed and the
    hold duration is scanned over slightly more than one tunneling oscillation
    (period estimated from the low-barrier doublet splitting). Monotone
    crossings of the target are bisected; where the target can only be met at
    an oscillation extremum (targets near 0 or 1) the extremum is located by
    golden-section refinement. Raises CalibrationUnreachableError when no hold
    in the scanned oscillation comes within `tolerance` of the target.
    """
    if not 0.0 <= target_transfer <= 1.0:
        raise ValueError(f"target transfer must lie in [0, 1], got {target_transfer}")
    if params is None:
        e_min, e_max = timeline_energy_bounds(grid, spec, timeline_template)
        params = ChebyshevParams(dt=dt, e_min=e_min, e_max=e_max)
    phi_left, phi_right = well_ground_states(grid, spec, timeline_template.high_barrier)
    splitting = doublet_splitting(grid, spec, timeline_template.low_barrier)
    period = 2 * np.pi / splitting

    def transfer_at(hold: float) -> tuple[float, float]:
        timeline = replace(timeline_template, hold_duration=hold)
        traj = evolve_timeline(phi_left, grid, spec, timeline, params, sample_stride=10**9)
        _, beta, leak = qubit_projection(traj.final(), phi_left, phi_right)
        return abs(beta) ** 2, leak

    holds = np.linspace(0.0, 1.05 * period, scan_points)
    values: list[tuple[float, float, float]] = []
    scan: list[tuple[float, float]] = []

    def result(hold: float, tr: float, leak: float) -> CalibrationResult:
        return CalibrationResult(hold, tr, leak, target_transfer, period, scan)

    def bisect(lo: float, hi: float, t_lo: float):
        for _ in range(60):
            mid = (lo + hi) / 2
            tm, lm = transfer_at(mid)
            if abs(tm - target_transfer) <= tolerance / 2:
                return mid, tm, lm
            if (t_lo - target_transfer) * (tm - target_transfer) <= 0:
                hi = mid
            else:
                lo, t_lo = mid, tm
        mid = (lo + hi) / 2
        tm, lm = transfer_at(mid)
        return mid, tm, lm

    # Scan lazily in order of increasing hold so the first match is the
    # smallest duration; stop as soon as an interval yields the target.
    for h in holds:
        tr, leak = transfer_at(h)
        values.append((float(h), tr, leak))
        scan.append((float(h), tr))
        if len(values) >= 2:
            h0, t0, l0 = values[-2]
            h1, t1, _ = values[-1]
            if abs(t0 - target_transfer) <= tolerance:
                return result(h0, t0, l0)
            if (t0 - target_transfer) * (t1 - target_transfer) <= 0:
                return result(*bisect(h0, h1, t0))
        if len(values) >= 3 and _is_extremum_bracket(values, len(values) - 2, target_transfer):
            hold, tr_x, leak_x = _refine_extremum(
                transfer_at, values[-3][0], values[-1][0],
                maximize=target_transfer > values[-2][1],
            )
            if abs(tr_x - target_transfer) <= tolerance:
                return result(hold, tr_x, leak_x)
    h_last, t_last, l_last = values[-1]
    if abs(t_last - target_transfer) <= tolerance:
        return result(h_last, t_last, l_last)

    best = max(v[1] for v in values)
    raise CalibrationUnreachableError(
        f"transfer never came within {tolerance} of {target_transfer} over one "
        f"oscillation (max achieved {best:.4f})",
        max_achieved=best,
    )


def _is_extremum_bracket(values, i: int, target: float) -> bool:
    t_prev, t_here, t_next = values[i - 1][1], values[i][1], values[i + 1][1]
    if target > t_here:
        return t_here >= t_prev and t_here >= t_next
    return t_here <= t_prev and t_here <= t_next


def _refine_extremum(transfer_at, lo: float, hi: float, maximize: bool):
    """Golden-section search for the transfer extremum inside [lo, hi].

    A tenth of the initial bracket suffices: near a quadratic extremum the
    remaining transfer offset is far below the calibration tolerance.
    """
    inv_phi = (np.sqrt(5) - 1) / 2
    sign = 1.0 if maximize else -1.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, lc = transfer_at(c)
    fd, ld = transfer_at(d)
    for _ in range(24):
        if (b - a) < 0.1 * (hi - lo):
            break
        if sign * fc > sign * fd:
            b, d, fd, ld = d, c, fc, lc
            c = b - inv_phi * (b - a)
            fc, lc = transfer_at(c)
        else:
            a, c, fc, lc = c, d, fd, ld
            d = a + inv_phi * (b - a)
            fd, ld = transfer_at(d)
    if sign * fc > sign * fd:
        return c, fc, lc
    return d, fd, ld
