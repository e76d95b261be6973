import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import jv

import gatecfg
import oracles
from gridwalk import tdse
from gridwalk.errors import (
    CalibrationUnreachableError,
    InvariantViolation,
    SpectralBoundsError,
    ToleranceFailure,
)
from gridwalk.tdse import (
    BarrierTimeline,
    ChebyshevParams,
    DoubleWellSpec,
    HoldScan,
    SpatialGrid,
    WaveFunction,
    apply_hamiltonian,
    bloch_trajectory,
    build_double_well,
    calibrate_hold_time,
    chebyshev_step,
    dense_hamiltonian,
    doublet_splitting,
    energy_bounds,
    evolve_timeline,
    gaussian_packet,
    normalized,
    qubit_projection,
    timeline_energy_bounds,
    timeline_steps,
    trajectory_to_text,
    well_ground_states,
)


def reflect(values: np.ndarray) -> np.ndarray:
    """Mirror a grid function about the domain center (periodic index map)."""
    out = np.empty_like(values)
    m = len(values)
    for i in range(m):
        out[i] = values[(m - i) % m]
    return out


# ---------------------------------------------------------------------------
# Potential


def test_double_well_symmetric():
    grid = gatecfg.gate_grid()
    v = build_double_well(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    assert np.max(np.abs(v - reflect(v))) < 1e-14


def test_double_well_finite():
    grid = gatecfg.gate_grid()
    v = build_double_well(grid, gatecfg.gate_spec(), barrier=0.0)
    assert np.all(np.isfinite(v))


def test_zero_barrier_single_minimum_region():
    grid = SpatialGrid(-8.0, 8.0, 1024)
    v = build_double_well(grid, gatecfg.gate_spec(), barrier=0.0)
    interior = (v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])
    assert interior.sum() == 1


def test_large_barrier_decouples_wells():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    splits = [doublet_splitting(grid, spec, b) for b in (4.0, 12.0, 20.0, 28.0, 48.0)]
    assert all(a > b for a, b in zip(splits, splits[1:]))
    assert splits[-1] < 1e-4


def test_tilt_breaks_symmetry():
    grid = gatecfg.gate_grid()
    v = build_double_well(grid, gatecfg.gate_spec(tilt=0.5), gatecfg.BARRIER_HIGH)
    assert np.max(np.abs(v - reflect(v))) > 0.1


# ---------------------------------------------------------------------------
# Hamiltonian application and bounds


def test_plane_wave_is_kinetic_eigenvector():
    grid = SpatialGrid(0.0, 2 * np.pi, 64)
    k = 3.0  # harmonic of the domain
    psi = np.exp(1j * k * grid.x)
    out = apply_hamiltonian(psi, np.zeros(grid.m), grid)
    assert np.max(np.abs(out - (k**2 / 2) * psi)) < 1e-10


def test_constant_potential_on_constant_function():
    grid = SpatialGrid(-4.0, 4.0, 32)
    c = 2.5
    psi = np.ones(grid.m, dtype=complex)
    out = apply_hamiltonian(psi, np.full(grid.m, c), grid)
    assert np.max(np.abs(out - c * psi)) < 1e-12


def test_harmonic_ground_state_energy():
    omega = 1.0
    grid = SpatialGrid(-10.0, 10.0, 256)
    v = 0.5 * omega**2 * grid.x**2
    psi = normalized(grid, np.exp(-grid.x**2 * omega / 2))
    h_psi = apply_hamiltonian(psi, v, grid)
    energy = float(np.real(np.vdot(psi.psi, h_psi)) * grid.dx)
    assert abs(energy - omega / 2) < 1e-6


def test_energy_bounds_free_grid():
    grid = SpatialGrid(0.0, 16.0, 16)  # dx = 1
    lo, hi = energy_bounds(grid, np.zeros(16))
    assert lo == 0.0
    assert abs(hi - np.pi**2 / 2) < 1e-12


def test_energy_bounds_constant_potential():
    grid = SpatialGrid(0.0, 16.0, 16)
    lo, hi = energy_bounds(grid, np.full(16, 3.0))
    assert lo == 3.0
    assert abs(hi - (3.0 + np.pi**2 / 2)) < 1e-12


def test_energy_bounds_bracket_spectrum(rng):
    grid = SpatialGrid(-6.0, 6.0, 64)
    v = rng.uniform(-5.0, 5.0, size=64)
    lo, hi = energy_bounds(grid, v)
    vals = np.linalg.eigvalsh(dense_hamiltonian(grid, v))
    assert vals[0] >= lo - 1e-9
    assert vals[-1] <= hi + 1e-9


def test_dense_hamiltonian_matches_fft_apply(rng):
    grid = SpatialGrid(-6.0, 6.0, 64)
    v = rng.uniform(-2.0, 2.0, size=64)
    h = dense_hamiltonian(grid, v)
    psi = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    assert np.max(np.abs(h @ psi - apply_hamiltonian(psi, v, grid))) < 1e-10


@pytest.mark.parametrize("m", [16, 17, 64, 128])
def test_dense_hamiltonian_matches_the_explicit_dft_oracle(m, rng):
    grid = SpatialGrid(-8.0, 8.0, m)
    v = rng.uniform(-5.0, 5.0, size=m)
    ref = oracles.dense_grid_hamiltonian(grid.x, v)
    # relative to the largest entry (about 100 at m = 128): the oracle's own
    # explicit-DFT products round at about 1e-14 of it
    assert np.abs(dense_hamiltonian(grid, v) - ref).max() <= 1e-12 * np.abs(ref).max()
    assert grid.kinetic is grid.kinetic and not grid.kinetic.flags.writeable


# ---------------------------------------------------------------------------
# Chebyshev propagation


def free_gaussian_setup():
    grid = SpatialGrid(-16.0, 16.0, 64)
    x0, sigma, k0 = -4.0, 1.0, 1.0
    psi0 = gaussian_packet(grid, x0, sigma, k0)
    return grid, psi0, x0, sigma, k0


def test_free_gaussian_matches_analytic():
    grid, psi0, x0, sigma, k0 = free_gaussian_setup()
    v = np.zeros(grid.m)
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.1, e_min=lo, e_max=hi)
    psi = psi0.psi[np.newaxis]
    for _ in range(10):
        psi = chebyshev_step(grid, psi, v, params)
    expected = oracles.free_gaussian(grid.x, 1.0, x0, sigma, k0)
    assert np.max(np.abs(psi[0] - expected)) < 1e-8


def test_harmonic_period_returns_up_to_phase():
    omega = 1.0
    grid = SpatialGrid(-10.0, 10.0, 128)
    v = 0.5 * omega**2 * grid.x**2
    h = dense_hamiltonian(grid, v)
    _, vecs = np.linalg.eigh(h)
    psi = normalized(grid, vecs[:, 0])
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=2 * np.pi / omega / 64, e_min=lo, e_max=hi)
    out = psi.psi[np.newaxis]
    for _ in range(64):
        out = chebyshev_step(grid, out, v, params)
    fidelity = abs(np.vdot(psi.psi, out[0]) * grid.dx)
    assert fidelity > 1 - 1e-8


def double_well_64():
    grid = SpatialGrid(-8.0, 8.0, 64)
    spec = gatecfg.gate_spec()
    v = build_double_well(grid, spec, barrier=gatecfg.BARRIER_LOW)
    return grid, v


def test_chebyshev_matches_dense_propagator():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.25, e_min=lo, e_max=hi)
    h = oracles.dense_grid_hamiltonian(grid.x, v)
    rng = np.random.default_rng(7)
    raw = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    psi0 = normalized(grid, raw)
    psi = psi0.psi[np.newaxis]
    steps = 40  # t = 10
    for _ in range(steps):
        psi = chebyshev_step(grid, psi, v, params)
    expected = oracles.dense_propagator(h, steps * params.dt) @ psi0.psi
    assert np.max(np.abs(psi[0] - expected)) < 1e-8


def test_norm_drift_over_many_steps():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.05, e_min=lo, e_max=hi)
    psi = normalized(grid, np.exp(-((grid.x + 0.85) ** 2))).psi[np.newaxis]
    for _ in range(200):
        psi = chebyshev_step(grid, psi, v, params)
    assert abs(np.sum(np.abs(psi) ** 2) * grid.dx - 1) < 1e-10


def test_energy_conserved_static_potential():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.1, e_min=lo, e_max=hi)
    psi = normalized(grid, np.exp(-((grid.x + 0.85) ** 2))).psi[np.newaxis]
    e0 = float(np.real(np.vdot(psi, apply_hamiltonian(psi, v, grid))) * grid.dx)
    for _ in range(100):
        psi = chebyshev_step(grid, psi, v, params)
    e1 = float(np.real(np.vdot(psi, apply_hamiltonian(psi, v, grid))) * grid.dx)
    assert abs(e1 - e0) / abs(e0) < 1e-8


def test_time_reversal():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    forward = ChebyshevParams(dt=0.2, e_min=lo, e_max=hi)
    backward = replace(forward, dt=-0.2)
    psi0 = normalized(grid, np.exp(-((grid.x + 0.85) ** 2) + 0.3j * grid.x))
    psi = chebyshev_step(grid, chebyshev_step(grid, psi0.psi[np.newaxis], v, forward), v, backward)
    assert np.max(np.abs(psi[0] - psi0.psi)) < 1e-9


def test_bad_bounds_detected():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.5, e_min=lo, e_max=lo + (hi - lo) / 20)
    # sharp: high kinetic content
    psi = normalized(grid, np.exp(-((grid.x) ** 2) / 0.02)).psi[np.newaxis]
    with pytest.raises(SpectralBoundsError):
        for _ in range(4):
            psi = chebyshev_step(grid, psi, v, params)


@pytest.mark.parametrize("gamma, error", [(-1e-6, ToleranceFailure), (1e-6, SpectralBoundsError)])
def test_norm_change_in_one_step_raises(gamma, error):
    # a uniform imaginary potential iγ scales the norm by exp(2γ·dt) per step
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.2, e_min=lo, e_max=hi)
    psi = normalized(grid, np.exp(-((grid.x + 0.85) ** 2))).psi[np.newaxis]
    with pytest.raises(error) as caught:
        chebyshev_step(grid, psi, v + 1j * gamma, params)
    assert ("fell" if gamma < 0 else "grew") in str(caught.value)


def fft_reference_step(grid: SpatialGrid, psi: np.ndarray, v: np.ndarray, params: ChebyshevParams) -> np.ndarray:
    """The Chebyshev step term by term on apply_hamiltonian's FFTs, with its own Bessel terms."""
    alpha = params.alpha
    de, shift = params.e_max - params.e_min, params.e_max + params.e_min
    first = int(abs(alpha)) + 1
    bessel = jv(np.arange(first + 200), alpha)
    n_max = first + int(np.flatnonzero(np.abs(bessel[first:]) < tdse.TAIL_TOLERANCE)[0])

    def h_tilde(arr):
        return (2 * apply_hamiltonian(arr, v, grid) - shift * arr) / de

    prev, cur = psi, -1j * h_tilde(psi)
    acc = bessel[0] * prev + 2 * bessel[1] * cur
    for n in range(2, n_max + 1):
        prev, cur = cur, -2j * h_tilde(cur) + prev
        acc = acc + 2 * bessel[n] * cur
    return np.exp(-1j * shift * params.dt / 2) * acc


# grid sizes on both sides of DENSE_MAX_M = 384, even and odd
STEP_SIZES = [16, 17, 64, 127, 128, 256, 383, 384, 385, 400]


def step_length(m: int, dt: float) -> float:
    # α grows as m²: above m = 256 shrink dt so α stays within what m = 256 reaches,
    # where TAIL_TOLERANCE still truncates inside α + 60 terms
    return dt * min(1.0, (256 / m) ** 2)


def random_states(grid: SpatialGrid, rng: np.random.Generator, k: int) -> np.ndarray:
    return np.array([normalized(grid, rng.standard_normal(grid.m) + 1j * rng.standard_normal(grid.m)).psi
                     for _ in range(k)])


@settings(max_examples=40)
@given(m=st.sampled_from(STEP_SIZES), seed=st.integers(0, 2**32 - 1), dt=st.floats(0.005, 0.3),
       backward=st.booleans())
def test_chebyshev_step_matches_the_fft_reference_step(m, seed, dt, backward):
    assert (m <= tdse.DENSE_MAX_M) == (m <= 384)
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(-8.0, 8.0, m)
    v = rng.uniform(-10.0, 10.0, size=m)
    e_min, e_max = energy_bounds(grid, v)
    dt = step_length(m, dt)
    params = ChebyshevParams(dt=-dt if backward else dt, e_min=e_min, e_max=e_max)
    psi = WaveFunction(grid, random_states(grid, rng, 1)[0])
    expected = fft_reference_step(grid, psi.psi, v, params)
    assert np.abs(chebyshev_step(grid, psi.psi[np.newaxis], v, params)[0] - expected).max() <= 1e-12


@settings(max_examples=30)
@given(m=st.sampled_from(STEP_SIZES), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       dt=st.floats(0.005, 0.3), backward=st.booleans())
def test_a_block_step_matches_single_steps(m, k, seed, dt, backward):
    rng = np.random.default_rng(seed)
    grid = SpatialGrid(-8.0, 8.0, m)
    v = rng.uniform(-10.0, 10.0, size=m)
    e_min, e_max = energy_bounds(grid, v)
    dt = step_length(m, dt)
    params = ChebyshevParams(dt=-dt if backward else dt, e_min=e_min, e_max=e_max)
    rows = random_states(grid, rng, k)
    block = chebyshev_step(grid, rows, v, params)
    singles = np.array([chebyshev_step(grid, row[np.newaxis], v, params)[0] for row in rows])
    assert block.shape == (k, m)
    assert np.abs(block - singles).max() <= 1e-13


@settings(max_examples=20)
@given(m=st.sampled_from([64, 384, 400]), k=st.integers(1, 3), gamma=st.floats(1e-6, 1e-4),
       gain=st.booleans(), backward=st.booleans())
def test_a_complex_potential_raises_on_either_path(m, k, gamma, gain, backward):
    # as in test_norm_change_in_one_step_raises: a uniform imaginary potential iγ
    # scales every row's norm by exp(2γ·dt)
    grid = SpatialGrid(-8.0, 8.0, m)
    v = build_double_well(grid, gatecfg.gate_spec(), barrier=gatecfg.BARRIER_LOW)
    e_min, e_max = energy_bounds(grid, v)
    dt = step_length(m, -0.2 if backward else 0.2)
    gamma = gamma if gain else -gamma
    params = ChebyshevParams(dt=dt, e_min=e_min, e_max=e_max)
    rows = np.array([normalized(grid, np.exp(-((grid.x + 0.85 - 0.3 * i) ** 2))).psi for i in range(k)])
    change = math.expm1(2 * gamma * dt)
    with pytest.raises(ToleranceFailure) as caught:
        chebyshev_step(grid, rows, v + 1j * gamma, params)
    message = str(caught.value)
    if change > 0:
        assert type(caught.value) is SpectralBoundsError
        found = re.fullmatch(r"norm grew by (\S+) in one step; spectral bounds "
                             rf"\({re.escape(str(e_min))}, {re.escape(str(e_max))}\) "
                             r"do not bracket the Hamiltonian", message)
    else:
        assert type(caught.value) is ToleranceFailure
        found = re.fullmatch(r"norm fell by (\S+) in one step", message)
    assert found and float(found[1]) == pytest.approx(abs(change), rel=1e-3)


def test_block_norm_checks_are_per_row():
    # an imaginary potential that gains on the right and loses on the left: each
    # row's norm moves by about 3e-5 while the block's total barely does
    grid, v = double_well_64()
    e_min, e_max = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.2, e_min=e_min, e_max=e_max)
    bump = {c: np.exp(-((grid.x - c) ** 2) / 0.5) for c in (-3.0, 3.0)}
    v = v + 1e-4j * (bump[3.0] - bump[-3.0])
    left, right = (normalized(grid, np.exp(-((grid.x - c) ** 2))).psi for c in (-3.0, 3.0))
    for rows, error in [([left], ToleranceFailure), ([right], SpectralBoundsError),
                        ([left, right], SpectralBoundsError), ([right, left], SpectralBoundsError)]:
        with pytest.raises(ToleranceFailure) as caught:
            chebyshev_step(grid, np.array(rows), v, params)
        assert type(caught.value) is error


@pytest.mark.parametrize("m", [64, 400])
def test_step_memory_does_not_grow_with_the_truncation_order(m):
    # α = 200 runs to 259 terms, near the longest step the α + 60 guard admits; the
    # step's peak allocation stays the ring of CHEBYSHEV_RING terms (plus 2H̃ when dense)
    grid = SpatialGrid(-8.0, 8.0, m)
    v = np.zeros(m)
    e_min, e_max = energy_bounds(grid, v)
    rows = np.array([normalized(grid, np.exp(-((grid.x - c) ** 2))).psi for c in (-1.0, 1.0)])
    grid.kinetic
    peaks, orders = [], []
    for alpha in (20, 200):
        dt = 2 * alpha / (e_max - e_min)
        params = ChebyshevParams(dt=dt, e_min=e_min, e_max=e_max)
        orders.append(len(tdse.chebyshev_coefficients(params.alpha)))
        tracemalloc.start()
        chebyshev_step(grid, rows, v, params)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert orders == [50, 259]
    assert peaks[1] <= peaks[0] + rows.nbytes
    matrix = 8 * m * m if m <= tdse.DENSE_MAX_M else 0
    assert peaks[1] <= matrix + (tdse.CHEBYSHEV_RING + 10) * rows.nbytes


def test_chebyshev_step_rejects_a_block_of_another_grid():
    grid, v = double_well_64()
    e_min, e_max = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.1, e_min=e_min, e_max=e_max)
    for shape in [(64,), (2, 32), (1, 2, 64)]:
        with pytest.raises(ValueError):
            chebyshev_step(grid, np.zeros(shape, dtype=complex), v, params)


def test_zero_dt_is_identity():
    grid, v = double_well_64()
    lo, hi = energy_bounds(grid, v)
    params = ChebyshevParams(dt=0.0, e_min=lo, e_max=hi)
    psi = normalized(grid, np.exp(-(grid.x**2))).psi[np.newaxis]
    assert chebyshev_step(grid, psi, v, params) is psi


# α on a 2/3 grid over [−200, 200], the step lengths of the shipped and benchmark grids, and
# small values on both sides of the power series' 1e-9 cut
BESSEL_ALPHAS = [*np.linspace(-200.0, 200.0, 601), 1.82, 6.35, 0.3, -0.3, 1e-5, 2e-9, 1e-9, 5e-10, -1e-12, 0.0]


def test_bessel_recurrence_matches_scipy_and_truncates_where_it_does():
    for alpha in BESSEL_ALPHAS:
        first, limit = int(abs(alpha)) + 1, int(abs(alpha)) + 200
        ours, theirs = tdse._bessel_j(alpha, limit), jv(np.arange(limit + 1), alpha)
        assert ours.shape == theirs.shape
        assert np.abs(ours - theirs)[: int(abs(alpha)) + 61].max() <= 1e-14, alpha
        below = [np.flatnonzero(np.abs(j[first:]) < tdse.TAIL_TOLERANCE)[0] for j in (ours, theirs)]
        assert below[0] == below[1], alpha


def test_chebyshev_weights_are_the_bessel_series():
    for alpha in (1.82, 6.35, -6.35, 40.0):
        weights = tdse.chebyshev_coefficients(alpha)
        bessel = jv(np.arange(len(weights)), alpha)
        expected = 2 * bessel * (-1j) ** np.arange(len(weights))
        expected[0] = bessel[0]
        assert np.abs(weights - expected).max() <= 2e-14
        assert abs(jv(len(weights) - 1, alpha)) < 1e-14 <= np.abs(bessel[int(abs(alpha)) + 1 : -1]).min()


@pytest.mark.parametrize("alpha, shown", [(1000.0, "1e+03"), (-1000.0, "-1e+03")])
def test_chebyshev_truncation_failures_keep_their_messages(alpha, shown):
    # no |J_n(±1e5)| up to 1e5 + 200 falls below 1e-14; at α = ±1000 the first one below
    # is J_1097, beyond |α| + 60
    with pytest.raises(ToleranceFailure) as caught:
        tdse.chebyshev_coefficients(100 * alpha)
    far = shown.replace("e+03", "e+05")
    assert str(caught.value) == f"Chebyshev tail |J_n({far})| did not reach 1.0e-14 within 100200 terms"
    with pytest.raises(ToleranceFailure) as caught:
        tdse.chebyshev_coefficients(alpha)
    assert str(caught.value) == "truncation order 1097 exceeds α + 60 = 1060.0; reduce dt"


# ---------------------------------------------------------------------------
# Timeline propagation


def test_zero_duration_timeline():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.0, 0.0, 0.0, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_LOW)
    phi_left, _ = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01)
    assert len(traj.states) == 1
    assert traj.grid == phi_left.grid and traj.states[-1].tobytes() == phi_left.psi.tobytes()


def test_high_barrier_hold_keeps_packet_left():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.0, 20.0, 0.0, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_HIGH)
    phi_left, phi_right = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01, sample_stride=10**9)
    _, beta, _ = qubit_projection(traj.states[-1], phi_left, phi_right)
    assert abs(beta) ** 2 < 1e-3


def test_dt_must_resolve_ramps():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = gatecfg.gate_timeline(hold=1.0)
    phi_left, _ = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    with pytest.raises(ValueError):
        evolve_timeline(phi_left, spec, timeline, 1.0)


def test_timeline_norm_conserved():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = gatecfg.gate_timeline(hold=5.0)
    phi_left, _ = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01, sample_stride=25)
    assert np.max(np.abs(traj.norms() - 1)) < 1e-10


def test_ramp_discretization_converges_quadratically():
    """Halving dt divides the midpoint-sampling error by about four; at the
    finest dt the ramp error is at the 1e-8 level."""
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.5, 0.0, 0.0, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_LOW)
    phi_left, _ = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)

    def final_at(dt):
        traj = evolve_timeline(phi_left, spec, timeline, dt, sample_stride=10**9)
        return traj.states[-1]

    dts = [1e-3, 5e-4, 2.5e-4, 1.25e-4, 6.25e-5]
    finals = [final_at(dt) for dt in dts]
    errors = [float(np.max(np.abs(f - finals[-1]))) for f in finals[:-1]]
    # successive halvings shrink the error by ~4 (second order in dt)
    assert errors[0] / errors[1] > 3.0
    assert errors[1] / errors[2] > 3.0
    assert errors[-1] < 1e-8


def test_barrier_timeline_continuous():
    tl = gatecfg.gate_timeline(hold=3.0)
    ts = np.linspace(0, tl.total_duration, 5000)
    bs = np.array([tl.barrier_at(t) for t in ts])
    assert np.max(np.abs(np.diff(bs))) < 0.1
    assert bs[0] == tl.high_barrier
    assert abs(bs[-1] - tl.high_barrier) < 1e-9


# ---------------------------------------------------------------------------
# Qubit basis and projection


def test_well_states_orthonormal():
    grid = gatecfg.gate_grid()
    phi_left, phi_right = well_ground_states(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    assert abs(phi_left.norm_squared() - 1) < 1e-12
    assert abs(phi_right.norm_squared() - 1) < 1e-12
    overlap = abs(np.vdot(phi_left.psi, phi_right.psi) * grid.dx)
    assert overlap < 1e-6


def test_well_states_mirror_each_other():
    grid = gatecfg.gate_grid()
    phi_left, phi_right = well_ground_states(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    assert np.max(np.abs(reflect(phi_left.psi) - phi_right.psi)) < 1e-8


def test_well_states_localized_on_their_side():
    grid = gatecfg.gate_grid()
    phi_left, phi_right = well_ground_states(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    assert grid.x[np.argmax(np.abs(phi_left.psi))] < 0
    assert grid.x[np.argmax(np.abs(phi_right.psi))] > 0
    assert phi_left.psi[np.argmax(np.abs(phi_left.psi))].real > 0


def test_projection_of_basis_states():
    grid = gatecfg.gate_grid()
    phi_left, phi_right = well_ground_states(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    alpha, beta, leak = qubit_projection(phi_left, phi_left, phi_right)
    assert abs(alpha - 1) < 1e-10
    assert abs(beta) < 1e-10
    assert abs(leak) < 1e-10


def test_projection_of_equal_superposition():
    grid = gatecfg.gate_grid()
    phi_left, phi_right = well_ground_states(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    psi = normalized(grid, (phi_left.psi + 1j * phi_right.psi) / np.sqrt(2))
    alpha, beta, _ = qubit_projection(psi, phi_left, phi_right)
    assert abs(abs(alpha) ** 2 - 0.5) < 1e-10
    assert abs(abs(beta) ** 2 - 0.5) < 1e-10
    assert abs(np.angle(beta / alpha) - np.pi / 2) < 1e-10


# ---------------------------------------------------------------------------
# Bloch trajectories and calibration


def test_bloch_trajectory_stationary():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.0, 2.0, 0.0, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_HIGH)
    phi_left, phi_right = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01, sample_stride=40)
    samples = bloch_trajectory(traj, phi_left, phi_right)
    assert np.all(samples.alpha_abs > 0.999)
    assert np.all(samples.beta_abs < 1e-2)
    # at t=0 the right amplitude is exactly zero, so the phase is undefined
    assert np.isnan(samples.relative_phase[0])
    assert np.max(np.abs(samples.alpha_abs**2 + samples.beta_abs**2 + samples.leakage - 1)) < 1e-10


def test_transfer_ascends_during_half_period_hold():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    period = 2 * np.pi / doublet_splitting(grid, spec, gatecfg.BARRIER_LOW)
    timeline = gatecfg.gate_timeline(hold=0.42 * period)
    phi_left, phi_right = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01, sample_stride=50)
    samples = bloch_trajectory(traj, phi_left, phi_right)
    hold = (traj.times > timeline.ramp_down_duration) & (
        traj.times < timeline.ramp_down_duration + timeline.hold_duration
    )
    # projecting onto the rest (high-barrier) basis adds a small fast ripple
    # at the intra-well frequency; the trend over coarser spacing is monotone
    p_right = samples.beta_abs[hold] ** 2
    assert np.all(np.diff(p_right) > -0.02)
    assert np.all(np.diff(p_right[::4]) > -2e-3)
    assert samples.beta_abs[-1] ** 2 > 0.9


def test_trajectory_export_columns():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.0, 1.0, 0.0, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_HIGH)
    phi_left, phi_right = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, timeline, 0.01, sample_stride=20)
    text = trajectory_to_text(traj, phi_left, phi_right)
    rows = [line.split() for line in text.strip().splitlines() if not line.startswith("#")]
    assert all(len(row) == 6 for row in rows)
    assert float(rows[0][1]) > 0.999


def test_calibrate_half_transfer():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline()
    result = calibrate_hold_time(grid, spec, template, 0.5, 0.01)
    assert abs(result.achieved_transfer - 0.5) <= 0.01
    assert result.leakage <= 0.01
    assert result.hold_duration < result.pulse.period / 2


def test_calibrate_unreachable_with_tilt():
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec(tilt=0.5)
    template = gatecfg.gate_timeline()
    with pytest.raises(CalibrationUnreachableError) as err:
        calibrate_hold_time(grid, spec, template, 1.0, 0.01)
    assert err.value.max_achieved < 0.5


def test_wavefunction_norm_enforced():
    grid = gatecfg.gate_grid()
    with pytest.raises(InvariantViolation):
        WaveFunction(grid, np.ones(grid.m, dtype=complex))


def test_wavefunction_snapshot_round_trip():
    from gridwalk.tdse import wavefunction_from_json, wavefunction_to_json

    grid = gatecfg.gate_grid(m=64)
    wf = gaussian_packet(grid, -1.0, 0.7, 0.5)
    back = wavefunction_from_json(wavefunction_to_json(wf))
    assert back.grid.m == grid.m
    assert np.array_equal(back.psi, wf.psi)


def test_spec_validation():
    with pytest.raises(ValueError):
        build_double_well(gatecfg.gate_grid(), gatecfg.gate_spec(), -1.0)
    # keyword only: in the old field order the fifth value, a barrier height, would be read as the tilt
    with pytest.raises(TypeError):
        DoubleWellSpec(20.0, 0.9, 1.7, 0.6, 28.0)
    with pytest.raises(ValueError):
        ChebyshevParams(dt=0.1, e_min=1.0, e_max=0.0)


@pytest.mark.parametrize("bad", [-1.0, 0.0, math.nan])
@pytest.mark.parametrize("name", ["well_depth", "well_width", "well_separation", "barrier_width"])
def test_a_spec_length_or_depth_that_is_not_positive_is_rejected(name, bad):
    with pytest.raises(ValueError, match=f"{name} must be positive, got {bad!r}"):
        replace(gatecfg.gate_spec(), **{name: bad})


@pytest.mark.parametrize("bad", [-1.0, math.nan])
@pytest.mark.parametrize("name", ["ramp_down_duration", "hold_duration", "ramp_up_duration",
                                  "high_barrier", "low_barrier"])
def test_a_timeline_value_below_zero_or_nan_is_rejected(name, bad):
    with pytest.raises(ValueError, match="must be ≥ 0"):
        replace(gatecfg.gate_timeline(), **{name: bad})


def test_spatial_grid_compares_and_hashes_by_its_parameters():
    a, b = SpatialGrid(-8.0, 8.0, 128), SpatialGrid(-8.0, 8.0, 128)
    assert a == b and a is not b and hash(a) == hash(b)
    assert a != SpatialGrid(-8.0, 8.0, 64)


def test_wavefunction_rejects_nan_amplitudes():
    grid = gatecfg.gate_grid(m=64)
    with pytest.raises(InvariantViolation):
        WaveFunction(grid, np.full(grid.m, np.nan, dtype=complex))


# ---------------------------------------------------------------------------
# Step propagator


def hold_run(m: int, barrier: float, dt: float, run: int):
    """Grid, well, a pulse that only holds `barrier` for about `run` steps of dt, its params and steps."""
    grid = SpatialGrid(-8.0, 8.0, m)
    spec = gatecfg.gate_spec()
    timeline = BarrierTimeline(0.0, run * dt, 0.0, gatecfg.BARRIER_HIGH, barrier)
    params = ChebyshevParams(dt, *timeline_energy_bounds(grid, spec, timeline))
    (_, hold), = [segment for segment in timeline_steps(timeline, dt) if segment[1]]
    return grid, spec, timeline, params, hold


@settings(max_examples=30, deadline=None)
@given(m=st.integers(16, 128), barrier=st.floats(gatecfg.BARRIER_LOW, gatecfg.BARRIER_HIGH),
       dt=st.sampled_from([0.01, 0.1]), run=st.integers(1, 200), k=st.integers(1, 3),
       stride=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
@example(m=64, barrier=gatecfg.BARRIER_LOW, dt=0.1, run=40, k=1, stride=7, seed=0)  # through P
@example(m=128, barrier=gatecfg.BARRIER_LOW, dt=0.1, run=40, k=1, stride=7, seed=0)  # step by step
@example(m=16, barrier=20.0, dt=0.01, run=1, k=2, stride=1, seed=1)  # a lone step, as on a ramp
def test_a_hold_through_the_step_propagator_matches_single_steps(m, barrier, dt, run, k, stride, seed):
    # whether or not the count rule picks P, every sampled block stays within 1e-12 per
    # step of chebyshev_step taken step by step
    grid, spec, timeline, params, hold = hold_run(m, barrier, dt, run)
    assert {b for b, _ in hold} == {barrier}
    rows = random_states(grid, np.random.default_rng(seed), k)
    v = build_double_well(grid, spec, barrier)
    expected, singles = rows, []
    for _, step in hold:
        expected = chebyshev_step(grid, expected, v, replace(params, dt=step))
        singles.append(expected)
    final, samples = tdse._propagate(grid, spec, rows, hold, params, stride)
    sampled = range(stride, len(hold) + 1, stride)
    assert len(samples) == len(sampled)
    for n, block in zip(sampled, samples):
        assert np.abs(block - singles[n - 1]).max() <= 1e-12 * n
    assert np.abs(final - singles[-1]).max() <= 1e-12 * len(hold)

    traj = evolve_timeline(WaveFunction(grid, rows[0]), spec, timeline, dt, sample_stride=stride)
    for n, state in zip(sampled, traj.states[1:]):
        assert np.abs(state - singles[n - 1][0]).max() <= 1e-12 * n
    assert np.abs(traj.states[-1] - singles[-1][0]).max() <= 1e-12 * len(hold)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(16, 128), dt=st.sampled_from([0.01, 0.1]), entry=st.integers(0, 128**2 - 1),
       size=st.floats(1e-4, 0.1), angle=st.floats(0.0, 2 * math.pi))
def test_a_perturbed_step_propagator_is_refused(m, dt, entry, size, angle):
    # one entry of P off by size·e^{iθ}: the unitarity check refuses P before any product
    run = m  # long enough for the count rule at every m
    grid, spec, _, params, hold = hold_run(m, gatecfg.BARRIER_LOW, dt, run)
    assert tdse._holds_by_propagator(m, len(hold), 1)
    i, j = divmod(entry % (m * m), m)
    chebyshev_step = tdse.chebyshev_step

    def perturbed(grid, rows, v, params):
        out = chebyshev_step(grid, rows, v, params)
        if len(rows) == grid.m:
            out = out.copy()
            out[i, j] += size * complex(math.cos(angle), math.sin(angle))
        return out

    rows = normalized(grid, np.exp(-((grid.x + 0.85) ** 2))).psi[np.newaxis]
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tdse, "chebyshev_step", perturbed)
        with pytest.raises(ToleranceFailure, match="step propagator is off unitary"):
            tdse._propagate(grid, spec, rows, hold, params)


def test_each_evolve_timeline_call_builds_its_own_step_propagator(monkeypatch):
    # P is the step of the m×m identity; a second identical call builds it again
    grid, spec, timeline, params, hold = hold_run(64, gatecfg.BARRIER_LOW, 0.1, 50)
    builds = []
    chebyshev_step = tdse.chebyshev_step

    def counted(grid, rows, v, params):
        if len(rows) == grid.m:
            builds.append(params.dt)
        return chebyshev_step(grid, rows, v, params)

    monkeypatch.setattr(tdse, "chebyshev_step", counted)
    psi0 = normalized(grid, np.exp(-((grid.x + 0.85) ** 2)))
    first, second = (evolve_timeline(psi0, spec, timeline, params.dt, sample_stride=10) for _ in range(2))
    assert builds == [hold[0][1]] * 2
    assert first == second


def test_chebyshev_step_rejects_a_nan_state():
    grid = gatecfg.gate_grid(m=64)
    psi = np.full((1, grid.m), np.nan, dtype=complex)
    v = build_double_well(grid, gatecfg.gate_spec(), gatecfg.BARRIER_HIGH)
    e_min, e_max = energy_bounds(grid, v)
    with pytest.raises(ToleranceFailure):
        chebyshev_step(grid, psi, v, ChebyshevParams(dt=0.1, e_min=e_min, e_max=e_max))


def test_wavefunction_compares_and_hashes_by_value():
    grid = gatecfg.gate_grid(m=64)
    a = gaussian_packet(grid, 0.0, 1.0)
    b = gaussian_packet(gatecfg.gate_grid(m=64), 0.0, 1.0)
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != gaussian_packet(grid, 0.1, 1.0)
    assert a != gaussian_packet(gatecfg.gate_grid(m=128), 0.0, 1.0)
    assert a != a.psi
    # equal numbers with other bytes: −0.0 and +0.0 differ, as their hashes do
    psi = a.psi.copy()
    psi[0] = 0.0
    pos = normalized(grid, psi)
    psi = pos.psi.copy()
    psi[0] = -0.0
    assert np.array_equal(psi, pos.psi) and WaveFunction(grid, psi) != pos


# ---------------------------------------------------------------------------
# Separable calibration


def test_timeline_steps_cover_each_segment():
    timeline = gatecfg.gate_timeline(hold=1.05)
    (t_down, down), (t_hold, hold), (t_up, up) = timeline_steps(timeline, 0.1)
    assert (t_down, t_hold, t_up) == (0.0, 4.0, 5.05)
    assert [len(down), len(hold), len(up)] == [40, 11, 40]
    assert sum(dt for _, dt in down + hold + up) == pytest.approx(timeline.total_duration)
    assert {b for b, _ in hold} == {gatecfg.BARRIER_LOW}
    assert timeline_steps(gatecfg.gate_timeline(), 0.1)[1] == (4.0, [])


@settings(max_examples=200)
@given(down=st.floats(0.0, 50.0), up=st.floats(0.0, 50.0), dt=st.floats(0.005, 5.0))
@example(down=1.6, up=0.0, dt=0.1)
@example(down=16 * 0.3, up=16 * 0.3 - 1e-15, dt=0.3)
def test_every_ramp_that_resolves_gets_min_ramp_steps(down, up, dt):
    timeline = BarrierTimeline(down, 1.0, up, gatecfg.BARRIER_HIGH, gatecfg.BARRIER_LOW)
    try:
        segments = timeline_steps(timeline, dt)
    except ValueError:
        assert any(0 < dur < tdse.MIN_RAMP_STEPS * dt for dur in (down, up))
        return
    for (_, steps), duration in zip(segments, (down, 1.0, up)):
        assert sum(step for _, step in steps) == pytest.approx(duration, rel=1e-9, abs=0.0)
    for (_, steps), duration in [(segments[0], down), (segments[2], up)]:
        assert len(steps) >= tdse.MIN_RAMP_STEPS or duration == len(steps) == 0


def test_evolve_timeline_builds_one_potential_per_barrier(monkeypatch):
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    timeline = gatecfg.gate_timeline(hold=2.05)
    phi_left = normalized(grid, np.exp(-((grid.x + 0.85) ** 2)))
    built = []
    double_well_potential = tdse.double_well_potential

    def counted(grid, spec):
        potential = double_well_potential(grid, spec)

        def counted_potential(barrier):
            built.append(barrier)
            return potential(barrier)

        return counted_potential

    monkeypatch.setattr(tdse, "double_well_potential", counted)
    evolve_timeline(phi_left, spec, timeline, 0.1)
    (_, down), (_, hold), (_, up) = timeline_steps(timeline, 0.1)
    assert len(hold) == 21
    # the spectral bracket's two potentials, low then high, come before the loop's
    assert built[:2] == [gatecfg.BARRIER_LOW, gatecfg.BARRIER_HIGH]
    assert len(built[2:]) == len(down) + 1 + len(up)
    assert built[2:].count(gatecfg.BARRIER_LOW) == 1


def test_backward_chebyshev_step_undoes_a_forward_step():
    grid = gatecfg.gate_grid(m=64)
    v = build_double_well(grid, gatecfg.gate_spec(), 15.0)
    e_min, e_max = energy_bounds(grid, v)
    forward = ChebyshevParams(dt=0.1, e_min=e_min, e_max=e_max)
    psi0 = gaussian_packet(grid, -0.8, 0.5, 1.0)
    back = chebyshev_step(grid, chebyshev_step(grid, psi0.psi[np.newaxis], v, forward), v,
                          replace(forward, dt=-0.1))
    assert np.max(np.abs(back[0] - psi0.psi)) < 1e-12


# low barrier, tilt, grid size and step length of the time-reversal properties
REVERSAL_CASES = dict(low=st.floats(11.0, 13.0), tilt=st.floats(-0.05, 0.05), m=st.sampled_from([32, 64]),
                      dt=st.sampled_from([0.05, 0.1]))


@settings(max_examples=25)
@given(low=REVERSAL_CASES["low"], dt=REVERSAL_CASES["dt"])
def test_equal_ramps_mirror_each_other_step_for_step(low, dt):
    # the ramp up is the ramp down reversed, barrier for barrier, and still samples the
    # cosine ramp up at its own midpoints
    template = gatecfg.gate_timeline(hold=0.37, low=low)
    (_, down), _, (t_up, up) = timeline_steps(template, dt)
    assert up == down[::-1]
    for i, (barrier, dt_seg) in enumerate(up):
        assert abs(barrier - template.barrier_at(t_up + (i + 0.5) * dt_seg)) <= 1e-13


@settings(max_examples=25)
@given(**REVERSAL_CASES)
def test_the_conjugate_forward_ramp_down_is_the_backward_ramp_up(low, tilt, m, dt):
    # H(b) is real symmetric and L, R are real: U_up†·(L, R) = conj(U_down·(L, R)) when
    # the ramp up steps through the ramp down's barriers in reverse
    grid = gatecfg.gate_grid(m=m)
    spec = gatecfg.gate_spec(tilt=tilt)
    template = gatecfg.gate_timeline(low=low)
    params = ChebyshevParams(dt, *timeline_energy_bounds(grid, spec, template))
    basis = np.array([state.psi for state in well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)])
    (_, down), _, (_, up) = timeline_steps(template, dt)
    forward, _ = tdse._propagate(grid, spec, basis, down, params)
    backward, _ = tdse._propagate(grid, spec, basis, [(b, -dt_seg) for b, dt_seg in reversed(up)], params)
    assert np.abs(forward.conj() - backward).max() <= 1e-14


@settings(max_examples=25)
@given(
    low=st.floats(11.0, 13.0),
    tilt=st.floats(-0.05, 0.05),
    fraction=st.one_of(st.just(0.0), st.floats(0.0, 1.05)),
    ramp_up=st.one_of(st.just(gatecfg.RAMP), st.floats(2.0, 6.0)),
)
@example(low=12.0, tilt=0.0, fraction=0.0, ramp_up=gatecfg.RAMP)
@example(low=12.0, tilt=0.03, fraction=0.4, ramp_up=2.5)
def test_hold_scan_matches_timeline_replays(low, tilt, fraction, ramp_up):
    # equal ramps take HoldScan's one 2-row pass, unequal ones its second pass
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec(tilt=tilt)
    template = replace(gatecfg.gate_timeline(low=low), ramp_up_duration=ramp_up)
    scan = HoldScan.from_pulse(grid, spec, template, 0.1)
    hold = fraction * scan.period
    phi_left, phi_right = well_ground_states(grid, spec, gatecfg.BARRIER_HIGH)
    traj = evolve_timeline(phi_left, spec, replace(template, hold_duration=hold), 0.1, sample_stride=10**9)
    _, beta, leak = qubit_projection(traj.states[-1], phi_left, phi_right)
    assert abs(scan.transfer(hold) - abs(beta) ** 2) <= 1e-9
    assert abs(scan.leakage(hold) - leak) <= 1e-9


@pytest.mark.parametrize("ramp_up", [gatecfg.RAMP, 2.5])
def test_a_replay_from_the_scans_ramp_down_matches_a_full_replay(ramp_up):
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = replace(gatecfg.gate_timeline(), ramp_up_duration=ramp_up)
    scan = HoldScan.from_pulse(grid, spec, template, 0.1)
    phi_left = scan.basis[0]
    pulse = replace(template, hold_duration=0.3 * scan.period)
    full = evolve_timeline(phi_left, spec, pulse, 0.1, sample_stride=7)
    reused = evolve_timeline(phi_left, spec, pulse, 0.1, sample_stride=7, ramp_down=scan.ramp_down)
    assert np.array_equal(reused.times, full.times)
    assert np.abs(reused.states - full.states).max() <= 1e-12
    # the ramp down of another timeline, or from another state, is refused
    for psi0, other in [(phi_left, replace(pulse, ramp_down_duration=3.0)), (scan.basis[1], pulse)]:
        with pytest.raises(ValueError, match="ramp down"):
            evolve_timeline(psi0, spec, other, 0.1, ramp_down=scan.ramp_down)


def test_transfer_derivatives_match_finite_differences():
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline()
    scan = HoldScan.from_pulse(grid, spec, template, 0.1)
    step = 1e-4
    for hold in np.linspace(0.0, scan.period, 7):
        value, slope, curvature = scan.transfer_derivatives(hold)
        below, above = scan.transfer(hold - step), scan.transfer(hold + step)
        assert value == pytest.approx(scan.transfer(hold), abs=1e-14)
        assert slope == pytest.approx((above - below) / (2 * step), abs=1e-8)
        assert curvature == pytest.approx((above - 2 * value + below) / step**2, abs=1e-5)


def test_hold_scan_period_is_the_low_barrier_doublet_period():
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline()
    scan = HoldScan.from_pulse(grid, spec, template, 0.1)
    splitting = doublet_splitting(grid, spec, gatecfg.BARRIER_LOW)
    assert scan.period == pytest.approx(2 * np.pi / splitting, rel=1e-10)


def test_calibration_makes_no_timeline_replay(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("calibrate_hold_time replayed the timeline")

    monkeypatch.setattr(tdse, "evolve_timeline", forbidden)
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline()
    for target in (1.0, 0.5):
        calibrate_hold_time(grid, spec, template, target, dt=0.1)


@pytest.mark.parametrize("low", [11.25, 12.0, 12.8])
def test_calibrate_half_lands_on_one_half(low):
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline(low=low)
    result = calibrate_hold_time(grid, spec, template, 0.5, dt=0.1)
    assert abs(result.achieved_transfer - 0.5) <= 1e-6
    assert result.hold_duration < result.pulse.period / 2


@pytest.mark.parametrize("low", [11.25, 12.0, 12.8])
def test_calibrate_pi_tops_its_scan_bracket(low):
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline(low=low)
    result = calibrate_hold_time(grid, spec, template, 1.0, dt=0.1)
    holds, values = np.array(result.scan).T
    # the first maximum of the scan and its neighbours bracket the result
    i = next(i for i in range(1, len(values) - 1) if values[i - 1] <= values[i] >= values[i + 1])
    assert holds[i - 1] <= result.hold_duration <= holds[i + 1]
    assert result.achieved_transfer >= values[i - 1:i + 2].max()
    assert result.achieved_transfer >= 0.99


def scipy_calibrated_hold(pulse: HoldScan, target: float) -> float:
    """The hold the search found with scipy: brentq on the first crossing interval of the
    scan, else a bounded minimize_scalar of |T − target| around each scan extremum."""
    from scipy.optimize import brentq, minimize_scalar

    holds = np.linspace(0.0, 1.05 * pulse.period, tdse.SCAN_POINTS)
    gap = pulse.transfer(holds) - target
    crossings = np.flatnonzero(gap[:-1] * gap[1:] <= 0)
    if crossings.size:
        i = crossings[0]
        return brentq(lambda h: float(pulse.transfer(h)) - target, holds[i], holds[i + 1])
    gap = np.abs(gap)
    padded = np.concatenate(([np.inf], gap, [np.inf]))
    for i in np.flatnonzero((gap <= padded[:-2]) & (gap <= padded[2:])):
        lo, hi = holds[max(i - 1, 0)], holds[min(i + 1, tdse.SCAN_POINTS - 1)]
        polish = minimize_scalar(lambda h: abs(float(pulse.transfer(h)) - target), bounds=(lo, hi),
                                 method="bounded")
        hold = polish.x if polish.fun < gap[i] else holds[i]
        if abs(float(pulse.transfer(hold)) - target) <= tdse.CALIBRATION_TOL:
            return hold
    raise AssertionError("scipy found no hold")


def shipped_gate(name: str):
    """Grid, well, timeline, step size and target of a shipped calibrate config."""
    from gridwalk.cli import _tdse_setup

    doc = json.loads((Path(__file__).resolve().parents[1] / "configs" / f"{name}.json").read_text())
    return (*_tdse_setup(doc, "target_transfer"), doc["target_transfer"])


def m64_gate(low: float, target: float):
    grid, spec, template = gatecfg.gate_grid(m=64), gatecfg.gate_spec(), gatecfg.gate_timeline(low=low)
    return grid, spec, template, 0.1, target


HALF_GATES = [("calibrate_half", lambda: shipped_gate("calibrate_half"))] + [
    (f"m64-low{low}", lambda low=low: m64_gate(low, 0.5)) for low in (11.25, 12.0, 12.8)]
PI_GATES = [("calibrate_pi", lambda: shipped_gate("calibrate_pi"))] + [
    (f"m64-low{low}", lambda low=low: m64_gate(low, 1.0)) for low in (11.25, 12.0, 12.8)]


@pytest.mark.parametrize("gate", [make for _, make in HALF_GATES], ids=[name for name, _ in HALF_GATES])
def test_the_crossing_hold_is_brentqs(gate):
    grid, spec, template, dt, target = gate()
    result = calibrate_hold_time(grid, spec, template, target, dt)
    expected = scipy_calibrated_hold(HoldScan.from_pulse(grid, spec, template, dt), target)
    assert abs(result.hold_duration - expected) <= 1e-10


@pytest.mark.parametrize("gate", [make for _, make in PI_GATES], ids=[name for name, _ in PI_GATES])
def test_the_polished_pi_transfer_is_no_lower_than_minimize_scalars(gate):
    grid, spec, template, dt, target = gate()
    result = calibrate_hold_time(grid, spec, template, target, dt)
    pulse = HoldScan.from_pulse(grid, spec, template, dt)
    expected = scipy_calibrated_hold(pulse, target)
    # minimize_scalar stops within its xatol of 1e-5; Newton on dT/dh lands on the maximum. T is
    # flat there, so a hold 1e-7 off it can read a few ulps higher from the rounding of T's sum
    assert abs(result.hold_duration - expected) <= 1e-5
    assert result.achieved_transfer >= float(pulse.transfer(expected)) - 4 * np.spacing(1.0)
    assert abs(pulse.transfer_derivatives(result.hold_duration)[1]) <= 1e-12


def test_a_polish_that_crosses_the_target_takes_the_root_before_the_peak():
    # a target between the scan's best transfer and the true maximum: no scan interval
    # crosses it, but the polished extremum does, so the hold is the crossing before it
    grid, spec, template, dt, _ = m64_gate(12.0, 1.0)
    peak = calibrate_hold_time(grid, spec, template, 1.0, dt)
    scanned = max(t for _, t in peak.scan)
    target = (scanned + peak.achieved_transfer) / 2
    assert scanned < target < peak.achieved_transfer
    result = calibrate_hold_time(grid, spec, template, target, dt)
    assert abs(result.achieved_transfer - target) <= 1e-12
    assert result.hold_duration < peak.hold_duration
    assert peak.hold_duration - result.hold_duration < peak.pulse.period / 23

