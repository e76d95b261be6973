"""Acceptance suite: one criterion per test, one pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Every tolerance and runtime bound is asserted, not just reported.
"""

import time

import numpy as np

import gatecfg
import oracles
from gridwalk.conveyor import (
    COLUMN,
    ROW,
    run_stage,
    run_walk_physical,
)
from gridwalk.decompose import Stage, apply_stage, cs_decompose, reconstruct, stage_sites
from gridwalk.graph import cycle_graph
from gridwalk.tdse import (
    ChebyshevParams,
    build_double_well,
    calibrate_hold_time,
    chebyshev_step,
    energy_bounds,
    gaussian_packet,
    normalized,
)
from gridwalk.util import random_unitary
from gridwalk.walk import CoinPlan, WalkState, evolve, reference_evolve, walk_node_distribution


def report(num: int, name: str, ok: bool, detail: str, elapsed: float, limit: float):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[ACCEPTANCE] criterion {num} ({name}): {status} - {detail} "
          f"(runtime {elapsed:.2f}s < {limit:.0f}s)")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < limit, f"criterion {num} exceeded runtime bound: {elapsed:.2f}s"


def random_state(n, rng):
    amp = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return WalkState(n, amp / np.linalg.norm(amp))


def test_criterion_1_grid_evolution_oracle_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    steps = 20
    worst = 0.0
    for n in (2, 4, 8):
        coin_sets = []
        for _ in range(steps):
            coin = random_unitary(n, rng)  # one uniform coin per step, all nodes
            coin_sets.append([coin] * n)
        plan = CoinPlan.from_step_coins(coin_sets)
        s0 = random_state(n, rng)
        a = evolve(s0, plan)
        b = reference_evolve(s0, plan)
        worst = max(worst, float(np.max(np.abs(a.amp - b.amp))))
    elapsed = time.perf_counter() - start
    report(1, "grid-evolution oracle equivalence", worst <= 1e-10,
           f"max deviation {worst:.2e} ≤ 1e-10 on K_2, K_4, K_8 over 20 steps", elapsed, 5.0)


def test_criterion_2_hadamard_line_walk_ballistic():
    start = time.perf_counter()
    n, start_node = 64, 33
    g = cycle_graph(n)
    amp = np.zeros((n, n), dtype=complex)
    amp[start_node - 1, start_node - 2] = 1 / np.sqrt(2)
    amp[start_node - 1, start_node] = 1j / np.sqrt(2)
    s0 = WalkState(n, amp)

    step_range = range(10, 31)
    sigmas = []
    final_dist = None
    for steps in step_range:
        plan = CoinPlan.from_graph(g, steps, kind="hadamard")
        _, dist = walk_node_distribution(s0, plan)
        sigmas.append(dist.std())
        if steps == 30:
            final_dist = dist

    ns = np.array(step_range, dtype=float)
    sg = np.array(sigmas)
    design = np.vstack([ns, np.ones_like(ns)]).T
    coef, *_ = np.linalg.lstsq(design, sg, rcond=None)
    residuals = sg - design @ coef
    r_squared = 1 - float(np.sum(residuals**2) / np.sum((sg - sg.mean()) ** 2))

    oracle_dist = oracles.two_state_line_walk(n, start_node, 30)
    oracle_dev = float(np.max(np.abs(final_dist.p - oracle_dist)))

    classical_sigma = np.sqrt(30)
    elapsed = time.perf_counter() - start
    ok = r_squared > 0.999 and oracle_dev <= 1e-10
    report(2, "Hadamard line walk spreads ballistically", ok,
           f"sigma fit R²={r_squared:.6f} > 0.999, slope {coef[0]:.3f}·n "
           f"(classical sqrt(30)={classical_sigma:.2f} vs quantum {sg[-1]:.2f}), "
           f"final-distribution oracle deviation {oracle_dev:.2e} ≤ 1e-10", elapsed, 10.0)


def test_criterion_3_decomposition_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(103)
    worst = 0.0
    for n in (4, 8, 16):
        valid_pairs = {}
        d = 2
        while d <= n:
            valid_pairs[d] = stage_sites(n, d).tobytes()
            d *= 2
        for _ in range(100):
            u = random_unitary(n, rng)
            seq = cs_decompose(u)
            assert len(seq.stages) == n - 1
            for stage in seq.stages:
                assert stage_sites(stage.n, stage.d).tobytes() == valid_pairs[stage.d]
            worst = max(worst, float(np.max(np.abs(reconstruct(seq) - u))))
    elapsed = time.perf_counter() - start
    report(3, "staged decomposition round-trip", worst <= 1e-10,
           f"300 Haar unitaries (n=4,8,16): max reconstruction error {worst:.2e} ≤ 1e-10, "
           f"n−1 stages with the stride pair pattern", elapsed, 30.0)


def test_criterion_4_conveyor_equivalence():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    worst_dev = 0.0
    worst_register = 0.0
    for n in (4, 8, 16):
        strides = [d for d in (2, 4, 8, 16) if d <= n]
        for _ in range(200):
            d = int(rng.choice(strides))
            stage = Stage(d, np.stack([random_unitary(2, rng) for _ in range(n // 2)]))
            s = random_state(n, rng)
            orientation = ROW if rng.integers(2) else COLUMN
            line = int(rng.integers(1, n + 1))
            logical = s.amp[line - 1] if orientation == ROW else s.amp[:, line - 1]
            cells = np.zeros(2 * n, dtype=complex)
            cells[0::2] = logical
            run_stage(cells, stage, line)
            worst_register = max(worst_register, float(np.max(np.abs(cells[1::2]))))
            worst_dev = max(worst_dev, float(np.max(np.abs(cells[0::2] - apply_stage(logical, stage)))))
    elapsed = time.perf_counter() - start
    ok = worst_dev <= 1e-12 and worst_register < 1e-12
    report(4, "five-step conveyor equals logical stage", ok,
           f"600 random stages: max physical−logical deviation {worst_dev:.2e} ≤ 1e-12, "
           f"max residual register amplitude {worst_register:.2e} < 1e-12", elapsed, 30.0)


def test_criterion_5_chebyshev_propagator_correctness():
    start = time.perf_counter()
    grid = gatecfg.gate_grid(m=64)
    spec = gatecfg.gate_spec()
    v = build_double_well(grid, spec, barrier=gatecfg.BARRIER_LOW)
    lo, hi = energy_bounds(grid, v)

    # dense-eigensolve propagator over t = 10
    params = ChebyshevParams(dt=0.25, e_min=lo, e_max=hi)
    h = oracles.dense_grid_hamiltonian(grid.x, v)
    rng = np.random.default_rng(105)
    psi0 = normalized(grid, rng.standard_normal(64) + 1j * rng.standard_normal(64))
    psi = psi0.psi[np.newaxis]
    for _ in range(40):
        psi = chebyshev_step(grid, psi, v, params)
    dense_dev = float(np.max(np.abs(psi[0] - oracles.dense_propagator(h, 10.0) @ psi0.psi)))

    # norm drift over 1000 steps
    params_drift = ChebyshevParams(dt=0.05, e_min=lo, e_max=hi)
    psi = normalized(grid, np.exp(-((grid.x + 0.85) ** 2))).psi[np.newaxis]
    for _ in range(1000):
        psi = chebyshev_step(grid, psi, v, params_drift)
    drift = abs(np.sum(np.abs(psi) ** 2) * grid.dx - 1)

    # analytic free Gaussian
    free_grid = gatecfg.gate_grid(m=64)
    free_grid = type(free_grid)(-16.0, 16.0, 64)
    x0, sigma, k0 = -4.0, 1.0, 1.0
    psi_free = gaussian_packet(free_grid, x0, sigma, k0).psi[np.newaxis]
    v0 = np.zeros(free_grid.m)
    lo0, hi0 = energy_bounds(free_grid, v0)
    params_free = ChebyshevParams(dt=0.1, e_min=lo0, e_max=hi0)
    for _ in range(10):
        psi_free = chebyshev_step(free_grid, psi_free, v0, params_free)
    free_dev = float(np.max(np.abs(psi_free[0] - oracles.free_gaussian(free_grid.x, 1.0, x0, sigma, k0))))

    elapsed = time.perf_counter() - start
    ok = dense_dev <= 1e-8 and drift <= 1e-10 and free_dev <= 1e-8
    report(5, "Chebyshev propagator correctness", ok,
           f"vs dense propagator over t=10: {dense_dev:.2e} ≤ 1e-8, norm drift over 1000 "
           f"steps: {drift:.2e} ≤ 1e-10, free-Gaussian analytic: {free_dev:.2e} ≤ 1e-8",
           elapsed, 60.0)


def test_criterion_6_gate_calibration_targets():
    start = time.perf_counter()
    grid = gatecfg.gate_grid()
    spec = gatecfg.gate_spec()
    template = gatecfg.gate_timeline()

    pi_result = calibrate_hold_time(grid, spec, template, 1.0, 0.01)
    half_result = calibrate_hold_time(grid, spec, template, 0.5, 0.01)

    elapsed = time.perf_counter() - start
    ok = (
        pi_result.achieved_transfer >= 0.99
        and pi_result.leakage <= 0.01
        and abs(half_result.achieved_transfer - 0.5) <= 0.01
        and half_result.leakage <= 0.01
    )
    report(6, "calibrated pi and pi/2 rotations", ok,
           f"pi: transfer {pi_result.achieved_transfer:.4f} ≥ 0.99 "
           f"(hold {pi_result.hold_duration:.2f}, leakage {pi_result.leakage:.1e} ≤ 0.01); "
           f"pi/2: transfer {half_result.achieved_transfer:.4f} = 0.50±0.01 "
           f"(leakage {half_result.leakage:.1e} ≤ 0.01)", elapsed, 120.0)


def test_criterion_7_physical_walk_end_to_end():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    n, steps = 8, 10
    plan = CoinPlan.from_step_coins(
        [[random_unitary(n, rng) for _ in range(n)] for _ in range(steps)]
    )
    s0 = random_state(n, rng)
    physical = run_walk_physical(s0, plan)
    logical = evolve(s0, plan)
    deviation = float(np.max(np.abs(physical.amp - logical.amp)))
    elapsed = time.perf_counter() - start
    report(7, "conveyor walk equals grid walk end-to-end", deviation <= 1e-10,
           f"K_8, 10 steps, random per-node coins: max deviation {deviation:.2e} ≤ 1e-10",
           elapsed, 60.0)
