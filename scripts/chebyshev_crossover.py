#!/usr/bin/env python3
"""Time the two ways a Chebyshev step applies H̃, and the step propagator, across grid sizes.

For each m the shipped double well (low barrier 12) on [-8, 8) is set up at
the given dt, and each way of applying H is timed on its own:

* dense: one product of the real m×m matrix `dense_hamiltonian(grid, v)`
  with the (m, 2) float view of a complex state, plus the build of that
  matrix, which a step pays once;
* fft: one `apply_hamiltonian` call, two FFTs of the complex state.

Prints m, the Chebyshev terms per step (`chebyshev_coefficients`), the median
time of one build and of one application of each way, and the cost per step
of each way, build + terms × application, so the grid size where the two
cross can be read off. The per-term work both ways share (the recursion's
subtraction and the weighted sum) is left out.

For grids up to `DENSE_MAX_M` it then times what a run of equal steps costs
either way: one `chebyshev_step` of one state (row step), the build of the
step propagator P (`chebyshev_step` of the m×m identity, with its unitarity
check), and one step through P (the product and the norm check). The run
length from which P is cheaper for one state is build / (row step − P step),
printed next to the shortest run of one state that `_propagate` steps
through P. On larger grids these columns read n/a. Run with one BLAS
thread, as the benchmark does:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/chebyshev_crossover.py
"""

import argparse
import itertools
import math
import statistics
import time

import numpy as np

from gridwalk import tdse
from gridwalk.errors import ToleranceFailure
from gridwalk.tdse import ChebyshevParams, DoubleWellSpec, SpatialGrid, build_double_well


def median_seconds(call, repeats: int, inner: int = 50) -> float:
    """Median seconds per call over `repeats` rounds of `inner` calls."""
    rounds = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(inner):
            call()
        rounds.append((time.perf_counter() - start) / inner)
    return statistics.median(rounds)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 192, 256, 320, 384, 448, 512])
    parser.add_argument("--dt", type=float, default=0.01)
    parser.add_argument("--repeats", type=int, default=15)
    args = parser.parse_args()

    spec = DoubleWellSpec(well_depth=20.0, well_width=0.9, well_separation=1.7, barrier_width=0.6)
    print(f"{'m':>5} {'terms':>6} {'build µs':>9} {'dense µs':>9} {'fft µs':>9} "
          f"{'dense/step µs':>14} {'fft/step µs':>12} {'row step µs':>12} {'P build µs':>11} "
          f"{'P step µs':>10} {'P pays from':>12} {'rule from':>10}")
    for m in args.sizes:
        grid = SpatialGrid(-8.0, 8.0, m)
        v = build_double_well(grid, spec, 12.0)
        e_min, e_max = tdse.energy_bounds(grid, v)
        params = ChebyshevParams(dt=args.dt, e_min=e_min, e_max=e_max)
        try:
            terms = len(tdse.chebyshev_coefficients(params.alpha))
        except ToleranceFailure as err:
            print(f"{m:>5} skipped: {err}")
            continue
        psi = tdse.gaussian_packet(grid, -0.85, 0.5).psi
        column = np.ascontiguousarray(psi[:, np.newaxis]).view(float)
        grid.kinetic  # built once per grid, outside the timings
        h = tdse.dense_hamiltonian(grid, v)
        build = median_seconds(lambda: tdse.dense_hamiltonian(grid, v), args.repeats)
        dense = median_seconds(lambda: h @ column, args.repeats)
        fft = median_seconds(lambda: tdse.apply_hamiltonian(psi, v, grid), args.repeats)
        row = f"{m:>5} {terms:>6} {build * 1e6:>9.1f} {dense * 1e6:>9.1f} {fft * 1e6:>9.1f} " \
              f"{(build + terms * dense) * 1e6:>14.1f} {terms * fft * 1e6:>12.1f}"
        if m > tdse.DENSE_MAX_M:
            print(f"{row} {'n/a':>12} {'n/a':>11} {'n/a':>10} {'n/a':>12} {'n/a':>10}")
            continue
        rows = psi[np.newaxis]
        propagator = tdse._step_propagator(grid, v, params)
        row_step = median_seconds(lambda: tdse.chebyshev_step(grid, rows, v, params), args.repeats, inner=10)
        p_build = median_seconds(lambda: tdse._step_propagator(grid, v, params), args.repeats, inner=1)
        p_step = median_seconds(lambda: tdse._norm_checked(rows, rows @ propagator, params), args.repeats)
        pays = math.ceil(p_build / (row_step - p_step)) if row_step > p_step else "never"
        rule = next(run for run in itertools.count(1) if tdse._holds_by_propagator(m, run, 1))
        print(f"{row} {row_step * 1e6:>12.1f} {p_build * 1e6:>11.1f} {p_step * 1e6:>10.1f} {pays:>12} {rule:>10}")


if __name__ == "__main__":
    main()
