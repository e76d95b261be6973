#!/usr/bin/env python3
"""Ballistic spreading of the Hadamard walk on a 64-node ring.

Runs the walk from a balanced localized start for 10..30 steps, writes the
position standard deviation per step count next to the classical sqrt(n)
reference, plus the final node distribution, and prints the linear fit.
"""

import argparse
from pathlib import Path

import numpy as np

from gridwalk.graph import cycle_graph
from gridwalk.walk import CoinPlan, distribution_to_text, init_balanced, walk_node_distribution


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--nodes", type=int, default=64)
    parser.add_argument("--start", type=int, default=33)
    parser.add_argument("--max-steps", type=int, default=30)
    parser.add_argument("--out", default="out/line_walk")
    args = parser.parse_args()

    n, start = args.nodes, args.start
    g = cycle_graph(n)
    s0 = init_balanced(g, start)

    steps_range = range(10, args.max_steps + 1)
    rows = []
    final = None
    for steps in steps_range:
        plan = CoinPlan.from_graph(g, steps, kind="hadamard")
        _, dist = walk_node_distribution(s0, steps, plan)
        rows.append((steps, dist.std(), np.sqrt(steps)))
        final = dist

    ns = np.array([r[0] for r in rows], dtype=float)
    sg = np.array([r[1] for r in rows])
    design = np.vstack([ns, np.ones_like(ns)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, sg, rcond=None)
    resid = sg - design @ [slope, intercept]
    r2 = 1 - float((resid**2).sum() / ((sg - sg.mean()) ** 2).sum())

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sigma_vs_steps.txt", "w") as fh:
        fh.write("# steps  sigma_quantum  sigma_classical\n")
        for steps, sq, sc in rows:
            fh.write(f"{steps} {sq:.12e} {sc:.12e}\n")
    (out / "final_distribution.txt").write_text(distribution_to_text(final))

    print(f"quantum spread: sigma = {slope:.4f}*n + {intercept:.4f}  (R² = {r2:.6f})")
    print(f"at n={args.max_steps}: quantum sigma {sg[-1]:.3f} vs classical {np.sqrt(ns[-1]):.3f}")
    print(f"wrote {out}/sigma_vs_steps.txt and {out}/final_distribution.txt")


if __name__ == "__main__":
    main()
