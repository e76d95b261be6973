#!/usr/bin/env python3
"""Conveyor cost of one Grover walk step: closed-form synthesis against CS synthesis.

For each graph of the benchmark's ``physical`` workload at a seed (32 nodes,
degrees 2 to about n/2), synthesizes the step's Grover coins both ways,
``grover_stages`` of the active states and ``cs_decompose`` of the padded
dense coins, and prints per step the stages and the non-identity 2×2
rotations (the physical gate count). Run from the root of a checkout:

    PYTHONPATH=src python scripts/synthesis_cost.py --seed 3
"""

import argparse
import sys
import tempfile
from pathlib import Path

import numpy as np

from gridwalk.decompose import cs_decompose, grover_stages
from gridwalk.util import next_power_of_two

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def rotations(seq) -> int:
    """2×2 blocks of a sequence that are not exactly the identity."""
    return sum(int(np.any(s.u != np.eye(2), axis=(1, 2)).sum()) for s in seq.stages)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=3)
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as root:
        jobs = workloads.generate_physical(args.seed, Path(root))
    print("graph   n  edges  synthesis  stages/step  rotations/step")
    for k, job in enumerate(jobs, 1):
        coins = job.plan.coin_set(1)
        n = coins.n
        npad = next_power_of_two(n)
        stack = np.broadcast_to(np.eye(npad, dtype=complex), (npad, npad, npad)).copy()
        stack[:n, :n, :n] = coins.dense
        active = np.zeros((npad, npad), dtype=bool)
        active[:n, :n] = job.present
        edges = int(np.triu(job.present).sum())
        for name, seq in [("grover", grover_stages(active)), ("cs", cs_decompose(stack))]:
            print(f"{k:5d}  {n:2d}  {edges:5d}  {name:9s}  {len(seq.stages):11d}  {rotations(seq):14d}")


if __name__ == "__main__":
    main()
