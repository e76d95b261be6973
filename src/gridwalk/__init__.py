"""Coined quantum walks on graphs via a 2D grid representation.

The package covers the full pipeline from an abstract walk to its physical
register-level realization: graph construction and coin-isolation masks,
grid-state evolution, synthesis of coin unitaries into staged disjoint
pairwise rotations, the five-step data/register conveyor protocol, and a
Chebyshev-expansion Schrödinger solver that calibrates the barrier-controlled
rotations the protocol is built from.
"""

__version__ = "0.1.0"
