"""Independent reference computations the benchmark checks the program against.

Nothing here calls into gridwalk. The walk oracle applies the coin-then-
transpose operator matrix-free, one degree group at a time: Grover sub-coins
as ``2/d·Σ − 1``, DFT sub-coins as a scaled inverse FFT, each acting on a
node's active coin states in increasing index order. An assembled sparse
operator would carry Σ deg² non-zeros, 16.7M on the dense workload, and would
set the benchmark process's peak memory, which is itself a metric. The gate
oracle rebuilds the double-well Hamiltonian from its definition with an
explicit DFT matrix.
"""

from __future__ import annotations

import numpy as np


def adjacency(n: int, edges) -> np.ndarray:
    """Symmetric boolean n×n matrix of an undirected edge list with 1-based nodes."""
    present = np.zeros((n, n), dtype=bool)
    for j, k in edges:
        present[j - 1, k - 1] = present[k - 1, j - 1] = True
    return present


def apply_sub_coin(y: np.ndarray, kind: str) -> np.ndarray:
    """Apply a d×d sub-coin to every row of y (shape rows × d)."""
    d = y.shape[1]
    if kind == "grover":
        return (2.0 / d) * y.sum(axis=1, keepdims=True) - y
    if kind == "dft":
        return np.sqrt(d) * np.fft.ifft(y, axis=1)
    if kind == "hadamard" and d == 2:
        a, b = y[:, 0], y[:, 1]
        return np.stack([a + b, a - b], axis=1) / np.sqrt(2.0)
    raise ValueError(f"no {kind!r} sub-coin of dimension {d}")


def coin_then_transpose(present: np.ndarray, kind: str, amp0: np.ndarray, steps: int) -> np.ndarray:
    """State after `steps` coin-then-transpose steps; rows index nodes throughout."""
    degrees = present.sum(axis=1)
    groups = []
    for d in np.unique(degrees[degrees > 0]):
        rows = np.flatnonzero(degrees == d)
        cols = np.array([np.flatnonzero(present[r]) for r in rows])
        groups.append((rows[:, None], cols))
    x = np.array(amp0, dtype=complex)
    for _ in range(steps):
        for rows, cols in groups:
            x[rows, cols] = apply_sub_coin(x[rows, cols], kind)
        x = x.T.copy()
    return x


def ring_walk_distribution(n: int, start: int, steps: int) -> np.ndarray:
    """Node distribution of the Hadamard walk on an n-ring, in two-state form.

    a[x, 0] is the amplitude at node x+1 pointing to its left neighbour,
    a[x, 1] pointing to its right one. The coin acts in the order of the
    neighbours' node indices, which is (left, right) except at the two nodes
    where the ring wraps, 1 and n; there it acts as (right, left). The start
    is the balanced state (|lower index⟩ + i|higher index⟩)/√2. A walker
    moving to a neighbour arrives pointing back to where it came from.
    """
    h = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    coins = np.repeat(h[None], n, axis=0)
    coins[[0, n - 1]] = h[::-1, ::-1]
    a = np.zeros((n, 2), dtype=complex)
    lower, higher = (1, 0) if start in (1, n) else (0, 1)
    a[start - 1, lower] = 1 / np.sqrt(2.0)
    a[start - 1, higher] = 1j / np.sqrt(2.0)
    for _ in range(steps):
        t = np.einsum("xij,xj->xi", coins, a)
        a = np.stack([np.roll(t[:, 1], 1), np.roll(t[:, 0], -1)], axis=1)
    return np.sum(np.abs(a) ** 2, axis=1)


def double_well_potential(x: np.ndarray, well: dict, barrier: float) -> np.ndarray:
    """Two inverted Gaussian wells, a central Gaussian bump and a linear tilt."""
    u = x - well.get("center", 0.0)
    s, w = well["separation"] / 2, well["width"]
    wells = np.exp(-((u - s) ** 2) / (2 * w**2)) + np.exp(-((u + s) ** 2) / (2 * w**2))
    bump = np.exp(-(u**2) / (2 * well["barrier_width"] ** 2))
    return -well["depth"] * wells + barrier * bump + well.get("tilt", 0.0) * u


def doublet_period(grid: dict, well: dict, barrier: float) -> float:
    """2π/(E₁−E₀) of the periodic-grid Hamiltonian −½∂² + V at a barrier height."""
    m = grid["m"]
    dx = (grid["x_max"] - grid["x_min"]) / m
    x = grid["x_min"] + dx * np.arange(m)
    idx = np.arange(m)
    k = 2 * np.pi * np.where(idx < m / 2, idx, idx - m) / (m * dx)
    f = np.exp(-2j * np.pi * np.outer(idx, idx) / m)
    h = (f.conj().T / m) @ np.diag(k**2 / 2) @ f + np.diag(double_well_potential(x, well, barrier))
    e = np.linalg.eigvalsh((h + h.conj().T) / 2)
    return 2 * np.pi / (e[1] - e[0])
