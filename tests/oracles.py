"""Independent reference implementations used as test oracles.

Everything here is deliberately written against the underlying math with
plain numpy, not against the package's code paths: dense block matrices
instead of per-line loops, a two-component line walk instead of the grid
machinery, an explicitly constructed DFT matrix instead of FFT calls.
"""

import re

import numpy as np
from scipy.linalg import block_diag

# The first line, after the node count, of a document that is no plain edge
# list: one that is not blank or "j k" in ASCII digits of at most 18. A search
# from the end of the header, line by line, as the parser admitted bodies
# before it matched the whole body at once.
NOT_PLAIN_LINE = re.compile(r"(?m)^(?![ \t]*(?:[0-9]{1,18}[ \t]+[0-9]{1,18})?[ \t]*$)")


def two_state_line_walk(n: int, start: int, steps: int) -> np.ndarray:
    """Node distribution of the standard balanced Hadamard walk on a ring.

    Components a_minus[j] / a_plus[j] hold the amplitude at site j with the
    coin pointing to the left/right neighbour. Start is 1-based; the initial
    coin is (|left| + i|right|)/sqrt(2). One step applies the Hadamard to
    (minus, plus) at every site, then moves each component to the neighbour
    it points away from, flipping its label to point back.
    """
    a_minus = np.zeros(n, dtype=complex)
    a_plus = np.zeros(n, dtype=complex)
    a_minus[start - 1] = 1 / np.sqrt(2)
    a_plus[start - 1] = 1j / np.sqrt(2)
    for _ in range(steps):
        t_minus = (a_minus + a_plus) / np.sqrt(2)
        t_plus = (a_minus - a_plus) / np.sqrt(2)
        a_minus = np.roll(t_plus, 1)
        a_plus = np.roll(t_minus, -1)
    return np.abs(a_minus) ** 2 + np.abs(a_plus) ** 2


def mask_coin(sub_coin, row_mask) -> np.ndarray:
    """Embed a sub-coin on the masked-in coin states; masked-out states are fixed.

    ``sub_coin`` must have dimension equal to the number of True entries of
    ``row_mask`` and is placed on those indices, leaving exact identity rows
    elsewhere so isolated amplitudes never mix. An all-False mask yields the
    identity and ``sub_coin`` may be None. Unitarity is left to the code
    under test: ``CoinSet.from_dense`` checks the sub-block it splits off.
    """
    row_mask = np.asarray(row_mask, dtype=bool)
    idx = np.flatnonzero(row_mask)
    out = np.eye(len(row_mask), dtype=complex)
    if len(idx) == 0:
        return out
    if sub_coin is None:
        raise ValueError("sub-coin required for a non-empty mask")
    sub = np.asarray(sub_coin, dtype=complex)
    if sub.shape != (len(idx), len(idx)):
        raise ValueError(
            f"sub-coin dimension {sub.shape[0]} does not match {len(idx)} masked-in states"
        )
    out[np.ix_(idx, idx)] = sub
    return out


def rows_coin_matrix(coins) -> np.ndarray:
    """Dense operator applying coin_j to row j of a row-major flattened grid."""
    return block_diag(*coins)


def apply_rows_dense(amp: np.ndarray, coins) -> np.ndarray:
    flat = rows_coin_matrix(coins) @ amp.reshape(-1)
    return flat.reshape(amp.shape)


def apply_cols_dense(amp: np.ndarray, coins) -> np.ndarray:
    flat = rows_coin_matrix(coins) @ amp.reshape(-1, order="F")
    return flat.reshape(amp.shape, order="F")


def gram_defect(u) -> float:
    """max|u†u − I| of a nonempty stack of square matrices, from the full Gram matrix of each."""
    u = np.asarray(u)
    return float(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(u.shape[-1])).max())


def stage_matrix_dense(n: int, pairs, units) -> np.ndarray:
    """Permutation-conjugated block-diagonal build of a stage matrix."""
    order = []
    for a, b in pairs:
        order.extend([a - 1, b - 1])
    perm = np.zeros((n, n))
    for row, col in enumerate(order):
        perm[row, col] = 1.0
    return perm.T @ block_diag(*units) @ perm


def dft_coin_by_entries(n: int) -> np.ndarray:
    """The coin exp(2πi·(jk mod n)/n)/√n with one exp per entry: jk · 2πi, / n, exp, / √n."""
    jk = np.outer(np.arange(n), np.arange(n))
    jk %= n
    coin = jk * (2j * np.pi)
    coin /= n
    np.exp(coin, out=coin)
    coin /= np.sqrt(n)
    return coin


def dft_matrix(m: int) -> np.ndarray:
    j = np.arange(m)
    return np.exp(-2j * np.pi * np.outer(j, j) / m)


def dense_grid_hamiltonian(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Spectral-kinetic Hamiltonian assembled from an explicit DFT matrix."""
    m = len(x)
    dx = x[1] - x[0]
    k = np.zeros(m)
    for i in range(m):
        k[i] = (i if i < m / 2 else i - m) * 2 * np.pi / (m * dx)
    f = dft_matrix(m)
    kin = (f.conj().T / m) @ np.diag(k**2 / 2) @ f
    h = kin + np.diag(v)
    return (h + h.conj().T) / 2


def dense_propagator(h: np.ndarray, t: float) -> np.ndarray:
    vals, vecs = np.linalg.eigh(h)
    return vecs @ np.diag(np.exp(-1j * vals * t)) @ vecs.conj().T


def free_gaussian(x: np.ndarray, t: float, x0: float, sigma0: float, k0: float) -> np.ndarray:
    """Closed-form free evolution of a normalized Gaussian packet (hbar = m = 1)."""
    s = 1 + 1j * t / (2 * sigma0**2)
    return (
        (2 * np.pi * sigma0**2) ** (-0.25)
        / np.sqrt(s)
        * np.exp(
            -((x - x0 - k0 * t) ** 2) / (4 * sigma0**2 * s)
            + 1j * k0 * (x - x0)
            - 1j * k0**2 * t / 2
        )
    )


def apply_groups_fancy(coins, amp: np.ndarray, orientation: int) -> np.ndarray:
    """A coin set applied to a copy of ``amp``'s rows (0) or columns (1) through 2-D fancy indices.

    The coin layer as it was before its flat indices, as the bitwise
    reference for them: on the line buffer ``lines`` (the copy, or its
    transpose), the whole-line Grover or DFT group that holds more than half
    of the lines runs its arithmetic on every line, with the lines outside
    it saved before and restored after; every other group gathers
    ``lines[lines_of_group[:, None], states]`` (whole lines by the line
    index alone), applies the same arithmetic or a matmul by its sub-coin,
    and scatters it back.
    """
    kernels = {"grover": _grover_rows, "dft": _dft_rows}
    out = np.array(amp, dtype=complex, order="C")
    lines, n = (out.T if orientation else out), coins.n
    gathered = []
    for grp in coins.groups:
        kernel, d = kernels.get(grp.kind), grp.states.shape[1]
        if kernel is not None and d == n and 2 * len(grp.lines) > n:
            outside = np.setdiff1d(np.arange(n), grp.lines)
            saved = lines[outside]
            kernel(lines)
            lines[outside] = saved
        else:
            gathered.append((grp.lines if d == n else (grp.lines[:, None], grp.states), kernel, grp.sub))
    for index, kernel, sub in gathered:
        x = lines[index]
        if kernel is None:
            x = x @ sub.T
        else:
            kernel(x)
        lines[index] = x
    return out


def _grover_rows(x: np.ndarray) -> None:
    total = x.sum(axis=1, keepdims=True)
    total *= 2 / x.shape[1]
    np.subtract(total, x, out=x)


def _dft_rows(x: np.ndarray) -> None:
    np.fft.ifft(x, axis=1, norm="ortho", out=x)
