"""Small numeric helpers used by several modules."""

import numpy as np
from scipy.stats import unitary_group

from .errors import UnitarityError


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of u†u − I."""
    n = u.shape[0]
    return float(np.max(np.abs(u.conj().T @ u - np.eye(n))))


def check_unitary(u: np.ndarray, tol: float, what: str = "matrix") -> None:
    defect = unitarity_defect(u)
    if not defect < tol:
        raise UnitarityError(f"{what} is not unitary: max|u†u − I| = {defect:.3e} ≥ {tol:.1e}")


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n×n unitary."""
    return unitary_group.rvs(n, random_state=rng)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


def frozen(a: np.ndarray) -> np.ndarray:
    """Copy an array and mark it read-only; values stay shareable across threads."""
    out = np.array(a)
    out.setflags(write=False)
    return out
