"""Small numeric helpers used by several modules."""

import dataclasses
import itertools
import math

import numpy as np

from .errors import InvariantViolation, UnitarityError


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of u†u − I; for a stack of matrices, the worst over the stack, 0.0 when it is empty.

    A NaN or ±inf entry gives a NaN or inf defect, which no tolerance accepts.
    """
    if u.size == 0:
        return 0.0
    if u.shape[-2:] == (2, 2):
        # u = [[a, b], [c, d]] has three distinct Gram entries: the column norms
        # |a|² + |c|², |b|² + |d|² and the overlap ā·b + c̄·d (the fourth is its
        # conjugate). Every entry enters a column norm as its squared modulus,
        # so a NaN or inf anywhere reaches the max, which np.max propagates.
        a, b, c, d = u.reshape(-1, 4).T
        norm_a = a.real * a.real + a.imag * a.imag + (c.real * c.real + c.imag * c.imag) - 1
        norm_b = b.real * b.real + b.imag * b.imag + (d.real * d.real + d.imag * d.imag) - 1
        overlap = a.conj() * b + c.conj() * d
        return float(np.max(np.stack([np.abs(norm_a), np.abs(norm_b), np.abs(overlap)])))
    gram = u.conj().swapaxes(-1, -2) @ u
    return float(np.abs(gram - np.eye(u.shape[-1])).max())


def check_unitary(u: np.ndarray, tol: float, what: str = "matrix") -> None:
    check_defect(unitarity_defect(u), tol, what)


def check_defect(defect: float, tol: float, what: str) -> None:
    """Raise UnitarityError unless a defect max|u†u − I| is below tol; a NaN defect fails."""
    if not defect < tol:
        raise UnitarityError(f"{what} is not unitary: max|u†u − I| = {defect:.3e} ≥ {tol:.1e}")


def check_norm(amp: np.ndarray, tol: float, what: str) -> None:
    """Raise InvariantViolation unless Σ|amp|² is within tol of 1; a NaN entry fails too."""
    r = np.ravel(amp, order="K")  # a view for C- or F-ordered buffers
    norm = float(np.vdot(r, r).real)
    if not abs(norm - 1.0) <= tol:
        raise InvariantViolation(f"{what} norm² = {norm!r} deviates from 1 beyond {tol}")


def random_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed n×n unitary: ``scipy.stats.unitary_group.rvs``'s draw, to the bit.

    QR of a Ginibre matrix, with the phase fix of Mezzadri, Notices AMS 54, 592 (2007).
    """
    z = 1 / math.sqrt(2) * (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    q, r = np.linalg.qr(z)
    d = r.diagonal()
    q *= d / abs(d)
    return q


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def next_power_of_two(n: int) -> int:
    p = 1
    while p < n:
        p *= 2
    return p


class ByValue:
    """Equality and hash of the value types: one class and equal fields, arrays by shape, dtype and bytes.

    So −0.0 ≠ +0.0 and a NaN equals the same NaN. Subclasses are declared
    ``@dataclass(frozen=True, eq=False)``, which keeps these two methods.
    """

    def _key(self) -> tuple:
        values = (getattr(self, f.name) for f in dataclasses.fields(self))
        return tuple((v.shape, v.dtype, v.tobytes()) if isinstance(v, np.ndarray) else v for v in values)

    def __eq__(self, other):
        return type(other) is type(self) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


def frozen(a: np.ndarray) -> np.ndarray:
    """Copy an array and mark it read-only; values stay shareable across threads."""
    out = np.array(a)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# JSON documents


def complex_to_json(a: np.ndarray) -> list[list[float]]:
    """The entries of a complex array in C order as [re, im] pairs of floats."""
    flat = np.asarray(a, dtype=complex).reshape(-1)
    return np.stack((flat.real, flat.imag), axis=-1).tolist()


def complex_from_json(pairs, shape: tuple[int, ...], what: str = "array") -> np.ndarray:
    """Inverse of complex_to_json: a complex array of the given shape, exact to the bit."""
    size = math.prod(shape)
    try:
        parts = np.array(pairs, dtype=float)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{what} must be a list of [re, im] number pairs") from e
    if parts.shape != (size, 2) and not (size == 0 and parts.size == 0):
        raise ValueError(f"expected {size} [re, im] pairs for {what}, got shape {parts.shape}")
    # JSON true and false load as bools, which numpy takes for 1.0 and 0.0
    if bool in set(map(type, itertools.chain.from_iterable(pairs))):
        raise ValueError(f"{what} must hold numbers, not booleans")
    return parts.reshape(size, 2).view(complex).reshape(shape)


def check_version(doc: dict, expected: int, what: str) -> None:
    """Reject a document that is no JSON object or whose "version" is not this reader's int."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(doc).__name__}")
    # JSON true and 1.0 compare equal to 1 but are no version numbers
    if type(doc.get("version")) is not int or doc["version"] != expected:
        raise ValueError(f"{what} version must be {expected}, got {doc.get('version')!r}")
