"""Staged pairwise-rotation synthesis of n×n coin unitaries.

An n×n unitary (n a power of two) factors into n−1 stages. Each stage is a
layer of n/2 simultaneous 2×2 rotations between index pairs

    (k·d + r,  k·d + r + d/2)   for k = 0..n/d−1, r = 1..d/2

at a stride d from {2, 4, …, n}; all indices 1-based, every index touched by
exactly one pair per stage. The construction recurses on the cosine-sine
factorization: the CS middle factor of a block is one stage at d = block
size, the block-diagonal side factors recurse, and sibling sub-stages acting
on disjoint halves merge into single full-width stages. Stages are ordered by
application: ``reconstruct`` multiplies stage matrices with later stages on
the left, so stage 1 acts on a state first.

The stride schedule is fixed by the recursion, sched(n) = sched(n/2) ++ [n]
++ sched(n/2) with sched(2) = [2]; the stride n stage is required to couple
the two halves, so the stride range deliberately includes d = n.

Grover coins need no factorization: ``grover_stages`` writes their stages in
closed form, 2·log₂n − 1 of them, on the same stride pattern and in the same
stacked layout as ``cs_decompose``, which stays the general path.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import UnitarityError
from .util import (
    ByValue,
    check_unitary,
    check_version,
    complex_from_json,
    complex_to_json,
    frozen,
    is_power_of_two,
)

RECONSTRUCTION_TOL = 1e-10
ROTATION_TOL = 1e-12
INPUT_UNITARITY_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Stage(ByValue):
    """One layer of n/2 disjoint 2×2 rotations at a common stride d; compared by value.

    A stage is its stride and its read-only (n/2, 2, 2) blocks ``u``; the
    index pairs follow from n and d. ``u[k]`` acts on the 0-based pair
    (a, b) = ``stage_sites(n, d)[k]``: row 0 of ``u[k]`` yields the new
    amplitude at a, row 1 the one at b.

    The constructor checks the blocks at ``ROTATION_TOL`` and keeps a
    read-only copy. The stages of ``grover_stages`` and ``cs_decompose``
    are checked where they are made, once per sequence as one stack, and
    are read-only slices of that stack.
    """

    d: int
    u: np.ndarray

    def __post_init__(self):
        d = operator.index(self.d)
        u = np.asarray(self.u, dtype=complex)
        if u.ndim != 3 or u.shape[1:] != (2, 2) or len(u) == 0:
            raise ValueError(f"stage rotations must be a nonempty (n/2, 2, 2) stack, got {u.shape}")
        stage_sites(2 * len(u), d)  # rejects n and d that no stride pattern fits
        check_unitary(u, ROTATION_TOL, f"stride-{d} stage rotation")
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "u", frozen(u))

    @classmethod
    def _checked(cls, d: int, u: np.ndarray) -> Stage:
        """The stage of a read-only slice of a stack that ``_stage_sequence`` has checked: no check, no copy."""
        stage = cls.__new__(cls)
        object.__setattr__(stage, "d", d)
        object.__setattr__(stage, "u", u)
        return stage

    @property
    def n(self) -> int:
        return 2 * len(self.u)


@dataclass(frozen=True)
class StageSequence:
    """Ordered stages; a full decomposition of an n×n unitary has n−1 of them."""

    n: int
    stages: tuple[Stage, ...]

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        for s in self.stages:
            if s.n != self.n:
                raise ValueError(f"stage dimension {s.n} does not match sequence n={self.n}")


@cache
def stage_sites(n: int, d: int) -> np.ndarray:
    """Read-only (n/2, 2) array of a stride-d stage's 0-based pairs (kd+r, kd+r+d/2), r < d/2, by first index."""
    if not is_power_of_two(n):
        raise ValueError(f"dimension must be a power of two, got {n}")
    if d < 2 or d > n or n % d != 0 or not is_power_of_two(d):
        raise ValueError(f"stride must be a power-of-two divisor of {n} in [2,{n}], got {d}")
    first = (d * np.arange(n // d)[:, None] + np.arange(d // 2)).ravel()
    return frozen(np.stack([first, first + d // 2], axis=1))


def cs_decompose(u: np.ndarray) -> StageSequence:
    """Factor a power-of-two unitary into its n−1 pairwise-rotation stages.

    An (L, n, n) stack is read as the block-diagonal unitary of its L coins:
    the n−1 stages span L·n indices, and rows t·n/2 … (t+1)·n/2 − 1 of each
    stage's ``u`` are coin t's rotations, bit for bit those of
    ``cs_decompose(u[t])``. Raises ValueError when n < 2 or when n or L·n is
    not a power of two (pad u ⊕ I to the next power of two first, which
    leaves the padded indices fixed) and UnitarityError when
    ``max|u†u − I| ≥ INPUT_UNITARITY_TOL`` for any coin, or when a rotation
    of the stages, all checked at once, misses ``ROTATION_TOL``.
    """
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    if u.ndim not in (2, 3) or u.shape[-2:] != (n, n) or u.size == 0:
        raise ValueError(f"expected a square matrix or a stack of them, got {u.shape}")
    if n < 2:
        raise ValueError(f"a {n}×{n} coin has no pairs to rotate; pad it to 2×2 first")
    blocks = u.reshape(-1, n, n)
    if not (is_power_of_two(n) and is_power_of_two(len(blocks))):
        raise ValueError(f"dimensions must be powers of two, got {u.shape} (pad with the identity to a power of two first)")
    check_unitary(blocks, INPUT_UNITARITY_TOL, "decomposition input")
    strides, stages = zip(*_decompose_blocks(blocks))
    return _stage_sequence(len(blocks) * n, strides, np.stack(stages))  # leaves are complex, so is the stack


def _decompose_blocks(blocks: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(stride, (B·m/2, 2, 2) rotations) of each stage of the block-diagonal unitary of a (B, m, m) stack.

    Block t spans indices t·m+1..(t+1)·m. The rotations are unchecked:
    ``cs_decompose`` checks them all at once.
    """
    count, m, _ = blocks.shape
    if m == 2:
        return [(2, blocks)]

    h = m // 2
    # Exact identity blocks decompose into exact identity factors; they skip
    # the factorization so identity inputs stay bit-clean.
    is_eye = (blocks == np.eye(m)).all(axis=(1, 2))
    # sides[0, t] = (v1h, v2h) and sides[1, t] = (u1, u2): the right and left
    # block-diagonal factors, whose h×h halves are the next level's blocks
    sides = np.broadcast_to(np.eye(h, dtype=complex), (2, count, 2, h, h)).copy()
    theta = np.zeros((count, h))
    for t in np.flatnonzero(~is_eye):
        (u1, u2), theta[t], (v1h, v2h) = cs_factor(blocks[t])
        sides[:, t] = (v1h, v2h), (u1, u2)
    # the CS middle factor is [[C, −S], [S, C]]; rotation r of block t
    # couples its indices r and r + h
    c, s = np.cos(theta), np.sin(theta)
    middle = np.empty((count, h, 2, 2))
    middle[..., 0, 0] = middle[..., 1, 1] = c
    middle[..., 0, 1] = np.where(is_eye[:, None], 0.0, -s)
    middle[..., 1, 0] = s
    right, left = sides.reshape(2, 2 * count, h, h)
    return _decompose_blocks(right) + [(m, middle.reshape(-1, 2, 2))] + _decompose_blocks(left)


def _stage_sequence(n: int, strides, stack: np.ndarray) -> StageSequence:
    """The sequence of an (S, n/2, 2, 2) complex stack of stage rotations this module built.

    Every rotation is checked at ``ROTATION_TOL`` in one pass over the whole
    stack; a failure names the stride and the 1-based index of the first bad
    stage. The stack is then made read-only, and each stage is its slice.
    """
    try:
        check_unitary(stack, ROTATION_TOL, "stage rotation")
    except UnitarityError:
        for i, (d, u) in enumerate(zip(strides, stack)):  # name the first bad stage
            check_unitary(u, ROTATION_TOL, f"stride-{d} stage {i + 1} rotation")
        raise
    stack.setflags(write=False)
    return StageSequence(n, tuple(Stage._checked(d, u) for d, u in zip(strides, stack)))


def grover_stages(active: np.ndarray) -> StageSequence:
    """Closed-form stages of the block-diagonal Grover coins of an (L, m) active-state mask.

    Line t's coin is the Grover coin on its active states S and the identity
    elsewhere: C = D·(I − 2uu†) with u = 1_S/√|S| and D = I − 2Π_S, a
    diagonal times one Householder reflection (Ivanov, Kyoseva & Vitanov,
    PRA 74, 022323 (2006)). A Givens tree W on the stride pattern (Reck et
    al., PRL 73, 58 (1994)) gathers u onto the pair (1, m/2+1): at strides
    2 … m/2 the first pair of each block rotates by [[c, σ], [−σ, c]] with
    (c, σ) = (√a, √b)/√(a+b), a and b the active counts of its half-blocks,
    and every other pair is the identity. One stride-m stage I − 2vv† on
    that pair, v = (c, σ), is the reflection; Wᵀ at strides m/2 … 2 follows,
    with D's signs on the rows of the last stage. That makes 2·log₂m − 1
    stages of real rotations; lines with at most one active state, whose
    coin is the identity, are exact identities in every stage.

    The stages span L·m indices in ``cs_decompose``'s stacked layout: rows
    t·m/2 … (t+1)·m/2 − 1 of each stage's ``u`` are line t's. They are
    written into one preallocated complex stack, whose rotations are all
    checked at ``ROTATION_TOL`` once, and are read-only slices of it. Raises
    ValueError unless the mask is boolean with m ≥ 2 and L, m powers of two.
    """
    active = np.asarray(active)
    if active.dtype != bool or active.ndim != 2 or active.shape[0] == 0 or active.shape[1] < 2:
        raise ValueError(f"expected a nonempty (L, m) boolean mask with m ≥ 2, got {active.dtype} {active.shape}")
    lines, m = active.shape
    if not (is_power_of_two(lines) and is_power_of_two(m)):
        raise ValueError(f"dimensions must be powers of two, got {active.shape}")
    live = active.sum(axis=1) >= 2
    # one stack of all 2·log₂m − 1 stages: the tree, the reflection at index
    # ``tree``, the mirrored tree. Every rotation is real, so the blocks are
    # written through the real view u and stay exactly real.
    tree = m.bit_length() - 2
    strides = [2**e for e in range(1, tree + 1)]
    strides = strides + [m] + strides[::-1]
    stack = np.zeros((len(strides), lines * m // 2, 2, 2), dtype=complex)
    u = stack.real.reshape(len(strides), lines, m // 2, 2, 2)
    u[..., 0, 0] = u[..., 1, 1] = 1.0
    counts = active.astype(float)  # active count of every block of the stride below
    for e in range(1, tree + 1):
        a, b = np.moveaxis(counts.reshape(lines, -1, 2), -1, 0)
        counts = a + b
        on = live[:, None] & (counts > 0)
        total = np.where(on, counts, 1.0)
        c, sigma = np.where(on, np.sqrt(a / total), 1.0), np.where(on, np.sqrt(b / total), 0.0)
        # the first pair of each block of 2**e indices rotates, in the tree and in its mirror
        u[e - 1, :, ::2**(e - 1)] = _block(c, sigma, -sigma, c)
        u[-e, :, ::2**(e - 1)] = _block(c, -sigma, sigma, c)
    # I − 2vv† on (1, m/2+1) from the half counts: 1 − 2c² = (b − a)/d, 2cσ = 2√(ab)/d
    a, b = counts.T
    d = np.where(live, a + b, 1.0)
    p, q = (b - a) / d, -2 * np.sqrt(a * b) / d
    u[tree][live, 0] = _block(p, q, q, -p)[live]
    u[-1] *= np.where(live[:, None] & active, -1.0, 1.0).reshape(lines, m // 2, 2, 1)
    return _stage_sequence(lines * m, strides, stack)


def _block(w, x, y, z) -> np.ndarray:
    """The 2×2 blocks [[w, x], [y, z]], stacked over the common shape of the entries."""
    return np.stack([np.stack([w, x], -1), np.stack([y, z], -1)], -2)


@cache
def _uncsd(m: int):
    """LAPACK's complex CS decomposition routine and its workspace sizes for m×m halves."""
    from scipy.linalg import get_lapack_funcs  # scipy.linalg takes longer to import than numpy

    csd, csd_lwork = get_lapack_funcs(("uncsd", "uncsd_lwork"), dtype=complex)
    work, rwork, _ = csd_lwork(m=m, p=m // 2, q=m // 2)
    return csd, int(work.real), int(rwork)


def cs_factor(blk: np.ndarray):
    """``scipy.linalg.cossin(blk, p=m/2, q=m/2, separate=True)`` of an m×m unitary.

    Returns ((u1, u2), theta, (v1h, v2h)) with blk = diag(u1, u2) ·
    [[C, −S], [S, C]] · diag(v1h, v2h). It calls the LAPACK routine with the
    arguments cossin passes it, so the factors are the same to the bit;
    cossin's own argument handling costs several times the factorization on
    the 4×4 and 8×8 blocks that dominate the recursion.
    """
    m = blk.shape[0]
    h = m // 2
    csd, lwork, lrwork = _uncsd(m)
    *_, theta, u1, u2, v1h, v2h, info = csd(
        x11=blk[:h, :h], x12=blk[:h, h:], x21=blk[h:, :h], x22=blk[h:, h:],
        compute_u1=True, compute_u2=True, compute_v1t=True, compute_v2t=True,
        trans=False, signs=False, lwork=lwork, lrwork=lrwork,
    )
    if info != 0:
        raise np.linalg.LinAlgError(f"zuncsd failed on a {m}×{m} block (info={info})")
    return (u1, u2), theta, (v1h, v2h)


def stage_matrix(stage: Stage) -> np.ndarray:
    """Dense n×n matrix of a stage: 2×2 blocks scattered onto its index pairs."""
    out = np.eye(stage.n, dtype=complex)
    sites = stage_sites(stage.n, stage.d)
    out[sites[:, :, None], sites[:, None, :]] = stage.u
    return out


def reconstruct(seq: StageSequence) -> np.ndarray:
    """Product of the stage matrices in application order (stage 1 acts first)."""
    out = np.eye(seq.n, dtype=complex)
    for stage in seq.stages:
        out = stage_matrix(stage) @ out
    return out


def rotate_in_place(cells: np.ndarray, sites: np.ndarray, stage: Stage) -> None:
    """Apply the stage's rotations to the amplitudes ``cells[..., sites[k]]``, in place.

    ``cells`` is a complex array of any strides whose last axis is one line;
    ``sites[k]`` holds the positions of the a and the b operand of pair k on
    every line, which also receive the results. The stage's rotations are
    read in C order over the leading axes and then k: line t of an (L, m)
    block takes rows t·len(sites) … (t+1)·len(sites) − 1. Each product
    u_ij·x_j is formed from the real and imaginary parts of both factors as a
    scalar complex product forms it, re = ur·xr − ui·xi and im = ui·xr +
    ur·xi, and the j = 0 product is added to the j = 1 product, so the result
    is bit-identical to applying each 2×2 rotation on its own; numpy's
    vectorized complex multiply may fuse multiply-adds and is not.
    """
    x = cells[..., sites]  # [..., k, j]
    u = stage.u.reshape(x.shape[:-1] + (2, 2))  # [..., k, i, j]
    xr, xi = x.real[..., None, :], x.imag[..., None, :]
    re = u.real * xr - u.imag * xi
    im = u.imag * xr + u.real * xi
    out = np.empty(x.shape, dtype=complex)
    out.real = re[..., 0] + re[..., 1]
    out.imag = im[..., 0] + im[..., 1]
    cells[..., sites] = out


def apply_stage(line: np.ndarray, stage: Stage) -> np.ndarray:
    """Apply a stage's rotations to a length-n amplitude vector.

    Pairs are disjoint, so all rotations act at once and the result does not
    depend on the order of the pairs.
    """
    line = np.asarray(line, dtype=complex)
    if line.shape != (stage.n,):
        raise ValueError(f"line length {line.shape} does not match stage n={stage.n}")
    out = line.copy()
    rotate_in_place(out, stage_sites(stage.n, stage.d), stage)
    return out


# ---------------------------------------------------------------------------
# Serialization

_SEQ_VERSION = 1


def sequence_to_json(seq: StageSequence) -> str:
    stages = []
    for s in seq.stages:
        entries = complex_to_json(s.u)
        pairs = [
            {"a": a, "b": b, "u": entries[4 * k:4 * k + 4]}
            for k, (a, b) in enumerate((stage_sites(s.n, s.d) + 1).tolist())
        ]
        stages.append({"d": s.d, "pairs": pairs})
    return json.dumps({"version": _SEQ_VERSION, "n": seq.n, "stages": stages})


def sequence_from_json(text: str) -> StageSequence:
    """Read a sequence_to_json document; each stage lists its 1-based pairs in ``stage_sites`` order."""
    doc = json.loads(text)
    check_version(doc, _SEQ_VERSION, "stage sequence")
    stages = []
    for sdoc in doc["stages"]:
        n, d = 2 * len(sdoc["pairs"]), sdoc["d"]
        got = [(p["a"], p["b"]) for p in sdoc["pairs"]]
        if got != list(map(tuple, (stage_sites(n, d) + 1).tolist())):
            raise ValueError(f"stage pairs {got} do not match the stride-{d} pattern on n={n}")
        u = [complex_from_json(p["u"], (2, 2), "pair rotation") for p in sdoc["pairs"]]
        stages.append(Stage(d, np.stack(u)))
    return StageSequence(doc["n"], tuple(stages))


def unitary_to_json(u: np.ndarray) -> str:
    u = np.asarray(u, dtype=complex)
    return json.dumps({"n": u.shape[0], "entries": complex_to_json(u)})


def unitary_from_json(text: str) -> np.ndarray:
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"unitary must be a JSON object, got {type(doc).__name__}")
    n = doc.get("n")
    if type(n) is not int or n < 1:  # JSON true loads as a bool, which is an int
        raise ValueError(f"unitary 'n' must be an integer ≥ 1, got {n!r}")
    return complex_from_json(doc["entries"], (n, n), "unitary entries")
