"""Walk state on the N×N grid, the walk's one stepping loop and its oracle.

The walker state over a graph with n nodes lives on an n×n grid of complex
amplitudes ``amp[j-1, k-1]`` for the basis state "walker at node j, coin
pointing to node k". One walk step is either

* the oracle form: apply per-node coins to the grid rows, then translate by
  transposing the grid (``reference_evolve``), or
* the in-place grid form: alternate the same coins between rows and columns
  of one amplitude buffer without ever transposing (``evolve``, and
  ``run_walk_physical`` with the conveyor as each step's coin kernel).

Both produce the same states, up to rounding, after any even number of
steps; after an odd number of steps the grid form holds the transpose of the
oracle state, i.e. nodes are indexed by columns until the next application.
A node's coin is a low-dimensional unitary on the coin states the node is
actually connected to; disconnected coin states are fixed points. The grid
form applies only these sub-coins, grouped by sub-coin (``CoinSet``): a
Grover or DFT group is its kind and runs its own kernel, any other group
holds its matrix. The oracle multiplies by the dense n×n embeddings.
"""

from __future__ import annotations

import json
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvariantViolation
from .graph import Graph
from .util import ByValue, check_norm, check_unitary, check_version, complex_from_json, complex_to_json, frozen

NORM_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class WalkState(ByValue):
    """Unit-norm n×n grid of complex amplitudes; rows are nodes, columns coins. Compared by value."""

    n: int
    amp: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amp, dtype=complex)
        if self.n < 1:
            raise InvariantViolation(f"dimension must be positive, got {self.n}")
        if a.shape != (self.n, self.n):
            raise InvariantViolation(f"amplitude grid shape {a.shape}, expected {(self.n, self.n)}")
        check_norm(a, NORM_TOL, "state")
        object.__setattr__(self, "amp", frozen(a))


@dataclass(frozen=True, eq=False)
class Distribution(ByValue):
    """Probabilities over nodes 1..n; compared by value."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise InvariantViolation("distribution must be a vector")
        if np.any(p < -1e-15):
            raise InvariantViolation("negative probability entry")
        total = float(p.sum())
        if not abs(total - 1.0) <= NORM_TOL:
            raise InvariantViolation(f"probabilities sum to {total!r}, expected 1")
        object.__setattr__(self, "p", frozen(np.clip(p, 0.0, None)))

    @property
    def n(self) -> int:
        return len(self.p)

    def mean(self) -> float:
        idx = np.arange(1, self.n + 1)
        return float(np.sum(self.p * idx))

    def std(self) -> float:
        idx = np.arange(1, self.n + 1)
        mu = self.mean()
        return float(np.sqrt(np.sum(self.p * (idx - mu) ** 2)))


def init_localized(n: int, j: int, k: int) -> WalkState:
    """State fully localized at |node j, coin k|."""
    if not (1 <= j <= n and 1 <= k <= n):
        raise ValueError(f"indices ({j},{k}) outside 1..{n}")
    amp = np.zeros((n, n), dtype=complex)
    amp[j - 1, k - 1] = 1.0
    return WalkState(n, amp)


def init_balanced(g: Graph, node: int) -> WalkState:
    """(|node, a⟩ + i|node, b⟩)/√2 on the two coin states a < b of a degree-2 node."""
    idx = np.flatnonzero(g.row(node))
    if len(idx) != 2:
        raise ValueError(
            f"'balanced' initial coin needs a degree-2 node, node {node} has degree {len(idx)}"
        )
    amp = np.zeros((g.n, g.n), dtype=complex)
    amp[node - 1, idx] = 1 / np.sqrt(2), 1j / np.sqrt(2)
    return WalkState(g.n, amp)


def transpose_state(s: WalkState) -> WalkState:
    """Swap node and coin indices: the translation |j,k| -> |k,j|."""
    return WalkState(s.n, s.amp.T)


# ---------------------------------------------------------------------------
# Coins


def hadamard_coin() -> np.ndarray:
    """(1/√2)[[1, 1], [1, −1]]."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def grover_coin(n: int) -> np.ndarray:
    """Diffusion coin with entries 2/n − δ_jk."""
    if n < 1:
        raise ValueError(f"coin dimension must be positive, got {n}")
    coin = np.full((n, n), 2.0 / n, dtype=complex)
    coin.flat[:: n + 1] -= 1.0
    return coin


def dft_coin(n: int) -> np.ndarray:
    """Discrete Fourier coin, entries exp(2πi jk/n)/√n."""
    if n < 1:
        raise ValueError(f"coin dimension must be positive, got {n}")
    # entry (j, k) is root jk mod n: n exps, and a phase below 2π (raw jk reaches (n−1)²)
    roots = np.arange(n) * (2j * np.pi)
    roots /= n
    np.exp(roots, out=roots)
    roots /= np.sqrt(n)
    jk = np.outer(np.arange(n), np.arange(n))
    jk %= n
    return roots[jk]


_COIN_KINDS = ("grover", "dft", "hadamard")


def coin_for_degree(kind: str, degree: int) -> np.ndarray:
    if kind == "grover":
        return grover_coin(degree)
    if kind == "dft":
        return dft_coin(degree)
    if kind == "hadamard":
        if degree != 2:
            raise ValueError(f"hadamard coin needs degree 2, node has degree {degree}")
        return hadamard_coin()
    raise ValueError(f"unknown coin kind {kind!r}; expected one of {_COIN_KINDS}")


# ---------------------------------------------------------------------------
# Coin sets: sub-coins on active coin states, grouped by sub-coin


def _structured_kind(sub: np.ndarray) -> str | None:
    """``"grover"`` or ``"dft"`` if ``sub`` equals that coin bit for bit, else None.

    The 1×1 coin [[1]] is both and is named Grover.
    """
    d, bits = len(sub), sub.view(np.uint64)  # compared as integers: no byte copies
    for kind, build in (("grover", grover_coin), ("dft", dft_coin)):
        if d and np.array_equal(bits, build(d).view(np.uint64)):
            return kind
    return None


def _grover_rows(x: np.ndarray) -> None:
    """Each row of an (L, d) array times ``grover_coin(d)``, in place: (2/d)·Σx − x."""
    total = x.sum(axis=1, keepdims=True)
    total *= 2 / x.shape[1]
    np.subtract(total, x, out=x)


def _dft_rows(x: np.ndarray) -> None:
    """Each row of an (L, d) array times ``dft_coin(d)``, in place: an orthonormal inverse FFT."""
    np.fft.ifft(x, axis=1, norm="ortho", out=x)


# the walk's kernel of each structured coin kind
_KERNELS = {"grover": _grover_rows, "dft": _dft_rows}


@dataclass(frozen=True, eq=False)
class CoinGroup:
    """Lines that carry one shared d×d coin on their own d active coin states.

    ``lines[i]`` is a 0-based line index and ``states[i]`` its active coin
    states (0-based, increasing); the coin acts on those states in that order
    and every other state of the line is an exact fixed point. A group is
    built from its ``kind`` or from its ``sub``-coin, never both. A Grover or
    DFT group holds only its kind, ``"grover"`` or ``"dft"``: its coin is
    ``coin_for_degree(kind, d)``, and ``CoinSet.dense`` alone builds it. Any
    other group holds its sub-coin, checked unitary to 1e-12, and no kind.
    A sub-coin equal bit for bit to ``grover_coin(d)`` or ``dft_coin(d)`` is
    kept as that kind. The arrays held are read-only copies. Compared by
    identity.
    """

    lines: np.ndarray
    states: np.ndarray
    sub: np.ndarray | None = None
    kind: str | None = None

    def __post_init__(self):
        lines = np.asarray(self.lines, dtype=np.intp)
        states = np.asarray(self.states, dtype=np.intp)
        if states.ndim != 2 or lines.shape != states.shape[:1]:
            raise ValueError(f"states shape {states.shape} does not match {len(lines)} lines")
        d = states.shape[1]
        if d == 0:
            raise ValueError("a coin group needs at least one active coin state per line, got d = 0")
        if np.any(np.diff(states, axis=1) <= 0):
            raise ValueError("active coin states must increase along each line")
        if (self.sub is None) == (self.kind is None):
            raise ValueError("a coin group takes either a sub-coin or a kind")
        object.__setattr__(self, "lines", frozen(lines))
        object.__setattr__(self, "states", frozen(states))
        if self.kind is not None:
            if self.kind not in _KERNELS:
                raise ValueError(f"a coin group's kind is one of {tuple(_KERNELS)}, got {self.kind!r}")
            return
        sub = frozen(np.asarray(self.sub, dtype=complex))
        if sub.shape != (d, d):
            raise ValueError(f"sub-coin shape {sub.shape} does not match {d} active states")
        kind = _structured_kind(sub)
        if kind is None:
            check_unitary(sub, 1e-12, "sub-coin")
        object.__setattr__(self, "sub", None if kind else sub)
        object.__setattr__(self, "kind", kind)


def _split(coin: np.ndarray, eye: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """The support of a dense n×n coin and its sub-coin there.

    The support is every index whose row or column differs from the identity
    ``eye``; outside it the coin is an exact fixed point.
    """
    c = np.asarray(coin, dtype=complex)
    if c.shape != eye.shape:
        raise ValueError(f"{name} has shape {c.shape}, expected {eye.shape}")
    moved = c != eye
    idx = np.flatnonzero(moved.any(axis=0) | moved.any(axis=1))
    return idx, c[np.ix_(idx, idx)]


def _flat_index(n: int, lines: np.ndarray, states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (L, d) indices of cells (line, state) in a C-ordered n×n buffer: by rows, by columns."""
    lines = lines[:, None]
    return frozen(lines * n + states), frozen(states * n + lines)


@dataclass(frozen=True, eq=False)
class CoinSet:
    """The coins of all n lines for one step, as sub-coin groups.

    Lines in no group (degree-0 nodes, identity coins) are left unchanged.
    How each group steps is fixed when the set is built: the whole-line
    Grover or DFT group that holds more than half of the lines, if there is
    one, steps in place, saving and restoring all n states of the lines
    outside it (``_in_place``); every other group gathers
    and scatters its lines' active states (``_gathered``). Each of these cell
    sets is held as a pair of read-only (L, d) flat indices into a C-ordered
    n×n buffer, ``line·n + state`` for rows and ``state·n + line`` for
    columns: 16 bytes per cell, at most one amplitude buffer per set. Dense
    n×n coins are built only on request, by ``dense``. Compared by identity
    on purpose: a coin set is ``run_walk_physical``'s synthesis cache key, so
    hashing one must stay O(1).
    """

    n: int
    groups: tuple[CoinGroup, ...]
    # (kernel, flat indices of the lines outside the group) of the group that steps in place: none or one
    _in_place: tuple[tuple, ...] = field(init=False, repr=False)
    # (flat indices of the active states, kernel or None, sub-coin or None) of every other group
    _gathered: tuple[tuple, ...] = field(init=False, repr=False)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"coin set needs at least one line, got {self.n}")
        uses = np.zeros(self.n, dtype=int)
        in_place, gathered = [], []
        for grp in self.groups:
            for idx in (grp.lines, grp.states):
                if idx.size and (idx.min() < 0 or idx.max() >= self.n):
                    raise ValueError(f"coin index outside 1..{self.n}")
            np.add.at(uses, grp.lines, 1)
            kernel, d = _KERNELS.get(grp.kind), grp.states.shape[1]
            # in place copies the 2·(n − L) lines outside the group, the gather path 2·L
            if kernel is not None and d == self.n and 2 * len(grp.lines) > self.n:
                outside = np.setdiff1d(np.arange(self.n), grp.lines)
                in_place.append((kernel, _flat_index(self.n, outside, np.arange(self.n))))
            else:
                gathered.append((_flat_index(self.n, grp.lines, grp.states), kernel, grp.sub))
        if np.any(uses > 1):
            raise ValueError(f"line {int(np.argmax(uses > 1)) + 1} belongs to two coin groups")
        object.__setattr__(self, "_in_place", tuple(in_place))
        object.__setattr__(self, "_gathered", tuple(gathered))

    @staticmethod
    def from_graph(g: Graph, kind: str = "grover") -> CoinSet:
        """``coin_for_degree(kind, d)`` on the active states of every degree-d node.

        A Grover or DFT group is built from its kind, so no coin matrix is
        formed; a degree-1 node's coin of either kind is [[1]], so its line
        joins no group.
        """
        present = g.present
        degrees = present.sum(axis=1)
        groups = []
        for d in np.unique(degrees[degrees > 0]):
            if d == 1 and kind in _KERNELS:
                continue
            lines = np.flatnonzero(degrees == d)
            states = np.nonzero(present[lines])[1].reshape(len(lines), d)
            groups.append(CoinGroup(lines, states, kind=kind) if kind in _KERNELS
                          else CoinGroup(lines, states, coin_for_degree(kind, d)))
        return CoinSet(g.n, tuple(groups))

    @staticmethod
    def from_dense(coins: Sequence[np.ndarray]) -> CoinSet:
        """Split dense n×n coins into their support and sub-coin (``_split``).

        Lines whose sub-coins are equal share one group, in the order of their
        first line.
        """
        n = len(coins)
        eye = np.eye(n, dtype=complex)
        # sub-coin bytes -> (sub-coin, lines, their supports)
        members: dict[bytes, tuple[np.ndarray, list[int], list[np.ndarray]]] = {}
        for j, coin in enumerate(coins):
            idx, sub = _split(coin, eye, f"coin {j + 1}")
            if len(idx):
                _, lines, states = members.setdefault(sub.tobytes(), (sub, [], []))
                lines.append(j)
                states.append(idx)
        groups = tuple(CoinGroup(np.array(lines), np.array(states), sub) for sub, lines, states in members.values())
        return CoinSet(n, groups)

    @cached_property
    def dense(self) -> tuple[np.ndarray, ...]:
        """Read-only n×n coin of every line, built once per coin set, with the coin of each Grover or DFT group."""
        n = self.n
        coins = np.zeros((n, n, n), dtype=complex)
        coins[:, np.arange(n), np.arange(n)] = 1.0
        for grp in self.groups:
            sub = grp.sub if grp.kind is None else coin_for_degree(grp.kind, grp.states.shape[1])
            coins[grp.lines[:, None, None], grp.states[:, :, None], grp.states[:, None, :]] = sub
        coins.setflags(write=False)
        return tuple(coins)


def _buffer(amp: np.ndarray, coins: CoinSet) -> np.ndarray:
    """``amp`` if it is the C-contiguous complex (n, n) buffer of a coin set's n lines.

    The groups write through a flat view of the buffer; any other layout
    would make that view a copy and lose the writes.
    """
    if not isinstance(coins, CoinSet):
        raise TypeError(f"coins must be a CoinSet, got {type(coins).__name__}")
    if not isinstance(amp, np.ndarray) or amp.dtype != complex or amp.shape != (coins.n, coins.n):
        raise ValueError(f"expected a complex ({coins.n}, {coins.n}) amplitude buffer, got "
                         f"{getattr(amp, 'dtype', type(amp).__name__)} {np.shape(amp)}")
    if not amp.flags.c_contiguous:
        raise ValueError(f"expected a C-contiguous amplitude buffer, got strides {amp.strides}")
    return amp


def _apply_groups(coins: CoinSet, amp: np.ndarray, orientation: int) -> None:
    """Each group's sub-coin on its lines' active states of ``amp``, in place: rows (0) or columns (1).

    Every group reads and writes through its flat indices of that
    orientation into ``amp.reshape(-1)``, a view of the C-contiguous buffer.
    The whole-line Grover or DFT group that holds more than half of the
    lines runs its kernel on every line of ``amp`` or ``amp.T``: the lines
    outside it are gathered before and scattered back after. Every other
    group gathers its lines' active states into an (L, d) copy, applies its
    kernel (Grover (2/d)·Σx − x, DFT an orthonormal inverse FFT) or else a
    matmul by its sub-coin, and scatters them back. Groups hold disjoint
    lines, so each scatter writes only what its own gather read.
    """
    flat = amp.reshape(-1)
    for kernel, outside in coins._in_place:
        saved = flat[outside[orientation]]
        kernel(amp.T if orientation else amp)
        flat[outside[orientation]] = saved
    for index, kernel, sub in coins._gathered:
        x = flat[index[orientation]]
        if kernel is None:
            x = x @ sub.T
        else:
            kernel(x)
        flat[index[orientation]] = x


# ---------------------------------------------------------------------------
# Coin plans and evolution


@dataclass(frozen=True)
class CoinPlan:
    """Per-step coin sets for an alternating row/column walk.

    ``coin_sets[i]`` holds the coins of step i+1. Steps with odd index apply
    them to rows (the H orientation), even steps to columns; the same
    per-line coins serve both orientations. Steps may share one CoinSet, so
    a uniform plan costs one coin set.
    """

    n: int
    coin_sets: tuple[CoinSet, ...]

    def __post_init__(self):
        for coins in self.coin_sets:
            if coins.n != self.n:
                raise ValueError(f"coin set has {coins.n} entries, expected {self.n}")

    @property
    def steps(self) -> int:
        return len(self.coin_sets)

    def coin_set(self, step: int) -> CoinSet:
        """Coin set for 1-based step index."""
        if not (1 <= step <= self.steps):
            raise ValueError(f"plan covers {self.steps} steps, step {step} requested")
        return self.coin_sets[step - 1]

    def coins_for_step(self, step: int) -> tuple[np.ndarray, ...]:
        """Dense n×n coins for 1-based step index, built once per coin set."""
        return self.coin_set(step).dense

    @staticmethod
    def uniform(coin: np.ndarray, steps: int) -> CoinPlan:
        """Same coin at every node and every step: one split, one group of all n lines."""
        n = np.shape(coin)[0]
        idx, sub = _split(coin, np.eye(n, dtype=complex), "coin")
        groups = (CoinGroup(np.arange(n), np.tile(idx, (n, 1)), sub),) if len(idx) else ()
        return CoinPlan(n, (CoinSet(n, groups),) * steps)

    @staticmethod
    def from_node_coins(coins: Sequence[np.ndarray], steps: int) -> CoinPlan:
        """Same per-node coins repeated every step."""
        one_step = CoinSet.from_dense(coins)
        return CoinPlan(one_step.n, tuple([one_step] * steps))

    @staticmethod
    def from_step_coins(step_coins: Sequence[Sequence[np.ndarray]]) -> CoinPlan:
        sets = tuple(CoinSet.from_dense(coins) for coins in step_coins)
        return CoinPlan(sets[0].n, sets)

    @staticmethod
    def from_graph(g: Graph, steps: int, kind: str = "grover") -> CoinPlan:
        """Per-degree sub-coins on each node's active states, repeated every step."""
        one_step = CoinSet.from_graph(g, kind)
        return CoinPlan(g.n, tuple([one_step] * steps))


def apply_coin_rows(amp: np.ndarray, coins: CoinSet) -> np.ndarray:
    """Replace row j of the buffer by coin_j · row_j, in place (the horizontal grouping)."""
    _apply_groups(coins, _buffer(amp, coins), 0)
    return amp


def apply_coin_cols(amp: np.ndarray, coins: CoinSet) -> np.ndarray:
    """Replace column k of the buffer by coin_k · column_k, in place (the vertical grouping)."""
    _apply_groups(coins, _buffer(amp, coins), 1)
    return amp


def _walk(s0: WalkState, plan: CoinPlan, rows, cols) -> WalkState:
    """A step per coin set of the plan: ``rows(amp, coins)`` on odd steps, ``cols`` on even ones; the norm after each."""
    if plan.n != s0.n:
        raise ValueError(f"plan dimension {plan.n} does not match state {s0.n}")
    if not plan.steps:
        return s0
    amp = s0.amp.copy()
    for i, coins in enumerate(plan.coin_sets, 1):
        (rows if i % 2 == 1 else cols)(amp, coins)
        check_norm(amp, NORM_TOL, f"state after step {i}")
    return WalkState(s0.n, amp)


def evolve(s0: WalkState, plan: CoinPlan) -> WalkState:
    """Walk every step of the plan, alternating row/column coin applications on one copy of the amplitudes.

    Rows come first, and the norm is checked after every step. Odd step
    counts end after a row application, leaving the state in the transposed
    (columns-index-nodes) convention; transpose_state restores the
    rows-index-nodes reading. run_walk_physical takes the same (s0, plan).
    """
    return _walk(s0, plan, apply_coin_rows, apply_coin_cols)  # looked up per call, so a wrapper is seen


def reference_evolve(s0: WalkState, plan: CoinPlan) -> WalkState:
    """Oracle evolution: per step of the plan, multiply each row by its dense coin, then transpose.

    The transpose realizes the translation |j,k| -> |k,j|. Serves as the
    independent reference for evolve: both agree at even step counts.
    """
    if plan.n != s0.n:
        raise ValueError(f"plan dimension {plan.n} does not match state {s0.n}")
    s = s0
    for coins in plan.coin_sets:
        rows = np.array([coin @ s.amp[j, :] for j, coin in enumerate(coins.dense)])
        s = transpose_state(WalkState(s.n, rows))
    return s


def walk_node_distribution(s0: WalkState, plan: CoinPlan) -> tuple[WalkState, Distribution]:
    """Walk every step of the plan; read out the state and its node probabilities, both with nodes on rows.

    After an odd number of grid applications the nodes sit on columns; the
    readout transposes once, so the state is reference_evolve's, can seed a
    further walk, and the distribution refers to nodes.
    """
    s = evolve(s0, plan)
    readout = transpose_state(s) if plan.steps % 2 == 1 else s
    return readout, position_distribution(readout)


def position_distribution(s: WalkState) -> Distribution:
    """Node probabilities p_j = Σ_k |amp[j,k]|²."""
    return Distribution(np.sum(np.abs(s.amp) ** 2, axis=1))


# ---------------------------------------------------------------------------
# Serialization

_STATE_VERSION = 1


def state_to_json(s: WalkState) -> str:
    return json.dumps({"version": _STATE_VERSION, "n": s.n, "amplitudes": complex_to_json(s.amp)})


def state_from_json(text: str) -> WalkState:
    doc = json.loads(text)
    check_version(doc, _STATE_VERSION, "walk state")
    n = doc["n"]
    if type(n) is not int or n < 1:  # JSON true loads as a bool, which is an int
        raise ValueError(f"walk state 'n' must be an integer ≥ 1, got {n!r}")
    return WalkState(n, complex_from_json(doc["amplitudes"], (n, n), "walk state amplitudes"))


def distribution_to_text(d: Distribution) -> str:
    """Two-column export: node index, probability."""
    lines = [f"{j + 1} {d.p[j]:.17e}" for j in range(d.n)]
    return "\n".join(lines) + "\n"
