"""Undirected graphs with optional self-loops and their coin-isolation masks.

Node indices are 1-based everywhere in the public interface. Edges are
unordered pairs; a self-loop (j, j) is an ordinary edge. The edge mask of a
graph marks which walker states |node j, coin k| participate in the walk:
state (j, k) is active exactly when the edge (j, k) exists.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import GraphParseError
from .util import frozen


def _canon(j: int, k: int) -> tuple[int, int]:
    return (j, k) if j <= k else (k, j)


@dataclass(frozen=True)
class Graph:
    """Undirected graph on nodes 1..n; edges are unordered pairs, loops allowed."""

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"node count must be positive, got {self.n}")
        canon = frozenset(_canon(j, k) for j, k in self.edges)
        object.__setattr__(self, "edges", canon)
        for j, k in canon:
            if not (1 <= j <= self.n and 1 <= k <= self.n):
                raise ValueError(f"edge ({j},{k}) outside node range 1..{self.n}")

    def has_edge(self, j: int, k: int) -> bool:
        return _canon(j, k) in self.edges

    def degree(self, j: int) -> int:
        """Number of coin states active at node j (a self-loop counts once)."""
        return sum(1 for e in self.edges if j in e)


@dataclass(frozen=True, eq=False)
class EdgeMask:
    """Boolean n×n presence matrix; present[j-1, k-1] iff edge (j, k) exists. Compared by value."""

    n: int
    present: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.present, dtype=bool)
        if p.shape != (self.n, self.n):
            raise ValueError(f"mask shape {p.shape} does not match n={self.n}")
        if not np.array_equal(p, p.T):
            raise ValueError("edge mask must be symmetric")
        object.__setattr__(self, "present", frozen(p))

    def __eq__(self, other):
        same_n = isinstance(other, EdgeMask) and self.n == other.n
        return same_n and self.present.tobytes() == other.present.tobytes()

    def __hash__(self):
        return hash((self.n, self.present.tobytes()))

    def row(self, j: int) -> np.ndarray:
        """Mask over coin states for node j (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"node {j} outside 1..{self.n}")
        return self.present[j - 1]


def complete_graph(n: int) -> Graph:
    """Complete graph on n nodes including all self-loops: n(n+1)/2 edges."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    edges = frozenset((j, k) for j in range(1, n + 1) for k in range(j, n + 1))
    return Graph(n, edges)


def remove_edge(g: Graph, j: int, k: int) -> Graph:
    """Return g without the unordered edge (j, k); both orientations vanish."""
    e = _canon(j, k)
    if e not in g.edges:
        raise KeyError(f"edge ({j},{k}) not present in graph")
    return Graph(g.n, g.edges - {e})


def add_edge(g: Graph, j: int, k: int) -> Graph:
    """Return g with the unordered edge (j, k) added (idempotent)."""
    if not (1 <= j <= g.n and 1 <= k <= g.n):
        raise ValueError(f"edge ({j},{k}) outside node range 1..{g.n}")
    return Graph(g.n, g.edges | {_canon(j, k)})


def cycle_graph(n: int) -> Graph:
    """Cycle 1–2–…–n–1 without self-loops; every node has degree 2 for n ≥ 3."""
    if n < 3:
        raise ValueError(f"cycle graph needs at least 3 nodes, got {n}")
    edges = frozenset(_canon(j, j % n + 1) for j in range(1, n + 1))
    return Graph(n, edges)


def edge_mask(g: Graph) -> EdgeMask:
    present = np.zeros((g.n, g.n), dtype=bool)
    for j, k in g.edges:
        present[j - 1, k - 1] = True
        present[k - 1, j - 1] = True
    return EdgeMask(g.n, present)


def parse_graph(text: str) -> Graph:
    """Parse a graph document.

    Two formats are accepted:

    * edge-list text: first non-comment line is the node count, every further
      line is ``j k`` (1-based); duplicate lines collapse to one edge;
    * a JSON object ``{"n": int, "edges": [[j, k], ...]}``.

    Directed graphs cannot be expressed: every pair is read as unordered, and
    a JSON document carrying ``"directed": true`` is rejected.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(text)
    return _parse_graph_edgelist(text)


def _parse_graph_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"invalid JSON: {e}", line=e.lineno) from e
    if not isinstance(doc, dict) or "n" not in doc:
        raise GraphParseError("graph object must carry an integer field 'n'")
    if doc.get("directed"):
        raise GraphParseError("directed graphs are not supported")
    n = doc["n"]
    if type(n) is not int or n < 1:  # JSON true and false load as bools, which are ints
        raise GraphParseError(f"'n' must be a positive integer, got {n!r}")
    edges = set()
    for i, pair in enumerate(doc.get("edges", [])):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"edge #{i + 1} must be a pair [j, k], got {pair!r}")
        j, k = pair
        if not (type(j) is int and type(k) is int):
            raise GraphParseError(f"edge #{i + 1} has non-integer endpoints: {pair!r}")
        if not (1 <= j <= n and 1 <= k <= n):
            raise GraphParseError(f"edge #{i + 1} ({j},{k}) outside node range 1..{n}")
        edges.add(_canon(j, k))
    return Graph(n, frozenset(edges))


def _parse_graph_edgelist(text: str) -> Graph:
    n = None
    edges = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if n is None:
            if len(fields) != 1:
                raise GraphParseError("first line must be the node count", line=lineno)
            try:
                n = int(fields[0])
            except ValueError:
                raise GraphParseError(f"node count is not an integer: {fields[0]!r}", line=lineno)
            if n < 1:
                raise GraphParseError(f"node count must be positive, got {n}", line=lineno)
            continue
        if len(fields) != 2:
            raise GraphParseError(f"expected 'j k', got {line!r}", line=lineno)
        try:
            j, k = int(fields[0]), int(fields[1])
        except ValueError:
            raise GraphParseError(f"non-integer node index in {line!r}", line=lineno)
        if not (1 <= j <= n and 1 <= k <= n):
            raise GraphParseError(f"edge ({j},{k}) outside node range 1..{n}", line=lineno)
        edges.add(_canon(j, k))
    if n is None:
        raise GraphParseError("empty graph document")
    return Graph(n, frozenset(edges))


def graph_to_json(g: Graph) -> str:
    edges = sorted(g.edges)
    return json.dumps({"n": g.n, "edges": [list(e) for e in edges]})
