"""Undirected graphs with optional self-loops, held as their coin-isolation masks.

Node indices are 1-based everywhere in the public interface. Edges are
unordered pairs; a self-loop (j, j) is an ordinary edge. A graph is its
symmetric boolean presence matrix, which marks the walker states
|node j, coin k| that take part in the walk: state (j, k) is active exactly
when the edge (j, k) exists.
"""

from __future__ import annotations

import json
import re
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import GraphParseError
from .util import ByValue


@dataclass(frozen=True, eq=False, init=False)
class Graph(ByValue):
    """Undirected graph on nodes 1..n, loops allowed; compared by value.

    ``present`` is the read-only n×n matrix with ``present[j-1, k-1]`` True
    iff the edge (j, k) exists, so it is symmetric and row j marks the coin
    states active at node j.
    """

    n: int
    present: np.ndarray

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] | np.ndarray = ()):
        """Graph on nodes 1..n with the given (j, k) pairs; both orders name one edge."""
        if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
            raise ValueError(f"node count must be a positive integer, got {n!r}")
        ends = np.asarray(edges if isinstance(edges, np.ndarray) else list(edges))
        if ends.size == 0:
            ends = np.empty((0, 2), dtype=np.intp)
        if ends.ndim != 2 or ends.shape[1] != 2:
            raise ValueError(f"edges must be (j, k) pairs, got an array of shape {ends.shape}")
        # bool is an integer kind to Python, not to numpy
        if ends.dtype.kind not in "iu":
            raise ValueError(f"edge endpoints must be integers, got {ends.dtype}")
        outside = ((ends < 1) | (ends > n)).any(axis=1)
        if outside.any():
            j, k = ends[np.argmax(outside)].tolist()
            raise ValueError(f"edge ({j},{k}) outside node range 1..{n}")
        try:
            present = np.zeros((n, n), dtype=bool)
        except (MemoryError, ValueError):  # numpy raises ValueError when n² overflows an index
            raise ValueError(f"a graph on {n} nodes needs a {n * n}-byte presence matrix, "
                             "more than can be allocated") from None
        j, k = ends.T - 1
        present[j, k] = present[k, j] = True
        present.setflags(write=False)
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "present", present)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """The edges as (j, k) pairs with j ≤ k."""
        return frozenset(map(tuple, (np.argwhere(np.triu(self.present)) + 1).tolist()))

    def has_edge(self, j: int, k: int) -> bool:
        return 1 <= j <= self.n and 1 <= k <= self.n and bool(self.present[j - 1, k - 1])

    def row(self, j: int) -> np.ndarray:
        """Mask over coin states for node j (1-based)."""
        if not 1 <= j <= self.n:
            raise ValueError(f"node {j} outside 1..{self.n}")
        return self.present[j - 1]

    def degree(self, j: int) -> int:
        """Number of coin states active at node j (a self-loop counts once)."""
        return int(self.row(j).sum())


def complete_graph(n: int) -> Graph:
    """Complete graph on n nodes including all self-loops: n(n+1)/2 edges."""
    if n < 1:
        raise ValueError(f"node count must be positive, got {n}")
    return Graph(n, np.argwhere(np.ones((n, n), dtype=bool)) + 1)


def _with_edge(g: Graph, j: int, k: int, present: bool) -> Graph:
    p = g.present.copy()
    p[j - 1, k - 1] = p[k - 1, j - 1] = present
    return Graph(g.n, np.argwhere(p) + 1)


def remove_edge(g: Graph, j: int, k: int) -> Graph:
    """Return g without the unordered edge (j, k); both orientations vanish."""
    if not g.has_edge(j, k):
        raise KeyError(f"edge ({j},{k}) not present in graph")
    return _with_edge(g, j, k, False)


def add_edge(g: Graph, j: int, k: int) -> Graph:
    """Return g with the unordered edge (j, k) added (idempotent)."""
    if not (1 <= j <= g.n and 1 <= k <= g.n):
        raise ValueError(f"edge ({j},{k}) outside node range 1..{g.n}")
    return _with_edge(g, j, k, True)


def cycle_graph(n: int) -> Graph:
    """Cycle 1–2–…–n–1 without self-loops; every node has degree 2 for n ≥ 3."""
    if n < 3:
        raise ValueError(f"cycle graph needs at least 3 nodes, got {n}")
    j = np.arange(1, n + 1)
    return Graph(n, np.column_stack((j, j % n + 1)))


def parse_graph(text: str) -> Graph:
    """Parse a graph document.

    Two formats are accepted:

    * edge-list text: first non-comment line is the node count, every further
      line is ``j k`` (1-based); duplicate lines collapse to one edge;
    * a JSON object ``{"n": int, "edges": [[j, k], ...]}``, with no other key
      but ``"directed"``.

    Directed graphs cannot be expressed: every pair is read as unordered, and
    a JSON document carrying ``"directed": true`` is rejected.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_graph_json(text)
    g = _parse_plain_edgelist(text)
    return g if g is not None else _parse_edgelist_lines(text)


_JSON_KEYS = ("n", "edges", "directed")


def _parse_graph_json(text: str) -> Graph:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise GraphParseError(f"invalid JSON: {e}", line=e.lineno) from e
    if not isinstance(doc, dict) or "n" not in doc:
        raise GraphParseError("graph object must carry an integer field 'n'")
    for key in doc:
        if key not in _JSON_KEYS:
            raise GraphParseError(f"graph takes only {', '.join(map(repr, _JSON_KEYS))}, not {key!r}")
    if doc.get("directed"):
        raise GraphParseError("directed graphs are not supported")
    n = doc["n"]
    if type(n) is not int or n < 1:  # JSON true and false load as bools, which are ints
        raise GraphParseError(f"'n' must be a positive integer, got {n!r}")
    edges = doc.get("edges", [])
    if not isinstance(edges, list):
        raise GraphParseError(f"'edges' must be a list of pairs [j, k], got {edges!r}")
    for i, pair in enumerate(edges):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise GraphParseError(f"edge #{i + 1} must be a pair [j, k], got {pair!r}")
        j, k = pair
        if not (type(j) is int and type(k) is int):
            raise GraphParseError(f"edge #{i + 1} has non-integer endpoints: {pair!r}")
        if not (1 <= j <= n and 1 <= k <= n):
            raise GraphParseError(f"edge #{i + 1} ({j},{k}) outside node range 1..{n}")
    return Graph(n, edges)


# A plain edge list: blank lines, then the node count alone on its line, then
# lines that are blank or "j k", in ASCII digits of at most 18 (so int64 holds
# them), with no comment and no line break but "\n". The body is admitted by
# one match of the whole of it, the canonical "j k\n" line tried first. Every
# quantifier is possessive, so the match keeps no backtracking state from one
# line to the next: the same grammar with greedy quantifiers holds MiBs on a
# 256-node complete graph.
_PLAIN_HEADER = re.compile(r"(?:[ \t]*\n)*[ \t]*[0-9]{1,18}[ \t]*(?:\n|\Z)")
_PLAIN_LINE = r"[ \t]*+(?:[0-9]{1,18}+[ \t]++[0-9]{1,18}+)?+[ \t]*+"
_PLAIN_BODY = re.compile(r"(?:[0-9]{1,18}+ [0-9]{1,18}+\n|" + _PLAIN_LINE + r"\n)*+" + _PLAIN_LINE)


def _parse_plain_edgelist(text: str) -> Graph | None:
    """The graph of a plain edge list in one vectorized read, else None.

    None for any other document and for any endpoint outside 1..n, so that
    every error comes from ``_parse_edgelist_lines`` with its line number.
    """
    header = _PLAIN_HEADER.match(text)
    if header is None or _PLAIN_BODY.fullmatch(text, header.end()) is None:
        return None
    # one read of the whole text, whose first number is the node count
    numbers = np.fromstring(text, dtype=np.int64, sep=" ")
    n, ends = int(numbers[0]), numbers[1:].reshape(-1, 2)
    if n < 1 or (ends.size and (ends.min() < 1 or ends.max() > n)):
        return None
    return Graph(n, ends)


def _parse_edgelist_lines(text: str) -> Graph:
    n = None
    edges = []
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
        edges.append((j, k))
    if n is None:
        raise GraphParseError("empty graph document")
    return Graph(n, edges)


def graph_to_json(g: Graph) -> str:
    edges = np.argwhere(np.triu(g.present)) + 1
    return json.dumps({"n": g.n, "edges": edges.tolist()})
