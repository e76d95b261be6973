"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from gridwalk.graph import Graph


@st.composite
def dense_graphs(draw, max_n: int) -> Graph:
    """Graphs on 1..max_n nodes of any edge density, with self-loops and some isolated nodes.

    The edges come from a seeded presence matrix, not from drawn pairs, so
    that near-complete graphs of 64 nodes cost no more to draw than sparse ones.
    """
    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    present = rng.random((n, n)) < draw(st.floats(0, 1))
    isolated = draw(st.lists(st.integers(0, n - 1), max_size=n // 4))
    present[isolated] = False
    present[:, isolated] = False
    return Graph(n, np.argwhere(present) + 1)

