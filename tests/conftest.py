"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import os
import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from repro.graph.builders import from_coo
from repro.graph.csr import CSRGraph

# Library-wide hypothesis profile: deterministic-ish, no flaky deadlines.
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


def pytest_configure(config):
    """Pin the graph cache to a directory of this session, before any
    test module is imported, so the suite never writes into the user's
    cache; a test that sets ``REPRO_GRAPH_CACHE`` itself still wins."""
    config._repro_graph_cache = (os.environ.get("REPRO_GRAPH_CACHE"),
                                 tempfile.mkdtemp(prefix="repro-graphs-"))
    os.environ["REPRO_GRAPH_CACHE"] = config._repro_graph_cache[1]


def pytest_unconfigure(config):
    before, root = config._repro_graph_cache
    shutil.rmtree(root, ignore_errors=True)
    if before is None:
        os.environ.pop("REPRO_GRAPH_CACHE", None)
    else:
        os.environ["REPRO_GRAPH_CACHE"] = before


def build_graph(n: int, edges: list[tuple[int, int, float]],
                name: str = "test") -> CSRGraph:
    """Convenience constructor used all over the tests."""
    if not edges:
        return CSRGraph.empty(n, name)
    u = np.array([e[0] for e in edges], dtype=np.int64)
    v = np.array([e[1] for e in edges], dtype=np.int64)
    w = np.array([e[2] for e in edges], dtype=np.float64)
    return from_coo(u, v, w, num_vertices=n, name=name)


@st.composite
def random_graphs(
    draw,
    max_vertices: int = 24,
    max_edges: int = 60,
    tie_prone: bool = False,
) -> CSRGraph:
    """Random simple weighted graphs.

    ``tie_prone=True`` draws weights from a 4-value set so weight ties are
    common — exercising the total-order tie-breaking logic.
    """
    n = draw(st.integers(min_value=2, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    if tie_prone:
        weights = draw(
            st.lists(st.sampled_from([0.25, 0.5, 0.75, 1.0]),
                     min_size=m, max_size=m)
        )
    else:
        weights = draw(
            st.lists(
                st.floats(min_value=0.001, max_value=1.0,
                          allow_nan=False, allow_infinity=False),
                min_size=m,
                max_size=m,
            )
        )
    edges = [(a, b, w) for (a, b), w in zip(pairs, weights) if a != b]
    return build_graph(n, edges)


@pytest.fixture(scope="session")
def path_graph() -> CSRGraph:
    """P5 with increasing weights: 0-1-2-3-4."""
    return build_graph(5, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0),
                           (3, 4, 4.0)], "path5")


@pytest.fixture(scope="session")
def triangle() -> CSRGraph:
    """K3 with distinct weights."""
    return build_graph(3, [(0, 1, 3.0), (1, 2, 2.0), (0, 2, 1.0)], "K3")


@pytest.fixture(scope="session")
def paper_fig1_graph() -> CSRGraph:
    """The 6-vertex example of the paper's Fig. 1.

    Weights: {0,1}=5 (locally dominant), {1,2}=1, {2,3}=3, {3,4}=4
    (locally dominant), {4,5}=2.
    """
    return build_graph(
        6,
        [(0, 1, 5.0), (1, 2, 1.0), (2, 3, 3.0), (3, 4, 4.0), (4, 5, 2.0)],
        "fig1",
    )


@pytest.fixture(scope="session")
def medium_graph() -> CSRGraph:
    """A ~10k-edge RMAT graph shared by the slower integration tests."""
    from repro.graph.generators import rmat_graph

    return rmat_graph(10, 8, seed=42, name="medium")


@pytest.fixture(scope="session")
def tie_graph() -> CSRGraph:
    """Complete graph K8 with ALL weights equal — the livelock stress
    case for pointer-based matching without a total order."""
    edges = [(i, j, 1.0) for i in range(8) for j in range(i + 1, 8)]
    return build_graph(8, edges, "K8-ties")
