import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmtrack.errors import ConfigError
from dmtrack.topology import (
    Graph,
    MixingMatrix,
    metropolis_weights,
    ring_plus_random,
    spectral_gap,
)


def test_graph_rejects_self_loop():
    with pytest.raises(ConfigError):
        Graph.from_edges(3, [(0, 0)])


def test_graph_rejects_duplicate_edge():
    with pytest.raises(ConfigError):
        Graph.from_edges(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range_vertex():
    with pytest.raises(ConfigError):
        Graph(n=3, edges=frozenset({(0, 3)}))
    with pytest.raises(ConfigError):
        Graph(n=3, edges=frozenset({(1, 0)}))  # pairs must be ordered i < j


def test_graph_needs_two_agents():
    with pytest.raises(ConfigError):
        Graph(n=1, edges=frozenset())


def test_degrees_and_connectivity():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert list(path.degrees()) == [1, 2, 2, 1]
    assert path.is_connected()
    split = Graph.from_edges(4, [(0, 1), (2, 3)])
    assert not split.is_connected()


def test_ring_plus_random_structure():
    g = ring_plus_random(14, 7, seed=7)
    assert g.n == 14
    assert len(g.edges) == 14 + 7  # ring edges plus distinct chords
    assert g.is_connected()
    assert ring_plus_random(14, 7, seed=7).edges == g.edges
    assert ring_plus_random(14, 7, seed=8).edges != g.edges
    # the ring itself is always present
    ring = {(min(i, (i + 1) % 14), max(i, (i + 1) % 14)) for i in range(14)}
    assert ring <= set(g.edges)


def test_ring_plus_random_rejects_excess_chords():
    # n=4 has 6 pairs, 4 on the ring, so only 2 chords exist
    assert len(ring_plus_random(4, 2, seed=0).edges) == 6
    with pytest.raises(ConfigError):
        ring_plus_random(4, 3, seed=0)


def test_ring_plus_random_two_agents():
    g = ring_plus_random(2, 0, seed=0)
    assert set(g.edges) == {(0, 1)}
    with pytest.raises(ConfigError):
        ring_plus_random(2, 1, seed=0)


def test_two_agent_mixing_is_averaging():
    mix = metropolis_weights(Graph.from_edges(2, [(0, 1)]))
    assert np.allclose(mix.W, 0.5, atol=1e-15)
    assert mix.lambda_bar == 0.0
    assert mix.n == 2


def test_metropolis_rejects_disconnected():
    with pytest.raises(ConfigError):
        metropolis_weights(Graph.from_edges(4, [(0, 1), (2, 3)]))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=3, max_value=20),
    frac=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_metropolis_doubly_stochastic(n, frac, seed):
    max_chords = n * (n - 1) // 2 - n
    g = ring_plus_random(n, int(frac * max_chords), seed=seed)
    W = metropolis_weights(g).W
    assert W.min() >= 0.0
    assert np.abs(W - W.T).max() <= 1e-12
    assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-12
    assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12
    # off-diagonal support is exactly the edge set
    for i in range(n):
        for j in range(i + 1, n):
            assert (W[i, j] > 0) == ((i, j) in g.edges)


# the power iteration reads these low (2.56e-9 and 5.2e-3); the fix moves mc_noisy's
# pinned trace digest, so it waits for ROADMAP item 4's output epoch
POWER_ITERATION_LOW = pytest.mark.xfail(
    raises=AssertionError, strict=True,
    reason="spectral_gap reads low; its fix waits for ROADMAP item 4's output epoch",
)


@pytest.mark.parametrize("n,extra,seed", [
    (3, 0, 1), (5, 2, 3), (9, 11, 0), (14, 7, 7),
    pytest.param(14, 13, 6, marks=POWER_ITERATION_LOW),
    pytest.param(28, 1, 28, marks=POWER_ITERATION_LOW),
])
def test_spectral_gap_matches_dense_eigenvalues(n, extra, seed):
    W = metropolis_weights(ring_plus_random(n, extra, seed)).W
    centered = W - np.ones((n, n)) / n
    exact = float(np.max(np.abs(np.linalg.eigvalsh(centered))))
    assert spectral_gap(W) == pytest.approx(exact, abs=1e-9)
    assert exact < 1.0


def test_spectral_gap_accepts_mixing_matrix_wrapper():
    mix = metropolis_weights(ring_plus_random(6, 2, seed=4))
    assert spectral_gap(mix) == pytest.approx(mix.lambda_bar, abs=1e-12)


def test_complete_graph_mixes_in_one_step():
    # W = J/3 for the triangle, so the centered matrix vanishes
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    mix = metropolis_weights(g)
    assert mix.lambda_bar == pytest.approx(0.0, abs=1e-12)


def test_mixing_matrix_n_property():
    W = np.full((3, 3), 1.0 / 3.0)
    assert MixingMatrix(W=W, lambda_bar=0.0).n == 3
