"""Differential tests for the one-pass mesh topology and the sort-based
``permute_csr``, against the per-row oracles in ``tests/oracles.py``,
plus the consistency of the derived caches on :class:`TriMesh`."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.mesh import (
    TriMesh,
    adjacency_from_triangles,
    boundary_vertices_from_triangles,
    edges_from_triangles,
    mesh_topology,
    permute_csr,
)
from repro.meshgen import perturb_interior, structured_rectangle
from repro.meshgen.chunked import load_chunked_mesh, write_structured_rectangle
from tests import oracles

PROPS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def triangle_soups(draw):
    """Random soups: duplicate and repeated-vertex triangles, edges in
    three or more triangles, isolated vertices, ``m = 0`` and ``n = 0``."""
    n = draw(st.integers(0, 12))
    m = draw(st.integers(0, 24)) if n else 0
    flat = draw(st.lists(st.integers(0, max(n - 1, 0)), min_size=3 * m, max_size=3 * m))
    tri = np.asarray(flat, dtype=np.int64).reshape(m, 3)
    if m and draw(st.booleans()):
        # Stack copies of a few rows: duplicates and non-manifold edges.
        picks = draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=6))
        tri = np.concatenate([tri, tri[picks]])
    return tri, n


def assert_graph(graph, xadj, adjncy):
    assert graph.xadj.dtype == np.int64 and graph.adjncy.dtype == np.int64
    assert np.array_equal(graph.xadj, xadj)
    assert np.array_equal(graph.adjncy, adjncy)


class TestTopologyMatchesOracle:
    @PROPS
    @given(triangle_soups())
    def test_one_pass_equals_unique_based_topology(self, soup):
        tri, n = soup
        topo = mesh_topology(tri, n)
        expected_edges = oracles.edges_oracle(tri)
        assert topo.edges.dtype == expected_edges.dtype
        assert topo.edges.shape == expected_edges.shape
        assert np.array_equal(topo.edges, expected_edges)
        assert np.array_equal(topo.edge_counts, oracles.edge_counts_oracle(tri))
        assert np.array_equal(topo.boundary, oracles.boundary_oracle(tri, n))
        assert_graph(topo.adjacency, *oracles.adjacency_oracle(tri, n))

    @PROPS
    @given(triangle_soups())
    def test_wrappers_and_trimesh_fill_from_the_pass(self, soup):
        tri, n = soup
        assert np.array_equal(edges_from_triangles(tri), oracles.edges_oracle(tri))
        assert np.array_equal(
            boundary_vertices_from_triangles(tri, n),
            oracles.boundary_oracle(tri, n),
        )
        assert_graph(
            adjacency_from_triangles(tri, n), *oracles.adjacency_oracle(tri, n)
        )
        mesh = TriMesh(np.zeros((n, 2)), tri)
        assert np.array_equal(mesh.boundary_mask, oracles.boundary_oracle(tri, n))
        assert np.array_equal(mesh.edges(), oracles.edges_oracle(tri))
        assert_graph(mesh.adjacency, *oracles.adjacency_oracle(tri, n))

    def test_non_manifold_edge_counts(self):
        tri = np.array([[0, 1, 2], [0, 1, 3], [1, 0, 4], [0, 1, 2]])
        topo = mesh_topology(tri, 6)
        counts = dict(zip(map(tuple, topo.edges.tolist()), topo.edge_counts))
        assert counts[(0, 1)] == 4
        assert topo.boundary[5]  # isolated

    def test_empty_inputs(self):
        topo = mesh_topology(np.empty((0, 3), dtype=np.int64), 0)
        assert topo.edges.shape == (0, 2)
        assert topo.adjacency.xadj.tolist() == [0]
        topo = mesh_topology(np.empty((0, 3), dtype=np.int64), 3)
        assert topo.boundary.tolist() == [True] * 3
        assert topo.adjacency.xadj.tolist() == [0, 0, 0, 0]


class TestTopologyRangeChecks:
    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError, match=">= num_vertices"):
            mesh_topology(np.array([[0, 1, 5]]), 5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError, match="negative"):
            mesh_topology(np.array([[0, -1, 2]]), 4)
        with pytest.raises(ValueError, match="negative"):
            edges_from_triangles(np.array([[0, -1, 2]]))
        with pytest.raises(ValueError, match="negative"):
            boundary_vertices_from_triangles(np.array([[0, -1, 2]]), 4)

    def test_rejects_key_overflow(self):
        # Checked before anything is allocated.
        with pytest.raises(ValueError, match="2\\*\\*31"):
            mesh_topology(np.empty((0, 3), dtype=np.int64), 2**31)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="shape"):
            mesh_topology(np.zeros((2, 2), dtype=np.int64), 3)


class TestPermuteMatchesOracle:
    @PROPS
    @given(triangle_soups(), st.randoms(use_true_random=False))
    def test_sort_based_permute_equals_per_row(self, soup, rnd):
        tri, n = soup
        graph = mesh_topology(tri, n).adjacency
        order = np.arange(n, dtype=np.int64)
        rnd.shuffle(order)
        assert_graph(
            permute_csr(graph, order),
            *oracles.permute_csr_oracle(graph.xadj, graph.adjncy, order),
        )

    def test_permuted_mesh_on_real_mesh(self, ocean_mesh, rng):
        g = ocean_mesh.adjacency
        order = rng.permutation(ocean_mesh.num_vertices)
        assert_graph(
            permute_csr(g, order), *oracles.permute_csr_oracle(g.xadj, g.adjncy, order)
        )


def fresh(mesh: TriMesh) -> TriMesh:
    return TriMesh(mesh.vertices, mesh.triangles)


def assert_same_topology(mesh: TriMesh, reference: TriMesh) -> None:
    assert_graph(mesh.adjacency, reference.adjacency.xadj, reference.adjacency.adjncy)
    assert np.array_equal(mesh.boundary_mask, reference.boundary_mask)
    assert np.array_equal(mesh.edges(), reference.edges())


class TestDerivedCaches:
    @pytest.fixture()
    def mesh(self):
        return perturb_interior(structured_rectangle(7, 8), amplitude=0.05, seed=2)

    def test_edges_cached_and_read_only(self, mesh):
        edges = mesh.edges()
        assert mesh.edges() is edges
        assert not edges.flags.writeable
        with pytest.raises(ValueError):
            edges[0, 0] = 99
        assert np.array_equal(mesh.edges(), oracles.edges_oracle(mesh.triangles))

    def test_one_pass_fills_adjacency_and_boundary(self, mesh):
        mesh.boundary_mask
        assert mesh._adjacency is not None
        # The edge array is cached only once asked for.
        assert mesh._edges is None
        mesh.edges()
        assert mesh._edges is not None

    def test_edges_first_fills_every_cache(self, mesh):
        mesh.edges()
        assert mesh._adjacency is not None and mesh._boundary is not None

    @pytest.mark.parametrize("warm", [False, True])
    def test_permute_matches_fresh_mesh(self, mesh, rng, warm):
        mesh.adjacency  # permute relabels cached adjacency and boundary
        if warm:
            mesh.edges()
        permuted = mesh.permute(rng.permutation(mesh.num_vertices))
        assert_same_topology(permuted, fresh(permuted))

    @pytest.mark.parametrize("warm", [False, True])
    def test_with_vertices_matches_fresh_mesh(self, mesh, warm):
        mesh.adjacency
        if warm:
            mesh.edges()
        moved = mesh.with_vertices(mesh.vertices * 2.0)
        assert_same_topology(moved, fresh(moved))
        if warm:
            assert moved.edges() is mesh.edges()


def test_benchmark_rectangle_edge_count(tmp_path):
    """The 512x512 perturbed rectangle at seed 0 keeps its 784,385 edges."""
    path = write_structured_rectangle(
        tmp_path, 512, 512, name="rect-0", perturb_amplitude=0.25, seed=0
    )
    mesh = load_chunked_mesh(path, mmap=True)
    mesh = TriMesh(mesh.vertices, mesh.triangles)
    assert len(mesh.edges()) == 784_385
    assert mesh.adjacency.num_edges == 784_385
