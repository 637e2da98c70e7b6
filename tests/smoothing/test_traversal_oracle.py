"""Differential tests: the chain-walk greedy traversal against the
per-vertex ``argmin`` loop kept in ``tests/oracles.py``."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rdr import batched_first_touch_ordering, first_touch_ordering
from repro.mesh import TriMesh
from repro.meshgen import perturb_interior, structured_rectangle
from repro.quality import vertex_quality
from repro.smoothing import greedy_traversal
from tests import oracles

PROPS = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: A small value pool forces ties; NaN and the signed zeros/infinities
#: pin the rank rules (NaN steps first, seeds put NaN last).
QUALITY_POOL = [np.nan, -np.inf, -1.0, -0.0, 0.0, 0.25, 1.0, np.inf]


def oracle(mesh: TriMesh, qualities, subset=None) -> np.ndarray:
    g = mesh.adjacency
    return oracles.greedy_traversal_oracle(
        g.xadj, g.adjncy, mesh.interior_mask, qualities, subset
    )


@st.composite
def meshes(draw):
    """Relabeled structured meshes, or soups whose duplicated triangles
    make interior vertices."""
    if draw(st.booleans()):
        rows, cols = draw(st.integers(3, 7)), draw(st.integers(3, 7))
        mesh = structured_rectangle(rows, cols)
        order = np.asarray(draw(st.permutations(range(mesh.num_vertices))))
        return mesh.permute(order)
    n = draw(st.integers(1, 14))
    m = draw(st.integers(0, 20))
    flat = draw(st.lists(st.integers(0, n - 1), min_size=3 * m, max_size=3 * m))
    tri = np.asarray(flat, dtype=np.int64).reshape(m, 3)
    tri = np.concatenate([tri, tri])
    return TriMesh(np.zeros((n, 2)), tri)


@st.composite
def cases(draw):
    mesh = draw(meshes())
    n = mesh.num_vertices
    q = np.asarray(
        draw(st.lists(st.sampled_from(QUALITY_POOL), min_size=n, max_size=n)),
        dtype=np.float64,
    )
    kind = draw(st.sampled_from(["all", "random", "boundary-only"]))
    if kind == "all":
        subset = None
    elif kind == "random":
        subset = np.asarray(
            draw(st.lists(st.integers(0, n - 1), max_size=n)), dtype=np.int64
        )
    else:
        subset = np.flatnonzero(mesh.boundary_mask)  # no interior vertex
    return mesh, q, subset


class TestGreedyMatchesArgminLoop:
    @PROPS
    @given(cases())
    def test_ties_nans_and_subsets(self, case):
        mesh, q, subset = case
        got = greedy_traversal(mesh, q, subset=subset)
        assert got.dtype == np.int64
        assert np.array_equal(got, oracle(mesh, q, subset))

    def test_boundary_only_subset_is_empty(self, bumpy_mesh):
        q = vertex_quality(bumpy_mesh)
        subset = np.flatnonzero(bumpy_mesh.boundary_mask)
        assert greedy_traversal(bumpy_mesh, q, subset=subset).size == 0

    def test_real_meshes_and_partition_blocks(self, ocean_mesh):
        q = vertex_quality(ocean_mesh)
        assert np.array_equal(greedy_traversal(ocean_mesh, q), oracle(ocean_mesh, q))
        interior = ocean_mesh.interior_vertices()
        for block in np.array_split(interior, 7):
            assert np.array_equal(
                greedy_traversal(ocean_mesh, q, subset=block),
                oracle(ocean_mesh, q, block),
            )

    def test_all_tied_qualities_follow_index_order(self):
        mesh = perturb_interior(structured_rectangle(8, 8), amplitude=0.03, seed=5)
        q = np.zeros(mesh.num_vertices)
        assert np.array_equal(greedy_traversal(mesh, q), oracle(mesh, q))


@pytest.mark.parametrize("with_nan", [False, True])
def test_first_touch_engines_agree_through_the_new_traversal(bumpy_mesh, with_nan):
    q = vertex_quality(bumpy_mesh)
    if with_nan:
        q[::5] = np.nan
    assert np.array_equal(
        first_touch_ordering(bumpy_mesh, qualities=q),
        batched_first_touch_ordering(bumpy_mesh, qualities=q),
    )
