"""Unit tests for the ordering registry and permutation utilities."""

import numpy as np
import pytest

import repro  # noqa: F401  (registers all orderings, incl. rdr/oracle)
from repro.config import UnknownNameError
from repro.ordering import (
    ORDERINGS,
    apply_ordering,
    check_permutation,
    get_ordering,
    invert_permutation,
    register_ordering,
)


EXPECTED_ORDERINGS = {
    "ori",
    "random",
    "bfs",
    "rbfs",
    "dfs",
    "rcm",
    "hilbert",
    "morton",
    "qsort",
    "degree",
    "sloan",
    "spectral",
    "rdr",
    "oracle",
}


class TestRegistry:
    def test_all_expected_orderings_registered(self):
        assert EXPECTED_ORDERINGS <= set(ORDERINGS)

    def test_get_ordering(self):
        fn = get_ordering("bfs")
        assert callable(fn)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown ordering"):
            get_ordering("nope")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_ordering("bfs")(lambda mesh, seed=0, qualities=None: None)

    @pytest.mark.parametrize("name", sorted(EXPECTED_ORDERINGS))
    def test_every_ordering_returns_permutation(self, name, ocean_mesh):
        order = get_ordering(name)(ocean_mesh, seed=0)
        check_permutation(order, ocean_mesh.num_vertices)

    @pytest.mark.parametrize("name", sorted(EXPECTED_ORDERINGS - {"random"}))
    def test_deterministic(self, name, ocean_mesh):
        fn = get_ordering(name)
        assert np.array_equal(fn(ocean_mesh, seed=0), fn(ocean_mesh, seed=0))


class TestApplyOrdering:
    def test_returns_permuted_mesh_and_order(self, ocean_mesh):
        permuted, order = apply_ordering(ocean_mesh, "bfs")
        assert permuted.num_vertices == ocean_mesh.num_vertices
        assert np.allclose(permuted.vertices, ocean_mesh.vertices[order])

    def test_identity_for_ori(self, ocean_mesh):
        permuted, order = apply_ordering(ocean_mesh, "ori")
        assert np.array_equal(order, np.arange(ocean_mesh.num_vertices))

    def test_rejects_non_numpy_backend(self, ocean_mesh):
        with pytest.raises(UnknownNameError, match="valid backends: numpy$"):
            apply_ordering(ocean_mesh, "ori", backend="torch")


class TestPermutationUtilities:
    def test_invert_roundtrip(self, rng):
        order = rng.permutation(57)
        inv = invert_permutation(order)
        assert np.array_equal(order[inv], np.arange(57))
        assert np.array_equal(inv[order], np.arange(57))

    def test_check_permutation_accepts_valid(self):
        out = check_permutation([2, 0, 1], 3)
        assert out.dtype == np.int64

    def test_check_permutation_rejects_duplicates(self):
        with pytest.raises(ValueError, match="missing"):
            check_permutation([0, 0, 2], 3)

    def test_check_permutation_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            check_permutation([0, 1, 3], 3)

    def test_check_permutation_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape"):
            check_permutation([0, 1], 3)
