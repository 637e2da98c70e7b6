"""The central triangle-mesh container.

A :class:`TriMesh` owns the vertex coordinates, the triangle connectivity
and lazily-built derived structures (CSR vertex adjacency, boundary mask,
vertex->triangle incidence). Orderings act on meshes through
:meth:`TriMesh.permute`, which relabels every structure consistently, so
the rest of the library never needs to reason about permutations.

The memory-layout conventions that the cache simulator models
(coordinate array, flag array, CSR adjacency) mirror the fields of this
class; see :mod:`repro.memsim.layout`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .csr import CSRGraph, mesh_topology, permute_csr

__all__ = ["TriMesh", "boundary_vertices_from_triangles"]


def boundary_vertices_from_triangles(
    triangles: np.ndarray, num_vertices: int
) -> np.ndarray:
    """Boolean mask of vertices lying on the mesh boundary.

    An edge is a boundary edge when it belongs to exactly one triangle;
    a vertex is a boundary vertex when it touches a boundary edge.
    Isolated vertices (in no triangle) are reported as boundary so the
    smoother never moves them.
    """
    return mesh_topology(triangles, num_vertices).boundary


@dataclass
class TriMesh:
    """A 2-D triangle mesh.

    Parameters
    ----------
    vertices:
        Float64 array of shape ``(n, 2)``.
    triangles:
        Int64 array of shape ``(m, 3)``; counter-clockwise orientation is
        conventional but not required.
    name:
        Optional label used in reports (e.g. ``"ocean"``).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    name: str = ""
    _adjacency: CSRGraph | None = field(default=None, repr=False, compare=False)
    _boundary: np.ndarray | None = field(default=None, repr=False, compare=False)
    _edges: np.ndarray | None = field(default=None, repr=False, compare=False)
    _vertex_tris: tuple[np.ndarray, np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64)
        self.triangles = np.ascontiguousarray(self.triangles, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise ValueError("vertices must have shape (n, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise ValueError("triangles must have shape (m, 3)")
        if self.triangles.size:
            lo, hi = self.triangles.min(), self.triangles.max()
            if lo < 0 or hi >= self.num_vertices:
                raise ValueError("triangle vertex index out of range")

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def num_triangles(self) -> int:
        return self.triangles.shape[0]

    def _fill_topology(self, *, edges: bool = False) -> None:
        """Run the one topology pass and cache whatever is still missing.
        The edge array is kept only when asked for: most meshes never
        read it, and it would stay resident (12.5 MB at 262k vertices)."""
        topo = mesh_topology(self.triangles, self.num_vertices)
        if self._adjacency is None:
            self._adjacency = topo.adjacency
        if self._boundary is None:
            self._boundary = topo.boundary
        if edges:
            topo.edges.flags.writeable = False
            self._edges = topo.edges

    @property
    def adjacency(self) -> CSRGraph:
        """CSR vertex-to-vertex adjacency (built lazily, then cached)."""
        if self._adjacency is None:
            self._fill_topology()
        return self._adjacency

    @property
    def boundary_mask(self) -> np.ndarray:
        """Boolean mask, True for boundary (fixed) vertices."""
        if self._boundary is None:
            self._fill_topology()
        return self._boundary

    @property
    def interior_mask(self) -> np.ndarray:
        return ~self.boundary_mask

    def interior_vertices(self) -> np.ndarray:
        """Indices of interior (movable) vertices, ascending."""
        return np.flatnonzero(self.interior_mask)

    def edges(self) -> np.ndarray:
        """Unique undirected edges, shape ``(e, 2)`` (cached, read-only)."""
        if self._edges is None:
            self._fill_topology(edges=True)
        return self._edges

    @property
    def vertex_triangles(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR incidence (xadj, tri_ids): triangles attached to each vertex."""
        if self._vertex_tris is None:
            n = self.num_vertices
            flat = self.triangles.ravel()
            tri_ids = np.repeat(np.arange(self.num_triangles, dtype=np.int64), 3)
            order = np.argsort(flat, kind="stable")
            sorted_v = flat[order]
            sorted_t = tri_ids[order]
            counts = np.bincount(sorted_v, minlength=n)
            xadj = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=xadj[1:])
            self._vertex_tris = (xadj, sorted_t)
        return self._vertex_tris

    def triangle_areas(self) -> np.ndarray:
        """Signed areas (positive for counter-clockwise triangles)."""
        p = self.vertices[self.triangles]
        a = p[:, 1] - p[:, 0]
        b = p[:, 2] - p[:, 0]
        return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])

    # ------------------------------------------------------------------
    # transformations
    # ------------------------------------------------------------------
    def copy(self) -> "TriMesh":
        """Deep copy (vertices and triangles are duplicated)."""
        return TriMesh(self.vertices.copy(), self.triangles.copy(), name=self.name)

    def permute(self, order: np.ndarray) -> "TriMesh":
        """Relabel vertices under ``order``.

        ``order[k]`` is the old index of the vertex stored at new position
        ``k``. Returns a new mesh; ``self`` is untouched. Derived
        structures of the new mesh are rebuilt consistently (adjacency is
        permuted directly rather than recomputed, which is cheaper and
        keeps the two code paths honest against each other in tests).
        """
        order = np.asarray(order, dtype=np.int64)
        n = self.num_vertices
        if order.shape != (n,):
            raise ValueError(f"order must have shape ({n},)")
        if not np.array_equal(np.sort(order), np.arange(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        inverse = np.empty(n, dtype=np.int64)
        inverse[order] = np.arange(n, dtype=np.int64)
        new = TriMesh(
            self.vertices[order],
            inverse[self.triangles],
            name=self.name,
        )
        if self._adjacency is not None:
            new._adjacency = permute_csr(self._adjacency, order)
        if self._boundary is not None:
            new._boundary = self._boundary[order]
        return new

    def with_vertices(self, vertices: np.ndarray) -> "TriMesh":
        """Same connectivity, new coordinates (shares derived caches)."""
        new = TriMesh(vertices, self.triangles, name=self.name)
        new._adjacency = self._adjacency
        new._boundary = self._boundary
        new._edges = self._edges
        new._vertex_tris = self._vertex_tris
        return new
