"""Compressed-sparse-row (CSR) adjacency for triangle meshes.

The smoothing kernels, the orderings and the memory-layout model all
consume the vertex-to-vertex adjacency of the mesh in CSR form:

``xadj``
    int64 array of length ``n + 1``; the neighbors of vertex ``v`` are
    ``adjncy[xadj[v]:xadj[v + 1]]``.
``adjncy``
    int64 array of length ``2 * #edges``; neighbor lists are sorted in
    increasing vertex order, which makes the structure canonical and
    cheap to compare.

Everything here is pure NumPy; no Python-level loop runs over edges.
The one sequential kernel, :func:`chain_walk`, loops over the heads it
emits, not over the graph.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import obs

__all__ = [
    "MAX_VERTICES",
    "CSRGraph",
    "Topology",
    "adjacency_from_triangles",
    "chain_walk",
    "edges_from_triangles",
    "mesh_topology",
    "permute_csr",
    "is_symmetric",
]

#: Vertex-count limit of the packed ``u * n + v`` int64 pair keys (and of
#: the int32 rows the chain walk steps through).
MAX_VERTICES = 2**31


@dataclass(frozen=True)
class CSRGraph:
    """Immutable CSR vertex adjacency.

    Attributes
    ----------
    xadj:
        Row-pointer array, shape ``(n + 1,)``, dtype int64.
    adjncy:
        Column-index array, shape ``(xadj[-1],)``, dtype int64, with each
        neighbor list sorted ascending.
    """

    xadj: np.ndarray
    adjncy: np.ndarray

    def __post_init__(self) -> None:
        xadj = np.ascontiguousarray(self.xadj, dtype=np.int64)
        adjncy = np.ascontiguousarray(self.adjncy, dtype=np.int64)
        object.__setattr__(self, "xadj", xadj)
        object.__setattr__(self, "adjncy", adjncy)
        if xadj.ndim != 1 or adjncy.ndim != 1:
            raise ValueError("xadj and adjncy must be one-dimensional")
        if xadj.size == 0:
            raise ValueError("xadj must have at least one entry")
        if xadj[0] != 0 or xadj[-1] != adjncy.size:
            raise ValueError("xadj must start at 0 and end at len(adjncy)")
        if np.any(np.diff(xadj) < 0):
            raise ValueError("xadj must be non-decreasing")

    @property
    def num_vertices(self) -> int:
        return self.xadj.size - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in ``adjncy``)."""
        return self.adjncy.size // 2

    def degrees(self) -> np.ndarray:
        """Vertex degrees, shape ``(n,)``."""
        return np.diff(self.xadj)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor list of vertex ``v`` (a view, do not mutate)."""
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors(u)
        i = np.searchsorted(nbrs, v)
        return bool(i < nbrs.size and nbrs[i] == v)


class Topology(NamedTuple):
    """Everything :func:`mesh_topology` derives from one edge-key sort."""

    edges: np.ndarray
    edge_counts: np.ndarray
    boundary: np.ndarray
    adjacency: CSRGraph


def mesh_topology(triangles: np.ndarray, num_vertices: int) -> Topology:
    """Edges, edge counts, boundary mask and CSR adjacency in one pass.

    One sort of the ``3m`` half-edge keys ``min(a, b) * n + max(a, b)``
    gives the unique edges in lexicographic order and the triangles on
    each; boundary vertices touch an edge of count 1 or no triangle. The
    CSR comes from a second sort of the ``2e`` arc keys.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    if tri.ndim != 2 or tri.shape[1] != 3:
        raise ValueError("triangles must have shape (m, 3)")
    n = int(num_vertices)
    if n >= MAX_VERTICES:
        raise ValueError(f"{n} vertices: pair keys need n < 2**31")
    if tri.size:
        if tri.max() >= n:
            raise ValueError("triangle references a vertex >= num_vertices")
        if tri.min() < 0:
            raise ValueError("triangle references a negative vertex index")
    with obs.span("mesh.topology", vertices=n, triangles=tri.shape[0]):
        nxt = np.roll(tri, -1, axis=1)
        keys = np.minimum(tri, nxt) * n + np.maximum(tri, nxt)
        del nxt
        uniq, counts = np.unique(keys, return_counts=True)
        del keys
        lo, hi = np.divmod(uniq, max(n, 1))
        edges = np.stack([lo, hi], axis=1)
        boundary = np.ones(n, dtype=bool)
        boundary[tri.ravel()] = False
        boundary[edges[counts == 1].ravel()] = True
        arcs = np.sort(np.concatenate([uniq, hi * n + lo]))
        xadj = np.searchsorted(arcs, np.arange(n + 1, dtype=np.int64) * n)
        np.remainder(arcs, max(n, 1), out=arcs)
    return Topology(edges, counts, boundary, CSRGraph(xadj=xadj, adjncy=arcs))


def edges_from_triangles(triangles: np.ndarray) -> np.ndarray:
    """Unique undirected edges of an ``(m, 3)`` triangle soup: shape
    ``(e, 2)``, ``edge[:, 0] <= edge[:, 1]``, sorted lexicographically."""
    tri = np.asarray(triangles, dtype=np.int64)
    return mesh_topology(tri, int(tri.max()) + 1 if tri.size else 0).edges


def adjacency_from_triangles(triangles: np.ndarray, num_vertices: int) -> CSRGraph:
    """Build the canonical CSR vertex adjacency of a triangle mesh.

    Vertices that appear in no triangle get an empty neighbor list.
    """
    return mesh_topology(triangles, num_vertices).adjacency


def permute_csr(graph: CSRGraph, order: np.ndarray) -> CSRGraph:
    """Relabel a CSR graph under a new ordering.

    ``order[k]`` is the *old* index of the vertex stored at new position
    ``k`` (i.e. ``order`` is the permutation used to gather old data into
    the new layout). The returned graph has neighbor lists re-sorted so it
    stays canonical: one sort of the arc keys ``new_src * n + new_dst``.
    """
    order = np.asarray(order, dtype=np.int64)
    n = graph.num_vertices
    if order.shape != (n,):
        raise ValueError(f"order must have shape ({n},)")
    if n >= MAX_VERTICES:
        raise ValueError(f"{n} vertices: pair keys need n < 2**31")
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(graph.degrees()[order], out=xadj[1:])
    keys = np.repeat(inverse * n, graph.degrees())
    keys += inverse.take(graph.adjncy)
    del inverse
    keys.sort()
    np.remainder(keys, max(n, 1), out=keys)
    return CSRGraph(xadj=xadj, adjncy=keys)


def chain_walk(
    xadj: np.ndarray, rows: np.ndarray, seeds: np.ndarray, done: bytearray
) -> tuple[np.ndarray, np.ndarray]:
    """Greedy chain walk over rank-sorted CSR rows (shared by the greedy
    traversal and RDR).

    ``rows[xadj[v]:xadj[v + 1]]`` lists where ``v`` may step, best
    first. From each seed not marked in ``done``: mark and emit it, step
    to the first unmarked entry of its row, repeat until none is left.
    Pre-marked entries (a padding sentinel, an ineligible vertex) are
    never emitted. Returns ``(heads, chain_starts)``. The rows are read
    from flat 4-byte ``array.array`` buffers: ``tolist()`` would box
    every entry (~200 MiB at a million vertices).
    """
    x = array("i" if xadj[-1] < MAX_VERTICES else "q")
    x.frombytes(np.ascontiguousarray(xadj, dtype=x.typecode).tobytes())
    r, seq = array("i"), array("i")
    r.frombytes(np.ascontiguousarray(rows, dtype=np.int32).tobytes())
    seq.frombytes(np.ascontiguousarray(seeds, dtype=np.int32).tobytes())
    heads, starts = array("i"), array("i")
    append = heads.append
    for s in seq:
        if done[s]:
            continue
        starts.append(len(heads))
        h = s
        while True:
            done[h] = 1
            append(h)
            for j in range(x[h], x[h + 1]):
                w = r[j]
                if not done[w]:
                    break
            else:
                break
            h = w
    return tuple(np.frombuffer(a, np.int32).astype(np.int64) for a in (heads, starts))


def is_symmetric(graph: CSRGraph) -> bool:
    """True when every arc ``u -> v`` has its mate ``v -> u``."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    forward = np.stack([src, graph.adjncy], axis=1)
    backward = np.stack([graph.adjncy, src], axis=1)
    f = forward[np.lexsort((forward[:, 1], forward[:, 0]))]
    b = backward[np.lexsort((backward[:, 1], backward[:, 0]))]
    return bool(np.array_equal(f, b))
