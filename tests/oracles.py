"""Independent per-element implementations kept as test oracles.

The library derives edges, boundary mask and CSR adjacency from one
packed-key sort, relabels CSR graphs with one sort, and walks the greedy
traversal with the flat chain-walk kernel that RDR also uses. These are
the straightforward formulations those array programs replaced: a 2-D
``np.unique`` over the edge rows, a per-row gather-and-sort, and a
per-vertex ``argmin`` loop. They share no code with the library, so the
differential tests compare the two bit for bit.
"""

from __future__ import annotations

import numpy as np


def _raw_edges(triangles: np.ndarray) -> np.ndarray:
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    raw = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [2, 0]]])
    raw.sort(axis=1)
    return raw


def edges_oracle(triangles: np.ndarray) -> np.ndarray:
    """Unique undirected edges, ``(lo, hi)`` rows in lexicographic order."""
    return np.unique(_raw_edges(triangles), axis=0)


def edge_counts_oracle(triangles: np.ndarray) -> np.ndarray:
    """Triangles per unique edge, aligned with :func:`edges_oracle`."""
    return np.unique(_raw_edges(triangles), axis=0, return_counts=True)[1]


def boundary_oracle(triangles: np.ndarray, num_vertices: int) -> np.ndarray:
    """Endpoints of edges in exactly one triangle, plus unused vertices."""
    tri = np.asarray(triangles, dtype=np.int64).reshape(-1, 3)
    mask = np.zeros(num_vertices, dtype=bool)
    if tri.size == 0:
        mask[:] = True
        return mask
    edges, counts = np.unique(_raw_edges(tri), axis=0, return_counts=True)
    mask[edges[counts == 1].ravel()] = True
    used = np.zeros(num_vertices, dtype=bool)
    used[tri.ravel()] = True
    mask[~used] = True
    return mask


def adjacency_oracle(
    triangles: np.ndarray, num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(xadj, adjncy)`` with each row sorted ascending."""
    edges = edges_oracle(triangles)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    counts = np.bincount(src, minlength=num_vertices)
    xadj = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=xadj[1:])
    return xadj, dst


def permute_csr_oracle(
    xadj: np.ndarray, adjncy: np.ndarray, order: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gather each old row into its new slot, relabel, sort the row."""
    order = np.asarray(order, dtype=np.int64)
    n = order.size
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = np.arange(n, dtype=np.int64)
    new_deg = np.diff(xadj)[order]
    new_xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(new_deg, out=new_xadj[1:])
    new_adjncy = np.empty_like(adjncy)
    relabeled = inverse[adjncy]
    for new_v in range(n):
        old_v = order[new_v]
        out = new_adjncy[new_xadj[new_v] : new_xadj[new_v + 1]]
        out[:] = relabeled[xadj[old_v] : xadj[old_v + 1]]
        out.sort()
    return new_xadj, new_adjncy


def greedy_traversal_oracle(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    interior_mask: np.ndarray,
    qualities: np.ndarray,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Worst-first greedy traversal, one ``argmin`` per smoothed vertex.

    Seeds go by stable ascending quality (``np.argsort`` puts NaN last);
    each chain step takes ``np.argmin`` over the eligible unvisited
    neighbors (the first NaN if any, else the lowest index among ties).
    """
    n = interior_mask.size
    eligible = np.zeros(n, dtype=bool)
    if subset is None:
        eligible[interior_mask] = True
    else:
        eligible[np.asarray(subset, dtype=np.int64)] = True
        eligible &= interior_mask
    todo = np.flatnonzero(eligible)
    order = np.empty(todo.size, dtype=np.int64)
    seeds = todo[np.argsort(qualities[todo], kind="stable")]
    visited = np.zeros(n, dtype=bool)
    pos = 0
    for s in seeds:
        if visited[s]:
            continue
        v = int(s)
        while True:
            visited[v] = True
            order[pos] = v
            pos += 1
            nbrs = adjncy[xadj[v] : xadj[v + 1]]
            cand = nbrs[eligible[nbrs] & ~visited[nbrs]]
            if cand.size == 0:
                break
            v = int(cand[np.argmin(qualities[cand])])
    assert pos == order.size
    return order
