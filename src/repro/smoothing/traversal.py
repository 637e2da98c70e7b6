"""Traversal orders of the Laplacian smoother.

The smoother visits interior vertices once per iteration; *in which
order* is the traversal policy:

``storage``
    Algorithm 1 read literally: interior vertices in storage order.
``greedy``
    The quality-driven traversal Section 4.2 describes (and RDR
    mirrors): start at the worst-quality interior vertex; after
    smoothing a vertex, continue with its worst-quality unvisited
    interior neighbor; when none remains, jump to the globally
    worst-quality unvisited interior vertex.

The greedy traversal depends only on the mesh connectivity and the
per-vertex qualities — not on the storage order — which is precisely why
reorderings change *where* the accesses land without changing *what* is
accessed (Figure 5).
"""

from __future__ import annotations

import numpy as np

from ..mesh import TriMesh
from ..mesh.csr import chain_walk

__all__ = ["storage_traversal", "greedy_traversal", "make_traversal", "TRAVERSALS"]


def storage_traversal(
    mesh: TriMesh,
    qualities: np.ndarray | None = None,
    *,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Interior vertices in increasing storage order (Algorithm 1)."""
    verts = mesh.interior_vertices() if subset is None else np.sort(subset)
    return np.asarray(verts, dtype=np.int64)


def greedy_traversal(
    mesh: TriMesh,
    qualities: np.ndarray,
    *,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Quality-greedy traversal (worst-first with neighbor chaining).

    Parameters
    ----------
    qualities:
        Per-vertex quality; lower means "smooth me first".
    subset:
        Restrict the traversal to these vertices (used by the static
        partitioner for parallel runs). Chains only follow neighbors
        inside the subset, like a thread that only owns its block.

    Seeds go in ``np.argsort`` order (NaN last); a chain steps where
    ``np.argmin`` would (NaN first, ties to the lower index). Eligible
    vertices are relabeled by that step rank, their rows sorted by one
    1-D key sort, and :func:`~repro.mesh.csr.chain_walk` walks them.
    """
    n = mesh.num_vertices
    qualities = np.asarray(qualities, dtype=np.float64)
    if qualities.shape != (n,):
        raise ValueError(f"qualities must have shape ({n},)")
    todo = mesh.interior_vertices()
    if subset is not None:
        todo = todo[np.isin(todo, subset)]
    k = todo.size
    if k == 0:
        return np.empty(0, dtype=np.int64)
    q = qualities[todo]
    nan = np.isnan(q)
    by_rank = todo[np.lexsort((q, ~nan))]
    label = np.full(n, -1, dtype=np.int32)
    label[by_rank] = np.arange(k, dtype=np.int32)

    g = mesh.adjacency
    first = g.xadj[by_rank]
    lens = g.xadj[by_rank + 1] - first
    arc = np.arange(lens.sum()) + np.repeat(first - np.cumsum(lens) + lens, lens)
    cols = label.take(g.adjncy.take(arc))
    del arc, label
    src = np.repeat(np.arange(k, dtype=np.int32), lens)
    keep = cols >= 0
    src, cols = src[keep], cols[keep]
    keys = np.sort(src.astype(np.int64) * k + cols)
    del cols, src
    xadj = np.searchsorted(keys, np.arange(k + 1, dtype=np.int64) * k)
    np.remainder(keys, k, out=keys)
    nnan = int(np.count_nonzero(nan))
    seeds = np.roll(np.arange(k, dtype=np.int64), -nnan)
    heads, _ = chain_walk(xadj, keys, seeds, bytearray(k))
    return by_rank[heads]


TRAVERSALS = {"storage": storage_traversal, "greedy": greedy_traversal}


def make_traversal(
    name: str,
    mesh: TriMesh,
    qualities: np.ndarray | None = None,
    *,
    subset: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch on traversal name (``"storage"`` or ``"greedy"``)."""
    if name == "storage":
        return storage_traversal(mesh, qualities, subset=subset)
    if name == "greedy":
        if qualities is None:
            raise ValueError("greedy traversal requires qualities")
        return greedy_traversal(mesh, qualities, subset=subset)
    raise KeyError(f"unknown traversal {name!r}; choose from {sorted(TRAVERSALS)}")
