"""Sloan's profile-reduction ordering.

Sloan (IJNME 1986) orders vertices to minimise the matrix *profile* by a
priority queue mixing global distance-to-end and local degree-of-
activity — for decades the standard ordering for finite-element meshes
and a natural extra baseline for the paper's study (its profile
objective is a cousin of the reuse-distance objective RDR targets).

Priority of a candidate vertex v:
    P(v) = -W1 * incr(v) + W2 * dist(v)
where ``incr(v)`` is the increase of the active front if v is numbered
next (current degree towards unnumbered vertices), ``dist(v)`` is the
graph distance to a pseudo-peripheral end vertex, and W1/W2 the classic
weights (2, 1). Vertices move through the states inactive ->
preactive -> active -> numbered.

The heap is inherently sequential and has no batched registration:
``order_engine="batched"`` falls back to :func:`sloan_ordering`.
"""

from __future__ import annotations

import heapq
from collections import deque

import numpy as np

from ..mesh import TriMesh
from .base import register_ordering
from .traversals import _pseudo_peripheral

__all__ = ["sloan_ordering"]

_INACTIVE, _PREACTIVE, _ACTIVE, _NUMBERED = 0, 1, 2, 3


def _bfs_distance(xadj, adjncy, n, start):
    dist = np.full(n, -1, dtype=np.int64)
    dist[start] = 0
    q = deque([start])
    while q:
        v = q.popleft()
        for w in adjncy[xadj[v] : xadj[v + 1]]:
            if dist[w] == -1:
                dist[w] = dist[v] + 1
                q.append(int(w))
    return dist


def _number_component(
    xadj: np.ndarray,
    adjncy: np.ndarray,
    status: np.ndarray,
    order: np.ndarray,
    pos: int,
    remaining: np.ndarray,
    dist_to_end: np.ndarray,
    start: int,
    w1: int,
    w2: int,
) -> int:
    """Number one component from ``start``; returns the new ``pos``."""
    # Current degree towards not-yet-numbered vertices + 1 if the
    # vertex itself is not yet active (Sloan's incr definition).
    cdeg = np.diff(xadj).astype(np.int64)
    # Invariant lookups hoisted out of the priority computation: the
    # distance term never changes, so fold the weight in once.
    dist_term = w2 * dist_to_end

    counter = 0  # tie-break, keeps the heap deterministic
    heap: list[tuple[int, int, int]] = []
    push = heapq.heappush

    def priority(v: int) -> int:
        incr = cdeg[v] + (1 if status[v] == _PREACTIVE else 2)
        return w1 * incr - int(dist_term[v])

    status[start] = _PREACTIVE
    push(heap, (priority(start), counter, start))
    counter += 1

    while heap:
        _, _, v = heapq.heappop(heap)
        if status[v] == _NUMBERED:
            continue
        if status[v] == _INACTIVE:
            continue
        row = adjncy[xadj[v] : xadj[v + 1]]
        if status[v] == _PREACTIVE:
            # Its inactive neighbors become preactive (incr uses the
            # pre-decrement degree + 1).
            for w in row:
                if status[w] == _INACTIVE:
                    status[w] = _PREACTIVE
                    push(heap, (priority(int(w)), counter, int(w)))
                    counter += 1
        status[v] = _NUMBERED
        order[pos] = v
        pos += 1
        remaining[v] = False
        for w in row.tolist():
            cdeg[w] -= 1
            if status[w] in (_PREACTIVE, _ACTIVE):
                status[w] = _ACTIVE
                push(heap, (priority(w), counter, w))
                counter += 1
            elif status[w] == _INACTIVE:
                status[w] = _PREACTIVE
                push(heap, (priority(w), counter, w))
                counter += 1
    return pos


@register_ordering("sloan")
def sloan_ordering(
    mesh: TriMesh,
    *,
    seed: int = 0,
    qualities=None,
    w1: int = 2,
    w2: int = 1,
) -> np.ndarray:
    """Sloan's algorithm; handles disconnected meshes component-wise."""
    g = mesh.adjacency
    xadj, adjncy = g.xadj, g.adjncy
    n = mesh.num_vertices
    if n == 0:
        return np.empty(0, dtype=np.int64)

    order = np.empty(n, dtype=np.int64)
    status = np.full(n, _INACTIVE, dtype=np.int8)
    pos = 0

    remaining = np.ones(n, dtype=bool)
    while remaining.any():
        start = int(np.flatnonzero(remaining)[0])
        start = _pseudo_peripheral(xadj, adjncy, n, start)
        # Restrict the end-distance field to this component.
        dist = _bfs_distance(xadj, adjncy, n, start)
        component = np.flatnonzero(dist >= 0)
        end = int(component[np.argmax(dist[component])])
        dist_to_end = _bfs_distance(xadj, adjncy, n, end)
        pos = _number_component(
            xadj, adjncy, status, order, pos, remaining, dist_to_end,
            start, w1, w2,
        )
    assert pos == n
    return order
