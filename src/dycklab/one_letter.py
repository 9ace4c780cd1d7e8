"""Specialized solvers for the one-pair bracket alphabet.

For undirected graphs, a balanced path from s to t (s != t) exists exactly
when s has an incident opening edge, t has an incident closing edge, and an
even-length walk joins s and t.  ``ParityIndex`` keeps that answer current
under updates, with the owned-instance contract of ``saturate.ReachIndex``;
``prop1_check`` answers the marked pair once.

The distance gadget turns breadth-first distance in a plain digraph into
one-pair bracket reachability: label every edge with the opener, add an
opener self-loop at each vertex, and hang a closing chain of length n off
every vertex; distance(s, t) = k iff (t, k) is reachable but (t, k-1) is
not.
"""

from __future__ import annotations

from typing import NamedTuple

from .graphs import (Alphabet, Instance, Label, LabeledGraph, UpdateOp,
                     apply_update)

OPEN1 = Label("l", 1, False)
CLOSE1 = Label("l", 1, True)


class _UnionFind:
    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a: int, b: int):
        self.parent[self.find(b)] = self.find(a)


class ParityIndex:
    """Balanced reachability on an undirected one-pair instance it owns,
    kept current under ``apply``.  ``uf`` joins node ``2 * v + p`` (vertex
    ``v`` after a walk of parity ``p``) across every edge: an insertion is
    two merges, a deletion rebuilds from the surviving edges.  A merge is
    idempotent, so an l1 and an l1bar edge on the same two vertices need no
    special case.  ``openers`` and ``closers`` are the bitsets of the
    vertices with an incident opening and closing edge: an insertion sets
    its endpoints' bits and a deletion rebuilds them with ``uf``."""

    def __init__(self, inst: Instance):
        g = inst.graph
        if g.directed:
            raise ValueError("characterization applies to undirected graphs only")
        if g.alphabet != Alphabet("dyck", 1):
            raise ValueError("characterization applies to the one-pair alphabet")
        self.inst = inst
        self._rebuild()

    def _rebuild(self):
        self.uf = _UnionFind(2 * self.inst.graph.vertex_count)
        self.openers = self.closers = 0
        for u, lab, v in self.inst.graph.edges:
            self._insert(u, lab, v)

    def _insert(self, u: int, lab: Label, v: int):
        self.uf.union(2 * u, 2 * v + 1)
        self.uf.union(2 * u + 1, 2 * v)
        ends = 1 << u | 1 << v
        if lab == OPEN1:
            self.openers |= ends
        else:
            self.closers |= ends

    def apply(self, op: UpdateOp):
        """Apply one update to the owned instance (a rejected update raises
        and changes nothing)."""
        self.inst = apply_update(self.inst, op)
        if op.op == "ins":
            self._insert(op.u, op.label, op.v)
        elif op.op == "del":
            self._rebuild()

    def query(self, s: int, t: int) -> bool:
        """Whether a balanced walk joins ``s`` to ``t`` (``s = t`` is a
        trivial yes): ``s`` has an incident opening edge, ``t`` an incident
        closing edge, and an even-length walk joins them."""
        n = self.inst.graph.vertex_count
        if not (0 <= s < n and 0 <= t < n):
            return False
        return s == t or bool(
            self.openers >> s & 1 and self.closers >> t & 1
            and self.uf.find(2 * s) == self.uf.find(2 * t))


def prop1_check(inst: Instance) -> bool:
    """Balanced reachability of the marked pair on an undirected one-pair
    instance, by the three-condition characterization."""
    return ParityIndex(inst).query(inst.source, inst.sink)


class DistanceGadget(NamedTuple):
    """One-pair labeled extension of a plain digraph for distance queries."""

    instance: Instance
    original_count: int

    def chain_vertex(self, v: int, k: int) -> int:
        """Gadget id of (v, k) for 1 <= k <= original_count."""
        n = self.original_count
        if not (0 <= v < n and 1 <= k <= n):
            raise ValueError(f"no chain vertex ({v}, {k})")
        return n + v * n + (k - 1)


def build_distance_gadget(vertex_count: int,
                          arcs: set[tuple[int, int]]) -> DistanceGadget:
    """Extend a plain digraph (vertices 0..N-1, unlabeled arcs) with opener
    self-loops and per-vertex closing chains of length N."""
    if vertex_count < 1:
        raise ValueError("need at least one vertex")
    n = vertex_count
    edges = []
    for u, v in arcs:
        edges.append((u, OPEN1, v))
    for v in range(n):
        edges.append((v, OPEN1, v))  # padding self-loop
        prev = v
        for k in range(1, n + 1):
            chain = n + v * n + (k - 1)
            edges.append((prev, CLOSE1, chain))
            prev = chain
    graph = LabeledGraph.build(True, n + n * n, Alphabet("dyck", 1), edges)
    return DistanceGadget(Instance(graph, 0, 0), n)
