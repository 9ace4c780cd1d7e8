"""Alternating reachability as a least fixed point, with its proof-level
companions: the growth layers of the fixpoint, well-ordered vertex
sequences, and the minimal-sequence index.
"""

from __future__ import annotations

from typing import AbstractSet, NamedTuple, Optional, Sequence

from .graphs import Instance


class FixpointTrace(NamedTuple):
    """Layers X_0 subset X_1 subset ... of the fixpoint computation and the
    first layer each member joins."""

    layers: tuple[frozenset[int], ...]
    first_layer: dict[int, int]

    def member(self, x: int) -> bool:
        return x in self.first_layer


def _successors(inst: Instance) -> list[set[int]]:
    succ: list[set[int]] = [set() for _ in range(inst.graph.vertex_count)]
    for u, _lab, v in inst.graph.directed_edges():
        succ[u].add(v)
    return succ


def _ready(inst: Instance, succ: list[set[int]], v: int,
           members: AbstractSet[int]) -> bool:
    """The and/or rule: an or-vertex joins once one successor is a member,
    an and-vertex once all of them are."""
    if inst.partition[v] == "or":
        return not succ[v].isdisjoint(members)
    return succ[v] <= members


def solve_alternating(inst: Instance) -> tuple[bool, FixpointTrace]:
    """Does the source belong to the least set X containing the sink and
    closed under exists-successor at or-vertices and forall-successor at
    and-vertices?  Round-based evaluation; the rounds are the layers."""
    if inst.partition is None:
        raise ValueError("alternating reachability needs an and/or partition")
    succ = _successors(inst)
    n = inst.graph.vertex_count
    current = {inst.sink}
    layers = [frozenset(current)]
    first_layer = {inst.sink: 0}
    while True:
        nxt = set(current)
        for x in range(n):
            if x not in nxt and _ready(inst, succ, x, current):
                nxt.add(x)
        if nxt == current:
            break
        for x in nxt - current:
            first_layer[x] = len(layers)
        current = nxt
        layers.append(frozenset(current))
    return inst.source in current, FixpointTrace(tuple(layers), first_layer)


def is_well_ordered(seq: Sequence[int], inst: Instance) -> bool:
    """Does the sequence start at the sink, each or-vertex having a
    successor in its prefix and each and-vertex all successors there?"""
    if inst.partition is None:
        raise ValueError("well-orderedness needs an and/or partition")
    if not seq or seq[0] != inst.sink:
        return False
    succ = _successors(inst)
    prefix: set[int] = set()
    for i, w in enumerate(seq):
        if i > 0 and not _ready(inst, succ, w, prefix):
            return False
        prefix.add(w)
    return True


_KAPPA_VERTEX_LIMIT = 12


def kappa(x: int, inst: Instance) -> Optional[int]:
    """Smallest k such that x appears in a well-ordered sequence
    w_0, ..., w_k, or None if there is none.

    Appending a vertex only depends on the set of vertices already placed,
    so the search runs breadth-first over buildable vertex sets; it exists
    to validate the layer bound on desk-scale instances and refuses large
    ones.
    """
    n = inst.graph.vertex_count
    if n > _KAPPA_VERTEX_LIMIT:
        raise ValueError(f"index search is limited to {_KAPPA_VERTEX_LIMIT} vertices")
    if inst.partition is None:
        raise ValueError("index search needs an and/or partition")
    succ = _successors(inst)

    best: dict[int, int] = {inst.sink: 0}
    start = frozenset({inst.sink})
    frontier = [start]
    seen = {start}
    while frontier:
        nxt = []
        for members in frontier:
            for v in range(n):
                if v in members or not _ready(inst, succ, v, members):
                    continue
                grown = members | {v}
                if v not in best:
                    best[v] = len(members)  # position k of v in the sequence
                if grown not in seen:
                    seen.add(grown)
                    nxt.append(grown)
        frontier = nxt
    return best.get(x)
