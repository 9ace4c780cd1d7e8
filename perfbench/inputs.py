"""Seeded input generators for the benchmark.

Everything here is plain Python over tuples and strings and imports nothing
from dycklab: the program only ever sees the files written from these
objects.  A graph is a ``Graph`` (edges as ``(u, token, v)`` triples); a
script is a list of ops, each ``("query",)`` or ``("ins"|"del", u, token,
v)``.  The same seed always gives the same inputs.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Optional

DYCK2 = ("l1", "l1bar", "l2", "l2bar")


@dataclass(frozen=True)
class Graph:
    directed: bool
    n: int
    alphabet: str  # "dyck 2", "dyck 1" or "neardyck <n>"
    edges: tuple[tuple[int, str, int], ...]
    source: int
    sink: int
    ands: Optional[tuple[int, ...]] = None  # alternating instances only

    def text(self) -> str:
        out = [f"graph {'directed' if self.directed else 'undirected'}",
               f"vertices {self.n}", f"alphabet {self.alphabet}"]
        out += [f"edge {u} {lab} {v}" for u, lab, v in self.edges]
        out.append(f"mark {self.source} {self.sink}")
        if self.ands is not None:
            out.append(" ".join(["partition and", *map(str, self.ands)]))
        return "\n".join(out) + "\n"


def script_text(ops) -> str:
    return "".join(" ".join(map(str, op)) + "\n" for op in ops)


def updates_of(ops) -> int:
    return sum(1 for op in ops if op[0] != "query")


def _sample_edges(rng: random.Random, slots: list, m: int):
    return tuple(sorted(rng.sample(slots, m)))


# ---------------------------------------------------------------------------
# replay: directed two-pair graphs of 40-60 vertices

REPLAY_DENSITY = 2.5      # edges per vertex
REPLAY_BLOCKS = 6         # each block: REPLAY_BLOCK_UPDATES updates, 1 query
REPLAY_BLOCK_UPDATES = 4


def replay_case(rng: random.Random, i: int, churn: bool):
    """Graph ``i`` of a replay family and its 30-op script.  Vertex counts
    cycle through 40..60 so every run sees the same spread of sizes.

    ``grow`` updates insert absent edges only; ``churn`` updates delete a
    present edge or insert an absent one with equal odds, so the edge count
    stays level.  A churn script holds exactly as many deletions as
    insertions, in random order: the deletion count sets a script's cost,
    and fixing it keeps the family's cost the same from seed to seed."""
    n = 40 + i % 21

    def absent_edge():
        while True:
            e = (rng.randrange(n), rng.choice(DYCK2), rng.randrange(n))
            if e not in present:
                return e

    present: set = set()
    for _ in range(round(REPLAY_DENSITY * n)):
        present.add(absent_edge())
    graph = Graph(True, n, "dyck 2", tuple(sorted(present)), rng.randrange(n),
                  rng.randrange(n))
    updates = REPLAY_BLOCKS * REPLAY_BLOCK_UPDATES
    deletes = [churn and k % 2 == 0 for k in range(updates)]
    rng.shuffle(deletes)
    ops = []
    for b in range(REPLAY_BLOCKS):
        for k in range(REPLAY_BLOCK_UPDATES):
            if deletes[b * REPLAY_BLOCK_UPDATES + k]:
                e = rng.choice(sorted(present))
                present.remove(e)
                ops.append(("del", *e))
            else:
                e = absent_edge()
                present.add(e)
                ops.append(("ins", *e))
        ops.append(("query",))
    return graph, ops


# ---------------------------------------------------------------------------
# equiv: the three reduction lanes, at the acceptance test's sizes

EQUIV_OPS = 30
EQUIV_QUERY_EVERY = 3     # ops 3, 6, ..., 30 are queries


EQUIV_DELETE_EVERY = 5    # updates 5, 10, 15, 20 delete a present edge


def _lane_script(rng: random.Random, graph: Graph, labels):
    """Strict 30-op script: 10 queries and 20 updates, of which every fifth
    deletes a random present edge and the others insert a random absent
    one.  Fixing the mix fixes most of a script's cost; where no edge is
    present (or none absent) the update does the other thing."""
    slots = [(u, lab, v) for u in range(graph.n) for lab in labels
             for v in range(graph.n)]
    present = set(graph.edges)
    ops = []
    updates = 0
    for k in range(1, EQUIV_OPS + 1):
        if k % EQUIV_QUERY_EVERY == 0:
            ops.append(("query",))
            continue
        updates += 1
        absent = len(slots) - len(present)
        if present and (updates % EQUIV_DELETE_EVERY == 0 or not absent):
            e = rng.choice(sorted(present))
            present.remove(e)
            ops.append(("del", *e))
        else:
            e = rng.choice([e for e in slots if e not in present])
            present.add(e)
            ops.append(("ins", *e))
    return ops


def alt_case(rng: random.Random, i: int):
    """Alternating graph of 1..8 vertices, arcs labelled l1 only, 30 % of
    the arc slots present, random and/or partition."""
    n = 1 + i % 8
    slots = [(u, "l1", v) for u in range(n) for v in range(n)]
    edges = _sample_edges(rng, slots, round(0.3 * len(slots)))
    ands = tuple(x for x in range(n) if rng.random() < 0.5)
    graph = Graph(True, n, "dyck 1", edges, rng.randrange(n), rng.randrange(n),
                  ands)
    return graph, _lane_script(rng, graph, ("l1",))


def neardyck_case(rng: random.Random, i: int):
    """Per-vertex-bracket graph of 1..6 vertices, 25 % of slots present."""
    n = 1 + i % 6
    labels = [f"v{k}{bar}" for k in range(n) for bar in ("", "bar")] + ["dot"]
    slots = [(u, lab, v) for u in range(n) for lab in labels for v in range(n)]
    edges = _sample_edges(rng, slots, round(0.25 * len(slots)))
    graph = Graph(True, n, f"neardyck {n}", edges, rng.randrange(n),
                  rng.randrange(n))
    return graph, _lane_script(rng, graph, labels)


def dyck2_case(rng: random.Random, i: int):
    """Directed two-pair graph of 1..5 vertices, 15 % of slots present."""
    n = 1 + i % 5
    slots = [(u, lab, v) for u in range(n) for lab in DYCK2 for v in range(n)]
    edges = _sample_edges(rng, slots, max(1, round(0.15 * len(slots))))
    graph = Graph(True, n, "dyck 2", edges, rng.randrange(n), rng.randrange(n))
    return graph, _lane_script(rng, graph, DYCK2)


# ---------------------------------------------------------------------------
# lemmas: sources of compiled dyck2_to_undirected gadgets

LEMMA_SOURCE_SEED = 0


def lemma_sources():
    """The fixed set of gadget sources, the same for every seed, drawn once
    from the acceptance test's families: the worked 4-edge cycle, the four
    one-edge 2-vertex graphs with an l2bar edge, two two-edge 2-vertex
    graphs and one three-edge 3-vertex graph.  Marks are (0, n-1), as in
    the acceptance test.  The one-edge gadgets' suite calls all take about
    the same time and make up the middle of the call times, so the median
    call lies inside that group rather than between two groups.

    At the acceptance budgets ``suite_lemma7`` checks something only on
    sources with an l2bar edge: the nominal enumeration of an l1bar chain
    spends its 20,000 expansions without finding a path, and opening
    chains have no closing partner.  All drawn sources carry an l2bar
    edge; one more source, ``0 l1bar 1``, is kept so that the vacuous pass
    shows as a failed call in every round."""
    rng = random.Random(LEMMA_SOURCE_SEED)

    def checkable(edges) -> bool:
        return any(lab == "l2bar" for _u, lab, _v in edges)

    slots2 = [(u, lab, v) for u in range(2) for v in range(2) for lab in DYCK2]
    slots3 = [(u, lab, v) for u in range(3) for v in range(3) for lab in DYCK2]
    cycle = ((0, "l1", 1), (0, "l2", 1), (1, "l1bar", 0), (1, "l2bar", 0))
    out = [Graph(True, 2, "dyck 2", cycle, 0, 0),
           Graph(True, 2, "dyck 2", ((0, "l1bar", 1),), 0, 1)]
    out += [Graph(True, 2, "dyck 2", (e,), 0, 1)
            for e in slots2 if checkable([e])]
    pairs = [p for p in itertools.combinations(slots2, 2) if checkable(p)]
    out += [Graph(True, 2, "dyck 2", p, 0, 1) for p in rng.sample(pairs, 2)]
    while True:
        edges = _sample_edges(rng, slots3, 3)
        if checkable(edges):
            return out + [Graph(True, 3, "dyck 2", edges, 0, 2)]
