"""Independent brute-force oracles.

Everything here is deliberately naive: bounded walk enumeration, bounded
stack search, exhaustive word streams, and CYK word membership.  These
ground the expected values of the clever solvers and never share code with
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Sequence

from .graphs import Instance, Label
from .saturate import Grammar
from .words import is_dyck_prefix

PathEdge = tuple[int, Label, int]


@dataclass(frozen=True)
class EnumerationBudget:
    """Bounds for walk enumeration.  ``max_expansions`` caps the number of
    explored prefixes across the whole search (None = unlimited); hitting
    any cap sets the truncated flag instead of running forever on graphs
    where prefixes proliferate but full witnesses are rare."""

    max_path_length: int
    max_paths: int = 100_000
    max_expansions: Optional[int] = None


@dataclass(frozen=True)
class Enumeration:
    paths: tuple[tuple[PathEdge, ...], ...]
    truncated: bool


def _sorted_adjacency(inst: Instance) -> dict[int, list[tuple[Label, int]]]:
    adj: dict[int, list[tuple[Label, int]]] = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))
    for lst in adj.values():
        lst.sort()
    return adj


def enumerate_paths(inst: Instance, source: int, sink: int,
                    budget: EnumerationBudget,
                    predicate: Callable[[tuple[Label, ...]], bool],
                    prefix_ok: Optional[Callable[[tuple[Label, ...]], bool]] = None,
                    ) -> Enumeration:
    """All walks source -> sink of length <= max_path_length whose label
    satisfies the predicate, in length-lexicographic order, capped at
    max_paths.  ``prefix_ok`` prunes the search on partial labels; it must
    be prefix-closed and true on every prefix of an accepted label."""
    vertices = range(inst.graph.vertex_count)
    if source not in vertices or sink not in vertices:
        raise ValueError(f"endpoint out of range: ({source}, {sink})")
    adj = _sorted_adjacency(inst)
    found: list[tuple[PathEdge, ...]] = []
    truncated = False
    expansions = 0

    for length in range(budget.max_path_length + 1):
        if truncated:
            break

        def walk(at: int, left: int, edges: list[PathEdge],
                 labels: list[Label]) -> bool:
            nonlocal truncated, expansions
            if left == 0:
                if at == sink and predicate(tuple(labels)):
                    found.append(tuple(edges))
                    if len(found) >= budget.max_paths:
                        truncated = True
                        return False
                return True
            for lab, nxt in adj.get(at, ()):
                expansions += 1
                if budget.max_expansions is not None \
                        and expansions > budget.max_expansions:
                    truncated = True
                    return False
                labels.append(lab)
                if prefix_ok is None or prefix_ok(tuple(labels)):
                    edges.append((at, lab, nxt))
                    if not walk(nxt, left - 1, edges, labels):
                        labels.pop()
                        edges.pop()
                        return False
                    edges.pop()
                labels.pop()
            return True

        walk(source, length, [], [])
    return Enumeration(tuple(found), truncated)


def brute_dyck_reach(inst: Instance,
                     budget: EnumerationBudget) -> frozenset[tuple[int, int]]:
    """Pairs joined by a balanced-label walk of length <= the budget.

    Breadth-first over (vertex, bracket stack) states; independent of the
    saturation solvers.  Sound, and complete for witnesses within the
    budget.
    """
    adj: dict[int, list[tuple[Label, int]]] = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))

    pairs: set[tuple[int, int]] = set()
    for start in range(inst.graph.vertex_count):
        seen = {(start, ())}
        frontier = [(start, ())]
        pairs.add((start, start))
        for _ in range(budget.max_path_length):
            nxt = []
            for at, stack in frontier:
                for lab, to in adj.get(at, ()):
                    if lab.bar:
                        if not stack or stack[-1] != lab.matched():
                            continue
                        new_stack = stack[:-1]
                    else:
                        new_stack = stack + (lab,)
                    state = (to, new_stack)
                    if state not in seen:
                        seen.add(state)
                        nxt.append(state)
                        if not new_stack:
                            pairs.add((start, to))
            frontier = nxt
    return frozenset(pairs)


def exhaustive_words(labels: Sequence[Label], max_len: int,
                     predicate: Callable[[tuple[Label, ...]], bool],
                     ) -> Iterator[tuple[Label, ...]]:
    """All words over the given labels of length <= max_len satisfying the
    predicate, shortest first, lexicographic within a length."""
    labels = sorted(labels)
    for length in range(max_len + 1):
        for w in itertools.product(labels, repeat=length):
            if predicate(w):
                yield w


def factor_of_dyck_oracle(w: Sequence[Label]) -> bool:
    """Brute-force: is w a factor of some balanced two-pair word?

    Tries every all-opening prefix u with |u| <= |w| and checks that u.w is
    a valid balanced-word prefix by direct stack scan.  (If x.w.y is
    balanced, the stack contents after x give such a u, and w can pop at
    most |w| entries.)
    """
    w = tuple(w)
    opens = [Label("l", 1, False), Label("l", 2, False)]
    for k in range(len(w) + 1):
        for u in itertools.product(opens, repeat=k):
            if is_dyck_prefix(u + w):
                return True
    return False


def cyk_accepts(grammar: Grammar, word: Sequence[Label]) -> bool:
    """CYK membership for a binary-normal-form grammar with nullable
    nonterminals, via unit-closure through nullable siblings."""
    word = tuple(word)
    nullable = set(grammar.nullable)

    # A -> B C with C nullable acts as a unit rule A -> B (and symmetrically)
    changed = True
    while changed:
        changed = False
        for a, b, c in grammar.binary_rules:
            if a not in nullable and b in nullable and c in nullable:
                nullable.add(a)
                changed = True
    unit: dict[str, set[str]] = {a: {a} for a in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for a, b, c in grammar.binary_rules:
            for tgt in ((b,) if c in nullable else ()) + ((c,) if b in nullable else ()):
                before = len(unit[a])
                unit[a] |= unit[tgt]
                changed = changed or len(unit[a]) != before

    def closed(nts: set[str]) -> set[str]:
        return {a for a in grammar.nonterminals if unit[a] & nts}

    n = len(word)
    if n == 0:
        return grammar.start in nullable

    table: dict[tuple[int, int], set[str]] = {}
    for i in range(n):
        base = {a for a, lab in grammar.terminal_rules if lab == word[i]}
        table[(i, i + 1)] = closed(base)
    for span in range(2, n + 1):
        for i in range(n - span + 1):
            j = i + span
            cell: set[str] = set()
            for k in range(i + 1, j):
                left, right = table[(i, k)], table[(k, j)]
                for a, b, c in grammar.binary_rules:
                    if b in left and c in right:
                        cell.add(a)
            table[(i, j)] = closed(cell)
    return grammar.start in table[(0, n)]


def bfs_distances(vertex_count: int, arcs: set[tuple[int, int]],
                  source: int) -> dict[int, int]:
    """Plain breadth-first distances in an unlabeled digraph."""
    adj: dict[int, list[int]] = {}
    for u, v in arcs:
        adj.setdefault(u, []).append(v)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, ()):
                if v not in dist:
                    dist[v] = dist[u] + 1
                    nxt.append(v)
        frontier = nxt
    return dist


def enumerate_nominal_paths(red, tag: tuple, budget: EnumerationBudget,
                            ) -> tuple[tuple[tuple[Label, ...], ...], bool]:
    """Labels of approximate-bracket nominal paths of one tag in an
    undirected-gadget target.

    ``tag`` is either ``("loop", x)`` for stutter loops at x, or
    ``("edge", x, label, y)`` for chain traversals of one source edge.
    Pruned by membership of the partial label in the factor language (which
    is factor-closed, so the pruning is sound).  The reduced partial label
    is kept as a stack that is pushed and popped with the search, so each
    step costs O(1).
    """
    if red.kind != "dyck2_to_undirected":
        raise ValueError("nominal enumeration needs an undirected-gadget target")
    inst = red.target
    if tag[0] == "loop":
        x = tag[1]
        start = finish = x
        allowed_interior = None  # any non-original vertex works, labels 0/0bar

        def edge_ok(lab: Label) -> bool:
            return lab.index == 1
    elif tag[0] == "edge":
        _, x, lab0, y = tag
        start, finish = x, y
        allowed_interior = {red.vertex_id((x, lab0, y, i)) for i in range(1, 12)}

        def edge_ok(lab: Label) -> bool:
            return True
    else:
        raise ValueError(f"unknown tag {tag!r}")

    original = {i for i, name in enumerate(red.names) if len(name) == 1}
    adj = _sorted_adjacency(inst)
    results: list[tuple[Label, ...]] = []
    truncated = False
    expansions = 0
    labels: list[Label] = []
    # Normal form of ``labels`` under open-then-close cancellation.  Every
    # walked prefix is a factor word, so this is closing letters followed
    # by opening letters.
    reduced: list[Label] = []

    def walk(at: int, steps_left: int):
        nonlocal truncated, expansions
        if truncated:
            return
        if labels and at == finish:
            # chain traversals must touch the second pair; a pair-1-only
            # return (possible on a self-loop chain) is a stutter loop
            if tag[0] == "loop" or any(lab.index == 2 for lab in labels):
                results.append(tuple(labels))
                if len(results) >= budget.max_paths:
                    truncated = True
            return  # nominal paths stop at the first original endpoint
        if steps_left == 0:
            return
        for lab, nxt in adj.get(at, ()):
            if not edge_ok(lab):
                continue
            expansions += 1
            if budget.max_expansions is not None \
                    and expansions > budget.max_expansions:
                truncated = True
                return
            if nxt in original and nxt != finish:
                continue
            if allowed_interior is not None and nxt not in original \
                    and nxt not in allowed_interior:
                continue
            # A closing letter after an opening one cancels it if it is
            # its partner and leaves the factor language otherwise.
            cancelled = None
            if lab.bar and reduced and not reduced[-1].bar:
                top = reduced[-1]
                if top.index != lab.index or top.base != lab.base:
                    continue
                cancelled = reduced.pop()
            else:
                reduced.append(lab)
            labels.append(lab)
            walk(nxt, steps_left - 1)
            labels.pop()
            if cancelled is None:
                reduced.pop()
            else:
                reduced.append(cancelled)

    walk(start, budget.max_path_length)
    return tuple(results), truncated
