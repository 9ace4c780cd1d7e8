"""Independent brute-force oracles.

Bounded walk enumeration, bounded stack search, exhaustive word streams,
and CYK word membership.  These ground the expected values of the clever
solvers and never share code with them.

The two walk enumerators are plain depth-first searches with one shortcut:
a per-call table of dead subtrees (a transposition table for depth-bounded
search; Reinefeld & Marsland, IEEE TPAMI 1994).  A subtree is dead when it
appended no walk and was not cut by a cap; the table maps its key, which
holds everything the subtree can observe, to the expansions it used.  Met
again, the subtree is not re-walked: its count is added, and if that would
cross the expansion cap the search is truncated there, as the re-walk would
have been, having found nothing more.  A subtree that found a walk is never
stored, so every result still comes from the walk itself, in the same order
and with the same truncated flag as the untabled search.
"""

from __future__ import annotations

import itertools
import math
import sys
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .graphs import Instance, Label
from .words import is_dyck_prefix

PathEdge = tuple[int, Label, int]


class _BudgetFields(NamedTuple):
    max_path_length: int
    max_paths: int = 100_000
    max_expansions: Optional[int] = None


class EnumerationBudget(_BudgetFields):
    """Bounds for walk enumeration.  ``max_expansions`` caps the number of
    explored prefixes across the whole search (None = unlimited); hitting
    any cap sets the truncated flag instead of running forever on graphs
    where prefixes proliferate but full witnesses are rare."""

    __slots__ = ()

    def __new__(cls, max_path_length: int, max_paths: int = 100_000,
                max_expansions: Optional[int] = None):
        # the enumerators keep a path before they test the cap, so a cap
        # of zero paths could not be honoured
        if max_paths < 1:
            raise ValueError(f"max_paths must be at least 1, got {max_paths}")
        if max_path_length < 0:
            raise ValueError(f"max_path_length must be non-negative, "
                             f"got {max_path_length}")
        if max_expansions is not None and max_expansions < 0:
            raise ValueError(f"max_expansions must be non-negative, "
                             f"got {max_expansions}")
        return super().__new__(cls, max_path_length, max_paths, max_expansions)


class Enumeration(NamedTuple):
    paths: tuple[tuple[PathEdge, ...], ...]
    truncated: bool


def _sorted_adjacency(inst: Instance) -> dict[int, list[tuple[Label, int]]]:
    adj: dict[int, list[tuple[Label, int]]] = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))
    for lst in adj.values():
        lst.sort()
    return adj


def _check_depth(max_path_length: int):
    """Reject a ``max_path_length`` that a walk search started by the
    caller, one recursion per step, cannot reach within the recursion
    limit, keeping 10 frames for the deepest step's own calls."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit() - depth - 10
    if max_path_length > limit:
        raise ValueError(f"max_path_length {max_path_length} is beyond the "
                         f"walk search's depth limit of {limit} steps")


def enumerate_paths(inst: Instance, source: int, sink: int,
                    budget: EnumerationBudget, balanced: bool = False,
                    ) -> Enumeration:
    """All walks source -> sink of length <= max_path_length, in
    length-lexicographic order, capped at max_paths.

    With ``balanced``, only walks whose label is a balanced word (as
    ``words.is_dyck``: ``dot`` never is).  The search then keeps the
    unmatched opening letters of the partial label on its own stack,
    pushed and popped with the walk, and does not extend a prefix that no
    word completes to a balanced one, so each step costs O(1).  A pruned
    step still counts as an expansion.

    Dead subtrees are tabled (see the module docstring), one table across
    all lengths, under ``(vertex, left, tuple(stack[-(left + 1):]))``: with
    ``left`` steps to go, a subtree can pop at most ``left`` letters, and
    one more tells whether the stack can still empty.  Without
    ``balanced`` the stack stays empty.
    """
    vertices = range(inst.graph.vertex_count)
    if source not in vertices or sink not in vertices:
        raise ValueError(f"endpoint out of range: ({source}, {sink})")
    _check_depth(budget.max_path_length)
    # Per vertex, (edge, letter, target).  The letter is +k for an opening
    # label and -k for its partner, k numbering the (base, index) pairs;
    # dot is 0.
    pair_ids: dict[tuple[str, int], int] = {}
    moves: dict[int, tuple[tuple[PathEdge, int, int], ...]] = {}
    for u, adj in _sorted_adjacency(inst).items():
        out = []
        for lab, v in adj:
            letter = 0
            if lab.base != "dot":
                letter = pair_ids.setdefault((lab.base, lab.index),
                                             len(pair_ids) + 1)
                if lab.bar:
                    letter = -letter
            out.append(((u, lab, v), letter, v))
        moves[u] = tuple(out)
    cap = math.inf if budget.max_expansions is None else budget.max_expansions
    max_paths = budget.max_paths
    found: list[tuple[PathEdge, ...]] = []
    truncated = False
    expansions = 0
    edges: list[PathEdge] = []
    stack: list[int] = []  # stays empty unless balanced
    dead: dict[tuple, int] = {}  # key -> expansions of a dead subtree

    def walk(at: int, left: int) -> bool:
        nonlocal truncated, expansions
        if left == 0:
            if at == sink and not stack:
                found.append(tuple(edges))
                if len(found) >= max_paths:
                    truncated = True
                    return False
            return True
        key = (at, left, tuple(stack[-left - 1:]))
        count = dead.get(key)
        if count is not None:
            if expansions + count > cap:
                truncated = True
                return False
            expansions += count
            return True
        before, paths_before = expansions, len(found)
        for edge, letter, nxt in moves.get(at, ()):
            expansions += 1
            if expansions > cap:
                truncated = True
                return False
            if balanced:
                if letter > 0:
                    stack.append(letter)
                elif letter and stack and stack[-1] == -letter:
                    stack.pop()
                else:
                    continue
            edges.append(edge)
            ok = walk(nxt, left - 1)
            edges.pop()
            if balanced:
                if letter > 0:
                    stack.pop()
                else:
                    stack.append(-letter)
            if not ok:
                return False
        if len(found) == paths_before:
            dead[key] = expansions - before
        return True

    for length in range(budget.max_path_length + 1):
        if truncated:
            break
        walk(source, length)
    return Enumeration(tuple(found), truncated)


def brute_dyck_reach(inst: Instance, budget: EnumerationBudget,
                     ) -> tuple[frozenset[tuple[int, int]], bool]:
    """Pairs joined by a balanced-label walk of length <= the budget, and
    whether the search stopped early.

    Breadth-first over (vertex, bracket stack) states; the neutral symbol
    ``dot`` leaves the stack as it is.  Independent of the saturation
    solvers.  Sound, and complete for witnesses within the budget.  Each
    edge tried from a state is one expansion; the search stops at the
    first one past ``budget.max_expansions`` and returns the pairs found
    so far, truncated.
    """
    adj: dict[int, list[tuple[Label, int]]] = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))

    cap = math.inf if budget.max_expansions is None else budget.max_expansions
    expansions = 0
    pairs: set[tuple[int, int]] = set()
    for start in range(inst.graph.vertex_count):
        seen = {(start, ())}
        frontier = [(start, ())]
        pairs.add((start, start))
        for _ in range(budget.max_path_length):
            nxt = []
            for at, stack in frontier:
                for lab, to in adj.get(at, ()):
                    expansions += 1
                    if expansions > cap:
                        return frozenset(pairs), True
                    if lab.base == "dot":
                        new_stack = stack
                    elif lab.bar:
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
    return frozenset(pairs), False


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
    """Is w a factor of some balanced two-pair word?

    If x.w.y is balanced, each closer of w that finds no opener of w left
    to match pops its partner from x, innermost first, and nothing else in
    x matters.  So one all-opening prefix is forced: u, the partners of w's
    unmatched closers in reverse order (each of pair 1 or 2), and w is a
    factor iff u.w is a valid balanced-word prefix, by direct stack scan.
    """
    w = tuple(w)
    depth, partners = 0, []
    for lab in w:
        if not lab.bar:
            depth += 1
        elif depth:
            depth -= 1  # a mismatch here fails the scan below, whatever u
        elif lab.base == "l" and lab.index in (1, 2):
            partners.append(lab.matched())
        else:
            return False  # no two-pair opener matches it
    return is_dyck_prefix(tuple(partners[::-1]) + w)


def cyk_accepts(grammar, word: Sequence[Label]) -> bool:
    """CYK membership for a binary-normal-form grammar (a
    ``saturate.Grammar``) with nullable nonterminals, via unit-closure
    through nullable siblings."""
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
    is factor-closed, so the pruning is sound).  The moves of the tag are
    compiled once per call, one tuple per vertex, and the opening letters
    of the reduced partial label are kept as a stack that is pushed and
    popped with the search, so each step costs O(1).  The stack is one
    base-3 numeral, its top letter the last digit; letters are 1 or 2, so
    no digit is 0, the empty stack is 0, and each numeral names exactly
    one stack.

    Dead subtrees are tabled (see the module docstring) under
    ``(vertex, steps_left, opens, crossed)``.  ``opens`` is the numeral
    modulo ``3 ** steps_left``, which names the top ``steps_left`` letters
    of the stack, all that a subtree can pop.
    ``crossed`` says whether the prefix holds a pair-2 letter, which
    decides whether a chain traversal is kept, and is always true for a
    stutter loop.
    """
    if red.kind != "dyck2_to_undirected":
        raise ValueError("nominal enumeration needs an undirected-gadget target")
    inst = red.target
    if tag[0] == "loop":
        x = tag[1]
        start = finish = x
        loop = True
        allowed_interior = None  # any non-original vertex works, labels 0/0bar
    elif tag[0] == "edge":
        _, x, lab0, y = tag
        start, finish = x, y
        loop = False
        allowed_interior = {red.vertex_id((x, lab0, y, i)) for i in range(1, 12)}
    else:
        raise ValueError(f"unknown tag {tag!r}")
    _check_depth(budget.max_path_length)

    original = {i for i, name in enumerate(red.names) if len(name) == 1}
    # Per vertex, the tag's moves (label, letter, target, may step).  The
    # letter is +k for l_k and -k for l_k-bar: the target alphabet is
    # dyck 2, so every base is "l" and the index alone decides partners.
    # A stutter loop only reads pair 1.  A walk stops at the first original
    # vertex, so it may step onto no original vertex but the finish, and a
    # chain traversal onto no other chain's interior; such a move still
    # counts as an expansion.
    moves: dict[int, tuple[tuple[Label, int, int, bool], ...]] = {}
    for u, adj in _sorted_adjacency(inst).items():
        out = []
        for lab, v in adj:
            if loop and lab.index != 1:
                continue
            if v in original:
                may_step = v == finish
            else:
                may_step = allowed_interior is None or v in allowed_interior
            out.append((lab, -lab.index if lab.bar else lab.index, v, may_step))
        moves[u] = tuple(out)
    cap = math.inf if budget.max_expansions is None else budget.max_expansions
    results: list[tuple[Label, ...]] = []
    truncated = False
    expansions = 0
    labels: list[Label] = []
    # The opening letters of the normal form of ``labels`` under
    # open-then-close cancellation, as a base-3 numeral.  Every walked
    # prefix is a factor word, so that form is closing letters followed by
    # opening letters, and its closing letters can never cancel: they are
    # not kept.
    code = 0
    powers = [3 ** k for k in range(budget.max_path_length + 1)]
    dead: dict[tuple, int] = {}  # key -> expansions of a dead subtree

    def walk(at: int, steps_left: int, crossed: bool):
        nonlocal truncated, expansions, code
        if labels and at == finish:
            # chain traversals must touch the second pair; a pair-1-only
            # return (possible on a self-loop chain) is a stutter loop
            if crossed:
                results.append(tuple(labels))
                if len(results) >= budget.max_paths:
                    truncated = True
            return  # nominal paths stop at the first original endpoint
        if steps_left == 0:
            return
        key = (at, steps_left, code % powers[steps_left], crossed)
        count = dead.get(key)
        if count is not None:
            if expansions + count > cap:
                truncated = True
            else:
                expansions += count
            return
        before, found_before = expansions, len(results)
        for lab, letter, nxt, may_step in moves.get(at, ()):
            expansions += 1
            if expansions > cap:
                truncated = True
                return
            if not may_step:
                continue
            # A closing letter after an opening one cancels it if it is
            # its partner and leaves the factor language otherwise.
            cancelled = 0
            if letter < 0 and code:
                if code % 3 != -letter:
                    continue
                cancelled = -letter
                code //= 3
            elif letter > 0:
                code = code * 3 + letter
            labels.append(lab)
            walk(nxt, steps_left - 1, crossed or abs(letter) == 2)
            labels.pop()
            if cancelled:
                code = code * 3 + cancelled
            elif letter > 0:
                code //= 3
            if truncated:
                return
        if len(results) == found_before:
            dead[key] = expansions - before

    walk(start, budget.max_path_length, loop)
    return tuple(results), truncated
