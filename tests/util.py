"""Shared generators for the test suite: random instances, random update
scripts, the worked instances used across modules, the check of a
``ReachIndex``'s edge tables, support masks, demand set and closed rows,
and slow reference versions of the wrap-only solver, the oracle walks
and the suites."""

import itertools
import math
import random

from dycklab import DOT, Alphabet, Instance, Label, LabeledGraph, UpdateOp


def random_dyck_instance(rng: random.Random, max_vertices: int = 8,
                         pairs: int = 2, density: float = 0.3,
                         directed: bool = True) -> Instance:
    n = rng.randint(1, max_vertices)
    alph = Alphabet("dyck", pairs)
    labels = list(alph.labels())
    edges = []
    for u in range(n):
        vs = range(n) if directed else range(u, n)
        for v in vs:
            for lab in labels:
                if rng.random() < density:
                    edges.append((u, lab, v))
    graph = LabeledGraph.build(directed, n, alph, edges)
    return Instance(graph, rng.randrange(n), rng.randrange(n))


def random_neardyck_instance(rng: random.Random, max_vertices: int = 5,
                             density: float = 0.25,
                             directed: bool = True) -> Instance:
    """Per-vertex-bracket instance with alphabet size = |V|."""
    n = rng.randint(1, max_vertices)
    alph = Alphabet("neardyck", n)
    labels = list(alph.labels())
    edges = []
    for u in range(n):
        vs = range(n) if directed else range(u, n)
        for v in vs:
            for lab in labels:
                if rng.random() < density:
                    edges.append((u, lab, v))
    graph = LabeledGraph.build(directed, n, alph, edges)
    return Instance(graph, rng.randrange(n), rng.randrange(n))


def random_alt_instance(rng: random.Random, max_vertices: int = 6) -> Instance:
    n = rng.randint(1, max_vertices)
    alph = Alphabet("dyck", 1)
    lab = Label("l", 1, False)
    edges = [(u, lab, v) for u in range(n) for v in range(n)
             if rng.random() < 0.3]
    partition = tuple(rng.choice(("and", "or")) for _ in range(n))
    graph = LabeledGraph.build(True, n, alph, edges)
    return Instance(graph, rng.randrange(n), rng.randrange(n), partition)


def random_script(rng: random.Random, inst: Instance, ops: int = 30,
                  query_rate: float = 0.3, labels=None) -> list[UpdateOp]:
    """A strictness-respecting random script over the instance's vertex set
    and alphabet: insertions target absent edges, deletions present ones.
    ``labels`` restricts the label pool (alternating instances only ever
    carry the first opening label)."""
    g = inst.graph
    n = g.vertex_count
    if labels is None:
        labels = list(g.alphabet.labels())
        if inst.partition is not None:
            labels = [Label("l", 1, False)]

    def canon(u, lab, v):
        if g.directed or u <= v:
            return (u, lab, v)
        return (v, lab, u)

    present = set(g.edges)
    script: list[UpdateOp] = []
    while len(script) < ops:
        r = rng.random()
        if r < query_rate:
            script.append(UpdateOp.query())
            continue
        u, v = rng.randrange(n), rng.randrange(n)
        lab = rng.choice(labels)
        key = canon(u, lab, v)
        if key in present:
            present.remove(key)
            script.append(UpdateOp.delete(u, lab, v))
        else:
            present.add(key)
            script.append(UpdateOp.ins(u, lab, v))
    return script


def reference_edge_tables(inst):
    """The edge tables, ``closers`` masks, forward opening tables and
    endpoint counts of a ``ReachIndex``, built label by label: every
    directed edge's slot computed from its label, an opening label's edge
    kept as a source by target and any other as a target by source, then
    a second pass for each pair's vertices with an outgoing closing edge.
    ``edges`` holds one table per label slot (``2j`` for the ``j``-th
    opening label, counted from 0, one more for its partner) and one last
    table for ``dot``, empty for a ``dyck`` alphabet; ``forward[j]`` holds
    the ``j``-th opening label's edges as targets by source.  ``outof[u]``
    counts the directed edges out of ``u`` with an opening or ``dot``
    label, and ``into[v]`` those into ``v`` with a closing or ``dot`` one,
    so an undirected edge counts at both ends and a self-loop once."""
    graph = inst.graph
    n = graph.vertex_count
    first = {"l": 1, "v": 0}
    edges = [[0] * n for _ in range(2 * graph.alphabet.size)]
    edges.append([0] * n if graph.alphabet.kind == "neardyck" else [])
    forward = [[0] * n for _ in range(graph.alphabet.size)]
    outof, into = [0] * n, [0] * n
    for u, lab, v in graph.directed_edges():
        outof[u] += lab == DOT or not lab.bar
        into[v] += lab == DOT or lab.bar
        if lab == DOT:
            edges[-1][u] |= 1 << v
            continue
        s = 2 * (lab.index - first[lab.base]) + lab.bar
        if lab.bar:
            edges[s][u] |= 1 << v
        else:
            edges[s][v] |= 1 << u
            forward[s // 2][u] |= 1 << v
    closers = [sum(1 << w for w, targets in enumerate(closing) if targets)
               for closing in edges[1::2]]
    return edges, closers, forward, outof, into


def mask_faults(index, inst=None) -> list[str]:
    """How a ``ReachIndex``'s edge tables, support masks, endpoint counts
    and demand set fail their invariants, read against the edges of
    ``inst`` (the index's own instance by default) and against its rows.
    ``edges``, ``closers``, ``forward``, ``outof`` and ``into`` must be
    exactly ``reference_edge_tables``'s: each table holds exactly the
    directed edges of its label, ``closers[k]`` exactly the vertices with
    an outgoing closing edge of pair ``k`` (counted from 0), ``forward[k]``
    exactly the opening edges of pair ``k``, and the counts are recounted
    from the directed edges, ``dot`` edges and both ends of undirected
    ones included; and ``wide`` must hold every vertex whose row has more
    than its identity bit.  Every active vertex is in the demand set, and
    so are the bits of its row and the targets of its opening edges, bar
    an edge whose seed is still queued; an inactive vertex's row is its
    identity bit, and a column holds no inactive source but its own
    vertex.  The two invariants ``_add`` relies on hold too: ``cols`` is
    the exact transpose of ``rows``, and every row is closed (``rows[b]``
    is a subset of ``rows[x]`` for each ``b`` in ``rows[x]``).  An index
    not yet read has no rows (``rows`` is None), so only its tables and
    masks are checked.  Empty when all hold."""
    edges, support, forward, outof, into = reference_edge_tables(
        inst or index.inst)
    faults = []
    if len(index.edges) != len(edges):
        faults.append(f"edges has {len(index.edges)} tables, not "
                      f"{len(edges)}")
    for s, (want, got) in enumerate(zip(edges, index.edges)):
        if want != got:
            faults.append(f"edges[{s}] is {got}, not {want}")
    for k, (want, got) in enumerate(zip(support, index.closers,
                                        strict=True)):
        if want & ~got:
            faults.append(f"closers[{k}] misses vertices {want & ~got:#b}")
        if got & ~want:
            faults.append(f"closers[{k}] holds vertices with no closing "
                          f"edge {got & ~want:#b}")
    if index.forward != forward:
        faults.append(f"forward is {index.forward}, not {forward}")
    for name, want, got in (("outof", outof, index.outof),
                            ("into", into, index.into)):
        if want != got:
            faults.append(f"{name} is {got}, not {want}")
    if index.rows is None:
        return faults
    active, demand = index.active, index.demand
    if active & ~demand:
        faults.append(f"active vertices {active & ~demand:#b} are not in "
                      f"the demand set")
    queued = {(x, y) for s, x, y in index.seeds if s >= 0 and not s & 1}
    for x, row in enumerate(index.rows):
        if row != 1 << x and not index.wide >> x & 1:
            faults.append(f"wide misses row {x}")
        if not active >> x & 1:
            if row != 1 << x:
                faults.append(f"inactive row {x} is {row:#b}")
            continue
        if row & ~demand:
            faults.append(f"row {x} holds {row & ~demand:#b} outside the "
                          f"demand set")
        for k, table in enumerate(forward):
            # an opening edge (x, q, w) is the cell (w, x) of its seed
            missed = [w for w in range(len(table)) if table[x] >> w & 1
                      and not demand >> w & 1 and (w, x) not in queued]
            if missed:
                faults.append(f"opening successors {missed} of row {x} "
                              f"(pair {k}) are not in the demand set")
    rows = index.rows
    transpose = [0] * len(rows)
    for x, row in enumerate(rows):
        for b in range(len(rows)):
            if row >> b & 1:
                transpose[b] |= 1 << x
                if rows[b] & ~row:
                    faults.append(f"row {x} holds {b} but misses "
                                  f"{rows[b] & ~row:#b} of its row")
    for v, (want, col) in enumerate(zip(transpose, index.cols,
                                        strict=True)):
        if col & ~active & ~(1 << v):
            faults.append(f"cols[{v}] holds inactive sources "
                          f"{col & ~active & ~(1 << v):#b}")
        if col != want:
            faults.append(f"cols[{v}] is {col:#b}, not the transpose "
                          f"{want:#b}")
    return faults


def fig1_instance() -> Instance:
    """The worked 5-vertex alternating instance: vertices 0..4 stand for
    v1..v5; 0 and 2 are and-vertices; marks are (source=0, sink=4)."""
    lab = Label("l", 1, False)
    arcs = [(0, 1), (0, 2), (1, 2), (2, 1), (1, 3), (2, 4), (3, 4), (4, 1)]
    alph = Alphabet("dyck", 1)
    graph = LabeledGraph.build(True, 5, alph, [(u, lab, v) for u, v in arcs])
    partition = ("and", "or", "and", "or", "or")
    return Instance(graph, 0, 4, partition)


def fig2_source() -> Instance:
    """The worked 2-vertex directed two-pair instance: a bracket cycle
    0 -l1-> 1 -l1bar-> 0, marked (0, 0)."""
    alph = Alphabet("dyck", 2)
    edges = [(0, Label("l", 1, False), 1), (1, Label("l", 1, True), 0)]
    graph = LabeledGraph.build(True, 2, alph, edges)
    return Instance(graph, 0, 0)


def gap_chain_instance() -> Instance:
    """The 5-vertex chain labeled l1 l1bar l2 l2bar, marked (0, 4); the
    witness needs concatenation of two balanced blocks."""
    alph = Alphabet("dyck", 2)
    toks = [Label("l", 1, False), Label("l", 1, True),
            Label("l", 2, False), Label("l", 2, True)]
    edges = [(i, toks[i], i + 1) for i in range(4)]
    graph = LabeledGraph.build(True, 5, alph, edges)
    return Instance(graph, 0, 4)


def reference_wrap_only_pairs(inst):
    """``dycklab.solve_dyck_wrap_only`` as a fixpoint over a plain set of
    pairs, with no bitsets and no grammar: every ``(x, x)`` and the pair of
    every ``dot`` edge, closed under the wrap rule alone, which derives
    ``(u, v)`` from a held ``(a, b)`` and edges ``(u, q, a)``,
    ``(b, q-bar, v)``."""
    edges = list(inst.graph.directed_edges())
    pairs = {(x, x) for x in range(inst.graph.vertex_count)}
    pairs |= {(u, v) for u, lab, v in edges if lab.base == "dot"}
    opening = [(u, (lab.base, lab.index), v) for u, lab, v in edges
               if lab.base != "dot" and not lab.bar]
    closing = [(u, (lab.base, lab.index), v) for u, lab, v in edges
               if lab.base != "dot" and lab.bar]
    while True:
        derived = {(u, v) for u, q, a in opening for b, c, v in closing
                   if q == c and (a, b) in pairs}
        if derived <= pairs:
            return frozenset(pairs)
        pairs |= derived


def reference_nominal_paths(red, tag, budget):
    """The nominal-path search of ``dycklab.oracle.enumerate_nominal_paths``
    with the whole partial label re-reduced by ``in_q`` on every step: a
    slow, independent reference for the incremental reduction stack."""
    from dycklab import in_q

    inst = red.target
    if tag[0] == "loop":
        start = finish = tag[1]
        allowed_interior = None
    else:
        _, x, lab0, y = tag
        start, finish = x, y
        allowed_interior = {red.vertex_id((x, lab0, y, i)) for i in range(1, 12)}
    original = {i for i, name in enumerate(red.names) if len(name) == 1}
    adj = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))
    for lst in adj.values():
        lst.sort()
    results = []
    truncated = False
    expansions = 0

    def walk(at, labels, steps_left):
        nonlocal truncated, expansions
        if truncated:
            return
        if labels and at == finish:
            crosses = tag[0] == "loop" or any(lab.index == 2 for lab in labels)
            if crosses and in_q(tuple(labels)):
                results.append(tuple(labels))
                if len(results) >= budget.max_paths:
                    truncated = True
            return
        if steps_left == 0:
            return
        for lab, nxt in adj.get(at, ()):
            if tag[0] == "loop" and lab.index != 1:
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
            labels.append(lab)
            if in_q(tuple(labels)):
                walk(nxt, labels, steps_left - 1)
            labels.pop()

    walk(start, [], budget.max_path_length)
    return tuple(results), truncated


def reference_balanced_paths(inst, source, sink, budget):
    """Every walk source -> sink of length <= max_path_length, in
    length-lexicographic order, kept if ``is_dyck`` accepts its label, up
    to max_paths: the balanced enumeration of
    ``dycklab.oracle.enumerate_paths`` without its bracket stack or any
    pruning.  Ignores ``max_expansions``."""
    from dycklab import is_dyck

    adj = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))
    for lst in adj.values():
        lst.sort()

    def walks(at, left):
        if left == 0:
            if at == sink:
                yield ()
            return
        for lab, nxt in adj.get(at, ()):
            for rest in walks(nxt, left - 1):
                yield ((at, lab, nxt),) + rest

    found = []
    for length in range(budget.max_path_length + 1):
        for path in walks(source, length):
            if is_dyck([lab for _, lab, _ in path]):
                found.append(path)
                if len(found) >= budget.max_paths:
                    return tuple(found), True
    return tuple(found), False


def reference_suite_lemma5(max_len):
    """``dycklab.suites.suite_lemma5`` as a loop that tests each word with
    ``in_q`` and then reduces it again."""
    from dycklab import automata, in_q, reduce_word, regular_nfa, words
    from dycklab.suites import SuiteResult

    res = SuiteResult("lemma5")
    one, zero = words.ONE, words.ZERO
    zbar, obar = words.ZERO_BAR, words.ONE_BAR
    plus = regular_nfa("varpi+")
    minus = regular_nfa("varpi-")
    for rho in automata.enumerate_accepted(regular_nfa("varpi"),
                                           words.ZO_ALPHABET, max_len):
        w = (one, zero) + rho
        if in_q(w):
            r = reduce_word(w)
            res.check(len(r) >= 2 and r[0] == one and r[1] == zero
                      and plus.accepts(r[2:]),
                      f"reduction of 1 0 {words.zo_str(rho)} leaves 1 0 varpi+")
        else:
            res.checked += 1
        w2 = rho + (zbar, obar)
        if in_q(w2):
            r = reduce_word(w2)
            res.check(len(r) >= 2 and r[-2] == zbar and r[-1] == obar
                      and minus.accepts(r[:-2]),
                      f"reduction of {words.zo_str(rho)} 0bar 1bar leaves varpi- 0bar 1bar")
        else:
            res.checked += 1
    return res


def reference_suite_lemma7(red, budget, varpi_max_len, sample_cap, seed):
    """``dycklab.suites.suite_lemma7`` as a loop that tests every whole
    combined word with ``in_q`` / ``in_q_init`` and then reduces it again,
    on chain labels from :func:`reference_nominal_paths`."""
    from dycklab import (automata, in_q, in_q_init, reduce_word,
                         reduced_language_nfa, regular_nfa, words)
    from dycklab.suites import SuiteResult

    res = SuiteResult("lemma7")
    rng = random.Random(seed)
    varpi = regular_nfa("varpi")
    varpi_red = reduced_language_nfa("varpi")
    res.info["strict_misses"] = 0

    by_label = {}
    for x, lab, y in sorted(red.source.graph.edges):
        labels, _ = reference_nominal_paths(red, ("edge", x, lab, y), budget)
        by_label.setdefault(lab, []).extend(labels)
    for lab, pool in by_label.items():
        if len(pool) > sample_cap:
            by_label[lab] = rng.sample(pool, sample_cap)
    rhos = list(automata.enumerate_accepted(varpi, words.ZO_ALPHABET,
                                            varpi_max_len))
    if len(rhos) > sample_cap:
        rhos = rng.sample(rhos, sample_cap)

    def pairs(open_k, close_k):
        for w1 in by_label.get(Label("l", open_k, False), ()):
            for w3 in by_label.get(Label("l", close_k, True), ()):
                yield w1, w3

    for k in (1, 2):
        for w1, w3 in pairs(k, k):
            for rho in rhos:
                w = w1 + rho + w3
                if in_q(w):
                    r = reduce_word(w)
                    res.check(varpi_red.accepts(r),
                              f"matched pair {k}: reduction of a factor word "
                              f"escapes even the closure of varpi: {words.zo_str(r)}")
                    if not varpi.accepts(r):
                        res.info["strict_misses"] += 1
                else:
                    res.checked += 1
    for k, other in ((1, 2), (2, 1)):
        for w1, w3 in pairs(k, other):
            for rho in rhos:
                res.check(not in_q(w1 + rho + w3),
                          f"mismatched pair {k}/{other}: factor word survived")
    for k in (1, 2):
        for w3 in by_label.get(Label("l", k, True), ()):
            for rho in rhos:
                res.check(not in_q_init(rho + w3),
                          f"closing chain {k} started a balanced prefix")
    return res


def _sorted_moves(inst):
    adj = {}
    for u, lab, v in inst.graph.directed_edges():
        adj.setdefault(u, []).append((lab, v))
    for lst in adj.values():
        lst.sort()
    return adj


def reference_untabled_paths(inst, source, sink, budget, balanced=False):
    """``dycklab.oracle.enumerate_paths`` as a depth-first walk that
    re-walks every subtree it meets, with no table of dead subtrees: the
    same walks, order, expansion count and truncated flag, as a
    ``(paths, truncated)`` pair."""
    vertices = range(inst.graph.vertex_count)
    if source not in vertices or sink not in vertices:
        raise ValueError(f"endpoint out of range: ({source}, {sink})")
    pair_ids = {}
    moves = {}
    for u, adj in _sorted_moves(inst).items():
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
    found = []
    truncated = False
    expansions = 0
    edges = []
    stack = []

    def walk(at, left):
        nonlocal truncated, expansions
        if left == 0:
            if at == sink and not stack:
                found.append(tuple(edges))
                if len(found) >= max_paths:
                    truncated = True
                    return False
            return True
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
        return True

    for length in range(budget.max_path_length + 1):
        if truncated:
            break
        walk(source, length)
    return tuple(found), truncated


def reference_untabled_nominal_paths(red, tag, budget):
    """``dycklab.oracle.enumerate_nominal_paths`` as a depth-first walk
    that re-walks every subtree it meets, with no table of dead subtrees,
    keeping the whole reduced label and scanning each found label for a
    pair-2 letter."""
    if red.kind != "dyck2_to_undirected":
        raise ValueError("nominal enumeration needs an undirected-gadget target")
    inst = red.target
    if tag[0] == "loop":
        x = tag[1]
        start = finish = x
        loop = True
        allowed_interior = None
    elif tag[0] == "edge":
        _, x, lab0, y = tag
        start, finish = x, y
        loop = False
        allowed_interior = {red.vertex_id((x, lab0, y, i)) for i in range(1, 12)}
    else:
        raise ValueError(f"unknown tag {tag!r}")

    original = {i for i, name in enumerate(red.names) if len(name) == 1}
    moves = {}
    for u, adj in _sorted_moves(inst).items():
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
    results = []
    truncated = False
    expansions = 0
    labels = []
    reduced = []

    def walk(at, steps_left):
        nonlocal truncated, expansions
        if truncated:
            return
        if labels and at == finish:
            if loop or any(lab.index == 2 for lab in labels):
                results.append(tuple(labels))
                if len(results) >= budget.max_paths:
                    truncated = True
            return
        if steps_left == 0:
            return
        for lab, letter, nxt, may_step in moves.get(at, ()):
            expansions += 1
            if expansions > cap:
                truncated = True
                return
            if not may_step:
                continue
            cancelled = 0
            if letter < 0 and reduced and reduced[-1] > 0:
                if reduced[-1] != -letter:
                    continue
                cancelled = reduced.pop()
            else:
                reduced.append(letter)
            labels.append(lab)
            walk(nxt, steps_left - 1)
            labels.pop()
            if cancelled:
                reduced.append(cancelled)
            else:
                reduced.pop()

    walk(start, budget.max_path_length)
    return tuple(results), truncated


def reference_factor_words(labels, max_len):
    """The words over ``labels`` of length at most ``max_len`` that are
    factors of a balanced two-pair word, by brute force: for every
    all-opening prefix u over pairs 1 and 2 (2^k of each length k), every
    w of length at least |u| for which u.w stays a valid balanced-word
    prefix, grown letter by letter on a stack.  (If x.w.y is balanced, the
    stack after x gives such a u, and w pops at most |w| entries.)"""
    opens = (Label("l", 1, False), Label("l", 2, False))
    found = set()

    def grow(k, w, stack):
        if len(w) >= k:
            found.add(w)
        if len(w) == max_len:
            return
        for lab in labels:
            if lab == DOT:
                continue
            if not lab.bar:
                grow(k, w + (lab,), stack + (lab,))
            elif stack and stack[-1] == lab.matched():
                grow(k, w + (lab,), stack[:-1])

    for k in range(max_len + 1):
        for u in itertools.product(opens, repeat=k):
            grow(k, (), u)
    return found
