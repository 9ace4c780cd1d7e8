"""One-pair specializations: the three-condition characterization, the
parity double cover, and the distance gadget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycklab import (Alphabet, Instance, Label, LabeledGraph, ParityIndex,
                     UpdateError, UpdateOp, apply_update, bfs_distances,
                     build_distance_gadget, dyck_grammar, prop1_check,
                     solve_cfl, solve_dyck)
from dycklab.suites import random_undirected_one_pair

from util import random_script

OPEN1, CLOSE1 = Label("l", 1, False), Label("l", 1, True)


def undirected(n, edges, s, t):
    g = LabeledGraph.build(False, n, Alphabet("dyck", 1), edges)
    return Instance(g, s, t)


def test_same_endpoints_always_reachable():
    inst = undirected(3, [], 1, 1)
    assert prop1_check(inst)


def test_two_edge_path_is_reachable():
    inst = undirected(3, [(0, OPEN1, 1), (1, CLOSE1, 2)], 0, 2)
    assert prop1_check(inst)
    assert solve_dyck(inst).query(0, 2)


def test_odd_path_fails_the_even_length_condition():
    inst = undirected(4, [(0, OPEN1, 1), (1, OPEN1, 2), (2, CLOSE1, 3)], 0, 3)
    assert not prop1_check(inst)
    assert not solve_dyck(inst).query(0, 3)


def test_missing_endpoint_labels_fail_fast():
    inst = undirected(2, [(0, CLOSE1, 1)], 0, 1)
    assert not prop1_check(inst)


def test_characterization_rejects_bad_inputs():
    directed = Instance(
        LabeledGraph.build(True, 2, Alphabet("dyck", 1), []), 0, 1)
    with pytest.raises(ValueError):
        prop1_check(directed)
    two_pair = Instance(
        LabeledGraph.build(False, 2, Alphabet("dyck", 2), []), 0, 1)
    with pytest.raises(ValueError):
        prop1_check(two_pair)


def test_characterization_matches_solver_on_random_instances():
    rng = random.Random(99)
    for _ in range(150):
        inst = random_undirected_one_pair(rng, max_vertices=6)
        assert prop1_check(inst) == solve_dyck(inst).query(inst.source, inst.sink)


# ---------------------------------------------------------------------------
# Parity double cover, maintained under updates

def both_labels(pairs):
    """Each pair as an l1 and an l1bar edge, so every endpoint has an
    opening and a closing edge and a query asks for an even-length walk
    only."""
    return [(u, lab, v) for u, v in pairs for lab in (OPEN1, CLOSE1)]


def walk_parities(idx, u, v):
    """The parities of the walks joining u and v in the double cover."""
    return {p for p in (0, 1) if idx.uf.find(2 * u) == idx.uf.find(2 * v + p)}


def test_single_edge_gives_only_odd_length_walks():
    idx = ParityIndex(undirected(2, [(0, OPEN1, 1)], 0, 1))
    assert not idx.query(0, 1)
    assert walk_parities(idx, 0, 1) == {1}
    assert idx.query(0, 0)


def test_triangle_connects_everything():
    idx = ParityIndex(undirected(3, both_labels([(0, 1), (1, 2), (2, 0)]),
                                 0, 1))
    for u in range(3):
        for v in range(3):
            assert idx.query(u, v)
            assert walk_parities(idx, u, v) == {0, 1}


def test_four_cycle_stays_bipartite():
    idx = ParityIndex(undirected(
        4, both_labels([(0, 1), (1, 2), (2, 3), (3, 0)]), 0, 2))
    assert idx.query(0, 2)
    assert not idx.query(0, 1)
    assert walk_parities(idx, 0, 1) == {1}


def test_delete_from_triangle_breaks_the_odd_cycle():
    idx = ParityIndex(undirected(3, both_labels([(0, 1), (1, 2), (2, 0)]),
                                 0, 2))
    idx.apply(UpdateOp.delete(2, OPEN1, 0))
    assert idx.query(0, 1)  # the l1bar edge 0-2 keeps the odd cycle
    idx.apply(UpdateOp.delete(2, CLOSE1, 0))
    assert idx.query(0, 2)  # walk 0-1-2 of length 2 survives
    assert not idx.query(0, 1)


def test_delete_last_edge_isolates_all():
    idx = ParityIndex(undirected(2, [(0, OPEN1, 1)], 0, 1))
    idx.apply(UpdateOp.delete(0, OPEN1, 1))
    assert walk_parities(idx, 0, 1) == set()
    assert not idx.query(0, 1)


def test_strict_duplicate_and_missing_edges():
    inst = undirected(2, [(0, OPEN1, 1)], 0, 1)
    idx = ParityIndex(inst)
    with pytest.raises(UpdateError):
        idx.apply(UpdateOp.ins(1, OPEN1, 0))
    with pytest.raises(UpdateError):
        idx.apply(UpdateOp.delete(0, OPEN1, 0))
    assert idx.inst is inst
    assert not idx.query(0, 1)
    # the other label on the same two vertices is a new edge
    idx.apply(UpdateOp.ins(1, CLOSE1, 0))
    assert not idx.query(0, 1)
    assert walk_parities(idx, 0, 1) == {1}


def test_parallel_labels_are_one_parity_edge():
    inst = undirected(2, both_labels([(0, 1)]), 0, 1)
    idx = ParityIndex(inst)
    assert walk_parities(idx, 0, 1) == {1}
    assert not idx.query(0, 1)
    assert not solve_dyck(inst).query(0, 1)
    idx.apply(UpdateOp.ins(1, OPEN1, 1))  # an odd cycle at 1
    # deleting one label leaves the other edge joining 0 and 1
    idx.apply(UpdateOp.delete(0, OPEN1, 1))
    assert idx.query(1, 0)  # 1 -l1-> 1 -l1bar-> 0
    assert solve_dyck(idx.inst).query(1, 0)


def test_deleting_the_last_opener_at_the_source_turns_yes_to_no():
    # 0 =l1,l1bar= 1 -l1bar- 2, with an l1 self-loop at 0: the walk
    # 0 -l1-> 1 -l1bar-> 2 is balanced
    inst = undirected(3, [(0, OPEN1, 0), (0, OPEN1, 1), (0, CLOSE1, 1),
                          (1, CLOSE1, 2)], 0, 2)
    idx = ParityIndex(inst)
    assert idx.query(0, 2)
    idx.apply(UpdateOp.delete(0, OPEN1, 0))
    assert idx.query(0, 2)            # the l1 edge to 1 is still there
    idx.apply(UpdateOp.delete(0, OPEN1, 1))
    # 0 still reaches 2 by an even walk over the l1bar edges, but has no
    # opening edge left
    assert walk_parities(idx, 0, 2) == {0}
    assert not idx.query(0, 2)
    assert not solve_dyck(idx.inst).query(0, 2)
    idx.apply(UpdateOp.ins(0, OPEN1, 1))
    assert idx.query(0, 2)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_live_index_matches_the_grammar_engine(seed):
    rng = random.Random(seed)
    inst = random_undirected_one_pair(rng, max_vertices=5)
    n = inst.graph.vertex_count
    idx = ParityIndex(inst)
    # every pair before the first op and after each one, plus the pairs
    # with an endpoint just outside the vertex range
    for op in [UpdateOp.query()] + random_script(rng, inst, ops=24,
                                                 query_rate=0.1):
        idx.apply(op)
        inst = apply_update(inst, op)
        assert idx.inst == inst
        expected = solve_cfl(inst, dyck_grammar(1))["S"]
        for s in range(-1, n + 1):
            for t in range(-1, n + 1):
                assert idx.query(s, t) == ((s, t) in expected), (op, s, t)


def three_condition_scan(idx, s, t):
    """``ParityIndex.query`` as it read the conditions before it kept
    endpoint bitsets: two scans of the instance's edges for an opening
    edge at ``s`` and a closing edge at ``t``, then the double cover."""
    g = idx.inst.graph
    if not (0 <= s < g.vertex_count and 0 <= t < g.vertex_count):
        return False
    return s == t or (
        any(lab == OPEN1 and s in (u, v) for u, lab, v in g.edges)
        and any(lab == CLOSE1 and t in (u, v) for u, lab, v in g.edges)
        and 0 in walk_parities(idx, s, t))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_endpoint_bitsets_answer_as_the_edge_scans(seed):
    rng = random.Random(seed)
    inst = random_undirected_one_pair(rng, max_vertices=6)
    n = inst.graph.vertex_count
    idx = ParityIndex(inst)
    for op in [UpdateOp.query()] + random_script(rng, inst, ops=30,
                                                 query_rate=0.0):
        idx.apply(op)
        edges = idx.inst.graph.edges
        for mask, lab in ((idx.openers, OPEN1), (idx.closers, CLOSE1)):
            assert mask == sum({1 << x for u, elab, v in edges
                                if elab == lab for x in (u, v)}), op
        for s in range(-1, n + 1):
            for t in range(-1, n + 1):
                assert idx.query(s, t) == three_condition_scan(idx, s, t), \
                    (op, s, t)


# ---------------------------------------------------------------------------
# Distance gadget

def test_single_vertex_gadget_shape():
    gadget = build_distance_gadget(1, set())
    g = gadget.instance.graph
    assert g.vertex_count == 2
    assert g.has_edge(0, OPEN1, 0)
    assert g.has_edge(0, CLOSE1, gadget.chain_vertex(0, 1))


def test_single_arc_distance_one():
    gadget = build_distance_gadget(2, {(0, 1)})
    idx = solve_dyck(gadget.instance)
    assert idx.query(0, gadget.chain_vertex(1, 1))
    assert idx.query(0, gadget.chain_vertex(1, 2))  # padding via self-loops


def test_chain_vertex_bounds():
    gadget = build_distance_gadget(2, set())
    with pytest.raises(ValueError):
        gadget.chain_vertex(0, 0)
    with pytest.raises(ValueError):
        gadget.chain_vertex(2, 1)


def test_distance_gadget_needs_a_vertex():
    with pytest.raises(ValueError, match="need at least one vertex"):
        build_distance_gadget(0, set())


def gadget_distances(vertex_count, arcs, source):
    gadget = build_distance_gadget(vertex_count, arcs)
    idx = solve_dyck(gadget.instance)
    out = {}
    for t in range(vertex_count):
        if t == source:
            out[t] = 0
            continue
        ks = [k for k in range(1, vertex_count + 1)
              if idx.query(source, gadget.chain_vertex(t, k))]
        if ks:
            out[t] = min(ks)
    return out


def test_distances_match_bfs_on_random_digraphs():
    rng = random.Random(31)
    for _ in range(15):
        n = rng.randint(1, 6)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.3}
        s = rng.randrange(n)
        assert gadget_distances(n, arcs, s) == bfs_distances(n, arcs, s)
