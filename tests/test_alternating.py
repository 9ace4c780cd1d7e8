"""Alternating reachability: the fixpoint, its layers, well-ordered
sequences and the minimal-sequence index."""

import itertools
import random

import pytest

from dycklab import (Alphabet, Instance, Label, LabeledGraph, is_well_ordered,
                     kappa, solve_alternating)

from util import fig1_instance, random_alt_instance

LAB = Label("l", 1, False)


def alt(n, arcs, s, t, ands):
    g = LabeledGraph.build(True, n, Alphabet("dyck", 1),
                           [(u, LAB, v) for u, v in arcs])
    partition = tuple("and" if x in ands else "or" for x in range(n))
    return Instance(g, s, t, partition)


def test_worked_instance_layers():
    member, trace = solve_alternating(fig1_instance())
    assert member
    assert trace.layers[0] == frozenset({4})
    assert trace.first_layer == {4: 0, 3: 1, 1: 2, 2: 3, 0: 4}
    assert trace.member(0)


def test_source_equals_sink():
    inst = alt(2, [], 1, 1, ands=())
    assert solve_alternating(inst)[0]


def test_and_vertex_without_successors_is_member():
    inst = alt(2, [], 0, 1, ands={0})
    assert solve_alternating(inst)[0]


def test_or_vertex_without_successors_is_not_member():
    inst = alt(2, [], 0, 1, ands=())
    assert not solve_alternating(inst)[0]


def test_missing_partition_rejected():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 1), [])
    with pytest.raises(ValueError):
        solve_alternating(Instance(g, 0, 1))


def test_well_ordered_and_kappa_need_a_partition():
    inst = Instance(LabeledGraph.build(True, 2, Alphabet("dyck", 1), []), 0, 1)
    with pytest.raises(ValueError, match="needs an and/or partition"):
        is_well_ordered([1], inst)
    with pytest.raises(ValueError, match="needs an and/or partition"):
        kappa(0, inst)


def test_well_ordered_examples():
    inst = fig1_instance()
    assert is_well_ordered([4], inst)
    assert is_well_ordered([4, 3, 1, 2, 0], inst)
    assert not is_well_ordered([4, 1], inst)  # 1's successors miss {4}
    assert not is_well_ordered([], inst)
    assert not is_well_ordered([0], inst)  # must start at the sink


def test_kappa_examples():
    inst = fig1_instance()
    assert kappa(4, inst) == 0
    assert kappa(3, inst) == 1


def test_kappa_none_outside_the_fixpoint():
    inst = alt(3, [(0, 1)], 0, 2, ands=())
    member, trace = solve_alternating(inst)
    assert not member
    assert kappa(0, inst) is None
    assert kappa(2, inst) == 0


def test_kappa_refuses_large_instances():
    inst = alt(13, [], 0, 1, ands=())
    with pytest.raises(ValueError):
        kappa(0, inst)


def test_membership_iff_some_well_ordered_sequence():
    """On random small instances, x is in the fixpoint exactly when the
    sequence search places it, and never before its layer."""
    rng = random.Random(17)
    for _ in range(60):
        inst = random_alt_instance(rng, max_vertices=5)
        _, trace = solve_alternating(inst)
        for x in range(inst.graph.vertex_count):
            k = kappa(x, inst)
            if trace.member(x):
                assert k is not None
                assert k >= trace.first_layer[x]
            else:
                assert k is None


def test_well_ordered_prefix_sets_certify_membership():
    """Exhaustively on 3-vertex instances: every vertex of a well-ordered
    sequence lies in the fixpoint, and every member appears in one."""
    n = 3
    vertices = range(n)
    for arcs_bits in range(2 ** (n * n)):
        arcs = [(u, v) for i, (u, v) in enumerate(itertools.product(vertices, vertices))
                if arcs_bits >> i & 1]
        inst = alt(n, arcs, 0, 2, ands={1})
        _, trace = solve_alternating(inst)
        members = {x for x in vertices if trace.member(x)}
        witnessed = set()
        for r in range(1, n + 1):
            for seq in itertools.permutations(vertices, r):
                if is_well_ordered(seq, inst):
                    witnessed.update(seq)
        assert witnessed == members
