"""Brute-force oracles: path enumeration, word streams, CYK, factor
oracle, and BFS distances."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycklab import (Alphabet, EnumerationBudget, Instance, Label,
                     LabeledGraph, bfs_distances, brute_dyck_reach,
                     compile_dyck2_to_undirected, cyk_accepts, dyck_grammar,
                     enumerate_paths, exhaustive_words,
                     factor_of_dyck_oracle, in_q, in_q_init, is_dyck,
                     near_dyck_grammar, solve_dyck, word)
from dycklab.oracle import enumerate_nominal_paths
from dycklab.words import ZO_ALPHABET

from util import (gap_chain_instance, random_dyck_instance,
                  random_neardyck_instance, reference_balanced_paths,
                  reference_nominal_paths)


def test_empty_graph_empty_path():
    inst = Instance(LabeledGraph.build(True, 1, Alphabet("dyck", 1), []), 0, 0)
    enum = enumerate_paths(inst, 0, 0, EnumerationBudget(2), balanced=True)
    assert enum.paths == ((),)
    assert not enum.truncated


def test_unique_witness_on_the_concatenation_chain():
    inst = gap_chain_instance()
    enum = enumerate_paths(inst, 0, 4, EnumerationBudget(6), balanced=True)
    assert len(enum.paths) == 1
    assert [lab.token() for _, lab, _ in enum.paths[0]] == \
        ["l1", "l1bar", "l2", "l2bar"]


def test_truncation_flag():
    lab = Label("l", 1, False)
    g = LabeledGraph.build(True, 1, Alphabet("dyck", 1), [(0, lab, 0)])
    inst = Instance(g, 0, 0)
    enum = enumerate_paths(inst, 0, 0, EnumerationBudget(10, max_paths=3))
    assert len(enum.paths) == 3
    assert enum.truncated


def test_budget_monotonicity():
    rng = random.Random(3)
    inst = random_dyck_instance(rng, max_vertices=4, density=0.3)
    small = enumerate_paths(inst, inst.source, inst.sink,
                            EnumerationBudget(4), balanced=True)
    large = enumerate_paths(inst, inst.source, inst.sink,
                            EnumerationBudget(6), balanced=True)
    assert set(small.paths) <= set(large.paths)


def test_enumeration_is_deterministic():
    rng = random.Random(4)
    inst = random_dyck_instance(rng, max_vertices=5, density=0.3)
    a = enumerate_paths(inst, inst.source, inst.sink, EnumerationBudget(5),
                        balanced=True)
    b = enumerate_paths(inst, inst.source, inst.sink, EnumerationBudget(5),
                        balanced=True)
    assert a == b


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10**9), st.booleans(), st.integers(0, 6),
       st.integers(1, 40))
def test_balanced_enumeration_matches_the_filtered_walks(seed, near, max_len,
                                                         max_paths):
    """The bracket stack keeps exactly the walks ``is_dyck`` accepts, in
    the same order, with the same truncated flag, on Dyck and near-Dyck
    instances (``v_i`` labels and ``dot``)."""
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=4, density=0.25)
    else:
        inst = random_dyck_instance(rng, max_vertices=4, density=0.35)
    budget = EnumerationBudget(max_len, max_paths)
    got = enumerate_paths(inst, inst.source, inst.sink, budget, balanced=True)
    assert (got.paths, got.truncated) == \
        reference_balanced_paths(inst, inst.source, inst.sink, budget)


@pytest.mark.parametrize("kwargs", [
    dict(max_path_length=4, max_paths=0),
    dict(max_path_length=-1),
    dict(max_path_length=4, max_expansions=-1),
])
def test_a_budget_that_cannot_be_honoured_is_rejected(kwargs):
    with pytest.raises(ValueError):
        EnumerationBudget(**kwargs)


def test_brute_reach_edgeless_graph():
    inst = Instance(LabeledGraph.build(True, 3, Alphabet("dyck", 1), []), 0, 0)
    assert brute_dyck_reach(inst, EnumerationBudget(4)) == \
        frozenset({(x, x) for x in range(3)})


def test_brute_reach_complete_on_acyclic_instances():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(2, 6)
        alph = Alphabet("dyck", 2)
        labels = list(alph.labels())
        edges = [(u, lab, v) for u in range(n) for v in range(u + 1, n)
                 for lab in labels if rng.random() < 0.3]
        inst = Instance(LabeledGraph.build(True, n, alph, edges), 0, n - 1)
        assert brute_dyck_reach(inst, EnumerationBudget(n)) == \
            solve_dyck(inst).pairs


# ---------------------------------------------------------------------------
# Nominal paths in undirected gadgets

def _two_vertex_gadgets():
    """Gadgets of every one- and two-edge 2-vertex two-pair source, with
    the source's edges."""
    slots = [(u, Label("l", k, bar), v) for u in range(2) for v in range(2)
             for k in (1, 2) for bar in (False, True)]
    sources = [[e] for e in slots] + \
        [list(p) for p in itertools.combinations(slots, 2)]
    for edges in sources:
        g = LabeledGraph.build(True, 2, Alphabet("dyck", 2), edges)
        yield compile_dyck2_to_undirected(Instance(g, 0, 1)), sorted(edges)


@pytest.mark.parametrize("budget, truncates", [
    (EnumerationBudget(13, 10_000), False),
    (EnumerationBudget(30, 10_000, max_expansions=300), True),
    (EnumerationBudget(30, 10_000, max_expansions=50), True),
])
def test_nominal_paths_match_the_re_reducing_walk(budget, truncates):
    """The reduction stack finds the same labels, in the same order, with
    the same truncated flag, as a walk that re-reduces every prefix."""
    flags = set()
    for red, edges in _two_vertex_gadgets():
        tags = [("loop", 0), ("loop", 1)] + [("edge",) + e for e in edges]
        for tag in tags:
            got = enumerate_nominal_paths(red, tag, budget)
            assert got == reference_nominal_paths(red, tag, budget), tag
            assert all(in_q(w) for w in got[0])
            flags.add(got[1])
    assert (True in flags) == truncates


def test_nominal_truncation_matches_the_re_reducing_walk_at_every_cap():
    """A sweep of the expansion cap over a whole search lands it between
    results, on blocked moves and on cancellations: the truncated search
    must stop at exactly the walk the re-reducing search stops at."""
    edges = [(0, Label("l", 1, False), 1), (1, Label("l", 2, True), 0)]
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 2), edges)
    red = compile_dyck2_to_undirected(Instance(g, 0, 1))
    flags = set()
    for tag in [("edge",) + e for e in edges]:
        for cap in range(0, 1600, 7):
            budget = EnumerationBudget(13, 10_000, max_expansions=cap)
            got = enumerate_nominal_paths(red, tag, budget)
            assert got == reference_nominal_paths(red, tag, budget), (tag, cap)
            flags.add((got[1], bool(got[0])))
    assert flags == {(True, False), (True, True), (False, True)}


# ---------------------------------------------------------------------------
# Word streams

def balanced_count_by_recursion(length: int, pairs: int = 2) -> int:
    """Number of balanced words of the given even length, by the block
    recursion D(2k) = sum_j pairs * D(j) * D(2k-2-j) over even j."""
    table = {0: 1}
    for m in range(2, length + 1, 2):
        table[m] = sum(pairs * table[j] * table[m - 2 - j]
                       for j in range(0, m - 1, 2))
    return table[length]


def test_dyck_word_counts_match_the_recursion():
    stream = list(exhaustive_words(ZO_ALPHABET, 8, is_dyck))
    assert () in stream
    by_len = {}
    for w in stream:
        by_len[len(w)] = by_len.get(len(w), 0) + 1
    assert by_len.get(1, 0) == 0
    for m in (2, 4, 6, 8):
        assert by_len[m] == balanced_count_by_recursion(m)


def test_exhaustive_words_order_is_deterministic():
    a = list(exhaustive_words(ZO_ALPHABET, 4, is_dyck))
    b = list(exhaustive_words(ZO_ALPHABET, 4, is_dyck))
    assert a == b
    assert all(len(x) <= len(y) for x, y in zip(a, a[1:]))


def test_factor_oracle_agrees_with_the_characterization():
    for w in exhaustive_words(ZO_ALPHABET, 6, lambda w: True):
        assert in_q(w) == (in_q_init(w) or factor_of_dyck_oracle(w))


def test_factor_oracle_spot_checks():
    assert factor_of_dyck_oracle(word("0bar 1"))
    assert not factor_of_dyck_oracle(word("1 0bar"))
    assert factor_of_dyck_oracle(())


def test_q_stream_is_factor_closed():
    stream = set(exhaustive_words(ZO_ALPHABET, 6, in_q))
    for w in stream:
        for i in range(len(w)):
            for j in range(i, len(w) + 1):
                assert w[i:j] in stream


# ---------------------------------------------------------------------------
# CYK

def test_cyk_matches_direct_check_on_short_words():
    g2 = dyck_grammar(2)
    for w in exhaustive_words(ZO_ALPHABET, 6, lambda w: True):
        assert cyk_accepts(g2, w) == is_dyck(w)


def test_cyk_near_dyck_grammar():
    g = near_dyck_grammar(2)
    assert cyk_accepts(g, word("v1 dot v1bar"))
    assert cyk_accepts(g, word("dot"))
    assert not cyk_accepts(g, word("v1 v0bar"))
    assert cyk_accepts(g, ())


def test_bfs_distances_simple():
    arcs = {(0, 1), (1, 2), (0, 3)}
    assert bfs_distances(4, arcs, 0) == {0: 0, 1: 1, 3: 1, 2: 2}
    assert bfs_distances(4, arcs, 2) == {2: 0}
