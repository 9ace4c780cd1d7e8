"""Brute-force oracles: path enumeration, word streams, CYK, factor
oracle, and BFS distances."""

import ast
import itertools
import random
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dycklab.oracle
from dycklab import (DOT, Alphabet, EnumerationBudget, Grammar, Instance,
                     Label, LabeledGraph, bfs_distances, brute_dyck_reach,
                     compile_dyck2_to_undirected, compile_neardyck_to_dyck2,
                     cyk_accepts, dyck_grammar, enumerate_paths,
                     exhaustive_words, factor_of_dyck_oracle, in_q, in_q_init,
                     is_dyck, near_dyck_grammar, solve_cfl, solve_dyck, word)
from dycklab.oracle import enumerate_nominal_paths
from dycklab.suites import default_gadget_source
from dycklab.words import ZO_ALPHABET

from util import (gap_chain_instance, random_dyck_instance,
                  random_neardyck_instance, reference_balanced_paths,
                  reference_factor_words, reference_nominal_paths,
                  reference_untabled_nominal_paths, reference_untabled_paths)


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


# The uncapped reference walk grows about 6-7x per unit of length (one
# length-9 case took 44.5 s), so uncapped draws stop at length 7.
@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.booleans(), st.booleans(),
       st.sampled_from([1, 3, 40, 10_000]),
       st.one_of(st.tuples(st.integers(0, 7), st.none()),
                 *[st.tuples(st.integers(0, 9), caps)
                   for caps in (st.just(0), st.integers(1, 60),
                                st.integers(61, 20_000))]))
def test_enumeration_matches_the_untabled_walk(seed, near, balanced,
                                               max_paths, len_and_cap):
    """Skipping dead subtrees keeps every walk, their order and the
    truncated flag of the walk that re-walks them, under every expansion
    cap, on Dyck and near-Dyck instances with self-loops and ``dot``
    edges, with and without the bracket stack."""
    max_len, cap = len_and_cap
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=4, density=0.3)
    else:
        inst = random_dyck_instance(rng, max_vertices=4, density=0.35)
    budget = EnumerationBudget(max_len, max_paths, max_expansions=cap)
    got = enumerate_paths(inst, inst.source, inst.sink, budget,
                          balanced=balanced)
    assert (got.paths, got.truncated) == reference_untabled_paths(
        inst, inst.source, inst.sink, budget, balanced)


def _least_finishing_cap(finishes, limit):
    """The least expansion cap up to ``limit`` under which an untabled
    search finishes, or None.  A search that finishes under a cap
    finishes under every larger one, so the cap is bisected."""
    if not finishes(limit):
        return None
    lo, hi = 0, limit
    while lo < hi:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if finishes(mid) else (mid + 1, hi)
    return lo


def _sweep(limit, total, steps, tail):
    """``steps`` caps spread over 0..limit, and the last ``tail`` caps
    before ``total``, where a skipped subtree that ends the search lies."""
    caps = set(range(0, limit + 1, max(1, limit // steps)))
    if total is not None:
        caps |= set(range(max(0, total - tail), total + 1))
    return sorted(caps)


@pytest.mark.parametrize("seed", range(8))
def test_enumeration_truncates_where_the_untabled_walk_does(seed):
    """Caps across the whole search, and every cap in its last stretch,
    where a skipped subtree that ends the search lies: the tabled walk
    must stop, or finish, exactly where the untabled one does."""
    rng = random.Random(seed)
    if seed % 2:
        inst = random_neardyck_instance(rng, max_vertices=3, density=0.3)
    else:
        inst = random_dyck_instance(rng, max_vertices=3, density=0.35)
    for balanced in (False, True):
        def run(cap, walk=reference_untabled_paths):
            budget = EnumerationBudget(4, 10_000, max_expansions=cap)
            return walk(inst, inst.source, inst.sink, budget, balanced)
        total = _least_finishing_cap(lambda cap: not run(cap)[1], 10**6)
        for cap in _sweep(total, total, 50, 50):
            got = run(cap, enumerate_paths)
            assert (got.paths, got.truncated) == run(cap), (balanced, cap)


@pytest.mark.parametrize("kwargs", [
    dict(max_path_length=4, max_paths=0),
    dict(max_path_length=-1),
    dict(max_path_length=4, max_expansions=-1),
])
def test_a_budget_that_cannot_be_honoured_is_rejected(kwargs):
    with pytest.raises(ValueError):
        EnumerationBudget(**kwargs)


def test_nominal_enumeration_rejects_other_lanes_and_tags():
    budget = EnumerationBudget(4)
    near = Instance(LabeledGraph.build(True, 2, Alphabet("neardyck", 2), []),
                    0, 1)
    with pytest.raises(ValueError, match="needs an undirected-gadget target"):
        enumerate_nominal_paths(compile_neardyck_to_dyck2(near), ("loop", 0),
                                budget)
    red = compile_dyck2_to_undirected(default_gadget_source())
    with pytest.raises(ValueError, match="unknown tag"):
        enumerate_nominal_paths(red, ("bogus", 0), budget)


def test_brute_reach_edgeless_graph():
    inst = Instance(LabeledGraph.build(True, 3, Alphabet("dyck", 1), []), 0, 0)
    assert brute_dyck_reach(inst, EnumerationBudget(4)) == \
        (frozenset({(x, x) for x in range(3)}), False)


def test_brute_reach_complete_on_acyclic_instances():
    rng = random.Random(11)
    for trial in range(40):
        n = rng.randint(2, 6)
        alph = Alphabet("dyck", 2) if trial % 2 == 0 else Alphabet("neardyck", n)
        labels = list(alph.labels())
        edges = [(u, lab, v) for u in range(n) for v in range(u + 1, n)
                 for lab in labels if rng.random() < 0.3]
        inst = Instance(LabeledGraph.build(True, n, alph, edges), 0, n - 1)
        assert brute_dyck_reach(inst, EnumerationBudget(n)) == \
            (solve_dyck(inst).pairs, False)


def test_brute_reach_reads_dot_as_neutral():
    alph = Alphabet("neardyck", 3)
    v0, v0bar = Label("v", 0, False), Label("v", 0, True)
    g = LabeledGraph.build(True, 3, alph,
                           [(0, DOT, 1), (1, v0, 2), (2, v0bar, 1)])
    inst = Instance(g, 0, 1)
    brute, _ = brute_dyck_reach(inst, EnumerationBudget(4))
    assert brute == {(0, 0), (0, 1), (1, 1), (2, 2)} == solve_dyck(inst).pairs


def test_brute_reach_is_sound_on_neardyck_instances():
    rng = random.Random(17)
    for _ in range(50):
        inst = random_neardyck_instance(rng, max_vertices=4,
                                        directed=rng.random() < 0.5)
        assert brute_dyck_reach(inst, EnumerationBudget(6))[0] <= \
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


def _lemma_gadgets():
    """The worked 4-edge cycle gadget and the one-edge ``0 l1bar 1`` and
    ``0 l2bar 1`` gadgets, each with all of its nominal tags."""
    sources = [default_gadget_source()] + [
        Instance(LabeledGraph.build(True, 2, Alphabet("dyck", 2),
                                    [(0, Label("l", k, True), 1)]), 0, 1)
        for k in (1, 2)]
    for source in sources:
        red = compile_dyck2_to_undirected(source)
        tags = [("loop", x) for x in range(source.graph.vertex_count)]
        tags += [("edge",) + e for e in sorted(source.graph.edges)]
        yield red, tags


@pytest.mark.parametrize("budget", [
    EnumerationBudget(40, 300, max_expansions=20_000),
    EnumerationBudget(36, 120, max_expansions=20_000),
])
def test_nominal_paths_match_the_untabled_walk(budget):
    """At the lemma suites' budgets, skipping dead subtrees keeps the
    labels, their order and the truncated flag of the walk that re-walks
    them."""
    for red, tags in _lemma_gadgets():
        for tag in tags:
            assert enumerate_nominal_paths(red, tag, budget) == \
                reference_untabled_nominal_paths(red, tag, budget), tag


def test_nominal_truncation_matches_the_untabled_walk_at_every_cap():
    """A sweep of the expansion cap up to 20,000, with every cap in the
    last stretch of a search that finishes under it, lands caps inside
    subtrees the tabled walk skips: it must stop with the same labels and
    flag."""
    flags = set()
    for red, tags in _lemma_gadgets():
        for tag, length in itertools.product(tags, (13, 36)):
            def run(cap, walk=reference_untabled_nominal_paths):
                return walk(red, tag, EnumerationBudget(
                    length, 10_000, max_expansions=cap))
            total = _least_finishing_cap(lambda cap: not run(cap)[1], 20_000)
            for cap in _sweep(20_000, total, 8, 30):
                got = run(cap, enumerate_nominal_paths)
                assert got == run(cap), (tag, length, cap)
                flags.add((got[1], bool(got[0])))
    assert flags == {(True, False), (True, True), (False, True)}


def _redrawn_gadget(rng: random.Random, density: float):
    """A one-edge gadget whose target edges are redrawn at random among
    the source's vertices and that edge's chain, with its nominal tags:
    shapes no compiled gadget has, such as two walks that meet in the same
    vertex and reduced label, one of them past a pair-2 letter."""
    n = rng.randint(1, 2)
    x, y = rng.randrange(n), rng.randrange(n)
    lab = Label("l", rng.randint(1, 2), rng.random() < 0.5)
    alph = Alphabet("dyck", 2)
    red = compile_dyck2_to_undirected(
        Instance(LabeledGraph.build(True, n, alph, [(x, lab, y)]), 0, n - 1))
    stops = sorted({x, y} | {red.vertex_id((x, lab, y, i))
                             for i in range(1, 12)})
    edges = [(u, a, v) for i, u in enumerate(stops) for v in stops[i:]
             for a in alph.labels() if rng.random() < density]
    target = LabeledGraph.build(False, len(red.names), alph, edges)
    tags = [("loop", v) for v in range(n)] + [("edge", x, lab, y)]
    return red._replace(target=Instance(target, 0, 0)), tags


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.floats(0.02, 0.12), st.integers(0, 12),
       st.one_of(st.none(), st.integers(0, 3_000)))
# a self-loop chain whose walks meet in one state with and without a
# pair-2 letter, only the second of which may be kept
@example(seed=1, density=0.05, max_len=8, cap=None)
def test_nominal_paths_match_the_untabled_walk_on_redrawn_gadgets(
        seed, density, max_len, cap):
    """On targets no compiler makes, the tabled walk still keeps the
    labels, order and truncated flag of the untabled one."""
    red, tags = _redrawn_gadget(random.Random(seed), density)
    budget = EnumerationBudget(max_len, 10_000, max_expansions=cap)
    for tag in tags:
        assert enumerate_nominal_paths(red, tag, budget) == \
            reference_untabled_nominal_paths(red, tag, budget), tag


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


@pytest.mark.parametrize("labels, max_len", [
    (ZO_ALPHABET, 7),
    # labels outside the two pairs, and dot, which no factor holds
    (ZO_ALPHABET + (DOT, Label("l", 3, False), Label("l", 3, True)), 4),
], ids=["two-pair", "foreign-labels"])
def test_forced_prefix_oracle_matches_every_prefix_tried(labels, max_len):
    factors = reference_factor_words(labels, max_len)
    count = 0
    for w in exhaustive_words(labels, max_len, lambda w: True):
        assert factor_of_dyck_oracle(w) == (w in factors), w
        count += 1
    assert count == sum(len(labels) ** k for k in range(max_len + 1))


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
    assert cyk_accepts(g, word("dot v0 v0bar dot"))
    assert not cyk_accepts(g, word("v1 v0bar"))
    assert cyk_accepts(g, ())


ONE_PAIR = Alphabet("dyck", 1)
_NTS = ("S", "A", "B")


@st.composite
def grammars_and_dags(draw):
    """A random binary-normal-form grammar over one bracket pair on the
    nonterminals S, A and B, and a DAG of up to 4 vertices whose edges run
    from a lower to a higher id."""
    nt, lab = st.sampled_from(_NTS), st.sampled_from(tuple(ONE_PAIR.labels()))
    grammar = Grammar(
        _NTS, "S", draw(st.frozensets(nt, max_size=2)),
        tuple(draw(st.lists(st.tuples(nt, lab), max_size=4))),
        tuple(draw(st.lists(st.tuples(nt, nt, nt), min_size=1, max_size=5))),
        ONE_PAIR)
    n = draw(st.integers(min_value=1, max_value=4))
    vertex = st.integers(min_value=0, max_value=n - 1)
    edges = {(u, a, v) for u, a, v in draw(st.lists(st.tuples(vertex, lab, vertex)))
             if u < v}
    return grammar, Instance(LabeledGraph.build(True, n, ONE_PAIR, edges), 0, 0)


@settings(max_examples=300, deadline=None)
@given(grammars_and_dags())
def test_the_grammar_engine_matches_cyk_on_every_walk_of_a_dag(case):
    """A DAG has finitely many walks, so both sides are exact: the pairs
    derived from S are those joined by a walk whose label CYK accepts."""
    grammar, inst = case
    out = {}
    for u, lab, v in inst.graph.edges:
        out.setdefault(u, []).append((lab, v))
    walks = [(x, x, ()) for x in range(inst.graph.vertex_count)]
    for u, w, label in walks:  # grows while it is read: every walk once
        walks.extend((u, v, label + (lab,)) for lab, v in out.get(w, ()))
    assert solve_cfl(inst, grammar)["S"] == {
        (u, w) for u, w, label in walks if cyk_accepts(grammar, label)}

def test_bfs_distances_simple():
    arcs = {(0, 1), (1, 2), (0, 3)}
    assert bfs_distances(4, arcs, 0) == {0: 0, 1: 1, 3: 1, 2: 2}
    assert bfs_distances(4, arcs, 2) == {2: 0}


def test_the_oracles_import_no_solver():
    """The oracles stay independent of what they check: besides the
    standard library, ``oracle.py`` imports only the graph model and the
    word layer, at module level or inside a function."""
    tree = ast.parse(Path(dycklab.oracle.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            package.update([node.module] if node.module
                           else [alias.name for alias in node.names])
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = ([node.module] if isinstance(node, ast.ImportFrom)
                     else [alias.name for alias in node.names])
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, name
    assert package == {"graphs", "words"}
