"""End-to-end acceptance gate.

Each test pins one headline behavior of the package — solver agreement,
the wrap-only gap, the parity characterization, the worked instances, the
three reduction equivalences, the word-combinatorics facts, the bounded
lemma suites, the distance gadget, and dynamic maintenance — with explicit
sample sizes and wall-clock budgets.
"""

import itertools
import random
import time

from dycklab import (Alphabet, EnumerationBudget, Instance, Label,
                     LabeledGraph, PHI_UNDIRECTED, apply_update,
                     build_distance_gadget, compile_alt_to_neardyck,
                     compile_dyck2_to_undirected, dyck_grammar,
                     enumerate_paths, in_q, in_q_init, is_dyck,
                     is_dyck_prefix, near_dyck_grammar, nominal_decompose,
                     reduce_word, resolve_after_update, solve_alternating,
                     solve_cfl, solve_dyck, solve_dyck_wrap_only)
from dycklab.reductions import run_equivalence
from dycklab.oracle import bfs_distances
from dycklab.one_letter import ParityIndex
from dycklab.suites import (default_gadget_source, suite_lemma4,
                            suite_lemma5, suite_lemma6, suite_lemma7)
from dycklab.words import ZO_ALPHABET, zo_str

from util import (fig1_instance, fig2_source, gap_chain_instance,
                  random_alt_instance, random_dyck_instance,
                  random_neardyck_instance, random_script)

L1, L1BAR = Label("l", 1, False), Label("l", 1, True)
L2, L2BAR = Label("l", 2, False), Label("l", 2, True)
DYCK2_LABELS = (L1, L1BAR, L2, L2BAR)


# 1 ------------------------------------------------------------------------

def test_saturation_agrees_with_grammar_engine_on_500_instances():
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(500):
        pairs = rng.choice((1, 2, 3))
        inst = random_dyck_instance(rng, max_vertices=12, pairs=pairs,
                                    density=rng.uniform(0.05, 0.4))
        table = solve_cfl(inst, dyck_grammar(pairs))
        assert solve_dyck(inst).pairs == table["S"]
    assert time.monotonic() - t0 < 60


# 2 ------------------------------------------------------------------------

def test_wrap_only_solver_misses_the_concatenation_chain():
    inst = gap_chain_instance()
    assert (0, 4) not in solve_dyck_wrap_only(inst)
    assert solve_dyck(inst).query(0, 4)
    enum = enumerate_paths(inst, 0, 4, EnumerationBudget(4, 10), balanced=True)
    labels = [tuple(lab for _, lab, _ in p) for p in enum.paths]
    assert (L1, L1BAR, L2, L2BAR) in labels


# 3 ------------------------------------------------------------------------

def _one_pair_universe(n, slots):
    """All undirected one-pair graphs over the given edge slots, as
    (parity index, solver pair set) pairs."""
    choices = [(u, lab, v) for (u, v) in slots for lab in (L1, L1BAR)]
    for bits in range(1 << len(choices)):
        edges = [choices[i] for i in range(len(choices)) if bits >> i & 1]
        g = LabeledGraph.build(False, n, Alphabet("dyck", 1), edges)
        inst = Instance(g, 0, 0)
        yield ParityIndex(inst), solve_dyck(inst).pairs


def test_parity_characterization_matches_the_solver():
    t0 = time.monotonic()
    # seeded sample of 1000 instances with up to 6 vertices
    rng = random.Random(202)
    for _ in range(1000):
        inst = random_dyck_instance(rng, max_vertices=6, pairs=1,
                                    density=rng.uniform(0.05, 0.6),
                                    directed=False)
        parity = ParityIndex(inst)
        pairs = solve_dyck(inst).pairs
        n = inst.graph.vertex_count
        for s in range(n):
            for t in range(n):
                assert parity.query(s, t) == ((s, t) in pairs)
    # exhaustive loop-free 4-vertex universe and full 3-vertex universe
    # (self-loops included); the with-loop 4-vertex universe is 2^20 graphs
    # and does not fit the time budget
    universes = [(4, list(itertools.combinations(range(4), 2))),
                 (3, [(u, v) for u in range(3) for v in range(u, 3)])]
    for n, slots in universes:
        for parity, pairs in _one_pair_universe(n, slots):
            for s in range(n):
                for t in range(n):
                    assert parity.query(s, t) == ((s, t) in pairs)
    assert time.monotonic() - t0 < 120


# 4 ------------------------------------------------------------------------

def test_alternating_worked_instance_layers_and_gadget():
    inst = fig1_instance()
    member, trace = solve_alternating(inst)
    assert member
    assert trace.first_layer == {4: 0, 3: 1, 1: 2, 2: 3, 0: 4}
    red = compile_alt_to_neardyck(inst)
    table = solve_cfl(red.target,
                      near_dyck_grammar(red.target.graph.alphabet.size))
    assert (red.target.source, red.target.sink) in table["S"]


# 5 ------------------------------------------------------------------------

def test_reduction_equivalence_on_200_scripts_per_kind():
    t0 = time.monotonic()
    lanes = [
        ("alt_to_neardyck", 11,
         lambda rng: random_alt_instance(rng, 8), {1, 2}),
        ("neardyck_to_dyck2", 12,
         lambda rng: random_neardyck_instance(rng, 6), {1}),
        ("dyck2_to_undirected", 13,
         lambda rng: random_dyck_instance(rng, max_vertices=5, pairs=2,
                                          density=0.15), {12}),
    ]
    for kind, seed, make, bounds in lanes:
        rng = random.Random(seed)
        for _ in range(200):
            inst = make(rng)
            script = random_script(rng, inst, ops=30)
            report = run_equivalence(kind, inst, script)
            assert report.ok, (kind, report.failures)
            assert all(c in bounds for c in report.counts), (kind,
                                                            report.counts)
    assert time.monotonic() - t0 < 600


# 6 ------------------------------------------------------------------------

def _chain_traversal(red, x, lab, y):
    stops = [x] + [red.vertex_id((x, lab, y, i)) for i in range(1, 12)] + [y]
    return [(stops[i], PHI_UNDIRECTED[lab][i], stops[i + 1])
            for i in range(12)]


def test_undirected_gadget_cycles_and_their_ancestors():
    red = compile_dyck2_to_undirected(fig2_source())
    inst = red.target
    assert inst.graph.vertex_count == 178
    # short balanced cycles at the source exist and have empty ancestors
    enum = enumerate_paths(inst, 0, 0, EnumerationBudget(4, 50), balanced=True)
    short = [p for p in enum.paths if p]
    assert short
    for path in short:
        assert nominal_decompose(path, red).ancestor == ()
    # the full two-chain traversal cycle recovers the source cycle
    cycle = (_chain_traversal(red, 0, L1, 1)
             + _chain_traversal(red, 1, L1BAR, 0))
    assert is_dyck([lab for _, lab, _ in cycle])
    assert nominal_decompose(cycle, red).ancestor == ((0, L1, 1),
                                                      (1, L1BAR, 0))


# 7 ------------------------------------------------------------------------

def test_word_level_facts():
    t0 = time.monotonic()
    for opening in (L1, L2):
        pair = PHI_UNDIRECTED[opening] + PHI_UNDIRECTED[opening.matched()]
        assert is_dyck(pair)
    assert zo_str(reduce_word(PHI_UNDIRECTED[L1])) == "1 1 0 0 1 1 1 0"
    one, zero_bar = Label("b", 2, False), Label("b", 1, True)
    assert not in_q((one, zero_bar))
    # the reduced-form characterization of balanced-word prefixes matches
    # the direct stack oracle on every word up to length 10
    for length in range(11):
        for w in itertools.product(ZO_ALPHABET, repeat=length):
            assert in_q_init(w) == is_dyck_prefix(w)
    assert time.monotonic() - t0 < 300


# 8 ------------------------------------------------------------------------

def _lemma_sources():
    """Compiled-gadget sources for the bounded suites: every one-edge
    2-vertex graph, a seeded sample of two-edge 2-vertex graphs, the
    worked 4-edge cycle, and seeded 3-vertex graphs.  (All 2-vertex graphs
    would be 2^16 compilations and does not fit the time budget.)"""
    slots2 = [(u, lab, v) for u in range(2) for v in range(2)
              for lab in DYCK2_LABELS]
    for e in slots2:
        yield 2, [e]
    rng = random.Random(0)
    for pair in rng.sample(list(itertools.combinations(slots2, 2)), 20):
        yield 2, list(pair)
    slots3 = [(u, lab, v) for u in range(3) for v in range(3)
              for lab in DYCK2_LABELS]
    for _ in range(10):
        yield 3, rng.sample(slots3, 3)


def test_bounded_lemma_suites_find_no_violations():
    t0 = time.monotonic()
    res = suite_lemma5(max_len=10)
    assert res.ok, res.failures
    budget = EnumerationBudget(40, 300, max_expansions=20_000)
    budget7 = EnumerationBudget(36, 120, max_expansions=20_000)
    reductions = [compile_dyck2_to_undirected(default_gadget_source())]
    for n, edges in _lemma_sources():
        g = LabeledGraph.build(True, n, Alphabet("dyck", 2), edges)
        reductions.append(compile_dyck2_to_undirected(Instance(g, 0, n - 1)))
    for red in reductions:
        for res in (suite_lemma4(red, budget),
                    suite_lemma6(red, budget),
                    suite_lemma7(red, budget7, varpi_max_len=4,
                                 sample_cap=12, seed=0)):
            assert res.ok, res.failures
    assert time.monotonic() - t0 < 600


# 9 ------------------------------------------------------------------------

def test_distance_gadget_matches_bfs_on_100_digraphs():
    rng = random.Random(303)
    t0 = time.monotonic()
    for _ in range(100):
        n = rng.randint(1, 8)
        arcs = {(u, v) for u in range(n) for v in range(n)
                if u != v and rng.random() < 0.25}
        gadget = build_distance_gadget(n, arcs)
        idx = solve_dyck(gadget.instance)
        for s in range(n):
            dist = bfs_distances(n, arcs, s)
            for t in range(n):
                ks = [k for k in range(1, n + 1)
                      if idx.query(s, gadget.chain_vertex(t, k))]
                if t in dist and dist[t] > 0:
                    assert min(ks) == dist[t]
                elif t != s:
                    assert not ks
    assert time.monotonic() - t0 < 60


# 10 -----------------------------------------------------------------------

def test_incremental_maintenance_matches_from_scratch():
    rng = random.Random(404)
    # 50 scripts on directed two-pair instances: incremental re-solve
    for _ in range(50):
        inst = random_dyck_instance(rng, max_vertices=6, pairs=2,
                                    density=0.2)
        idx = solve_dyck(inst)
        for op in random_script(rng, inst, ops=50, query_rate=0.1):
            idx = resolve_after_update(idx, inst, op)
            inst = apply_update(inst, op)
            assert idx.pairs == solve_dyck(inst).pairs
    # 50 scripts on undirected one-pair instances: one live parity index
    for _ in range(50):
        inst = random_dyck_instance(rng, max_vertices=6, pairs=1,
                                    density=0.2, directed=False)
        parity = ParityIndex(inst)
        for op in random_script(rng, inst, ops=50, query_rate=0.0):
            parity.apply(op)
            inst = apply_update(inst, op)
            pairs = solve_dyck(inst).pairs
            n = inst.graph.vertex_count
            for s in range(n):
                for t in range(n):
                    assert parity.query(s, t) == ((s, t) in pairs)
