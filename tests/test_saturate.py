"""Pair-set saturation solvers and the grammar-driven second engine."""

import copy
import random

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import dycklab.saturate as saturate
from dycklab import (DOT, Alphabet, AlphabetMismatchError, Grammar,
                     GrammarIndex, Instance, InstanceMismatchError, Label,
                     LabeledGraph, UpdateError, UpdateOp,
                     apply_update, brute_dyck_reach, dyck_grammar,
                     near_dyck_grammar, resolve_after_update, solve_cfl,
                     solve_dyck, solve_dyck_wrap_only, EnumerationBudget)
from dycklab.saturate import bracket_grammar

from util import (fig2_source, gap_chain_instance, mask_faults,
                  random_dyck_instance, random_neardyck_instance,
                  random_script, reference_edge_tables,
                  reference_wrap_only_pairs)

L1, L1BAR = Label("l", 1, False), Label("l", 1, True)
L2, L2BAR = Label("l", 2, False), Label("l", 2, True)
V0, V0BAR = Label("v", 0, False), Label("v", 0, True)
V1, V1BAR = Label("v", 1, False), Label("v", 1, True)


def chain(labels, pairs=2):
    n = len(labels) + 1
    alph = Alphabet("dyck", pairs)
    edges = [(i, lab, i + 1) for i, lab in enumerate(labels)]
    g = LabeledGraph.build(True, n, alph, edges)
    return Instance(g, 0, n - 1)


def solved(inst):
    """``solve_dyck(inst)`` once its first read has run the from-scratch
    solve, so that later updates land on rows: they queue seeds, and a
    deletion marks the index stale."""
    idx = solve_dyck(inst)
    idx.pairs
    return idx


def test_empty_graph_identity_only():
    inst = Instance(LabeledGraph.build(True, 1, Alphabet("dyck", 1), []), 0, 0)
    assert solve_dyck(inst).pairs == frozenset({(0, 0)})
    assert solve_dyck(inst).query(0, 0)


def test_single_bracket_pair_chain():
    idx = solve_dyck(chain([L1, L1BAR]))
    assert idx.query(0, 2)
    assert not idx.query(0, 1)


def test_concatenation_chain_found_by_corrected_solver():
    inst = gap_chain_instance()
    assert solve_dyck(inst).query(0, 4)
    assert solve_dyck(inst).query(0, 2)
    assert solve_dyck(inst).query(2, 4)


def test_wrap_only_misses_the_concatenation_chain():
    inst = gap_chain_instance()
    assert (0, 4) not in solve_dyck_wrap_only(inst)
    # a brute-force enumeration still finds the witness at budget 4
    assert (0, 4) in brute_dyck_reach(inst, EnumerationBudget(4))[0]


def test_wrap_only_handles_pure_nesting():
    assert (0, 4) in solve_dyck_wrap_only(chain([L1, L2, L2BAR, L1BAR]))
    assert (0, 2) in solve_dyck_wrap_only(chain([L1, L1BAR]))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_wrap_only_matches_the_plain_wrap_fixpoint(seed, near, directed):
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=5, density=0.15,
                                        directed=directed)
    else:
        inst = random_dyck_instance(rng, max_vertices=7,
                                    pairs=rng.choice((1, 2, 3)), density=0.2,
                                    directed=directed)
    assert solve_dyck_wrap_only(inst) == reference_wrap_only_pairs(inst)


def test_two_edge_bracket_cycle():
    idx = solve_dyck(fig2_source())
    assert idx.query(0, 0)
    assert idx.query(1, 1)
    assert not idx.query(0, 1)


def test_solver_reads_the_near_dyck_alphabet():
    alph = Alphabet("neardyck", 2)
    inst = Instance(LabeledGraph.build(True, 2, alph, []), 0, 1)
    assert solve_dyck(inst).pairs == solve_cfl(inst, near_dyck_grammar(2))["S"]
    # 0 -v1-> 1 -dot-> 1 -v1bar-> 0 -dot-> 1: balanced once the dots go
    edges = [(0, V1, 1), (1, DOT, 1), (1, V1BAR, 0), (0, DOT, 1)]
    inst = Instance(LabeledGraph.build(True, 2, alph, edges), 0, 1)
    idx = solve_dyck(inst)
    assert idx.pairs == solve_cfl(inst, near_dyck_grammar(2))["S"]
    assert idx.query(0, 1) and idx.query(0, 0) and not idx.query(1, 0)


# ---------------------------------------------------------------------------
# Grammar engine

def test_dyck_grammar_shape():
    g = dyck_grammar(2)
    assert g.start == "S" and "S" in g.nullable
    assert len(g.terminal_rules) == 4


def test_grammar_factories_build_each_grammar_once():
    assert dyck_grammar(2) is dyck_grammar(2)
    assert near_dyck_grammar(3) is near_dyck_grammar(3)
    assert dyck_grammar(1) != dyck_grammar(2)


def test_grammar_validation():
    with pytest.raises(ValueError, match="start symbol is not a nonterminal"):
        Grammar(("S",), "T", frozenset(), (), (), Alphabet("dyck", 1))
    with pytest.raises(ValueError, match="bad terminal rule S -> l2"):
        Grammar(("S",), "S", frozenset(), (("S", Label("l", 2, False)),), (),
                Alphabet("dyck", 1))
    with pytest.raises(ValueError, match="unknown nonterminal 'T'"):
        Grammar(("S",), "S", frozenset(), (), (("T", "S", "S"),),
                Alphabet("dyck", 1))
    # a rule's body and the nullable set are checked as its head is
    with pytest.raises(ValueError, match="unknown nonterminal 'Y'"):
        Grammar(("S", "O"), "S", frozenset({"S"}), (("O", L1),),
                (("S", "O", "Y"),), Alphabet("dyck", 1))
    with pytest.raises(ValueError, match="unknown nonterminal 'Z'"):
        Grammar(("S",), "S", frozenset({"Z"}), (), (), Alphabet("dyck", 1))


def test_cfl_on_concatenation_chain():
    inst = gap_chain_instance()
    table = solve_cfl(inst, dyck_grammar(2))
    assert (0, 4) in table["S"]


def test_cfl_near_dyck_single_dot_edge():
    alph = Alphabet("neardyck", 2)
    g = LabeledGraph.build(True, 2, alph, [(0, DOT, 1)])
    table = solve_cfl(Instance(g, 0, 1), near_dyck_grammar(2))
    assert (0, 1) in table["S"]


def test_cfl_empty_graph_identity():
    alph = Alphabet("dyck", 1)
    inst = Instance(LabeledGraph.build(True, 3, alph, []), 0, 0)
    table = solve_cfl(inst, dyck_grammar(1))
    assert table["S"] == frozenset({(x, x) for x in range(3)})


def test_cfl_rejects_mismatched_alphabet():
    inst = gap_chain_instance()
    with pytest.raises(AlphabetMismatchError):
        solve_cfl(inst, dyck_grammar(1))


def test_engine_agreement_seeded_sample():
    rng = random.Random(7)
    for _ in range(40):
        inst = random_dyck_instance(rng, max_vertices=7, pairs=rng.choice((1, 2)),
                                    density=0.25, directed=rng.random() < 0.5)
        assert solve_dyck(inst).pairs == solve_cfl(
            inst, dyck_grammar(inst.graph.alphabet.size))["S"]


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_wrap_only_is_a_subset_of_the_corrected_solver(seed):
    inst = random_dyck_instance(random.Random(seed), max_vertices=6)
    assert solve_dyck_wrap_only(inst) <= solve_dyck(inst).pairs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_brute_reach_is_a_sound_subset(seed):
    inst = random_dyck_instance(random.Random(seed), max_vertices=6,
                                density=0.2)
    brute, truncated = brute_dyck_reach(inst, EnumerationBudget(8))
    assert brute <= solve_dyck(inst).pairs and not truncated


# ---------------------------------------------------------------------------
# Incremental re-solve

def test_insert_completing_a_bracket_pair():
    alph = Alphabet("dyck", 1)
    g = LabeledGraph.build(True, 3, alph, [(0, L1, 1)])
    inst = Instance(g, 0, 2)
    idx = solve_dyck(inst)
    assert not idx.query(0, 2)
    op = UpdateOp.ins(1, L1BAR, 2)
    idx2 = resolve_after_update(idx, inst, op)
    assert idx2.query(0, 2)
    assert idx2.pairs == solve_dyck(apply_update(inst, op)).pairs


def test_delete_breaks_the_only_witness():
    inst = chain([L1, L1BAR], pairs=1)
    idx = solve_dyck(inst)
    op = UpdateOp.delete(1, L1BAR, 2)
    idx2 = resolve_after_update(idx, inst, op)
    assert not idx2.query(0, 2)


def test_instance_mismatch_is_rejected():
    inst = chain([L1, L1BAR], pairs=1)
    other = chain([L1, L1BAR, L2, L2BAR])
    with pytest.raises(InstanceMismatchError):
        resolve_after_update(solve_dyck(inst), other, UpdateOp.query())


def test_incremental_equals_scratch_on_random_scripts():
    rng = random.Random(13)
    for _ in range(8):
        inst = random_dyck_instance(rng, max_vertices=6, density=0.2)
        idx = solve_dyck(inst)
        for op in random_script(rng, inst, ops=25, query_rate=0.0):
            idx = resolve_after_update(idx, inst, op)
            inst = apply_update(inst, op)
            assert idx.pairs == solve_dyck(inst).pairs


def test_incremental_on_undirected_insert():
    alph = Alphabet("dyck", 1)
    g = LabeledGraph.build(False, 3, alph, [(0, L1, 1)])
    inst = Instance(g, 0, 2)
    idx = solve_dyck(inst)
    op = UpdateOp.ins(2, L1BAR, 1)  # symmetric edge must count both ways
    idx2 = resolve_after_update(idx, inst, op)
    assert idx2.pairs == solve_dyck(apply_update(inst, op)).pairs
    assert idx2.query(0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.sampled_from((1, 2)),
       st.booleans())
def test_maintained_index_matches_the_grammar_engine(seed, pairs, directed):
    rng = random.Random(seed)
    inst = random_dyck_instance(rng, max_vertices=7, pairs=pairs,
                                density=0.15, directed=directed)
    grammar = dyck_grammar(pairs)
    idx = solve_dyck(inst)
    live = solve_dyck(inst)
    for op in random_script(rng, inst, ops=20, query_rate=0.1):
        before = frozenset(idx.pairs)
        new = resolve_after_update(idx, inst, op)
        live.apply(op)
        inst = apply_update(inst, op)
        expected = solve_cfl(inst, grammar)["S"]
        assert new.pairs == expected
        assert len(new.pairs) == len(expected)
        assert live.pairs == expected
        assert len(live.pairs) == len(expected)
        # resolve_after_update works on a copy: the old index keeps its answers
        assert idx.pairs == before
        idx = new


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans())
def test_maintained_near_dyck_index_matches_the_grammar_engine(seed,
                                                               directed):
    rng = random.Random(seed)
    inst = random_neardyck_instance(rng, max_vertices=5, density=0.08,
                                    directed=directed)
    grammar = near_dyck_grammar(inst.graph.alphabet.size)
    idx = solve_dyck(inst)
    live = solve_dyck(inst)
    # read only at the script's queries and at its end, so insertions also
    # land on an index a deletion has left stale
    lazy = solve_dyck(inst)
    script = random_script(rng, inst, ops=20, query_rate=0.15)
    for op in script:
        new = resolve_after_update(idx, inst, op)
        live.apply(op)
        lazy.apply(op)
        inst = apply_update(inst, op)
        expected = solve_cfl(inst, grammar)["S"]
        assert new.pairs == expected
        assert live.pairs == expected
        assert len(live.pairs) == len(expected)
        if op.op == "query":
            assert lazy.pairs == expected
        idx = new
    assert lazy.pairs == expected


@pytest.mark.parametrize("op", [
    UpdateOp.ins(0, L1, 1),       # already present
    UpdateOp.delete(1, L1, 0),    # absent
    UpdateOp.ins(0, L1, 7),       # endpoint out of range
])
def test_a_rejected_update_leaves_the_index_unchanged(op):
    inst = chain([L1, L1BAR], pairs=1)
    idx = solve_dyck(inst)
    before = frozenset(idx.pairs)
    with pytest.raises(UpdateError):
        idx.apply(op)
    assert idx.inst is inst
    assert idx.pairs == before
    idx.apply(UpdateOp.delete(1, L1BAR, 2))
    assert not idx.query(0, 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_apply_accepts_and_rejects_as_apply_update_does(seed, near,
                                                        directed):
    """Ops of every kind: valid ones, duplicate insertions (the reversed
    edge too), missing deletions, vertices out of range, labels outside
    the alphabet and ``dot`` edges.  The index raises exactly when
    ``apply_update`` does, with its message; a rejected op changes neither
    its pairs nor its instance, and an accepted one gives the instance
    ``apply_update`` gives."""
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=4, density=0.15,
                                        directed=directed)
    else:
        inst = random_dyck_instance(rng, max_vertices=5, pairs=2,
                                    density=0.2, directed=directed)
    n, alphabet = inst.graph.vertex_count, inst.graph.alphabet
    labels = list(alphabet.labels()) + [
        DOT, L1, V1BAR, Label("l", alphabet.size + 1, True),
        Label("v", alphabet.size, False)]
    grammar = bracket_grammar(alphabet)
    idx = solve_dyck(inst)
    for step in range(30):
        edges = sorted(inst.graph.edges)
        if edges and rng.random() < 0.4:
            u, lab, v = rng.choice(edges)
            if rng.random() < 0.5:
                u, v = v, u
        else:
            u, lab, v = (rng.randrange(-1, n + 1), rng.choice(labels),
                         rng.randrange(-1, n + 1))
        kind = rng.choice(("ins", "del") * 4 + ("swap",))
        op = UpdateOp(kind, u, lab, v, line=rng.choice((None, step + 1)))
        try:
            want = apply_update(inst, op)
        except UpdateError as exc:
            with pytest.raises(UpdateError) as got:
                idx.apply(op)
            assert str(got.value) == str(exc)
            assert idx.inst == inst
            assert idx.pairs == solve_cfl(inst, grammar)["S"]
            continue
        idx.apply(op)
        inst = want
        # read the instance only now and then, so that accepted updates
        # pile up before a rejected one
        if rng.random() < 0.5:
            assert idx.inst == inst
    assert idx.inst == inst
    assert idx.pairs == solve_cfl(inst, grammar)["S"]


def test_reads_and_copies_run_the_pending_insertions():
    # 0 -l1-> 1 -l2-> 2 -l2bar-> 3 -l1bar-> 4: inserting (2, l2bar, 3)
    # queues a seed, and only a read runs it, deriving (1, 3) and (0, 4)
    whole = chain([L1, L2, L2BAR, L1BAR])
    part = apply_update(whole, UpdateOp.delete(2, L2BAR, 3))
    expected = solve_cfl(whole, dyck_grammar(2))["S"]
    read, copied, queried = solved(part), solved(part), solved(part)
    for idx in (read, copied, queried):
        idx.apply(UpdateOp.ins(2, L2BAR, 3))
        assert idx.seeds and not idx.rows[0] >> 4 & 1
    assert (0, 4) in expected and read.pairs == expected
    assert copied.copy().pairs == expected
    assert queried.query(0, 4)


def test_updates_before_the_first_read_only_edit_the_tables(monkeypatch):
    seeded = _count_seeds(monkeypatch)
    started = _count_starts(monkeypatch)
    # 0 -l1-> 1 -l1bar-> 2 -l2-> 3 -l2bar-> 4: the burst deletes the one
    # witness of (0, 2) and (0, 4), and builds the nesting 4 -l1-> 0 -l1->
    # 1 -l1bar-> 3 -l1bar-> 2, deleting (4, l1, 0) and inserting it again
    inst = chain([L1, L1BAR, L2, L2BAR])
    idx = solve_dyck(inst)
    assert idx.rows is None and started == []
    for op in (UpdateOp.ins(4, L1, 0), UpdateOp.delete(1, L1BAR, 2),
               UpdateOp.ins(1, L1BAR, 3), UpdateOp.ins(3, L1BAR, 2),
               UpdateOp.delete(4, L1, 0), UpdateOp.ins(4, L1, 0)):
        idx.apply(op)
        inst = apply_update(inst, op)
        assert idx.rows is None and not idx.seeds and not idx.stale, op
        assert mask_faults(idx, inst) == [], op
    # the first read solves today's edges from scratch, and nothing else
    assert (4, 2) in solve_cfl(inst, dyck_grammar(2))["S"]
    _answers_exactly(idx, inst)
    assert started == [inst] and seeded == [] and not idx.stale


def test_a_fresh_query_stops_at_its_pair():
    # 0 -l1-> 1 -l2-> 2 -l2bar-> 3 -l1bar-> 4: the solve's start derives
    # (1, 3), and only the work it queues derives (0, 4)
    inst = chain([L1, L2, L2BAR, L1BAR])
    expected = solve_cfl(inst, dyck_grammar(2))["S"]
    read, copied, queried = solve_dyck(inst), solve_dyck(inst), \
        solve_dyck(inst)
    for idx in (read, copied, queried):
        assert idx.query(1, 3) and idx.work and not idx.seeds
        assert not idx.rows[0] >> 4 & 1
    assert read.pairs == expected
    other = copied.copy()
    assert not copied.work and other.pairs == copied.pairs == expected
    # an absent bit runs the queued work, which sets it; a "no" whose
    # sink has a closing edge into it runs the work to its end
    assert queried.query(0, 4) and (0, 4) in expected
    assert not queried.query(1, 4) and not queried.work
    assert queried.pairs == expected


def test_an_out_of_range_query_runs_nothing():
    # 0 -l1-> 1 -l2-> 2 -l2bar-> 3 -l1bar-> 4: the stopped query leaves
    # work queued, and the insertion a seed
    inst = chain([L1, L2, L2BAR, L1BAR])
    unread = solve_dyck(inst)
    assert not unread.query(0, 5) and unread.rows is None
    idx = solve_dyck(inst)
    assert idx.query(1, 3) and idx.work
    idx.apply(UpdateOp.ins(4, L1, 0))
    seeds, work = list(idx.seeds), list(idx.work)
    for u, v in ((0, 5), (0, 6), (5, 0), (-1, 0), (0, -1)):
        assert not idx.query(u, v), (u, v)
        assert idx.seeds == seeds and idx.work == work, (u, v)


@pytest.mark.parametrize("op", [UpdateOp.delete(1, L2, 2),
                                UpdateOp.delete(3, L1BAR, 4)],
                         ids=["witness-of-the-pair", "edge-the-work-needs"])
def test_a_deletion_after_a_stopped_query_keeps_the_stale_no_exact(op):
    # the query leaves row 1's new bit 3 on the worklist; run after the
    # deletion, that work joins today's edges with stale rows
    inst = chain([L1, L2, L2BAR, L1BAR])
    idx = solve_dyck(inst)
    assert idx.query(1, 3) and idx.work
    _answers_exactly(idx, inst, op)


def _count_starts(monkeypatch) -> list:
    """Patch ``ReachIndex._start`` to record the instance of every
    from-scratch solve begun, a first read's and a stale query's restart
    alike; returns the record."""
    started = []
    start = saturate.ReachIndex._start

    def counted(index):
        start(index)
        # read only now: reading ``inst`` applies the pending updates
        started.append(index.inst)

    monkeypatch.setattr(saturate.ReachIndex, "_start", counted)
    return started


def _count_seeds(monkeypatch) -> list:
    """Patch ``ReachIndex._seed`` to record every seed it joins with the
    rows, as ``(slot, x, y)``; returns the record."""
    seeded = []
    seed = saturate.ReachIndex._seed

    def counted(index, s, x, y):
        seeded.append((s, x, y))
        return seed(index, s, x, y)

    monkeypatch.setattr(saturate.ReachIndex, "_seed", counted)
    return seeded


def test_a_query_on_a_set_bit_runs_no_seed(monkeypatch):
    seeded = _count_seeds(monkeypatch)
    # 0 -l1-> 1 -l1bar-> 2 -l2-> 3 -l2bar-> 4, and then 4 -l1-> 0 and
    # 2 -l1bar-> 4, which close the bracket cycle (4, 4)
    inst = chain([L1, L1BAR, L2, L2BAR])
    idx = solved(inst)

    def step(*ops):
        nonlocal inst
        for op in ops:
            idx.apply(op)
            inst = apply_update(inst, op)
        return solve_cfl(inst, dyck_grammar(2))["S"]

    expected = step(UpdateOp.ins(4, L1, 0), UpdateOp.ins(2, L1BAR, 4))
    # fresh rows only grow under insertions: a set bit is an exact "yes"
    assert idx.seeds and idx.query(0, 2) and (0, 2) in expected
    assert seeded == []
    # a stale set bit restarts the solve, dropping the stale rows' seeds
    expected = step(UpdateOp.delete(3, L2BAR, 4), UpdateOp.ins(3, L2BAR, 4))
    assert idx.stale and len(idx.seeds) == 3 and idx.rows[0] >> 2 & 1
    assert idx.query(0, 2) and (0, 2) in expected
    assert seeded == [] and not idx.stale and not idx.seeds
    # an absent bit runs the seeds, here on stale rows again: the
    # restarted solve stopped at (0, 2) has read (1, l1bar, 2)
    expected = step(UpdateOp.delete(1, L1BAR, 2), UpdateOp.ins(1, L1BAR, 2))
    assert idx.stale and idx.seeds and not idx.rows[4] >> 2 & 1
    assert not idx.query(4, 2) and (4, 2) not in expected
    assert seeded == [(1, 1, 2)] and not idx.seeds  # l1bar is slot 1
    assert idx.pairs == expected


def test_an_edge_deleted_before_any_read_is_never_seeded(monkeypatch):
    seeded = _count_seeds(monkeypatch)
    # 0 -l1-> 1 -l2-> 2 and 3 -l1bar-> 4: (2, l2bar, 3) would derive (0, 4);
    # it is inserted and deleted with no read of the solved index between
    edges = [(0, L1, 1), (1, L2, 2), (3, L1BAR, 4)]
    inst = Instance(LabeledGraph.build(True, 5, Alphabet("dyck", 2), edges),
                    0, 4)
    idx = solved(inst)
    idx.apply(UpdateOp.ins(2, L2BAR, 3))
    idx.apply(UpdateOp.delete(2, L2BAR, 3))
    assert idx.stale and idx.seeds
    # the stale "no" runs the pending seeds, skipping the deleted edge's
    assert not idx.query(0, 4) and (0, 4) not in solve_cfl(
        inst, dyck_grammar(2))["S"]
    assert seeded == [] and idx.stale and not idx.seeds
    _answers_exactly(idx, inst)
    assert seeded == []


def test_deletions_before_a_query_cost_one_resolve(monkeypatch):
    started = _count_starts(monkeypatch)
    # the script keeps a closing edge into the sink 4, so that its
    # queries are not answered by the endpoint counts alone
    inst = chain([L1, L1BAR, L2, L2BAR])
    script = [UpdateOp.delete(0, L1, 1), UpdateOp.delete(2, L2, 3),
              UpdateOp.ins(0, L1, 1), UpdateOp.delete(1, L1BAR, 2),
              UpdateOp.ins(2, L2, 3), UpdateOp.query(), UpdateOp.query()]
    final = inst
    for op in script[:5]:
        final = apply_update(final, op)
    assert saturate.run_replay(inst, script) == [False, False]
    # nothing was read before the first query, so it runs the index's
    # first solve over today's edges; the second needs none
    assert started == [final]

    # the same through an index already read: the deletions leave it
    # stale, and nothing is solved until the query restarts the solve
    idx = solved(inst)
    for op in script[:5]:
        idx.apply(op)
    assert started == [final, inst] and idx.stale
    assert not idx.query(0, 4)
    assert started == [final, inst, final] and not idx.stale
    assert idx.pairs == solve_cfl(final, dyck_grammar(2))["S"]
    assert idx.query(2, 4) and not idx.query(0, 4)
    assert len(started) == 3


def _churn_op(rng, inst):
    """A deletion of a present edge or an insertion of an absent one, as
    likely as each other, so that stale stretches are common."""
    g = inst.graph
    n = g.vertex_count
    absent = [(u, lab, v) for u in range(n) for v in range(n)
              for lab in g.alphabet.labels() if not g.has_edge(u, lab, v)]
    if g.edges and (not absent or rng.random() < 0.5):
        return UpdateOp.delete(*rng.choice(sorted(g.edges)))
    return UpdateOp.ins(*rng.choice(absent))


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_a_stale_index_answers_queries_exactly(seed, near, directed):
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=5, density=0.15,
                                        directed=directed)
        grammar = near_dyck_grammar(inst.graph.alphabet.size)
    else:
        inst = random_dyck_instance(rng, max_vertices=7, pairs=2,
                                    density=0.2, directed=directed)
        grammar = dyck_grammar(2)
    n = inst.graph.vertex_count
    live = solve_dyck(inst)
    for _ in range(24):
        op = _churn_op(rng, inst)
        live.apply(op)
        inst = apply_update(inst, op)
        expected = solve_cfl(inst, grammar)["S"]
        if live.stale:
            # stale rows, closed by running their pending work with every
            # vertex demanded, over-approximate: every derivable pair is
            # present.  A deep copy runs it, so that the queries below
            # meet stale rows with seeds, work and activations pending
            closed = copy.deepcopy(live)
            closed._run()
            assert all(closed.rows[u] >> v & 1 for u, v in expected)
        asked = [(inst.source, inst.sink)]
        asked += [(rng.randrange(n), rng.randrange(n)) for _ in range(4)]
        for u, v in asked:
            assert live.query(u, v) == ((u, v) in expected), (op, u, v)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_the_demand_set_holds_after_every_step(seed, near, directed):
    """On seeded scripts that mix insertions, deletions and queries of
    random pairs, the forward tables and the demand set keep their
    invariants (``mask_faults``) after every step, and every answer is
    exact.  The queries' sources are drawn at random, so they land on
    fresh, seeded and stale indexes, often outside the demand set."""
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=6, density=0.15,
                                        directed=directed)
    else:
        inst = random_dyck_instance(rng, max_vertices=8, pairs=2,
                                    density=0.15, directed=directed)
    n = inst.graph.vertex_count
    live, expected = solve_dyck(inst), None
    for step in range(30):
        if rng.random() < 0.4:
            u, v = rng.randrange(n), rng.randrange(n)
            if expected is None:
                expected = solve_cfl(
                    inst, bracket_grammar(inst.graph.alphabet))["S"]
            outside = live.rows is not None and not live.demand >> u & 1
            event("source outside the demand set" if outside
                  else "source demanded or index unread")
            assert live.query(u, v) == ((u, v) in expected), (step, u, v)
        else:
            op = _churn_op(rng, inst)
            live.apply(op)
            inst, expected = apply_update(inst, op), None
        assert mask_faults(live, inst) == [], step


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_support_masks_hold_under_mixed_scripts(seed, near, directed):
    rng = random.Random(seed)
    if near:
        # the per-vertex alphabet carries the neutral dot edges
        inst = random_neardyck_instance(rng, max_vertices=5, density=0.15,
                                        directed=directed)
    else:
        inst = random_dyck_instance(rng, max_vertices=7,
                                    pairs=rng.choice((1, 2)), density=0.2,
                                    directed=directed)
    live = solve_dyck(inst)
    assert mask_faults(live) == []
    for step in range(24):
        op = _churn_op(rng, inst)
        live.apply(op)
        inst = apply_update(inst, op)
        assert mask_faults(live) == [], (step, op)
        other = live.copy()
        assert mask_faults(other) == [], (step, op)
        assert other.outof is not live.outof and other.into is not live.into
        if step % 3 == 2:
            assert live.pairs == solve_dyck(inst).pairs
            assert not live.stale
            assert mask_faults(live) == [], (step, op)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10**9), st.booleans(),
       st.booleans())
def test_edge_tables_match_the_label_by_label_build(seed, near, directed):
    """``_edge_tables`` reads each directed edge once, by its slot, into
    the edge tables, the ``closers`` masks, the forward opening tables
    and the endpoint counts, against a build that computes each slot from
    its label and the masks in a second pass: both alphabets, directed
    and undirected, every instance with a self-loop and, on the
    per-vertex alphabet, a ``dot`` edge."""
    rng = random.Random(seed)
    if near:
        inst = random_neardyck_instance(rng, max_vertices=6, density=0.15,
                                        directed=directed)
    else:
        inst = random_dyck_instance(rng, max_vertices=7,
                                    pairs=rng.choice((1, 2, 3)),
                                    density=0.15, directed=directed)
    g = inst.graph
    n = g.vertex_count
    x, y = rng.randrange(n), rng.randrange(n)
    extra = [(x, rng.choice(list(g.alphabet.labels())), x)]
    if near:
        extra.append((y, DOT, x))
    inst = Instance(LabeledGraph.build(directed, n, g.alphabet,
                                       [*g.edges, *extra]), 0, 0)
    assert saturate._edge_tables(inst) == reference_edge_tables(inst)


def _closure_faults(idx) -> list[str]:
    """How an index fails the two invariants ``_add`` relies on: ``cols``
    is the exact transpose of ``rows``, and every row is closed
    (``rows[b]`` is a subset of ``rows[x]`` for each ``b`` in
    ``rows[x]``).  Empty when both hold."""
    faults = []
    rows = idx.rows
    transpose = [0] * len(rows)
    for x, row in enumerate(rows):
        for b in saturate._bits(row):
            transpose[b] |= 1 << x
            if rows[b] & ~row:
                faults.append(f"row {x} holds {b} but misses "
                              f"{rows[b] & ~row:#b} of its row")
    for v, (want, got) in enumerate(zip(transpose, idx.cols, strict=True)):
        if want != got:
            faults.append(f"cols[{v}] is {got:#b}, not {want:#b}")
    return faults


@pytest.mark.parametrize("near", [False, True], ids=["dyck2", "neardyck"])
@pytest.mark.parametrize("directed", [True, False],
                         ids=["directed", "undirected"])
def test_columns_transpose_closed_rows_after_every_step(near, directed):
    """On seeded scripts of insertions, deletions and queries, the index
    keeps ``cols`` the transpose of closed rows after every ``apply``,
    every query and every ``pairs`` read, seeds pending or not; the
    scripts reach states where stale rows, and where the rows of a solve
    that a stale query restarted and stopped at its pair, hold seeds not
    yet run."""
    pending = {"stale": 0, "restarted": 0}
    for seed in range(25):
        rng = random.Random(seed)
        if near:
            inst = random_neardyck_instance(rng, max_vertices=6,
                                            density=0.12, directed=directed)
        else:
            inst = random_dyck_instance(rng, max_vertices=9, pairs=2,
                                        density=0.1, directed=directed)
        n = inst.graph.vertex_count
        idx = solved(inst)
        assert _closure_faults(idx) == [], seed
        restarted = False
        for step, op in enumerate(random_script(rng, inst, ops=40)):
            if op.op == "query":
                stale = idx.stale
                idx.query(rng.randrange(n), rng.randrange(n))
                restarted = stale and not idx.stale and bool(idx.work)
            else:
                idx.apply(op)
                restarted &= op.op == "ins"
            assert _closure_faults(idx) == [], (seed, step, op)
            pending["stale"] += bool(idx.stale and idx.seeds)
            pending["restarted"] += bool(restarted and idx.seeds)
            if step % 10 == 9:
                idx.pairs
                restarted = False
                assert _closure_faults(idx) == [], (seed, step, "pairs")
    assert pending["stale"] and pending["restarted"], pending


def test_closers_follow_the_last_closing_edge():
    # 0 -l1-> 1 -l1bar-> 2, and a second l1bar edge out of 1
    inst = chain([L1, L1BAR], pairs=1)
    idx = solved(inst)
    assert idx.closers == [0b010] and idx.wide == 0b001
    idx.apply(UpdateOp.ins(1, L1BAR, 0))
    assert idx.closers == [0b010]
    idx.apply(UpdateOp.delete(1, L1BAR, 2))
    assert idx.closers == [0b010]     # 1 keeps its edge to 0
    idx.apply(UpdateOp.delete(1, L1BAR, 0))
    assert idx.closers == [0]
    assert idx.wide == 0b001          # stale rows keep their masks
    assert idx.pairs == {(0, 0), (1, 1), (2, 2)}
    assert idx.wide == 0 and idx.rows == [0b001, 0b010, 0b100]
    idx.apply(UpdateOp.ins(2, L1BAR, 0))  # out of a vertex with no closer
    assert idx.closers == [0b100]


def test_a_query_closes_only_what_its_source_needs():
    # 0 -l1-> 1 -l1bar-> 2, and 3 -l2-> 4 -l2bar-> 5 beside
    # 3 -l1-> 6 -l1bar-> 5
    edges = [(0, L1, 1), (1, L1BAR, 2), (3, L2, 4), (4, L2BAR, 5),
             (3, L1, 6), (6, L1BAR, 5)]
    inst = Instance(LabeledGraph.build(True, 7, Alphabet("dyck", 2), edges),
                    0, 2)
    idx = solve_dyck(inst)
    assert idx.query(0, 2)
    # 0 needs the rows of its opening target 1 and of the bit 2 only
    assert idx.demand == 0b111 and idx.active == 0b001
    assert idx.rows[3:] == [1 << x for x in range(3, 7)]
    # the solve never read (3, l2, 4), so its deletion leaves the index
    # exact; it read (0, l1, 1), whose deletion marks the index stale
    for op, stale in ((UpdateOp.delete(3, L2, 4), False),
                      (UpdateOp.delete(0, L1, 1), True)):
        idx.apply(op)
        inst = apply_update(inst, op)
        assert idx.stale == stale, op
    # 3's identity row lacks 5, yet 3 still reaches 5 through 6: the stale
    # query adds 3 to the demand set before it reads the bit
    assert idx.query(3, 5)
    assert idx.demand >> 3 & 1 and not idx.stale
    assert mask_faults(idx) == []
    _answers_exactly(idx, inst)


def test_a_stale_no_costs_no_resolve(monkeypatch):
    # 0 -l1-> 1 -l1bar-> 2 -l2-> 3 -l2bar-> 4
    idx = solved(chain([L1, L1BAR, L2, L2BAR]))
    started = _count_starts(monkeypatch)
    idx.apply(UpdateOp.delete(1, L1BAR, 2))
    assert idx.stale
    # lands on the stale rows, and gives the sink 0 a closing edge
    idx.apply(UpdateOp.ins(4, L2BAR, 0))
    # (2, 0) was never derivable: its bit is absent, so "no" is exact
    assert not idx.query(2, 0)
    assert idx.stale
    assert started == []
    # (0, 4) was derivable before the deletion: its stale bit is set, and
    # the answer needs the one solve, run to its end
    assert not idx.query(0, 4)
    assert len(started) == 1
    assert not idx.stale and not idx.work
    assert idx.query(2, 4) and not idx.query(0, 4)
    assert len(started) == 1


def _answers_exactly(idx, inst, *ops):
    """Apply ``ops`` to ``idx``, which holds ``inst``, checking that each
    deletion leaves it stale; then check every answer and ``pairs``
    against ``solve_cfl``."""
    for op in ops:
        idx.apply(op)
        inst = apply_update(inst, op)
        assert op.op != "del" or idx.stale, op
    n = inst.graph.vertex_count
    expected = solve_cfl(inst, bracket_grammar(inst.graph.alphabet))["S"]
    assert all(idx.query(u, v) == ((u, v) in expected)
               for u in range(n) for v in range(n))
    assert idx.pairs == expected


def test_an_endpoint_no_runs_no_solve(monkeypatch):
    started = _count_starts(monkeypatch)
    # 0 -l1-> 1 -l2-> 2 -l2bar-> 3: no closing edge enters 4, and no
    # opening edge leaves 3
    edges = [(0, L1, 1), (1, L2, 2), (2, L2BAR, 3)]
    inst = Instance(LabeledGraph.build(True, 5, Alphabet("dyck", 2), edges),
                    0, 4)
    idx = solve_dyck(inst)
    assert not idx.query(0, 4) and not idx.query(3, 2)
    assert idx.rows is None and started == []
    # a solve stopped at its pair keeps its work, and stale rows stay so
    assert idx.query(1, 3) and idx.work and len(started) == 1
    for op in (None, UpdateOp.delete(1, L2, 2), UpdateOp.ins(1, L2, 2)):
        if op:
            idx.apply(op)
            inst = apply_update(inst, op)
        state = (idx.stale, list(idx.rows), list(idx.work), list(idx.seeds))
        assert not idx.query(0, 4) and not idx.query(3, 2)
        assert (idx.stale, idx.rows, idx.work, idx.seeds) == state, op
    assert idx.stale and len(started) == 1
    # once (3, l1bar, 4) arrives, 0 reaches 4, and the index answers exactly
    op = UpdateOp.ins(3, L1BAR, 4)
    idx.apply(op)
    inst = apply_update(inst, op)
    assert idx.query(0, 4)
    _answers_exactly(idx, inst)


@pytest.mark.parametrize("edge", [(3, V1, 4), (3, DOT, 5), (4, V1BAR, 5)],
                         ids=["opening", "dot", "closing"])
def test_deleting_an_edge_the_solve_never_read_leaves_it_fresh(monkeypatch,
                                                               edge):
    # 0 -v0-> 1 -v0bar-> 2, beside 3 -v1-> 4 -v1bar-> 5 and 3 -dot-> 5:
    # the query (0, 2) activates 0 alone and demands 0, 1 and 2, so its
    # solve reads no edge out of 3 or 4
    edges = [(0, V0, 1), (1, V0BAR, 2), (3, V1, 4), (4, V1BAR, 5),
             (3, DOT, 5)]
    inst = Instance(LabeledGraph.build(True, 6, Alphabet("neardyck", 6),
                                       edges), 0, 2)
    idx = solve_dyck(inst)
    assert idx.query(0, 2) and idx.active == 0b1 and idx.demand == 0b111
    started = _count_starts(monkeypatch)
    op = UpdateOp.delete(*edge)
    idx.apply(op)
    inst = apply_update(inst, op)
    assert not idx.stale and mask_faults(idx) == []
    _answers_exactly(idx, inst)
    assert started == []


def test_deleting_a_closing_edge_out_of_a_demanded_vertex_marks_it_stale():
    # 0 -l1-> 1 -l1bar-> 2 beside 3 -l1bar-> 2: the query (0, 2) activates
    # 0 alone, and joins its opening edge with (1, l1bar, 2) out of the
    # demanded, inactive 1; it never reads the closing edge out of 3
    edges = [(0, L1, 1), (1, L1BAR, 2), (3, L1BAR, 2)]
    inst = Instance(LabeledGraph.build(True, 4, Alphabet("dyck", 1), edges),
                    0, 2)
    idx = solve_dyck(inst)
    assert idx.query(0, 2) and idx.active == 0b1 and idx.demand == 0b111
    op = UpdateOp.delete(3, L1BAR, 2)
    idx.apply(op)
    inst = apply_update(inst, op)
    assert not idx.stale
    _answers_exactly(idx, inst, UpdateOp.delete(1, L1BAR, 2))


def test_an_opening_seed_demands_its_target():
    # 0 -l1-> 1 -l1bar-> 2, read through the query (0, 2), beside
    # 3 -l2-> 5 -l2bar-> 6 -l1bar-> 4; then (0, l1, 3) arrives as a seed.
    # (0, 4) needs row 3 closed, so the seed must demand 3
    edges = [(0, L1, 1), (1, L1BAR, 2), (3, L2, 5), (5, L2BAR, 6),
             (6, L1BAR, 4)]
    inst = Instance(LabeledGraph.build(True, 7, Alphabet("dyck", 2), edges),
                    0, 4)
    idx = solve_dyck(inst)
    assert idx.query(0, 2) and not idx.demand >> 3 & 1
    op = UpdateOp.ins(0, L1, 3)
    idx.apply(op)
    inst = apply_update(inst, op)
    assert idx.query(0, 4) and idx.demand >> 3 & 1
    assert mask_faults(idx) == []
    _answers_exactly(idx, inst)


def test_a_closing_seed_demands_the_tail_it_reads():
    # 0 -l1-> 1 -l1bar-> 2 -l1bar-> 4, read through the query (0, 2); then
    # (0, l1, 3) and (3, l1bar, 4) arrive as seeds.  The query (0, 4)
    # runs the closing seed first and stops at the pair it derives, with
    # the opening seed, which would demand 3, still queued
    edges = [(0, L1, 1), (1, L1BAR, 2), (2, L1BAR, 4)]
    inst = Instance(LabeledGraph.build(True, 5, Alphabet("dyck", 1), edges),
                    0, 4)
    idx = solve_dyck(inst)
    assert idx.query(0, 2) and not idx.demand >> 3 & 1
    for op in (UpdateOp.ins(0, L1, 3), UpdateOp.ins(3, L1BAR, 4)):
        idx.apply(op)
        inst = apply_update(inst, op)
    assert idx.query(0, 4) and idx.seeds == [(0, 3, 0)]
    # so the deletion of (3, l1bar, 4), which the derivation read, stales
    _answers_exactly(idx, inst, UpdateOp.delete(3, L1BAR, 4))


def test_an_undirected_edge_counts_at_both_ends():
    alph = Alphabet("dyck", 1)
    # 2 -l1-> 1 -l1bar-> 0 runs both edges against the way they are
    # stored, (1, l1, 2) and (0, l1bar, 1), so (2, 0) needs the counts at
    # the end each edge stores second; the self-loop 2 -l1-> 2 counts once
    edges = [(1, L1, 2), (0, L1BAR, 1), (2, L1, 2)]
    inst = Instance(LabeledGraph.build(False, 3, alph, edges), 2, 0)
    built = solve_dyck(inst)
    inserted = solve_dyck(Instance(LabeledGraph.build(False, 3, alph, []),
                                   2, 0))
    for u, lab, v in edges:
        inserted.apply(UpdateOp.ins(v, lab, u))
    for idx in (built, inserted):
        assert mask_faults(idx, inst) == []
        assert idx.outof == [0, 1, 2] and idx.into == [1, 1, 0]
        assert idx.query(2, 0)
        _answers_exactly(idx, inst)
        # each deletion takes its edge off both ends, a self-loop's once
        after = inst
        for u, lab, v in edges:
            op = UpdateOp.delete(u, lab, v)
            idx.apply(op)
            after = apply_update(after, op)
            assert mask_faults(idx, after) == [], op
        assert idx.outof == idx.into == [0, 0, 0]
        assert not idx.query(2, 0)


def _one_pair(directed, edges):
    return Instance(LabeledGraph.build(directed, 6, Alphabet("dyck", 1),
                                       edges), 0, 0)


@pytest.mark.parametrize("directed", [True, False])
def test_deleting_an_opening_edge_that_wrapped_nothing_answers_exactly(
        directed):
    # 0 -l1-> 1 -l1bar-> 2 -l1-> 3: row 3 holds no vertex with an l1bar
    # edge, so (2, l1, 3) wraps nothing.  Undirected, it also runs
    # 3 -l1-> 2, and row 2 holds 2, which has an l1bar edge.  Either way
    # the deletion marks the index stale, and its answers stay exact
    inst = _one_pair(directed, [(0, L1, 1), (1, L1BAR, 2), (2, L1, 3)])
    _answers_exactly(solved(inst), inst, UpdateOp.delete(2, L1, 3))


@pytest.mark.parametrize("directed", [True, False])
def test_deleting_a_closing_edge_that_wrapped_nothing_answers_exactly(
        directed):
    # (3, l1bar, 4): no row that holds 3 has an l1 in-edge, so it wraps
    # nothing.  Undirected, it also runs 4 -l1bar-> 3, and 5 -l1-> 4
    # enters row 4, which holds 4
    inst = _one_pair(directed, [(0, L1, 1), (1, L1BAR, 2), (3, L1BAR, 4),
                                (5, L1, 4)])
    _answers_exactly(solved(inst), inst, UpdateOp.delete(3, L1BAR, 4))


def test_an_edge_that_fires_only_in_pending_work_is_deleted_exactly():
    # 0 -l1-> 1 -l2-> 2 . 3 -l1bar-> 4 -l1bar-> 6 and 5 -l1-> 0: inserting
    # (2, l2bar, 3) queues a seed, which derives (1, 3), then (0, 4) and
    # through (5, l1, 0) (5, 6), only when a read runs it.  Deleted before
    # that read, the edge (5, l1, 0) has fired nothing, and the answers
    # must not use it
    edges = [(0, L1, 1), (1, L2, 2), (3, L1BAR, 4), (4, L1BAR, 6),
             (5, L1, 0)]
    inst = Instance(LabeledGraph.build(True, 7, Alphabet("dyck", 2), edges),
                    0, 4)
    _answers_exactly(solved(inst), inst, UpdateOp.ins(2, L2BAR, 3),
                     UpdateOp.delete(5, L1, 0))


def test_a_deletion_that_fired_nothing_leaves_a_stale_index_stale():
    # 0 -l1-> 1 -l1bar-> 2 and 3 -l2-> 4: deleting (1, l1bar, 2) leaves
    # the stale bit (0, 2); (3, l2, 4) wraps nothing even in stale rows
    edges = [(0, L1, 1), (1, L1BAR, 2), (3, L2, 4)]
    inst = Instance(LabeledGraph.build(True, 5, Alphabet("dyck", 2), edges),
                    0, 2)
    first = UpdateOp.delete(1, L1BAR, 2)
    idx = solved(inst)
    idx.apply(first)
    assert idx.stale and idx.rows[0] >> 2 & 1
    _answers_exactly(idx, apply_update(inst, first),
                     UpdateOp.delete(3, L2, 4))


def _bracket_cycle():
    """0 -l1-> 1 -l1bar-> 2 -l2-> 3 -l2bar-> 4 -l1-> 5 -l1bar-> 0, with
    (1, l1bar, 2) deleted: a stale index whose rows keep (0, 2)."""
    edges = [(0, L1, 1), (1, L1BAR, 2), (2, L2, 3), (3, L2BAR, 4),
             (4, L1, 5), (5, L1BAR, 0)]
    inst = Instance(LabeledGraph.build(True, 6, Alphabet("dyck", 2), edges),
                    0, 4)
    idx = solved(inst)
    op = UpdateOp.delete(1, L1BAR, 2)
    idx.apply(op)
    return idx, apply_update(inst, op)


def test_a_partial_solve_survives_an_insertion(monkeypatch):
    idx, inst = _bracket_cycle()
    started = _count_starts(monkeypatch)
    # 2 -l2 l2bar l1 l1bar-> 0 still holds: the stale "yes" restarts the
    # solve, which stops once it finds the pair
    assert idx.query(2, 0)
    assert started == [inst] and not idx.stale and idx.work
    # 4 -l1-> 5 -l1bar-> 3 needs the new edge out of a row already popped
    op = UpdateOp.ins(5, L1BAR, 3)
    idx.apply(op)
    inst = apply_update(inst, op)
    expected = solve_cfl(inst, dyck_grammar(2))["S"]
    assert idx.seeds and (4, 3) in expected
    assert idx.query(4, 3)
    # (0, 4) lost its witness: the "no" runs the solve to its end
    assert not idx.query(0, 4)
    assert len(started) == 1 and not idx.work and not idx.seeds
    assert idx.inst == inst and mask_faults(idx) == []
    assert idx.pairs == expected
    assert idx.rows == solved(inst).rows


def test_a_stale_pairs_read_restarts_the_solve(monkeypatch):
    seeded = _count_seeds(monkeypatch)
    idx, inst = _bracket_cycle()
    pending = UpdateOp.ins(4, L2BAR, 1)
    idx.apply(pending)
    inst = apply_update(inst, pending)
    started = _count_starts(monkeypatch)
    # the read drops the stale rows with their seeds, unrun, and solves
    # today's edges from scratch to the end
    assert idx.stale and idx.seeds
    assert idx.pairs == solve_cfl(inst, dyck_grammar(2))["S"]
    assert started == [inst] and seeded == []
    assert not idx.stale and not idx.seeds and not idx.work
    assert mask_faults(idx) == []


def test_a_deletion_drops_the_partial_solve():
    # the restarted solve a stale "yes" stopped at its pair goes stale
    # with its work queued; the next stale set bit restarts the solve
    # again, and the "no" runs it to its end
    idx, inst = _bracket_cycle()
    assert idx.query(2, 0) and idx.work and not idx.stale
    op = UpdateOp.delete(4, L1, 5)
    idx.apply(op)
    inst = apply_update(inst, op)
    assert idx.stale and idx.work and idx.rows[2] & 1
    assert not idx.query(2, 0)
    assert not idx.stale and not idx.work
    _answers_exactly(idx, inst)


def test_a_stale_identity_query_solves_nothing(monkeypatch):
    idx, _ = _bracket_cycle()
    started = _count_starts(monkeypatch)
    rows = list(idx.rows)
    assert all(idx.query(x, x) for x in range(6))
    assert started == [] and idx.stale and idx.rows == rows


def test_copies_of_a_partial_solve_keep_its_answers():
    idx, inst = _bracket_cycle()
    expected = solve_cfl(inst, dyck_grammar(2))["S"]
    # a copy of stale rows is stale too
    copied = idx.copy()
    assert copied.stale and copied.rows == idx.rows
    assert idx.query(2, 0) and idx.work and not idx.stale
    # a copy runs the partial solve to its end first, so resolving an
    # insertion finishes it too
    op = UpdateOp.ins(5, L1BAR, 3)
    new = resolve_after_update(idx, inst, op)
    assert not new.stale
    assert new.pairs == solve_cfl(apply_update(inst, op), dyck_grammar(2))["S"]
    assert not idx.work and idx.rows == solved(inst).rows
    assert not idx.copy().stale
    for index in (copied, idx, idx.copy()):
        assert all(index.query(u, v) == ((u, v) in expected)
                   for u in range(6) for v in range(6))


@pytest.mark.parametrize("op", [UpdateOp.ins(5, L1BAR, 3),
                                UpdateOp.delete(2, L2, 3)],
                         ids=["ins", "del"])
def test_resolving_a_stale_index_runs_none_of_its_pending_seeds(
        monkeypatch, op):
    """A stale index's rows and seeds are thrown away by a re-solve, so
    ``resolve_after_update`` solves the updated instance afresh without
    running them, and leaves the index as it was."""
    seeded = _count_seeds(monkeypatch)
    idx, inst = _bracket_cycle()
    pending = UpdateOp.ins(4, L2BAR, 1)
    idx.apply(pending)
    inst = apply_update(inst, pending)
    seeds, rows = list(idx.seeds), list(idx.rows)
    assert idx.stale and seeds
    new = resolve_after_update(idx, inst, op)
    assert new.pairs == solve_cfl(apply_update(inst, op),
                                  dyck_grammar(2))["S"]
    assert seeded == [] and not new.stale
    assert idx.seeds == seeds and idx.rows == rows and idx.stale
    # a rejected update raises and changes nothing
    with pytest.raises(UpdateError):
        resolve_after_update(idx, inst, UpdateOp.delete(1, L1BAR, 2))
    assert idx.seeds == seeds and idx.rows == rows and idx.inst == inst
    assert seeded == []


# ---------------------------------------------------------------------------
# The grammar engine's maintained index

def _count_grammar_solves(monkeypatch) -> list:
    """Patch ``GrammarIndex._start`` to record the instance of every
    from-scratch solve begun, a first read's and a stale query's restart
    alike; returns the record."""
    started = []
    start = GrammarIndex._start

    def counted(index):
        started.append(index.inst)
        return start(index)

    monkeypatch.setattr(GrammarIndex, "_start", counted)
    return started


def test_grammar_updates_before_the_first_read_only_change_the_instance(
        monkeypatch):
    started = _count_grammar_solves(monkeypatch)
    # the burst of test_updates_before_the_first_read_only_edit_the_tables
    inst = chain([L1, L1BAR, L2, L2BAR])
    gram = GrammarIndex(inst, dyck_grammar(2))
    for op in (UpdateOp.ins(4, L1, 0), UpdateOp.delete(1, L1BAR, 2),
               UpdateOp.ins(1, L1BAR, 3), UpdateOp.ins(3, L1BAR, 2),
               UpdateOp.delete(4, L1, 0), UpdateOp.ins(4, L1, 0)):
        gram.apply(op)
        inst = apply_update(inst, op)
        assert gram.succ is None and not gram.stale and gram.inst == inst, op
    assert started == []
    # the first read solves today's edges from scratch, and nothing else
    assert gram.query(4, 2) and not gram.query(0, 2)
    assert gram.pairs == solve_dyck(inst).pairs
    assert started == [inst] and not gram.stale


def test_a_fresh_grammar_query_stops_at_its_pair():
    # 0 -l1-> 1 -l2-> 2 -l2bar-> 3 -l1bar-> 4: (1, 3) is derived before
    # (0, 4), which only the work left queued derives
    inst = chain([L1, L2, L2BAR, L1BAR])
    expected = solve_dyck(inst).pairs
    read, queried = (GrammarIndex(inst, dyck_grammar(2)) for _ in range(2))
    for gram in (read, queried):
        assert gram.query(1, 3) and gram.work
        assert 4 not in gram.succ["S"][0]
    assert read.pairs == expected and not read.work
    # an absent pair runs the queued work, which derives it
    assert queried.query(0, 4) and (0, 4) in expected
    assert not queried.query(4, 0) and not queried.work
    assert queried.pairs == expected


def test_a_stale_grammar_yes_solves_only_until_the_pair_appears(monkeypatch):
    started = _count_grammar_solves(monkeypatch)
    idx, inst = _bracket_cycle()
    gram = GrammarIndex(idx.inst, dyck_grammar(2))
    gram.apply(UpdateOp.ins(1, L1BAR, 2))
    assert gram.query(0, 2) and len(started) == 1
    gram.apply(UpdateOp.delete(1, L1BAR, 2))
    assert gram.stale and len(started) == 1
    # 2 -l2 l2bar l1 l1bar-> 0 still holds: the stale "yes" restarts the
    # solve in place, which stops once it derives the pair
    assert gram.query(2, 0)
    assert not gram.stale and gram.work and len(started) == 2
    # the insertion queues its terminal fact on the unfinished solve
    op = UpdateOp.ins(5, L1BAR, 3)
    gram.apply(op)
    inst = apply_update(inst, op)
    assert ("C1", 5, 3) in gram.work
    assert gram.query(4, 3)
    # (0, 2) lost its witness: the "no" runs the solve to its end
    assert not gram.query(0, 2)
    assert len(started) == 2 and not gram.stale and not gram.work
    assert gram.inst == inst
    assert gram.pairs == solve_dyck(inst).pairs
    # after a deletion a stale identity pair needs no solve
    assert gram.query(2, 0)
    gram.apply(UpdateOp.delete(4, L1, 5))
    assert gram.stale and all(gram.query(x, x) for x in range(6))
    assert len(started) == 2
    assert not gram.query(2, 0) and len(started) == 3


def test_a_stale_identity_pair_waits_for_a_non_nullable_start():
    # S -> O C, O -> l1, C -> l1bar: no empty walk, so (x, x) needs a cycle
    alph = Alphabet("dyck", 1)
    grammar = Grammar(("S", "O", "C"), "S", frozenset(),
                      (("O", L1), ("C", L1BAR)), (("S", "O", "C"),), alph)
    g = LabeledGraph.build(True, 2, alph, [(0, L1, 1), (1, L1BAR, 0)])
    gram = GrammarIndex(Instance(g, 0, 0), grammar)
    # 1 -l1bar-> 0 -l1-> 1 is no word of the grammar
    assert gram.query(0, 0) and not gram.query(1, 1)
    gram.apply(UpdateOp.delete(1, L1BAR, 0))
    assert gram.stale
    assert not gram.query(0, 0)
    assert not gram.stale and gram.pairs == frozenset()


def test_a_grammar_index_reads_an_undirected_insertion_both_ways():
    g = LabeledGraph.build(False, 3, Alphabet("dyck", 1), [(0, L1, 1)])
    gram = GrammarIndex(Instance(g, 0, 2), dyck_grammar(1))
    # read first, so that the insertion is queued rather than solved
    assert not gram.query(0, 2)
    gram.apply(UpdateOp.ins(2, L1BAR, 1))  # also the edge 1 -l1bar-> 2
    assert gram.query(0, 2)
    assert gram.pairs == solve_dyck(gram.inst).pairs
