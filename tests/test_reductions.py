"""The three gadget compilers, their update translations, and the nominal
decomposition of balanced paths in the undirected gadget."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycklab import cli, saturate
from dycklab import (DOT, Alphabet, CompiledReduction, EnumerationBudget,
                     Instance, Label, LabeledGraph, UpdateOp, apply_update,
                     compile_alt_to_neardyck, compile_dyck2_to_undirected,
                     compile_neardyck_to_dyck2, compile_reduction,
                     enumerate_paths, is_dyck, near_dyck_grammar,
                     nominal_decompose, solve_alternating, solve_cfl,
                     serialize_graph, serialize_updates, solve_dyck)
from dycklab.reductions import LANES, run_equivalence
from dycklab.suites import default_gadget_source
from dycklab.words import DecompositionError

from util import (fig1_instance, fig2_source, random_alt_instance,
                  random_dyck_instance, random_neardyck_instance,
                  random_script)

L1, L1BAR = Label("l", 1, False), Label("l", 1, True)
L2, L2BAR = Label("l", 2, False), Label("l", 2, True)


def neardyck_reachable(inst: Instance) -> bool:
    table = solve_cfl(inst, near_dyck_grammar(inst.graph.alphabet.size))
    return (inst.source, inst.sink) in table["S"]


# ---------------------------------------------------------------------------
# alternating -> per-vertex brackets

def test_alt_gadget_layout_and_marks():
    red = compile_alt_to_neardyck(fig1_instance())
    # 5 originals plus a 6-vertex chain per and-vertex
    assert red.target.graph.vertex_count == 5 + 2 * 6 == 17
    assert (red.target.source, red.target.sink) == (4, 0)  # reversed marks
    assert red.names[red.vertex_id((2, 3))] == (2, 3)


def test_compiled_reduction_repr_leaves_out_the_id_map():
    """The repr names the instances and the layout, not the name -> id
    dict or the translator, which would fill a failure report."""
    red = compile_alt_to_neardyck(fig1_instance())
    text = repr(red)
    assert text.startswith("CompiledReduction(kind='alt_to_neardyck', ")
    assert f"names={red.names!r})" in text
    assert "ids=" not in text and "translate_one" not in text
    assert "function" not in text


def test_alt_gadget_answers_the_worked_instance():
    inst = fig1_instance()
    assert solve_alternating(inst)[0]
    red = compile_alt_to_neardyck(inst)
    assert neardyck_reachable(red.target)


def test_alt_gadget_vacuous_and_vertex():
    # no edges, source an and-vertex distinct from the sink: the forall
    # condition holds vacuously, and the gadget must agree
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 1), [])
    inst = Instance(g, 0, 1, ("and", "or"))
    assert solve_alternating(inst)[0]
    assert neardyck_reachable(compile_alt_to_neardyck(inst).target)


def test_alt_gadget_requires_a_partition():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 1), [])
    with pytest.raises(ValueError):
        compile_alt_to_neardyck(Instance(g, 0, 1))


def test_alt_gadget_rejects_labels_other_than_l1():
    alph = Alphabet("dyck", 1)
    bad = LabeledGraph.build(True, 2, alph, [(0, L1BAR, 1)])
    with pytest.raises(ValueError, match="l1bar"):
        compile_alt_to_neardyck(Instance(bad, 0, 1, ("and", "or")))
    # an l1bar insertion beside an l1 arc used to share its chain edge
    g = LabeledGraph.build(True, 2, alph, [(0, L1, 1)])
    script = [UpdateOp.ins(0, L1BAR, 1), UpdateOp.delete(0, L1, 1)]
    with pytest.raises(ValueError, match="l1bar"):
        run_equivalence("alt_to_neardyck", Instance(g, 0, 1, ("and", "or")),
                        script)


def test_alt_translation_counts():
    inst = fig1_instance()
    red = compile_alt_to_neardyck(inst)
    lab = Label("l", 1, False)
    # vertex 1 is an or-vertex, vertex 0 an and-vertex
    assert len(red.translate(UpdateOp.ins(1, lab, 0))) == 1
    assert len(red.translate(UpdateOp.delete(0, lab, 1))) == 2
    assert red.translate(UpdateOp.query()) == [UpdateOp.query()]


def test_alt_and_edge_translation_flips_the_chain_edge():
    inst = fig1_instance()
    red = compile_alt_to_neardyck(inst)
    ops = red.translate(UpdateOp.delete(0, Label("l", 1, False), 1))
    assert [op.op for op in ops] == ["del", "ins"]
    assert ops[0].label == Label("v", 1, True)
    assert ops[1].label == DOT
    assert ops[0].u == ops[1].u == red.vertex_id((0, 1))


# ---------------------------------------------------------------------------
# per-vertex brackets -> two pairs

def test_neardyck_gadget_vertex_count():
    g = LabeledGraph.build(True, 2, Alphabet("neardyck", 2), [])
    red = compile_neardyck_to_dyck2(Instance(g, 0, 1))
    assert red.target.graph.vertex_count == 2 + 2 + 2 * 4 * 3 == 28
    assert red.target.graph.alphabet == Alphabet("dyck", 2)


def test_neardyck_gadget_layout_is_pinned():
    # one dot, one opening and one closing edge: each chain spells its
    # label's phi_neardyck_letter, and each source edge leaves the last
    # node of its chain
    g = LabeledGraph.build(True, 2, Alphabet("neardyck", 2),
                           [(0, DOT, 1), (0, Label("v", 0, False), 1),
                            (1, Label("v", 1, True), 0)])
    red = compile_neardyck_to_dyck2(Instance(g, 0, 1))
    assert serialize_graph(red.target) == (
        "graph directed\nvertices 28\nalphabet dyck 2\n"
        "edge 0 l1 2\nedge 0 l1 4\nedge 0 l1 10\nedge 0 l1bar 9\n"
        "edge 0 l1bar 15\nedge 1 l1 3\nedge 1 l1 16\nedge 1 l1 22\n"
        "edge 1 l1bar 21\nedge 1 l1bar 27\nedge 2 l1bar 1\nedge 4 l2 5\n"
        "edge 5 l1 6\nedge 6 l1 1\nedge 8 l2bar 7\nedge 9 l1bar 8\n"
        "edge 10 l1 11\nedge 11 l2 12\nedge 14 l1bar 13\nedge 15 l2bar 14\n"
        "edge 16 l2 17\nedge 17 l1 18\nedge 20 l2bar 19\nedge 21 l1bar 20\n"
        "edge 22 l1 23\nedge 23 l2 24\nedge 25 l1bar 0\nedge 26 l1bar 25\n"
        "edge 27 l2bar 26\nmark 0 1\n")
    chain_labels = [Label("v", 0, False), Label("v", 0, True),
                    Label("v", 1, False), Label("v", 1, True)]
    assert red.names == ((0,), (1,), (0, "dot"), (1, "dot"), *(
        (x, lab, i) for x in range(2) for lab in chain_labels
        for i in range(3)))


def test_neardyck_gadget_single_dot_edge():
    g = LabeledGraph.build(True, 2, Alphabet("neardyck", 2), [(0, DOT, 1)])
    red = compile_neardyck_to_dyck2(Instance(g, 0, 1))
    assert solve_dyck(red.target).query(0, 1)


def test_neardyck_gadget_bracketed_pair_of_edges():
    alph = Alphabet("neardyck", 3)
    edges = [(0, Label("v", 1, False), 1), (1, Label("v", 1, True), 2)]
    g = LabeledGraph.build(True, 3, alph, edges)
    red = compile_neardyck_to_dyck2(Instance(g, 0, 2))
    idx = solve_dyck(red.target)
    assert idx.query(0, 2)
    assert not idx.query(0, 1)  # half an encoding is not balanced


def test_neardyck_gadget_preconditions():
    g = LabeledGraph.build(True, 2, Alphabet("neardyck", 3), [])
    with pytest.raises(ValueError):
        compile_neardyck_to_dyck2(Instance(g, 0, 1))  # size != vertex count
    g2 = LabeledGraph.build(True, 2, Alphabet("dyck", 2), [])
    with pytest.raises(ValueError):
        compile_neardyck_to_dyck2(Instance(g2, 0, 1))


def test_neardyck_gadget_needs_a_directed_source():
    g = LabeledGraph.build(False, 2, Alphabet("neardyck", 2), [])
    with pytest.raises(ValueError, match="source must be directed"):
        compile_neardyck_to_dyck2(Instance(g, 0, 1))


def test_neardyck_translation_is_one_op():
    g = LabeledGraph.build(True, 2, Alphabet("neardyck", 2), [])
    red = compile_neardyck_to_dyck2(Instance(g, 0, 1))
    for lab in (DOT, Label("v", 0, False), Label("v", 1, True)):
        assert len(red.translate(UpdateOp.ins(0, lab, 1))) == 1


# ---------------------------------------------------------------------------
# two pairs, directed -> two pairs, undirected

def test_undirected_gadget_size():
    red = compile_dyck2_to_undirected(fig2_source())
    assert red.target.graph.vertex_count == 2 + 44 * 4 == 178
    assert not red.target.graph.directed
    # 2 chains of 12 undirected edges each
    assert len(red.target.graph.edges) == 24


def test_undirected_gadget_translation_is_twelve_ops():
    red = compile_dyck2_to_undirected(fig2_source())
    ops = red.translate(UpdateOp.ins(0, L2, 0))
    assert len(ops) == 12
    assert all(op.op == "ins" for op in ops)


def test_undirected_gadget_preconditions():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 1), [])
    with pytest.raises(ValueError):
        compile_dyck2_to_undirected(Instance(g, 0, 1))
    g2 = LabeledGraph.build(False, 2, Alphabet("dyck", 2), [])
    with pytest.raises(ValueError):
        compile_dyck2_to_undirected(Instance(g2, 0, 1))


def test_undirected_gadget_has_balanced_cycles_at_the_source():
    red = compile_dyck2_to_undirected(fig2_source())
    inst = red.target
    enum = enumerate_paths(inst, 0, 0, EnumerationBudget(4, 50), balanced=True)
    short = [p for p in enum.paths if p]
    assert short  # an out-and-back cycle over the first chain edge


def balanced_cycles_at_source(red, max_len, cap=400):
    inst = red.target
    enum = enumerate_paths(inst, inst.source, inst.sink,
                           EnumerationBudget(max_len, cap), balanced=True)
    return [p for p in enum.paths if p]


def chain_traversal(red, x, lab, y):
    from dycklab import PHI_UNDIRECTED
    stops = [x] + [red.vertex_id((x, lab, y, i)) for i in range(1, 12)] + [y]
    return [(stops[i], PHI_UNDIRECTED[lab][i], stops[i + 1]) for i in range(12)]


def test_stutter_cycles_have_empty_ancestors():
    red = compile_dyck2_to_undirected(fig2_source())
    cycles = balanced_cycles_at_source(red, 8)
    assert cycles
    for path in cycles:
        decomp = nominal_decompose(path, red)
        assert decomp.vertices[0] == 0 and decomp.vertices[-1] == 0
        assert decomp.ancestor == ()
        assert all(seg.tag == "loop" for seg in decomp.segments)


def test_full_traversal_cycle_recovers_the_source_cycle():
    red = compile_dyck2_to_undirected(fig2_source())
    path = chain_traversal(red, 0, L1, 1) + chain_traversal(red, 1, L1BAR, 0)
    assert is_dyck([lab for _, lab, _ in path])
    decomp = nominal_decompose(path, red)
    assert decomp.vertices == (0, 1, 0)
    assert decomp.ancestor == ((0, L1, 1), (1, L1BAR, 0))
    assert [seg.source_label for seg in decomp.segments] == [L1, L1BAR]


def test_direct_chain_traversal_decomposes_to_its_edge():
    alph = Alphabet("dyck", 2)
    g = LabeledGraph.build(True, 2, alph, [(0, L1, 1)])
    red = compile_dyck2_to_undirected(Instance(g, 0, 1))
    path = chain_traversal(red, 0, L1, 1)
    decomp = nominal_decompose(path, red)
    assert len(decomp.segments) == 1
    assert decomp.segments[0].tag == "edge"
    assert decomp.ancestor == ((0, L1, 1),)


def test_decomposition_rejects_forbidden_label_factors():
    red = compile_dyck2_to_undirected(fig2_source())
    first = red.vertex_id((0, L1, 1, 1))
    # the label 1.0bar is not a factor of any balanced word
    with pytest.raises(DecompositionError):
        nominal_decompose([(0, L2, first), (first, L1BAR, 0)], red)


def test_decomposition_needs_original_endpoints():
    red = compile_dyck2_to_undirected(fig2_source())
    from dycklab import PHI_UNDIRECTED
    first = red.vertex_id((0, L1, 1, 1))
    step = PHI_UNDIRECTED[L1][1]
    with pytest.raises(DecompositionError):
        nominal_decompose([(first, step, red.vertex_id((0, L1, 1, 2)))], red)


def test_decomposition_needs_the_undirected_gadget():
    red = compile_alt_to_neardyck(fig1_instance())
    with pytest.raises(DecompositionError, match="undirected-gadget target"):
        nominal_decompose([], red)


A, B, C = (0, L1, 1, 1), (0, L2, 1, 1), (0, L1, 1, 11)


@pytest.mark.parametrize("walk, message", [
    ([], "empty path"),
    ([(0, L1, A), (A, L1BAR, 1)], "stutter segment with distinct endpoints"),
    ([(0, L2, A), (A, L2BAR, B), (B, L1, 1)], "spans several chains"),
    ([(1, L2, C), (C, L2BAR, 0)], "crosses a lock backwards"),
])
def test_decomposition_rejects_walks_off_the_nominal_shape(walk, message):
    """Factor-word walks between original vertices that no nominal
    segment sequence explains; named vertices are chain interiors."""
    red = compile_dyck2_to_undirected(default_gadget_source())

    def vid(v):
        return v if isinstance(v, int) else red.vertex_id(v)

    with pytest.raises(DecompositionError, match=message):
        nominal_decompose([(vid(u), lab, vid(v)) for u, lab, v in walk], red)


# ---------------------------------------------------------------------------
# The reductions' shape, as properties

LANE_SOURCES = {
    "alt_to_neardyck": lambda rng: random_alt_instance(rng, max_vertices=5),
    "neardyck_to_dyck2": lambda rng: random_neardyck_instance(
        rng, max_vertices=4),
    "dyck2_to_undirected": lambda rng: random_dyck_instance(
        rng, max_vertices=4, pairs=2, density=0.15),
}


def _without_edges(inst):
    g = inst.graph
    empty = LabeledGraph.build(g.directed, g.vertex_count, g.alphabet, [])
    return Instance(empty, inst.source, inst.sink, inst.partition)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LANE_SOURCES)),
       st.integers(min_value=0, max_value=10**9))
def test_a_target_universe_does_not_depend_on_the_source_edges(kind, seed):
    inst = LANE_SOURCES[kind](random.Random(seed))
    red = compile_reduction(kind, inst)
    bare = compile_reduction(kind, _without_edges(inst))
    assert red.target.graph.vertex_count == bare.target.graph.vertex_count
    assert red.names == bare.names
    assert (red.target.source, red.target.sink) == (bare.target.source,
                                                    bare.target.sink)


def _undirected_target_sizes(inst):
    """V' and E' of the two-pair lane's target: n vertices, m edges."""
    n, m = inst.graph.vertex_count, len(inst.graph.edges)
    return n + 44 * n * n, 12 * m


def _alt_target_sizes(inst):
    """V' and E' of the alternating lane's target: n vertices, a and-vertices
    and o distinct arcs out of or-vertices."""
    n = inst.graph.vertex_count
    a = inst.partition.count("and")
    o = len({(u, v) for u, _, v in inst.graph.edges
             if inst.partition[u] == "or"})
    return n + a * (n + 1), n + a * (n + 2) + o


def _neardyck_target_sizes(inst):
    """V' and E' of the per-vertex lane's target: n vertices, m edges."""
    n, m = inst.graph.vertex_count, len(inst.graph.edges)
    return 2 * n + 2 * n * n * (n + 1), n * (2 * n * (n + 1) + 1) + m


TARGET_SIZES = {"dyck2_to_undirected": _undirected_target_sizes,
                "alt_to_neardyck": _alt_target_sizes,
                "neardyck_to_dyck2": _neardyck_target_sizes}


def _assert_target_sizes(kind, seed):
    """A random source of lane ``kind``, compiled; the target's vertex and
    edge counts equal the lane's formula at the start and after every
    update of a random script."""
    rng = random.Random(seed)
    inst = LANE_SOURCES[kind](rng)
    red = compile_reduction(kind, inst)
    target = red.target
    for op in [UpdateOp.query()] + random_script(rng, inst, ops=12,
                                                 query_rate=0.0):
        inst = apply_update(inst, op)
        for top in red.translate(op):
            target = apply_update(target, top)
        sizes = (target.graph.vertex_count, len(target.graph.edges))
        assert sizes == TARGET_SIZES[kind](inst), (kind, op)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_undirected_gadget_sizes_are_exact(seed):
    _assert_target_sizes("dyck2_to_undirected", seed)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("alt_to_neardyck", "neardyck_to_dyck2")),
       st.integers(min_value=0, max_value=10**9))
def test_the_other_lanes_target_sizes_are_exact(kind, seed):
    _assert_target_sizes(kind, seed)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(LANE_SOURCES)),
       st.integers(min_value=0, max_value=10**9))
def test_translation_counts_stay_in_the_lane_bounds(kind, seed):
    rng = random.Random(seed)
    inst = LANE_SOURCES[kind](rng)
    red = compile_reduction(kind, inst)
    bounds = LANES[kind][2]
    target = red.target
    for op in random_script(rng, inst, ops=16, query_rate=0.2):
        ops = red.translate(op)
        if op.op == "query":
            assert ops == [op]
            continue
        assert len(ops) in bounds, (op, ops)
        # each translated op applies to the target as it stands
        for top in ops:
            target = apply_update(target, top)


# ---------------------------------------------------------------------------
# Update translation and end-to-end equivalence

def test_translate_ins_del_cancels_out():
    red = compile_dyck2_to_undirected(fig2_source())
    script = [UpdateOp.ins(0, L2, 1), UpdateOp.delete(0, L2, 1)]
    target = red.target
    for op in script:
        for target_op in red.translate(op):
            target = apply_update(target, target_op)
    assert target == red.target


def test_compile_reduction_dispatch():
    with pytest.raises(ValueError):
        compile_reduction("bogus", fig2_source())
    red = compile_reduction("dyck2_to_undirected", fig2_source())
    assert red.kind == "dyck2_to_undirected"


def test_equivalence_fuzz_alt():
    rng = random.Random(2)
    for _ in range(6):
        inst = random_alt_instance(rng, max_vertices=5)
        script = random_script(rng, inst, ops=12)
        report = run_equivalence("alt_to_neardyck", inst, script)
        assert report.ok, report.failures
        assert all(c in (1, 2) for c in report.counts)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**9))
def test_alt_lane_target_index_matches_the_independent_routes(seed):
    rng = random.Random(seed)
    inst = random_alt_instance(rng, max_vertices=5)
    script = random_script(rng, inst, ops=16, query_rate=0.3)
    report = run_equivalence("alt_to_neardyck", inst, script)
    assert report.ok, report.failures
    # replay on plain instances: the target rebuilt from the translated ops
    # and answered by the grammar engine, the source by the fixpoint
    red = compile_alt_to_neardyck(inst)
    source, target = inst, red.target
    queries = 0
    for op in script:
        if op.op == "query":
            assert report.target_answers[queries] == neardyck_reachable(target)
            assert report.target_answers[queries] == solve_alternating(source)[0]
            queries += 1
            continue
        source = apply_update(source, op)
        for top in red.translate(op):
            target = apply_update(target, top)
    assert queries == len(report.target_answers) == len(report.answers)


def test_equivalence_fuzz_neardyck():
    rng = random.Random(3)
    for _ in range(6):
        inst = random_neardyck_instance(rng, max_vertices=4)
        script = random_script(rng, inst, ops=12)
        report = run_equivalence("neardyck_to_dyck2", inst, script)
        assert report.ok, report.failures
        assert all(c == 1 for c in report.counts)


def test_equivalence_fuzz_dyck2():
    rng = random.Random(4)
    for _ in range(3):
        inst = Instance(LabeledGraph.build(True, 3, Alphabet("dyck", 2), []),
                        rng.randrange(3), rng.randrange(3))
        script = random_script(rng, inst, ops=10)
        report = run_equivalence("dyck2_to_undirected", inst, script)
        assert report.ok, report.failures
        assert all(c == 12 for c in report.counts)


def test_a_translator_that_drops_every_op_fails_the_run(monkeypatch, capsys,
                                                        tmp_path):
    monkeypatch.setattr(CompiledReduction, "translate", lambda self, op: [])
    g = LabeledGraph.build(True, 3, Alphabet("dyck", 2), [(0, L1, 1)])
    inst = Instance(g, 0, 2)
    script = [UpdateOp.query(), UpdateOp.ins(1, L1BAR, 2), UpdateOp.query()]
    report = run_equivalence("dyck2_to_undirected", inst, script)
    assert report.answers == [False, True]
    assert report.target_answers == [False, False]
    assert report.counts == [0]
    assert report.failures == ["step 1: translated into 0 ops, expected [12]",
                               "step 2: source=True target=False"]

    graph, upd = tmp_path / "g.graph", tmp_path / "s.upd"
    graph.write_text(serialize_graph(inst))
    upd.write_text(serialize_updates(script))
    code = cli.main(["--kv", "verify-equiv", "dyck2_to_undirected",
                     str(graph), str(upd)])
    out = capsys.readouterr().out
    assert code == 1
    assert "failure=step 2: source=True target=False" in out
    assert "verdict=FAIL" in out


def test_an_insert_only_script_solves_each_side_once(monkeypatch):
    calls = []
    original = saturate.solve_dyck

    def counted(inst):
        calls.append(inst)
        return original(inst)

    monkeypatch.setattr(saturate, "solve_dyck", counted)
    g = LabeledGraph.build(True, 5, Alphabet("dyck", 2), [(0, L1, 1)])
    script = [UpdateOp.query(), UpdateOp.ins(1, L2, 2), UpdateOp.query(),
              UpdateOp.ins(2, L2BAR, 3), UpdateOp.query(),
              UpdateOp.ins(3, L1BAR, 4), UpdateOp.query()]
    report = run_equivalence("dyck2_to_undirected", Instance(g, 0, 4), script)
    assert report.ok, report.failures
    assert report.answers == [False, False, False, True]
    assert len(calls) == 2
    assert [c.graph.directed for c in calls] == [True, False]
