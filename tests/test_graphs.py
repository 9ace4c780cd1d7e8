"""Graph model: labels, alphabets, strict updates, and the file formats."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycklab import (DOT, Alphabet, GraphFormatError, Instance, Label,
                     LabeledGraph, UpdateError, UpdateOp, apply_update,
                     parse_graph, parse_label_token, parse_updates,
                     serialize_graph, serialize_updates)

from util import fig1_instance


def test_label_tokens_round_trip():
    for tok in ("l1", "l2bar", "v0", "v3bar", "dot"):
        assert parse_label_token(tok).token() == tok


def test_label_aliases():
    assert parse_label_token("0") == Label("l", 1, False)
    assert parse_label_token("0bar") == Label("l", 1, True)
    assert parse_label_token("1") == Label("l", 2, False)
    assert parse_label_token("abar") == Label("l", 1, True)
    assert parse_label_token("b") == Label("l", 2, False)


def test_label_matched_and_open():
    lab = Label("l", 1, False)
    assert lab.matched() == Label("l", 1, True)
    assert lab.matched().matched() == lab
    assert lab.is_open and not lab.matched().is_open
    with pytest.raises(ValueError):
        DOT.matched()


def test_unknown_label_token():
    with pytest.raises(ValueError):
        parse_label_token("x7")


def test_alphabet_membership():
    d2 = Alphabet("dyck", 2)
    assert d2.contains(Label("l", 2, True))
    assert not d2.contains(Label("l", 3, False))
    assert not d2.contains(DOT)
    nd = Alphabet("neardyck", 3)
    assert nd.contains(DOT)
    assert nd.contains(Label("v", 2, True))
    assert not nd.contains(Label("v", 3, False))
    assert len(list(d2.labels())) == 4
    assert len(list(nd.labels())) == 7  # 3 pairs + dot


def test_alphabet_validation():
    with pytest.raises(ValueError):
        Alphabet("weird", 2)
    with pytest.raises(ValueError):
        Alphabet("dyck", 0)


def test_parse_minimal_graph():
    inst = parse_graph("graph directed\nvertices 1\nalphabet dyck 1\nmark 0 0\n")
    assert inst.graph.vertex_count == 1
    assert not inst.graph.edges
    assert (inst.source, inst.sink) == (0, 0)


def test_parse_worked_alternating_instance():
    text = serialize_graph(fig1_instance())
    inst = parse_graph(text)
    assert inst.partition == ("and", "or", "and", "or", "or")
    assert len(inst.graph.edges) == 8
    assert inst == fig1_instance()


def test_parse_label_outside_alphabet():
    text = ("graph directed\nvertices 2\nalphabet dyck 2\n"
            "edge 0 l3 1\nmark 0 1\n")
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_errors_carry_line_numbers():
    text = ("graph directed\nvertices 2\nalphabet dyck 1\n"
            "edge 0 l1 5\nmark 0 1\n")
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == 4


def test_a_bad_label_token_raises_on_every_use():
    # parse_label_token is memoized; a bad token must not be cached as a
    # label, and each parser must still name its own line
    token = "x913"
    graph = ("graph directed\nvertices 2\nalphabet dyck 1\n"
             f"edge 0 l1 1\nedge 1 {token} 0\nmark 0 1\n")
    script = f"ins 0 l1bar 1\nquery\nins 1 {token} 0\n"
    for _ in range(2):
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(graph)
        assert exc.value.line == 5 and token in str(exc.value)
        with pytest.raises(GraphFormatError) as exc:
            parse_updates(script)
        assert exc.value.line == 3 and token in str(exc.value)
    assert parse_label_token("l1") is parse_label_token("l1")


def test_parse_rejects_duplicate_mark():
    text = ("graph directed\nvertices 2\nalphabet dyck 1\n"
            "mark 0 1\nmark 1 0\n")
    with pytest.raises(GraphFormatError):
        parse_graph(text)


@pytest.mark.parametrize("kind, edges", [
    ("directed", "edge 0 l1 1\nedge 0 l1 1\n"),
    ("undirected", "edge 0 l1 1\nedge 1 l1 0\n"),
])
def test_parse_rejects_duplicate_edges(kind, edges):
    text = f"graph {kind}\nvertices 2\nalphabet dyck 1\n{edges}mark 0 1\n"
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == 5
    assert "duplicate edge" in str(exc.value)


def test_parse_keeps_reversed_directed_edges_apart():
    text = ("graph directed\nvertices 2\nalphabet dyck 1\n"
            "edge 0 l1 1\nedge 1 l1 0\nmark 0 1\n")
    assert len(parse_graph(text).graph.edges) == 2


def test_parse_requires_mark():
    with pytest.raises(GraphFormatError):
        parse_graph("graph directed\nvertices 1\nalphabet dyck 1\n")


def test_comments_and_blank_lines_ignored():
    text = ("# heading\ngraph directed\n\nvertices 2  # two\n"
            "alphabet dyck 1\nedge 0 l1 1\nmark 0 1\n")
    inst = parse_graph(text)
    assert len(inst.graph.edges) == 1


def test_apply_update_ins_del():
    alph = Alphabet("dyck", 1)
    inst = Instance(LabeledGraph.build(True, 2, alph, []), 0, 1)
    lab = Label("l", 1, False)
    grown = apply_update(inst, UpdateOp.ins(0, lab, 1))
    assert len(grown.graph.edges) == 1
    back = apply_update(grown, UpdateOp.delete(0, lab, 1))
    assert not back.graph.edges
    assert apply_update(inst, UpdateOp.query()) == inst


def test_apply_update_strictness():
    alph = Alphabet("dyck", 1)
    lab = Label("l", 1, False)
    inst = Instance(LabeledGraph.build(True, 2, alph, [(0, lab, 1)]), 0, 1)
    with pytest.raises(UpdateError):
        apply_update(inst, UpdateOp.ins(0, lab, 1))
    with pytest.raises(UpdateError):
        apply_update(inst, UpdateOp.delete(1, lab, 0))


def test_undirected_edges_reported_both_ways():
    alph = Alphabet("dyck", 1)
    lab = Label("l", 1, False)
    g = LabeledGraph.build(False, 2, alph, [(1, lab, 0)])
    assert g.has_edge(0, lab, 1) and g.has_edge(1, lab, 0)
    assert len(g.edges) == 1
    assert sorted(g.directed_edges()) == [(0, lab, 1), (1, lab, 0)]


def test_undirected_self_loop_reported_once():
    alph = Alphabet("dyck", 1)
    lab = Label("l", 1, False)
    g = LabeledGraph.build(False, 1, alph, [(0, lab, 0)])
    assert list(g.directed_edges()) == [(0, lab, 0)]


def test_parse_updates_round_trip():
    text = "ins 0 l1 1\nquery\ndel 0 l1 1\n"
    ops = parse_updates(text)
    assert [op.op for op in ops] == ["ins", "query", "del"]
    assert serialize_updates(ops) == text


def test_parse_updates_errors():
    with pytest.raises(GraphFormatError):
        parse_updates("query 1\n")
    with pytest.raises(GraphFormatError):
        parse_updates("frobnicate 0 l1 1\n")


# ---------------------------------------------------------------------------
# Round-trip property

@st.composite
def instances(draw):
    directed = draw(st.booleans())
    n = draw(st.integers(min_value=1, max_value=6))
    kind = draw(st.sampled_from(["dyck", "neardyck"]))
    size = draw(st.integers(min_value=1, max_value=3)) if kind == "dyck" else n
    alph = Alphabet(kind, size)
    labels = list(alph.labels())
    pool = [(u, lab, v) for u in range(n) for v in range(n) for lab in labels]
    edges = draw(st.lists(st.sampled_from(pool), max_size=12))
    graph = LabeledGraph.build(directed, n, alph, edges)
    source = draw(st.integers(min_value=0, max_value=n - 1))
    sink = draw(st.integers(min_value=0, max_value=n - 1))
    partition = None
    if draw(st.booleans()):
        partition = tuple(draw(st.sampled_from(["and", "or"])) for _ in range(n))
    return Instance(graph, source, sink, partition)


@settings(max_examples=80, deadline=None)
@given(instances())
def test_serialize_parse_round_trip(inst):
    assert parse_graph(serialize_graph(inst)) == inst


@settings(max_examples=40, deadline=None)
@given(instances())
def test_fingerprint_tracks_equality(inst):
    assert inst.fingerprint() == parse_graph(serialize_graph(inst)).fingerprint()
