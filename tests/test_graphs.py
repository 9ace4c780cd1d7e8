"""Graph model: labels, alphabets, strict updates, and the file formats."""

import dataclasses
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dycklab
from dycklab import (DOT, Alphabet, GraphFormatError, Instance, Label,
                     LabeledGraph, UpdateError, UpdateOp, apply_update,
                     parse_graph, parse_label_token, parse_updates,
                     serialize_graph, serialize_updates)
from dycklab.graphs import decode_text

from util import fig1_instance, gap_chain_instance


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
    with pytest.raises(ValueError):
        DOT.matched()


def test_unknown_label_token():
    with pytest.raises(ValueError):
        parse_label_token("x7")


# spellings ``int`` reads as a number that are not the number's one
# ASCII spelling
NONCANONICAL_NUMERALS = ("01", "00", "+1", "-0", "1_0", "\u0661", "1\u0660")


@pytest.mark.parametrize("digits", NONCANONICAL_NUMERALS)
def test_label_indices_have_one_spelling(digits):
    for token in (f"l{digits}", f"l{digits}bar", f"v{digits}"):
        with pytest.raises(ValueError, match="unknown label token"):
            parse_label_token(token)


@pytest.mark.parametrize("digits", NONCANONICAL_NUMERALS)
@pytest.mark.parametrize("line, template", [
    (2, "graph directed\nvertices {n}\nalphabet dyck 2\nmark 0 0\n"),
    (3, "graph directed\nvertices 2\nalphabet dyck {n}\nmark 0 0\n"),
    (4, "graph directed\nvertices 2\nalphabet dyck 2\nedge {n} l1 0\n"
        "mark 0 0\n"),
    (4, "graph directed\nvertices 2\nalphabet dyck 2\nedge 0 l1 {n}\n"
        "mark 0 0\n"),
    (4, "graph directed\nvertices 2\nalphabet dyck 2\nmark {n} 0\n"),
    (4, "graph directed\nvertices 2\nalphabet dyck 2\nmark 0 {n}\n"),
    (5, "graph directed\nvertices 2\nalphabet dyck 2\nmark 0 0\n"
        "partition and {n}\n"),
], ids=["vertices", "alphabet", "edge-u", "edge-v", "mark-s", "mark-t",
        "partition"])
def test_graph_integers_have_one_spelling(digits, line, template):
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(template.format(n=digits))
    assert exc.value.line == line


@pytest.mark.parametrize("digits", NONCANONICAL_NUMERALS)
@pytest.mark.parametrize("template", ["ins {n} l1 0", "del 0 l1 {n}"],
                         ids=["ins-u", "del-v"])
def test_script_integers_have_one_spelling(digits, template):
    with pytest.raises(GraphFormatError) as exc:
        parse_updates("query\n" + template.format(n=digits) + "\n")
    assert exc.value.line == 2


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
    with pytest.raises(ValueError, match="unknown alphabet kind 'weird'"):
        Alphabet("weird", 2)
    with pytest.raises(ValueError, match="alphabet size must be positive"):
        Alphabet("dyck", 0)


def test_alphabet_holds_no_label_of_an_unknown_base():
    assert not Alphabet("dyck", 1).contains(Label("x", 1, False))


@pytest.mark.parametrize("edge, message", [
    ((0, Label("l", 1, False), 5), "edge endpoint out of range: (0, l1, 5)"),
    ((0, Label("v", 0, False), 1), "label v0 not in alphabet"),
], ids=["endpoint", "label"])
def test_build_rejects_an_edge_the_graph_cannot_hold(edge, message):
    with pytest.raises(GraphFormatError) as exc:
        LabeledGraph.build(True, 2, Alphabet("dyck", 1), [edge])
    assert str(exc.value) == message


def test_instance_validation():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 1), [])
    for source, sink in ((0, 2), (-1, 0)):
        with pytest.raises(GraphFormatError, match="marked vertex out of range"):
            Instance(g, source, sink)
    with pytest.raises(GraphFormatError, match="partition must cover every vertex"):
        Instance(g, 0, 1, ("and",))
    with pytest.raises(GraphFormatError, match="partition entries must be and/or"):
        Instance(g, 0, 1, ("and", "xor"))
    assert Instance(g, 0, 1, partition=("and", "or")).partition == ("and", "or")


def test_update_op_comparisons_ignore_the_line():
    lab = Label("l", 1, False)
    parsed = UpdateOp("ins", 0, lab, 1, line=7)
    built = UpdateOp.ins(0, lab, 1)
    assert parsed == built and not parsed != built
    assert hash(parsed) == hash(built)
    assert len({parsed, built}) == 1
    assert repr(parsed) == repr(built)
    assert parsed.where() == " (script line 7)" and built.where() == ""
    assert parsed != UpdateOp.delete(0, lab, 1)
    assert parsed != UpdateOp.ins(0, lab, 0)
    assert parsed != ("ins", 0, lab, 1, 7)


def test_only_suite_result_is_a_dataclass():
    """Records are NamedTuples or slotted classes, which generate no code
    at import; ``SuiteResult`` stays a dataclass for
    ``dataclasses.replace``."""
    found = set()
    for info in pkgutil.iter_modules(dycklab.__path__):
        if info.name == "__main__":  # importing it runs the CLI
            continue
        module = importlib.import_module(f"dycklab.{info.name}")
        for name, obj in vars(module).items():
            if (inspect.isclass(obj) and obj.__module__ == module.__name__
                    and dataclasses.is_dataclass(obj)):
                found.add(f"{info.name}.{name}")
    assert found == {"suites.SuiteResult"}


_REIMPORT = """
import gc, importlib, sys
def fresh():
    for name in [m for m in sys.modules if m.split(".")[0] == "dycklab"]:
        del sys.modules[name]
    importlib.import_module("dycklab.cli")
    gc.collect()
    return len(gc.get_objects())
fresh()
once = fresh()
for _ in range(4):
    fresh()
print(fresh() - once)
"""


def test_reimporting_the_package_keeps_no_old_objects_alive():
    """A module dropped from ``sys.modules`` and imported again must leave
    nothing of its old copy reachable.  A ``typing.Union`` of the package's
    own classes did: typing caches it, with the classes and through their
    methods the old module globals, about 480 objects per import."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _REIMPORT], cwd=root, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 50, "objects kept alive by 5 re-imports"


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
    # the first bad line wins, whatever kinds of error follow it
    for body, line in [
            ("edge 0 l1 5\nmark 0 1\n", 4),
            ("edge 0 l1 5\nmark 0 1\nbogus 1\n", 4),
            ("edge 0 l1 1\nedge 0 l1 1\nmark 0 1\npartition or 0\n", 5),
            ("edge 0 l1 1\nmark 0\nbogus 1\n", 5)]:
        text = "graph directed\nvertices 2\nalphabet dyck 1\n" + body
        with pytest.raises(GraphFormatError) as exc:
            parse_graph(text)
        assert exc.value.line == line, body


@pytest.mark.parametrize("script, message", [
    ("query\nins 0 l1\n", "line 2: expected 'ins <u> <label> <v>'"),
    ("query\ndel 0 l1 1 2\n", "line 2: expected 'del <u> <label> <v>'"),
], ids=["ins-short", "del-long"])
def test_an_update_line_takes_exactly_three_fields(script, message):
    with pytest.raises(GraphFormatError) as exc:
        parse_updates(script)
    assert str(exc.value) == message and exc.value.line == 2


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


def test_a_foreign_label_before_a_comment_keeps_its_message_and_line():
    text = ("graph directed\nvertices 2\nalphabet dyck 1  # one pair\n"
            "edge 0 l1 1  # in the alphabet\n"
            "edge 1 l2 0  # pair 2 is not\nmark 0 1\n")
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(text)
    assert exc.value.line == 5
    assert str(exc.value) == ("line 5: unknown label token 'l2' for this "
                              "alphabet")


@pytest.mark.parametrize("filler", [
    "", "   ", "\t", "#", "# a note", "  # a note # and more",
    "#edge 0 l9 1"])
def test_blank_and_comment_only_lines_are_skipped(filler):
    rows = ["graph undirected", "vertices 3", "alphabet neardyck 3",
            "edge 0 v1 1", "edge 2 dot 1", "mark 0 2", "partition and 1"]
    plain = parse_graph("\n".join(rows) + "\n")
    # row i is line 2i + 2, after a filler line
    padded = "".join(f"{filler}\n{row}\n" for row in rows) + filler
    assert parse_graph(padded) == plain
    with pytest.raises(GraphFormatError) as exc:
        parse_graph(padded.replace("edge 2 dot 1", "edge 2 dot 7"))
    assert exc.value.line == 10


@pytest.mark.parametrize("end", ["\r\n", "\x0c", "\x1c"],
                         ids=["crlf", "form-feed", "file-separator"])
@pytest.mark.parametrize("parse, rows", [
    (parse_graph, ["graph directed", "vertices 2", "alphabet dyck 1",
                   "edge 0 l1 1", "mark 0 1"]),
    (parse_updates, ["query", "ins 1 l1 0", "query", "del 0 l1 1"]),
], ids=["graph", "script"])
def test_a_bad_line_and_a_bad_byte_name_the_same_line(parse, rows, end):
    """Lines end where ``str.splitlines`` ends them, so ``\\x0c`` and
    ``\\x1c`` end a line as ``\\r\\n`` does, and a line that does not
    parse and a byte that is not UTF-8 at the same spot name one line."""
    assert parse(end.join(rows) + end) == parse("\n".join(rows) + "\n")
    for at in range(len(rows) + 1):
        head = "".join(row + end for row in rows[:at])
        tail = "".join(end + row for row in rows[at:]) + end
        with pytest.raises(GraphFormatError) as bad_line:
            parse(head + "bogus 1" + tail)
        with pytest.raises(GraphFormatError) as bad_byte:
            decode_text(head.encode() + b"# caf\xff" + tail.encode())
        assert bad_line.value.line == bad_byte.value.line == at + 1


def test_apply_update_ins_del():
    alph = Alphabet("dyck", 1)
    inst = Instance(LabeledGraph.build(True, 2, alph, []), 0, 1, ("and", "or"))
    lab = Label("l", 1, False)
    grown = apply_update(inst, UpdateOp.ins(0, lab, 1))
    assert len(grown.graph.edges) == 1
    assert type(grown) is Instance
    assert (grown.source, grown.sink, grown.partition) == (0, 1, ("and", "or"))
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


@pytest.mark.parametrize("line", [None, 3])
@pytest.mark.parametrize("op, message", [
    (("ins", 0, "l1", 5), "edge endpoint out of range: (0, l1, 5)"),
    (("ins", 0, "v0", 1), "label v0 not in alphabet"),
    (("ins", 0, "l1", 1), "duplicate edge (0, l1, 1)"),
    (("del", 1, "l1", 0), "missing edge (1, l1, 0)"),
    (("swap", 0, "l1", 1), "unknown update 'swap'"),
], ids=["endpoint", "label", "duplicate", "missing", "unknown"])
def test_a_rejected_update_names_its_problem_and_line(op, message, line):
    lab = Label("l", 1, False)
    inst = Instance(LabeledGraph.build(True, 2, Alphabet("dyck", 1),
                                       [(0, lab, 1)]), 0, 1)
    kind, u, token, v = op
    with pytest.raises(UpdateError) as exc:
        apply_update(inst, UpdateOp(kind, u, parse_label_token(token), v,
                                    line=line))
    suffix = "" if line is None else f" (script line {line})"
    assert str(exc.value) == message + suffix


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


# label tokens that name the same letter as the serialized one
_ALIASES = {"l1": ("0", "a"), "l1bar": ("0bar", "abar"),
            "l2": ("1", "b"), "l2bar": ("1bar", "bbar")}


@st.composite
def graph_files(draw):
    """An instance and a graph file for it, respelled: comments, blank
    lines, padding, body lines shuffled, undirected edges reversed, label
    aliases, and sometimes one number in a spelling the format rejects.
    Returns the instance, the text, and whether the text must parse."""
    inst = draw(instances())
    lines = [line.split() for line in serialize_graph(inst).splitlines()]
    rows = lines[:3] + draw(st.permutations(lines[3:]))
    for fields in rows[3:]:
        if fields[0] != "edge":
            continue
        if not inst.graph.directed and draw(st.booleans()):
            fields[1], fields[3] = fields[3], fields[1]
        if inst.graph.alphabet.kind == "dyck" and fields[2] in _ALIASES:
            fields[2] = draw(st.sampled_from((fields[2],) + _ALIASES[fields[2]]))
    respell = draw(st.booleans())
    if respell:
        i, j = draw(st.sampled_from([(i, j) for i, fields in enumerate(rows)
                                     for j, tok in enumerate(fields)
                                     if tok.isdigit()]))
        n = rows[i][j]
        rows[i][j] = draw(st.sampled_from([
            "0" + n, "+" + n, n + "_0", "\u0660" + n,
            "".join(chr(0x660 + int(d)) for d in n)]))
    text = "# respelled\n" + "".join(" ".join(f) + "\n" for f in rows[:3])
    text += "\n" + "".join("  " + "   ".join(f) + "  # c\n" for f in rows[3:])
    return inst, text, not respell


@settings(max_examples=150, deadline=None)
@given(graph_files())
def test_parse_serialize_parse_is_the_identity(case):
    """A file that parses means one instance, which serializing keeps; a
    number spelled any other way than its ASCII digits without leading
    zeros is rejected."""
    inst, text, accepted = case
    if not accepted:
        with pytest.raises(GraphFormatError):
            parse_graph(text)
        return
    parsed = parse_graph(text)
    assert parsed == inst
    assert parse_graph(serialize_graph(parsed)) == parsed


@settings(max_examples=80, deadline=None)
@given(st.lists(st.one_of(
    st.just(UpdateOp.query()),
    st.builds(UpdateOp, st.sampled_from(["ins", "del"]), st.integers(0, 120),
              st.sampled_from([Label("l", 1, False), Label("l", 12, True),
                               Label("v", 0, True), Label("v", 10, False),
                               DOT]),
              st.integers(0, 120))), max_size=8))
def test_parse_serialize_parse_updates_is_the_identity(ops):
    text = serialize_updates(ops)
    parsed = parse_updates(text)
    assert parsed == ops
    assert [op.line for op in parsed] == [None if op.op == "query" else i
                                          for i, op in enumerate(ops, start=1)]
    assert parse_updates(serialize_updates(parsed)) == parsed


@settings(max_examples=40, deadline=None)
@given(instances())
def test_fingerprint_tracks_equality(inst):
    assert inst.fingerprint() == parse_graph(serialize_graph(inst)).fingerprint()


def test_fingerprint_is_the_same_in_every_process():
    """Two processes with one hash seed give an instance without a
    partition one fingerprint: ``hash(None)`` is an address, so the
    missing partition must not be hashed as ``None``."""
    inst = gap_chain_instance()
    assert inst.partition is None
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    code = ("import sys; from dycklab import parse_graph; "
            "print(parse_graph(sys.stdin.read()).fingerprint())")
    prints = set()
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, env=env,
                              input=serialize_graph(inst), capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        prints.add(proc.stdout)
    assert len(prints) == 1, prints
