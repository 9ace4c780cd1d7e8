"""Command-line behavior: subcommands, report modes, exit codes."""

import argparse
import contextlib
import inspect
import io
import os
import random
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dycklab import (UpdateOp, compile_reduction, parse_graph,
                     serialize_graph, serialize_updates)
import dycklab.cli as cli
from dycklab.cli import (DEFAULT_SEED, LEMMA5_MAX_LEN, LIST_LIMIT,
                         Q_VALIDATE_MAX_LEN, REACH_MAX_LEN, WORD_OPS,
                         WORDS_LIMIT, build_parser, main)
from dycklab.oracle import EnumerationBudget
from dycklab.saturate import ENGINES, maintained_index, run_replay
from dycklab.suites import SUITES, SuiteResult, random_undirected_one_pair
from dycklab.words import REGULAR_EXPRS

from util import (fig1_instance, fig2_source, gap_chain_instance,
                  random_neardyck_instance, random_script)

NEAR_DYCK_GRAPH = """graph directed
vertices 4
alphabet neardyck 4
edge 0 v1 1
edge 1 dot 2
edge 2 v1bar 3
edge 3 dot 3
mark 0 3
"""


@pytest.fixture
def gap_chain(tmp_path):
    p = tmp_path / "chain.graph"
    p.write_text(serialize_graph(gap_chain_instance()))
    return str(p)


@pytest.fixture
def fig2(tmp_path):
    p = tmp_path / "cycle.graph"
    p.write_text(serialize_graph(fig2_source()))
    return str(p)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_solve_default_engine(capsys, gap_chain):
    code, out, _ = run(capsys, "solve", gap_chain)
    assert code == 0
    assert "answer: true" in out


def test_solve_wrap_only_engine_misses(capsys, gap_chain):
    code, out, _ = run(capsys, "solve", gap_chain, "--engine", "wrap-only")
    assert code == 0
    assert "answer: false" in out


def test_solve_cfl_engine_agrees(capsys, gap_chain):
    code, out, _ = run(capsys, "--kv", "solve", gap_chain, "--engine", "cfl")
    assert code == 0
    assert "answer=true" in out


def test_near_dyck_file_gives_the_same_answers_under_both_engines(capsys,
                                                                 tmp_path):
    graph, script = tmp_path / "near.graph", tmp_path / "near.upd"
    graph.write_text(NEAR_DYCK_GRAPH)
    script.write_text("query\ndel 1 dot 2\nquery\nins 2 dot 1\nins 1 dot 2\n"
                      "query\ndel 2 v1bar 3\nins 2 v1bar 2\nquery\n")
    for engine in ("dyck", "cfl"):
        code, out, _ = run(capsys, "--kv", "solve", str(graph),
                           "--engine", engine)
        assert code == 0
        assert "answer=true" in out
        code, out, _ = run(capsys, "--kv", "replay", str(graph), str(script),
                           "--engine", engine)
        assert code == 0
        answers = [line for line in out.splitlines()
                   if line.startswith("answer[")]
        assert answers == ["answer[0]=true", "answer[1]=false",
                           "answer[2]=true", "answer[3]=false"]


def _engine_outputs(capsys, graph, script, engines):
    """The ``solve`` and ``replay`` output under each engine, with the
    engine's name blanked."""
    outputs = {}
    for engine in engines:
        code, solved, _ = run(capsys, "--kv", "solve", str(graph),
                              "--engine", engine)
        assert code == 0
        code, replayed, _ = run(capsys, "--kv", "replay", str(graph),
                                str(script), "--engine", engine)
        assert code == 0
        outputs[engine] = (solved + replayed).replace(f"engine={engine}", "")
    return outputs


def test_dyck_and_cfl_engines_agree_on_random_near_dyck_files(capsys,
                                                              tmp_path):
    rng = random.Random(17)
    graph, script = tmp_path / "near.graph", tmp_path / "near.upd"
    for _ in range(12):
        inst = random_neardyck_instance(rng, max_vertices=5, density=0.1,
                                        directed=rng.random() < 0.5)
        graph.write_text(serialize_graph(inst))
        script.write_text(serialize_updates(
            random_script(rng, inst, ops=16, query_rate=0.3)))
        outputs = _engine_outputs(capsys, graph, script, ("dyck", "cfl"))
        assert outputs["dyck"] == outputs["cfl"]


def test_every_engine_agrees_on_random_undirected_one_pair_files(capsys,
                                                                 tmp_path):
    rng = random.Random(23)
    graph, script = tmp_path / "one.graph", tmp_path / "one.upd"
    for _ in range(12):
        inst = random_undirected_one_pair(rng, max_vertices=5)
        graph.write_text(serialize_graph(inst))
        script.write_text(serialize_updates(
            random_script(rng, inst, ops=16, query_rate=0.3)))
        outputs = _engine_outputs(capsys, graph, script,
                                  ("dyck", "cfl", "prop1"))
        assert outputs["dyck"] == outputs["cfl"] == outputs["prop1"]


@pytest.mark.parametrize("graph_text, message", [
    ("graph directed\nvertices 2\nalphabet dyck 1\nedge 0 l1 1\n"
     "mark 0 1\n", "undirected graphs only"),
    ("graph undirected\nvertices 2\nalphabet dyck 2\nedge 0 l1 1\n"
     "mark 0 1\n", "the one-pair alphabet"),
])
@pytest.mark.parametrize("script_text", [
    "", "del 0 l1 1\n", "ins 0 l9 1\nquery\n"])
def test_prop1_replay_rejects_other_graphs_before_any_update(
        capsys, tmp_path, graph_text, message, script_text):
    graph, script = tmp_path / "g.graph", tmp_path / "g.upd"
    graph.write_text(graph_text)
    script.write_text(script_text)
    for argv in (("replay", str(graph), str(script)), ("solve", str(graph))):
        code, out, err = run(capsys, *argv, "--engine", "prop1")
        assert code == 2
        assert out == ""
        assert err == f"error: characterization applies to {message}\n"


@pytest.mark.parametrize("ops", [(), ("del",), ("del", "query")])
def test_an_unknown_engine_fails_before_any_update(ops):
    inst = gap_chain_instance()
    edge = sorted(inst.graph.edges)[0]
    script = [UpdateOp.delete(*edge) if op == "del" else UpdateOp.query()
              for op in ops]
    with pytest.raises(ValueError, match="unknown engine 'bogus'"):
        run_replay(inst, script, "bogus")
    assert maintained_index(inst, "alt") is None


def test_replay_reports_per_query_answers(capsys, tmp_path, gap_chain):
    script = tmp_path / "script.upd"
    script.write_text("query\ndel 3 l2bar 4\nquery\nins 3 l2bar 4\nquery\n")
    code, out, _ = run(capsys, "--kv", "replay", gap_chain, str(script))
    assert code == 0
    assert "queries=3" in out
    assert "answer[0]=true" in out
    assert "answer[1]=false" in out
    assert "answer[2]=true" in out


def test_replay_wrap_only_follows_the_updates(capsys, tmp_path, gap_chain):
    # the gap chain needs concatenation; the edge 0 -l2-> 3 and the
    # chain's 3 -l2bar-> 4 wrap the pair (3, 3) instead
    script = tmp_path / "script.upd"
    script.write_text("query\nins 0 l2 3\nquery\ndel 0 l2 3\nquery\n")
    for engine, answers in (("wrap-only", "false true false"),
                            ("dyck", "true true true")):
        code, out, _ = run(capsys, "--kv", "replay", gap_chain, str(script),
                           "--engine", engine)
        assert code == 0
        assert out.splitlines()[2:] == [
            f"answer[{i}]={a}" for i, a in enumerate(answers.split())]


def test_reduce_writes_target_and_map(capsys, tmp_path, fig2):
    out_file = tmp_path / "target.graph"
    map_file = tmp_path / "names.tsv"
    code, out, _ = run(capsys, "reduce", "dyck2_to_undirected", fig2,
                       "-o", str(out_file), "--map", str(map_file))
    assert code == 0
    assert "target_vertices: 178" in out
    assert "vertices 178" in out_file.read_text()
    names = map_file.read_text().splitlines()
    assert names[0] == "0\t0"
    assert names[2] == "2\t0 l1 0 1"


@pytest.mark.parametrize("kv", [False, True])
def test_reduce_to_stdout_prints_the_target_alone(capsys, tmp_path, kv):
    """Without ``-o`` stdout holds the target graph and nothing else, so it
    reads back as the compiled target; the report goes to stderr."""
    g = tmp_path / "g.graph"
    g.write_text("graph directed\nvertices 2\nalphabet dyck 2\n"
                 "edge 0 l1 1\nmark 0 1\n")
    code, out, err = run(capsys, *["--kv"] * kv, "reduce",
                         "dyck2_to_undirected", str(g))
    assert code == 0
    target = compile_reduction("dyck2_to_undirected",
                               parse_graph(g.read_text())).target
    assert parse_graph(out) == target
    sep = "=" if kv else ": "
    assert err.splitlines() == [
        f"kind{sep}dyck2_to_undirected",
        f"target_vertices{sep}{target.graph.vertex_count}",
        f"target_edges{sep}{len(target.graph.edges)}"]


def test_verify_equiv_passes(capsys, tmp_path, fig2):
    script = tmp_path / "script.upd"
    script.write_text("query\nins 0 l2 0\nquery\ndel 0 l2 0\nquery\n")
    code, out, _ = run(capsys, "--kv", "verify-equiv", "dyck2_to_undirected",
                       fig2, str(script))
    assert code == 0
    assert "verdict=pass" in out
    assert "translated_counts=12,12" in out


def test_verify_equiv_alternating_worked_instance(capsys, tmp_path):
    graph = tmp_path / "alt.graph"
    graph.write_text(serialize_graph(fig1_instance()))
    script = tmp_path / "script.upd"
    script.write_text("query\n")
    code, out, _ = run(capsys, "--kv", "verify-equiv", "alt_to_neardyck",
                       str(graph), str(script))
    assert code == 0
    assert "answer[0]=true" in out
    assert "target_answer[0]=true" in out


@pytest.mark.parametrize("kind, graph_text, update, message", [
    ("alt_to_neardyck",
     "graph directed\nvertices 3\nalphabet dyck 1\nedge 0 l1 1\n"
     "mark 0 2\npartition and 0\n",
     "ins 0 l1 9", "edge endpoint out of range"),
    ("neardyck_to_dyck2",
     "graph directed\nvertices 2\nalphabet neardyck 2\nedge 0 dot 1\n"
     "mark 0 1\n",
     "ins 0 v7 1", "label v7 not in alphabet"),
])
def test_verify_equiv_rejects_an_invalid_update(capsys, tmp_path, kind,
                                                graph_text, update, message):
    graph = tmp_path / "source.graph"
    graph.write_text(graph_text)
    script = tmp_path / "script.upd"
    script.write_text(update + "\nquery\n")
    code, _, err = run(capsys, "verify-equiv", kind, str(graph), str(script))
    assert code == 2
    assert f"error: {message}" in err


ALT_GRAPH = ("graph directed\nvertices 3\nalphabet dyck 1\nedge 0 l1 1\n"
             "mark 0 2\npartition and 0\n")


@pytest.mark.parametrize("command", [
    ("replay",), ("verify-equiv", "alt_to_neardyck")])
@pytest.mark.parametrize("update, message", [
    ("ins 0 l9 1", "label l9 not in alphabet"),
    ("ins 0 l1 1", "duplicate edge (0, l1, 1)"),
    ("del 1 l1 2", "missing edge (1, l1, 2)"),
])
def test_an_update_the_instance_rejects_names_its_script_line(
        capsys, tmp_path, command, update, message):
    graph = tmp_path / "alt.graph"
    graph.write_text(ALT_GRAPH)
    script = tmp_path / "script.upd"
    # the bad update is step 1 but line 4
    script.write_text(f"# a comment\nquery\n\n{update}\nquery\n")
    code, _, err = run(capsys, *command, str(graph), str(script))
    assert code == 2
    assert f"error: {message} (script line 4)" in err


def test_an_untranslatable_update_names_its_script_line(capsys, tmp_path):
    graph = tmp_path / "alt.graph"
    graph.write_text(ALT_GRAPH)
    script = tmp_path / "script.upd"
    script.write_text("# a comment\n\nins 0 l1bar 1\nquery\n")
    code, _, err = run(capsys, "verify-equiv", "alt_to_neardyck", str(graph),
                       str(script))
    assert code == 2
    assert "not l1bar (script line 3)" in err


@pytest.mark.parametrize("text", ["", "# nothing\n", "ins 1 l1 2\n"])
def test_verify_equiv_that_checked_nothing_fails(capsys, tmp_path, text):
    graph = tmp_path / "alt.graph"
    graph.write_text(ALT_GRAPH)
    script = tmp_path / "script.upd"
    script.write_text(text)
    code, out, _ = run(capsys, "--kv", "verify-equiv", "alt_to_neardyck",
                       str(graph), str(script))
    assert code == 1
    assert "queries=0" in out
    assert "failure=checked nothing" in out
    assert "verdict=FAIL" in out


def test_word_subcommands(capsys):
    code, out, _ = run(capsys, "word", "reduce",
                       "0", "0bar", "1", "1", "0", "0", "1", "1", "1", "1",
                       "1bar", "0")
    assert code == 0
    assert "reduced: 1 1 0 0 1 1 1 0" in out

    code, out, _ = run(capsys, "word", "q", "1", "0bar")
    assert "q: false" in out

    code, out, _ = run(capsys, "word", "theta", "0", "0bar")
    assert "theta: identity" in out
    assert "gamma_exponent: 0" in out

    code, out, _ = run(capsys, "word", "regular", "omega", "0bar", "0")
    assert "omega: true" in out

    code, out, _ = run(capsys, "word", "mu", "l1", "l1", "l2bar")
    assert "mu: 1" in out

    code, out, _ = run(capsys, "word", "neardyck", "v1", "dot", "v1bar")
    assert "neardyck: true" in out


# operation -> (tokens, plain report), pinned byte for byte; the --kv
# report swaps ": " for "="
_WORD_OUTPUTS = {
    "reduce": (("0", "0bar", "1", "l3"), "reduced: l2 l3\n"),
    "dyck": (("l1", "l2", "l2bar", "l1bar"), "dyck: true\n"),
    "neardyck": (("v1", "dot", "v1bar"), "neardyck: true\n"),
    "q": (("0bar", "1"), "q: true\n"),
    "qinit": (("0", "1", "1bar"), "qinit: true\n"),
    "mu": (("l1", "l1", "l2bar"), "mu: 1\n"),
    "theta": (("0", "1", "0bar"),
              "theta: alpha beta alpha\ngamma_exponent: none\n"),
    "regular": (("omega", "0bar", "0"), "omega: true\n"),
}


@pytest.mark.parametrize("what", WORD_OPS)
def test_every_word_operation_prints_its_report(capsys, what):
    tokens, plain = _WORD_OUTPUTS[what]
    assert run(capsys, "word", what, *tokens) == (0, plain, "")
    assert run(capsys, "--kv", "word", what, *tokens) == (
        0, plain.replace(": ", "="), "")


@pytest.mark.parametrize("argv", [("word", "regular"),
                                  ("word", "regular", "sigma", "0"),
                                  ("word", "bogus", "0")])
def test_a_malformed_word_command_is_a_clean_error(capsys, argv):
    try:
        code = main(["--kv", *argv])
    except SystemExit as exc:  # argparse rejects an unknown operation
        code = exc.code
    out = capsys.readouterr()
    assert (code, out.out) == (2, "")
    assert "error:" in out.err
    assert "Traceback" not in out.err
    if argv[1] == "regular":
        assert f"expected one of {sorted(REGULAR_EXPRS)}" in out.err


@pytest.mark.parametrize("predicate, count", [
    ("dyck", 11), ("neardyck", 11), ("q", 227), ("qinit", 73), ("mu", 236)])
def test_oracle_words_filters_on_every_word_value(capsys, predicate, count):
    """On bracket letters neardyck is dyck; mu keeps the 236 of the 341
    words up to length 4 whose opening and closing letters differ in
    number."""
    code, out, _ = run(capsys, "--kv", "oracle", "words", "--max-len", "4",
                       "--predicate", predicate)
    assert (code, out) == (0, f"words={count}\n")


@pytest.mark.parametrize("tokens", [("dot",), ("v0", "v0bar"), ("l3",)])
def test_word_theta_rejects_letters_outside_the_two_pairs(capsys, tokens):
    code, out, err = run(capsys, "--kv", "word", "theta", *tokens)
    assert code == 2
    assert "theta=" not in out
    assert "error: theta is defined on the two-pair letters only" in err


@pytest.mark.parametrize("argv", [("word", "dyck", "l0", "l0bar"),
                                  ("word", "mu", "l0", "l0bar", "l0bar"),
                                  ("word", "dyck", "l01", "l1bar"),
                                  ("word", "dyck", "l\u0661", "l1bar"),
                                  ("word", "dyck", "l1_0", "l1bar"),
                                  ("word", "dyck", "l+1", "l1bar")])
def test_bracket_pair_zero_is_an_unknown_token(capsys, tmp_path, argv):
    """Bracket pairs count from 1: ``l0`` names no letter, on the command
    line or in a graph file (``v0`` stays a vertex letter).  A label index
    is ASCII digits without leading zeros, so ``l01`` is not ``l1``."""
    token = argv[2]
    code, out, err = run(capsys, "--kv", *argv)
    assert (code, out) == (2, "")
    assert f"error: unknown label token {token!r}" in err
    bad = tmp_path / "l0.graph"
    bad.write_text("graph directed\nvertices 2\nalphabet dyck 1\n"
                   f"edge 0 {token} 1\nmark 0 1\n", encoding="utf-8")
    code, _, err = run(capsys, "solve", str(bad))
    assert code == 2
    assert f"error: line 4: unknown label token {token!r}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("graph, script, line", [
    ("vertices 1_1\nalphabet dyck 2\nedge 1_0 l1bar 0\nedge 0 l01 +1\n",
     "query\n", "line 2: expected a non-negative integer, got '1_1'"),
    ("vertices 11\nalphabet dyck 2\nedge 10 l1bar 0\nedge 0 l01 1\n",
     "query\n", "line 5: unknown label token 'l01'"),
    ("vertices 2\nalphabet dyck 2\nedge 1 l1bar 0\n", "query\nins 0 l1 +1\n",
     "line 2: expected a non-negative integer, got '+1'"),
    ("vertices 2\nalphabet dyck 2\nedge 1 l1bar 0\n", "del 1 l1bar \u0660\n",
     "line 1: expected a non-negative integer, got '\u0660'"),
    ("vertices 2\nalphabet dyck 2\nedge 1 l1bar 0\n",
     "query  # first\nins 0 l1 +1  # plus one\n",
     "line 2: expected a non-negative integer, got '+1'"),
    ("vertices 2\r\nalphabet dyck 2\r\nedge 1 l1bar 0\r\nedge 0 l1 01\r\n",
     "query\r\n", "line 5: expected a non-negative integer, got '01'"),
    ("vertices 2\r\nalphabet dyck 2\r\nedge 1 l1bar 0\r\n",
     "query\r\n\r\nins 0 l1 +1\r\n",
     "line 3: expected a non-negative integer, got '+1'"),
], ids=["graph-numbers", "graph-label", "script-plus", "script-arabic-zero",
        "script-comment", "graph-crlf", "script-crlf"])
def test_files_spell_numbers_one_way(capsys, tmp_path, graph, script, line):
    g, s = tmp_path / "g.graph", tmp_path / "s.upd"
    g.write_text("graph directed\n" + graph + "mark 0 1\n")
    s.write_text(script)
    code, out, err = run(capsys, "--kv", "replay", str(g), str(s))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {line}")


@pytest.mark.parametrize("script, message", [
    ("query\nins 0 l1\n", "line 2: expected 'ins <u> <label> <v>'"),
    ("query\ndel 0 l1 1 2\n", "line 2: expected 'del <u> <label> <v>'"),
], ids=["ins-short", "del-long"])
def test_an_update_line_with_a_wrong_field_count_exits_2(capsys, tmp_path,
                                                         script, message):
    g, s = tmp_path / "g.graph", tmp_path / "s.upd"
    g.write_text("graph directed\nvertices 2\nalphabet dyck 1\n"
                 "edge 0 l1 1\nmark 0 1\n")
    s.write_text(script)
    code, out, err = run(capsys, "--kv", "replay", str(g), str(s))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {message}\n") and "Traceback" not in err


def test_python_dash_m_runs_the_cli():
    """``python -m dycklab`` works from a checkout, without installing."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "dycklab", "--kv", "word", "reduce", "0", "0bar"],
        cwd=root, env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (0, "reduced=eps\n"), proc.stderr


def test_oracle_reach(capsys, gap_chain):
    code, out, _ = run(capsys, "--kv", "oracle", "reach", gap_chain,
                       "--max-len", "4")
    assert code == 0
    assert "pair=0,4" in out


def test_oracle_paths(capsys, gap_chain):
    code, out, _ = run(capsys, "--kv", "oracle", "paths", gap_chain, "0", "4",
                       "--balanced")
    assert code == 0
    assert "paths=1" in out
    assert "path[0]=l1 l1bar l2 l2bar" in out


# On the gap chain, ``oracle reach --max-len 4`` tries 8 edges: 4 in the
# search from vertex 0, 2 in the one from 2, and 1 each in those from 1
# and 3, which comes last.  ``oracle paths 0 4 --balanced`` at its default
# ``--max-len`` 8 counts 26 expansions, having found its one walk at
# length 4.
@pytest.mark.parametrize("argv, expansions, head", [
    (("reach", "--max-len", "4"), 8, ["pairs=8", "truncated=false"]),
    (("reach", "--max-len", "4"), 7, ["pairs=7", "truncated=true"]),
    (("paths", "0", "4", "--balanced"), 26, ["paths=1", "truncated=false"]),
    (("paths", "0", "4", "--balanced"), 25, ["paths=1", "truncated=true"]),
], ids=["reach-at", "reach-past", "paths-at", "paths-past"])
def test_oracle_walks_stop_at_the_expansion_limit(capsys, monkeypatch,
                                                  gap_chain, argv,
                                                  expansions, head):
    monkeypatch.setattr(cli, "ORACLE_EXPANSIONS", expansions)
    code, out, _ = run(capsys, "--kv", "oracle", argv[0], gap_chain, *argv[1:])
    assert code == 0
    assert out.splitlines()[:2] == head


NEAR_DYCK_CYCLES = """graph directed
vertices 3
alphabet neardyck 3
edge 0 v0 1
edge 1 v0bar 0
edge 1 v1 2
edge 2 v1bar 1
edge 2 v0bar 0
edge 0 dot 0
edge 1 dot 2
mark 0 0
"""


@pytest.mark.parametrize("limits, expected", [
    (("--max-len", "6"),
     ["paths=8", "truncated=false", "path[0]=eps", "path[1]=v0 v0bar",
      "path[2]=v0 v0bar v0 v0bar", "path[3]=v0 v1 v1bar v0bar",
      "path[4]=v0 v0bar v0 v0bar v0 v0bar",
      "path[5]=v0 v0bar v0 v1 v1bar v0bar",
      "path[6]=v0 v1 v1bar v0bar v0 v0bar",
      "path[7]=v0 v1 v1bar v1 v1bar v0bar"]),
    (("--max-len", "10", "--max-paths", "4"),
     ["paths=4", "truncated=true", "path[0]=eps", "path[1]=v0 v0bar",
      "path[2]=v0 v0bar v0 v0bar", "path[3]=v0 v1 v1bar v0bar"]),
])
def test_oracle_balanced_paths_on_a_fixed_near_dyck_graph(capsys, tmp_path,
                                                          limits, expected):
    """Pinned output: dot loops and unmatched closes never appear, and
    the walks come in length-lexicographic order."""
    g = tmp_path / "cycles.graph"
    g.write_text(NEAR_DYCK_CYCLES)
    code, out, _ = run(capsys, "--kv", "oracle", "paths", str(g), "0", "0",
                       "--balanced", *limits)
    assert code == 0
    assert out.splitlines() == expected


@pytest.mark.parametrize("source, sink", [("99", "99"), ("0", "5")])
def test_oracle_paths_rejects_endpoints_outside_the_graph(capsys, gap_chain,
                                                          source, sink):
    code, out, err = run(capsys, "--kv", "oracle", "paths", gap_chain,
                         source, sink)
    assert code == 2
    assert "error: endpoint out of range" in err
    assert "paths=" not in out


def test_oracle_words(capsys):
    code, out, _ = run(capsys, "--kv", "oracle", "words", "--max-len", "4",
                       "--predicate", "dyck", "--list")
    assert code == 0
    assert "words=11" in out  # 1 + 2 + 8 balanced words up to length 4
    assert "word=eps" in out


def test_suite_subcommand(capsys):
    code, out, _ = run(capsys, "--kv", "suite", "prop1", "--samples", "40")
    assert code == 0
    assert "verdict=pass" in out


def _choices(parser):
    """The sub-parsers of ``parser``, by name."""
    [action] = [a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_one_sub_parser_per_suite():
    suites = _choices(_choices(build_parser())["suite"])
    assert list(suites) == sorted(SUITES)


# per suite, the keyword arguments its call receives by default, then an
# argv that sets every option the suite reads, and the arguments it gives
_B = EnumerationBudget
_SUITE_CALLS = {
    "q-validate": ({"max_len": 8}, ["--max-len", "3"], {"max_len": 3}),
    "lemma4": ({"budget": _B(40, 500)}, ["--budget", "6", "--max-paths", "7"],
               {"budget": _B(6, 7)}),
    "lemma5": ({"max_len": 8}, ["--max-len", "3"], {"max_len": 3}),
    "lemma6": ({"budget": _B(40, 500)}, ["--budget", "6", "--max-paths", "7"],
               {"budget": _B(6, 7)}),
    "lemma7": ({"budget": _B(40, 500), "seed": DEFAULT_SEED},
               ["--budget", "6", "--max-paths", "7", "--seed", "5"],
               {"budget": _B(6, 7), "seed": 5}),
    "prop1": ({"samples": 300, "seed": DEFAULT_SEED},
              ["--samples", "4", "--seed", "5"], {"samples": 4, "seed": 5}),
}


def _spy_on_suites(monkeypatch):
    """Replace every suite by one that records its keyword arguments and
    passes one check."""
    calls = []

    def spy(name):
        def run_suite(**kwargs):
            calls.append(kwargs)
            res = SuiteResult(name)
            res.check(True, "")
            return res
        return run_suite

    for name in SUITES:
        monkeypatch.setitem(SUITES, name, spy(name))
    return calls


@pytest.mark.parametrize("name", sorted(_SUITE_CALLS))
def test_a_suite_receives_exactly_the_options_it_reads(capsys, monkeypatch,
                                                       name):
    defaults, argv, given = _SUITE_CALLS[name]
    # the CLI's defaults are the library's
    parameters = inspect.signature(SUITES[name]).parameters
    assert defaults == {key: parameters[key].default for key in defaults}
    calls = _spy_on_suites(monkeypatch)
    assert run(capsys, "suite", name)[0] == 0
    assert run(capsys, "suite", name, *argv)[0] == 0
    assert calls == [defaults, given]


# a suite option its suite does not read is a usage error (19 pairs), and
# so is ``--seed`` on the 8 other leaf commands and before any command
_SUITE_OPTIONS = ("--max-len", "--budget", "--max-paths", "--samples",
                  "--seed")
_UNREAD = [("suite", name, option, "1")
           for name, (_, argv, _) in _SUITE_CALLS.items()
           for option in _SUITE_OPTIONS if option not in argv]
_UNREAD += [(*leaf, "--seed", "1") for leaf in (
    ("solve", "g"), ("replay", "g", "s"), ("reduce", "alt_to_neardyck", "g"),
    ("verify-equiv", "alt_to_neardyck", "g", "s"), ("word", "dyck"),
    ("oracle", "reach", "g"), ("oracle", "paths", "g", "0", "1"),
    ("oracle", "words"))]
_UNREAD += [("--seed", "5", "solve", "g")]


@pytest.mark.parametrize("argv", _UNREAD, ids=" ".join)
def test_an_option_the_command_does_not_read_is_a_usage_error(capsys,
                                                              monkeypatch,
                                                              argv):
    calls = _spy_on_suites(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "usage: dycklab" in out.err
    assert "Traceback" not in out.err and calls == []
    assert len(_UNREAD) == 19 + 8 + 1


@pytest.mark.parametrize("argv, command", [
    (["replay", "g", "s", "--seed", "1"], "replay"),
    (["oracle", "paths", "g", "0", "1", "--seed", "1"], "oracle paths"),
    (["suite", "lemma5", "--samples", "9"], "suite lemma5"),
], ids=["replay", "oracle-paths", "suite-lemma5"])
def test_a_usage_error_names_its_command(capsys, monkeypatch, argv, command):
    calls = _spy_on_suites(monkeypatch)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and calls == []
    assert out.err.startswith(f"usage: dycklab {command} [-h]")
    assert out.err.endswith(f"\ndycklab {command}: error: unrecognized "
                            f"arguments: {' '.join(argv[-2:])}\n")


def test_lemma5_max_len_stops_at_its_limit(capsys):
    """Parsed only, never run: lemma 5 at its limit takes about 15 s."""
    parser = build_parser()
    argv = ["suite", "lemma5", "--max-len"]
    assert parser.parse_args([*argv, str(LEMMA5_MAX_LEN)]).max_len == 16
    with pytest.raises(SystemExit) as exc:
        parser.parse_args([*argv, str(LEMMA5_MAX_LEN + 1)])
    assert exc.value.code == 2
    assert ("error: argument --max-len: 17 is above lemma 5's limit of 16"
            in capsys.readouterr().err)


@pytest.mark.parametrize("argv, limit, what", [
    (["suite", "q-validate"], Q_VALIDATE_MAX_LEN, "q-validate"),
    (["oracle", "reach", "g.graph"], REACH_MAX_LEN, "oracle reach"),
], ids=["q-validate", "oracle-reach"])
def test_a_max_len_one_past_its_limit_is_a_usage_error(capsys, argv, limit,
                                                       what):
    """Parsed only, never run: each limit runs for about 15 s."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--max-len", str(limit + 1)])
    assert exc.value.code == 2
    assert (f"error: argument --max-len: {limit + 1} is above {what}'s "
            f"limit of {limit}\n" in capsys.readouterr().err)


@pytest.mark.parametrize("pairs, max_len, listing", [
    (1, 22, False), (2, 11, False), (3, 9, False), (WORDS_LIMIT // 2, 1, False),
    (1, 19, True), (LIST_LIMIT // 2, 1, True),
], ids=["1-22", "2-11", "3-9", "2100000-1", "list-1-19", "list-500000-1"])
def test_oracle_words_one_past_its_limit_is_an_error(capsys, monkeypatch,
                                                     pairs, max_len, listing):
    """Checked, never run: each call is one step of ``--max-len``, or for
    one-letter words one pair, past the largest that its limit lets run,
    which takes up to about 15 s."""
    def enumerate_nothing(*args):
        raise AssertionError("a call past the limit enumerated words")

    monkeypatch.setattr(cli, "exhaustive_words", enumerate_nothing)
    what, limit = (("oracle words --list", LIST_LIMIT) if listing
                   else ("oracle words", WORDS_LIMIT))
    code, out, err = run(capsys, "--kv", "oracle", "words", "--pairs",
                         str(pairs), "--max-len", str(max_len),
                         *["--list"] * listing)
    assert (code, out) == (2, "")
    assert err == (f"error: --pairs {pairs} --max-len {max_len} tries more "
                   f"words than {what}'s limit of {limit}\n")


@pytest.mark.parametrize("name, max_len, checked", [
    ("lemma5", "6", 628),       # 2 x 314 varpi words up to length 6
    ("q-validate", "4", 682),   # 2 x 341 words over 4 letters up to length 4
])
def test_a_word_suite_walks_up_to_its_max_len(capsys, name, max_len, checked):
    code, out, _ = run(capsys, "--kv", "suite", name, "--max-len", max_len)
    assert code == 0
    assert f"checked={checked}\n" in out
    assert "verdict=pass" in out


@pytest.mark.parametrize("argv", [
    ("suite", "prop1", "--samples", "0"),
    ("suite", "lemma4", "--budget", "0"),
    ("suite", "lemma7", "--budget", "0"),
])
def test_a_suite_that_checked_nothing_fails(capsys, argv):
    code, out, _ = run(capsys, "--kv", *argv)
    assert code == 1
    assert "checked=0" in out
    assert "failure=checked nothing" in out
    assert "verdict=FAIL" in out


def test_a_failing_suite_prints_its_counterexample(capsys, monkeypatch):
    def failing(**_):
        res = SuiteResult("prop1")
        res.check(False, "synthetic failure")
        return res

    monkeypatch.setitem(SUITES, "prop1", failing)
    code, out, _ = run(capsys, "--kv", "suite", "prop1")
    assert code == 1
    assert "counterexample=synthetic failure" in out
    assert "verdict=FAIL" in out


@pytest.mark.parametrize("argv", [
    ("oracle", "paths", "{graph}", "0", "4", "--max-paths", "0"),
    ("suite", "lemma6", "--max-paths", "0"),
])
def test_a_zero_path_cap_is_rejected(capsys, gap_chain, argv):
    """The enumerators keep a path before they test the cap, so a cap of
    zero paths would still return one: it is an error instead."""
    code, out, err = run(capsys, "--kv",
                         *(a.format(graph=gap_chain) for a in argv))
    assert code == 2
    assert "error: max_paths must be at least 1" in err
    assert "paths=" not in out and "verdict=" not in out


SELF_LOOP_GRAPH = """graph directed
vertices 1
alphabet dyck 1
edge 0 l1 0
mark 0 0
"""


@pytest.mark.parametrize("argv", [
    ("oracle", "paths", "{graph}", "0", "0", "--max-len", "1200"),
    ("suite", "lemma7", "--budget", "1200", "--max-paths", "1"),
])
def test_a_walk_limit_past_the_recursion_limit_is_rejected(capsys, tmp_path,
                                                           argv):
    """The walk enumerators recurse once per step, so a length bound that
    the interpreter's recursion limit cannot reach is an error naming that
    limit, not a crash."""
    graph = tmp_path / "loop.graph"
    graph.write_text(SELF_LOOP_GRAPH)
    code, out, err = run(capsys, "--kv",
                         *(a.format(graph=graph) for a in argv))
    assert code == 2
    assert re.fullmatch(r"error: max_path_length 1200 is beyond the walk "
                        r"search's depth limit of \d+ steps\n", err), err
    assert "paths=" not in out and "verdict=" not in out


def test_deep_walk_limits_within_the_recursion_limit_still_run(capsys,
                                                               tmp_path):
    """A deep bound the recursion can reach walks as before."""
    graph = tmp_path / "loop.graph"
    graph.write_text(SELF_LOOP_GRAPH)
    code, out, _ = run(capsys, "--kv", "oracle", "paths", str(graph), "0",
                       "0", "--max-len", "400")
    assert code == 0
    assert out.splitlines()[:2] == ["paths=401", "truncated=false"]
    assert out.splitlines()[-1] == "path[400]=" + " ".join(["l1"] * 400)

@pytest.mark.parametrize("argv", [
    ("suite", "prop1", "--samples", "-5"),
    ("suite", "lemma4", "--budget", "-1"),
    ("suite", "lemma6", "--max-paths", "-1"),
    ("suite", "lemma5", "--max-len", "-1"),
    ("oracle", "reach", "g.graph", "--max-len", "-1"),
    ("oracle", "paths", "g.graph", "0", "1", "--max-paths", "-1"),
    ("oracle", "words", "--max-len", "-2"),
    ("oracle", "words", "--max-len", "01"),
    ("suite", "lemma4", "--budget", "+1"),
    ("suite", "prop1", "--samples", "1_0"),
    ("suite", "lemma5", "--max-len", "\u0661"),
    ("oracle", "paths", "g.graph", "00", "1"),
    ("oracle", "paths", "g.graph", "0", "+1"),
    ("oracle", "paths", "g.graph", "0", "1_0"),
    ("oracle", "words", "--pairs", "-1"),
    ("oracle", "words", "--pairs", "\u0662"),
])
def test_negative_limits_are_rejected(capsys, argv):
    """Limits and vertex ids are non-negative and spelled as in the file
    formats."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_missing_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "solve", "/nonexistent.graph")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [
    ("replay", "{dir}", "{dir}/s.upd"),
    ("reduce", "dyck2_to_undirected", "{g}", "-o", "{dir}"),
])
def test_a_directory_path_is_a_clean_error(capsys, tmp_path, fig2, argv):
    (tmp_path / "s.upd").write_text("query\n")
    code, _, err = run(capsys, *(a.format(dir=tmp_path, g=fig2) for a in argv))
    assert code == 2
    assert "error:" in err
    assert "Traceback" not in err


def test_malformed_graph_is_a_clean_error(capsys, tmp_path):
    header = "graph directed\nvertices 2\nalphabet dyck 1\n"
    cases = [
        ("graph sideways\nvertices 1\nalphabet dyck 1\nmark 0 0\n", 1),
        ("graph directed\nvertices x\nalphabet dyck 1\nmark 0 0\n", 2),
        ("graph directed\nvertices 1\nalphabet dyck 0\nmark 0 0\n", 3),
        (header + "edge 0 l1 1\nmark a b\n", 5),
        (header + "mark 0 1\npartition and x\n", 5),
        (header + "edge 0 l1 1\nmark 0 7\n", 5),
    ]
    bad = tmp_path / "bad.graph"
    for text, line in cases:
        bad.write_text(text)
        code, _, err = run(capsys, "solve", str(bad))
        assert code == 2, text
        assert f"error: line {line}:" in err, text
        assert "Traceback" not in err


ONE_PAIR_HEADER = "graph directed\nvertices 2\nalphabet dyck 1\n"


@pytest.mark.parametrize("text, message", [
    (ONE_PAIR_HEADER + "mark 0 1\npartition and 0\npartition and 1\n",
     "line 6: duplicate partition line"),
    (ONE_PAIR_HEADER + "mark 0 1\npartition and 2\n",
     "line 5: partition vertex out of range"),
    (ONE_PAIR_HEADER + "mark 0 1\npartition and 1 1\n",
     "line 5: repeated vertex in partition"),
    (ONE_PAIR_HEADER + "mark 0 1\npartition or 1\n",
     "line 5: expected 'partition and <u> ...'"),
    ("graph directed\nvertices 2\n",
     "missing header (graph / vertices / alphabet)"),
    ("graph directed\nvertices 2\nedge 0 l1 1\nmark 0 1\n",
     "line 3: expected 'alphabet dyck <n>' or 'alphabet neardyck <N>'"),
], ids=["duplicate-partition", "partition-range", "partition-repeat",
        "partition-or", "missing-header", "header-of-two-lines"])
def test_malformed_partition_and_header_lines_exit_2(capsys, tmp_path, text,
                                                     message):
    bad = tmp_path / "bad.graph"
    bad.write_text(text)
    code, out, err = run(capsys, "solve", str(bad))
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize("line", [1, 4])
@pytest.mark.parametrize("which", ["graph", "script"])
def test_a_file_that_is_not_utf8_names_its_line(capsys, tmp_path, fig2, which,
                                                line):
    """A byte that is not UTF-8, here in a comment, exits 2 naming its line,
    whatever the locale's encoding."""
    paths = {"graph": Path(fig2), "script": tmp_path / "s.upd"}
    paths["script"].write_text("query\nquery\nquery\nquery\n")
    lines = paths[which].read_bytes().splitlines(keepends=True)
    lines.insert(line - 1, b"# caf\xff\n")
    paths[which].write_bytes(b"".join(lines))
    code, out, err = run(capsys, "replay", str(paths["graph"]),
                         str(paths["script"]))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: line {line}: byte 0xff is not UTF-8"), err
    assert "Traceback" not in err


def test_kv_reports_are_deterministic(capsys, gap_chain):
    _, first, _ = run(capsys, "--kv", "solve", gap_chain)
    _, second, _ = run(capsys, "--kv", "solve", gap_chain)
    assert first == second


# ---------------------------------------------------------------------------
# One parser per process: a call inherits nothing from the call before it

def _call(capsys, argv):
    """``main(argv)`` in this process: exit code, stdout and stderr, with a
    usage error's ``SystemExit`` read as its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def _alone(argv):
    """``dycklab argv`` in a fresh process, where no call came before."""
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "dycklab", *argv], cwd=root,
                          env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _masked(result):
    code, out, err = result
    return code, re.sub(r"elapsed_s[=:] ?\S+", "elapsed_s", out), err


@pytest.mark.parametrize("first, second", [
    (("--kv", "suite", "prop1", "--seed", "5", "--samples", "3"),
     ("--kv", "suite", "prop1", "--samples", "3")),
    (("oracle", "paths", "{g}", "0", "2", "--balanced"),
     ("oracle", "paths", "{g}", "0", "2")),
    (("--kv", "replay", "--engine", "cfl", "{g}", "{s}"),
     ("--kv", "replay", "{g}", "{s}")),
    (("--kv", "solve", "{g}"), ("solve", "{g}")),
    (("--kv", "solve"), ("solve", "{g}")),
], ids=["seed", "balanced", "engine", "kv", "usage-error"])
def test_a_call_inherits_nothing_from_the_call_before(capsys, tmp_path,
                                                      gap_chain, first,
                                                      second):
    script = tmp_path / "s.upd"
    script.write_text("query\ndel 0 l1 1\nquery\n")
    first, second = ([a.format(g=gap_chain, s=script) for a in argv]
                     for argv in (first, second))
    _call(capsys, first)
    after = _call(capsys, second)
    assert _masked(after) == _masked(_alone(second))
    assert after[0] == 0


def test_the_default_seed_returns_after_a_seeded_call(capsys, monkeypatch):
    seeds = []

    def spy(**kwargs):
        seeds.append(kwargs["seed"])
        return prop1(**kwargs)

    prop1 = SUITES["prop1"]
    monkeypatch.setitem(SUITES, "prop1", spy)
    for argv in (["--seed", "5"], [], ["--seed", "7"], []):
        code, _, _ = _call(capsys, ["suite", "prop1", *argv, "--samples", "2"])
        assert code == 0
    assert seeds == [5, DEFAULT_SEED, 7, DEFAULT_SEED]


def test_later_calls_build_no_parser(capsys, monkeypatch, tmp_path, fig2):
    """After the first call, every subcommand runs on the parser that call
    built."""
    script = tmp_path / "s.upd"
    script.write_text("query\n")
    _call(capsys, ["word", "dyck"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    g, s = fig2, str(script)
    codes = [_call(capsys, argv)[0] for argv in (
        ["solve", g], ["replay", g, s],
        ["reduce", "dyck2_to_undirected", g, "-o", str(tmp_path / "t.graph")],
        ["verify-equiv", "dyck2_to_undirected", g, s],
        ["word", "reduce", "0", "0bar"],
        ["oracle", "reach", g, "--max-len", "2"],
        ["oracle", "paths", g, "0", "1", "--max-len", "2"],
        ["oracle", "words", "--max-len", "2"],
        ["suite", "prop1", "--samples", "1"],
        ["--kv", "suite", "nope"])]
    assert codes == [0] * 9 + [2]
    assert built == []


# ---------------------------------------------------------------------------
# Fuzzed inputs: whatever the files hold, the CLI answers or exits cleanly

# (graph, script, reduction) triples that run cleanly before they are
# mutated
_FUZZ_CASES = (
    (serialize_graph(fig1_instance()),          # alternating, dyck 1
     "query\nins 3 l1 0\nquery\ndel 0 l1 1\nquery\n", "alt_to_neardyck"),
    (serialize_graph(fig2_source()),            # directed, dyck 2
     "query\nins 0 l2 0\nquery\ndel 1 l1bar 0\nquery\nins 1 l1bar 0\n"
     "query\n", "dyck2_to_undirected"),
    ("graph undirected\nvertices 3\nalphabet dyck 1\nedge 0 l1 1\n"
     "edge 1 l1bar 2\nmark 0 2\n",
     "query\ndel 1 l1bar 2\nquery\nins 2 l1bar 1\nquery\n",
     "dyck2_to_undirected"),
    (NEAR_DYCK_GRAPH,
     "query\ndel 1 dot 2\nquery\nins 2 dot 1\nquery\nins 0 v3bar 2\n"
     "query\n", "neardyck_to_dyck2"),
)
_FUZZ_TOKENS = ("x", "-1", "0", "1", "3", "9", "l1", "l2bar", "l3", "v0",
                "v1bar", "v9", "dot", "edge", "mark", "ins", "del", "query",
                "partition", "and", "vertices", "alphabet", "dyck",
                "neardyck", "undirected", "#", "",
                # numbers and label indices spelled in ways ``int`` reads
                "01", "+1", "1_0", "\u0661", "l01", "l1_0", "v\u0661bar")
_FUZZ_COMMANDS = (
    [("solve", "{g}", "--engine", e) for e in ENGINES]
    + [("replay", "{g}", "{s}", "--engine", e) for e in ENGINES]
    + [("verify-equiv", kind, "{g}", "{s}")
       for kind in ("{k}", "alt_to_neardyck", "neardyck_to_dyck2",
                    "dyck2_to_undirected")]
    # a word command takes the drawn word tokens as its arguments
    + [("word", what) for what in WORD_OPS]
    + [("word", "regular", name) for name in REGULAR_EXPRS])
_words = st.lists(st.sampled_from(_FUZZ_TOKENS + ("0bar", "1bar",
                                                  *REGULAR_EXPRS)),
                  max_size=5)

# (file, edit, line index, token index, new token): file 0 is the graph,
# file 1 the script
_edits = st.lists(
    st.tuples(st.integers(0, 1),
              st.sampled_from(("drop", "dup", "garble", "drop-line",
                               "dup-line")),
              st.integers(0, 99), st.integers(0, 9),
              st.sampled_from(_FUZZ_TOKENS)),
    max_size=3)


def _mutate(text, edits):
    """Drop, duplicate or replace tokens or whole lines of a file."""
    lines = [line.split() for line in text.splitlines()]
    for kind, i, j, token in edits:
        if not lines:
            break
        i %= len(lines)
        line = lines[i]
        if kind == "drop-line":
            del lines[i]
        elif kind == "dup-line":
            lines.insert(i, list(line))
        elif not line:
            continue
        elif kind == "drop":
            del line[j % len(line)]
        elif kind == "dup":
            line.insert(j % len(line), line[j % len(line)])
        else:
            line[j % len(line)] = token
    return "\n".join(" ".join(line) for line in lines) + "\n"


@settings(max_examples=700, deadline=None)
@given(st.sampled_from(_FUZZ_CASES), _edits, st.sampled_from(_FUZZ_COMMANDS),
       _words)
def test_fuzzed_inputs_exit_cleanly(case, edits, command, words):
    with tempfile.TemporaryDirectory() as tmp:
        graph, script = Path(tmp) / "g.graph", Path(tmp) / "s.upd"
        for path, text, which in ((graph, case[0], 0), (script, case[1], 1)):
            path.write_text(_mutate(text, [e[1:] for e in edits
                                           if e[0] == which]))
        argv = [arg.format(g=graph, s=script, k=case[2]) for arg in command]
        if command[0] == "word":
            argv += words
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["--kv"] + argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error: ")
