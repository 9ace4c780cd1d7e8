"""The benchmark's workloads: the program calls each one makes, and the
checks that each call's output is right.

A workload is built in three steps:

* ``make`` draws its inputs from the seed and writes the graph and
  script files (benchmark work, not timed);
* ``expect`` computes the reference answers with dycklab's independent
  grammar engine (not timed);
* ``setup`` does the program's one-time work before the first timed call
  (timed as part of ``setup_s``), and returns the list of operations.

An operation is one program call, or for ``lemmas`` one suite call.  Its
``run`` makes the call and returns the raw output; ``check`` returns the
problems found in that output (empty when correct); ``flip`` returns the
output with one answer inverted, for the checker's self-test.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
from pathlib import Path
from typing import Callable

from inputs import (Graph, alt_case, dyck2_case, lemma_sources,
                    neardyck_case, replay_case, script_text, updates_of)


@dataclasses.dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    work: Callable[[object], int]      # units of work done by the call
    flip: Callable[[object], object]


# ---------------------------------------------------------------------------
# helpers shared by the CLI workloads

def _cli_call(cli, argv):
    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()
    return run


def _kv(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def _answers(kv: dict, prefix: str) -> list[bool]:
    out = []
    while f"{prefix}[{len(out)}]" in kv:
        out.append(kv[f"{prefix}[{len(out)}]"] == "true")
    return out


def _flip_first(output, key="answer[0]"):
    code, text, err = output
    lines = text.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(key + "="):
            value = line.split("=", 1)[1]
            lines[i] = f"{key}={'false' if value == 'true' else 'true'}"
            break
    return code, "\n".join(lines) + "\n", err


def _label(dl, token: str):
    """Label object for a graph-file token, built without the parser."""
    if token == "dot":
        return dl.DOT
    bar = token.endswith("bar")
    core = token[:-3] if bar else token
    return dl.Label(core[0], int(core[1:]), bar)


def _cfl_answer(dl, graph: Graph, edges) -> bool:
    """The marked pair's answer from the grammar engine, on a graph built
    from the benchmark's own edge set."""
    g = dl.LabeledGraph.build(graph.directed, graph.n, dl.Alphabet("dyck", 2),
                              [(u, _label(dl, lab), v) for u, lab, v in edges])
    table = dl.solve_cfl(dl.Instance(g, graph.source, graph.sink),
                         dl.dyck_grammar(2))
    return (graph.source, graph.sink) in table["S"]


def _states_at_queries(graph: Graph, ops) -> list[frozenset]:
    edges = set(graph.edges)
    out = []
    for op in ops:
        if op[0] == "ins":
            edges.add(op[1:])
        elif op[0] == "del":
            edges.remove(op[1:])
        else:
            out.append(frozenset(edges))
    return out


def _cfl_answers(dl, graph: Graph, ops) -> list[bool]:
    """The grammar engine's answer at every query of a two-pair script."""
    return [_cfl_answer(dl, graph, s) for s in _states_at_queries(graph, ops)]


def _cfl_answers_monotone(dl, graph: Graph, ops) -> list[bool]:
    """Same as ``_cfl_answers`` for an insert-only script, with fewer
    engine calls: adding edges never removes a path, so the answers are
    no up to the first yes and yes after it; a binary search finds it."""
    states = _states_at_queries(graph, ops)
    lo, hi = 0, len(states)  # the first yes lies in [lo, hi]
    while lo < hi:
        mid = (lo + hi) // 2
        if _cfl_answer(dl, graph, states[mid]):
            hi = mid
        else:
            lo = mid + 1
    return [k >= lo for k in range(len(states))]


def _updates_work(ops):
    """The work of a script call: its update count, whatever the output."""
    n = updates_of(ops)
    return lambda output: n


def _write_case(work_dir: Path, name: str, graph: Graph, ops):
    gpath, spath = work_dir / f"{name}.graph", work_dir / f"{name}.upd"
    gpath.write_text(graph.text())
    spath.write_text(script_text(ops))
    return str(gpath), str(spath)


# ---------------------------------------------------------------------------
# replay

class ReplayWorkload:
    """``dycklab --kv replay`` on one family of scripts: ``grow`` (insertions
    and queries) or ``churn`` (deletions and insertions, equal odds)."""

    known_failures = 0  # calls per round that fail on every run

    def __init__(self, family: str, scripts: int):
        self.family = family
        self.churn = family == "churn"
        self.scripts = scripts

    def make(self, rng: random.Random, work_dir: Path):
        self.cases = []
        for i in range(self.scripts):
            graph, ops = replay_case(rng, i, self.churn)
            paths = _write_case(work_dir, f"{self.family}{i}", graph, ops)
            self.cases.append((graph, ops, paths))

    def expect(self, dl):
        answers = _cfl_answers if self.churn else _cfl_answers_monotone
        self.expected = [answers(dl, g, ops) for g, ops, _ in self.cases]

    def setup(self, modules) -> list[Op]:
        cli = modules["cli"]
        return [Op(f"{self.family}{i}",
                   _cli_call(cli, ["--kv", "replay", gpath, spath]),
                   self._checker(i), _updates_work(ops), _flip_first)
                for i, (_g, ops, (gpath, spath)) in enumerate(self.cases)]

    def _checker(self, i: int):
        want = self.expected[i]

        def check(output) -> list[str]:
            code, text, err = output
            if code != 0:
                return [f"exit {code}: {err.strip()}"]
            got = _answers(_kv(text), "answer")
            problems = []
            if got != want:
                problems.append(f"answers {got} != grammar engine {want}")
            if not self.churn and any(a and not b for a, b in zip(got, got[1:])):
                problems.append(f"an insert-only script lost an answer: {got}")
            return problems

        return check


# ---------------------------------------------------------------------------
# equiv

LANES = (
    # kind, case maker, per-vertex-count repeats, translated-count set
    ("alt_to_neardyck", alt_case, 8, {1, 2}),
    ("neardyck_to_dyck2", neardyck_case, 6, {1}),
    ("dyck2_to_undirected", dyck2_case, 5, {12}),
)


class EquivWorkload:
    """``dycklab --kv verify-equiv`` for all three reduction kinds.  Each
    lane cycles through its vertex counts ``repeats`` times."""

    known_failures = 0

    def __init__(self, repeats: tuple[int, int, int]):
        self.repeats = repeats

    def make(self, rng: random.Random, work_dir: Path):
        self.cases = []
        for (kind, case, sizes, bounds), reps in zip(LANES, self.repeats):
            for i in range(sizes * reps):
                graph, ops = case(rng, i)
                paths = _write_case(work_dir, f"{kind}{i}", graph, ops)
                self.cases.append((kind, bounds, graph, ops, paths))

    def expect(self, dl):
        self.expected = [_cfl_answers(dl, g, ops)
                         if kind == "dyck2_to_undirected" else None
                         for kind, _b, g, ops, _p in self.cases]

    def setup(self, modules) -> list[Op]:
        cli = modules["cli"]
        return [Op(f"{kind}{i}",
                   _cli_call(cli, ["--kv", "verify-equiv", kind, gpath, spath]),
                   self._checker(i), _updates_work(ops), _flip_first)
                for i, (kind, _b, _g, ops, (gpath, spath))
                in enumerate(self.cases)]

    def _checker(self, i: int):
        kind, bounds, _graph, ops, _paths = self.cases[i]
        want = self.expected[i]
        queries = len(ops) - updates_of(ops)

        def check(output) -> list[str]:
            code, text, err = output
            kv = _kv(text)
            problems = []
            if code != 0 or kv.get("verdict") != "pass":
                problems.append(f"exit {code}, verdict {kv.get('verdict')}: "
                                f"{err.strip()}")
            got = _answers(kv, "answer")
            if len(got) != queries or len(_answers(kv, "target_answer")) != queries:
                problems.append(f"{len(got)} answers for {queries} queries")
            counts = [int(c) for c in kv.get("translated_counts", "").split(",") if c]
            if len(counts) != updates_of(ops) or not set(counts) <= bounds:
                problems.append(f"translated counts {counts} outside {sorted(bounds)}")
            if want is not None and got != want:
                problems.append(f"source answers {got} != grammar engine {want}")
            return problems

        return check


# ---------------------------------------------------------------------------
# lemmas

class VacuousPass(Exception):
    """A suite passed having checked nothing: the call did not do its job."""


class LemmasWorkload:
    """``suite_lemma5`` once, then ``suite_lemma4``, ``suite_lemma6`` and
    ``suite_lemma7`` on each compiled gadget, at the acceptance test's
    budgets.  A suite call that checks nothing counts as failed."""

    def __init__(self, gadgets: int, lemma5_max_len: int = 10):
        self.gadgets = gadgets
        self.lemma5_max_len = lemma5_max_len

    def make(self, rng: random.Random, work_dir: Path):
        self.sources = lemma_sources()[:self.gadgets]
        # lemma7 on the one-edge l1bar source (see lemma_sources)
        self.known_failures = sum(g.edges == ((0, "l1bar", 1),)
                                  for g in self.sources)

    def expect(self, dl):
        pass  # each suite is its own oracle: the check is its verdict

    def setup(self, modules) -> list[Op]:
        dl, suites = modules["dycklab"], modules["suites"]
        budget = dl.EnumerationBudget(40, 300, max_expansions=20_000)
        budget7 = dl.EnumerationBudget(36, 120, max_expansions=20_000)
        reds = [dl.compile_dyck2_to_undirected(dl.parse_graph(g.text()))
                for g in self.sources]
        max_len = self.lemma5_max_len
        ops = [self._op("lemma5", lambda: suites.suite_lemma5(max_len=max_len))]
        for i, red in enumerate(reds):
            ops += [
                self._op(f"lemma4/{i}", lambda red=red: suites.suite_lemma4(red, budget)),
                self._op(f"lemma6/{i}", lambda red=red: suites.suite_lemma6(red, budget)),
                self._op(f"lemma7/{i}", lambda red=red: suites.suite_lemma7(
                    red, budget7, varpi_max_len=4, sample_cap=12, seed=0)),
            ]
        return ops

    @staticmethod
    def _op(label: str, call) -> Op:
        def run():
            result = call()
            if result.checked == 0:
                raise VacuousPass(f"{result.name} checked nothing")
            return result
        return Op(label, run, LemmasWorkload._check,
                  lambda result: result.checked, LemmasWorkload._flip)

    @staticmethod
    def _check(result) -> list[str]:
        return [f"{result.name}: {f}" for f in result.failures[:3]]

    @staticmethod
    def _flip(result):
        return dataclasses.replace(result, failures=["flipped verdict"])
