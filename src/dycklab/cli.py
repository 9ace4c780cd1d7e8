"""Command-line entry point.

Subcommands: ``solve``, ``replay``, ``reduce``, ``verify-equiv``, ``word``,
``oracle``, ``suite``.  Reports are plain text by default; ``--kv`` switches
to one ``key=value`` record per line.  Exit code 0 iff every verdict passes.
"""

from __future__ import annotations

import argparse
import sys
import time

from .alternating import solve_alternating
from .graphs import (Instance, UpdateOp, apply_update, parse_graph,
                     parse_label_token, parse_number, parse_updates,
                     serialize_graph)
from .one_letter import ParityIndex
from .oracle import (EnumerationBudget, brute_dyck_reach, enumerate_paths,
                     exhaustive_words)
from .reductions import compile_reduction
from .saturate import (GrammarIndex, bracket_grammar, solve_dyck,
                       wrap_only_grammar)
from .suites import SUITES
from .words import (gamma_exponent, in_q, in_q_init, in_regular, is_dyck,
                    is_near_dyck, mu, reduce_word, theta, zo_str)

DEFAULT_SEED = 20240 | 1  # fixed default for all randomized subcommands

# reduction kind -> (engine answering the source, allowed translated-op
# counts per source update)
LANES = {
    "alt_to_neardyck": ("alt", {1, 2}),
    "neardyck_to_dyck2": ("cfl", {1}),
    "dyck2_to_undirected": ("dyck", {12}),
}


class Reporter:
    def __init__(self, kv: bool):
        self.kv = kv

    def emit(self, key: str, value):
        if isinstance(value, bool):
            value = "true" if value else "false"
        if self.kv:
            print(f"{key}={value}")
        else:
            print(f"{key}: {value}")


class RunReport:
    """A replay's per-query answers.  An equivalence run adds the
    target's answers, the per-update translated-op counts and its
    failures."""

    __slots__ = ("answers", "target_answers", "counts", "failures")

    def __init__(self):
        self.answers: list[bool] = []
        self.target_answers: list[bool] = []
        self.counts: list[int] = []
        self.failures: list[str] = []

    @property
    def ok(self) -> bool:
        return not self.failures


# ---------------------------------------------------------------------------
# Engines

ENGINES = ("dyck", "wrap-only", "cfl", "prop1")


def maintained_index(inst: Instance, engine: str):
    """The index ``engine`` keeps through a script, owning ``inst``, or
    None for ``alt``, which answers from scratch: alternating reachability
    is not monotone in the edges.  Any other name raises ``ValueError``.
    ``cfl`` and ``wrap-only`` keep a grammar index, which shares no code
    with ``dyck``'s.  The solvers are looked up in this module at each
    call, not in a table built at import, so a wrapper patched onto
    ``cli.solve_dyck`` is the one that runs."""
    if engine == "dyck":
        return solve_dyck(inst)
    if engine == "prop1":
        return ParityIndex(inst)
    if engine == "cfl":
        return GrammarIndex(inst, bracket_grammar(inst.graph.alphabet))
    if engine == "wrap-only":
        return GrammarIndex(inst, wrap_only_grammar(inst.graph.alphabet))
    if engine == "alt":
        return None
    raise ValueError(f"unknown engine {engine!r}")


def run_replay(inst: Instance, script: list[UpdateOp],
               engine: str = "dyck") -> RunReport:
    """Apply a script, answering every query with the chosen engine.  An
    engine with an index keeps one through the script; ``alt`` re-answers
    from scratch.  An unknown engine, or an instance the engine rejects,
    fails before any update."""
    report = RunReport()
    index = maintained_index(inst, engine)
    for op in script:
        if op.op == "query":
            report.answers.append(solve_alternating(inst)[0] if index is None
                                  else index.query(inst.source, inst.sink))
        elif index is None:
            inst = apply_update(inst, op)
        else:
            index.apply(op)
    return report


def run_equivalence(kind: str, inst: Instance,
                    script: list[UpdateOp]) -> RunReport:
    """Compile, replay, translate, replay, compare.  The source replay
    (answered by the lane's engine) applies, and so validates, every update
    before any is translated; the target replay keeps one bracket index,
    whichever alphabet it has.  Records both answer streams, the
    per-update translated-op counts, and any divergence by script step."""
    red = compile_reduction(kind, inst)
    source_engine, bounds = LANES[kind]
    report = run_replay(inst, script, source_engine)
    translated: list[UpdateOp] = []
    query_steps = []
    for step, op in enumerate(script):
        if op.op == "query":
            translated.append(op)
            query_steps.append(step)
            continue
        try:
            ops = red.translate(op)
        except ValueError as exc:
            raise ValueError(f"{exc}{op.where()}") from None
        report.counts.append(len(ops))
        if len(ops) not in bounds:
            report.failures.append(
                f"step {step}: translated into {len(ops)} ops, "
                f"expected {sorted(bounds)}")
        translated.extend(ops)
    report.target_answers = run_replay(red.target, translated).answers
    for step, src_ans, tgt_ans in zip(query_steps, report.answers,
                                      report.target_answers):
        if src_ans != tgt_ans:
            report.failures.append(
                f"step {step}: source={src_ans} target={tgt_ans}")
    return report


# ---------------------------------------------------------------------------
# Subcommand handlers

def _load_graph(path: str) -> Instance:
    with open(path) as fh:
        return parse_graph(fh.read())


def _load_script(path: str) -> list[UpdateOp]:
    with open(path) as fh:
        return parse_updates(fh.read())


def cmd_solve(args, rep: Reporter) -> int:
    inst = _load_graph(args.graph)
    [ans] = run_replay(inst, [UpdateOp.query()], args.engine).answers
    rep.emit("engine", args.engine)
    rep.emit("answer", ans)
    return 0


def cmd_replay(args, rep: Reporter) -> int:
    inst = _load_graph(args.graph)
    script = _load_script(args.script)
    report = run_replay(inst, script, args.engine)
    rep.emit("engine", args.engine)
    rep.emit("queries", len(report.answers))
    for i, ans in enumerate(report.answers):
        rep.emit(f"answer[{i}]", ans)
    return 0


def cmd_reduce(args, rep: Reporter) -> int:
    inst = _load_graph(args.graph)
    red = compile_reduction(args.kind, inst)
    text = serialize_graph(red.target)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        rep.emit("output", args.output)
    else:
        sys.stdout.write(text)
    if args.map:
        with open(args.map, "w") as fh:
            for vid, name in enumerate(red.names):
                fh.write(f"{vid}\t{' '.join(map(str, name))}\n")
        rep.emit("map", args.map)
    rep.emit("kind", args.kind)
    rep.emit("target_vertices", red.target.graph.vertex_count)
    rep.emit("target_edges", len(red.target.graph.edges))
    return 0


def cmd_verify_equiv(args, rep: Reporter) -> int:
    inst = _load_graph(args.graph)
    script = _load_script(args.script)
    report = run_equivalence(args.kind, inst, script)
    rep.emit("kind", args.kind)
    rep.emit("queries", len(report.answers))
    for i, (a, b) in enumerate(zip(report.answers, report.target_answers)):
        rep.emit(f"answer[{i}]", a)
        rep.emit(f"target_answer[{i}]", b)
    if report.counts:
        rep.emit("translated_counts", ",".join(map(str, report.counts)))
    for f in report.failures:
        rep.emit("failure", f)
    ok = report.ok and bool(report.answers)
    if not report.answers:
        rep.emit("failure", "checked nothing")
    rep.emit("verdict", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _parse_word(tokens: list[str]):
    return tuple(parse_label_token(t) for t in tokens)


# ``dycklab word`` operations that print one value of the word under their
# own name; ``oracle words --predicate`` filters on the same table
WORD_VALUES = {"dyck": is_dyck, "neardyck": is_near_dyck, "q": in_q,
               "qinit": in_q_init, "mu": mu}
WORD_OPS = ("reduce", *WORD_VALUES, "theta", "regular")


def cmd_word(args, rep: Reporter) -> int:
    what, tokens = args.what, args.tokens
    if what == "regular":  # the language name comes first
        which = tokens[0] if tokens else ""  # no name: in_regular lists them
        rep.emit(which, in_regular(_parse_word(tokens[1:]), which))
        return 0
    w = _parse_word(tokens)
    if what == "reduce":
        r = reduce_word(w)
        try:
            text = zo_str(r)
        except KeyError:  # labels outside the two-pair 0/1 alphabet
            text = " ".join(lab.token() for lab in r)
        rep.emit("reduced", text or "eps")
    elif what == "theta":
        e = theta(w)
        rep.emit("theta", " ".join(e) or "identity")
        k = gamma_exponent(e)
        rep.emit("gamma_exponent", "none" if k is None else k)
    else:
        rep.emit(what, WORD_VALUES[what](w))
    return 0


def cmd_oracle(args, rep: Reporter) -> int:
    if args.what == "reach":
        inst = _load_graph(args.graph)
        pairs = brute_dyck_reach(inst, EnumerationBudget(args.max_len))
        rep.emit("pairs", len(pairs))
        for u, v in sorted(pairs):
            rep.emit("pair", f"{u},{v}")
        return 0
    if args.what == "paths":
        inst = _load_graph(args.graph)
        budget = EnumerationBudget(args.max_len, args.max_paths)
        enum = enumerate_paths(inst, args.source, args.sink, budget,
                               balanced=args.balanced)
        rep.emit("paths", len(enum.paths))
        rep.emit("truncated", enum.truncated)
        for i, path in enumerate(enum.paths):
            rep.emit(f"path[{i}]", " ".join(lab.token() for _, lab, _ in path) or "eps")
        return 0
    if args.what == "words":
        from .graphs import Alphabet
        labels = tuple(Alphabet("dyck", args.pairs).labels())
        out = list(exhaustive_words(labels, args.max_len,
                                    WORD_VALUES[args.predicate]))
        rep.emit("words", len(out))
        if args.list:
            for w in out:
                rep.emit("word", " ".join(lab.token() for lab in w) or "eps")
        return 0
    raise ValueError(args.what)


def cmd_suite(args, rep: Reporter) -> int:
    kwargs = {}
    if args.name in ("q-validate", "lemma5"):
        kwargs["max_len"] = args.max_len
    if args.name in ("lemma4", "lemma6", "lemma7"):
        kwargs["budget"] = EnumerationBudget(args.budget, args.max_paths)
    if args.name == "lemma7":
        kwargs["seed"] = args.seed
    if args.name == "prop1":
        kwargs["samples"] = args.samples
        kwargs["seed"] = args.seed
    start = time.perf_counter()
    result = SUITES[args.name](**kwargs)
    elapsed = time.perf_counter() - start
    rep.emit("suite", result.name)
    rep.emit("checked", result.checked)
    for key, value in sorted(result.info.items()):
        rep.emit(key, value)
    for f in result.failures[:20]:
        rep.emit("counterexample", f)
    ok = result.ok and result.checked > 0
    if not result.checked:
        rep.emit("failure", "checked nothing")
    rep.emit("elapsed_s", f"{elapsed:.2f}")
    rep.emit("verdict", "pass" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _limit(text: str) -> int:
    """A vertex id, length, budget or count: a non-negative integer, spelled
    as in the file formats."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dycklab",
        description="Bracket-reachability solvers, gadget compilers and "
                    "word-combinatorics suites over labeled graphs.")
    p.add_argument("--kv", action="store_true",
                   help="machine-readable key=value output")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed for randomized subcommands")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("solve", help="answer the marked reachability query")
    sp.add_argument("graph")
    sp.add_argument("--engine", choices=ENGINES, default="dyck")
    sp.set_defaults(func=cmd_solve)

    sp = sub.add_parser("replay", help="apply an update script, answering queries")
    sp.add_argument("graph")
    sp.add_argument("script")
    sp.add_argument("--engine", choices=ENGINES, default="dyck")
    sp.set_defaults(func=cmd_replay)

    sp = sub.add_parser("reduce", help="compile a gadget reduction")
    sp.add_argument("kind", choices=LANES)
    sp.add_argument("graph")
    sp.add_argument("-o", "--output", help="write the target graph here")
    sp.add_argument("--map", help="write the id -> structured-name table here")
    sp.set_defaults(func=cmd_reduce)

    sp = sub.add_parser("verify-equiv",
                        help="run a script on source and compiled target side by side")
    sp.add_argument("kind", choices=LANES)
    sp.add_argument("graph")
    sp.add_argument("script")
    sp.set_defaults(func=cmd_verify_equiv)

    sp = sub.add_parser("word", help="word-level predicates and maps")
    sp.add_argument("what", choices=WORD_OPS)
    sp.add_argument("tokens", nargs="*",
                    help="label tokens; for regular, the language name first")
    sp.set_defaults(func=cmd_word)

    sp = sub.add_parser("oracle", help="brute-force reference computations")
    osub = sp.add_subparsers(dest="what", required=True)
    op = osub.add_parser("reach")
    op.add_argument("graph")
    op.add_argument("--max-len", type=_limit, default=12)
    op.set_defaults(func=cmd_oracle)
    op = osub.add_parser("paths")
    op.add_argument("graph")
    op.add_argument("source", type=_limit)
    op.add_argument("sink", type=_limit)
    op.add_argument("--max-len", type=_limit, default=8)
    op.add_argument("--max-paths", type=_limit, default=1000)
    op.add_argument("--balanced", action="store_true",
                    help="keep balanced-label walks only")
    op.set_defaults(func=cmd_oracle)
    op = osub.add_parser("words")
    op.add_argument("--pairs", type=_limit, default=2)
    op.add_argument("--max-len", type=_limit, default=6)
    op.add_argument("--predicate", choices=WORD_VALUES, default="dyck")
    op.add_argument("--list", action="store_true")
    op.set_defaults(func=cmd_oracle)

    sp = sub.add_parser("suite", help="bounded verification suites")
    sp.add_argument("name", choices=sorted(SUITES))
    sp.add_argument("--max-len", type=_limit, default=8)
    sp.add_argument("--budget", type=_limit, default=40)
    sp.add_argument("--max-paths", type=_limit, default=500)
    sp.add_argument("--samples", type=_limit, default=300)
    sp.set_defaults(func=cmd_suite)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    rep = Reporter(args.kv)
    try:
        return args.func(args, rep)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
