"""Command-line entry point.

Subcommands: ``solve``, ``replay``, ``reduce``, ``verify-equiv``, ``word``,
``oracle``, ``suite``.  Reports are plain text by default; ``--kv`` switches
to one ``key=value`` record per line.  Exit code 0 iff every verdict passes.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time

from .graphs import (Alphabet, UpdateOp, decode_text, parse_graph,
                     parse_label_token, parse_number, parse_updates,
                     serialize_graph)
from .oracle import (EnumerationBudget, brute_dyck_reach, enumerate_paths,
                     exhaustive_words)
from .reductions import LANES, compile_reduction, run_equivalence
from .saturate import ENGINES, run_replay
# Nothing here calls solve_dyck: perfbench/test_perfbench.py asserts that
# the benchmark's tracer wraps ``cli.solve_dyck``, and the import goes
# when that check does (ROADMAP item 8).
from .saturate import solve_dyck  # noqa: F401
from .suites import DEFAULT_BUDGET, DEFAULT_SEED, SUITES
from .words import (gamma_exponent, in_q, in_q_init, in_regular, is_dyck,
                    is_near_dyck, mu, reduce_word, theta, zo_str)

# ``--max-len`` bounds, each the largest length that runs in about 15 s
# on a 2-core host (Python 3.11.7).  ``suite lemma5``: 12, 14 and 16 took
# 0.22, 2.2 and 11 s and 21, 50 and 239 MB.  ``suite q-validate``: 8, 9
# and 10 took 0.87, 3.9 and 16 s.  ``oracle reach`` on a 45-vertex,
# 112-edge two-pair graph: 18, 19, 20 and 21 took 2.5, 5.6, 11 and 18 s
# and 32, 44, 67 and 90 MB.
LEMMA5_MAX_LEN = 16
Q_VALIDATE_MAX_LEN = 10
REACH_MAX_LEN = 20
# ``oracle words`` bounds the words it tries (``_words_tried``) instead,
# since their number grows with both ``--pairs`` and ``--max-len``.
# ``--pairs 1 --max-len 21``, 4,194,303 words, took 14.7 s with ``qinit``,
# the slowest predicate, and 12.3 s with ``dyck``; ``--pairs 1000000
# --max-len 1`` took 5.7 s and 245 MB.
WORDS_LIMIT = 4_200_000
# ``oracle words --list`` prints what it finds, which costs more than the
# test, most with long words that every word passes: ``--pairs 1
# --predicate q`` at ``--max-len`` 18 and 19 took 11 and 21 s.
LIST_LIMIT = 1_000_000
# ``oracle reach`` and ``oracle paths`` stop after this many expansions
# (``EnumerationBudget.max_expansions``) and report ``truncated``.  On a
# 60-vertex, 150-edge two-pair graph, a reach at ``--max-len`` 20 that
# stopped there took 9.8 s and 155 MB; a path search with no path cap,
# 0.8-1.9 s.
ORACLE_EXPANSIONS = 3_000_000


def emit(kv: bool, key: str, value, file=None):
    """Print one report line, ``key=value`` under ``--kv`` and ``key:
    value`` otherwise, to ``file`` (default stdout)."""
    if isinstance(value, bool):
        value = "true" if value else "false"
    print(f"{key}={value}" if kv else f"{key}: {value}", file=file)


# ---------------------------------------------------------------------------
# Subcommand handlers

def _read(path: str) -> str:
    """The text of a graph or script file (``graphs.decode_text``)."""
    with open(path, "rb") as fh:
        return decode_text(fh.read())


def cmd_solve(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    [ans] = run_replay(inst, [UpdateOp.query()], args.engine)
    emit("engine", args.engine)
    emit("answer", ans)
    return 0


def cmd_replay(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    script = parse_updates(_read(args.script))
    answers = run_replay(inst, script, args.engine)
    emit("engine", args.engine)
    emit("queries", len(answers))
    for i, ans in enumerate(answers):
        emit(f"answer[{i}]", ans)
    return 0


def cmd_reduce(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    red = compile_reduction(args.kind, inst)
    text = serialize_graph(red.target)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
        emit("output", args.output)
    else:  # stdout holds the target graph alone, so the report goes to stderr
        sys.stdout.write(text)
        emit = functools.partial(emit, file=sys.stderr)
    if args.map:
        with open(args.map, "w") as fh:
            for vid, name in enumerate(red.names):
                fh.write(f"{vid}\t{' '.join(map(str, name))}\n")
        emit("map", args.map)
    emit("kind", args.kind)
    emit("target_vertices", red.target.graph.vertex_count)
    emit("target_edges", len(red.target.graph.edges))
    return 0


def cmd_verify_equiv(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    script = parse_updates(_read(args.script))
    report = run_equivalence(args.kind, inst, script)
    emit("kind", args.kind)
    emit("queries", len(report.answers))
    for i, (a, b) in enumerate(zip(report.answers, report.target_answers)):
        emit(f"answer[{i}]", a)
        emit(f"target_answer[{i}]", b)
    if report.counts:
        emit("translated_counts", ",".join(map(str, report.counts)))
    for f in report.failures:
        emit("failure", f)
    ok = report.ok and bool(report.answers)
    if not report.answers:
        emit("failure", "checked nothing")
    emit("verdict", "pass" if ok else "FAIL")
    return 0 if ok else 1


def _parse_word(tokens: list[str]):
    return tuple(parse_label_token(t) for t in tokens)


# ``dycklab word`` operations that print one value of the word under their
# own name; ``oracle words --predicate`` filters on the same table
WORD_VALUES = {"dyck": is_dyck, "neardyck": is_near_dyck, "q": in_q,
               "qinit": in_q_init, "mu": mu}
WORD_OPS = ("reduce", *WORD_VALUES, "theta", "regular")


def cmd_word(args, emit) -> int:
    what, tokens = args.what, args.tokens
    if what == "regular":  # the language name comes first
        which = tokens[0] if tokens else ""  # no name: in_regular lists them
        emit(which, in_regular(_parse_word(tokens[1:]), which))
        return 0
    w = _parse_word(tokens)
    if what == "reduce":
        r = reduce_word(w)
        try:
            text = zo_str(r)
        except KeyError:  # labels outside the two-pair 0/1 alphabet
            text = " ".join(lab.token() for lab in r)
        emit("reduced", text or "eps")
    elif what == "theta":
        e = theta(w)
        emit("theta", " ".join(e) or "identity")
        k = gamma_exponent(e)
        emit("gamma_exponent", "none" if k is None else k)
    else:
        emit(what, WORD_VALUES[what](w))
    return 0


def cmd_oracle_reach(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    budget = EnumerationBudget(args.max_len, max_expansions=ORACLE_EXPANSIONS)
    pairs, truncated = brute_dyck_reach(inst, budget)
    emit("pairs", len(pairs))
    emit("truncated", truncated)
    for u, v in sorted(pairs):
        emit("pair", f"{u},{v}")
    return 0


def cmd_oracle_paths(args, emit) -> int:
    inst = parse_graph(_read(args.graph))
    budget = EnumerationBudget(args.max_len, args.max_paths,
                               ORACLE_EXPANSIONS)
    enum = enumerate_paths(inst, args.source, args.sink, budget,
                           balanced=args.balanced)
    emit("paths", len(enum.paths))
    emit("truncated", enum.truncated)
    for i, path in enumerate(enum.paths):
        emit(f"path[{i}]", " ".join(lab.token() for _, lab, _ in path) or "eps")
    return 0


def _words_tried(pairs: int, max_len: int, limit: int) -> int:
    """How many words ``oracle words`` tries over ``pairs`` bracket pairs:
    every word of length at most ``max_len``, and at least every
    one-letter word, since it builds each letter.  Counted only until the
    count passes ``limit``."""
    count, power = 0, 1
    for _ in range(max(max_len, 1) + 1):
        count += power
        if count > limit:
            break
        power *= 2 * pairs
    return count


def cmd_oracle_words(args, emit) -> int:
    limit, what = ((LIST_LIMIT, "oracle words --list") if args.list
                   else (WORDS_LIMIT, "oracle words"))
    if _words_tried(args.pairs, args.max_len, limit) > limit:
        raise ValueError(f"--pairs {args.pairs} --max-len {args.max_len} "
                         f"tries more words than {what}'s limit of {limit}")
    labels = tuple(Alphabet("dyck", args.pairs).labels())
    predicate = WORD_VALUES[args.predicate]
    # a listing counts its words first, then walks them again to print
    # them, so it holds none of them
    emit("words", sum(1 for _ in exhaustive_words(labels, args.max_len,
                                                   predicate)))
    if args.list:
        for w in exhaustive_words(labels, args.max_len, predicate):
            emit("word", " ".join(lab.token() for lab in w) or "eps")
    return 0


def cmd_suite(args, emit) -> int:
    options = vars(args)  # a suite's sub-parser holds only what it reads
    kwargs = {key: options[key] for key in ("max_len", "samples", "seed")
              if key in options}
    if "budget" in options:
        kwargs["budget"] = EnumerationBudget(args.budget, args.max_paths)
    start = time.perf_counter()
    result = SUITES[args.name](**kwargs)
    elapsed = time.perf_counter() - start
    emit("suite", result.name)
    emit("checked", result.checked)
    for key, value in sorted(result.info.items()):
        emit(key, value)
    for f in result.failures[:20]:
        emit("counterexample", f)
    ok = result.ok and result.checked > 0
    if not result.checked:
        emit("failure", "checked nothing")
    emit("elapsed_s", f"{elapsed:.2f}")
    emit("verdict", "pass" if ok else "FAIL")
    return 0 if ok else 1


# ---------------------------------------------------------------------------

def _limit(text: str) -> int:
    """A vertex id, length, budget or count: a non-negative integer, spelled
    as in the file formats."""
    try:
        return parse_number(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _at_most(limit: int, what: str):
    """The argument type of a ``_limit`` bounded by ``limit``: a larger
    value is a usage error naming ``what``'s limit."""
    def parse(text: str) -> int:
        if (n := _limit(text)) > limit:
            raise argparse.ArgumentTypeError(
                f"{n} is above {what}'s limit of {limit}")
        return n
    return parse


class _Parser(argparse.ArgumentParser):
    """An ``ArgumentParser`` that reports arguments it does not know with
    its own usage line.  A plain sub-parser hands them up to the root
    parser, whose usage names no command; ``add_subparsers`` makes every
    sub-parser of this class too."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``dycklab`` parser, built on the first call and shared by every
    later one in the process (``parse_args`` leaves it unchanged and fills a
    fresh namespace each time).  It captures the ``cmd_*`` handlers and the
    ``ENGINES``, ``LANES``, ``SUITES`` and ``WORD_OPS`` choices as they are
    when it is built."""
    p = _Parser(
        prog="dycklab",
        description="Bracket-reachability solvers, gadget compilers and "
                    "word-combinatorics suites over labeled graphs.")
    p.add_argument("--kv", action="store_true",
                   help="machine-readable key=value output")
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
    op.add_argument("--max-len", type=_at_most(REACH_MAX_LEN, "oracle reach"),
                    default=12, help=f"at most {REACH_MAX_LEN}")
    op.set_defaults(func=cmd_oracle_reach)
    op = osub.add_parser("paths")
    op.add_argument("graph")
    op.add_argument("source", type=_limit)
    op.add_argument("sink", type=_limit)
    op.add_argument("--max-len", type=_limit, default=8)
    op.add_argument("--max-paths", type=_limit, default=1000)
    op.add_argument("--balanced", action="store_true",
                    help="keep balanced-label walks only")
    op.set_defaults(func=cmd_oracle_paths)
    op = osub.add_parser("words")
    op.add_argument("--pairs", type=_limit, default=2)
    op.add_argument("--max-len", type=_limit, default=6)
    op.add_argument("--predicate", choices=WORD_VALUES, default="dyck")
    op.add_argument("--list", action="store_true")
    op.set_defaults(func=cmd_oracle_words)

    sp = sub.add_parser("suite", help="bounded verification suites")
    sp.set_defaults(func=cmd_suite)
    ssub = sp.add_subparsers(dest="name", required=True)
    suite = {name: ssub.add_parser(name) for name in sorted(SUITES)}
    for name, limit, what in (("q-validate", Q_VALIDATE_MAX_LEN, "q-validate"),
                              ("lemma5", LEMMA5_MAX_LEN, "lemma 5")):
        suite[name].add_argument("--max-len", type=_at_most(limit, what),
                                 default=8, help=f"at most {limit}")
    for name in ("lemma4", "lemma6", "lemma7"):
        suite[name].add_argument("--budget", type=_limit,
                                 default=DEFAULT_BUDGET.max_path_length)
        suite[name].add_argument("--max-paths", type=_limit,
                                 default=DEFAULT_BUDGET.max_paths)
    suite["prop1"].add_argument("--samples", type=_limit, default=300)
    for name in ("lemma7", "prop1"):
        suite[name].add_argument("--seed", type=int, default=DEFAULT_SEED,
                                 help="seed for the random samples")

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, functools.partial(emit, args.kv))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
