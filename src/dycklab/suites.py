"""Bounded mechanical verification suites.

Each suite checks one family of word- or path-level facts on desk-scale
instances and returns a :class:`SuiteResult`; the CLI prints them, the
test suite asserts them.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field

from . import automata, words
from .graphs import Alphabet, Instance, Label, LabeledGraph
from .one_letter import prop1_check
from .oracle import (EnumerationBudget, enumerate_nominal_paths,
                     enumerate_paths, exhaustive_words, factor_of_dyck_oracle)
from .reductions import CompiledReduction, compile_dyck2_to_undirected
from .saturate import solve_dyck
from .words import (ZO_ALPHABET, in_q, in_q_init, is_dyck_prefix,
                    join_reduced, mu, nominal_decompose, reduce_word,
                    reduced_in_q, reduced_in_q_init, reduced_language_nfa,
                    regular_nfa)


@dataclass
class SuiteResult:
    name: str
    checked: int = 0
    failures: list[str] = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def check(self, condition: bool, template: str, *args):
        """Count one check; if it failed, record ``template`` filled in
        with ``args``.  The text is built only then, since most checks
        pass."""
        self.checked += 1
        if not condition:
            self.failures.append(template.format(*map(_shown, args)))


def _shown(arg):
    """A message argument as a failure shows it: a word (a tuple of
    labels) in 0/1 notation, a set in sorted order, anything else as is."""
    if type(arg) is tuple:
        return words.zo_str(arg)
    if type(arg) is frozenset:
        return sorted(arg)
    return arg


# The suites' default walk budget and sampling seed, which are also the
# defaults of the CLI's options.
DEFAULT_BUDGET = EnumerationBudget(40, 500)
DEFAULT_SEED = 20240 | 1


# ---------------------------------------------------------------------------

def suite_q_validate(max_len: int = 8) -> SuiteResult:
    """The reduced-shape characterizations of the factor and prefix
    languages against independent oracles, for every word up to max_len."""
    res = SuiteResult("q-validate")
    for w in exhaustive_words(ZO_ALPHABET, max_len, lambda w: True):
        res.check(in_q_init(w) == is_dyck_prefix(w),
                  "prefix-language mismatch on {}", w)
        res.check(in_q(w) == factor_of_dyck_oracle(w),
                  "factor-language mismatch on {}", w)
    return res


def suite_lemma5(max_len: int = 8) -> SuiteResult:
    """If 1.0.rho stays a factor word for rho in varpi, its reduction is in
    1.0.varpi+; dually for rho.0bar.1bar and varpi-.

    Both claims read only rho's normal form, so each is decided once per
    call.  A depth-first walk over the varpi DFA in ``ZO_ALPHABET`` order,
    to depth ``max_len``, keeps on one explicit stack each word's DFA state,
    normal form as signed letters (+k opens pair k, -k closes it), link to
    its prefix and length; a word is spelled out only when it fails a claim.
    Failures are sorted stably by word length, so they come shortest first
    and in label order within one.
    """
    res = SuiteResult("lemma5")
    head, tail = (words.ONE, words.ZERO), (words.ZERO_BAR, words.ONE_BAR)
    plus, minus, varpi = map(regular_nfa, ("varpi+", "varpi-", "varpi"))
    final = varpi.final
    signed = {lab: -lab.index if lab.bar else lab.index for lab in ZO_ALPHABET}
    letter = {c: lab for lab, c in signed.items()}
    # per DFA state, its live moves (label, signed letter, next state),
    # reversed so that the stack pops them in ``ZO_ALPHABET`` order
    live = [[(lab, signed[lab], nxt) for lab in reversed(ZO_ALPHABET)
             if (nxt := out.get(lab, 0))] for out in varpi.moves]
    # a word of length max_len is checked only if accepted and never
    # extended, so the last depth pushes only the moves into final states
    last = [[move for move in moves if final[move[2]]] for moves in live]
    # per normal form met, the messages of the claims it fails
    verdicts: dict[tuple[int, ...], list[str]] = {}
    found: list[tuple[int, str]] = []
    stack = [(varpi.start, (), None, 0)] if max_len >= 0 else []
    while stack:
        state, form, link, n = stack.pop()
        if final[state]:
            res.checked += 2
            verdict = verdicts.get(form)
            if verdict is None:
                r0 = tuple([letter[c] for c in form])
                r = join_reduced(head, r0)
                verdicts[form] = verdict = []
                if reduced_in_q(r) and not (r[:2] == head and plus.accepts(r[2:])):
                    verdict.append("reduction of 1 0 {} leaves 1 0 varpi+")
                r = join_reduced(r0, tail)
                if reduced_in_q(r) and not (r[-2:] == tail and minus.accepts(r[:-2])):
                    verdict.append("reduction of {} 0bar 1bar leaves varpi- 0bar 1bar")
            if verdict:
                rho, at = [], link
                while at:
                    at, lab = at
                    rho.append(lab)
                shown = words.zo_str(rho[::-1])
                found += [(n, message.format(shown)) for message in verdict]
        if n < max_len:
            for lab, c, nxt in (live if n + 1 < max_len else last)[state]:
                stack.append((nxt, form[:-1] if c < 0 and form and form[-1] == -c
                              else form + (c,), (link, lab), n + 1))
    res.failures = [message for _, message in sorted(found, key=lambda f: f[0])]
    return res


# languages of reduced chain-traversal labels, per source-edge label; a
# token is a name in ``words.REGULAR_EXPRS`` or one letter
_LEMMA6_TOKENS = {
    Label("l", 1, False): "varpi 1 1 0 0 omega+ 1 0",
    Label("l", 2, False): "varpi 1 omega+ 0 0 1 1 omega+ 0",
    Label("l", 1, True): "0bar 1bar omega- 0bar 0bar 1bar 1bar varpi",
    Label("l", 2, True): "0bar omega- 1bar 1bar 0bar 0bar omega- 1bar varpi",
}


@functools.cache
def lemma6_nfa(lab: Label) -> automata.Nfa:
    exprs = words.REGULAR_EXPRS
    return automata.compile_regex(automata.cat(*[
        exprs[tok] if tok in exprs else automata.lit(words.word(tok)[0])
        for tok in _LEMMA6_TOKENS[lab].split()]))


def default_gadget_source() -> Instance:
    """A 2-vertex directed two-pair instance carrying all four edge labels,
    so every chain shape occurs in its compiled gadget."""
    alph = Alphabet("dyck", 2)
    edges = [(0, Label("l", 1, False), 1), (1, Label("l", 1, True), 0),
             (0, Label("l", 2, False), 1), (1, Label("l", 2, True), 0)]
    return Instance(LabeledGraph.build(True, 2, alph, edges), 0, 0)


def suite_lemma6(red: CompiledReduction | None = None,
                 budget: EnumerationBudget = DEFAULT_BUDGET) -> SuiteResult:
    """Reduced labels of enumerated nominal paths lie in the per-tag
    languages: stutter loops in varpi, chain traversals in the four
    composite languages."""
    res = SuiteResult("lemma6")
    if red is None:
        red = compile_dyck2_to_undirected(default_gadget_source())
    source = red.source
    varpi = regular_nfa("varpi")
    for x in range(source.graph.vertex_count):
        labels, _trunc = enumerate_nominal_paths(red, ("loop", x), budget)
        for w in labels:
            res.check(varpi.accepts(reduce_word(w)),
                      "loop at {}: reduction of {} not in varpi", x, w)
    for x, lab, y in sorted(source.graph.edges):
        labels, _trunc = enumerate_nominal_paths(red, ("edge", x, lab, y), budget)
        nfa, token = lemma6_nfa(lab), lab.token()
        for w in labels:
            res.check(nfa.accepts(reduce_word(w)),
                      "chain ({},{},{}): reduction of {} outside its "
                      "language", x, token, y, w)
    return res


def suite_lemma7(red: CompiledReduction | None = None,
                 budget: EnumerationBudget = DEFAULT_BUDGET,
                 varpi_max_len: int = 6,
                 sample_cap: int = 40,
                 seed: int = DEFAULT_SEED) -> SuiteResult:
    """Consecution discipline of chain labels: a matched open/close pair
    around a varpi word reduces to the reduction of some varpi word; a
    mismatched pair never stays a factor word; closing chains cannot start
    a balanced prefix.

    The matched-pair clause is checked against the reduction closure of
    varpi, not against varpi itself: literal membership is false (a chain
    label may backtrack between its locks, and the cross-junction
    cancellation then strands closing letters outside the block shape of
    varpi), and only the closure reading is consistent with chaining
    facts like "reduces into 1.0.0bar.1bar, hence into the empty word".
    The count of words passing only under the closure reading is reported
    in ``strict_misses``.
    """
    res = SuiteResult("lemma7")
    if red is None:
        red = compile_dyck2_to_undirected(default_gadget_source())
    rng = random.Random(seed)
    source = red.source
    varpi = regular_nfa("varpi")
    varpi_red = reduced_language_nfa("varpi")
    res.info["strict_misses"] = 0

    by_label: dict[Label, list[tuple[Label, ...]]] = {}
    for x, lab, y in sorted(source.graph.edges):
        labels, _ = enumerate_nominal_paths(red, ("edge", x, lab, y), budget)
        pool = by_label.setdefault(lab, [])
        pool.extend(labels)
    for lab, pool in by_label.items():
        if len(pool) > sample_cap:
            by_label[lab] = rng.sample(pool, sample_cap)

    rhos = list(automata.enumerate_accepted(varpi, ZO_ALPHABET,
                                            varpi_max_len))
    if len(rhos) > sample_cap:
        rhos = rng.sample(rhos, sample_cap)

    # Reduction is a monoid congruence with unique normal forms, so each
    # factor is reduced once; a combination then costs only the
    # cancellations at its two junctions.
    reduced_by_label = {lab: [reduce_word(w) for w in pool]
                        for lab, pool in by_label.items()}
    reduced_rhos = [reduce_word(rho) for rho in rhos]

    def joined(open_k: int, close_k: int):
        """Normal forms of r1 + rho + r3, looping over r1, r3, rho."""
        closing = reduced_by_label.get(Label("l", close_k, True))
        if not closing:
            return
        for r1 in reduced_by_label.get(Label("l", open_k, False), ()):
            heads = [join_reduced(r1, rr) for rr in reduced_rhos]
            for r3 in closing:
                for h in heads:
                    yield join_reduced(h, r3)

    for k in (1, 2):
        for r in joined(k, k):
            if reduced_in_q(r):
                res.check(varpi_red.accepts(r),
                          "matched pair {}: reduction of a factor word "
                          "escapes even the closure of varpi: {}", k, r)
                if not varpi.accepts(r):
                    res.info["strict_misses"] += 1
            else:
                res.checked += 1
    for k, other in ((1, 2), (2, 1)):
        for r in joined(k, other):
            res.check(not reduced_in_q(r),
                      "mismatched pair {}/{}: factor word survived", k, other)
    for k in (1, 2):
        for r3 in reduced_by_label.get(Label("l", k, True), ()):
            for rr in reduced_rhos:
                res.check(not reduced_in_q_init(join_reduced(rr, r3)),
                          "closing chain {} started a balanced prefix", k)
    return res


def suite_lemma4(red: CompiledReduction | None = None,
                 budget: EnumerationBudget = DEFAULT_BUDGET) -> SuiteResult:
    """Every enumerated balanced path between the marked vertices of an
    undirected-gadget target has an ancestor with zero bracket balance."""
    res = SuiteResult("lemma4")
    if red is None:
        red = compile_dyck2_to_undirected(default_gadget_source())
    inst = red.target
    enum = enumerate_paths(inst, inst.source, inst.sink, budget, balanced=True)
    for path in enum.paths:
        if not path:
            continue
        decomp = nominal_decompose(path, red)
        balance = mu([lab for _, lab, _ in decomp.ancestor])
        res.check(balance == 0, "ancestor balance {} != 0 for a path of "
                  "length {}", balance, len(path))
    if not enum.paths:
        res.checked += 1  # vacuous but recorded
    return res


def random_undirected_one_pair(rng: random.Random, max_vertices: int = 6) -> Instance:
    n = rng.randint(1, max_vertices)
    alph = Alphabet("dyck", 1)
    edges = []
    for u in range(n):
        for v in range(u, n):
            for lab in (Label("l", 1, False), Label("l", 1, True)):
                if rng.random() < 0.3:
                    edges.append((u, lab, v))
    graph = LabeledGraph.build(False, n, alph, edges)
    return Instance(graph, rng.randrange(n), rng.randrange(n))


def suite_prop1(samples: int = 300, seed: int = DEFAULT_SEED) -> SuiteResult:
    """The three-condition characterization against the saturation solver
    on random undirected one-pair instances."""
    res = SuiteResult("prop1")
    rng = random.Random(seed)
    for _ in range(samples):
        inst = random_undirected_one_pair(rng)
        fast = prop1_check(inst)
        slow = solve_dyck(inst).query(inst.source, inst.sink)
        res.check(fast == slow, "mismatch on {}->{} with edges {}",
                  inst.source, inst.sink, inst.graph.edges)
    return res


SUITES = {
    "q-validate": suite_q_validate,
    "lemma4": suite_lemma4,
    "lemma5": suite_lemma5,
    "lemma6": suite_lemma6,
    "lemma7": suite_lemma7,
    "prop1": suite_prop1,
}
