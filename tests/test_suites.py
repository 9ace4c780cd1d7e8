"""The bounded verification suites, plus the pinned witness that the
matched-pair consecution fact needs the reduction-closure reading."""

import itertools
import sys
import time
import types

import pytest

import dycklab
from dycklab import (Alphabet, EnumerationBudget, Instance, Label,
                     LabeledGraph, PHI_UNDIRECTED, in_q, reduce_word,
                     reduced_language_nfa)
from dycklab.oracle import enumerate_nominal_paths
from dycklab import automata, suites, words
from dycklab.suites import (SUITES, default_gadget_source, suite_lemma4,
                            suite_lemma5, suite_lemma6, suite_lemma7,
                            suite_prop1, suite_q_validate)
from dycklab.reductions import compile_dyck2_to_undirected
from dycklab.words import regular_nfa

from util import (fig2_source, reference_suite_lemma5,
                  reference_suite_lemma7)

L2BAR = Label("l", 2, True)


def test_suite_registry():
    assert set(SUITES) == {"q-validate", "lemma4", "lemma5", "lemma6",
                           "lemma7", "prop1"}


def test_q_validate_short():
    res = suite_q_validate(max_len=5)
    assert res.ok, res.failures
    assert res.checked > 0


def test_lemma5_short():
    res = suite_lemma5(max_len=6)
    assert res.ok, res.failures


def test_lemma4_small_budget():
    res = suite_lemma4(budget=EnumerationBudget(24, 200))
    assert res.ok, res.failures


def test_lemma4_vacuous_on_empty_source():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 2), [])
    red = compile_dyck2_to_undirected(Instance(g, 0, 1))
    res = suite_lemma4(red, EnumerationBudget(12, 50))
    assert res.ok
    assert res.checked >= 1


def test_lemma6_small_budget():
    res = suite_lemma6(budget=EnumerationBudget(24, 300))
    assert res.ok, res.failures


def test_lemma6_self_loop_source():
    # on a self-loop chain a walk can return to its start without touching
    # the second pair; that is a stutter loop, not a chain traversal
    g = LabeledGraph.build(True, 1, Alphabet("dyck", 2),
                           [(0, Label("l", 1, False), 0)])
    red = compile_dyck2_to_undirected(Instance(g, 0, 0))
    labels, _ = enumerate_nominal_paths(
        red, ("edge", 0, Label("l", 1, False), 0), EnumerationBudget(12, 100))
    assert all(any(lab.index == 2 for lab in w) for w in labels)
    res = suite_lemma6(red, EnumerationBudget(24, 300,
                                              max_expansions=20_000))
    assert res.ok, res.failures


def test_lemma6_trivial_on_empty_source():
    g = LabeledGraph.build(True, 2, Alphabet("dyck", 2), [])
    red = compile_dyck2_to_undirected(Instance(g, 0, 1))
    res = suite_lemma6(red, EnumerationBudget(24, 300))
    assert res.ok
    assert res.checked == 0  # no chains, no loops: vacuously true


def test_lemma7_small_budget():
    res = suite_lemma7(budget=EnumerationBudget(26, 120), varpi_max_len=4,
                       sample_cap=16, seed=1)
    assert res.ok, res.failures


@pytest.mark.parametrize("max_len", [0, 4, 7, 10])
def test_lemma5_matches_the_in_q_then_reduce_loop(max_len):
    got = suite_lemma5(max_len=max_len)
    want = reference_suite_lemma5(max_len)
    assert (got.checked, got.failures, got.info) == \
        (want.checked, want.failures, want.info)
    assert got.checked > 0


def test_lemma5_counts_stay_pinned_up_to_length_12():
    """The walk pushes only accepting moves at its last depth; the words it
    checks, and that none fails, stay as the full walk gave them."""
    pinned = [2, 2, 14, 14, 92, 92, 628, 628, 4430, 4430, 31858, 31858,
              231448]
    for max_len, checked in enumerate(pinned):
        got = suite_lemma5(max_len=max_len)
        assert (got.checked, got.failures) == (checked, []), max_len


def test_lemma5_below_length_zero_visits_no_word():
    got, want = suite_lemma5(max_len=-1), reference_suite_lemma5(-1)
    assert (got.checked, got.failures) == (want.checked, want.failures) \
        == (0, [])

def _lemma7_sources():
    """The all-label default source, the worked bracket cycle, and every
    two-edge 2-vertex source with one opening and one closing edge."""
    yield default_gadget_source()
    yield fig2_source()
    opens = [(0, Label("l", k, False), 1) for k in (1, 2)]
    closes = [(1, Label("l", k, True), 0) for k in (1, 2)]
    for edges in itertools.product(opens, closes):
        g = LabeledGraph.build(True, 2, Alphabet("dyck", 2), list(edges))
        yield Instance(g, 0, 0)


@pytest.mark.parametrize("budget, varpi_max_len, sample_cap, seed", [
    (EnumerationBudget(24, 40, max_expansions=3000), 4, 8, 0),
    (EnumerationBudget(16, 60, max_expansions=5000), 6, 12, 5),
    (EnumerationBudget(14, 100), 6, 12, 1),
])
def test_lemma7_matches_the_in_q_then_reduce_loop(budget, varpi_max_len,
                                                  sample_cap, seed):
    """Reducing each factor once gives the counts, counterexamples and
    miss counts of reducing every combined word whole."""
    checked = 0
    for source in _lemma7_sources():
        red = compile_dyck2_to_undirected(source)
        got = suite_lemma7(red, budget, varpi_max_len, sample_cap, seed)
        want = reference_suite_lemma7(red, budget, varpi_max_len,
                                      sample_cap, seed)
        assert (got.checked, got.failures, got.info) == \
            (want.checked, want.failures, want.info)
        checked += got.checked
    assert checked > 0



def _swap_languages(monkeypatch, swap):
    """Patch ``regular_nfa`` where the suite and the reference look it up,
    so that each name in ``swap`` gives the automaton it maps to."""
    def swapped(which):
        return swap.get(which) or regular_nfa(which)

    monkeypatch.setattr(suites, "regular_nfa", swapped)
    monkeypatch.setattr(dycklab, "regular_nfa", swapped)


@pytest.mark.parametrize("swap", [
    {"varpi+": "omega+", "varpi-": "omega-"},
    {"varpi+": "varpi-", "varpi-": "varpi+"},
])
def test_lemma5_reports_the_failures_of_the_reference_loop(monkeypatch, swap):
    """With the target languages swapped for others the claim fails; the
    depth-first walk must report the reference loop's counterexamples in
    the reference's order (shortest first, label order within a
    length)."""
    _swap_languages(monkeypatch, {k: regular_nfa(v) for k, v in swap.items()})
    for max_len in (6, 9):
        got = suite_lemma5(max_len=max_len)
        want = reference_suite_lemma5(max_len)
        assert (got.checked, got.failures, got.info) == \
            (want.checked, want.failures, want.info)
        assert got.failures


def test_lemma5_matches_the_reference_under_every_language_swap(monkeypatch):
    """Targets swapped for every ordered pair of the named languages, then
    the walked language swapped for omega and for varpi+, at every length
    up to 8: counts, counterexamples and their order match the reference
    loop.  The calls run one after another in one process, so a verdict
    kept from a call under other languages would show."""
    names = sorted(words.REGULAR_EXPRS)
    swaps = [{"varpi+": a, "varpi-": b}
             for a, b in itertools.product(names, repeat=2)]
    swaps += [{"varpi": "omega"}, {"varpi": "varpi+"}]
    failing = 0
    for swap in swaps:
        _swap_languages(monkeypatch,
                        {k: regular_nfa(v) for k, v in swap.items()})
        for max_len in range(9):
            got = suite_lemma5(max_len=max_len)
            want = reference_suite_lemma5(max_len)
            assert (got.checked, got.failures, got.info) == \
                (want.checked, want.failures, want.info), (swap, max_len)
        failing += bool(got.failures)
    assert 0 < failing < len(swaps)


def test_lemma5_walks_words_longer_than_the_recursion_limit(monkeypatch):
    """The walk keeps its own stack: with varpi swapped for 0*, it reaches
    words longer than the recursion limit and still matches the
    reference loop."""
    zeros = automata.compile_regex(automata.star(automata.lit(words.ZERO)))
    _swap_languages(monkeypatch, {"varpi": zeros})
    max_len = sys.getrecursionlimit() + 50
    got = suite_lemma5(max_len=max_len)
    want = reference_suite_lemma5(max_len)
    assert (got.checked, got.failures, got.info) == \
        (want.checked, want.failures, want.info)
    assert got.checked == 2 * (max_len + 1)
    assert got.failures


def test_lemma7_reports_the_failures_of_the_reference_loop(monkeypatch):
    """With the closure of varpi swapped for varpi itself, every literal
    miss becomes a counterexample; the junction joins must report the
    reference loop's counterexamples in its order."""
    monkeypatch.setattr(suites, "reduced_language_nfa", regular_nfa)
    monkeypatch.setattr(dycklab, "reduced_language_nfa", regular_nfa)
    budget = EnumerationBudget(16, 60, max_expansions=5000)
    failures = 0
    for source in _lemma7_sources():
        red = compile_dyck2_to_undirected(source)
        got = suite_lemma7(red, budget, 6, 12, 5)
        want = reference_suite_lemma7(red, budget, 6, 12, 5)
        assert (got.checked, got.failures, got.info) == \
            (want.checked, want.failures, want.info)
        failures += len(got.failures)
    assert failures > 0


# ---------------------------------------------------------------------------
# Failure text.  Each test plants a failure and pins the exact messages and
# their order, which a check's template and arguments must reproduce.

def test_lemma6_pins_its_failure_text(monkeypatch):
    """Loops checked against an automaton that rejects reductions of
    length 4, and chains against their partner's language."""
    partner = suites.lemma6_nfa
    rejecting = types.SimpleNamespace(accepts=lambda w: len(w) != 4)
    monkeypatch.setattr(suites, "regular_nfa", lambda which: rejecting)
    monkeypatch.setattr(suites, "lemma6_nfa",
                        lambda lab: partner(lab.matched()))
    res = suite_lemma6(budget=EnumerationBudget(12, 300))
    assert res.checked == 32
    assert res.failures == [
        "loop at 0: reduction of 0 0bar 0bar 0bar 0bar 0 not in varpi",
        "loop at 0: reduction of 0 0bar 0bar 0bar 0bar 0 not in varpi",
        "loop at 0: reduction of 0bar 0 0 0 0 0bar not in varpi",
        "loop at 0: reduction of 0bar 0 0 0 0 0bar not in varpi",
        "chain (0,l1,1): reduction of 0 0bar 1 1 0 0 1 1 1 1 1bar 0 "
        "outside its language",
        "chain (0,l2,1): reduction of 0 0bar 1 0 0 1 1 0 0 1 1bar 0 "
        "outside its language",
        "chain (1,l1bar,0): reduction of 0bar 1 1bar 1bar 1bar 1bar 0bar "
        "0bar 1bar 1bar 0 0bar outside its language",
        "chain (1,l2bar,0): reduction of 0bar 1 1bar 0bar 0bar 1bar 1bar "
        "0bar 0bar 1bar 0 0bar outside its language",
    ]


def test_lemma4_pins_its_failure_text(monkeypatch):
    """Every ancestor's balance read as 3."""
    monkeypatch.setattr(suites, "mu", lambda w: 3)
    res = suite_lemma4(budget=EnumerationBudget(8, 200))
    assert res.checked == 52
    assert res.failures == \
        ["ancestor balance 3 != 0 for a path of length 4"] * 4 + \
        ["ancestor balance 3 != 0 for a path of length 8"] * 48


def test_q_validate_pins_its_failure_text(monkeypatch):
    """The prefix oracle flipped on two-letter words starting with 1bar,
    the factor oracle on two-letter words ending with 0: the two kinds of
    message interleave in word order."""
    prefix, factor = suites.is_dyck_prefix, suites.factor_of_dyck_oracle
    monkeypatch.setattr(suites, "is_dyck_prefix", lambda w: prefix(w) != (
        len(w) == 2 and w[0] == words.ONE_BAR))
    monkeypatch.setattr(suites, "factor_of_dyck_oracle",
                        lambda w: factor(w) != (len(w) == 2
                                                and w[1] == words.ZERO))
    res = suite_q_validate(max_len=3)
    assert res.checked == 170
    assert res.failures == [
        "factor-language mismatch on 0 0",
        "factor-language mismatch on 0bar 0",
        "factor-language mismatch on 1 0",
        "prefix-language mismatch on 1bar 0",
        "factor-language mismatch on 1bar 0",
        "prefix-language mismatch on 1bar 0bar",
        "prefix-language mismatch on 1bar 1",
        "prefix-language mismatch on 1bar 1bar",
    ]


def test_prop1_pins_its_failure_text(monkeypatch):
    """The characterization flipped on instances with 1, 3 or 5 edges."""
    check = suites.prop1_check
    monkeypatch.setattr(suites, "prop1_check", lambda inst: check(inst) != (
        len(inst.graph.edges) in (1, 3, 5)))
    res = suite_prop1(samples=12, seed=3)
    assert res.checked == 12
    assert res.failures == [
        "mismatch on 1->1 with edges [(0, l1bar, 0)]",
        "mismatch on 0->0 with edges [(0, l1, 0)]",
        "mismatch on 3->2 with edges [(0, l1, 0), (0, l1, 3), (0, l1bar, 0), "
        "(1, l1bar, 3), (2, l1, 3)]",
        "mismatch on 0->0 with edges [(0, l1, 1), (1, l1, 1), (2, l1, 2)]",
        "mismatch on 2->0 with edges [(0, l1bar, 0), (0, l1bar, 1), "
        "(0, l1bar, 2)]",
    ]


def test_prop1_suite():
    res = suite_prop1(samples=120, seed=3)
    assert res.ok, res.failures


# ---------------------------------------------------------------------------
# The literal matched-pair claim fails; the closure reading holds.

def test_matched_pair_reductions_can_escape_the_literal_language():
    """A chain traversal may bounce between its locks; gluing it to a
    closing chain then cancels across the junction and strands closing
    letters in a shape the block language cannot produce.  The reduction
    still lies in the closure (it is the normal form of a language word),
    which is what the suite checks."""
    red = compile_dyck2_to_undirected(default_gadget_source())
    w1 = PHI_UNDIRECTED[Label("l", 2, False)]  # direct second-pair traversal
    labels, _ = enumerate_nominal_paths(red, ("edge", 1, L2BAR, 0),
                                        EnumerationBudget(36, 400))
    varpi = regular_nfa("varpi")
    closure = reduced_language_nfa("varpi")
    escapes = []
    for w3 in labels:
        w = w1 + w3
        if in_q(w):
            r = reduce_word(w)
            assert closure.accepts(r), r
            if not varpi.accepts(r):
                escapes.append(r)
    assert escapes, "expected at least one literal escape"


def test_lemma7_reports_the_literal_miss_count():
    t0 = time.monotonic()
    res = suite_lemma7(budget=EnumerationBudget(36, 400), varpi_max_len=6,
                       sample_cap=40, seed=0)
    assert res.ok, res.failures
    assert res.info["strict_misses"] > 0
    assert time.monotonic() - t0 < 60
