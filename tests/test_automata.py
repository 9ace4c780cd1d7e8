"""The regex engine and the reduction-closure construction."""

from hypothesis import given, settings
from hypothesis import strategies as st

import functools
import itertools

import pytest

from dycklab import automata, reduce_word, reduced_language_nfa
from dycklab.words import (REGULAR_EXPRS, ZO_ALPHABET, ZERO, ZERO_BAR, ONE,
                           ONE_BAR, regular_nfa)

zo_words = st.lists(st.sampled_from(ZO_ALPHABET), max_size=8).map(tuple)


@st.composite
def regexes(draw, depth=3):
    if depth == 0:
        return draw(st.sampled_from(
            [automata.EPS] + [automata.lit(lab) for lab in ZO_ALPHABET]))
    kind = draw(st.sampled_from(["leaf", "cat", "alt", "star"]))
    if kind == "leaf":
        return draw(regexes(depth=0))
    if kind == "star":
        return automata.star(draw(regexes(depth=depth - 1)))
    left = draw(regexes(depth=depth - 1))
    right = draw(regexes(depth=depth - 1))
    return (kind, left, right)


@settings(max_examples=150, deadline=None)
@given(regexes(), st.lists(st.sampled_from(ZO_ALPHABET), max_size=5).map(tuple))
def test_nfa_matches_brute_semantics(expr, w):
    nfa = automata.compile_regex(expr)
    assert nfa.accepts(w) == automata.brute_matches(expr, w)


def _zo_words(max_len: int):
    for length in range(max_len + 1):
        yield from itertools.product(ZO_ALPHABET, repeat=length)


@functools.cache
def _brute_members(which: str) -> dict:
    """Every two-pair word up to length 6 with its membership under the
    regex's brute semantics, computed once for the tests below."""
    return {w: automata.brute_matches(REGULAR_EXPRS[which], w)
            for w in _zo_words(6)}


def _subset_simulation(nfa, w) -> bool:
    """Membership by plain subset simulation over the automaton's own
    transition lists, with no memo and no interned states."""
    def close(states):
        seen = set(states)
        stack = list(states)
        while stack:
            for t in nfa.eps[stack.pop()]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return seen

    states = close({0})
    for label in w:
        states = close({t for s in states for lab, t in nfa.step[s]
                        if lab == label})
    return bool(states & nfa.accepting)


def test_a_warm_nfa_matches_brute_semantics():
    """One automaton per language, and one per reduction closure, reused
    over every short word, twice.  A language automaton answers as the
    regex's brute semantics; a closure automaton, which has no regex, as a
    plain subset simulation of its NFA."""
    words = list(_zo_words(5))
    for which, expr in REGULAR_EXPRS.items():
        nfa = automata.compile_regex(expr)
        closure = automata.reduction_closure(automata.compile_regex(expr))
        expected = _brute_members(which)
        expected_closure = {w: _subset_simulation(closure, w) for w in words}
        for _ in range(2):
            for w in words:
                assert nfa.accepts(w) == expected[w], (which, w)
                assert closure.accepts(w) == expected_closure[w], (which, w)


def test_closure_of_a_used_nfa_matches_a_fresh_one():
    """The closure keeps no subset steps of the automaton it was built
    from: closing a warm automaton gives the same language as closing a
    freshly compiled one."""
    for which in ("omega", "varpi"):
        used = automata.compile_regex(REGULAR_EXPRS[which])
        for w in _zo_words(6):
            used.accepts(w)
        warm = automata.reduction_closure(used)
        fresh = automata.reduction_closure(
            automata.compile_regex(REGULAR_EXPRS[which]))
        for w in _zo_words(6):
            assert warm.accepts(w) == fresh.accepts(w), (which, w)
    # a descendant that is not itself a varpi word
    assert warm.accepts((ONE, ZERO, ZERO_BAR, ONE_BAR))
    assert not used.accepts((ONE, ZERO, ZERO_BAR, ONE_BAR))


def test_nodes_of_different_types_never_compare_equal():
    a, b = automata.lit(ZERO), automata.lit(ONE)
    cat, alt = automata.cat(a, b), automata.union(a, b)
    assert cat != alt and not cat == alt
    assert len({cat, alt}) == 2
    assert cat == automata.cat(a, b) and not cat != automata.cat(a, b)
    assert hash(cat) == hash(automata.cat(a, b))
    assert automata.star(a) != automata.lit(a)  # the same one field
    assert automata.star(a) != automata.star(b)
    assert automata.EPS == automata.cat() and automata.EPS != ()
    assert cat != (a, b) and automata.cat(cat, a) != automata.cat(alt, a)


def test_cat_and_union_helpers():
    e = automata.cat(automata.lit(ZERO), automata.lit(ZERO_BAR))
    nfa = automata.compile_regex(e)
    assert nfa.accepts((ZERO, ZERO_BAR))
    assert not nfa.accepts((ZERO,))
    u = automata.union(automata.lit(ZERO), automata.lit(ONE))
    nfa = automata.compile_regex(u)
    assert nfa.accepts((ZERO,)) and nfa.accepts((ONE,))
    assert not nfa.accepts(())


def test_compile_and_brute_semantics_reject_a_non_node():
    """A string, an unknown tag, a short node and a bare label: both
    routes refuse each one."""
    a = automata.lit(ZERO)
    for expr in ("x", ("plus", a), ("cat", a), ZERO):
        with pytest.raises(TypeError, match="not a regex node"):
            automata.compile_regex(expr)
        with pytest.raises(TypeError, match="not a regex node"):
            automata.brute_matches(expr, ())


def test_enumerate_accepted_matches_a_brute_filter_in_order():
    """Shortest first, each length in alphabet order: the order of
    ``itertools.product`` filtered by the regex's brute semantics."""
    for which, expr in REGULAR_EXPRS.items():
        want = [w for w, member in _brute_members(which).items() if member]
        got = list(automata.enumerate_accepted(
            automata.compile_regex(expr), ZO_ALPHABET, 6))
        assert got == want, which


def test_enumerate_accepted_respects_the_bound():
    nfa = automata.compile_regex(automata.star(automata.lit(ZERO)))
    out = list(automata.enumerate_accepted(nfa, ZO_ALPHABET, 3))
    assert out == [(), (ZERO,), (ZERO, ZERO), (ZERO, ZERO, ZERO)]


# ---------------------------------------------------------------------------
# Reduction closure

def test_closure_of_a_single_deletable_factor():
    e = automata.cat(automata.lit(ZERO), automata.lit(ZERO_BAR))
    clo = automata.reduction_closure(automata.compile_regex(e))
    assert clo.accepts(())
    assert clo.accepts((ZERO, ZERO_BAR))  # the original word stays accepted
    assert not clo.accepts((ZERO,))


def test_closure_handles_nested_deletion():
    # 1 . 0 . 0bar . 1bar reduces to eps in two stages
    e = automata.cat(*[automata.lit(x) for x in (ONE, ZERO, ZERO_BAR, ONE_BAR)])
    clo = automata.reduction_closure(automata.compile_regex(e))
    assert clo.accepts(())
    assert clo.accepts((ONE, ONE_BAR))


def test_closure_does_not_delete_close_then_open():
    e = automata.cat(automata.lit(ZERO_BAR), automata.lit(ZERO))
    clo = automata.reduction_closure(automata.compile_regex(e))
    assert clo.accepts((ZERO_BAR, ZERO))
    assert not clo.accepts(())


def test_closure_is_sound_for_the_named_languages():
    """Every descendant of a language word under factor deletion is
    accepted; checked via the normal forms of all short language words."""
    for which in ("omega", "varpi+", "varpi"):
        nfa = regular_nfa(which)
        clo = reduced_language_nfa(which)
        for w in automata.enumerate_accepted(nfa, ZO_ALPHABET, 10):
            assert clo.accepts(reduce_word(w)), (which, w)


def test_closure_accepted_normal_forms_are_reachable():
    """Conversely, on a small scale: every irreducible word accepted by the
    closure of varpi is the normal form of some varpi word."""
    clo = reduced_language_nfa("varpi")
    reachable = {reduce_word(w) for w in automata.enumerate_accepted(
        regular_nfa("varpi"), ZO_ALPHABET, 12)}
    for w in automata.enumerate_accepted(clo, ZO_ALPHABET, 4):
        if reduce_word(w) == w:
            assert w in reachable, w
