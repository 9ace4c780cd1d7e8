"""Word machinery: reduction, bracket predicates, the six regular
languages, the homomorphic encodings, and the free-product projection."""

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dycklab import (DOT, Label, PHI_UNDIRECTED, cyk_accepts, dyck_grammar,
                     factor_of_dyck_oracle,
                     gamma_exponent, in_q, in_q_init, in_regular, is_dyck,
                     is_dyck_prefix, is_near_dyck, mu, phi_neardyck,
                     phi_undirected, reduce_word, theta, word, zo_str)
from dycklab.words import (GAMMA, ZO_ALPHABET, free_product_mul,
                           join_reduced, phi_neardyck_letter, regular_nfa)
from dycklab import automata

zo_words = st.lists(st.sampled_from(ZO_ALPHABET), max_size=12).map(tuple)

# l1-l3 and v0-v2 share indices, so a partner test must compare bases too
MIXED_ALPHABET = word("l1 l1bar l2 l2bar l3 l3bar v0 v0bar v1 v1bar v2 v2bar dot")
mixed_words = st.lists(st.sampled_from(MIXED_ALPHABET), max_size=16).map(tuple)


def test_reduce_basic_cancellation():
    assert reduce_word(word("0 0bar")) == ()
    assert reduce_word(word("1 1bar")) == ()
    assert reduce_word(word("0bar 0")) == word("0bar 0")  # one-sided rule
    assert reduce_word(word("1bar 1")) == word("1bar 1")
    assert reduce_word(word("l1 v1bar")) == word("l1 v1bar")  # bases differ
    assert reduce_word(word("v2 l2bar")) == word("v2 l2bar")
    assert reduce_word(word("v1 dot v1bar")) == word("v1 dot v1bar")
    assert reduce_word(word("l3 v0 v0bar l3bar")) == ()


def test_reduce_direct_journey_word():
    w = word("0 0bar 1 1 0 0 1 1 1 1 1bar 0")
    assert zo_str(reduce_word(w)) == "1 1 0 0 1 1 1 0"


@settings(max_examples=240, deadline=None)
@given(st.one_of(zo_words, mixed_words), st.integers(min_value=0, max_value=10**9))
def test_reduce_is_confluent_under_random_order(w, seed):
    """Cancelling deletable factors in any order reaches the same normal
    form as the left-to-right stack pass, on the two-pair letters and on a
    mixed alphabet with three pairs, per-vertex letters and dot."""
    rng = random.Random(seed)
    cur = list(w)
    while True:
        sites = [i for i in range(len(cur) - 1)
                 if cur[i].base != "dot" and not cur[i].bar
                 and cur[i + 1] == cur[i].matched()]
        if not sites:
            break
        i = rng.choice(sites)
        del cur[i:i + 2]
    assert tuple(cur) == reduce_word(w)


@settings(max_examples=200, deadline=None)
@given(zo_words, zo_words, zo_words)
def test_reduction_of_a_concatenation_reduces_its_reduced_factors(u, v, w):
    """Reduction is a congruence, so a word may be reduced factor by
    factor first: the suites reduce each factor once and then only the
    concatenation of the reduced factors."""
    assert reduce_word(u + v + w) == \
        reduce_word(reduce_word(u) + reduce_word(v) + reduce_word(w))


@settings(max_examples=300, deadline=None)
@given(st.one_of(zo_words, mixed_words), st.one_of(zo_words, mixed_words))
@example(word("l1"), word("v1bar"))  # same index, other base: no partners
@example(word("l1 l2"), word("l2bar l1bar"))  # cancels more than one pair
@example(word("l2 l1"), word("l1bar v2bar"))  # stops inside the junction
def test_joining_normal_forms_reduces_the_concatenation(u, v):
    """Joining two normal forms cancels only at the junction and gives
    the normal form of the concatenation."""
    assert join_reduced(reduce_word(u), reduce_word(v)) == reduce_word(u + v)

@settings(max_examples=100, deadline=None)
@given(zo_words)
def test_dyck_iff_reduction_empties(w):
    assert is_dyck(w) == (reduce_word(w) == ())


@settings(max_examples=80, deadline=None)
@given(st.lists(st.sampled_from(ZO_ALPHABET), max_size=8).map(tuple))
def test_is_dyck_agrees_with_cyk(w):
    assert is_dyck(w) == cyk_accepts(dyck_grammar(2), w)


def test_near_dyck_examples():
    assert is_near_dyck(word("v1 dot v1bar"))
    assert not is_near_dyck(word("v1 v2bar"))
    assert is_near_dyck(())
    assert is_near_dyck((DOT,))
    assert not is_dyck((DOT,))


def test_prefix_predicate():
    assert is_dyck_prefix(word("0 1 1"))
    assert not is_dyck_prefix(word("0 1bar"))
    assert is_dyck_prefix(())


def test_q_membership_examples():
    assert not in_q(word("1 0bar"))
    assert not in_q(word("0 1bar"))
    assert in_q(word("0bar 1"))
    assert not in_q_init(word("0bar 1"))
    assert in_q(()) and in_q_init(())


@pytest.mark.parametrize("tokens", ["", "0", "0 0bar", "1 0", "0bar 1",
                                    "0 1 1bar 0bar"])
def test_no_word_holding_dot_is_a_prefix_or_factor(tokens):
    """No balanced word holds ``dot``, so a word with ``dot`` in any
    position is in neither language, as the oracles say."""
    base = word(tokens)
    for i in range(len(base) + 1):
        w = base[:i] + (DOT,) + base[i:]
        assert not is_dyck_prefix(w) and not factor_of_dyck_oracle(w), w
        assert in_q_init(w) == is_dyck_prefix(w), w
        assert in_q(w) == factor_of_dyck_oracle(w), w


@settings(max_examples=100, deadline=None)
@given(zo_words)
def test_q_init_subset_of_q(w):
    if in_q_init(w):
        assert in_q(w)


@settings(max_examples=80, deadline=None)
@given(zo_words, st.data())
def test_q_is_factor_closed(w, data):
    if not in_q(w):
        return
    i = data.draw(st.integers(min_value=0, max_value=len(w)))
    j = data.draw(st.integers(min_value=i, max_value=len(w)))
    assert in_q(w[i:j])


# ---------------------------------------------------------------------------
# Regular languages

LANGS = ("omega+", "omega-", "omega", "varpi+", "varpi-", "varpi")


def test_empty_word_in_all_six_languages():
    for which in LANGS:
        assert in_regular((), which)


def test_close_open_block_separates_omega_variants():
    w = word("0bar 0")
    assert in_regular(w, "omega")
    assert not in_regular(w, "omega+")
    assert not in_regular(w, "omega-")


def test_unknown_language_rejected():
    with pytest.raises(ValueError):
        in_regular((), "sigma")


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(LANGS),
       st.lists(st.sampled_from(ZO_ALPHABET), max_size=8).map(tuple))
def test_automata_agree_with_brute_regex_semantics(which, w):
    from dycklab.words import REGULAR_EXPRS
    assert in_regular(w, which) == automata.brute_matches(REGULAR_EXPRS[which], w)


def test_enumerate_accepted_is_shortest_first_and_sound():
    nfa = regular_nfa("omega+")
    out = list(automata.enumerate_accepted(nfa, ZO_ALPHABET, 4))
    assert out[0] == ()
    assert all(len(a) <= len(b) for a, b in zip(out, out[1:]))
    assert all(nfa.accepts(w) for w in out)
    # omega+ up to length 4: eps, the two doubles, the four quadruples
    assert len(out) == 7


# words of each length 0-10 over {0, 0bar, 1, 1bar} in each language
LANGUAGE_COUNTS = {
    "omega+": (1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32),
    "omega-": (1, 0, 2, 0, 4, 0, 8, 0, 16, 0, 32),
    "omega": (1, 0, 5, 0, 25, 0, 125, 0, 625, 0, 3125),
    "varpi+": (1, 0, 2, 0, 5, 0, 13, 0, 34, 0, 89),
    "varpi-": (1, 0, 2, 0, 5, 0, 13, 0, 34, 0, 89),
    "varpi": (1, 0, 6, 0, 39, 0, 268, 0, 1901, 0, 13714),
}


@pytest.mark.parametrize("which", LANGS)
def test_each_language_has_its_word_counts(which):
    counts = [0] * 11
    for w in automata.enumerate_accepted(regular_nfa(which), ZO_ALPHABET, 10):
        counts[len(w)] += 1
    assert tuple(counts) == LANGUAGE_COUNTS[which]


# ---------------------------------------------------------------------------
# Encodings

def test_phi_neardyck_letter_shapes():
    assert phi_neardyck_letter(DOT, 3) == word("a abar")
    assert phi_neardyck_letter(Label("v", 0, False), 2) == word("a b a a")
    assert phi_neardyck_letter(Label("v", 0, True), 2) == word("abar abar bbar abar")
    with pytest.raises(ValueError):
        phi_neardyck_letter(Label("v", 5, False), 2)


def test_phi_neardyck_inverse_pair_is_balanced():
    for n in (1, 2, 3):
        for i in range(n):
            w = (Label("v", i, False), Label("v", i, True))
            assert is_dyck(phi_neardyck(w, n))


def test_phi_neardyck_preserves_membership_exhaustively():
    n = 2
    letters = [DOT] + [Label("v", i, b) for i in range(n) for b in (False, True)]
    for length in range(5):
        for w in itertools.product(letters, repeat=length):
            assert is_near_dyck(w) == is_dyck(phi_neardyck(w, n))


def test_phi_undirected_pairs_are_balanced():
    assert is_dyck(phi_undirected(word("l1 l1bar")))
    assert is_dyck(phi_undirected(word("l2 l2bar")))


def test_phi_undirected_words_are_twelve_letters_with_locks():
    for lab, enc in PHI_UNDIRECTED.items():
        assert len(enc) == 12
    # the closing encodings are the formal inverses of the opening ones
    for k in (1, 2):
        open_w = PHI_UNDIRECTED[Label("l", k, False)]
        close_w = PHI_UNDIRECTED[Label("l", k, True)]
        inverse = tuple(lab.matched() for lab in reversed(open_w))
        assert close_w == inverse


def test_mu_examples():
    assert mu(()) == 0
    assert mu(word("l1 l2bar")) == 0
    assert mu(word("l1 l1 l2bar")) == 1
    with pytest.raises(ValueError):
        mu((DOT,))


# ---------------------------------------------------------------------------
# Free-product projection

def test_theta_basics():
    assert theta(word("0 0bar")) == ()
    assert gamma_exponent(theta(word("0 0bar"))) == 0
    assert theta(word("1 0")) == GAMMA


@pytest.mark.parametrize("tokens", ["dot", "v0 v0bar", "l3", "0 l3bar",
                                    "v1"])
def test_theta_rejects_letters_outside_the_two_pairs(tokens):
    with pytest.raises(ValueError):
        theta(word(tokens))


def test_theta_of_the_chain_encodings():
    assert gamma_exponent(theta(PHI_UNDIRECTED[Label("l", 1, False)])) == 1
    assert gamma_exponent(theta(PHI_UNDIRECTED[Label("l", 2, False)])) == 1
    assert gamma_exponent(theta(PHI_UNDIRECTED[Label("l", 1, True)])) == -1
    assert gamma_exponent(theta(PHI_UNDIRECTED[Label("l", 2, True)])) == -1


def test_theta_collapses_the_named_languages():
    for which in LANGS:
        for w in automata.enumerate_accepted(regular_nfa(which), ZO_ALPHABET, 12):
            assert theta(w) == (), (which, zo_str(w))


def test_gamma_exponent_powers():
    e = ()
    for k in range(1, 5):
        e = free_product_mul(e, GAMMA)
        assert gamma_exponent(e) == k
    e = ()
    inv = ("alpha", "beta")
    for k in range(1, 5):
        e = free_product_mul(e, inv)
        assert gamma_exponent(e) == -k
    assert gamma_exponent(("alpha",)) is None
    assert gamma_exponent(("alpha", "beta", "beta", "alpha")) is None


@settings(max_examples=80, deadline=None)
@given(zo_words, zo_words)
def test_theta_is_a_homomorphism(u, v):
    assert theta(u + v) == free_product_mul(theta(u), theta(v))
