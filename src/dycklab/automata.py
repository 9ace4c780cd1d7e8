"""Tiny regular-expression engine over edge labels.

Expressions are built from literals, concatenation, union and star, and
compiled to epsilon-NFAs by the textbook construction, each determinized
once by the subset construction when it is built.  Membership is a walk
over that DFA table.  No pattern-matching library is involved, so these
automata can serve as one side of a dual-route check.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .graphs import Label

# A regex is a tuple tagged by its kind: ``("eps",)``, ``("lit", label)``,
# ``("cat", left, right)``, ``("alt", left, right)`` or ``("star", inner)``.
# The tag keeps ``cat(a, b) != union(a, b)``.
Regex = tuple

EPS: Regex = ("eps",)


def lit(label: Label) -> Regex:
    return ("lit", label)


def star(inner: Regex) -> Regex:
    return ("star", inner)


def cat(*parts: Regex) -> Regex:
    out = EPS
    for p in parts:
        out = ("cat", out, p) if out != EPS else p
    return out


def union(*parts: Regex) -> Regex:
    assert parts
    out = parts[0]
    for p in parts[1:]:
        out = ("alt", out, p)
    return out


def _closure(eps: Sequence[Sequence[int]], states) -> frozenset[int]:
    """The states reachable from ``states`` by epsilon moves."""
    seen = set(states)
    stack = list(states)
    while stack:
        for t in eps[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return frozenset(seen)


class Nfa:
    """Epsilon-NFA with integer states (state 0 initial), determinized once,
    when it is built.

    ``eps``, ``step`` and ``accepting`` keep the NFA as given.  The
    constructor runs the subset construction (Rabin & Scott, 1959) from the
    epsilon closure of state 0 over the labels ``step`` reads, and interns
    each reachable subset of states as an integer id; id 0 is the empty
    (dead) subset and ``start`` the initial one.  Per id, ``moves`` maps
    every label the NFA reads to the next id and ``final`` says whether the
    subset holds an accepting state.  A label the NFA never reads is absent
    from ``moves`` and leads to 0.
    """

    def __init__(self, eps: list[list[int]],
                 step: list[list[tuple[Label, int]]], accepting: set[int]):
        self.eps, self.step, self.accepting = eps, step, set(accepting)
        labels = list(dict.fromkeys(lab for edges in step for lab, _ in edges))
        subsets = [frozenset(), _closure(eps, [0])]
        ids = {subset: sid for sid, subset in enumerate(subsets)}
        self.start = 1
        self.moves: list[dict[Label, int]] = []
        for subset in subsets:  # grows as new subsets are met
            targets: dict[Label, list[int]] = {}
            for s in subset:
                for lab, t in step[s]:
                    targets.setdefault(lab, []).append(t)
            row = {}
            for lab in labels:
                nxt = _closure(eps, targets.get(lab, ()))
                if nxt not in ids:
                    ids[nxt] = len(subsets)
                    subsets.append(nxt)
                row[lab] = ids[nxt]
            self.moves.append(row)
        self.final = [not self.accepting.isdisjoint(subset) for subset in subsets]

    def advance(self, state: int, label: Label) -> int:
        """The DFA step from subset id ``state`` on ``label`` (0 if no NFA
        state survives)."""
        return self.moves[state].get(label, 0)

    def accepts(self, word: Sequence[Label]) -> bool:
        state, moves = self.start, self.moves
        for label in word:
            state = moves[state].get(label, 0)
            if not state:
                return False
        return self.final[state]


def compile_regex(expr: Regex) -> Nfa:
    eps: list[list[int]] = []
    step: list[list[tuple[Label, int]]] = []

    def new_state() -> int:
        eps.append([])
        step.append([])
        return len(eps) - 1

    def build(e: Regex, src: int) -> int:
        """Wire e between src and a fresh sink state; return the sink."""
        match e:
            case ("eps",):
                eps[src].append(dst := new_state())
                return dst
            case ("lit", label):
                step[src].append((label, dst := new_state()))
                return dst
            case ("cat", left, right):
                return build(right, build(left, src))
            case ("alt", left, right):
                dst = new_state()
                for branch in (left, right):
                    eps[build(branch, src)].append(dst)
                return dst
            case ("star", inner):
                eps[src].append(hub := new_state())
                eps[build(inner, hub)].append(hub)
                return hub
        raise TypeError(f"not a regex node: {e!r}")

    return Nfa(eps, step, {build(expr, new_state())})


def reduction_closure(nfa: Nfa) -> Nfa:
    """Automaton for the descendants of L(nfa) under iterated deletion of
    adjacent open-then-close factors.

    Saturation: add an epsilon edge p -> q whenever p reads an opening
    label into r, r reaches s by epsilon moves, and s reads the matching
    closing label into q.  Deleting a factor a.w.abar with w already
    deletable is covered because w's deletion shows up as epsilon moves.
    A reduced word is accepted iff it is the normal form of some word in
    the original language.
    """
    eps = [list(edges) for edges in nfa.eps]
    step = nfa.step
    changed = True
    while changed:
        changed = False
        for p, edges in enumerate(step):
            for lab, r in edges:
                if lab.bar or lab.base == "dot":
                    continue
                close = lab.matched()
                for s in _closure(eps, [r]):
                    for lab2, q in step[s]:
                        if lab2 == close and q not in eps[p]:
                            eps[p].append(q)
                            changed = True
    return Nfa(eps, step, nfa.accepting)


def brute_matches(expr: Regex, word: Sequence[Label]) -> bool:
    """Reference semantics by structural recursion over all splits; usable
    only on short words, kept independent of the NFA path."""
    word = tuple(word)
    # memo keyed by node identity: hashing a frozen node rehashes its
    # whole subtree, which made up most of the time
    memo: dict[tuple[int, int, int], bool] = {}

    def matches(e: Regex, i: int, j: int) -> bool:
        key = (id(e), i, j)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = split(e, i, j)
        return hit

    def split(e: Regex, i: int, j: int) -> bool:
        match e:
            case ("eps",):
                return i == j
            case ("lit", label):
                return j == i + 1 and word[i] == label
            case ("cat", left, right):
                return any(matches(left, i, k) and matches(right, k, j)
                           for k in range(i, j + 1))
            case ("alt", left, right):
                return matches(left, i, j) or matches(right, i, j)
            case ("star", inner):
                return i == j or any(matches(inner, i, k) and matches(e, k, j)
                                     for k in range(i + 1, j + 1))
        raise TypeError(f"not a regex node: {e!r}")

    return matches(expr, 0, len(word))


def enumerate_accepted(nfa: Nfa, alphabet: Sequence[Label],
                       max_len: int) -> Iterator[tuple[Label, ...]]:
    """All accepted words of length <= max_len, shortest first, each length
    in label order."""
    moves, final = nfa.moves, nfa.final
    frontier = [((), nfa.start)]
    for _ in range(max_len + 1):
        nxt = []
        for word, state in frontier:
            if final[state]:
                yield word
            out = moves[state]
            for label in alphabet:
                if adv := out.get(label, 0):
                    nxt.append((word + (label,), adv))
        frontier = nxt
