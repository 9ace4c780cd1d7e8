"""Tiny regular-expression engine over edge labels.

Expressions are built from literals, concatenation, union and star, and
compiled to epsilon-NFAs by the textbook construction, each determinized
once by the subset construction when it is built.  Membership is a walk
over that DFA table.  No pattern-matching library is involved, so these
automata can serve as one side of a dual-route check.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple, Sequence

from .graphs import Label


def _same_node(self, other) -> bool:
    return type(self) is type(other) and tuple.__eq__(self, other)


def _other_node(self, other) -> bool:
    return not _same_node(self, other)


def _star(self) -> "Regex":
    return Star(self)


def _node(cls):
    """A regex node type: a NamedTuple equal only to nodes of its own type,
    though the fields of two types may agree (``Cat(a, b) != Alt(a, b)``),
    with ``star()``."""
    cls.__eq__, cls.__ne__, cls.__hash__ = _same_node, _other_node, tuple.__hash__
    cls.star = _star
    return cls


@_node
class Eps(NamedTuple):
    pass


@_node
class Lit(NamedTuple):
    label: Label


@_node
class Cat(NamedTuple):
    left: Regex
    right: Regex


@_node
class Alt(NamedTuple):
    left: Regex
    right: Regex


@_node
class Star(NamedTuple):
    inner: Regex


# not ``typing.Union``: typing caches a Union, and with it these classes
# and their module, past a re-import of the package
Regex = Eps | Lit | Cat | Alt | Star


def lit(label: Label) -> Regex:
    return Lit(label)


def cat(*parts: Regex) -> Regex:
    out: Regex = Eps()
    for p in parts:
        out = Cat(out, p) if not isinstance(out, Eps) else p
    return out


def union(*parts: Regex) -> Regex:
    assert parts
    out = parts[0]
    for p in parts[1:]:
        out = Alt(out, p)
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
        if isinstance(e, Eps):
            dst = new_state()
            eps[src].append(dst)
            return dst
        if isinstance(e, Lit):
            dst = new_state()
            step[src].append((e.label, dst))
            return dst
        if isinstance(e, Cat):
            mid = build(e.left, src)
            return build(e.right, mid)
        if isinstance(e, Alt):
            dst = new_state()
            for branch in (e.left, e.right):
                end = build(branch, src)
                eps[end].append(dst)
            return dst
        if isinstance(e, Star):
            hub = new_state()
            eps[src].append(hub)
            end = build(e.inner, hub)
            eps[end].append(hub)
            return hub
        raise TypeError(f"not a regex node: {e!r}")

    start = new_state()
    return Nfa(eps, step, {build(expr, start)})


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
    n = len(word)
    # memo keyed by node identity: hashing a frozen node rehashes its
    # whole subtree, which made up most of the time
    memo: dict[tuple[int, int, int], bool] = {}

    def match(e: Regex, i: int, j: int) -> bool:
        key = (id(e), i, j)
        hit = memo.get(key)
        if hit is None:
            hit = memo[key] = split(e, i, j)
        return hit

    def split(e: Regex, i: int, j: int) -> bool:
        if isinstance(e, Eps):
            return i == j
        if isinstance(e, Lit):
            return j == i + 1 and word[i] == e.label
        if isinstance(e, Cat):
            return any(match(e.left, i, k) and match(e.right, k, j)
                       for k in range(i, j + 1))
        if isinstance(e, Alt):
            return match(e.left, i, j) or match(e.right, i, j)
        if isinstance(e, Star):
            if i == j:
                return True
            return any(match(e.inner, i, k) and match(e, k, j)
                       for k in range(i + 1, j + 1))
        raise TypeError(f"not a regex node: {e!r}")

    return match(expr, 0, n)


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
