"""Tiny regular-expression engine over edge labels.

Expressions are built from literals, concatenation, union and star, and
compiled to epsilon-NFAs by the textbook construction.  Membership is by
subset simulation.  No pattern-matching library is involved, so these
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


class Nfa:
    """Epsilon-NFA with integer states; state 0 is initial.

    Membership runs on a lazy DFA (Thompson's simulation with its subset
    steps memoized per automaton).  Each reachable subset of NFA states is
    interned once as an integer id; per id the automaton keeps a
    label -> id dict and a ``final`` flag, and id 0 is the empty (dead)
    subset.  ``start`` and ``advance`` return these ids.  Subsets are built
    on first use, so the transitions and accepting states must not change
    after the first ``start`` or ``advance``.
    """

    def __init__(self):
        self.eps: list[list[int]] = []
        self.step: list[list[tuple[Label, int]]] = []
        self.accepting: set[int] = set()
        self._ids: dict[frozenset[int], int] = {}
        self._subsets: list[frozenset[int]] = []
        self.moves: list[dict[Label, int]] = []
        self.final: list[bool] = []
        self._start: int | None = None
        self._intern(frozenset())

    def new_state(self) -> int:
        self.eps.append([])
        self.step.append([])
        return len(self.eps) - 1

    def closure(self, states) -> frozenset[int]:
        seen = set(states)
        stack = list(states)
        while stack:
            s = stack.pop()
            for t in self.eps[s]:
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)

    def _intern(self, subset: frozenset[int]) -> int:
        sid = self._ids.get(subset)
        if sid is None:
            sid = self._ids[subset] = len(self._subsets)
            self._subsets.append(subset)
            self.moves.append({})
            self.final.append(any(s in self.accepting for s in subset))
        return sid

    def advance(self, state: int, label: Label) -> int:
        """The DFA step from subset id ``state`` on ``label`` (0 if no
        NFA state survives)."""
        moves = self.moves[state]
        out = moves.get(label)
        if out is None:
            nxt = {t for s in self._subsets[state]
                   for (lab, t) in self.step[s] if lab == label}
            out = moves[label] = self._intern(self.closure(nxt))
        return out

    def start(self) -> int:
        if self._start is None:
            self._start = self._intern(self.closure([0]))
        return self._start

    def accepts(self, word: Sequence[Label]) -> bool:
        state = self.start()
        moves = self.moves
        for label in word:
            nxt = moves[state].get(label)
            if nxt is None:
                nxt = self.advance(state, label)
            if not nxt:
                return False
            state = nxt
        return self.final[state]


def compile_regex(expr: Regex) -> Nfa:
    nfa = Nfa()
    start = nfa.new_state()

    def build(e: Regex, src: int) -> int:
        """Wire e between src and a fresh sink state; return the sink."""
        if isinstance(e, Eps):
            dst = nfa.new_state()
            nfa.eps[src].append(dst)
            return dst
        if isinstance(e, Lit):
            dst = nfa.new_state()
            nfa.step[src].append((e.label, dst))
            return dst
        if isinstance(e, Cat):
            mid = build(e.left, src)
            return build(e.right, mid)
        if isinstance(e, Alt):
            dst = nfa.new_state()
            for branch in (e.left, e.right):
                end = build(branch, src)
                nfa.eps[end].append(dst)
            return dst
        if isinstance(e, Star):
            hub = nfa.new_state()
            nfa.eps[src].append(hub)
            end = build(e.inner, hub)
            nfa.eps[end].append(hub)
            return hub
        raise TypeError(f"not a regex node: {e!r}")

    nfa.accepting.add(build(expr, start))
    return nfa


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
    clo = Nfa()
    clo.eps = [list(edges) for edges in nfa.eps]
    clo.step = [list(edges) for edges in nfa.step]
    clo.accepting = set(nfa.accepting)
    changed = True
    while changed:
        changed = False
        for p in range(len(clo.step)):
            for lab, r in clo.step[p]:
                if lab.bar or lab.base == "dot":
                    continue
                close = lab.matched()
                for s in clo.closure([r]):
                    for lab2, q in clo.step[s]:
                        if lab2 == close and q not in clo.eps[p]:
                            clo.eps[p].append(q)
                            changed = True
    return clo


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
    frontier = [((), nfa.start())]
    for _ in range(max_len + 1):
        nxt = []
        for word, state in frontier:
            if final[state]:
                yield word
            out = moves[state]
            for label in alphabet:
                adv = out.get(label)
                if adv is None:
                    adv = nfa.advance(state, label)
                if adv:
                    nxt.append((word + (label,), adv))
        frontier = nxt
