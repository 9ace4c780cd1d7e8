"""Bracket-reachability solvers by pair-set saturation.

``solve_dyck`` computes the set of vertex pairs joined by a path whose
label is a balanced word, as the least set containing all ``(x, x)`` and
closed under two rules:

* wrap: ``(u', v')`` in the set, edges ``(u, q, u')`` and ``(v', q-bar, v)``
  for an opening label ``q``  =>  ``(u, v)``;
* concatenation: ``(u, w)`` and ``(w, v)``  =>  ``(u, v)``.

Both alphabets are read the same way: the pairs ``l_k`` / ``l_k-bar`` of a
``dyck`` alphabet and the per-vertex pairs ``v_i`` / ``v_i-bar`` of a
``neardyck`` one are bracket pairs alike, and a neutral ``dot`` edge
``(u, dot, v)`` is a balanced one-edge path, so it puts ``(u, v)`` in the set
(both ways round in an undirected graph).

The set is kept a row at a time, as in Chaudhuri's subcubic closure
("Subcubic algorithms for recursive state machines", POPL 2008): row
``R[u]`` is a Python-int bitset of the ``v`` with ``(u, v)`` in the set and
column ``C[v]`` the bitset of the ``u``.  Each label has one edge table,
kept the way the wrap rule reads it: per vertex, the source bitset of its
incoming edges for an opening label, and the target bitset of its outgoing
edges for a closing label or ``dot``.  The tables are numbered by slot:
one table per alphabet, ``graphs.label_slots``, cached since an alphabet
is immutable, resolves each label once to its slot, and past that the
index works on slot numbers alone (an even slot opens, an odd one closes,
-1 is ``dot``).  Concatenation keeps the rows transitively closed at
every step: when row ``a`` gains the bits ``B``,
every row in ``C[a]`` gains ``B`` and the rows of ``B``.  Since each row in
``C[a]`` already holds ``R[a]``, it gains only part of the fresh bits ``F``,
those of ``B`` and their rows outside ``R[a]``, and afterwards holds all of
``F``; so the columns are updated once per bit of ``F``, each gaining the
rows that gained anything, not once per derived pair.  The wrap rule
joins a row's new bits with the edge tables.  Either rule only ever adds
``bits & ~R[u]``, and only those new bits are processed further.

Two support masks keep the rules off bits that cannot contribute.
``closers[k]`` is the bitset of the vertices with an outgoing closing edge
of pair ``k``: the wrap rule joins a row only at those bits, since a bit
``v`` with no closing edge adds nothing.  It is built with the edge
tables, set on insertion and cleared when a deletion removes a vertex's
last such edge, so it always equals that support exactly.  ``wide`` holds
at least every vertex whose row has more than its identity bit:
concatenation expands only the new bits in ``wide``, since expanding any
other bit ``b`` adds just ``b`` itself.  A row never shrinks between
re-solves, so ``wide`` only grows until a re-solve starts it afresh.

A ``ReachIndex`` owns its instance and pays for an update only what it
derives.  ``apply`` checks the update in O(1) against the edge tables,
which hold the edges exactly, and flips the edge's bits (both ways
round for an undirected edge); the instance is brought up to date
only when ``inst`` is read.

It also closes only the rows a read needs, as demand-driven analyses
compute only the summaries a query needs (Horwitz, Reps & Sagiv, "Demand
interprocedural dataflow analysis", FSE 1995).  A pair ``(u, v)`` is
derived from ``dot`` edges out of ``u``, from the rows of ``u``'s
opening-edge targets (wrap) and from the rows of the bits of ``u``'s row
(concatenation), so the index keeps a demand set closed under those two
steps: a query ``(u, v)`` adds ``u``, and a ``pairs`` read or a ``copy``
adds every vertex.  A demanded vertex becomes active only when the
worklist is empty, the highest-numbered first: its row, its identity bit
until then, is joined with its ``dot`` targets and, through its opening
edges, with the rows of their targets, which join the demand set.  Only
active rows gain bits, and every bit they gain joins the demand set.  The
wrap rule joins a popped row with its active sources only, and a seed
whose outer vertex is inactive derives nothing, since that vertex's
activation reads today's tables.  So an inactive row stays its identity
bit.

Two per-vertex counts answer many "no"s with no solve at all:
``outof[u]`` counts the opening and ``dot`` edges leaving ``u``, and
``into[v]`` the closing and ``dot`` edges entering ``v`` (an undirected
edge counts at both ends, a self-loop once).  A non-empty balanced word
starts with an opening or ``dot`` letter and ends with a closing or
``dot`` one, so a query ``(u, v)`` with ``u != v`` and either count 0 is
"no" whatever state the index is in, and leaves that state as it was.

``GrammarIndex`` is an independent engine over grammars in binary normal
form and must agree with ``solve_dyck`` on either alphabet's
``bracket_grammar``.  It shares no code with ``ReachIndex`` but keeps the
same contract, since grammar reachability is monotone in the edges too.
Either index lives in three states:

* Unread (``rows``, or ``succ``, is None): building an index builds only
  its tables, and an update only edits its edges, in the edge tables or
  in the instance.  The first read (a query, a ``pairs`` read or a
  ``ReachIndex.copy``) starts the from-scratch solve over the edges as
  they are then.
* Solved: an insertion queues the new edge's facts, the cells
  ``(slot, x, y)`` as seeds or the terminal facts on the worklist, and
  runs nothing.  A ``pairs`` read or a ``copy`` runs the queued work to
  its end.  Pairs only grow under insertions, so a query runs it only
  while its pair is absent, leaving the rest queued.  A ``ReachIndex``
  skips a seed whose edge was deleted since and runs its activations
  the same way.
* Stale: a deletion marks a read ``GrammarIndex`` stale.  A read
  ``ReachIndex`` goes stale only on a deletion its solve may have read:
  an opening or ``dot`` edge out of an active vertex, or a closing edge
  out of a demanded one (a closing seed that derives a pair demands the
  edge's tail).  The rules read edges nowhere else, and both sets only
  grow until a from-scratch solve, so any other deletion removes an
  edge no pair was derived from, and the index stays solved and exact:
  an update costs only what it can affect (Ramalingam & Reps, "On the
  computational complexity of dynamic graph problems", TCS 1996).  A
  stale index keeps its pairs and queued work.  Every rule fires under
  today's edges and no pair is dropped, so once that work has run, and
  a ``ReachIndex``'s demand set is closed, the pairs are a superset of
  the closure: the fixpoint is monotone in the edges.  So a stale index
  answers "no" when the queried pair is absent after that run (a
  ``ReachIndex`` first adds an inactive source to its demand set), and
  "yes" at once for an identity pair when the empty word derives, as it
  does in the bracket grammar.  Any other present pair drops the pairs
  and restarts the solve in place, through the first read, which the
  query stops at its pair; a ``pairs`` read restarts and runs to the
  end.  Either leaves the index solved.  After
  a restarted "yes", a pair the restarted solve lacks runs it to its
  end, where the stale pairs might have answered "no" at once.

``solve_cfl`` runs a ``GrammarIndex`` to its end.
``solve_dyck_wrap_only`` builds one on ``wrap_only_grammar``, the bracket
grammar without ``S -> S S``; that under-approximates (e.g. it misses the
chain labeled l1 l1bar l2 l2bar) and is kept so that the gap
concatenation closes stays observable.

``resolve_after_update`` is for callers that keep the old index: it
applies an insertion into a fresh index to a copy, and solves a deletion,
or any update of a stale index, afresh, running none of the stale rows'
seeds.

``run_replay`` answers an update script's queries through the index that
``maintained_index`` keeps for the chosen engine.
"""

from __future__ import annotations

import copy
import functools
from typing import Iterator, NamedTuple

from .alternating import solve_alternating
from .graphs import (Alphabet, Instance, Label, UpdateOp, apply_update, DOT,
                     label_slots)
from .one_letter import ParityIndex


class AlphabetMismatchError(ValueError):
    pass


class InstanceMismatchError(ValueError):
    pass


def _bits(x: int) -> Iterator[int]:
    """Positions of the set bits of ``x``, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _image(table: list[int], mask: int) -> int:
    """The union of ``table[i]`` over the set bits ``i`` of ``mask``: the
    row-at-a-time join of the closure."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def _edge_tables(inst: Instance):
    """Per slot (``graphs.label_slots``), the edge table of the graph's
    directed view, laid out as ``ReachIndex`` keeps it; per pair, the
    ``closers`` mask and the ``forward`` table of its opening edges'
    targets by source; per vertex, the ``outof`` count of its opening and
    ``dot`` out-edges and the ``into`` count of its closing and ``dot``
    in-edges.  One body writes and counts each directed edge, so an
    undirected edge, read both ways round, counts at both ends (a
    self-loop once)."""
    graph = inst.graph
    n, size = graph.vertex_count, graph.alphabet.size
    slots = label_slots(graph.alphabet)
    edges = [[0] * n for _ in range(2 * size)]
    edges.append([0] * n if graph.alphabet.kind == "neardyck" else [])
    closers = [0] * size
    forward = [[0] * n for _ in range(size)]
    outof, into = [0] * n, [0] * n
    for u, lab, v in (graph.edges if graph.directed
                      else graph.directed_edges()):
        s = slots[lab]
        # an opening label's table (an even slot's) holds sources by
        # target, a closing label's and dot's (-1 & 1 is 1) targets by
        # source
        if s & 1:
            edges[s][u] |= 1 << v
            into[v] += 1
            if s > 0:
                closers[s >> 1] |= 1 << u
            else:
                outof[u] += 1
        else:
            edges[s][v] |= 1 << u
            forward[s >> 1][u] |= 1 << v
            outof[u] += 1
    return edges, closers, forward, outof, into


class ReachIndex:
    """The closed pair set of an instance it owns, kept current under
    ``apply``.  ``edges[slot][x]`` holds each edge once, the way the rules
    read it: for an opening label the sources of ``x``'s incoming edges,
    for a closing label and for ``dot`` (slot -1, empty for a ``dyck``
    alphabet) the targets of ``x``'s outgoing ones.  The tables always hold
    the instance's edges, and only ``__init__`` builds them from it.  A
    label is resolved to its slot once, by ``apply`` or ``_edge_tables``
    through the alphabet's one ``graphs.label_slots`` table; everything
    past that reads the slot number, whose sign and parity say what the
    label is (even opens, odd closes, -1 is ``dot``).  ``forward[k][x]``
    holds the targets of ``x``'s outgoing opening edges of pair ``k``,
    which an activation reads.  ``rows`` is None until the first read;
    the module docstring gives the index's states and when each read runs
    the solve.  ``demand`` is the demand set and ``active`` the demanded
    vertices already activated; every bit of an active row, and every
    opening-edge target of an active vertex but those of queued seeds, is
    in ``demand``, and a row outside ``active`` is its identity bit.
    ``seeds`` lists the cells
    ``(slot, x, y)`` of the edges inserted since the last run, not yet
    joined with the rows.  ``pending[x]`` holds the bits row ``x`` gained
    that the wrap rule has not yet joined, and ``work`` lists the rows
    with pending bits.  ``stale`` rows may hold pairs the instance no
    longer derives.

    Two support masks let the rules skip bits that cannot contribute.
    ``closers[k]`` is the bitset of the vertices with an outgoing closing
    edge of pair ``k`` (counted from 0, the slot ``2k + 1``), kept exact
    by insertions, deletions and ``copy``; the wrap rule joins only
    ``delta & closers[k]``.  ``wide`` holds at least every vertex whose
    row has more than its identity bit, and concatenation expands only
    ``new & wide``.  It grows with the rows, and each from-scratch solve
    starts it from zero.

    ``_add`` relies on two invariants, which hold after every call of it
    and so at every read: ``cols`` is the exact transpose of ``rows``, and
    every row is closed (``rows[b]`` is a subset of ``rows[x]`` for each
    ``b`` in ``rows[x]``).  So every source ``x`` in ``cols[a]`` holds
    ``rows[a]``, and adding bits to row ``a`` touches each column once.
    It is called on active rows only, so the only inactive source in a
    column is the column's own vertex."""

    def __init__(self, inst: Instance):
        self._inst, self._ops = inst, []
        self._slots = label_slots(inst.graph.alphabet)
        (self.edges, self.closers, self.forward, self.outof,
         self.into) = _edge_tables(inst)
        self.stale, self.rows, self.seeds = False, None, []

    def _start(self):
        """Begin a from-scratch solve: identity rows, an empty demand set
        and nothing run; a row is joined with the edges when its vertex is
        activated."""
        n = self._inst.graph.vertex_count
        self.stale, self.wide, self.demand, self.active = False, 0, 0, 0
        self.rows = [1 << x for x in range(n)]
        self.cols = list(self.rows)
        self.pending, self.work, self.seeds = [0] * n, [], []

    def _activate(self, a: int):
        """Make ``a`` active and join its row with today's edges: its
        ``dot`` targets and, through each opening edge ``(a, q, w)``, the
        closing edges out of ``rows[w]``; every such ``w`` joins the
        demand set.  A row ``w`` that grows later goes on the worklist,
        whose wrap rule reaches ``a`` from then on."""
        self.active |= 1 << a
        rows, edges = self.rows, self.edges
        reach = edges[-1][a] if edges[-1] else 0
        demand = 0
        for forward, closing, closers in zip(self.forward, edges[1::2],
                                             self.closers):
            targets = forward[a]
            if targets:
                demand |= targets
                reach |= _image(closing, _image(rows, targets) & closers)
        self.demand |= demand
        if reach:
            self._add(a, reach)

    @property
    def inst(self) -> Instance:
        """The instance, with the updates since the last read applied."""
        for op in self._ops:
            self._inst = apply_update(self._inst, op)
        self._ops = []
        return self._inst

    def copy(self) -> "ReachIndex":
        """An independent index with the same answers and instance, every
        vertex demanded and its work run."""
        self._run()
        other = copy.copy(self)
        other._ops = list(self._ops)
        other.rows, other.cols = list(self.rows), list(self.cols)
        other.edges = [list(table) for table in self.edges]
        other.closers = list(self.closers)
        other.forward = [list(table) for table in self.forward]
        other.outof, other.into = list(self.outof), list(self.into)
        other.pending, other.work, other.seeds = [0] * len(self.rows), [], []
        return other

    def apply(self, op: UpdateOp):
        """Apply one update, checked against the edge tables (a rejected
        one raises the instance's own error and changes nothing).  The
        check proves the edge's bit absent for an insertion and present
        for a deletion, so one loop flips it in each cell (both ways round
        for an undirected edge), with the cell's ``forward`` and
        ``closers`` bits and its ends' ``outof`` and ``into`` counts.
        Once the index has rows, an insertion queues its cells as seeds,
        stale or not, leaving the rules to a read, and a deletion marks
        the index stale if the solve may have read the edge: an opening
        or ``dot`` edge out of an active vertex, or a closing edge out of
        a demanded one (out of either end of an undirected edge).  The
        rules read edges nowhere else, and both sets only grow until
        ``_start``, so any other deletion leaves the index exact."""
        if op.op == "query":
            return
        u, v = op.u, op.v
        n = self._inst.graph.vertex_count
        # the label's slot, None for a label outside the alphabet
        s = (self._slots[op.label] if op.op in ("ins", "del")
             and 0 <= u < n and 0 <= v < n else None)
        # the edge is bit y of row x of its slot's table, which holds
        # sources for an opening label (an even slot)
        x, y = (u, v) if s is None or s & 1 else (v, u)
        if not (s is not None and bool(self.edges[s][x] >> y & 1)
                == (op.op == "del")):
            apply_update(self.inst, op)  # raises the instance's error
            raise AssertionError(f"the edge tables accept {op!r}")
        self._ops.append(op)
        table = self.edges[s]
        directed = self._inst.graph.directed
        # an undirected edge also runs from v to u
        cells = [(x, y)] if directed or u == v else [(x, y), (y, x)]
        step = 1 if op.op == "ins" else -1
        for x, y in cells:
            # a closing or dot cell is the edge x -> y, an opening one the
            # edge y -> x, also bit x of row y of its pair's forward table
            table[x] ^= 1 << y
            if s & 1:
                self.into[y] += step
                if s < 0:
                    self.outof[x] += step
                elif table[x]:
                    self.closers[s >> 1] |= 1 << x
                else:
                    # x's last closing edge of this pair is gone
                    self.closers[s >> 1] &= ~(1 << x)
            else:
                self.forward[s >> 1][y] ^= 1 << x
                self.outof[y] += step
        # before the first read there is nothing to seed or mark: its
        # from-scratch solve reads today's tables
        if self.rows is None:
            return
        if op.op == "ins":
            self.seeds += [(s, x, y) for x, y in cells]
        elif not self.stale:
            # the rules read an edge out of its source u, or out of either
            # end of an undirected edge
            read = self.demand if s > 0 and s & 1 else self.active
            self.stale = bool(read >> u & 1 or not directed
                              and read >> v & 1)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The closed pairs, every vertex demanded (a stale index
        restarts its solve first)."""
        if self.stale:
            self.rows = None
        self._run()
        return frozenset((u, v) for u, row in enumerate(self.rows)
                         for v in _bits(row))

    def query(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is in the closed set; a pair outside the
        vertex range is not, and runs nothing.  Nor does a pair ``u != v``
        with no opening or ``dot`` edge out of ``u`` or no closing or
        ``dot`` edge into ``v``: a non-empty balanced word starts and ends
        with such letters.  Otherwise ``u`` joins the demand set, and the
        pending seeds, work and activations run only until the bit
        appears; a stale set bit other than an identity pair restarts the
        solve (see the module docstring)."""
        n = self._inst.graph.vertex_count
        if not (0 <= u < n and 0 <= v < n):
            return False
        if u != v and not (self.outof[u] and self.into[v]):
            return False
        rows = self.rows
        if rows is None or not rows[u] >> v & 1:
            self._run(u, 1 << v)
            if not self.rows[u] >> v & 1:
                return False
        if not self.stale or u == v:
            return True
        self.rows = None
        self._run(u, 1 << v)
        return bool(self.rows[u] >> v & 1)

    def _add(self, a: int, bits: int):
        """Add the pairs ``(a, b)`` for ``b`` in ``bits``, with everything
        concatenation derives from them."""
        rows = self.rows
        new = bits & ~rows[a]
        if not new:
            return
        # whatever reaches a now also reaches new and all it reaches; a row
        # outside wide is its identity bit, already in new
        new |= _image(rows, new & self.wide)
        # each source of a holds rows[a], so it gains only part of fresh
        # and afterwards holds all of it; every source is active, so
        # fresh joins the demand set
        fresh = new & ~rows[a]
        self.demand |= fresh
        cols, pending, work = self.cols, self.pending, self.work
        sources = cols[a]
        grown = 0
        while sources:
            bit = sources & -sources
            sources ^= bit
            x = bit.bit_length() - 1
            gained = fresh & ~rows[x]
            if not gained:
                continue
            rows[x] |= gained
            grown |= bit
            if not pending[x]:
                work.append(x)
            pending[x] |= gained
        # a source that gained nothing already held all of fresh
        while fresh:
            low = fresh & -fresh
            cols[low.bit_length() - 1] |= grown
            fresh ^= low
        self.wide |= grown

    def _seed(self, s: int, x: int, y: int):
        """Add what a recorded edge, bit ``y`` of row ``x`` of slot ``s``'s
        table, derives against the current pairs.  A ``dot`` edge (slot -1)
        is itself a pair.  A pair it would derive from an inactive vertex
        is left to that vertex's activation, which reads today's tables."""
        active = self.active
        if s < 0:
            if active >> x & 1:
                self._add(x, 1 << y)
        elif not s & 1:
            # edge (y, q, x), (x, w) in the set and (w, q-bar, b)  =>  (y, b)
            if not active >> y & 1:
                return
            self.demand |= 1 << x
            self._add(y, _image(self.edges[s + 1],
                                self.rows[x] & self.closers[s >> 1]))
        else:
            # edge (x, q-bar, y), (w, x) in the set and (a, q, w)  =>  (a, y)
            # a source in cols[y] already holds y
            srcs = (_image(self.edges[s - 1], self.cols[x]) & active
                    & ~self.cols[y])
            if srcs:
                # the pairs derived below read the edge, so its deletion
                # must mark the index stale: x may be an opening target
                # whose seed is still queued
                self.demand |= 1 << x
            bit = 1 << y
            while srcs:
                low = srcs & -srcs
                self._add(low.bit_length() - 1, bit)
                srcs ^= low

    def _run(self, u: int | None = None, bit: int = 0):
        """Add ``u`` to the demand set, or every vertex when ``u`` is None;
        join the pending seeds with the rows, then close the worklist,
        activating the highest demanded vertex not yet active whenever it
        empties.  With a target ``bit``, stop before the next seed, pop or
        activation once ``rows[u]`` holds it, leaving the rest to resume.
        With no rows it starts the from-scratch solve over today's
        tables."""
        if self.rows is None:
            self._start()
        rows, pending, work, seeds = (self.rows, self.pending, self.work,
                                      self.seeds)
        if u is None:
            u, self.demand = 0, (1 << len(rows)) - 1
        else:
            self.demand |= 1 << u
        while seeds and not rows[u] & bit:
            s, x, y = seeds.pop()
            # an edge deleted since its insertion derives nothing
            if self.edges[s][x] >> y & 1:
                self._seed(s, x, y)
        if not work and not self.demand & ~self.active:
            return
        # no edge changes while the fixpoint runs, so closers is read once
        wraps = list(zip(self.edges[:-1:2], self.edges[1::2], self.closers))
        add, active = self._add, self.active
        while not rows[u] & bit:
            if not work:
                todo = self.demand & ~active
                if not todo:
                    return
                self._activate(todo.bit_length() - 1)
                active = self.active
                continue
            x = work.pop()
            delta = pending[x]
            pending[x] = 0
            # wrap rule: (x, v) new, edges (a, q, x) and (v, q-bar, b), for
            # an active a; an inactive one joins rows[x] when activated
            for opening, closing, closers in wraps:
                srcs = opening[x] & active
                if not srcs:
                    continue
                reach = _image(closing, delta & closers)
                if not reach:
                    continue
                while srcs:
                    low = srcs & -srcs
                    add(low.bit_length() - 1, reach)
                    srcs ^= low


def solve_dyck(inst: Instance) -> ReachIndex:
    return ReachIndex(inst)


def resolve_after_update(index: ReachIndex, inst: Instance,
                         op: UpdateOp) -> ReachIndex:
    """A new index for ``inst`` after one update, leaving ``index`` as it
    was: an insertion into a fresh index is applied to a copy; a deletion,
    or any update of a stale index, is solved afresh on the updated
    instance (a rejected update raises either way)."""
    if index.inst != inst:
        raise InstanceMismatchError("index does not match the instance")
    if op.op == "query":
        return index
    if op.op == "ins" and not index.stale:
        new = index.copy()
        new.apply(op)
        return new
    return solve_dyck(apply_update(index.inst, op))


# ---------------------------------------------------------------------------
# Generic engine over grammars in binary normal form

class _GrammarFields(NamedTuple):
    nonterminals: tuple[str, ...]
    start: str
    nullable: frozenset[str]
    terminal_rules: tuple[tuple[str, Label], ...]  # (A, a) for A -> a
    binary_rules: tuple[tuple[str, str, str], ...]  # (A, B, C) for A -> B C
    alphabet: Alphabet


class Grammar(_GrammarFields):
    """Context-free grammar in binary normal form: every production is
    A -> epsilon, A -> a, or A -> B C."""

    __slots__ = ()

    def __new__(cls, nonterminals, start, nullable, terminal_rules,
                binary_rules, alphabet):
        nts = set(nonterminals)
        if start not in nts:
            raise ValueError("start symbol is not a nonterminal")
        for a in [*nullable, *(b for rule in binary_rules for b in rule)]:
            if a not in nts:
                raise ValueError(f"unknown nonterminal {a!r}")
        for a, lab in terminal_rules:
            if a not in nts or not alphabet.contains(lab):
                raise ValueError(f"bad terminal rule {a} -> {lab.token()}")
        return super().__new__(cls, nonterminals, start, nullable,
                               terminal_rules, binary_rules, alphabet)


@functools.lru_cache
def bracket_grammar(alphabet: Alphabet) -> Grammar:
    """The bracket grammar of either alphabet, normalized by one table over
    its opening labels ``q`` (``l_k`` or ``v_i``, numbered ``j`` = k or i):
    S -> eps | S S | O_j K_j ;  K_j -> S C_j ;  O_j -> q ;  C_j -> q-bar,
    and S -> dot for a ``neardyck`` alphabet.  Memoized: a grammar is
    immutable."""
    nts = ["S"]
    terminal = [("S", DOT)] if alphabet.kind == "neardyck" else []
    binary = [("S", "S", "S")]
    for q in alphabet.open_labels():
        o, c, k = f"O{q.index}", f"C{q.index}", f"K{q.index}"
        nts += [o, c, k]
        terminal += [(o, q), (c, q.matched())]
        binary += [("S", o, k), (k, "S", c)]
    return Grammar(tuple(nts), "S", frozenset({"S"}), tuple(terminal),
                   tuple(binary), alphabet)


def dyck_grammar(n: int) -> Grammar:
    """The bracket grammar over ``n`` pairs."""
    return bracket_grammar(Alphabet("dyck", n))


def near_dyck_grammar(vertex_count: int) -> Grammar:
    """The per-vertex bracket grammar over ``vertex_count`` vertices."""
    return bracket_grammar(Alphabet("neardyck", vertex_count))


@functools.lru_cache
def wrap_only_grammar(alphabet: Alphabet) -> Grammar:
    """The bracket grammar without ``S -> S S``: its walks are empty, one
    ``dot`` edge, or a bracket pair around one.  Memoized like
    ``bracket_grammar``."""
    grammar = bracket_grammar(alphabet)
    rules = tuple(r for r in grammar.binary_rules if r != ("S", "S", "S"))
    return grammar._replace(binary_rules=rules)


class GrammarIndex:
    """All-pairs grammar reachability on an instance it owns, kept current
    under ``apply``: the worklist closure of Reps ("Program analysis via
    graph reachability", 1998).  ``succ[A][u]`` holds the ``v`` with
    ``(u, v)`` derived from ``A`` and ``pred[A][v]`` the ``u``; ``work``
    holds the facts ``(A, u, v)`` not yet joined with the rest.
    ``by_left[B]`` lists the ``(A, C)`` of the rules A -> B C,
    ``by_right[C]`` the ``(A, B)``, ``by_label[a]`` the ``A`` of A -> a.
    ``succ`` is None until the first read; the module docstring gives the
    index's states and when each read runs the worklist.  ``stale`` facts
    may hold pairs the instance no longer derives."""

    def __init__(self, inst: Instance, grammar: Grammar):
        if inst.graph.alphabet != grammar.alphabet:
            raise AlphabetMismatchError(
                "grammar terminals do not match the instance")
        self.inst, self.grammar = inst, grammar
        self.stale, self.succ = False, None
        self.by_left, self.by_right, self.by_label = {}, {}, {}
        for a, b, c in grammar.binary_rules:
            self.by_left.setdefault(b, []).append((a, c))
            self.by_right.setdefault(c, []).append((a, b))
        for a, lab in grammar.terminal_rules:
            self.by_label.setdefault(lab, []).append(a)

    def _start(self):
        """Begin a from-scratch solve of ``inst``: the identity pairs of
        every nullable nonterminal and every edge's terminal facts on the
        worklist, nothing run."""
        n = self.inst.graph.vertex_count
        nts = self.grammar.nonterminals
        self.stale = False
        self.succ = {a: [set() for _ in range(n)] for a in nts}
        self.pred = {a: [set() for _ in range(n)] for a in nts}
        self.work = []
        for a in self.grammar.nullable:
            for x in range(n):
                self._add(a, x, x)
        for u, lab, v in self.inst.graph.directed_edges():
            for a in self.by_label.get(lab, ()):
                self._add(a, u, v)

    def apply(self, op: UpdateOp):
        """Apply one update to the owned instance (a rejected update raises
        and changes nothing).  Once the index has been read, an insertion
        queues the edge's terminal facts, both ways round for an
        undirected edge, and a deletion marks the index stale."""
        self.inst = apply_update(self.inst, op)
        if self.succ is None:
            return
        if op.op == "del":
            self.stale = True
        elif op.op == "ins":
            ends = [(op.u, op.v)]
            if not self.inst.graph.directed and op.u != op.v:
                ends.append((op.v, op.u))
            for u, v in ends:
                for a in self.by_label.get(op.label, ()):
                    self._add(a, u, v)

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The pairs derived from the start symbol, the worklist run to its
        end (a stale index restarts its solve first)."""
        if self.stale:
            self.succ = None
        self._run()
        return _pair_set(self.succ[self.grammar.start])

    def query(self, u: int, v: int) -> bool:
        """Whether ``(u, v)`` is derived from the start symbol; a pair
        outside the vertex range is not, and runs nothing.  The worklist
        runs only until the pair appears; a stale present pair other than
        a nullable start's identity pair restarts the solve (see the module
        docstring)."""
        vertices = range(self.inst.graph.vertex_count)
        if u not in vertices or v not in vertices:
            return False
        start = self.grammar.start
        if self.succ is None or v not in self.succ[start][u]:
            self._run(u, v)
            if v not in self.succ[start][u]:
                return False
        if not self.stale or (u == v and start in self.grammar.nullable):
            return True
        self.succ = None
        self._run(u, v)
        return v in self.succ[start][u]

    def _add(self, a: str, u: int, v: int):
        """Derive ``(u, v)`` from ``a``, queued unless already derived."""
        targets = self.succ[a][u]
        if v not in targets:
            targets.add(v)
            self.pred[a][v].add(u)
            self.work.append((a, u, v))

    def _run(self, u: int = 0, v: int | None = None):
        """Close the worklist, or with a target ``v`` stop before the next
        pop once the start symbol derives ``(u, v)``, leaving the rest to
        resume.  With no facts it starts the from-scratch solve of
        ``inst``."""
        if self.succ is None:
            self._start()
        succ, pred, work, add = self.succ, self.pred, self.work, self._add
        by_left, by_right = self.by_left, self.by_right
        goal = () if v is None else succ[self.grammar.start][u]
        while work and v not in goal:
            b, x, y = work.pop()
            # (x, y) from B and (y, w) from C  =>  (x, w) from A -> B C
            for a, c in by_left.get(b, ()):
                for w in succ[c][y] - succ[a][x]:
                    add(a, x, w)
            # (w, x) from C and (x, y) from B  =>  (w, y) from A -> C B
            for a, c in by_right.get(b, ()):
                for w in pred[c][x] - pred[a][y]:
                    add(a, w, y)


def _pair_set(rows: list[set[int]]) -> frozenset[tuple[int, int]]:
    return frozenset((u, v) for u, targets in enumerate(rows) for v in targets)


def solve_cfl(inst: Instance, grammar: Grammar) -> dict[str, frozenset[tuple[int, int]]]:
    """All-pairs grammar reachability: for each nonterminal A, the pairs
    (u, v) joined by a path whose label derives from A."""
    index = GrammarIndex(inst, grammar)
    index._run()
    return {a: _pair_set(rows) for a, rows in index.succ.items()}


def solve_dyck_wrap_only(inst: Instance) -> frozenset[tuple[int, int]]:
    """The pairs of the instance's bracket grammar without ``S -> S S``:
    walks that are empty, one ``dot`` edge, or a bracket pair around one."""
    return GrammarIndex(inst, wrap_only_grammar(inst.graph.alphabet)).pairs


# ---------------------------------------------------------------------------
# Replays: one maintained index through an update script

ENGINES = ("dyck", "wrap-only", "cfl", "prop1")


def maintained_index(inst: Instance, engine: str):
    """The index ``engine`` keeps through a script, owning ``inst``, or
    None for ``alt``, which answers from scratch: alternating reachability
    is not monotone in the edges.  Any other name raises ``ValueError``.
    ``cfl`` and ``wrap-only`` keep a grammar index, which shares no code
    with ``dyck``'s.  The solvers are looked up at each call, not in a
    table built at import, so a wrapper patched onto ``solve_dyck`` is the
    one that runs."""
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
               engine: str = "dyck") -> list[bool]:
    """Apply a script, answering every query with the chosen engine; the
    answers in order.  An engine with an index keeps one through the
    script; ``alt`` re-answers from scratch.  An unknown engine, or an
    instance the engine rejects, fails before any update."""
    answers = []
    index = maintained_index(inst, engine)
    for op in script:
        if op.op == "query":
            answers.append(solve_alternating(inst)[0] if index is None
                           else index.query(inst.source, inst.sink))
        elif index is None:
            inst = apply_update(inst, op)
        else:
            index.apply(op)
    return answers
