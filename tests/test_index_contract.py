"""One state machine for the maintained-index contract: every engine's
index that applies to a random instance is driven through one random
script of insertions, deletions, bursts of updates with no read between
them, queries, ``pairs`` reads and copies, and checked after every step
against a from-scratch model it shares no code with; the bitset index is
also resolved through ``resolve_after_update``.  Hypothesis shrinks a
failure to a minimal script."""

import copy
import random

import pytest
from hypothesis import event, settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize,
                                 invariant, precondition, rule)

from dycklab import (InstanceMismatchError, ReachIndex, UpdateError,
                     UpdateOp, apply_update, resolve_after_update, solve_cfl,
                     solve_dyck)
from dycklab.saturate import ENGINES, bracket_grammar, maintained_index

from util import (mask_faults, random_dyck_instance, random_neardyck_instance,
                  reference_wrap_only_pairs)


def model_pairs(engine, inst):
    """The pairs ``engine`` must answer on ``inst``, from an engine that
    shares no code with its index: the grammar index is checked against
    the bitset closure and the plain wrap fixpoint, the bitset and parity
    indexes against the grammar engine."""
    if engine == "wrap-only":
        return reference_wrap_only_pairs(inst)
    if engine == "cfl":
        return frozenset(solve_dyck(inst).pairs)
    return solve_cfl(inst, bracket_grammar(inst.graph.alphabet))["S"]


def held_pairs(index):
    """The pairs an index holds now, read without restarting a stale one:
    from a deep copy that first runs the work its insertions left pending,
    so the index itself keeps that work queued for the next rule."""
    index = copy.deepcopy(index)
    index._run()
    if isinstance(index, ReachIndex):
        return {(u, v) for u, row in enumerate(index.rows)
                for v in range(row.bit_length()) if row >> v & 1}
    start = index.grammar.start
    return {(u, v) for u, targets in enumerate(index.succ[start])
            for v in targets}


class MaintainedIndexes(RuleBasedStateMachine):

    @initialize(seed=st.integers(min_value=0, max_value=10**9),
                near=st.booleans(), directed=st.booleans(),
                pairs=st.sampled_from((1, 2)))
    def build(self, seed, near, directed, pairs):
        rng = random.Random(seed)
        if near:
            self.inst = random_neardyck_instance(rng, max_vertices=4,
                                                 density=0.12,
                                                 directed=directed)
        else:
            self.inst = random_dyck_instance(rng, max_vertices=5,
                                             pairs=pairs, density=0.2,
                                             directed=directed)
        self.indexes = {}
        for engine in ENGINES:
            try:
                self.indexes[engine] = maintained_index(self.inst, engine)
            except ValueError:  # prop1 applies to undirected one-pair only
                pass
        self.models = {}

    def expected(self, engine):
        if engine not in self.models:
            self.models[engine] = model_pairs(engine, self.inst)
        return self.models[engine]

    def _apply(self, op):
        """Apply ``op`` to every index and the instance."""
        dyck = self.indexes["dyck"]
        read = dyck.rows is not None and not dyck.stale
        for index in self.indexes.values():
            index.apply(op)
        self.inst = apply_update(self.inst, op)
        if read and op.op == "del" and not dyck.stale:
            event("deletion left a read index fresh")

    def _update(self, op, data):
        """Apply ``op`` everywhere, then ask each stale index a pair it
        holds, so that the next update often lands on a solve the query
        restarted and stopped at its pair (an identity pair restarts
        nothing)."""
        self._apply(op)
        self.models = {}
        self.query_a_held_pair(data)

    def _insertion(self, data):
        """An insertion of an absent edge, or None if every edge is in."""
        g = self.inst.graph
        n = g.vertex_count
        absent = [(u, lab, v) for u in range(n) for v in range(n)
                  for lab in g.alphabet.labels() if not g.has_edge(u, lab, v)]
        return UpdateOp.ins(*data.draw(st.sampled_from(absent))) if absent \
            else None

    def _deletion(self, data):
        return UpdateOp.delete(
            *data.draw(st.sampled_from(sorted(self.inst.graph.edges))))

    def _rejected(self, data):
        """An update the instance rejects: an endpoint out of range, or an
        insertion of an edge already in."""
        g = self.inst.graph
        lab = data.draw(st.sampled_from(list(g.alphabet.labels())))
        rejected = [UpdateOp.ins(0, lab, g.vertex_count),
                    UpdateOp.delete(g.vertex_count, lab, 0)]
        rejected += [UpdateOp.ins(*edge) for edge in sorted(g.edges)]
        return data.draw(st.sampled_from(rejected))

    @rule(data=st.data())
    def insert(self, data):
        op = self._insertion(data)
        if op:
            self._update(op, data)

    @precondition(lambda self: self.inst.graph.edges)
    @rule(data=st.data())
    def delete(self, data):
        self._update(self._deletion(data), data)

    def _insertion_or_deletion(self, data):
        op = None
        if not self.inst.graph.edges or data.draw(st.booleans()):
            op = self._insertion(data)
        return op or self._deletion(data)

    @rule(data=st.data(), size=st.integers(min_value=2, max_value=12))
    def burst(self, data, size):
        """Updates with no read between them, so that the insertions' work
        piles up, on fresh or stale rows and on a solve an earlier query
        stopped at its pair; then reads."""
        dyck = self.indexes["dyck"]
        if dyck.rows is not None and dyck.work:
            event("burst on a solve stopped with work queued")
        if dyck.stale and dyck.seeds:
            event("burst on stale rows with seeds pending")
        for _ in range(size):
            self._apply(self._insertion_or_deletion(data))
        self.models = {}
        self.query_a_held_pair(data)
        self.query(data)

    @rule(data=st.data())
    def reject(self, data):
        """An update the instance rejects raises and changes no index."""
        op = self._rejected(data)
        for index in self.indexes.values():
            with pytest.raises(UpdateError):
                index.apply(op)

    @rule(data=st.data())
    def resolve(self, data):
        """``resolve_after_update`` on the bitset index gives a new index
        exact on the updated instance, and leaves the index it was given
        on ``self.inst``; it raises on a rejected update and on an index
        that does not match the instance."""
        index = self.indexes["dyck"]
        op = self._insertion_or_deletion(data)
        after = apply_update(self.inst, op)
        new = resolve_after_update(index, self.inst, op)
        assert new.inst == after
        assert new.pairs == model_pairs("dyck", after)
        assert mask_faults(new) == []
        assert index.inst == self.inst
        u, v = data.draw(st.sampled_from(sorted(held_pairs(index))))
        assert index.query(u, v) == ((u, v) in self.expected("dyck")), (u, v)
        with pytest.raises(UpdateError):
            resolve_after_update(index, self.inst, self._rejected(data))
        with pytest.raises(InstanceMismatchError):
            resolve_after_update(index, after, op)

    @rule(data=st.data())
    def query(self, data):
        n = self.inst.graph.vertex_count
        u = data.draw(st.integers(min_value=-1, max_value=n))
        v = data.draw(st.integers(min_value=-1, max_value=n))
        dyck = self.indexes["dyck"]
        if (u != v and 0 <= u < n and 0 <= v < n
                and not (dyck.outof[u] and dyck.into[v])):
            event("query answered by endpoint counts")
        for engine, index in self.indexes.items():
            index.apply(UpdateOp.query())
            assert index.query(u, v) == ((u, v) in self.expected(engine)), \
                (engine, u, v)

    @rule(data=st.data())
    def query_a_held_pair(self, data):
        """A pair a stale index still holds, the only kind of query that
        restarts its solve."""
        for engine, index in self.indexes.items():
            if getattr(index, "stale", False):
                u, v = data.draw(st.sampled_from(sorted(held_pairs(index))))
                assert index.query(u, v) == ((u, v) in self.expected(engine)), \
                    (engine, u, v)

    @rule()
    def query_every_pair(self):
        """Every pair in turn, so that later queries land on a solve an
        earlier one restarted and left unfinished."""
        n = self.inst.graph.vertex_count
        for engine, index in self.indexes.items():
            expected = self.expected(engine)
            for u in range(n):
                for v in range(n):
                    assert index.query(u, v) == ((u, v) in expected), \
                        (engine, u, v)

    @rule()
    def read_pairs(self):
        for engine, index in self.indexes.items():
            if hasattr(index, "pairs"):
                assert index.pairs == self.expected(engine), engine
                assert not index.stale, engine

    @rule()
    def copy(self):
        for engine, index in self.indexes.items():
            if hasattr(index, "copy"):
                self.indexes[engine] = index.copy()

    @invariant()
    def indexes_own_the_instance(self):
        for engine, index in self.indexes.items():
            assert index.inst == self.inst, engine

    @invariant()
    def stale_pairs_over_approximate(self):
        for engine, index in self.indexes.items():
            if getattr(index, "stale", False):
                assert self.expected(engine) <= held_pairs(index), engine

    @invariant()
    def bitsets_match_the_edges(self):
        assert mask_faults(self.indexes["dyck"]) == []


MaintainedIndexes.TestCase.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None)
TestMaintainedIndexes = MaintainedIndexes.TestCase
