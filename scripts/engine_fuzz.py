#!/usr/bin/env python3
"""The bitset index's one seeded driver: fuzz the saturation solver against
the grammar engine on random labeled graphs, directed and undirected, over
both alphabets: every other sample is a per-vertex-bracket (near-Dyck)
instance, checked against the near-Dyck grammar; the rest draw one or two
bracket pairs.  Every bracket-pair sample, and every near-Dyck sample of
at most ``NEAR_ORACLE_VERTICES`` vertices, is also checked against the
walk oracle bounded at ``ORACLE_LEN`` edges, and every sample's wrap-only
pairs must lie within the solver's.

Each sample then replays a random mixed insert/delete script twice:
through ``resolve_after_update``, checked against its grammar after every
update, and through ``ReachIndex.apply`` on one index, checked after every
third update and at the end, so that insertions also land on an index that
a deletion has left stale.  After every update the index passed to
``resolve_after_update`` must still pass ``mask_faults`` against the
instance before the update, so that the new index shares no list with it.
After every update the index driven by ``apply`` is first asked
``query`` on the marked pair and on random pairs, each answer checked
against the grammar, so that answers are checked while its insertions'
seeds are still pending, while a fresh query has stopped at its pair with
the rest of the work still queued, and while it is stale.  A stale query
on a set bit other than an identity pair restarts the solve, so an index
still stale after a query must lack the queried bit.  A query ``(u, v)``
with ``u != v`` and no opening or ``dot`` edge out of ``u``, or no closing
or ``dot`` edge into ``v``, is answered by the endpoint counts and may
leave the index unread; a deletion of an edge the solve never read leaves
a read index fresh, and the answers after it are checked like any other.
If it is still stale after its queries, its rows, once the seeds and work
its insertions left pending have run on a deep copy with every vertex
demanded, must hold every pair the grammar derives; the index itself keeps
that work for its next queries.

A fourth ``ReachIndex`` is first read only at a random step of the script:
until then each update may only edit its edge tables (no rows, no seed, no
stale mark), and its first query and ``pairs`` read, which solve the
tables as they are then, are checked against the grammar.  A fifth
``ReachIndex`` is asked one pair per update, with a source outside its
demand set when it has one, and is never read whole, so that its demand
set stays partial across deletions; once that set holds every vertex, a
new index on the instance takes its place.  After each of its queries, a
deep copy of it, read and fresh, takes the edge ``(a, q, x)`` from an
active ``a`` to an undemanded ``x`` and then ``(x, q-bar, b)`` with
``(a, b)`` absent, with no read between.  Seeds pop last-in first, so the
query ``(a, b)`` runs the closing seed first and stops at the pair it
derives, the opening seed still queued; the closing edge is then deleted
and the copy's answers checked against the grammar.  The summary counts
the queries answered while the index held seeds not yet run, the fresh
queries answered with work still queued, the stale queries that restarted
the solve, the fifth index's queries whose source was outside its demand
set, on solved rows and on stale ones, the queries answered by the
endpoint counts, the deletions that left a read index fresh, the first
reads that came after a burst of updates with a deletion in it, and the
copies whose query stopped with the opening seed queued; the run fails if
any of these is 0.

After every update the bitset indexes' edge tables and support masks are
checked too, against the current edges (``tests/util.mask_faults``): each
table of ``edges`` must hold exactly the directed edges of its label (the
``dot`` table of a ``dyck`` alphabet none), each ``closers[k]`` must be
exactly the vertices with an outgoing closing edge of pair ``k``, and
``wide`` must hold every row with more than its identity bit; the demand
set must hold each active row's bits and opening-edge targets, an inactive
row must be its identity bit, ``outof`` and ``into`` must equal a recount
of the edges, every row must be closed and ``cols`` must be the exact
transpose of ``rows``.  The index driven by ``apply`` is checked so after
every one of its queries too, and both maintained indexes after every
whole read; the summary counts the checks of that index made with seeds
pending on stale rows, and on the rows of a solve that a stale query
restarted, and the run fails if either is 0.

The same script also drives a third index, the grammar engine's own
``GrammarIndex`` on the sample's bracket grammar: after every update it is
asked the marked pair and random pairs, each answer checked against the
from-scratch grammar engine and against the bitset index that
``resolve_after_update`` keeps.  While it is stale, its pairs, once a
deep copy has run the work its insertions queued, must hold every pair the
from-scratch engine derives, and a stale query on a present pair other
than an identity pair must restart its solve.  The summary also counts
the grammar queries answered fresh with work still queued and the stale
ones that restarted the solve; the run fails if either is 0.

Usage: python3 scripts/engine_fuzz.py [--samples N] [--seed S]
                                      [--max-vertices V]
"""

import argparse
import copy
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from dycklab import (EnumerationBudget, GrammarIndex, UpdateOp, apply_update,
                     brute_dyck_reach, resolve_after_update,
                     serialize_updates, solve_cfl, solve_dyck,
                     solve_dyck_wrap_only)
from dycklab.saturate import bracket_grammar
from util import (mask_faults, random_dyck_instance, random_neardyck_instance,
                  random_script)

SCRIPT_OPS = 20  # updates replayed per sample through the incremental route
ORACLE_LEN = 8  # walk-length budget of the brute-force check
LIVE_CHECK_EVERY = 3  # updates between checks of the index driven by apply
RANDOM_QUERIES = 4  # random pairs asked after each update, besides the mark
# the walk oracle's stacks range over the open labels, |V| of them on a
# near-Dyck sample, so larger near-Dyck samples would dwarf the rest
NEAR_ORACLE_VERTICES = 6


def closing_tail(index, inst, expected, grammar, rng):
    """Whether a deep copy of the read, fresh ``index`` on ``inst``
    reached the state where a closing seed derived the queried pair with
    the opening seed queued, and the copy's first wrong answer after the
    closing edge's deletion, or None.  ``expected`` holds the grammar's
    pairs on ``inst``."""
    n = inst.graph.vertex_count
    active = [x for x in range(n) if index.active >> x & 1]
    undemanded = [x for x in range(n) if not index.demand >> x & 1]
    if not (active and undemanded):
        return False, None
    a, x = rng.choice(active), rng.choice(undemanded)
    q = rng.choice(list(inst.graph.alphabet.open_labels()))
    ends = [b for b in range(n) if (a, b) not in expected
            and not inst.graph.has_edge(x, q.matched(), b)]
    if not ends or inst.graph.has_edge(a, q, x):
        return False, None
    b = rng.choice(ends)
    opening = UpdateOp.ins(a, q, x)
    path = f"{a} -{q.token()}-> {x} -{q.matched().token()}-> {b}"
    probe = copy.deepcopy(index)
    probe.apply(opening)
    probe.apply(UpdateOp.ins(x, q.matched(), b))
    # the path is balanced
    if not probe.query(a, b):
        return False, f"query({a}, {b}) after inserting {path}"
    stopped = bool(probe.seeds)
    probe.apply(UpdateOp.delete(x, q.matched(), b))
    want = solve_cfl(apply_update(inst, opening), grammar)["S"]
    if probe.query(a, b) != ((a, b) in want):
        return stopped, f"query({a}, {b}) after {path} lost its last edge"
    if probe.pairs != want:
        return stopped, f"pairs after {path} lost its last edge"
    return stopped, None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-vertices", type=int, default=10)
    args = ap.parse_args()

    rng = random.Random(args.seed)
    gaps = grammar_queries = grammar_stale = 0
    grammar_stopped = grammar_restarts = 0
    live_queries = pending_queries = stopped_queries = late_reads = 0
    restarts = outside_solved = outside_stale = 0
    endpoint_queries = fresh_deletions = tails = 0
    # mask_faults checks of the apply route's index with seeds pending, on
    # stale rows and on the rows of a solve a stale query restarted
    stale_checks = restart_checks = 0
    # the closing-seed leg draws from its own stream, so that the other
    # legs draw what they drew without it
    tail_rng = random.Random(f"closing tail {args.seed}")
    oracle_checked = {"dyck": 0, "neardyck": 0}
    t0 = time.monotonic()
    for i in range(args.samples):
        if i % 2:
            # the near-Dyck alphabet has 2|V| + 1 labels, so sparser
            inst = random_neardyck_instance(rng,
                                            max_vertices=args.max_vertices,
                                            density=rng.uniform(0.01, 0.1),
                                            directed=rng.random() < 0.5)
        else:
            inst = random_dyck_instance(rng, max_vertices=args.max_vertices,
                                        pairs=rng.choice((1, 2)),
                                        density=rng.uniform(0.05, 0.4),
                                        directed=rng.random() < 0.5)
        grammar = bracket_grammar(inst.graph.alphabet)
        full = solve_dyck(inst)
        full_pairs = full.pairs
        if full_pairs != solve_cfl(inst, grammar)["S"]:
            print(f"MISMATCH sample {i}: saturation vs grammar engine")
            return 1
        kind = grammar.alphabet.kind
        if kind == "dyck" or inst.graph.vertex_count <= NEAR_ORACLE_VERTICES:
            brute, _ = brute_dyck_reach(inst, EnumerationBudget(ORACLE_LEN))
            if not brute <= full_pairs:
                print(f"MISMATCH sample {i}: oracle found a pair the solver "
                      f"missed")
                return 1
            oracle_checked[kind] += 1
        wrap = solve_dyck_wrap_only(inst)
        if not wrap <= full_pairs:
            print(f"MISMATCH sample {i}: wrap-only exceeded the full solver")
            return 1
        gaps += wrap != full_pairs
        index, live = full, solve_dyck(inst)
        # whether live's rows are those of a solve that a stale query
        # restarted, not yet read whole or marked stale again
        restarted = False
        gram = GrammarIndex(inst, grammar)
        # an index first read at a random step, after a burst of updates
        late, late_deleted = solve_dyck(inst), False
        late_read = rng.randint(1, SCRIPT_OPS)
        # an index asked one pair per update and never read whole, so that
        # its demand set stays partial across deletions; once it holds
        # every vertex, a new index on the instance takes its place
        sparse = solve_dyck(inst)
        for step, op in enumerate(random_script(rng, inst, ops=SCRIPT_OPS,
                                                query_rate=0.0), start=1):
            passed, before = index, inst
            index = resolve_after_update(index, inst, op)
            read = live.rows is not None and not live.stale
            live.apply(op)
            fresh_deletions += read and op.op == "del" and not live.stale
            restarted &= not live.stale
            gram.apply(op)
            inst = apply_update(inst, op)
            expected = solve_cfl(inst, grammar)["S"]
            n = inst.graph.vertex_count
            where = (f"MISMATCH sample {i} step {step} "
                     f"({serialize_updates([op]).strip()}): ")
            if step <= late_read:
                late.apply(op)
                late_deleted |= op.op == "del"
                faults = mask_faults(late, inst)
                if late.rows is not None or late.seeds or late.stale:
                    faults.append("an update before the first read solved, "
                                  "seeded or marked it")
                if faults:
                    print(f"{where}index not yet read: {faults[0]}")
                    return 1
            if step == late_read:
                u, v = rng.randrange(n), rng.randrange(n)
                if (late.query(u, v) != ((u, v) in expected)
                        or late.pairs != expected):
                    print(f"{where}first read of an index after a burst of "
                          f"updates vs grammar engine")
                    return 1
                late_reads += late_deleted
            read = sparse.rows is not None and not sparse.stale
            sparse.apply(op)
            fresh_deletions += read and op.op == "del" and not sparse.stale
            # a source outside the demand set, when there is one
            undemanded = [x for x in range(n) if sparse.rows is not None
                          and not sparse.demand >> x & 1]
            u, v = rng.choice(undemanded or range(n)), rng.randrange(n)
            was_stale = sparse.stale
            if sparse.query(u, v) != ((u, v) in expected):
                print(f"{where}query({u}, {v}) of an index asked one pair "
                      f"per update vs grammar engine")
                return 1
            faults = mask_faults(sparse)
            if faults:
                print(f"{where}index asked one pair per update: {faults[0]}")
                return 1
            if undemanded:
                outside_stale += was_stale and u != v
                outside_solved += not was_stale
            if sparse.rows is not None and not sparse.stale:
                stopped, fault = closing_tail(sparse, inst, expected, grammar,
                                              tail_rng)
                if fault:
                    print(f"{where}closing-seed tail: {fault} vs grammar "
                          f"engine")
                    return 1
                tails += stopped
            # an endpoint "no" may leave the index unread
            if sparse.rows is not None and sparse.demand == (1 << n) - 1:
                sparse = solve_dyck(inst)
            for route, maintained in (("resolve_after_update", index),
                                      ("apply", live)):
                faults = mask_faults(maintained)
                if faults:
                    print(f"{where}index maintained by {route}: {faults[0]}")
                    return 1
            stale_checks += bool(live.stale and live.seeds)
            restart_checks += bool(restarted and live.seeds)
            asked = [(inst.source, inst.sink)] + [
                (rng.randrange(n), rng.randrange(n))
                for _ in range(RANDOM_QUERIES)]
            for u, v in asked:
                endpoint = u != v and not (live.outof[u] and live.into[v])
                # the endpoint counts answer before the rows are read
                stale = live.stale and u != v and not endpoint
                seeded = bool(live.seeds)
                endpoint_queries += endpoint
                answer = live.query(u, v)
                if answer != ((u, v) in expected):
                    print(f"{where}query({u}, {v}) vs grammar engine")
                    return 1
                live_queries += 1
                pending_queries += seeded
                # an endpoint "no" may leave the index unread
                stopped_queries += bool(live.rows is not None
                                        and not live.stale and live.work)
                # stale rows only grow, so a set bit, set before the query
                # or by its run of the pending seeds, must restart the solve
                if stale and live.stale and live.rows[u] >> v & 1:
                    print(f"{where}query({u}, {v}): a stale set bit left the "
                          f"index stale")
                    return 1
                restarts += stale and not live.stale
                restarted |= stale and not live.stale
                faults = mask_faults(live)
                if faults:
                    print(f"{where}query({u}, {v}) of the index maintained "
                          f"by apply: {faults[0]}")
                    return 1
                stale_checks += bool(live.stale and live.seeds)
                restart_checks += bool(restarted and live.seeds)
            if live.stale:
                # close a deep copy's rows under the pending insertions,
                # every vertex demanded, so that the index keeps its work
                closed = copy.deepcopy(live)
                closed._run()
                if not all(closed.rows[u] >> v & 1 for u, v in expected):
                    print(f"MISMATCH sample {i} step {step} "
                          f"({serialize_updates([op]).strip()}): "
                          f"stale rows miss a pair of the grammar engine")
                    return 1
            if gram.stale:
                # run a deep copy's worklist to its end, so that the index
                # keeps the work its insertions queued
                closed = copy.deepcopy(gram)
                closed._run()
                held = closed.succ[grammar.start]
                if not all(v in held[u] for u, v in expected):
                    print(f"{where}stale grammar index misses a pair of the "
                          f"from-scratch engine")
                    return 1
                grammar_stale += 1
            for u, v in [(inst.source, inst.sink)] + [
                    (rng.randrange(n), rng.randrange(n))
                    for _ in range(RANDOM_QUERIES)]:
                stale = gram.stale and u != v
                answer = gram.query(u, v)
                if answer != ((u, v) in expected):
                    print(f"{where}grammar index query({u}, {v}) vs the "
                          f"from-scratch engine")
                    return 1
                if answer != index.query(u, v):
                    print(f"{where}grammar index query({u}, {v}) vs the "
                          f"bitset index")
                    return 1
                if stale and gram.stale and v in gram.succ[grammar.start][u]:
                    print(f"{where}grammar index query({u}, {v}): a stale "
                          f"present pair left the index stale")
                    return 1
                grammar_queries += 1
                grammar_stopped += bool(not gram.stale and gram.work)
                grammar_restarts += stale and not gram.stale
            checks = [("resolve_after_update", index)]
            if step % LIVE_CHECK_EVERY == 0 or step == SCRIPT_OPS:
                checks.append(("apply", live))
                restarted = False
            for route, maintained in checks:
                if maintained.pairs != expected:
                    print(f"{where}index maintained by {route} vs grammar "
                          f"engine")
                    return 1
                faults = mask_faults(maintained)
                if faults:
                    print(f"{where}index maintained by {route}, once read "
                          f"whole: {faults[0]}")
                    return 1
            # the index passed in keeps the tables, masks and rows of the
            # instance before the update: its copy shares no list with it
            faults = mask_faults(passed, before)
            if faults:
                print(f"{where}index passed to resolve_after_update: "
                      f"{faults[0]}")
                return 1
    dt = time.monotonic() - t0
    print(f"{args.samples} instances ({args.samples // 2} near-Dyck) and "
          f"{args.samples * SCRIPT_OPS} updates, 0 mismatches, "
          f"{gaps} wrap-only gaps, oracle checked "
          f"{oracle_checked['dyck']} bracket-pair and "
          f"{oracle_checked['neardyck']} near-Dyck samples, grammar "
          f"index checked on {grammar_queries} queries, "
          f"{grammar_stopped} fresh with work queued and "
          f"{grammar_restarts} stale ones restarted, and "
          f"{grammar_stale} stale states, apply route checked on "
          f"{live_queries} queries, {pending_queries} with seeds pending "
          f"and {stopped_queries} fresh with work queued, {restarts} stale "
          f"queries restarted, {outside_solved} solved and {outside_stale} "
          f"stale queries from outside the demand set, {endpoint_queries} "
          f"answered by the endpoint counts, {fresh_deletions} deletions "
          f"that left a read index fresh, {late_reads} first reads after "
          f"deletions, {tails} closing-seed tails, mask checks on "
          f"{stale_checks} stale and {restart_checks} restarted indexes "
          f"with seeds pending, {dt:.1f}s")
    if args.samples and not pending_queries:
        print("FAIL: no query was answered with seeds pending, so the "
              "deferred insertions went unchecked")
        return 1
    if args.samples and not stopped_queries:
        print("FAIL: no fresh query stopped with work still queued, so the "
              "early stop went unchecked")
        return 1
    if args.samples and not grammar_stopped:
        print("FAIL: no fresh grammar query stopped with work still "
              "queued, so its early stop went unchecked")
        return 1
    if args.samples and not grammar_restarts:
        print("FAIL: no stale grammar query restarted the solve, so its "
              "restart went unchecked")
        return 1
    if args.samples and not restarts:
        print("FAIL: no stale query restarted the solve, so the restart "
              "went unchecked")
        return 1
    if args.samples and not (outside_solved and outside_stale):
        print("FAIL: no query from outside the demand set met solved rows "
              "and stale ones both, so activation went unchecked")
        return 1
    if args.samples and not endpoint_queries:
        print("FAIL: no query was answered by the endpoint counts, so "
              "that shortcut went unchecked")
        return 1
    if args.samples and not fresh_deletions:
        print("FAIL: no deletion left a read index fresh, so the "
              "read-set staleness rule went unchecked")
        return 1
    if args.samples and not late_reads:
        print("FAIL: no first read came after a deletion, so the updates "
              "of an index not yet read went unchecked")
        return 1
    if args.samples and not (stale_checks and restart_checks):
        print("FAIL: no mask check met seeds pending on stale rows and on "
              "a restarted solve both, so the closed rows and columns "
              "went unchecked there")
        return 1
    if args.samples and not tails:
        print("FAIL: no query stopped at a closing seed's pair with the "
              "opening seed queued, so the deletion of its closing edge "
              "went unchecked")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
