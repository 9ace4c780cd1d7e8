#!/usr/bin/env python3
"""Mutation checks: each entry of ``MUTANTS`` breaks one spot of the
program and names the tests that must then fail.  The script copies the
repository's ``src``, ``tests`` and ``scripts`` to a temporary directory,
first runs the named tests there unchanged (they must pass), then applies
each mutant to a fresh copy and runs only its tests, one mutant per core
at a time; the verdicts print in table order.  A mutant is killed
when its tests fail, and survives when they pass.  An entry whose old
text is not found exactly once no longer matches the code and counts as
a survivor too, so the table cannot rot unnoticed.  Hypothesis runs with
a fixed seed, so a run is repeatable.

Usage: python3 scripts/mutants.py [--only NAME ...]

Exit status: 0 if every mutant run was killed, 1 if any survived, 2 if the
tests fail with no mutant applied.
"""

import argparse
import functools
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
GRAPHS = "src/dycklab/graphs.py"
SATURATE = "src/dycklab/saturate.py"
ORACLE = "src/dycklab/oracle.py"
CLI = "src/dycklab/cli.py"
REDUCTIONS = "src/dycklab/reductions.py"
ONE_LETTER = "src/dycklab/one_letter.py"
WORDS = "src/dycklab/words.py"
AUTOMATA = "src/dycklab/automata.py"
SUITES = "src/dycklab/suites.py"


class Mutant(NamedTuple):
    name: str
    path: str        # relative to the repository root
    old: str         # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, at least one of which must fail


MUTANTS = (
    Mutant("reader-keeps-a-comment", GRAPHS,
           'if (fields := (raw.split("#", 1)[0] if "#" in raw else raw).split())',
           "if (fields := raw.split())",
           ("tests/test_graphs.py::test_comments_and_blank_lines_ignored",
            "tests/test_cli.py::"
            "test_files_spell_numbers_one_way[script-comment]")),
    Mutant("reader-numbers-lines-from-0", GRAPHS,
           "enumerate(text.splitlines(), 1)", "enumerate(text.splitlines())",
           ("tests/test_graphs.py::test_parse_errors_carry_line_numbers",
            "tests/test_graphs.py::"
            "test_a_bad_line_and_a_bad_byte_name_the_same_line")),
    Mutant("header-read-from-the-second-line", GRAPHS,
           "(no3, f3) = lines[:3]", "(no3, f3) = lines[1:4]",
           ("tests/test_graphs.py::test_parse_errors_carry_line_numbers",
            "tests/test_cli.py::test_malformed_partition_and_header_lines_"
            "exit_2[header-of-two-lines]")),
    Mutant("update-accepts-duplicate", GRAPHS,
           "        elif e in g.edges:\n", "        elif False:\n",
           ("tests/test_graphs.py::test_apply_update_strictness",
            "tests/test_graphs.py::"
            "test_a_rejected_update_names_its_problem_and_line")),
    Mutant("update-deletes-a-missing-edge", GRAPHS,
           "    elif op.op == \"del\":\n        if e in g.edges:\n",
           "    elif op.op == \"del\":\n        if True:\n",
           ("tests/test_graphs.py::test_apply_update_strictness",
            "tests/test_graphs.py::"
            "test_a_rejected_update_names_its_problem_and_line")),
    Mutant("build-accepts-a-foreign-label", GRAPHS,
           "            if slots[lab] is None:\n"
           "                raise GraphFormatError(",
           "            if False:\n"
           "                raise GraphFormatError(",
           ("tests/test_graphs.py::"
            "test_build_rejects_an_edge_the_graph_cannot_hold",)),
    Mutant("update-field-count-unchecked", GRAPHS,
           "            if len(fields) != 4:\n"
           "                raise GraphFormatError(f\"expected '{fields[0]}",
           "            if False:\n"
           "                raise GraphFormatError(f\"expected '{fields[0]}",
           ("tests/test_graphs.py::"
            "test_an_update_line_takes_exactly_three_fields",
            "tests/test_cli.py::"
            "test_an_update_line_with_a_wrong_field_count_exits_2")),
    Mutant("edge-kept-on-deletion", SATURATE,
           "            table[x] ^= 1 << y\n",
           "            table[x] |= 1 << y\n",
           ("tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts",)),
    Mutant("edge-table-drops-reverse-cell", SATURATE,
           "                      else graph.directed_edges()):",
           "                      else graph.edges):",
           ("tests/test_saturate.py::"
            "test_edge_tables_match_the_label_by_label_build",
            "tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts",
            "tests/test_saturate.py::"
            "test_an_undirected_edge_counts_at_both_ends")),
    Mutant("dot-edge-sets-a-closer", SATURATE,
           "            if s > 0:\n                closers[s >> 1] |= 1 << u\n"
           "            else:\n",
           "            closers[s >> 1] |= 1 << u\n            if s < 0:\n",
           ("tests/test_saturate.py::"
            "test_edge_tables_match_the_label_by_label_build",
            "tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts")),
    Mutant("undirected-insertion-one-way", SATURATE,
           "        for x, y in cells:\n",
           "        for x, y in cells[:1] if op.op == \"ins\" else cells:\n",
           ("tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts",)),
    Mutant("closing-insertion-leaves-closers", SATURATE,
           "                    self.closers[s >> 1] |= 1 << x\n",
           "                    pass\n",
           ("tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts",
            "tests/test_saturate.py::"
            "test_closers_follow_the_last_closing_edge")),
    Mutant("last-closing-deletion-keeps-closers", SATURATE,
           "                    self.closers[s >> 1] &= ~(1 << x)\n",
           "                    pass\n",
           ("tests/test_saturate.py::"
            "test_closers_follow_the_last_closing_edge",)),
    Mutant("emptied-closing-row-keeps-closers", SATURATE,
           "                elif table[x]:\n",
           "                elif table[x] or op.op == \"del\":\n",
           ("tests/test_saturate.py::"
            "test_closers_follow_the_last_closing_edge",
            "tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts")),
    Mutant("image-keeps-only-the-last-row", SATURATE,
           "        out |= table[low.bit_length() - 1]\n",
           "        out = table[low.bit_length() - 1]\n",
           ("tests/test_saturate.py::"
            "test_columns_transpose_closed_rows_after_every_step",
            "tests/test_saturate.py::"
            "test_maintained_index_matches_the_grammar_engine")),
    Mutant("column-update-dropped", SATURATE,
           "            cols[low.bit_length() - 1] |= grown\n", "",
           ("tests/test_saturate.py::"
            "test_columns_transpose_closed_rows_after_every_step",)),
    Mutant("fresh-skips-expansion", SATURATE,
           "fresh = new & ~rows[a]", "fresh = bits & ~rows[a]",
           ("tests/test_saturate.py::"
            "test_columns_transpose_closed_rows_after_every_step",)),
    Mutant("dot-insertion-not-seeded", SATURATE,
           "            if active >> x & 1:\n"
           "                self._add(x, 1 << y)\n",
           "            if False:\n"
           "                self._add(x, 1 << y)\n",
           ("tests/test_saturate.py::"
            "test_maintained_near_dyck_index_matches_the_grammar_engine",)),
    Mutant("closing-seed-read-as-opening", SATURATE,
           "        elif not s & 1:\n            # edge (y, q, x)",
           "        elif s & 1:\n            # edge (y, q, x)",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",
            "tests/test_saturate.py::"
            "test_maintained_index_matches_the_grammar_engine")),
    Mutant("deletion-left-fresh", SATURATE,
           "            self.stale = bool(",
           "            self.stale = False and bool(",
           ("tests/test_saturate.py::"
            "test_a_deletion_that_fired_nothing_leaves_a_stale_index_stale",)),
    Mutant("stale-yes-keeps-stale-rows", SATURATE,
           "        if not self.stale or u == v:\n            return True\n",
           "        if True:\n            return True\n",
           ("tests/test_saturate.py::test_a_stale_no_costs_no_resolve",
            "tests/test_saturate.py::"
            "test_a_partial_solve_survives_an_insertion")),
    Mutant("stale-pairs-skip-restart", SATURATE,
           "        if self.stale:\n            self.rows = None\n"
           "        self._run()\n",
           "        self._run()\n",
           ("tests/test_saturate.py::"
            "test_a_stale_pairs_read_restarts_the_solve",)),
    Mutant("query-v-unbounded", SATURATE,
           "0 <= v < n)", "0 <= v)",
           ("tests/test_saturate.py::"
            "test_an_out_of_range_query_runs_nothing",)),
    Mutant("copy-without-flush", SATURATE,
           "        self._run()\n        other = copy.copy(self)\n",
           "        other = copy.copy(self)\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",)),
    Mutant("copy-drops-pending-seeds", SATURATE,
           "        self._run()\n        other = copy.copy(self)\n",
           "        self.seeds.clear()\n"
           "        self._run()\n        other = copy.copy(self)\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",)),
    Mutant("pairs-without-flush", SATURATE,
           "        if self.stale:\n            self.rows = None\n"
           "        self._run()\n",
           "        if self.stale or self.rows is None:\n"
           "            self.rows = None\n            self._run()\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",)),
    Mutant("query-without-flush", SATURATE,
           "            self._run(u, 1 << v)\n",
           "            if rows is None:\n"
           "                self._run(u, 1 << v)\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",)),
    Mutant("absent-bit-query-skips-seeds", SATURATE,
           "            self._run(u, 1 << v)\n",
           "            seeds, self.seeds = self.seeds, []\n"
           "            self._run(u, 1 << v)\n"
           "            self.seeds = seeds\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",
            "tests/test_saturate.py::test_a_query_on_a_set_bit_runs_no_seed")),
    Mutant("activation-reads-the-last-read-tables", SATURATE,
           "        rows, edges = self.rows, self.edges\n",
           "        rows, edges = self.rows, _edge_tables(self._inst)[0]\n",
           ("tests/test_saturate.py::"
            "test_the_demand_set_holds_after_every_step",
            "tests/test_saturate.py::"
            "test_a_stale_index_answers_queries_exactly")),
    Mutant("unread-deletion-keeps-the-edge", SATURATE,
           "        for x, y in cells:\n",
           "        for x, y in (cells if self.rows is not None\n"
           "                     or op.op == \"ins\" else ()):\n",
           ("tests/test_saturate.py::"
            "test_updates_before_the_first_read_only_edit_the_tables",)),
    Mutant("stopped-query-answers-no-unrun", SATURATE,
           "        rows = self.rows\n"
           "        if rows is None or not rows[u] >> v & 1:\n",
           "        rows = self.rows\n"
           "        if rows is not None and not self.seeds"
           " and not rows[u] >> v & 1:\n"
           "            return False\n"
           "        if rows is None or not rows[u] >> v & 1:\n",
           ("tests/test_saturate.py::test_a_fresh_query_stops_at_its_pair",)),
    Mutant("opening-seed-leaves-its-target-undemanded", SATURATE,
           "            self.demand |= 1 << x\n"
           "            self._add(y, _image(",
           "            self._add(y, _image(",
           ("tests/test_saturate.py::"
            "test_the_demand_set_holds_after_every_step",
            "tests/test_saturate.py::"
            "test_an_opening_seed_demands_its_target")),
    Mutant("activation-skips-dot-edges", SATURATE,
           "        reach = edges[-1][a] if edges[-1] else 0\n",
           "        reach = 0\n",
           ("tests/test_saturate.py::test_solver_reads_the_near_dyck_alphabet",
            "tests/test_saturate.py::"
            "test_maintained_near_dyck_index_matches_the_grammar_engine")),
    Mutant("stale-query-answers-from-an-identity-row", SATURATE,
           "        else:\n            self.demand |= 1 << u\n",
           "        elif not self.stale:\n            self.demand |= 1 << u\n",
           ("tests/test_saturate.py::"
            "test_a_query_closes_only_what_its_source_needs",
            "tests/test_saturate.py::"
            "test_the_demand_set_holds_after_every_step")),
    Mutant("pairs-demands-only-one-source", SATURATE,
           "            u, self.demand = 0, (1 << len(rows)) - 1\n",
           "            u, self.demand = 0, self.demand | 1\n",
           ("tests/test_saturate.py::"
            "test_reads_and_copies_run_the_pending_insertions",
            "tests/test_saturate.py::test_engine_agreement_seeded_sample")),
    Mutant("wrap-reaches-inactive-sources", SATURATE,
           "                srcs = opening[x] & active\n",
           "                srcs = opening[x]\n",
           ("tests/test_saturate.py::"
            "test_the_demand_set_holds_after_every_step",)),
    Mutant("inactive-columns-drop-their-identity", SATURATE,
           "        self.cols = list(self.rows)\n",
           "        self.cols = [0] * n\n",
           ("tests/test_saturate.py::"
            "test_a_partial_solve_survives_an_insertion",
            "tests/test_saturate.py::"
            "test_columns_transpose_closed_rows_after_every_step")),
    Mutant("deleted-edge-still-seeded", SATURATE,
           "            if self.edges[s][x] >> y & 1:\n"
           "                self._seed(s, x, y)\n",
           "            self._seed(s, x, y)\n",
           ("tests/test_saturate.py::"
            "test_an_edge_deleted_before_any_read_is_never_seeded",)),
    Mutant("closing-deletion-checks-active", SATURATE,
           "read = self.demand if s > 0 and s & 1 else self.active",
           "read = self.active",
           ("tests/test_saturate.py::test_deleting_a_closing_edge_out_of_a_"
            "demanded_vertex_marks_it_stale",)),
    Mutant("closing-seed-leaves-its-tail-undemanded", SATURATE,
           "            if srcs:\n                # the pairs derived below",
           "            if False:\n                # the pairs derived below",
           ("tests/test_saturate.py::"
            "test_a_closing_seed_demands_the_tail_it_reads",
            "tests/test_scripts.py::test_script_runs[engine_fuzz-seed0]")),
    Mutant("endpoint-count-skips-dot", SATURATE,
           "            else:\n                outof[u] += 1\n        else:\n",
           "        else:\n",
           ("tests/test_saturate.py::"
            "test_edge_tables_match_the_label_by_label_build",
            "tests/test_saturate.py::"
            "test_maintained_near_dyck_index_matches_the_grammar_engine")),
    Mutant("copy-shares-endpoint-counts", SATURATE,
           "other.outof, other.into = list(self.outof), list(self.into)",
           "other.outof, other.into = self.outof, self.into",
           ("tests/test_saturate.py::"
            "test_support_masks_hold_under_mixed_scripts",)),
    Mutant("endpoint-check-before-range-check", SATURATE,
           "        if not (0 <= u < n and 0 <= v < n):\n"
           "            return False\n"
           "        if u != v and not (self.outof[u] and self.into[v]):\n"
           "            return False\n",
           "        if u != v and not (self.outof[u] and self.into[v]):\n"
           "            return False\n"
           "        if not (0 <= u < n and 0 <= v < n):\n"
           "            return False\n",
           ("tests/test_saturate.py::"
            "test_an_out_of_range_query_runs_nothing",)),
    Mutant("duplicate-insertion-accepted", SATURATE,
           '== (op.op == "del")', '>= (op.op == "del")',
           ("tests/test_saturate.py::"
            "test_a_rejected_update_leaves_the_index_unchanged",)),
    Mutant("grammar-undirected-insertion-one-way", SATURATE,
           "                ends.append((op.v, op.u))\n",
           "                pass\n",
           ("tests/test_saturate.py::"
            "test_a_grammar_index_reads_an_undirected_insertion_both_ways",)),
    Mutant("grammar-stale-yes-keeps-stale-facts", SATURATE,
           "        if not self.stale or (u == v and start in "
           "self.grammar.nullable):\n            return True\n",
           "        if True:\n            return True\n",
           ("tests/test_saturate.py::"
            "test_a_stale_grammar_yes_solves_only_until_the_pair_appears",)),
    Mutant("grammar-absent-pair-skips-queued-work", SATURATE,
           "        if self.succ is None or v not in self.succ[start][u]:\n"
           "            self._run(u, v)\n",
           "        if self.succ is None or v not in self.succ[start][u]:\n"
           "            if self.succ is None:\n"
           "                self._run(u, v)\n",
           ("tests/test_saturate.py::"
            "test_a_fresh_grammar_query_stops_at_its_pair",)),
    Mutant("grammar-first-read-solves-the-initial-instance", SATURATE,
           "            self.by_label.setdefault(lab, []).append(a)\n",
           "            self.by_label.setdefault(lab, []).append(a)\n"
           "        self._start()\n",
           ("tests/test_saturate.py::test_grammar_updates_before_the_first_"
            "read_only_change_the_instance",)),
    Mutant("grammar-body-symbol-unchecked", SATURATE,
           "for a in [*nullable, *(b for rule in binary_rules for b in "
           "rule)]:",
           "for a, _, _ in binary_rules:",
           ("tests/test_saturate.py::test_grammar_validation",)),
    Mutant("wrap-only-keeps-concatenation", SATURATE,
           'tuple(r for r in grammar.binary_rules if r != ("S", "S", "S"))',
           "grammar.binary_rules",
           ("tests/test_saturate.py::"
            "test_wrap_only_misses_the_concatenation_chain",)),
    Mutant("alt-replay-reuses-first-answer", SATURATE,
           "answers.append(solve_alternating(inst)[0] if index is None",
           "answers.append((answers or [solve_alternating(inst)[0]])[0]\n"
           "                           if index is None",
           ("tests/test_reductions.py::test_equivalence_fuzz_alt",
            "tests/test_reductions.py::"
            "test_alt_lane_target_index_matches_the_independent_routes")),
    Mutant("lane-bounds-unchecked", REDUCTIONS,
           "if len(ops) not in bounds:", "if False:",
           ("tests/test_reductions.py::"
            "test_a_translator_that_drops_every_op_fails_the_run",)),
    Mutant("equivalence-ignores-divergence", REDUCTIONS,
           "if src_ans != tgt_ans:", "if False:",
           ("tests/test_reductions.py::"
            "test_a_translator_that_drops_every_op_fails_the_run",)),
    Mutant("parity-bits-on-one-endpoint", ONE_LETTER,
           "ends = 1 << u | 1 << v", "ends = 1 << u",
           ("tests/test_one_letter.py::"
            "test_endpoint_bitsets_answer_as_the_edge_scans",)),
    Mutant("parity-rebuild-keeps-bitsets", ONE_LETTER,
           "        self.openers = self.closers = 0\n",
           "        self.openers = vars(self).get(\"openers\", 0)\n"
           "        self.closers = vars(self).get(\"closers\", 0)\n",
           ("tests/test_one_letter.py::"
            "test_deleting_the_last_opener_at_the_source_turns_yes_to_no",)),
    Mutant("reduce-word-ignores-base", WORDS,
           "top.index == lab.index and top.base == lab.base",
           "top.index == lab.index",
           ("tests/test_words.py::"
            "test_reduce_is_confluent_under_random_order",)),
    Mutant("join-reduced-stops-after-one-pair", WORDS,
           "        i -= 1\n        j += 1\n",
           "        i -= 1\n        j += 1\n        break\n",
           ("tests/test_words.py::"
            "test_joining_normal_forms_reduces_the_concatenation",)),
    Mutant("dfa-step-not-closed", AUTOMATA,
           "nxt = _closure(eps, targets.get(lab, ()))",
           "nxt = frozenset(targets.get(lab, ()))",
           ("tests/test_automata.py::test_a_warm_nfa_matches_brute_semantics",
            "tests/test_automata.py::test_nfa_matches_brute_semantics")),
    Mutant("dfa-final-needs-every-state", AUTOMATA,
           "not self.accepting.isdisjoint(subset)",
           "self.accepting.issuperset(subset)",
           ("tests/test_automata.py::test_a_warm_nfa_matches_brute_semantics",
            "tests/test_automata.py::test_nfa_matches_brute_semantics")),
    Mutant("star-without-back-edge", AUTOMATA,
           "eps[build(inner, hub)].append(hub)", "build(inner, hub)",
           ("tests/test_automata.py::test_a_warm_nfa_matches_brute_semantics",
            "tests/test_automata.py::test_nfa_matches_brute_semantics")),
    Mutant("brute-alt-reads-left-only", AUTOMATA,
           "return matches(left, i, j) or matches(right, i, j)",
           "return matches(left, i, j)",
           ("tests/test_automata.py::test_a_warm_nfa_matches_brute_semantics",
            "tests/test_automata.py::test_nfa_matches_brute_semantics")),
    Mutant("closure-skips-epsilon-reach", AUTOMATA,
           "for s in _closure(eps, [r]):", "for s in (r,):",
           ("tests/test_automata.py::test_closure_handles_nested_deletion",
            "tests/test_automata.py::"
            "test_closure_is_sound_for_the_named_languages",
            "tests/test_suites.py::test_lemma7_small_budget")),
    Mutant("lemma5-cancels-any-closer", SUITES,
           "c < 0 and form and form[-1] == -c", "c < 0 and form",
           ("tests/test_suites.py::test_lemma5_short",
            "tests/test_suites.py::test_lemma5_matches_the_in_q_then_reduce_loop",
            "tests/test_suites.py::"
            "test_lemma5_matches_the_reference_under_every_language_swap")),
    Mutant("lemma5-stops-one-short", SUITES,
           "        if n < max_len:\n", "        if n < max_len - 1:\n",
           ("tests/test_suites.py::test_lemma5_matches_the_in_q_then_reduce_loop",
            "tests/test_suites.py::"
            "test_lemma5_walks_words_longer_than_the_recursion_limit")),
    Mutant("lemma5-verdict-by-first-letter", SUITES,
           "verdict = verdicts.get(form)\n"
           "            if verdict is None:\n"
           "                r0 = tuple([letter[c] for c in form])\n"
           "                r = join_reduced(head, r0)\n"
           "                verdicts[form] = verdict = []\n",
           "verdict = verdicts.get(form[:1])\n"
           "            if verdict is None:\n"
           "                r0 = tuple([letter[c] for c in form])\n"
           "                r = join_reduced(head, r0)\n"
           "                verdicts[form[:1]] = verdict = []\n",
           ("tests/test_suites.py::"
            "test_lemma5_reports_the_failures_of_the_reference_loop",
            "tests/test_suites.py::"
            "test_lemma5_matches_the_reference_under_every_language_swap")),
    Mutant("failure-text-arguments-reversed", SUITES,
           "template.format(*map(_shown, args))",
           "template.format(*map(_shown, args[::-1]))",
           ("tests/test_suites.py::test_lemma4_pins_its_failure_text",
            "tests/test_suites.py::test_lemma6_pins_its_failure_text",
            "tests/test_suites.py::test_prop1_pins_its_failure_text")),
    Mutant("failed-check-records-no-message", SUITES,
           "            self.failures.append(template.format(*map(_shown, "
           "args)))\n",
           "            pass\n",
           ("tests/test_suites.py::test_lemma6_pins_its_failure_text",
            "tests/test_suites.py::test_lemma4_pins_its_failure_text",
            "tests/test_suites.py::test_q_validate_pins_its_failure_text",
            "tests/test_suites.py::test_prop1_pins_its_failure_text",
            "tests/test_suites.py::"
            "test_lemma7_reports_the_failures_of_the_reference_loop")),
    Mutant("nominal-cancellation-not-restored", ORACLE,
           "            if cancelled:\n"
           "                code = code * 3 + cancelled\n",
           "            if cancelled:\n"
           "                pass\n",
           ("tests/test_oracle.py::test_nominal_paths_match_the_untabled_walk",
            "tests/test_oracle.py::"
            "test_nominal_paths_match_the_untabled_walk_on_redrawn_gadgets",
            "tests/test_oracle.py::"
            "test_nominal_truncation_matches_the_untabled_walk_at_every_cap")),
    Mutant("brute-reach-pushes-dot", ORACLE,
           'if lab.base == "dot":\n'
           "                        new_stack = stack\n"
           "                    elif lab.bar:",
           "if lab.bar:",
           ("tests/test_oracle.py::test_brute_reach_reads_dot_as_neutral",)),
    Mutant("reach-expansions-one-short", ORACLE,
           "                    if expansions > cap:\n"
           "                        return frozenset(pairs), True\n",
           "                    if expansions >= cap:\n"
           "                        return frozenset(pairs), True\n",
           ("tests/test_cli.py::"
            "test_oracle_walks_stop_at_the_expansion_limit[reach-at]",)),
    Mutant("paths-expansions-one-short", ORACLE,
           "            if expansions > cap:\n"
           "                truncated = True\n"
           "                return False\n",
           "            if expansions >= cap:\n"
           "                truncated = True\n"
           "                return False\n",
           ("tests/test_cli.py::"
            "test_oracle_walks_stop_at_the_expansion_limit[paths-at]",)),
    Mutant("factor-oracle-drops-a-forced-opener", ORACLE,
           "is_dyck_prefix(tuple(partners[::-1]) + w)",
           "is_dyck_prefix(tuple(partners[:0:-1]) + w)",
           ("tests/test_oracle.py::"
            "test_forced_prefix_oracle_matches_every_prefix_tried",)),
    Mutant("limit-parsed-with-int", CLI,
           "        return parse_number(text)\n",
           "        return int(text)\n",
           ("tests/test_cli.py::test_negative_limits_are_rejected",)),
    Mutant("parser-shares-a-namespace", CLI,
           "    args = parser.parse_args(argv)\n",
           "    args = parser.parse_args(\n"
           "        argv, vars(main).setdefault(\"shared\", "
           "argparse.Namespace()))\n",
           ("tests/test_cli.py::"
            "test_a_call_inherits_nothing_from_the_call_before",)),
    Mutant("prop1-gets-no-samples", CLI,
           'for key in ("max_len", "samples", "seed")',
           'for key in ("max_len", "seed")',
           ("tests/test_cli.py::"
            "test_a_suite_receives_exactly_the_options_it_reads[prop1]",
            "tests/test_cli.py::test_a_suite_that_checked_nothing_fails")),
    Mutant("lemma7-gets-no-seed", CLI,
           'for name in ("lemma7", "prop1"):',
           'for name in ("prop1",):',
           ("tests/test_cli.py::"
            "test_a_suite_receives_exactly_the_options_it_reads[lemma7]",)),
    Mutant("lemma5-limit-one-past", CLI,
           'LEMMA5_MAX_LEN, "lemma 5")', 'LEMMA5_MAX_LEN + 1, "lemma 5")',
           ("tests/test_cli.py::test_lemma5_max_len_stops_at_its_limit",)),
    Mutant("q-validate-limit-one-past", CLI,
           'Q_VALIDATE_MAX_LEN, "q-validate")',
           'Q_VALIDATE_MAX_LEN + 1, "q-validate")',
           ("tests/test_cli.py::"
            "test_a_max_len_one_past_its_limit_is_a_usage_error"
            "[q-validate]",)),
    Mutant("reach-limit-one-past", CLI,
           'REACH_MAX_LEN, "oracle reach")',
           'REACH_MAX_LEN + 1, "oracle reach")',
           ("tests/test_cli.py::"
            "test_a_max_len_one_past_its_limit_is_a_usage_error"
            "[oracle-reach]",)),
    Mutant("words-limit-one-length-short", CLI,
           "    for _ in range(max(max_len, 1) + 1):\n",
           "    for _ in range(max(max_len, 1)):\n",
           ("tests/test_cli.py::"
            "test_oracle_words_one_past_its_limit_is_an_error",)),
    Mutant("list-limit-one-past", CLI,
           '(LIST_LIMIT, "oracle words --list")',
           '(LIST_LIMIT + 1, "oracle words --list")',
           ("tests/test_cli.py::"
            "test_oracle_words_one_past_its_limit_is_an_error[list-500000-1]",)),
)


def make_copy(where: Path) -> Path:
    root = where / "repo"
    for part in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / part, root / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    return root


def run_tests(root: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", *tests],
        cwd=root, env=env, capture_output=True, text=True, timeout=600)


def apply_mutant(root: Path, mutant: Mutant) -> bool:
    """Apply ``mutant`` in ``root``; False if its old text is not there
    exactly once."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        return False
    path.write_text(text.replace(mutant.old, mutant.new))
    return True


def run_mutant(tmp: Path, mutant: Mutant) -> str:
    """The verdict on ``mutant``, from its tests on a fresh copy."""
    root = make_copy(tmp / mutant.name)
    try:
        if not apply_mutant(root, mutant):
            return "SURVIVED (old text not found exactly once)"
        if run_tests(root, mutant.tests).returncode == 0:
            return "SURVIVED"
        return "killed"
    finally:
        shutil.rmtree(root.parent)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--only", action="append", metavar="NAME",
                    choices=[m.name for m in MUTANTS],
                    help="run only this mutant (repeatable)")
    args = ap.parse_args()
    mutants = [m for m in MUTANTS if not args.only or m.name in args.only]
    tests = sorted({t for m in mutants for t in m.tests})
    with tempfile.TemporaryDirectory() as tmp:
        proc = run_tests(make_copy(Path(tmp) / "base"), tests)
        if proc.returncode != 0:
            print("the tests fail with no mutant applied:")
            print(proc.stdout[-2000:] + proc.stderr[-2000:])
            return 2
        survivors = []
        with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
            verdicts = pool.map(functools.partial(run_mutant, Path(tmp)),
                                mutants)
            for m, verdict in zip(mutants, verdicts):
                if verdict != "killed":
                    survivors.append(m.name)
                print(f"{m.name}: {verdict}", flush=True)
    print(f"{len(mutants)} mutants, {len(mutants) - len(survivors)} killed, "
          f"{len(survivors)} survived")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
