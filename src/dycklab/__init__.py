"""Bracket-reachability solvers, gadget compilers and a word-combinatorics
laboratory over labeled dynamic graphs."""

from .alternating import FixpointTrace, is_well_ordered, kappa, solve_alternating
from .graphs import (DOT, Alphabet, GraphFormatError, Instance, Label,
                     LabeledGraph, UpdateError, UpdateOp, apply_update,
                     parse_graph, parse_label_token, parse_updates,
                     serialize_graph, serialize_updates)
from .one_letter import (DistanceGadget, ParityIndex, build_distance_gadget,
                         prop1_check)
from .oracle import (EnumerationBudget, bfs_distances, brute_dyck_reach,
                     cyk_accepts, enumerate_nominal_paths, enumerate_paths,
                     exhaustive_words, factor_of_dyck_oracle)
from .reductions import (CompiledReduction, compile_alt_to_neardyck,
                         compile_dyck2_to_undirected,
                         compile_neardyck_to_dyck2, compile_reduction)
from .saturate import (AlphabetMismatchError, InstanceMismatchError,
                       Grammar, GrammarIndex, ReachIndex, dyck_grammar,
                       near_dyck_grammar, resolve_after_update, solve_cfl,
                       solve_dyck, solve_dyck_wrap_only)
from .words import (PHI_UNDIRECTED, NominalDecomposition, NominalSegment,
                    gamma_exponent, in_q, in_q_init, in_regular, is_dyck,
                    is_dyck_prefix, is_near_dyck, mu, nominal_decompose,
                    phi_neardyck, phi_undirected, reduce_word,
                    reduced_language_nfa, regular_nfa, theta, word, zo_str)

__all__ = [name for name in dir() if not name.startswith("_")]
