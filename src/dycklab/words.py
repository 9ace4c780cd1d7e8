"""Word-level machinery for the bracket encodings.

Words are tuples of :class:`~dycklab.graphs.Label`.  The two-pair bracket
alphabet doubles as {0, 1, 0bar, 1bar}: pair 1 renders as 0, pair 2 as 1.

The central operation is :func:`reduce_word`, which cancels the factors
0*0bar and 1*1bar (open-then-close only; close-then-open such as 0bar*0
stays).  On top of it sit the approximate-bracket predicates ``in_q`` /
``in_q_init``, the regular-language family used by the undirected-gadget
analysis, the homomorphic encodings, and the projection onto the free
product Z2 * Z2.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Optional, Sequence

from . import automata
from .graphs import DOT, Label, parse_label_token

Word = tuple[Label, ...]

ZERO = Label("l", 1, False)
ZERO_BAR = Label("l", 1, True)
ONE = Label("l", 2, False)
ONE_BAR = Label("l", 2, True)

ZO_ALPHABET = (ZERO, ZERO_BAR, ONE, ONE_BAR)

_ZO_TOKENS = {ZERO: "0", ZERO_BAR: "0bar", ONE: "1", ONE_BAR: "1bar"}


def word(tokens: str) -> Word:
    """Build a word from space-separated label tokens ('0 0bar l1 dot v3...')."""
    return tuple(parse_label_token(t) for t in tokens.split())


def zo_str(w: Sequence[Label]) -> str:
    """Render a two-pair word in 0/1 notation."""
    return " ".join(_ZO_TOKENS[lab] for lab in w)


def reduce_word(w: Sequence[Label]) -> Word:
    """Normal form under exhaustive deletion of open-then-close factors.

    The rewrite is length-reducing and confluent, so a single left-to-right
    stack pass computes the unique normal form.  The partner test compares
    fields, so no label is built per letter.
    """
    out: list[Label] = []
    for lab in w:
        if lab.bar and out:
            top = out[-1]
            if not top.bar and top.index == lab.index and top.base == lab.base:
                out.pop()
                continue
        out.append(lab)
    return tuple(out)


def join_reduced(p: Word, q: Word) -> Word:
    """``reduce_word(p + q)`` for ``p`` and ``q`` already in normal form.

    The normal form of a concatenation of normal forms changes only at the
    junction (Book & Otto, *String-Rewriting Systems*, 1993): the last
    letters of ``p`` cancel against the first letters of ``q`` while they
    are partners (same test as :func:`reduce_word`), so the cost is the
    number of cancelled letters plus one slice.
    """
    i, j, n = len(p), 0, len(q)
    while i and j < n:
        top, lab = p[i - 1], q[j]
        if top.bar or not lab.bar or top.index != lab.index or top.base != lab.base:
            break
        i -= 1
        j += 1
    return p[:i] + q[j:]


def is_dyck(w: Sequence[Label]) -> bool:
    """Membership in the balanced-bracket language (any number of pairs):
    a prefix of a balanced word that opens as often as it closes."""
    return is_dyck_prefix(w) and mu(w) == 0


def is_dyck_prefix(w: Sequence[Label]) -> bool:
    """Is w a prefix of some balanced word (closes never mismatch)?"""
    stack: list[Label] = []
    for lab in w:
        if lab.base == "dot":
            return False
        if lab.bar:
            if not stack or stack[-1] != lab.matched():
                return False
            stack.pop()
        else:
            stack.append(lab)
    return True


def is_near_dyck(w: Sequence[Label]) -> bool:
    """Membership in the per-vertex bracket language with the freely
    insertable neutral symbol: erase dots, then balance-check."""
    return is_dyck([lab for lab in w if lab != DOT])


def in_q(w: Sequence[Label]) -> bool:
    """Is w a factor of some balanced two-pair word?

    Characterization: the reduced word must consist of closing letters
    followed by opening letters, and hold no ``dot``, which no balanced
    word holds and no reduction cancels.  Validated elsewhere against the
    brute-force factor oracle.
    """
    r = reduce_word(w)
    return DOT not in r and reduced_in_q(r)


def in_q_init(w: Sequence[Label]) -> bool:
    """Is w a prefix of some balanced two-pair word?  Equivalently, the
    reduced word has opening letters only, ``dot`` not among them."""
    r = reduce_word(w)
    return DOT not in r and reduced_in_q_init(r)


def reduced_in_q(r: Sequence[Label]) -> bool:
    """``in_q`` of a word already in normal form: closing letters, then
    opening letters."""
    seen_open = False
    for lab in r:
        if lab.bar:
            if seen_open:
                return False
        else:
            seen_open = True
    return True


def reduced_in_q_init(r: Sequence[Label]) -> bool:
    """``in_q_init`` of a word already in normal form: no closing letter."""
    return not any(lab.bar for lab in r)


# ---------------------------------------------------------------------------
# The six regular languages of the undirected-gadget analysis

def _zo(expr: str) -> automata.Regex:
    return automata.lit(parse_label_token(expr))


def _squares(x: str, y: str) -> automata.Regex:
    """``(x x | y y)*``, the blocks of ``omega+`` and ``omega-``."""
    return automata.star(automata.union(automata.cat(_zo(x), _zo(x)),
                                        automata.cat(_zo(y), _zo(y))))


def _varpi_over(w: automata.Regex, x: str, y: str) -> automata.Regex:
    """``(w x w y)* w``, the shape of the three varpi languages."""
    return automata.cat(automata.star(automata.cat(w, _zo(x), w, _zo(y))), w)


def _regular_exprs() -> dict[str, automata.Regex]:
    omega_plus, omega_minus = _squares("0", "1"), _squares("0bar", "1bar")
    omega = automata.star(automata.union(
        omega_plus, omega_minus, automata.cat(_zo("0bar"), _zo("0"))))
    return {
        "omega+": omega_plus,
        "omega-": omega_minus,
        "omega": omega,
        "varpi+": _varpi_over(omega_plus, "1", "1"),
        "varpi-": _varpi_over(omega_minus, "1bar", "1bar"),
        "varpi": _varpi_over(omega, "1", "1bar"),
    }


REGULAR_EXPRS: dict[str, automata.Regex] = _regular_exprs()


def in_regular(w: Sequence[Label], which: str) -> bool:
    if which not in REGULAR_EXPRS:
        raise ValueError(f"unknown language {which!r}; expected one of "
                         f"{sorted(REGULAR_EXPRS)}")
    return regular_nfa(which).accepts(tuple(w))


@functools.cache
def regular_nfa(which: str) -> automata.Nfa:
    return automata.compile_regex(REGULAR_EXPRS[which])


@functools.cache
def reduced_language_nfa(which: str) -> automata.Nfa:
    """Automaton for the set of reductions of words of a named language.

    A reduced word w lies in this set iff w = reduce(u) for some u in the
    language; this is the right-hand-side semantics under which chains
    like "reduces into 1.0.0bar.1bar, hence into the empty word" make
    sense, and it is strictly larger than the literal language.
    """
    return automata.reduction_closure(regular_nfa(which))


# ---------------------------------------------------------------------------
# Homomorphic encodings

def phi_neardyck_letter(lab: Label, n: int) -> Word:
    """Image of one per-vertex-alphabet letter in the two-pair alphabet
    {a, b, abar, bbar} (a = pair 1, b = pair 2): dot -> a abar,
    v_i -> a^i b a^(n+1-i), v_i-bar -> abar^(n+1-i) bbar abar^i, where
    i is the 1-based slot of the vertex (vertex id + 1)."""
    a, abar = ZERO, ZERO_BAR  # pair 1 doubles as 'a'
    b, bbar = ONE, ONE_BAR
    if lab == DOT:
        return (a, abar)
    if lab.base != "v" or not 0 <= lab.index < n:
        raise ValueError(f"not a per-vertex label for n={n}: {lab.token()}")
    i = lab.index + 1
    if not lab.bar:
        return (a,) * i + (b,) + (a,) * (n + 1 - i)
    return (abar,) * (n + 1 - i) + (bbar,) + (abar,) * i


def phi_neardyck(w: Sequence[Label], n: int) -> Word:
    out: list[Label] = []
    for lab in w:
        out.extend(phi_neardyck_letter(lab, n))
    return tuple(out)


# The four 12-letter encodings for the undirected gadget, locks included
# (positions 2-3 and 11-12 of the opening words).
PHI_UNDIRECTED: dict[Label, Word] = {
    Label("l", 1, False): word("0 0bar 1 1 0 0 1 1 1 1 1bar 0"),
    Label("l", 1, True): word("0bar 1 1bar 1bar 1bar 1bar 0bar 0bar 1bar 1bar 0 0bar"),
    Label("l", 2, False): word("0 0bar 1 0 0 1 1 0 0 1 1bar 0"),
    Label("l", 2, True): word("0bar 1 1bar 0bar 0bar 1bar 1bar 0bar 0bar 1bar 0 0bar"),
}


def phi_undirected(w: Sequence[Label]) -> Word:
    out: list[Label] = []
    for lab in w:
        out.extend(PHI_UNDIRECTED[lab])
    return tuple(out)


def mu(w: Sequence[Label]) -> int:
    """Opening letters count +1, closing letters -1."""
    total = 0
    for lab in w:
        if lab.base == "dot":
            raise ValueError("mu is defined on bracket letters only")
        total += -1 if lab.bar else 1
    return total


# ---------------------------------------------------------------------------
# Projection onto the free product Z2 * Z2

FreeProductElement = tuple[str, ...]  # alternating word over "alpha"/"beta"

GAMMA: FreeProductElement = ("beta", "alpha")


def theta(w: Sequence[Label]) -> FreeProductElement:
    """Send 0 and 0bar to the involution alpha, 1 and 1bar to beta, then
    reduce modulo alpha^2 = beta^2 = identity."""
    gens: list[str] = []
    for lab in w:
        if lab.base != "l" or lab.index not in (1, 2):
            raise ValueError(f"theta is defined on the two-pair letters only, "
                             f"not {lab.token()}")
        gens.append("alpha" if lab.index == 1 else "beta")
    return free_product_mul((), tuple(gens))


def free_product_mul(x: FreeProductElement, y: FreeProductElement) -> FreeProductElement:
    out = list(x)
    for g in y:
        if out and out[-1] == g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def gamma_exponent(e: FreeProductElement) -> Optional[int]:
    """k if e equals the k-th power of gamma = beta*alpha (k may be
    negative; the identity is gamma^0), else None."""
    if not e:
        return 0
    if len(e) % 2:
        return None
    if e[0] == "beta":
        expected = ("beta", "alpha")
        sign = 1
    else:
        expected = ("alpha", "beta")
        sign = -1
    if all(g == expected[i % 2] for i, g in enumerate(e)):
        return sign * (len(e) // 2)
    return None


# ---------------------------------------------------------------------------
# Nominal decomposition of balanced paths in the undirected gadget

class NominalSegment(NamedTuple):
    tag: str  # "edge" (P_{x,lambda,y}) or "loop" (P_x)
    source: int
    sink: int
    source_label: Optional[Label]  # set for "edge" segments
    edges: tuple[tuple[int, Label, int], ...]


class NominalDecomposition(NamedTuple):
    vertices: tuple[int, ...]  # nominal vertex sequence, in source-graph ids
    segments: tuple[NominalSegment, ...]
    ancestor: tuple[tuple[int, Label, int], ...]


class DecompositionError(ValueError):
    pass


def nominal_decompose(path: Sequence[tuple[int, Label, int]],
                      red) -> NominalDecomposition:
    """Decompose a balanced path between original vertices of an
    undirected-gadget target into its nominal segments.

    ``red`` is the compiled reduction (kind ``dyck2_to_undirected``); its
    layout maps gadget vertex ids back to ``(x, lambda, y, i)`` names.
    Segments whose labels stay in {0, 0bar} and return to their start are
    stutter loops; every other segment must traverse one gadget chain
    forwards and is charged to its source edge.

    Accepts any approximate-bracket path (label a factor of a balanced
    word), so a single chain traversal decomposes on its own; balanced
    paths are the special case used by the ancestor-balance checks.
    """
    if red.kind != "dyck2_to_undirected":
        raise DecompositionError("decomposition needs an undirected-gadget target")
    labels = [lab for _, lab, _ in path]
    if not in_q(labels):
        raise DecompositionError("path label is not a factor of a balanced word")

    def as_original(vid: int) -> Optional[int]:
        name = red.names[vid]
        return name[0] if len(name) == 1 else None

    if not path:
        raise DecompositionError("empty path has no decomposition")
    first, last = path[0][0], path[-1][2]
    if as_original(first) is None or as_original(last) is None:
        raise DecompositionError("endpoints must be original vertices")

    # split at every visit of an original vertex
    segments: list[list[tuple[int, Label, int]]] = []
    current: list[tuple[int, Label, int]] = []
    for e in path:
        current.append(e)
        if as_original(e[2]) is not None:
            segments.append(current)
            current = []

    nominal_vertices = [as_original(first)]
    out_segments: list[NominalSegment] = []
    ancestor: list[tuple[int, Label, int]] = []
    for seg in segments:
        src = as_original(seg[0][0])
        dst = as_original(seg[-1][2])
        seg_labels = [lab for _, lab, _ in seg]
        uses_pair2 = any(lab.index == 2 for lab in seg_labels)
        if not uses_pair2:
            if src != dst:
                raise DecompositionError(
                    f"stutter segment with distinct endpoints {src} -> {dst}")
            out_segments.append(NominalSegment("loop", src, dst, None, tuple(seg)))
        else:
            interiors = {v for _, _, v in seg[:-1]}
            names = {red.names[v] for v in interiors}
            keys = {(x, lab, y) for (x, lab, y, _i) in names}
            if len(keys) != 1:
                raise DecompositionError("segment interior spans several chains")
            (x, lab, y) = keys.pop()
            if src != x or dst != y:
                raise DecompositionError(
                    f"segment crosses a lock backwards: {src} -> {dst} on "
                    f"chain ({x}, {lab.token()}, {y})")
            out_segments.append(NominalSegment("edge", x, y, lab, tuple(seg)))
            ancestor.append((x, lab, y))
        nominal_vertices.append(dst)

    return NominalDecomposition(tuple(nominal_vertices), tuple(out_segments),
                                tuple(ancestor))
