"""The three gadget compilers with exact update translation.

Each compiler keeps its source instance and maps it to a target instance
plus a pure per-update translator, with translated op counts fixed per kind:

* ``alt_to_neardyck``      -- 1 op for an or-edge, 2 for an and-edge;
* ``neardyck_to_dyck2``    -- exactly 1 op;
* ``dyck2_to_undirected``  -- exactly 12 ops.

Gadget vertex ids follow a documented deterministic layout so the map from
structured names to dense ids is reproducible.  The vertex bijection used
by the encodings is fixed to the identity on dense ids: slot i (1-based)
is vertex i-1.

``LANES`` names each kind's compiler, the engine that answers its source
and its translated-op counts; ``run_equivalence`` replays a script on
source and target side by side and checks both.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .graphs import (DOT, Alphabet, Instance, Label, LabeledGraph, UpdateOp)
from .saturate import run_replay
from .words import PHI_UNDIRECTED, phi_neardyck_letter

StructuredName = tuple


class CompiledReduction(NamedTuple):
    kind: str
    source: Instance
    target: Instance
    names: tuple[StructuredName, ...]  # names[id] = structured name
    ids: dict[StructuredName, int]
    translate_one: Callable[[UpdateOp], list[UpdateOp]]

    def __repr__(self) -> str:
        # ``ids`` and ``translate_one`` stay out: on a large target they
        # would fill a failure report.
        return (f"CompiledReduction(kind={self.kind!r}, "
                f"source={self.source!r}, target={self.target!r}, "
                f"names={self.names!r})")

    def vertex_id(self, name: StructuredName) -> int:
        return self.ids[name]

    def translate(self, op: UpdateOp) -> list[UpdateOp]:
        if op.op == "query":
            return [op]
        return self.translate_one(op)


def _layout(names: list[StructuredName]):
    ids = {name: i for i, name in enumerate(names)}
    return tuple(names), ids


# ---------------------------------------------------------------------------
# alternating -> per-vertex brackets

_ARC_LABEL = Label("l", 1, False)


def _require_arc_label(lab: Label):
    if lab != _ARC_LABEL:
        raise ValueError(f"alternating instances carry l1 arcs only, "
                         f"not {lab.token()}")


def compile_alt_to_neardyck(inst: Instance) -> CompiledReduction:
    """Alternating reachability compiled to per-vertex-bracket reachability.

    Target vertices: the originals, then a chain (x, 0..n) for every
    and-vertex x.  Static edges send every vertex to the sink under its own
    opening label and frame the chains with neutral edges.  Dynamic edges:
    a source edge (a, b) with a an or-vertex becomes the single neutral
    edge b -> a; with a an and-vertex it flips the chain edge
    (a, b) -> (a, b+1) from neutral to the closing label of b.

    The target marks (source=t, sink=s): reachability is checked from the
    alternating sink back to the alternating source.  Arcs are keyed by
    their endpoints alone, so every source edge and update must carry the
    label l1; any other label is rejected.
    """
    if inst.partition is None:
        raise ValueError("compilation needs an and/or partition")
    for _u, lab, _v in inst.graph.edges:
        _require_arc_label(lab)
    n = inst.graph.vertex_count
    t, s = inst.sink, inst.source
    and_vertices = [x for x in range(n) if inst.partition[x] == "and"]

    names: list[StructuredName] = [(x,) for x in range(n)]
    for x in and_vertices:
        for i in range(n + 1):
            names.append((x, i))
    names_t, ids = _layout(names)

    arcs = {(u, v) for u, _lab, v in inst.graph.directed_edges()}

    def chain_edge(x: int, i: int) -> tuple[int, Label, int]:
        # mid-edge (x, i) -> (x, i+1); closing label of vertex i when the
        # source edge (x, i) is present, neutral otherwise
        lab = Label("v", i, True) if (x, i) in arcs else DOT
        return (ids[(x, i)], lab, ids[(x, i + 1)])

    edges = []
    for x in range(n):
        edges.append((x, Label("v", x, False), t))
    for x in and_vertices:
        edges.append((t, DOT, ids[(x, 0)]))
        edges.append((ids[(x, n)], DOT, x))
        for i in range(n):
            edges.append(chain_edge(x, i))
    for (a, b) in arcs:
        if inst.partition[a] == "or":
            edges.append((b, DOT, a))

    graph = LabeledGraph.build(True, len(names_t), Alphabet("neardyck", n), edges)
    target = Instance(graph, t, s)

    def translate_one(op: UpdateOp) -> list[UpdateOp]:
        _require_arc_label(op.label)
        a, b = op.u, op.v
        if inst.partition[a] == "or":
            inner = UpdateOp(op.op, b, DOT, a)
            return [inner]
        u_id, v_id = ids[(a, b)], ids[(a, b + 1)]
        closing = Label("v", b, True)
        if op.op == "ins":
            return [UpdateOp.delete(u_id, DOT, v_id),
                    UpdateOp.ins(u_id, closing, v_id)]
        return [UpdateOp.delete(u_id, closing, v_id),
                UpdateOp.ins(u_id, DOT, v_id)]

    return CompiledReduction("alt_to_neardyck", inst, target, names_t, ids,
                             translate_one)


# ---------------------------------------------------------------------------
# per-vertex brackets -> two pairs

def compile_neardyck_to_dyck2(inst: Instance) -> CompiledReduction:
    """Per-vertex-bracket reachability compiled to the two-pair alphabet
    {a, b, abar, bbar} (pair 1 is a, pair 2 is b).

    Every source letter is spelled by ``words.phi_neardyck_letter``: dot
    as a*abar, the opening label of vertex slot i (1-based) as
    a^i b a^(n+1-i), its closing partner as the formal inverse.  Target
    vertices: the originals, one dot-relay (x, dot) per vertex, and
    spelling chains (x, lab, 0..n) for every vertex x and every non-neutral
    label lab.  A chain leaves x and walks its nodes in order, (x, lab, 0)
    up to (x, lab, n) for an opening label and down from (x, lab, n) for a
    closing one, one letter of the spelling per step.  All chains are
    static; each source edge contributes exactly one edge, the spelling's
    last letter, leaving its chain's last node.
    """
    if inst.graph.alphabet.kind != "neardyck":
        raise ValueError("compilation needs a per-vertex-bracket instance")
    if not inst.graph.directed:
        raise ValueError("source must be directed")
    n = inst.graph.vertex_count
    if inst.graph.alphabet.size != n:
        raise ValueError("alphabet size must equal the vertex count")

    chain_labels = [Label("v", i, bar) for i in range(n) for bar in (False, True)]
    names: list[StructuredName] = [(x,) for x in range(n)]
    names += [(x, "dot") for x in range(n)]
    names += [(x, lab, i) for x in range(n) for lab in chain_labels
              for i in range(n + 1)]
    names_t, ids = _layout(names)
    spell = {lab: phi_neardyck_letter(lab, n) for lab in [DOT] + chain_labels}

    edges = []
    last: dict[tuple[int, Label], int] = {}  # the chain's last node
    for x in range(n):
        for lab, letters in spell.items():
            if lab == DOT:
                chain = [x, ids[(x, "dot")]]
            else:
                steps = range(n, -1, -1) if lab.bar else range(n + 1)
                chain = [x] + [ids[(x, lab, i)] for i in steps]
            edges.extend(zip(chain, letters, chain[1:]))
            last[(x, lab)] = chain[-1]

    def hook(u: int, lab: Label, v: int) -> tuple[int, Label, int]:
        """The single dynamic edge encoding source edge (u, lab, v): the
        spelling's last letter, leaving the chain's last node."""
        return (last[(u, lab)], spell[lab][-1], v)

    edges.extend(hook(u, lab, v) for u, lab, v in inst.graph.directed_edges())
    graph = LabeledGraph.build(True, len(names_t), Alphabet("dyck", 2), edges)
    target = Instance(graph, inst.source, inst.sink)

    def translate_one(op: UpdateOp) -> list[UpdateOp]:
        hu, hlab, hv = hook(op.u, op.label, op.v)
        return [UpdateOp(op.op, hu, hlab, hv)]

    return CompiledReduction("neardyck_to_dyck2", inst, target, names_t, ids,
                             translate_one)


# ---------------------------------------------------------------------------
# two pairs, directed -> two pairs, undirected

def compile_dyck2_to_undirected(inst: Instance) -> CompiledReduction:
    """Directed two-pair reachability compiled to an undirected graph.

    Every possible source edge (x, lab, y) owns a chain of 11 interior
    vertices; when the edge is present, 12 undirected edges spell its
    12-letter encoding (with locks) along x, (x,lab,y,1), ...,
    (x,lab,y,11), y.  Interior vertices always exist; only the 12 edges of
    a chain come and go, so one source update is exactly 12 target updates.
    """
    if inst.graph.alphabet != Alphabet("dyck", 2):
        raise ValueError("compilation needs a directed two-pair instance")
    if not inst.graph.directed:
        raise ValueError("source must be directed")
    n = inst.graph.vertex_count
    all_labels = list(Alphabet("dyck", 2).labels())

    names: list[StructuredName] = [(x,) for x in range(n)]
    for x in range(n):
        for lab in all_labels:
            for y in range(n):
                for i in range(1, 12):
                    names.append((x, lab, y, i))
    names_t, ids = _layout(names)

    def chain_edges(x: int, lab: Label, y: int) -> list[tuple[int, Label, int]]:
        phi = PHI_UNDIRECTED[lab]
        stops = [x] + [ids[(x, lab, y, i)] for i in range(1, 12)] + [y]
        return [(stops[i], phi[i], stops[i + 1]) for i in range(12)]

    edges = []
    for x, lab, y in inst.graph.edges:
        edges.extend(chain_edges(x, lab, y))

    graph = LabeledGraph.build(False, len(names_t), Alphabet("dyck", 2), edges)
    target = Instance(graph, inst.source, inst.sink)

    def translate_one(op: UpdateOp) -> list[UpdateOp]:
        return [UpdateOp(op.op, u, lab, v)
                for u, lab, v in chain_edges(op.u, op.label, op.v)]

    return CompiledReduction("dyck2_to_undirected", inst, target, names_t,
                             ids, translate_one)


class Equivalence(NamedTuple):
    """An equivalence run: the source's and the target's answer at each
    query, each source update's translated-op count, and the failures by
    script step."""
    answers: list[bool]
    target_answers: list[bool]
    counts: list[int]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


# reduction kind -> (compiler, engine answering the source, allowed
# translated-op counts per source update)
LANES = {
    "alt_to_neardyck": (compile_alt_to_neardyck, "alt", {1, 2}),
    "neardyck_to_dyck2": (compile_neardyck_to_dyck2, "cfl", {1}),
    "dyck2_to_undirected": (compile_dyck2_to_undirected, "dyck", {12}),
}


def compile_reduction(kind: str, inst: Instance) -> CompiledReduction:
    if kind not in LANES:
        raise ValueError(f"unknown reduction kind {kind!r}; expected one of "
                         f"{sorted(LANES)}")
    return LANES[kind][0](inst)


def run_equivalence(kind: str, inst: Instance,
                    script: list[UpdateOp]) -> Equivalence:
    """Compile, replay, translate, replay, compare.  The source replay
    (answered by the lane's engine) applies, and so validates, every update
    before any is translated; the target replay keeps one bracket index,
    whichever alphabet it has.  Records both answer streams, the
    per-update translated-op counts, and any divergence by script step."""
    red = compile_reduction(kind, inst)
    _compiler, source_engine, bounds = LANES[kind]
    answers = run_replay(inst, script, source_engine)
    counts: list[int] = []
    failures: list[str] = []
    translated: list[UpdateOp] = []
    query_steps = []
    for step, op in enumerate(script):
        if op.op == "query":
            translated.append(op)
            query_steps.append(step)
            continue
        try:
            ops = red.translate(op)
        except ValueError as exc:
            raise ValueError(f"{exc}{op.where()}") from None
        counts.append(len(ops))
        if len(ops) not in bounds:
            failures.append(f"step {step}: translated into {len(ops)} ops, "
                            f"expected {sorted(bounds)}")
        translated.extend(ops)
    target_answers = run_replay(red.target, translated)
    for step, src_ans, tgt_ans in zip(query_steps, answers, target_answers):
        if src_ans != tgt_ans:
            failures.append(f"step {step}: source={src_ans} target={tgt_ans}")
    return Equivalence(answers, target_answers, counts, failures)
