"""Labeled graphs, alphabets, instances and edge updates.

Vertices are dense integers ``0..vertex_count-1``.  Labels come from either
a bracket alphabet with ``n`` matched pairs (tokens ``l1``, ``l1bar``, ...)
or a per-vertex bracket alphabet with a neutral symbol (tokens ``v0``,
``v0bar``, ..., ``dot``).  Undirected graphs store each edge once, with the
endpoints in canonical order, and report it in both directions.
"""

from __future__ import annotations

import functools
import re
from typing import Iterable, Iterator, NamedTuple, Optional


class GraphFormatError(ValueError):
    """Raised on malformed graph or update-script text."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UpdateError(ValueError):
    """Raised when an insertion or deletion is not applicable."""


class Label(NamedTuple):
    """A single edge label.

    ``base`` is ``"l"`` for bracket pair ``index`` (1-based), ``"v"`` for the
    per-vertex pair of vertex ``index`` (0-based), or ``"dot"`` for the
    neutral symbol.  ``bar`` marks the closing partner.
    """

    base: str
    index: int
    bar: bool

    def matched(self) -> "Label":
        """The closing partner of an opening label and vice versa."""
        if self.base == "dot":
            raise ValueError("the neutral symbol has no matching partner")
        return Label(self.base, self.index, not self.bar)

    def token(self) -> str:
        if self.base == "dot":
            return "dot"
        return f"{self.base}{self.index}{'bar' if self.bar else ''}"

    def __repr__(self) -> str:  # keep failure output readable
        return self.token()


DOT = Label("dot", 0, False)

_TOKEN_RE = re.compile(r"(l|v)(0|[1-9][0-9]*)(bar)?")

# Convenience aliases used by the word-level tooling: the two-pair bracket
# alphabet doubles as {0, 1, 0bar, 1bar} and as {a, b, abar, bbar}.
_ALIASES = {
    "0": "l1", "0bar": "l1bar", "1": "l2", "1bar": "l2bar",
    "a": "l1", "abar": "l1bar", "b": "l2", "bbar": "l2bar",
}


@functools.lru_cache(maxsize=1024)
def parse_label_token(token: str) -> Label:
    """The label a token names.  Bracket pairs ``l<k>`` count from 1,
    vertex pairs ``v<i>`` from 0.  Memoized: a file repeats few distinct
    tokens, a ``Label`` is immutable, and a bad token raises each time."""
    token = _ALIASES.get(token, token)
    if token == "dot":
        return DOT
    m = _TOKEN_RE.fullmatch(token)
    if not m or (m.group(1) == "l" and m.group(2) == "0"):
        raise ValueError(f"unknown label token {token!r}")
    return Label(m.group(1), int(m.group(2)), m.group(3) is not None)


# The package's records are NamedTuples, not dataclasses: a dataclass
# generates its methods with ``exec`` when its module is imported, about
# 1 ms a class.  A record that validates its fields subclasses a NamedTuple
# of its fields and checks them in ``__new__``; ``_replace`` skips the
# checks.

class _AlphabetFields(NamedTuple):
    kind: str  # "dyck" | "neardyck"
    size: int


class Alphabet(_AlphabetFields):
    """Either ``dyck(n)`` (n bracket pairs) or ``neardyck(N)`` (per-vertex
    pairs for vertices ``0..N-1`` plus the neutral symbol)."""

    __slots__ = ()

    def __new__(cls, kind: str, size: int):
        if kind not in ("dyck", "neardyck"):
            raise ValueError(f"unknown alphabet kind {kind!r}")
        if size < 1:
            raise ValueError("alphabet size must be positive")
        return super().__new__(cls, kind, size)

    def contains(self, label: Label) -> bool:
        if label.base == "dot":
            return self.kind == "neardyck"
        if label.base == "l":
            return self.kind == "dyck" and 1 <= label.index <= self.size
        if label.base == "v":
            return self.kind == "neardyck" and 0 <= label.index < self.size
        return False

    def open_labels(self) -> Iterator[Label]:
        if self.kind == "dyck":
            for k in range(1, self.size + 1):
                yield Label("l", k, False)
        else:
            for i in range(self.size):
                yield Label("v", i, False)

    def labels(self) -> Iterator[Label]:
        for lab in self.open_labels():
            yield lab
            yield lab.matched()
        if self.kind == "neardyck":
            yield DOT


_FIRST_INDEX = {"l": 1, "v": 0}


class _LabelSlots(dict):
    """One alphabet's labels, each with its slot: ``2j`` for the ``j``-th
    opening label (``l_k`` is the ``(k-1)``-th, ``v_i`` the ``i``-th), one
    more for its closing partner, and -1 for ``dot``.  So an even slot
    opens, an odd one above 0 closes, and a slot indexes a list with one
    table per label, ``dot``'s last.  A label outside the alphabet maps
    to None.  Each label is resolved on its first lookup, so an alphabet
    costs only the labels its graphs and scripts use."""

    __slots__ = ("alphabet",)

    def __init__(self, alphabet: "Alphabet"):
        super().__init__()
        self.alphabet = alphabet

    def __missing__(self, lab: Label) -> Optional[int]:
        if not self.alphabet.contains(lab):
            slot = None
        elif lab.base == "dot":
            slot = -1
        else:
            slot = 2 * (lab.index - _FIRST_INDEX[lab.base]) + lab.bar
        self[lab] = slot
        return slot


@functools.lru_cache
def label_slots(alphabet: Alphabet) -> dict[Label, Optional[int]]:
    """The slot of each label, None for one outside ``alphabet``
    (``_LabelSlots``).  Memoized: an alphabet is immutable, so each keeps
    one table, and looking a label up in it is the package's check that
    the alphabet holds the label."""
    return _LabelSlots(alphabet)


Edge = tuple[int, Label, int]


class LabeledGraph(NamedTuple):
    """Immutable labeled graph.  ``edges`` holds canonical triples only."""

    directed: bool
    vertex_count: int
    alphabet: Alphabet
    edges: frozenset[Edge]

    @staticmethod
    def build(directed: bool, vertex_count: int, alphabet: Alphabet,
              edges: Iterable[Edge]) -> "LabeledGraph":
        canon = set()
        slots = label_slots(alphabet)
        for e in edges:
            u, lab, v = e
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphFormatError(f"edge endpoint out of range: {e}")
            if slots[lab] is None:
                raise GraphFormatError(f"label {lab.token()} not in alphabet")
            canon.add((u, lab, v) if directed or u <= v else (v, lab, u))
        return LabeledGraph(directed, vertex_count, alphabet, frozenset(canon))

    def has_edge(self, u: int, label: Label, v: int) -> bool:
        return ((u, label, v) if self.directed or u <= v
                else (v, label, u)) in self.edges

    def directed_edges(self) -> Iterator[Edge]:
        """All edges as directed triples; undirected edges appear both ways
        (a self-loop appears once)."""
        for u, lab, v in self.edges:
            yield (u, lab, v)
            if not self.directed and u != v:
                yield (v, lab, u)


class _InstanceFields(NamedTuple):
    graph: LabeledGraph
    source: int
    sink: int
    partition: Optional[tuple[str, ...]] = None


class Instance(_InstanceFields):
    """A graph with a marked source/sink pair and an optional and/or
    partition (``partition[v]`` is ``"and"`` or ``"or"``)."""

    __slots__ = ()

    def __new__(cls, graph: LabeledGraph, source: int, sink: int,
                partition: Optional[tuple[str, ...]] = None):
        n = graph.vertex_count
        if not (0 <= source < n and 0 <= sink < n):
            raise GraphFormatError("marked vertex out of range")
        if partition is not None:
            if len(partition) != n:
                raise GraphFormatError("partition must cover every vertex")
            if any(p not in ("and", "or") for p in partition):
                raise GraphFormatError("partition entries must be and/or")
        return super().__new__(cls, graph, source, sink, partition)

    def fingerprint(self) -> int:
        # hash(None) is an address; no partition is empty, so () stands in
        g = self.graph
        return hash((g.directed, g.vertex_count, g.alphabet, g.edges,
                     self.source, self.sink, self.partition or ()))


class UpdateOp(NamedTuple):
    """``ins``/``del`` of one edge, or a ``query`` of the marked pair.
    ``line`` is the script line an op was parsed from, for error messages;
    it takes no part in comparisons, hashing or the repr."""

    op: str  # "ins" | "del" | "query"
    u: int = -1
    label: Optional[Label] = None
    v: int = -1
    line: Optional[int] = None

    def __eq__(self, other) -> bool:
        return type(other) is UpdateOp and self[:4] == other[:4]

    def __ne__(self, other) -> bool:
        return not self == other

    def __hash__(self) -> int:
        return hash(self[:4])

    def __repr__(self) -> str:
        return (f"UpdateOp(op={self.op!r}, u={self.u!r}, "
                f"label={self.label!r}, v={self.v!r})")

    @staticmethod
    def ins(u: int, label: Label, v: int) -> "UpdateOp":
        return UpdateOp("ins", u, label, v)

    @staticmethod
    def delete(u: int, label: Label, v: int) -> "UpdateOp":
        return UpdateOp("del", u, label, v)

    @staticmethod
    def query() -> "UpdateOp":
        return UpdateOp("query")

    def where(self) -> str:
        """`` (script line N)`` for an op parsed from a script, else empty:
        the suffix of an error message about this op."""
        return "" if self.line is None else f" (script line {self.line})"


def apply_update(inst: Instance, op: UpdateOp) -> Instance:
    """Apply one update; strict (no-op insertions/deletions are errors).
    The error of an op parsed from a script names its line.  Only the
    edge set changes, so the marks and the partition are not checked
    again."""
    if op.op == "query":
        return inst
    g = inst.graph
    u, lab, v = op.u, op.label, op.v
    e = (u, lab, v) if g.directed or u <= v else (v, lab, u)
    if op.op == "ins":
        if not (0 <= u < g.vertex_count and 0 <= v < g.vertex_count):
            problem = f"edge endpoint out of range: ({u}, {lab.token()}, {v})"
        elif label_slots(g.alphabet)[lab] is None:
            problem = f"label {lab.token()} not in alphabet"
        elif e in g.edges:
            problem = f"duplicate edge ({u}, {lab.token()}, {v})"
        else:
            return inst._replace(graph=LabeledGraph(
                g.directed, g.vertex_count, g.alphabet, g.edges | {e}))
    elif op.op == "del":
        if e in g.edges:
            return inst._replace(graph=LabeledGraph(
                g.directed, g.vertex_count, g.alphabet, g.edges - {e}))
        problem = f"missing edge ({u}, {lab.token()}, {v})"
    else:
        problem = f"unknown update {op.op!r}"
    raise UpdateError(problem + op.where())


# ---------------------------------------------------------------------------
# File formats

@functools.lru_cache(maxsize=4096)
def parse_number(field: str) -> int:
    """The non-negative integer ``field`` spells: ASCII digits without
    leading zeros, so each number has one spelling (``int`` would also take
    ``01``, ``+1``, ``1_0`` and non-ASCII digits).  Memoized: in the
    benchmark's replay files 58 distinct numerals make up 99 % of 5,300,
    and the cache parses a graph and its script about 20 % faster than the
    bare check (``BENCH_import_records.json``, ``number_cache``)."""
    if field.isdigit() and field.isascii() and (field[0] != "0" or field == "0"):
        return int(field)
    raise ValueError(f"expected a non-negative integer, got {field!r}")


def numbered_fields(text: str) -> list[tuple[int, list[str]]]:
    """Each line of ``text`` that holds more than blanks and a comment, as
    its number and its whitespace-separated fields.  Lines are split as
    ``str.splitlines`` splits them and numbered from 1, and a comment runs
    from ``#`` to the end of its line.  Both file formats read their lines
    here, and ``decode_text`` numbers a bad byte's line the same way."""
    return [(no, fields) for no, raw in enumerate(text.splitlines(), 1)
            if (fields := (raw.split("#", 1)[0] if "#" in raw else raw).split())]


def decode_text(data: bytes) -> str:
    """``data`` decoded as UTF-8.  A byte that is not UTF-8 raises
    ``GraphFormatError`` naming the line that holds it, numbered as
    ``numbered_fields`` numbers lines."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start].decode("utf-8") + "x").splitlines())
        raise GraphFormatError(f"byte 0x{data[exc.start]:02x} is not UTF-8 "
                               f"({exc.reason})", line) from None


def parse_graph(text: str) -> Instance:
    """Parse the line-oriented graph format.

    Header: ``graph directed|undirected``, ``vertices N``,
    ``alphabet dyck n | neardyck N``.  Body: ``edge u <label> v`` lines (no
    edge twice; in an undirected graph ``edge v <label> u`` is the same
    edge), one ``mark s t``, and optionally ``partition and u1 u2 ...`` (the
    remaining vertices are or-vertices).
    """
    def err(msg, no):
        raise GraphFormatError(msg, no)

    def num(field, no):
        try:
            return parse_number(field)
        except ValueError as exc:
            err(str(exc), no)

    # The header is checked before the body, and each body line in turn
    # against it, so an error names the first bad line.
    lines = numbered_fields(text)
    if len(lines) < 3:
        raise GraphFormatError("missing header (graph / vertices / alphabet)")
    (no1, f1), (no2, f2), (no3, f3) = lines[:3]
    if f1[0] != "graph" or len(f1) != 2 or f1[1] not in ("directed", "undirected"):
        err("expected 'graph directed' or 'graph undirected'", no1)
    if f2[0] != "vertices" or len(f2) != 2:
        err("expected 'vertices <N>'", no2)
    vertex_count = num(f2[1], no2)
    if f3[0] != "alphabet" or len(f3) != 3 or f3[1] not in ("dyck", "neardyck"):
        err("expected 'alphabet dyck <n>' or 'alphabet neardyck <N>'", no3)
    size = num(f3[2], no3)
    try:
        alphabet = Alphabet(f3[1], size)
    except ValueError as exc:
        err(str(exc), no3)
    directed = f1[1] == "directed"
    slots = label_slots(alphabet)
    canon = set()
    mark = None
    partition = None
    for no, fields in lines[3:]:
        kw = fields[0]
        if kw == "edge":
            if len(fields) != 4:
                err("expected 'edge <u> <label> <v>'", no)
            try:
                u, lab, v = (parse_number(fields[1]),
                             parse_label_token(fields[2]),
                             parse_number(fields[3]))
            except ValueError as exc:
                err(str(exc), no)
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                err(f"vertex out of range in edge ({u}, {lab.token()}, {v})", no)
            if slots[lab] is None:
                err(f"unknown label token {lab.token()!r} for this alphabet", no)
            key = (u, lab, v) if directed or u <= v else (v, lab, u)
            if key in canon:
                err(f"duplicate edge ({u}, {lab.token()}, {v})", no)
            canon.add(key)
        elif kw == "mark":
            if mark is not None:
                err("duplicate mark line", no)
            if len(fields) != 3:
                err("expected 'mark <s> <t>'", no)
            mark = (num(fields[1], no), num(fields[2], no))
            if not all(0 <= x < vertex_count for x in mark):
                err("marked vertex out of range", no)
        elif kw == "partition":
            if partition is not None:
                err("duplicate partition line", no)
            if len(fields) < 2 or fields[1] != "and":
                err("expected 'partition and <u> ...'", no)
            ands = [num(f, no) for f in fields[2:]]
            if any(not 0 <= a < vertex_count for a in ands):
                err("partition vertex out of range", no)
            and_set = set(ands)
            if len(and_set) != len(ands):
                err("repeated vertex in partition", no)
            partition = tuple("and" if i in and_set else "or"
                              for i in range(vertex_count))
        else:
            err(f"unknown directive {kw!r}", no)

    if mark is None:
        raise GraphFormatError("missing mark line")

    graph = LabeledGraph(directed, vertex_count, alphabet, frozenset(canon))
    return Instance(graph, *mark, partition)


def serialize_graph(inst: Instance) -> str:
    g = inst.graph
    out = [f"graph {'directed' if g.directed else 'undirected'}",
           f"vertices {g.vertex_count}",
           f"alphabet {g.alphabet.kind} {g.alphabet.size}"]
    for u, lab, v in sorted(g.edges):
        out.append(f"edge {u} {lab.token()} {v}")
    out.append(f"mark {inst.source} {inst.sink}")
    if inst.partition is not None:
        ands = [str(i) for i, p in enumerate(inst.partition) if p == "and"]
        out.append("partition and " + " ".join(ands))
    return "\n".join(out) + "\n"


def parse_updates(text: str) -> list[UpdateOp]:
    """Parse an update script: ``ins u <label> v``, ``del u <label> v``,
    ``query`` lines."""
    ops = []
    for no, fields in numbered_fields(text):
        if fields[0] == "query":
            if len(fields) != 1:
                raise GraphFormatError("query takes no arguments", no)
            ops.append(UpdateOp.query())
        elif fields[0] in ("ins", "del"):
            if len(fields) != 4:
                raise GraphFormatError(f"expected '{fields[0]} <u> <label> <v>'", no)
            try:
                u, lab, v = (parse_number(fields[1]),
                             parse_label_token(fields[2]),
                             parse_number(fields[3]))
            except ValueError as exc:
                raise GraphFormatError(str(exc), no)
            ops.append(UpdateOp(fields[0], u, lab, v, line=no))
        else:
            raise GraphFormatError(f"unknown update {fields[0]!r}", no)
    return ops


def serialize_updates(ops: Iterable[UpdateOp]) -> str:
    out = []
    for op in ops:
        if op.op == "query":
            out.append("query")
        else:
            out.append(f"{op.op} {op.u} {op.label.token()} {op.v}")
    return "\n".join(out) + ("\n" if out else "")
