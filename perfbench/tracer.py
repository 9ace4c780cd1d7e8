"""Spans around calls into dycklab's public functions, recorded from
outside the package.

``Tracer.installed(modules)`` swaps each traced function for a wrapper in
every dycklab module that holds a reference to it (``from .x import f``
makes copies), and restores the originals on exit.  Each call is a span:
its duration, minus the time its child spans cover, is its self time.  The
word-layer functions run millions of times, so non-root calls are kept as
one aggregate per (parent, function): a count, a total and a self time.
Root spans (calls made with no span open) are kept one by one, tagged with
the id of the benchmark operation that made them.
"""

from __future__ import annotations

import contextlib
import inspect
import time


def _pairs_of(index) -> int:
    return len(index.pairs)


def _enum_paths(result) -> int:
    return len(result.paths)


def _nominal_paths(result) -> int:
    return len(result[0])


def _nominal_truncated(result) -> int:
    return int(result[1])


def _target_vertices(red) -> int:
    return red.target.graph.vertex_count


def _target_edges(red) -> int:
    return len(red.target.graph.edges)


def _checked(result) -> int:
    return result.checked


# (module, attribute path, span name, {counter: f(result)}).  A span name
# ending in "." is completed by the ``op`` field of the call's UpdateOp.
TRACED = (
    ("cli", "main", "cli.main", {}),
    ("graphs", "parse_graph", "graphs.parse_graph", {}),
    ("graphs", "parse_updates", "graphs.parse_updates", {}),
    ("graphs", "apply_update", "graphs.apply_update", {}),
    ("graphs", "Instance.fingerprint", "graphs.Instance.fingerprint", {}),
    ("saturate", "resolve_after_update", "saturate.resolve_after_update.",
     {}),
    ("saturate", "solve_dyck", "saturate.solve_dyck",
     {"saturate.pairs": _pairs_of}),
    ("saturate", "solve_cfl", "saturate.solve_cfl", {}),
    ("reductions", "compile_reduction", "reductions.compile_reduction",
     {"reductions.target_vertices": _target_vertices,
      "reductions.target_edges": _target_edges}),
    ("reductions", "CompiledReduction.translate", "reductions.translate",
     {"reductions.translate.ops": len}),
    ("alternating", "solve_alternating", "alternating.solve_alternating", {}),
    ("words", "reduce_word", "words.reduce_word", {}),
    ("words", "in_q", "words.in_q", {}),
    ("words", "in_q_init", "words.in_q_init", {}),
    ("automata", "Nfa.advance", "automata.Nfa.advance", {}),
    ("automata", "Nfa.accepts", "automata.Nfa.accepts", {}),
    ("automata", "enumerate_accepted", "automata.enumerate_accepted", {}),
    ("oracle", "enumerate_nominal_paths", "oracle.enumerate_nominal_paths",
     {"oracle.enumerate_nominal_paths.paths": _nominal_paths,
      "oracle.enumerate_nominal_paths.truncated": _nominal_truncated}),
    ("oracle", "enumerate_paths", "oracle.enumerate_paths",
     {"oracle.enumerate_paths.paths": _enum_paths}),
    ("suites", "suite_lemma4", "suites.suite_lemma4",
     {"suites.checked": _checked}),
    ("suites", "suite_lemma5", "suites.suite_lemma5",
     {"suites.checked": _checked}),
    ("suites", "suite_lemma6", "suites.suite_lemma6",
     {"suites.checked": _checked}),
    ("suites", "suite_lemma7", "suites.suite_lemma7",
     {"suites.checked": _checked}),
)

# resolve_after_update(index, inst, op): an insertion's index is built in
# place; a deletion's comes from a nested solve_dyck, counted there
_RESOLVE_INS_COUNTERS = {"saturate.pairs": _pairs_of}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []          # open spans: [name, child time]
        self.edges: dict[tuple, list] = {}   # (parent, name) -> [calls, total, self]
        self.roots: list[tuple] = []         # (op id, name, start, duration)
        self.counters: dict[str, int] = {}
        self.op_id = 0

    # -- recording -------------------------------------------------------

    def _close(self, frame, t0: float, dt: float, calls: int = 1):
        stack = self.stack
        stack.pop()
        if stack:
            parent = stack[-1]
            parent[1] += dt
            key = (parent[0], frame[0])
        else:
            key = (None, frame[0])
            self.roots.append((self.op_id, frame[0], t0, dt))
        rec = self.edges.get(key)
        if rec is None:
            rec = self.edges[key] = [0, 0.0, 0.0]
        rec[0] += calls
        rec[1] += dt
        rec[2] += dt - frame[1]

    def _count(self, counters, result):
        for key, fn in counters.items():
            self.counters[key] = self.counters.get(key, 0) + fn(result)

    def wrap(self, fn, name: str, counters: dict):
        clock = time.perf_counter
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(fn, name)
        by_op = name.endswith(".")

        def traced(*args, **kwargs):
            if by_op:
                kind = (args[2] if len(args) > 2 else kwargs["op"]).op
                frame = [name + kind, 0.0]
                cnt = _RESOLVE_INS_COUNTERS if kind == "ins" else counters
            else:
                frame = [name, 0.0]
                cnt = counters
            self.stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame, t0, clock() - t0)
            if cnt:
                self._count(cnt, result)
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        """A generator's span is the sum of its resumptions, counted as one
        call; its consumer's work between two items is not charged to it."""
        clock = time.perf_counter

        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = [name, 0.0]
                self.stack.append(frame)
                t0 = clock()
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(frame, t0, clock() - t0, calls)
                    return
                self._close(frame, t0, clock() - t0, calls)
                calls = 0
                yield item

        return traced

    # -- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, modules: dict):
        """Wrap every TRACED function for the duration of the block.
        ``modules`` maps short names (``"saturate"``) to module objects."""
        patches = []  # (owner, attribute, original)
        for mod_name, path, name, counters in TRACED:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            wrapped = self.wrap(original, name, counters)
            holders = [owner] if outer else [
                m for m in modules.values()
                if any(v is original for v in vars(m).values())]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        patches.append((holder, key, original))
                        setattr(holder, key, wrapped)
        try:
            yield self
        finally:
            for holder, key, original in reversed(patches):
                setattr(holder, key, original)

    # -- results ---------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for (_parent, name), (_calls, _total, self_s) in self.edges.items():
            out[name] = out.get(name, 0.0) + self_s
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for (_parent, name), (calls, _total, _self) in self.edges.items():
            out[name] = out.get(name, 0) + calls
        return out

    def dump(self) -> dict:
        return {
            "roots": [{"op": op, "name": name, "start": start, "dur": dur}
                      for op, name, start, dur in self.roots],
            "edges": [{"parent": parent, "name": name, "calls": calls,
                       "total_s": total, "self_s": self_s}
                      for (parent, name), (calls, total, self_s)
                      in sorted(self.edges.items(), key=lambda kv: str(kv[0]))],
            "counters": dict(sorted(self.counters.items())),
        }
