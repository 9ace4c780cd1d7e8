"""dycklab benchmark: one command, four workloads.

    python3 perfbench/run.py --workload grow --seed 1 --seconds 15 --trace 0

Run from the root of a dycklab checkout.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-layer metrics, the tracing
overhead and how much traced time the layers do not account for.
``--smoke`` runs every workload at tiny sizes, traced and untraced, plus the
checker's self-test, and exits 0 if all of it passed.

Everything runs in this one process, on one thread.  See README.md for the
workloads, the metrics and reference figures.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import Tracer  # noqa: E402
from workloads import EquivWorkload, LemmasWorkload, ReplayWorkload  # noqa: E402

SETUP_REPEATS = 10

# Host-speed probe.  Load from outside the process slowed pure-Python code
# on the 2-core reference host by up to 1.7x, in spells of seconds to
# minutes.  A fixed pure-Python loop that allocates nothing (so the
# program's heap cannot change its speed) is timed before every call; each
# call's time is divided by the probe's slowdown around it, i.e. scaled to
# the host's quiet speed.
PROBE_ITERATIONS = 3000
PROBE_NOMINAL_S = 0.00034   # the probe's time on the reference host, quiet
PROBE_WINDOW = 5            # calls on each side whose probes are pooled
_PROBE_KEYS = [(i * 7919) % 1024 for i in range(1024)]
_PROBE_VALUES = {i: i * 31 for i in range(1024)}


def probe() -> float:
    keys, values = _PROBE_KEYS, _PROBE_VALUES
    acc = 0
    t0 = time.perf_counter()
    for i in range(PROBE_ITERATIONS):
        acc += values[keys[i & 1023]] ^ i
    return time.perf_counter() - t0


def slowdowns(probes: list[float]) -> list[float]:
    """Per call, the median probe time of its neighbourhood over the
    nominal probe time."""
    w = PROBE_WINDOW
    return [statistics.median(probes[max(0, i - w):i + w + 1]) / PROBE_NOMINAL_S
            for i in range(len(probes))]


# name -> (full-size workload, smoke-size workload, seconds a full round
# takes on the reference host when it is quiet)
WORKLOADS = {
    "grow": (lambda: ReplayWorkload("grow", 180),
             lambda: ReplayWorkload("grow", 3), 4.0),
    "churn": (lambda: ReplayWorkload("churn", 90),
              lambda: ReplayWorkload("churn", 3), 6.5),
    "equiv": (lambda: EquivWorkload((8, 6, 2)),
              lambda: EquivWorkload((1, 1, 1)), 6.0),
    "lemmas": (lambda: LemmasWorkload(9),
               lambda: LemmasWorkload(2, lemma5_max_len=6), 8.5),
}
MIN_ROUNDS = 2


def rounds_for(seconds: float, round_s: float) -> int:
    """Whole rounds that fill ``seconds`` on a quiet host, at least
    MIN_ROUNDS.  The count depends on ``seconds`` only, never on how busy
    the host is, so every run makes the same calls and each call's fastest
    round is taken over the same number of tries."""
    return max(MIN_ROUNDS, int(seconds // round_s))


END_TO_END = {
    "setup_s": "s",
    "call_ms.p50": "ms",
    "work_per_s": "1/s",
}

PER_LAYER_S = (
    "cli.main", "graphs.parse_graph", "graphs.parse_updates",
    "graphs.apply_update", "graphs.Instance.fingerprint",
    "saturate.resolve_after_update.ins", "saturate.resolve_after_update.del",
    "saturate.solve_dyck", "saturate.solve_cfl",
    "reductions.compile_reduction", "reductions.translate",
    "alternating.solve_alternating", "words.reduce_word", "words.in_q",
    "words.in_q_init", "automata.Nfa.advance", "automata.Nfa.accepts",
    "automata.enumerate_accepted", "oracle.enumerate_nominal_paths",
    "oracle.enumerate_paths", "suites.suite_lemma4", "suites.suite_lemma5",
    "suites.suite_lemma6", "suites.suite_lemma7",
)
PER_LAYER_CALLS = (
    "graphs.apply_update", "graphs.Instance.fingerprint",
    "saturate.resolve_after_update.ins", "saturate.resolve_after_update.del",
    "saturate.solve_dyck", "saturate.solve_cfl", "reductions.translate",
    "alternating.solve_alternating", "words.reduce_word", "words.in_q",
    "words.in_q_init", "automata.Nfa.advance", "automata.Nfa.accepts",
    "oracle.enumerate_nominal_paths", "oracle.enumerate_paths",
)
PER_LAYER_COUNTS = (
    "saturate.pairs", "reductions.translate.ops",
    "reductions.target_vertices", "reductions.target_edges",
    "oracle.enumerate_nominal_paths.paths",
    "oracle.enumerate_nominal_paths.truncated",
    "oracle.enumerate_paths.paths", "suites.checked",
)


def per_layer_names() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    names = {f"{n}.s": "s/round" for n in PER_LAYER_S}
    names.update({f"{n}.calls": "count/round" for n in PER_LAYER_CALLS})
    names.update({n: "count/round" for n in PER_LAYER_COUNTS})
    names.update({"trace.overhead_s": "s/round", "trace.overhead_pct": "%",
                  "trace.unattributed_s": "s/round", "trace.wall_s": "s/round"})
    return names


# ---------------------------------------------------------------------------

def import_program() -> dict:
    """Import dycklab afresh (dropping any earlier import) and return its
    modules by short name."""
    for name in [m for m in sys.modules if m == "dycklab" or m.startswith("dycklab.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dl = importlib.import_module("dycklab")
    modules = {"dycklab": dl}
    for short in ("alternating", "automata", "cli", "graphs", "one_letter",
                  "oracle", "reductions", "saturate", "suites", "words"):
        modules[short] = importlib.import_module(f"dycklab.{short}")
    return modules


class Run:
    """One benchmark run of one workload."""

    def __init__(self, workload, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.problems: list[str] = []    # wrong outputs
        self.crashes: list[str] = []     # calls that raised
        self.attempted = 0
        self.failed = 0
        self.flip_caught = None

    def prepare(self, seed: int):
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.workload.make(random.Random(seed), self.work_dir)
        self.workload.expect(import_program()["dycklab"])
        setup, probes = [], []
        for _ in range(SETUP_REPEATS):
            probes.append(probe())
            t0 = time.perf_counter()
            modules = import_program()
            ops = self.workload.setup(modules)
            setup.append(time.perf_counter() - t0)
        self.setup_s = statistics.median(
            t / f for t, f in zip(setup, slowdowns(probes)))
        self.modules, self.ops = modules, ops

    def round(self, times: list[list[float]], work: list[int],
              tracer: Tracer | None = None) -> tuple[float, float]:
        """Every operation once; appends each call's scaled time to
        ``times`` and returns their sum and the raw (unscaled) sum."""
        outputs, raw, probes = [], [], []
        clock = time.perf_counter
        for op in self.ops:
            if tracer is not None:
                tracer.op_id += 1
            self.attempted += 1
            probes.append(probe())
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a failed operation
                out = exc
            raw.append(clock() - t0)
            outputs.append(out)
        scaled = [t / f for t, f in zip(raw, slowdowns(probes))]
        for i, t in enumerate(scaled):
            times[i].append(t)
        for i, (op, out) in enumerate(zip(self.ops, outputs)):
            if isinstance(out, Exception):
                self.failed += 1
                self.crashes.append(f"{op.label}: {type(out).__name__}: {out}")
                continue
            problems = op.check(out)
            self.problems += [f"{op.label}: {p}" for p in problems]
            if not problems:
                work[i] = op.work(out)
        # self-test: the checker must reject the last output with one
        # answer inverted (the last op is one whose answers are checked
        # against the grammar engine, or a suite verdict)
        if self.flip_caught is None and not isinstance(out, Exception):
            self.flip_caught = bool(op.check(op.flip(out)))
            if not self.flip_caught:
                self.problems.append(f"{op.label}: checker missed a flipped answer")
        return sum(scaled), sum(raw)

    def measure(self, rounds: int, trace: bool) -> dict:
        """``rounds`` rounds; traced, half as many pairs of an untraced and
        a traced round."""
        n = len(self.ops)
        times: list[list[float]] = [[] for _ in range(n)]
        work = [0] * n
        if not trace:
            for _ in range(rounds):
                self.round(times, work)
            return {"times": times, "work": work}
        tracer = Tracer()
        plain = traced = traced_raw = 0.0
        pairs = max(1, rounds // 2)
        for _ in range(pairs):
            plain += self.round(times, work)[0]
            with tracer.installed(self.modules):
                scaled, raw = self.round(times, work, tracer)
            traced += scaled
            traced_raw += raw
        return {"tracer": tracer, "rounds": pairs, "plain_s": plain,
                "traced_s": traced, "traced_raw_s": traced_raw}


def _quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100)[pct - 1]


def tail_percentile(samples: int) -> int:
    """The highest percentile with at least ten samples beyond it."""
    return max(1, (100 * (samples - 10)) // samples)


def end_to_end(run: Run, m: dict) -> dict:
    # a call's time is its fastest round: slow spells that the probe does
    # not fully correct inflate single rounds, not the fastest one
    best = [min(t) for t in m["times"]]
    ms = [1000 * t for t in best]
    metrics = {
        "setup_s": run.setup_s,
        "call_ms.p50": statistics.median(ms),
        "work_per_s": sum(m["work"]) / sum(best),
    }
    if len(ms) >= 40:  # fewer calls make no tail: report the median alone
        tail_pct = tail_percentile(len(ms))
        metrics[f"call_ms.p{tail_pct}"] = _quantile(ms, tail_pct)
    return metrics


def per_layer(m: dict) -> dict:
    tracer: Tracer = m["tracer"]
    rounds = m["rounds"]
    self_s, calls = tracer.self_times(), tracer.calls()
    out = {}
    for n in PER_LAYER_S:
        out[f"{n}.s"] = self_s.get(n, 0.0) / rounds
    for n in PER_LAYER_CALLS:
        out[f"{n}.calls"] = calls.get(n, 0) / rounds
    for n in PER_LAYER_COUNTS:
        out[n] = tracer.counters.get(n, 0) / rounds
    spanned = sum(self_s.values())
    out["trace.overhead_s"] = (m["traced_s"] - m["plain_s"]) / rounds
    out["trace.overhead_pct"] = 100 * (m["traced_s"] - m["plain_s"]) / m["plain_s"]
    out["trace.unattributed_s"] = (m["traced_raw_s"] - spanned) / rounds
    out["trace.wall_s"] = m["traced_raw_s"] / rounds
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 smoke: bool = False) -> tuple[dict, int]:
    """One run; returns its result and how many failed calls are known
    faults (see ``known_failures``)."""
    full, tiny, round_s = WORKLOADS[name]
    work_dir = HERE / "out" / f"inputs-{name}-s{seed}-t{int(trace)}-{os.getpid()}"
    run = Run(tiny() if smoke else full(), work_dir)
    try:
        run.prepare(seed)
        m = run.measure(1 if smoke else rounds_for(seconds, round_s), trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if trace:
        metrics = per_layer(m)
        tracer: Tracer = m["tracer"]
        dump = tracer.dump()
        dump["metrics"] = metrics
        (HERE / "out" / f"trace-{name}-s{seed}.json").write_text(
            json.dumps(dump, indent=1))
        # the layers' self times must add up to the traced wall time, up to
        # what tracing itself costs (or 1 % of the wall time, if more)
        slack = max(metrics["trace.overhead_s"], 0.01 * metrics["trace.wall_s"])
        if metrics["trace.unattributed_s"] > slack:
            run.problems.append(
                f"layer self times leave {metrics['trace.unattributed_s']:.4f} s "
                f"per round unaccounted, more than {slack:.4f} s")
        units = per_layer_names()
    else:
        metrics = end_to_end(run, m)
        units = END_TO_END
        print(f"{name}: {len(run.ops)} calls a round, {len(m['times'][0])} "
              f"rounds; a call's time is its fastest round")
    for key, value in metrics.items():
        unit = units.get(key, "ms")
        print(f"{name}: {key} = {value:.6g} {unit}")
    print(f"{name}: attempted {run.attempted} calls, failed {run.failed}")
    for c in run.crashes[:len(run.ops)]:
        print(f"{name}: failed: {c}")
    for p in run.problems[:20]:
        print(f"{name}: wrong: {p}")
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    known = run.workload.known_failures * run.attempted // len(run.ops)
    return result, known


def smoke() -> int:
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result, known = run_workload(name, 1, 0.0, trace, smoke=True)
            good = result["correct"] and result["failed"] == known
            ok &= good
            print(f"smoke {name} trace={int(trace)}: "
                  f"{'ok' if good else 'FAILED'} ({result['attempted']} calls)")
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15,
                   help="sets the number of rounds: as many as fill this "
                        f"on a quiet host, at least {MIN_ROUNDS}")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "dycklab" / "__init__.py").is_file():
        print(f"error: no dycklab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    (HERE / "out").mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        p.error("--workload is required")
    result, _known = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace))
    line = json.dumps(result)
    (HERE / "out" / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
