"""Tests of the benchmark itself.

    python3 -m pytest perfbench

The smoke test runs every workload at tiny sizes, untraced and traced, with
all of its correctness checks and the checker's flipped-answer self-test.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent


def _run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(root / "perfbench" / "run.py"), *args],
                          cwd=root, capture_output=True, text=True, timeout=600)


def test_smoke_mode_runs_every_workload_and_check():
    proc = _run(HERE.parent, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    for name in ("grow", "churn", "equiv", "lemmas"):
        for trace in (0, 1):
            assert f"smoke {name} trace={trace}: ok" in proc.stdout


def test_without_program_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "grow", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("samples, pct", [(40, 75), (90, 88), (120, 91)])
def test_tail_percentile_leaves_ten_samples_beyond(samples, pct):
    sys.path.insert(0, str(HERE))
    from run import tail_percentile
    assert tail_percentile(samples) == pct
    assert samples * (100 - pct) / 100 >= 10


def test_tracer_wraps_dycklab_and_puts_it_back():
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(HERE.parent / "src"))
    from run import import_program
    from tracer import Tracer

    modules = import_program()
    dl, sat = modules["dycklab"], modules["saturate"]
    original = sat.solve_dyck
    inst = dl.parse_graph("graph directed\nvertices 3\nalphabet dyck 1\n"
                          "edge 0 l1 1\nedge 1 l1bar 2\nmark 0 2\n")
    drop = dl.UpdateOp.delete(0, dl.Label("l", 1, False), 1)
    tracer = Tracer()
    with tracer.installed(modules):
        assert modules["cli"].solve_dyck is not original
        index = sat.resolve_after_update(sat.solve_dyck(inst), inst, drop)
    assert sat.solve_dyck is original and modules["cli"].solve_dyck is original
    assert not index.query(0, 2)
    calls = tracer.calls()
    assert calls["saturate.solve_dyck"] == 2   # one direct, one for the deletion
    assert calls["saturate.resolve_after_update.del"] == 1
    nested = ("saturate.resolve_after_update.del", "saturate.solve_dyck")
    assert tracer.edges[nested][0] == 1
    assert tracer.counters["saturate.pairs"] == 4 + 3
    roots = sum(duration for *_rest, duration in tracer.roots)
    assert abs(sum(tracer.self_times().values()) - roots) < 1e-9
