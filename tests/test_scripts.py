"""Every script under ``scripts/`` runs to a clean exit at a tiny size, so
a change to the library's names cannot leave one broken unnoticed."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# what a script's summary line must show beyond its clean exit: the fuzz
# leg's walk oracle must have checked near-Dyck samples, not skipped them,
# its grammar-index leg must have checked queries, fresh ones with work
# queued, stale ones that restarted the solve and stale states, its
# apply route must have answered queries with seeds pending and fresh
# ones with work queued, a stale query must have restarted the solve,
# queries must have met a source outside the demand set on solved rows
# and on stale ones, queries must have been answered by the endpoint
# counts, deletions must have left a read index fresh, an index must
# have been first read after a deletion, and a query must have stopped
# at a closing seed's pair with the opening seed queued; the mutants run
# must have killed all five of its mutants
SUMMARIES = {
    "engine_fuzz.py": r"oracle checked [1-9]\d* bracket-pair and [1-9]\d* "
                      r"near-Dyck samples, grammar index checked on [1-9]\d* "
                      r"queries, [1-9]\d* fresh with work queued and "
                      r"[1-9]\d* stale ones restarted, and [1-9]\d* stale "
                      r"states, apply route "
                      r"checked on [1-9]\d* queries, [1-9]\d* with seeds "
                      r"pending and [1-9]\d* fresh with work queued, "
                      r"[1-9]\d* stale queries restarted, [1-9]\d* solved "
                      r"and [1-9]\d* stale queries from outside the demand "
                      r"set, [1-9]\d* answered by the endpoint counts, "
                      r"[1-9]\d* deletions that left a read index fresh, "
                      r"[1-9]\d* first reads after deletions, [1-9]\d* "
                      r"closing-seed tails",
    "mutants.py": r"5 mutants, 5 killed, 0 survived",
}


# each case is named after its script, and its seed where two cases share
# one, so that adding or removing a case renames no other
@pytest.mark.parametrize("argv", [
    pytest.param(("engine_fuzz.py", "--samples", "5", "--max-vertices", "6"),
                 id="engine_fuzz-seed0"),
    pytest.param(("reduction_fuzz.py", "--samples", "2", "--ops", "10"),
                 id="reduction_fuzz"),
    # a second seed, so the fuzz leg's summary holds on more than one stream
    pytest.param(("engine_fuzz.py", "--samples", "5", "--max-vertices", "6",
                  "--seed", "1"), id="engine_fuzz-seed1"),
    pytest.param(("mutants.py", "--only", "duplicate-insertion-accepted",
                  "--only", "stale-yes-keeps-stale-rows",
                  "--only", "brute-reach-pushes-dot",
                  "--only", "last-closing-deletion-keeps-closers",
                  "--only", "lane-bounds-unchecked"), id="mutants"),
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert re.search(SUMMARIES.get(argv[0], ""), proc.stdout), proc.stdout
