#!/usr/bin/env python3
"""Fuzz the three gadget compilers end to end: random source instances and
update scripts, source and compiled target solved side by side.

Usage: python3 scripts/reduction_fuzz.py [--samples N] [--seed S] [--ops K]
"""

import argparse
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "tests"))

from dycklab.reductions import run_equivalence
from util import (random_alt_instance, random_dyck_instance,
                  random_neardyck_instance, random_script)


LANES = {
    "alt_to_neardyck": lambda rng: random_alt_instance(rng, 6),
    "neardyck_to_dyck2": lambda rng: random_neardyck_instance(rng, 5),
    "dyck2_to_undirected": lambda rng: random_dyck_instance(
        rng, max_vertices=4, pairs=2, density=0.15),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--samples", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--ops", type=int, default=20)
    ap.add_argument("--kind", choices=list(LANES), default=None,
                    help="restrict to one reduction (default: all three)")
    args = ap.parse_args()

    kinds = [args.kind] if args.kind else list(LANES)
    for kind in kinds:
        rng = random.Random(args.seed)
        t0 = time.monotonic()
        for i in range(args.samples):
            inst = LANES[kind](rng)
            script = random_script(rng, inst, ops=args.ops)
            report = run_equivalence(kind, inst, script)
            if not report.ok:
                print(f"[{kind}] sample {i} FAILED:")
                for f in report.failures:
                    print(f"  {f}")
                return 1
        dt = time.monotonic() - t0
        print(f"[{kind}] {args.samples} scripts, 0 mismatches, {dt:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
