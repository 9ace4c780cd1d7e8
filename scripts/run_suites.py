#!/usr/bin/env python3
"""Run the bounded verification suites and print their reports.

Usage: python3 scripts/run_suites.py [suite ...]
Suites: q-validate lemma4 lemma5 lemma6 lemma7 prop1 (default: all)
"""

import argparse
import sys
import time

from dycklab.suites import SUITES


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("suites", nargs="*", metavar="suite",
                    help="which suites to run (default: all)")
    args = ap.parse_args()
    for name in args.suites:
        if name not in SUITES:
            ap.error(f"unknown suite {name!r}; choose from {sorted(SUITES)}")

    failed = 0
    for name in args.suites or list(SUITES):
        t0 = time.monotonic()
        res = SUITES[name]()
        dt = time.monotonic() - t0
        print(f"[{name}] {res.summary()}  ({dt:.1f}s)")
        failed += not (res.ok and res.checked)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
