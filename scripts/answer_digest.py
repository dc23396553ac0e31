#!/usr/bin/env python3
"""Print one line per benchmark query: workload, command, exit code, digest.

Usage, from anywhere:

    python scripts/answer_digest.py ROOT [--workload NAME]

ROOT is a checkout of this repository. The script drives the seed-41
workloads of ROOT's own ``perfbench`` (both, or only NAME) through ROOT's own
``src/apackets``, in this process, and prints for every query sent:

    <workload> <command> <exit code> <blake2b digest of stdout>

Two checkouts answer alike exactly when their outputs are equal, so
comparing the output for a base commit with the output for a change shows
whether the change altered any answer. It changes no file under ROOT.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", type=Path, help="the checkout to drive")
    ap.add_argument("--workload", help="only this workload (default: all)")
    args = ap.parse_args()
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    os.chdir(root)  # the fixture queries name their workspaces relative to the root

    import apackets
    import run as R
    import workloads as W

    if not Path(apackets.__file__).resolve().is_relative_to(root):
        print(f"apackets imported from {apackets.__file__}, not from {root}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(W.WORKLOADS)
    if not set(names) <= set(W.WORKLOADS):
        print(f"unknown workload {args.workload!r}; known: {', '.join(W.WORKLOADS)}", file=sys.stderr)
        return 2
    runner = R.InProcess()
    for name in names:
        wl = W.WORKLOADS[name](41, root)
        log: list = []
        R.drive(wl.units, runner, R.Tally(), log=log)
        for sent in log:
            for query, code, digest in sent:
                print(f"{name} {query.cmd} {code} {digest.hex()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
