"""Record the golden answers of the fixture queries: exit code and stdout of every argv.

Run from the root of a checkout of the commit whose answers are the
reference: python3 perfbench/record_golden.py
"""

import json
import sys

import run
import workloads

if __name__ == "__main__":
    entries = []
    for argv in workloads.fixture_argvs():
        proc = run.run_child([sys.executable, "-m", "apackets.cli", *argv])
        entries.append({"argv": argv, "code": proc.returncode, "stdout": proc.stdout.decode()})
    workloads.GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"recorded {len(entries)} answers in {workloads.GOLDEN}")
