"""Benchmark of the apackets calculator.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is packet-survey or large-jord (see NOTES.md for what each one sends
and why). Each workload is a closed loop with one client in this process:
the next query goes out when the previous answer is back and checked.

--trace 0 measures for S seconds of query time with tracing off and reports
the end-to-end metrics. --trace 1 sends the workload's first window twice,
untraced and then traced, and reports the per-layer metrics, the
per-command medians of the untraced pass and the tracing overhead; the
spans go to perfbench/out/spans-NAME.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The exit code is 0 when every
check could run, 2 when the checkout lacks the program, 1 otherwise.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import tracer as T
import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_RUNS = 5  # import samples in the traced run
START_RUNS = 5
CHILD_TIMEOUT_S = 120
COMMANDS = ("validate", "packet", "order", "transfer", "jac")


def child_env() -> dict[str, str]:
    """The environment of every child: this interpreter's own, with only
    ``src`` on the import path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_child(cmd: list[str], stdin: bytes | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=child_env(), input=stdin,
                          stdin=None if stdin is not None else subprocess.DEVNULL,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          timeout=CHILD_TIMEOUT_S)


class InProcess:
    """Sends one query to ``apackets.cli.run`` in this process."""

    def __init__(self, tr: T.Tracer | None = None) -> None:
        import apackets.cli

        self.cli = apackets.cli
        self.tr = tr

    def __call__(self, q: W.Query) -> tuple[W.Result, float]:
        out = io.StringIO()
        sys.stdin = io.StringIO(q.stdin or "")
        problem = None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                start = perf_counter()
                try:
                    code = self.cli.run(q.argv)
                except Exception as exc:  # a query that raised counts as failed
                    code, problem = None, f"raised {exc!r}"
                elapsed = perf_counter() - start
        finally:
            sys.stdin = sys.__stdin__
        text = out.getvalue()
        if self.tr is not None:
            self.tr.counts["cli.out_bytes"] += len(text)
        return W.Result(code, text, problem), elapsed


class Tally:
    def __init__(self) -> None:
        self.samples: list[tuple[str, float]] = []
        self.problems: list[tuple[str, str | None]] = []  # (what, known defect or None)

    @property
    def busy(self) -> float:
        return sum(s for _, s in self.samples)


def drive(units, runner, tally: Tally, tr: T.Tracer | None = None,
          log: list | None = None) -> None:
    """Send every query of ``units``; the checks run between queries and are
    not timed. With ``log``, append per unit the queries it sent and the
    exit code and digest of each answer, for ``replay``."""
    for unit in units:
        gen = unit()
        q = next(gen)
        sent = []
        while q is not None:
            if tr is not None:
                tr.query += 1
            r, elapsed = runner(q)
            sent.append((q, r.code, digest(r.out)))
            try:
                nxt = gen.send(r)
            except StopIteration:
                nxt = None
            tally.samples.append((q.cmd, elapsed))
            if r.problem is not None:
                tally.problems.append((f"{' '.join(q.argv)[:160]}: {r.problem}", r.known))
            q = nxt
        if log is not None:
            log.append(sent)


def replay(sent, runner, tally: Tally) -> None:
    """Send the queries one unit sent before. The program is deterministic,
    so each answer must be the one it gave then, byte for byte."""
    for q, code, want in sent:
        r, elapsed = runner(q)
        tally.samples.append((q.cmd, elapsed))
        if (r.code, digest(r.out)) != (code, want):
            tally.problems.append((f"{' '.join(q.argv)[:160]}: answer differs on a repeat", None))


def digest(text: str) -> bytes:
    return hashlib.blake2b(text.encode(), digest_size=16).digest()


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def setup_sample(wl: W.Workload) -> tuple[float, float]:
    """Import + parse time, and import time, in one fresh child."""
    proc = run_child([sys.executable, str(HERE / "setup_child.py")],
                     json.dumps(wl.workspaces).encode())
    if proc.returncode != 0:
        raise SystemExit("set-up child failed")
    t = json.loads(proc.stdout)
    return t["import_s"] + t["parse_s"], t["import_s"]


def start_ms() -> float:
    """Median wall time of a bare interpreter start: the machine's floor."""
    walls = []
    for _ in range(START_RUNS):
        start = perf_counter()
        run_child([sys.executable, "-c", "pass"])
        walls.append(perf_counter() - start)
    return statistics.median(walls) * 1000


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def timed_run(wl: W.Workload, seconds: float) -> tuple[Tally, dict]:
    """One pass over every unit with the oracle checks, then whole windows
    that repeat the same queries until ``seconds`` of query time. Every
    window sends the same mix. Throughput and latency are taken over all
    the queries of the run, so that a slow or fast spell of the shared
    machine is averaged in rather than picked out. Set-up is sampled before
    the first window and after each one.

    The returned tally counts the checked pass and any repeat whose answer
    changed: ``attempted`` and ``failed`` depend on the seed alone, not on
    how many windows the machine's speed allowed."""
    runner = InProcess()
    checked = Tally()
    timed = Tally()
    setups = [setup_sample(wl)[0]]
    n = len(wl.units)
    log: list = []
    k = 0
    while k < n or timed.busy < seconds:
        window = Tally()
        if k < n:
            drive(wl.units[k:k + wl.window_units], runner, window, log=log)
            checked.samples += window.samples
            checked.problems += window.problems
        else:
            for i in range(k, k + wl.window_units):
                replay(log[i % n], runner, window)
            timed.problems += window.problems
        timed.samples += window.samples
        k += wl.window_units
        setups.append(setup_sample(wl)[0])
    checked.problems += dict.fromkeys(timed.problems)  # a changed answer counts once
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = [e for _, e in timed.samples]
    return checked, {
        "setup_s": metric(statistics.median(setups), "s"),
        "queries_per_s": metric(len(lat) / timed.busy, "1/s"),
        "query_p50_ms": metric(statistics.median(lat) * 1000, "ms"),
        "query_p90_ms": metric(percentile(lat, 0.9) * 1000, "ms"),
        "peak_rss_mb": metric(peak_kb / 1024, "MB"),
    }


def traced_run(wl: W.Workload) -> tuple[Tally, dict]:
    """The first window of the workload, untraced and then traced."""
    OUT.mkdir(exist_ok=True)
    units = wl.units[:wl.window_units]
    plain = Tally()
    drive(units, InProcess(), plain)
    tr = T.Tracer()
    traced = Tally()
    T.install(tr)
    drive(units, InProcess(tr), traced, tr)
    layers = T.summarize(tr)
    with open(OUT / f"spans-{wl.name}.jsonl", "w") as fh:
        for span in tr.spans:
            fh.write(json.dumps(span) + "\n")
    metrics = {name: metric(value, _unit(name)) for name, value in layers.items()}
    metrics["process.start_ms"] = metric(start_ms(), "ms")
    imports = [setup_sample(wl)[1] for _ in range(SETUP_RUNS)]
    metrics["process.import_ms"] = metric(statistics.median(imports) * 1000, "ms")
    for cmd in COMMANDS:
        lat = [s for c, s in plain.samples if c == cmd]
        metrics[f"{cmd}.p50_ms"] = metric(statistics.median(lat) * 1000 if lat else 0.0, "ms")
    both = Tally()
    both.samples = plain.samples + traced.samples
    both.problems = plain.problems + traced.problems
    metrics["failed_ratio"] = metric(len(both.problems) / len(both.samples), "ratio")
    metrics["trace.qps_ratio"] = metric(plain.busy / traced.busy, "ratio")
    return both, metrics


def _unit(name: str) -> str:
    if name.endswith("_ms") or name.endswith(".ms"):
        return "ms"
    if name.endswith("_kb"):
        return "KB"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in W.WORKLOADS:
        print(f"== {name}", flush=True)
        proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)], cwd=ROOT)
        status = status or proc.returncode
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "apackets" / "cli.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        print(f"no apackets sources under {ROOT}: nothing to measure", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    os.chdir(ROOT)  # the fixture queries name their workspaces relative to the root
    wl = W.WORKLOADS[args.workload](args.seed, ROOT)
    # Untimed warm-up: compiles the byte code once, as an installed package would have it.
    run_child([sys.executable, "-c", "import apackets.cli"])
    tally, metrics = traced_run(wl) if args.trace else timed_run(wl, args.seconds)

    attempted, failed = len(tally.samples), len(tally.problems)
    unknown = [what for what, known in tally.problems if known is None]
    for name, m in metrics.items():
        print(f"{wl.name:14} {name:30} {m['value']:14.4f} {m['unit']}")
    print(f"{wl.name:14} {'failed_ratio':30} {failed / attempted:14.4f} ratio"
          f" ({failed} of {attempted} queries; {failed - len(unknown)} of them a documented defect)")
    for what, known in tally.problems[:5]:
        print(f"  failed{' (' + known + ')' if known else ''}: {what}")
    for what in unknown[:5]:
        print(f"  failed: {what}")
    print(json.dumps({"correct": not unknown, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
