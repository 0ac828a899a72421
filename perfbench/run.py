"""Benchmark for ppcf: four workloads over the semantics, the machine
and the CLI, timed end to end, plus a traced run for per-layer numbers.

    python3 perfbench/run.py [--workload NAME|all] [--seed N]
                             [--seconds S] [--trace 0|1] [--corpus-seed N]

Run it from anywhere; it uses the package under ``src/`` next to this
directory, never an installed copy, and exits 2 without a result when
that package is missing.  Each workload runs in its own child process
(worker.py), one at a time, under a wall-clock limit; an op that has
not finished when the limit fires counts as failed.

Untraced (``--trace 0``) a workload runs two passes over all of its
ops, each in its own order, then spends ``--seconds`` re-running, in
rounds, the ops that take less than 15% of a pass.  On a shared
two-vCPU virtual machine, load from other tenants slowed the same op by
up to 1.8x, in bursts of one to fifteen seconds, so each op's latency
is taken as the least of its timings in the run; the timings below are
computed from those.  Every workload reports:

    setup_s      process start to first timed op (imports, input
                 generation, one warm-up op); median of seven set-ups
    ops_per_s    ops per second of one pass at those latencies
    op_p50_ms    median op latency
    op_tail_ms   op latency at the highest percentile with at least ten
                 ops beyond it
    ok_frac      ops that passed their reference check / ops attempted
    peak_rss_mb  peak resident memory of the workload process (for
                 cli-corpus: of its largest ``ppcf.cli`` child)

Traced (``--trace 1``) runs one pass of every workload untraced and the
same pass traced, whatever ``--workload`` names, since each per-layer
metric comes from the workload that exercises its layer; see
BASELINE.json for the list.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every op passed its check, 1 when one did not, 2 on bad usage.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# as in workloads.py, which this process does not import: it never
# loads ppcf itself
WORKLOADS = ["denot-gen", "cost-curve", "mc-super", "cli-corpus"]
DEFAULT_SEED = 20260814
BUDGET_S = 170.0          # whole command, so it ends well within 180 s
SETUP_RUNS = 6            # set-up-only processes besides the timed one
SETUP_LIMIT_S = 30.0
SETUP_RESERVE_S = 15.0    # left for the set-ups after the timed run
# wall-clock limit of each workload's process in a traced run
TRACE_LIMIT_S = {"denot-gen": 70.0, "cost-curve": 30.0, "mc-super": 25.0,
                 "cli-corpus": 45.0}


class Worker:
    """What one worker process reported."""

    def __init__(self, lines: list[dict]):
        self.ops = [x for x in lines if "ms" in x]
        done = [x["done"] for x in lines if "done" in x]
        self.done = done[0] if done else None

    @property
    def attempted(self) -> int:
        return len(self.ops) + (self.done is None)

    @property
    def failed(self) -> int:
        bad = sum(1 for x in self.ops if x["err"])
        if self.done is None:
            return bad + 1                  # the op in flight
        return bad + len(self.done["problems"])


def spawn(mode: str, workload: str, args, limit: float,
          deadline: float) -> Worker:
    limit = max(0.0, min(limit, deadline - time.monotonic()))
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, workload,
         str(args.seed), str(args.seconds), str(args.corpus_seed),
         repr(t0)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        start_new_session=True)
    killed = False
    try:
        out, _ = proc.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        # the whole process group, so a running ppcf.cli child goes too
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        killed = True
        print(f"error: {workload} ({mode}) passed its {limit:.0f} s "
              f"wall-clock limit", file=sys.stderr)
    lines = []
    for line in out.splitlines():
        try:
            lines.append(json.loads(line))
        except ValueError:
            print(f"error: {workload}: bad worker line {line[:200]!r}",
                  file=sys.stderr)
    w = Worker(lines)
    if w.done is None and not killed:
        print(f"error: {workload} ({mode}) exited {proc.returncode} "
              f"without a result", file=sys.stderr)
    elif w.done:
        for p in w.done["problems"]:
            print(f"FAILED {workload}: {p}", file=sys.stderr)
    return w


def timed(workload: str, args, deadline: float):
    """End-to-end metrics of one workload."""
    # half the set-ups before the timed run and half after, so that one
    # burst of outside load does not slow them all
    setups = [spawn("setup", workload, args, SETUP_LIMIT_S, deadline)
              for _ in range(SETUP_RUNS // 2)]
    main = spawn("timed", workload, args,
                 deadline - time.monotonic() - SETUP_RESERVE_S, deadline)
    setups += [spawn("setup", workload, args, SETUP_LIMIT_S, deadline)
               for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    workers = setups + [main]
    attempted = sum(w.attempted for w in workers)
    failed = sum(w.failed for w in workers)
    setup = [w.done["setup_s"] for w in workers if w.done]
    best: dict = {}                 # op index -> least latency, ms
    for x in main.ops:
        if x["op"] >= 0:            # -1 is the warm-up
            best[x["op"]] = min(x["ms"], best.get(x["op"], math.inf))
    if not (main.done and setup and best):
        return attempted, max(failed, 1), {}, ""
    ms = sorted(best.values())
    tail_at = max(len(ms) - 11, 0)          # ten ops beyond it
    tail = 100.0 * (tail_at + 1) / len(ms)
    d = main.done
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (1e3 * len(ms) / sum(ms), "1/s"),
        "op_p50_ms": (statistics.median(ms), "ms"),
        "op_tail_ms": (ms[tail_at], "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (d["peak_rss_mb"], "MB"),
    }
    note = (f"{workload}: 2 passes over {len(ms)} ops, then {d['rounds']} "
            f"rounds over {d['short_ops']} short ones; op_tail_ms is "
            f"p{tail:.4g}")
    return attempted, failed, metrics, note


def traced(args, deadline: float):
    """Per-layer metrics of every workload, and the tracing overhead."""
    attempted = failed = 0
    metrics: dict = {}
    for name in WORKLOADS:
        w = spawn("trace", name, args, TRACE_LIMIT_S[name], deadline)
        attempted += w.attempted
        failed += w.failed
        if not w.done:
            continue
        d = w.done
        if d["unaccounted_s"] > 1e-6:
            print(f"FAILED {name}: span self times miss an op's wall time "
                  f"by {d['unaccounted_s']:.2e} s", file=sys.stderr)
            failed += 1
        metrics.update({k: tuple(v) for k, v in d["layers"].items()})
        metrics[f"trace.overhead_frac.{name}"] = (
            (d["traced_s"] - d["untraced_s"]) / d["untraced_s"], "frac")
    return attempted, failed, metrics


def git_sha() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def version(dist: str) -> str:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return "missing"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help="seeds op order, sampling and check trials")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="time spent re-running short ops after the two "
                         "passes of the timed phase")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corpus-seed", type=int, default=DEFAULT_SEED,
                    help="seed of the denot-gen program corpus")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ppcf" / "__init__.py").is_file():
        print(f"error: no ppcf package under {ROOT / 'src'}",
              file=sys.stderr)
        return 2

    stamp = {"sha": git_sha(), "python": platform.python_version(),
             "numpy": version("numpy"), "scipy": version("scipy"),
             "nproc": os.cpu_count(), "seed": args.seed,
             "corpus_seed": args.corpus_seed, "seconds": args.seconds,
             "trace": args.trace}
    print("# " + json.dumps(stamp))
    deadline = time.monotonic() + BUDGET_S
    if args.trace:
        attempted, failed, metrics = traced(args, deadline)
    else:
        names = WORKLOADS if args.workload == "all" else [args.workload]
        attempted = failed = 0
        metrics = {}
        for name in names:
            if args.workload == "all":
                deadline = time.monotonic() + BUDGET_S
            a, f, m, note = timed(name, args, deadline)
            attempted, failed = attempted + a, failed + f
            prefix = f"{name}." if args.workload == "all" else ""
            metrics.update({prefix + k: v for k, v in m.items()})
            if note:
                print("# " + note)

    for k, (v, unit) in metrics.items():
        print(f"{k:<36} {v:>16.6g} {unit}")
    correct = failed == 0 and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
