"""One workload in one process; started by run.py, one at a time.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS CORPUS_SEED T0

MODE is ``setup`` (set up, run the warm-up op, stop), ``timed`` (then
two passes over all of the workload's ops, untraced, each in an order
drawn from the seed, then SECONDS of rounds over the ops that take less
than 15% of a pass) or ``trace`` (then one pass in which every op runs
untraced and again traced, plus the workload's probes).  T0 is the
parent's ``time.monotonic()`` just before it started this process, so
set-up time includes interpreter start.

Writes one JSON line per op, ``{"op": index, "ms": ..., "err": ...}``,
flushed as it ends, so a parent that has to kill this process still
knows which ops finished; the last line is ``{"done": {...}}``.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import math
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

# Ops taking this share of a pass or more are not re-run after the two
# passes: they already span several bursts of outside load.
SHORT_SHARE = 0.15

# Calls between layers inside the package that the traced run wraps in a
# span, so that layers only reached from inside another one still show:
# (module, name it is imported under there, span name).
INNER_CALLS = [
    ("ppcf.semantics", "strip", "translate.strip"),
    ("ppcf.semantics", "spy", "translate.spy"),
]


def emit(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def run_op(op, tr, check_error, index: int = -1) -> float:
    label, fn = op
    t = perf_counter()
    try:
        fn(tr)
        err = None
    except check_error as e:
        err = str(e)
    except Exception as e:        # any crash of the program is a failed op
        err = f"{label}: {type(e).__name__}: {e}"
    ms = 1e3 * (perf_counter() - t)
    emit({"op": index, "ms": ms, "err": err})
    if err:
        print(f"FAILED {err}", file=sys.stderr)
    return ms


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


@contextlib.contextmanager
def inner_spans(tr):
    """Wrap the INNER_CALLS in spans while the block runs."""
    saved = []
    for module, attr, span in INNER_CALLS:
        mod = importlib.import_module(module)
        if hasattr(mod, attr):
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, tr.wrap(span, getattr(mod, attr)))
    try:
        yield
    finally:
        for mod, attr, fn in saved:
            setattr(mod, attr, fn)


def timed_phase(wl, seed, seconds, workloads) -> dict:
    """Two passes over all ops, then ``seconds`` of rounds over the short
    ones, so that each of those has a timing from a quiet moment."""
    from spans import NULL

    ops = wl.ops()
    best = [math.inf] * len(ops)
    for p in (1, 2):
        for k in workloads.shuffled(range(len(ops)), seed, p):
            best[k] = min(best[k],
                          run_op(ops[k], NULL, workloads.CheckFailed, k))
    cutoff = SHORT_SHARE * sum(best)
    short = [k for k, ms in enumerate(best) if ms < cutoff]
    start, rounds = perf_counter(), 0
    while short and perf_counter() - start < seconds:
        rounds += 1
        for k in workloads.shuffled(short, seed, 2 + rounds):
            run_op(ops[k], NULL, workloads.CheckFailed, k)
            if perf_counter() - start >= seconds:
                break
    return {"rounds": rounds, "short_ops": len(short)}


def traced_pass(wl, seed, tr, workloads) -> dict:
    """Run every op twice, untraced and traced, back to back and in
    alternating order, so that load from outside and warm caches fall
    on both sides alike; then the probes, traced."""
    from spans import NULL

    ops = wl.ops()
    untraced = traced = 0.0
    for j, k in enumerate(workloads.shuffled(range(len(ops)), seed, 1)):
        for with_spans in ((False, True) if j % 2 == 0 else (True, False)):
            if not with_spans:
                untraced += run_op(ops[k], NULL, workloads.CheckFailed, k)
                continue
            tr.op = f"pass/{k}"
            t = perf_counter()
            with inner_spans(tr), tr.span("op"):
                run_op(ops[k], tr, workloads.CheckFailed, k)
            traced += 1e3 * (perf_counter() - t)
    with inner_spans(tr):
        for label, fn in wl.probes(tr):
            tr.op = f"probe/{label}"
            with tr.span("op"):
                run_op((label, fn), tr, workloads.CheckFailed)
    return {"untraced_s": untraced / 1e3, "traced_s": traced / 1e3}


def main(argv) -> int:
    mode, name = argv[0], argv[1]
    seed, seconds, corpus_seed = int(argv[2]), float(argv[3]), int(argv[4])
    t0 = float(argv[5])

    sys.path.insert(0, str(ROOT / "src"))
    import ppcf
    if not Path(ppcf.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: ppcf imported from {ppcf.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    import workloads
    from spans import NULL, Tracer

    tr = Tracer() if mode == "trace" else NULL
    wl = workloads.WORKLOADS[name](seed, tr, corpus_seed)
    run_op(wl.warmup(), NULL, workloads.CheckFailed)
    done = {"setup_s": time.monotonic() - t0}

    if mode == "timed":
        done.update(timed_phase(wl, seed, seconds, workloads))
    elif mode == "trace":
        done.update(traced_pass(wl, seed, tr, workloads))
        done["layers"] = wl.layer_metrics(tr)
        done["unaccounted_s"] = tr.unaccounted()
        OUT.mkdir(exist_ok=True)
        tr.dump(OUT / f"spans-{name}-{seed}.jsonl")

    done["problems"] = wl.final_check() if mode != "setup" else []
    done["peak_rss_mb"] = peak_rss_mb(wl.runs_children)
    emit({"done": done})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
