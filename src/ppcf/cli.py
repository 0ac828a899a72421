"""Command-line front door: eval, denot, expect, dist, translate, check.

Results go to stdout as JSON (rationals as "num/den" strings, choice
sequences as bit strings); progress notes go to stderr and are silenced
by --quiet.  Identical flags and seed produce byte-identical output.

Exit codes: 0 success, 1 property violation, 2 parse/type/usage error,
3 a budget cut left the result empty.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import corpus, machine, observe, progen, semantics
from .semantics import SemConfig, sparts, sval
from .syntax import PpcfError, labels_of, parse_term, to_text, typecheck
from .translate import lcof, spy, strip

SAMPLE_MAX_STEPS = 5_000

EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_EMPTY = 3


def _log(args, msg: str) -> None:
    if not args.quiet:
        print(msg, file=sys.stderr)


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True, separators=(", ", ": ")))


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _load(path: str):
    try:
        t = parse_term(_read(path))
        typecheck(t)
    except PpcfError as e:
        print(f"error: {path}: {e}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)
    return t


def _rate_map(pairs, what="--rate"):
    out = {}
    for item in pairs or ():
        k, _, v = item.partition("=")
        try:
            if not _:
                raise ValueError
            out[k] = Fraction(v)
        except (ValueError, ZeroDivisionError):
            print(f"error: {what} expects label=rational, got {item!r}",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)
    return out


def _scalar_json(x):
    return {"v": sval(x), "d": dict(sorted(sparts(x).items()))}


def _dist_json(d) -> dict:
    top = max(d.coords, default=-1)
    coords = [_scalar_json(d.coords.get(n, 0.0)) for n in range(top + 1)]
    return {"coords": coords, "overflow": _scalar_json(d.overflow)}


def _sem_config(args) -> SemConfig:
    return SemConfig(nmax=args.nmax, fix_iters=args.fix_iters, tol=args.tol)


def _add_sem_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nmax", type=int, default=64)
    p.add_argument("--fix-iters", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=1e-9)


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _open_unit(text: str) -> float:
    p = float(text)
    if not 0.0 < p < 1.0:
        raise argparse.ArgumentTypeError(f"must lie in (0, 1), got {p}")
    return p


def _nonneg_int(text: str) -> int:
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def _max_steps(args, default: int) -> int:
    return default if args.max_steps is None else args.max_steps


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    raw = os.environ.get("PPCF_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise PpcfError(f"PPCF_SEED must be an integer, got {raw!r}")


# ---------------------------------------------------------------------------
# subcommands

def cmd_eval(args) -> int:
    t = _load(args.file)
    if args.choices is not None:
        if any(c not in "01" for c in args.choices):
            print("error: --choices must be a bit string", file=sys.stderr)
            return EXIT_USAGE
        rec = machine.run(machine.init_state(t), args.choices,
                          max_steps=_max_steps(
                              args, machine.DEFAULT_MAX_STEPS))
        if rec is None:
            _emit({"mode": "run", "accepted": False})
        else:
            _emit({"mode": "run", "accepted": True,
                   "choices": rec.choices, "weight": str(rec.weight),
                   "labels": dict(sorted(rec.labels.items())),
                   "steps": rec.steps})
        return 0

    if args.samples is not None:
        seed = _seed(args)
        # divergent runs burn the whole step budget, so sampling takes a
        # much smaller default than the deterministic modes
        max_steps = _max_steps(args, SAMPLE_MAX_STEPS)
        _log(args, f"sampling {args.samples} runs, seed {seed}, "
                   f"step cap {max_steps}")
        values: dict = {}
        cut = 0
        state = machine.init_state(t)
        for i in range(args.samples):
            rec = machine.sample(state, machine.split_seed(seed, i),
                                 max_steps=max_steps)
            if rec.value is None:
                cut += 1
            else:
                values[rec.value] = values.get(rec.value, 0) + 1
        _emit({"mode": "sample", "samples": args.samples, "seed": seed,
               "accepted": values.get(0, 0), "cut": cut,
               "values": {str(k): v for k, v in sorted(values.items())}})
        return EXIT_EMPTY if cut == args.samples else 0

    res = machine.enumerate_paths(machine.init_state(t),
                                  max_steps=_max_steps(
                                      args, machine.DEFAULT_MAX_STEPS),
                                  max_choices=args.max_choices)
    _emit({
        "mode": "exhaustive",
        "paths": [{"choices": p.choices, "weight": str(p.weight),
                   "labels": dict(sorted(p.labels.items()))}
                  for p in res.paths],
        "converged_mass": str(res.converged_mass),
        "open_mass": str(res.open_mass),
        "rejected_mass": str(res.rejected_mass),
        "diverged_mass": str(res.diverged_mass),
    })
    if not res.paths and res.open_mass > 0:
        return EXIT_EMPTY
    return 0


def cmd_denot(args) -> int:
    t = _load(args.file)
    cfg = _sem_config(args)
    labels = labels_of(t)
    rates, seed = None, ()
    if labels:
        rates = _rate_map(args.rate)
        missing = labels - rates.keys()
        if missing:
            print(f"error: labels without --rate: {sorted(missing)}",
                  file=sys.stderr)
            return EXIT_USAGE
        if args.seed_labels:
            seed = labels
    res = semantics.ground_denot(t, cfg, rates, seed)
    _emit({"dist": _dist_json(res.dist), "converged": res.converged,
           "depth": res.depth})
    return 0


def cmd_expect(args) -> int:
    t = _load(args.file)
    if args.label not in labels_of(t):
        print(f"error: label {args.label!r} not in program", file=sys.stderr)
        return EXIT_USAGE
    out: dict = {"label": args.label}
    if args.method in ("dual", "both"):
        res = semantics.expected_count(t, args.label, _sem_config(args))
        if res.status == semantics.OK:
            out["dual"] = {"conditional": res.conditional, "raw": res.raw,
                           "p_conv": res.p_conv,
                           "converged": res.converged}
        else:
            out["dual"] = res.status
    if args.method in ("mc", "both"):
        seed = _seed(args)
        _log(args, f"sampling {args.samples} runs, seed {seed}")
        est = machine.estimate_conditional_count(
            t, args.label, args.samples,
            max_steps=_max_steps(args, SAMPLE_MAX_STEPS), seed=seed)
        if est.n_converged == 0:
            out["mc"] = "NO_CONVERGED_SAMPLES"
        else:
            out["mc"] = {"mean": est.mean, "stderr": est.stderr,
                         "p_conv": est.p_conv, "samples": est.n,
                         "converged": est.n_converged, "seed": est.seed}
    if args.method == "both" \
            and isinstance(out.get("dual"), dict) \
            and isinstance(out.get("mc"), dict):
        out["gap"] = abs(out["dual"]["conditional"] - out["mc"]["mean"])
    _emit(out)
    if out.get("mc") == "NO_CONVERGED_SAMPLES":
        return EXIT_EMPTY
    return 0


def cmd_dist(args) -> int:
    t1, t2 = _load(args.left), _load(args.right)
    d = observe.denot_dist_nat(t1, t2, _sem_config(args))
    _emit({"distance": d})
    return 0


def cmd_translate(args) -> int:
    t = _load(args.file)
    if args.mode == "strip":
        out = strip(t)
    elif args.mode == "lcof":
        out = lcof(t, _rate_map(args.rate))
    else:
        varmap = None
        if args.var:
            varmap = {}
            for item in args.var:
                if "=" not in item:
                    print(f"error: --var expects label=name, got {item!r}",
                          file=sys.stderr)
                    return EXIT_USAGE
                k, v = item.split("=", 1)
                varmap[k] = v
        out = spy(t, varmap)
    _emit({"mode": args.mode, "term": to_text(out)})
    return 0


def cmd_check(args) -> int:
    seed = _seed(args)
    suite = args.suite
    if suite in ("lipschitz", "chain", "distance"):
        # numpy seeds its generators only from nonnegative integers
        if seed < 0:
            raise PpcfError(f"the {suite} suite needs a seed >= 0, "
                            f"got {seed}")
        # the cone suites are the only commands that need numpy
        from . import pcs
    _log(args, f"suite {suite}, seed {seed}")

    if suite == "lipschitz":
        rep = pcs.lipschitz_check(args.p, args.trials, seed)
        _emit({"suite": suite, "p": args.p, "trials": rep.trials,
               "violations": rep.violations[:10], "ok": rep.ok,
               "worst_ratio": rep.worst})
        return 0 if rep.ok else EXIT_VIOLATION

    if suite == "chain":
        rep = pcs.chain_check(args.trials, seed)
        _emit({"suite": suite, "trials": rep.trials, "max_err": rep.max_err,
               "worst_trial": rep.worst_trial, "ok": rep.ok})
        return 0 if rep.ok else EXIT_VIOLATION

    if suite == "distance":
        rep = pcs.distance_axiom_check(args.trials, seed)
        _emit({"suite": suite, "trials": rep.trials,
               "violations": rep.violations[:10], "ok": rep.ok})
        return 0 if rep.ok else EXIT_VIOLATION

    if suite == "adequacy":
        cfg = SemConfig(tol=1e-12)
        bad = []
        for i, t in enumerate(progen.gen_corpus(args.trials, seed)):
            res = machine.enumerate_paths(machine.init_state(t),
                                          max_steps=2000, max_choices=14)
            p = semantics.prob_zero(t, cfg)
            lo, hi = float(res.converged_mass), \
                float(res.converged_mass + res.open_mass)
            if not (lo <= p + 1e-9 and p <= hi + 1e-6):
                bad.append({"program": to_text(t), "enum_low": lo,
                            "denot": p, "enum_high": hi})
            _log(args, f"  [{i}] {lo:.6f} <= {p:.6f} <= {hi:.6f}")
        _emit({"suite": suite, "trials": args.trials,
               "violations": bad, "ok": not bad})
        return 0 if not bad else EXIT_VIOLATION

    # tamed
    left = _load(args.left) if args.left else corpus.load_program("dice000")
    right = _load(args.right) if args.right else corpus.load_program("dice010")
    try:
        if args.contexts:
            ctxs = corpus.parse_contexts(_read(args.contexts))
        else:
            ctxs = corpus.load_contexts()
        p = Fraction(str(args.p))
        rep = observe.tamed_bound_check(left, right, p, ctxs)
    except (PpcfError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    _emit({"suite": suite, "p": float(p), "denot_distance": rep.denot_dist,
           "bound": rep.bound, "max_gap": rep.max_gap,
           "gaps": [{"context": i, "gap": g} for i, g in rep.gaps],
           "violations": rep.violations, "ok": rep.ok})
    return 0 if rep.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ppcf",
        description="probabilistic PCF: run, denote, differentiate, check")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress stderr logs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="run a program on the stack machine")
    p.add_argument("file")
    p.add_argument("--exhaustive", action="store_true",
                   help="enumerate all choice prefixes (default)")
    p.add_argument("--samples", type=_positive_int, default=None)
    p.add_argument("--choices", default=None,
                   help="explicit bit string to run on")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--max-choices", type=_nonneg_int,
                   default=machine.DEFAULT_MAX_CHOICES)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("denot", help="denotation of a ground program")
    p.add_argument("file")
    _add_sem_flags(p)
    p.add_argument("--rate", action="append", metavar="l=R",
                   help="gate rate per label (rational)")
    p.add_argument("--seed-labels", action="store_true",
                   help="carry derivatives in every label's rate")
    p.set_defaults(fn=cmd_denot)

    p = sub.add_parser("expect",
                       help="expected label count among converging runs")
    p.add_argument("file")
    p.add_argument("--label", required=True)
    p.add_argument("--method", choices=("dual", "mc", "both"),
                   default="dual")
    _add_sem_flags(p)
    p.add_argument("--samples", type=_positive_int, default=10_000)
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(fn=cmd_expect)

    p = sub.add_parser("dist",
                       help="distance between two ground denotations")
    p.add_argument("left")
    p.add_argument("right")
    _add_sem_flags(p)
    p.set_defaults(fn=cmd_dist)

    p = sub.add_parser("translate", help="rewrite marks")
    p.add_argument("file")
    p.add_argument("--mode", choices=("strip", "lcof", "spy"),
                   required=True)
    p.add_argument("--rate", action="append", metavar="l=R")
    p.add_argument("--var", action="append", metavar="l=x")
    p.set_defaults(fn=cmd_translate)

    p = sub.add_parser("check", help="randomised property suites")
    p.add_argument("suite", choices=("lipschitz", "chain", "distance",
                                     "adequacy", "tamed"))
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--p", type=_open_unit, default=0.5)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--contexts", default=None)
    p.add_argument("--left", default=None)
    p.add_argument("--right", default=None)
    p.set_defaults(fn=cmd_check)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader of stdout went away; what is still buffered goes
        # to the null device, so that the flush at exit cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: standard output is closed", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    except PpcfError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except RecursionError:
        # the parser recurses through parentheses and binders, and the
        # denotational evaluator on the term structure
        print("error: input nests too deeply", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
