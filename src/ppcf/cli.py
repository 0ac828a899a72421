"""Command-line front door: eval, denot, expect, dist, translate, check.

Results go to stdout as JSON (rationals as "num/den" strings, choice
sequences as bit strings); progress notes go to stderr and are silenced
by --quiet.  Identical flags and seed produce byte-identical output.

Exit codes: 0 success, 1 property violation, 2 parse/type/usage error,
3 a budget cut left the result empty.

Each subcommand imports the modules it runs when it runs, so that a
process pays only for those: ``eval`` loads the machine, ``denot`` the
semantics, ``translate`` the translations, and only the cone suites of
``check`` load numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .syntax import PpcfError, labels_of, parse_term, to_text, typecheck

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
        raise PpcfError(f"{path}: {e}")


def _load(path: str):
    src = _read(path)
    try:
        t = parse_term(src)
        typecheck(t)
    except PpcfError as e:
        raise PpcfError(f"{path}: {e}")
    return t


def _label_map(items, flag: str, what: str, read, labels) -> dict:
    """The label=value items of a repeated flag, each label one of the
    program's labels and each value read by read, which raises
    ValueError or ZeroDivisionError on bad text."""
    out = {}
    for item in items or ():
        k, eq, v = item.partition("=")
        try:
            if not eq:
                raise ValueError
            out[k] = read(v)
        except (ValueError, ZeroDivisionError):
            raise PpcfError(f"{flag} expects label={what}, got {item!r}")
        if k not in labels:
            raise PpcfError(f"{flag} label {k!r} not in program")
    return out


def _dist_json(d) -> dict:
    from .semantics import sparts, sval

    def scalar(x):
        return {"v": sval(x), "d": dict(sorted(sparts(x).items()))}
    top = max(d.coords, default=-1)
    coords = [scalar(d.coords.get(n, 0.0)) for n in range(top + 1)]
    return {"coords": coords, "overflow": scalar(d.overflow)}


def _sem_config(args):
    from .semantics import SemConfig
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
    from . import machine
    t = _load(args.file)
    if args.choices is not None:
        if any(c not in "01" for c in args.choices):
            raise PpcfError("--choices must be a bit string")
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

    max_choices = machine.DEFAULT_MAX_CHOICES \
        if args.max_choices is None else args.max_choices
    res = machine.enumerate_paths(machine.init_state(t),
                                  max_steps=_max_steps(
                                      args, machine.DEFAULT_MAX_STEPS),
                                  max_choices=max_choices)
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
    from . import semantics
    t = _load(args.file)
    cfg = _sem_config(args)
    labels = labels_of(t)
    rates = _label_map(args.rate, "--rate", "rational", Fraction, labels)
    missing = labels - rates.keys()
    if missing:
        raise PpcfError(f"labels without --rate: {sorted(missing)}")
    res = semantics.ground_denot(t, cfg, rates,
                                 labels if args.seed_labels else ())
    _emit({"dist": _dist_json(res.dist), "converged": res.converged,
           "depth": res.depth})
    return 0


def cmd_expect(args) -> int:
    t = _load(args.file)
    if args.label not in labels_of(t):
        raise PpcfError(f"label {args.label!r} not in program")
    out: dict = {"label": args.label}
    if args.method in ("dual", "both"):
        from . import semantics
        res = semantics.expected_count(t, args.label, _sem_config(args))
        if res.status == semantics.OK:
            out["dual"] = {"conditional": res.conditional, "raw": res.raw,
                           "p_conv": res.p_conv,
                           "converged": res.converged}
        else:
            out["dual"] = res.status
    if args.method in ("mc", "both"):
        from . import machine
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
    from . import observe
    t1, t2 = _load(args.left), _load(args.right)
    d = observe.denot_dist_nat(t1, t2, _sem_config(args))
    _emit({"distance": d})
    return 0


def cmd_translate(args) -> int:
    from .translate import lcof, spy, strip
    t = _load(args.file)
    if args.mode == "strip":
        out = strip(t)
    elif args.mode == "lcof":
        out = lcof(t, _label_map(args.rate, "--rate", "rational",
                                 Fraction, labels_of(t)))
    else:
        out = spy(t, _label_map(args.var, "--var", "name", str,
                                labels_of(t)) or None)
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
        from . import machine, progen, semantics
        cfg = semantics.SemConfig(tol=1e-12)
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
    from . import corpus, observe
    left = _load(args.left) if args.left else corpus.load_program("dice000")
    right = _load(args.right) if args.right else corpus.load_program("dice010")
    if args.contexts:
        text = _read(args.contexts)
        try:
            ctxs = corpus.parse_contexts(text)
        except PpcfError as e:
            raise PpcfError(f"{args.contexts}: {e}")
    else:
        ctxs = corpus.load_contexts()
    try:
        p = Fraction(str(args.p))
        rep = observe.tamed_bound_check(left, right, p, ctxs)
    except ValueError as e:
        raise PpcfError(str(e))
    _emit({"suite": suite, "p": float(p), "denot_distance": rep.denot_dist,
           "bound": rep.bound, "max_gap": rep.max_gap,
           "gaps": [{"context": i, "gap": g} for i, g in rep.gaps],
           "violations": rep.violations, "ok": rep.ok})
    return 0 if rep.ok else EXIT_VIOLATION


# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def _print_message(self, message, file=None):
        # argparse drops a failed write, so help on a closed stdout
        # would exit 0 unread; the error goes on to main instead
        if message:
            print(message, end="", file=file or sys.stderr, flush=True)


def _parser() -> argparse.ArgumentParser:
    ap = _ArgumentParser(
        prog="ppcf",
        description="probabilistic PCF: run, denote, differentiate, check")
    ap.add_argument("--quiet", action="store_true",
                    help="suppress stderr logs")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("eval", help="run a program on the stack machine")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--exhaustive", action="store_true",
                      help="enumerate all choice prefixes (default)")
    mode.add_argument("--samples", type=_positive_int, default=None)
    mode.add_argument("--choices", default=None,
                      help="explicit bit string to run on")
    p.add_argument("--max-steps", type=_positive_int, default=None)
    p.add_argument("--max-choices", type=_nonneg_int, default=None)
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
