"""The four benchmark workloads.

Each workload builds its inputs from the seed in its constructor (that
is set-up), names one fixed warm-up op, and lists its ops; a pass runs
every op once.  An op is a ``(label, fn)`` pair; ``fn(tracer)`` does the
work, records a span around every call it makes into a ``ppcf`` layer,
and raises ``CheckFailed`` when the result disagrees with a view other
than the one being timed.  ``final_check`` covers what only a whole run
can show.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from ppcf import machine, progen, semantics, syntax
from ppcf.syntax import App, Mark, num

DEFAULT_SEED = 20260814      # the acceptance tests' SEED
ROOT = Path(__file__).resolve().parent.parent
CORPUS = "src/ppcf/corpus"


class CheckFailed(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def mq(q: Fraction, marked: bool = False):
    arg = Mark(num(0), "t") if marked else num(0)
    return App(syntax.make_mq(q), arg)


def shuffled(items: list, seed: int, salt: int) -> list:
    out = list(items)
    random.Random(machine.split_seed(seed, salt)).shuffle(out)
    return out


def mean_ms(layers: dict, name: str) -> float:
    """Mean self time per call of the spans called ``name``, in ms."""
    n, t = layers.get(name, (0, 0.0))
    return 1e3 * t / n if n else 0.0


def per_s(work: float, layers: dict, *names: str) -> float:
    busy = sum(layers.get(n, (0, 0.0))[1] for n in names)
    return work / busy if busy else 0.0


class Workload:
    name = ""
    runs_children = False     # the work happens in child processes

    def warmup(self):
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def probes(self, tr) -> list:
        """Extra traced ops that measure single layers."""
        return []

    def final_check(self) -> list[str]:
        return []

    def layer_metrics(self, tr) -> dict:
        """Per-layer metric name -> (value, unit), from a traced run."""
        raise NotImplementedError


# ---------------------------------------------------------------------------

class DenotGen(Workload):
    """Label-free generated programs: print/parse/typecheck round trip,
    path enumeration, and the ground denotation checked against it."""

    name = "denot-gen"
    size = 100

    def __init__(self, seed: int, tr, corpus_seed: int = DEFAULT_SEED):
        with tr.span("progen.gen_corpus"):
            self.programs = progen.gen_corpus(self.size, corpus_seed)

    def op(self, i: int):
        t = self.programs[i]

        def run(tr):
            with tr.span("syntax.to_text"):
                text = syntax.to_text(t)
            with tr.span("syntax.parse_term"):
                back = syntax.parse_term(text)
            with tr.span("syntax.typecheck"):
                syntax.typecheck(back)
            tr.count("syntax.parse_chars", len(text))
            expect(back == t, f"program {i}: print/parse round trip differs")
            with tr.span("machine.enumerate_paths"):
                res = machine.enumerate_paths(machine.init_state(t),
                                              max_steps=2000, max_choices=14)
            with tr.span("semantics.ground_denot"):
                g = semantics.ground_denot(t)
                p = semantics.sval(g.dist.mass0())
            tr.count("machine.paths", len(res.paths))
            tr.count("semantics.fix_depth", g.depth)
            tr.count("semantics.unconverged", not g.converged)
            lo = float(res.converged_mass)
            hi = float(res.converged_mass + res.open_mass)
            expect(lo <= p + 1e-9 and p <= hi + 1e-6,
                   f"program {i}: enumeration [{lo}, {hi}] misses "
                   f"denotation {p}")
        return f"program {i}", run

    def warmup(self):
        return self.op(0)

    def ops(self):
        return [self.op(i) for i in range(self.size)]

    def layer_metrics(self, tr):
        L, c = tr.by_name("pass/"), tr.counts
        gen = tr.by_name("setup")["progen.gen_corpus"]
        return {
            "semantics.ground_denot_ms":
                (mean_ms(L, "semantics.ground_denot"), "ms"),
            "semantics.fix_depth": (c["semantics.fix_depth"], "count"),
            "semantics.unconverged": (c["semantics.unconverged"], "count"),
            "machine.enumerate_ms":
                (mean_ms(L, "machine.enumerate_paths"), "ms"),
            "machine.paths": (c["machine.paths"], "count"),
            "syntax.print_ms": (mean_ms(L, "syntax.to_text"), "ms"),
            "syntax.parse_ms": (mean_ms(L, "syntax.parse_term"), "ms"),
            "syntax.typecheck_ms": (mean_ms(L, "syntax.typecheck"), "ms"),
            "syntax.parse_chars_per_s":
                (per_s(c["syntax.parse_chars"], L, "syntax.parse_term"),
                 "1/s"),
            "progen.gen_ms": (1e3 * gen[1], "ms"),
        }


# ---------------------------------------------------------------------------

def phi_closed(q: Fraction) -> float:
    return 1.0 if q <= Fraction(1, 2) else float((1 - q) / q)


def cond_closed(q: Fraction) -> float:
    if q < Fraction(1, 2):
        return float(2 * (1 - q) / (1 - 2 * q))
    return float(2 * q / (2 * q - 1))


class CostCurve(Workload):
    """The mq family at q = k/100: convergence probability and the
    conditional expected count against their closed forms."""

    name = "cost-curve"
    rates = [Fraction(k, 100) for k in range(101)]

    def __init__(self, seed: int, tr, corpus_seed: int = DEFAULT_SEED):
        with tr.span("syntax.make_mq"):
            self.terms = {q: (mq(q), mq(q, True)) for q in self.rates}

    def op(self, q: Fraction):
        plain, marked = self.terms[q]

        def run(tr):
            with tr.span("semantics.prob_zero"):
                phi = semantics.prob_zero(plain)
            with tr.span("semantics.expected_count"):
                ec = semantics.expected_count(marked, "t")
            tr.count("semantics.diverges", ec.status == semantics.DIVERGES)
            tol = 1e-2 if q == Fraction(1, 2) else 1e-3
            expect(abs(phi - phi_closed(q)) <= tol,
                   f"q={q}: prob_zero {phi} vs {phi_closed(q)}")
            if q == Fraction(1, 2):
                expect(ec.status == semantics.DIVERGES,
                       f"q={q}: status {ec.status}, want DIVERGES")
            elif q == 1:
                expect(ec.status == semantics.UNDEFINED,
                       f"q={q}: status {ec.status}, want UNDEFINED")
            else:
                want = cond_closed(q)
                expect(ec.status == semantics.OK
                       and abs(ec.conditional - want)
                       <= 1e-3 * max(1.0, want),
                       f"q={q}: expected count {ec.status} "
                       f"{ec.conditional} vs {want}")
        return f"q={q}", run

    def warmup(self):
        return self.op(Fraction(0))

    def ops(self):
        return [self.op(q) for q in self.rates]

    def layer_metrics(self, tr):
        L = tr.by_name("pass/")
        pz = mean_ms(L, "semantics.prob_zero")
        ec = mean_ms(L, "semantics.expected_count")
        return {
            "semantics.prob_zero_ms": (pz, "ms"),
            "semantics.expected_count_ms": (ec, "ms"),
            "semantics.dual_ratio": ((ec - pz) / pz if pz else 0.0, "ratio"),
            "semantics.diverges": (tr.counts["semantics.diverges"], "count"),
            "translate.strip_ms": (mean_ms(L, "translate.strip"), "ms"),
            "translate.spy_ms": (mean_ms(L, "translate.spy"), "ms"),
        }


# ---------------------------------------------------------------------------

class McSuper(Workload):
    """Monte Carlo runs of the supercritical mq(3/4) at the CLI's step
    cap; the run as a whole is checked against the closed forms."""

    name = "mc-super"
    runs = 250
    max_steps = 5000          # ppcf eval --samples default step cap

    def __init__(self, seed: int, tr, corpus_seed: int = DEFAULT_SEED):
        self.seed = seed
        with tr.span("machine.init_state"):
            self.state = machine.init_state(mq(Fraction(3, 4), True))
        self.counts: dict[int, int] = {}     # run index -> count of t

    def op(self, i: int, record: bool = True):
        def run(tr):
            with tr.span("machine.sample"):
                rec = machine.sample(self.state,
                                     machine.split_seed(self.seed, i),
                                     max_steps=self.max_steps)
            tr.count("machine.steps", rec.steps)
            tr.count("machine.cut", rec.steps >= self.max_steps)
            expect(rec.steps <= self.max_steps,
                   f"run {i}: {rec.steps} steps over the cap")
            expect(rec.converged == (rec.value == 0),
                   f"run {i}: converged={rec.converged}, value {rec.value}")
            if record:
                self.counts[i] = rec.labels.get("t", 0) \
                    if rec.converged else -1
        return f"run {i}", run

    def warmup(self):
        return self.op(-1, record=False)

    def ops(self):
        return [self.op(i) for i in range(self.runs)]

    def layer_metrics(self, tr):
        L, c = tr.by_name("pass/"), tr.counts
        runs = L.get("machine.sample", (0, 0.0))[0]
        return {
            "machine.sample_ms": (mean_ms(L, "machine.sample"), "ms"),
            "machine.steps": (c["machine.steps"], "count"),
            "machine.steps_per_s":
                (per_s(c["machine.steps"], L, "machine.sample"), "1/s"),
            "machine.cut_frac":
                (c["machine.cut"] / runs if runs else 0.0, "frac"),
        }

    def final_check(self):
        """Converged fraction 1/3 and conditional mean count 3, each
        within 4 standard errors."""
        counts = [c for c in self.counts.values() if c >= 0]
        n, k = len(self.counts), len(counts)
        if n == 0:
            return []
        bad = []
        se = math.sqrt((1 / 3) * (2 / 3) / n)
        if abs(k / n - 1 / 3) > 4 * se:
            bad.append(f"converged fraction {k}/{n} vs 1/3 (se {se:.4f})")
        if k > 1:
            mean = sum(counts) / k
            sd = math.sqrt(sum((c - mean) ** 2 for c in counts)
                           / (k - 1))
            if abs(mean - 3) > 4 * sd / math.sqrt(k):
                bad.append(f"mean count {mean:.4f} vs 3 "
                           f"(se {sd / math.sqrt(k):.4f})")
        return bad


# ---------------------------------------------------------------------------

def _f(path: str) -> str:
    return f"{CORPUS}/{path}.ppcf"


def _v0(out: dict) -> float:
    return out["dist"]["coords"][0]["v"]


def _close(x: float, want: float, tol: float = 1e-9) -> bool:
    return abs(x - want) <= tol


def _sandwich(out: dict, want: Fraction) -> bool:
    lo = Fraction(out["converged_mass"])
    return lo <= want <= lo + Fraction(out["open_mass"])


def _sampled(out: dict, n: int, p: float) -> bool:
    se = math.sqrt(p * (1 - p) / n)
    return (out["samples"] == n and out["accepted"] + out["cut"] == n
            and abs(out["accepted"] / n - p) <= 4 * se)


def _mc_mean(mc: dict, want: float) -> bool:
    return abs(mc["mean"] - want) <= 4 * mc["stderr"]


STRIPPED = "let x = dice(1/3) in ifz x then 0 else ifz dice(2/5) then 0 " \
    "else succ x"
LCOF = "let x = dice(1/3) in ifz x then ifz dice(1/2) then 0 else " \
    "fix (\\x:nat. x) else ifz ifz dice(1/3) then dice(2/5) else " \
    "fix (\\x:nat. x) then 0 else succ x"
SPIED = "let x = dice(1/3) in ifz x then ifz r_a then 0 else " \
    "fix (\\x:nat. x) else ifz ifz r_b then dice(2/5) else " \
    "fix (\\x:nat. x) then 0 else succ x"
WARMUP_ARGV = ["translate", _f("letpair"), "--mode", "strip"]


def cli_commands(seed: int) -> list:
    """(argv, exit code, check of the parsed JSON) for every CLI op."""
    rng = random.Random(seed)
    s = [rng.randrange(2 ** 31) for _ in range(7)]
    return [
        (["eval", _f("letpair")], 0,
         lambda o: o["converged_mass"] == "3/5"),
        (["eval", _f("geo")], 0,
         lambda o: o["converged_mass"] == "11/20"),
        (["eval", _f("mq075"), "--max-choices", "16"], 0,
         lambda o: _sandwich(o, Fraction(1, 3))),
        (["eval", _f("mq025"), "--max-choices", "16"], 0,
         lambda o: _sandwich(o, Fraction(1))),
        (["eval", _f("loop")], 0,
         lambda o: o["diverged_mass"] == "1" and not o["paths"]),
        (["eval", _f("zero")], 0, lambda o: o["converged_mass"] == "1"),
        (["eval", _f("dice010")], 0,
         lambda o: o["converged_mass"] == "1/10"),
        (["eval", _f("mq095"), "--max-choices", "16"], 0,
         lambda o: _sandwich(o, Fraction(1, 19))),
        (["eval", _f("mq075_marked"), "--max-choices", "16"], 0,
         lambda o: _sandwich(o, Fraction(1, 3))
         and all(p["labels"].get("t", 0) >= 2 for p in o["paths"])),
        (["eval", _f("letpair"), "--choices", "0"], 0,
         lambda o: o["accepted"] and o["weight"] == "1/3"),
        (["eval", _f("mq075"), "--samples", "100", "--seed", str(s[0])], 0,
         lambda o: _sampled(o, 100, 1 / 3)),
        (["eval", _f("mq075"), "--samples", "20", "--max-steps", "10",
          "--seed", str(s[1])], 3,
         lambda o: o["cut"] == 20),
        (["denot", _f("geo")], 0,
         lambda o: _close(_v0(o), 0.55)),
        (["denot", _f("mq075")], 0,
         lambda o: _close(_v0(o), 1 / 3)),
        (["denot", _f("letpair"), "--rate", "a=1/2", "--rate", "b=1",
          "--seed-labels"], 0,
         lambda o: _close(_v0(o), 13 / 30)
         and _close(o["dist"]["coords"][0]["d"]["a"], 1 / 3)
         and _close(o["dist"]["coords"][0]["d"]["b"], 4 / 15)),
        (["denot", _f("loop")], 0,
         lambda o: o["dist"]["coords"] == []),
        (["denot", _f("dice001")], 0, lambda o: _close(_v0(o), 0.01)),
        (["denot", _f("mq050")], 0, lambda o: _close(_v0(o), 1.0, 1e-2)),
        (["denot", _f("letpair")], 2, None),
        (["expect", _f("mq075_marked"), "--label", "t"], 0,
         lambda o: _close(o["dual"]["conditional"], 3.0, 1e-3)),
        (["expect", _f("mq025_marked"), "--label", "t", "--method", "both",
          "--samples", "200", "--seed", str(s[2])], 0,
         lambda o: _close(o["dual"]["conditional"], 3.0, 1e-3)
         and _mc_mean(o["mc"], 3.0)),
        (["dist", _f("dice000"), _f("dice010")], 0,
         lambda o: _close(o["distance"], 0.2)),
        (WARMUP_ARGV, 0, lambda o: o["term"] == STRIPPED),
        (["translate", _f("letpair"), "--mode", "lcof", "--rate", "a=1/2",
          "--rate", "b=1/3"], 0, lambda o: o["term"] == LCOF),
        (["translate", _f("letpair"), "--mode", "spy"], 0,
         lambda o: o["term"] == SPIED),
        (["check", "lipschitz", "--trials", "200", "--seed", str(s[3])], 0,
         lambda o: o["ok"] is True and o["trials"] == 200),
        (["check", "chain", "--trials", "100", "--seed", str(s[4])], 0,
         lambda o: o["ok"] is True and o["trials"] == 100),
        (["check", "distance", "--trials", "200", "--seed", str(s[5])], 0,
         lambda o: o["ok"] is True and o["trials"] == 200),
        (["check", "tamed", "--p", "0.5", "--seed", str(s[6])], 0,
         lambda o: o["ok"] is True
         and _close(o["denot_distance"], 0.2)),
    ]


def check_cli(argv, rc_want, check, rc: int, stdout: str, stderr: str):
    expect(rc == rc_want, f"{' '.join(argv)}: exit {rc}, want {rc_want}: "
                          f"{stderr.strip()[-200:]}")
    if check is None:
        expect(stderr.startswith("error:") and not stdout,
               f"{' '.join(argv)}: expected a usage error message")
        return
    try:
        out = json.loads(stdout)
        ok = check(out)
    except (ValueError, KeyError, TypeError) as e:
        raise CheckFailed(f"{' '.join(argv)}: bad output {e!r}")
    expect(ok, f"{' '.join(argv)}: wrong result {stdout.strip()[:200]}")


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] \
        if env.get("PYTHONPATH") else src
    return env


class CliCorpus(Workload):
    """Fresh ``python -m ppcf.cli --quiet ...`` processes, one at a time,
    cycling through every subcommand on the bundled corpus."""

    name = "cli-corpus"
    runs_children = True
    op_timeout = 60.0

    def __init__(self, seed: int, tr, corpus_seed: int = DEFAULT_SEED):
        self.seed = seed
        self.commands = cli_commands(seed)
        self.env = child_env()

    def op(self, cmd):
        argv, rc_want, check = cmd

        def run(tr):
            with tr.span("cli.process"):
                proc = subprocess.run(
                    [sys.executable, "-m", "ppcf.cli", "--quiet", *argv],
                    cwd=ROOT, env=self.env, capture_output=True, text=True,
                    timeout=self.op_timeout)
            check_cli(argv, rc_want, check, proc.returncode, proc.stdout,
                      proc.stderr)
        return " ".join(argv), run

    def warmup(self):
        return self.op(next(c for c in self.commands
                            if c[0] == WARMUP_ARGV))

    def ops(self):
        return [self.op(c) for c in self.commands]

    def probes(self, tr):
        """In-process ``cli.main`` per command, the ``pcs`` suites the
        CLI drives, and bare interpreter spawn and import times."""
        from ppcf import cli, pcs, corpus, translate
        import numpy as np
        ops = []
        for argv, rc_want, check in self.commands:
            def main(tr, argv=argv, rc_want=rc_want, check=check):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    with tr.span("cli.main"):
                        rc = cli.main(["--quiet", *argv])
                check_cli(argv, rc_want, check, rc, out.getvalue(),
                          err.getvalue())
            ops.append(("main " + " ".join(argv), main))

        seed = self.seed

        def lipschitz(tr):
            with tr.span("pcs.lipschitz_check"):
                rep = pcs.lipschitz_check(0.5, 200, seed)
            tr.count("pcs.lipschitz_trials", rep.trials)
            expect(rep.ok, f"lipschitz: {rep.violations[:3]}")

        def distance(tr):
            with tr.span("pcs.distance_axiom_check"):
                rep = pcs.distance_axiom_check(200, seed)
            tr.count("pcs.distance_trials", rep.trials)
            expect(rep.ok, f"distance: {rep.violations[:3]}")

        def chain(tr):
            with tr.span("pcs.nat_web"):
                web = pcs.nat_web(4)
            worst = 0.0
            for i in range(100):
                rng = np.random.default_rng([seed, i])
                with tr.span("pcs.random_series"):
                    s = pcs.random_series(rng, web, web)
                with tr.span("pcs.random_series"):
                    t = pcs.random_series(rng, web, ("*",))
                with tr.span("pcs.random_point"):
                    x = pcs.random_point(rng, 4, 0.8)
                with tr.span("pcs.random_point"):
                    u = pcs.random_point(rng, 4, 0.1)
                with tr.span("pcs.chain_rule_check"):
                    worst = max(worst, pcs.chain_rule_check(s, t, x, u))
            tr.count("pcs.chain_trials", 100)
            expect(worst <= 1e-9, f"chain rule: discrepancy {worst}")

        def tamed(tr):
            with tr.span("corpus.load_program"):
                left = corpus.load_program("dice000")
                right = corpus.load_program("dice010")
            with tr.span("corpus.load_contexts"):
                ctxs = corpus.load_contexts()
            with tr.span("pcs.tamed_bound_check"):
                rep = pcs.tamed_bound_check(left, right, Fraction(1, 2),
                                            ctxs)
            expect(rep.ok, f"tamed: {rep.violations}")
            with tr.span("translate.strip"):
                m1, m2 = translate.strip(left), translate.strip(right)
            with tr.span("pcs.denot_dist_nat"):
                d = pcs.denot_dist_nat(m1, m2)
            expect(_close(d, 0.2), f"dist: {d} vs 0.2")

        ops += [("pcs lipschitz", lipschitz), ("pcs distance", distance),
                ("pcs chain", chain), ("pcs tamed", tamed)]

        def spawn(code: str, span: str):
            def run(tr):
                with tr.span(span):
                    proc = subprocess.run([sys.executable, "-c", code],
                                          cwd=ROOT, env=self.env,
                                          capture_output=True,
                                          timeout=self.op_timeout)
                expect(proc.returncode == 0, f"{code}: exit "
                                             f"{proc.returncode}")
            return span, run
        ops += [spawn("pass", "cli.spawn"),
                spawn("import ppcf.cli", "cli.import")] * 5
        return ops

    def layer_metrics(self, tr):
        P, c = tr.by_name("probe/"), tr.counts
        chain = tr.by_name("probe/pcs chain")
        spawn = statistics.median(tr.durations("cli.spawn"))
        imp = statistics.median(tr.durations("cli.import"))
        return {
            "pcs.lipschitz_trials_per_s":
                (per_s(c["pcs.lipschitz_trials"], P, "pcs.lipschitz_check"),
                 "1/s"),
            "pcs.distance_trials_per_s":
                (per_s(c["pcs.distance_trials"], P,
                       "pcs.distance_axiom_check"), "1/s"),
            "pcs.chain_trials_per_s":
                (per_s(c["pcs.chain_trials"], chain,
                       *[n for n in chain if n.startswith("pcs.")]), "1/s"),
            "pcs.tamed_ms": (mean_ms(P, "pcs.tamed_bound_check"), "ms"),
            "pcs.dist_ms": (mean_ms(P, "pcs.denot_dist_nat"), "ms"),
            "cli.spawn_ms": (1e3 * spawn, "ms"),
            "cli.import_ms": (1e3 * (imp - spawn), "ms"),
            "cli.main_ms":
                (1e3 * statistics.fmean(tr.durations("cli.main")), "ms"),
        }


WORKLOADS = {w.name: w for w in (DenotGen, CostCurve, McSuper, CliCorpus)}
