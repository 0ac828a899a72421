"""End-to-end checks of the package's headline numbers.

Each test prints one PASS line per checked claim, so a verbose run
doubles as a scorecard.  Tolerances are part of the contract and are
asserted exactly as stated in the docstrings.
"""

import csv
import random
from fractions import Fraction

from ppcf.corpus import load_contexts
from ppcf.machine import (
    enumerate_paths, estimate_conditional_count, init_state,
)
from ppcf.observe import tamed_bound_check, untamed_gap
from ppcf.pcs import (
    chain_rule_check, distance_axiom_check, first_order_check,
    lipschitz_check, nat_web, random_point, random_series,
)
from ppcf.progen import gen_corpus
from ppcf.semantics import (
    DIVERGES, OK, UNDEFINED, SemConfig, expected_count,
    finite_difference_check, ground_denot, prob_zero, sval,
)
from ppcf.syntax import App, Dice, Fix, Mark, labels_of, make_mq, num
from ppcf.translate import lcof, strip

import numpy as np

CFG = SemConfig(tol=1e-9)
CFG12 = SemConfig(tol=1e-12)
SEED = 20260814


def mq(q, marked=False):
    arg = Mark(num(0), "t") if marked else num(0)
    return App(make_mq(Fraction(q)), arg)


def phi_closed(q: Fraction) -> float:
    return 1.0 if q <= Fraction(1, 2) else float((1 - q) / q)


def cond_closed(q: Fraction) -> float:
    if q < Fraction(1, 2):
        return float(2 * (1 - q) / (1 - 2 * q))
    return float(2 * q / (2 * q - 1))


def test_convergence_probabilities():
    """prob_zero of the recursive family within 1e-3 of the closed form
    (1e-2 at the critical rate, where the iterates close in at Θ(1/n))."""
    cases = [
        (Fraction(0), 1e-3),
        (Fraction(1, 4), 1e-3),
        (Fraction(3, 4), 1e-3),
        (Fraction(19, 20), 1e-3),
        (Fraction(1, 2), 1e-2),
    ]
    for q, tol in cases:
        want = phi_closed(q)
        got = prob_zero(mq(q), CFG)
        assert abs(got - want) <= tol, (q, got, want)
        print(f"PASS convergence q={q}: {got:.6f} vs {want:.6f} "
              f"(tol {tol:g})")


def test_expected_time():
    """Conditional expected argument-inspections: within 1e-3 of 3 at
    q=1/4 and q=3/4, within 1e-9 of 2 at q=0, flagged divergent at
    q=1/2; Monte Carlo agrees within 3 standard errors."""
    r = expected_count(mq(0, True), "t", CFG12)
    assert r.status == OK and abs(r.conditional - 2.0) <= 1e-9
    print(f"PASS expected count q=0: {r.conditional} (tol 1e-9)")
    for q in (Fraction(1, 4), Fraction(3, 4)):
        r = expected_count(mq(q, True), "t", CFG12)
        assert r.status == OK and abs(r.conditional - 3.0) <= 1e-3, (q, r)
        print(f"PASS expected count q={q}: {r.conditional:.6f} (tol 1e-3)")
    r = expected_count(mq(Fraction(1, 2), True), "t", CFG)
    assert r.status == DIVERGES
    print("PASS expected count q=1/2: DIVERGES")

    for q, want in [(Fraction(0), 2.0), (Fraction(1, 4), 3.0),
                    (Fraction(3, 4), 3.0)]:
        est = estimate_conditional_count(mq(q, True), "t", 100_000,
                                         max_steps=500, seed=SEED)
        gap = abs(est.mean - want)
        assert gap <= 3 * est.stderr, (q, est)
        se = gap / est.stderr if est.stderr else 0.0
        print(f"PASS expected count MC q={q}: {est.mean:.4f} "
              f"+- {est.stderr:.4f} vs {want} ({se:.2f} se)")


def test_adequacy_sandwich():
    """On 50 generated label-free programs, the enumerated converged
    mass bounds the denotational convergence probability from below and
    converged + open bounds it from above (1e-6 headroom).  The lower
    comparison allows 1e-12: the exact rational mass can sit one ulp
    above its binary64 evaluation."""
    worst_lo, worst_hi = 1.0, 1.0
    for i, t in enumerate(gen_corpus(50, SEED)):
        res = enumerate_paths(init_state(t), max_steps=2000, max_choices=14)
        p = prob_zero(t, CFG12)
        lo = float(res.converged_mass)
        hi = float(res.converged_mass + res.open_mass)
        assert lo <= p + 1e-12, (i, lo, p)
        assert p <= hi + 1e-6, (i, p, hi)
        worst_lo = min(worst_lo, p - lo)
        worst_hi = min(worst_hi, hi - p)
    print(f"PASS adequacy sandwich on 50 programs "
          f"(margins: lower {worst_lo:.2e}, upper {worst_hi:.2e})")


def test_derivative_oracle():
    """Dual partials at rate 1-h against central differences: the
    observed truncation error scales like h^2 across h = 1e-2, 1e-3 on
    20 labeled programs."""
    programs = gen_corpus(18, 424242, labeled=True) \
        + [mq(Fraction(1, 4), True), mq(Fraction(3, 4), True)]
    nontrivial = 0
    for i, t in enumerate(programs):
        label = sorted(labels_of(t))[0]
        e2 = finite_difference_check(t, label, 1e-2, CFG12).abs_err
        e3 = finite_difference_check(t, label, 1e-3, CFG12).abs_err
        # quartic falloff would be e2/10000; quadratic is e2/100; allow
        # slack for the h^4 term and the roundoff floor
        assert e3 <= e2 / 25 + 1e-11, (i, e2, e3)
        if e2 > 1e-8:
            nontrivial += 1
            assert e3 <= e2 / 25, (i, e2, e3)
    assert nontrivial >= 2
    print(f"PASS derivative oracle on 20 programs "
          f"({nontrivial} with truncation error above roundoff)")


def test_lipschitz():
    """10^4 random (t, x, y) trials per p in {0.25, 0.5, 0.9}: never
    exceed dist(x, y)/(1-p) + 1e-12."""
    for p in (0.25, 0.5, 0.9):
        rep = lipschitz_check(p, 10_000, seed=SEED)
        assert rep.ok, rep.violations[:3]
        print(f"PASS lipschitz p={p}: 10000 trials, "
              f"worst ratio {rep.worst:.3f}")


def test_chain_rule_and_first_order():
    """10^3 trials each: composite derivatives agree within 1e-9, and
    t(x) + t'(x)u never exceeds t(x+u)."""
    web = nat_web(4)
    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng([SEED, i])
        s = random_series(rng, web, web)
        t = random_series(rng, web, ("*",))
        x = random_point(rng, 4, 0.8)
        u = random_point(rng, 4, 0.1)
        worst = max(worst, chain_rule_check(s, t, x, u))
    assert worst <= 1e-9
    print(f"PASS chain rule: 1000 trials, max discrepancy {worst:.2e}")

    worst = 0.0
    for i in range(1000):
        rng = np.random.default_rng([SEED, 7, i])
        t = random_series(rng, web, ("*",))
        x = random_point(rng, 4, 0.6)
        u = random_point(rng, 4, 0.35)
        worst = max(worst, first_order_check(t, x, u))
    assert worst <= 0.0
    print(f"PASS first-order bound: 1000 trials, worst margin {worst:.2e}")


def test_distance_axioms():
    """10^4 trials of the metric axioms and the lattice identities."""
    rep = distance_axiom_check(10_000, seed=SEED)
    assert rep.ok, rep.violations[:3]
    print("PASS distance axioms: 10000 trials, no violations")


def test_tamed_bound():
    """For the coin pair (dice 0, dice eps), every context in the
    10-context corpus, once tamed at p, separates them by at most
    2 p eps / (1-p) + 1e-6; the untamed retry context separates them
    almost surely."""
    ctxs = load_contexts()
    assert len(ctxs) == 10
    for eps in (Fraction(1, 10), Fraction(1, 100)):
        for p in (Fraction(1, 4), Fraction(1, 2)):
            rep = tamed_bound_check(Dice(Fraction(0)), Dice(eps), p, ctxs)
            closed_bound = float(2 * p * eps / (1 - p)) + 1e-6
            assert rep.ok, rep.violations
            assert rep.max_gap <= closed_bound
            assert rep.bound <= closed_bound + 1e-9
            print(f"PASS tamed bound eps={eps} p={p}: max gap "
                  f"{rep.max_gap:.6f} <= {closed_bound:.6f}")
    amp = next(c for c in ctxs if type(c) is Fix)
    gap = untamed_gap(Dice(Fraction(0)), Dice(Fraction(1, 10)), amp)
    assert abs(gap - 1.0) <= 1e-2
    print(f"PASS untamed amplification: gap {gap:.6f} at eps=1/10")


def test_translation_coherence():
    """On 20 labeled finite-tree programs with random rational rates:
    the label-count generating function equals the gated program's
    converged mass exactly, and the spy denotation matches it to 1e-6."""
    rng = random.Random(SEED)
    worst = 0.0
    for i, t in enumerate(gen_corpus(20, 77, labeled=True)):
        rates = {}
        for lab in sorted(labels_of(t)):
            den = rng.choice((5, 6, 7, 9))
            rates[lab] = Fraction(rng.randrange(0, den + 1), den)
        res = enumerate_paths(init_state(t), max_choices=96)
        assert res.open_mass == 0
        lhs = Fraction(0)
        for path in res.paths:
            w = path.weight
            for lab, k in path.labels.items():
                w *= rates[lab] ** k
            lhs += w
        gated = strip(lcof(t, rates))
        rgate = enumerate_paths(init_state(gated), max_choices=96)
        assert rgate.open_mass == 0
        assert lhs == rgate.converged_mass, (i, lhs, rgate.converged_mass)
        spy_mass = sval(ground_denot(t, CFG12, rates).dist.mass0())
        gap = abs(spy_mass - prob_zero(gated, CFG12))
        assert gap <= 1e-6, (i, gap)
        worst = max(worst, gap)
    print(f"PASS translation coherence on 20 programs "
          f"(exact counting identity; spy gap <= {worst:.2e})")


def test_cost_curve_sweep(tmp_path):
    """Sweep q in steps of 0.05: convergence probability and the
    conditional expected count against their closed forms, divergence
    marked at the critical rate; rows emitted as CSV."""
    rows = []
    for k in range(21):
        q = Fraction(k, 20)
        phi = prob_zero(mq(q), CFG)
        tol = 1e-2 if q == Fraction(1, 2) else 1e-3
        assert abs(phi - phi_closed(q)) <= tol, (q, phi)
        ec = expected_count(mq(q, True), "t", CFG)
        if q == Fraction(1, 2):
            assert ec.status == DIVERGES
        elif q == 1:
            assert ec.status == UNDEFINED
        else:
            want = cond_closed(q)
            assert ec.status == OK, (q, ec)
            assert abs(ec.conditional - want) <= 1e-3 * max(1.0, want), \
                (q, ec.conditional, want)
        rows.append({
            "q": f"{float(q):.2f}",
            "phi": f"{phi:.9f}",
            "status": ec.status,
            "conditional": "" if ec.status != OK
            else f"{ec.conditional:.9f}",
        })
    out = tmp_path / "mq_sweep.csv"
    with out.open("w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=["q", "phi", "status",
                                           "conditional"])
        w.writeheader()
        w.writerows(rows)
    assert len(rows) == 21
    marked = [r for r in rows if r["status"] == DIVERGES]
    assert [r["q"] for r in marked] == ["0.50"]
    print(f"PASS cost curve sweep: 21 points, divergence marked at q=0.5 "
          f"({out})")
