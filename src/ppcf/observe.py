"""Observational distance between ground programs, from their
denotations alone.

The distance of two closed programs of type ``nat`` is the simplex norm
of the symmetric difference of their ground denotations.  A context
``C : T -> nat`` can amplify that difference without bound, but once it
is *tamed* (its argument passes through a gate that keeps it with
probability p and diverges otherwise) the gap between the probabilities
of ``C M1`` and ``C M2`` reaching 0 is at most ``p / (1 - p)`` times the
distance.  ``tamed_bound_check`` checks that bound over a list of
contexts.

Everything here runs on the semantics and the syntax; unlike the cone
numerics in ``pcs`` it needs neither numpy nor scipy, so ``ppcf dist``
and ``ppcf check tamed`` do not load them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .semantics import (
    DEFAULT_CONFIG, SemConfig, ground_denot, prob_zero, sval,
)
from .syntax import (
    NAT, App, Arrow, Dice, Ifz, Lam, Term, Var, all_names, loop, typecheck,
)

__all__ = [
    "TamedReport", "tame", "denot_dist_nat", "tamed_bound_check",
    "untamed_gap",
]


@dataclass(frozen=True)
class TamedReport:
    p: float
    denot_dist: float
    bound: float
    gaps: list            # (context index, gap)
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def max_gap(self) -> float:
        return max((g for _, g in self.gaps), default=0.0)


def _fresh(name: str, taken) -> str:
    while name in taken:
        name += "_"
    return name


def tame(context: Term, p: Fraction) -> Term:
    """Precompose a context with a p-biased gate on its argument, so one
    use of the tested term survives with probability p."""
    ty = typecheck(context)
    if type(ty) is not Arrow or ty.cod != NAT:
        raise ValueError(f"contexts must map into nat, got {ty}")
    z = _fresh("z", all_names(context))
    gate = Ifz(Dice(Fraction(p)), Var(z), loop(ty.dom))
    return Lam(z, ty.dom, App(context, gate))


def denot_dist_nat(m1: Term, m2: Term, cfg: SemConfig = DEFAULT_CONFIG
                   ) -> float:
    """Distance of two ground denotations: the simplex norm of the
    symmetric difference, with the overflow bucket as an extra point."""
    d1 = ground_denot(m1, cfg).dist
    d2 = ground_denot(m2, cfg).dist
    total = abs(sval(d1.overflow) - sval(d2.overflow))
    for n in d1.coords.keys() | d2.coords.keys():
        total += abs(sval(d1.coords.get(n, 0.0)) - sval(d2.coords.get(n, 0.0)))
    return total


def tamed_bound_check(m1: Term, m2: Term, p: Fraction,
                      contexts: Sequence[Term],
                      cfg: SemConfig = DEFAULT_CONFIG,
                      slack: float = 1e-6) -> TamedReport:
    """Every tamed context separates the two programs by at most
    p/(1-p) times the distance of their denotations."""
    p = Fraction(p)
    if not (0 < p < 1):
        raise ValueError("p must lie strictly between 0 and 1")
    d = denot_dist_nat(m1, m2, cfg)
    bound = float(p) / (1.0 - float(p)) * d + slack
    gaps = []
    violations = []
    for i, ctx in enumerate(contexts):
        tamed = tame(ctx, p)
        gap = abs(prob_zero(App(tamed, m1), cfg)
                  - prob_zero(App(tamed, m2), cfg))
        gaps.append((i, gap))
        if gap > bound:
            violations.append((i, gap, bound))
    return TamedReport(float(p), d, bound, gaps, violations)


def untamed_gap(m1: Term, m2: Term, context: Term,
                cfg: SemConfig = DEFAULT_CONFIG) -> float:
    return abs(prob_zero(App(context, m1), cfg)
               - prob_zero(App(context, m2), cfg))
