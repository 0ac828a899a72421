"""Seeded generators of closed ground programs for randomised suites.

Two flavours:

* plain programs mix dice, let, ifz, succ/pred, beta redexes, bounded
  countdown recursion and geometric retry loops; retry loops keep their
  stop probability at 11/20 or higher so iterated observation always
  stabilises fast,
* labeled programs draw from the finite-path-tree fragment only (no
  geometric loops), so path enumeration is exhaustive and counting
  identities can be checked with exact rationals.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List

from .machine import split_seed
from .syntax import (
    NAT, App, Arrow, Dice, Fix, Ifz, Lam, Let, Mark, Pred, Succ, Term, Var,
    labels_of, num, typecheck,
)

__all__ = ["gen_program", "gen_corpus", "LABEL_POOL"]

LABEL_POOL = ("a", "b", "c", "d", "e")


def _rational(rng: random.Random) -> Fraction:
    den = rng.choice((4, 5, 8, 10))
    return Fraction(rng.randrange(0, den + 1), den)


def _stop_rate(rng: random.Random) -> Fraction:
    # stop with probability >= 11/20, so the continue branch is taken
    # with probability <= 9/20 per round
    den = 20
    return Fraction(rng.randrange(11, den + 1), den)


class _Gen:
    def __init__(self, rng: random.Random, labeled: bool):
        self.rng = rng
        self.labeled = labeled
        self.counter = 0

    def fresh(self, base: str) -> str:
        self.counter += 1
        return f"{base}{self.counter}"

    def leaf(self, env: List[str]) -> Term:
        r = self.rng
        kinds = ["num", "dice", "dice"]
        if env:
            kinds += ["var", "var"]
        k = r.choice(kinds)
        if k == "num":
            return num(r.randrange(0, 4))
        if k == "var":
            return Var(r.choice(env))
        return Dice(_rational(r))

    def term(self, env: List[str], depth: int) -> Term:
        r = self.rng
        if depth <= 0:
            return self.mark(self.leaf(env))
        kinds = ["leaf", "succ", "pred", "let", "ifz", "redex", "countdown"]
        if not self.labeled:
            kinds.append("retry")
        k = r.choice(kinds)
        if k == "leaf":
            t = self.leaf(env)
        elif k == "succ":
            t = Succ(self.term(env, depth - 1))
        elif k == "pred":
            t = Pred(self.term(env, depth - 1))
        elif k == "let":
            x = self.fresh("x")
            t = Let(x, self.term(env, depth - 1),
                    self.term(env + [x], depth - 1))
        elif k == "ifz":
            t = Ifz(self.term(env, depth - 1),
                    self.term(env, depth - 1),
                    self.term(env, depth - 1))
        elif k == "redex":
            x = self.fresh("x")
            t = App(Lam(x, NAT, self.term(env + [x], depth - 1)),
                    self.term(env, depth - 1))
        elif k == "countdown":
            t = self.countdown(env, depth)
        else:
            t = self.retry(env, depth)
        return self.mark(t)

    def countdown(self, env: List[str], depth: int) -> Term:
        """fix f. \\x. ifz x then leaf else step (f (pred x)), applied to
        a small numeral: recursion bounded by the start value."""
        r = self.rng
        f, x = self.fresh("f"), self.fresh("n")
        base = self.term(env, depth - 2)
        rec = App(Var(f), Pred(Var(x)))
        step = Succ(rec) if r.random() < 0.5 else rec
        body = Lam(x, NAT, Ifz(Var(x), base, step))
        fn = Fix(Lam(f, Arrow(NAT, NAT), body))
        return App(fn, num(r.randrange(1, 4)))

    def retry(self, env: List[str], depth: int) -> Term:
        """fix f. \\x. ifz dice(stop) then x else f (succ x): geometric
        number of rounds, one recursive use per round."""
        r = self.rng
        f, x = self.fresh("f"), self.fresh("n")
        body = Lam(x, NAT, Ifz(Dice(_stop_rate(r)),
                               Var(x), App(Var(f), Succ(Var(x)))))
        fn = Fix(Lam(f, Arrow(NAT, NAT), body))
        return App(fn, self.leaf(env))

    def mark(self, t: Term) -> Term:
        if self.labeled and self.rng.random() < 0.3:
            return Mark(t, self.rng.choice(LABEL_POOL))
        return t


def gen_program(seed: int, labeled: bool = False) -> Term:
    """Deterministic closed program of type nat for the given seed, of
    term depth 4."""
    rng = random.Random(seed)
    g = _Gen(rng, labeled)
    t = g.term([], 4)
    if labeled and not labels_of(t):
        t = Mark(t, rng.choice(LABEL_POOL))
    typecheck(t)
    return t


def gen_corpus(n: int, seed: int, labeled: bool = False) -> List[Term]:
    return [gen_program(split_seed(seed, i), labeled) for i in range(n)]
