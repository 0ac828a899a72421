"""Finite coherence-space numerics: cones of nonnegative vectors cut
out by duality, entire maps between them, and their derivatives.

A space over a finite web is one of three shapes: the sub-probability
simplex, a box with per-coordinate caps, or the polar of finitely many
generators (all nonnegative vectors whose pairing with every generator
stays below 1).  Each shape has an exact norm, a lattice structure
(componentwise meet, and join x + y - meet), and the metric
``dist(x, y) = norm(x - meet) + norm(y - meet)``.

Maps are power series with nonnegative coefficients indexed by a finite
multiset over the input web and a symbol of the output web.  The
derivative in direction a is again a series, here materialised as the
matrix ``D[a, b] = sum_mu (mu(a)+1) t[mu+a, b] x^mu``; evaluating with
dual-number scalars gives the same numbers, which is how the chain rule
checker gets an independent left-hand side.

Checks at the bottom of the module drive randomised trials for the
Lipschitz bound on norm balls, the chain rule, the first-order (Taylor
monotonicity) bound and the distance axioms.  The tamed observational
bound for program pairs needs only ground denotations and lives in
``observe``, which loads without numpy.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np

# perfbench/workloads.py calls these two as pcs.*; they live in observe
from .observe import denot_dist_nat, tamed_bound_check  # noqa: F401
from .semantics import Dual, sval
from .syntax import MutableRecord, Record

__all__ = [
    "SLACK", "Space", "nat_web", "pair_web", "multiset_web", "tensor",
    "norm", "member", "polar_member", "support", "glb", "lub", "dist",
    "local_web", "local_member", "matapp", "compose",
    "PowerSeries", "monomial", "series_apply", "deriv_matrix",
    "promotion_series", "random_point", "random_series",
    "chain_check", "chain_rule_check", "first_order_check", "lipschitz_check",
    "distance_axiom_check", "ChainReport", "TrialReport",
]

SLACK = 1e-12


def nat_web(k: int) -> tuple:
    return tuple(range(k))


def pair_web(a: tuple, b: tuple) -> tuple:
    return tuple((s, t) for s in a for t in b)


def multiset_web(web: tuple, degree: int) -> tuple:
    """All multisets over web of size <= degree, as sorted tuples."""
    out = []
    for d in range(degree + 1):
        out.extend(itertools.combinations_with_replacement(web, d))
    return tuple(out)


def tensor(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vector over the pair web, in pair_web order."""
    return np.outer(np.asarray(x, float), np.asarray(y, float)).reshape(-1)


# ---------------------------------------------------------------------------
# spaces

class Space:
    """A cone of nonnegative vectors over a finite web, in one of three
    concrete shapes: simplex, box, or polar of finitely many generators.

    Validity needs every coordinate to be reachable (some member is
    positive there) and bounded (members cannot grow without bound
    there); both hold by construction for the simplex, and are checked
    for boxes (positive caps) and polars (every coordinate touched by
    some generator).
    """

    SIMPLEX = "simplex"
    BOX = "box"
    POLAR = "polar"

    def __init__(self, kind: str, web: tuple,
                 caps: Optional[np.ndarray] = None,
                 gens: Optional[np.ndarray] = None):
        self.kind = kind
        self.web = web
        self.caps = caps
        self.gens = gens
        self.validate()

    @staticmethod
    def simplex(web: tuple) -> "Space":
        return Space(Space.SIMPLEX, web)

    @staticmethod
    def box(web: tuple, caps: Sequence[float]) -> "Space":
        return Space(Space.BOX, web, caps=np.asarray(caps, float))

    @staticmethod
    def polar_of(web: tuple, gens: Sequence[Sequence[float]]) -> "Space":
        return Space(Space.POLAR, web, gens=np.asarray(gens, float))

    def validate(self) -> None:
        n = len(self.web)
        if self.kind == Space.SIMPLEX:
            return
        if self.kind == Space.BOX:
            if self.caps is None or self.caps.shape != (n,):
                raise ValueError("box caps must match the web")
            if np.any(self.caps <= 0):
                raise ValueError("box caps must be positive, or the "
                                 "coordinate is never charged")
            return
        if self.kind == Space.POLAR:
            if self.gens is None or self.gens.ndim != 2 \
                    or self.gens.shape[1] != n or self.gens.shape[0] == 0:
                raise ValueError("generators must be rows over the web")
            if np.any(self.gens < 0):
                raise ValueError("generators must be nonnegative")
            if np.any(self.gens.max(axis=0) <= 0):
                raise ValueError("some coordinate escapes every "
                                 "generator and is unbounded")
            return
        raise ValueError(f"unknown space kind {self.kind!r}")

    def __repr__(self):
        return f"Space({self.kind}, |web|={len(self.web)})"


def _vec(x) -> np.ndarray:
    a = np.asarray(x, float)
    if np.any(a < -SLACK):
        raise ValueError("vectors live in the nonnegative orthant")
    return np.maximum(a, 0.0)


def norm(x, space: Space) -> float:
    """Least r with x inside r * space."""
    a = _vec(x)
    if space.kind == Space.SIMPLEX:
        return float(a.sum())
    if space.kind == Space.BOX:
        return float((a / space.caps).max()) if a.size else 0.0
    return float((space.gens @ a).max()) if space.gens.size else 0.0


def member(x, space: Space) -> bool:
    return norm(x, space) <= 1.0 + SLACK


def support(u, space: Space) -> float:
    """sup over members x of <x, u>, the gauge of the polar."""
    a = _vec(u)
    if space.kind == Space.SIMPLEX:
        return float(a.max()) if a.size else 0.0
    if space.kind == Space.BOX:
        return float(space.caps @ a)
    # polar of generators: a linear program over {x >= 0 : G x <= 1}
    from scipy.optimize import linprog
    res = linprog(-a, A_ub=space.gens,
                  b_ub=np.ones(space.gens.shape[0]),
                  bounds=[(0, None)] * len(space.web),
                  method="highs")
    if not res.success:
        raise ValueError(f"support function LP failed: {res.message}")
    return float(-res.fun)


def polar_member(u, space: Space, slack: float = SLACK) -> bool:
    """Is u in the polar of the space?"""
    return support(u, space) <= 1.0 + slack


def glb(x, y) -> np.ndarray:
    return np.minimum(_vec(x), _vec(y))


def lub(x, y) -> np.ndarray:
    # the join x + y - glb(x, y), which coordinatewise is the maximum;
    # computing it that way keeps the lattice identities exact
    return np.maximum(_vec(x), _vec(y))


def dist(x, y, space: Space) -> float:
    m = glb(x, y)
    return norm(_vec(x) - m, space) + norm(_vec(y) - m, space)


def local_web(x, space: Space) -> tuple:
    """Symbols that admit a bit more mass on top of x."""
    a = _vec(x)
    if space.kind == Space.SIMPLEX:
        return space.web if a.sum() < 1.0 - SLACK else ()
    if space.kind == Space.BOX:
        return tuple(s for s, v, c in zip(space.web, a, space.caps)
                     if v < c - SLACK)
    pairing = space.gens @ a
    tight = space.gens[pairing >= 1.0 - SLACK]
    if tight.size == 0:
        return space.web
    free = tight.max(axis=0) <= SLACK
    return tuple(s for s, ok in zip(space.web, free) if ok)


def local_member(x, u, space: Space) -> bool:
    """Is u an admissible increment at x, i.e. x + u still a member?"""
    return member(_vec(x) + _vec(u), space)


# ---------------------------------------------------------------------------
# linear maps

def matapp(t: np.ndarray, x) -> np.ndarray:
    """Apply a linear map given as matrix t[in, out]."""
    return np.asarray(x, float) @ np.asarray(t, float)


def compose(s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """s after t: (compose(s, t))[i, k] = sum_j t[i, j] s[j, k]."""
    return np.asarray(t, float) @ np.asarray(s, float)


# ---------------------------------------------------------------------------
# power series

class PowerSeries(MutableRecord):
    """Entire map with nonnegative coefficients.

    coeffs maps (multiset over in_web, out symbol) to a coefficient;
    multisets are sorted tuples of symbols, repetitions included.
    """

    __slots__ = ("in_web", "out_web", "coeffs", "_in_ix", "_out_ix")
    _fields = ("in_web", "out_web", "coeffs")

    def __init__(self, in_web: tuple, out_web: tuple, coeffs: dict) -> None:
        self.in_web = in_web
        self.out_web = out_web
        self.coeffs = coeffs
        self._in_ix = {s: i for i, s in enumerate(in_web)}
        self._out_ix = {s: i for i, s in enumerate(out_web)}
        for (mu, b), c in coeffs.items():
            if b not in self._out_ix:
                raise ValueError(f"unknown output symbol {b!r}")
            if any(s not in self._in_ix for s in mu):
                raise ValueError(f"unknown input symbol in {mu!r}")
            if tuple(sorted(mu)) != tuple(mu):
                raise ValueError(f"multiset {mu!r} must be sorted")
            if c < 0:
                raise ValueError("coefficients must be nonnegative")


def monomial(x, mu: tuple, ix: Optional[dict] = None):
    """x^mu; x is indexed by web position, mu lists symbols."""
    out = 1.0
    for s in mu:
        out = out * x[ix[s] if ix else s]
    return out


def series_apply(t: PowerSeries, x) -> list:
    """t(x) as a list over the output web.  Scalars may be floats or
    duals; the evaluation is exact polynomial arithmetic either way."""
    out = [0.0] * len(t.out_web)
    ix = t._in_ix
    for (mu, b), c in t.coeffs.items():
        out[t._out_ix[b]] = out[t._out_ix[b]] + c * monomial(x, mu, ix)
    return out


def deriv_matrix(t: PowerSeries, x) -> np.ndarray:
    """D[a, b] = sum_mu (mu(a)+1) t[mu+a, b] x^mu, by reindexing each
    coefficient over the symbols it mentions."""
    a = np.asarray(x, float)
    ix = t._in_ix
    D = np.zeros((len(t.in_web), len(t.out_web)))
    for (mu, b), c in t.coeffs.items():
        if not mu:
            continue
        seen = set()
        for i, s in enumerate(mu):
            if s in seen:
                continue
            seen.add(s)
            k = mu.count(s)
            rest = mu[:i] + mu[i + 1:]
            D[ix[s], t._out_ix[b]] += k * c * monomial(a, rest, ix)
    return D


def promotion_series(web: tuple, degree: int) -> PowerSeries:
    """x maps to all its monomials up to the degree: t(x)_nu = x^nu."""
    out = multiset_web(web, degree)
    return PowerSeries(web, out, {(nu, nu): 1.0 for nu in out})


# ---------------------------------------------------------------------------
# randomised material for the checks

def random_point(rng: np.random.Generator, n: int, scale: float
                 ) -> np.ndarray:
    """Random simplex-ball point of norm at most scale (sometimes
    exactly on the shell, to exercise the boundary)."""
    raw = rng.exponential(size=n)
    x = raw / raw.sum()
    r = scale if rng.random() < 0.15 else scale * rng.random()
    return x * r


def random_series(rng: np.random.Generator, in_web: tuple, out_web: tuple
                  ) -> PowerSeries:
    """Random series of 1 to 6 monomials of degree at most 4, with total
    coefficient mass at most 1; such a series maps the unit simplex ball
    into the unit interval sum."""
    k = int(rng.integers(1, 7))
    coeffs: dict = {}
    total = rng.random() if rng.random() < 0.5 else 1.0
    weights = rng.dirichlet(np.ones(k)) * total
    for w in weights:
        d = int(rng.integers(0, 5))
        mu = tuple(sorted(rng.choice(len(in_web), size=d)))
        mu = tuple(in_web[i] for i in mu)
        b = out_web[int(rng.integers(0, len(out_web)))]
        coeffs[(mu, b)] = coeffs.get((mu, b), 0.0) + float(w)
    return PowerSeries(in_web, out_web, coeffs)


# ---------------------------------------------------------------------------
# checks

class TrialReport(Record):
    __slots__ = ("name", "trials", "violations",
                 "worst")       # largest margin used, <= 1 means satisfied

    @property
    def ok(self) -> bool:
        return not self.violations


class ChainReport(Record):
    __slots__ = ("trials", "max_err", "tol",
                 "worst_trial")     # the trial reaching max_err, if > 0

    @property
    def ok(self) -> bool:
        return self.max_err <= self.tol


def chain_rule_check(s: PowerSeries, t: PowerSeries, x, u) -> float:
    """|(t o s)'(x) u  -  Dt(s(x)) (Ds(x) u)|, sup over outputs.

    The left side is computed by running both series on dual scalars
    seeded with direction u, exact for polynomials; the right side is
    the matrix product of the two derivative matrices.
    """
    if s.out_web != t.in_web:
        raise ValueError("webs of s and t do not compose")
    xd = [Dual(float(a), {"_dir": float(b)}) for a, b in zip(x, u)]
    y = series_apply(s, xd)
    z = series_apply(t, y)
    lhs = np.array([zz.d.get("_dir", 0.0) if isinstance(zz, Dual) else 0.0
                    for zz in z])
    Ds = deriv_matrix(s, x)
    Dt = deriv_matrix(t, [sval(v) for v in y])
    rhs = (np.asarray(u, float) @ Ds) @ Dt
    return float(np.max(np.abs(lhs - rhs))) if lhs.size else 0.0


def chain_check(trials: int, seed: int) -> ChainReport:
    """chain_rule_check on random series s: 4 -> 4 and t: 4 -> 1 at a
    random point and direction, one generator per trial."""
    web = nat_web(4)
    worst, witness = 0.0, None
    for i in range(trials):
        rng = np.random.default_rng([seed, i])
        s = random_series(rng, web, web)
        t = random_series(rng, web, ("*",))
        x = random_point(rng, 4, 0.8)
        u = random_point(rng, 4, 0.1)
        err = chain_rule_check(s, t, x, u)
        if err > worst:
            worst, witness = err, i
    return ChainReport(trials, worst, 1e-9, witness)


def first_order_check(t: PowerSeries, x, u) -> float:
    """Worst violation of t(x) + t'(x) u <= t(x + u), componentwise;
    nonpositive means the bound holds."""
    tx = np.array(series_apply(t, np.asarray(x, float)))
    txu = np.array(series_apply(t, np.asarray(x, float) + np.asarray(u, float)))
    lin = np.asarray(u, float) @ deriv_matrix(t, x)
    return float(np.max(tx + lin - txu - SLACK)) if tx.size else 0.0


def lipschitz_check(p: float, trials: int, seed: int) -> TrialReport:
    """Scalar series of mass <= 1 on the p-ball of a 4-point web:
    |t(x)-t(y)| must stay below dist(x, y) / (1 - p)."""
    if not (0.0 < p < 1.0):
        raise ValueError("p must lie strictly between 0 and 1")
    rng = np.random.default_rng([seed, 4])
    web = nat_web(4)
    space = Space.simplex(web)
    violations = []
    worst = 0.0
    for i in range(trials):
        t = random_series(rng, web, ("*",))
        x = random_point(rng, 4, p)
        y = random_point(rng, 4, p)
        gap = abs(series_apply(t, x)[0] - series_apply(t, y)[0])
        bound = dist(x, y, space) / (1.0 - p) + SLACK
        worst = max(worst, gap / bound if bound > 0 else 0.0)
        if gap > bound:
            violations.append((i, gap, bound))
    return TrialReport(f"lipschitz p={p}", trials, violations, worst)


def distance_axiom_check(trials: int, seed: int) -> TrialReport:
    """Metric axioms plus the lattice identities feeding them, on a
    5-point web."""
    rng = np.random.default_rng([seed, 97, 5])
    web = nat_web(5)
    space = Space.simplex(web)
    violations = []
    worst = 0.0

    def check(i, name, bad, margin):
        nonlocal worst
        worst = max(worst, margin)
        if bad:
            violations.append((i, name, margin))

    for i in range(trials):
        x = random_point(rng, 5, 1.0)
        y = random_point(rng, 5, 1.0)
        z = random_point(rng, 5, 0.5)
        m = glb(x, y)
        j = lub(x, y)
        check(i, "glb-lower", np.any(m > np.minimum(x, y) + SLACK), 0.0)
        check(i, "glb-commutes", np.any(m != glb(y, x)), 0.0)
        check(i, "glb-idempotent", np.any(glb(x, x) != x), 0.0)
        check(i, "glb-assoc",
              np.any(glb(glb(x, y), z) != glb(x, glb(y, z))), 0.0)
        check(i, "absorption", np.any(glb(x, lub(x, y)) != x), 0.0)
        check(i, "lub-is-max",
              np.max(np.abs(j - np.maximum(x, y))) > SLACK,
              np.max(np.abs(j - np.maximum(x, y))))
        check(i, "lattice-sum",
              np.max(np.abs(m + j - x - y)) > SLACK,
              np.max(np.abs(m + j - x - y)))
        # translation distributes over the meet
        lhs = glb(x + z, y + z)
        rhs = m + z
        check(i, "shift-meet", np.max(np.abs(lhs - rhs)) > SLACK,
              np.max(np.abs(lhs - rhs)))
        dxy = dist(x, y, space)
        check(i, "symmetry", abs(dxy - dist(y, x, space)) > SLACK, dxy)
        check(i, "identity", dist(x, x, space) > SLACK, dist(x, x, space))
        tri = dist(x, z, space) + dist(z, y, space)
        check(i, "triangle", dxy > tri + SLACK, dxy - tri)
        check(i, "l1", abs(dxy - float(np.abs(x - y).sum())) > SLACK, dxy)
        if dxy <= SLACK:
            check(i, "separation", np.max(np.abs(x - y)) > 10 * SLACK,
                  np.max(np.abs(x - y)))
    return TrialReport("distance axioms", trials, violations, worst)
