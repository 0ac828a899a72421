"""Denotational semantics on sub-probability coefficient vectors.

A closed program of type nat denotes a sub-probability weighting of the
numerals; coordinate 0 of that vector is exactly the probability that
the machine accepts.  Scalars are either plain floats or forward-mode
dual numbers carrying partial derivatives with respect to named
parameters, so differentiating the semantics in a gate rate costs one
evaluation.  Differentiating at rate 1 recovers the expected number of
times the gated subterm is used among converging runs.

Ground vectors are truncated at ``nmax`` with a lumped overflow bucket:
succ shifts into it, ifz counts it as nonzero, and pred or let refuse
to guess what is inside it (a precision error above ``tol``).

Fixpoints are Kleene suprema.  A fixpoint observed at ground type is
iterated in place until its observation moves less than ``tol`` in sup
norm.  A fixpoint used as a function is unrolled to a finite depth, and
the depth is driven by a geometric ladder at the top-level ground
observation: evaluate at depth d and 2d and stop once the observation
is stable.  Derivatives that keep growing along the ladder, or exceed
``divergence_threshold``, are reported as divergent rather than as a
number.

A closed fix node (one without free variables) is evaluated once per
evaluator: every later visit reuses the same fixpoint family, with its
unrolled functionals, argument memo and ground iterate.  This is sound
because a closed term denotes the same value in every environment and
an evaluator's unrolling depth is fixed, so a fresh family would
recompute exactly what the shared one holds.  Without the sharing, a
closed recursive helper called from inside another recursion is
unrolled again on every outer call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Optional, Union

from .syntax import (
    App, Dice, Fix, Ifz, Lam, Let, Mark, Num, Pred, PpcfError, Succ, Term,
    Var, free_vars, typecheck, Nat,
)
from .translate import default_spy_vars, spy, strip

__all__ = [
    "Dual", "Dist", "SemConfig", "GroundResult", "ExpectedCount", "FdCheck",
    "PrecisionError", "Closure", "VBot", "VFix", "VSum",
    "denot", "ground_denot", "prob_zero", "spy_denot", "expected_count",
    "finite_difference_check", "OK", "DIVERGES", "UNDEFINED",
]


class PrecisionError(PpcfError):
    """Truncation bucket interfered with an operation that needs exact
    knowledge of which numeral the mass sits on."""


# ---------------------------------------------------------------------------
# scalars: floats or dual numbers

class Dual:
    """value plus partial derivatives keyed by parameter name."""

    __slots__ = ("v", "d")

    def __init__(self, v: float, d: Optional[dict[str, float]] = None):
        self.v = v
        self.d = d if d is not None else {}

    def __add__(self, o):
        if type(o) is Dual:
            d = dict(self.d)
            for k, x in o.d.items():
                d[k] = d.get(k, 0.0) + x
            return Dual(self.v + o.v, d)
        return Dual(self.v + o, dict(self.d))

    __radd__ = __add__

    def __mul__(self, o):
        if type(o) is Dual:
            d = {}
            for k, x in self.d.items():
                d[k] = x * o.v
            for k, x in o.d.items():
                d[k] = d.get(k, 0.0) + self.v * x
            return Dual(self.v * o.v, d)
        return Dual(self.v * o, {k: x * o for k, x in self.d.items()})

    __rmul__ = __mul__

    def __repr__(self):
        return f"Dual({self.v!r}, {self.d!r})"


Scalar = Union[float, Dual]


def sval(x: Scalar) -> float:
    return x.v if type(x) is Dual else x


def sparts(x: Scalar) -> dict[str, float]:
    return x.d if type(x) is Dual else {}


def _szero(x: Scalar) -> bool:
    if type(x) is Dual:
        return x.v == 0.0 and not any(x.d.values())
    return x == 0.0


def _sdiff(a: Scalar, b: Scalar) -> float:
    """sup distance between two scalars over value and all partials."""
    m = abs(sval(a) - sval(b))
    da, db = sparts(a), sparts(b)
    for k in da.keys() | db.keys():
        m = max(m, abs(da.get(k, 0.0) - db.get(k, 0.0)))
    return m


def _fp_scalar(x: Scalar):
    if type(x) is Dual:
        return (x.v, tuple(sorted(x.d.items())))
    return x


# ---------------------------------------------------------------------------
# ground values

class Dist:
    """Sparse sub-probability weighting of numerals 0..nmax plus a
    lumped overflow bucket for everything above."""

    __slots__ = ("coords", "overflow")

    def __init__(self, coords: Optional[dict[int, Scalar]] = None,
                 overflow: Scalar = 0.0):
        self.coords = coords if coords is not None else {}
        self.overflow = overflow

    @staticmethod
    def dirac(n: int, nmax: int) -> "Dist":
        if n > nmax:
            return Dist({}, 1.0)
        return Dist({n: 1.0})

    def mass0(self) -> Scalar:
        return self.coords.get(0, 0.0)

    def mass_pos(self) -> Scalar:
        total: Scalar = 0.0
        for n, c in self.coords.items():
            if n > 0:
                total = total + c if type(total) is Dual else c + total
        return total + self.overflow

    def total(self) -> Scalar:
        t: Scalar = self.overflow
        for c in self.coords.values():
            t = t + c
        return t

    def scaled(self, c: Scalar) -> "Dist":
        if _szero(c):
            return ZERO
        return Dist({n: c * x for n, x in self.coords.items()},
                    c * self.overflow if not _szero(self.overflow) else 0.0)

    def plus(self, o: "Dist") -> "Dist":
        coords = dict(self.coords)
        for n, c in o.coords.items():
            prev = coords.get(n)
            coords[n] = c if prev is None else prev + c
        return Dist(coords, self.overflow + o.overflow)

    def shifted_up(self, nmax: int) -> "Dist":
        coords = {}
        over = self.overflow
        for n, c in self.coords.items():
            if n + 1 > nmax:
                over = over + c
            else:
                coords[n + 1] = c
        return Dist(coords, over)

    def shifted_down(self, tol: float) -> "Dist":
        if abs(sval(self.overflow)) > tol:
            raise PrecisionError(
                "pred needs the exact numeral, but overflow mass "
                f"{sval(self.overflow)} exceeds tol {tol}")
        coords: dict[int, Scalar] = {}
        for n, c in self.coords.items():
            m = n - 1 if n > 0 else 0
            prev = coords.get(m)
            coords[m] = c if prev is None else prev + c
        return Dist(coords, self.overflow)

    def sup_diff(self, o: "Dist") -> float:
        m = _sdiff(self.overflow, o.overflow)
        for n in self.coords.keys() | o.coords.keys():
            m = max(m, _sdiff(self.coords.get(n, 0.0),
                              o.coords.get(n, 0.0)))
        return m

    def fingerprint(self, sink=None):
        return ("d",
                tuple(sorted((n, _fp_scalar(c))
                             for n, c in self.coords.items())),
                _fp_scalar(self.overflow))

    def __repr__(self):
        inside = ", ".join(f"{n}: {c!r}" for n, c in sorted(self.coords.items()))
        return f"Dist({{{inside}}}, overflow={self.overflow!r})"


ZERO = Dist({}, 0.0)


# ---------------------------------------------------------------------------
# configuration and results

@dataclass(frozen=True)
class SemConfig:
    nmax: int = 64
    fix_iters: int = 10_000
    tol: float = 1e-9
    divergence_threshold: float = 1e12

    def __post_init__(self):
        # a tolerance of 0 or below never stops a Kleene iteration, and
        # a numeral range below 1 silently moves all mass into overflow
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise PpcfError(f"tol must be finite and > 0, got {self.tol}")
        if self.nmax < 1:
            raise PpcfError(f"nmax must be >= 1, got {self.nmax}")
        if self.fix_iters < 1:
            raise PpcfError(f"fix_iters must be >= 1, got {self.fix_iters}")


DEFAULT_CONFIG = SemConfig()

OK = "OK"
DIVERGES = "DIVERGES"
UNDEFINED = "UNDEFINED"


@dataclass(frozen=True)
class GroundResult:
    dist: Dist
    converged: bool           # ladder and every inner Kleene hit tol
    depth: int                # last unrolling depth used
    history: tuple            # ladder observations, oldest first


@dataclass(frozen=True)
class ExpectedCount:
    label: str
    status: str               # OK, DIVERGES or UNDEFINED
    raw: Optional[float]      # d/dr of convergence mass at rate 1
    conditional: Optional[float]
    p_conv: float
    converged: bool


@dataclass(frozen=True)
class FdCheck:
    label: str
    h: float
    at: float                 # rate the derivative is taken at, 1 - h
    dual: float
    central: float

    @property
    def abs_err(self) -> float:
        return abs(self.dual - self.central)


# ---------------------------------------------------------------------------
# higher values

@dataclass
class Closure:
    name: str
    body: Term
    env: dict

    def fingerprint(self, sink):
        sink.append(self)
        return ("o", id(self))


class _BotType:
    """Bottom of every type: the zero vector, the constantly-zero map."""

    def fingerprint(self, sink):
        return ("bot",)

    def __repr__(self):
        return "VBot"


VBot = _BotType()


class _FixFam:
    """One evaluation of a fix node: shared unrolling caches.

    An evaluator makes one family per closed fix node and reuses it at
    every visit (see the module docstring); an open fix node gets a
    fresh family each time, since its functional depends on the
    environment.
    """

    __slots__ = ("functional", "memo", "gcache", "ground", "refs")

    def __init__(self, functional):
        self.functional = functional
        self.memo: dict = {}       # (depth, arg fingerprint) -> value
        self.gcache: dict = {}     # depth -> unrolled functional value
        self.ground: Optional[Dist] = None
        self.refs: list = []       # pins identity-fingerprinted args


@dataclass(frozen=True)
class VFix:
    fam: _FixFam
    depth: int

    def fingerprint(self, sink):
        sink.append(self)
        return ("o", id(self))


@dataclass
class VSum:
    """Formal nonnegative combination of function values.  Application
    is linear in the function, so sums distribute over apply."""
    parts: tuple  # of (Scalar, value)

    def fingerprint(self, sink):
        return ("s", tuple((_fp_scalar(c), v.fingerprint(sink))
                           for c, v in self.parts))


def _scale_val(c: Scalar, v):
    if _szero(c):
        return None
    if type(v) is Dist:
        return v.scaled(c)
    if v is VBot:
        return None
    if type(v) is VSum:
        return VSum(tuple((c * ci, vi) for ci, vi in v.parts))
    return VSum(((c, v),))


def _add_val(a, b):
    if a is None:
        return b
    if b is None:
        return a
    if type(a) is Dist and type(b) is Dist:
        return a.plus(b)
    pa = a.parts if type(a) is VSum else ((1.0, a),)
    pb = b.parts if type(b) is VSum else ((1.0, b),)
    return VSum(pa + pb)


# ---------------------------------------------------------------------------
# the evaluator

class _Eval:
    def __init__(self, cfg: SemConfig, depth: int):
        self.cfg = cfg
        self.depth = depth          # unrolling budget for applied fixpoints
        self.used_arrow_fix = False
        self.unconverged = False
        # id(Fix node) -> (node, its shared VFix, or None when the node
        # is open); holding the node keeps its id from being reused
        self.fixes: dict[int, tuple[Fix, Optional[VFix]]] = {}

    def eval(self, t: Term, env: dict):
        cls = type(t)
        if cls is Num:
            return Dist.dirac(t.n, self.cfg.nmax)
        if cls is Var:
            try:
                return env[t.name]
            except KeyError:
                raise PpcfError(f"no value for free variable {t.name!r}")
        if cls is Dice:
            r = float(t.rate)
            coords = {}
            if r > 0.0:
                coords[0] = r
            if r < 1.0:
                coords[1] = 1.0 - r
            return Dist(coords)
        if cls is Succ:
            return self.obs(self.eval(t.arg, env)).shifted_up(self.cfg.nmax)
        if cls is Pred:
            return self.obs(self.eval(t.arg, env)).shifted_down(self.cfg.tol)
        if cls is App:
            f = self.eval(t.fun, env)
            return self.apply(f, self.eval(t.arg, env))
        if cls is Lam:
            return Closure(t.name, t.body, env)
        if cls is Fix:
            return self._fix(t, env)
        if cls is Ifz:
            d = self.obs(self.eval(t.scrut, env))
            c0, cpos = d.mass0(), d.mass_pos()
            out = None
            if not _szero(c0):
                out = _scale_val(c0, self.eval(t.zero, env))
            if not _szero(cpos):
                out = _add_val(out, _scale_val(cpos, self.eval(t.pos, env)))
            return out if out is not None else VBot
        if cls is Let:
            d = self.obs(self.eval(t.bound, env))
            if abs(sval(d.overflow)) > self.cfg.tol:
                raise PrecisionError(
                    "let scrutinee carries overflow mass "
                    f"{sval(d.overflow)}; the bound numeral is unknown")
            out = None
            for n, c in sorted(d.coords.items()):
                if _szero(c):
                    continue
                env2 = dict(env)
                env2[t.name] = Dist.dirac(n, self.cfg.nmax)
                out = _add_val(out, _scale_val(c, self.eval(t.body, env2)))
            return out if out is not None else VBot
        if cls is Mark:
            raise PpcfError("marks have no direct denotation; "
                            "strip or translate them first")
        raise TypeError(f"not a term: {t!r}")

    def _fix(self, t: Fix, env: dict) -> VFix:
        hit = self.fixes.get(id(t))
        if hit is not None and hit[1] is not None:
            return hit[1]
        v = VFix(_FixFam(self.eval(t.arg, env)), self.depth)
        if hit is None:
            self.fixes[id(t)] = (t, None if free_vars(t) else v)
        return v

    # -- application -------------------------------------------------------

    def apply(self, f, x):
        if type(f) is Closure:
            env = dict(f.env)
            env[f.name] = x
            return self.eval(f.body, env)
        if f is VBot:
            return VBot
        if type(f) is VSum:
            out = None
            for c, v in f.parts:
                out = _add_val(out, _scale_val(c, self.apply(v, x)))
            return out if out is not None else VBot
        if type(f) is VFix:
            return self._apply_fix(f.fam, f.depth, x)
        raise PpcfError(f"cannot apply a ground value")

    def _apply_fix(self, fam: _FixFam, depth: int, x):
        if depth <= 0:
            return VBot
        self.used_arrow_fix = True
        fp = x.fingerprint(fam.refs)
        hit = fam.memo.get((depth, fp))
        if hit is not None:
            return hit
        for k in range(1, depth + 1):
            key = (k, fp)
            if key in fam.memo:
                continue
            g = fam.gcache.get(k)
            if g is None:
                g = self.apply(fam.functional, VFix(fam, k - 1))
                fam.gcache[k] = g
            fam.memo[key] = self.apply(g, x)
        return fam.memo[(depth, fp)]

    # -- ground observation --------------------------------------------------

    def obs(self, v) -> Dist:
        if type(v) is Dist:
            return v
        if v is VBot:
            return ZERO
        if type(v) is VFix:
            return self._ground_fix(v.fam)
        if type(v) is VSum:
            # combinations stay lazy until observed; parts of a
            # ground-typed sum are ground themselves
            out = ZERO
            for c, part in v.parts:
                out = out.plus(self.obs(part).scaled(c))
            return out
        raise PpcfError("arrow-typed value observed at ground type")

    def _ground_fix(self, fam: _FixFam) -> Dist:
        if fam.ground is not None:
            return fam.ground
        u = ZERO
        for _ in range(self.cfg.fix_iters):
            nxt = self.obs(self.apply(fam.functional, u))
            if nxt.sup_diff(u) < self.cfg.tol:
                u = nxt
                break
            u = nxt
        else:
            self.unconverged = True
        fam.ground = u
        return u


# ---------------------------------------------------------------------------
# drivers

def _ladder_depths(cfg: SemConfig):
    # pure doublings, so ladder increments are comparable rung to rung
    d = 8
    if d > cfg.fix_iters:
        yield max(1, cfg.fix_iters)
        return
    while d <= cfg.fix_iters:
        yield d
        d *= 2


def ground_denot(t: Term, env: Optional[Mapping] = None,
                 cfg: SemConfig = DEFAULT_CONFIG) -> GroundResult:
    """Observation of a ground-typed term, driving applied fixpoints up
    the depth ladder until the observation stabilises."""
    env = dict(env) if env else {}
    history: list[Dist] = []
    prev: Optional[Dist] = None
    for depth in _ladder_depths(cfg):
        ev = _Eval(cfg, depth)
        dist = ev.obs(ev.eval(t, env))
        history.append(dist)
        if not ev.used_arrow_fix:
            return GroundResult(dist, not ev.unconverged, depth,
                                tuple(history))
        if prev is not None and dist.sup_diff(prev) < cfg.tol \
                and not ev.unconverged:
            return GroundResult(dist, True, depth, tuple(history))
        prev = dist
    return GroundResult(dist, False, depth, tuple(history))


def denot(t: Term, env: Optional[Mapping] = None,
          cfg: SemConfig = DEFAULT_CONFIG):
    """Denotation of a term under an environment of semantic values.

    Ground-typed terms give a Dist via the stabilised ladder; other
    terms give a function value at the full unrolling budget.
    """
    ty = typecheck(t, _env_types(env))
    if type(ty) is Nat:
        return ground_denot(t, env, cfg).dist
    ev = _Eval(cfg, cfg.fix_iters)
    return ev.eval(t, dict(env) if env else {})


def _env_types(env: Optional[Mapping]) -> dict:
    # values in an environment are ground vectors unless built by hand;
    # typecheck only needs *some* consistent typing, and ground covers
    # every environment this package constructs itself.
    from .syntax import NAT
    return {name: NAT for name in (env or {})}


def prob_zero(t: Term, cfg: SemConfig = DEFAULT_CONFIG,
              env: Optional[Mapping] = None) -> float:
    """Convergence probability: coordinate 0 of the denotation."""
    return sval(ground_denot(t, env, cfg).dist.mass0())


def spy_denot(t: Term,
              rates: Optional[Mapping[str, object]] = None,
              seed_labels: Optional[set] = None,
              cfg: SemConfig = DEFAULT_CONFIG) -> GroundResult:
    """Denotation of spy(t) with each spy variable bound to its rate
    times the point mass at 0.  Labels in seed_labels carry a dual
    partial, so the result differentiates in their rates."""
    varmap = default_spy_vars(t)
    spied = spy(t, varmap)
    if seed_labels is None:
        seed_labels = set(varmap)
    env = {}
    for label, name in varmap.items():
        r = 1.0 if rates is None else float(rates.get(label, 1.0)) \
            if isinstance(rates, Mapping) else float(rates)
        if not (0.0 <= r <= 1.0):
            raise PpcfError(f"rate for {label!r} must lie in [0,1], got {r}")
        c: Scalar = Dual(r, {label: 1.0}) if label in seed_labels else r
        env[name] = Dist({0: c} if not _szero(c) else {})
    return ground_denot(spied, env, cfg)


def expected_count(t: Term, label: str,
                   cfg: SemConfig = DEFAULT_CONFIG) -> ExpectedCount:
    """Expected uses of a mark among converging runs, by semantic
    differentiation at gate rate 1.

    The raw value is the derivative of the convergence mass in the
    label's rate; dividing by the convergence probability of the
    stripped program conditions on convergence.  A derivative that
    keeps growing along the unrolling ladder, or crosses the
    divergence threshold, is reported as DIVERGES.
    """
    res = spy_denot(t, None, {label}, cfg)
    raw_scalar = res.dist.mass0()
    raw = sparts(raw_scalar).get(label, 0.0)
    p_conv = prob_zero(strip(t), cfg)

    if abs(raw) > cfg.divergence_threshold:
        return ExpectedCount(label, DIVERGES, None, None, p_conv, False)
    if not res.converged and _partial_growing(res.history, label):
        return ExpectedCount(label, DIVERGES, None, None, p_conv, False)
    if p_conv <= 0.0:
        return ExpectedCount(label, UNDEFINED, raw, None, p_conv,
                             res.converged)
    return ExpectedCount(label, OK, raw, raw / p_conv, p_conv,
                         res.converged)


def _partial_growing(history: tuple, label: str) -> bool:
    """Are the ladder increments of the partial failing to contract?"""
    partials = [sparts(d.mass0()).get(label, 0.0) for d in history]
    if len(partials) < 3:
        return True     # nothing to certify contraction with
    d1 = abs(partials[-1] - partials[-2])
    d2 = abs(partials[-2] - partials[-3])
    return d1 >= d2 * 0.999 and d1 > 0.0


def finite_difference_check(t: Term, label: str, h: float,
                            cfg: SemConfig = DEFAULT_CONFIG) -> FdCheck:
    """Dual partial at rate 1-h against a central difference of step h.

    The difference quotient carries an O(h^2) truncation error, which
    is the contract this check exists to witness.
    """
    if not (0.0 < h < 0.5):
        raise PpcfError(f"step must lie in (0, 1/2), got {h}")
    at = 1.0 - h

    def f(r: float) -> float:
        return sval(spy_denot(t, {label: r}, set(), cfg).dist.mass0())

    dual = sparts(
        spy_denot(t, {label: at}, {label}, cfg).dist.mass0()
    ).get(label, 0.0)
    central = (f(at + h) - f(at - h)) / (2.0 * h)
    return FdCheck(label, h, at, dual, central)
