"""Denotational semantics on sub-probability coefficient vectors.

A closed program of type nat denotes a sub-probability weighting of the
numerals; coordinate 0 of that vector is exactly the probability that
the machine accepts.  Scalars are either plain floats or forward-mode
dual numbers carrying partial derivatives with respect to named
parameters, so differentiating the semantics in a gate rate costs one
evaluation.  Differentiating at rate 1 recovers the expected number of
times the gated subterm is used among converging runs.

A mark is a gate inside the evaluator.  In the coherence-space model
``ifz x then M else Ω`` with x = r times the point mass at 0 denotes
r times M, so ``mark[l] M`` denotes its label's gate times M: the
label's rate, a dual number when the label is seeded, and 1 when no
rate is given.  These are the float operations that the spy translation
(``ppcf.translate.spy``) bound to r would run, so both give the same
bits; a zero gate does not evaluate its body.

Ground vectors are truncated at ``nmax`` with a lumped overflow bucket:
succ shifts into it, ifz counts it as nonzero, and pred or let refuse
to guess what is inside it (a precision error above ``tol``).

Fixpoints are least fixpoints, reached in one of two ways.

* Tables are chosen by type.  A fix whose recursive variable is
  annotated ``nat -> nat`` is a table: each ground argument the program
  calls it with, keyed by ``Dist.fingerprint``, maps to the fixpoint's
  value there.  A ground fixpoint, whatever its functional, is a table
  with one entry, its observation.  The table is a monotone polynomial
  system u = F(u).  It is solved by Newton's method from 0, one strongly
  connected component at a time, and the derivatives in every outside
  parameter come from the implicit-function theorem at the solution
  (see ``ppcf.fixpoints``).
* Every other fixpoint is unrolled to a finite depth: one of higher
  type, and a table whose solve gives up, as when its arguments drift
  with its values (``f (f x)``) or it grows past a cap (see
  ``ppcf.fixpoints``).  The depth climbs a geometric ladder at the
  top-level observation: evaluate at depth d and 2d and stop once the
  observation is stable.  A rung whose unrolling overflows the Python
  stack ends the ladder, unconverged, at the last rung that finished.

An expected count is reported as divergent when a table it flows
through has an I - J that is singular within ``fixpoints.PIVOT_MARGIN``,
or when it exceeds ``DIVERGENCE_THRESHOLD``.

A closed fix node (one without free variables) is evaluated once per
evaluator: every later visit reuses the same fixpoint family, with its
table, unrolled functionals and argument memo.  This is sound because a
closed term denotes the same value in every environment and an
evaluator's unrolling depth is fixed, so a fresh family would recompute
exactly what the shared one holds.  Without the sharing, a
closed recursive helper called from inside another recursion is solved
again on every outer call.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Collection, Mapping, Optional, Union

from .syntax import (
    App, Dice, Fix, Ifz, Lam, Let, Mark, Nat, Num, Pred, PpcfError,
    Succ, Term, Var, free_vars, labels_of, typecheck,
)

__all__ = [
    "Dual", "Dist", "SemConfig", "GroundResult", "ExpectedCount", "FdCheck",
    "PrecisionError", "Closure", "VBot", "VFix", "VSum",
    "ground_denot", "prob_zero", "expected_count",
    "finite_difference_check", "OK", "DIVERGES", "UNDEFINED",
    "DIVERGENCE_THRESHOLD",
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
    """Settings of one denotation.

    ``nmax`` is the largest numeral a vector holds exactly; the rest
    goes to the overflow bucket.  ``tol`` is the sup-norm change at which
    a Newton solve, and the ladder, count as converged.  ``fix_iters``
    bounds each fixpoint on its own: the Newton steps of a table
    component and the deepest rung of the unrolling ladder.  A fixpoint
    that needs more is reported as not converged.  The bound past which
    an expected count diverges is not a setting but
    ``DIVERGENCE_THRESHOLD``.
    """
    nmax: int = 64
    fix_iters: int = 10_000
    tol: float = 1e-9

    def __post_init__(self):
        # a tolerance of 0 or below never stops a Newton solve, and
        # a numeral range below 1 silently moves all mass into overflow
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise PpcfError(f"tol must be finite and > 0, got {self.tol}")
        if self.nmax < 1:
            raise PpcfError(f"nmax must be >= 1, got {self.nmax}")
        if self.fix_iters < 1:
            raise PpcfError(f"fix_iters must be >= 1, got {self.fix_iters}")


DEFAULT_CONFIG = SemConfig()

# an expected count larger than this is reported as DIVERGES
DIVERGENCE_THRESHOLD = 1e12

OK = "OK"
DIVERGES = "DIVERGES"
UNDEFINED = "UNDEFINED"

@dataclass(frozen=True)
class GroundResult:
    dist: Dist
    converged: bool           # every table and rung hit tol
    depth: int                # last ladder depth; the first rung if none ran
    # partials whose implicit derivative met a singular I - J
    diverging: frozenset = frozenset()


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


@dataclass(frozen=True)
class VFix:
    """A fixpoint value: its family (see ``fixpoints.Family``) and the
    depth it unrolls to when the family is not a table."""
    fam: object
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
    def __init__(self, cfg: SemConfig, depth: int,
                 gates: Optional[Mapping[str, Scalar]] = None,
                 untabled: Optional[set] = None):
        self.cfg = cfg
        self.depth = depth          # unrolling budget for ladder families
        # label -> the scalar its marks scale by; a label without one
        # gates at 1.0
        self.gates = gates if gates is not None else {}
        self.unrolled = False       # did a ladder family run?
        self.unconverged = False
        self.diverging: set = set()  # see GroundResult
        self.solves = itertools.count()  # names the private partials
        # id(Fix node) -> [node, closed?, shared VFix or None]; holding
        # the node keeps its id from being reused
        self.fixes: dict[int, list] = {}
        # table entry evaluations so far: scopes the identity-keyed
        # memos of unrolled families (see ``fixpoints.Family.unroll``)
        self.entries = 0
        # ids of fix nodes whose table gave up: they unroll from then on,
        # at this depth and (the set is shared along a ladder) the next
        self.untabled: set = set() if untabled is None else untabled

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
            # the gate scales the body (see the module docstring)
            c = self.gates.get(t.label, 1.0)
            out = None if _szero(c) else \
                _scale_val(c, self.eval(t.body, env))
            return out if out is not None else VBot
        raise TypeError(f"not a term: {t!r}")

    def _fix(self, t: Fix, env: dict) -> VFix:
        # loaded on a program's first fix, so that importing the package
        # does not compile the fixpoint solvers
        from . import fixpoints
        site = self.fixes.get(id(t))
        if site is None:
            site = self.fixes[id(t)] = [t, not free_vars(t), None]
        if site[2] is not None:
            return site[2]
        v = VFix(fixpoints.Family(self.eval(t.arg, env), t,
                                  id(t) not in self.untabled),
                 self.depth)
        if site[1]:
            site[2] = v
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
            return f.fam.apply(self, f, x)
        raise PpcfError(f"cannot apply a ground value")

    # -- ground observation --------------------------------------------------

    def obs(self, v) -> Dist:
        if type(v) is Dist:
            return v
        if v is VBot:
            return ZERO
        if type(v) is VFix:
            return self.obs(v.fam.apply(self, v, None))
        if type(v) is VSum:
            # combinations stay lazy until observed; parts of a
            # ground-typed sum are ground themselves
            out = ZERO
            for c, part in v.parts:
                out = out.plus(self.obs(part).scaled(c))
            return out
        raise PpcfError("arrow-typed value observed at ground type")


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


def ground_denot(t: Term, cfg: SemConfig = DEFAULT_CONFIG,
                 rates: Optional[Mapping[str, object]] = None,
                 seed_labels: Collection[str] = ()) -> GroundResult:
    """Observation of a closed term of type nat.

    Each mark scales its body by its label's gate: the label's rate in
    ``rates``, or 1 when ``rates`` is None or leaves the label out, so
    without rates marks are transparent.  Labels in ``seed_labels``
    carry a dual partial, so the result differentiates in their rates.
    Tables are solved in place; unrolled fixpoints drive the depth
    ladder until the observation stabilises."""
    ty = typecheck(t)
    if type(ty) is not Nat:
        raise PpcfError(f"only a term of type nat has a ground "
                        f"denotation; this one has type {ty}")
    gates: dict[str, Scalar] = {}
    for label in labels_of(t):
        r = 1.0 if rates is None else float(rates.get(label, 1.0))
        if not (0.0 <= r <= 1.0):
            raise PpcfError(f"rate for {label!r} must lie in [0,1], got {r}")
        gates[label] = Dual(r, {label: 1.0}) if label in seed_labels else r

    prev: Optional[GroundResult] = None
    untabled: set = set()
    for depth in _ladder_depths(cfg):
        ev = _Eval(cfg, depth, gates, untabled)
        try:
            dist = ev.obs(ev.eval(t, {}))
        except RecursionError:
            # a rung deeper than the Python stack ends the ladder at the
            # last rung that finished; failing on the first rung, the
            # input itself nests too deeply
            if prev is None:
                raise
            return replace(prev, converged=False)
        res = GroundResult(dist, not ev.unconverged, depth,
                           frozenset(ev.diverging))
        if not ev.unrolled:
            return res
        if prev is not None and dist.sup_diff(prev.dist) < cfg.tol \
                and not ev.unconverged:
            return res
        prev = res
    return replace(res, converged=False)


def prob_zero(t: Term, cfg: SemConfig = DEFAULT_CONFIG) -> float:
    """Convergence probability: coordinate 0 of the denotation."""
    return sval(ground_denot(t, cfg).dist.mass0())


def expected_count(t: Term, label: str,
                   cfg: SemConfig = DEFAULT_CONFIG) -> ExpectedCount:
    """Expected uses of a mark among converging runs, by semantic
    differentiation at gate rate 1.

    One evaluation, with the label's gate seeded, gives both numbers.
    The raw value is the partial of the convergence mass in the label's
    rate.  The value of that mass is the convergence probability, since
    at rate 1 every gate multiplies by exactly 1.0; dividing by it
    conditions on convergence.  A derivative that passes through a
    singular I - J (see ``fixpoints.PIVOT_MARGIN``), or is not within
    ``DIVERGENCE_THRESHOLD``, is reported as DIVERGES.  A cut budget is
    not divergence: it gives the estimate, unconverged.
    """
    res = ground_denot(t, cfg, seed_labels={label})
    raw = sparts(res.dist.mass0()).get(label, 0.0)
    p_conv = sval(res.dist.mass0())

    if label in res.diverging or not abs(raw) <= DIVERGENCE_THRESHOLD:
        return ExpectedCount(label, DIVERGES, None, None, p_conv, False)
    if p_conv <= 0.0:
        return ExpectedCount(label, UNDEFINED, raw, None, p_conv,
                             res.converged)
    return ExpectedCount(label, OK, raw, raw / p_conv, p_conv,
                         res.converged)


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
        return sval(ground_denot(t, cfg, {label: r}).dist.mass0())

    dual = sparts(
        ground_denot(t, cfg, {label: at}, {label}).dist.mass0()
    ).get(label, 0.0)
    central = (f(at + h) - f(at - h)) / (2.0 * h)
    return FdCheck(label, h, at, dual, central)
