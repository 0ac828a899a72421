"""How the evaluator solves fix nodes: one ``Family`` per evaluation of
a fix node, which is a table or an unrolling.

*Tables.*  Tables are chosen by type.  A fix whose recursive variable
is annotated ``nat -> nat`` is a table: each ground argument the program
calls it with, keyed by ``Dist.fingerprint``, maps to the fixpoint's
value there.  A fix that is observed is ground, whatever its functional,
and is a table with the one key None.  In the PCS model a ``nat -> nat``
map is a power series, so the table is a monotone polynomial system
u = F(u), where F evaluates the functional at an argument with the
table standing for the recursive variable (at None, with the entry's
current value standing for it).  A call with a new argument
starts a solve, in three stages.

1. Discovery.  A worklist evaluates F at each new argument, with the
   current values for the entries it reads and 0 for a miss; the miss
   becomes a new entry, evaluated next.  Each read is an edge, and an
   entry whose support (its nonzero coordinates) grows sends its readers
   back onto the worklist.  All coefficients are nonnegative, so the
   support of F(u) depends only on the support of u, and discovery ends
   with the support of the least fixpoint and every argument it calls.
   Its values are thrown away.
2. Components.  The strongly connected components of the read graph are
   solved callees first, so a component reads only itself and solved
   entries.  One without a self-loop is evaluated once.
3. Newton.  A recursive component gets Newton steps from u = 0 over its
   support coordinates.  One evaluation, with coordinate j seeded as
   ``Dual(u_j, {private_j: 1})``, gives F(u), the Jacobian J (the private
   partials) and dF/dk for every outside key k.  The step solves
   (I - J) s = F(u) - u by elimination.  From 0 each Newton iterate of a
   monotone system stays below the least fixpoint and above the Kleene
   step F(u) (Etessami and Yannakakis, JACM 2009; Esparza, Kiefer and
   Luttenberger, JACM 2010).  So the step taken is the larger of the two
   in each coordinate, never negative.  Below the least fixpoint I - J
   is a nonsingular M-matrix, so its pivots are positive.  Residuals at
   rounding level count as 0 (``_ROUNDING``).  Solving stops when the
   step is below ``tol``, or after ``fix_iters`` steps with the
   evaluation marked unconverged.

At the solution every outside partial is the implicit-function
derivative du/dk = (I - J)^-1 dF/dk, from one more elimination.  These
partials carry label rates and the seeds of enclosing tables.  When a
pivot of that I - J is below ``PIVOT_MARGIN`` the fixpoint is critical.
Newton there converges only linearly, and float cancellation stops it
about sqrt(eps) short of the fixpoint, so the evaluation is marked
unconverged, and each outside key the component depends on is marked
diverging.  So is every key of a component whose own seeds were marked
by a table it calls.

A solve gives up on what actually drifts or does not fit a finite
system: an argument or an edge discovery did not see (the arguments
move with the values being solved, as in ``f (f x)``), a value outside
the support discovery found (as when its values underflowed to 0),
more than ``_TABLE_CAP`` arguments, a recursive component of more than
``_COMPONENT_CAP`` coordinates, or a ``PrecisionError`` on an argument
(discovery follows arguments however unlikely).  The table then
unrolls, and its fix node unrolls for the rest of the ladder, so a
failed discovery is paid for once.

*Unrolling.*  Every other family (of higher type, or a table that gave
up) is applied at the evaluator's depth d: ``VFix(fam, d)`` applies the
functional d times to bottom, with one memo per (depth, argument), and
``ground_denot`` climbs a ladder of depths.  An argument keyed by its
identity (a closure, or a table passed as a value) keys its memo entry
only within one table entry evaluation, counted by ``_Eval.entries``:
a table under solve keeps its identity while its values move.

``semantics`` loads this module on a program's first fix, so importing
the package does not compile it.
"""

from __future__ import annotations

import math
import sys

from .semantics import (
    VBot, VFix, ZERO, Dist, Dual, PrecisionError, Scalar, _szero, sparts,
    sval,
)
from .syntax import NAT, Arrow, Fix, Lam

# I - J counts as singular when a pivot of its elimination falls below
# this.  At a critical fixpoint the smallest pivot shrinks with the
# Newton gap, and float cancellation stops both near sqrt(eps): mq(1/2)
# stops with pivot 2**-24, about 6e-8.  The margin is the fourth root of
# eps, halfway between that floor and 1 on a log scale.  mq(49/100),
# whose conditional count is 51, has pivot 0.02.
PIVOT_MARGIN = sys.float_info.epsilon ** 0.25

# A residual F(u) - u within 16 ulps of F(u) is rounding, not progress.
# F takes a handful of float operations per coordinate, so a residual
# above this is known to better than half its size; at a critical
# fixpoint a Newton step is half the gap, so such a step cannot cross
# the fixpoint.
_ROUNDING = 16 * sys.float_info.epsilon

# A table that finds more arguments than this in one solve falls back
# to the ladder: arguments that drift without repeating (a random walk
# over the numerals, say) have no finite table.
_TABLE_CAP = 4096

# A recursive component with more coordinates than this falls back too:
# its elimination is dense and cubic, 0.04 s at 128 coordinates and
# 0.3 s at 256 on a 2-vCPU host, and Newton runs one per step.  The
# table cap cannot serve: a table of thousands of entries, each its own
# component, is solved in linear time.
_COMPONENT_CAP = 128

_NAT_TO_NAT = Arrow(NAT, NAT)


class Family:
    """One evaluation of a fix node: its table or its unrolling caches.

    An evaluator makes one family per closed fix node and reuses it at
    every visit (see the ``semantics`` docstring); an open fix node gets
    a fresh family each time, since its functional depends on the
    environment.
    """

    __slots__ = ("functional", "node", "keyed", "memo", "gcache", "refs",
                 "table", "sess", "body")

    def __init__(self, functional, node: Fix, table: bool):
        self.functional = functional
        self.node = id(node)       # recorded in ev.untabled on give-up
        # a table over ground arguments; a fix of any other type is a
        # table only when observed, which makes it ground
        self.keyed = type(node.arg) is Lam and node.arg.ty == _NAT_TO_NAT
        self.memo: dict = {}       # (depth, arg fingerprint) -> value
        self.gcache: dict = {}     # depth -> unrolled functional value
        self.refs: list = []       # pins identity-fingerprinted args
        # arg fingerprint -> solved value; None once the family unrolls
        self.table = {} if table else None
        self.sess = None           # the Session under way
        self.body = None           # the functional applied to the family

    def apply(self, ev, f: VFix, x):
        """f, whose family this is, applied to x by evaluator ev; with x
        None, the observation of a ground fixpoint."""
        if self.table is None or (x is not None and not self.keyed):
            return self.unroll(ev, f.depth, x)
        if x is not None:
            x = ev.obs(x)
        fp = None if x is None else x.fingerprint()
        hit = self.table.get(fp)
        if hit is not None:
            return hit
        if self.sess is not None:
            return self.sess.read(fp, x)
        return solve(ev, f, fp, x)

    def unroll(self, ev, depth: int, x):
        if depth <= 0:
            return VBot
        ev.unrolled = True
        pinned = len(self.refs)
        fp = None if x is None else x.fingerprint(self.refs)
        if len(self.refs) > pinned:
            # an identity key may stand for a table under solve, whose
            # values move between its entry evaluations
            fp = (ev.entries, fp)
        hit = self.memo.get((depth, fp))
        if hit is not None:
            return hit
        for k in range(1, depth + 1):
            key = (k, fp)
            if key in self.memo:
                continue
            g = self.gcache.get(k)
            if g is None:
                g = ev.apply(self.functional, VFix(self, k - 1))
                self.gcache[k] = g
            self.memo[key] = ev.obs(g) if x is None else ev.apply(g, x)
        return self.memo[(depth, fp)]


class Session:
    """One solve of a table: the entries found so far, with their
    current values and supports, and who read whom."""

    __slots__ = ("index", "args", "vals", "supp", "reads", "readers",
                 "todo", "cur", "live", "failed")

    def __init__(self):
        self.index: dict = {}      # arg fingerprint -> entry number
        self.args: list = []
        self.vals: list = []       # current value of each entry
        self.supp: list = []       # its nonzero coordinates, -1 overflow
        self.reads: list = []      # entries each entry's evaluation read
        self.readers: list = []    # the same edges, reversed
        # discovery worklist; the newest entry, most likely a callee of
        # the others, goes first
        self.todo: set = set()
        self.cur = -1              # entry under evaluation in discovery
        self.live = None           # entries a component may read
        self.failed = False        # give up the table for the ladder

    def read(self, fp, x: Dist | None) -> Dist:
        i = self.index.get(fp)
        if self.live is None:
            if i is None:
                if len(self.args) >= _TABLE_CAP:
                    self.failed = True
                    return ZERO
                i = self.index[fp] = len(self.args)
                self.args.append(x)
                self.vals.append(ZERO)
                self.supp.append(frozenset())
                self.reads.append(set())
                self.readers.append(set())
                self.todo.add(i)
            if self.cur >= 0:
                self.reads[self.cur].add(i)
                self.readers[i].add(self.cur)
        elif i not in self.live:
            # a key or an edge discovery did not see: the arguments
            # move with the values being solved
            self.failed = True
            return ZERO
        return self.vals[i]


def solve(ev, f: VFix, fp, x: Dist | None):
    """The value of table f at argument x, whose fingerprint fp it does
    not hold yet; see the module docstring.  ``ev`` is the evaluator."""
    fam = f.fam
    s = fam.sess = Session()
    try:
        _discover_and_solve(ev, f, s, fp, x)
    except PrecisionError:
        # discovery follows every argument however unlikely its call,
        # and one whose overflow mass pred or let cannot split stops it;
        # a rung of the ladder unrolls only as deep as the rung
        s.failed = True
    finally:
        fam.sess = None
    if s.failed:
        fam.table = None
        ev.untabled.add(fam.node)
        return fam.unroll(ev, f.depth, x)
    return fam.table[fp]


def _discover_and_solve(ev, f: VFix, s: Session, fp,
                        x: Dist | None) -> None:
    fam = f.fam
    s.read(fp, x)
    while s.todo and not s.failed:
        i = max(s.todo)
        s.todo.remove(i)
        s.cur = i
        s.vals[i] = val = _entry(ev, f, s.args[i])
        s.cur = -1
        supp = _support(val)
        if supp != s.supp[i]:
            s.supp[i] = supp
            s.todo |= s.readers[i]
    fps = list(s.index)
    for comp in [] if s.failed else _components(s.reads):
        i = comp[0]
        if len(comp) == 1 and i not in s.reads[i]:
            s.live = ()
            solved = {i: _entry(ev, f, s.args[i])}
        else:
            solved = _newton(ev, f, s, comp)
        if s.failed:
            break
        for i, val in solved.items():
            fam.table[fps[i]] = val


def _entry(ev, f: VFix, x: Dist | None) -> Dist:
    """F at argument x, reading the table through f; a ground entry
    binds its variable to its current value."""
    fam = f.fam
    ev.entries += 1
    if x is None:
        return ev.obs(ev.apply(fam.functional, fam.apply(ev, f, None)))
    if fam.body is None:
        fam.body = ev.apply(fam.functional, f)
    return ev.obs(ev.apply(fam.body, x))


def _newton(ev, f: VFix, s: Session, comp: list) -> dict:
    """Newton's method on one recursive component, then its
    implicit-function derivatives."""
    cfg = ev.cfg
    pos: dict = {}        # (entry, numeral) -> coordinate
    for i in comp:
        for n in sorted(s.supp[i]):
            pos[(i, n)] = len(pos)
    m = len(pos)
    if m > _COMPONENT_CAP:
        s.failed = True
        return {}
    # private to this solve; '#' cannot occur in a label
    tag = f"#{next(ev.solves)}."
    names = [f"{tag}{j}" for j in range(m)]
    column = {name: j for j, name in enumerate(names)}
    s.live = frozenset(comp)
    u = [0.0] * m
    steps = 0
    while True:
        for i in comp:
            s.vals[i] = _entry_dist(
                s.supp[i], pos, i, lambda j: Dual(u[j], {names[j]: 1.0}))
        fu = [0.0] * m
        jac = [[0.0] * m for _ in range(m)]
        outer: dict = {}      # outside key -> column of dF/dk
        for i in comp:
            val = _entry(ev, f, s.args[i])
            if s.failed:
                return {}
            for n, c in [*val.coords.items(), (-1, val.overflow)]:
                j = pos.get((i, n))
                if j is None:
                    if not _szero(c):       # outside the support
                        s.failed = True
                        return {}
                    continue
                fu[j] = sval(c)
                for k, d in sparts(c).items():
                    h = column.get(k)
                    if h is not None:
                        jac[j][h] = d
                    else:
                        outer.setdefault(k, [0.0] * m)[j] = d
        kleene = [r if r > _ROUNDING * abs(y) else 0.0
                  for r, y in ((y - x, y) for x, y in zip(u, fu))]
        newton = list(kleene)
        _eliminate(_i_minus(jac), [newton])
        step = [max(a, b) for a, b in zip(newton, kleene)]
        if max(step, default=0.0) < cfg.tol:
            u = [a + b for a, b in zip(u, step)]
            break
        if steps == cfg.fix_iters:
            ev.unconverged = True
            break
        u = [a + b for a, b in zip(u, step)]
        steps += 1
    # implicit-function derivatives at the last evaluation
    sol = {k: list(col) for k, col in outer.items()}
    least = _eliminate(_i_minus(jac), list(sol.values()))
    if least < PIVOT_MARGIN:
        ev.unconverged = True
    if least < PIVOT_MARGIN or not ev.diverging.isdisjoint(names):
        ev.diverging.update(k for k, col in outer.items() if any(col))

    def scalar(j):
        d = {k: col[j] for k, col in sol.items()}
        return Dual(u[j], d) if d else u[j]
    return {i: _entry_dist(s.supp[i], pos, i, scalar) for i in comp}


def _support(d: Dist) -> frozenset:
    out = [n for n, c in d.coords.items() if not _szero(c)]
    if not _szero(d.overflow):
        out.append(-1)
    return frozenset(out)


def _entry_dist(supp, pos: dict, i: int, scalar) -> Dist:
    """Entry i of a component, coordinate j of it given by scalar(j)."""
    coords: dict[int, Scalar] = {}
    over: Scalar = 0.0
    for n in supp:
        c = scalar(pos[(i, n)])
        if _szero(c):
            continue
        if n < 0:
            over = c
        else:
            coords[n] = c
    return Dist(coords, over)


def _components(reads: list) -> list:
    """Strongly connected components of the read graph, callees first:
    Tarjan's algorithm on an explicit stack."""
    index = [-1] * len(reads)
    low = [0] * len(reads)
    on_stack = [False] * len(reads)
    stack: list = []
    out: list = []
    count = 0
    for root in range(len(reads)):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(reads[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(reads[w])))
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    low[u] = min(low[u], low[v])
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp.append(w)
                        if w == v:
                            break
                    out.append(comp)
    return out


def _i_minus(jac: list) -> list:
    return [[(1.0 if r == c else 0.0) - x for c, x in enumerate(row)]
            for r, row in enumerate(jac)]


def _eliminate(a: list, rhss: list) -> float:
    """Solve a x = b in place for every b in rhss, by elimination
    without row exchanges, and return the smallest pivot.  I - J is a
    nonsingular M-matrix below the least fixpoint, whose pivots are all
    positive; at a critical fixpoint the residual floor stops Newton
    while the smallest is still near sqrt(eps) (see ``PIVOT_MARGIN``)."""
    m = len(a)
    least = math.inf
    for c in range(m):
        p = a[c][c]
        least = min(least, p)
        top = a[c]
        for r in range(c + 1, m):
            f = a[r][c] / p
            if f != 0.0:
                row = a[r]
                for j in range(c + 1, m):
                    row[j] -= f * top[j]
                for b in rhss:
                    b[r] -= f * b[c]
    for c in range(m - 1, -1, -1):
        row = a[c]
        for b in rhss:
            b[c] = (b[c] - sum(row[j] * b[j] for j in range(c + 1, m))) \
                / row[c]
    return least
