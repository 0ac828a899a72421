"""Stack machine over explicit choice sequences.

A state is a closed focus term together with a stack of evaluation
frames.  All randomness is externalised: every ``dice(r)`` consumes one
bit from a choice sequence, contributing a factor ``r`` when the bit is
0 (the coin shows 0) and ``1 - r`` when the bit is 1.  A run *accepts*
when it ends in numeral 0 on an empty stack with the whole sequence
consumed; its weight is the product of the factors along the way, an
exact rational.  ``mark[l] M`` steps to ``M`` while bumping the count
of label ``l``.

On top of the single-run evaluator this module provides exhaustive
enumeration of choice prefixes (exact converged and open masses),
Monte Carlo sampling, and a conditional mean estimator for label
counts among converged runs.

A run is cut as a provable cycle when a state is the one two steps
before it: the same focus object on the same stack object.  The
canonical divergent term ``fix (\\x. x)`` loops this way, since popping
a frame gives back the very stack object below it.  The check keeps
the two previous focus and stack objects alive and compares them with
``is``, so a freed object's reused address cannot fake a repeat.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from .syntax import (
    NAT, App, Arrow, Dice, Fix, Ifz, Lam, Let, Mark, Num, Pred, PpcfError,
    PpcfTypeError, Succ, Term, Type, Var, num, subst, typecheck,
)

__all__ = [
    "ArgFrame", "SuccFrame", "PredFrame", "IfzFrame", "LetFrame", "Frame",
    "State", "PathRecord", "EnumerationResult", "SampleRecord",
    "CountEstimate", "init_state", "state_type", "run", "sample",
    "enumerate_paths", "estimate_conditional_count", "split_seed",
    "DEFAULT_MAX_STEPS", "DEFAULT_MAX_CHOICES",
]

DEFAULT_MAX_STEPS = 10 ** 6
DEFAULT_MAX_CHOICES = 64


@dataclass(frozen=True, slots=True)
class ArgFrame:
    term: Term


@dataclass(frozen=True, slots=True)
class SuccFrame:
    pass


@dataclass(frozen=True, slots=True)
class PredFrame:
    pass


@dataclass(frozen=True, slots=True)
class IfzFrame:
    zero: Term
    pos: Term


@dataclass(frozen=True, slots=True)
class LetFrame:
    name: str
    body: Term


Frame = Union[ArgFrame, SuccFrame, PredFrame, IfzFrame, LetFrame]

_SUCC = SuccFrame()
_PRED = PredFrame()


@dataclass(frozen=True)
class State:
    focus: Term
    frames: tuple[Frame, ...] = ()      # top of stack first


def init_state(t: Term) -> State:
    return State(t, ())


def state_type(state: State) -> Type:
    """Observation type of a state; checks every frame against the focus.

    Acceptance is only possible for states whose observation type is nat.
    """
    ty = typecheck(state.focus)
    for fr in state.frames:
        cls = type(fr)
        if cls is ArgFrame:
            if type(ty) is not Arrow:
                raise PpcfTypeError(f"argument frame over type {ty}")
            if typecheck(fr.term) != ty.dom:
                raise PpcfTypeError("argument frame operand type mismatch")
            ty = ty.cod
        elif cls is SuccFrame or cls is PredFrame:
            if ty != NAT:
                raise PpcfTypeError(f"succ/pred frame over type {ty}")
        elif cls is IfzFrame:
            if ty != NAT:
                raise PpcfTypeError(f"ifz frame over type {ty}")
            zero = typecheck(fr.zero)
            if zero != typecheck(fr.pos):
                raise PpcfTypeError("ifz frame branches disagree")
            ty = zero
        elif cls is LetFrame:
            if ty != NAT:
                raise PpcfTypeError(f"let frame over type {ty}")
            ty = typecheck(fr.body, {fr.name: NAT})
        else:
            raise PpcfTypeError(f"not a frame: {fr!r}")
    return ty


@dataclass(frozen=True)
class PathRecord:
    choices: str                 # bits, in consumption order
    weight: Fraction
    labels: dict[str, int]
    steps: int


@dataclass(frozen=True)
class EnumerationResult:
    paths: list[PathRecord]
    converged_mass: Fraction
    open_mass: Fraction
    rejected_mass: Fraction      # runs ending in a nonzero numeral
    diverged_mass: Fraction      # runs caught in a provable cycle
    max_steps: int
    max_choices: int


@dataclass(frozen=True)
class SampleRecord:
    converged: bool
    value: Optional[int]         # final numeral if the run terminated
    labels: dict[str, int]
    steps: int


@dataclass(frozen=True)
class CountEstimate:
    label: str
    n: int
    n_converged: int
    p_conv: float
    mean: Optional[float]        # conditional on convergence
    stderr: Optional[float]
    seed: int
    max_steps: int


# ---------------------------------------------------------------------------
# core stepping

_TWO53 = 1 << 53


class _SubstCache:
    """Per-run memo of substitutions, frames and coin thresholds.

    Machine runs substitute the same (body, name, argument) triple over
    and over (every fix unrolling, every beta with a shared argument
    node), push the same frame for the same ``App``, ``Ifz``, ``Fix`` or
    ``Let`` node (frames are immutable, so one per node serves), and
    flip coins of the same rate object.  All three tables are keyed by
    object identity; keeping strong references to the keyed objects
    pins their ids.
    """

    __slots__ = ("table", "frames", "coins", "pinned")

    def __init__(self) -> None:
        self.table: dict[tuple[int, str, int], tuple] = {}
        self.frames: dict[int, Frame] = {}      # id(node) -> its frame
        self.coins: dict[int, float] = {}       # id(rate) -> threshold
        self.pinned: list = []                  # keys of frames and coins

    def subst(self, t: Term, name: str, s: Term) -> Term:
        key = (id(t), name, id(s))
        hit = self.table.get(key)
        if hit is not None:
            return hit[2]
        r = subst(t, name, s)
        self.table[key] = (t, s, r)
        return r

    def frame(self, t: Term) -> Frame:
        """The frame pushed when stepping into t's first subterm."""
        cls = type(t)
        if cls is App:
            fr = ArgFrame(t.arg)
        elif cls is Ifz:
            fr = IfzFrame(t.zero, t.pos)
        elif cls is Fix:
            fr = ArgFrame(t)
        else:
            fr = LetFrame(t.name, t.body)
        self.frames[id(t)] = fr
        self.pinned.append(t)
        return fr

    def threshold(self, r: Fraction) -> float:
        """The float ``c / 2**53`` with ``c = ceil(r * 2**53)``.

        ``random.Random.random()`` returns ``k / 2**53`` for an integer
        ``k``, and for integer ``k``, ``k < r * 2**53`` exactly when
        ``k < c``.  Both sides are multiples of ``2**-53`` that a float
        holds exactly (``c <= 2**53`` as ``r <= 1``), so
        ``random() < threshold(r)`` decides ``random() < r`` without
        rational arithmetic.  ``float(r)`` would not: at ``r = 2/3`` it
        rounds down onto a value ``random()`` can return.
        """
        thr = math.ceil(r * _TWO53) / _TWO53
        self.coins[id(r)] = thr
        self.pinned.append(r)
        return thr


# Every outcome of _advance is a 4-tuple (kind, value, stack, steps):
# ("dice", rate, stack, steps) at a coin, ("done", n, None, steps) on a
# numeral over the empty stack, and ("open" | "cycle" | "stuck", None,
# stack, steps) otherwise.
def _advance(focus, stack, labels, steps, max_steps, cache, on_state=None):
    """Run deterministically until a coin, a terminal, or the budget."""
    sub = cache.subst
    frames = cache.frames
    frame = cache.frame
    f1 = s1 = f2 = s2 = None        # the two previous states
    while True:
        if on_state is not None:
            on_state(focus, stack)
        if focus is f2 and stack is s2:
            return ("cycle", None, stack, steps)
        f2 = f1
        s2 = s1
        f1 = focus
        s1 = stack

        cls = type(focus)
        if cls is Num:
            if stack is None:
                return ("done", focus.n, None, steps)
            fr, stack = stack
            fcls = type(fr)
            if fcls is IfzFrame:
                focus = fr.zero if focus.n == 0 else fr.pos
            elif fcls is ArgFrame:
                return ("stuck", None, stack, steps)
            elif fcls is SuccFrame:
                focus = num(focus.n + 1)
            elif fcls is PredFrame:
                focus = num(focus.n - 1 if focus.n else 0)
            else:  # LetFrame
                focus = sub(fr.body, fr.name, focus)
        elif cls is App:
            stack = (frames.get(id(focus)) or frame(focus), stack)
            focus = focus.fun
        elif cls is Lam:
            if stack is None:
                return ("stuck", None, None, steps)
            fr, stack = stack
            if type(fr) is not ArgFrame:
                return ("stuck", None, stack, steps)
            focus = sub(focus.body, focus.name, fr.term)
        elif cls is Ifz:
            stack = (frames.get(id(focus)) or frame(focus), stack)
            focus = focus.scrut
        elif cls is Fix:
            stack = (frames.get(id(focus)) or frame(focus), stack)
            focus = focus.arg
        elif cls is Dice:
            return ("dice", focus.rate, stack, steps)
        elif cls is Succ:
            stack = (_SUCC, stack)
            focus = focus.arg
        elif cls is Pred:
            stack = (_PRED, stack)
            focus = focus.arg
        elif cls is Let:
            stack = (frames.get(id(focus)) or frame(focus), stack)
            focus = focus.bound
        elif cls is Mark:
            labels[focus.label] = labels.get(focus.label, 0) + 1
            focus = focus.body
        elif cls is Var:
            raise PpcfError(f"free variable {focus.name!r} reached; "
                            "machine states must be closed")
        else:
            raise PpcfError(f"not a term: {focus!r}")

        steps += 1
        if steps >= max_steps:
            return ("open", None, stack, steps)


def _link(frames: Sequence[Frame]):
    stack = None
    for fr in reversed(frames):
        stack = (fr, stack)
    return stack


def _check_budget(max_steps: int, max_choices: int = 0) -> None:
    if max_steps < 1:
        raise PpcfError(f"max_steps must be >= 1, got {max_steps}")
    if max_choices < 0:
        raise PpcfError(f"max_choices must be >= 0, got {max_choices}")


def _bits(choices: Union[str, Sequence[int]]) -> list[int]:
    out = []
    for c in choices:
        b = int(c)
        if b not in (0, 1):
            raise PpcfError(f"choice bits must be 0 or 1, got {c!r}")
        out.append(b)
    return out


# ---------------------------------------------------------------------------
# public drivers

def run(state: State,
        choices: Union[str, Sequence[int]],
        max_steps: int = DEFAULT_MAX_STEPS,
        on_state=None) -> Optional[PathRecord]:
    """Deterministic run on an explicit choice sequence.

    Returns the accepting PathRecord, or None when the run rejects:
    sequence too short or not fully consumed, terminal numeral nonzero,
    provable cycle, or step budget exhausted.
    """
    _check_budget(max_steps)
    bits = _bits(choices)
    cache = _SubstCache()
    labels: dict[str, int] = {}
    focus, stack = state.focus, _link(state.frames)
    weight = Fraction(1)
    steps = 0
    pos = 0
    while True:
        kind, val, stack, steps = _advance(
            focus, stack, labels, steps, max_steps, cache, on_state)
        if kind == "dice":
            if pos >= len(bits):
                return None
            b = bits[pos]
            pos += 1
            weight *= val if b == 0 else 1 - val
            focus = num(b)
            steps += 1
            if steps >= max_steps:
                return None
        elif kind == "done":
            if val == 0 and pos == len(bits):
                return PathRecord("".join(map(str, bits)), weight,
                                  labels, steps)
            return None
        else:  # open, cycle, stuck
            return None


def sample(state: State,
           seed: int,
           max_steps: int = DEFAULT_MAX_STEPS) -> SampleRecord:
    """One probabilistic run, drawing a bit at every coin."""
    _check_budget(max_steps)
    rng = random.Random(seed)
    cache = _SubstCache()
    return _sample(state, rng, max_steps, cache)


def _sample(state, rng, max_steps, cache) -> SampleRecord:
    labels: dict[str, int] = {}
    focus, stack = state.focus, _link(state.frames)
    steps = 0
    coins = cache.coins
    zero, one = num(0), num(1)
    while True:
        kind, val, stack, steps = _advance(
            focus, stack, labels, steps, max_steps, cache)
        if kind == "dice":
            thr = coins.get(id(val))
            if thr is None:
                thr = cache.threshold(val)
            focus = zero if rng.random() < thr else one
            steps += 1
            if steps >= max_steps:
                return SampleRecord(False, None, labels, steps)
        elif kind == "done":
            return SampleRecord(val == 0, val, labels, steps)
        else:
            return SampleRecord(False, None, labels, steps)


def enumerate_paths(state: State,
                    max_steps: int = DEFAULT_MAX_STEPS,
                    max_choices: int = DEFAULT_MAX_CHOICES
                    ) -> EnumerationResult:
    """Exact DFS over choice prefixes.

    Weights are exact rationals.  Mass of runs cut by either budget is
    reported as open (an upper-bound residue), mass ending in a nonzero
    numeral as rejected, and mass caught in a provable cycle (the
    canonical divergent term loops in two steps) as diverged.  Branches
    of probability zero are not explored.
    """
    _check_budget(max_steps, max_choices)
    cache = _SubstCache()
    converged = Fraction(0)
    open_ = Fraction(0)
    rejected = Fraction(0)
    diverged = Fraction(0)
    paths: list[PathRecord] = []
    todo = [(state.focus, _link(state.frames), Fraction(1), {}, "", 0)]
    while todo:
        focus, stack, weight, labels, bits, steps = todo.pop()
        kind, val, stack, steps = _advance(
            focus, stack, labels, steps, max_steps, cache)
        if kind == "dice":
            if len(bits) >= max_choices:
                open_ += weight
                continue
            steps += 1
            if steps >= max_steps:
                open_ += weight
                continue
            if val != 1:
                todo.append((num(1), stack, weight * (1 - val),
                             dict(labels), bits + "1", steps))
            if val != 0:
                todo.append((num(0), stack, weight * val,
                             labels, bits + "0", steps))
        elif kind == "done":
            if val == 0:
                converged += weight
                paths.append(PathRecord(bits, weight, labels, steps))
            else:
                rejected += weight
        elif kind == "open":
            open_ += weight
        elif kind == "cycle":
            diverged += weight
        else:  # stuck: arrow-typed terminal, cannot accept
            rejected += weight
    return EnumerationResult(paths, converged, open_, rejected, diverged,
                             max_steps, max_choices)


_MIX = 0x9E3779B97F4A7C15


def split_seed(seed: int, index: int) -> int:
    """Deterministic per-trial seed, independent of scheduling order."""
    x = (seed * 0x2545F4914F6CDD1D + index * _MIX + 0xD1B54A32D192ED03)
    x &= (1 << 64) - 1
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & ((1 << 64) - 1)
    x ^= x >> 29
    return x


def estimate_conditional_count(t: Term,
                               label: str,
                               n: int,
                               max_steps: int = DEFAULT_MAX_STEPS,
                               seed: int = 0) -> CountEstimate:
    """Monte Carlo mean of a label count among converged runs of t."""
    if n <= 0:
        raise PpcfError("need at least one sample")
    _check_budget(max_steps)
    state = init_state(t)
    cache = _SubstCache()
    counts: list[int] = []
    for i in range(n):
        rng = random.Random(split_seed(seed, i))
        rec = _sample(state, rng, max_steps, cache)
        if rec.converged:
            counts.append(rec.labels.get(label, 0))
    k = len(counts)
    if k == 0:
        return CountEstimate(label, n, 0, 0.0, None, None, seed, max_steps)
    mean = sum(counts) / k
    if k > 1:
        var = sum((c - mean) ** 2 for c in counts) / (k - 1)
        stderr = math.sqrt(var / k)
    else:
        stderr = None
    return CountEstimate(label, n, k, k / n, mean, stderr, seed, max_steps)
