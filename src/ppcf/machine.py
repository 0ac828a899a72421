"""Stack machine over explicit choice sequences.

A state is a closed focus term together with a stack of frame nodes:
each frame is the ``App``, ``Fix``, ``Ifz``, ``Let``, ``Succ`` or
``Pred`` node whose first subterm is being evaluated, so the node
itself says what to do with the value that comes back.  All randomness
is externalised: every ``dice(r)`` consumes one bit from a choice
sequence, contributing a factor ``r`` when the bit is 0 (the coin shows
0) and ``1 - r`` when the bit is 1; the flip is one machine step.  A
run *accepts* when it ends in numeral 0 on an empty stack with the
whole sequence consumed; its weight is the product of the factors along
the way, an exact rational.  ``mark[l] M`` steps to ``M`` while bumping
the count of label ``l``.

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

Between coins the machine is deterministic, and through the start
state's memo its focus and frame nodes repeat by identity, so runs
replay recorded *segments* instead of stepping them.  A segment starts
at a focus over a stack whose top frame (or the empty stack) is its
*key frame*, and is keyed by ``(id(focus), id(key frame))``.  It ends
at a coin, at a terminal (``done``, ``stuck`` or ``cycle``), or at the
first numeral or lambda in focus over ``T``, the stack below the key
frame, since the next step would look into ``T``.  Until then the steps
read only the focus, the key frame and frames the segment pushed, so
every start with the same key steps alike.  A segment records its step
count, its label increments, whether it popped the key frame, the
frames it left pushed and its outcome; a replay applies them in one
go, and one that ends over ``T`` goes on with the next key.  A run
steps (and records) instead when ``on_state`` observes it, when the key
has no segment yet, or when the segment would reach the step budget,
so a cut lands on the step it lands on when stepping.  A state records
at most ``_MAX_SEGMENTS`` segments, so a counter whose numerals keep
growing as they return through its frames cannot grow the table
without bound.

Sampling follows segments as a trace tree (Gal and Franz 2006).  A coin
segment that pushed frames, or kept its key frame, fixes the top frame
it leaves, so for bit ``b`` the key after the coin is ``(id(num(b)),
id(that frame))`` whatever stack it started on: the numeral is interned
and the frame is one the segment holds.  Such a segment carries a slot
``[next0, next1, threshold]`` that links it, per bit, to the segment
recorded under that key.  ``_sample`` replays segments itself, flips
against the slot's exact threshold and takes the next segment from the
slot, looking the key up only while the link is unset.  A segment that
ends elsewhere has no slot, nor has a coin segment that popped its key
frame and pushed nothing, since the frame it leaves on top varies;
after one of those ``_sample`` looks the next key up.  It calls
``_advance`` only when the key has no segment or replay would reach the
budget, so stepping, recording and cuts happen where they did.

The cycle check restarts at each segment start and still finds every
repeat stepping finds.  A push makes a fresh tuple and a pop only gives
back a tail, so every state of a segment sits on ``T`` or on frames
over it; the next segment starts at the first value on ``T`` and its
first step pops ``T``.  A state two steps back therefore never matches
across a boundary: a value on ``T`` earlier in the old segment would
have ended it there, and no state of the old segment sits on the tail
of ``T``.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Optional, Sequence, Union

from .syntax import (
    App, Dice, Fix, Ifz, Lam, Let, Mark, Num, Pred, PpcfError,
    PpcfTypeError, Record, Succ, Term, Type, Var, _set, children, num,
    rebuild, subst, typecheck,
)

__all__ = [
    "State", "PathRecord", "EnumerationResult", "SampleRecord",
    "CountEstimate", "init_state", "state_type", "run", "sample",
    "enumerate_paths", "estimate_conditional_count", "split_seed",
    "DEFAULT_MAX_STEPS", "DEFAULT_MAX_CHOICES",
]

DEFAULT_MAX_STEPS = 10 ** 6
DEFAULT_MAX_CHOICES = 64

_TWO53 = 1 << 53
_MAX_SEGMENTS = 4096        # recorded segments per start state


class _SubstCache:
    """Memo of substitutions and coin thresholds for one start state.

    Machine runs substitute the same (body, name, argument) triple over
    and over (every fix unrolling, every beta with a shared argument
    node) and flip coins of the same rate object, in one run and across
    the runs of one start state, so each ``State`` owns one memo for
    every run, sample and enumeration started from it.  The third table,
    ``segments``, maps ``(id(focus), id(key frame))`` to the segment
    recorded from there (see the module docstring).  All tables are
    keyed by object identity, and each entry keeps strong references to
    the objects its key names (a segment holds its start focus and key
    frame), which pins their ids.  A copied or unpickled state would
    carry ids of objects it does not hold, so the memo pickles and
    deep-copies as an empty one, segments included.  A segment's link
    slot holds the segments it leads to, which pins their keys in turn;
    links add no entries, and the slots go with the segments.
    """

    __slots__ = ("table", "coins", "pinned", "segments")

    def __init__(self) -> None:
        self.table: dict[tuple[int, str, int], tuple] = {}
        self.coins: dict[int, float] = {}       # id(rate) -> threshold
        self.pinned: list = []                  # the rates in coins
        # (id(focus), id(key frame)) -> (focus, key frame, steps,
        # label bumps, popped key frame, frames left pushed, kind, value,
        # link slot or None)
        self.segments: dict[tuple[int, int], tuple] = {}

    def __reduce__(self):
        return (_SubstCache, ())

    def subst(self, t: Term, name: str, s: Term) -> Term:
        key = (id(t), name, id(s))
        hit = self.table.get(key)
        if hit is not None:
            return hit[2]
        r = subst(t, name, s)
        self.table[key] = (t, s, r)
        return r

    def threshold(self, r: Fraction) -> float:
        """The float ``c / 2**53`` with ``c = ceil(r * 2**53)``.

        ``random.Random.random()`` returns ``k / 2**53`` for an integer
        ``k``, and for integer ``k``, ``k < r * 2**53`` exactly when
        ``k < c``.  Both sides are multiples of ``2**-53`` that a float
        holds exactly (``c <= 2**53`` as ``r <= 1``), so
        ``random() < threshold(r)`` decides ``random() < r`` without
        rational arithmetic.  ``float(r)`` would not: at ``r = 2/3`` it
        rounds down onto a value ``random()`` can return.  Memoised per
        rate object.
        """
        thr = self.coins.get(id(r))
        if thr is None:
            thr = self.coins[id(r)] = math.ceil(r * _TWO53) / _TWO53
            self.pinned.append(r)
        return thr


class State(Record):
    """A focus term over a stack of frame nodes, top of stack first.
    ``cache`` is the start state's memo; it is not a field."""

    __slots__ = ("focus", "frames", "cache")
    _fields = ("focus", "frames")

    def __init__(self, focus: Term, frames: tuple[Term, ...] = ()) -> None:
        _set(self, "focus", focus)
        _set(self, "frames", frames)
        _set(self, "cache", _SubstCache())


def init_state(t: Term) -> State:
    return State(t)


def state_type(state: State) -> Type:
    """Observation type of a state: the type of the term obtained by
    putting the focus back into each frame node in turn.

    Acceptance is only possible for states whose observation type is nat.
    """
    t = state.focus
    for fr in state.frames:
        cls = type(fr)
        if cls is Fix:
            t = App(t, fr)
        elif cls in (App, Ifz, Let, Succ, Pred):
            t = rebuild(fr, [t, *(c for c, _ in children(fr)[1:])])
        else:
            raise PpcfTypeError(f"not a frame: {fr!r}")
    return typecheck(t)


class PathRecord(Record):
    __slots__ = ("choices",     # bits, in consumption order
                 "weight", "labels", "steps")


class EnumerationResult(Record):
    __slots__ = ("paths", "converged_mass", "open_mass",
                 "rejected_mass",   # runs ending in a nonzero numeral
                 "diverged_mass",   # runs caught in a provable cycle
                 "max_steps", "max_choices")


class SampleRecord(Record):
    __slots__ = ("converged",
                 "value",       # final numeral if the run ended
                 "labels", "steps")


class CountEstimate(Record):
    __slots__ = ("label", "n", "n_converged", "p_conv",
                 "mean",        # conditional on convergence
                 "stderr", "seed", "max_steps")


# ---------------------------------------------------------------------------
# core stepping

# Every outcome of _advance is a 4-tuple (kind, value, stack, steps):
# ("dice", rate, stack, steps) at a coin, whose flip is already counted
# as a step, ("done", n, None, steps) on a numeral over the empty stack,
# and ("open" | "cycle" | "stuck", None, stack, steps) otherwise.  A
# recorded segment ends in one of these (never "open") or in _NEXT, a
# value over the stack below its key frame, whose value is the focus.
_NEXT = "next"


def _advance(focus, stack, labels, steps, max_steps, cache, on_state=None):
    """Run deterministically until a coin, a terminal, or the budget.

    Each segment is replayed from ``cache.segments`` when it was
    recorded before and fits the budget, and otherwise stepped and
    recorded; see the module docstring.
    """
    sub = cache.subst
    segments = cache.segments
    while True:
        top = None if stack is None else stack[0]
        key = (id(focus), id(top))
        if on_state is None:
            seg = segments.get(key)
            if seg is not None and steps + seg[2] < max_steps:
                _, _, n, bumps, popped, pushed, kind, val, _ = seg
                steps += n
                for l, k in bumps:
                    labels[l] = labels.get(l, 0) + k
                if popped:
                    stack = stack[1]
                for fr in pushed:
                    stack = (fr, stack)
                if kind is _NEXT:
                    focus = val
                    continue
                return (kind, val, stack, steps)

        # step one segment, recording it
        start_focus, start_steps = focus, steps
        depth = 0                   # frames pushed in this segment
        popped = False              # the key frame is gone
        bumps = None                # label -> count, in first-bump order
        f1 = s1 = f2 = s2 = None    # the two previous states
        while True:
            cls = type(focus)
            if popped and not depth and (cls is Num or cls is Lam):
                kind, val = _NEXT, focus    # needs the frame below
                break
            if on_state is not None:
                on_state(focus, stack)
            if focus is f2 and stack is s2:
                kind, val = "cycle", None
                break
            f2 = f1
            s2 = s1
            f1 = focus
            s1 = stack

            if cls is Num or cls is Lam:
                if depth:
                    depth -= 1
                elif stack is None:     # the key: no frame at all
                    kind, val = (("done", focus.n) if cls is Num
                                 else ("stuck", None))
                    break
                else:
                    popped = True
                fr, stack = stack
                fcls = type(fr)
                if cls is Lam:
                    if fcls is App:
                        focus = sub(focus.body, focus.name, fr.arg)
                    elif fcls is Fix:
                        focus = sub(focus.body, focus.name, fr)
                    else:
                        kind, val = "stuck", None
                        break
                elif fcls is Ifz:
                    focus = fr.zero if focus.n == 0 else fr.pos
                elif fcls is Succ:
                    focus = num(focus.n + 1)
                elif fcls is Pred:
                    focus = num(focus.n - 1 if focus.n else 0)
                elif fcls is Let:
                    focus = sub(fr.body, fr.name, focus)
                else:  # App or Fix: a numeral applied to an argument
                    kind, val = "stuck", None
                    break
            elif cls is App:
                stack = (focus, stack)
                depth += 1
                focus = focus.fun
            elif cls is Ifz:
                stack = (focus, stack)
                depth += 1
                focus = focus.scrut
            elif cls is Fix or cls is Succ or cls is Pred:
                stack = (focus, stack)
                depth += 1
                focus = focus.arg
            elif cls is Dice:
                steps += 1
                if steps >= max_steps:
                    kind = "open"
                    break
                kind, val = "dice", focus.rate
                break
            elif cls is Let:
                stack = (focus, stack)
                depth += 1
                focus = focus.bound
            elif cls is Mark:
                if bumps is None:
                    bumps = {}
                bumps[focus.label] = bumps.get(focus.label, 0) + 1
                focus = focus.body
            elif cls is Var:
                raise PpcfError(f"free variable {focus.name!r} reached; "
                                "machine states must be closed")
            else:
                raise PpcfError(f"not a term: {focus!r}")

            steps += 1
            if steps >= max_steps:
                kind = "open"
                break

        bumps = tuple(bumps.items()) if bumps else ()
        for l, k in bumps:
            labels[l] = labels.get(l, 0) + k
        if kind == "open":
            return ("open", None, stack, steps)
        if len(segments) < _MAX_SEGMENTS:
            pushed = []
            s = stack
            for _ in range(depth):
                fr, s = s
                pushed.append(fr)
            pushed.reverse()
            link = None
            if kind == "dice" and (depth or not popped):
                link = [None, None, cache.threshold(val)]
            segments[key] = (start_focus, top, steps - start_steps, bumps,
                             popped, tuple(pushed), kind, val, link)
        if kind is not _NEXT:
            return (kind, val, stack, steps)


def _link(frames: Sequence[Term]):
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
    labels: dict[str, int] = {}
    focus, stack = state.focus, _link(state.frames)
    weight = Fraction(1)
    steps = 0
    pos = 0
    while True:
        kind, val, stack, steps = _advance(
            focus, stack, labels, steps, max_steps, state.cache, on_state)
        if kind == "dice":
            if pos >= len(bits):
                return None
            b = bits[pos]
            pos += 1
            weight *= val if b == 0 else 1 - val
            focus = num(b)
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
    return _sample(state, random.Random(seed), max_steps)


def _sample(state, rng, max_steps) -> SampleRecord:
    labels: dict[str, int] = {}
    focus, stack = state.focus, _link(state.frames)
    steps = 0
    cache = state.cache
    segments = cache.segments
    bits = (num(0), num(1))
    seg = segments.get((id(focus), id(None if stack is None else stack[0])))
    while True:
        if seg is None or steps + seg[2] >= max_steps:
            kind, val, stack, steps = _advance(
                focus, stack, labels, steps, max_steps, cache)
        else:
            _, top, n, bumps, popped, pushed, kind, val, link = seg
            steps += n
            for l, k in bumps:
                labels[l] = labels.get(l, 0) + k
            if popped:
                stack = stack[1]
            for fr in pushed:
                stack = (fr, stack)
            if link is not None:        # a coin: flip, follow the link
                b = rng.random() >= link[2]
                focus = bits[b]
                seg = link[b]
                if seg is None:
                    seg = link[b] = segments.get(
                        (id(focus), id(pushed[-1] if pushed else top)))
                continue
        if kind == "dice":
            focus = bits[rng.random() >= cache.threshold(val)]
        elif kind is _NEXT:         # only a replay ends here
            focus = val
        elif kind == "done":
            return SampleRecord(val == 0, val, labels, steps)
        else:
            return SampleRecord(False, None, labels, steps)
        seg = segments.get(
            (id(focus), id(None if stack is None else stack[0])))


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

    The search carries each prefix's weight as an unreduced pair of
    integers ``(wn, wd)``: a coin of rate ``p/q`` gives ``(wn*p, wd*q)``
    to bit 0 and ``(wn*(q-p), wd*q)`` to bit 1, so no coin pays for a
    gcd.  Each of the four masses sums numerators per denominator and
    becomes a ``Fraction`` once, at the end, and an accepted path's
    weight becomes one when it is recorded; the values are the same
    rationals either way.
    """
    _check_budget(max_steps, max_choices)
    cache = state.cache
    # denominator -> summed numerator, one table per mass
    converged: dict[int, int] = {}
    open_: dict[int, int] = {}
    rejected: dict[int, int] = {}
    diverged: dict[int, int] = {}
    paths: list[PathRecord] = []
    zero, one = num(0), num(1)
    todo = [(state.focus, _link(state.frames), 1, 1, {}, "", 0)]
    while todo:
        focus, stack, wn, wd, labels, bits, steps = todo.pop()
        kind, val, stack, steps = _advance(
            focus, stack, labels, steps, max_steps, cache)
        if kind == "dice":
            if len(bits) >= max_choices:
                mass = open_
            else:
                p, q = val.numerator, val.denominator
                wdq = wd * q
                if p != q:
                    todo.append((one, stack, wn * (q - p), wdq,
                                 dict(labels), bits + "1", steps))
                if p:
                    todo.append((zero, stack, wn * p, wdq,
                                 labels, bits + "0", steps))
                continue
        elif kind == "done":
            if val == 0:
                mass = converged
                paths.append(PathRecord(bits, Fraction(wn, wd), labels,
                                        steps))
            else:
                mass = rejected
        elif kind == "open":
            mass = open_
        elif kind == "cycle":
            mass = diverged
        else:  # stuck: arrow-typed terminal, cannot accept
            mass = rejected
        mass[wd] = mass.get(wd, 0) + wn
    return EnumerationResult(paths, _total(converged), _total(open_),
                             _total(rejected), _total(diverged),
                             max_steps, max_choices)


def _total(mass: dict[int, int]) -> Fraction:
    return sum((Fraction(n, d) for d, n in mass.items()), Fraction(0))


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
    counts: list[int] = []
    for i in range(n):
        rec = _sample(state, random.Random(split_seed(seed, i)), max_steps)
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
