import copy
import hashlib
import pickle
import random
from fractions import Fraction

import pytest

import ppcf.machine

from ppcf.machine import (
    CountEstimate, SampleRecord, State, _sample, enumerate_paths,
    estimate_conditional_count, init_state, run, sample, split_seed,
    state_type,
)
from ppcf.progen import gen_corpus
from ppcf.syntax import (
    NAT, App, Fix, Ifz, Lam, Let, Mark, PpcfError, PpcfTypeError, Succ, Var,
    make_mq, num, parse_term,
)


def enum(src, **kw):
    return enumerate_paths(init_state(parse_term(src)), **kw)


def test_numeral_zero():
    res = enum("0")
    assert len(res.paths) == 1
    assert res.paths[0].choices == ""
    assert res.paths[0].weight == 1
    assert res.converged_mass == 1
    assert res.open_mass == res.rejected_mass == res.diverged_mass == 0


def test_nonzero_numeral_rejects():
    res = enum("succ 0")
    assert res.paths == [] and res.rejected_mass == 1


def test_pred_of_succ():
    res = enum("pred (succ 0)")
    assert res.converged_mass == 1
    # predecessor on zero stays at zero
    assert enum("pred 0").converged_mass == 1


def test_dice_splits_mass():
    res = enum("dice(1/3)")
    assert res.converged_mass == Fraction(1, 3)
    assert res.rejected_mass == Fraction(2, 3)
    assert [p.choices for p in res.paths] == ["0"]


def test_loop_detected_as_divergent():
    res = enum("fix (\\x:nat. x)")
    assert res.paths == []
    assert res.diverged_mass == 1
    assert res.open_mass == 0


def test_letpair_exact_masses():
    src = """
        let x = dice(1/3) in
        ifz x then mark[a] 0
        else ifz mark[b] dice(2/5) then 0 else succ x
    """
    res = enum(src)
    assert res.converged_mass == Fraction(3, 5)
    assert res.rejected_mass == Fraction(2, 5)
    assert res.open_mass == 0
    by_choices = {p.choices: p for p in res.paths}
    assert by_choices["0"].weight == Fraction(1, 3)
    assert by_choices["0"].labels == {"a": 1}
    assert by_choices["10"].weight == Fraction(4, 15)
    assert by_choices["10"].labels == {"b": 1}


def test_paths_in_dfs_order():
    res = enum("let x = dice(1/2) in let y = dice(1/2) in ifz x then 0 else y")
    assert [p.choices for p in res.paths] == ["00", "01", "10"]


def test_zero_rate_branches_pruned():
    # dice(1) never produces the 1 branch, dice(0) never the 0 branch
    res = enum("dice(1)")
    assert [p.choices for p in res.paths] == ["0"]
    assert res.converged_mass == 1
    res = enum("ifz dice(0) then fix (\\x:nat. x) else 0")
    assert res.converged_mass == 1
    assert [p.choices for p in res.paths] == ["1"]


def test_mass_partition_on_generated_corpus():
    for t in gen_corpus(40, 321):
        res = enumerate_paths(init_state(t), max_steps=400, max_choices=8)
        total = (res.converged_mass + res.open_mass
                 + res.rejected_mass + res.diverged_mass)
        assert total == 1


MIXED_RATES = r"""
(fix (\f:nat -> nat. \x:nat.
   ifz dice(1/3) then x
   else ifz dice(2/5) then f (succ x)
   else ifz dice(5/7) then (ifz x then fix (\y:nat. y) else f (pred x))
   else ifz dice(0) then succ 0 else dice(1))) 0
"""


@pytest.mark.parametrize("max_choices", range(7))
def test_enumeration_exact_with_mixed_denominators(max_choices):
    # the search carries weights as unreduced integer pairs; the masses
    # and path weights must still be the exact rationals
    state = init_state(parse_term(MIXED_RATES))
    res = enumerate_paths(state, max_choices=max_choices)
    masses = (res.converged_mass, res.open_mass, res.rejected_mass,
              res.diverged_mass)
    assert all(type(m) is Fraction for m in masses)
    assert sum(masses) == Fraction(1)
    assert res.converged_mass == sum((p.weight for p in res.paths),
                                     Fraction(0))
    for p in res.paths:
        assert run(state, p.choices) == p
    # the state is warm now: its memo holds substitutions and segments
    assert enumerate_paths(state, max_choices=max_choices) == res
    cold = init_state(parse_term(MIXED_RATES))
    assert enumerate_paths(cold, max_choices=max_choices) == res
    if max_choices == 6:
        assert all(masses)
        assert [str(p.weight) for p in res.paths] == ["1/3", "8/315",
                                                      "4/35"]
        assert masses == (Fraction(149, 315), Fraction(608, 4725),
                          Fraction(76, 675), Fraction(2, 7))


def test_run_agrees_with_enumeration():
    for t in gen_corpus(25, 99):
        state = init_state(t)
        res = enumerate_paths(state, max_steps=1000, max_choices=10)
        for p in res.paths[:8]:
            rec = run(state, p.choices)
            assert rec is not None
            assert rec.weight == p.weight
            assert rec.labels == p.labels
            assert rec.steps == p.steps
            # a true prefix or an extension of an accepted sequence rejects
            assert run(state, p.choices + "0") is None
            if p.choices:
                assert run(state, p.choices[:-1]) is None


def test_run_is_deterministic():
    state = init_state(parse_term("let x = dice(1/2) in ifz x then 0 else 1"))
    a = run(state, "0")
    b = run(state, "0")
    assert a == b and a is not None


def test_run_choice_list_form():
    state = init_state(parse_term("dice(1/2)"))
    assert run(state, [0]) == run(state, "0")


def test_states_stay_at_observation_type():
    seen = []

    def watch(focus, stack):
        frames = []
        while stack is not None:
            f, stack = stack
            frames.append(f)
        seen.append(state_type(State(focus, tuple(frames))))

    state = init_state(App(make_mq(Fraction(1, 4)), num(0)))
    rec = run(state, "1", on_state=watch)
    assert rec is not None
    assert seen and all(ty == NAT for ty in seen)


def test_sample_reproducible():
    state = init_state(parse_term("let x = dice(1/2) in ifz x then 0 else 1"))
    a = sample(state, seed=11)
    b = sample(state, seed=11)
    assert a == b
    assert a.value in (0, 1)


def test_sample_frequency_matches_rate():
    state = init_state(parse_term("dice(3/10)"))
    hits = sum(sample(state, split_seed(8, i)).converged
               for i in range(4000))
    # binomial(4000, 0.3): five sigma is about 145
    assert abs(hits - 1200) < 150


def test_sample_divergent_run_cut():
    rec = sample(init_state(parse_term("fix (\\x:nat. x)")), seed=1,
                 max_steps=100)
    assert not rec.converged and rec.value is None


def test_split_seed_distinct():
    seeds = {split_seed(7, i) for i in range(10000)}
    assert len(seeds) == 10000
    assert seeds != {split_seed(8, i) for i in range(10000)}


def test_conditional_count_estimate():
    t = App(make_mq(Fraction(1, 4)), Mark(num(0), "t"))
    est = estimate_conditional_count(t, "t", 4000, max_steps=2000, seed=5)
    assert isinstance(est, CountEstimate)
    assert est.n_converged == 4000          # q = 1/4 always converges
    assert est.p_conv == 1.0
    assert abs(est.mean - 3.0) <= 3 * est.stderr
    again = estimate_conditional_count(t, "t", 4000, max_steps=2000, seed=5)
    assert again.mean == est.mean and again.stderr == est.stderr


def test_estimate_requires_samples():
    with pytest.raises(Exception):
        estimate_conditional_count(num(0), "t", 0)


@pytest.mark.parametrize("call", [
    lambda st, k: run(st, "0", **k),
    lambda st, k: sample(st, 1, **k),
    lambda st, k: enumerate_paths(st, **k),
    lambda st, k: estimate_conditional_count(st.focus, "t", 10, **k),
], ids=["run", "sample", "enumerate_paths", "estimate_conditional_count"])
@pytest.mark.parametrize("max_steps", [0, -5])
def test_bad_step_budget_rejected(call, max_steps):
    with pytest.raises(PpcfError, match="max_steps"):
        call(init_state(parse_term("dice(1/2)")), {"max_steps": max_steps})


def test_choice_budget():
    state = init_state(parse_term("dice(1/2)"))
    with pytest.raises(PpcfError, match="max_choices"):
        enumerate_paths(state, max_choices=-1)
    res = enumerate_paths(state, max_choices=0)     # 0 is a valid budget
    assert res.paths == [] and res.open_mass == 1


class _FixedRng:
    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("rate, u, bit", [
    # float(2/3) rounds down to this value, which random() can return:
    # it lies below 2/3, so the coin shows 0
    ("2/3", 6004799503160661 / 2 ** 53, 0),
    ("2/3", 6004799503160662 / 2 ** 53, 1),
    ("0", 0.0, 1),
    ("1", 1 - 2 ** -53, 0),
])
def test_coin_compares_exactly(rate, u, bit):
    assert float(Fraction(2, 3)) == 6004799503160661 / 2 ** 53
    assert (u < Fraction(rate)) == (bit == 0)
    state = init_state(parse_term(f"dice({rate})"))
    # the first run steps and records the coin's segment, the second
    # replays it and flips against its link slot
    for _ in range(2):
        rec = _sample(state, _FixedRng(u), 10)     # the memo is the state's
        assert rec.value == bit and rec.steps == 1


# (converged, value, labels, steps) of sample on mq(3/4) with a marked
# argument, max_steps=5000, seeds split_seed(20260814, i) for i = 0..9
GOLDEN_MQ34 = [
    (False, None, {"t": 234}, 5000),
    (False, None, {"t": 276}, 5000),
    (False, None, {"t": 266}, 5000),
    (True, 0, {"t": 2}, 13),
    (False, None, {"t": 240}, 5000),
    (False, None, {"t": 238}, 5000),
    (False, None, {"t": 288}, 5000),
    (False, None, {"t": 240}, 5000),
    (False, None, {"t": 218}, 5000),
    (False, None, {"t": 222}, 5000),
]


def test_sample_stream_pinned():
    # any change to the coin draws or to stepping moves these
    state = init_state(App(make_mq(Fraction(3, 4)), Mark(num(0), "t")))
    got = []
    for i in range(10):
        rec = sample(state, split_seed(20260814, i), max_steps=5000)
        got.append((rec.converged, rec.value, rec.labels, rec.steps))
    assert got == GOLDEN_MQ34


_ID = Lam("x", NAT, Var("x"))


@pytest.mark.parametrize("t, steps", [
    (App(num(0), num(1)), 1),           # a numeral applied
    (Succ(_ID), 1),                     # succ of a function
    (Ifz(_ID, num(0), num(1)), 1),      # ifz on a function
    (Let("y", _ID, num(0)), 1),         # let binding a function
    (Fix(num(0)), 1),                   # fix of a numeral
    (_ID, 0),                           # a bare function
], ids=["app-num", "succ-lam", "ifz-lam", "let-lam", "fix-num", "lam"])
def test_stuck_states_reject(t, steps):
    # one step pushes the frame node, the value that comes back does not
    # fit it, and the run is stuck; a bare function is stuck at once
    state = init_state(t)
    res = enumerate_paths(state)
    assert res.rejected_mass == 1 and res.paths == []
    assert run(state, "") is None
    rec = sample(state, 1)
    assert (rec.converged, rec.value, rec.steps) == (False, None, steps)


def _stacked(focus, stack):
    frames = []
    while stack is not None:
        fr, stack = stack
        frames.append(fr)
    return State(focus, tuple(frames))


def test_state_type_along_accepted_paths():
    # every constructor that pushes a frame is stepped into, so each
    # kind of frame sits on some visited stack
    pushed = {"App", "Fix", "Ifz", "Let", "Succ", "Pred"}
    seen = set()

    def watch(focus, stack):
        seen.add(type(focus).__name__)
        assert state_type(_stacked(focus, stack)) == NAT

    for t in gen_corpus(25, 99):
        state = init_state(t)
        res = enumerate_paths(state, max_steps=1000, max_choices=10)
        if res.paths:
            assert run(state, res.paths[0].choices, on_state=watch)
    assert pushed <= seen


def test_state_type_rejects_ill_typed_frames():
    states = []
    run(init_state(Succ(_ID)), "",
        on_state=lambda f, k: states.append(_stacked(f, k)))
    assert len(states) == 2         # the succ node, then the lambda on it
    for state in states:
        with pytest.raises(PpcfTypeError):
            state_type(state)
    with pytest.raises(PpcfTypeError):
        state_type(State(num(0), (num(1),)))


def _mq34():
    return init_state(App(make_mq(Fraction(3, 4)), Mark(num(0), "t")))


def test_state_keeps_its_memo_across_samples(monkeypatch):
    calls = []
    real = ppcf.machine.subst

    def counting(*a):
        calls.append(a)
        return real(*a)

    monkeypatch.setattr(ppcf.machine, "subst", counting)
    state = _mq34()
    first = sample(state, 5, max_steps=500)
    assert calls
    calls.clear()
    assert sample(state, 5, max_steps=500) == first
    assert calls == []


def test_memo_does_not_change_equality_or_copies():
    t = App(make_mq(Fraction(1, 4)), num(0))
    assert init_state(t) == init_state(t)
    state = _mq34()
    want = [sample(state, split_seed(3, i), max_steps=500)
            for i in range(5)]
    paths = enumerate_paths(state, max_choices=6)
    assert state.cache.segments
    for other in (copy.deepcopy(state),
                  pickle.loads(pickle.dumps(state))):
        assert other == state
        memo = other.cache
        assert not memo.table and not memo.coins and not memo.pinned
        assert not memo.segments
        assert [sample(other, split_seed(3, i), max_steps=500)
                for i in range(5)] == want
        assert enumerate_paths(other, max_choices=6) == paths


_STUCK_OR_CYCLING = [
    "fix (\\x:nat. x)",
    "succ (fix (\\x:nat. x))",
    "ifz fix (\\x:nat. x) then 0 else 1",
    "let y = fix (\\x:nat. x) in y",
    "ifz dice(1/2) then fix (\\x:nat. x) else 0",
    "(\\x:nat. x) (fix (\\x:nat. x))",
]


def _machine_outputs():
    """Records of every public machine entry point over generated programs
    (labelled and not), the mq family at several step caps, and stuck or
    cycling states, as one list of reprs."""
    out = []
    for t in (gen_corpus(30, 20260814) + gen_corpus(30, 3, labeled=True)
              + [parse_term(s) for s in _STUCK_OR_CYCLING]):
        state = init_state(t)
        res = enumerate_paths(state, max_steps=2000, max_choices=10)
        out.append(res)
        for p in res.paths[:3]:
            seen = []
            out.append(run(state, p.choices, on_state=lambda f, k:
                           seen.append((type(f).__name__, k is None))))
            out.append(seen)
            out.append(run(state, p.choices, max_steps=max(1, p.steps - 1)))
        out += [sample(state, s, max_steps=300) for s in range(3)]
    for q in ("1/4", "1/2", "3/4", "19/20"):
        t = App(make_mq(Fraction(q)), Mark(num(0), "t"))
        state = init_state(t)
        for cap in (1, 7, 50, 5000):
            out += [sample(state, split_seed(cap, i), max_steps=cap)
                    for i in range(30)]
            out.append(enumerate_paths(state, max_steps=cap, max_choices=8))
            out.append(estimate_conditional_count(t, "t", 15, cap, seed=2))
    return [repr(x) for x in out]


# computed from the plain stepping machine: a speedup must leave every
# record as it is
MACHINE_OUTPUTS_SHA256 = (
    "5d880ae4a31822aa787fa30fa0bffded12c3ae9789995b35c7f2922bb7bfa2d2")


def test_machine_outputs_pinned():
    digest = hashlib.sha256("\n".join(_machine_outputs()).encode())
    assert digest.hexdigest() == MACHINE_OUTPUTS_SHA256


# -- replaying recorded segments gives what stepping gives

def _per_coin_sample(state, seed, max_steps):
    """Sampling as it was before linked segments: one ``_advance`` per
    coin, each coin compared with its rate as an exact rational."""
    rng = random.Random(seed)
    labels = {}
    focus, stack = state.focus, ppcf.machine._link(state.frames)
    steps = 0
    while True:
        kind, val, stack, steps = ppcf.machine._advance(
            focus, stack, labels, steps, max_steps, state.cache)
        if kind == "dice":
            focus = num(0) if rng.random() < val else num(1)
        elif kind == "done":
            return SampleRecord(val == 0, val, labels, steps)
        else:
            return SampleRecord(False, None, labels, steps)


def _coin_frames_state():
    # a coin in focus over frames that were never stepped into
    return State(parse_term("dice(2/3)"),
                 (parse_term("ifz 0 then dice(1/3) else succ 0"),
                  parse_term("let y = 0 in pred y")))


def test_warm_and_cold_samples_agree_at_every_cap():
    # a cap inside a recorded segment must cut on the step stepping cuts,
    # and following links must draw what one _advance per coin draws
    terms = gen_corpus(40, 11, labeled=True) + gen_corpus(40, 3)
    terms += [App(make_mq(Fraction(q)), Mark(num(0), "t"))
              for q in ("1/4", "1/2", "3/4", "19/20")]
    terms += [parse_term(s) for s in (
        "dice(1/2)",                                    # the empty stack
        "ifz dice(1/2) then dice(1/3) else dice(2/3)",  # after a pop
        "let y = dice(1/2) in mark[a] dice(1/3)",
    )]
    makers = [lambda t=t: init_state(t) for t in terms]
    makers.append(_coin_frames_state)
    for k, make in enumerate(makers):
        warm = make()
        if k % 2:
            enumerate_paths(warm, max_steps=2000, max_choices=8)
        for cap in [5000, *range(1, 61)]:
            for i in range(2 if cap < 5000 else 10):
                seed = split_seed(cap, i)
                assert (sample(warm, seed, max_steps=cap)
                        == _per_coin_sample(make(), seed, cap)), (k, cap, i)


def test_observed_runs_agree_with_unobserved():
    for t in gen_corpus(25, 99):
        state = init_state(t)
        res = enumerate_paths(state, max_steps=1000, max_choices=10)
        for p in res.paths[:4]:
            want = run(state, p.choices)
            assert run(state, p.choices, on_state=lambda f, s: None) == want
            assert run(state, p.choices) == want


@pytest.mark.parametrize("src", [
    "succ (fix (\\x:nat. x))",
    "ifz fix (\\x:nat. x) then 0 else 1",
    "let y = fix (\\x:nat. x) in succ y",
    "ifz dice(1/3) then succ (fix (\\x:nat. x)) "
    "else let y = dice(1/2) in ifz y then fix (\\x:nat. x) else 0",
], ids=["succ", "ifz", "let", "after-coins"])
def test_divergence_found_on_warm_states(src):
    state = init_state(parse_term(src))
    cold = enumerate_paths(state)
    assert cold.diverged_mass > 0
    for _ in range(2):
        assert enumerate_paths(state) == cold
        assert enumerate_paths(init_state(parse_term(src))) == cold


# -- the segment memo

def test_segment_table_stays_small():
    state = _mq34()
    for i in range(250):
        sample(state, split_seed(20260814, i), max_steps=5000)
    assert 0 < len(state.cache.segments) <= 16


def test_segments_pin_their_keys():
    state = _mq34()
    for seed in range(3):
        sample(state, seed, max_steps=5000)
    segments = state.cache.segments
    linked = 0
    for key, seg in segments.items():
        assert key == (id(seg[0]), id(seg[1]))
        link, pushed = seg[8], seg[5]
        if link is None:
            continue
        top = pushed[-1] if pushed else seg[1]      # the top after replay
        for b in (0, 1):
            if link[b] is not None:
                linked += 1
                assert link[b] is segments[(id(num(b)), id(top))]
    assert linked


@pytest.mark.parametrize("src, value", [
    ("pred " * 10_000 + "dice(1/2)", 0),
    ("succ " * 10_000 + "dice(1/2)", 10_000),
], ids=["pred", "succ"])
def test_deep_chain_replays(src, value):
    # after the coin the value returns through 10^4 frames pushed before
    # it, one segment per frame: the table fills up, later runs replay
    # what it holds and step the rest
    t = parse_term(src)
    state = init_state(t)
    first = enumerate_paths(state)
    assert len(state.cache.segments) == ppcf.machine._MAX_SEGMENTS
    assert enumerate_paths(state) == first
    recs = [sample(state, s, max_steps=30_000) for s in range(4)]
    assert {r.value for r in recs} <= {value, value + 1}
    assert recs == [sample(init_state(t), s, max_steps=30_000)
                    for s in range(4)]
