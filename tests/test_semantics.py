import hashlib
import math
import random
from fractions import Fraction

import pytest

from ppcf import corpus, fixpoints, progen
from ppcf.machine import enumerate_paths, init_state
from ppcf.progen import gen_corpus
from ppcf.semantics import (
    DIVERGES, OK, UNDEFINED, Dist, Dual, PrecisionError, SemConfig, _Eval,
    expected_count, finite_difference_check, ground_denot, prob_zero,
    sparts, sval,
)
from ppcf.syntax import (
    NAT, App, Fix, Lam, Mark, PpcfError, labels_of, make_mq, num,
    parse_term, to_text,
)
from ppcf.translate import strip

CFG = SemConfig(tol=1e-12)


def pz(src, cfg=CFG):
    return prob_zero(parse_term(src), cfg)


def test_dual_arithmetic():
    a = Dual(2.0, {"l": 1.0})
    b = Dual(3.0, {"l": 0.5, "m": 2.0})
    s = a + b
    assert s.v == 5.0 and sparts(s) == {"l": 1.5, "m": 2.0}
    p = a * b
    # product rule: 2*0.5 + 3*1 on l, 2*2 on m
    assert p.v == 6.0 and sparts(p) == {"l": 4.0, "m": 4.0}
    assert (1.0 + a).v == 3.0 and (2.0 * a).d == {"l": 2.0}
    assert sval(a) == 2.0 and sval(1.5) == 1.5 and sparts(0.5) == {}


def test_ground_values():
    assert pz("0") == 1.0
    assert pz("succ 0") == 0.0
    assert pz("pred (succ 0)") == 1.0
    assert pz("pred 0") == 1.0
    assert pz("dice(1/3)") == pytest.approx(1 / 3, abs=1e-15)
    assert pz("fix (\\x:nat. x)") == 0.0


def test_dist_coordinates():
    d = ground_denot(parse_term("let x = dice(1/4) in succ x")).dist
    assert sval(d.coords.get(1, 0.0)) == pytest.approx(0.25)
    assert sval(d.coords.get(2, 0.0)) == pytest.approx(0.75)
    assert sval(d.mass0()) == 0.0
    assert sval(d.total()) == pytest.approx(1.0)


def test_ifz_counts_overflow_as_positive():
    cfg = SemConfig(nmax=4)
    # 6 lands in the overflow bucket but still takes the positive branch
    t = parse_term("ifz succ (succ (succ (succ (succ (succ 0))))) "
                   "then 1 else 0")
    assert prob_zero(t, cfg) == 1.0


def test_let_on_overflow_is_an_error():
    cfg = SemConfig(nmax=4)
    t = parse_term("let x = succ (succ (succ (succ (succ (succ 0))))) "
                   "in pred x")
    with pytest.raises(PrecisionError):
        prob_zero(t, cfg)


def test_beta_and_arrow_sums():
    assert pz("(\\x:nat. ifz x then 0 else 1) dice(1/5)") \
        == pytest.approx(1 / 5, abs=1e-15)
    # a probabilistic mixture of functions applies linearly
    assert pz("(ifz dice(1/3) then (\\x:nat. x) else (\\x:nat. succ x)) 0") \
        == pytest.approx(1 / 3, abs=1e-15)


def test_call_by_name_resamples():
    # the argument is a coin, flipped once per use
    src = "(\\x:nat. ifz x then x else ifz x then 0 else 1) dice(1/2)"
    assert pz(src) == pytest.approx(0.5 * 0.5 + 0.5 * 0.5, abs=1e-15)
    # sampling first fixes the value for both uses
    src = "let x = dice(1/2) in ifz x then x else ifz x then 0 else 1"
    assert pz(src) == pytest.approx(0.5, abs=1e-15)


def test_geometric_retry():
    # stop at the first round with probability 11/20; only that round
    # returns zero
    t = parse_term("(fix (\\f:nat -> nat. \\n:nat."
                   " ifz dice(11/20) then n else f (succ n))) 0")
    assert prob_zero(t, CFG) == pytest.approx(11 / 20, abs=1e-12)


def test_adequacy_against_enumeration_exact():
    # the labeled generator stays in the finite-path-tree fragment, so
    # stripped programs enumerate exhaustively and adequacy is sharp;
    # their 14 fixpoints are nat -> nat tables, solved off the ladder
    for t in gen_corpus(20, 1234, labeled=True):
        t = strip(t)
        res = enumerate_paths(init_state(t))
        assert res.open_mass == 0
        gr = ground_denot(t, CFG)
        assert gr.converged and gr.depth == 8
        assert sval(gr.dist.mass0()) == pytest.approx(
            float(res.converged_mass), abs=1e-9)


def ground_fix(q, marked=False):
    """G(q): a ground fixpoint whose mass at 0 is the least solution of
    u = q + (1 - q) u^2, min(1, q/(1-q)), critical at q = 1/2."""
    scrut = "mark[t] x" if marked else "x"
    return parse_term(rf"fix (\x:nat. ifz dice({q}) then 0 "
                      rf"else ifz {scrut} then x else 1)")


def test_newton_iterates_monotone():
    # fix_iters cuts the table's Newton steps, so the k-th budget gives
    # the k-th iterate: each is >= the last and <= the fixpoint; a
    # ground fixpoint is a table with one entry
    for t in [App(make_mq(Fraction(3, 4)), num(0)), ground_fix("2/5")]:
        gr = ground_denot(t, CFG)
        assert gr.converged
        top = sval(gr.dist.mass0())
        masses = [prob_zero(t, SemConfig(tol=1e-12, fix_iters=k))
                  for k in range(1, 8)]
        assert masses[0] < masses[-1]
        assert all(a <= b for a, b in zip(masses, masses[1:]))
        assert all(m <= top for m in masses)
        assert not ground_denot(t, SemConfig(fix_iters=3)).converged
    # the loop ends on G(2/5)
    assert masses[:2] == pytest.approx([0.4, 0.585], abs=1e-3)
    assert top == pytest.approx(2 / 3, abs=1e-12)


@pytest.mark.parametrize("q", ["1/10", "1/4", "2/5", "3/4"])
def test_ground_fixpoint_least_solution(q):
    gr = ground_denot(ground_fix(q), CFG)
    assert gr.converged and gr.depth == 8
    r = float(Fraction(q))
    assert abs(sval(gr.dist.mass0()) - min(1.0, r / (1 - r))) < 1e-12


def test_critical_ground_fixpoint_is_unconverged():
    assert not ground_denot(ground_fix("1/2"), CFG).converged


def test_ground_fixpoint_geometric_coordinates_are_exact():
    # coordinate n is 2^-(n+1) for n <= nmax, and the rest, 2^-65, is
    # the overflow: each Newton step is exact in binary
    gr = ground_denot(parse_term(r"fix (\x:nat. ifz dice(1/2) then 0 "
                                 r"else succ x)"), CFG)
    assert gr.converged
    assert gr.dist.coords == {n: 2.0 ** -(n + 1) for n in range(65)}
    assert gr.dist.overflow == 2.0 ** -65


def test_ground_fixpoint_entry_reads_its_value_not_its_family():
    # g feeds itself its own values and is called at the ground entry's
    # current value, which moves with each Newton step of the entry
    t = parse_term(r"fix (\x:nat. ifz dice(1/2) then 0 else "
                   r"(fix (\g:nat->nat. \n:nat. ifz n then 0 "
                   r"else g (g (pred n)))) x)")
    gr = ground_denot(t, CFG)
    assert gr.converged
    assert sval(gr.dist.mass0()) == pytest.approx(1.0, abs=1e-9)


def test_ground_fixpoint_of_a_non_lambda_functional_is_a_table():
    # observing the fix makes it ground, whatever its functional's
    # syntax: G(2/5), 2/3, from the one-entry table without unrolling
    t = parse_term(r"fix ((\g:nat->nat. g) (\x:nat. ifz dice(2/5) then 0 "
                   r"else ifz x then x else 1))")
    gr = ground_denot(t, CFG)
    assert gr.converged and gr.depth == 8
    assert sval(gr.dist.mass0()) == pytest.approx(2 / 3, abs=1e-12)


def test_generated_ground_fixpoints_within_enumeration():
    # the cross-view sandwich: converged mass <= denotation <= converged
    # plus open mass, on generated bodies of a ground fix
    for i in range(60):
        body = progen._Gen(random.Random(7000 + i), False).term(["x"], 3)
        t = Fix(Lam("x", NAT, body))
        gr = ground_denot(t, CFG)
        assert gr.converged, to_text(t)
        res = enumerate_paths(init_state(t), max_steps=2000,
                              max_choices=12)
        lo = float(res.converged_mass)
        assert lo - 1e-9 <= sval(gr.dist.mass0()) \
            <= lo + float(res.open_mass) + 1e-9, to_text(t)


def test_higher_order_pred_continuation_converges():
    # each round wraps k in one more succ before the final pred; the
    # ladder once raised PrecisionError at rung 128 on the overflow
    # left by the negligible branches
    t = parse_term(r"(fix (\F:(nat->nat)->nat->nat. \k:nat->nat. \x:nat. "
                   r"ifz dice(1/2) then k x else F (\y:nat. k (succ y)) x)) "
                   r"(\z:nat. pred z) 0")
    gr = ground_denot(t)
    assert gr.converged and gr.depth == 64
    assert sval(gr.dist.mass0()) == pytest.approx(0.75, abs=1e-9)


@pytest.mark.parametrize("call, depth", [
    # the arguments move with the values being solved, so Newton meets
    # keys discovery did not see and the family unrolls
    ("f (f x)", 64),
    (r"(\y:nat. f y) (f x)", 64),
    # let splits f x into numerals, which are keys that stay put
    ("let y = f x in f y", 8),
])
def test_value_dependent_arguments_reach_the_least_fixpoint(call, depth):
    t = parse_term(r"(fix (\f:nat->nat. \x:nat. "
                   f"ifz dice(3/5) then 0 else {call})) 1")
    gr = ground_denot(t, CFG)
    assert gr.converged and gr.depth == depth
    assert gr.dist.coords.keys() == {0}
    assert sval(gr.dist.mass0()) == pytest.approx(1.0, abs=CFG.tol)


def test_component_past_the_cap_unrolls():
    # the let-bound self call makes one component of 1120 coordinates,
    # too many for a dense elimination, so the family unrolls; its
    # coordinates match those of the exact table to 1e-6
    t = parse_term(r"(fix (\f:nat->nat. \x:nat. ifz x then 2 else "
                   r"ifz dice(2/5) then let y = f x in f y else "
                   r"ifz dice(1/4) then x else succ (f (pred x)))) 3")
    gr = ground_denot(t)
    assert gr.converged and gr.depth == 128
    got = {n: sval(c) for n, c in gr.dist.coords.items()}
    assert all(n % 2 == 1 for n in got)
    for n, p in {3: 0.2959102, 5: 0.1942288, 7: 0.0397437,
                 9: 0.0111652}.items():
        assert got[n] == pytest.approx(p, abs=1e-6), n


@pytest.mark.parametrize("src, want", [
    # f(0) and f(1) call each other: one component of 4 coordinates
    (r"(fix (\f:nat->nat. \x:nat. ifz dice(1/2) then x "
     r"else f (ifz x then 1 else 0))) 0", {0: 2 / 3, 1: 1 / 3}),
    # f(0) reads itself three times: one entry of 2 coordinates, and a
    # quadratic system
    (r"(fix (\f:nat->nat. \x:nat. ifz dice(1/3) then dice(1/4) "
     r"else ifz f x then f x else f x)) 0", {0: 1 / 8, 1: 3 / 8}),
    # f(3) and f(2) read the component of f(1) and f(0): they close
    # after it, in the components pass
    (r"(fix (\f:nat->nat. \x:nat. ifz pred x then (ifz dice(1/2) then x "
     r"else f (ifz x then 1 else 0)) else f (pred x))) 3",
     {0: 1 / 3, 1: 2 / 3}),
])
def test_newton_solves_components_of_several_coordinates(src, want):
    gr = ground_denot(parse_term(src), CFG)
    assert gr.converged and gr.depth == 8
    assert {n: sval(c) for n, c in gr.dist.coords.items()} == want


def test_entries_close_during_discovery(monkeypatch):
    # an entry that reads only itself and closed entries closes right
    # after its evaluation; on a chain each entry is evaluated on its
    # first visit and once more after its callee closes, and a third
    # pass over them (11 and 199 evaluations) is waste
    calls = [0]
    entry = fixpoints._entry

    def counted(*args):
        calls[0] += 1
        return entry(*args)
    monkeypatch.setattr(fixpoints, "_entry", counted)
    for t, want in [
        # f(3) .. f(1) twice each, f(0) once
        (parse_term(r"(fix (\f:nat->nat. \n:nat. ifz n then 0 "
                    r"else f (pred n))) 3"), 7),
        # 65 numerals twice each, then the overflow entry reads itself:
        # two discovery evaluations and two Newton steps
        (corpus.load_program("geo"), 2 * 65 + 4),
        # one entry that reads itself: discovery and Newton alone
        (App(make_mq(Fraction(3, 4)), num(0)), 8),
    ]:
        calls[0] = 0
        assert ground_denot(t, SemConfig(nmax=64)).converged
        assert calls[0] == want, to_text(t)


# two entries, f(0) and f(1), each with 3 coordinates, read through
# products of their own values
NONLINEAR = (r"(fix (\f:nat->nat. \x:nat. ifz dice(1/2) then x "
             r"else ifz f (ifz x then 1 else 0) "
             r"then f (ifz x then 1 else 0) else 2)) ")


def test_nonlinear_component_within_enumeration_and_differences():
    t = parse_term(NONLINEAR + "0")
    gr = ground_denot(t, CFG)
    assert gr.converged and gr.depth == 8
    res = enumerate_paths(init_state(t), max_choices=20)
    p = sval(gr.dist.mass0())
    assert float(res.converged_mass) <= p \
        <= float(res.converged_mass + res.open_mass)
    assert p - float(res.converged_mass) < 1e-5
    # a central difference of step h is off by O(h^2) = 1e-10
    chk = finite_difference_check(parse_term(NONLINEAR + "(mark[t] 0)"),
                                  "t", 1e-5, CFG)
    assert chk.abs_err <= 1e-10, chk


@pytest.mark.parametrize("src, want, depth", [
    # f handed to a closed higher-type fix, which memoises by argument
    # identity: a table keeps its identity while its values move, so
    # such a memo entry lasts one entry evaluation
    (r"(fix (\f:nat->nat. \x:nat. ifz dice(1/2) then 0 else "
     r"(fix (\h:(nat->nat)->nat. \k:nat->nat. "
     r"ifz dice(1/2) then k 0 else h k)) f)) 1", {0: 1.0}, 64),
    # a function that calls f handed to a helper bound outside the fix,
    # which calls it at its own values: f (f 0)
    (r"(\app:(nat->nat)->nat. (fix (\f:nat->nat. \x:nat. "
     r"ifz dice(1/2) then x else app (\y:nat. f y))) 3) "
     r"(\k:nat->nat. k (k 0))", {0: 0.5, 3: 0.5}, 256),
    # a closure over f handed to a closed higher-type fix, next to
    # self-fed and let-bound calls; the ladder alone stops unconverged
    # at depth 256
    (r"(fix (\f:nat->nat. \x:nat. ifz x then 2 else ifz dice(3/4) then "
     r"ifz dice(3/5) then (fix (\h:(nat->nat)->nat->nat. \k:nat->nat. "
     r"\z:nat. ifz dice(1/2) then k z else h k z)) (\y:nat. f y) x "
     r"else ifz f x then 0 else f (ifz x then 1 else 0) "
     r"else ifz dice(3/5) then dice(1/3) else let y = f x in f y)) 3",
     {0: 0.2807764064, 1: 0.2091710457, 2: 0.5100525479}, 64),
])
def test_recursive_variable_passed_as_value(src, want, depth):
    t = parse_term(src)
    gr = ground_denot(t)
    assert gr.converged and gr.depth == depth
    got = {n: sval(c) for n, c in gr.dist.coords.items()}
    assert got.keys() == want.keys()
    for n, p in want.items():
        assert got[n] == pytest.approx(p, abs=1e-9), n
    res = enumerate_paths(init_state(t), max_choices=16)
    assert float(res.converged_mass) <= got[0] \
        <= float(res.converged_mass + res.open_mass)


def test_table_discovery_precision_error_falls_back_to_the_ladder():
    # discovery follows the walk to arguments of weight 10^-44 and
    # beyond, until one has overflow mass pred cannot split; the ladder
    # stops at a depth where that weight is negligible
    t = parse_term(r"(fix (\f:nat->nat. \x:nat. ifz dice(9/10) then x "
                   r"else f (ifz dice(1/2) then pred x else succ x))) 20")
    gr = ground_denot(t, CFG)
    assert gr.converged
    want: dict = {}
    walk = {20: 1.0}
    for _ in range(40):
        nxt: dict = {}
        for n, p in walk.items():
            want[n] = want.get(n, 0.0) + 0.9 * p
            for m in (max(n - 1, 0), n + 1):
                nxt[m] = nxt.get(m, 0.0) + 0.05 * p
        walk = nxt
    for n, p in want.items():
        assert sval(gr.dist.coords.get(n, 0.0)) == pytest.approx(
            p, abs=1e-12), n


@pytest.mark.parametrize("src, cap", [
    # seven arguments against a table cap lowered to four
    (r"(fix (\f:nat->nat. \n:nat. ifz n then 0 else ifz dice(1/2) "
     r"then f (pred n) else ifz dice(1/2) then f n else 1)) 6", 4),
    # Newton's evaluation meets an argument discovery did not see
    (r"(fix (\f:nat->nat. \x:nat. ifz dice(3/5) then 0 else f (f x))) 1",
     None),
    # coordinate n is 10^-10n: discovery's values underflow to 0.0 past
    # coordinate 32, so Newton's seeded partials land outside the support
    (r"fix (\x:nat. ifz dice(9999999999/10000000000) then 0 else succ x)",
     None),
])
def test_table_that_gives_up_unrolls_within_enumeration(src, cap,
                                                       monkeypatch):
    if cap is not None:
        monkeypatch.setattr(fixpoints, "_TABLE_CAP", cap)
    t = parse_term(src)
    gr = ground_denot(t, CFG)
    assert gr.converged and gr.depth > 8
    res = enumerate_paths(init_state(t), max_choices=16)
    lo = float(res.converged_mass)
    assert lo - 1e-12 <= sval(gr.dist.mass0()) \
        <= lo + float(res.open_mass) + 1e-12


@pytest.mark.parametrize("k", [k for k in range(21) if k != 10])
def test_mq_partials_match_central_differences(k):
    # the implicit-function partial of each table against a difference
    # quotient of step 1e-5, whose O(h^2) error is far below the bound
    t = App(make_mq(Fraction(k, 20)), Mark(num(0), "t"))
    chk = finite_difference_check(t, "t", 1e-5, CFG)
    assert chk.abs_err <= 1e-5 * max(1.0, abs(chk.dual)), chk


def test_mq_closed_forms():
    for q, want in [(Fraction(0), 1.0), (Fraction(1, 4), 1.0),
                    (Fraction(3, 4), 1 / 3), (Fraction(19, 20), 1 / 19)]:
        t = App(make_mq(q), num(0))
        assert prob_zero(t, CFG) == pytest.approx(want, abs=1e-9), q


def test_ground_denot_rates():
    t = parse_term("mark[a] 0")
    r = ground_denot(t, rates={"a": Fraction(2, 5)})
    assert sval(r.dist.mass0()) == pytest.approx(0.4, abs=1e-15)
    seeded = ground_denot(t, rates={"a": Fraction(2, 5)}, seed_labels={"a"})
    assert sval(seeded.dist.mass0()) == pytest.approx(0.4, abs=1e-15)
    assert sparts(seeded.dist.mass0()) == {"a": 1.0}
    # a label without a rate gates at the neutral rate 1
    assert sval(ground_denot(t, rates={}).dist.mass0()) == 1.0
    with pytest.raises(PpcfError):
        ground_denot(t, rates={"a": Fraction(7, 5)})   # rate out of range


def _identity_cases():
    for k in range(101):
        yield App(make_mq(Fraction(k, 100)), Mark(num(0), "t")), "t"
    for name in ("mq025_marked", "mq075_marked", "letpair"):
        t = corpus.load_program(name)
        for label in sorted(labels_of(t)):
            yield t, label
    for t in gen_corpus(100, 7, labeled=True):
        for label in sorted(labels_of(t)):
            yield t, label


def test_expected_count_p_conv_is_the_stripped_convergence_mass():
    # at rate 1 every gate multiplies by exactly 1.0, and the value
    # parts of Dual arithmetic are the float operations themselves, so
    # the seeded evaluation's mass is the stripped program's, bit for bit
    n = 0
    for t, label in _identity_cases():
        for cfg in (SemConfig(), CFG):
            got = expected_count(t, label, cfg).p_conv
            assert got == prob_zero(strip(t), cfg), (to_text(t), label)
            n += 1
    assert n > 500


def test_marks_are_transparent_at_rate_one():
    # with no rates every gate is 1.0, and scaling by 1.0 changes no bit
    marked = [corpus.load_program(n)
              for n in ("mq025_marked", "mq075_marked", "letpair")]
    n = 0
    for t in marked + gen_corpus(100, 7, labeled=True):
        for cfg in (SemConfig(), CFG):
            got, want = ground_denot(t, cfg), ground_denot(strip(t), cfg)
            assert repr(got.dist) == repr(want.dist), to_text(t)
            assert (got.converged, got.depth) \
                == (want.converged, want.depth)
            n += 1
    assert n == 206


def test_expected_count_letpair():
    t = parse_term("""
        let x = dice(1/3) in
        ifz x then mark[a] 0
        else ifz mark[b] dice(2/5) then 0 else succ x
    """)
    ra = expected_count(t, "a", CFG)
    assert ra.status == OK
    assert ra.p_conv == pytest.approx(3 / 5, abs=1e-12)
    # label a fires on a 1/3 path out of converged mass 3/5
    assert ra.conditional == pytest.approx((1 / 3) / (3 / 5), abs=1e-9)
    rb = expected_count(t, "b", CFG)
    # label b fires on the complement, whether or not the run converges;
    # conditioning keeps only the converging 2/5 of it
    assert rb.raw == pytest.approx(2 / 3 * 2 / 5 + 0, abs=1e-9)


def test_expected_count_statuses():
    mk = lambda q: App(make_mq(q), Mark(num(0), "t"))
    assert expected_count(mk(Fraction(0)), "t", CFG).conditional \
        == pytest.approx(2.0, abs=1e-9)
    assert expected_count(mk(Fraction(1, 2)), "t").status == DIVERGES
    assert expected_count(mk(Fraction(1)), "t", CFG).status == UNDEFINED
    # a ground fixpoint: u = 2/5 + 3/5 u^2 gives p_conv 2/3, and the
    # marked scrutinee runs once per round, 2 rounds given convergence
    g = expected_count(ground_fix("2/5", marked=True), "t", CFG)
    assert g.status == OK and g.converged
    assert g.raw == pytest.approx(4 / 3, abs=1e-9)
    assert g.conditional == pytest.approx(2.0, abs=1e-9)
    assert g.p_conv == pytest.approx(2 / 3, abs=1e-12)
    assert expected_count(ground_fix("1/2", marked=True), "t").status \
        == DIVERGES


def test_finite_difference_agreement():
    t = App(make_mq(Fraction(1, 4)), Mark(num(0), "t"))
    chk = finite_difference_check(t, "t", 1e-3, CFG)
    assert chk.abs_err < 1e-4
    assert chk.dual == pytest.approx(chk.central, abs=1e-4)
    assert finite_difference_check(ground_fix("2/5", marked=True), "t",
                                   1e-3, CFG).abs_err < 1e-3
    with pytest.raises(PpcfError):
        finite_difference_check(t, "t", 0.7, CFG)


def test_unconverged_is_reported():
    cfg = SemConfig(tol=1e-12, fix_iters=8)
    gr = ground_denot(App(make_mq(Fraction(1, 2)), num(0)), cfg)
    assert not gr.converged


def test_closed_fix_shares_one_family():
    t = parse_term("fix (\\f:nat -> nat. \\n:nat. "
                   "ifz n then 0 else f (pred n))")
    ev = _Eval(CFG, 8)
    a, b = ev.eval(t, {}), ev.eval(t, {"y": Dist.dirac(3, CFG.nmax)})
    assert a is b
    assert _Eval(CFG, 8).eval(t, {}) is not a     # one family per evaluator


def test_open_fix_gets_a_family_per_visit():
    t = parse_term("fix (\\f:nat -> nat. \\n:nat. "
                   "ifz n then y else f (pred n))")
    ev = _Eval(CFG, 8)
    a = ev.eval(t, {"y": Dist.dirac(0, CFG.nmax)})
    b = ev.eval(t, {"y": Dist.dirac(1, CFG.nmax)})
    assert a.fam is not b.fam
    assert sval(ev.obs(ev.apply(a, Dist.dirac(2, CFG.nmax))).mass0()) == 1.0
    assert sval(ev.obs(ev.apply(b, Dist.dirac(2, CFG.nmax))).mass0()) == 0.0


@pytest.mark.parametrize("kw", [
    {"tol": 0.0}, {"tol": -1.0}, {"tol": math.nan}, {"tol": math.inf},
    {"nmax": 0}, {"fix_iters": 0},
])
def test_bad_config_rejected(kw):
    with pytest.raises(PpcfError):
        SemConfig(**kw)


def _denotations():
    """Every plain generated program's denotation, each coordinate with
    its sorted partials, and every expected count of the labeled corpus,
    as one list of reprs."""
    def scalar(c):
        return (sval(c), sorted(sparts(c).items()))
    out = []
    for t in gen_corpus(100, 20260814):
        gr = ground_denot(t)
        out.append((sorted((n, scalar(c)) for n, c in gr.dist.coords.items()),
                    scalar(gr.dist.overflow), gr.converged, gr.depth))
    for t in gen_corpus(100, 7, labeled=True):
        out += [expected_count(t, label) for label in sorted(labels_of(t))]
    return [repr(x) for x in out]


# computed before entries closed during discovery: a faster solve must
# leave every bit as it is
DENOTATIONS_SHA256 = (
    "a77b753d1bdbeb4e4962374788d490d0de06d68b1d0210c52202d4428f3c0bc8")


def test_denotations_pinned():
    digest = hashlib.sha256("\n".join(_denotations()).encode())
    assert digest.hexdigest() == DENOTATIONS_SHA256
