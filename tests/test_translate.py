import itertools
from fractions import Fraction

import pytest

from ppcf import corpus
from ppcf.machine import enumerate_paths, init_state
from ppcf.progen import gen_corpus
from ppcf.semantics import (
    Dist, Dual, PrecisionError, SemConfig, _Eval, ground_denot,
    prob_zero, sval,
)
from ppcf.syntax import (
    NAT, App, Arrow, Dice, Ifz, Mark, PpcfError, PpcfTypeError, Var,
    free_vars, labels_of, make_mq, num, parse_term, subterms, to_text,
    typecheck,
)
from ppcf.translate import default_spy_vars, lcof, spy, strip

LETPAIR = parse_term("""
    let x = dice(1/3) in
    ifz x then mark[a] 0
    else ifz mark[b] dice(2/5) then 0 else succ x
""")


def count_nodes(t, cls):
    return sum(isinstance(s, cls) for s in subterms(t))


def test_strip_removes_marks():
    s = strip(LETPAIR)
    assert labels_of(s) == frozenset()
    assert s == parse_term(
        "let x = dice(1/3) in ifz x then 0 else "
        "ifz dice(2/5) then 0 else succ x")
    assert strip(s) is s


def test_strip_preserves_type():
    for t in gen_corpus(15, 4, labeled=True):
        assert typecheck(strip(t)) == typecheck(t)


def test_lcof_gates_each_mark():
    rates = {"a": Fraction(1, 2), "b": Fraction(2, 3)}
    out = lcof(LETPAIR, rates)
    assert labels_of(out) == frozenset()
    assert typecheck(out) == NAT
    # one gate per mark, each holding the label's coin
    assert count_nodes(out, Ifz) == count_nodes(LETPAIR, Ifz) + 2
    assert count_nodes(out, Dice) == count_nodes(LETPAIR, Dice) + 2


def test_lcof_validates_rates():
    with pytest.raises(PpcfError):
        lcof(LETPAIR, {"a": Fraction(1, 2)})          # b missing
    with pytest.raises(PpcfError):
        lcof(LETPAIR, {"a": Fraction(1, 2), "b": Fraction(3, 2)})


def test_lcof_at_rate_one_is_strip():
    ones = {"a": Fraction(1), "b": Fraction(1)}
    assert abs(prob_zero(lcof(LETPAIR, ones)) - prob_zero(strip(LETPAIR))) \
        < 1e-12


def test_lcof_gates_arrow_typed_marks():
    t = parse_term(r"(mark[f] (\x:nat. succ x)) 0")
    out = lcof(t, {"f": Fraction(1, 2)})
    assert typecheck(out) == NAT
    # the divergent arm is at the mark's own type
    assert prob_zero(out) == 0.0          # succ 0 never yields zero
    gated = parse_term(r"(mark[f] (\x:nat. 0)) 0")
    assert abs(prob_zero(lcof(gated, {"f": Fraction(1, 2)})) - 0.5) < 1e-12


def test_spy_replaces_coins_with_variables():
    varmap = default_spy_vars(LETPAIR)
    assert set(varmap) == {"a", "b"}
    out = spy(LETPAIR, varmap)
    assert free_vars(out) == set(varmap.values())
    assert typecheck(out, {v: NAT for v in varmap.values()}) == NAT


def test_spy_fresh_names_avoid_clashes():
    t = parse_term("let r_a = mark[a] 0 in r_a")
    varmap = default_spy_vars(t)
    assert varmap["a"] != "r_a"
    assert free_vars(spy(t, varmap)) == {varmap["a"]}


def test_spy_rejects_clashing_names():
    with pytest.raises(PpcfError):
        spy(LETPAIR, {"a": "x", "b": "y"})    # x is bound in the program
    with pytest.raises(PpcfError):
        spy(LETPAIR, {"a": "s", "b": "s"})    # not pairwise distinct
    with pytest.raises(PpcfError):
        spy(LETPAIR, {"a": "s"})              # b missing


def test_counting_identity_exact_on_letpair():
    rates = {"a": Fraction(3, 7), "b": Fraction(1, 2)}
    res = enumerate_paths(init_state(LETPAIR))
    assert res.open_mass == 0
    lhs = Fraction(0)
    for p in res.paths:
        w = p.weight
        for lab, k in p.labels.items():
            w *= rates[lab] ** k
        lhs += w
    rhs = enumerate_paths(init_state(lcof(LETPAIR, rates)))
    assert lhs == rhs.converged_mass
    assert lhs == Fraction(29, 105)


def test_spy_denotation_matches_lcof():
    cfg = SemConfig(tol=1e-12)
    rates = {"a": Fraction(3, 7), "b": Fraction(1, 2)}
    via_spy = sval(ground_denot(LETPAIR, cfg, rates).dist.mass0())
    via_lcof = prob_zero(lcof(LETPAIR, rates), cfg)
    assert abs(via_spy - via_lcof) < 1e-9


@pytest.mark.parametrize("src", [
    "0 1", "mark[a] x", "succ (mark[a] \\x:nat. x)",
])
def test_gating_rejects_ill_typed_or_open(src):
    t = parse_term(src)
    with pytest.raises(PpcfTypeError):
        spy(t)
    with pytest.raises(PpcfTypeError):
        lcof(t, {"a": Fraction(1, 2)})


def test_nested_marks_gate_in_one_pass():
    # typing each gated body again would take minutes at this depth
    n = 10_000
    t = parse_term("mark[a] " * n + "0")
    out = spy(t)
    assert typecheck(out, {"r_a": NAT}) == NAT
    assert sum(type(s) is Ifz for s in subterms(out)) == n
    assert sum(type(s) is Dice for s in subterms(lcof(t, {"a": 1}))) == n


def _reference_cases():
    for k in range(101):
        yield App(make_mq(Fraction(k, 100)), Mark(num(0), "t"))
    for name in ("mq025_marked", "mq075_marked", "letpair"):
        yield corpus.load_program(name)
    yield from gen_corpus(150, 77, labeled=True)
    yield parse_term("(mark[f] (\\x:nat. x)) dice(1/2)")
    yield parse_term(
        "(fix (\\F:(nat->nat)->nat->nat. \\k:nat->nat. \\x:nat. "
        "ifz dice(1/2) then mark[a] (k x) "
        "else F (\\y:nat. mark[b] (k y)) x)) (\\z:nat. z) 0")


def test_direct_gates_equal_the_spy_denotation_bit_for_bit():
    # the spy variable of each label bound to c times the point mass at
    # 0, against the evaluator scaling each mark by c where it meets it
    cfg = SemConfig()
    n = 0
    for t in _reference_cases():
        varmap = default_spy_vars(t)
        spied = spy(t, varmap)
        for rate, seeded in itertools.product(
                (0.0, Fraction(2, 5), Fraction(5, 7), 1.0), (False, True)):
            gates = {l: Dual(float(rate), {l: 1.0}) if seeded
                     else float(rate) for l in varmap}
            env = {varmap[l]: Dist({0: c} if c else {})
                   for l, c in gates.items()}
            for depth in (8, 64):
                ref, ev = _Eval(cfg, depth), _Eval(cfg, depth, gates)
                want = ref.obs(ref.eval(spied, env))
                got = ev.obs(ev.eval(t, {}))
                assert repr(got) == repr(want), (to_text(t), rate, seeded)
                assert ev.unconverged == ref.unconverged
                assert ev.diverging == ref.diverging
                n += 1
    assert n > 3000


def test_zero_gate_skips_its_body():
    # at rate 1 the pred meets overflow mass; at rate 0 it never runs
    t = parse_term("mark[a] (pred " + "succ " * 65 + "0)")
    assert repr(ground_denot(t, rates={"a": 0}).dist) \
        == repr(Dist({}, 0.0))
    with pytest.raises(PrecisionError):
        ground_denot(t)
