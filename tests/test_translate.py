from fractions import Fraction

import pytest

from ppcf.machine import enumerate_paths, init_state
from ppcf.progen import gen_corpus
from ppcf.semantics import SemConfig, prob_zero, spy_denot, sval
from ppcf.syntax import (
    NAT, Arrow, Dice, Ifz, Mark, PpcfError, PpcfTypeError, Var, free_vars,
    labels_of, parse_term, subterms, typecheck,
)
from ppcf.translate import default_spy_vars, lcof, spy, strip

LETPAIR = parse_term("""
    let x = dice(1/3) in
    ifz x then mark[a] 0
    else ifz mark[b] dice(2/5) then 0 else succ x
""")


def count_nodes(t, cls):
    n = isinstance(t, cls)
    for f in getattr(t, "__dataclass_fields__", ()):
        v = getattr(t, f)
        if hasattr(v, "__dataclass_fields__"):
            n += count_nodes(v, cls)
    return n


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
    via_spy = sval(spy_denot(LETPAIR, rates, None, cfg).dist.mass0())
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
