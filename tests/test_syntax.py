import random
from fractions import Fraction

import pytest

from ppcf.machine import enumerate_paths, init_state
from ppcf.progen import gen_corpus, gen_program
from ppcf.syntax import (
    NAT, App, Arrow, Dice, Fix, Ifz, Lam, Let, Mark, Num, Pred,
    PpcfSyntaxError, PpcfTypeError, Succ, Var, all_names, children, fold,
    free_vars, labels_of, loop, make_mq, num, parse_term,
    parse_type, rebuild, subst, subterms, to_text, type_to_text, typecheck,
)
from ppcf.translate import spy, strip


def test_numerals_interned():
    assert num(3) is num(3)
    assert num(0) == Num(0)


def test_parse_atoms():
    assert parse_term("42") == num(42)
    assert parse_term("dice(1/3)") == Dice(Fraction(1, 3))
    assert parse_term("dice(0.25)") == Dice(Fraction(1, 4))
    assert parse_term("dice(1)") == Dice(Fraction(1))
    assert parse_term("x") == Var("x")


def test_parse_structure():
    t = parse_term(r"\x:nat. succ x")
    assert t == Lam("x", NAT, Succ(Var("x")))
    # application associates left, prefix operators bind one operand
    assert parse_term("f x y") == App(App(Var("f"), Var("x")), Var("y"))
    assert parse_term("succ f x") == App(Succ(Var("f")), Var("x"))
    assert parse_term("f (succ x)") == App(Var("f"), Succ(Var("x")))
    # else binds to the nearest ifz
    t = parse_term("ifz a then b else ifz c then d else e")
    assert t == Ifz(Var("a"), Var("b"), Ifz(Var("c"), Var("d"), Var("e")))
    t = parse_term("let x = dice(1/2) in ifz x then 0 else 1")
    assert t == Let("x", Dice(Fraction(1, 2)),
                    Ifz(Var("x"), num(0), num(1)))
    assert parse_term("mark[l] succ 0") == Mark(Succ(num(0)), "l")
    assert parse_term("fix (\\x:nat. x)") == loop(NAT)


def test_parse_comments_and_layout():
    t = parse_term("""
        # leading comment
        let x = dice(1/3) in   # inline comment
        succ x
    """)
    assert t == Let("x", Dice(Fraction(1, 3)), Succ(Var("x")))


def test_parse_types():
    assert parse_type("nat") == NAT
    assert parse_type("nat -> nat") == Arrow(NAT, NAT)
    # arrow associates right
    assert parse_type("nat -> nat -> nat") == Arrow(NAT, Arrow(NAT, NAT))
    assert parse_type("(nat -> nat) -> nat") == Arrow(Arrow(NAT, NAT), NAT)
    assert type_to_text(parse_type("(nat -> nat) -> nat")) \
        == "(nat -> nat) -> nat"


@pytest.mark.parametrize("src", [
    "", "succ", "dice(3/2)", "dice(-1/2)", "dice(x)", "(1", "\\x. x",
    "let x = 1", "ifz x then 1", "mark 0", "1 2 3)",
])
def test_parse_rejects(src):
    with pytest.raises(PpcfSyntaxError):
        parse_term(src)


def test_dice_rate_bounds():
    with pytest.raises(PpcfSyntaxError):
        Dice(Fraction(3, 2))
    with pytest.raises(PpcfSyntaxError):
        Dice(Fraction(-1, 5))


def test_roundtrip_generated():
    # printing then parsing is the identity on a generated corpus
    for i in range(60):
        t = gen_program(i, labeled=(i % 2 == 0))
        txt = to_text(t)
        assert parse_term(txt) == t
        assert to_text(parse_term(txt)) == txt


def test_roundtrip_random_syntax():
    # deeper shapes than the generator produces, including arrow vars
    rng = random.Random(5)

    def build(depth):
        k = rng.randrange(10 if depth else 3)
        if k == 0:
            return num(rng.randrange(3))
        if k == 1:
            return Dice(Fraction(rng.randrange(3), 4))
        if k == 2:
            return Var(rng.choice("uvw"))
        if k == 3:
            return Succ(build(depth - 1))
        if k == 4:
            return Pred(build(depth - 1))
        if k == 5:
            return Let("u", build(depth - 1), build(depth - 1))
        if k == 6:
            return Ifz(build(depth - 1), build(depth - 1), build(depth - 1))
        if k == 7:
            return App(build(depth - 1), build(depth - 1))
        if k == 8:
            ty = Arrow(NAT, NAT) if rng.random() < 0.3 else NAT
            return Lam(rng.choice("uvw"), ty, build(depth - 1))
        return Mark(build(depth - 1), rng.choice("lm"))

    for _ in range(300):
        t = build(4)
        assert parse_term(to_text(t)) == t


def test_typecheck_basics():
    assert typecheck(num(7)) == NAT
    assert typecheck(parse_term(r"\f:nat -> nat. \x:nat. f (f x)")) \
        == Arrow(Arrow(NAT, NAT), Arrow(NAT, NAT))
    assert typecheck(make_mq(Fraction(1, 4))) == Arrow(NAT, NAT)
    assert typecheck(App(make_mq(Fraction(1, 4)), num(0))) == NAT
    assert typecheck(Var("x"), {"x": Arrow(NAT, NAT)}) == Arrow(NAT, NAT)
    # marks are transparent
    assert typecheck(Mark(Lam("x", NAT, Var("x")), "l")) == Arrow(NAT, NAT)


@pytest.mark.parametrize("src", [
    "x",                                  # unbound
    "succ (\\x:nat. x)",
    "ifz (\\x:nat. x) then 0 else 1",
    "0 1",                                # nat applied
    "let f = \\x:nat. x in f 0",          # let binds at ground type only
    "(\\f:nat -> nat. f) 0",
    "fix (\\x:nat. \\y:nat. x)",          # body type differs from arg
])
def test_typecheck_rejects(src):
    with pytest.raises(PpcfTypeError):
        typecheck(parse_term(src))


def test_free_vars_and_names():
    t = parse_term(r"\x:nat. ifz y then x else mark[l] z")
    assert free_vars(t) == {"y", "z"}
    assert {"x", "y", "z"} <= set(all_names(t))
    assert labels_of(t) == {"l"}
    assert labels_of(parse_term("0")) == frozenset()


def test_subst_shadowing():
    body = parse_term(r"ifz x then x else (\x:nat. x) 0")
    out = subst(body, "x", num(3))
    # the lambda-bound x is untouched
    assert out == parse_term(r"ifz 3 then 3 else (\x:nat. x) 0")
    letb = parse_term("let x = x in x")
    assert subst(letb, "x", num(1)) == parse_term("let x = 1 in x")


def test_subst_shares_unchanged_nodes():
    t = parse_term("ifz y then 0 else succ 0")
    assert subst(t, "x", num(5)) is t


@pytest.mark.parametrize("src, msg", [
    ("x", "unbound variable 'x'"),
    ("succ (\\x:nat. x)", "argument of succ/pred must have type nat, "
                          "found nat -> nat in \\x:nat. x"),
    ("ifz (\\x:nat. x) then 0 else 1", "ifz scrutinee must have type nat, "
                                      "found nat -> nat in \\x:nat. x"),
    ("0 1", "cannot apply a term of type nat in 0 1"),
    ("let f = \\x:nat. x in 0", "let binding must have type nat, "
                                 "found nat -> nat in \\x:nat. x"),
    ("(\\f:nat -> nat. f) 0", "operand must have type nat -> nat, "
                             "found nat in 0"),
    ("fix (\\x:nat. \\y:nat. x)",
     "fix needs a term of type s -> s, found nat -> nat -> nat"),
    ("ifz 0 then 0 else \\x:nat. x",
     "ifz branches disagree: nat versus nat -> nat"),
])
def test_type_error_messages(src, msg):
    with pytest.raises(PpcfTypeError) as e:
        typecheck(parse_term(src))
    assert str(e.value) == msg


def test_rebuild_with_same_children_is_identity():
    for t in gen_corpus(50, 20260814, labeled=True):
        for s in subterms(t):
            assert rebuild(s, [c for c, _ in children(s)]) is s


def test_children_binders_and_rebuild():
    t = parse_term(r"let y = 1 in \x:nat -> nat. mark[l] x y")
    (bound, b0), (lam, b1) = children(t)
    assert (bound, b0, b1) == (num(1), None, ("y", NAT))
    assert children(lam) == ((lam.body, ("x", Arrow(NAT, NAT))),)
    assert rebuild(t, [num(2), lam]) == Let("y", num(2), lam)
    mark = lam.body.fun
    assert rebuild(mark, [Var("z")]) == Mark(Var("z"), "l")
    assert [type(s).__name__ for s in subterms(t)] == \
        ["Let", "Num", "Lam", "App", "Mark", "Var", "Var"]


def test_fold_scope():
    # a subterm sees each name at the type of its innermost binder, and
    # the starting scope is left as it was
    t = parse_term(r"\x:nat. let x = x in \y:nat -> nat. x")
    seen = []

    def post(s, vals, scope):
        if type(s) is Var:
            seen.append(dict(scope))
        return None

    ctx = {"x": Arrow(NAT, NAT)}
    fold(t, post, ctx)
    assert ctx == {"x": Arrow(NAT, NAT)}
    assert seen == [{"x": NAT}, {"x": NAT, "y": Arrow(NAT, NAT)}]


def test_fold_pre_settles_without_visiting():
    # pre's value stands for the whole subterm; the binders it sat under
    # leave the scope all the same
    t = parse_term(r"\x:nat. let y = succ x in \z:nat. pred y")
    visited, scopes = [], []

    def pre(s, scope):
        if type(s) in (Succ, Pred):
            scopes.append(dict(scope))
            return type(s).__name__
        return None

    def post(s, vals, scope):
        visited.append(type(s).__name__)
        return vals

    ctx = {"w": NAT}
    assert fold(t, post, ctx, pre) == [["Succ", ["Pred"]]]
    assert ctx == {"w": NAT}
    assert visited == ["Lam", "Let", "Lam"]      # bottom-up
    assert scopes == [{"w": NAT, "x": NAT},
                      {"w": NAT, "x": NAT, "y": NAT, "z": NAT}]


def test_subst_removes_exactly_the_free_name():
    for t in gen_corpus(50, 20260814, labeled=True):
        for s in subterms(t):
            if type(s) is Lam:
                for name in free_vars(s.body) | {s.name}:
                    out = subst(s.body, name, num(7))
                    assert free_vars(out) == free_vars(s.body) - {name}
                    if name not in free_vars(s.body):
                        assert out is s.body


def test_deep_prefix_chain():
    # 10^5 nested prefix operators: nothing on the way recurses
    n = 100_000
    t = parse_term("succ " * n + "mark[a] 0")
    assert typecheck(t) == NAT
    text = to_text(t)
    assert text == "succ (" * n + "mark[a] 0" + ")" * n
    stripped = strip(t)
    assert labels_of(stripped) == frozenset()
    assert free_vars(spy(t)) == {"r_a"}
    assert free_vars(t) == frozenset() and labels_of(t) == {"a"}
    res = enumerate_paths(init_state(t))
    assert res.rejected_mass == 1 and res.open_mass == 0
