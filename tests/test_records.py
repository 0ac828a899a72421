"""The record contract: every value record in the package compares,
hashes, prints, refuses assignment and pickles as a frozen dataclass
with the same fields would (a mutable one as a plain dataclass)."""

import copy
import dataclasses
import functools
import gc
import pickle
from fractions import Fraction

import pytest

from ppcf import machine, observe, pcs, semantics, syntax
from ppcf.syntax import (
    NAT, App, Arrow, Dice, Fix, Ifz, Lam, Let, Mark, MutableRecord, Num,
    PpcfError, PpcfSyntaxError, Pred, Record, Succ, Var, make_mq, num,
)

X = Var("x")
SAMPLES = [
    syntax.Nat(),
    Arrow(NAT, Arrow(NAT, NAT)),
    num(3),
    Succ(X),
    Pred(X),
    X,
    Dice(Fraction(1, 3)),
    Let("y", num(1), X),
    Ifz(X, num(0), num(1)),
    App(X, num(2)),
    Lam("x", NAT, X),
    Fix(Lam("x", NAT, X)),
    Mark(X, "t"),
    machine.State(App(make_mq(Fraction(1, 2)), num(0)), (Succ(X),)),
    machine.PathRecord("01", Fraction(1, 4), {"t": 2}, 17),
    machine.EnumerationResult([], Fraction(1, 2), Fraction(1, 4),
                              Fraction(0), Fraction(1, 4), 100, 8),
    machine.SampleRecord(True, 0, {}, 5),
    machine.CountEstimate("t", 10, 4, 0.4, 2.5, 0.1, 7, 5000),
    semantics.SemConfig(nmax=8, fix_iters=50, tol=1e-6),
    semantics.GroundResult(semantics.ZERO, True, 8),
    semantics.ExpectedCount("t", semantics.OK, 1.5, 3.0, 0.5, True),
    semantics.FdCheck("t", 1e-3, 0.999, 2.0, 2.0000001),
    semantics.Closure("x", X, {}),
    semantics.VFix("family", 8),
    semantics.VSum(((0.5, semantics.Closure("y", X, {})),)),
    observe.TamedReport(0.5, 0.2, 0.2, [(0, 0.1)], []),
    pcs.PowerSeries((0,), ("*",), {((0,), "*"): 1.0}),
    pcs.TrialReport("distance axioms", 3, [], 0.5),
    pcs.ChainReport(3, 0.0, 1e-9, None),
]
IDS = [type(r).__qualname__ for r in SAMPLES]


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_every_record_class_has_a_sample():
    classes = set(_subclasses(Record)) - {MutableRecord}
    assert classes == {type(r) for r in SAMPLES}


def _fields(r):
    return tuple(getattr(r, f) for f in r._fields)


@functools.cache
def _dataclass_for(cls):
    return dataclasses.make_dataclass(
        cls.__qualname__, cls._fields,
        frozen=not issubclass(cls, MutableRecord))


def _as_dataclass(r):
    """The dataclass with r's class name and fields, holding r's values."""
    return _dataclass_for(type(r))(*_fields(r))


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_repr_is_the_dataclass_repr(r):
    assert repr(r) == repr(_as_dataclass(r))


def test_repr_pins():
    assert repr(Lam("x", NAT, X)) == \
        "Lam(name='x', ty=Nat(), body=Var(name='x'))"
    # the state's memo is not a field, so it does not print
    state = machine.init_state(num(0))
    machine.sample(state, 1)
    assert repr(state) == "State(focus=Num(n=0), frames=())"


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_equality_and_hash_go_by_class_and_fields(r):
    twin = type(r)(*_fields(r))
    assert twin is not r and twin == r and not twin != r
    assert (r == _as_dataclass(r)) is False
    if isinstance(r, MutableRecord):
        with pytest.raises(TypeError):
            hash(r)
        return
    try:
        want = hash(_fields(r))
    except TypeError:           # a list or dict field: no hash, as before
        with pytest.raises(TypeError):
            hash(r)
    else:
        assert hash(r) == hash(twin) == want


def test_equal_fields_of_different_classes_differ():
    assert Succ(num(0)) != Pred(num(0))
    assert Succ(num(0)) == Succ(num(0))
    assert App(X, X) != Let("x", X, X)
    assert len({Succ(num(0)), Pred(num(0)), Fix(num(0))}) == 3


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
def test_assignment(r):
    name = r._fields[0] if r._fields else "x"
    if isinstance(r, MutableRecord):
        setattr(r, name, getattr(r, name))
        return
    with pytest.raises(AttributeError):
        setattr(r, name, None)
    with pytest.raises(AttributeError):
        delattr(r, name)
    with pytest.raises(AttributeError):
        r.extra = 1


def test_constructors_still_check():
    with pytest.raises(PpcfSyntaxError):
        Num(-1)
    with pytest.raises(PpcfSyntaxError):
        Dice(2)
    assert Dice(0.5).rate == Fraction(1, 2)
    with pytest.raises(PpcfError):
        semantics.SemConfig(tol=0.0)


@pytest.mark.parametrize("r", SAMPLES, ids=IDS)
@pytest.mark.parametrize("clone", [
    lambda r: pickle.loads(pickle.dumps(r)), copy.deepcopy, copy.copy,
], ids=["pickle", "deepcopy", "copy"])
def test_pickle_and_copy_round_trip(r, clone):
    back = clone(r)
    assert type(back) is type(r) and repr(back) == repr(r)
    # equal unless a field compares by identity, as semantics.Dist does
    assert (back == r) == (_as_dataclass(back) == _as_dataclass(r))
    assert back == r or type(r) is semantics.GroundResult


def test_a_copied_state_has_an_empty_memo():
    state = machine.init_state(App(make_mq(Fraction(3, 4)), num(0)))
    for i in range(20):
        machine.sample(state, i, max_steps=500)
    assert state.cache.segments and state.cache.table
    for back in (pickle.loads(pickle.dumps(state)), copy.deepcopy(state)):
        assert back == state
        assert not back.cache.segments and not back.cache.table
        assert not back.cache.coins


def test_only_records_that_check_or_default_write_a_constructor():
    # every other record gets the one generated from its fields
    own = {cls.__qualname__ for cls in map(type, SAMPLES)
           if "__init__" in vars(cls)
           and cls.__init__.__code__.co_filename != "<string>"}
    assert own == {"Num", "Dice", "State", "SemConfig", "GroundResult",
                   "PowerSeries"}


@pytest.fixture
def declared():
    """A frozen and a mutable record declared for one test, collected
    after it so that the package's record classes stay the only ones."""
    class Pair(Record):
        __slots__ = ("left", "right")

    class Cell(MutableRecord):
        __slots__ = ("value", "note")

    classes = [Pair, Cell]
    yield classes
    classes.clear()
    del Pair, Cell
    gc.collect()


def test_generated_constructor_takes_fields_by_position_and_keyword(
        declared):
    for cls in declared:
        first, second = cls._fields
        r = cls(1, [2])
        assert _fields(r) == (1, [2])
        assert cls(**{second: [2], first: 1}) == r == cls(1, **{second: [2]})


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((), {}), ((1, 2, 3), {}), ((1, 2), {"extra": 3}),
    ((1,), {"other": 2}),
])
def test_generated_constructor_refuses_missing_and_extra_arguments(
        declared, args, kwargs):
    for cls in declared:
        with pytest.raises(TypeError, match=r"Pair|Cell"):
            cls(*args, **kwargs)


def test_generated_constructor_leaves_a_mutable_record_assignable(declared):
    pair, cell = (cls(1, 2) for cls in declared)
    cell.value = 3
    cell.note = "n"
    assert _fields(cell) == (3, "n")
    with pytest.raises(AttributeError):
        pair.left = 3
    assert _fields(pair) == (1, 2) and hash(pair) == hash((1, 2))
