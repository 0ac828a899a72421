"""Abstract syntax, parser, printer and type checker for probabilistic PCF.

Terms are the usual PCF constructs over a single ground type ``nat``,
extended with a binary coin ``dice(r)`` (exact rational bias), a strict
``let`` on naturals, and cost marks ``mark[l] M`` that are transparent to
typing but counted by the labelled operational semantics.

The concrete grammar::

    term  :=  \\x:T. term
           |  let x = term in term
           |  ifz term then term else term
           |  item item*                      (application, left assoc)
    item  :=  succ item | pred item | fix item | mark[l] item | atom
    atom  :=  0 | 1 | 2 | ...
           |  dice(p/q) | dice(0.1)
           |  x
           |  (term)
    type  :=  nat | type -> type              (-> right assoc)

Prefix operators may also take an unparenthesised lambda, which extends
as far right as possible.

The tokens: a numeral is a run of decimal digits (``str.isdecimal``,
which is what ``int`` reads), and a decimal two runs joined by ``.``; an
identifier starts with a letter (``str.isalpha``) or ``_`` and goes on
with letters, digits (``str.isalnum``), ``_`` and ``'``, and the
keywords are the identifiers the grammar spells out; the symbols are
``-> \\ : . ( ) [ ] = /``.  Spaces, tabs, carriage returns and newlines
separate tokens, and ``#`` starts a comment running to end of line.
Any other character is a syntax error, and so is a numeral longer than
``int`` reads (``sys.get_int_max_str_digits``).
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import groupby
from operator import attrgetter
from typing import Iterator, Mapping, NamedTuple, Optional, Union

__all__ = [
    "Record", "MutableRecord",
    "Type", "Nat", "Arrow", "NAT",
    "Term", "Num", "Succ", "Pred", "Var", "Dice", "Let", "Ifz",
    "App", "Lam", "Fix", "Mark",
    "PpcfError", "PpcfSyntaxError", "PpcfTypeError",
    "num", "loop", "free_vars", "all_names", "fresh_name", "labels_of",
    "subst", "children", "rebuild", "subterms", "fold",
    "parse_term", "parse_type", "parse_lines", "is_identifier", "to_text",
    "type_to_text",
    "typecheck", "make_mq",
]


class PpcfError(Exception):
    """Base class for errors raised by this package."""


class PpcfSyntaxError(PpcfError):
    pass


class PpcfTypeError(PpcfError):
    pass


# ---------------------------------------------------------------------------
# records

_set = object.__setattr__


class Record:
    """Base of the package's value records: terms, types, machine states
    and the results and reports built from them.

    A record class lists its fields once, in ``__slots__`` (or in
    ``_fields``, when it has slots that are not fields), and gets a
    constructor taking them in that order.  A record that checks,
    converts or defaults an argument, or sets a slot that is not a
    field, writes its own ``__init__`` and sets fields with ``_set``.
    Records compare and hash by class and field values, print as
    ``Cls(field=value, ...)``, refuse assignment, and pickle and copy by
    calling the class on their fields.  A record that holds mutable
    state derives from ``MutableRecord`` instead.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        fields = cls._fields = cls.__dict__.get("_fields", cls.__slots__)
        if fields and "__init__" not in cls.__dict__:
            cls.__init__ = _constructor(cls, fields)
        # the methods read fields with attrgetter, which runs in C, and
        # a record of one field compares without building tuples
        if len(fields) == 1:
            get = attrgetter(fields[0])

            def values(self):
                return (get(self),)

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    a, b = get(self), get(other)
                    return a is b or a == b
                return NotImplemented

            def __hash__(self) -> int:
                return hash((get(self),))
        else:
            values = attrgetter(*fields) if fields else lambda self: ()

            def __eq__(self, other):
                if other.__class__ is self.__class__:
                    return self is other or values(self) == values(other)
                return NotImplemented

            def __hash__(self) -> int:
                return hash(values(self))

        cls._values = staticmethod(values)
        cls.__eq__ = __eq__
        if cls.__hash__ is not None:
            cls.__hash__ = __hash__

    def __repr__(self) -> str:
        inside = ", ".join(f"{f}={v!r}"
                           for f, v in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({inside})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (self.__class__, self._values(self))


def _constructor(cls, fields: tuple[str, ...]):
    """An ``__init__`` storing its arguments in the fields: by ``_set``
    on a frozen record, by assignment on a mutable one, which is faster
    and runs at every closure the evaluator builds."""
    store = "self.{0} = {0}" if cls.__setattr__ is _set \
        else "_set(self, {0!r}, {0})"
    ns = {"_set": _set}
    exec(f"def __init__(self, {', '.join(fields)}):\n"
         + "".join(f"    {store.format(f)}\n" for f in fields), ns)
    init = ns["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    return init


class MutableRecord(Record):
    """A record whose fields may be reassigned; it has no hash."""

    __slots__ = ()
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None


# ---------------------------------------------------------------------------
# types

class Nat(Record):
    __slots__ = ()

    def __str__(self) -> str:
        return "nat"


class Arrow(Record):
    __slots__ = ("dom", "cod")

    def __str__(self) -> str:
        return type_to_text(self)


Type = Union[Nat, Arrow]
NAT = Nat()


# ---------------------------------------------------------------------------
# terms

class Num(Record):
    __slots__ = ("n",)

    def __init__(self, n: int) -> None:
        if n < 0:
            raise PpcfSyntaxError(f"numeral must be nonnegative, got {n}")
        _set(self, "n", n)


class Succ(Record):
    __slots__ = ("arg",)


class Pred(Record):
    __slots__ = ("arg",)


class Var(Record):
    __slots__ = ("name",)


class Dice(Record):
    __slots__ = ("rate",)

    def __init__(self, rate: Fraction) -> None:
        if not isinstance(rate, Fraction):
            rate = Fraction(rate)
        if not (0 <= rate <= 1):
            raise PpcfSyntaxError(f"dice rate must lie in [0,1], got {rate}")
        _set(self, "rate", rate)


class Let(Record):
    __slots__ = ("name", "bound", "body")


class Ifz(Record):
    __slots__ = ("scrut", "zero", "pos")


class App(Record):
    __slots__ = ("fun", "arg")


class Lam(Record):
    __slots__ = ("name", "ty", "body")


class Fix(Record):
    __slots__ = ("arg",)


class Mark(Record):
    __slots__ = ("body", "label")


Term = Union[Num, Succ, Pred, Var, Dice, Let, Ifz, App, Lam, Fix, Mark]

_NUM_CACHE: dict[int, Num] = {}


def num(n: int) -> Num:
    """Interned numerals; the machine churns through small ones."""
    t = _NUM_CACHE.get(n)
    if t is None:
        t = _NUM_CACHE[n] = Num(n)
    return t


def loop(ty: Type) -> Fix:
    """The always-divergent term at ``ty``: fix (\\x:ty. x)."""
    return Fix(Lam("x", ty, Var("x")))


# ---------------------------------------------------------------------------
# term shape: the subterms of each constructor, and walks over them

def children(t: Term) -> tuple[tuple[Term, Optional[tuple[str, Type]]], ...]:
    """The immediate subterms of t in order, each paired with the binder
    (name, type) it sits under, or None."""
    cls = type(t)
    if cls is Num or cls is Var or cls is Dice:
        return ()
    if cls is Succ or cls is Pred or cls is Fix:
        return ((t.arg, None),)
    if cls is App:
        return ((t.fun, None), (t.arg, None))
    if cls is Ifz:
        return ((t.scrut, None), (t.zero, None), (t.pos, None))
    if cls is Lam:
        return ((t.body, (t.name, t.ty)),)
    if cls is Let:
        return ((t.bound, None), (t.body, (t.name, NAT)))
    if cls is Mark:
        return ((t.body, None),)
    raise TypeError(f"not a term: {t!r}")


def rebuild(t: Term, kids) -> Term:
    """t with its subterms replaced by kids (in children order); t itself
    when every kid is the subterm it replaces."""
    for k, (c, _) in zip(kids, children(t)):
        if k is not c:
            break
    else:
        return t
    cls = type(t)
    if cls is Lam:
        return Lam(t.name, t.ty, kids[0])
    if cls is Let:
        return Let(t.name, kids[0], kids[1])
    if cls is Mark:
        return Mark(kids[0], t.label)
    return cls(*kids)


def subterms(t: Term) -> Iterator[Term]:
    """t and all its subterms, in preorder."""
    todo = [t]
    while todo:
        s = todo.pop()
        yield s
        todo.extend(c for c, _ in reversed(children(s)))


def fold(t: Term, post, scope: Optional[dict] = None, pre=None):
    """Bottom-up over t with an explicit stack, so any depth is fine.

    ``post(s, vals, scope)`` gives the value of subterm s from the values
    of its children, in children order.  ``pre(s, scope)``, if given, is
    asked first: a result other than None is s's value, and s's children
    are not visited.  ``scope`` maps the names bound around s to their
    types (it starts as the given dict, or empty); it is updated in place
    around Lam and Let bodies and is back to its starting state when fold
    returns.
    """
    if scope is None:
        scope = {}
    # vals holds the values of the first i children of s; a frame holds
    # an ancestor's state and what the binder of its current child hid
    stack: list = []
    s, kids, vals, i = None, ((t, None),), [], 0     # t under a dummy root
    while True:
        if i < len(kids):
            c, b = kids[i]
            i += 1
            hidden = None
            if b is not None:
                hidden = scope.get(b[0])
                scope[b[0]] = b[1]
            r = None if pre is None else pre(c, scope)
            if r is None:
                stack.append((s, kids, vals, i, hidden))
                s, kids, vals, i = c, children(c), [], 0
                continue
        elif stack:
            r = post(s, vals, scope)
            s, kids, vals, i, hidden = stack.pop()
        else:
            return vals[0]
        b = kids[i - 1][1]
        if b is not None:
            if hidden is None:
                del scope[b[0]]
            else:
                scope[b[0]] = hidden
        vals.append(r)


def free_vars(t: Term) -> frozenset[str]:
    def post(s, vals, scope):
        if type(s) is Var:
            return frozenset() if s.name in scope else frozenset((s.name,))
        return frozenset().union(*vals)
    return fold(t, post)


def all_names(t: Term) -> frozenset[str]:
    """Every variable name occurring in t, free or bound."""
    return frozenset(s.name for s in subterms(t)
                     if type(s) in (Var, Lam, Let))


def fresh_name(name: str, taken) -> str:
    """name with ``_`` appended until it is not in taken."""
    while name in taken:
        name += "_"
    return name


def labels_of(t: Term) -> frozenset[str]:
    return frozenset(s.label for s in subterms(t) if type(s) is Mark)


def subst(t: Term, name: str, repl: Term) -> Term:
    """t with repl for free occurrences of name.  repl must be closed,
    so no capture is possible; subterms without a free name are shared."""
    def pre(s, scope):
        # the machine substitutes on every fresh beta and fix unrolling:
        # leaves and shadowed bodies are settled without a visit
        cls = type(s)
        if name in scope or cls is Num or cls is Dice:
            return s
        if cls is Var:
            return repl if s.name == name else s
        return None
    return fold(t, lambda s, vals, scope: rebuild(s, vals), pre=pre)


# ---------------------------------------------------------------------------
# tokenizer

_KEYWORDS = frozenset(
    ["succ", "pred", "dice", "let", "in", "ifz", "then", "else",
     "fix", "mark", "nat"])


class _Tok(NamedTuple):
    kind: str          # num | dec | ident | kw | sym | eof
    text: str
    line: int
    col: int


# one alternative per token class, tried in order; \d is a decimal digit
# (str.isdecimal) and \w a letter, digit or _ (str.isalnum or _)
_TOKEN = re.compile(r"""
    (?P<nl>\n) | (?P<skip>[ \t\r]+|\#[^\n]*)
  | (?P<dec>\d+\.\d+) | (?P<num>\d+) | (?P<ident>[^\W\d][\w']*)
  | (?P<sym>->|[\\:.()\[\]=/]) | (?P<stray>.)
""", re.VERBOSE)


def _tokenize(src: str) -> list[_Tok]:
    toks: list[_Tok] = []
    line, bol = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "nl":
            line, bol = line + 1, m.end()
            continue
        if kind == "skip":
            continue
        col = m.start() - bol + 1
        # \w also holds digits that are not decimal, such as '²'
        if kind == "stray" or kind == "ident" and not (
                text[0].isalpha() or text[0] == "_"):
            raise PpcfSyntaxError(
                f"line {line}:{col}: stray character {text[0]!r}")
        if kind == "ident" and text in _KEYWORDS:
            kind = "kw"
        toks.append(_Tok(kind, text, line, col))
    toks.append(_Tok("eof", "", line, len(src) - bol + 1))
    return toks


# prefix operators; mark[l] is one too, read apart for its label
_PREFIX = {"succ": Succ, "pred": Pred, "fix": Fix}


class _Parser:
    def __init__(self, toks: list[_Tok]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> _Tok:
        return self.toks[self.pos]

    def next(self) -> _Tok:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def fail(self, msg: str) -> None:
        t = self.peek()
        where = f"line {t.line}:{t.col}"
        got = "end of input" if t.kind == "eof" else repr(t.text)
        raise PpcfSyntaxError(f"{where}: {msg}, got {got}")

    def expect(self, kind: str, text: str) -> _Tok:
        t = self.peek()
        if t.kind != kind or t.text != text:
            self.fail(f"expected {text!r}")
        return self.next()

    def at(self, kind: str, text: str) -> bool:
        t = self.peek()
        return t.kind == kind and t.text == text

    def whole(self, rule):
        """rule's parse of the whole input."""
        out = rule(self)
        if self.peek().kind != "eof":
            self.fail("trailing input")
        return out

    # -- types ------------------------------------------------------------

    def type_(self) -> Type:
        left = self.type_atom()
        if self.at("sym", "->"):
            self.next()
            return Arrow(left, self.type_())
        return left

    def type_atom(self) -> Type:
        t = self.peek()
        if t.kind == "kw" and t.text == "nat":
            self.next()
            return NAT
        if t.kind == "sym" and t.text == "(":
            self.next()
            ty = self.type_()
            self.expect("sym", ")")
            return ty
        self.fail("expected a type")
        raise AssertionError

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        t = self.peek()
        if t.kind == "sym" and t.text == "\\":
            self.next()
            name = self.ident()
            self.expect("sym", ":")
            ty = self.type_()
            self.expect("sym", ".")
            return Lam(name, ty, self.term())
        if t.kind == "kw" and t.text == "let":
            self.next()
            name = self.ident()
            self.expect("sym", "=")
            bound = self.term()
            self.expect("kw", "in")
            return Let(name, bound, self.term())
        if t.kind == "kw" and t.text == "ifz":
            self.next()
            scrut = self.term()
            self.expect("kw", "then")
            zero = self.term()
            self.expect("kw", "else")
            return Ifz(scrut, zero, self.term())
        return self.app()

    def app(self) -> Term:
        t = self.item()
        while self.starts_item():
            t = App(t, self.item())
        return t

    def starts_item(self) -> bool:
        t = self.peek()
        return (t.kind in ("num", "ident") or self.at("sym", "(")
                or t.kind == "kw" and (t.text in _PREFIX
                                       or t.text in ("mark", "dice")))

    def item(self) -> Term:
        # a prefix chain loops rather than recurses, so it may nest deeply
        wraps = []
        while self.peek().kind == "kw":
            op = self.peek().text
            if op == "mark":
                self.next()
                self.expect("sym", "[")
                label = self.ident()
                self.expect("sym", "]")
                wraps.append(lambda body, label=label: Mark(body, label))
            elif op in _PREFIX:
                self.next()
                wraps.append(_PREFIX[op])
            else:
                break
        # prefix operators accept a trailing lambda without parentheses
        if wraps and self.at("sym", "\\"):
            t = self.term()
        elif self.at("kw", "dice"):
            self.next()
            self.expect("sym", "(")
            rate = self.rational()
            self.expect("sym", ")")
            t = Dice(rate)
        else:
            t = self.atom()
        for wrap in reversed(wraps):
            t = wrap(t)
        return t

    def atom(self) -> Term:
        t = self.peek()
        if t.kind == "num":
            return num(self.numeral(int))
        if t.kind == "ident":
            self.next()
            return Var(t.text)
        if t.kind == "sym" and t.text == "(":
            self.next()
            body = self.term()
            self.expect("sym", ")")
            return body
        self.fail("expected a term")
        raise AssertionError

    def ident(self) -> str:
        t = self.peek()
        if t.kind != "ident":
            self.fail("expected an identifier")
        return self.next().text

    def numeral(self, convert):
        """convert of the next token's text; int() and Fraction() refuse
        more than sys.get_int_max_str_digits() digits."""
        t = self.next()
        try:
            return convert(t.text)
        except ValueError:
            raise PpcfSyntaxError(f"line {t.line}:{t.col}: numeral of "
                                  f"{len(t.text)} characters is too long")

    def rational(self) -> Fraction:
        t = self.peek()
        if t.kind == "dec":
            return self.numeral(Fraction)
        if t.kind == "num":
            p = self.numeral(int)
            if self.at("sym", "/"):
                self.next()
                if self.peek().kind != "num":
                    self.fail("expected a denominator")
                q = self.numeral(int)
                if q == 0:
                    self.fail("zero denominator")
                return Fraction(p, q)
            return Fraction(p)
        self.fail("expected a rational")
        raise AssertionError


def parse_term(src: str) -> Term:
    return _Parser(_tokenize(src)).whole(_Parser.term)


def parse_type(src: str) -> Type:
    return _Parser(_tokenize(src)).whole(_Parser.type_)


def parse_lines(src: str) -> list[tuple[int, Term]]:
    """The term on each line of src that holds a token, with its line
    number; a syntax error gives its line and column in src."""
    out = []
    for line, toks in groupby(_tokenize(src)[:-1], attrgetter("line")):
        toks = list(toks)
        end = toks[-1].col + len(toks[-1].text)
        toks.append(_Tok("eof", "", line, end))
        out.append((line, _Parser(toks).whole(_Parser.term)))
    return out


def is_identifier(name: str) -> bool:
    """Whether name reads as one identifier that is not a keyword."""
    try:
        toks = _tokenize(name)
    except PpcfSyntaxError:
        return False
    return len(toks) == 2 and toks[0].kind == "ident" and toks[0].text == name


# ---------------------------------------------------------------------------
# printer

def type_to_text(ty: Type) -> str:
    if type(ty) is Nat:
        return "nat"
    dom = type_to_text(ty.dom)
    if type(ty.dom) is Arrow:
        dom = f"({dom})"
    return f"{dom} -> {type_to_text(ty.cod)}"


_ATOM, _ITEM, _APP, _TERM = range(4)

# per constructor: the text of a leaf, or the context level a node needs
# and its pieces, each text or (subterm, the level it is printed at)
_PIECES = {
    Num: lambda s: str(s.n),
    Var: lambda s: s.name,
    Dice: lambda s: f"dice({s.rate})",
    Succ: lambda s: (_ITEM, ["succ ", (s.arg, _ATOM)]),
    Pred: lambda s: (_ITEM, ["pred ", (s.arg, _ATOM)]),
    Fix: lambda s: (_ITEM, ["fix ", (s.arg, _ATOM)]),
    Mark: lambda s: (_ITEM, [f"mark[{s.label}] ", (s.body, _ATOM)]),
    App: lambda s: (_APP, [(s.fun, _APP), " ", (s.arg, _ITEM)]),
    Lam: lambda s: (_TERM, [f"\\{s.name}:{s.ty}. ", (s.body, _TERM)]),
    Let: lambda s: (_TERM, [f"let {s.name} = ", (s.bound, _TERM), " in ",
                            (s.body, _TERM)]),
    Ifz: lambda s: (_TERM, ["ifz ", (s.scrut, _TERM), " then ",
                            (s.zero, _TERM), " else ", (s.pos, _TERM)]),
}


def to_text(t: Term) -> str:
    """Concrete syntax that parses back to the same tree.

    Prefix operands print in parentheses (``succ (succ 0)``), and the
    parser recurses through parentheses, so a prefix chain deeper than
    about 240 prints but does not parse back."""
    out: list[str] = []
    todo: list = [(t, _TERM)]
    while todo:
        item = todo.pop()
        if type(item) is str:
            out.append(item)
            continue
        s, level = item
        pieces = _PIECES.get(type(s))
        if pieces is None:
            raise TypeError(f"not a term: {s!r}")
        r = pieces(s)
        if type(r) is str:
            out.append(r)
            continue
        need, parts = r
        if need > level:
            parts = ["(", *parts, ")"]
        todo.extend(reversed(parts))
    return "".join(out)


# ---------------------------------------------------------------------------
# type checker

def typecheck(t: Term, ctx: Optional[Mapping[str, Type]] = None) -> Type:
    """Type of t under ctx, or raise PpcfTypeError."""
    return fold(t, _type_step, dict(ctx) if ctx else {})


def _type_step(t: Term, kids: list, ctx: dict[str, Type]) -> Type:
    """Type of t under ctx given the types of its children: the fold
    step of typecheck, for walks that need types along the way."""
    cls = type(t)
    if cls is Num or cls is Dice:
        return NAT
    if cls is Var:
        ty = ctx.get(t.name)
        if ty is None:
            raise PpcfTypeError(f"unbound variable {t.name!r}")
        return ty
    if cls is Succ or cls is Pred:
        _want(t.arg, kids[0], NAT, "argument of succ/pred")
        return NAT
    if cls is Mark:
        return kids[0]
    if cls is Lam:
        return Arrow(t.ty, kids[0])
    if cls is App:
        fun = kids[0]
        if type(fun) is not Arrow:
            raise PpcfTypeError(
                f"cannot apply a term of type {fun} in {to_text(t)}")
        _want(t.arg, kids[1], fun.dom, "operand")
        return fun.cod
    if cls is Fix:
        ty = kids[0]
        if type(ty) is not Arrow or ty.dom != ty.cod:
            raise PpcfTypeError(
                f"fix needs a term of type s -> s, found {ty}")
        return ty.dom
    if cls is Let:
        _want(t.bound, kids[0], NAT, "let binding")
        return kids[1]
    _want(t.scrut, kids[0], NAT, "ifz scrutinee")
    zero, pos = kids[1], kids[2]
    if zero != pos:
        raise PpcfTypeError(f"ifz branches disagree: {zero} versus {pos}")
    return zero


def _want(t: Term, found: Type, ty: Type, what: str) -> None:
    if found != ty:
        raise PpcfTypeError(f"{what} must have type {ty}, found {found} "
                            f"in {to_text(t)}")


# ---------------------------------------------------------------------------
# the test family from the expected-runtime example

def make_mq(q) -> Term:
    """The recursive coin program of bias q, of type nat -> nat.

    On a coin showing 0 (probability q) the function calls itself twice
    on its argument and returns 0 only if both calls do; otherwise it
    tests its argument twice the same way.  Convergence probability and
    expected number of argument uses have closed forms, which makes the
    family a good oracle for the semantic derivative machinery.
    """
    q = Fraction(q)
    omega = loop(NAT)

    def gate(scrut: Term) -> Term:
        return Ifz(scrut, Ifz(scrut, num(0), omega), omega)

    f, x = Var("f"), Var("x")
    body = Ifz(Dice(q), gate(App(f, x)), gate(x))
    return Fix(Lam("f", Arrow(NAT, NAT), Lam("x", NAT, body)))
