"""Bundled example programs and observation contexts.

Programs are ``.ppcf`` files holding one closed term each; the context
file holds one ``nat -> nat`` term per non-comment line.
"""

from __future__ import annotations

from importlib import resources
from typing import List

from ..syntax import (
    NAT, Arrow, PpcfError, Term, parse_lines, parse_term, typecheck,
)

__all__ = ["program_names", "load_program", "load_contexts", "parse_contexts",
           "read_text"]


def _root():
    return resources.files(__package__)


def read_text(name: str) -> str:
    return (_root() / name).read_text(encoding="utf-8")


def program_names() -> List[str]:
    names = [p.name[:-5] for p in _root().iterdir()
             if p.name.endswith(".ppcf")]
    return sorted(names)


def load_program(name: str) -> Term:
    t = parse_term(read_text(name + ".ppcf"))
    typecheck(t)
    return t


def load_contexts(name: str = "contexts") -> List[Term]:
    return parse_contexts(read_text(name + ".ctx"))


def parse_contexts(text: str) -> List[Term]:
    """The ``nat -> nat`` terms of a context file, one per line.  An
    error names its line, and a file without contexts is an error."""
    out = []
    for line, t in parse_lines(text):
        try:
            ty = typecheck(t)
        except PpcfError as e:
            raise PpcfError(f"line {line}: {e}")
        if ty != Arrow(NAT, NAT):
            raise PpcfError(f"line {line}: context has type {ty}, "
                            f"not nat -> nat")
        out.append(t)
    if not out:
        raise PpcfError("no contexts")
    return out
