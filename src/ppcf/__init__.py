"""Probabilistic PCF with a choice-sequence machine, coherence-space
semantics, expected-cost derivatives and observational distance checks."""

from .syntax import (
    NAT, Arrow, Nat, Term, Type,
    PpcfError, PpcfSyntaxError, PpcfTypeError,
    make_mq, num, loop, parse_term, parse_type, subst, to_text, typecheck,
)
from .machine import enumerate_paths, init_state, run, sample, split_seed
from .translate import lcof, spy, strip
from .semantics import (
    SemConfig, expected_count, finite_difference_check, ground_denot,
    prob_zero,
)

__version__ = "0.1.0"

__all__ = [
    "NAT", "Arrow", "Nat", "Term", "Type",
    "PpcfError", "PpcfSyntaxError", "PpcfTypeError",
    "make_mq", "num", "loop", "parse_term", "parse_type", "subst",
    "to_text", "typecheck",
    "enumerate_paths", "init_state", "run", "sample", "split_seed",
    "lcof", "spy", "strip",
    "SemConfig", "expected_count", "finite_difference_check", "ground_denot",
    "prob_zero",
    "__version__",
]
