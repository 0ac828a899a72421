"""Probabilistic PCF with a choice-sequence machine, coherence-space
semantics, expected-cost derivatives and observational distance checks.

The exports below are resolved on first use (PEP 562), so ``import
ppcf`` loads no submodule, and a command that only runs the machine
never loads the semantics.
"""

from importlib import import_module

__version__ = "0.1.0"

# export -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys([
        "NAT", "Arrow", "Nat", "Term", "Type",
        "PpcfError", "PpcfSyntaxError", "PpcfTypeError",
        "make_mq", "num", "loop", "parse_term", "parse_type", "subst",
        "to_text", "typecheck"], "syntax"),
    **dict.fromkeys([
        "enumerate_paths", "init_state", "run", "sample", "split_seed"],
        "machine"),
    **dict.fromkeys(["lcof", "spy", "strip"], "translate"),
    **dict.fromkeys([
        "SemConfig", "expected_count", "finite_difference_check",
        "ground_denot", "prob_zero"], "semantics"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str):
    mod = _EXPORTS.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{mod}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
