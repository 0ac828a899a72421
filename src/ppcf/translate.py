"""Label translations: erasure, coin gating, and spy variables.

``strip`` erases marks.  ``lcof`` replaces every ``mark[l] M`` with a
coin gate ``ifz dice(r_l) then M else loop``, so the convergence
probability of the gated program equals the label-count generating
function of the original evaluated at the gate rates.  ``spy`` replaces
``mark[l] M`` with ``ifz x_l then M else loop`` for a fresh variable
x_l, turning the gate rate into a semantic argument one can
differentiate in.  The semantics does not run this rewrite: it applies
each gate where it meets the mark (see ``ppcf.semantics``), with the
same float operations, so ``spy`` is the printed form of those gates.

All three are ``syntax.fold`` walks, so terms of any depth work.  The
divergent arm must sit at the type of the marked subterm, so the gating
translations type every subterm on the way up, and reject a term that
is ill typed or open.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from .syntax import (
    Dice, Ifz, Mark, PpcfError, Term, Type, Var, all_names, fold,
    fresh_name, is_identifier, labels_of, loop, rebuild, _type_step,
)

__all__ = ["strip", "lcof", "spy", "default_spy_vars"]


def strip(t: Term) -> Term:
    """t with every mark removed; mark-free subterms are shared."""
    return fold(t, lambda s, kids, scope:
                kids[0] if type(s) is Mark else rebuild(s, kids))


def _gate(t: Term, head) -> Term:
    # each subterm's value is (gated subterm, its type); gating keeps
    # types, so typing the original node gives the divergent arm's type
    def post(s: Term, kids: list, scope: dict) -> tuple[Term, Type]:
        ty = _type_step(s, [k[1] for k in kids], scope)
        if type(s) is Mark:
            return Ifz(head(s.label), kids[0][0], loop(ty)), ty
        return rebuild(s, [k[0] for k in kids]), ty
    return fold(t, post)[0]


def lcof(t: Term, rates: Mapping[str, Fraction]) -> Term:
    """Coin-gate every mark at its label's rate."""
    missing = labels_of(t) - set(rates)
    if missing:
        raise PpcfError(f"no rate given for labels {sorted(missing)}")
    exact = {l: Fraction(r) for l, r in rates.items()}
    for l, r in exact.items():
        if not (0 <= r <= 1):
            raise PpcfError(f"rate for {l!r} must lie in [0,1], got {r}")
    return _gate(t, lambda l: Dice(exact[l]))


def _fresh_vars(names: frozenset[str],
                labels: frozenset[str]) -> dict[str, str]:
    taken = set(names)
    out = {}
    for l in sorted(labels):
        out[l] = name = fresh_name(f"r_{l}", taken)
        taken.add(name)
    return out


def default_spy_vars(t: Term) -> dict[str, str]:
    """A fresh spy variable name for each label of t."""
    return _fresh_vars(all_names(t), labels_of(t))


def spy(t: Term, variables: Optional[Mapping[str, str]] = None) -> Term:
    """Gate every mark on a free variable for its label.

    The variable names must avoid every name occurring in t, or the
    inserted occurrences could be captured.  With ``variables=None``
    fresh names are chosen via ``default_spy_vars``.
    """
    names, labels = all_names(t), labels_of(t)
    if variables is None:
        variables = _fresh_vars(names, labels)
    for name in variables.values():
        # the printed term must parse back
        if not is_identifier(name):
            raise PpcfError(f"spy variable {name!r} is not an identifier")
    missing = labels - set(variables)
    if missing:
        raise PpcfError(f"no spy variable for labels {sorted(missing)}")
    clash = set(variables.values()) & names
    if clash:
        raise PpcfError(f"spy variables {sorted(clash)} collide with "
                        "names in the term")
    if len(set(variables.values())) < len(set(variables)):
        raise PpcfError("spy variables must be pairwise distinct")
    return _gate(t, lambda l: Var(variables[l]))
