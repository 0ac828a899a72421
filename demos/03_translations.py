"""
Mark translations and the counting identity
===========================================

Marks are transparent to evaluation, but two source-to-source translations
turn them into probes.  lcof replaces each mark[l] body with a coin flip
that continues with rate r_l and diverges otherwise; spy replaces the flip
with a free variable so one translated program can be reused at any rates.
The payoff is an identity: summing P(counts = mu) * prod(r_l ** mu_l) over
the machine's label counts equals the lcof program's convergence mass.
"""

from fractions import Fraction

from ppcf import enumerate_paths, init_state, lcof, parse_term, spy, strip, to_text
from ppcf.semantics import ground_denot, prob_zero, sval
from ppcf.translate import default_spy_vars

SRC = """
let x = dice(1/3) in
ifz x then mark[a] 0
      else ifz mark[b] dice(2/5) then 0 else succ x
"""
t = parse_term(SRC)

# strip erases the marks outright.
print("stripped:", to_text(strip(t)))

# lcof bakes concrete rates into the program.
rates = {"a": Fraction(3, 7), "b": Fraction(1, 2)}
gated = lcof(t, rates)
print("\nlcof at a=3/7, b=1/2:")
print(" ", to_text(gated))

# spy abstracts the rates into free variables instead.
spied = spy(t)
print("\nspy with variables", default_spy_vars(t), ":")
print(" ", to_text(spied))

# Left side of the identity: enumerate the original program's paths and
# weight each by rate ** count, all in exact rational arithmetic.
res = enumerate_paths(init_state(t))
lhs = Fraction(0)
for rec in res.paths:
    w = rec.weight
    for label, k in rec.labels.items():
        w *= rates[label] ** k
    lhs += w

# Right side: the gated program's probability of converging to 0.  The
# exact enumeration of the gated program must give the same Fraction.
rhs = enumerate_paths(init_state(gated)).converged_mass
print(f"\nsum_mu P(mu) * r^mu      = {lhs}")
print(f"lcof converged mass      = {rhs}")
assert lhs == rhs

# The semantics can evaluate the same quantity two more ways: numerically
# on the gated program, or on the original with each mark gated at its
# rate inside the evaluator, which is what binding the spy variables to
# the rates computes.
num_gated = prob_zero(gated)
num_spied = sval(ground_denot(t, rates=rates).dist.coords[0])
print(f"denotation of lcof       = {num_gated:.12f}")
print(f"marks gated at rates     = {num_spied:.12f}")
print(f"exact value              = {float(lhs):.12f}")
