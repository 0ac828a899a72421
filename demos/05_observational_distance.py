"""
Tamed contexts and the observational distance
=============================================

Two programs that are denotationally close can still be driven apart by a
context that evaluates its hole many times: each use compounds the gap.
Feeding the hole through a coin that diverges with probability 1 - p caps
the expected number of uses, and then no context can amplify the distance
beyond p/(1-p) times the denotational one.
"""

from fractions import Fraction

from ppcf import to_text
from ppcf.corpus import load_contexts, load_program
from ppcf.observe import denot_dist_nat, tame, tamed_bound_check, untamed_gap

# Two coins that differ by 1/10 in their chance of landing on 0.
m1 = load_program("dice000")
m2 = load_program("dice010")
d = denot_dist_nat(m1, m2)
print(f"denotational distance between dice(0) and dice(1/10): {d:.4f}")

# The bundled contexts all have type nat -> nat; the last one is a
# recursive amplifier that keeps re-evaluating its argument until it
# lands on 0, which a call-by-name hole re-samples every time.
contexts = load_contexts()
amp = contexts[-1]
print("amplifier:", to_text(amp))

gap = untamed_gap(m1, m2, amp)
print(f"untamed observation gap under the amplifier: {gap:.6f}")
print("(the raw denotational distance promises at most", f"{d:.2f})")

# Taming wraps the hole in a convergence gate before handing it to the
# context.  The gate for p = 1/2 looks like this:
p = Fraction(1, 2)
print("\ntamed amplifier at p=1/2:")
print(" ", to_text(tame(amp, p)))

# Across every bundled context the tamed gap now respects the bound.
for p in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)):
    rep = tamed_bound_check(m1, m2, p, contexts)
    print(f"p={str(p):4}  bound={rep.bound:.4f}  worst tamed gap={rep.max_gap:.4f}"
          f"  violations={len(rep.violations)}")

# The bound is trivial for identical programs and grows with p: as the
# gate opens (p -> 1) we recover the untamed situation.
same = tamed_bound_check(m1, m1, Fraction(1, 2), contexts)
print(f"\nidentical programs: worst gap = {same.max_gap:.2e}")
