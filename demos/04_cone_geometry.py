"""
Coherence-space geometry: norms, duals and power series
=======================================================

Ground types denote unit balls of positive cones: sub-probability vectors
for nat, capped boxes for products of observations, and polars (everything
that pairs below 1 with a generating set) for everything else.  Programs
denote power series between these balls, and derivatives of those series
are what the expected-cost analysis differentiates.
"""

import numpy as np

from ppcf.pcs import (
    PowerSeries, Space, chain_rule_check, deriv_matrix, dist, first_order_check,
    glb, lub, local_web, member, nat_web, norm, polar_member, promotion_series,
    random_point, random_series, series_apply, support,
)

rng = np.random.default_rng(20260814)

# The nat ball over {0,1,2} is the simplex of sub-probability vectors.
web = nat_web(3)
simplex = Space.simplex(web)
x = np.array([0.5, 0.2, 0.1])
print(f"web {web}  norm(x) = {norm(x, simplex):.2f}  member: {member(x, simplex)}")

# The same ball arises as the polar of the all-ones functional, and its
# own polar is everything the simplex pairs below 1 with.
ones = Space.polar_of(web, np.ones((1, 3)))
print("polar-of-ones norm matches simplex:",
      np.isclose(norm(x, ones), norm(x, simplex)))
u = np.array([1.0, 0.4, 1.0])
print("u in the dual ball:", polar_member(u, simplex),
      f" sup over ball of <u,.> = {support(u, ones):.3f}")

# Meets and joins are coordinatewise, and the distance between two points
# is the mass of their symmetric difference.
y = np.array([0.1, 0.6, 0.0])
print(f"\nglb {glb(x, y)}  lub {lub(x, y)}  dist = {dist(x, y, simplex):.2f}")

# Close to the boundary, only some directions stay inside the ball: the
# local web at a point lists the coordinates that can still grow.
edge = np.array([0.7, 0.3, 0.0])
print("local web at an interior point:", local_web(x, simplex))
print("local web on the shell:        ", local_web(edge, simplex))

# A power series with coefficient mass at most one maps the ball into the
# ball.  Here t(x) = 1/4 + x0*x1/2 + x1^2/4 sends the simplex into [0,1].
t = PowerSeries(web, ("*",), {
    ((), "*"): 0.25,
    ((0, 1), "*"): 0.5,
    ((1, 1), "*"): 0.25,
})
val = series_apply(t, x)[0]
mass = sum(t.coeffs.values())
print(f"\nt(x) = {val:.4f}   total coefficient mass = {mass:.2f}")

# Its derivative matrix at x is the Jacobian, here a single gradient
# column: dt/dx0 = x1/2, dt/dx1 = x0/2 + x1/2, dt/dx2 = 0.
D = deriv_matrix(t, x)
want = [x[1] / 2, x[0] / 2 + x[1] / 2, 0.0]
print("dt/dx =", np.round(D[:, 0], 4), " expect", [round(float(w), 4) for w in want])

# Derivatives compose through the chain rule, checked here on random
# series, and the first-order bound t(x) + Dt(x).u <= t(x + u) holds
# whenever x and x + u stay in the ball: entire maps are convex in every
# direction that matters.
s = random_series(rng, web, nat_web(2), mass=1.0)
r = random_series(rng, nat_web(2), ("*",), mass=1.0)
xx = random_point(rng, 3, 0.8)
uu = random_point(rng, 3, 0.1)
print(f"\nchain rule max error : {chain_rule_check(s, r, xx, uu):.2e}")
print(f"first-order slack    : {first_order_check(t, xx, uu):.2e} (<= 0 is good)")

# Promotion lifts a point to all multisets of its coordinates; its
# derivative at 0 is the codereliction pattern: the only nonzero entries
# send each coordinate to its own singleton multiset, with coefficient 1.
promo = promotion_series(nat_web(2), 2)
D0 = deriv_matrix(promo, np.zeros(2))
print("\ncodereliction at 0 (one row per output multiset):")
for j, b in enumerate(promo.out_web):
    print(f"  {str(b):8} {D0[:, j]}")
