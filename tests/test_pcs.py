from fractions import Fraction

import numpy as np
import pytest

from ppcf import observe, pcs
from ppcf.semantics import prob_zero
from ppcf.syntax import App, parse_term

WEB3 = pcs.nat_web(3)
SIMPLEX = pcs.Space.simplex(WEB3)


def test_space_validation():
    with pytest.raises(ValueError):
        pcs.Space.box(WEB3, [1.0, 0.0, 1.0])          # dead coordinate
    with pytest.raises(ValueError):
        pcs.Space.box(WEB3, [1.0, 1.0])               # wrong width
    with pytest.raises(ValueError):
        pcs.Space.polar_of(WEB3, [[1.0, 1.0, 0.0]])   # unbounded coord
    with pytest.raises(ValueError):
        pcs.Space.polar_of(WEB3, [[1.0, -1.0, 1.0]])
    with pytest.raises(ValueError):
        pcs.Space.polar_of(WEB3, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        pcs.norm([-0.5, 0.0, 0.0], SIMPLEX)


def test_norms():
    assert pcs.norm([0.2, 0.3, 0.1], SIMPLEX) == pytest.approx(0.6)
    box = pcs.Space.box(WEB3, [1.0, 0.5, 2.0])
    assert pcs.norm([0.5, 0.25, 1.0], box) == pytest.approx(0.5)
    polar = pcs.Space.polar_of(WEB3, [[1, 0, 0], [0, 2, 2]])
    assert pcs.norm([0.5, 0.25, 0.25], polar) == pytest.approx(1.0)


def test_simplex_is_polar_of_ones():
    ones = pcs.Space.polar_of(WEB3, [np.ones(3)])
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.exponential(size=3) * rng.random() * 1.5
        assert pcs.member(x, SIMPLEX) == pcs.member(x, ones)
        assert pcs.norm(x, SIMPLEX) == pytest.approx(pcs.norm(x, ones))


def test_support_and_polar_membership():
    # support over the simplex is the sup coordinate
    assert pcs.support([0.3, 0.9, 0.1], SIMPLEX) == pytest.approx(0.9)
    assert pcs.polar_member([1.0, 1.0, 1.0], SIMPLEX)
    assert not pcs.polar_member([1.0, 1.2, 0.0], SIMPLEX)
    box = pcs.Space.box(WEB3, [1.0, 0.5, 2.0])
    assert pcs.support([1.0, 1.0, 0.25], box) == pytest.approx(2.0)
    # polar space: support solved as a linear program
    polar = pcs.Space.polar_of(WEB3, [np.ones(3)])
    assert pcs.support([0.5, 1.0, 0.25], polar) == pytest.approx(1.0)
    assert pcs.polar_member([1.0, 1.0, 1.0], polar)
    assert not pcs.polar_member([1.0, 1.5, 1.0], polar)


def test_polar_duality_random():
    # u polar to the box of caps c iff <c, u> <= 1
    rng = np.random.default_rng(3)
    box = pcs.Space.box(WEB3, [1.0, 0.5, 2.0])
    caps = np.array([1.0, 0.5, 2.0])
    for _ in range(500):
        u = rng.exponential(size=3) * rng.random()
        assert pcs.polar_member(u, box) == (caps @ u <= 1 + pcs.SLACK)


def test_lattice_and_distance():
    x = np.array([1.0, 0.0, 0.0])
    eps = 0.125
    y = np.array([1 - eps, eps, 0.0])
    assert np.allclose(pcs.glb(x, y), [1 - eps, 0.0, 0.0])
    assert np.allclose(pcs.lub(x, y), [1.0, eps, 0.0])
    assert pcs.dist(x, y, SIMPLEX) == pytest.approx(2 * eps)
    assert pcs.dist(x, x, SIMPLEX) == 0.0


def test_local_webs():
    assert pcs.local_web([0.2, 0.2, 0.2], SIMPLEX) == WEB3
    assert pcs.local_web([0.5, 0.5, 0.0], SIMPLEX) == ()
    box = pcs.Space.box(WEB3, [1.0, 0.5, 2.0])
    assert pcs.local_web([1.0, 0.2, 0.0], box) == (1, 2)
    polar = pcs.Space.polar_of(WEB3, [[1, 1, 0], [0, 0, 1]])
    # first generator tight: only the coordinate it misses stays open
    assert pcs.local_web([1.0, 0.0, 0.0], polar) == (2,)
    assert pcs.local_web([0.1, 0.1, 0.1], polar) == WEB3


def test_local_member():
    assert pcs.local_member([0.5, 0.0, 0.0], [0.0, 0.5, 0.0], SIMPLEX)
    assert not pcs.local_member([0.8, 0.0, 0.0], [0.0, 0.3, 0.0], SIMPLEX)


def test_tensor_and_linear_maps():
    x, y = np.array([0.5, 0.5]), np.array([0.25, 0.75])
    xy = pcs.tensor(x, y)
    assert xy.shape == (4,)
    assert xy == pytest.approx(np.outer(x, y).reshape(-1))
    web = pcs.pair_web((0, 1), (0, 1))
    assert web == ((0, 0), (0, 1), (1, 0), (1, 1))
    t = np.array([[0.5, 0.5], [1.0, 0.0]])
    s = np.array([[1.0, 0.0], [0.25, 0.75]])
    assert pcs.matapp(t, [1.0, 0.0]) == pytest.approx([0.5, 0.5])
    assert pcs.matapp(pcs.compose(s, t), x) \
        == pytest.approx(pcs.matapp(s, pcs.matapp(t, x)))


def test_series_evaluation_and_derivative():
    # t(x) = 1/4 + x0 x1 + x1^2 over a two-point web
    web = (0, 1)
    t = pcs.PowerSeries(web, ("*",), {
        ((), "*"): 0.25, ((0, 1), "*"): 1.0, ((1, 1), "*"): 1.0})
    x = [0.5, 0.25]
    assert pcs.series_apply(t, x)[0] \
        == pytest.approx(0.25 + 0.125 + 0.0625)
    D = pcs.deriv_matrix(t, x)
    assert D[0, 0] == pytest.approx(0.25)        # x1
    assert D[1, 0] == pytest.approx(0.5 + 0.5)   # x0 + 2 x1
    assert pcs.monomial(x, (0, 1, 1), {0: 0, 1: 1}) \
        == pytest.approx(0.5 * 0.25 * 0.25)


def test_series_validation():
    with pytest.raises(ValueError):
        pcs.PowerSeries((0, 1), ("*",), {((1, 0), "*"): 1.0})  # unsorted
    with pytest.raises(ValueError):
        pcs.PowerSeries((0, 1), ("*",), {((0,), "?"): 1.0})
    with pytest.raises(ValueError):
        pcs.PowerSeries((0, 1), ("*",), {((2,), "*"): 1.0})
    with pytest.raises(ValueError):
        pcs.PowerSeries((0, 1), ("*",), {((0,), "*"): -0.5})


def test_promotion_codereliction():
    prom = pcs.promotion_series(WEB3, 2)
    # at zero the derivative picks out exactly the singleton rows
    D0 = pcs.deriv_matrix(prom, np.zeros(3))
    for ai, a in enumerate(WEB3):
        for ni, nu in enumerate(prom.out_web):
            assert D0[ai, ni] == (1.0 if nu == (a,) else 0.0)
    # at a generic point, the rule D[a, nu] = nu(a) x^(nu - a)
    x = np.array([0.5, 0.25, 0.125])
    D = pcs.deriv_matrix(prom, x)
    ix = {s: i for i, s in enumerate(WEB3)}
    col = prom.out_web.index((0, 0))
    assert D[0, col] == pytest.approx(2 * x[0])
    col = prom.out_web.index((0, 1))
    assert D[1, col] == pytest.approx(x[0])


def test_chain_rule_exact_on_polynomials():
    rng = np.random.default_rng(11)
    web = pcs.nat_web(4)
    for i in range(100):
        s = pcs.random_series(rng, web, web)
        t = pcs.random_series(rng, web, ("*",))
        x = pcs.random_point(rng, 4, 0.8)
        u = pcs.random_point(rng, 4, 0.2)
        assert pcs.chain_rule_check(s, t, x, u) < 1e-12
    with pytest.raises(ValueError):
        pcs.chain_rule_check(
            pcs.random_series(rng, web, ("*",)),
            pcs.random_series(rng, web, ("*",)), [0] * 4, [0] * 4)


def test_first_order_bound_random():
    rng = np.random.default_rng(17)
    web = pcs.nat_web(4)
    for _ in range(300):
        t = pcs.random_series(rng, web, ("*",))
        x = pcs.random_point(rng, 4, 0.5)
        u = pcs.random_point(rng, 4, 0.4)
        assert pcs.first_order_check(t, x, u) <= 0.0


def test_scaled_derivative_in_the_polar():
    # on the p-ball the gradient of a mass-1 series, scaled by 1 - p,
    # pairs below 1 with every simplex point
    rng = np.random.default_rng(23)
    web = pcs.nat_web(4)
    p = 0.5
    for _ in range(300):
        t = pcs.random_series(rng, web, ("*",))
        x = pcs.random_point(rng, 4, p)
        grad = pcs.deriv_matrix(t, x)[:, 0]
        assert pcs.polar_member((1 - p) * grad,
                                pcs.Space.simplex(web), slack=1e-9)


def test_lipschitz_check_runs_clean():
    rep = pcs.lipschitz_check(0.9, 1000, seed=1)
    assert rep.ok and rep.trials == 1000
    with pytest.raises(ValueError):
        pcs.lipschitz_check(1.0, 10, seed=1)


def test_distance_axiom_check_runs_clean():
    assert pcs.distance_axiom_check(1000, seed=2).ok


def test_tame_gates_one_use():
    ident = parse_term(r"\x:nat. x")
    gated = observe.tame(ident, Fraction(1, 4))
    # the tamed identity passes its argument with probability 1/4
    assert prob_zero(App(gated, parse_term("0"))) \
        == pytest.approx(0.25, abs=1e-12)
    with pytest.raises(ValueError):
        observe.tame(parse_term("0"), Fraction(1, 4))


def test_tamed_bound_and_amplifier():
    m1 = parse_term("dice(0)")
    m2 = parse_term("dice(1/10)")
    amp = parse_term(r"fix (\f:nat -> nat. \x:nat. ifz x then 0 else f x)")
    rep = observe.tamed_bound_check(m1, m2, Fraction(1, 2),
                                    [parse_term(r"\x:nat. x"), amp])
    assert rep.ok
    assert rep.denot_dist == pytest.approx(0.2, abs=1e-12)
    assert rep.bound == pytest.approx(0.2 + 1e-6, abs=1e-12)
    # without taming, the retry context tells the two coins apart almost
    # surely: any bias at all is amplified to probability one
    assert observe.untamed_gap(m1, m2, amp) == pytest.approx(1.0, abs=1e-9)
    with pytest.raises(ValueError):
        observe.tamed_bound_check(m1, m2, Fraction(1), [amp])
