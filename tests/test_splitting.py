import math

import numpy as np
import pytest

from horseshoe import map_core as mc
from horseshoe.map_core import REF_EX, REF_STRICT, apply, leaf_tangent, OutOfDomain
from horseshoe import splitting as spl
from horseshoe.splitting import (Cone, length_scale, unstable_cone,
                                 stable_cone, cone_at, direction_field,
                                 adapted_norm, verify_cone_return,
                                 direction_gap, holder_fit)
from horseshoe import sampling as sp


def test_length_scale_cases():
    assert length_scale(REF_EX, (0.79, 0.005)) == pytest.approx(0.04)
    # outside A: the sup over A, sqrt((1/sigma + lam)/c)
    assert length_scale(REF_EX, (0.5, 0.5)) == pytest.approx(math.sqrt(0.06))
    assert length_scale(REF_EX, (0.75, 0.0)) == 0.0


def test_unstable_cone_aperture():
    cone = unstable_cone(REF_EX, (0.79, 0.005))
    assert cone.slope_bound == pytest.approx(2.0 / (5.0 * 0.04))
    assert cone.contains((0.0, 1.0))
    assert not cone.contains((1.0, 0.0))
    with pytest.raises(OutOfDomain):
        unstable_cone(REF_EX, (0.5, 0.5))


def test_unstable_cone_strict_params():
    p = REF_STRICT
    x = p.q + 1e-4
    m = (x, p.c * (x - p.q) ** 2 - 0.5 * p.lam)
    assert mc.in_A(p, m)
    cone = unstable_cone(p, m)
    assert cone.slope_bound == pytest.approx(2.0 / (648.0 * 1e-4), rel=1e-9)


def test_stable_cone_quarter_of_leaf_slope():
    m = (0.79, 0.005)
    assert stable_cone(REF_EX, m).slope_bound == pytest.approx(
        2.0 * 5.0 * 0.04 / 4.0)


def test_cone_chain_nesting():
    rng = np.random.default_rng(5)
    rp = sp.sample_returning_point(REF_EX, rng)
    pts = [rp.M]
    cur = rp.M
    for _ in range(rp.n_return):
        cur = apply(REF_EX, cur)
        pts.append(cur)
    cones = cone_at(REF_EX, pts)
    assert len(cones) == len(pts)
    for i in range(len(pts) - 1):
        jac = mc.jacobian(REF_EX, pts[i])
        for ray in cones[i].boundary_rays():
            img = jac @ ray
            assert cones[i + 1].contains(img)


def test_cone_chain_no_A_visits_uses_default():
    pts = [(0.45, 0.5)]  # single R3 point, never in A
    cones = cone_at(REF_EX, pts)
    assert cones[0].slope_bound == pytest.approx(1.0 / math.sqrt(3.0))


def test_direction_field_fixed_points():
    for m in ((0.0, 0.0), (1.0, 1.0)):
        fr = direction_field(REF_EX, m)
        np.testing.assert_allclose(fr.e_u, [0.0, 1.0], atol=1e-12)
        np.testing.assert_allclose(fr.e_s, [1.0, 0.0], atol=1e-12)
        assert fr.residual < 1e-10


def test_direction_field_matches_leaf_tangent_on_A():
    rng = np.random.default_rng(2)
    for rp in sp.sample_A_points(REF_STRICT, rng, 5):
        fr = direction_field(REF_STRICT, rp.M)
        lt = leaf_tangent(REF_STRICT, rp.M)
        assert direction_gap(fr.e_u, lt) <= fr.residual_u + 1e-8
        assert unstable_cone(REF_STRICT, rp.M).contains(fr.e_u)


def test_direction_field_equivariance():
    # Df e_u(M) parallel to e_u(f(M)) within the residual budget.
    rng = np.random.default_rng(9)
    rp = sp.sample_returning_point(REF_STRICT, rng)
    fm = apply(REF_STRICT, rp.M)
    fr0 = direction_field(REF_STRICT, rp.M)
    fr1 = direction_field(REF_STRICT, fm)
    pushed = mc.jacobian(REF_STRICT, rp.M) @ fr0.e_u
    pushed /= np.linalg.norm(pushed)
    assert direction_gap(pushed, fr1.e_u) <= fr0.residual_u + fr1.residual_u + 1e-8


def test_adapted_norm():
    fr = direction_field(REF_EX, (0.0, 0.0))
    assert adapted_norm(fr, (1.0, 1.0)) == pytest.approx(1.0)
    assert adapted_norm(fr, 3.0 * fr.e_u) == pytest.approx(3.0)


def test_norm_equivalence_bounds():
    # chi1 * l(M) * |v|_M <= ||v|| <= 2 |v|_M with chi1 the empirical min.
    rng = np.random.default_rng(4)
    ratios = []
    for rp in sp.sample_A_points(REF_EX, rng, 30):
        fr = direction_field(REF_EX, rp.M)
        for _ in range(5):
            v = rng.normal(size=2)
            nm = adapted_norm(fr, v)
            eu = float(np.linalg.norm(v))
            assert eu <= 2.0 * nm + 1e-12
            ratios.append(eu / (fr.l * nm))
    chi1 = min(ratios)
    assert chi1 > 0.0


def test_verify_cone_return_strict_sample():
    rng = np.random.default_rng(6)
    for rp in sp.sample_A_points(REF_STRICT, rng, 25):
        rep = verify_cone_return(REF_STRICT, rp.M)
        assert rep.inclusion
        assert rep.min_expansion_u >= rep.bound_u
        assert rep.min_contraction_s >= rep.bound_s


def test_holder_fit_rejects_identical_points(monkeypatch):
    monkeypatch.setattr(spl, "_HOLDER_MIN_PAIRS", 1)
    with pytest.raises(ValueError):
        holder_fit(REF_EX, [((0.79, 0.005), (0.79, 0.005))])


def test_holder_fit_smoke():
    rng = np.random.default_rng(8)
    pairs = sp.holder_pairs_unstable(REF_STRICT, rng, 150)
    fit = holder_fit(REF_STRICT, pairs, which="u")
    assert fit.alpha_est >= 0.45
    assert len(fit.bins) >= 3


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone("diagonal", 1.0)
    with pytest.raises(ValueError):
        Cone("vertical", -0.5)


# --- samplers -------------------------------------------------------------

def test_returning_point_is_verified():
    rng = np.random.default_rng(1)
    rp = sp.sample_returning_point(REF_EX, rng, n1=3)
    assert mc.in_A(REF_EX, rp.M)
    assert rp.n_escape == 3 and rp.n_return == 4
    cur = rp.M
    for _ in range(rp.n_return):
        cur = apply(REF_EX, cur)
    assert cur == pytest.approx(rp.M_return)
    assert mc.in_A(REF_EX, cur)
    assert rp.backward_depth >= 3


def test_multi_return_orbit():
    rng = np.random.default_rng(12)
    orb = sp.multi_return_point(REF_EX, rng, [1, 2, 1, 1])
    assert orb.visit_times[0] == 0
    assert np.diff(orb.visit_times).tolist() == [2, 3, 2, 2]
    for i in orb.visit_times:
        assert mc.in_A(REF_EX, orb.points[i])


def test_holder_pair_distances_span_octaves():
    rng = np.random.default_rng(3)
    pairs = sp.holder_pairs_stable(REF_STRICT, rng, 100)
    dists = [math.hypot(a[0] - b[0], a[1] - b[1]) for a, b in pairs]
    octaves = {int(math.floor(-math.log2(d))) for d in dists}
    assert len(octaves) >= 4
