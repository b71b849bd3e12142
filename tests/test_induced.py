import math

import numpy as np
import pytest

from horseshoe import map_core as mc
from horseshoe.map_core import (REF_EX, REF_STRICT, Region, apply,
                                default_certificate, in_A, classify,
                                OutOfDomain, OrbitEscapes, NoReturn)
from horseshoe.splitting import length_scale, direction_field, adapted_norm
from horseshoe import induced as ind
from horseshoe import sampling as sp


# --- escape and approach times --------------------------------------------

def test_escape_time_linear_strip_exit():
    # 0.0036 * 5^3 = 0.45 lands in the middle strip
    assert ind.escape_time(REF_EX, (0.79, 0.0036)) == 3


def test_escape_time_bottom_edge_is_infinite():
    assert ind.escape_time(REF_EX, (0.79, 0.0)) == math.inf


def test_escape_time_rejects_tangency_column():
    with pytest.raises(OutOfDomain):
        ind.escape_time(REF_EX, (REF_EX.q, 0.0))


def test_escape_time_requires_window_point():
    with pytest.raises(OutOfDomain):
        ind.escape_time(REF_EX, (0.5, 0.1))


def test_escape_time_matches_sampler():
    rng = np.random.default_rng(0)
    rp = sp.sample_returning_point(REF_EX, rng, n1=4)
    assert ind.escape_time(REF_EX, rp.M) == 4


def test_escape_time_from_subnormal_heights():
    # the smallest positive height still leaves within the float-range cap
    assert ind.escape_time(REF_EX, (0.79, 5e-324)) == 462
    assert mc.float_range_steps(REF_EX.sigma) > 462
    assert sp._escape_count(REF_EX, (0.79, 5e-324)) is None
    # 0.7 * 5^-460 is subnormal; 460 steps carry it into the R4 strip
    m = (0.79, 0.7 * 5.0 ** -460)
    assert ind.escape_time(REF_EX, m) == sp._escape_count(REF_EX, m) == 460


def test_approach_time_cap_raises_typed_error():
    # offset 0: the preimage sits on the edge x = 0 of the R4 strip, and
    # its backward orbit stays in the column R1' for ever
    m = (0.765625, 5.0 / 4096)
    assert mc.in_A(REF_EX, m) and mc.parabola_offset(REF_EX, m) == 0.0
    assert ind.approach_time(REF_EX, m) == math.inf
    rep = ind.time_bounds_report(REF_EX, m)
    assert rep["n2"] == math.inf and "approach_bound" not in rep
    # the backward walk itself still stops at its cap, with a typed error
    with pytest.raises(mc.IterationCap) as err:
        mc.leave_r1(REF_EX, m, False, "approach_time")
    assert err.value.what == "approach_time"
    assert err.value.step == mc.float_range_steps(1 / REF_EX.lam) == 326


def test_approach_time_positive():
    rng = np.random.default_rng(2)
    rp = sp.sample_returning_point(REF_EX, rng)
    assert ind.approach_time(REF_EX, rp.M) >= 1


def test_time_bounds_report_fields():
    rep = ind.time_bounds_report(REF_EX, (0.79, 0.0036))
    assert rep["n1"] == 3 and rep["n2"] >= 1
    assert rep["l"] == pytest.approx(0.04)
    assert rep["escape_bound"] == pytest.approx(
        REF_EX.sigma ** 2 * REF_EX.c * 0.04 ** 2)
    assert isinstance(rep["escape_ok"], bool)
    assert isinstance(rep["approach_ok"], bool)


# --- induced map cases ----------------------------------------------------

def test_induced_map_origin():
    st = ind.induced_map(REF_EX, (0.0, 0.0))
    assert st.case == "origin" and st.k == 0 and st.target == (0.0, 0.0)


def test_induced_map_linear_strips():
    st = ind.induced_map(REF_EX, (0.5, 0.5))
    assert st.case == "linear" and st.k == 1
    assert st.target == pytest.approx((0.45, 0.5))
    st = ind.induced_map(REF_EX, (0.5, 0.99))
    assert st.case == "linear"
    assert st.target == pytest.approx((0.95, 0.95))


def test_induced_map_tangency_entry():
    # x = 0.45 sits in the image column of the middle strip
    st = ind.induced_map(REF_EX, (0.45, 0.7))
    assert st.case == "tangency-entry" and st.k == 1


def test_induced_map_tangency_strip_outside_columns():
    with pytest.raises(OutOfDomain):
        ind.induced_map(REF_EX, (0.1, 0.7))


def test_induced_map_escape_linear():
    st = ind.induced_map(REF_EX, (0.79, 0.0036))
    assert st.case == "escape-linear" and st.k == 3
    assert classify(REF_EX, st.target) is Region.R3


def test_induced_map_return_case():
    rng = np.random.default_rng(5)
    rp = sp.sample_returning_point(REF_EX, rng, n1=3)
    st = ind.induced_map(REF_EX, rp.M)
    assert st.case == "return" and st.k == 4
    assert in_A(REF_EX, st.target)
    assert st.target == pytest.approx(rp.M_return)


def test_induced_map_bottom_edge():
    st = ind.induced_map(REF_EX, (0.79, 0.0))
    assert st.case == "bottom" and st.target == (0.0, 0.0)


def test_induced_map_escaping_orbit_raises():
    # 0.005 * 5^3 = 0.625 falls in the gap above the middle strip
    with pytest.raises(OrbitEscapes):
        ind.induced_map(REF_EX, (0.79, 0.005))


def test_induced_map_outside_domain():
    with pytest.raises(OutOfDomain):
        ind.induced_map(REF_EX, (0.5, 0.1))


# --- polygonal balls and us-balls -----------------------------------------

def test_polygonal_ball_geometry():
    rng = np.random.default_rng(7)
    rp = sp.sample_returning_point(REF_EX, rng)
    fr = direction_field(REF_EX, rp.M)
    ball = ind.PolygonalBall(rp.M, fr, 0.01, 0.02)
    v = ball.vertices()
    assert len(v) == 4
    assert ball.contains(rp.M)
    assert ball.contains(v[0])
    far = np.asarray(rp.M) + 0.05 * fr.e_u
    assert not ball.contains(far)
    s0a, s0b = ball.side_bottom()
    s2a, s2b = ball.side_top()
    # opposite sides, parallel to e_s
    np.testing.assert_allclose(s0b - s0a, s2b - s2a, atol=1e-14)
    seg_a, seg_b = ball.stable_segment(0.5)
    np.testing.assert_allclose(0.5 * (seg_a + seg_b), rp.M, atol=1e-14)


def test_us_ball_in_window():
    cert = default_certificate(REF_EX)
    rng = np.random.default_rng(1)
    rp = sp.sample_returning_point(REF_EX, rng)
    ball = ind.us_ball(REF_EX, rp.M, 1.0, cert)
    r = cert.C3 * length_scale(REF_EX, rp.M)
    assert ball.radius_u == pytest.approx(r)
    assert ball.radius_s == pytest.approx(r)


def test_us_ball_between_visits_capped():
    cert = default_certificate(REF_EX)
    rng = np.random.default_rng(1)
    rp = sp.sample_returning_point(REF_EX, rng)
    mid = apply(REF_EX, rp.M)
    ball = ind.us_ball(REF_EX, mid, 1.0, cert)
    cap = cert.C3 / 3.0
    assert 0.0 < ball.radius_u <= cap + 1e-15
    assert 0.0 < ball.radius_s <= cap + 1e-15


def test_us_ball_no_visits_falls_back_to_cap():
    # the middle-strip fixed line never reaches the window
    cert = default_certificate(REF_EX)
    ball = ind.us_ball(REF_EX, (0.45, 0.5), 1.0, cert)
    assert ball.radius_u == pytest.approx(cert.C3 / 3.0)
    assert ball.radius_s == pytest.approx(cert.C3 / 3.0)


def test_us_ball_rho_validation():
    cert = default_certificate(REF_EX)
    with pytest.raises(ValueError):
        ind.us_ball(REF_EX, (0.79, 0.005), 0.0, cert)


# --- charts ---------------------------------------------------------------

def test_chart_round_trip_and_norm_identity():
    rng = np.random.default_rng(3)
    rp = sp.sample_returning_point(REF_EX, rng)
    ch = ind.chart(REF_EX, rp.M)
    for _ in range(10):
        xi = rng.uniform(-1.0, 1.0, size=2)
        pt = ch.to_plane(xi)
        np.testing.assert_allclose(ch.from_plane(pt), xi, atol=1e-12)
        # the chart isometry: adapted max-norm of the plane vector equals
        # l(M) times the max-norm of the chart coordinates
        v = np.asarray(pt) - np.asarray(rp.M)
        assert adapted_norm(ch.frame, v) == pytest.approx(
            ch.l * np.max(np.abs(xi)), abs=1e-12)


def test_chart_rejects_tangency_column():
    with pytest.raises(OutOfDomain):
        ind.chart(REF_EX, (REF_EX.q, 0.0))


def test_kergodic_fixes_origin():
    rng = np.random.default_rng(4)
    rp = sp.sample_returning_point(REF_EX, rng)
    st = ind.induced_map(REF_EX, rp.M)
    ch_m = ind.chart(REF_EX, rp.M)
    ch_f = ind.chart(REF_EX, st.target)
    z = ind.kergodic_apply(REF_EX, ch_m, ch_f, (0.0, 0.0), st.k)
    np.testing.assert_allclose(z, [0.0, 0.0], atol=1e-9)


@pytest.mark.parametrize("params,seed", [(REF_EX, 10), (REF_STRICT, 11)])
def test_kergodic_derivative_hyperbolicity(params, seed):
    # expansion at least sigma^(k/2) on e1, contraction at least
    # lam^(k/2) on e2 in chart coordinates
    rng = np.random.default_rng(seed)
    for rp in sp.sample_A_points(params, rng, 8):
        st = ind.induced_map(params, rp.M)
        if st.case != "return":
            continue
        ch_m = ind.chart(params, rp.M)
        ch_f = ind.chart(params, st.target)
        d0 = ind.kergodic_derivative(params, ch_m, ch_f, st.k)
        assert np.linalg.norm(d0 @ [1.0, 0.0]) >= params.sigma ** (st.k / 2)
        assert np.linalg.norm(d0 @ [0.0, 1.0]) <= params.lam ** (st.k / 2)


# --- distortion -----------------------------------------------------------

def test_distortion_probe_ref_ex():
    cert = default_certificate(REF_EX)
    rng = np.random.default_rng(0)
    rp = sp.sample_returning_point(REF_EX, rng)
    rep = ind.distortion_probe(REF_EX, rp.M, cert, np.random.default_rng(1))
    assert rep.n_pairs > 0
    assert rep.worst_ratio < 1.0
    assert math.isfinite(rep.C5_est) and rep.C5_est > 0.0


def test_distortion_probe_ref_strict_finite():
    # the stable image differences sit at the float64 noise floor, so the
    # defect ratio saturates near 1; the estimate must stay finite
    cert = default_certificate(REF_STRICT)
    rng = np.random.default_rng(0)
    rp = sp.sample_returning_point(REF_STRICT, rng)
    rep = ind.distortion_probe(REF_STRICT, rp.M, cert,
                               np.random.default_rng(1))
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert math.isfinite(rep.C5_est)


def test_distortion_probe_needs_return_step():
    cert = default_certificate(REF_EX)
    with pytest.raises(OutOfDomain):
        ind.distortion_probe(REF_EX, (0.79, 0.0036), cert,
                             np.random.default_rng(0))


# --- crossing certificates ------------------------------------------------

def test_crossing_probe_angles():
    rng = np.random.default_rng(6)
    rp = sp.sample_returning_point(REF_EX, rng)
    cp = ind.crossing_probe(REF_EX, rp.M)
    l = length_scale(REF_EX, rp.M)
    assert cp.alpha == pytest.approx(math.atan(2.0 * REF_EX.c * l))
    assert cp.delta == pytest.approx(math.atan(math.tan(cp.alpha) / 4.0))
    assert cp.gamma_angle <= cp.alpha


def test_parabola_crosses_segment():
    p = REF_EX
    # vertex parabola against a horizontal segment above the vertex
    assert ind._parabola_crosses_segment(p, 0.0, (0.7, 0.005), (0.8, 0.005))
    # segment entirely below the parabola
    assert not ind._parabola_crosses_segment(p, 0.0, (0.74, -0.01),
                                             (0.76, -0.01))


@pytest.mark.parametrize("params,seed", [(REF_EX, 0), (REF_STRICT, 0)])
def test_u_crossing_certificate_passes(params, seed):
    cert = default_certificate(params)
    rng = np.random.default_rng(seed)
    for rp in sp.sample_A_points(params, rng, 6):
        rep = ind.u_crossing_certificate(params, rp.M, 1.0, cert)
        assert rep.c0_ok and rep.eps0_ok and rep.eta_ok
        assert rep.n_return >= 1


def test_u_crossing_no_return_raises():
    cert = default_certificate(REF_EX)
    with pytest.raises(NoReturn):
        ind.u_crossing_certificate(REF_EX, (0.79, 0.005), 1.0, cert)


def test_cross_report_csv_row():
    rep = ind.CrossReport(M=(0.79, 0.005), rho=1.0, c0_ok=True,
                          eps0_ok=True, eta_ok=False, n_return=6)
    row = rep.csv_row()
    assert row[3] == "true" and row[5] == "false" and row[6] == "6"


# --- calibration ----------------------------------------------------------

def test_calibrate_certificate_deterministic():
    a = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    b = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    assert a.to_json() == b.to_json()


def test_calibrate_certificate_provenance_and_coupling():
    cert = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    for name in ("chi1", "chi", "C0", "eps0", "eta", "C5"):
        assert cert.provenance[name] == "estimated"
    assert cert.C3 == pytest.approx(cert.rho1 * cert.C0)
    assert cert.chi0 == 4.0


def test_calibrated_constants_pass_on_fresh_strict_samples():
    cert = ind.calibrate_certificate(REF_STRICT, sample_budget=30, seed=2)
    rng = np.random.default_rng(9)
    for rp in sp.sample_A_points(REF_STRICT, rng, 6):
        rep = ind.u_crossing_certificate(REF_STRICT, rp.M, 1.0, cert)
        assert rep.c0_ok and rep.eps0_ok and rep.eta_ok


# --- lockstep bisection and early-exit itineraries ------------------------

def _scalar_edges(passes_at, good, bad, iters):
    """_bisect_edge per lane, with the number of predicate calls each made."""
    out, calls = [], []
    for i, (g, b) in enumerate(zip(good, bad)):
        count = [0]

        def passes(y, i=i, count=count):
            count[0] += 1
            return passes_at(i, y)
        out.append(ind._bisect_edge(passes, float(g), float(b), iters))
        calls.append(count[0])
    return np.array(out), calls


def test_lockstep_bisection_equals_scalar_in_every_lane():
    rng = np.random.default_rng(11)
    n = 64
    lo = rng.uniform(-2.0, 2.0, n)
    # widths from 1 down to a few ulps, so lanes reach float resolution
    # at different iterations; not powers of two, so midpoints round
    width = rng.uniform(0.5, 1.0, n) * 2.0 ** -rng.integers(0, 50, n)
    lo[0], width[0] = 0.0, 1.0
    hi = lo + width
    up = rng.random(n) < 0.5                 # half the lanes run downwards
    up[0] = True
    good = np.where(up, lo, hi)
    bad = np.where(up, hi, lo)
    # thresholds mostly inside the interval, some beyond bad: there
    # passes(bad) holds and the lane returns bad untouched
    thr = lo + width * rng.uniform(-0.2, 1.2, n)
    thr[1] = hi[1] + 1.0 if up[1] else lo[1] - 1.0
    # lane 0 halves its way from 1 down to a subnormal edge and runs into
    # the iteration cap long before float resolution
    thr[0] = 1e-320

    def passes_at(i, y):
        return y < thr[i] if up[i] else y > thr[i]

    def passes(y):
        return np.where(up, y < thr, y > thr)

    for iters in (200, 30, 7):
        want, calls = _scalar_edges(passes_at, good, bad, iters)
        got = ind._bisect_edges(passes, good, bad, iters)
        assert got.dtype == float and np.array_equal(got, want)
        if iters == 200:
            assert len(set(calls)) > 10     # lanes stop at different steps
            assert calls[0] == 1 + 200      # lane 0 runs into the cap
            assert calls[1] == 1            # passes(bad) holds in lane 1
            assert got[1] == bad[1]


def test_lockstep_bisection_on_an_image_abscissa():
    # the predicate of the eta check: image abscissa below a target
    p = REF_EX
    rng = np.random.default_rng(4)
    m = sp.sample_returning_point(p, rng, n1=2).M
    n, _ = mc.first_return(p, m, 4000)
    branches = [mc.BRANCH[r] for r in mc.branch_sequence(p, m, n)]

    def image_x(y):
        x = m[0]
        for br in branches:
            x, y = br.forward(p, x, y)
        return x

    y_lo, y_hi = m[1] - 1e-4, m[1] + 1e-4
    xs = sorted((image_x(y_lo), image_x(y_hi)))
    targets = rng.uniform(xs[0], xs[1], 40)
    good = np.full(40, y_lo if image_x(y_lo) < image_x(y_hi) else y_hi)
    bad = np.full(40, y_hi if good[0] == y_lo else y_lo)
    want, _ = _scalar_edges(lambda i, y: image_x(y) < targets[i],
                            good, bad, 200)
    got = ind._bisect_edges(lambda y: image_x(y) < targets, good, bad, 200)
    assert np.array_equal(got, want)


def test_linspaces_equal_one_linspace_per_lane():
    rng = np.random.default_rng(2)
    start = rng.uniform(-1.0, 1.0, 12)
    stop = start + rng.uniform(-1e-3, 1e-3, 12)
    stop[:2] = start[:2]                      # zero steps
    start[2:4], stop[2:4] = 1e-310, 3e-310    # subnormal steps
    # steps that underflow to zero: linspace scales k/div by the span
    start[4:6], stop[4:6] = 0.0, 3 * 5e-324
    got = ind._linspaces(start, stop, 1025)
    for i in range(12):
        assert np.array_equal(got[:, i], np.linspace(start[i], stop[i], 1025))


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_early_exit_itinerary_equals_full_sequence(params):
    rng = np.random.default_rng(8)
    seen = {True: 0, False: 0, "escaping": 0}
    for _ in range(12):
        m = sp.sample_returning_point(params, rng).M
        n, _ = mc.first_return(params, m, 4000)
        ref = mc.branch_sequence(params, m, n)
        for scale in (1e-12, 1e-8, 1e-4, 1e-1):
            for _ in range(8):
                # relative steps: heights in A shrink like sigma^-n1
                dx, dy = scale * rng.normal(size=2)
                x = float(m[0] + dx * abs(m[0] - params.q))
                y = float(m[1] * (1.0 + dy))
                seq = mc.branch_sequence(params, (x, y), n)
                fast = ind._follows(params, x, y, ref)
                assert fast == (seq == ref)
                seen[fast] += 1
                seen["escaping"] += seq is None
    assert min(seen.values()) > 0


def test_one_arc_call_equals_one_call_per_segment():
    p = REF_EX
    rng = np.random.default_rng(3)
    cert = default_certificate(p)
    m = sp.sample_returning_point(p, rng, n1=2).M
    n, pts = mc.first_return(p, m, 4000)
    fr = direction_field(p, pts[-1])
    arc = (m[0], m[1] - 2e-3, m[1] + 2e-3)
    segs = []
    for rad in (0.002, 0.01, 0.05):
        for shift in (0.0, 0.02, -0.3):
            ctr = tuple(np.asarray(pts[-1]) + shift * fr.e_s)
            ball = ind.PolygonalBall(ctr, fr, rad, rad)
            segs += [ball.side_bottom(), ball.side_top()]
    segs = np.array(segs)
    together = ind._arc_crossings(p, arc, n, segs)
    alone = [ind._arc_crossings(p, arc, n, segs[i:i + 1])[0]
             for i in range(len(segs))]
    assert together.tolist() == alone
    assert together.any() and not together.all()
