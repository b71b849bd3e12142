import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis.strategies import integers

from horseshoe import map_core as mc
from horseshoe.map_core import (REF_EX, REF_STRICT, Region, apply,
                                default_certificate, in_A, classify,
                                OutOfDomain, OrbitEscapes, NoReturn)
from horseshoe.splitting import length_scale, direction_field, adapted_norm
from horseshoe import induced as ind
from horseshoe import sampling as sp
from reference import _reference_transport
from test_branch_table import CALIBRATED, FAMILIES, valid_params


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
    n, cur = mc.leave_r1(REF_EX, (0.79, 5e-324), True, "escape_time")
    assert n == 462 and classify(REF_EX, cur) is not Region.R4
    # 0.7 * 5^-460 is subnormal; 460 steps carry it into the R4 strip
    m = (0.79, 0.7 * 5.0 ** -460)
    n, cur = mc.leave_r1(REF_EX, m, True, "escape_time")
    assert ind.escape_time(REF_EX, m) == n == 460
    assert classify(REF_EX, cur) is Region.R4


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_escape_time_closed_form(params):
    # R1 maps y to sigma*y, so a window point leaves R1 = [0,1] x [0,1/sigma]
    # at the least n >= 1 with sigma^n * y > 1/sigma: n = max(1, k - 1)
    # just above y = sigma^-k, n = k just below it, and at y = sigma^-k
    # itself the float rounding of sigma^-k may take either side
    k_max = int(300 / math.log10(params.sigma))   # sigma^-k stays normal
    for k in range(1, k_max + 1):
        y0 = params.sigma ** -k
        for y, closed in ((y0 * (1.0 + 1e-6), max(1, k - 1)),
                          (y0 * (1.0 - 1e-6), k), (y0, None)):
            if y > params.inv_sigma:
                continue
            # on the parabola of offset lam/4, inside the window at any y
            m = (params.q + math.sqrt((y + 0.25 * params.lam) / params.c), y)
            assert in_A(params, m)
            n = ind.escape_time(params, m)
            if closed is None:
                assert n in (max(1, k - 1), k), (k, n)
            else:
                assert n == closed, (k, y, n)


def test_approach_time_cap_raises_typed_error():
    # offset 0: the preimage sits on the edge x = 0 of the R4 strip, and
    # its backward orbit stays in the column R1' for ever
    m = (0.765625, 5.0 / 4096)
    assert mc.in_A(REF_EX, m) and mc.parabola_offset(REF_EX, m) == 0.0
    assert ind.approach_time(REF_EX, m) == math.inf
    # the backward walk itself still stops at its cap, with a typed error
    with pytest.raises(mc.IterationCap) as err:
        mc.leave_r1(REF_EX, m, False, "approach_time")
    assert err.value.what == "approach_time"
    assert err.value.step == mc.float_range_steps(1 / REF_EX.lam) == 326


def test_approach_time_positive():
    rng = np.random.default_rng(2)
    rp = sp.sample_returning_point(REF_EX, rng)
    assert ind.approach_time(REF_EX, rp.M) >= 1


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
    (s0a, s0b), (s2a, s2b) = ball.sides()
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
        assert adapted_norm(ch, v) == pytest.approx(
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


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_kergodic_derivative_is_the_stepwise_transport(params):
    # the carrier's product of the transposed steps is, transposed, the
    # product of each step's Jacobian multiplied onto the last, bit for
    # bit: the floats of the distortion probe's lanes
    rng = np.random.default_rng(4)
    checked = 0
    for rp in sp.sample_A_points(params, rng, 8):
        st = ind.induced_map(params, rp.M)
        if st.case != "return":
            continue
        ch_m = ind.chart(params, rp.M)
        ch_f = ind.chart(params, st.target)
        for xi in ((0.0, 0.0), (0.01, -0.02), (0.2, 0.1), (3.0, 3.0)):
            try:
                jac, _ = _reference_transport(params, ch_m.to_plane(xi),
                                              st.k)
            except OutOfDomain:
                with pytest.raises(OutOfDomain):
                    ind.kergodic_derivative(params, ch_m, ch_f, st.k, xi)
                continue
            got = ind.kergodic_derivative(params, ch_m, ch_f, st.k, xi)
            want = ch_f.inv_basis @ jac @ ch_m.basis
            assert got.tobytes() == want.tobytes()
            checked += 1
    assert checked >= 8


# --- distortion -----------------------------------------------------------

def test_distortion_probe_ref_ex():
    cert = default_certificate(REF_EX)
    rng = np.random.default_rng(0)
    rp = sp.sample_returning_point(REF_EX, rng)
    rep = ind.distortion_probe(REF_EX, rp.M, cert, np.random.default_rng(1),
                               ind.chart(REF_EX, rp.M))
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
                               np.random.default_rng(1),
                               ind.chart(REF_STRICT, rp.M))
    assert rep.worst_ratio <= 1.0 + 1e-9
    assert math.isfinite(rep.C5_est)


def test_distortion_probe_needs_return_step():
    cert = default_certificate(REF_EX)
    with pytest.raises(OutOfDomain):
        ind.distortion_probe(REF_EX, (0.79, 0.0036), cert,
                             np.random.default_rng(0),
                             ind.chart(REF_EX, (0.79, 0.0036)))


def _adapted_op_norm(a, chart_src, chart_dst):
    m = np.column_stack([chart_dst.e_u, chart_dst.e_s])
    src = np.column_stack([chart_src.e_u, chart_src.e_s])
    conj = np.linalg.inv(m) @ a @ src
    return float(np.max(np.sum(np.abs(conj), axis=1)))


def _scalar_probe(params, m, cert, rng, escaped):
    """The distortion probe as a loop over grid points and pairs, on the
    scalar charts: the reference of the stacked one.  Appends the number
    of grid points whose orbit escaped to ``escaped``."""
    step = ind.induced_map(params, m)
    if step.case != "return" or not in_A(params, step.target):
        raise OutOfDomain("distortion probe needs an A-to-A induced step")
    k = step.k
    ch_m = ind.chart(params, m)
    ch_f = ind.chart(params, step.target)
    r0 = cert.C3
    d0 = ind.kergodic_derivative(params, ch_m, ch_f, k)
    exp_u = float(np.max(np.abs(d0 @ np.array([1.0, 0.0]))))
    a_max = min(r0, 0.98 * r0 / max(exp_u, 1.0))
    n = ind._PROBE_GRID
    coords_u = np.linspace(-a_max, a_max, n)
    coords_s = np.linspace(-r0, r0, n)
    valid = np.zeros((n, n), dtype=bool)
    images = {}
    lost = 0
    for i, a in enumerate(coords_u):
        for j, b in enumerate(coords_s):
            out = ind.kergodic_apply(params, ch_m, ch_f, (a, b), k)
            lost += out is None
            if out is not None and np.max(np.abs(out)) <= r0:
                valid[i, j] = True
                images[(i, j)] = out
    escaped.append(lost)
    ci = int(np.argmin(np.abs(coords_u)))
    cj = int(np.argmin(np.abs(coords_s)))
    comp = np.zeros_like(valid)
    stack = [(ci, cj)] if valid[ci, cj] else []
    while stack:
        i, j = stack.pop()
        if comp[i, j] or not valid[i, j]:
            continue
        comp[i, j] = True
        for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            a, b = i + di, j + dj
            if 0 <= a < n and 0 <= b < n and not comp[a, b]:
                stack.append((a, b))
    cells = [ij for ij in zip(*np.nonzero(comp))]
    if len(cells) < 2:
        raise OutOfDomain("degenerate overlap component in distortion probe")
    worst = 0.0
    c5 = 0.0
    used = n_c5 = 0
    for _ in range(ind._PROBE_PAIRS):
        (i1, j1), (i2, j2) = (cells[int(rng.integers(0, len(cells)))]
                              for _ in range(2))
        if (i1, j1) == (i2, j2):
            continue
        xi1 = np.array([coords_u[i1], coords_s[j1]])
        xi2 = np.array([coords_u[i2], coords_s[j2]])
        f1, f2 = images[(i1, j1)], images[(i2, j2)]
        lin = d0 @ (xi1 - xi2)
        denom = float(np.max(np.abs(lin)))
        if denom < 1e-300:
            continue
        worst = max(worst, float(np.max(np.abs(f1 - f2 - lin))) / denom)
        try:
            jac1, c1 = _reference_transport(params, ch_m.to_plane(xi1), k)
            jac2, c2 = _reference_transport(params, ch_m.to_plane(xi2), k)
        except OutOfDomain:
            continue
        diff_norm = _adapted_op_norm(jac1 - jac2, ch_m, ch_f)
        img_gap = adapted_norm(ch_f, np.asarray(c1) - np.asarray(c2))
        if img_gap > 1e-300:
            c5 = max(c5, diff_norm * ch_f.l / img_gap)
            n_c5 += 1
        used += 1
    if used == 0:
        raise OutOfDomain("no usable pairs in distortion probe")
    return ind.DistortionReport(M=m, k=k, worst_ratio=worst, C5_est=c5,
                                n_pairs=used, n_c5=n_c5)


def _outcome(probe, *args):
    try:
        return repr(probe(*args))
    except OutOfDomain as exc:
        return f"OutOfDomain: {exc}"


def _probes_agree(params, points, cert, seed):
    """Run both probes over ``points``, each sharing one generator as a
    calibration does; every outcome and the generator state after it
    must match.  Returns the outcomes and the escaped-lane counts of the
    grids."""
    rng_ref = np.random.default_rng(seed)
    rng = np.random.default_rng(seed)
    outcomes, escaped = [], []
    for m in points:
        want = _outcome(_scalar_probe, params, m, cert, rng_ref, escaped)
        assert _outcome(ind.distortion_probe, params, m, cert, rng,
                        ind.chart(params, m)) == want
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        outcomes.append(want)
    return outcomes, escaped


@pytest.mark.parametrize("params,scales", [(REF_EX, (1.0, 20.0, 300.0)),
                                           (REF_STRICT, (1.0, 5000.0))],
                         ids=["ex", "strict"])
def test_distortion_probe_equals_the_scalar_loop(params, scales):
    # larger balls (C0 scaled up) put grid points off M's itinerary: they
    # escape, and at the largest EX scale the component around the centre
    # degenerates and the probe refuses
    points = [rp.M for rp in
              sp.sample_A_points(params, np.random.default_rng(0), 12)]
    outcomes, escaped = [], []
    for scale in scales:
        cert = default_certificate(params)
        cert = cert.with_updates(C0=cert.C0 * scale)
        got = _probes_agree(params, points, cert, 5)
        outcomes += got[0]
        escaped += got[1]
    assert max(escaped) > 0
    refusals = outcomes.count(
        "OutOfDomain: degenerate overlap component in distortion probe")
    assert refusals > 0 or params is REF_STRICT


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=8, deadline=None)
def test_distortion_probe_equals_the_scalar_loop_on_valid_params(params,
                                                                 seed):
    rng = np.random.default_rng(seed)
    try:
        points = [rp.M for rp in sp.sample_A_points(params, rng, 3)]
    except sp.SampleError:
        reject()
    _probes_agree(params, points, default_certificate(params), seed)


def test_distortion_probe_without_usable_pairs():
    class SameCell:
        """Draws cell 0 every time, so every pair is one cell twice."""

        def integers(self, lo, hi, size=None):
            return 0 if size is None else np.zeros(size, dtype=np.int64)

    rp = sp.sample_returning_point(REF_EX, np.random.default_rng(0))
    cert = default_certificate(REF_EX)
    want = _outcome(_scalar_probe, REF_EX, rp.M, cert, SameCell(), [])
    assert want == "OutOfDomain: no usable pairs in distortion probe"
    assert _outcome(ind.distortion_probe, REF_EX, rp.M, cert,
                    SameCell(), ind.chart(REF_EX, rp.M)) == want


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_distortion_probe_with_the_known_frame(params, monkeypatch):
    fields = []

    def counted(*args):
        fields.append(args[1])
        return direction_field(*args)

    monkeypatch.setattr(ind, "direction_field", counted)
    cert = default_certificate(params)
    for rp in sp.sample_A_points(params, np.random.default_rng(4), 6):
        frame = direction_field(params, rp.M)
        rng_given, rng_own = (np.random.default_rng(9) for _ in range(2))
        fields.clear()
        given_frame = _outcome(ind.distortion_probe, params, rp.M, cert,
                               rng_given, frame)
        assert rp.M not in fields and len(fields) == 1
        assert given_frame == _outcome(ind.distortion_probe, params, rp.M,
                                       cert, rng_own, ind.chart(params, rp.M))
        assert rng_given.bit_generator.state == rng_own.bit_generator.state


def test_calibration_pairs_without_an_image_gap(monkeypatch):
    # on REF_STRICT the stable contraction lam^k can map two grid points
    # onto one float point: such a pair counts in n_pairs, not in n_c5
    reports = []

    def recorded(*args):
        reports.append(probe(*args))
        return reports[-1]

    probe = ind.distortion_probe
    monkeypatch.setattr(ind, "distortion_probe", recorded)
    ind.calibrate_certificate(REF_STRICT, 40, 0)
    assert sum(r.n_pairs for r in reports) == 1196
    assert sum(r.n_pairs - r.n_c5 for r in reports) == 67


# --- crossing certificates ------------------------------------------------

def test_parabola_crosses_segment():
    p = REF_EX
    # vertex parabola against a horizontal segment above the vertex: it
    # meets it at q -+ sqrt(0.005 / c) = q -+ 0.0316
    got = ind._parabola_crossings(p, 0.0, (0.7, 0.005), (0.8, 0.005))
    assert sorted(got) == pytest.approx([p.q - math.sqrt(0.001),
                                         p.q + math.sqrt(0.001)])
    # segment entirely below the parabola
    assert ind._parabola_crossings(p, 0.0, (0.74, -0.01), (0.76, -0.01)) == []
    # a vertical segment has a2 = 0: one linear root, at s = 0.625 here
    assert ind._parabola_crossings(p, 0.0, (0.8, 0.0), (0.8, 0.02)) == [0.8]
    assert ind._parabola_crossings(p, 0.0, (0.8, 0.02), (0.8, 0.03)) == []
    # a point segment has a1 = a2 = 0: it crosses when it is on the curve
    e = 0.8 - p.q
    on = (0.8, p.c * e * e)
    assert ind._parabola_crossings(p, 0.0, on, on) == [0.8]
    off = (0.8, on[1] + 1e-3)
    assert ind._parabola_crossings(p, 0.0, off, off) == []


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_parabola_crossings_scale_the_tangent_slack(params):
    # a segment 1.56e-6 below the vertex (q, 0) of y = c*(x - q)^2 misses
    # it; its discriminant is far below 1e-9 in absolute terms, but not
    # against the terms that cancel in it
    q = params.q
    assert ind._parabola_crossings(params, 0.0, (0.749965, -1.56e-6),
                                   (0.75007, -1.56e-6)) == []
    # a segment through the vertex crosses there
    got = ind._parabola_crossings(params, 0.0, (q - 1e-5, -1e-6),
                                  (q + 1e-5, 1e-6))
    assert min(abs(x - q) for x in got) < 1e-12
    # exact tangents count: the horizontal one at the vertex, and the one
    # at x0 = q + 2^-7, whose dyadic ends make every term exact
    assert ind._parabola_crossings(params, 0.0, (q - 1e-5, 0.0),
                                   (q + 1e-5, 0.0)) == [q, q]
    x0, h, dx = q + 2.0 ** -7, 2.0 ** -7, 2.0 ** -10
    y0, slope = params.c * h * h, 2.0 * params.c * h
    ends = ((x0 - dx, y0 - slope * dx), (x0 + dx, y0 + slope * dx))
    assert ind._parabola_crossings(params, 0.0, *ends) == [x0, x0]
    # the same line lowered by 1e-6 misses
    lowered = [(x, y - 1e-6) for x, y in ends]
    assert ind._parabola_crossings(params, 0.0, *lowered) == []


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


# --- calibration ----------------------------------------------------------

def test_calibrate_certificate_deterministic():
    a = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    b = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    assert a.to_json() == b.to_json()


def test_calibrate_certificate_provenance_and_coupling():
    cert = ind.calibrate_certificate(REF_EX, sample_budget=30, seed=2)
    for name in ("C0", "eps0", "eta", "C5"):
        assert cert.provenance[name] == "estimated"
    assert cert.C3 == cert.rho1 * cert.C0
    doc = json.loads(cert.to_json())
    assert doc["C3"] == {"value": cert.C3, "provenance": "estimated"}
    assert doc["rho1"]["provenance"] == "configured"


def test_calibrated_constants_pass_on_fresh_strict_samples():
    cert = ind.calibrate_certificate(REF_STRICT, sample_budget=30, seed=2)
    rng = np.random.default_rng(9)
    for rp in sp.sample_A_points(REF_STRICT, rng, 6):
        rep = ind.u_crossing_certificate(REF_STRICT, rp.M, 1.0, cert)
        assert rep.c0_ok and rep.eps0_ok and rep.eta_ok


def test_largest_passing_bisects_below_a_threshold():
    # calibration's eta sweep passes at its upper end on both reference
    # sets, so only a threshold predicate reaches the bisection, which
    # ends on the float edge itself
    threshold, hi = 3.7e-4, 1.0
    assert ind._largest_passing(lambda v: v <= threshold, hi) == threshold
    assert ind._largest_passing(lambda v: v < threshold, hi) \
        == math.nextafter(threshold, 0.0)
    assert ind._largest_passing(lambda v: v <= 0.5 * ind._ETA_MIN, hi) is None
    at_min = ind._largest_passing(lambda v: v <= ind._ETA_MIN, hi)
    assert at_min == ind._ETA_MIN


# --- itineraries, return frames and arc crossings -------------------------

def _regions(params, p, n):
    """Regions of ``p`` and its next n - 1 images, or None when one of
    the n images does not exist: the reference itinerary, from a walk
    of its own."""
    pts = [p, *mc.iterates(params, p, n)]
    if len(pts) <= n:
        return None
    return tuple(classify(params, q) for q in pts[:n])


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_early_exit_itinerary_equals_full_sequence(params):
    rng = np.random.default_rng(8)
    seen = {True: 0, False: 0, "escaping": 0}
    for _ in range(12):
        m = sp.sample_returning_point(params, rng).M
        n, _ = mc.first_return(params, m, 4000)
        ref = _regions(params, m, n)
        for scale in (1e-12, 1e-8, 1e-4, 1e-1):
            for _ in range(8):
                # relative steps: heights in A shrink like sigma^-n1
                dx, dy = scale * rng.normal(size=2)
                x = float(m[0] + dx * abs(m[0] - params.q))
                y = float(m[1] * (1.0 + dy))
                seq = _regions(params, (x, y), n)
                fast = ind._follows(params, x, y, ref)
                assert fast == (seq == ref)
                seen[fast] += 1
                seen["escaping"] += seq is None
    assert min(seen.values()) > 0


def _return_frames_agree(params, rng, n_points):
    """Compare ``_return_frame``'s itinerary and frame at returning points
    with ``first_return`` and ``classify`` along a walk of their own."""
    for i in range(n_points):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        itinerary, frame = ind._return_frame(params, m)
        n, pts = mc.first_return(params, m, ind._RETURN_CAP)
        assert len(itinerary) == n and frame.M == pts[-1]
        assert itinerary == _regions(params, m, n)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_return_frame_records_the_itinerary_of_its_walk(params):
    _return_frames_agree(params, np.random.default_rng(6), 10)


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_the_return_frame_records_its_walk_on_valid_params(params, seed):
    try:
        _return_frames_agree(params, np.random.default_rng(seed), 3)
    except sp.SampleError:
        reject()


def test_one_arc_call_equals_one_call_per_segment():
    p = REF_EX
    rng = np.random.default_rng(3)
    cert = default_certificate(p)
    m = sp.sample_returning_point(p, rng, n1=2).M
    itinerary, fr = ind._return_frame(p, m)
    arc = (m[0], m[1] - 2e-3, m[1] + 2e-3)
    segs = []
    for rad in (0.002, 0.01, 0.05):
        for shift in (0.0, 0.02, -0.3):
            ctr = tuple(np.asarray(fr.M) + shift * fr.e_s)
            ball = ind.PolygonalBall(ctr, fr, rad, rad)
            segs += ball.sides()
    segs = np.array(segs)
    together = ind._arc_crossings(p, [arc], itinerary, segs)[0]
    alone = [ind._arc_crossings(p, [arc], itinerary, segs[i:i + 1])[0, 0]
             for i in range(len(segs))]
    assert together.tolist() == alone
    assert together.any() and not together.all()


def _image(params, itinerary):
    """The branch formulas along ``itinerary``, on floats or arrays."""
    branches = [mc.BRANCH[reg] for reg in itinerary]

    def image(x, y):
        for br in branches:
            x, y = br.forward(params, x, y)
        return x, y
    return image


#: Heights the reference samples per piece of a side arc.
REF_SAMPLES = 1025


def _reference_chords(params, arc, itinerary, segs):
    """Per segment of ``segs``, the source heights (start, stop) of the
    piece of the arc's image along ``itinerary`` over it and which of the
    piece's chords cross it, sampled in one pass with one
    ``np.linspace`` per segment; ``None`` for a segment that no piece
    meets."""
    x_side, y_lo, y_hi = arc
    segs = np.asarray(segs, dtype=float)
    lanes = [None] * len(segs)
    image = _image(params, itinerary)
    x_img_lo = image(x_side, y_lo)[0]
    x_img_hi = image(x_side, y_hi)[0]
    if x_img_lo > x_img_hi:
        y_lo, y_hi = y_hi, y_lo
        x_img_lo, x_img_hi = x_img_hi, x_img_lo
    a, b = segs[:, 0], segs[:, 1]
    d = b - a
    length = np.sqrt(d[:, None, :] @ d[:, :, None])[:, 0, 0]
    margin = np.maximum(0.05 * length, 1e-14)
    xa = np.minimum(a[:, 0], b[:, 0]) - margin
    xb = np.maximum(a[:, 0], b[:, 0]) + margin
    live = (x_img_hi >= xa) & (x_img_lo <= xb)
    k = int(np.count_nonzero(live))
    if k == 0:
        return lanes
    targets = np.concatenate([xa[live], xb[live]])
    edges = np.repeat([y_lo, y_hi], k)
    for i in np.flatnonzero((x_img_lo < targets) & (targets < x_img_hi)):
        edges[i] = ind._bisect_edge(
            lambda y, x_t=targets[i]: image(x_side, y)[0] < x_t,
            y_lo, y_hi)
    ys = np.column_stack([np.linspace(lo, hi, REF_SAMPLES)
                          for lo, hi in zip(edges[:k], edges[k:])])
    px, py = image(np.full_like(ys, x_side), ys)
    # chord p + t*r against the segment a + s*d
    ax, ay = a[live, 0], a[live, 1]
    dx, dy = b[live, 0] - ax, b[live, 1] - ay
    rx, ry = np.diff(px, axis=0), np.diff(py, axis=0)
    den = dx * ry - dy * rx
    ex, ey = px[:-1] - ax, py[:-1] - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (ex * ry - ey * rx) / den
        t = (ex * dy - ey * dx) / den
    crossed = ((np.abs(den) >= 1e-300) & (s >= -1e-9) & (s <= 1.0 + 1e-9)
               & (t >= -1e-9) & (t <= 1.0 + 1e-9))
    for j, i in enumerate(np.flatnonzero(live)):
        lanes[i] = (edges[j], edges[k + j], crossed[:, j])
    return lanes


def _reference_arc_crossings(params, arc, itinerary, segs):
    """The crossings of one arc, from :func:`_reference_chords`: the
    reference of :func:`induced._arc_crossings` on every itinerary."""
    return np.array([lane is not None and lane[2].any() for lane
                     in _reference_chords(params, arc, itinerary, segs)],
                    dtype=bool)


def test_arc_crossings_swap_the_ends_of_a_reversed_image():
    # a first return through R3 before its fold: R1 keeps the order, R3
    # reverses the height and R4 turns height into abscissa, so the
    # image abscissa falls as the source height rises
    p = REF_EX
    w = 0.17                                    # wing coordinate at R4
    y0 = (p.r3_y0 + (1.0 - (p.t + w / p.sigma)) / p.sigma) / p.sigma
    m = (p.q + math.sqrt((y0 + 0.05) / p.c), y0)    # parabola offset 0.05
    itinerary, _ = ind._return_frame(p, m)
    assert itinerary == (Region.R1, Region.R3, Region.R4)
    arc = (m[0], y0 - 1e-4, y0 + 1e-4)
    lo, hi = (list(mc.iterates(p, (m[0], h), 3))[-1] for h in arc[1:])
    assert lo[0] > hi[0]
    y = list(mc.iterates(p, m, 3))[-1][1]
    segs = [((lo[0] - 0.02, y), (lo[0], y)),    # across the image
            ((lo[0] - 0.02, 0.5), (lo[0], 0.5)),    # above it
            ((2 * p.q - lo[0], y), (2 * p.q - hi[0], y))]   # other wing
    got = ind._arc_crossings(p, [arc], itinerary, segs)[0]
    assert got.tolist() == [True, False, False]
    assert got.tolist() \
        == _reference_arc_crossings(p, arc, itinerary, segs).tolist()


def _arc_calls_agree(params, cert, monkeypatch, n_points, seed):
    """Run the crossing checks of ``crossing_digest`` (escape times 1..5,
    rho 1 and 1/2, ``cert`` and its stressed form) and compare every
    :func:`induced._arc_crossings` call they make with the reference,
    lane by lane.  Returns the calls' verdicts."""
    calls = []
    closed = ind._arc_crossings

    def compare(p, arcs, itinerary, segs):
        got = closed(p, arcs, itinerary, segs)
        want = [_reference_arc_crossings(p, arc, itinerary, segs)
                for arc in arcs]
        assert got.shape == (len(arcs), len(segs))
        assert np.array_equal(got, np.array(want).reshape(got.shape))
        calls.append(got)
        return got

    monkeypatch.setattr(ind, "_arc_crossings", compare)
    stressed = cert.with_updates(C0=3.0 * cert.C0, eta=1000.0 * cert.eta)
    rng = np.random.default_rng(seed)
    for i in range(n_points):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        for trial in (cert, stressed):
            ind.u_crossing_certificate(params, m, (1.0, 0.5)[i % 2], trial)
    assert calls
    return calls


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_arc_crossings_equal_the_per_arc_reference(family, monkeypatch):
    params = FAMILIES[family]
    cert = default_certificate(params).with_updates(**CALIBRATED[family])
    calls = _arc_calls_agree(params, cert, monkeypatch, 10, 20261018)
    # the stressed checks miss some segments, the calibrated ones none
    assert any(c.all() for c in calls) and not all(c.all() for c in calls)


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=3, deadline=None)
def test_arc_crossings_equal_the_reference_on_valid_params(params, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        try:
            _arc_calls_agree(params, default_certificate(params),
                             monkeypatch, 3, seed)
        except (sp.SampleError, NoReturn):
            reject()


@pytest.mark.parametrize("n_arcs", [8192, 100, 1])
def test_arc_crossings_at_the_ends_of_the_piece(n_arcs):
    # horizontal segments across the image parabola at the return point,
    # which rises through it: the crossing sits at 0.1 % and 99.9 % of
    # the segment, so in the first and last 5 % of the reference's piece
    # (its x-span plus 5 % of its length on each side); a segment above
    # the image never crosses.  The arc shares the call with n_arcs - 1
    # copies shifted by up to a quarter of its height, which all still
    # hold the return point, and each row is decided on its own.
    p = REF_EX
    rng = np.random.default_rng(3)
    m = sp.sample_returning_point(p, rng, n1=2).M       # returns at n = 3
    itinerary, fr = ind._return_frame(p, m)
    arc = (m[0], m[1] - 2e-3, m[1] + 2e-3)
    x, y = fr.M
    segs = [((x - 1e-5, y), (x + 0.00999, y)),
            ((x - 0.00999, y), (x + 1e-5, y)),
            ((x - 0.005, y + 0.05), (x + 0.005, y + 0.05))]
    div = REF_SAMPLES - 1
    first, last, never = (np.flatnonzero(lane[2])
                          for lane in _reference_chords(p, arc, itinerary,
                                                        segs))
    assert 0 < len(first) and first.max() < 0.05 * div
    assert 0 < len(last) and last.min() > 0.95 * div
    assert len(never) == 0
    arcs = [arc] + [(arc[0], arc[1] + d, arc[2] + d)
                    for d in np.linspace(-1e-3, 1e-3, n_arcs - 1)]
    got = ind._arc_crossings(p, arcs, itinerary, segs)
    assert got.shape == (n_arcs, 3)
    assert (got == [True, True, False]).all()
    for i in {0, n_arcs // 2, n_arcs - 1}:
        assert got[i].tolist() \
            == _reference_arc_crossings(p, arcs[i], itinerary, segs).tolist()


def test_arc_crossings_in_the_last_chord():
    # the image along (R1, R1, R4) runs from x = 0.53 to 0.97 and crosses
    # y = 0.2412 at x = 0.96999, in the last chord of the sampled piece
    p = REF_EX
    itinerary = (Region.R1, Region.R1, Region.R4)
    arc = (0.7860605407362294, 0.02624, 0.02976)
    segs = [((0.9, 0.2412), (1.05, 0.2412))]
    assert ind._arc_crossings(p, [arc], itinerary, segs).tolist() == [[True]]
    (_, _, chords), = _reference_chords(p, arc, itinerary, segs)
    assert np.flatnonzero(chords).tolist() == [REF_SAMPLES - 2]


# --- the shape of a first return -----------------------------------------

#: r3_y0 below c*w_max^2 = 0.242: f(R4) reaches the R3 strip, and a first
#: return can pass R4 twice, as the one from ``TWO_R4_POINT`` does.
#: ``validate`` refuses the set.
TWO_R4 = replace(REF_EX, r3_y0=0.21)
TWO_R4_POINT = (0.5701226641625827, 0.1485610609637745)


def test_an_early_r4_step_is_out_of_domain():
    assert not mc.validate(TWO_R4).valid
    assert _regions(TWO_R4, TWO_R4_POINT, 5) == (
        Region.R1, Region.R4, Region.R3, Region.R5, Region.R4)
    with pytest.raises(OutOfDomain, match="passes R4 at step 2 of 5"):
        ind.u_crossing_certificate(TWO_R4, TWO_R4_POINT, 1.0,
                                   default_certificate(TWO_R4))


def _first_return_itineraries(params, rng, count):
    """The first-return itineraries, each from a walk of its own, of
    ``count`` drawn points of A (those that return).  A point leaves R1
    after 1 to 5 steps, at a uniform height of the R3 or R5 strip, or of
    the R4 strip at a wing coordinate aimed at image heights in
    [0, 2/sigma]."""
    p = params
    found = []
    for _ in range(count):
        n = int(rng.integers(1, 6))
        region = (Region.R3, Region.R4, Region.R5)[int(rng.integers(0, 3))]
        if region is Region.R4:
            w = math.sqrt((p.lam ** (n + 1) * p.q
                           + 2.0 * p.inv_sigma * rng.uniform()) / p.c)
            h = p.t + min(w, p.w_max) / p.sigma
        else:
            lo, hi = mc.BRANCH[region].strip(p)
            h = lo + (hi - lo) * rng.uniform()
        y = h * p.sigma ** -n
        x = p.q + rng.choice((-1.0, 1.0)) * math.sqrt(
            (y + p.lam * rng.uniform()) / p.c)
        if not in_A(p, (x, y)):
            continue
        try:
            k, _ = mc.first_return(p, (x, y), ind._RETURN_CAP)
        except NoReturn:
            continue
        found.append(_regions(p, (x, y), k))
    return found


def _ends_on_its_only_r4_step(itinerary) -> bool:
    return itinerary.index(Region.R4) == len(itinerary) - 1


def test_first_returns_pass_r3_and_r5_before_their_fold():
    found = _first_return_itineraries(REF_EX, np.random.default_rng(0), 200)
    assert all(map(_ends_on_its_only_r4_step, found))
    before = {step for it in found for step in it[:-1]}
    assert before == {Region.R1, Region.R3, Region.R5}


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=10, deadline=None)
@example(params=replace(REF_EX, lam=0.09844964370054085,
                        sigma=4.6204992325437, c=4.52595469597493,
                        q=0.7618107814400144, t=0.6784632641334408),
         seed=0)
def test_first_returns_end_on_their_only_r4_step_on_valid_params(params,
                                                                 seed):
    # the shape that the closed-form arc crossings and the slice brackets
    # rely on, and that validate's r4_image_below_r3 check guarantees.
    # The example draws a point on the R4 strip's top edge, whose image
    # lay one ulp past the wing end q + w_max while the R4 column was
    # that bound; its return then ran on to a second R4 step
    found = _first_return_itineraries(params, np.random.default_rng(seed),
                                      60)
    assert found and all(map(_ends_on_its_only_r4_step, found))


# --- slice edges ----------------------------------------------------------

def _is_float_edge(passes, got, target) -> bool:
    """``got`` passes, and it is ``target`` or its next float towards
    ``target`` fails."""
    return passes(got) and (got == target
                            or not passes(math.nextafter(got, target)))


@pytest.mark.parametrize("good, bad, edge", [
    (1.0, -1.0, 1e-300), (-1.0, 1.0, -1e-300), (0.0, 0.22, 0.1),
    (0.22, 0.0, 0.1), (1e300, -1e-300, -5e-324), (-2.0, 3.0, 2.5),
    (0.0, 1.0, 1.0)])
def test_bisect_edge_reaches_the_last_passing_float(good, bad, edge):
    calls = []

    def passes(v):
        calls.append(v)
        return v <= edge if good < bad else v >= edge

    got = ind._bisect_edge(passes, good, bad)
    # the read of ``bad``, then at most 64 halvings of a 64-bit order
    assert len(calls) <= 1 + 64
    assert got == edge
    assert _is_float_edge(passes, got, bad)


def _slice_edge_agrees(params, ref, p, target):
    """The height ``target`` clamped to the escape slice of ``ref``
    (:func:`induced._slice`, asked from p) equals the bisection from the
    full bracket (p[1], target) at p's abscissa, and it is a float edge:
    the target itself, or a float whose next float towards the target
    fails."""
    def same(y):
        return ind._follows(params, p[0], y, ref)

    lo, hi = ind._slice(params, ref, p[1])
    got = min(max(target, lo), hi)
    assert got == ind._bisect_edge(same, p[1], target)
    assert _is_float_edge(same, got, target)
    return got


def _slice_edges_at_returns(params, rng, n_points) -> Counter:
    """Height edges from returning points, both ways, at targets from a
    few ulps of the point to beyond the square.  Counts the edges that
    stop short of their target (``inner``) and those that return it
    (``target``)."""
    seen = Counter()
    for i in range(n_points):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        ref, _ = ind._return_frame(params, m)
        assert Region.R4 not in ref[:-1]
        y = m[1]
        for d in (1e-15, 1e-9, 1e-4, 0.02, 0.3, 1.0, 2.0):
            for target in (y * (1.0 - d), y * (1.0 + d)):
                got = _slice_edge_agrees(params, ref, m, target)
                seen["target" if got == target else "inner"] += 1
    return seen


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_slice_edges_equal_the_full_bisection(params):
    seen = _slice_edges_at_returns(params, np.random.default_rng(12), 10)
    # edges at strip levels, and targets inside the slice
    assert seen["inner"] > 0 and seen["target"] > 0


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_slice_edges_equal_the_full_bisection_on_valid_params(params, seed):
    try:
        seen = _slice_edges_at_returns(params, np.random.default_rng(seed), 3)
    except (sp.SampleError, NoReturn):
        reject()
    assert seen["inner"] > 0


def test_slice_edges_are_float_edges_at_deep_returns():
    # deep in the bottom strip the heights fall far below the width of
    # the full bracket (REF_STRICT: about 6e-76 at escape time 15)
    for params, depths in ((REF_STRICT, range(11, 16)),
                           (REF_EX, (1, 5, 10, 20, 40, 60, 80))):
        rng = np.random.default_rng(7)
        for n1 in depths:
            m = sp.sample_returning_point(params, rng, n1=n1).M
            ref, _ = ind._return_frame(params, m)
            for target in (-1.0, 0.5 * m[1], 2.0 * m[1]):
                assert _slice_edge_agrees(params, ref, m, target) != target
    m = sp.sample_returning_point(REF_STRICT, np.random.default_rng(7),
                                  n1=15).M
    assert m == (0.7500878401677029, 5.999999990376883e-76)
    report = ind.u_crossing_certificate(REF_STRICT, m, 1.0,
                                        default_certificate(REF_STRICT))
    assert report.eta_ok


def _slices_of_shared_itineraries(params, rng, depths, per_depth) -> int:
    """Slices asked from different points of one itinerary, each with no
    slice known, have the same edges, and those are the full bisections
    towards -1 and 2 from each point at its own abscissa.  Returns the
    number of itineraries that two or more points share."""
    by_ref = {}
    for n1 in depths:
        for _ in range(per_depth):
            m = sp.sample_returning_point(params, rng, n1=n1).M
            by_ref.setdefault(ind._return_frame(params, m)[0], []).append(m)
    for ref, points in by_ref.items():
        edges = set()
        for m in points:
            ind._SLICES.pop((params, ref), None)
            edges.add(ind._slice(params, ref, m[1]))

            def same(y, x=m[0]):
                return ind._follows(params, x, y, ref)

            full = (ind._bisect_edge(same, m[1], -1.0),
                    ind._bisect_edge(same, m[1], 2.0))
            assert full == ind._slice(params, ref, m[1])
        assert len(edges) == 1
    return sum(len(points) > 1 for points in by_ref.values())


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_points_of_one_itinerary_share_their_slice(params):
    shared = _slices_of_shared_itineraries(
        params, np.random.default_rng(17), range(1, 6), 3)
    assert shared >= 3


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_points_of_one_itinerary_share_their_slice_on_valid_params(params,
                                                                   seed):
    try:
        _slices_of_shared_itineraries(params, np.random.default_rng(seed),
                                      range(1, 4), 2)
    except (sp.SampleError, NoReturn):
        reject()


def test_points_of_one_itinerary_share_their_slice_at_deep_returns():
    # the heights of a slice at escape time 15 on REF_STRICT are about
    # 6e-76, and those at escape time 80 on REF_EX about 1e-56
    for params, depths in ((REF_STRICT, range(11, 16)),
                           (REF_EX, (20, 40, 60, 80))):
        shared = _slices_of_shared_itineraries(
            params, np.random.default_rng(18), depths, 2)
        assert shared >= 2


def _straight_x_stays_in_the_square(params):
    for region in (Region.R1, Region.R3, Region.R5):
        for x in (0.0, 1.0):
            x_img = mc.BRANCH[region].forward(params, x, 0.5)[0]
            assert 0.0 <= x_img <= 1.0


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_eta_slice_is_a_product(params):
    # the straight steps keep x in [0, 1] and test heights only, so the
    # slice's x-range is the square's and its heights do not depend on x
    _straight_x_stays_in_the_square(params)
    rng = np.random.default_rng(16)
    for i in range(10):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        ref, _ = ind._return_frame(params, m)
        lo, hi = ind._slice(params, ref, m[1])
        for y in (m[1], lo, math.nextafter(lo, -1.0), hi,
                  math.nextafter(hi, 2.0), 0.5 * m[1], 2.0 * m[1]):
            agree = {ind._follows(params, x, y, ref)
                     for x in (0.0, m[0], 1.0)}
            assert len(agree) == 1
        for x in (-5e-324, math.nextafter(1.0, 2.0)):
            assert not ind._follows(params, x, m[1], ref)


@given(params=valid_params())
@settings(max_examples=20, deadline=None)
def test_straight_steps_keep_x_in_the_square_on_valid_params(params):
    _straight_x_stays_in_the_square(params)


#: ``_follows`` reads of one slice: two float edges, each the read of its
#: far end and at most 64 halvings (:func:`induced._bisect_edge`).
SLICE_READS = 2 * 65


def _counted_follows(monkeypatch) -> list:
    """Count ``_follows`` reads, with no slice known."""
    follows, calls = ind._follows, []

    def counted(*args):
        calls.append(args)
        return follows(*args)

    monkeypatch.setattr(ind, "_SLICES", {})
    monkeypatch.setattr(ind, "_follows", counted)
    return calls


def test_slice_edge_at_a_passing_target_takes_no_call(monkeypatch):
    p = REF_EX
    m = sp.sample_returning_point(p, np.random.default_rng(13), n1=3).M
    ref, _ = ind._return_frame(p, m)
    calls = _counted_follows(monkeypatch)
    lo, hi = ind._slice(p, ref, m[1])
    assert len(calls) <= SLICE_READS
    for target in (m[1] * (1.0 - 1e-12), m[1] * (1.0 + 1e-12)):
        calls.clear()
        assert ind._slice(p, ref, target) == (lo, hi) and not calls
        assert _slice_edge_agrees(p, ref, m, target) == target


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_slice_edge_at_a_strip_level(params, monkeypatch):
    # sigma * y lands on the R4 strip's levels exactly: the lower level
    # is outside the strip, the upper one inside
    lo, hi = mc.BRANCH[Region.R4].strip(params)
    y_lo, y_hi = lo / params.sigma, hi / params.sigma
    assert params.sigma * y_lo == lo and params.sigma * y_hi == hi
    ref = (Region.R1, Region.R4)
    m = (0.5, params.t / params.sigma)
    calls = _counted_follows(monkeypatch)
    edges = ind._slice(params, ref, m[1])
    assert len(calls) <= SLICE_READS
    calls.clear()
    assert ind._slice(params, ref, y_lo) == edges and not calls
    assert _slice_edge_agrees(params, ref, m, y_lo) \
        == math.nextafter(y_lo, 1.0)
    assert _slice_edge_agrees(params, ref, m, y_hi) == y_hi


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_eta_checks_search_each_slice_once(family, monkeypatch):
    # the first check on an itinerary finds its slice, and every later
    # check on it reads no height
    params = FAMILIES[family]
    cert = default_certificate(params).with_updates(**CALIBRATED[family])
    rng = np.random.default_rng(15)
    checks = []
    for i in range(10):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        checks.append((direction_field(params, m),
                       ind._return_frame(params, m)))
    calls = _counted_follows(monkeypatch)
    for frame, ret in checks:
        ind._eta_holds(params, frame, 1.0, cert, ret)
    itineraries = {ref for _, (ref, _) in checks}
    assert len(itineraries) < len(checks)
    assert len(calls) <= (SLICE_READS + 1) * len(itineraries)
    for frame, ret in checks:
        calls.clear()
        ind._eta_holds(params, frame, 1.0, cert, ret)
        assert not calls
