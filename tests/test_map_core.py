import dataclasses
import hashlib
import json
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from horseshoe import manifolds as mf
from horseshoe import map_core as mc
from horseshoe.map_core import (MapParams, REF_EX, REF_STRICT, Region,
                                classify, apply, apply_inverse, jacobian,
                                jacobian_inverse, parabola_offset,
                                leaf_tangent, in_A, validate,
                                default_certificate, closed_form_gamma,
                                OutOfDomain)
from horseshoe import sampling as sp
from horseshoe.sampling import SampleError, sample_nonescaping_points
from test_branch_table import valid_params


def test_validate_ref_strict_clean():
    rep = validate(REF_STRICT)
    assert rep.verdict == "valid"
    assert rep.warnings == []


def test_validate_ref_ex_warns_on_slope_bound():
    rep = validate(REF_EX)
    assert rep.verdict == "valid-with-warnings"
    warned = {c.constraint for c in rep.warnings}
    assert "tan10" in warned
    # 2*sqrt(5*0.3) = 2.449... against arctan(pi/10) = 0.3044...
    tan10 = next(c for c in rep.checks if c.constraint == "tan10")
    assert tan10.value == pytest.approx(2.0 * math.sqrt(1.5), abs=1e-12)
    assert mc.ARCTAN_PI_10 == pytest.approx(0.3043957973646151, abs=1e-12)


def test_validate_full_crossing_margin():
    # c*w_max^2 - lam - 1/sigma: the lowest wing image must cross R1
    ex = next(c for c in validate(REF_EX).checks
              if c.constraint == "full_crossing")
    assert ex.kind == "soft" and not ex.passed
    assert ex.value == pytest.approx(5.0 * 0.22 ** 2 - 0.1 - 0.2, abs=1e-12)
    strict = next(c for c in validate(REF_STRICT).checks
                  if c.constraint == "full_crossing")
    assert strict.passed
    assert strict.value == pytest.approx(648.0 * 0.02 ** 2 - 2e-5, abs=1e-12)


@given(params=valid_params(), scale=st.floats(0.8, 1.2))
@example(params=REF_EX, scale=1.05)
@example(params=REF_STRICT, scale=0.9)
@settings(max_examples=60, deadline=None)
def test_full_crossing_passes_when_both_wing_tips_clear_r1(params, scale):
    # c puts the wing tips at scale * (lam + 1/sigma) - lam, so the
    # draws fall on both sides of the margin
    c = scale * (params.lam + params.inv_sigma) / params.w_max ** 2
    p = dataclasses.replace(params, c=c)
    rep = validate(p)
    assume(rep.valid)
    check = next(ch for ch in rep.checks if ch.constraint == "full_crossing")
    # the lowest image parabola (offset lam) at the strip's edges
    r4 = mc.BRANCH[Region.R4]
    tips = [r4.forward(p, 1.0, p.t + s * p.h)[1] for s in (-1.0, 1.0)]
    assume(abs(check.value) > 1e-12)         # not within rounding of 0
    assert check.kind == "soft"
    assert check.passed == all(tip > p.inv_sigma for tip in tips)
    assert check.value == pytest.approx(min(tips) - p.inv_sigma, abs=1e-12)


def test_validate_refuses_an_r4_image_in_the_r3_strip():
    # c*w_max^2 = 0.242 reaches above r3_y0 = 0.21: an R4 step can be
    # followed by an R3 step, and a first return can pass R4 twice
    rep = validate(dataclasses.replace(REF_EX, r3_y0=0.21))
    failed = [c for c in rep.checks if c.kind == "hard" and not c.passed]
    assert [c.constraint for c in failed] == ["r4_image_below_r3"]
    assert failed[0].value == pytest.approx(0.21 - 5.0 * 0.22 ** 2)
    for params in (REF_EX, REF_STRICT):
        check = next(c for c in validate(params).checks
                     if c.constraint == "r4_image_below_r3")
        assert check.passed
        assert check.value == 0.4 - params.c * params.w_max ** 2


def test_validate_rejects_large_lambda():
    bad = MapParams(lam=0.4, sigma=5.0, c=5.0, q=0.75, t=0.7,
                    w_max=0.22, r3_y0=0.4, r3_a=0.5, b=2.0)
    rep = validate(bad)
    assert rep.verdict == "invalid"
    failed = {c.constraint for c in rep.checks if c.kind == "hard" and not c.passed}
    assert "lambda_range" in failed


def test_validate_report_json_fields():
    doc = json.loads(validate(REF_EX).to_json())
    assert doc["verdict"] == "valid-with-warnings"
    for entry in doc["checks"]:
        assert {"constraint", "kind", "pass", "value", "bound"} <= set(entry)


def test_params_json_round_trip():
    text = REF_EX.to_json()
    assert json.loads(text)["lambda"] == 0.1


def test_params_digest_hashes_the_json_once():
    p = dataclasses.replace(REF_EX)          # a fresh object, nothing kept
    want = hashlib.sha256(p.to_json().encode("utf-8")).hexdigest()[:16]
    assert p.digest == want
    assert p.digest is p.digest               # the first read is kept
    assert pickle.loads(pickle.dumps(p)).digest == want


def test_classify_strips():
    assert classify(REF_EX, (0.5, 0.1)) is Region.R1
    assert classify(REF_EX, (0.2, 0.70)) is Region.R4
    assert classify(REF_EX, (0.5, 0.5)) is Region.R3
    assert classify(REF_EX, (0.5, 0.25)) is Region.R2
    assert classify(REF_EX, (1.2, 0.5)) is Region.OUTSIDE
    assert classify(REF_EX, (0.5, 0.99)) is Region.R5


def test_classify_tie_breaks_to_lower_region():
    p = REF_EX
    assert classify(p, (0.5, p.inv_sigma)) is Region.R1
    assert classify(p, (0.5, p.r3_y0)) is Region.R2
    assert classify(p, (0.5, p.t - p.h)) is Region.GAP34_LOWER
    assert classify(p, (0.5, p.t + p.h)) is Region.R4


def test_apply_branch_formulas():
    assert apply(REF_EX, (0.5, 0.1)) == pytest.approx((0.05, 0.5))
    assert apply(REF_EX, (1.0, 1.0)) == pytest.approx((1.0, 1.0))
    assert apply(REF_EX, (0.0, 0.7)) == pytest.approx((0.75, 0.0))
    assert apply(REF_EX, (0.5, 0.5)) == pytest.approx((0.45, 0.5))
    assert apply(REF_EX, (0.5, 0.25)) is None


def test_apply_inverse_examples():
    assert apply_inverse(REF_EX, (0.05, 0.5)) == pytest.approx((0.5, 0.1))
    assert apply_inverse(REF_EX, (0.75, 0.0)) == pytest.approx((0.0, 0.7))
    assert apply_inverse(REF_EX, (0.99, 0.5)) == pytest.approx((0.9, 0.9))
    # the right column below 1/3 is not an image of the top strip
    assert apply_inverse(REF_EX, (0.99, 0.2)) is None
    assert apply_inverse(REF_EX, (0.3, 0.5)) is None


def test_apply_inverse_band_overlap_disambiguation():
    # (0.5, 0.74) maps into both the R3' column test range and near R4'
    # geometry; the resolved preimage must round-trip.
    target = apply(REF_EX, (0.5, 0.74))
    pre = apply_inverse(REF_EX, target)
    assert pre == pytest.approx((0.5, 0.74), abs=1e-12)


@given(params=valid_params())
@settings(max_examples=30, deadline=None)
def test_no_point_has_two_inverse_branches(params):
    # apply_inverse takes the first valid candidate; the parameter checks
    # keep the image bands apart, so there is never a second one
    grid = np.linspace(0.0, 1.0, 41)
    probes = [(params.q, 0.0)] + [(x, y) for x in grid for y in grid]
    for br in mc.BRANCHES:
        lo, hi = br.strip(params)
        probes += [br.forward(params, x, y) for x in grid[::2]
                   for y in np.linspace(lo, hi, 15)]
    for x, y in probes:
        valid = [br for br in mc.BRANCHES if mc._in_band(params, br, x, y)
                 and mc._branch_at(params, *br.inverse(params, x, y)) is br]
        assert len(valid) <= 1


def test_jacobian_values():
    np.testing.assert_allclose(jacobian(REF_EX, (0.5, 0.1)),
                               [[0.1, 0.0], [0.0, 5.0]])
    np.testing.assert_allclose(jacobian(REF_EX, (0.0, 0.7)),
                               [[0.0, 5.0], [-0.1, 0.0]], atol=1e-14)
    np.testing.assert_allclose(jacobian(REF_EX, (0.5, 0.5)),
                               [[-0.1, 0.0], [0.0, -5.0]])
    with pytest.raises(OutOfDomain):
        jacobian(REF_EX, (0.5, 0.25))


def test_jacobian_determinant_constant():
    rng = np.random.default_rng(7)
    for pt in sample_nonescaping_points(REF_EX, rng, 200, horizon=1):
        det = abs(np.linalg.det(jacobian(REF_EX, pt)))
        assert det == pytest.approx(REF_EX.lam * REF_EX.sigma, rel=1e-12)


def test_jacobian_matches_finite_differences():
    rng = np.random.default_rng(11)
    h = 1e-6
    for pt in sample_nonescaping_points(REF_EX, rng, 100, horizon=1):
        x, y = pt
        jac = jacobian(REF_EX, pt)
        cols = []
        for dx, dy in ((h, 0.0), (0.0, h)):
            plus = apply(REF_EX, (x + dx, y + dy))
            minus = apply(REF_EX, (x - dx, y - dy))
            if plus is None or minus is None:
                break
            cols.append([(plus[0] - minus[0]) / (2 * h),
                         (plus[1] - minus[1]) / (2 * h)])
        else:
            np.testing.assert_allclose(np.array(cols).T, jac, atol=1e-5)


def _bits(v) -> bytes:
    return np.asarray(v, dtype=float).tobytes()


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_step_arrays_equals_apply_and_jacobian(params):
    # every lane against the scalar functions, bit for bit: uniform
    # points, every ladder level with its neighbouring floats (ties go to
    # the strip below, the gaps escape), outside, huge, infinite and NaN
    # lanes; a branch formula run on a huge lane would overflow, which
    # tier-1 turns into an error
    rng = np.random.default_rng(12)
    pts = [tuple(pt) for pt in rng.uniform(-0.05, 1.05, size=(600, 2))]
    for level, _, _ in params._ladder:
        for y in (np.nextafter(level, -1.0), level, np.nextafter(level, 2.0)):
            pts += [(0.3, float(y)), (0.0, float(y)), (1.0, float(y))]
    pts += [(0.0, 0.0), (1.0, 1.0), (-0.0, 0.5), (-1e-300, 0.5),
            (0.5, 1.0 + 1e-16), (1e308, 1e308), (0.5, -1e308),
            (math.inf, 0.5), (0.5, -math.inf), (math.nan, 0.5),
            (0.5, math.nan), (math.nan, math.nan)]
    xs, ys = np.array(pts).T
    x1, y1, jac = mc.step_arrays(params, xs, ys)
    assert jac.shape == (len(pts), 2, 2)
    dead = 0
    for i, pt in enumerate(pts):
        img = apply(params, pt)
        if img is None:
            dead += 1
            assert np.isnan(x1[i]) and np.isnan(y1[i])
            assert np.isnan(jac[i]).all()
            with pytest.raises(OutOfDomain):
                jacobian(params, pt)
        else:
            assert _bits((x1[i], y1[i])) == _bits(img)
            assert _bits(jac[i]) == _bits(jacobian(params, pt))
    assert 0 < dead < len(pts)


def test_inverse_round_trip():
    rng = np.random.default_rng(3)
    for pt in sample_nonescaping_points(REF_EX, rng, 300, horizon=1):
        img = apply(REF_EX, pt)
        back = apply_inverse(REF_EX, img)
        assert back == pytest.approx(pt, abs=1e-12)


@given(x0=st.floats(0.0, 1.0), y1=st.floats(0.001, 1.0), y2=st.floats(0.001, 1.0))
@settings(max_examples=200)
def test_vertical_segments_map_to_parabolas(x0, y1, y2):
    # frac = 0 would hit the strip's bottom edge, which the tie-break
    # assigns to the gap below.
    p = REF_EX
    for frac in (y1, y2):
        y = p.t - p.h + 2.0 * p.h * frac
        img = apply(p, (x0, y))
        assert img is not None
        assert abs(img[1] - (p.c * (img[0] - p.q) ** 2 - p.lam * x0)) < 1e-12


def test_parabola_offset_examples():
    assert parabola_offset(REF_EX, (0.75, 0.0)) == 0.0
    assert parabola_offset(REF_EX, (0.85, 0.05)) == pytest.approx(0.0, abs=1e-15)
    assert parabola_offset(REF_EX, (0.75, -0.1)) == pytest.approx(0.1)


def test_leaf_tangent_slopes():
    v = leaf_tangent(REF_EX, (0.75, 0.0))
    assert v == pytest.approx((1.0, 0.0))
    v = leaf_tangent(REF_EX, (0.79, parabola_offset(REF_EX, (0.79, 0.0)) * 0 + REF_EX.c * 0.04 ** 2))
    assert v[1] / v[0] == pytest.approx(0.4)
    v = leaf_tangent(REF_EX, (0.71, REF_EX.c * 0.04 ** 2))
    assert v[1] / v[0] == pytest.approx(-0.4)


def test_in_A_membership():
    p = REF_EX
    assert in_A(p, (0.79, 0.005))
    assert not in_A(p, (p.q, 0.0))       # tangency point excluded
    assert not in_A(p, (0.5, 0.5))
    assert not in_A(p, (0.79, 0.5))      # right height band, wrong strip


@given(params=valid_params(), y=st.floats(-1.0, 1.0))
@example(params=REF_EX, y=0.5)
@example(params=REF_STRICT, y=0.5)
@settings(max_examples=50, deadline=None)
def test_no_point_above_the_tangency_is_in_A(params, y):
    # on the line x = q the parabola offset is -y, so only Q could lie in
    # the band of A, and Q is excluded: l(M) = |x - q| is positive on A
    exact = mf._exact(params)
    for h in (y, 0.0, -0.0, 5e-324, 1e-300, 1e-12, params.inv_sigma):
        assert not in_A(params, (params.q, h))
        assert not in_A(exact, (exact.q, Fraction(h)))
    assert not in_A(exact, (exact.q, exact.inv_sigma))


def test_orbit_fixed_points_and_escape():
    walk = [(0.0, 0.0), *mc.iterates(REF_EX, (0.0, 0.0), 5)]
    assert walk == [(0.0, 0.0)] * 6
    assert all(classify(REF_EX, pt) is Region.R1 for pt in walk)
    assert list(mc.iterates(REF_EX, (1.0, 1.0), 5)) == [(1.0, 1.0)] * 5
    # the gap R2 has no image: the walk stops at once
    assert list(mc.iterates(REF_EX, (0.5, 0.25), 3)) == []


def hand_walk(params, step, p, n: int):
    """Up to n iterates of ``p`` under ``step``, one call at a time, and
    the index of the step that found no image (None if all n exist)."""
    pts = []
    for k in range(n):
        p = step(params, p)
        if p is None:
            return pts, k
        pts.append(p)
    return pts, None


def strip_points(params, count: int, seed: int) -> list:
    """Seeded points of the four strips; most escape within a few steps
    forward or backward, some survive."""
    rng = np.random.default_rng(seed)
    strips = [br.strip(params) for br in mc.BRANCHES]
    pts = []
    for _ in range(count):
        lo, hi = strips[int(rng.integers(0, len(strips)))]
        pts.append((float(rng.uniform()), float(rng.uniform(lo, hi))))
    return pts


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_iterates_equals_the_hand_walk(params):
    cases = set()
    for i, pt in enumerate(strip_points(params, 400, 21)):
        n = i % 9
        for forward, step in ((True, apply), (False, apply_inverse)):
            got = list(mc.iterates(params, pt, n, forward))
            want, escape = hand_walk(params, step, pt, n)
            # backward it is the chain of apply_inverse
            assert got == want
            assert len(got) <= n
            if escape is not None:
                # it stops at the first missing image
                assert len(got) == escape
                assert step(params, ([pt] + got)[-1]) is None
            cases.add((forward, escape is None))
    assert cases == {(True, True), (True, False), (False, True),
                     (False, False)}


def test_iterates_is_lazy_and_bounded(monkeypatch):
    calls = []

    def counting_apply(params, p):
        calls.append(p)
        return p

    monkeypatch.setattr(mc, "apply", counting_apply)
    walk = mc.iterates(REF_EX, (0.3, 0.4), 10 ** 9)
    assert [next(walk) for _ in range(3)] == [(0.3, 0.4)] * 3
    assert len(calls) == 3
    assert list(mc.iterates(REF_EX, (0.3, 0.4), 0)) == []
    assert len(list(mc.iterates(REF_EX, (0.3, 0.4), 7))) == 7
    monkeypatch.undo()
    assert list(mc.iterates(REF_EX, (0.5, 0.25), 3)) == []   # gap R2


def nearest_A_visit(params, m, direction: str, cap: int = 120):
    """Reference copy of the closest-A-visit search that ``us_ball`` ran
    before ``first_return`` took a direction: (steps, chain m..visit),
    or None when the orbit escapes, leaves the active regions or runs
    past the cap."""
    cur = m
    chain = [m]
    for k in range(1, cap + 1):
        if direction == "backward":
            cur = apply_inverse(params, cur)
        else:
            cur = apply(params, cur)
        if cur is None:
            return None
        chain.append(cur)
        if in_A(params, cur):
            return k, chain
        if classify(params, cur) not in mc.ACTIVE_REGIONS:
            return None
    return None


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_first_return_both_ways_equals_the_visit_search(params):
    rng = np.random.default_rng(5)
    pts = strip_points(params, 200, 9)
    for _ in range(20):
        m = sp.sample_returning_point(params, rng).M
        pts += [*mc.iterates(params, m, 4), *mc.iterates(params, m, 2, False)]
    found = {True: 0, False: 0}
    for m in pts:
        for forward in (True, False):
            want = nearest_A_visit(params, m,
                                   "forward" if forward else "backward")
            try:
                got = mc.first_return(params, m, 120, forward)
            except mc.NoReturn:
                got = None
            assert got == want
            found[forward] += got is not None
    assert min(found.values()) >= 20


SETTABLE = ["C0", "eps0", "eta", "rho1", "C5"]


def test_certificate_shapes():
    cert = default_certificate(REF_EX)
    # REF-EX closed form: min(-ln sqrt(0.1)/ln 2, ln sqrt(5)/ln 2)
    assert closed_form_gamma(REF_EX) == pytest.approx(1.1609640474436813)
    # C3 = rho1 * C0 bit for bit, and it follows either factor
    assert cert.C3 == 0.25 * 0.25 == cert.rho1 * cert.C0
    assert cert.with_updates(C0=0.3).C3 == cert.rho1 * 0.3
    assert cert.with_updates(rho1=0.1).C3 == 0.1 * cert.C0
    with pytest.raises(TypeError):
        cert.with_updates(C3=0.1)
    # the JSON lists the 5 settable constants and C3, each with its
    # provenance; C3 is estimated exactly when rho1 or C0 is
    doc = json.loads(cert.to_json())
    assert list(doc) == SETTABLE + ["C3"]
    assert doc["C3"] == {"value": 0.0625, "provenance": "configured"}
    assert all(doc[name]["provenance"] == "configured" for name in doc)
    for name in SETTABLE:
        updated = json.loads(cert.with_updates(**{name: 0.5}).to_json())
        assert updated[name] == {"value": 0.5, "provenance": "estimated"}
        assert updated["C3"]["provenance"] == (
            "estimated" if name in ("rho1", "C0") else "configured")
    for name in SETTABLE:
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match=name):
                cert.with_updates(**{name: bad})


def test_nonescaping_sampler_gives_up():
    # no point of REF_EX survives 200 steps of random strip draws, so the
    # sampler must stop after its draw budget instead of looping forever
    rng = np.random.default_rng(0)
    with pytest.raises(SampleError):
        sample_nonescaping_points(REF_EX, rng, 5, horizon=200)


def test_typed_errors_share_one_root():
    from horseshoe import coding, manifolds, sampling, thermo
    expected = {
        mc: {"OutOfDomain": ValueError, "OrbitEscapes": RuntimeError,
             "NoReturn": RuntimeError, "IterationCap": RuntimeError},
        coding: {"NotInBands": ValueError, "EmptyAtom": ValueError,
                 "Escaped": RuntimeError, "_NotACell": ValueError},
        manifolds: {"NoConvergence": RuntimeError, "Unsupported": RuntimeError,
                    "MonotonicityError": RuntimeError,
                    "NoIntersection": RuntimeError, "NonUnique": RuntimeError,
                    "NotGraphLike": ValueError,
                    "BudgetExhausted": RuntimeError,
                    "SearchFailure": RuntimeError},
        sampling: {"SampleError": RuntimeError},
        thermo: {"PotentialError": ValueError},
    }
    found = 0
    for mod, classes in expected.items():
        # every exception class the module defines is listed above
        defined = {name for name, obj in vars(mod).items()
                   if isinstance(obj, type) and issubclass(obj, Exception)
                   and obj.__module__ == mod.__name__
                   and obj is not mc.HorseshoeError}
        assert defined == set(classes)
        for name, builtin in classes.items():
            cls = getattr(mod, name)
            assert issubclass(cls, mc.HorseshoeError)
            assert issubclass(cls, builtin)
            found += 1
    assert found == 18
    assert mc.HorseshoeError.__bases__ == (Exception,)
    with pytest.raises(mc.HorseshoeError):
        mc.leave_r1(REF_EX, (0.79, 0.0), True, "escape_time")


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_leave_r1_from_a_point_without_a_first_step(params):
    # a point of the R2 gap has no image, and one between the columns R1'
    # and R3' no preimage: the walk leaves at step 1 with no iterate
    gap = (0.5, 0.3)
    assert classify(params, gap) is Region.R2 and apply(params, gap) is None
    assert mc.leave_r1(params, gap, True, "escape_time") == (1, None)
    between = (0.25, 0.5)
    assert params.lam < between[0] < params.r3_a - params.lam
    assert apply_inverse(params, between) is None
    assert mc.leave_r1(params, between, False, "approach_time") == (1, None)
