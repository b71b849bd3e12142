import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horseshoe import map_core as mc
from horseshoe.map_core import (MapParams, REF_EX, REF_STRICT, Region,
                                classify, apply, apply_inverse, jacobian,
                                jacobian_inverse, parabola_offset,
                                leaf_tangent, in_A, orbit, validate,
                                default_certificate, closed_form_gamma,
                                OutOfDomain)
from horseshoe import sampling as sp
from horseshoe.sampling import SampleError, sample_nonescaping_points


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
    assert MapParams.from_json(text) == REF_EX


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


def test_orbit_fixed_points_and_escape():
    rec = orbit(REF_EX, (0.0, 0.0), 5)
    assert all(pt == (0.0, 0.0) for pt in rec.fwd_points)
    assert all(lbl is Region.R1 for lbl in rec.fwd_labels)
    rec = orbit(REF_EX, (1.0, 1.0), 5)
    assert all(pt == (1.0, 1.0) for pt in rec.fwd_points)
    rec = orbit(REF_EX, (0.5, 0.25), 3)
    assert rec.fwd_escape == 0


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
        orb = orbit(params, m, 4, 2)
        pts += orb.fwd_points[1:] + orb.bwd_points
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


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT])
def test_orbit_escape_indices_match_the_hand_walk(params):
    escaped = {"forward": 0, "backward": 0}
    for i, pt in enumerate(strip_points(params, 300, 17)):
        n_fwd, n_bwd = i % 7, (i // 7) % 7
        rec = orbit(params, pt, n_fwd, n_bwd)
        fwd, fwd_escape = hand_walk(params, apply, pt, n_fwd)
        bwd, bwd_escape = hand_walk(params, apply_inverse, pt, n_bwd)
        assert rec.fwd_points == [pt] + fwd
        assert rec.bwd_points == bwd
        assert (rec.fwd_escape, rec.bwd_escape) == (fwd_escape, bwd_escape)
        assert rec.fwd_labels == [classify(params, q) for q in [pt] + fwd]
        assert rec.bwd_labels == [classify(params, q) for q in bwd]
        escaped["forward"] += fwd_escape is not None
        escaped["backward"] += bwd_escape is not None
    assert min(escaped.values()) >= 20


def test_certificate_shapes():
    cert = default_certificate(REF_EX)
    assert cert.chi0 == 4.0
    assert cert.gamma == pytest.approx(closed_form_gamma(REF_EX))
    # REF-EX closed form: min(-ln sqrt(0.1)/ln 2, ln sqrt(5)/ln 2)
    assert closed_form_gamma(REF_EX) == pytest.approx(1.1609640474436813)
    assert cert.C3 == pytest.approx(cert.rho1 * cert.C0)
    doc = json.loads(cert.to_json())
    assert doc["chi0"] == {"value": 4.0, "provenance": "configured"}
    updated = cert.with_updates(rho1=0.1)
    assert updated.C3 == pytest.approx(0.1 * cert.C0)
    assert updated.provenance["rho1"] == "estimated"
    with pytest.raises(ValueError):
        default_certificate(REF_EX).__class__(**{**cert.__dict__, "chi0": 3.0})


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
                 "Escaped": RuntimeError},
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
    assert found == 17
    assert mc.HorseshoeError.__bases__ == (Exception,)
    with pytest.raises(mc.HorseshoeError):
        mc.leave_r1(REF_EX, (0.79, 0.0), True, "escape_time")
