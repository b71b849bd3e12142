import dataclasses
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis.strategies import integers

from horseshoe import map_core as mc
from horseshoe.map_core import REF_EX, REF_STRICT, apply, leaf_tangent, OutOfDomain
from horseshoe import splitting as spl
from horseshoe.splitting import (Cone, length_scale, unstable_cone,
                                 stable_cone, direction_field,
                                 adapted_norm, verify_cone_return,
                                 direction_gap, holder_fit)
from horseshoe import sampling as sp
from reference import _ReferenceSweep, _carry_block, _reference_direction_field
from test_branch_table import valid_params


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
    assert cone.contains(np.array([[0.0, 1.0], [0.1, -2.0]]))
    assert not cone.contains(np.array([[0.0, 1.0], [1.0, 0.0]]))
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
    # on REF_EX the angle gamma between e_u and the leaf tangent stays
    # within the leaf's own angle alpha to the horizontal, tan = 2*c*l
    for rp in sp.sample_A_points(REF_EX, np.random.default_rng(2), 5):
        fr = direction_field(REF_EX, rp.M)
        gamma = _angle_between(fr.e_u, leaf_tangent(REF_EX, rp.M))
        assert gamma <= math.atan(2.0 * REF_EX.c * fr.l)
        assert unstable_cone(REF_EX, rp.M).contains(fr.e_u)


def test_an_unresolved_unstable_direction_used_every_preimage():
    # on REF_EX the backward walk of an A-point ends after a few
    # preimages, before the unstable cone gets below _TOL: e_u is then
    # the carry from the last preimage there is
    unresolved = Counter()
    for rp in sp.sample_A_points(REF_EX, np.random.default_rng(1), 20):
        fr = direction_field(REF_EX, rp.M)
        if fr.residual_u >= spl._TOL:
            n = len(list(mc.iterates(REF_EX, rp.M, spl.MAX_DEPTH, False)))
            assert fr.depth_u == n
            unresolved[n] += 1
    assert sum(unresolved.values()) >= 10 and max(unresolved) <= 5


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@example(params=REF_EX, seed=9)
@example(params=REF_STRICT, seed=9)
@settings(max_examples=6, deadline=None)
def test_direction_field_equivariance(params, seed):
    # Df e_u(M) is parallel to e_u(f(M)), and Df^-1 e_s(f(M)) to e_s(M),
    # within the two frames' residual budgets.  REF_EX fails
    # full_crossing and REF_STRICT passes it.
    rng = np.random.default_rng(seed)
    try:
        rps = [sp.sample_returning_point(params, rng) for _ in range(4)]
    except sp.SampleError:
        reject()
    for rp in rps:
        fr0 = direction_field(params, rp.M)
        fr1 = direction_field(params, apply(params, rp.M))
        pushed = mc.jacobian(params, rp.M) @ fr0.e_u
        pulled = mc.jacobian_inverse(params, rp.M) @ fr1.e_s
        assert direction_gap(pushed / np.linalg.norm(pushed), fr1.e_u) \
            <= fr0.residual_u + fr1.residual_u + 1e-8
        assert direction_gap(pulled / np.linalg.norm(pulled), fr0.e_s) \
            <= fr0.residual_s + fr1.residual_s + 1e-8


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_sweep_draws_the_orbit_of_iterates(params):
    # the corner and left-edge orbits stay in the square, and the sweep
    # draws them as far as it is asked, in any order; extending to a
    # point drawn already draws nothing and ends nothing; a point off the
    # square has no image
    for m, step in (((0.0, 0.3), -1), ((1.0, 1.0), 1), ((2.0, 2.0), 1)):
        walk = list(mc.iterates(params, m, 3 * spl.MAX_DEPTH + 7, step > 0))
        sweep = spl._Sweep(params, m)
        ks = [len(walk) // 2, len(walk), *range(1, len(walk) + 1)]
        assert [sweep.point(step * k) for k in ks if k] \
            == [walk[k - 1] for k in ks if k]
        assert sweep.point(0) == m
        drawn = dict(sweep.pts)
        sweep.extend(step * (len(walk) // 2))
        assert sweep.pts == drawn and step not in sweep.ends
    assert sweep.point(1) is None and not walk


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_sweep_is_covariant_along_its_orbit(params):
    # the sweep's frame at m is direction_field(m) bit for bit, and at
    # each z_j of the orbit segment z_-6..z_6 it is the stacked carry
    # over the walks of z_j read from the orbit, within the stated
    # bounds.  Those frames are covariant: Df(z_j) e_u(z_j) and
    # e_u(z_(j+1)) lie within the larger of the two points' residuals
    # (the cone of the one is nested in the other's), and so do
    # Df(z_j)^-1 e_s(z_(j+1)) and e_s(z_j), up to rounding
    def unit(v):
        return v / np.linalg.norm(v)

    pairs = 0
    for rp in sp.sample_A_points(params, np.random.default_rng(21), 20):
        sweep = spl._Sweep(params, rp.M)
        assert _field_outcome(lambda p, m: sweep.frame(0), params, rp.M) \
            == _field_outcome(direction_field, params, rp.M)
        frames = {j: sweep.frame(j) for j in range(-6, 7)
                  if sweep.point(j) is not None}
        ref = _ReferenceSweep(params, rp.M)
        for j, fr in frames.items():
            _assert_close(fr, ref.frame(j))
        for j in frames.keys() & {j - 1 for j in frames}:
            a, b = frames[j], frames[j + 1]
            pushed = mc.jacobian(params, a.M) @ a.e_u
            pulled = mc.jacobian_inverse(params, a.M) @ b.e_s
            assert direction_gap(unit(pushed), b.e_u) \
                <= max(a.residual_u, b.residual_u) + 1e-15
            assert direction_gap(unit(pulled), a.e_s) \
                <= max(a.residual_s, b.residual_s) + 1e-15
            pairs += 1
    assert pairs >= 100


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
    # the cone lemma on both reference sets: REF_STRICT passes
    # full_crossing, REF_EX does not
    for params in (REF_STRICT, REF_EX):
        rng = np.random.default_rng(6)
        for rp in sp.sample_A_points(params, rng, 40):
            rep = verify_cone_return(params, rp.M)
            assert rep.inclusion
            assert rep.min_expansion_u >= rep.bound_u
            assert rep.min_contraction_s >= rep.bound_s


def test_holder_fit_rejects_identical_points(monkeypatch):
    monkeypatch.setattr(spl, "_HOLDER_MIN_PAIRS", 1)
    with pytest.raises(ValueError):
        holder_fit(REF_EX, [((0.79, 0.005), (0.79, 0.005))])


def test_holder_fit_rejects_an_unknown_direction():
    # any other ``which`` used to fall through to the stable fit
    with pytest.raises(ValueError, match="which"):
        holder_fit(REF_STRICT, [((0.79, 0.005), (0.79, 0.006))], which="x")


def test_holder_fit_smoke():
    for which, draw in (("u", sp.holder_pairs_unstable),
                        ("s", sp.holder_pairs_stable)):
        rng = np.random.default_rng(8)
        pairs = draw(REF_STRICT, rng, 150)
        fit = holder_fit(REF_STRICT, pairs, which=which)
        assert fit.alpha_est >= 0.45
        assert len(fit.bins) >= 3


def test_cone_validation():
    with pytest.raises(ValueError):
        Cone("diagonal", 1.0)
    with pytest.raises(ValueError):
        Cone("vertical", -0.5)


def test_an_empty_walk_gives_the_start_cone(monkeypatch):
    # with no orbit to walk, each side is the start cone at m itself:
    # its axis, with the angle to its boundary rays as the residual (the
    # default cone off A, the A-cones at a point of A); every frame has
    # arrays of its own
    rp = sp.sample_A_points(REF_EX, np.random.default_rng(2), 1)[0]
    monkeypatch.setattr(mc, "iterates", lambda *args, **kwargs: iter(()))
    m = (0.45, 0.5)
    assert not mc.in_A(REF_EX, m)
    frame = direction_field(REF_EX, m)
    assert (frame.depth_u, frame.depth_b) == (0, 0)
    assert frame.e_u.tolist() == [0.0, 1.0]
    assert frame.e_s.tolist() == [1.0, 0.0]
    assert frame.residual_u == frame.residual_s \
        == math.atan2(spl.DEFAULT_SLOPE, 1.0)
    assert frame.residual_u == pytest.approx(math.pi / 6, rel=1e-15)
    at_a = direction_field(REF_EX, rp.M)
    assert (at_a.depth_u, at_a.depth_b) == (0, 0)
    assert at_a.residual_u == math.atan2(
        unstable_cone(REF_EX, rp.M).slope_bound, 1.0)
    assert at_a.residual_s == math.atan2(
        stable_cone(REF_EX, rp.M).slope_bound, 1.0)
    for fr in (frame, at_a):
        _assert_close(fr, _reference_direction_field(REF_EX, fr.M))
    again = direction_field(REF_EX, m)
    for e, f in ((frame.e_u, again.e_u), (frame.e_s, again.e_s)):
        assert e.flags.writeable and not np.shares_memory(e, f)


# --- the product scan against the stacked carry --------------------------

#: How far a frame of the product scan may lie from the stacked carry of
#: ``reference._ReferenceSweep``: each direction by ``_E_BOUND`` rad
#: (measured: 2.5e-16), each residual r by ``_RES_ABS`` + ``_RES_REL`` * r
#: (measured: 1.5e-16 below r = 1e-6, 5e-15 * r above).  Depths, and the
#: class and message of an error, agree exactly.
_E_BOUND = 1e-15
_RES_ABS, _RES_REL = 1e-15, 1e-13


def _angle_between(a, b):
    """Angle between the lines of two vectors, with one BLAS dot product:
    the per-vector reference of the stacked carry's residuals."""
    cross = abs(a[0] * b[1] - a[1] * b[0])
    dot = abs(float(np.dot(a, b)))
    return math.atan2(cross, dot)


def _scalar_carry_cone(params, chain, unstable):
    """The cone carrier as a loop over the axis vector and the two
    boundary rays, one BLAS call per vector: the reference of the
    stacked carry."""
    start = chain[0]
    axis = 1 if unstable else 0
    if mc.in_A(params, start):
        cone = (unstable_cone if unstable else stable_cone)(params, start)
    else:
        cone = Cone("vertical" if unstable else "horizontal",
                    spl.DEFAULT_SLOPE)
    vecs = [np.array([0.0, 1.0] if unstable else [1.0, 0.0])] \
        + cone.boundary_rays()
    if unstable:
        steps, derivative = chain[:-1], mc.jacobian
    else:
        steps, derivative = chain[1:], mc.jacobian_inverse
    for p in steps:
        jac = derivative(params, p)
        vecs = [jac @ v for v in vecs]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        vecs = [v if v[axis] > 0 else -v for v in vecs]
    residual = max(_angle_between(vecs[0], vecs[1]),
                   _angle_between(vecs[0], vecs[2]))
    return vecs[0], residual


def _scalar_deepest_carry(params, m, walk, unstable):
    """Every depth carried afresh, all its Jacobians rebuilt."""
    pts, best = [m], (None, math.inf, 0)
    for p in walk:
        pts.append(p)
        vec, res = _scalar_carry_cone(params, pts[::-1], unstable)
        if res < best[1]:
            best = (vec, res, len(pts) - 1)
        if res < spl._TOL:
            break
    if len(pts) == 1:
        best = (*_scalar_carry_cone(params, pts, unstable), 0)
    return best


def _scalar_direction_field(params, m):
    (e_u, res_u, depth_u), (e_s, res_s, depth_s) = (
        _scalar_deepest_carry(params, m,
                              mc.iterates(params, m, spl.MAX_DEPTH, forward),
                              not forward)
        for forward in (False, True))
    e_u = -e_u if e_u[1] <= 0 else e_u
    e_s = -e_s if e_s[0] <= 0 else e_s
    return spl.SplitFrame(M=m, e_u=e_u, e_s=e_s, depth_u=depth_u,
                          depth_b=depth_s, l=length_scale(params, m),
                          residual=max(res_u, res_s),
                          residual_u=res_u, residual_s=res_s)


def _field_outcome(field, params, m):
    """The frame's floats bit for bit, or the error the field raised."""
    try:
        fr = field(params, m)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    return (fr.e_u.tobytes(), fr.e_s.tobytes(), fr.depth_u, fr.depth_b,
            repr(fr.l), repr(fr.residual), repr(fr.residual_u),
            repr(fr.residual_s))


def _assert_close(fr, ref):
    """``fr`` is the frame ``ref`` within the stated bounds: the same
    point, length scale and depths, directions within ``_E_BOUND`` and
    residuals within ``_RES_ABS`` + ``_RES_REL`` * r."""
    assert (fr.M, fr.l, fr.depth_u, fr.depth_b) \
        == (ref.M, ref.l, ref.depth_u, ref.depth_b)
    for e, f in ((fr.e_u, ref.e_u), (fr.e_s, ref.e_s)):
        assert np.linalg.norm(e - f) <= _E_BOUND, (fr.M, e, f)
    for r, q in ((fr.residual_u, ref.residual_u),
                 (fr.residual_s, ref.residual_s),
                 (fr.residual, ref.residual)):
        assert abs(r - q) <= _RES_ABS + _RES_REL * q, (fr.M, r, q)


def _fields_close(params, points):
    """At each point, ``direction_field`` and the stacked carry raise the
    same error (class and message) or give frames within the bounds."""
    for m in points:
        try:
            ref = _reference_direction_field(params, m)
        except Exception as exc:
            with pytest.raises(type(exc)) as got:
                direction_field(params, m)
            assert str(got.value) == str(exc)
            continue
        _assert_close(direction_field(params, m), ref)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_direction_field_equals_the_scalar_carry(params):
    # sampled A-points resolve at depth; uniform points mostly escape,
    # so their walks are short or empty and their cones the default one.
    # The stacked carry is the per-vector loop bit for bit (below)
    rng = np.random.default_rng(11)
    points = [rp.M for rp in sp.sample_A_points(params, rng, 160)]
    points += [tuple(p) for p in rng.uniform(size=(2000, 2)).tolist()]
    _fields_close(params, points)


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=8, deadline=None)
def test_direction_field_equals_the_scalar_carry_on_valid_params(params,
                                                                 seed):
    rng = np.random.default_rng(seed)
    try:
        points = [rp.M for rp in sp.sample_A_points(params, rng, 10)]
    except sp.SampleError:
        reject()
    points += [tuple(p) for p in rng.uniform(size=(200, 2)).tolist()]
    _fields_close(params, points)


@pytest.mark.parametrize("block", [1, 2, 5, 7, spl.MAX_DEPTH])
@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_carry_block_changes_only_the_work(params, block):
    # the stacked carry that the scan is checked against gives the
    # floats of the per-vector loop, bit for bit, whatever its block
    rng = np.random.default_rng(19)
    points = [rp.M for rp in sp.sample_A_points(params, rng, 30)]
    points += [tuple(p) for p in rng.uniform(size=(150, 2)).tolist()]
    for m in points:
        assert _field_outcome(
            lambda p, m: _reference_direction_field(p, m, block), params, m) \
            == _field_outcome(_scalar_direction_field, params, m), m


def test_the_carry_block_of_the_reference_sets():
    assert (_carry_block(REF_EX), _carry_block(REF_STRICT)) == (6, 1)
    # a map that does not contract carries the whole walk as one block
    flat = dataclasses.replace(REF_EX, lam=REF_EX.sigma)
    assert _carry_block(flat) == spl.MAX_DEPTH


@given(params=valid_params())
@settings(max_examples=20, deadline=None)
def test_the_carry_block_is_a_depth(params):
    assert 1 <= _carry_block(params) <= spl.MAX_DEPTH


def _count_walk_work(monkeypatch):
    """Orbit draws by direction and point, and derivatives built by
    formula and point."""
    work = Counter()
    for module, name in ((mc, "apply"), (mc, "apply_inverse"),
                         (spl, "_derivative_at")):
        def counted(params, p, *args, _fn=getattr(module, name), _name=name):
            work[(_name, *args), p] += 1
            return _fn(params, p, *args)
        monkeypatch.setattr(module, name, counted)
    return work


@pytest.mark.parametrize("cap", ["rule", 2])
def test_a_carry_pushes_each_derivative_once_per_block(monkeypatch, cap):
    # a side's scan draws each walk point once and builds one derivative
    # per depth it reads: as many as the depth it returns when that
    # resolves, else its whole walk, at most MAX_DEPTH ("rule") or a
    # smaller cap.  Reading the side again draws and builds nothing
    if cap != "rule":
        monkeypatch.setattr(spl, "MAX_DEPTH", cap)
    work = _count_walk_work(monkeypatch)
    for params in (REF_EX, REF_STRICT):
        for rp in sp.sample_A_points(params, np.random.default_rng(11), 20):
            sweep = spl._Sweep(params, rp.M)
            for unstable, draw, which in (
                    (True, "apply_inverse", "derivative"),
                    (False, "apply", "derivative_inverse")):
                work.clear()
                _, res, depth = sweep.resolve(unstable, 0)
                s = -1 if unstable else 1
                walk = [j for j in sweep.pts if s * j > 0]
                read = depth if res < spl._TOL else len(walk)
                assert len(walk) <= spl.MAX_DEPTH
                assert read == len(walk) and set(work.values()) == {1}
                assert sum(n for (name, _), n in work.items()
                           if name == ("_derivative_at", which)) == read
                ended = s in sweep.ends
                assert sum(n for (name, _), n in work.items()
                           if name == (draw,)) == read + ended
                work.clear()
                assert sweep.resolve(unstable, 0)[2] == depth and not work


@pytest.mark.parametrize("depth", [3, 6, 7])
@pytest.mark.parametrize("block", ["rule", spl.MAX_DEPTH])
def test_a_failing_draw_raises_only_when_the_scan_reaches_it(monkeypatch,
                                                              block, depth):
    # the stable side of this point resolves at depth 6: a draw failing
    # at depth 7 is never reached, one at depth 6 or earlier raises.  The
    # stacked carry agrees, whether its block (6 by its rule) ends at
    # the resolving depth or runs past the failure
    m = sp.sample_A_points(REF_EX, np.random.default_rng(11), 1)[0].M
    frame = direction_field(REF_EX, m)
    assert frame.depth_b == 6 and frame.residual_s < spl._TOL
    block = None if block == "rule" else block
    walk = [m, *mc.iterates(REF_EX, m, depth, True)]

    def outcomes():
        return [_field_outcome(field, REF_EX, m) for field in (
            direction_field, _scalar_direction_field,
            lambda p, m: _reference_direction_field(p, m, block))]

    # the image walk breaks where it would draw walk[depth]
    forward = mc.apply

    def breaking(params, p):
        if p == walk[depth - 1]:
            raise OutOfDomain(f"the walk breaks at depth {depth}")
        return forward(params, p)

    monkeypatch.setattr(mc, "apply", breaking)
    new, scalar, stacked = outcomes()
    assert scalar == stacked and isinstance(new, str) == (depth <= 6)
    if isinstance(new, str):
        assert new == scalar
    else:
        _fields_close(REF_EX, [m])
    monkeypatch.setattr(mc, "apply", forward)

    # the derivative drawn first at ``depth`` is the one at walk[depth - 1]
    table = mc._derivative_at

    def failing(params, p, which):
        if which == "derivative_inverse" and p == walk[depth - 1]:
            raise OutOfDomain(f"no inverse derivative at {p}")
        return table(params, p, which)

    monkeypatch.setattr(mc, "_derivative_at", failing)
    monkeypatch.setattr(spl, "_derivative_at", failing)
    new, scalar, stacked = outcomes()
    assert scalar == stacked and isinstance(new, str) == (depth <= 6)
    if isinstance(new, str):
        assert new == scalar
    else:
        _fields_close(REF_EX, [m])


def _exact_steps(mats):
    """The running products of 2 x 2 float matrices (pairs of rows) in
    exact rationals, each new matrix on the right, as the carrier
    multiplies them: one (p00, p01, p10, p11) per matrix."""
    p00, p01, p10, p11 = Fraction(1), Fraction(0), Fraction(0), Fraction(1)
    for (d00, d01), (d10, d11) in mats:
        d00, d01, d10, d11 = map(Fraction, (d00, d01, d10, d11))
        p00, p01, p10, p11 = (p00 * d00 + p01 * d10, p00 * d01 + p01 * d11,
                              p10 * d00 + p11 * d10, p10 * d01 + p11 * d11)
        yield p00, p01, p10, p11


def _assert_exact(k, got, want):
    """2^e times the four floats of ``got`` = (p00, p01, p10, p11, e)
    is the exact product ``want``, to k roundings per entry of the
    largest entry."""
    *P, e = got
    top = max(map(abs, want))
    for v, w in zip(P, want):
        assert abs(Fraction(v) * Fraction(2) ** e - w) \
            <= 4 * k * Fraction(2) ** -52 * top


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_the_walk_products_are_the_exact_products(monkeypatch, params):
    # each P_k of a walk, times its power of two, is the exact product of
    # the walk's derivatives, to k roundings per entry of the largest
    # one: at sampled A-points, whose walks end after a few steps, and at
    # the two fixed corners, whose walks run all MAX_DEPTH steps
    monkeypatch.setattr(spl, "_TOL", 0.0)
    points = [rp.M for rp in
              sp.sample_A_points(params, np.random.default_rng(5), 4)]
    checked = deepest = 0
    for m in points + [(0.0, 0.0), (1.0, 1.0)]:
        sweep = spl._Sweep(params, m)
        for unstable in (True, False):
            s, which = ((-1, "derivative") if unstable
                        else (1, "derivative_inverse"))
            products = list(sweep.products(unstable, 0))
            mats = [spl._derivative_at(
                params, sweep.point(s * k if unstable else s * k - 1), which)
                for k in range(1, len(products) + 1)]
            for k, (got, want) in enumerate(
                    zip(products, _exact_steps(mats)), 1):
                assert sweep.slopes[unstable][s * k] == spl._cone_slope(
                    params, sweep.point(s * k), unstable)
                _assert_exact(k, got, want)
                checked += 1
            deepest = max(deepest, len(products))
    assert checked >= 20 + 4 * spl.MAX_DEPTH
    assert deepest == spl.MAX_DEPTH >= 60


def test_the_product_stays_in_range_over_a_full_walk(monkeypatch):
    # at the fixed points of REF_STRICT each step scales P by sigma = 1e5
    # in one entry: unscaled, the cone's products pass the float range
    # within the 60 steps of MAX_DEPTH (sigma^120 > 1e308).  Rescaled,
    # every depth is read, the power of two takes up the growth (2^e P
    # is still the exact product), with finite residuals down to 0, and
    # the axes stay exact
    monkeypatch.setattr(spl, "_TOL", 0.0)
    p = REF_STRICT
    unscaled = p.sigma ** spl.MAX_DEPTH
    assert unscaled * unscaled == math.inf
    for m in ((0.0, 0.0), (1.0, 1.0)):
        sweep = spl._Sweep(p, m)
        for unstable in (True, False):
            products = list(sweep.products(unstable, 0))
            assert len(products) == spl.MAX_DEPTH
            for *P, _ in products:
                assert 1e-100 <= max(map(abs, P)) <= 1e100 * p.sigma
            d = spl._derivative_at(
                p, m, "derivative" if unstable else "derivative_inverse")
            exact = list(_exact_steps([d] * spl.MAX_DEPTH))
            _assert_exact(spl.MAX_DEPTH, products[-1], exact[-1])
            assert products[-1][-1] > 0
        frame = sweep.frame(0)
        assert frame.e_u.tolist() == [0.0, 1.0]
        assert frame.e_s.tolist() == [1.0, 0.0]
        assert frame.residual == 0.0 and 1 < frame.depth_u < spl.MAX_DEPTH


def _scalar_cone_return(params, m):
    """The cone-return check as a loop over the nine cone vectors, with
    the Jacobians along the orbit rebuilt for every vector: the
    reference of the stacked check."""
    if not mc.in_A(params, m):
        raise OutOfDomain(f"{m} is not in the tangency window A")
    n, pts = mc.first_return(params, m, spl._RETURN_CAP)
    jacs = [mc.jacobian(params, p) for p in pts[:-1]]

    def unit_vectors(cone):
        r0, r1 = cone.boundary_rays()
        a0 = math.atan2(r0[1], r0[0])
        a1 = math.atan2(r1[1], r1[0])
        vecs = []
        for i in range(spl._CONE_SAMPLES + 2):
            a = a0 + (a1 - a0) * i / (spl._CONE_SAMPLES + 1)
            vecs.append(np.array([math.cos(a), math.sin(a)]))
        return vecs

    def contains(cone, v):
        u, w = float(v[0]), float(v[1])
        if cone.axis == "vertical":
            return abs(u) <= cone.slope_bound * abs(w)
        return abs(w) <= cone.slope_bound * abs(u)

    cone_u = unstable_cone(params, m)
    target_u = unstable_cone(params, pts[-1])
    inclusion = True
    min_exp = math.inf
    for v in unit_vectors(cone_u):
        img = v
        for jac in jacs:
            img = jac @ img
        min_exp = min(min_exp, float(np.linalg.norm(img)))
        if not contains(target_u, img):
            inclusion = False
    bound_u = params.sigma ** (n / 2.0)

    cone_s = stable_cone(params, pts[-1])
    target_s = stable_cone(params, m)
    min_con = math.inf
    for v in unit_vectors(cone_s):
        img = v
        for p in reversed(pts[:-1]):
            img = mc.jacobian_inverse(params, p) @ img
        min_con = min(min_con, float(np.linalg.norm(img)))
        if not contains(target_s, img):
            inclusion = False
    bound_s = params.lam ** (-n / 2.0)
    return spl.ReturnReport(M=m, n=n, inclusion=inclusion,
                            min_expansion_u=min_exp, bound_u=bound_u,
                            min_contraction_s=min_con, bound_s=bound_s)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_verify_cone_return_equals_the_scalar_loop(params):
    # one product of the derivatives applied to the cone stack, against
    # each vector carried step by step: the same return time and
    # inclusion, and expansions that move by rounding alone (at most
    # 6.2e-16 relative over 400 sampled A-points per set)
    rng = np.random.default_rng(13)
    for rp in sp.sample_A_points(params, rng, 20):
        got = verify_cone_return(params, rp.M)
        want = _scalar_cone_return(params, rp.M)
        assert (got.M, got.n, got.inclusion, got.bound_u, got.bound_s) \
            == (want.M, want.n, want.inclusion, want.bound_u, want.bound_s)
        for a, b in ((got.min_expansion_u, want.min_expansion_u),
                     (got.min_contraction_s, want.min_contraction_s)):
            assert abs(a - b) <= 2e-15 * b


def _same_floats(a, b) -> bool:
    """Bit-equal, except that any two NaNs count as equal."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return bool(np.all((a.view(np.uint64) == b.view(np.uint64))
                       | (np.isnan(a) & np.isnan(b))))


def test_stacked_blas_forms_equal_the_per_vector_calls():
    # The stacked cone reference (tests/reference.py) and the distortion
    # probe rely on these stacked forms giving the floats of the
    # per-vector calls; a numpy or BLAS change that breaks it fails here
    # rather than moving the pins.
    rng = np.random.default_rng(17)
    k = 10000

    def draw(*shape):
        out = rng.uniform(-1.0, 1.0, size=shape) \
            * 10.0 ** rng.integers(-300, 301, size=shape)
        out[rng.uniform(size=shape) < 0.05] = 0.0
        return out

    jacs, vecs, other = draw(k, 2, 2), draw(k, 2), draw(k, 2)
    cones = draw(k, 3, 2)
    V, W = vecs[:, :, None], other[:, :, None]
    with np.errstate(all="ignore"):
        stacked = (jacs @ V)[:, :, 0]
        broadcast = (jacs[0] @ V)[:, :, 0]
        norms = np.sqrt(V.swapaxes(1, 2) @ V)[:, 0, 0]
        dots = (V.swapaxes(1, 2) @ W)[:, 0, 0]
        # each cone's axis against its two rays, as _cone_residuals takes it
        ray_dots = (cones[:, None, :1] @ cones[:, 1:, :, None])[:, :, 0, 0]
        for i in range(k):
            assert _same_floats(stacked[i], jacs[i] @ vecs[i])
            assert _same_floats(broadcast[i], jacs[0] @ vecs[i])
            assert _same_floats(norms[i], np.linalg.norm(vecs[i]))
            assert _same_floats(dots[i], np.dot(vecs[i], other[i]))
            for r in (1, 2):
                assert _same_floats(ray_dots[i, r - 1],
                                    np.dot(cones[i, 0], cones[i, r]))


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
