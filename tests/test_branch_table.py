"""Pins and properties of the branch table in ``map_core``.

The pinned digests are the results of the earlier per-arithmetic copies
of the branch formulas; they hold the table to the same numbers bit for
bit: the scalar map, its array evaluation, the interval hulls behind the
atom covers, and the exact rationals of the non-expansive pair.  The
properties run over perturbations of both reference sets.
"""

import dataclasses
import hashlib
import itertools
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from horseshoe import coding
from horseshoe import induced as ind
from horseshoe import manifolds as mf
from horseshoe import map_core as mc
from horseshoe import sampling as sp
from horseshoe.map_core import REF_EX, REF_STRICT, Region


def probe_points(params, n=2000, seed=20260601):
    """Seeded points: a third uniform in the square, a third in the
    horizontal strips, a third in the image bands (the parabolic band
    drawn by its offset, so inverse branches are exercised too)."""
    p = params
    rng = np.random.default_rng(seed)
    strips = [(0.0, p.inv_sigma), (p.r3_y0, p.r3_y0 + p.inv_sigma),
              (p.t - p.h, p.t + p.h), (p.r5_y0, 1.0)]
    columns = [(0.0, p.lam), (p.r3_a - p.lam, p.r3_a), (1.0 - p.lam, 1.0)]
    pts = []
    for i in range(n):
        kind = i % 3
        if kind == 0:
            pt = (rng.uniform(), rng.uniform())
        elif kind == 1:
            lo, hi = strips[int(rng.integers(0, 4))]
            pt = (rng.uniform(), rng.uniform(lo, hi))
        else:
            j = int(rng.integers(0, 4))
            if j < 3:
                lo, hi = columns[j]
                pt = (rng.uniform(lo, hi), rng.uniform())
            else:
                x = rng.uniform(p.q - p.w_max, p.q + p.w_max)
                k = rng.uniform(0.0, p.lam)
                pt = (x, p.c * (x - p.q) ** 2 - k)
        # abscissae on a 2^-20 grid, where the squares (x - q)**2 of the
        # inverse branch are exact for q = 3/4 (the pins use these points)
        pts.append((round(float(pt[0]) * 2 ** 20) / 2 ** 20, float(pt[1])))
    return pts


def _flat(v):
    if v is None:
        return None
    return tuple(float(c) for c in np.asarray(v, dtype=float).ravel())


def scalar_digest(params, pts) -> str:
    """SHA-256 over classify, apply, apply_inverse, jacobian and
    jacobian_inverse at every point (reprs are exact for floats)."""
    h = hashlib.sha256()
    for pt in pts:
        row = [mc.classify(params, pt).value, _flat(mc.apply(params, pt)),
               _flat(mc.apply_inverse(params, pt))]
        for fn in (mc.jacobian, mc.jacobian_inverse):
            try:
                row.append(_flat(fn(params, pt)))
            except mc.OutOfDomain:
                row.append("undefined")
        h.update(repr(row).encode())
    return h.hexdigest()[:16]


def atom_digest(level: dict) -> str:
    """SHA-256 over the words sorted by symbols: repr of the symbols,
    then the contiguous bytes of the box array."""
    h = hashlib.sha256()
    for word in sorted(level, key=lambda w: w.symbols):
        h.update(repr(word.symbols).encode())
        h.update(np.ascontiguousarray(level[word].boxes).tobytes())
    return h.hexdigest()[:16]


def exact_digest(rep) -> str:
    return hashlib.sha256(repr((rep.A_exact, rep.B_exact)).encode()) \
        .hexdigest()[:16]


def array_digest(params, pts, forward, inverse) -> str:
    """SHA-256 over the array evaluation of the same points: one (N, 2)
    array per strip through ``forward(region, arr)``, and the points with
    a preimage, grouped by the preimage's strip, through
    ``inverse(region, arr)``."""
    arr = np.array(pts)
    regs = [mc.classify(params, pt) for pt in pts]
    pres = [mc.apply_inverse(params, pt) for pt in pts]
    back = [None if pre is None else mc.classify(params, pre) for pre in pres]
    h = hashlib.sha256()
    for region in (Region.R1, Region.R3, Region.R4, Region.R5):
        idx = [i for i, r in enumerate(regs) if r is region]
        h.update(np.ascontiguousarray(forward(region, arr[idx])).tobytes())
        idx = [i for i, r in enumerate(back) if r is region]
        h.update(np.ascontiguousarray(inverse(region, arr[idx])).tobytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Pins
# ---------------------------------------------------------------------------

SCALAR_PINS = {"ex": "9eb308bb532864fb", "strict": "612117c7cc70021c"}
ARRAY_PINS = {"ex": "a79ea239ca21d66e", "strict": "4ed4571547300c79"}
FAMILIES = {"ex": REF_EX, "strict": REF_STRICT}


def _forward_array(params, region, arr):
    return np.stack(mc.BRANCH[region].forward(params, arr[:, 0], arr[:, 1]),
                    axis=1)


def _inverse_array(params, region, arr):
    return np.stack(mc.BRANCH[region].inverse(params, arr[:, 0], arr[:, 1]),
                    axis=1)


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_scalar_map_pinned(family):
    p = FAMILIES[family]
    assert scalar_digest(p, probe_points(p)) == SCALAR_PINS[family]


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_array_path_pinned_and_equal_to_scalar(family):
    p = FAMILIES[family]
    pts = probe_points(p)
    assert array_digest(p, pts, lambda r, a: _forward_array(p, r, a),
                        lambda r, a: _inverse_array(p, r, a)) \
        == ARRAY_PINS[family]
    arr = np.array(pts)
    for region in (Region.R1, Region.R3, Region.R4, Region.R5):
        idx = [i for i, pt in enumerate(pts) if mc.classify(p, pt) is region]
        img = _forward_array(p, region, arr[idx])
        assert [tuple(map(float, row)) for row in img] \
            == [mc.apply(p, pts[i]) for i in idx]


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_scalar_r4_inverse_equals_array_off_grid(family):
    # abscissae off any dyadic grid, where a square rounds: the scalar
    # inverse must round it as the array evaluation does
    p = FAMILIES[family]
    rng = np.random.default_rng(20261021)
    x = rng.uniform(p.q - p.w_max, p.q + p.w_max, 6000)
    y = p.c * (x - p.q) * (x - p.q) - rng.uniform(0.0, p.lam, 6000)
    pts = [(float(a), float(b)) for a, b in zip(x, y)]
    pres = [mc.apply_inverse(p, pt) for pt in pts]
    idx = [i for i, pre in enumerate(pres)
           if pre is not None and mc.classify(p, pre) is Region.R4]
    assert len(idx) > 3000
    inv = _inverse_array(p, Region.R4, np.array(pts)[idx])
    assert [tuple(map(float, row)) for row in inv] == [pres[i] for i in idx]


@pytest.mark.parametrize("family, n, pin", [
    ("ex", 1, "e1596ecaac41a52d"),
    ("strict", 2, "95b477e97d892a45"),
    ("ex", 2, "2598b1ae7b7c51b2"),
    ("ex", 3, "b4206210fb31af7e"),
])
def test_atom_covers_pinned(family, n, pin):
    assert atom_digest(coding.atoms(FAMILIES[family], n)) == pin


def test_nonexpansive_pair_rationals_pinned():
    for params, delta, pin in ((REF_STRICT, 1e-3, "a28c3a09569f3d18"),
                               (REF_EX, 3.0, "21cd40cbad867462"),
                               (REF_STRICT, 1e-6, "19dab1d60a4283fe")):
        assert exact_digest(mf.nonexpansive_pair(params, delta)) == pin


def test_calibrated_constants_pinned():
    from horseshoe.induced import calibrate_certificate
    ex = calibrate_certificate(REF_EX, 40, 0)
    assert (ex.C0, ex.eps0, ex.eta, ex.C5, ex.chi1) == (
        0.4216965034285822, 0.2766465394436166, 0.0005,
        20889.733179738094, 4.691035241721235)
    st_ = calibrate_certificate(REF_STRICT, 40, 0)
    assert (st_.C0, st_.eps0, st_.eta, st_.C5, st_.chi1) == (
        0.31622776601683794, 0.2766465394436166, 3.858024691358025e-06,
        1.2190136926933527e29, 1279.9028134093114)


#: The C0, eps0 and eta of the calibrated certificates pinned above.
CALIBRATED = {
    "ex": dict(C0=0.4216965034285822, eps0=0.2766465394436166, eta=0.0005),
    "strict": dict(C0=0.31622776601683794, eps0=0.2766465394436166,
                   eta=3.858024691358025e-06),
}


def crossing_digest(params, consts, n=10, seed=20261018) -> str:
    """SHA-256 over (c0_ok, eps0_ok, eta_ok, n_return, details) of the
    crossing reports at seeded returning points (escape times 1..5, rho
    alternating 1 and 1/2), under the calibrated certificate and under a
    stressed one (C0 x 3, eta x 1000) whose checks fail at some points."""
    cert = mc.default_certificate(params).with_updates(**consts)
    stressed = cert.with_updates(C0=3.0 * cert.C0, eta=1000.0 * cert.eta)
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        for trial in (cert, stressed):
            r = ind.u_crossing_certificate(params, m, (1.0, 0.5)[i % 2], trial)
            rows.append((r.c0_ok, r.eps0_ok, r.eta_ok, r.n_return,
                         sorted(r.details.items())))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


@pytest.mark.parametrize("family, pin", [
    ("ex", "f1078292b41e9ec7"),
    ("strict", "2c02416ce1970c51"),
])
def test_crossing_reports_pinned(family, pin):
    assert crossing_digest(FAMILIES[family], CALIBRATED[family]) == pin


def _canon(v):
    """Nested tuples of exact values: arrays as shape and bytes,
    dataclasses and dicts as (name, value) pairs."""
    if isinstance(v, np.ndarray):
        return ("array", v.shape, v.tobytes().hex())
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return tuple((f.name, _canon(getattr(v, f.name)))
                     for f in dataclasses.fields(v))
    if isinstance(v, dict):
        return tuple(sorted((repr(k), _canon(x)) for k, x in v.items()))
    if isinstance(v, (list, tuple)):
        return tuple(_canon(x) for x in v)
    if isinstance(v, (np.floating, np.integer, np.bool_)):
        return v.item()
    return v


def _record(rows, fn, *args, **kw):
    """Call ``fn`` and append its name and canonical result to ``rows``.
    A typed error counts as its class name (with its step and direction,
    and a sampler's message)."""
    try:
        out = fn(*args, **kw)
    except mc.HorseshoeError as err:
        out = (type(err).__name__, getattr(err, "step", None),
               getattr(err, "direction", None),
               str(err) if isinstance(err, sp.SampleError) else None)
    rows.append((fn.__name__, _canon(out)))
    return out


def orbit_walk_digest(params, seed=20261019) -> str:
    """SHA-256 over the outputs of every function that walks an orbit
    segment, at seeded points: itineraries, first returns, induced steps
    (every case), chart maps and derivatives, us-ball radii just off A,
    local and global leaves with their meta, invariance defects,
    brackets, mixing times, tangency pairs, Lyapunov exponents on the
    orbit path, and the two samplers.  A typed error counts as its class
    name (with its step and direction, and a sampler's message)."""
    from horseshoe import thermo
    p = params
    rng = np.random.default_rng(seed)
    cert = mc.default_certificate(p)
    rows = []

    def record(fn, *args, **kw):
        return _record(rows, fn, *args, **kw)

    def balls(points):
        for off in points:
            ball = record(ind.us_ball, p, off, 0.5, cert)
            if isinstance(ball, ind.PolygonalBall):
                rows.append((ball.radius_u, ball.radius_s))

    rps = [sp.sample_returning_point(p, rng, n1=1 + i % 5) for i in range(5)]
    # window points with random offsets: most escape into the gaps
    window = []
    for _ in range(6):
        y = float(rng.uniform(0.0, p.inv_sigma))
        k = float(rng.uniform(0.0, p.lam))
        window.append((p.q + float(rng.choice((-1.0, 1.0)))
                       * math.sqrt((k + y) / p.c), y))
    others = [(0.5, 0.5), (0.3, 0.99), (0.45, p.t), (0.3, p.t), (0.79, 0.0),
              (0.0, 0.0), (0.2, 0.5 * p.inv_sigma)]
    for m in [rp.M for rp in rps] + window:
        record(coding.itinerary, p, m, 3)
        record(mc.first_return, p, m, 4000)
    for m in [rp.M for rp in rps] + window + others:
        record(ind.induced_map, p, m)
    for rp in rps:
        step = ind.induced_map(p, rp.M)
        ch_m, ch_f = ind.chart(p, rp.M), ind.chart(p, step.target)
        for xi in ((0.0, 0.0), (0.01, -0.02), (0.2, 0.1), (3.0, 3.0)):
            record(ind.kergodic_apply, p, ch_m, ch_f, xi, step.k)
            record(ind.kergodic_derivative, p, ch_m, ch_f, step.k, xi)
        once = mc.apply(p, rp.M)
        balls((mc.apply_inverse(p, rp.M), once, mc.apply(p, once)))
    # REF_STRICT cannot thread several returns in floats: SampleError
    orbs = [record(sp.multi_return_point, p, rng, legs)
            for legs in ([1, 2, 1, 1, 2, 1, 1, 1], [1])]
    orbs = [o for o in orbs if isinstance(o, sp.MultiReturnOrbit)]
    for orb in orbs:
        balls(orb.points[1:4])
    bases = [orbs[0].M, rps[0].M]
    for m in bases:
        for leaf in (mf.local_unstable, mf.local_stable):
            record(leaf, p, m)
        for leaf in (mf.global_unstable, mf.global_stable):
            for n in (1, 2):
                record(leaf, p, m, n)
        record(mf.unstable_invariance_defect, p, m)
        record(mf.stable_invariance_defect, p, m)
        record(mf.bracket, p, m, m)
    record(mf.bracket, p, bases[0], bases[1])
    record(mf.mixing_times, p, mf.Disk((0.05, 0.5), 0.05), 12)
    record(thermo._tangency_pairs, p, 2)
    n = len(orbs[0].points) - 1
    for steps, back in ((n, 3), (n + 3, 3), (n, 12)):
        record(thermo.lyapunov, p, orbs[0].M, steps, N_back=back)
    record(sp.multi_return_point, p, rng, [1] * 6, max_tries=3)
    for count, horizon in ((10, 1), (10, 3), (3, 40)):
        record(sp.sample_nonescaping_points, p, rng, count, horizon)
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


ORBIT_WALK_PINS = {"ex": "1ef0aa625b4ac6bf", "strict": "676c04bf4b68728d"}


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_orbit_walks_pinned(family):
    assert orbit_walk_digest(FAMILIES[family]) == ORBIT_WALK_PINS[family]


def leaf_digest(params, seed=20261020, count=6):
    """SHA-256 over the leaf queries at seeded returning points (escape
    times 1..5): local leaves, global leaves at n = 1..3 and both
    invariance defects at each point, and brackets between nearest
    neighbours, both ways round.  Also returns how many of those
    brackets start from local leaves that miss each other, so that the
    bracket has to extend them to global leaves."""
    p = params
    rng = np.random.default_rng(seed)
    pts = [sp.sample_returning_point(p, rng, n1=1 + i % 5).M
           for i in range(count)]
    rows = []
    local = {}
    for m in pts:
        for leaf in (mf.local_unstable, mf.local_stable):
            local[leaf, m] = _record(rows, leaf, p, m)
        for leaf in (mf.global_unstable, mf.global_stable):
            for n in (1, 2, 3):
                _record(rows, leaf, p, m, n)
        _record(rows, mf.unstable_invariance_defect, p, m)
        _record(rows, mf.stable_invariance_defect, p, m)
    pairs = set()
    for i, a in enumerate(pts):
        j = min((j for j in range(count) if j != i),
                key=lambda j: math.dist(a, pts[j]))
        pairs.add((min(i, j), max(i, j)))
    extended = 0
    for i, j in sorted(pairs):
        for a, b in ((pts[i], pts[j]), (pts[j], pts[i])):
            _record(rows, mf.bracket, p, a, b)
            ws, wu = local[mf.local_stable, a], local[mf.local_unstable, b]
            if isinstance(ws, mf.ManifoldCurve) and \
                    isinstance(wu, mf.ManifoldCurve) and \
                    not mf._polyline_intersections(ws.points, wu.points):
                extended += 1
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16], extended


LEAF_PINS = {"ex": "1a97491ed2f92230", "strict": "911ee89e9444b4e4"}


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_leaf_queries_pinned(family):
    digest, extended = leaf_digest(FAMILIES[family])
    assert digest == LEAF_PINS[family]
    assert extended >= 1


def test_params_pickle_and_exact_fields():
    back = pickle.loads(pickle.dumps(REF_STRICT))
    assert back == REF_STRICT and back.r5_y0 == REF_STRICT.r5_y0
    exact = dataclasses.replace(REF_EX, sigma=Fraction(5), lam=Fraction(1, 10))
    assert exact.inv_sigma == Fraction(1, 5)
    assert exact.r5_y0 == 1 - Fraction(2, 15)
    assert mc.apply(exact, (Fraction(1, 2), Fraction(1, 10))) \
        == (Fraction(1, 20), Fraction(1, 2))


# ---------------------------------------------------------------------------
# Properties over the valid parameter space
# ---------------------------------------------------------------------------

PERTURBED = ("lam", "sigma", "c", "q", "t", "w_max")


@st.composite
def valid_params(draw, spread: float = 0.1):
    """REF_EX or REF_STRICT with each map field scaled by a factor in
    exp([-spread, spread]); only sets that ``validate`` accepts."""
    base = draw(st.sampled_from([REF_EX, REF_STRICT]))
    fields = {f: getattr(base, f) * math.exp(draw(st.floats(-spread, spread)))
              for f in PERTURBED}
    params = dataclasses.replace(base, **fields)
    assume(mc.validate(params).valid)
    return params


unit = st.floats(0.0, 1.0)


@given(params=valid_params(), u=unit, v=unit,
       which=st.sampled_from(mc.BRANCHES))
@settings(max_examples=50, deadline=None)
def test_inverse_undoes_forward(params, u, v, which):
    lo, hi = which.strip(params)
    x, y = u, lo + v * (hi - lo)
    back = which.inverse(params, *which.forward(params, x, y))
    # the parabolic inverse divides an O(1) offset by lam
    assert back == pytest.approx((x, y), abs=1e-12 / params.lam)


def _covered(hulls, pt, slack=1e-9) -> bool:
    return bool(np.any((hulls[:, 0] - slack <= pt[0])
                       & (pt[0] <= hulls[:, 2] + slack)
                       & (hulls[:, 1] - slack <= pt[1])
                       & (pt[1] <= hulls[:, 3] + slack)))


def _corners_and_centre(box):
    x0, y0, x1, y1 = box
    return [(x0, y0), (x1, y0), (x0, y1), (x1, y1),
            (0.5 * (x0 + x1), 0.5 * (y0 + y1))]


@given(params=valid_params(), u=unit, v=unit, size=st.floats(1e-6, 1e-2),
       which=st.sampled_from(mc.BRANCHES))
@settings(max_examples=50, deadline=None)
def test_forward_hull_contains_images(params, u, v, size, which):
    lo, hi = which.strip(params)
    y = lo + v * (hi - lo)
    x = u * (1.0 - size)
    box = np.array([[x, y, x + size, y + size / params.sigma]])
    hulls = coding._step(params, box, forward=True)[0]
    for pt in _corners_and_centre(box[0]):
        img = mc.apply(params, pt)
        if img is not None:
            assert _covered(hulls, img)


@given(params=valid_params(), u=unit, v=unit, size=st.floats(1e-3, 0.3),
       which=st.sampled_from(mc.BRANCHES))
@settings(max_examples=50, deadline=None)
def test_backward_hull_contains_preimages(params, u, v, size, which):
    # a small box around the image of a strip point
    lo, hi = which.strip(params)
    cx, cy = which.forward(params, u, lo + v * (hi - lo))
    half = 0.5 * size * params.lam
    box = np.array([[cx - half, cy - half, cx + half, cy + half]])
    hulls = coding._step(params, box, forward=False)[0]
    for pt in _corners_and_centre(box[0]):
        pre = mc.apply_inverse(params, pt)
        if pre is not None:
            assert _covered(hulls, pre)


def _rows(boxes) -> list:
    return sorted(map(tuple, np.asarray(boxes).tolist()))


@given(params=valid_params())
@settings(max_examples=10, deadline=None)
def test_cover_does_not_depend_on_the_route(params):
    # a level-1 atom refined from its level-0 parent, as a family of nine
    # siblings, against the same word refined alone from the square
    level = coding.atoms(params, 1, resolution=7)
    for symbols in itertools.product((0, 1, 2), repeat=3):
        word = coding.Word(symbols, 1)
        alone = coding.atom(params, word, resolution=7)
        if word in level:
            assert _rows(level[word].boxes) == _rows(alone.boxes)
        else:
            assert alone.empty
