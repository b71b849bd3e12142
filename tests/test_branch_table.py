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
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
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
    assert (ex.C0, ex.eps0, ex.eta, ex.C5) == (
        0.4216965034285822, 0.2766465394436166, 0.0005, 20851.64128779252)
    st_ = calibrate_certificate(REF_STRICT, 40, 0)
    assert (st_.C0, st_.eps0, st_.eta, st_.C5) == (
        0.31622776601683794, 0.2766465394436166, 3.858024691358025e-06,
        1.2190136926933527e29)


#: The C0, eps0 and eta of the calibrated certificates pinned above.
CALIBRATED = {
    "ex": dict(C0=0.4216965034285822, eps0=0.2766465394436166, eta=0.0005),
    "strict": dict(C0=0.31622776601683794, eps0=0.2766465394436166,
                   eta=3.858024691358025e-06),
}


def crossing_digest(params, consts, n=10, seed=20261018) -> tuple:
    """SHA-256 over (c0_ok, eps0_ok, eta_ok, n_return, details) of the
    crossing reports at seeded returning points (escape times 1..5, rho
    alternating 1 and 1/2), under the calibrated certificate and under a
    stressed one (C0 x 3, eta x 1000) whose checks fail at some points.
    Also returns their value table: per report the three verdicts,
    ``n_return``, ``d_h`` and ``d_v``."""
    cert = mc.default_certificate(params).with_updates(**consts)
    stressed = cert.with_updates(C0=3.0 * cert.C0, eta=1000.0 * cert.eta)
    rng = np.random.default_rng(seed)
    rows, table = [], []
    for i in range(n):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        for trial in (cert, stressed):
            r = ind.u_crossing_certificate(params, m, (1.0, 0.5)[i % 2], trial)
            rows.append((r.c0_ok, r.eps0_ok, r.eta_ok, r.n_return,
                         sorted(r.details.items())))
            table.append((r.c0_ok, r.eps0_ok, r.eta_ok, r.n_return,
                          r.details["d_h"], r.details["d_v"]))
    return (hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            tuple(table))


#: The value table of each crossing pin (``crossing_digest``): per
#: report c0_ok, eps0_ok, eta_ok, n_return, d_h and d_v.
CROSSING_TABLES = {
    "ex": (
        (True, True, True, 2, 0.23861436190965102, 0.040251941476247),
        (False, False, False, 2, 0.715843085728953, 0.12075582442874107),
        (True, True, True, 3, 0.08068431700307621, 0.010209603084308568),
        (False, False, False, 3, 0.24205295100922886, 0.03062880925292571),
        (True, True, True, 4, 0.13882680613377407, 0.015396360634944945),
        (False, False, False, 4, 0.416480418401322, 0.046189081904834825),
        (True, True, True, 5, 0.0671625765921593, 0.007228611623729001),
        (False, False, True, 5, 0.2014877297764781, 0.021685834871187006),
        (True, True, True, 6, 0.13325526658278153, 0.014237466083647711),
        (False, False, False, 6, 0.3997657997483441, 0.042712398250943126),
        (True, True, True, 2, 0.11694100353546555, 0.019914348210568922),
        (True, True, False, 2, 0.23545362811218518, 0.05974304463170671),
        (True, True, True, 3, 0.16188245373868182, 0.02053933574593839),
        (False, False, False, 3, 0.4856473612160452, 0.06161800723781517),
        (True, True, True, 4, 0.06967972454488769, 0.0077544983125842045),
        (False, False, True, 4, 0.2090391736346633, 0.023263494937752614),
        (True, True, True, 5, 0.13358546991775522, 0.01430514730326281),
        (False, False, False, 5, 0.40075640975326604, 0.04291544190978843),
        (True, True, True, 6, 0.06629715990979324, 0.007051189736853179),
        (False, False, True, 6, 0.1988914797293797, 0.02115356921055954),
    ),
    "strict": (
        (True, True, True, 2, 0.00016365348940805546, 3.7955030673410414e-06),
        (False, False, False, 2, 0.0004909604682237223,
         1.1386509202023126e-05),
        (True, True, True, 3, 5.5377066394246555e-05, 8.692118130164686e-07),
        (False, False, True, 3, 0.00016613119918318375,
         2.6076354390494055e-06),
        (True, True, True, 4, 0.00011075347245603773, 1.7384030007750746e-06),
        (False, False, False, 4, 0.00033226041736855727,
         5.215209002325223e-06),
        (True, True, True, 5, 5.5376736229018064e-05, 8.692015004007203e-07),
        (False, False, True, 5, 0.00016613020868683215, 2.607604501202161e-06),
        (True, True, True, 6, 0.00011075347245870226, 1.738403000816821e-06),
        (False, False, False, 6, 0.0003322604173765509, 5.215209002450463e-06),
        (True, True, True, 2, 8.182674468337758e-05, 1.897751533195087e-06),
        (False, False, True, 2, 0.0002454802340503548, 5.693254599585262e-06),
        (True, True, True, 3, 0.00011075413279071356, 1.7384236260636978e-06),
        (False, False, False, 3, 0.0003322623983723627, 5.215270878191093e-06),
        (True, True, True, 4, 5.5376736229018064e-05, 8.69201500401819e-07),
        (False, False, True, 4, 0.0001661302086870542, 2.607604501205457e-06),
        (True, True, True, 5, 0.00011075347245248501, 1.7384030007157503e-06),
        (False, False, False, 5, 0.000332260417357233, 5.215209002147251e-06),
        (True, True, True, 6, 5.537673622679762e-05, 8.69201500366664e-07),
        (False, False, True, 6, 0.0001661302086801708, 2.6076045010999913e-06),
    ),
}


@pytest.mark.parametrize("family, pin", [
    ("ex", "f1078292b41e9ec7"),
    ("strict", "d94f48ca6108dd3f"),
])
def test_crossing_reports_pinned(family, pin):
    digest, table = crossing_digest(FAMILIES[family], CALIBRATED[family])
    pinned = CROSSING_TABLES[family]
    assert digest == pin, _moves("u_crossing_certificate", pinned, table)
    assert table == pinned


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


def _row_digests(rows) -> tuple:
    """(SHA-256 over all rows, {function name: SHA-256 over its rows}).
    A row that does not start with a function name, such as the radii
    of a us-ball, counts with the record before it."""
    groups, name = {}, None
    for row in rows:
        if isinstance(row[0], str):
            name = row[0]
        groups.setdefault(name, []).append(row)
    return (hashlib.sha256(repr(rows).encode()).hexdigest()[:16],
            {name: hashlib.sha256(repr(group).encode()).hexdigest()[:16]
             for name, group in groups.items()})


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


#: The functions whose pins keep a table of values beside the digest.
VALUED = ("local_unstable", "local_stable", "global_unstable",
          "global_stable", "unstable_invariance_defect",
          "stable_invariance_defect", "bracket")


def _tabulate(tables, name, out):
    """Append to ``tables[name]`` the values that a pin's table keeps of
    one result of a ``VALUED`` function: a leaf's end points (and a local
    leaf's ``rho_effective``), a defect, a bracket's point and angle, and
    for a typed error (as ``_record`` returns it) its class name."""
    if name not in VALUED:
        return
    if isinstance(out, mf.ManifoldCurve):
        row = (*out.points[0], *out.points[-1])
        if "rho_effective" in out.meta:
            row += (out.meta["rho_effective"],)
    elif isinstance(out, mf.Bracket):
        row = (*out.point, out.angle)
    elif isinstance(out, tuple):
        row = out[0]
    else:
        row = (out,)
    tables.setdefault(name, []).append(
        row if isinstance(row, str) else tuple(float(v) for v in row))


def _moves(name, old, new) -> str:
    """The largest absolute and relative move from the pinned value
    table ``old`` of one function to its values ``new``, and the rows
    whose outcome changed (an error, or a result of another shape)."""
    if len(old) != len(new):
        return f"{name}: {len(old)} pinned rows, {len(new)} now"
    changed, diffs = [], []
    for i, (a, b) in enumerate(zip(old, new)):
        if isinstance(a, str) or isinstance(b, str) or len(a) != len(b):
            if a != b:
                changed.append(i)
        else:
            diffs += [(abs(y - x), abs(y - x) / abs(x) if x else 0.0)
                      for x, y in zip(a, b)]
    top = max((d for d, _ in diffs), default=0.0)
    rel = max((r for _, r in diffs), default=0.0)
    out = f"{name}: largest move {top:.3g} absolute, {rel:.3g} relative"
    return out + (f"; outcome changed in rows {changed}" if changed else "")


def _check_function_pins(by_function: dict, tables: dict, pins: dict):
    """Compare each function's digest with its pin, bit for bit.  A
    mismatch names, for each moved function with a value table, the
    largest move of its values; where the digest holds, the table must
    equal the values, so the tables cannot go stale."""
    digests = {name: pin if isinstance(pin, str) else pin[0]
               for name, pin in pins.items()}
    moved = [_moves(name, pin[1], tables.get(name, ()))
             for name, pin in pins.items() if not isinstance(pin, str)
             and by_function.get(name) != pin[0]]
    assert by_function == digests, "\n".join(moved)
    for name, pin in pins.items():
        if not isinstance(pin, str):
            assert tuple(tables[name]) == pin[1], name


def orbit_walk_digest(params, seed=20261019) -> tuple:
    """SHA-256 over the outputs of every function that walks an orbit
    segment, at seeded points: itineraries, first returns, induced steps
    (every case), chart maps and derivatives, us-ball radii just off A,
    local and global leaves with their meta, invariance defects,
    brackets, mixing times, tangency pairs, Lyapunov exponents on the
    orbit path, and the two samplers.  A typed error counts as its class
    name (with its step and direction, and a sampler's message).  Also
    returns the digest of each function's outputs (``_row_digests``) and
    the value tables of the ``VALUED`` ones (``_tabulate``)."""
    from horseshoe import thermo
    p = params
    rng = np.random.default_rng(seed)
    cert = mc.default_certificate(p)
    rows, tables = [], {}

    def record(fn, *args, **kw):
        out = _record(rows, fn, *args, **kw)
        _tabulate(tables, fn.__name__, out)
        return out

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
    with mock.patch.object(mf, "_MIXING_BUDGET", 12):
        record(mf.mixing_times, p, mf.Disk((0.05, 0.5), 0.05))
    record(thermo._tangency_pairs, p, 2)
    n = len(orbs[0].points) - 1
    for steps, back in ((n, 3), (n + 3, 3), (n, 12)):
        record(thermo.lyapunov, p, orbs[0].M, steps, N_back=back)
    with mock.patch.object(sp, "_MAX_TRIES", 3):
        record(sp.multi_return_point, p, rng, [1] * 6)
    for count, horizon in ((10, 1), (10, 3), (3, 40)):
        record(sp.sample_nonescaping_points, p, rng, count, horizon)
    return (*_row_digests(rows), tables)


ORBIT_WALK_PINS = {"ex": "1ef0aa625b4ac6bf", "strict": "676c04bf4b68728d"}
#: The same outputs, one digest per function: a failing pin names the
#: functions whose outputs moved.  A ``VALUED`` function's pin is its
#: digest and its table of values (``_tabulate``), from which a failing
#: pin reports how far each moved.
ORBIT_WALK_FUNCTION_PINS = {
    "ex": {
        "itinerary": "e27f2925836aca3d",
        "first_return": "4eb0c79c0ca1ea27",
        "induced_map": "992740989c462192",
        "kergodic_apply": "fcf9300e722f091c",
        "kergodic_derivative": "4d8afdd48763906c",
        "us_ball": "f6727ef106824cdc",
        "multi_return_point": "929b533371f959c5",
        "local_unstable": ("cb739a648f81d953", (
            (0.5612663613817616, 0.13803927102987912, 0.5557254930289752,
             0.14865023142006575, 0.0059851297098882025),
            (0.5650267524966218, 0.13022375328438607, 0.559509792936021,
             0.1405808034070389, 0.005867251143923634),
        )),
        "local_stable": ("084307056b67b774", (
            (0.552490720911707, 0.14334187729024742, 0.5644609789607681,
             0.1433476034505253, 0.0059851297098882025),
            "Unsupported",
        )),
        "global_unstable": ("df00884cb63fa76f", (
            (0.5299999999999998, 0.20193724008215377, 0.5967491265145651,
             0.07736639120239716),
            (0.6604871827338107, 0.0, 0.5299999999999998, 0.20193724008215377),
            (0.5299999999999998, 0.20114814916566554, 0.6005212406254311,
             0.07086764668646643),
            "Unsupported",
        )),
        "global_stable": ("abef53e539984e7d", (
            (0.4819512866860532, 0.14330793235861888, 0.6350006210654019,
             0.14338115024370285),
            (0.343389272283532, 0.1432402184447519, 0.7803906101867708,
             0.1434492647960239),
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("bfd3597c07c15f49", (
            (6.938893903907228e-18,),
            (6.938893903907228e-18,),
        )),
        "stable_invariance_defect": ("1e150e836a572a7c", (
            (2.7973333210920605e-10,),
            "Unsupported",
        )),
        "bracket": ("9afa2a759462b460", (
            (0.5584758492835775, 0.1433447416203879, 1.0904024242660626),
            "Unsupported",
            "NoIntersection",
        )),
        "mixing_times": "68c979d98391a57b",
        "_tangency_pairs": "094308dddf8f3843",
        "lyapunov": "b0a1e772069de66d",
        "sample_nonescaping_points": "504fd1c39980ad7c",
    },
    "strict": {
        "itinerary": "6ff907b4e459cea9",
        "first_return": "aee0f7219da2696b",
        "induced_map": "6644312b6e8bb87a",
        "kergodic_apply": "6d4bfa938a754657",
        "kergodic_derivative": "4591f61909484b3c",
        "us_ball": "7531b7417b7590ed",
        "multi_return_point": "aabeeb5db17470f6",
        "local_unstable": ("eb8351b1c7cc23c7", (
            (0.749869711756557, 5.999917259795095e-06, 0.7498697107764002,
             6.000082762151945e-06, 4.970120792619534e-10),
            (0.7498697117566625, 5.999917241992696e-06, 0.7498697107765052,
             6.000082744349412e-06, 4.970120788604597e-10),
        )),
        "local_stable": ("f37080f3454d4ffb", (
            (0.7498656397425406, 6.00000001097352e-06, 0.7498737827884473,
             6.00000001097352e-06, 4.071522953313922e-06),
            (0.7498656397426492, 5.999999993171054e-06, 0.7498737827885492,
             5.999999993171054e-06, 4.071522950024886e-06),
        )),
        "global_unstable": ("cf663d13a3bf3271", (
            (0.7299999999994249, 0.25919500011490615, 0.749912702352791, 0.0),
            "Unsupported",
            (0.7299999999994249, 0.2591950001149061, 0.7499127023527907, 0.0),
            "Unsupported",
        )),
        "global_stable": ("eefcf7442b4d4393", (
            "Unsupported",
            "Unsupported",
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("850dae4f44978cbb", (
            (0.0,),
            (0.0,),
        )),
        "stable_invariance_defect": ("2f1c66eedc32f60e", (
            (1.1102230246251565e-16,),
            (1.1102230246251565e-16,),
        )),
        "bracket": ("0a1045df29b1c66e", (
            (0.7498697112654956, 6.00000001097352e-06, 0.16746193086839603),
            (0.7498697112656011, 5.999999993171054e-06, 0.16744284857573988),
            (0.7498697112654957, 6.00000001097352e-06, 0.16744284857573988),
        )),
        "mixing_times": "63e0e7e81ecdd3a2",
        "_tangency_pairs": "485dafb9b385049b",
        "lyapunov": "e674b994a8b6ec40",
        "sample_nonescaping_points": "2bc7a04e3bb344fe",
    },
}


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_orbit_walks_pinned(family):
    digest, by_function, tables = orbit_walk_digest(FAMILIES[family])
    _check_function_pins(by_function, tables,
                         ORBIT_WALK_FUNCTION_PINS[family])
    assert digest == ORBIT_WALK_PINS[family]


def leaf_digest(params, seed=20261020, count=6):
    """SHA-256 over the leaf queries at seeded returning points (escape
    times 1..5): local leaves, global leaves at n = 1..3 and both
    invariance defects at each point, and brackets between nearest
    neighbours, both ways round.  Also returns the digest of each
    function's outputs (``_row_digests``), their value tables
    (``_tabulate``), and how many of those brackets start from local
    leaves that miss each other, so that the bracket has to extend them
    to global leaves."""
    p = params
    rng = np.random.default_rng(seed)
    pts = [sp.sample_returning_point(p, rng, n1=1 + i % 5).M
           for i in range(count)]
    rows, tables, local = [], {}, {}

    def record(fn, *args):
        out = _record(rows, fn, *args)
        _tabulate(tables, fn.__name__, out)
        return out

    for m in pts:
        for leaf in (mf.local_unstable, mf.local_stable):
            local[leaf, m] = record(leaf, p, m)
        for leaf in (mf.global_unstable, mf.global_stable):
            for n in (1, 2, 3):
                record(leaf, p, m, n)
        record(mf.unstable_invariance_defect, p, m)
        record(mf.stable_invariance_defect, p, m)
    pairs = set()
    for i, a in enumerate(pts):
        j = min((j for j in range(count) if j != i),
                key=lambda j: math.dist(a, pts[j]))
        pairs.add((min(i, j), max(i, j)))
    extended = 0
    for i, j in sorted(pairs):
        for a, b in ((pts[i], pts[j]), (pts[j], pts[i])):
            record(mf.bracket, p, a, b)
            ws, wu = local[mf.local_stable, a], local[mf.local_unstable, b]
            if isinstance(ws, mf.ManifoldCurve) and \
                    isinstance(wu, mf.ManifoldCurve) and \
                    not mf._polyline_intersections(ws.points, wu.points):
                extended += 1
    return (*_row_digests(rows), tables, extended)


LEAF_PINS = {"ex": "1a97491ed2f92230", "strict": "911ee89e9444b4e4"}
#: One digest and one table of values (``_tabulate``) per function.
LEAF_FUNCTION_PINS = {
    "ex": {
        "local_unstable": ("28781d1cb3df9830", (
            (0.9408446261901744, 0.14196888935374324, 0.9463984362589203,
             0.15272223602454824, 0.0060512966167542495),
            (0.6361219619046125, 0.02393161455015823, 0.6313824903934175,
             0.029441200680614676, 0.0036334984892648706),
            (0.8431434021986736, 0.0033741935349932027, 0.8474569516790736,
             0.0074849718182891135, 0.002978895459108743),
            (0.6609835808272124, -0.0008348383505080847, 0.6567722158782863,
             0.0030026143313602906, 0.0028483269896297757),
            (0.6619173896336646, -0.0016747749761942586, 0.6577300876745509,
             0.0021011759270326, 0.0028187687377151036),
            (0.9343306436789129, 0.1295730347529578, 0.9398434034241071,
             0.1398866586165857, 0.005847105121588397),
        )),
        "local_stable": ("7ea3493e1774e431", (
            "Unsupported",
            (0.6300945498543024, 0.026686425439062855, 0.6373615468327458,
             0.02668639002734457, 0.0036334984892648706),
            (0.8423457592323711, 0.0054295831204522116, 0.8483035501505884,
             0.005429582225476037, 0.002978895459108743),
            (0.6560052093422174, 0.0010838879985719627, 0.661701863321477,
             0.0010838879824184063, 0.0028483269896297757),
            (0.6569806316554017, 0.00021320047552695986, 0.6626181691308317,
             0.00021320047531322734, 0.0028187687377151036),
            "Unsupported",
        )),
        "global_unstable": ("85a661ee34c4ef59", (
            (0.9053682145051488, 0.08055684082052293, 0.9700000000000002,
             0.2018604304279337),
            "Unsupported",
            "Unsupported",
            (0.5954547711125368, 0.07851171288256645, 0.6595462334899658, 0.0),
            (0.6595462314849354, 0.0, 0.5299999999999998, 0.20109057402317485),
            "Unsupported",
            (0.8394475932672536, 0.0, 0.8835979319224673, 0.04923767078251584),
            (0.9700000000000002, 0.20199563371271528, 0.8394475429206374, 0.0),
            (0.9700000000000002, 0.20199563371271528, 0.8394475429206374, 0.0),
            (0.6205802591008596, 0.04329284546644889, 0.6600505688294921, 0.0),
            "Unsupported",
            "Unsupported",
            (0.6215261231621293, 0.04206014477697556, 0.6600360777856354, 0.0),
            "Unsupported",
            "Unsupported",
            (0.8988340866598414, 0.07044193915799454, 0.9700000000000002,
             0.20168401239864903),
            "Unsupported",
            "Unsupported",
        )),
        "global_stable": ("cc6d5c42ea6e7ff4", (
            "Unsupported",
            "Unsupported",
            "Unsupported",
            (0.5571814961034384, 0.0266867807991163, 0.7102746004833049,
             0.026686034783917643),
            (0.0, 0.02668949950690732, 1.0, 0.02668462412876445),
            "NoConvergence",
            (0.7687781002316647, 0.0054295941717467195, 0.921871209151295,
             0.005429571174181528),
            "Unsupported",
            "Unsupported",
            (0.5823069818698736, 0.0010838882075522602, 0.7354000907938207,
             0.001083887773438109),
            (0.0, 0.0010838898587546097, 1.0, 0.0010838870231328485),
            "Unsupported",
            (0.5832528459311436, 0.00021320047832215912, 0.7363459548550896,
             0.00021320047251802807),
            (0.0, 0.00021320050043468895, 1.0, 0.00021320046252226388),
            (0.0, 0.00021320050043468895, 1.0, 0.0002132004625222639),
            "Unsupported",
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("b767219a06c7ac56", (
            (1.3877787807814457e-17,),
            (8.758247326225039e-10,),
            (1.177225469957612e-09,),
            (0.002233928660788992,),
            (0.006588426666166766,),
            (1.3877787807814457e-17,),
        )),
        "stable_invariance_defect": ("da8b76f62c911bed", (
            "Unsupported",
            (1.7204468939105237e-10,),
            (1.4256043034876636e-10,),
            (1.3621549584776858e-10,),
            (1.3483013969130632e-10,),
            "Unsupported",
        )),
        "bracket": ("019cd77f58e9ca3e", (
            "Unsupported",
            "Unsupported",
            "NoIntersection",
            (0.658355858121757, 0.0010838879919064116, 0.7425077742529608),
            "NoIntersection",
            "Unsupported",
            (0.6588393133310446, 0.0010838879905355155, 0.7396627733375453),
            (0.6598139400847799, 0.00021320047541954236, 0.7333669200109615),
        )),
    },
    "strict": {
        "local_unstable": ("480ef48b0604d070", (
            (0.7501302882434396, 5.999917259904243e-06, 0.7501302892235965,
             6.00008276226109e-06, 4.970120792492479e-10),
            (0.7499121596391581, 2.2098145753043298e-11, 0.7499121589733085,
             9.790185404345884e-11, 3.3508565810725114e-10),
            (0.7500878398337756, -3.7900804461895494e-11, 0.7500878404996525,
             3.790200446189417e-11, 3.350836475610484e-10),
            (0.7499121601662257, -3.790140445531998e-11, 0.7499121595003488,
             3.790140446731998e-11, 3.350836475559662e-10),
            (0.7499121601662256, -3.790140446136783e-11, 0.7499121595003487,
             3.7901404461367944e-11, 3.3508364755638974e-10),
            (0.750130288243329, 5.999917241092334e-06, 0.7501302892234862,
             6.00008274344904e-06, 4.97012078827849e-10),
        )),
        "local_stable": ("38ece23733d6644f", (
            (0.7501262172115495, 6.0000000110826665e-06, 0.750134360257456,
             6.0000000110826665e-06, 4.0715229532098385e-06),
            (0.74990941428353, 5.999999989822022e-11, 0.7499149043269523,
             5.999999989828192e-11, 2.7450217112146014e-06),
            (0.7500850951624655, 5.999999887801879e-16, 0.750090585172947,
             6.000000098976571e-16, 2.7450052408201087e-06),
            (0.7499094148270543, 5.9992477761352364e-21, 0.7499149048375359,
             6.000752209846577e-21, 2.7450052407784753e-06),
            (0.7499094148270542, -1.6393095147323368e-23, 0.7499149048375358,
             1.6513095147114566e-23, 2.7450052407819447e-06),
            (0.7501262172114425, 5.999999992270687e-06, 0.750134360257342,
             5.999999992270687e-06, 4.071522949757739e-06),
        )),
        "global_unstable": ("1b2d13fc1cdb24b3", (
            (0.7500872976472032, 0.0, 0.7700000000005751, 0.2591950001149068),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.25919500011490604, 0.7499127023527902, 0.0),
            "Unsupported",
            "Unsupported",
            (0.7500872976472018, 0.0, 0.7700000000005751, 0.2591950001149069),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.2591950001149065, 0.7499127023527942, 0.0),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.2591950001149065, 0.7499127023527941, 0.0),
            "Unsupported",
            "Unsupported",
            (0.7500872976472045, 0.0, 0.7700000000005751, 0.25919500011490665),
            "Unsupported",
            "Unsupported",
        )),
        "global_stable": ("9249b5f182316303", (
            "Unsupported",
            "Unsupported",
            "Unsupported",
            (0.20090562108156418, 5.999999989825107e-11, 1.0,
             5.999999989825107e-11),
            "Unsupported",
            "Unsupported",
            (0.20108130194402937, 5.999999993389225e-16, 1.0,
             5.999999993389225e-16),
            (0.0, 5.999999993389225e-16, 0.9999999999999998,
             5.999999993389225e-16),
            "Unsupported",
            (0.20090562160861816, 5.9999999929909066e-21, 1.0,
             5.9999999929909066e-21),
            (0.0, 5.9999999929909066e-21, 1.0, 5.9999999929909066e-21),
            (0.0, 5.9999999929909066e-21, 1.0, 5.9999999929909066e-21),
            (0.20090562160861808, 5.999999989518917e-26, 1.0,
             5.999999989518917e-26),
            (0.0, 5.999999989518917e-26, 1.0, 5.999999989518917e-26),
            (0.0, 5.999999989518917e-26, 1.0, 5.999999989518917e-26),
            "Unsupported",
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("2f95420a6eb62124", (
            (0.0,),
            (0.0,),
            (6.101739969211822e-10,),
            (6.701733968550752e-10,),
            (6.701739968490745e-10,),
            (0.0,),
        )),
        "stable_invariance_defect": ("9a35aa7903798842", (
            (1.1102230246251565e-16,),
            (0.0,),
            (0.0,),
            (0.0,),
            (0.0,),
            (1.1102230246251565e-16,),
        )),
        "bracket": ("391a7acf2e1c1811", (
            (0.7501302887345016, 6.0000000110826665e-06, 0.16744284857573988),
            (0.7501302887343894, 5.999999992270687e-06, 0.16694348054871674),
            "NoIntersection",
            "NoIntersection",
            "NoIntersection",
            "NoIntersection",
            (0.7499121598322973, 5.999999992991515e-21, 0.11348778702938167),
            (0.7499121598322974, 6.000001453538009e-26, 0.11301850698663812),
        )),
    },
}


@pytest.mark.parametrize("family", ["ex", "strict"])
def test_leaf_queries_pinned(family):
    digest, by_function, tables, extended = leaf_digest(FAMILIES[family])
    _check_function_pins(by_function, tables, LEAF_FUNCTION_PINS[family])
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


def _covered(x, y, pt, slack=1e-9) -> bool:
    return bool(np.any((x.lo - slack <= pt[0]) & (pt[0] <= x.hi + slack)
                       & (y.lo - slack <= pt[1]) & (pt[1] <= y.hi + slack)))


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
    hx, hy = coding._step(params, *coding._columns(box), forward=True)[:2]
    for pt in _corners_and_centre(box[0]):
        img = mc.apply(params, pt)
        if img is not None:
            assert _covered(hx, hy, img)


@given(params=valid_params(), u=unit, v=unit, size=st.floats(1e-3, 0.3),
       which=st.sampled_from(mc.BRANCHES))
@settings(max_examples=50, deadline=None)
def test_backward_hull_contains_preimages(params, u, v, size, which):
    # a small box around the image of a strip point
    lo, hi = which.strip(params)
    cx, cy = which.forward(params, u, lo + v * (hi - lo))
    half = 0.5 * size * params.lam
    box = np.array([[cx - half, cy - half, cx + half, cy + half]])
    hx, hy = coding._step(params, *coding._columns(box), forward=False)[:2]
    for pt in _corners_and_centre(box[0]):
        pre = mc.apply_inverse(params, pt)
        if pre is not None:
            assert _covered(hx, hy, pre)


def _rows(boxes) -> list:
    return sorted(map(tuple, np.asarray(boxes).tolist()))


@given(params=valid_params())
@example(params=REF_EX)
@settings(max_examples=10, deadline=None)
def test_cover_does_not_depend_on_the_route(params):
    # a level-n atom refined from its level-(n - 1) parent, as a family of
    # nine siblings, against the same word refined alone from the square:
    # every level-1 word at resolution 7, and at level 2 (where the family
    # skips most of the parent's times) every 23rd word and the empty
    # ones at resolution 6
    for n, resolution, stride in ((1, 7, 1), (2, 6, 23)):
        with mock.patch.object(coding, "default_resolution",
                               return_value=resolution):
            level = coding.atoms(params, n)
            words = [coding.Word(symbols, n) for symbols
                     in itertools.product((0, 1, 2), repeat=2 * n + 1)]
            for word in (w for i, w in enumerate(words)
                         if i % stride == 0 or w not in level):
                alone = coding.atom(params, word)
                if word in level:
                    assert _rows(level[word].boxes) == _rows(alone.boxes)
                else:
                    assert alone.empty
