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
    # a budget above 40 reads the same 40 points
    for ex in (calibrate_certificate(REF_EX, 40, 0),
               calibrate_certificate(REF_EX, 200, 0)):
        assert (ex.C0, ex.eps0, ex.eta, ex.C5) == (
            0.4216965034285822, 0.2766465394436166, 0.0005,
            20851.64128779252)
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
        (False, False, False, 3, 0.485647361216045, 0.06161800723781516),
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
    ("ex", "24c88b0d8b57070a"),
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
VALUED = ("kergodic_apply", "kergodic_derivative", "us_ball",
          "local_unstable", "local_stable", "global_unstable",
          "global_stable", "unstable_invariance_defect",
          "stable_invariance_defect", "bracket", "lyapunov")


def _numbers(v) -> list:
    """The numbers of a result that its digest hashes, in its order:
    dataclass fields (less those derived from the others), dict values
    by key, array entries.  An array of more than four entries keeps its
    first and last rows and its exact sum, as the correctly rounded sum
    and what that rounding left over, so that a move of any one entry
    moves the table too.  Strings (a leaf's kind, the parameters'
    digest) are the same in every row of a pin and are left out."""
    if isinstance(v, np.ndarray):
        flat = v.ravel().tolist()
        if len(flat) <= 4:
            return flat
        total = math.fsum(flat)
        return [*np.ravel(v[0]).tolist(), *np.ravel(v[-1]).tolist(),
                total, math.fsum([*flat, -total])]
    if dataclasses.is_dataclass(v) and not isinstance(v, type):
        return [x for f in dataclasses.fields(v) if f.init
                for x in _numbers(getattr(v, f.name))]
    if isinstance(v, dict):
        return [x for k in sorted(v, key=repr) for x in _numbers(v[k])]
    if isinstance(v, (list, tuple)):
        return [x for item in v for x in _numbers(item)]
    if v is None or isinstance(v, str):
        return []
    return [float(v)]


def _tabulate(tables, name, out):
    """Append to ``tables[name]`` the row that a pin's table keeps of one
    result of a ``VALUED`` function: its numbers (``_numbers``), "None"
    where there is no result, and for a typed error (as ``_record``
    returns it) its class name, step, direction and message.  So every
    move of a digest shows in its table, as a move of a number or as a
    changed outcome."""
    if name not in VALUED:
        return
    if out is None:
        row = "None"
    elif isinstance(out, tuple):
        row = " ".join(str(v) for v in out if v is not None)
    else:
        row = tuple(_numbers(out))
    tables.setdefault(name, []).append(row)


def _moves(name, old, new) -> str:
    """The largest absolute and relative move from the pinned value
    table ``old`` of one function to its values ``new``, and the rows
    whose outcome changed (an error, or a result of another shape).  A
    move is relative to the largest magnitude in its pinned row, so that
    entries near 0 (a remainder of ``_numbers``, an off-diagonal
    derivative) do not inflate it."""
    if len(old) != len(new):
        return f"{name}: {len(old)} pinned rows, {len(new)} now"
    changed, diffs = [], []
    for i, (a, b) in enumerate(zip(old, new)):
        if isinstance(a, str) or isinstance(b, str) or len(a) != len(b):
            if a != b:
                changed.append(i)
        else:
            scale = max(abs(x) for x in a)
            diffs += [(abs(y - x), abs(y - x) / scale if scale else 0.0)
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


ORBIT_WALK_PINS = {"ex": "2973f6129bc65675", "strict": "f19fa5f30bba5da1"}
#: The same outputs, one digest per function: a failing pin names the
#: functions whose outputs moved.  A ``VALUED`` function's pin is its
#: digest and its table of values (``_tabulate``), from which a failing
#: pin reports how far each moved.
ORBIT_WALK_FUNCTION_PINS = {
    "ex": {
        "itinerary": "e27f2925836aca3d",
        "first_return": "4eb0c79c0ca1ea27",
        "induced_map": "992740989c462192",
        "kergodic_apply": ("172e0ae6f02ced83", (
            (0.0, 0.0),
            (-0.4499417693043224, 0.06535158888790434),
            "None",
            "None",
            (0.0, 0.0),
            (-0.8012480708880023, 0.3509883706990537),
            "None",
            "None",
            (0.0, 0.0),
            "None",
            (-0.835520746575576, -2.332656451283132),
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
        )),
        "kergodic_derivative": ("d18c83d57d61b384", (
            (-54.90643125414642, -7.422830342676749e-19,
             -7.565707555331087e-15, -0.014210867724708351),
            (-35.097543168444155, -0.007810280863038333, 13.00322044454134,
             -0.019337798795068306),
            "OutOfDomain",
            "OutOfDomain",
            (-137.8889475202624, -1.9874841849064263e-19,
             7.432441288279397e-15, -0.0006775430282479531),
            (-22.362535191582154, -0.0009342671225802181, 70.19382864660506,
             -0.001245203574357303),
            "OutOfDomain",
            "OutOfDomain",
            (483.79516472359103, 1.1213943453838343e-20,
             -8.096261646201326e-15, 3.296870568616373e-05),
            "OutOfDomain",
            (283.0753990987532, 3.8184650416841106e-05, -142.94136714017466,
             3.706409775350371e-05),
            "OutOfDomain",
            (2450.177740558873, 1.6914737576432064e-21, 3.95913790528493e-14,
             5.69987796304018e-06),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
            (10822.792690150389, -5.019005933309858e-23,
             1.9902832361518476e-07, 2.6856985831694823e-07),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
        )),
        "us_ball": ("fa534ecd496b8547", (
            (0.408518508343349, 0.6624495926788887, 0.408518508343349,
             0.6624495926788887, -0.0, 1.0, 0.9999432475364521,
             -0.010653717954476647, 2.0, 4.0, 0.24494897427831783,
             0.0002309401035702486, 0.0002309401035702486,
             2.0041188089936358e-08, 0.010416666666666666,
             0.010416666666666666),
            (0.056224796339444376, 0.6770114270666793, 0.056224796339444376,
             0.6770114270666793, -0.010651743508611226, 0.9999432685708859,
             0.999848655249627, -0.017397315755958053, 4.0, 2.0,
             0.24494897427831783, 0.00017651737161195142,
             2.6202445876836326e-08, 0.00017651737161195142,
             0.010416666666666666, 0.010416666666666666),
            (0.6350571353333966, 0.06043683105488111, 0.6350571353333966,
             0.06043683105488111, -0.6564336366727651, 0.7543837754383165, 1.0,
             0.0, 5.0, 1.0, 0.11494286466660342, 0.011546492224605347,
             2.258409346453625e-10, 0.011546492224605347,
             0.0035919645208313568, 0.0035919645208313568),
            (0.4006170525853503, 0.7231544320615382, 0.4006170525853503,
             0.7231544320615382, -0.0, 1.0, 0.9998508167937352,
             0.01727264186222191, 3.0, 6.0, 0.24494897427831783,
             4.618802153484163e-06, 4.618802153484163e-06,
             1.613193120671858e-11, 0.010416666666666666,
             0.010416666666666666),
            (0.08657721603076911, 0.13477130126506737, 0.08657721603076911,
             0.13477130126506737, 0.017272733143434395, 0.9998508152168281,
             0.9999999531809389, -0.0003060034639976472, 5.0, 6.0,
             0.24494897427831783, 1.3780073086911493e-09,
             1.3780073086911493e-09, 2.1624799034189368e-11,
             0.010416666666666666, 0.010416666666666666),
            (0.008657721603076911, 0.6738565063253368, 0.008657721603076911,
             0.6738565063253368, 0.000345506186514964, 0.9999999403127358,
             0.9998829728852909, -0.015298383381014174, 6.0, 5.0,
             0.24494897427831783, 1.0809869989374283e-09,
             2.7568367877360703e-11, 1.0809869989374283e-09,
             0.010416666666666666, 0.010416666666666666),
            (0.40508230140915985, 0.7192627565421206, 0.40508230140915985,
             0.7192627565421206, 0.0, 1.0, 0.9997844674955095,
             0.02076098636193772, 4.0, 6.0, 0.24494897427831783,
             9.237604307033991e-08, 9.237604307033991e-08,
             1.3719705860915574e-11, 0.010416666666666666,
             0.010416666666666666),
            (0.08463137827106033, 0.029367467796052787, 0.08463137827106033,
             0.029367467796052787, 0.02076098434512684, 0.9997844675373895,
             0.9999999999890445, 4.68091278679249e-06, 6.0, 6.0,
             0.24494897427831783, 3.981578020095154e-11, 3.981578020095154e-11,
             5.653420903779292e-12, 0.010416666666666666,
             0.010416666666666666),
            (0.008463137827106034, 0.14683733898026394, 0.008463137827106034,
             0.14683733898026394, 0.00041530916370043335, 0.9999999137591455,
             0.9999999726113205, 0.00023404563293198756, 6.0, 6.0,
             0.24494897427831783, 3.983294651810447e-11, 3.983294651810447e-11,
             5.610804847439008e-12, 0.010416666666666666,
             0.010416666666666666),
            (0.4047844268203786, 0.681748658602356, 0.4047844268203786,
             0.681748658602356, -0.0, 1.0, 0.9997599266286737,
             -0.02191093579537303, 2.0, 6.0, 0.24494897427831783,
             0.0002309401035702486, 0.0002309401035702486,
             2.023583286568649e-11, 0.010416666666666666,
             0.010416666666666666),
            (0.06587432930117802, 0.0058024508481560495, 0.06587432930117802,
             0.0058024508481560495, -0.021910935856065936, 0.9997599266273436,
             0.9999999999999921, 1.2645044579051208e-07, 4.0, 6.0,
             0.24494897427831783, 1.1087239166983433e-07,
             1.1087239166983433e-07, 2.3083379070499096e-11,
             0.00961388400617636, 0.010416666666666666),
            (0.006587432930117803, 0.029012254240780248, 0.006587432930117803,
             0.029012254240780248, -0.0004383239049224785, 0.9999999039360725,
             0.9999999999800129, 6.322522289399285e-06, 5.0, 6.0,
             0.24494897427831783, 2.2185124964393795e-09,
             2.2185124964393795e-09, 2.307925024152885e-11,
             0.010416666666666666, 0.010416666666666666),
            (0.40809075621037155, 0.7181206690038244, 0.40809075621037155,
             0.7181206690038244, -0.0, 1.0, 0.9997564529616504,
             0.022068864074513937, 2.0, 6.0, 0.24494897427831783,
             0.0002309401035702486, 0.0002309401035702486,
             4.4990343392913255e-11, 0.010416666666666666,
             0.010416666666666666),
            (0.08406033450191223, 0.0011787751111668491, 0.08406033450191223,
             0.0011787751111668491, 0.022068864074513934, 0.9997564529616503,
             1.0, 1.742234050554318e-09, 4.0, 6.0, 0.24494897427831783,
             1.1247643338052206e-07, 1.1247643338052206e-07,
             1.1022276522703752e-11, 0.009507615931718469,
             0.010416666666666666),
            (0.008406033450191223, 0.005893875555834246, 0.008406033450191223,
             0.005893875555834246, 0.0004414847607820848, 0.9999999025455981,
             0.9999999999999962, 8.711170252771555e-08, 5.0, 5.0,
             0.24494897427831783, 2.2506243670424137e-09,
             2.2506243670424137e-09, 5.511138261351833e-10,
             0.010416666666666666, 0.010416666666666666),
            (0.05584758492835776, 0.7167237081019395, 0.05584758492835776,
             0.7167237081019395, -0.010441977968015707, 0.9999454810619005,
             0.9997140807654716, 0.023911434905665847, 5.0, 6.0,
             0.24494897427831783, 5.036106722427105e-10, 5.036106722427105e-10,
             5.9057294475215276e-12, 0.010416666666666666,
             0.010416666666666666),
            (0.8336185405096979, 0.029375543092024135, 0.8336185405096979,
             0.029375543092024135, 0.767065311410351, 0.6415690204731999,
             0.9999999999891733, 4.653327382143446e-06, 6.0, 6.0,
             0.08361854050969786, 5.92707052018328e-12, 5.92707052018328e-12,
             4.123262094901541e-12, 0.002613079390928058,
             0.002613079390928058),
            (0.0833618540509698, 0.14687771546012068, 0.0833618540509698,
             0.14687771546012068, 0.02390533458195002, 0.9997142266560605,
             0.9999999729331795, 0.00023266637119014034, 6.0, 6.0,
             0.24494897427831783, 1.4391394142323292e-11,
             1.4391394142323292e-11, 2.7936695511865202e-12,
             0.008384750064346101, 0.010416666666666666),
            (0.09435780563711929, 0.736125273167873, 0.09435780563711929,
             0.736125273167873, 0.010331198179101173, 0.9999466317480069,
             0.9999387046152222, 0.01107190193379064, 4.0, 2.0,
             0.24494897427831783, 7.123095087418406e-05,
             2.4649140772399143e-08, 7.123095087418406e-05,
             0.010416666666666666, 0.010416666666666666),
            (0.9306263658393653, 0.15369363961796922, 0.9306263658393653,
             0.15369363961796922, 0.48439687079477267, 0.8748483706130065, 1.0,
             0.0, 5.0, 1.0, 0.1806263658393653, 0.011546492224605347,
             1.1568601918916475e-10, 0.011546492224605347,
             0.005644573932480166, 0.005644573932480166),
        )),
        "multi_return_point": "929b533371f959c5",
        "local_unstable": ("747dc1b70ff3412a", (
            (0.5612663613817616, 0.13803927102987912, 0.5557254930289752,
             0.14865023142006575, 180.36963203152936, -1.1962653090336062e-14,
             2.0, 0.006966149484778084, 0.0059851297098882025, 1e-10),
            (0.5650267524966218, 0.13022375328438607, 0.559509792936021,
             0.1405808034070389, 179.2978731687727, -5.384581669432009e-15,
             2.0, 0.007222940004735334, 0.005867251143923634, 1e-10),
        )),
        "local_stable": ("4427c5d5319af56d", (
            (0.552490720911707, 0.14334187729024742, 0.5644609789607681,
             0.1433476034505253, 180.36789180948412, -1.1962653090336062e-14,
             3.0, 4.6140491569512826e-07, 0.0059851297098882025, 1e-10),
            "Unsupported",
        )),
        "global_unstable": ("df00884cb63fa76f", (
            (0.5299999999999998, 0.20193724008215377, 0.5967491265145651,
             0.07736639120239716, 718.1689983054307, -2.6506574712925612e-15,
             1.2624756742163285e-09, 1.0, 0.5, 1.0),
            (0.6604871827338107, 0.0, 0.5299999999999998, 0.20193724008215377,
             417.50364741316486, -1.797666833100453e-14,
             2.4653831598904895e-08, 2.0, 0.5, 2.0),
            (0.5299999999999998, 0.20114814916566554, 0.6005212406254311,
             0.07086764668646643, 716.0592080450782, -1.6653345369377348e-15,
             2.117290028745071e-09, 1.0, 0.5, 1.0),
            "Unsupported",
        )),
        "global_stable": ("abef53e539984e7d", (
            (0.4819512866860532, 0.14330793235861888, 0.6350006210654019,
             0.14338115024370285, 180.36790143802287, 1.3183898417423734e-14,
             0.0, 1.0, 0.5, 1.0),
            (0.343389272283532, 0.1432402184447519, 0.7803906101867708,
             0.1434492647960239, 722.8666643111529, -9.96425164601078e-15, 0.0,
             2.0, 0.5, 2.0),
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
            (0.5584758492835775, 0.1433447416203879, 1.0904024242660626, 0.0),
            "Unsupported",
            "NoIntersection",
        )),
        "mixing_times": "68c979d98391a57b",
        "_tangency_pairs": "094308dddf8f3843",
        "lyapunov": ("fb0784b237f14688", (
            (-2.5191996690245086, 1.777500243094168),
            "OrbitEscapes 20 forward",
            "OrbitEscapes 5 backward",
        )),
        "sample_nonescaping_points": "504fd1c39980ad7c",
    },
    "strict": {
        "itinerary": "6ff907b4e459cea9",
        "first_return": "aee0f7219da2696b",
        "induced_map": "6644312b6e8bb87a",
        "kergodic_apply": ("6d4bfa938a754657", (
            (0.0, 0.0),
            "None",
            "None",
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
            (0.0, 0.0),
            "None",
            "None",
            "None",
        )),
        "kergodic_derivative": ("52d5ebb61ca04849", (
            (-3189001010.4282784, -2.1641567553153537e-09,
             -3.5221105150212484e-07, -2.1557305134218013e-09),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
            (-123669611536379.86, -1.0443569633352124e-14, 0.01012352820229997,
             -1.0386803980135828e-14),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
            (9.448916223516522e+18, -6.072830132428356e-20, -2539.285128310817,
             6.016176454506763e-20),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
            (1.2707850569895862e+24, -1.103064384748394e-24,
             -112232052.4740421, 1.0973870278490166e-24),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
            (8.803717256379307e+28, -5.2642205070311745e-30,
             2116479624756.6658, 5.2076078010764755e-30),
            "OutOfDomain",
            "OutOfDomain",
            "OutOfDomain",
        )),
        "us_ball": ("87e81f988c394e26", (
            (0.49999000008502414, 0.5999999986971126, 0.49999000008502414,
             0.5999999986971126, -0.0, 1.0, 1.0, -5.922268998644328e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 2.024956575369156e-19,
             0.010416666666666666, 0.010416666666666666),
            (7.498697112655993e-06, 0.5999999993171053, 7.498697112655993e-06,
             0.5999999993171053, -5.922268998644328e-10, 1.0, 1.0,
             -1.129903362357676e-09, 2.0, 2.0, 0.00017568209223157663,
             7.370924574538379e-19, 2.0249565753691552e-19,
             7.370924574538379e-19, 0.010416666666666666,
             0.010416666666666666),
            (0.7499317105370267, 3.021841101092879e-06, 0.7499317105370267,
             3.021841101092879e-06, -0.9961064549169755, 0.08815855303222414,
             1.0, 0.0, 1.0, 1.0, 6.82894629733255e-05, 5.773502691896259e-11,
             5.7286325103708734e-11, 5.773502691896259e-11,
             2.134045717916422e-06, 2.134045717916422e-06),
            (0.49999000000601457, 0.6000000008784069, 0.49999000000601457,
             0.6000000008784069, -0.0, 1.0, 1.0, 8.784140195589919e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 4.454900123297814e-19,
             0.010416666666666666, 0.010416666666666666),
            (7.500878406947515e-06, 5.999999991921989e-06,
             7.500878406947515e-06, 5.999999991921989e-06,
             8.784140195589917e-10, 1.0, 1.0, 0.0, 2.0, 1.0,
             0.00017568209223157663, 5.773502691896259e-11,
             4.454900123297812e-19, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (7.500878406947516e-11, 0.5999999991921989, 7.500878406947516e-11,
             0.5999999991921989, 0.0, 1.0, 1.0, -9.55191801148906e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 5.267693979428275e-19,
             0.010416666666666666, 0.010416666666666666),
            (0.499990000050987, 0.6000000008784017, 0.499990000050987,
             0.6000000008784017, -0.0, 1.0, 1.0, 8.784192376804814e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 4.454953051139586e-19,
             0.010416666666666666, 0.010416666666666666),
            (7.5008784016771075e-06, 6.000000010614115e-11,
             7.5008784016771075e-06, 6.000000010614115e-11,
             8.784192376804813e-10, 1.0, 1.0, 0.0, 2.0, 1.0,
             0.00017568209223157663, 5.773502691896259e-11,
             4.454953051139585e-19, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (7.500878401677108e-11, 6.000000010614115e-06,
             7.500878401677108e-11, 6.000000010614115e-06, 0.0, 1.0, 1.0, 0.0,
             1.0, 1.0, 0.00017568209223157663, 5.773502691896259e-11,
             5.7735026918962586e-11, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (0.4999900000477919, 0.5999999991215983, 0.4999900000477919,
             0.5999999991215983, -0.0, 1.0, 1.0, -8.784192376804814e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 4.454953051139586e-19,
             0.010416666666666666, 0.010416666666666666),
            (7.49912159832295e-06, 6.000000007858944e-16, 7.49912159832295e-06,
             6.000000007858944e-16, -8.784192376804813e-10, 1.0, 1.0, 0.0, 2.0,
             1.0, 0.00017568209223157663, 5.773502691896259e-11,
             4.454953051139585e-19, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (7.49912159832295e-11, 6.000000007858943e-11, 7.49912159832295e-11,
             6.000000007858943e-11, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0,
             0.00017568209223157663, 5.773502691896259e-11,
             5.7735026918962586e-11, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (0.4999900000806536, 0.6000000008784017, 0.4999900000806536,
             0.6000000008784017, -0.0, 1.0, 1.0, 8.784192376804814e-10, 1.0,
             2.0, 0.00017568209223157663, 5.7735026918962586e-11,
             5.7735026918962586e-11, 4.454953051139586e-19,
             0.010416666666666666, 0.010416666666666666),
            (7.500878401677081e-06, 6.0000000114084046e-21,
             7.500878401677081e-06, 6.0000000114084046e-21,
             8.784192376804813e-10, 1.0, 1.0, 0.0, 2.0, 1.0,
             0.00017568209223157663, 5.773502691896259e-11,
             4.454953051139585e-19, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (7.500878401677082e-11, 6.000000011408405e-16,
             7.500878401677082e-11, 6.000000011408405e-16, 0.0, 1.0, 1.0, 0.0,
             1.0, 1.0, 0.00017568209223157663, 5.773502691896259e-11,
             5.7735026918962586e-11, 5.773502691896259e-11,
             0.010416666666666666, 0.010416666666666666),
            (7.49869711265494e-06, 0.6000000010973521, 7.49869711265494e-06,
             0.6000000010973521, -5.922268998644328e-10, 1.0, 1.0,
             7.031516498877607e-10, 2.0, 2.0, 0.00017568209223157663,
             2.854548688714081e-19, 2.0249565753691552e-19,
             2.854548688714081e-19, 0.010416666666666666,
             0.010416666666666666),
            (0.7501097352098078, 7.803021957006303e-06, 0.7501097352098078,
             7.803021957006303e-06, 0.9900380492319482, 0.14080007483307208,
             1.0, 0.0, 1.0, 1.0, 0.00010973520980783746, 5.773502691896259e-11,
             5.6590460247611226e-11, 5.773502691896259e-11,
             3.4292253064949207e-06, 3.4292253064949207e-06),
        )),
        "multi_return_point": "aabeeb5db17470f6",
        "local_unstable": ("eb8351b1c7cc23c7", (
            (0.749869711756557, 5.999917259795095e-06, 0.7498697107764002,
             6.000082762151945e-06, 192.7180577953618, -6.143358865780095e-15,
             2.0, 0.0019852116629408556, 4.970120792619534e-10, 1e-10),
            (0.7498697117566625, 5.999917241992696e-06, 0.7498697107765052,
             6.000082744349412e-06, 192.71805779538428,
             -1.4030796686439421e-14, 2.0, 0.0019852116629408556,
             4.970120788604597e-10, 1e-10),
        )),
        "local_stable": ("f37080f3454d4ffb", (
            (0.7498656397425406, 6.00000001097352e-06, 0.7498737827884473,
             6.00000001097352e-06, 192.71805779523476, 1.0287941898672222e-14,
             2.0, 1.2848633166418857e-16, 4.071522953313922e-06, 1e-10),
            (0.7498656397426492, 5.999999993171054e-06, 0.7498737827885492,
             5.999999993171054e-06, 192.71805779525724, 2.5115263804754116e-15,
             2.0, 4.5744866406203473e-17, 4.071522950024886e-06, 1e-10),
        )),
        "global_unstable": ("cf663d13a3bf3271", (
            (0.7299999999994249, 0.25919500011490615, 0.749912702352791, 0.0,
             883.8815780271862, -8.925287809172233e-15, 5.386402466620569e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            (0.7299999999994249, 0.2591950001149061, 0.7499127023527907, 0.0,
             883.8815780271863, -5.5933231137006434e-14,
             5.3864025121345334e-08, 1.0, 0.5, 1.0),
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
            (0.7498697112654956, 6.00000001097352e-06, 0.16746193086839603,
             0.0),
            (0.7498697112656011, 5.999999993171054e-06, 0.16744284857573988,
             0.0),
            (0.7498697112654957, 6.00000001097352e-06, 0.16744284857573988,
             0.0),
        )),
        "mixing_times": "63e0e7e81ecdd3a2",
        "_tangency_pairs": "485dafb9b385049b",
        "lyapunov": ("e674b994a8b6ec40", (
            (-10.920018914216177, 11.517931416482442),
            "OrbitEscapes 4 forward",
            "OrbitEscapes 4 backward",
        )),
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


LEAF_PINS = {"ex": "86edfa0734ee32b7", "strict": "195250c4da05d152"}
#: One digest and one table of values (``_tabulate``) per function.
LEAF_FUNCTION_PINS = {
    "ex": {
        "local_unstable": ("c5555b364acc906f", (
            (0.9408446261901744, 0.14196888935374324, 0.9463984362589203,
             0.15272223602454824, 280.3819447867769, -2.3869795029440866e-15,
             2.0, 0.0068319590155210275, 0.0060512966167542495, 1e-10),
            (0.6361219619046125, 0.02393161455015823, 0.6313824903934175,
             0.029441200680614676, 169.72861646002494, -1.6861512186494565e-15,
             2.0, 0.012993320104795147, 0.0036334984892648706, 1e-10),
            (0.8431434021986736, 0.0033741935349932027, 0.8474569516790736,
             0.0074849718182891135, 218.6417129281648, -5.689459320334933e-15,
             2.0, 0.01743870981162232, 0.002978895459108743, 1e-10),
            (0.6609835808272124, -0.0008348383505080847, 0.6567722158782863,
             0.0030026143313602906, 169.60603857574338, -1.181314161075031e-14,
             2.0, 0.018642732039012566, 0.0028483269896297757, 1e-10),
            (0.6619173896336646, -0.0016747749761942582, 0.6577300876745509,
             0.0021011759270325994, 169.625357123174, 1.0368903001836682e-14,
             2.0, 0.018932106954277383, 0.0028187687377151036, 1e-10),
            (0.9343306436789129, 0.1295730347529578, 0.9398434034241071,
             0.1398866586165857, 275.4603994547425, -2.6423307986078726e-14,
             2.0, 0.007265077587654933, 0.005847105121588397, 1e-10),
        )),
        "local_stable": ("b1db1eccb8c659fb", (
            "Unsupported",
            (0.6300945498543024, 0.026686425439062855, 0.6373615468327458,
             0.02668639002734457, 169.72651521171906, -3.4937330806172895e-15,
             2.0, 1.2024823800509243e-14, 0.0036334984892648706, 1e-10),
            (0.8423457592323711, 0.0054295831204522116, 0.8483035501505884,
             0.005429582225476037, 218.64383900266208, 4.425279587216835e-15,
             2.0, 2.290285136165118e-15, 0.002978895459108743, 1e-10),
            (0.6560052093422174, 0.0010838879985719627, 0.661701863321477,
             0.0010838879824184063, 169.603918050842, -1.0220990720455347e-14,
             2.0, 6.947423493991573e-16, 0.0028483269896297757, 1e-10),
            (0.6569806316554017, 0.00021320047552695986, 0.6626181691308317,
             0.00021320047531322734, 169.62323842321396,
             -9.871579465317581e-15, 2.0, 2.2804856836524813e-14,
             0.0028187687377151036, 1e-10),
            "Unsupported",
        )),
        "global_unstable": ("85a661ee34c4ef59", (
            (0.9053682145051488, 0.08055684082052293, 0.9700000000000002,
             0.2018604304279337, 1106.5471704924018, 1.0265399641440354e-13,
             2.16690535999931e-09, 1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.5954547711125368, 0.07851171288256645, 0.6595462334899658, 0.0,
             570.1311827473813, -1.7401282238066473e-14, 0.0, 1.0, 0.5, 1.0),
            (0.6595462314849354, 0.0, 0.5299999999999998, 0.20109057402317485,
             413.6441076151265, 1.006443192674844e-14, 2.3438923477284356e-08,
             2.0, 0.5, 2.0),
            "Unsupported",
            (0.8394475932672536, 0.0, 0.8835979319224673, 0.04923767078251584,
             524.6411796202593, 2.185765132257933e-14, 3.469446951953614e-18,
             1.0, 0.5, 1.0),
            (0.9700000000000002, 0.20199563371271528, 0.8394475429206374, 0.0,
             613.7196669760214, -2.9106925203414846e-14, 3.555160477341412e-08,
             2.0, 0.5, 2.0),
            (0.9700000000000002, 0.20199563371271528, 0.8394475429206374, 0.0,
             613.7196669760214, -2.9106925203414846e-14, 3.555160477341412e-08,
             3.0, 0.5, 3.0),
            (0.6205802591008596, 0.04329284546644889, 0.6600505688294921, 0.0,
             350.18636071903455, 1.264525322560578e-14, 6.505213034913027e-19,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.6215261231621293, 0.04206014477697556, 0.6600360777856354, 0.0,
             341.54818719477794, 6.626670783285715e-15, 1.2468324983583301e-18,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.8988340866598414, 0.07044193915799454, 0.9700000000000002,
             0.20168401239864903, 1098.0570232544806, 7.88119569605783e-14,
             2.340187372305511e-09, 1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
        )),
        "global_stable": ("df3cb30a9ba97993", (
            "Unsupported",
            "Unsupported",
            "Unsupported",
            (0.5571814961034383, 0.0266867807991163, 0.7102746004833049,
             0.026686034783917643, 169.72651520494713, 9.367506770274758e-17,
             0.0, 1.0, 0.5, 1.0),
            (0.0, 0.02668949950690732, 1.0, 0.02668462412876445,
             527.7404344282875, 2.191215958680104e-14, 0.0, 2.0, 0.5, 2.0),
            (1.0, 0.026684624119164408, 0.0, 0.026689499497809042,
             527.7404344217864, -3.594954195440536e-14, 1.4123424652012773e-13,
             3.0, 0.5, 3.0),
            (0.7687781002316647, 0.0054295941717467195, 0.921871209151295,
             0.005429571174181528, 218.64383900266205, -7.349156005975743e-15,
             8.673617379884035e-19, 1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.5823069818698736, 0.0010838882075522602, 0.7354000907938207,
             0.001083887773438109, 169.603918050842, -1.0428940697138067e-14,
             0.0, 1.0, 0.5, 1.0),
            (0.0, 0.0010838898587546097, 1.0, 0.0010838870231328485,
             501.5849723293847, -1.4337923209817305e-14, 0.0, 2.0, 0.5, 2.0),
            "Unsupported",
            (0.5832528459311436, 0.00021320047832215912, 0.7363459548550896,
             0.00021320047251802807, 169.62323842321393,
             -1.0201583501567857e-14, 0.0, 1.0, 0.5, 1.0),
            (0.0, 0.00021320050043468895, 1.0, 0.00021320046252226388,
             500.71341368196, -2.6119595852511224e-14, 2.710505431213761e-20,
             2.0, 0.5, 2.0),
            (0.0, 0.00021320050043468895, 1.0, 0.0002132004625222639,
             500.71341368196, -2.612298398430024e-14, 2.710505431213761e-20,
             3.0, 0.5, 3.0),
            "Unsupported",
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("7df08285c152574c", (
            (1.3877787807814457e-17,),
            (2.7755575615628914e-17,),
            (1.3877787807814457e-17,),
            (2.168404344971009e-19,),
            (2.7769124835677133e-17,),
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
            (0.658355858121757, 0.0010838879919064116, 0.7425077742529608,
             0.0),
            "NoIntersection",
            "Unsupported",
            (0.6588393133310446, 0.0010838879905355155, 0.7396627733375453,
             0.0),
            (0.6598139400847799, 0.00021320047541954236, 0.7333669200109615,
             0.0),
        )),
    },
    "strict": {
        "local_unstable": ("480ef48b0604d070", (
            (0.7501302882434396, 5.999917259904243e-06, 0.7501302892235965,
             6.00008276226109e-06, 192.78502620464303, -1.3397897056382797e-14,
             2.0, 0.0019852116629408556, 4.970120792492479e-10, 1e-10),
            (0.7499121596391581, 2.2098145753043298e-11, 0.7499121589733085,
             9.790185404345884e-11, 192.72742495699498, 2.9168414981556235e-15,
             2.0, 0.0029699503143092443, 3.3508565810725114e-10, 1e-10),
            (0.7500878398337756, -3.7900804461895494e-11, 0.7500878404996525,
             3.790200446189417e-11, 192.77257492297267, -9.002784789934546e-15,
             2.0, 0.0029699682353339085, 3.350836475610484e-10, 1e-10),
            (0.7499121601662257, -3.790140445531998e-11, 0.7499121595003488,
             3.790140446731998e-11, 192.72742507702785,
             -5.9936623330221735e-15, 2.0, 0.0029699682353339085,
             3.350836475559662e-10, 1e-10),
            (0.7499121601662256, -3.790140446136783e-11, 0.7499121595003487,
             3.7901404461367944e-11, 192.72742507702782,
             -5.9952043175443416e-15, 2.0, 0.0029699682353339085,
             3.3508364755638974e-10, 1e-10),
            (0.750130288243329, 5.999917241092334e-06, 0.7501302892234862,
             6.00008274344904e-06, 192.7850262046098, -1.3499365674233231e-14,
             2.0, 0.0019852116629408556, 4.97012078827849e-10, 1e-10),
        )),
        "local_stable": ("38ece23733d6644f", (
            (0.7501262172115495, 6.0000000110826665e-06, 0.750134360257456,
             6.0000000110826665e-06, 192.78502620477005,
             -2.2956668101312312e-15, 2.0, 6.899058308777381e-17,
             4.0715229532098385e-06, 1e-10),
            (0.74990941428353, 5.999999989822022e-11, 0.7499149043269523,
             5.999999989828192e-11, 192.72742495686697, 2.2507076833805296e-15,
             2.0, 9.934426861497539e-17, 2.7450217112146014e-06, 1e-10),
            (0.7500850951624655, 5.999999887801879e-16, 0.750090585172947,
             6.000000098976571e-16, 192.77257492310065, 9.871006628832737e-15,
             2.0, 3.4006867375662216e-17, 2.7450052408201087e-06, 1e-10),
            (0.7499094148270543, 5.9992477761352364e-21, 0.7499149048375359,
             6.000752209846577e-21, 192.72742507689983, 3.554255678798699e-15,
             2.0, 2.422689817114488e-18, 2.7450052407784753e-06, 1e-10),
            (0.7499094148270542, -1.6393095147323368e-23, 0.7499149048375358,
             1.6513095147114566e-23, 192.7274250768998, 3.441691391757985e-15,
             2.0, 5.299103014219367e-17, 2.7450052407819447e-06, 1e-10),
            (0.7501262172114425, 5.999999992270687e-06, 0.750134360257342,
             5.999999992270687e-06, 192.78502620473682,
             -2.0640685205941187e-15, 2.0, 4.2334180598321095e-17,
             4.071522949757739e-06, 1e-10),
        )),
        "global_unstable": ("1b2d13fc1cdb24b3", (
            (0.7500872976472032, 0.0, 0.7700000000005751, 0.2591950001149068,
             910.9905643553809, -4.6052679898711535e-14, 5.386402468003978e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.25919500011490604, 0.7499127023527902, 0.0,
             883.8815780271864, 6.679769584683193e-16, 6.139947402884303e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.7500872976472018, 0.0, 0.7700000000005751, 0.2591950001149069,
             910.9905643553802, 3.2045451904029465e-14, 6.139943998182289e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.2591950001149065, 0.7499127023527942, 0.0,
             883.881578027185, -2.6050355991270868e-14, 6.139943997528406e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.7299999999994249, 0.2591950001149065, 0.7499127023527941, 0.0,
             883.881578027185, 3.945305995962933e-14, 6.139943997529001e-08,
             1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.7500872976472045, 0.0, 0.7700000000005751, 0.25919500011490665,
             910.9905643553815, -2.6099009563761155e-14,
             5.3864025156851606e-08, 1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
        )),
        "global_stable": ("9249b5f182316303", (
            "Unsupported",
            "Unsupported",
            "Unsupported",
            (0.20090562108156418, 5.999999989825107e-11, 1.0,
             5.999999989825107e-11, 480.9627012912265, -1.6298211968404402e-14,
             0.0, 1.0, 0.5, 1.0),
            "Unsupported",
            "Unsupported",
            (0.20108130194402937, 5.999999993389225e-16, 1.0,
             5.999999993389225e-16, 480.43252077761224, 1.7869665470916605e-14,
             0.0, 1.0, 0.5, 1.0),
            (0.0, 5.999999993389225e-16, 0.9999999999999998,
             5.999999993389225e-16, 500.5000000000005, -8.912224340515002e-15,
             0.0, 2.0, 0.5, 2.0),
            "Unsupported",
            (0.20090562160861816, 5.9999999929909066e-21, 1.0,
             5.9999999929909066e-21, 480.96270145425154, 9.386190558076959e-15,
             1.504632769052528e-36, 1.0, 0.5, 1.0),
            (0.0, 5.9999999929909066e-21, 1.0, 5.9999999929909066e-21, 500.5,
             1.0664147036394486e-14, 1.504632769052528e-36, 2.0, 0.5, 2.0),
            (0.0, 5.9999999929909066e-21, 1.0, 5.9999999929909066e-21, 500.5,
             1.0664147036394486e-14, 1.504632769052528e-36, 3.0, 0.5, 3.0),
            (0.20090562160861808, 5.999999989518917e-26, 1.0,
             5.999999989518917e-26, 480.96270145425154,
             -3.0808688452748097e-15, 0.0, 1.0, 0.5, 1.0),
            (0.0, 5.999999989518917e-26, 1.0, 5.999999989518917e-26, 500.5,
             1.0658141096461502e-14, 1.1102230246251565e-16, 2.0, 0.5, 2.0),
            (0.0, 5.999999989518917e-26, 1.0, 5.999999989518917e-26, 500.5,
             1.0658141096461502e-14, 1.1102230246251565e-16, 3.0, 0.5, 3.0),
            "Unsupported",
            "Unsupported",
            "Unsupported",
        )),
        "unstable_invariance_defect": ("f9571ae83fc25cdc", (
            (0.0,),
            (0.0,),
            (8.470329472543003e-22,),
            (1.0339757656912846e-25,),
            (1.0339757656912846e-25,),
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
            (0.7501302887345016, 6.0000000110826665e-06, 0.16744284857573988,
             0.0),
            (0.7501302887343894, 5.999999992270687e-06, 0.16694348054871674,
             0.0),
            "NoIntersection",
            "NoIntersection",
            "NoIntersection",
            "NoIntersection",
            (0.7499121598322973, 5.999999992991515e-21, 0.11348778702938167,
             0.0),
            (0.7499121598322974, 6.000001453538009e-26, 0.11301850698663812,
             0.0),
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


def _corners_map_into_columns(params) -> None:
    """The float image of every corner of every branch's strip lies in
    the branch's image column, ends included."""
    for br in mc.BRANCHES:
        lo, hi = params._columns[br]
        for y in br.strip(params):
            for x in (0.0, 1.0):
                fx = br.forward(params, x, y)[0]
                assert lo <= fx <= hi, (br.region, x, y, fx, lo, hi)


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_strip_corners_map_into_their_columns(params):
    _corners_map_into_columns(params)


@given(params=valid_params())
@settings(max_examples=50, deadline=None)
@example(params=dataclasses.replace(
    REF_EX, lam=0.09844964370054085, sigma=4.6204992325437,
    c=4.52595469597493, q=0.7618107814400144, t=0.6784632641334408))
def test_strip_corners_map_into_their_columns_on_valid_params(params):
    # R4's wing ends are the float images of its strip's edges: q + w_max
    # lies one ulp below the image of the top edge in the example
    _corners_map_into_columns(params)


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
