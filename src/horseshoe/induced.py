"""The induced (accelerated) map, polygonal balls, charts and the
crossing certificates.

The induced map F collapses each excursion through the bottom strip
into a single step, so that one F-step is uniformly hyperbolic.  Around
each base point a chart rescales the plane by the length scale l(M) in
the basis (e_u, e_s); in chart coordinates F expands by at least
sigma^(k/2) along the unstable axis and contracts by at least
lam^(k/2) along the stable one, with distortion controlled by the
certificate constants.

The geometric certificates at the end of the module verify the three
crossing statements behind the Markov structure: parabolas through the
middle of the stable segment cross the top and bottom sides of the
polygonal ball (constant C0), parabolas through a sub-ball still cross
(constant eps0), and the image of a small rectangle around a returning
point crosses the target balls (constant eta).

Numerical settings are module constants: ``_VISIT_CAP``, ``_RETURN_CAP``,
``_PROBE_GRID``, ``_PROBE_PAIRS``, ``_CROSS_TOL``, ``_ARC_SAMPLES``,
``_SLICE_ITERS``, ``_ETA_MIN`` and ``_ETA_ITERS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import map_core as mc
from .map_core import (MapParams, Region, Certificate, classify, apply,
                       jacobian, parabola_offset, in_A, OutOfDomain,
                       OrbitEscapes, NoReturn)
from .splitting import SplitFrame, direction_field, length_scale, adapted_norm
from . import sampling as sp

_VISIT_CAP = 120
#: Step cap of the first-return searches.
_RETURN_CAP = 4000
_PROBE_GRID = 16        # chart grid points per axis of the distortion probe
_PROBE_PAIRS = 60       # grid pairs the distortion probe draws
_CROSS_TOL = 1e-9       # slack of a parabola meeting a segment
_ARC_SAMPLES = 1025     # heights sampled per traced piece of a side arc
_SLICE_ITERS = 240      # bisection steps locating a surviving slice edge
_ETA_MIN = 1e-8         # smallest eta the calibration tries
_ETA_ITERS = 24         # log-scale bisection steps for eta


def escape_time(params: MapParams, m: tuple[float, float]):
    """Smallest n >= 1 with f^n(m) outside the bottom strip.

    Points of A on the bottom edge never leave the strip; they get
    ``math.inf`` (they feed the F(x, 0) = (0, 0) case).
    """
    _check_window(params, m)
    if m[1] == 0.0:
        return math.inf
    return mc.leave_r1(params, m, True, "escape_time")[0]


def approach_time(params: MapParams, m: tuple[float, float]):
    """Smallest n >= 1 with f^-n(m) outside the left image column R1'.

    Points of A with parabola offset 0 have their preimage on the edge
    x = 0, whose backward orbit never leaves R1'; they get ``math.inf``
    (the mirror of :func:`escape_time` on the bottom edge).
    """
    _check_window(params, m)
    if mc.parabola_offset(params, m) == 0.0:
        return math.inf
    return mc.leave_r1(params, m, False, "approach_time")[0]


def _check_window(params: MapParams, m) -> None:
    if not in_A(params, m):
        raise OutOfDomain(f"{m} is not in the tangency window A")
    if m[0] == params.q:
        raise OutOfDomain("length scale vanishes on the tangency orbit")


def time_bounds_report(params: MapParams, m: tuple[float, float]) -> dict:
    """The sufficient lower bounds linking times to the length scale:
    sigma^(n1-1)*c*l^2 >= 1/3 and lam^(-n2+1)*c*l^2 >= 1/3."""
    l = length_scale(params, m)
    n1 = escape_time(params, m)
    n2 = approach_time(params, m)
    out = {"n1": n1, "n2": n2, "l": l}
    if math.isfinite(n1):
        out["escape_bound"] = params.sigma ** (n1 - 1) * params.c * l * l
        out["escape_ok"] = out["escape_bound"] >= 1.0 / 3.0
    if math.isfinite(n2):
        out["approach_bound"] = params.lam ** (-n2 + 1) * params.c * l * l
        out["approach_ok"] = out["approach_bound"] >= 1.0 / 3.0
    return out


@dataclass
class InducedStep:
    source: tuple
    target: tuple
    k: int
    case: str


def induced_map(params: MapParams, m: tuple[float, float]) -> InducedStep:
    """One step of the induced map F.

    Cases: plain f on the middle/top strips and on tangency-strip points
    arriving from them; f^n (escape time n) for window points whose
    escape lands in a linear strip; f^(n+1) when the escape crosses the
    tangency strip; the bottom edge of the window and the origin map to
    the origin.  Bottom-strip points outside the window are not in the
    domain (they are handled by plain f-iteration in callers).
    """
    x, y = m
    if m == (0.0, 0.0):
        return InducedStep(m, (0.0, 0.0), 0, "origin")
    region = classify(params, m)
    if region in (Region.R3, Region.R5):
        return InducedStep(m, apply(params, m), 1, "linear")
    if region is Region.R4:
        if mc._in_band(params, mc.BRANCH[Region.R3], x, y) \
                or mc._in_band(params, mc.BRANCH[Region.R5], x, y):
            return InducedStep(m, apply(params, m), 1, "tangency-entry")
        raise OutOfDomain(f"{m} is in the tangency strip outside the "
                          "middle/top image columns")
    if in_A(params, m):
        if y == 0.0:
            return InducedStep(m, (0.0, 0.0), 0, "bottom")
        _check_window(params, m)
        n, cur = mc.leave_r1(params, m, True, "induced_map")
        reg = classify(params, cur)
        if reg in (Region.R3, Region.R5):
            return InducedStep(m, cur, n, "escape-linear")
        if reg is Region.R4:
            return InducedStep(m, apply(params, cur), n + 1, "return")
        raise OrbitEscapes("forward", n)
    raise OutOfDomain(f"{m} is not in the domain of the induced map")


# ---------------------------------------------------------------------------
# Polygonal balls and us-balls
# ---------------------------------------------------------------------------

@dataclass
class PolygonalBall:
    """Parallelogram {center + a*e_u + b*e_s : |a| <= radius_u,
    |b| <= radius_s}."""

    center: tuple
    frame: SplitFrame
    radius_u: float
    radius_s: float

    def vertices(self) -> list:
        """V1..V4 counter-clockwise from the (+u, +s) corner."""
        c = np.asarray(self.center)
        u = self.radius_u * self.frame.e_u
        s = self.radius_s * self.frame.e_s
        return [c + u + s, c + u - s, c - u - s, c - u + s]

    def side_bottom(self):
        """S0 = the side at -radius_u along e_u."""
        v = self.vertices()
        return v[2], v[3]

    def side_top(self):
        """S2 = the side at +radius_u along e_u."""
        v = self.vertices()
        return v[1], v[0]

    def stable_segment(self, fraction: float = 1.0):
        """S1 (scaled): the e_s segment through the center."""
        c = np.asarray(self.center)
        s = fraction * self.radius_s * self.frame.e_s
        return c - s, c + s

    def contains(self, p) -> bool:
        v = np.asarray(p) - np.asarray(self.center)
        basis = np.column_stack([self.frame.e_u, self.frame.e_s])
        a, b = np.linalg.solve(basis, v)
        return abs(a) <= self.radius_u + 1e-12 and abs(b) <= self.radius_s + 1e-12


def _log_growth(params: MapParams, points, vec, derivative) -> float:
    """ln norm growth of ``vec`` carried through ``derivative`` at each of
    ``points`` in turn, renormalized each step."""
    v = np.asarray(vec, dtype=float)
    total = 0.0
    for p in points:
        v = derivative(params, p) @ v
        nrm = float(np.linalg.norm(v))
        total += math.log(nrm)
        v /= nrm
    return total


def us_ball(params: MapParams, m: tuple[float, float], rho: float,
            cert: Certificate) -> PolygonalBall:
    """Polygonal ball adapted to the distance of the orbit from A.

    Inside A both radii are rho*C3*l(M).  Between two A-visits the radii
    are rho*C3*t_u and rho*C3*t_s, where t_u carries the unstable growth
    since the last visit (capped at 1/3) and t_s the stable contraction
    until the next one; missing visits fall back to the 1/3 cap.
    """
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    frame = direction_field(params, m)
    if in_A(params, m):
        r = rho * cert.C3 * length_scale(params, m)
        return PolygonalBall(m, frame, r, r)
    cap = 1.0 / 3.0

    def capped(unstable: bool) -> float:
        try:
            _, chain = mc.first_return(params, m, _VISIT_CAP, not unstable)
        except NoReturn:
            return cap
        pt = chain[-1]
        l = length_scale(params, pt)
        if l == 0.0:
            raise OutOfDomain("us-ball undefined on the tangency orbit")
        fr = direction_field(params, pt)
        if unstable:
            # chain runs m <- ... <- visit; push e_u forward along it.
            lg = _log_growth(params, chain[:0:-1], fr.e_u, jacobian)
        else:
            # chain runs m -> ... -> visit; pull e_s back along it.
            lg = _log_growth(params, chain[-2::-1], fr.e_s,
                             mc.jacobian_inverse)
        val = math.log(l) + lg
        return cap if val >= math.log(cap) else math.exp(val)

    return PolygonalBall(m, frame, rho * cert.C3 * capped(True),
                         rho * cert.C3 * capped(False))


# ---------------------------------------------------------------------------
# Kergodic charts
# ---------------------------------------------------------------------------

@dataclass
class ChartFrame:
    """Affine chart centered at M scaling both axes by l(M)."""

    M: tuple
    frame: SplitFrame
    l: float
    basis: np.ndarray = field(init=False)
    inv_basis: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.l <= 0.0:
            raise OutOfDomain("chart undefined where the length scale vanishes")
        self.basis = self.l * np.column_stack([self.frame.e_u, self.frame.e_s])
        self.inv_basis = np.linalg.inv(self.basis)

    def to_plane(self, xi) -> tuple:
        p = np.asarray(self.M) + self.basis @ np.asarray(xi, dtype=float)
        return (float(p[0]), float(p[1]))

    def from_plane(self, p) -> np.ndarray:
        return self.inv_basis @ (np.asarray(p, dtype=float) - np.asarray(self.M))


def chart(params: MapParams, m: tuple[float, float]) -> ChartFrame:
    frame = direction_field(params, m)
    return ChartFrame(M=m, frame=frame, l=length_scale(params, m))


def kergodic_apply(params: MapParams, chart_m: ChartFrame,
                   chart_fm: ChartFrame, xi, k: int):
    """F-hat: chart coordinates at M -> chart coordinates at F(M), where
    F(M) = f^k(M).  Returns None if the plane orbit escapes."""
    start = chart_m.to_plane(xi)
    pts = [start, *mc.iterates(params, start, k)]
    return chart_fm.from_plane(pts[k]) if len(pts) > k else None


def kergodic_derivative(params: MapParams, chart_m: ChartFrame,
                        chart_fm: ChartFrame, k: int,
                        xi=(0.0, 0.0)) -> np.ndarray:
    """DF-hat at ``xi`` by transporting the chart basis exactly."""
    jac, _ = _transport(params, chart_m.to_plane(xi), k)
    return chart_fm.inv_basis @ jac @ chart_m.basis


def _transport(params: MapParams, p, k: int):
    """(derivative of f^k at p, f^k(p)); raises OutOfDomain when the
    orbit leaves the branches (the derivative at the last iterate that
    exists is undefined)."""
    pts = [p, *mc.iterates(params, p, k)]
    jac = np.eye(2)
    for q in pts[:k]:
        jac = jacobian(params, q) @ jac
    return jac, pts[k]


# ---------------------------------------------------------------------------
# Distortion probe
# ---------------------------------------------------------------------------

@dataclass
class DistortionReport:
    M: tuple
    k: int
    worst_ratio: float
    C5_est: float
    n_pairs: int


def _adapted_op_norm(a: np.ndarray, chart_src: ChartFrame,
                     chart_dst: ChartFrame) -> float:
    """Operator norm of ``a`` from the adapted max-norm at the source
    point to the one at the target point."""
    m = np.column_stack([chart_dst.frame.e_u, chart_dst.frame.e_s])
    src = np.column_stack([chart_src.frame.e_u, chart_src.frame.e_s])
    conj = np.linalg.inv(m) @ a @ src
    return float(np.max(np.sum(np.abs(conj), axis=1)))


def distortion_probe(params: MapParams, m: tuple[float, float],
                     cert: Certificate, rng: np.random.Generator,
                     rho: float = 1.0) -> DistortionReport:
    """Empirical distortion constants at a window point returning to
    the window.

    Samples chart-coordinate pairs in the connected component (grid
    flood fill) of the overlap of the domain with the preimage of the
    target ball, and maximizes both the linearization defect ratio and
    the C5 ratio of the derivative modulus of continuity.
    """
    step = induced_map(params, m)
    if step.case != "return" or not in_A(params, step.target):
        raise OutOfDomain("distortion probe needs an A-to-A induced step")
    k = step.k
    ch_m = chart(params, m)
    ch_f = chart(params, step.target)
    r0 = rho * cert.C3

    # The overlap with the preimage of the target ball is a sliver whose
    # unstable extent shrinks by the expansion factor; use an anisotropic
    # grid so the flood fill can resolve it.
    d0_probe = kergodic_derivative(params, ch_m, ch_f, k)
    exp_u = float(np.max(np.abs(d0_probe @ np.array([1.0, 0.0]))))
    a_max = min(r0, 0.98 * r0 / max(exp_u, 1.0))
    n = _PROBE_GRID
    coords_u = np.linspace(-a_max, a_max, n)
    coords_s = np.linspace(-r0, r0, n)
    valid = np.zeros((n, n), dtype=bool)
    images = {}
    for i, a in enumerate(coords_u):
        for j, b in enumerate(coords_s):
            out = kergodic_apply(params, ch_m, ch_f, (a, b), k)
            if out is not None and np.max(np.abs(out)) <= r0:
                valid[i, j] = True
                images[(i, j)] = out
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

    d0 = d0_probe
    worst = 0.0
    c5 = 0.0
    used = 0
    for _ in range(_PROBE_PAIRS):
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
        # modulus of continuity of the plane derivative along the step
        try:
            jac1, c1 = _transport(params, ch_m.to_plane(xi1), k)
            jac2, c2 = _transport(params, ch_m.to_plane(xi2), k)
        except OutOfDomain:
            continue
        diff_norm = _adapted_op_norm(jac1 - jac2, ch_m, ch_f)
        img_gap = adapted_norm(ch_f.frame,
                               np.asarray(c1) - np.asarray(c2))
        if img_gap > 1e-300:
            c5 = max(c5, diff_norm * ch_f.l / img_gap)
        used += 1
    if used == 0:
        raise OutOfDomain("no usable pairs in distortion probe")
    return DistortionReport(M=m, k=k, worst_ratio=worst, C5_est=c5,
                            n_pairs=used)


# ---------------------------------------------------------------------------
# Crossing certificates
# ---------------------------------------------------------------------------

@dataclass
class CrossingProbe:
    """Angle bookkeeping at a window point."""

    M: tuple
    rho: float
    alpha: float        # leaf tangent vs horizontal, tan = 2*c*l
    beta: float         # stable side vs horizontal
    gamma_angle: float  # e_u vs leaf tangent
    delta: float        # stable-cone half-width, tan = tan(alpha)/4


def crossing_probe(params: MapParams, m: tuple[float, float],
                   rho: float = 1.0) -> CrossingProbe:
    frame = direction_field(params, m)
    l = length_scale(params, m)
    alpha = math.atan(2.0 * params.c * l)
    beta = math.atan2(frame.e_s[1], frame.e_s[0])
    leaf = mc.leaf_tangent(params, m)
    gamma = math.atan2(abs(frame.e_u[0] * leaf[1] - frame.e_u[1] * leaf[0]),
                       abs(float(np.dot(frame.e_u, leaf))))
    delta = math.atan(math.tan(alpha) / 4.0)
    return CrossingProbe(M=m, rho=rho, alpha=alpha, beta=beta,
                         gamma_angle=gamma, delta=delta)


def _parabola_crosses_segment(params: MapParams, k: float, p0, p1) -> bool:
    """Does y = c*(x-q)^2 - k meet the segment [p0, p1]?  Tangential
    grazing counts."""
    p0 = np.asarray(p0, dtype=float)
    d = np.asarray(p1, dtype=float) - p0
    # c*(x0 + s*dx - q)^2 - (y0 + s*dy) - k = 0
    e = p0[0] - params.q
    a2 = params.c * d[0] * d[0]
    a1 = 2.0 * params.c * e * d[0] - d[1]
    a0 = params.c * e * e - p0[1] - k
    if abs(a2) < 1e-300:
        if abs(a1) < 1e-300:
            return abs(a0) <= _CROSS_TOL
        s = -a0 / a1
        return -_CROSS_TOL <= s <= 1.0 + _CROSS_TOL
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        if disc > -_CROSS_TOL * max(1.0, a1 * a1):
            disc = 0.0
        else:
            return False
    root = math.sqrt(disc)
    for s in ((-a1 + root) / (2.0 * a2), (-a1 - root) / (2.0 * a2)):
        if -_CROSS_TOL <= s <= 1.0 + _CROSS_TOL:
            return True
    return False


def _u_crosses(params: MapParams, ks, ball: PolygonalBall) -> bool:
    """Every parabola offset in ``ks`` crosses both the bottom and top
    sides of the ball."""
    s0 = ball.side_bottom()
    s2 = ball.side_top()
    for k in ks:
        if not (_parabola_crosses_segment(params, k, *s0)
                and _parabola_crosses_segment(params, k, *s2)):
            return False
    return True


@dataclass
class CrossReport:
    M: tuple
    rho: float
    c0_ok: bool
    eps0_ok: bool
    eta_ok: bool
    n_return: int | None
    details: dict = field(default_factory=dict)

    def csv_row(self) -> list:
        return ["%.17g" % self.M[0], "%.17g" % self.M[1], "%.17g" % self.rho,
                str(self.c0_ok).lower(), str(self.eps0_ok).lower(),
                str(self.eta_ok).lower(),
                "" if self.n_return is None else str(self.n_return)]


def _linspaces(start: np.ndarray, stop: np.ndarray, num: int) -> np.ndarray:
    """``np.linspace(start[i], stop[i], num)`` for every lane i, as the
    columns of one (num, lanes) array.

    One stacked ``np.linspace`` call is not the same: it switches every
    lane to its denormal-safe formula as soon as one lane has a zero
    step.  Here each lane picks its own formula, as a call of its own
    would, so every column holds that call's floats."""
    div = num - 1
    delta = stop - start
    step = delta / div
    k = np.arange(num, dtype=float)[:, None]
    y = np.where(step == 0, k / div * delta, k * step) + start
    y[-1] = stop
    return y


def _arc_crossings(params: MapParams, arc, n: int, segs) -> np.ndarray:
    """Which of the segments ``segs`` ((S, 2, 2): the endpoints of each)
    the n-step image of the vertical arc ``arc`` = (x_side, y_lo, y_hi)
    meets, as a boolean array.

    The arc is traced once for all its segments.  Its branch sequence
    (taken at the arc's midpoint) and end images are computed once.  The
    image x-coordinate is monotone in the source height along that
    itinerary, so the piece of the arc over each segment's x-span (plus
    a 5 % margin) is localized by bisection; the edges of all segments
    are solved in one lockstep bisection (:func:`_bisect_edges`).  Only
    those pieces are sampled, ``_ARC_SAMPLES`` heights each, mapped as one
    stacked array and tested against their segments in one vectorised
    pass.  A chord-level bounding box test would be unsound here: the
    arc can dip far below a chord whose endpoints sit high on both
    wings.
    """
    x_side, y_lo, y_hi = arc
    segs = np.asarray(segs, dtype=float)
    hit = np.zeros(len(segs), dtype=bool)
    seq = mc.branch_sequence(params, (x_side, 0.5 * (y_lo + y_hi)), n)
    if seq is None:
        return hit
    branches = [mc.BRANCH[reg] for reg in seq]

    def image(x, y):
        # branch formulas along the slice itinerary, on floats or arrays
        for br in branches:
            x, y = br.forward(params, x, y)
        return x, y

    x_img_lo = image(x_side, y_lo)[0]
    x_img_hi = image(x_side, y_hi)[0]
    if x_img_lo > x_img_hi:
        y_lo, y_hi = y_hi, y_lo
        x_img_lo, x_img_hi = x_img_hi, x_img_lo
    a, b = segs[:, 0], segs[:, 1]
    margin = np.array([max(0.05 * float(np.linalg.norm(d)), 1e-14)
                       for d in b - a])
    xa = np.minimum(a[:, 0], b[:, 0]) - margin
    xb = np.maximum(a[:, 0], b[:, 0]) + margin
    live = (x_img_hi >= xa) & (x_img_lo <= xb)
    k = int(np.count_nonzero(live))
    if k == 0:
        return hit

    # source heights whose image abscissae are the span edges; an edge
    # outside the arc's image keeps the arc's own end
    targets = np.concatenate([xa[live], xb[live]])
    edges = np.repeat([y_lo, y_hi], k)
    inner = (x_img_lo < targets) & (targets < x_img_hi)
    x_t = targets[inner]
    edges[inner] = _bisect_edges(lambda y: image(x_side, y)[0] < x_t,
                                 np.full(len(x_t), y_lo),
                                 np.full(len(x_t), y_hi), 200)

    ys = _linspaces(edges[:k], edges[k:], _ARC_SAMPLES)
    px, py = image(np.full_like(ys, x_side), ys)
    # each polyline against its segment: solve p + s*r = a + t*d per chord
    ax, ay = a[live, 0], a[live, 1]
    dx, dy = b[live, 0] - ax, b[live, 1] - ay
    rx, ry = np.diff(px, axis=0), np.diff(py, axis=0)
    den = dx * ry - dy * rx
    ex, ey = px[:-1] - ax, py[:-1] - ay
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (ex * ry - ey * rx) / den
        t = (ex * dy - ey * dx) / -den
    crossed = ((np.abs(den) >= 1e-300) & (s >= -1e-9) & (s <= 1.0 + 1e-9)
               & (t >= -1e-9) & (t <= 1.0 + 1e-9))
    hit[live] = crossed.any(axis=0)
    return hit


def _follows(params: MapParams, x: float, y: float, ref) -> bool:
    """Whether (x, y) follows the branch itinerary ``ref`` (regions, as
    :func:`map_core.branch_sequence` gives them), stopping at the first
    step whose strip differs."""
    for region in ref:
        br = mc._branch_at(params, x, y)
        if br is None or br.region is not region:
            return False
        x, y = br.forward(params, x, y)
    return True


def _bisect_edge(passes, good: float, bad: float, iters: int) -> float:
    """Point nearest ``bad`` on the segment from ``good`` (which passes)
    that still passes, by bisection down to float resolution."""
    if passes(bad):
        return bad
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        if mid == good or mid == bad:
            break
        if passes(mid):
            good = mid
        else:
            bad = mid
    return good


def _bisect_edges(passes, good, bad, iters: int) -> np.ndarray:
    """:func:`_bisect_edge` in every lane of the arrays ``good`` and
    ``bad`` at once; ``passes`` maps an array of one point per lane to a
    boolean array.

    Each lane takes the scalar bisection's midpoints and stops where it
    would (``passes(bad)`` at the start, a midpoint equal to an end, or
    the ``iters`` cap), so each returns the scalar's float.  Stopped
    lanes are still evaluated but no longer move."""
    good = np.array(good, dtype=float)
    bad = np.array(bad, dtype=float)
    done = passes(bad)
    good = np.where(done, bad, good)
    live = ~done
    for _ in range(iters):
        mid = 0.5 * (good + bad)
        live &= (mid != good) & (mid != bad)
        if not live.any():
            break
        ok = passes(mid)
        good = np.where(live & ok, mid, good)
        bad = np.where(live & ~ok, mid, bad)
    return good


def _surviving(params: MapParams, ref, p, axis: int, target: float) -> float:
    """Coordinate ``axis`` closest to ``target`` on the axis-parallel
    segment from ``p`` whose points still follow the branch itinerary
    ``ref`` (which ``p`` follows).

    Points with a different itinerary belong to a different component of
    the surviving set, so the edge is found by bisecting against the
    reference label sequence."""
    def same(v: float) -> bool:
        return _follows(params, *((v, p[1]) if axis == 0 else (p[0], v)), ref)

    return _bisect_edge(same, p[axis], target, _SLICE_ITERS)


@dataclass
class _Geometry:
    """What the crossing checks at a window point M read that does not
    depend on the certificate: l(M) and the splitting at M and, for the
    eta check, the first return M_n = f^n(M) with its splitting and
    length scale."""

    M: tuple
    l: float
    frame: SplitFrame
    n_return: int | None = None
    M_ret: tuple | None = None
    frame_ret: SplitFrame | None = None
    l_ret: float | None = None


def _geometry(params: MapParams, m: tuple[float, float], returns: bool,
              frame: SplitFrame | None = None) -> _Geometry:
    """The :class:`_Geometry` at ``m``, with the first return when
    ``returns``; ``frame`` is the splitting at ``m`` if already known.
    Raises :class:`NoReturn` when a needed return does not happen."""
    if not in_A(params, m):
        raise OutOfDomain(f"{m} is not in the tangency window A")
    geo = _Geometry(m, length_scale(params, m),
                    frame if frame is not None else direction_field(params, m))
    if returns:
        geo.n_return, orbit_pts = mc.first_return(params, m, _RETURN_CAP)
        geo.M_ret = orbit_pts[-1]
        geo.frame_ret = direction_field(params, geo.M_ret)
        geo.l_ret = length_scale(params, geo.M_ret)
    return geo


def u_crossing_certificate(params: MapParams, m: tuple[float, float],
                           rho: float, cert: Certificate) -> CrossReport:
    """Check the three crossing statements at a window point.

    C0 and eps0 test parabolas through the stable segment and through
    the eps0 sub-ball against the ball's bottom and top sides.  The eta
    check clips the two vertical sides of the rectangle around M to the
    slice that follows M's itinerary up to its first return M_n, and
    asks that the image of each side cross the bottom and top sides of
    every target ball: radii rho*C0*l and eps0*rho*C0*l at M_n and at
    M_n moved by eta*eps0*rho*C0*l(M_n) along +-e_u and +-e_s, twenty
    segments in all.  Each side arc is traced once for all twenty
    segments (:func:`_arc_crossings`), and the second side is skipped
    once the first misses a segment.
    """
    geo = _geometry(params, m, True)
    return _crossing_report(params, geo, rho, cert, ("c0", "eps0", "eta"))


def _crossing_report(params: MapParams, geo: _Geometry, rho: float,
                     cert: Certificate, checks) -> CrossReport:
    """:func:`u_crossing_certificate` on the point's geometry, for the
    statements in ``checks`` (the others report False)."""
    m = geo.M
    frame = geo.frame
    lt = rho * cert.C0 * geo.l
    ball = PolygonalBall(m, frame, lt, lt)

    # C0: parabolas through the middle quarter of the stable segment
    # cross both the bottom and top sides.
    c0_ok = False
    if "c0" in checks:
        v_minus, v_plus = ball.stable_segment(0.25)
        ks = [parabola_offset(params, tuple(v_minus)),
              parabola_offset(params, m),
              parabola_offset(params, tuple(v_plus))]
        c0_ok = _u_crosses(params, ks, ball)

    # eps0: parabolas through the sub-ball vertices still cross.
    sub = PolygonalBall(m, frame, cert.eps0 * lt, cert.eps0 * lt)
    eps0_ok = False
    if "eps0" in checks:
        sub_ks = [parabola_offset(params, tuple(v)) for v in sub.vertices()]
        eps0_ok = _u_crosses(params, [min(sub_ks), max(sub_ks)], ball)

    # eta: the image of the rectangle around M crosses the target balls
    # at the first return.
    if "eta" not in checks:
        return CrossReport(M=m, rho=rho, c0_ok=c0_ok, eps0_ok=eps0_ok,
                           eta_ok=False, n_return=None)
    n_return = geo.n_return
    verts = np.array(ball.vertices())
    x_lo, x_hi = float(verts[:, 0].min()), float(verts[:, 0].max())
    # rectangle height: the horizontal stripe of the eps0 sub-ball
    sv = np.array(sub.vertices())
    dv = float(sv[:, 1].max() - sv[:, 1].min())
    # Only the connected slice of each side that follows the itinerary
    # of M survives n steps; the crossing statement is about the image
    # component through M_n, so clip the sides to that slice.
    # at shallow returns the rectangle can be wider than the surviving
    # component; clip the horizontal extent at the base height first
    ref = mc.branch_sequence(params, m, n_return)
    x_lo = _surviving(params, ref, m, 0, x_lo)
    x_hi = _surviving(params, ref, m, 0, x_hi)
    sides = []
    for x_side in (x_lo, x_hi):
        y_a, y_b = (_surviving(params, ref, (x_side, m[1]), 1, y)
                    for y in (m[1] - dv / 2.0, m[1] + dv / 2.0))
        sides.append((x_side, y_a, y_b))
    # eta bounds how far the target center may sit from the actual
    # return point; the crossing must hold for every such center.
    base = np.asarray(geo.M_ret)
    r_pert = cert.eta * cert.eps0 * rho * cert.C0 * geo.l_ret
    centers = [base]
    for e in (geo.frame_ret.e_u, geo.frame_ret.e_s):
        centers.append(base + r_pert * e)
        centers.append(base - r_pert * e)
    segs = []
    for ctr in centers:
        l_ctr = abs(ctr[0] - params.q)
        if l_ctr == 0.0:
            segs = None
            break
        for rad in (rho * cert.C0 * l_ctr,
                    cert.eps0 * rho * cert.C0 * l_ctr):
            tb = PolygonalBall(tuple(ctr), geo.frame_ret, rad, rad)
            segs += [tb.side_bottom(), tb.side_top()]
    eta_ok = segs is not None and all(
        _arc_crossings(params, arc, n_return, segs).all() for arc in sides)
    details = {"d_h": x_hi - x_lo, "d_v": dv}
    return CrossReport(M=m, rho=rho, c0_ok=c0_ok, eps0_ok=eps0_ok,
                       eta_ok=eta_ok, n_return=n_return, details=details)


# ---------------------------------------------------------------------------
# Certificate calibration
# ---------------------------------------------------------------------------

def _largest_passing(predicate, hi: float) -> float | None:
    """Largest value in [``_ETA_MIN``, hi] passing a monotone predicate
    (log-scale bisection)."""
    if predicate(hi):
        return hi
    if not predicate(_ETA_MIN):
        return None
    a, b = math.log(_ETA_MIN), math.log(hi)
    for _ in range(_ETA_ITERS):
        mid = 0.5 * (a + b)
        if predicate(math.exp(mid)):
            a = mid
        else:
            b = mid
    return math.exp(a)


def _returns(params: MapParams, m) -> bool:
    try:
        mc.first_return(params, m, _RETURN_CAP)
    except NoReturn:
        return False
    return True


def calibrate_certificate(params: MapParams, sample_budget: int = 200,
                          seed: int = 0) -> Certificate:
    """Replace the existence constants by swept values.

    chi0 stays fixed at 4 and gamma keeps its closed form; chi has a
    closed-form supremum; chi1 and C5 are empirical extrema; C0, eps0
    and eta come from bisection against their crossing predicates.
    """
    p = params
    rng = np.random.default_rng(seed)
    cert = mc.default_certificate(p)
    points = sp.sample_A_points(p, rng, sample_budget)
    frames = [direction_field(p, rp.M) for rp in points]

    # chi1: empirical minimum of ||v|| / (l(M) |v|_M)
    chi1 = math.inf
    for rp, fr in zip(points, frames):
        for _ in range(4):
            v = rng.normal(size=2)
            chi1 = min(chi1, float(np.linalg.norm(v))
                       / (fr.l * adapted_norm(fr, v)))
    # chi: smallest constant making (3cx^2)^(1+1/b) <= c*chi*x^2 on (0, lam]
    chi = (3.0 * p.c * p.lam ** 2) ** (1.0 + 1.0 / p.b) / (p.c * p.lam ** 2) * 1.05

    subset = points[:min(40, len(points))]

    # the window's corner points carry the extreme length scales; sweep
    # the static crossings over them too so the constants hold window-wide
    corners = []
    for s in (1.0, -1.0):
        for x_off, y in ((p.wing_half_width, p.inv_sigma),
                         (math.sqrt(p.lam / p.c) * 0.999, 0.0)):
            pt = (p.q + s * x_off, y)
            if in_A(p, pt):
                corners.append(pt)
    static_points = [rp.M for rp in subset] + corners

    # shallow returns have the largest length scales and the least room
    # below the window; they bound the sweep, so pin the extreme window
    # points with escape time n1 (offset chosen near its upper end)
    eta_points = [rp.M for rp in subset[:min(10, len(subset))]]
    w_pin = 0.5 * p.w_max
    for n1 in (1, 2, 3):
        y_pin = (p.t + w_pin / p.sigma) * p.sigma ** (-n1)
        l_pin = math.sqrt((y_pin + 0.98 * p.lam) / p.c)
        for s in (1.0, -1.0):
            pt = (p.q + s * l_pin, y_pin)
            if in_A(p, pt) and _returns(p, pt):
                eta_points.append(pt)

    # the certificate-free geometry of every swept point, built once
    known = {rp.M: fr for rp, fr in zip(points, frames)}
    static_geo = [_geometry(p, m, False, known.get(m)) for m in static_points]
    eta_geo = [_geometry(p, m, True, known.get(m)) for m in eta_points]

    def static_ok(trial, which):
        return all(getattr(_crossing_report(p, g, 1.0, trial, (which,)),
                           which + "_ok")
                   for g in static_geo)

    def eta_ok(trial):
        return all(_crossing_report(p, g, 1.0, trial, ("eta",)).eta_ok
                   for g in eta_geo)

    # The crossing geometry is not monotone in C0 (a larger ball can pass
    # the static checks and still push its bottom side below anything the
    # image arcs reach), so sweep a descending grid over the combined
    # predicate and require stability at 90% of the candidate.
    def grid_scan(values, accept):
        for v in values:
            if accept(v) and accept(0.9 * v):
                return v
        return None

    def sweep(base, name, values):
        def accept(v):
            t = base.with_updates(**{name: v})
            return static_ok(t, name.lower()) and eta_ok(t)
        return grid_scan(values, accept) or getattr(cert, name)

    c0 = sweep(cert, "C0", np.geomspace(1.0, 1e-3, 25))
    eps0 = sweep(cert.with_updates(C0=c0), "eps0", np.geomspace(0.5, 1e-3, 22))
    trial = cert.with_updates(C0=c0).with_updates(eps0=eps0)

    def eta_pred(et):
        t = trial.with_updates(eta=et)
        return eta_ok(t)

    eta = 0.8 * (_largest_passing(eta_pred, min(1.0, 1.0 / (320.0 * p.c)))
                 or cert.eta)

    c5 = 0.0
    for rp in subset[:20]:
        try:
            rep = distortion_probe(p, rp.M, trial, rng)
        except OutOfDomain:
            continue
        c5 = max(c5, rep.C5_est)
    if c5 == 0.0:
        c5 = cert.C5

    return cert.with_updates(chi1=chi1, chi=chi, C0=c0, eps0=eps0,
                             eta=eta, C5=c5)
