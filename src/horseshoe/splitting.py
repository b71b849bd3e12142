"""Cone fields and the stable/unstable direction fields.

The unstable cone at a point M of the tangency window A is the vertical
cone of aperture ``chi0 / (2*c*l(M))`` around the vertical axis, where
``l(M) = |x - q|`` is the distance to the tangency abscissa and
``chi0 = 4``.  Away from A a fixed vertical cone of slope ``1/sqrt(3)``
is used.  Direction fields are computed by pushing these cones along
finite orbit segments (power iteration with per-step renormalization)
together with an explicit residual certificate: the residual bounds the
angle between the reported direction and anything else surviving in the
pushed cone.

Numerical settings are module constants: ``MAX_DEPTH``, ``_TOL``,
``_CONE_SAMPLES``, ``_RETURN_CAP``, ``_HOLDER_RESIDUAL``,
``_HOLDER_FLOOR`` and ``_HOLDER_MIN_PAIRS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import map_core as mc
from .map_core import (MapParams, OrbitEscapes, OutOfDomain, classify,
                       jacobian, jacobian_inverse, in_A)

CHI0 = 4.0
DEFAULT_SLOPE = 1.0 / math.sqrt(3.0)
MAX_DEPTH = 60
_TOL = 1e-10                # residual that ends a side's cone carrying
_CONE_SAMPLES = 7           # interior directions per cone in the return check
_RETURN_CAP = 200           # step cap of the cone-return check
_HOLDER_RESIDUAL = 1e-8     # frames resolved worse are left out of a fit
_HOLDER_FLOOR = 1e-12       # direction gaps below this are left out
_HOLDER_MIN_PAIRS = 100     # resolved pairs a Hoelder fit needs


def length_scale(params: MapParams, m: tuple[float, float]) -> float:
    """Length scale l(M).

    Inside the tangency window A this is the distance |x - q| to the
    tangency abscissa; on the tangency point itself it is 0; everywhere
    else the supremum of l over A, sqrt((1/sigma + lam)/c), is used.
    """
    if m[0] == params.q and m[1] == 0.0:
        return 0.0
    if in_A(params, m):
        return abs(m[0] - params.q)
    return params.wing_half_width


@dataclass(frozen=True)
class Cone:
    """Sector of tangent directions.

    ``axis`` is ``"vertical"`` or ``"horizontal"``; ``slope_bound`` is the
    aperture measured as |u|/|v| for vertical cones and |v|/|u| for
    horizontal ones.
    """

    axis: str
    slope_bound: float

    def __post_init__(self):
        if self.axis not in ("vertical", "horizontal"):
            raise ValueError("axis must be 'vertical' or 'horizontal'")
        if self.slope_bound < 0.0:
            raise ValueError("slope_bound must be nonnegative")

    def contains(self, v) -> bool:
        u, w = float(v[0]), float(v[1])
        if self.axis == "vertical":
            return abs(u) <= self.slope_bound * abs(w)
        return abs(w) <= self.slope_bound * abs(u)

    def boundary_rays(self):
        """The two extreme unit directions of the cone."""
        s = self.slope_bound
        if self.axis == "vertical":
            rays = [np.array([s, 1.0]), np.array([-s, 1.0])]
        else:
            rays = [np.array([1.0, s]), np.array([1.0, -s])]
        return [r / np.linalg.norm(r) for r in rays]


def unstable_cone(params: MapParams, m: tuple[float, float]) -> Cone:
    """Vertical cone of aperture chi0/(2*c*l(M)) at a point of A."""
    return Cone("vertical", CHI0 / (2.0 * params.c * _window_scale(params, m)))


def stable_cone(params: MapParams, m: tuple[float, float]) -> Cone:
    """Horizontal cone at a point of A with tan(delta) = (1/4) tan(alpha),
    where tan(alpha) = 2*c*l(M) is the local leaf slope."""
    return Cone("horizontal", 2.0 * params.c * _window_scale(params, m) / CHI0)


def _window_scale(params: MapParams, m) -> float:
    """l(M) at a point of A."""
    if not in_A(params, m):
        raise OutOfDomain(f"{m} is not in the tangency window A")
    return length_scale(params, m)


def default_cone(axis: str = "vertical") -> Cone:
    return Cone(axis, DEFAULT_SLOPE)


def _pushed_slope(jac: np.ndarray, cone: Cone) -> float:
    """Aperture (|u|/|v|) of the smallest vertical cone containing the
    image of ``cone`` under ``jac``."""
    worst = 0.0
    for ray in cone.boundary_rays():
        img = jac @ ray
        if img[1] == 0.0:
            return math.inf
        worst = max(worst, abs(img[0] / img[1]))
    return worst


def cone_at(params: MapParams, orbit_points: list) -> list:
    """Cone chain along an orbit segment, following the extension scheme:
    the vertical default cone before the first visit to A (and when A is
    never visited), the A-cone at each visit, push-forwards in between.
    """
    cones = []
    prev_cone = None
    seen_a = False
    for i, p in enumerate(orbit_points):
        if classify(params, p) not in mc.ACTIVE_REGIONS and i < len(orbit_points) - 1:
            raise OrbitEscapes("forward", i)
        if in_A(params, p):
            cone = unstable_cone(params, p)
            seen_a = True
        elif not seen_a:
            cone = default_cone()
        else:
            jac = jacobian(params, orbit_points[i - 1])
            cone = Cone("vertical", _pushed_slope(jac, prev_cone))
        cones.append(cone)
        prev_cone = cone
    return cones


@dataclass
class SplitFrame:
    """Unit stable/unstable directions at a point with residual bounds.

    ``residual`` is the larger of the two per-direction residuals: the
    angle spread of the pushed (pulled) cone around the reported vector.
    """

    M: tuple
    e_u: np.ndarray
    e_s: np.ndarray
    depth_u: int
    depth_b: int
    l: float
    residual: float
    residual_u: float = 0.0
    residual_s: float = 0.0


def _angle_between(a: np.ndarray, b: np.ndarray) -> float:
    cross = abs(a[0] * b[1] - a[1] * b[0])
    dot = abs(float(np.dot(a, b)))
    return math.atan2(cross, dot)


def _carry_cone(params: MapParams, chain: list, unstable: bool):
    """Carry the cone at ``chain[0]`` along ``chain``: the vertical cone
    forward (deepest backward point first), or the horizontal cone
    backward (deepest forward point first, ending at the base point).
    Returns (unit vector at the end, residual)."""
    start = chain[0]
    axis = 1 if unstable else 0
    if in_A(params, start):
        cone = (unstable_cone if unstable else stable_cone)(params, start)
    else:
        cone = default_cone("vertical" if unstable else "horizontal")
    vecs = [np.array([0.0, 1.0] if unstable else [1.0, 0.0])] \
        + cone.boundary_rays()
    if unstable:
        steps, derivative = chain[:-1], jacobian
    else:
        steps, derivative = chain[1:], jacobian_inverse
    for p in steps:
        jac = derivative(params, p)
        vecs = [jac @ v for v in vecs]
        vecs = [v / np.linalg.norm(v) for v in vecs]
        vecs = [v if v[axis] > 0 else -v for v in vecs]
    residual = max(_angle_between(vecs[0], vecs[1]),
                   _angle_between(vecs[0], vecs[2]))
    return vecs[0], residual


def _deepest_carry(params: MapParams, m, walk, unstable: bool):
    """(unit vector, residual, depth) of the smallest residual among the
    cones carried to ``m`` from ever deeper points of ``walk``, each drawn
    when its depth is tried, until one is below ``_TOL``; the cone at
    ``m`` itself (depth 0) when the walk is empty."""
    pts, best = [m], (None, math.inf, 0)
    for p in walk:
        pts.append(p)
        vec, res = _carry_cone(params, pts[::-1], unstable)
        if res < best[1]:
            best = (vec, res, len(pts) - 1)
        if res < _TOL:
            break
    if len(pts) == 1:
        best = (*_carry_cone(params, pts, unstable), 0)
    return best


def direction_field(params: MapParams, m: tuple[float, float]) -> SplitFrame:
    """Unstable and stable unit directions at ``m``.

    Each side walks its orbit lazily (preimages for e_u, images for
    e_s), at most ``MAX_DEPTH`` steps and only as deep as the residual
    needs to drop below ``_TOL``.
    """
    (e_u, res_u, depth_u), (e_s, res_s, depth_s) = (
        _deepest_carry(params, m, mc.iterates(params, m, MAX_DEPTH, forward),
                       not forward)
        for forward in (False, True))
    e_u = -e_u if e_u[1] <= 0 else e_u
    e_s = -e_s if e_s[0] <= 0 else e_s
    return SplitFrame(M=m, e_u=e_u, e_s=e_s, depth_u=depth_u,
                      depth_b=depth_s, l=length_scale(params, m),
                      residual=max(res_u, res_s),
                      residual_u=res_u, residual_s=res_s)


def adapted_norm(frame: SplitFrame, v) -> float:
    """Max-norm of the coordinates of ``v`` in the basis (e_u, e_s)."""
    basis = np.column_stack([frame.e_u, frame.e_s])
    det = np.linalg.det(basis)
    if abs(det) < 1e-14:
        raise ValueError("degenerate frame: e_u and e_s are parallel")
    coeffs = np.linalg.solve(basis, np.asarray(v, dtype=float))
    return float(np.max(np.abs(coeffs)))


# ---------------------------------------------------------------------------
# Cone-return verification
# ---------------------------------------------------------------------------

@dataclass
class ReturnReport:
    M: tuple
    n: int
    inclusion: bool
    min_expansion_u: float
    bound_u: float
    min_contraction_s: float
    bound_s: float

    def csv_row(self) -> list:
        return ["%.17g" % self.M[0], "%.17g" % self.M[1], str(self.n),
                str(self.inclusion).lower(), "%.17g" % self.min_expansion_u,
                "%.17g" % self.bound_u, "%.17g" % self.min_contraction_s,
                "%.17g" % self.bound_s]


def _cone_unit_vectors(cone: Cone):
    """Boundary rays plus ``_CONE_SAMPLES`` interior samples of a cone."""
    r0, r1 = cone.boundary_rays()
    a0 = math.atan2(r0[1], r0[0])
    a1 = math.atan2(r1[1], r1[0])
    vecs = []
    for i in range(_CONE_SAMPLES + 2):
        a = a0 + (a1 - a0) * i / (_CONE_SAMPLES + 1)
        vecs.append(np.array([math.cos(a), math.sin(a)]))
    return vecs


def verify_cone_return(params: MapParams, m: tuple[float, float]) -> ReturnReport:
    """Check the cone lemma along the first return of ``m`` to A.

    The unstable cone at M must map strictly into the unstable cone at
    the return point, expanding every cone vector by at least
    sigma^(n/2); symmetrically the stable cone at the return point must
    pull back into the stable cone at M, with backward growth at least
    lam^(-n/2).
    """
    if not in_A(params, m):
        raise OutOfDomain(f"{m} is not in the tangency window A")
    n, pts = mc.first_return(params, m, _RETURN_CAP)
    jacs = [jacobian(params, p) for p in pts[:-1]]

    cone_u = unstable_cone(params, m)
    target_u = unstable_cone(params, pts[-1])
    inclusion = True
    min_exp = math.inf
    for v in _cone_unit_vectors(cone_u):
        img = v
        for jac in jacs:
            img = jac @ img
        min_exp = min(min_exp, float(np.linalg.norm(img)))
        if not target_u.contains(img):
            inclusion = False
    bound_u = params.sigma ** (n / 2.0)

    cone_s = stable_cone(params, pts[-1])
    target_s = stable_cone(params, m)
    min_con = math.inf
    for v in _cone_unit_vectors(cone_s):
        img = v
        for p in reversed(pts[:-1]):
            img = jacobian_inverse(params, p) @ img
        min_con = min(min_con, float(np.linalg.norm(img)))
        if not target_s.contains(img):
            inclusion = False
    bound_s = params.lam ** (-n / 2.0)

    return ReturnReport(M=m, n=n, inclusion=inclusion,
                        min_expansion_u=min_exp, bound_u=bound_u,
                        min_contraction_s=min_con, bound_s=bound_s)


# ---------------------------------------------------------------------------
# Hoelder regularity of the splitting
# ---------------------------------------------------------------------------

def direction_gap(a: np.ndarray, b: np.ndarray) -> float:
    """Distance between the lines spanned by two unit vectors."""
    return min(float(np.linalg.norm(a - b)), float(np.linalg.norm(a + b)))


@dataclass
class HolderFit:
    alpha_est: float
    C_est: float
    n_pairs: int
    bins: list  # (dist_bin_exponent, mean_dir_gap, count)


def holder_fit(params: MapParams, pairs: list, which: str = "u") -> HolderFit:
    """Hoelder fit of a direction field over point pairs.

    ``pairs`` are (z, z') tuples; ``which`` selects ``"u"`` or ``"s"``.
    Gaps are binned by dyadic distance (bin k collects distances in
    [2^-(k+1), 2^-k)); pairs whose direction gap is below the variation
    floor, or whose frames do not resolve to the residual tolerance, are
    excluded.  Returns the least-squares slope of ln(gap) against
    ln(dist) over bin means.
    """
    rows = []
    for z, zp in pairs:
        if z == zp:
            raise ValueError("identical points in a Hoelder pair")
        fa = direction_field(params, z)
        fb = direction_field(params, zp)
        ra = fa.residual_u if which == "u" else fa.residual_s
        rb = fb.residual_u if which == "u" else fb.residual_s
        if ra > _HOLDER_RESIDUAL or rb > _HOLDER_RESIDUAL:
            continue
        ea, eb = (fa.e_u, fb.e_u) if which == "u" else (fa.e_s, fb.e_s)
        gap = direction_gap(ea, eb)
        dist = math.hypot(z[0] - zp[0], z[1] - zp[1])
        if gap < _HOLDER_FLOOR or dist <= 0.0:
            continue
        rows.append((dist, gap))
    if len(rows) < _HOLDER_MIN_PAIRS:
        raise ValueError(f"only {len(rows)} resolved pairs "
                         f"(need {_HOLDER_MIN_PAIRS})")
    binned = {}
    for dist, gap in rows:
        k = int(math.floor(-math.log2(dist)))
        binned.setdefault(k, []).append((dist, gap))
    bins = []
    xs, ys = [], []
    for k in sorted(binned):
        ds = [math.log(d) for d, _ in binned[k]]
        gs = [math.log(g) for _, g in binned[k]]
        xs.append(sum(ds) / len(ds))
        ys.append(sum(gs) / len(gs))
        bins.append((k, math.exp(ys[-1]), len(binned[k])))
    if len(bins) < 3:
        raise ValueError("fewer than 3 dyadic bins resolved; widen the pair distances")
    slope, intercept = np.polyfit(np.array(xs), np.array(ys), 1)
    return HolderFit(alpha_est=float(slope), C_est=float(math.exp(intercept)),
                     n_pairs=len(rows), bins=bins)
