"""Cone fields and the stable/unstable direction fields.

The unstable cone at a point M of the tangency window A is the vertical
cone of aperture ``chi0 / (2*c*l(M))`` around the vertical axis, where
``l(M) = |x - q|`` is the distance to the tangency abscissa and
``chi0 = 4``.  Away from A a fixed vertical cone of slope ``1/sqrt(3)``
is used.  Direction fields are computed by pushing these cones along
finite orbit segments (power iteration through a running product of the
derivatives) together with an explicit residual certificate: the
residual bounds the angle between the reported direction and anything
else surviving in the pushed cone.

Frames come from sweeps (:class:`_Sweep`).  A sweep holds one float
orbit through a point m, drawn lazily both ways and shared by every
frame read on it: e_u is read from the vertical cones carried forward
from the preimages, e_s from the horizontal cones carried backward from
the images, in the manner of the forward-backward sweep for covariant
Lyapunov vectors (Ginelli et al., PRL 99, 130601, 2007).  The frame at
an orbit point z reads its cones with the depth rule of a single point:
the cone from the nearest walk point first, then ever deeper ones, until
a residual drops below ``_TOL``.  :func:`direction_field` is the sweep
read at m alone, and the leaf chains of :mod:`horseshoe.manifolds` read
one sweep per chain.

A side's scan reads the running product P_k of its walk's derivatives,
P_k = P_(k-1) D_k, from the package's one derivative carrier,
:func:`~horseshoe.map_core._scaled_products`: four Python floats and a
power of two, with each derivative taken from the
:data:`~horseshoe.map_core.BRANCHES` formulas as a pair of rows and kept
by orbit index, so the frames of a chain build each one once.  The
depth-k cone is P_k applied to the three unnormalised vectors of the
start cone at the k-th walk point (its axis and two boundary rays); its
residual is the larger angle between the axis line and a ray line,
``atan2(|a x b|, |a . b|)``, and only the axis of the depth returned is
normalised.  The power of two scales the three vectors alike, so the
cone reads the four floats alone, in range even on ``REF_STRICT``.  A
unit vector carried through numpy stacks, as ``tests/reference.py`` keeps
it, gives the same depths and errors, and directions within 1e-15 rad.

A :class:`SplitFrame` is also the chart at its point M: the affine
coordinates centered at M in the basis (e_u, e_s), both axes scaled by
the length scale l(M) (``induced.chart`` checks that l(M) > 0 and that
e_u and e_s are not parallel).

Numerical settings are module constants: ``MAX_DEPTH``, ``_TOL``,
``_CONE_SAMPLES``, ``_RETURN_CAP``, ``_HOLDER_RESIDUAL``,
``_HOLDER_FLOOR`` and ``_HOLDER_MIN_PAIRS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import map_core as mc
from .map_core import MapParams, in_A, _derivative_at

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
        """Whether the vector ``v``, or every row of an (N, 2) stack,
        lies in the cone."""
        v = np.asarray(v, dtype=float)
        u, w = np.abs(v[..., 0]), np.abs(v[..., 1])
        if self.axis == "vertical":
            return bool(np.all(u <= self.slope_bound * w))
        return bool(np.all(w <= self.slope_bound * u))

    def boundary_rays(self):
        """The two extreme unit directions of the cone."""
        s = self.slope_bound
        rays = (((s, 1.0), (-s, 1.0)) if self.axis == "vertical"
                else ((1.0, s), (1.0, -s)))
        return [v / np.linalg.norm(v) for v in map(np.array, rays)]


def unstable_cone(params: MapParams, m: tuple[float, float]) -> Cone:
    """Vertical cone of aperture chi0/(2*c*l(M)) at a point of A."""
    return Cone("vertical", _window_slope(params, _window_scale(params, m),
                                          True))


def stable_cone(params: MapParams, m: tuple[float, float]) -> Cone:
    """Horizontal cone at a point of A with tan(delta) = (1/4) tan(alpha),
    where tan(alpha) = 2*c*l(M) is the local leaf slope."""
    return Cone("horizontal", _window_slope(params, _window_scale(params, m),
                                            False))


def _window_scale(params: MapParams, m) -> float:
    """l(M) at a point of A."""
    mc._require_A(params, m)
    return length_scale(params, m)


def _window_slope(params: MapParams, l: float, unstable: bool) -> float:
    """Aperture of the unstable (stable) cone at a point of A whose
    length scale is ``l``."""
    if unstable:
        return CHI0 / (2.0 * params.c * l)
    return 2.0 * params.c * l / CHI0


@dataclass
class SplitFrame:
    """Unit stable/unstable directions at a point with residual bounds,
    and the chart at that point.

    ``residual`` is the larger of the two per-direction residuals: the
    angle spread of the pushed (pulled) cone around the reported vector.
    Chart coordinates xi stand for the plane point M + ``basis`` @ xi.
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

    @cached_property
    def basis(self) -> np.ndarray:
        """The chart basis: the columns e_u and e_s scaled by l(M)."""
        return self.l * np.column_stack([self.e_u, self.e_s])

    @cached_property
    def inv_basis(self) -> np.ndarray:
        return np.linalg.inv(self.basis)

    def to_plane(self, xi) -> tuple:
        p = np.asarray(self.M) + self.basis @ np.asarray(xi, dtype=float)
        return (float(p[0]), float(p[1]))

    def from_plane(self, p) -> np.ndarray:
        return self.inv_basis @ (np.asarray(p, dtype=float) - np.asarray(self.M))


def _unit(v) -> np.ndarray:
    """The vector ``v`` (a pair of floats) over its Euclidean norm."""
    norm = math.hypot(v[0], v[1])
    return np.array((v[0] / norm, v[1] / norm))


def _cone_slope(params: MapParams, z, unstable: bool) -> float:
    """Aperture of the start cone at ``z``: the vertical (horizontal)
    A-cone at a point of A, the default cone elsewhere."""
    if in_A(params, z):
        return _window_slope(params, abs(z[0] - params.q), unstable)
    return DEFAULT_SLOPE


def _cone(s: float, unstable: bool, p00, p01, p10, p11):
    """(axis vector, residual) of the start cone of aperture ``s``
    carried through the matrix P = ((p00, p01), (p10, p11)): the axis
    vector P e and the larger angle between its line and those of the
    two boundary rays P r, ``atan2(|a x b|, |a . b|)``, none of them
    normalised.  The vertical cone's rays are (+-s, 1), the horizontal
    one's (1, +-s)."""
    if unstable:
        a0, a1, o0, o1 = p01, p11, s * p00, s * p10
    else:
        a0, a1, o0, o1 = p00, p10, s * p01, s * p11
    b0, b1, c0, c1 = a0 + o0, a1 + o1, a0 - o0, a1 - o1
    return a0, a1, max(math.atan2(abs(a0 * b1 - a1 * b0),
                                  abs(a0 * b0 + a1 * b1)),
                       math.atan2(abs(a0 * c1 - a1 * c0),
                                  abs(a0 * c0 + a1 * c1)))


class _Sweep:
    """The splitting along one float orbit through ``m``, read by every
    point of the orbit.

    Orbit index j holds z_j: z_0 = m, images at j > 0 and preimages at
    j < 0, each drawn once, from m's side, when a frame first needs it.
    The frame at z_j is that of :func:`direction_field` with the walks of
    z_j read from the orbit: e_u from the preimages z_(j-1), z_(j-2), ...
    and e_s from the images z_(j+1), ....  At j = 0 those are the walks
    of m, so ``frame(0)`` is ``direction_field(m)``.  Elsewhere one side
    reads the orbit behind z_j, toward m, and in floats f(z_(j-1)) need
    not be z_j, so that side moves by rounding against
    ``direction_field(z_j)``.  ``mats[unstable]`` keeps, by orbit index,
    the derivatives of a side's walks, and ``slopes[unstable]`` the
    apertures of the start cones there, built once each: the frames of
    a leaf's chain (``manifolds._Chain``, the plain orbit) read the same
    walk points.  On ``REF_EX`` (see :func:`direction_field`) the
    median e_u residual of 200 sampled A-points is 2.0e-6 at M; frames
    gain about lam/sigma per image on (6.8e-8, 1.4e-9, then 4.0e-11),
    and lose at the preimages of M (2.3e-4 one step back)."""

    __slots__ = ("params", "pts", "edges", "ends", "mats", "slopes")

    def __init__(self, params: MapParams, m):
        self.params = params
        self.pts, self.edges, self.ends = {0: m}, {1: 0, -1: 0}, {}
        self.mats = {True: {}, False: {}}
        self.slopes = {True: {}, False: {}}

    def extend(self, j) -> None:
        """Draw the orbit toward z_j through ``iterates``, as far as it
        goes: to z_j, or to its end, which ``ends`` then records (None
        where the orbit ends, else the error a step raised).  Points
        drawn already are not drawn again."""
        s = 1 if j > 0 else -1
        i = self.edges[s]
        if s * (j - i) <= 0 or s in self.ends:
            return
        pts = self.pts
        try:
            for p in mc.iterates(self.params, pts[i], s * (j - i), s > 0):
                i += s
                pts[i] = p
        except Exception as exc:    # raised for every point beyond
            self.ends[s] = exc
        else:
            if i != j:
                self.ends[s] = None
        self.edges[s] = i

    def point(self, j):
        """z_j, drawn as far as j; None past the walk's end.  A step that
        raised is raised again for every point beyond it."""
        if j not in self.pts:
            self.extend(j)
            if j not in self.pts:
                end = self.ends[1 if j > 0 else -1]
                if end is not None:
                    raise end
                return None
        return self.pts[j]

    def products(self, unstable: bool, t):
        """For depth k = 1, 2, ..., at most ``MAX_DEPTH``, lazily, the
        product P_k of the derivatives that carry a vector from the walk
        point z_(t+sk) to z_t, as the carrier
        :func:`~horseshoe.map_core._scaled_products` yields it."""
        return mc._scaled_products(self._rows(unstable, t))

    def _rows(self, unstable: bool, t):
        """The derivatives of :meth:`products`: the walk goes to the
        preimages (s = -1) for e_u, to the images (s = +1) for e_s.  Each
        is built once from the :data:`~horseshoe.map_core.BRANCHES`
        formula into ``mats``, with its start-cone aperture in
        ``slopes``.  The walk stops at the orbit's end; a step that failed
        (a draw, or a derivative) raises its error when reached."""
        s = -1 if unstable else 1
        params, pts = self.params, self.pts
        mats, slopes = self.mats[unstable], self.slopes[unstable]
        which = "derivative" if unstable else "derivative_inverse"
        for k in range(1, MAX_DEPTH + 1):
            i = t + s * k
            if i not in pts:
                self.extend(i)
                if i not in pts:
                    if self.ends[s] is not None:
                        raise self.ends[s]
                    return
            d = mats.get(i)
            if d is None:
                d = mats[i] = _derivative_at(
                    params, pts[i if unstable else i - 1], which)
                slopes[i] = _cone_slope(params, pts[i], unstable)
            yield d

    def resolve(self, unstable: bool, t):
        """(unit vector, residual, depth) of the side ``unstable`` at
        z_t: of the cones carried to z_t from ever deeper walk points, the
        first whose residual is below ``_TOL``, else the first of smallest
        residual; the cone at z_t itself (depth 0) when the walk from z_t
        is empty.  The cone of depth k is P_k applied to the start cone at
        the walk point (:meth:`products`, :func:`_cone`; P_k's power of two
        scales the cone alike, so it is not read), and only the axis vector
        of the depth returned is normalised.  A step that failed raises its
        error only when no earlier depth has a residual below ``_TOL``."""
        s = -1 if unstable else 1
        slopes = self.slopes[unstable]
        best, best_res, axis, k = 0, math.inf, None, 0
        for k, (p00, p01, p10, p11, _) in enumerate(
                self.products(unstable, t), 1):
            a0, a1, res = _cone(slopes[t + s * k], unstable,
                                p00, p01, p10, p11)
            if res < best_res:
                best, best_res, axis = k, res, (a0, a1)
            if res < _TOL:
                break
        if k == 0:
            # the walk is empty: the start cone at z_t itself
            a0, a1, res = _cone(
                _cone_slope(self.params, self.pts[t], unstable), unstable,
                1.0, 0.0, 0.0, 1.0)
            return _unit((a0, a1)), res, 0
        if best == 0:
            return None, math.inf, 0
        return _unit(axis), best_res, best

    def frame(self, j) -> SplitFrame:
        """The splitting at z_j, scanned afresh on every call (a chain
        keeps the frames it reads, by point)."""
        m = self.pts.get(j) or self.point(j)
        e_u, res_u, depth_u = self.resolve(True, j)
        e_s, res_s, depth_s = self.resolve(False, j)
        e_u = -e_u if e_u[1] <= 0 else e_u
        e_s = -e_s if e_s[0] <= 0 else e_s
        return SplitFrame(M=m, e_u=e_u, e_s=e_s, depth_u=depth_u,
                          depth_b=depth_s, l=length_scale(self.params, m),
                          residual=max(res_u, res_s), residual_u=res_u,
                          residual_s=res_s)


def direction_field(params: MapParams, m: tuple[float, float]) -> SplitFrame:
    """Unstable and stable unit directions at ``m``: the sweep of the
    orbit of ``m`` read at ``m`` alone.

    Each side walks its orbit lazily (preimages for e_u, images for
    e_s), at most ``MAX_DEPTH`` steps and only as deep as the residual
    needs to drop below ``_TOL``, as one scan of the running product of
    the walk's derivatives in Python floats (:meth:`_Sweep.resolve`).
    A walk that ends first leaves the direction less resolved: on
    ``REF_EX`` the backward walk of an A-point ends after 3 to 5
    preimages, so e_u there is resolved only to a residual of about
    2e-10 to 3e-6, from the deepest preimage (``depth_u`` is the walk's
    length).  ``residual_u`` and ``residual_s`` state what each side
    reached.
    """
    return _Sweep(params, m).frame(0)


def adapted_norm(frame: SplitFrame, v):
    """Max-norm of the coordinates of ``v`` in the basis (e_u, e_s); for
    an (N, 2) stack of vectors, the array of their N norms."""
    basis = np.column_stack([frame.e_u, frame.e_s])
    det = np.linalg.det(basis)
    if abs(det) < 1e-14:
        raise ValueError("degenerate frame: e_u and e_s are parallel")
    v = np.asarray(v, dtype=float)
    coeffs = np.linalg.solve(basis, v[..., None])[..., 0]
    norms = np.max(np.abs(coeffs), axis=-1)
    return float(norms) if v.ndim == 1 else norms


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


def _cone_unit_vectors(cone: Cone) -> np.ndarray:
    """Boundary rays plus ``_CONE_SAMPLES`` interior samples of a cone,
    evenly spaced in angle, as the columns of a 2 x (``_CONE_SAMPLES`` +
    2) array."""
    r0, r1 = cone.boundary_rays()
    a0 = math.atan2(r0[1], r0[0])
    a1 = math.atan2(r1[1], r1[0])
    angles = [a0 + (a1 - a0) * i / (_CONE_SAMPLES + 1)
              for i in range(_CONE_SAMPLES + 2)]
    return np.array([[math.cos(a) for a in angles],
                     [math.sin(a) for a in angles]])


def _carry(rows, cone: Cone):
    """The cone's unit vectors through the mantissa of the product of
    ``rows`` (:func:`~horseshoe.map_core._product`), and their least
    true norm, times 2^e (inf past the float range)."""
    p00, p01, p10, p11, e = mc._product(rows)
    V = np.array([[p00, p01], [p10, p11]]) @ _cone_unit_vectors(cone)
    with np.errstate(over="ignore"):
        return V, float(np.ldexp(np.hypot(*V).min(), e))


def verify_cone_return(params: MapParams, m: tuple[float, float]) -> ReturnReport:
    """Check the cone lemma along the first return of ``m`` to A.

    The unstable cone at M must map strictly into the unstable cone at
    the return point, expanding every cone vector by at least
    sigma^(n/2); symmetrically the stable cone at the return point must
    pull back into the stable cone at M, with backward growth at least
    lam^(-n/2).  Each side multiplies its derivatives along the orbit
    once (:func:`~horseshoe.map_core._scaled_products`) and applies the
    product to the stack of cone vectors.
    """
    mc._require_A(params, m)
    n, pts = mc.first_return(params, m, _RETURN_CAP)

    V, min_exp = _carry((_derivative_at(params, p, "derivative")
                         for p in reversed(pts[:-1])),
                        unstable_cone(params, m))
    inclusion = unstable_cone(params, pts[-1]).contains(V.T)
    bound_u = params.sigma ** (n / 2.0)

    V, min_con = _carry((_derivative_at(params, p, "derivative_inverse")
                         for p in pts[:-1]),
                        stable_cone(params, pts[-1]))
    inclusion = stable_cone(params, m).contains(V.T) and inclusion
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
    if which not in ("u", "s"):
        raise ValueError(f'which must be "u" or "s", got {which!r}')
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
