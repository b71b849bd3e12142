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

Frames come from sweeps (:class:`_Sweep`).  A sweep holds one float
orbit through a point m, drawn lazily both ways, and two lanes over it:
the vertical cones carried forward from the preimages (e_u) and the
horizontal cones carried backward from the images (e_s), in the manner
of the forward-backward sweep for covariant Lyapunov vectors (Ginelli
et al., PRL 99, 130601, 2007).  The frame at an orbit point z reads
its cones from the lanes with the depth rule of a single point: the
cone from the nearest walk point first, then ever deeper ones, until a
residual drops below ``_TOL``.  Since the cone of depth d + 1 at the
next point is the cone of depth d here pushed through one derivative,
the frames of a run of orbit points share their pushes, and
Df e_u(z) is e_u(f z) up to the two residuals.
:func:`direction_field` is the sweep read at m alone, and the leaf
chains of :mod:`horseshoe.manifolds` read one sweep per chain.

A cone is carried as one (3, 2, 1) stack of its axis vector and its two
unit boundary rays, and each orbit point's derivative is built once per
lane, however many depths are tried.  The depths are tried in blocks:
the cones of a block's depths go together as one (3·B, 2, 1) stack, each
joining it at its own first derivative on the way back to the point, so
the carry pushes one stack per derivative and block rather than one per
derivative and depth.  B is the depth at which the rate lam/sigma alone
takes an O(1) aperture below ``_TOL`` (6 on ``REF_EX``, 1 on
``REF_STRICT``).  Most walk points lie off A, where the cone is the
default one: its stack for each axis is built once, at import, and is
read-only; carrying makes new arrays, and a frame copies what it keeps
of it.  The stacked ``J @ V``, ``sqrt(v^T v)`` and ``a^T b`` give the
floats of the per-vector ``J @ v``, ``np.linalg.norm(v)`` and
``np.dot(a, b)`` (``np.linalg.norm(..., axis=1)``, ``einsum`` and
``np.arctan2`` do not), and no vector's floats depend on the others in
its stack, so the lanes reproduce the per-depth, per-vector loops bit
for bit whatever B is and whichever point asked first;
``tests/test_splitting.py`` keeps those loops as the reference and
guards the stacked forms.

A :class:`SplitFrame` is also the chart at its point M: the affine
coordinates centered at M in the basis (e_u, e_s), both axes scaled by
the length scale l(M) (``induced.chart`` checks that l(M) > 0).

Numerical settings are module constants: ``MAX_DEPTH``, ``_TOL``,
``_CONE_SAMPLES``, ``_RETURN_CAP``, ``_HOLDER_RESIDUAL``,
``_HOLDER_FLOOR`` and ``_HOLDER_MIN_PAIRS``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from . import map_core as mc
from .map_core import MapParams, jacobian, jacobian_inverse, in_A

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
        V = _cone_stack(self.slope_bound, self.axis == "vertical")
        return [V[1, :, 0], V[2, :, 0]]


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


def _cone_residuals(V: np.ndarray) -> list:
    """For each (3, 2, 1) cone stack in a (3·K, 2, 1) stack, the larger
    angle between the lines of its axis vector a and of its two boundary
    rays b, ``atan2(|a x b|, |a . b|)``.  The 2·K dot products are one
    stack of row-times-column ``a^T @ b``, which gives the floats of
    ``np.dot(a, b)``."""
    W = V.reshape(-1, 3, 2)
    dots = (W[:, None, :1] @ W[:, 1:, :, None]).reshape(-1, 2).tolist()
    return [max(math.atan2(abs(a0 * b1 - a1 * b0), abs(d1)),
                math.atan2(abs(a0 * c1 - a1 * c0), abs(d2)))
            for ((a0, a1), (b0, b1), (c0, c1)), (d1, d2)
            in zip(W.tolist(), dots)]


def _unit(V: np.ndarray) -> np.ndarray:
    """Each vector of a (K, 2, 1) stack over its Euclidean norm."""
    return V / np.sqrt(V.swapaxes(1, 2) @ V)


def _cone_stack(s: float, vertical: bool) -> np.ndarray:
    """The unit axis vector and the two unit boundary rays of the
    vertical (horizontal) cone of aperture ``s``, as a (3, 2, 1) stack."""
    rows = ([[0.0, 1.0], [s, 1.0], [-s, 1.0]] if vertical
            else [[1.0, 0.0], [1.0, s], [1.0, -s]])
    return _unit(np.array(rows)[:, :, None])


def _frozen(V: np.ndarray) -> np.ndarray:
    V.flags.writeable = False
    return V


#: The default cone's stack for each axis (keyed by ``unstable``), built
#: once and read-only: every carry reads it, none writes it.
_DEFAULT_STACKS = {unstable: _frozen(_cone_stack(DEFAULT_SLOPE, unstable))
                   for unstable in (True, False)}


#: A lane's step along the orbit and the axis coordinate of its cone
#: stacks, keyed by ``unstable``: e_u walks the preimages, e_s the images.
_LANES = {True: (-1, np.s_[:, 1:2]), False: (1, np.s_[:, 0:1])}


def _start_stack(params: MapParams, m, unstable: bool) -> np.ndarray:
    """The cone stack at ``m``: the vertical (horizontal) A-cone at a
    point of A, the shared read-only default stack elsewhere."""
    if in_A(params, m):
        return _cone_stack(_window_slope(params, abs(m[0] - params.q),
                                         unstable), unstable)
    return _DEFAULT_STACKS[unstable]


def _carry_block(params: MapParams) -> int:
    """Depths carried as one stack: the depth at which the rate
    lam/sigma alone takes an O(1) aperture below ``_TOL``, within
    [1, ``MAX_DEPTH``] (``MAX_DEPTH`` when the rate does not contract)."""
    return _rate_block(params.lam / params.sigma)


@lru_cache(maxsize=64)
def _rate_block(rate) -> int:
    """:func:`_carry_block` of the contraction rate lam/sigma, kept for
    the rates last seen: a sweep reads it once, and the two logarithms
    cost about as much as the rest of making a sweep."""
    if not 0 < rate < 1:
        return MAX_DEPTH
    return min(max(math.ceil(math.log(_TOL) / math.log(rate)), 1), MAX_DEPTH)


class _Sweep:
    """The splitting along one float orbit through ``m``: one forward
    pass of vertical cones and one backward pass of horizontal cones
    (the two lanes), read by every point of the orbit.

    Orbit index j holds z_j: z_0 = m, images at j > 0 and preimages at
    j < 0, each drawn once, from m's side, when a lane or a reader first
    needs it.  The frame at z_j is that of :func:`direction_field` with
    the walks of z_j read from the orbit: e_u from the preimages z_(j-1),
    z_(j-2), ... and e_s from the images z_(j+1), ....  At j = 0 those
    are the walks of m, so ``frame(0)`` is ``direction_field(m)`` bit for
    bit.  Elsewhere one side reads the orbit behind z_j, toward m, and
    in floats f(z_(j-1)) need not be z_j, so that side moves by rounding
    against ``direction_field(z_j)``.  A point's cones come from its
    neighbour's, so a run of frames along the orbit costs about one push
    per point and lane, where a ``direction_field`` per point pushes a
    block of depths through each derivative.

    ``lanes[unstable]`` holds the three tables of a lane, by orbit
    index: the vertical cones carried forward (``unstable``, e_u) or the
    horizontal ones carried backward.  The walk of z_t goes to z_(t+s),
    z_(t+2s), ..., with s = -1 for the vertical cones (preimages) and
    s = +1 for the horizontal ones (images).  ``mats[i]`` is the
    derivative that carries a cone from z_i to z_(i-s), drawn once.
    ``stacks[t]`` holds the cones carried to z_t from its nearest
    ``depths[t]`` walk points, nearest first, as one (3·n, 2, 1) stack:
    its cone k (from 0) is the cone of depth k + 1 at z_t.  The start
    stack at z_i is built when z_(i-s) takes its first cones, once per
    lane, so no table keeps it.

    The sweep does not bring e_u at a ``REF_EX`` A-point down to
    ``_TOL``: it reads the same backward orbit as ``direction_field``,
    and that orbit leaves the square after 3 to 5 preimages.  On 200
    sampled A-points the median e_u residual is 2.0e-6 at M; the frames
    further on gain about lam/sigma per image (6.8e-8, 1.4e-9, then
    4.0e-11 < ``_TOL`` three images on), and those of the unstable
    chain, at the preimages of M, are coarser (2.3e-4 one step back)."""

    __slots__ = ("params", "block", "pts", "edges", "ends", "lanes")

    def __init__(self, params: MapParams, m):
        self.params, self.block = params, _carry_block(params)
        self.pts, self.edges, self.ends = {0: m}, {1: 0, -1: 0}, {}
        self.lanes = {True: ({}, {}, {}), False: ({}, {}, {})}

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

    def resolve(self, unstable: bool, t):
        """(unit vector, residual, depth) of the lane ``unstable`` at
        z_t: of the cones carried to z_t from ever deeper walk points, the
        first whose residual is below ``_TOL``, else the first of smallest
        residual; the cone at z_t itself (depth 0) when the walk from z_t
        is empty.

        Depths are tried ``_carry_block`` at a time, at most ``MAX_DEPTH``
        of them.  A block first draws the derivatives of its walk points
        that are not drawn yet, nearest first: the first that fails (or
        lies past the orbit's end) ends the walk, and its error is raised
        only when the scan reaches its depth, so an earlier depth that
        resolves still returns.  The cones that z_t lacks then start from
        the nearest walk point whose stack is deep enough (at the latest,
        the start stack at the block's last point); from there each point
        toward z_t gets the cones it lacks, its neighbour's (behind that
        neighbour's start stack when the point has none yet) pushed
        through the neighbour's derivative: one push per point and
        block."""
        mats, stacks, depths = self.lanes[unstable]
        s, axis = _LANES[unstable]
        params, pts, block = self.params, self.pts, self.block
        best, best_res, n, error = 0, math.inf, 0, None
        while True:
            depth, n = n, min(n + block, MAX_DEPTH)
            if t + s * n not in pts:
                self.extend(t + s * n)
            for i in range(t + s * (depth + 1), t + s * (n + 1), s):
                if i in mats:
                    continue
                p = pts.get(i)
                if p is None:
                    n, error = s * (i - t) - 1, self.ends[s]
                    break
                try:
                    mats[i] = (jacobian(params, p) if unstable
                               else jacobian_inverse(params, pts[i - s]))
                except Exception as exc:    # deferred to its depth
                    n, error = s * (i - t) - 1, exc
                    break
            # the nearest walk point deep enough (none on a lane not read)
            k = 0 if depths else n
            while k < n and depths.get(t + s * k, 0) < n - k:
                k += 1
            # top: the cones of depths 1..hi at the point the push
            # leaves, none at the start stack n steps away
            hi = n - k
            top = stacks[t + s * k][:3 * hi] if hi else None
            for i in range(t + s * k, t, -s):
                inner, lo, hi = i - s, depths.get(i - s, 0), hi + 1
                if lo:
                    V = top[3 * (lo - 1):]
                else:
                    V = _start_stack(params, pts[i], unstable)
                    if top is not None:
                        V = np.concatenate((V, top))
                V = _unit(mats[i] @ V)
                V = np.where(V[axis] > 0, V, -V)
                top = stacks[inner] = (np.concatenate((stacks[inner], V))
                                       if lo else V)
                depths[inner] = hi
            if n > depth:
                V = stacks[t]
                for k, res in enumerate(_cone_residuals(V[3 * depth:3 * n]),
                                        depth + 1):
                    if res < best_res:
                        best, best_res = k, res
                    if res < _TOL:
                        return V[3 * best - 3, :, 0], best_res, best
            if error is not None:
                raise error
            if n < depth + block or n == MAX_DEPTH:
                break
        if n == 0:
            V = _start_stack(params, pts[t], unstable)
            # a copy: the stack may be the shared default one
            return V[0, :, 0].copy(), _cone_residuals(V)[0], 0
        if best == 0:
            return None, math.inf, 0
        return stacks[t][3 * best - 3, :, 0], best_res, best

    def frame(self, j) -> SplitFrame:
        """The splitting at z_j, read from the lanes on every call (a
        chain keeps the frames it reads, by point)."""
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
    needs to drop below ``_TOL``.  A walk that ends first leaves the
    direction less resolved: on ``REF_EX`` the backward walk of an
    A-point ends after 3 to 5 preimages, so e_u there is resolved only to
    a residual of about 2e-10 to 3e-6, from the deepest preimage
    (``depth_u`` is the walk's length).  ``residual_u`` and
    ``residual_s`` state what each side reached.
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
    evenly spaced in angle, as a (``_CONE_SAMPLES`` + 2, 2, 1) stack."""
    r0, r1 = cone.boundary_rays()
    a0 = math.atan2(r0[1], r0[0])
    a1 = math.atan2(r1[1], r1[0])
    angles = [a0 + (a1 - a0) * i / (_CONE_SAMPLES + 1)
              for i in range(_CONE_SAMPLES + 2)]
    return np.array([[[math.cos(a)], [math.sin(a)]] for a in angles])


def _shortest(V: np.ndarray) -> float:
    """Least Euclidean norm in a (K, 2, 1) stack; NaN norms are passed
    over, and none but NaNs gives inf."""
    norms = np.sqrt(V.swapaxes(1, 2) @ V).ravel().tolist()
    return min([math.inf, *norms])


def verify_cone_return(params: MapParams, m: tuple[float, float]) -> ReturnReport:
    """Check the cone lemma along the first return of ``m`` to A.

    The unstable cone at M must map strictly into the unstable cone at
    the return point, expanding every cone vector by at least
    sigma^(n/2); symmetrically the stable cone at the return point must
    pull back into the stable cone at M, with backward growth at least
    lam^(-n/2).  The cone vectors go as one stack, through one
    derivative per orbit point.
    """
    mc._require_A(params, m)
    n, pts = mc.first_return(params, m, _RETURN_CAP)
    jacs = [jacobian(params, p) for p in pts[:-1]]

    V = _cone_unit_vectors(unstable_cone(params, m))
    for jac in jacs:
        V = jac @ V
    inclusion = unstable_cone(params, pts[-1]).contains(V[:, :, 0])
    min_exp = _shortest(V)
    bound_u = params.sigma ** (n / 2.0)

    V = _cone_unit_vectors(stable_cone(params, pts[-1]))
    for p in reversed(pts[:-1]):
        V = jacobian_inverse(params, p) @ V
    inclusion = stable_cone(params, m).contains(V[:, :, 0]) and inclusion
    min_con = _shortest(V)
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
