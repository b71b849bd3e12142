"""Invariant manifolds by the graph transform, and their consequences.

Local stable/unstable manifolds are computed as Lipschitz graphs over the
adapted chart axes: the classical graph transform is iterated along the
point's anchor chain, seeded with the flat graph at the deep end of the
chain, until the sup-distance between successive pullbacks drops below
tolerance.  The chain is the plain orbit (:class:`_Chain`), one f-step
per block, so a leaf at M and the leaf at f(M) read the same pullbacks.
A step from an A-point expands the chart axis by only
sigma * l(M) / sup_A l, the paper's non-uniformity near the tangency,
and the chain does not step over it: a step onto a point with no chart
raises ``Unsupported`` and names the step.

The chain is built lazily once per query: every radius of a local leaf,
the base leaf of a global leaf (the chain's tail) and a bracket with its
extension read it.  It charts every point it walks from one sweep of its
first point's orbit (``splitting._Sweep``): the orbit is drawn once and
its derivatives are built once per point and side.  The chart at the
chain's first point is ``direction_field`` there, bit for bit; at the
others, one side reads the chain's own points, where f(f^-1(M)) need
not be M in floats, so it may move by rounding (over 40 sampled
A-points, three anchors deep: 105 of 314 ``REF_EX`` charts, by 2.2e-16
rad at most, and no ``REF_STRICT`` chart).  The three chains of an
invariance defect share one chart per point; the two that start at M
share one sweep.

A local leaf's radius ladder (``_RHO`` * C3, halved down to
``RHO_MIN``) is tried lazily: the first radius alone, and after its
first refusal the rest of the ladder as one pullback over stacked rows,
one seed graph per radius.  Each block transform maps every live row
in one array pass (:func:`_transform_rows`: one stacked ``@`` per
chart, the branch formulas on all rows, one ``np.diff`` for the
monotonicity test, ``np.interp`` per surviving row), a row is dropped
at its first refusal, and the leaf is the first row that converges:
the radius, graph and depth that trying the radii in turn gives, bit
for bit, with the same errors in the same order.
:func:`graph_transform` is the kernel's one-row case.  The ladder stops
where the seed graph at the chain's first anchor reaches the fold line
(:func:`_local_manifold`), so on ``REF_STRICT`` every unstable leaf at
an A-point is refused 13 times; stacked, such a leaf takes 4 kernel
calls, against 16 transforms (13 refused) one radius at a time.

Global manifolds iterate the local polyline forward (or backward)
through the branch formulas, splitting the curve at strip and band
boundaries (:func:`advance_pieces`, :func:`retreat_pieces`); the same
piece walks drive the invariance defects and the mixing-time search.
A walk keeps every piece, and a step that leaves more than
``_MAX_PIECES`` raises ``Unsupported``.  Graphs, polylines and the
non-expansive pair all evaluate the branch table of
:mod:`horseshoe.map_core` (on arrays, and on exact rationals for the
pair).  The module ends with the non-expansiveness demonstration: an
explicit pair of distinct points on the bottom edge, symmetric about the
tangency abscissa, whose full orbits stay within any prescribed distance
of each other.

Leaf geometry runs on two array kernels: :func:`_polyline_distances`
(from each of many points to a polyline) and :func:`_polyline_intersections`
(a padded bounding-box pass over segment pairs, then the exact crossing
test).  Both cut a polyline's S segments into runs of about sqrt(S)
(:func:`_runs`).  The crossing kernel tests only the segment pairs of
run pairs whose padded boxes meet or whose directions come within
``_PARALLEL_REACH``, a superset of the pairs the all-pairs pass keeps
(:func:`_run_pairs`).
The distance kernel bounds a point's distance to a run by the run's box.
It runs the per-pair formula on the nearest box's run, then only on the
runs whose box is no farther than that distance times (1 + 1e-9) plus
1e-12 times the largest |coordinate|, a margin above the rounding of
box and formula.  A pair it skips cannot beat the kept minimum, and a
pair's float depends on that pair alone, so every distance keeps the
float of the all-pairs minimum.  When a coordinate is not finite, or
large enough for the formula's squares to overflow, every run is kept.
Both kernels take ``_BLOCK`` point-segment or segment pairs at a time,
so a temporary stays within 256 KB unless one polyline is longer.

Numerical settings are module constants: ``GRID_POINTS``, ``RHO_MIN``,
``_TOL``, ``_MAX_DEPTH``, ``_SEG_LEN``, ``_MAX_RESAMPLE``,
``_MAX_PIECES``, ``_END_TOL``, ``_SCAN_ROUNDS``,
``_SEED_SLOPE``, ``_BLOCK``, ``_BOX_PAD``, ``_PARALLEL``,
``_PARALLEL_REACH``, ``_TINY_SEG``, ``_PASSAGES``, ``_EPS1``,
``_VERTICAL_POINTS``, ``_RHO``, ``_MIXING_BUDGET`` and
``_NONEXPANSIVE_HORIZON``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import map_core as mc
from .map_core import (MapParams, Region, classify, default_certificate,
                       OutOfDomain)
from .splitting import SplitFrame, length_scale, _Sweep
from .induced import _bisect_edge, _as_chart

GRID_POINTS = 257
RHO_MIN = 2.0 ** -20
_TOL = 1e-10        # sup distance of two pullbacks that ends a local leaf
_MAX_DEPTH = 60     # pullback blocks a local leaf may use
_SEG_LEN = 1e-3     # longest segment of a resampled global leaf
_MAX_RESAMPLE = 200_000  # most points of a resampled global leaf
_MAX_PIECES = 256   # most pieces one step of a piece walk may leave
_END_TOL = 1e-9     # a curve end this close to an edge reaches it
_SCAN_ROUNDS = 60   # zoom rounds of the survivor scan for mixing seeds
_SEED_SLOPE = 0.0   # slope of the flat graph that seeds a local leaf
_BLOCK = 1 << 15    # segment pairs per kernel block (256 KB of float64)
_BOX_PAD = 1e-8     # box pad / largest |coordinate|: > 32 * 2**-53 / _PARALLEL
_PARALLEL = 1e-6    # |cross| / (|d1|_1 |d2|_1) below which a pair is parallel
_PARALLEL_REACH = 1e-5  # line angle of a parallel pair's runs: > 2 * _PARALLEL
_TINY_SEG = 1e-140  # |d|_1 below which a product of two lengths may underflow
_PASSAGES = 20      # strip returns of the verticality iteration
_EPS1 = 0.5         # verticality bound on slope and curvature
_VERTICAL_POINTS = 513  # grid points of an iterated vertical graph
_RHO = 0.5          # fraction of C3 * l(M) a local leaf first tries
_MIXING_BUDGET = 60  # iterates a mixing-time search may take
_NONEXPANSIVE_HORIZON = 50  # |n| over which a non-expansive pair is checked


class NoConvergence(mc.HorseshoeError, RuntimeError):
    """Graph-transform iteration failed to settle within the depth cap."""

    def __init__(self, message: str, last_factor: float | None = None):
        self.last_factor = last_factor
        super().__init__(message)


class Unsupported(mc.HorseshoeError, RuntimeError):
    """The orbit chain needed by the construction is not computable."""


class MonotonicityError(mc.HorseshoeError, RuntimeError):
    """The u-projection of the transformed graph is not monotone (the
    working radius is too large at this point)."""


class NoIntersection(mc.HorseshoeError, RuntimeError):
    """The two leaves do not meet, locally or after their extension."""


class NonUnique(mc.HorseshoeError, RuntimeError):
    """More than one transversal leaf intersection (must not happen off
    the tangency orbit)."""


class NotGraphLike(mc.HorseshoeError, ValueError):
    """The curve is not a graph x = g(y) over a y-interval."""


class BudgetExhausted(mc.HorseshoeError, RuntimeError):
    """Mixing-time search ran out of iterations, or of pieces."""

    def __init__(self, message: str, longest_span: float):
        self.longest_span = longest_span
        super().__init__(message)


# ---------------------------------------------------------------------------
# Lipschitz graphs and manifold curves
# ---------------------------------------------------------------------------

@dataclass
class LipGraph:
    """Graph of a function over one chart axis.

    ``axis`` is ``"u->s"`` for a function from the unstable axis to the
    stable one (unstable-manifold candidates) and ``"s->u"`` for the
    transpose.  Values are interpolated linearly between grid nodes.
    """

    base: SplitFrame
    axis: str
    grid: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.axis not in ("u->s", "s->u"):
            raise ValueError(f"unknown graph axis {self.axis!r}")
        self.grid = np.asarray(self.grid, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.grid.ndim != 1 or self.grid.shape != self.values.shape:
            raise ValueError("grid and values must be 1-d arrays of equal size")
        if not np.all(np.diff(self.grid) > 0.0):
            raise ValueError("grid must be strictly increasing")

    @property
    def lip_bound(self) -> float:
        """Measured Lipschitz constant over the grid."""
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.grid))))

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    def sup_distance(self, other: "LipGraph") -> float:
        """Sup-norm distance on the intersection of the two domains."""
        lo = max(self.grid[0], other.grid[0])
        hi = min(self.grid[-1], other.grid[-1])
        xs = np.linspace(lo, hi, max(len(self.grid), len(other.grid)))
        return float(np.max(np.abs(self(xs) - other(xs))))

    def plane_points(self) -> np.ndarray:
        """The graph as a plane polyline through the chart."""
        if self.axis == "u->s":
            xi = np.stack([self.grid, self.values])
        else:
            xi = np.stack([self.values, self.grid])
        pts = np.asarray(self.base.M)[:, None] + self.base.basis @ xi
        return pts.T


def zero_graph(base: SplitFrame, axis: str, radius: float) -> LipGraph:
    """A local leaf's seed graph at one radius: slope ``_SEED_SLOPE``
    through M (one row of :func:`_pullback_curve`'s seeds)."""
    grid = np.linspace(-radius, radius, GRID_POINTS)
    return LipGraph(base, axis, grid, _SEED_SLOPE * grid)


@dataclass
class ManifoldCurve:
    """Polyline model of a stable or unstable leaf with its arclength
    table (the induced metric along the leaf)."""

    points: np.ndarray
    kind: str
    meta: dict = field(default_factory=dict)
    arclength: np.ndarray = field(init=False)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.kind not in ("stable", "unstable"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        if self.points.ndim != 2 or self.points.shape[1] != 2:
            raise ValueError("points must be an (N, 2) array")
        seg = np.hypot(*np.diff(self.points, axis=0).T)
        self.arclength = np.concatenate([[0.0], np.cumsum(seg)])

    @property
    def total_length(self) -> float:
        return float(self.arclength[-1])

    def distance_to(self, p) -> float:
        """Distance from ``p`` to the polyline."""
        return float(_polyline_distances(self.points, [p])[0])


# ---------------------------------------------------------------------------
# Graph transform
# ---------------------------------------------------------------------------

def graph_transform(params: MapParams, chart_m: SplitFrame,
                    chart_fm: SplitFrame, itinerary: tuple,
                    s: LipGraph) -> LipGraph:
    """One graph-transform step along the block M -> F(M) = f^k(M) whose
    branch itinerary (the regions of M and its next k - 1 images) is
    ``itinerary``; a leaf's chain (:class:`_Chain`) has one-step blocks.

    For an unstable graph (``u->s``) the input lives at M and the output
    at F(M); for a stable graph (``s->u``) the input lives at F(M) and
    the output at M (the block is traversed backwards through the total
    inverse branch formulas).  This is the one-row case of
    :func:`_transform_rows`, and raises ``MonotonicityError`` when it
    refuses the row.  The output graph lives on the input graph's grid.
    """
    forward = s.axis == "u->s"
    src, dst = (chart_m, chart_fm) if forward else (chart_fm, chart_m)
    out, why = _transform_rows(params, src, dst, itinerary, forward,
                               s.grid[None], s.values[None])
    if why[0]:
        raise _refusal(why[0])
    return LipGraph(dst, s.axis, s.grid, out[0])


def _transform_rows(params: MapParams, src: SplitFrame, dst: SplitFrame,
                    itinerary: tuple, forward: bool, grid: np.ndarray,
                    values: np.ndarray) -> tuple[np.ndarray, list]:
    """The graph transform of each row of ``values`` (K x N), a graph
    over its row of ``grid`` in the chart ``src``, to the chart ``dst``:
    forward through the block's branch itinerary for unstable graphs
    (``forward``, u -> s), backward through the inverse branch formulas
    for stable ones (s -> u).  Nearby graph points follow the branch
    itinerary of the base orbit, the same smooth branch extension as the
    local leaf itself.  The inner inverse of the axis projection is
    piecewise-linear interpolation on the transported grid, valid
    because the projection is monotone; a row whose projection is not
    monotone, or does not cover its grid, is refused (its radius is too
    large).  Each chart map is one ``@`` over the stacked rows, which
    repeats the one-row product per row, so every row gets the floats of
    a one-row call.  Returns the new values of the rows that pass, on
    their grids, and per row 0 if it passes, else its refusal (see
    :func:`_refusal`)."""
    xi = np.stack([grid, values] if forward else [values, grid], axis=2)
    pts = xi @ src.basis.T
    pts += src.M
    x, y = pts[..., 0], pts[..., 1]
    for region in (itinerary if forward else reversed(itinerary)):
        br = mc.BRANCH[region]
        x, y = (br.forward if forward else br.inverse)(params, x, y)
    pts = np.stack([x, y], axis=2)
    pts -= dst.M
    eta = pts @ dst.inv_basis.T
    prim, secd = (eta[..., 0], eta[..., 1]) if forward \
        else (eta[..., 1], eta[..., 0])
    d = np.diff(prim, axis=1)
    out, why, n = np.empty(grid.shape), [], 0
    lows, highs = d.min(axis=1).tolist(), d.max(axis=1).tolist()
    for i, (lo, hi) in enumerate(zip(lows, highs)):
        # a NaN difference makes min and max NaN: no order either way
        if hi < 0.0:
            p, q = prim[i, ::-1], secd[i, ::-1]
        elif lo > 0.0:
            p, q = prim[i], secd[i]
        else:
            why.append(1)
            continue
        if p[0] > grid[i, 0] or p[-1] < grid[i, -1]:
            why.append(2)
            continue
        out[n] = np.interp(grid[i], p, q)
        n += 1
        why.append(0)
    return out[:n], why


def _refusal(why: int) -> MonotonicityError:
    """The error of a row that :func:`_transform_rows` refused: 1 when
    its axis projection is not monotone, 2 when it does not cover."""
    return MonotonicityError(
        "axis projection of the transformed graph is not monotone"
        if why == 1 else "transformed graph does not cover the target "
        "interval")


# ---------------------------------------------------------------------------
# Anchor chains (the plain orbit)
# ---------------------------------------------------------------------------

def _next_anchor(chain: "_Chain") -> tuple:
    """The chain's next entry (:class:`_Chain`): one plain step along the
    orbit of its first point, back (unstable) or forward (stable).  Raises
    ``Unsupported``, naming the step, where the orbit has no point, leaves
    the active regions or has no chart (l = 0, or e_u parallel to e_s)."""
    params, k = chain.params, len(chain.entries)
    forward = chain.kind == "stable"
    j = k if forward else -k
    step = (f"step {k} of the {'forward' if forward else 'backward'} "
            f"orbit of {chain.entries[0][0]}")
    cur = chain.sweep.point(j)
    if cur is None:
        raise Unsupported(f"{step} does not exist")
    region = classify(params, cur)
    if region not in mc.ACTIVE_REGIONS:
        raise Unsupported(f"{step} leaves the active regions")
    try:
        ch = chain.chart(j)
    except OutOfDomain as err:
        raise Unsupported(f"{step} has no chart: {err}") from err
    source = classify(params, chain.entries[-1][0]) if forward else region
    return cur, ch, (source,)


@dataclass
class _Chain:
    """The anchor chain of a point for one query, its plain orbit, built
    as far as it is read and then kept.  Entry i is (z, chart at z,
    (region of the step's source,)) for z = z_-i (unstable, source z_-i)
    or z_i (stable, source z_(i-1)); entry 0 has ().  ``tail(n)`` is the
    chain of entry n, sharing every entry built.  Charts come from
    ``sweep``, the frames of the orbit through the chain's first point,
    and go into ``charts``, by point: chains sharing ``charts`` (and
    their sweep, on one orbit) chart no point twice."""

    params: MapParams
    m: tuple
    kind: str
    entries: list = field(default_factory=list)
    start: int = 0
    charts: dict = field(default_factory=dict)
    sweep: _Sweep = None

    def __post_init__(self):
        self.m = (float(self.m[0]), float(self.m[1]))
        if self.sweep is None:
            self.sweep = _Sweep(self.params, self.m)

    def chart(self, j: int) -> SplitFrame:
        """The chart at orbit point j of the sweep, made on the first
        request and then read from ``charts``."""
        p = self.sweep.point(j)
        if p not in self.charts:
            self.charts[p] = _as_chart(self.sweep.frame(j))
        return self.charts[p]

    def __getitem__(self, i: int):
        if not self.entries:
            self.entries.append((self.m, self.chart(0), ()))
        while len(self.entries) <= self.start + i:
            self.entries.append(_next_anchor(self))
        return self.entries[self.start + i]

    def tail(self, n: int) -> "_Chain":
        return replace(self, m=self[n][0], start=self.start + n)


def _pullback_curve(params: MapParams, chain: _Chain,
                    radii: list) -> tuple[LipGraph, int]:
    """Iterate the graph transform along the anchor chain from the flat
    seed graph of every radius in ``radii``, one row each, until two
    successive pullbacks of a row agree within ``_TOL`` in sup norm.

    The result is what trying the radii one at a time, in order, gives
    first: the graph and depth of the first row that converges, or the
    first row's ``Unsupported`` (from reading the chain) or
    ``NoConvergence``.  A row is dropped at its first refusal, and the
    rows after a converged one are dropped; ``chain[depth]`` is read
    only while the first live row has not converged.  When every row is
    refused, raises the last row's ``MonotonicityError``."""
    unstable = chain.kind == "unstable"
    grids = np.linspace(-np.asarray(radii), radii, GRID_POINTS, axis=1)
    live = np.arange(len(radii))  # rows neither refused nor passed over
    grid, refused = grids, np.zeros(len(radii), dtype=int)
    # per live row: its last pullback and sup distance, and the two sup
    # distances of its last contraction factor (0 / 0 until it has one)
    prev = prev_diff = None
    factor = np.zeros((2, len(radii)))
    best = None
    for depth in range(1, _MAX_DEPTH + 1):
        if not len(live):
            break
        g = _SEED_SLOPE * grid
        for j in range(depth, 0, -1):
            # chain[depth] comes first: it raises the first live row's
            # Unsupported before any transform at this depth
            _, far_ch, block = chain[j]
            # the output lives at the nearer anchor for both kinds
            g, why = _transform_rows(params, far_ch, chain[j - 1][1], block,
                                     unstable, grid, g)
            if any(why):
                refused[live] = why
                keep = np.equal(why, 0)
                live, grid, factor = live[keep], grid[keep], factor[:, keep]
                if prev is not None:
                    prev, prev_diff = prev[keep], prev_diff[keep]
                if not len(live):
                    break
        if not len(live):
            break
        if prev is None:
            prev_diff = np.full(len(live), np.nan)
        else:
            diff = np.max(np.abs(g - prev), axis=1)
            np.copyto(factor, (diff, prev_diff), where=prev_diff > 0.0)
            done = np.flatnonzero(diff < _TOL)
            if len(done):
                first = done[0]
                best = live[first], g[first], depth
                live, grid, g, diff, factor = (
                    live[:first], grid[:first], g[:first], diff[:first],
                    factor[:, :first])
            prev_diff = diff
        prev = g
    if len(live):
        num, den = factor[:, 0].tolist()
        raise NoConvergence(f"graph transform did not converge in "
                            f"{_MAX_DEPTH} pullback blocks",
                            last_factor=num / den if den else None)
    if best is None:
        raise _refusal(refused[-1])
    row, values, depth = best
    axis = "u->s" if unstable else "s->u"
    return LipGraph(chain[0][1], axis, grids[row], values), depth


#: The two linear fixed points; their leaves lie on edges of the square
#: (invariant under the affine extension of the corner's own branch).
_CORNERS = ((0.0, 0.0), (1.0, 1.0))


def _edge_leaf(corner, kind: str, s: np.ndarray) -> np.ndarray:
    """Points at edge parameters ``s`` of the square's edge through the
    corner that is its leaf of the given kind."""
    const = np.full_like(s, corner[0])
    return np.column_stack([const, s] if kind == "unstable" else [s, const])


def _local_manifold(params: MapParams, chain: _Chain) -> ManifoldCurve:
    """The local leaf at the base of ``chain``: the pullback at the
    largest radius of the ladder ``_RHO`` * C3 * l(M), halved down to
    ``RHO_MIN`` * l(M), that the graph transform does not refuse.  The
    first radius is tried alone, the rest after its refusal as one
    stack of rows (:func:`_pullback_curve`); every radius reads the same
    chain.

    What stops the ladder is the fold, not float resolution.  At an
    A-point M, the unstable chain's first anchor z = f^-1(M) lies in R4
    at |y(z) - t| = l(M)/sigma from the fold line y = t, and its chart
    uses l(z) = sup_A l (``wing_half_width``).  The seed graph of radius
    r there reaches r * l(z) * |e_u,y(z)| in y; where it crosses y = t,
    its image folds and the axis projection stops being monotone.  So
    the leaf gets the largest radius r of the ladder with
    r * l(z) * |e_u,y(z)| < |y(z) - t|.  On ``REF_EX`` that is the first
    radius (reach 7.7e-3 against gaps of 1.8e-2 or more); on
    ``REF_STRICT`` the gap is sigma = 1e5 times smaller and the leaf
    lands 13 halvings down.  A leaf at f(M) meets z one anchor deeper,
    so its refusals come at depth 2."""
    radius = _RHO * default_certificate(params).C3
    m, kind = chain.m, chain.kind
    if m in _CORNERS:
        # exact local leaves at the two linear fixed points
        radius_plane = radius * length_scale(params, m)
        t = np.linspace(0.0, radius_plane, GRID_POINTS)
        pts = _edge_leaf(m, kind, t if m[0] == 0.0 else 1.0 - t[::-1])
        meta = {"rho_effective": radius_plane, "tol": 0.0, "iterations": 0,
                "lip_bound": 0.0, "params": params.digest}
        return ManifoldCurve(pts, kind, meta)
    radii = []
    while radius >= RHO_MIN:
        radii.append(radius)
        radius /= 2.0
    last_err = None
    # the first radius alone, then the rest of the ladder as one stack
    for rows in (radii[:1], radii[1:]):
        if not rows:
            break
        try:
            g, iters = _pullback_curve(params, chain, rows)
            meta = {"rho_effective": float(g.grid[-1]) * g.base.l,
                    "tol": _TOL, "iterations": iters,
                    "lip_bound": g.lip_bound, "params": params.digest}
            return ManifoldCurve(g.plane_points(), kind, meta)
        except MonotonicityError as err:
            last_err = err
    raise NoConvergence("no admissible radius above the floor: "
                        f"{last_err}", last_factor=None)


def local_unstable(params: MapParams, m) -> ManifoldCurve:
    """Local unstable manifold through ``m`` as a plane polyline."""
    return _local_manifold(params, _Chain(params, m, "unstable"))


def local_stable(params: MapParams, m) -> ManifoldCurve:
    """Local stable manifold through ``m`` (inverse-block pullback)."""
    return _local_manifold(params, _Chain(params, m, "stable"))


# ---------------------------------------------------------------------------
# Curve pieces: forward / backward advancing with branch splitting
# ---------------------------------------------------------------------------

def _runs(n_seg: int) -> np.ndarray:
    """The runs that the polyline kernels cut S = ``n_seg`` segments
    into: a (runs, size) array of segment indices, one row per run of
    size max(1, isqrt(S)), whose last row repeats the last segment."""
    size = max(1, math.isqrt(n_seg))
    return np.minimum(np.arange(-(-n_seg // size) * size),
                      n_seg - 1).reshape(-1, size)


def _pair_distances(px, py, a, ab, denom) -> np.ndarray:
    """Distances from the points (px, py) to the segments from ``a``
    along ``ab`` (``denom`` = |ab|^2), broadcast point by segment.  Each
    pair's float depends on that pair alone."""
    apx, apy = px - a[..., 0], py - a[..., 1]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(np.where(denom > 0.0,
                             (apx * ab[..., 0] + apy * ab[..., 1]) / denom,
                             0.0), 0.0, 1.0)
    return np.hypot(px - (a[..., 0] + t * ab[..., 0]),
                    py - (a[..., 1] + t * ab[..., 1]))


def _polyline_distances(poly: np.ndarray, pts) -> np.ndarray:
    """Distance from each point of ``pts`` (N x 2) to the polyline: the
    float of the minimum over all point-segment pairs, from the pairs of
    the runs that the box bounds keep (see the module docstring).
    Points go in blocks, and pairs in chunks, of ``_BLOCK`` entries."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    out = np.empty(len(pts))
    if not len(pts):
        return out
    d = poly[1:] - poly[:-1]
    # the last run repeats its last segment, which leaves its minimum
    seg = _runs(len(d))
    runs, size = seg.shape
    a, ab = poly[:-1][seg], d[seg]
    denom = np.einsum("ij,ij->i", d, d)[seg]
    lo = np.minimum(a, poly[1:][seg]).min(axis=1)
    hi = np.maximum(a, poly[1:][seg]).max(axis=1)
    big = float(np.maximum(np.max(np.abs(poly)), np.max(np.abs(pts))))
    prune = 16.0 * big * big < math.inf
    slack = 1e-12 * big
    rows = max(1, _BLOCK // max(runs, size))
    chunk = max(1, _BLOCK // size)
    for r in range(0, len(pts), rows):
        px, py = pts[r:r + rows, :1], pts[r:r + rows, 1:]
        if prune:
            gap = np.hypot(np.maximum(lo[:, 0] - px, px - hi[:, 0]).clip(0.0),
                           np.maximum(lo[:, 1] - py, py - hi[:, 1]).clip(0.0))
            first = np.argmin(gap, axis=1)
            near = np.min(_pair_distances(px, py, a[first], ab[first],
                                          denom[first]), axis=1)
            keep = gap <= near[:, None] * (1.0 + 1e-9) + slack
            keep[np.arange(len(first)), first] = False
        else:
            near = np.full(len(px), np.inf)
            keep = np.ones((len(px), runs), dtype=bool)
        i, k = np.nonzero(keep)
        best = np.empty(len(i))
        for c in range(0, len(i), chunk):
            ic, kc = i[c:c + chunk], k[c:c + chunk]
            best[c:c + chunk] = np.min(_pair_distances(
                px[ic], py[ic], a[kc], ab[kc], denom[kc]), axis=1)
        if len(i):
            # i is sorted: fold each point's run minima into its own
            starts = np.flatnonzero(np.diff(i, prepend=-1))
            hit = i[starts]
            near[hit] = np.minimum(near[hit],
                                   np.minimum.reduceat(best, starts))
        out[r:r + rows] = near
    return out


def _cut_at_levels(pts: np.ndarray, fvals: np.ndarray,
                   levels) -> list[np.ndarray]:
    """Split a polyline wherever the per-point scalar crosses a level.

    Crossing points are interpolated and duplicated into both pieces, so
    piece endpoints land exactly on the level sets."""
    cuts = []
    for lv in levels:
        d0 = fvals[:-1] - lv
        d1 = fvals[1:] - lv
        idx = np.nonzero(((d0 < 0.0) & (d1 > 0.0)) |
                         ((d0 > 0.0) & (d1 < 0.0)))[0]
        t = d0[idx] / (d0[idx] - d1[idx])
        cuts.extend(zip(idx.tolist(), t.tolist()))
        interior = np.nonzero(fvals == lv)[0]
        cuts.extend((int(i) - 1, 1.0) for i in interior
                    if 0 < i < len(fvals) - 1)
    if not cuts:
        return [pts]
    cuts.sort()
    pieces = []
    start = pts[0]
    start_idx = 0
    for i, t in cuts:
        cross = pts[i] + t * (pts[i + 1] - pts[i])
        chunk = np.vstack([start[None, :], pts[start_idx + 1:i + 1],
                           cross[None, :]])
        pieces.append(chunk)
        start = cross
        start_idx = i
    pieces.append(np.vstack([start[None, :], pts[start_idx + 1:]]))
    return [p for p in pieces if len(p) >= 2 and
            np.hypot(*(p[-1] - p[0])) > 1e-15]


def _resample_count(pts: np.ndarray, n: int) -> np.ndarray:
    seg = np.hypot(*np.diff(pts, axis=0).T)
    s = np.concatenate([[0.0], np.cumsum(seg)])
    if s[-1] == 0.0:
        return pts
    t = np.linspace(0.0, s[-1], n)
    return np.stack([np.interp(t, s, pts[:, 0]),
                     np.interp(t, s, pts[:, 1])], axis=1)


def _resample_max_seg(pts: np.ndarray, max_seg: float) -> np.ndarray:
    seg = np.hypot(*np.diff(pts, axis=0).T)
    total = float(np.sum(seg))
    n = min(_MAX_RESAMPLE, max(len(pts), int(math.ceil(total / max_seg)) + 1))
    return _resample_count(pts, n)


def advance_pieces(params: MapParams, pieces: list, steps: int) -> list:
    """Push polyline pieces ``steps`` plain-map iterates forward.

    Pieces are cut at the horizontal strip boundaries (and at the
    tangency level, so parabola images stay monotone), inactive parts
    are dropped, images are clipped back to the unit square.  A step
    that leaves more than ``_MAX_PIECES`` pieces raises ``Unsupported``."""
    levels = [v for br in mc.BRANCHES for v in br.strip(params)] + [params.t]
    for step in range(1, steps + 1):
        nxt = []
        for pts in pieces:
            for sub in _cut_at_levels(pts, pts[:, 1], levels):
                mid = sub[len(sub) // 2]
                region = classify(params, (float(mid[0]), float(mid[1])))
                if region not in mc.ACTIVE_REGIONS:
                    continue
                if region is Region.R4 and len(sub) < 1025:
                    sub = _resample_count(sub, 1025)
                img = np.stack(mc.BRANCH[region].forward(params, *sub.T),
                               axis=1)
                for piece in _cut_at_levels(img, img[:, 1], (0.0, 1.0)):
                    ymid = piece[len(piece) // 2, 1]
                    if 0.0 <= ymid <= 1.0:
                        nxt.append(piece)
        pieces = _bounded(nxt, "forward", step)
    return pieces


def _preimages(params: MapParams, pts: np.ndarray) -> list:
    """Preimages of a piece, branch by branch: the parts of the piece in
    the branch's image band, cut only at the edges of its column (and of
    the parabolic band: at q and the parabola-offset levels 0 and lam),
    pulled back and kept when they land in the branch's strip.  A part
    is in the band when its middle point is: a cut point is interpolated
    along the segment, so it may lie just off the level it cuts."""
    out = []
    for br in mc.BRANCHES:
        subs = _cut_at_levels(pts, pts[:, 0], (*br.column(params), params.q)
                              if br.parabolic else br.column(params))
        if br.parabolic:
            subs = [cut for sub in subs for cut in _cut_at_levels(
                sub, mc.parabola_offset(params, sub.T), (0.0, params.lam))]
        for sub in subs:
            mid = 0.5 * (sub[(len(sub) - 1) // 2] + sub[len(sub) // 2])
            if not mc._in_band(params, br, float(mid[0]), float(mid[1])):
                continue
            if br.parabolic and len(sub) < 1025:
                sub = _resample_count(sub, 1025)
            pre = np.stack(br.inverse(params, *sub.T), axis=1)
            mid = pre[len(pre) // 2]
            if classify(params, (float(mid[0]), float(mid[1]))) is br.region:
                out.append(pre)
    return out


def retreat_pieces(params: MapParams, pieces: list, steps: int) -> list:
    """Pull polyline pieces ``steps`` iterates backward through the
    inverse branches (:func:`_preimages`).  A piece is cut only where it
    leaves a branch's band or crosses the fold, so two pieces can meet
    only at the fold.  A step that leaves more than ``_MAX_PIECES``
    pieces raises ``Unsupported``."""
    for step in range(1, steps + 1):
        pieces = _bounded([pre for pts in pieces
                           for pre in _preimages(params, pts)],
                          "backward", step)
    return pieces


def _bounded(pieces: list, walk: str, step: int) -> list:
    if len(pieces) > _MAX_PIECES:
        raise Unsupported(f"the {walk} piece walk left {len(pieces)} pieces "
                          f"at step {step}, more than {_MAX_PIECES}")
    return pieces


# ---------------------------------------------------------------------------
# Global manifolds
# ---------------------------------------------------------------------------

def _global_manifold(params: MapParams, chain: _Chain,
                     n: int) -> ManifoldCurve:
    """The leaf through the base of ``chain``: the local leaf at its n-th
    anchor (the chain's tail) mapped n steps back to the base, as the
    mapped piece nearest the base.  At a corner it is the edge, cut at
    the floor of the corner branch's image band for an unstable leaf:
    W^u(1, 1) is {1} x [1/3, 1]."""
    m, kind = chain.m, chain.kind
    if m in _CORNERS:
        br = mc._branch_at(params, *m)
        lo = mc._band_floor(params, br) \
            if br.floor and kind == "unstable" else 0.0
        pts = _edge_leaf(m, kind,
                         np.linspace(lo, 1.0, int(1.0 / _SEG_LEN) + 1))
        meta = {"rho": _RHO, "n": n, "steps": 0, "base_distance": 0.0,
                "params": params.digest}
        return ManifoldCurve(pts, kind, meta)
    local = _local_manifold(params, chain.tail(n))
    pieces = (advance_pieces if kind == "unstable" else retreat_pieces)(
        params, [local.points], n)
    best_d, best_i = math.inf, -1
    for i, p in enumerate(pieces):
        d = float(_polyline_distances(p, [m])[0])
        if d < best_d:
            best_d, best_i = d, i
    if best_i < 0:
        raise NoConvergence("the advanced leaf lost its base point")
    pts = _resample_max_seg(pieces[best_i], _SEG_LEN)
    meta = {"rho": _RHO, "n": n, "steps": n, "base_distance": best_d,
            "params": params.digest}
    return ManifoldCurve(pts, kind, meta)


def global_unstable(params: MapParams, m, n: int) -> ManifoldCurve:
    """Component through ``m`` of the forward image of the local unstable
    leaf at the n-th anchor of ``m``'s chain, n plain steps back."""
    return _global_manifold(params, _Chain(params, m, "unstable"), n)


def global_stable(params: MapParams, m, n: int) -> ManifoldCurve:
    return _global_manifold(params, _Chain(params, m, "stable"), n)


def unstable_invariance_defect(params: MapParams, m) -> float:
    """One-sided Hausdorff distance from W^u(f(M)) to f(W^u(M)) on the
    overlap, inside the square (the invariance inclusion, measured)."""
    return _invariance_defect(params, m, "unstable")


def stable_invariance_defect(params: MapParams, m) -> float:
    """One-sided Hausdorff distance from W^s(f^-1(M)) to f^-1(W^s(M)),
    inside the square."""
    return _invariance_defect(params, m, "stable")


def _invariance_defect(params: MapParams, m, kind: str) -> float:
    """Largest distance from the points of the leaf at f(M) (f^-1(M) for
    stable leaves, the first anchor of M's other-kind chain) that lie in
    the square to the leaf of M mapped one step.  The mapped pieces are
    clipped to the square, so a leaf point outside it has nothing to be
    near (near the bottom edge a local unstable leaf at f(M) reaches up
    to 6.6e-3 below y = 0 on ``REF_EX``).  The unstable leaf at f(M)
    pulls back through the step from M and then along M's chain, so its
    defect is rounding (at most 3e-17 on the benchmark's points).  The
    three chains share their charts: M and its anchor, and each point
    that a walk passes again, are charted once."""
    unstable = kind == "unstable"
    probe = _Chain(params, m, "stable" if unstable else "unstable")
    other = probe[1][0]
    leaf = _local_manifold(params, _Chain(params, m, kind,
                                          charts=probe.charts,
                                          sweep=probe.sweep))
    pieces = (advance_pieces if unstable else retreat_pieces)(
        params, [leaf.points], 1)
    pts = _local_manifold(params, _Chain(params, other, kind,
                                         charts=probe.charts)).points
    pts = pts[np.all((pts >= 0.0) & (pts <= 1.0), axis=1)]
    if not pieces:
        raise NoConvergence(f"the mapped {kind} leaf of {m} left the square")
    if not len(pts):
        raise NoConvergence(f"the {kind} leaf at the anchor of {m} lies "
                            "outside the square")
    near = np.full(len(pts), np.inf)
    for piece in pieces:
        np.minimum(near, _polyline_distances(piece, pts), out=near)
    return float(np.max(near))


# ---------------------------------------------------------------------------
# Verticality check
# ---------------------------------------------------------------------------

@dataclass
class VerticalityReport:
    ok: bool
    max_slope: float
    max_curvature: float
    eps1: float


def eps1_vertical_check(points, eps1: float) -> VerticalityReport:
    """Finite-difference C^2 verticality of a curve given by its points
    (N x 2) as a graph x = g(y): both max |g'| and max |g''| must stay
    below ``eps1``."""
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise NotGraphLike("need at least three points")
    y = pts[:, 1]
    if np.all(np.diff(y) < 0.0):
        pts = pts[::-1]
        y = pts[:, 1]
    if not np.all(np.diff(y) > 0.0):
        raise NotGraphLike("curve is not a graph over the vertical axis")
    g1 = np.gradient(pts[:, 0], y)
    g2 = np.gradient(g1, y)
    ms = float(np.max(np.abs(g1)))
    mc_ = float(np.max(np.abs(g2)))
    return VerticalityReport(ok=(ms <= eps1 and mc_ <= eps1),
                             max_slope=ms, max_curvature=mc_, eps1=eps1)


def iterate_vertical_curve(params: MapParams,
                           x_vals) -> list[VerticalityReport]:
    """Push an ``_EPS1``-vertical graph over the parabolic strip through
    ``_PASSAGES`` full-map returns and report its verticality after each.

    The curve is a graph x = g(y) over the strip ``(t-h, t+h]``.  One
    return applies the parabolic branch, then follows the surviving
    sub-window of the right wing through left-strip steps until its
    image covers the strip again; the window edges are located by
    bisection on the monotone wing ordinate.  Most of the wing lands in
    the gaps and is lost -- the lemma is about the piece that returns."""
    p = params
    h = p.h
    y_grid = np.linspace(p.t - h, p.t + h, _VERTICAL_POINTS)
    g = np.asarray(x_vals, dtype=float)
    if g.shape != y_grid.shape:
        raise ValueError("x_vals must match the strip grid size")
    # the seed's own verticality is the caller's premise: finite
    # differences of an O(1)-valued graph over a strip of width
    # 2 w_max / sigma sit below float64 noise for steep parameters
    # The return step (parabolic branch, then one bottom-strip step) is
    # written in the wing coordinate w, not through the branch table:
    # the table would recover w from the height y = t + w/sigma, which
    # cancels digits at large sigma (REF_STRICT: 1e5), so the image
    # ordinates stop being monotone in w and the curve is no graph.
    reports = []
    for _ in range(_PASSAGES):
        def wing_y(w: float) -> float:
            gx = float(np.interp(p.t + w / p.sigma, y_grid, g))
            return p.sigma * (p.c * w * w - p.lam * gx)

        # invert the wing ordinate at both strip edges (right wing,
        # one expanding step after the parabolic branch)
        if wing_y(p.w_max) < p.t + h:
            raise Unsupported("wing too short to re-cover the strip")
        edges = [_bisect_edge(lambda w: wing_y(w) < target, 0.0, p.w_max)
                 for target in (p.t - h, p.t + h)]
        w_new = np.linspace(edges[0], edges[1], _VERTICAL_POINTS)
        src_y = p.t + w_new / p.sigma
        gx = np.interp(src_y, y_grid, g)
        w_mid = 0.5 * (edges[0] + edges[1])
        mid_pt = (p.q + w_mid, wing_y(w_mid) / p.sigma)
        if classify(params, mid_pt) is not Region.R1:
            raise Unsupported("return block leaves the expanding strip")
        y_img = p.sigma * (p.c * w_new * w_new - p.lam * gx)
        x_img = p.lam * (p.q + w_new)
        g = np.interp(y_grid, y_img, x_img)
        rep = eps1_vertical_check(np.column_stack([x_img, y_img]), _EPS1)
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Bracket (local product structure)
# ---------------------------------------------------------------------------

def _run_pairs(lo1, hi1, d1, lo2, hi2, d2) -> np.ndarray:
    """(R1, R2) mask of the run pairs that may hold a pair of crossing
    segments: runs of about sqrt(S) segments of each polyline whose
    boxes meet, or whose segment directions (as lines, angles mod pi)
    come within ``_PARALLEL_REACH`` of each other.  A run's directions
    are bounded by their largest angle to its first segment's; segments
    of zero length meet nothing and are left out, and one short enough
    for a product of two lengths to underflow makes its run reach every
    direction.  ``lo``/``hi`` are segment boxes (padded on the first
    polyline), ``d`` the segment vectors."""
    half = 0.5 * math.pi
    runs = []
    for lo, hi, d in ((lo1, hi1, d1), (lo2, hi2, d2)):
        # the last run repeats its last segment, which moves no bound
        seg = _runs(len(d))
        theta = np.arctan2(d[:, 1], d[:, 0])[seg]
        length = np.abs(d).sum(axis=1)[seg]
        dev = np.abs((theta - theta[:, :1] + half) % math.pi - half)
        dev = np.where(length > 0.0,
                       np.where(length < _TINY_SEG, math.pi, dev), 0.0)
        starts = seg[:, 0]
        runs.append((np.minimum.reduceat(lo, starts),
                     np.maximum.reduceat(hi, starts), theta[:, 0],
                     dev.max(axis=1)))
    (rlo1, rhi1, c1, w1), (rlo2, rhi2, c2, w2) = runs
    boxes = np.all((rlo1[:, None] <= rhi2) & (rlo2 <= rhi1[:, None]), axis=2)
    gap = np.abs((c1[:, None] - c2 + half) % math.pi - half)
    return boxes | (gap <= w1[:, None] + w2 + _PARALLEL_REACH)


def _polyline_intersections(poly1: np.ndarray, poly2: np.ndarray) -> list:
    """Crossings of segment i of ``poly1`` with segment j of ``poly2``,
    as (i, j, point, angle) in row-major order: the pairs whose line
    parameters t and u both lie in [-1e-12, 1 + 1e-12].  The exact test
    sees only the pairs whose bounding boxes meet when padded by
    ``_BOX_PAD`` times the largest coordinate, a bound on the rounding
    of t and u, and the nearly parallel pairs (``_PARALLEL``), whose
    rounded t and u can take any value.  It looks for them only in the
    run pairs of :func:`_run_pairs` (every pair, when a coordinate is not
    finite); a pair of either kind lies in one, so the hits are those
    of the all-pairs test, float for float.  The run pairs go
    ``_BLOCK`` segment pairs at a time (at least one run pair)."""
    a1, d1 = poly1[:-1], np.diff(poly1, axis=0)
    a2, d2 = poly2[:-1], np.diff(poly2, axis=0)
    both = np.vstack([poly1, poly2])
    pad = _BOX_PAD * np.max(np.abs(both), initial=0.0, where=np.isfinite(both))
    lo1 = np.minimum(a1, poly1[1:]) - pad
    hi1 = np.maximum(a1, poly1[1:]) + pad
    lo2, hi2 = np.minimum(a2, poly2[1:]), np.maximum(a2, poly2[1:])
    n1, n2 = _PARALLEL * np.abs(d1).sum(axis=1), np.abs(d2).sum(axis=1)
    hits, eps = [], 1e-12
    if not (len(d1) and len(d2)):
        return hits
    seg1, seg2 = _runs(len(d1)), _runs(len(d2))
    # a last run repeats its last segment: see each pair once
    once1, once2 = (np.diff(s, axis=1, prepend=-1) > 0 for s in (seg1, seg2))
    if np.all(np.isfinite(both)):
        r1, r2 = np.nonzero(_run_pairs(lo1, hi1, d1, lo2, hi2, d2))
    else:
        r1, r2 = np.indices((len(seg1), len(seg2))).reshape(2, -1)
    per = max(1, _BLOCK // (seg1.shape[1] * seg2.shape[1]))
    for c in range(0, len(r1), per):
        c1, c2 = r1[c:c + per], r2[c:c + per]
        i, j = np.broadcast_arrays(seg1[c1, :, None], seg2[c2, None, :])
        ok = once1[c1, :, None] & once2[c2, None, :]
        i, j = i[ok], j[ok]
        denom = d1[i, 0] * d2[j, 1] - d1[i, 1] * d2[j, 0]
        keep = np.all((lo1[i] <= hi2[j]) & (lo2[j] <= hi1[i]), axis=1)
        keep |= np.abs(denom) < n1[i] * n2[j]
        i, j, den = i[keep], j[keep], denom[keep]
        rel = a2[j] - a1[i]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = (rel[:, 0] * d2[j, 1] - rel[:, 1] * d2[j, 0]) / den
            u = (rel[:, 0] * d1[i, 1] - rel[:, 1] * d1[i, 0]) / den
        mask = (np.abs(den) > 0.0) & (t >= -eps) & (t <= 1.0 + eps) \
            & (u >= -eps) & (u <= 1.0 + eps)
        for k in np.nonzero(mask)[0]:
            ik, jk = int(i[k]), int(j[k])
            pt = a1[ik] + t[k] * d1[ik]
            sin_ang = abs(den[k]) / (math.hypot(*d1[ik]) * math.hypot(*d2[jk]))
            hits.append((ik, jk, (float(pt[0]), float(pt[1])),
                         math.asin(min(1.0, sin_ang))))
    return sorted(hits)


@dataclass
class Bracket:
    point: tuple
    angle: float
    near_tangent: bool


#: Transversality floor for the bracket intersection angle.
BRACKET_ANGLE_FLOOR = 1e-6


def bracket(params: MapParams, m, m_prime) -> Bracket:
    """Intersection of the stable leaf of ``m`` with the unstable leaf
    of ``m_prime`` (the local product structure), with the measured
    transversality angle.  Local leaves that miss each other are
    extended once, to global leaves from the second anchor of each chain
    (two plain steps).  The local leaves and the extension read one
    stable chain of ``m`` and one unstable chain of ``m_prime``."""
    stable = _Chain(params, m, "stable")
    unstable = _Chain(params, m_prime, "unstable")
    ws = _local_manifold(params, stable)
    wu = _local_manifold(params, unstable)
    hits = _polyline_intersections(ws.points, wu.points)
    if not hits:
        # no bracket has been seen to need a deeper extension
        try:
            ws = _global_manifold(params, stable, 2)
            wu = _global_manifold(params, unstable, 2)
        except (Unsupported, NoConvergence) as err:
            raise NoIntersection(f"leaves too short and not extendable: "
                                 f"{err}") from err
        hits = _polyline_intersections(ws.points, wu.points)
    if not hits:
        raise NoIntersection("stable and unstable leaves do not meet "
                             "after one global extension")
    clusters: list[list] = []
    for _, _, pt, ang in hits:
        for cl in clusters:
            if math.hypot(pt[0] - cl[0][0][0], pt[1] - cl[0][0][1]) < 1e-7:
                cl.append((pt, ang))
                break
        else:
            clusters.append([(pt, ang)])
    if len(clusters) > 1:
        raise NonUnique(f"{len(clusters)} distinct leaf intersections")
    pt, ang = max(clusters[0], key=lambda h: h[1])
    return Bracket(point=pt, angle=ang,
                   near_tangent=ang < BRACKET_ANGLE_FLOOR)


# ---------------------------------------------------------------------------
# Mixing times
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Disk:
    center: tuple
    radius: float

    def contains(self, p) -> bool:
        return math.hypot(p[0] - self.center[0],
                          p[1] - self.center[1]) <= self.radius


def _clip_to_disk(pts: np.ndarray, disk: Disk) -> list[np.ndarray]:
    d = np.hypot(pts[:, 0] - disk.center[0], pts[:, 1] - disk.center[1])
    return [p for p in _cut_at_levels(pts, d, (disk.radius,))
            if disk.contains(p[len(p) // 2])]


def _surviving_parameter(survive, lo: float, hi: float, depth: int):
    """Greedy nested search for a parameter whose survival count
    reaches ``depth`` (survival sets are nested intervals)."""
    for _ in range(_SCAN_ROUNDS):
        ts = np.linspace(lo, hi, 65)
        scores = [survive(float(t)) for t in ts]
        best = int(np.argmax(scores))
        if scores[best] >= depth:
            return float(ts[best])
        step = (hi - lo) / 64.0
        lo = max(lo, ts[best] - step)
        hi = min(hi, ts[best] + step)
        if hi - lo < 1e-15:
            break
    return None


def _seed_arcs(params: MapParams, disk: Disk,
               kind: str) -> list[np.ndarray]:
    unstable = kind == "unstable"
    # coordinate that is constant on the edge leaves, and that the scan
    # below moves along
    e = 0 if unstable else 1
    c, r = disk.center, disk.radius
    seeds = []
    # edge chords: the square's edges are global leaves of the corner
    # fixed points.
    for edge in ((0.0,) if unstable else (0.0, 1.0)):
        if abs(c[e] - edge) < r:
            h = math.sqrt(r * r - (c[e] - edge) ** 2)
            lo, hi = max(0.0, c[1 - e] - h), min(1.0, c[1 - e] + h)
            if hi > lo:
                seeds.append(np.array([[edge, v] if unstable else [v, edge]
                                       for v in (lo, hi)]))
    # leaf seeds at deep-surviving points of the disk: scan x along the
    # horizontal diameter for a backward-surviving point (unstable leaves
    # need a computable backward chain), y along the vertical one for a
    # forward-surviving point
    def point(t: float):
        return (t, c[1]) if unstable else (c[0], t)

    def count(t: float) -> int:
        n = 0
        for cur in mc.iterates(params, point(t), 40, not unstable):
            if classify(params, cur) not in mc.ACTIVE_REGIONS:
                break
            n += 1
        return n

    # the scan bisects a 1/lam (resp. sigma) expanding chain, so float64
    # can only pin down survivors to a parameter-dependent depth
    rate = 1.0 / params.lam if unstable else params.sigma
    depth = max(2, min(12, int(14.0 / math.log10(rate))))
    t0 = _surviving_parameter(count, max(0.0, c[e] - 0.9 * r),
                              min(1.0, c[e] + 0.9 * r), depth=depth)
    if t0 is not None:
        local = local_unstable if unstable else local_stable
        try:
            curve = local(params, point(t0))
            seeds.extend(_clip_to_disk(curve.points, disk))
        except (Unsupported, NoConvergence, OutOfDomain):
            pass
    return [s for s in seeds if len(s) >= 2]


def _spanning_piece(pieces: list, axis: int):
    for p in pieces:
        v = p[:, axis]
        if np.min(v) <= _END_TOL and np.max(v) >= 1.0 - _END_TOL:
            return p
    return None


def _mixing_search(params: MapParams, disk: Disk, kind: str):
    pieces = _seed_arcs(params, disk, kind)
    if not pieces:
        raise Unsupported(f"no {kind} seed arc found inside {disk}")
    axis = 1 if kind == "unstable" else 0
    longest = 0.0
    for n in range(_MIXING_BUDGET + 1):
        hit = _spanning_piece(pieces, axis)
        if hit is not None:
            return n, hit
        for p in pieces:
            v = p[:, axis]
            longest = max(longest, float(np.max(v) - np.min(v)))
        pieces = (advance_pieces if kind == "unstable" else retreat_pieces)(
            params, pieces, 1)
        if not pieces:
            raise BudgetExhausted(f"no {kind} piece is left at iterate "
                                  f"{n + 1}", longest_span=longest)
    raise BudgetExhausted(
        f"no full crossing within {_MIXING_BUDGET} iterates",
        longest_span=longest)


def mixing_times(params: MapParams, disk: Disk) -> dict:
    """Iterates needed for the disk to develop a full vertical unstable
    crossing (forward) and a full horizontal stable crossing (backward),
    each searched for at most ``_MIXING_BUDGET`` iterates.
    """
    n_plus, arc_plus = _mixing_search(params, disk, "unstable")
    n_minus, arc_minus = _mixing_search(params, disk, "stable")
    return {"n_plus": n_plus, "n_minus": n_minus,
            "arc_plus": arc_plus, "arc_minus": arc_minus}


# ---------------------------------------------------------------------------
# Non-expansiveness demonstration
# ---------------------------------------------------------------------------

@dataclass
class NonexpansiveReport:
    A: tuple
    B: tuple
    sup_dist: float
    horizon: int
    separation: float
    A_exact: tuple | None = None
    B_exact: tuple | None = None


class SearchFailure(mc.HorseshoeError, RuntimeError):
    """No non-expansive pair found within the candidate ladder."""


def _exact(params: MapParams) -> MapParams:
    """The same parameter set with its stored floats as exact rationals
    (the branch table then evaluates the map exactly)."""
    return replace(params, **{f.name: Fraction(getattr(params, f.name))
                              for f in fields(params)})


def _rational_sqrt_in(lo: Fraction, hi: Fraction) -> Fraction | None:
    """A rational a with a*a inside [lo, hi] (nested digit refinement)."""
    if hi <= 0:
        return None
    lo = max(lo, Fraction(0))
    mid = (lo + hi) / 2
    for bits in range(64, 4096, 64):
        scale = 1 << bits
        num = math.isqrt((mid.numerator * scale * scale) // mid.denominator)
        a = Fraction(num, scale)
        if lo < a * a < hi:
            return a
    return None


def _threaded_separation(params: MapParams, delta: float,
                         prefix: int) -> Fraction | None:
    """Exact half-separation ``a`` whose squared value makes the common
    backward abscissa chain of the pair (q-a, 0), (q+a, 0) thread the
    image bands for ``_NONEXPANSIVE_HORIZON`` steps.

    The chain abscissa is affine in a^2 (first through the parabolic
    band, then ``prefix`` left-band rungs, then the middle band
    forever), so each band constraint is a rational interval in a^2;
    the intersection stays nonempty because every inverse branch maps
    its band onto the full width of the square.  The chain is carried
    as its abscissae at a^2 = 0 and a^2 = 1, through the inverse x-maps
    and image columns of the branch table."""
    pf = _exact(params)
    ends = [mc.BRANCH[Region.R4].inverse(pf, pf.q + a, 0)[0] for a in (0, 1)]
    lo, hi = Fraction(0), math.inf
    for k in range(_NONEXPANSIVE_HORIZON):
        # the left image band, then the middle one
        br = mc.BRANCH[Region.R1 if k < prefix else Region.R3]
        x0, slope = ends[0], ends[1] - ends[0]
        c_lo, c_hi = sorted((b - x0) / slope for b in br.column(pf))
        lo, hi = max(lo, c_lo), min(hi, c_hi)
        if lo >= hi:
            return None
        ends = [br.inverse(pf, x, 0)[0] for x in ends]
    a = _rational_sqrt_in(lo, hi)
    if a is None or a > pf.w_max or 2 * a > Fraction(9, 10) * Fraction(delta):
        return None
    return a


def nonexpansive_pair(params: MapParams, delta: float) -> NonexpansiveReport:
    """A pair of distinct points whose orbits never separate by more
    than ``delta`` over ``|n| <= _NONEXPANSIVE_HORIZON``.

    Both points sit on the bottom edge (one shared stable leaf),
    symmetric about the tangency abscissa, hence on one local parabola;
    their backward orbits share a single abscissa chain through the
    image bands, so the orbit distance is largest at time zero.

    The demonstration runs in exact rational arithmetic: each backward
    band step divides by lam, so a float64 pair loses the thread after
    three or four preimages, while the true chain only constrains the
    squared half-separation to a nested interval that exact fractions
    resolve to any depth.  ``A``/``B`` hold float approximations, the
    verified rationals are in ``A_exact``/``B_exact``."""
    if delta <= 0.0:
        raise ValueError("delta must be positive")
    pf = _exact(params)
    horizon = _NONEXPANSIVE_HORIZON
    # exact half-separations, largest first: the prefix-0 family separates
    # by about sqrt(lam*r3_a/c), each extra left-band rung divides the
    # separation by sqrt(1/lam)
    for prefix in range(40):
        a = _threaded_separation(params, delta, prefix)
        if a is None:
            continue
        A = (pf.q + a, Fraction(0))
        B = (pf.q - a, Fraction(0))
        oa, ob = ([pt, *mc.iterates(pf, pt, horizon),
                   *mc.iterates(pf, pt, horizon, False)] for pt in (A, B))
        if min(len(oa), len(ob)) < 2 * horizon + 1:
            continue
        sup_sq = max((u[0] - v[0]) ** 2 + (u[1] - v[1]) ** 2
                     for u, v in zip(oa, ob))
        if sup_sq <= Fraction(delta) ** 2:
            sep = 2.0 * float(a)
            return NonexpansiveReport(
                A=(float(A[0]), 0.0), B=(float(B[0]), 0.0),
                sup_dist=math.sqrt(float(sup_sq)), horizon=horizon,
                separation=sep, A_exact=A, B_exact=B)
    raise SearchFailure(f"no pair with orbit distance <= {delta} over "
                        f"|n| <= {horizon}")
