"""Invariant manifolds by the graph transform, and their consequences.

Local stable/unstable manifolds are computed as Lipschitz graphs over the
adapted chart axes: the classical graph transform is iterated along a
chain of hyperbolic orbit blocks, seeded with the flat graph at the deep
end of the chain, until the sup-distance between successive pullbacks
drops below tolerance.  Blocks are chosen greedily so that each one
expands the unstable chart axis by at least a fixed factor; this absorbs
the bottom-strip excursions (where single steps are not expanding in the
rescaled charts) into full induced steps automatically.

The blocks of a point form its anchor chain, built lazily once per
query and charted once per anchor: every radius of a local leaf, the
base leaf of a global leaf (the chain's tail) and a bracket with all its
extensions read the same chain.

Global manifolds iterate the local polyline forward (or backward)
through the branch formulas, splitting the curve at strip and band
boundaries; the same machinery drives the mixing-time search and the
verticality check.  Graphs, polylines and the non-expansive pair all
evaluate the branch table of :mod:`horseshoe.map_core` (on arrays, and
on exact rationals for the pair).  The module ends with the
non-expansiveness demonstration: an explicit pair of distinct points on
the bottom edge, symmetric about the tangency abscissa, whose full
orbits stay within any prescribed distance of each other.

Numerical settings are module constants: ``GRID_POINTS``, ``RHO_MIN``,
``_TOL``, ``_MAX_DEPTH``, ``_MU_MIN``, ``_ANCHOR_CAP``, ``_SEG_LEN``,
``_MAX_EXTEND``, ``_MAX_RESAMPLE``, ``_MAX_PIECES``, ``_END_TOL``,
``_SCAN_ROUNDS`` and ``_SIMPLE_TOL``.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import map_core as mc
from .map_core import (MapParams, Region, Certificate, classify, apply,
                       apply_inverse, default_certificate, OutOfDomain)
from .splitting import length_scale
from .induced import ChartFrame, chart

GRID_POINTS = 257
RHO_MIN = 2.0 ** -20
_TOL = 1e-10        # sup distance of two pullbacks that ends a local leaf
_MAX_DEPTH = 60     # pullback blocks a local leaf may use
_MU_MIN = 2.0       # minimal chart-axis expansion of one pullback block
_ANCHOR_CAP = 2000  # orbit steps searched for one block
_SEG_LEN = 1e-3     # longest segment of a resampled global leaf
_MAX_EXTEND = 6     # deepest global extension (induced steps) of a bracket
_MAX_RESAMPLE = 200_000  # most points of a resampled global leaf
_MAX_PIECES = 256   # longest pieces kept per step of a mapped curve
_END_TOL = 1e-9     # curve ends this close meet (or reach an edge)
_SCAN_ROUNDS = 60   # zoom rounds of the survivor scan for mixing seeds
_SIMPLE_TOL = 1e-12  # self-crossings closer to a segment start are joints


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
    """The two leaves do not meet within the computed extensions."""


class NonUnique(mc.HorseshoeError, RuntimeError):
    """More than one transversal leaf intersection (must not happen off
    the tangency orbit)."""


class NotGraphLike(mc.HorseshoeError, ValueError):
    """The curve is not a graph x = g(y) over a y-interval."""


class BudgetExhausted(mc.HorseshoeError, RuntimeError):
    """Mixing-time search ran out of iterations."""

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

    base: ChartFrame
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
    def radius(self) -> float:
        return float(max(-self.grid[0], self.grid[-1]))

    @property
    def lip_bound(self) -> float:
        """Measured Lipschitz constant over the grid."""
        return float(np.max(np.abs(np.diff(self.values) / np.diff(self.grid))))

    def __call__(self, x):
        return np.interp(x, self.grid, self.values)

    def value_at_zero(self) -> float:
        return float(np.interp(0.0, self.grid, self.values))

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


def zero_graph(base: ChartFrame, axis: str, radius: float,
               slope: float = 0.0) -> LipGraph:
    grid = np.linspace(-radius, radius, GRID_POINTS)
    return LipGraph(base, axis, grid, slope * grid)


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
        return float(np.min(_point_segment_distances(self.points, p)))

    def is_simple(self) -> bool:
        """No transversal self-intersection between non-adjacent
        segments (quadratic scan; subsampled beyond 800 points)."""
        pts = self.points
        if len(pts) > 800:
            idx = np.linspace(0, len(pts) - 1, 800).astype(int)
            pts = pts[idx]
        a, b = pts[:-1], pts[1:]
        n = len(a)
        for i in range(n):
            hits = _segment_intersections(a[i], b[i], a[i + 2:], b[i + 2:])
            for j, pt, _ in hits:
                if i == 0 and j == n - 3:
                    continue  # closed-up ends of a nearly closed curve
                d = math.hypot(pt[0] - a[i][0], pt[1] - a[i][1])
                if d > _SIMPLE_TOL:
                    return False
        return True

    def to_csv(self) -> str:
        lines = ["idx,x,y,arclen"]
        for i, ((x, y), s) in enumerate(zip(self.points, self.arclength)):
            lines.append(f"{i},{float(x)!r},{float(y)!r},{float(s)!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "kind": self.kind,
            "meta": self.meta,
            "points": self.points.tolist(),
            "arclength": self.arclength.tolist(),
        }
        return json.dumps(payload)


def _params_hash(params: MapParams) -> str:
    return hashlib.sha256(params.to_json().encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Graph transform
# ---------------------------------------------------------------------------

def graph_transform(params: MapParams, chart_m: ChartFrame,
                    chart_fm: ChartFrame, k: int, s: LipGraph) -> LipGraph:
    """One graph-transform step along the block f^k: M -> F(M).

    For an unstable graph (``u->s``) the input lives at M and the output
    at F(M); for a stable graph (``s->u``) the input lives at F(M) and
    the output at M (the block is traversed backwards through the total
    inverse branch formulas).  The whole block is evaluated through the
    branch itinerary of the base orbit, so nearby graph points follow
    the same smooth branch extension as the local leaf itself.  The
    inner inverse of the axis projection is piecewise-linear
    interpolation on the transported grid, valid because the projection
    is monotone; a monotonicity or coverage failure signals a too-large
    radius.  The output graph lives on the input graph's grid.
    """
    regs = mc.branch_sequence(params, chart_m.M, k)
    if regs is None:
        raise Unsupported(f"block orbit of {chart_m.M} leaves the branches")
    forward = s.axis == "u->s"
    src_chart = chart_m if forward else chart_fm
    dst_chart = chart_fm if forward else chart_m
    if forward:
        xi = np.stack([s.grid, s.values], axis=1)
    else:
        xi = np.stack([s.values, s.grid], axis=1)
    pts = np.asarray(src_chart.M) + xi @ src_chart.basis.T
    x, y = pts.T
    for region in (regs if forward else reversed(regs)):
        br = mc.BRANCH[region]
        x, y = (br.forward if forward else br.inverse)(params, x, y)
    pts = np.stack([x, y], axis=1)
    eta = (pts - np.asarray(dst_chart.M)) @ dst_chart.inv_basis.T
    pri = 0 if forward else 1
    prim = eta[:, pri]
    secd = eta[:, 1 - pri]
    d = np.diff(prim)
    if np.all(d < 0.0):
        prim, secd = prim[::-1], secd[::-1]
    elif not np.all(d > 0.0):
        raise MonotonicityError("axis projection of the transformed graph "
                                "is not monotone")
    if prim[0] > s.grid[0] or prim[-1] < s.grid[-1]:
        raise MonotonicityError("transformed graph does not cover the "
                                "target interval")
    return LipGraph(dst_chart, s.axis, s.grid, np.interp(s.grid, prim, secd))


# ---------------------------------------------------------------------------
# Anchor chains (hyperbolic orbit blocks)
# ---------------------------------------------------------------------------

def _next_anchor(params: MapParams, m, chart_m: ChartFrame, direction: str):
    """Closest orbit point (with its chart and step count) whose block
    to/from ``m`` expands the relevant chart axis by at least ``_MU_MIN``.

    ``direction="backward"`` walks preimages (unstable pullback chain);
    ``"forward"`` walks images (stable chain).  The block's derivative
    rides along the walk, so a block of j steps costs j Jacobians."""
    forward = direction == "forward"
    jac, prev, j = np.eye(2), m, 0
    for j, cur in enumerate(mc.iterates(params, m, _ANCHOR_CAP, forward), 1):
        if classify(params, cur) not in mc.ACTIVE_REGIONS:
            raise Unsupported(f"{direction} orbit of {m} leaves the active "
                              f"regions at step {j}")
        # D f^j at the block's first point
        jac = mc.jacobian(params, prev) @ jac if forward \
            else jac @ mc.jacobian(params, cur)
        prev = cur
        try:
            ch = chart(params, cur)
            if forward:
                d = np.linalg.inv(ch.inv_basis @ jac @ chart_m.basis)[:, 1]
            else:
                d = (chart_m.inv_basis @ jac @ ch.basis)[:, 0]
        except (OutOfDomain, np.linalg.LinAlgError):
            continue
        if np.linalg.norm(d) >= _MU_MIN:
            return cur, ch, j
    if j < _ANCHOR_CAP:
        raise Unsupported(f"{direction} orbit of {m} has no image at step "
                          f"{j + 1}")
    raise Unsupported(f"no hyperbolic block within {_ANCHOR_CAP} {direction} "
                      f"steps of {m}")


@dataclass
class _Chain:
    """The anchor chain of a point for one query, built as far as it is
    read and then kept.  Entry 0 is (m, chart at m, 0); entry i + 1 is
    the next anchor after entry i, with its plain steps from entry i.
    ``tail(n)`` is the chain of entry n, sharing every entry built."""

    params: MapParams
    m: tuple
    kind: str
    entries: list = field(default_factory=list)
    start: int = 0

    def __post_init__(self):
        self.m = (float(self.m[0]), float(self.m[1]))

    def __getitem__(self, i: int):
        if not self.entries:
            self.entries.append((self.m, chart(self.params, self.m), 0))
        while len(self.entries) <= self.start + i:
            self.entries.append(_next_anchor(
                self.params, *self.entries[-1][:2],
                "forward" if self.kind == "stable" else "backward"))
        return self.entries[self.start + i]

    def tail(self, n: int) -> "_Chain":
        return replace(self, m=self[n][0], start=self.start + n)


def _pullback_curve(params: MapParams, chain: _Chain, radius: float,
                    seed_slope: float) -> tuple[LipGraph, int]:
    """Iterate the graph transform along the anchor chain until two
    successive pullbacks agree within ``_TOL`` in sup norm."""
    unstable = chain.kind == "unstable"
    axis = "u->s" if unstable else "s->u"
    prev = prev_diff = factor = None
    for depth in range(1, _MAX_DEPTH + 1):
        g = zero_graph(chain[depth][1], axis, radius, slope=seed_slope)
        for j in range(depth, 0, -1):
            near_ch = chain[j - 1][1]
            _, far_ch, k_j = chain[j]
            # the block runs from the far anchor for unstable graphs
            src, dst = (far_ch, near_ch) if unstable else (near_ch, far_ch)
            g = graph_transform(params, src, dst, k_j, g)
        if prev is not None:
            diff = g.sup_distance(prev)
            if prev_diff is not None and prev_diff > 0.0:
                factor = diff / prev_diff
            if diff < _TOL:
                return g, depth
            prev_diff = diff
        prev = g
    raise NoConvergence(f"graph transform did not converge in {_MAX_DEPTH} "
                        "pullback blocks", last_factor=factor)


#: The two linear fixed points; their leaves are edges of the square
#: (invariant under the affine extension of the corner's own branch).
_CORNERS = ((0.0, 0.0), (1.0, 1.0))


def _edge_leaf(corner, kind: str, s: np.ndarray) -> np.ndarray:
    """Points at edge parameters ``s`` of the square's edge through the
    corner that is its leaf of the given kind."""
    const = np.full_like(s, corner[0])
    return np.column_stack([const, s] if kind == "unstable" else [s, const])


def _local_manifold(params: MapParams, chain: _Chain, rho: float,
                    cert: Certificate | None,
                    seed_slope: float = 0.0) -> ManifoldCurve:
    """The local leaf at the base of ``chain``; every radius it tries
    reads the same chain."""
    if cert is None:
        cert = default_certificate(params)
    if not (0.0 < rho <= 1.0):
        raise ValueError("rho must lie in (0, 1]")
    m, kind = chain.m, chain.kind
    if m in _CORNERS:
        # exact local leaves at the two linear fixed points
        radius_plane = rho * cert.C3 * length_scale(params, m)
        t = np.linspace(0.0, radius_plane, GRID_POINTS)
        pts = _edge_leaf(m, kind, t if m[0] == 0.0 else 1.0 - t[::-1])
        meta = {"rho_effective": radius_plane, "tol": 0.0, "iterations": 0,
                "lip_bound": 0.0, "params": _params_hash(params)}
        return ManifoldCurve(pts, kind, meta)
    radius = rho * cert.C3
    last_err = None
    while radius >= RHO_MIN:
        try:
            g, iters = _pullback_curve(params, chain, radius, seed_slope)
            meta = {"rho_effective": radius * g.base.l, "tol": _TOL,
                    "iterations": iters, "lip_bound": g.lip_bound,
                    "params": _params_hash(params)}
            return ManifoldCurve(g.plane_points(), kind, meta)
        except MonotonicityError as err:
            last_err = err
            radius /= 2.0
    raise NoConvergence("no admissible radius above the floor: "
                        f"{last_err}", last_factor=None)


def local_unstable(params: MapParams, m, rho: float = 0.5,
                   cert: Certificate | None = None,
                   seed_slope: float = 0.0) -> ManifoldCurve:
    """Local unstable manifold through ``m`` as a plane polyline."""
    return _local_manifold(params, _Chain(params, m, "unstable"), rho,
                           cert, seed_slope)


def local_stable(params: MapParams, m, rho: float = 0.5,
                 cert: Certificate | None = None,
                 seed_slope: float = 0.0) -> ManifoldCurve:
    """Local stable manifold through ``m`` (inverse-block pullback)."""
    return _local_manifold(params, _Chain(params, m, "stable"), rho,
                           cert, seed_slope)


# ---------------------------------------------------------------------------
# Curve pieces: forward / backward advancing with branch splitting
# ---------------------------------------------------------------------------

def _point_segment_distances(poly: np.ndarray, p) -> np.ndarray:
    a, b = poly[:-1], poly[1:]
    ab = b - a
    ap = np.asarray(p, dtype=float) - a
    denom = np.einsum("ij,ij->i", ab, ab)
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip(np.where(denom > 0.0,
                             np.einsum("ij,ij->i", ap, ab) / denom, 0.0),
                    0.0, 1.0)
    proj = a + t[:, None] * ab
    d = np.asarray(p, dtype=float) - proj
    return np.hypot(d[:, 0], d[:, 1])


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


def _image(params: MapParams, region: Region, pts: np.ndarray,
           inverse: bool = False) -> np.ndarray:
    """Points through one branch formula (its total inverse with
    ``inverse=True``, no band restriction)."""
    br = mc.BRANCH[region]
    return np.stack((br.inverse if inverse else br.forward)(params, *pts.T),
                    axis=1)


def _levels(params: MapParams, bands: bool) -> list:
    """Edges of the horizontal strips and the fold ordinate t, or of
    the image bands and the fold abscissa q."""
    edges = [v for br in mc.BRANCHES
             for v in (br.column if bands else br.strip)(params)]
    return edges + [params.q if bands else params.t]


def advance_pieces(params: MapParams, pieces: list, steps: int = 1,
                   protect=None) -> list:
    """Push polyline pieces ``steps`` plain-map iterates forward.

    Pieces are cut at the horizontal strip boundaries (and at the
    tangency level, so parabola images stay monotone), inactive parts
    are dropped, images are clipped back to the unit square.  When the
    piece count exceeds ``_MAX_PIECES`` only the longest survive; a piece
    passing through the forward orbit of ``protect`` is always kept."""
    prot = None if protect is None else (float(protect[0]), float(protect[1]))
    for _ in range(steps):
        nxt = []
        for pts in pieces:
            for sub in _cut_at_levels(pts, pts[:, 1], _levels(params, False)):
                mid = sub[len(sub) // 2]
                region = classify(params, (float(mid[0]), float(mid[1])))
                if region not in mc.ACTIVE_REGIONS:
                    continue
                if region is Region.R4 and len(sub) < 1025:
                    sub = _resample_count(sub, 1025)
                img = _image(params, region, sub)
                for piece in _cut_at_levels(img, img[:, 1], (0.0, 1.0)):
                    ymid = piece[len(piece) // 2, 1]
                    if 0.0 <= ymid <= 1.0:
                        nxt.append(piece)
        if prot is not None:
            prot = apply(params, prot)
        pieces = _prune_pieces(nxt, prot)
    return pieces


def _inverse_branches(params: MapParams, pts: np.ndarray) -> list:
    """Preimage arrays of every inverse branch defined on the whole
    piece whose preimage lands in the branch's source region."""
    out = []
    for br in mc.BRANCHES:
        if not np.all(mc._in_band(params, br, pts[:, 0], pts[:, 1])):
            continue
        pre = _image(params, br.region, pts, inverse=True)
        mid = pre[len(pre) // 2]
        if classify(params, (float(mid[0]), float(mid[1]))) is br.region:
            out.append(pre)
    return out


def retreat_pieces(params: MapParams, pieces: list, steps: int = 1,
                   protect=None) -> list:
    """Pull polyline pieces ``steps`` iterates backward through the
    inverse branches, splitting at the image-band boundaries (and at the
    parabola-offset levels bounding the parabolic image region)."""
    wing_lo, wing_hi = mc.BRANCH[Region.R4].column(params)
    prot = None if protect is None else (float(protect[0]), float(protect[1]))
    for _ in range(steps):
        nxt = []
        for pts in pieces:
            subs = _cut_at_levels(pts, pts[:, 0], _levels(params, True))
            refined = []
            for sub in subs:
                off = mc.parabola_offset(params, sub.T)
                refined.extend(_cut_at_levels(sub, off, (0.0, params.lam)))
            for sub in refined:
                mid = sub[len(sub) // 2]
                if wing_lo <= mid[0] <= wing_hi and len(sub) < 1025:
                    sub = _resample_count(sub, 1025)
                nxt.extend(_inverse_branches(params, sub))
        if prot is not None:
            prot = apply_inverse(params, prot)
            if prot is not None:
                prot = (float(prot[0]), float(prot[1]))
        pieces = _prune_pieces(nxt, prot)
    return pieces


def _prune_pieces(pieces: list, protect) -> list:
    if len(pieces) <= _MAX_PIECES:
        return pieces
    lengths = [float(np.sum(np.hypot(*np.diff(p, axis=0).T)))
               for p in pieces]
    order = np.argsort(lengths)[::-1]
    keep = set(order[:_MAX_PIECES].tolist())
    if protect is not None:
        for i, p in enumerate(pieces):
            if i not in keep and \
                    np.min(_point_segment_distances(p, protect)) < 1e-9:
                keep.add(i)
    return [pieces[i] for i in sorted(keep)]


# ---------------------------------------------------------------------------
# Global manifolds
# ---------------------------------------------------------------------------

def _merge_contiguous(pieces, start: int):
    """Concatenate pieces that share an endpoint with the selected one.

    Mapping cuts polylines at strip and band levels, so a connected leaf
    comes back as abutting fragments; rejoin them, but only when the
    matching endpoint is unambiguous (exactly one candidate)."""
    chain = pieces[start]
    free = [p for i, p in enumerate(pieces) if i != start]
    while True:
        grew = False
        for endpoint, prepend in ((chain[-1], False), (chain[0], True)):
            hits = []
            for i, p in enumerate(free):
                for flip in (False, True):
                    q = p[::-1] if flip else p
                    if math.hypot(q[0, 0] - endpoint[0],
                                  q[0, 1] - endpoint[1]) <= _END_TOL:
                        hits.append((i, q))
            if len(hits) == 1:
                i, q = hits[0]
                chain = (np.vstack([q[::-1], chain[1:]]) if prepend
                         else np.vstack([chain, q[1:]]))
                free.pop(i)
                grew = True
                break
        if not grew:
            return chain


def _global_manifold(params: MapParams, chain: _Chain, n: int, rho: float,
                     cert: Certificate | None) -> ManifoldCurve:
    """The leaf through the base of ``chain``: the local leaf at its n-th
    anchor (read from the chain's tail) mapped back to the base."""
    m, kind = chain.m, chain.kind
    if m in _CORNERS:
        pts = _edge_leaf(m, kind,
                         np.linspace(0.0, 1.0, int(1.0 / _SEG_LEN) + 1))
        meta = {"rho": rho, "n": n, "steps": 0, "base_distance": 0.0,
                "params": _params_hash(params)}
        return ManifoldCurve(pts, kind, meta)
    steps = sum(chain[i][2] for i in range(1, n + 1))
    tail = chain.tail(n)
    local = _local_manifold(params, tail, rho, cert)
    pieces = (advance_pieces if kind == "unstable" else retreat_pieces)(
        params, [local.points], steps, protect=tail.m)
    best_d, best_i = math.inf, -1
    for i, p in enumerate(pieces):
        d = float(np.min(_point_segment_distances(p, m)))
        if d < best_d:
            best_d, best_i = d, i
    if best_i < 0:
        raise NoConvergence("the advanced leaf lost its base point")
    pts = _resample_max_seg(_merge_contiguous(pieces, best_i), _SEG_LEN)
    meta = {"rho": rho, "n": n, "steps": steps, "base_distance": best_d,
            "params": _params_hash(params)}
    return ManifoldCurve(pts, kind, meta)


def global_unstable(params: MapParams, m, n: int, rho: float = 0.5,
                    cert: Certificate | None = None) -> ManifoldCurve:
    """Component through ``m`` of the n-fold forward image of the local
    unstable leaf at the n-th induced preimage of ``m``."""
    return _global_manifold(params, _Chain(params, m, "unstable"), n,
                            rho, cert)


def global_stable(params: MapParams, m, n: int, rho: float = 0.5,
                  cert: Certificate | None = None) -> ManifoldCurve:
    return _global_manifold(params, _Chain(params, m, "stable"), n,
                            rho, cert)


def unstable_invariance_defect(params: MapParams, m, rho: float = 0.5,
                               cert: Certificate | None = None) -> float:
    """One-sided Hausdorff distance from W^u(F(M)) to F(W^u(M)) on the
    overlap (the invariance inclusion, measured)."""
    return _invariance_defect(params, m, "unstable", rho, cert)


def stable_invariance_defect(params: MapParams, m, rho: float = 0.5,
                             cert: Certificate | None = None) -> float:
    """One-sided Hausdorff distance from W^s(F^-1(M)) to F^-1(W^s(M))."""
    return _invariance_defect(params, m, "stable", rho, cert)


def _invariance_defect(params: MapParams, m, kind: str, rho: float,
                       cert: Certificate | None) -> float:
    unstable = kind == "unstable"
    local = local_unstable if unstable else local_stable
    other, _, k = _Chain(params, m, "stable" if unstable else "unstable")[1]
    leaf = local(params, m, rho=rho, cert=cert)
    pieces = (advance_pieces if unstable else retreat_pieces)(
        params, [leaf.points], k, protect=m)
    worst = 0.0
    for p in local(params, other, rho=rho, cert=cert).points:
        d = min(float(np.min(_point_segment_distances(piece, p)))
                for piece in pieces)
        worst = max(worst, d)
    return worst


# ---------------------------------------------------------------------------
# Verticality check
# ---------------------------------------------------------------------------

@dataclass
class VerticalityReport:
    ok: bool
    max_slope: float
    max_curvature: float
    eps1: float


def eps1_vertical_check(curve, eps1: float) -> VerticalityReport:
    """Finite-difference C^2 verticality of a curve given as a graph
    x = g(y): both max |g'| and max |g''| must stay below ``eps1``."""
    pts = curve.points if isinstance(curve, ManifoldCurve) else \
        np.asarray(curve, dtype=float)
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


def iterate_vertical_curve(params: MapParams, x_vals=None, passages: int = 20,
                           eps1: float = 0.5,
                           npts: int = 513) -> list[VerticalityReport]:
    """Push an eps1-vertical graph over the parabolic strip through
    repeated full-map returns and report its verticality after each.

    The curve is a graph x = g(y) over the strip ``(t-h, t+h]``.  One
    return applies the parabolic branch, then follows the surviving
    sub-window of the right wing through left-strip steps until its
    image covers the strip again; the window edges are located by
    bisection on the monotone wing ordinate.  Most of the wing lands in
    the gaps and is lost -- the lemma is about the piece that returns."""
    p = params
    h = p.h
    y_grid = np.linspace(p.t - h, p.t + h, npts)
    if x_vals is None:
        g = np.full(npts, 0.3)
    else:
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
    for _ in range(passages):
        def wing_y(w: float) -> float:
            gx = float(np.interp(p.t + w / p.sigma, y_grid, g))
            return p.sigma * (p.c * w * w - p.lam * gx)

        # invert the wing ordinate at both strip edges (right wing,
        # one expanding step after the parabolic branch)
        edges = []
        for target in (p.t - h, p.t + h):
            lo, hi = 0.0, p.w_max
            if wing_y(hi) < target:
                raise Unsupported("wing too short to re-cover the strip")
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if wing_y(mid) < target:
                    lo = mid
                else:
                    hi = mid
            edges.append(0.5 * (lo + hi))
        w_new = np.linspace(edges[0], edges[1], npts)
        src_y = p.t + w_new / p.sigma
        gx = np.interp(src_y, y_grid, g)
        w_mid = 0.5 * (edges[0] + edges[1])
        mid_pt = (p.q + w_mid, wing_y(w_mid) / p.sigma)
        if classify(params, mid_pt) is not Region.R1:
            raise Unsupported("return block leaves the expanding strip")
        y_img = p.sigma * (p.c * w_new * w_new - p.lam * gx)
        x_img = p.lam * (p.q + w_new)
        g = np.interp(y_grid, y_img, x_img)
        rep = eps1_vertical_check(np.column_stack([x_img, y_img]), eps1)
        reports.append(rep)
    return reports


# ---------------------------------------------------------------------------
# Bracket (local product structure)
# ---------------------------------------------------------------------------

def _segment_intersections(a0, b0, a, b):
    """Intersections of segment (a0, b0) with segments (a[i], b[i]);
    returns (index, point, angle) triples."""
    if len(a) == 0:
        return []
    d0 = b0 - a0
    d = b - a
    denom = d0[0] * d[:, 1] - d0[1] * d[:, 0]
    rel = a - a0
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (rel[:, 0] * d[:, 1] - rel[:, 1] * d[:, 0]) / denom
        u = (rel[:, 0] * d0[1] - rel[:, 1] * d0[0]) / denom
    eps = 1e-12
    mask = (np.abs(denom) > 0.0) & (t >= -eps) & (t <= 1.0 + eps) \
        & (u >= -eps) & (u <= 1.0 + eps)
    out = []
    n0 = math.hypot(*d0)
    for i in np.nonzero(mask)[0]:
        pt = a0 + t[i] * d0
        ni = math.hypot(*d[i])
        if n0 == 0.0 or ni == 0.0:
            continue
        sin_ang = abs(denom[i]) / (n0 * ni)
        out.append((int(i), (float(pt[0]), float(pt[1])),
                    math.asin(min(1.0, sin_ang))))
    return out


def _polyline_intersections(poly1: np.ndarray, poly2: np.ndarray):
    hits = []
    a2, b2 = poly2[:-1], poly2[1:]
    for i in range(len(poly1) - 1):
        for _, pt, ang in _segment_intersections(poly1[i], poly1[i + 1],
                                                 a2, b2):
            hits.append((pt, ang))
    return hits


@dataclass
class Bracket:
    point: tuple
    angle: float
    near_tangent: bool


#: Transversality floor for the bracket intersection angle.
BRACKET_ANGLE_FLOOR = 1e-6


def bracket(params: MapParams, m, m_prime, rho: float = 0.5,
            cert: Certificate | None = None) -> Bracket:
    """Intersection of the stable leaf of ``m`` with the unstable leaf
    of ``m_prime`` (the local product structure), with the measured
    transversality angle.  The local leaves and every extension read one
    stable chain of ``m`` and one unstable chain of ``m_prime``."""
    stable = _Chain(params, m, "stable")
    unstable = _Chain(params, m_prime, "unstable")
    ws = _local_manifold(params, stable, rho, cert)
    wu = _local_manifold(params, unstable, rho, cert)
    hits = _polyline_intersections(ws.points, wu.points)
    n = 0
    while not hits and n < _MAX_EXTEND:
        n += 2
        try:
            ws = _global_manifold(params, stable, n, rho, cert)
            wu = _global_manifold(params, unstable, n, rho, cert)
        except (Unsupported, NoConvergence) as err:
            raise NoIntersection(f"leaves too short and not extendable: "
                                 f"{err}") from err
        hits = _polyline_intersections(ws.points, wu.points)
    if not hits:
        raise NoIntersection("stable and unstable leaves do not meet "
                             f"within {_MAX_EXTEND} global extensions")
    clusters: list[list] = []
    for pt, ang in hits:
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


def _seed_arcs(params: MapParams, disk: Disk, kind: str, rho: float,
               cert: Certificate | None) -> list[np.ndarray]:
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
            curve = local(params, point(t0), rho=rho, cert=cert)
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


def _mixing_search(params: MapParams, disk: Disk, kind: str, budget: int,
                   rho: float, cert: Certificate | None):
    pieces = _seed_arcs(params, disk, kind, rho, cert)
    if not pieces:
        raise Unsupported(f"no {kind} seed arc found inside {disk}")
    axis = 1 if kind == "unstable" else 0
    longest = 0.0
    for n in range(budget + 1):
        hit = _spanning_piece(pieces, axis)
        if hit is not None:
            return n, hit
        for p in pieces:
            v = p[:, axis]
            longest = max(longest, float(np.max(v) - np.min(v)))
        pieces = (advance_pieces if kind == "unstable" else retreat_pieces)(
            params, pieces, 1)
        if not pieces:
            break
    raise BudgetExhausted(
        f"no full crossing within {budget} iterates", longest_span=longest)


def mixing_times(params: MapParams, disk: Disk, budget: int = 60,
                 rho: float = 0.5, cert: Certificate | None = None) -> dict:
    """Iterates needed for the disk to develop a full vertical unstable
    crossing (forward) and a full horizontal stable crossing (backward).
    """
    n_plus, arc_plus = _mixing_search(params, disk, "unstable", budget,
                                      rho, cert)
    n_minus, arc_minus = _mixing_search(params, disk, "stable", budget,
                                        rho, cert)
    return {"n_plus": n_plus, "n_minus": n_minus,
            "arc_plus": arc_plus, "arc_minus": arc_minus}


def mixing_consequence(params: MapParams, disk_u: Disk, disk_v: Disk,
                       budget: int = 60, rho: float = 0.5,
                       cert: Certificate | None = None) -> bool:
    """f^n(U) meets V for n = n_plus(U) + n_minus(V): the full vertical
    arc of f^(n_plus)(U) crosses the full horizontal arc of
    f^(-n_minus)(V)."""
    _, arc_u = _mixing_search(params, disk_u, "unstable", budget, rho, cert)
    _, arc_v = _mixing_search(params, disk_v, "stable", budget, rho, cert)
    return bool(_polyline_intersections(arc_u, arc_v))


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


def _threaded_separation(params: MapParams, delta: float, horizon: int,
                         prefix: int) -> Fraction | None:
    """Exact half-separation ``a`` whose squared value makes the common
    backward abscissa chain of the pair (q-a, 0), (q+a, 0) thread the
    image bands for ``horizon`` steps.

    The chain abscissa is affine in a^2 (first through the parabolic
    band, then ``prefix`` left-band rungs, then the middle band
    forever), so each band constraint is a rational interval in a^2;
    the intersection stays nonempty because every inverse branch maps
    its band onto the full width of the square."""
    pf = _exact(params)
    lam, r3a = pf.lam, pf.r3_a
    # x_k = p_k + s_k * asq along the backward chain
    p_aff, s_aff = Fraction(0), pf.c / lam
    lo, hi = None, None

    def constrain(b_lo, b_hi, lo, hi):
        if s_aff > 0:
            c_lo, c_hi = (b_lo - p_aff) / s_aff, (b_hi - p_aff) / s_aff
        else:
            c_lo, c_hi = (b_hi - p_aff) / s_aff, (b_lo - p_aff) / s_aff
        lo = c_lo if lo is None else max(lo, c_lo)
        hi = c_hi if hi is None else min(hi, c_hi)
        return (lo, hi) if lo < hi else (None, None)

    for k in range(horizon):
        if k < prefix:
            band = (Fraction(0), lam)       # left image band
        else:
            band = (r3a - lam, r3a)         # middle image band
        lo, hi = constrain(band[0], band[1], lo, hi)
        if lo is None:
            return None
        if k < prefix:
            p_aff, s_aff = p_aff / lam, s_aff / lam
        else:
            p_aff, s_aff = (r3a - p_aff) / lam, -s_aff / lam
    a = _rational_sqrt_in(lo, hi)
    if a is None or a > pf.w_max or 2 * a > Fraction(9, 10) * Fraction(delta):
        return None
    return a


def _nonexpansive_candidates(params: MapParams, delta: float,
                             horizon: int):
    """Exact half-separations, largest first: the prefix-0 family
    separates by about sqrt(lam*r3_a/c), each extra left-band rung
    divides the separation by sqrt(1/lam)."""
    for prefix in range(0, 40):
        a = _threaded_separation(params, delta, horizon, prefix)
        if a is not None:
            yield a


def _exact_dist_sq(pa, pb) -> Fraction:
    return (pa[0] - pb[0]) ** 2 + (pa[1] - pb[1]) ** 2


def nonexpansive_pair(params: MapParams, delta: float,
                      horizon: int = 50) -> NonexpansiveReport:
    """A pair of distinct points whose orbits never separate by more
    than ``delta`` over ``|n| <= horizon``.

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
    for a in _nonexpansive_candidates(params, delta, horizon):
        A = (pf.q + a, Fraction(0))
        B = (pf.q - a, Fraction(0))
        oa, ob = (mc.orbit(pf, pt, horizon, horizon) for pt in (A, B))
        if any(o.fwd_escape is not None or o.bwd_escape is not None
               for o in (oa, ob)):
            continue
        sup_sq = max(_exact_dist_sq(u, v) for u, v in
                     zip(oa.fwd_points + oa.bwd_points,
                         ob.fwd_points + ob.bwd_points))
        if sup_sq <= Fraction(delta) ** 2:
            sep = 2.0 * float(a)
            return NonexpansiveReport(
                A=(float(A[0]), 0.0), B=(float(B[0]), 0.0),
                sup_dist=math.sqrt(float(sup_sq)), horizon=horizon,
                separation=sep, A_exact=A, B_exact=B)
    raise SearchFailure(f"no pair with orbit distance <= {delta} over "
                        f"|n| <= {horizon}")
