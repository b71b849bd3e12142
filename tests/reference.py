"""Reference forms of kernels for the tests.  The coding references
evaluate every branch, band piece or row the plain way, where
:mod:`horseshoe.coding` routes, slices or reorders its work, and test a
point against every box of a cover, where :meth:`coding.Atom.contains`
looks up the few cells that can hold it.  The leaf
reference tries a local leaf's radii one at a time, one graph per
transform, where :mod:`horseshoe.manifolds` stacks the radii after the
first as rows.  The tests assert that both forms give the same floats.

The cone reference (:class:`_ReferenceSweep`) carries a frame's cones as
unit vectors in numpy stacks, depth block by depth block, where
:class:`horseshoe.splitting._Sweep` scans a running product of the
walk's derivatives in Python floats; the two agree in depth and error
exactly and in floats to a bound the tests state.

The transport reference (:func:`_reference_transport`) multiplies a
walk's Jacobians onto each other in numpy, one step at a time, where
:func:`horseshoe.induced.distortion_probe` carries them in array lanes
and :func:`horseshoe.induced.kergodic_derivative` reads the package's
derivative carrier; all three give the same floats."""

import math

import numpy as np

import horseshoe.coding as cd
import horseshoe.manifolds as mf
import horseshoe.map_core as mc
import horseshoe.splitting as spl


def _reference_transport(params, p, k):
    """(derivative of f^k at p, f^k(p)), each step's Jacobian multiplied
    onto the last in numpy; raises OutOfDomain when the orbit leaves the
    branches (the derivative at the last iterate that exists is
    undefined)."""
    pts = [p, *mc.iterates(params, p, k)]
    jac = np.eye(2)
    for q in pts[:k]:
        jac = mc.jacobian(params, q) @ jac
    return jac, pts[k]


def _reference_step(params, boxes, forward):
    """Hulls of the branch images (preimages) of boxes (N, 4), with every
    branch clipping every row and comparing the clipped ends: the
    reference of the routed :func:`coding._step`, as (hulls (M, 4),
    origin, whole)."""
    out, origin, exact = [], [], []
    x = cd.Interval(boxes[:, 0], boxes[:, 2])
    y = cd.Interval(boxes[:, 1], boxes[:, 3])
    for br in mc.BRANCHES:
        if forward:
            lo, hi = br.strip(params)
            cx, cy = x, y.clip(lo, hi)
            ok = cy.lo <= cy.hi
            whole = (y.lo >= lo) & (y.hi <= hi)
        else:
            lo, hi = br.column(params)
            cx, cy = x.clip(lo, hi), y
            ok = cx.lo <= cx.hi
            whole = (x.lo >= lo) & (x.hi <= hi)
            if br.floor:
                f = mc._band_floor(params, br)
                cy = y.clip(f)
                ok &= cy.lo <= cy.hi
                whole &= y.lo >= f
        rows = np.nonzero(ok)[0]
        whole = whole[rows]
        if forward:
            ix, iy = br.forward(params, cx[rows], cy[rows],
                                csq=cd._interval_csq)
        else:
            ix, iy = br.inverse(params, cx[rows], cy[rows])
            if br.parabolic:
                whole &= (ix.lo >= 0.0) & (ix.hi <= 1.0)
                ix = ix.clip(0.0, 1.0)
                keep = ix.lo <= ix.hi
                ix, iy = ix[keep], iy[keep]
                rows, whole = rows[keep], whole[keep]
        out.append(np.column_stack([ix.lo, iy.lo, ix.hi, iy.hi]))
        origin.append(rows)
        exact.append(whole)
    return np.vstack(out), np.concatenate(origin), np.concatenate(exact)


def _reference_band_bits(params, x, y, whole):
    """Bit s of each hull when it meets (lies inside, ``whole``) the
    closure of band s, with every band piece testing every row."""
    if whole:
        hit = (x.lo >= 0.0) & (x.hi <= 1.0) & (y.lo >= 0.0) & (y.hi <= 1.0)
    else:
        hit = (x.hi >= 0.0) & (x.lo <= 1.0) & (y.hi >= 0.0) & (y.lo <= 1.0)
    bits = np.zeros(len(hit), dtype=np.uint8)
    for sym, br, lo, hi, floor in params._bands:
        if whole:
            m = hit & (x.lo >= lo) & (x.hi <= hi)
        else:
            m = hit & (x.hi >= lo) & (x.lo <= hi)
        if floor is not None:
            m &= (y.lo if whole else y.hi) >= floor
        if br.parabolic:
            k = mc.parabola_offset(params, (x if whole else x.clip(lo, hi), y))
            if whole:
                m &= (k.lo >= 0.0) & (k.hi <= params.lam)
            else:
                m &= (k.lo <= params.lam) & (k.hi >= 0.0)
        bits |= m.astype(np.uint8) << sym
    return bits


def _reference_labels(params, boxes, whole):
    """The reference of the routed :func:`coding._labels`."""
    x = cd.Interval(boxes[:, 0], boxes[:, 2])
    y = cd.Interval(boxes[:, 1], boxes[:, 3])
    label = _reference_band_bits(params, x, y, False)
    rows = np.nonzero(whole)[0]
    label[rows] |= _reference_band_bits(params, x[rows], y[rows], True) << 3
    return label


def _reference_slices(boxes, member, split):
    """The slices of :func:`coding._slices` as a gather of each slice's
    boxes followed by one ``np.where`` per column end, for boxes (N, 4)."""
    total = 4 * len(boxes) if split else len(boxes)
    for start in range(0, total, cd._SLICE):
        rows = np.arange(start, min(start + cd._SLICE, total))
        if not split:
            yield *cd._columns(boxes[rows]), member[rows]
            continue
        q, rows = np.divmod(rows, len(boxes))
        x0, y0, x1, y1 = boxes[rows].T
        xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        right, top = (q & 1) == 1, (q & 2) == 2
        yield (cd.Interval(np.where(right, xm, x0), np.where(right, x1, xm)),
               cd.Interval(np.where(top, ym, y0), np.where(top, y1, ym)),
               member[rows])


def _reference_verdicts(params, x, y, member, exact, table, first_unknown):
    """The word masks of :func:`coding._verdicts` with the forward pass
    first, each pass dropping the hulls off the square in either
    coordinate, and the hull labels ORed into their boxes by
    ``np.bitwise_or.at``."""
    n = len(table) // 2
    if first_unknown == 0:
        label = cd._labels(params, x, y, exact)
        meet = member & table[n, label & 7]
        inside = table[n, label >> 3]
    else:
        meet = member.copy()
        inside = np.where(exact, member, np.uint16(0))
    for forward, sign in ((True, 1), (False, -1)):
        rows = meet.nonzero()[0]
        hx, hy, whole = x[rows], y[rows], inside[rows] != 0
        for k in range(1, n + 1):
            hx, hy, origin, step_whole = cd._step(params, hx, hy, forward)
            rows = rows[origin]
            whole = whole[origin] & step_whole
            if k >= first_unknown:
                label = np.zeros(len(meet), dtype=np.uint8)
                np.bitwise_or.at(label, rows,
                                 cd._labels(params, hx, hy, whole))
                meet &= table[n + sign * k, label & 7]
                inside &= table[n + sign * k, label >> 3]
            if k == n:
                break
            keep = ((meet[rows] != 0) & hx.meets(0.0, 1.0)
                    & hy.meets(0.0, 1.0)).nonzero()[0]
            hx, hy, rows = hx[keep], hy[keep], rows[keep]
            whole = whole[keep] & (inside[rows] != 0)
    return meet, inside


def _reference_contains(atom, p, slack=0.0):
    """The closed test of every box of ``atom``'s cover, widened by
    ``slack``: the reference of :meth:`coding.Atom.contains`."""
    if atom.empty:
        return False
    x, y = p
    boxes = atom.boxes
    hit = ((boxes[:, 0] - slack <= x) & (x <= boxes[:, 2] + slack)
           & (boxes[:, 1] - slack <= y) & (y <= boxes[:, 3] + slack))
    return bool(np.any(hit))


def _reference_graph_transform(params, chart_m, chart_fm, itinerary, s):
    """One graph-transform step of the one graph ``s`` (the reference of
    :func:`manifolds._transform_rows`, with the arguments of
    :func:`manifolds.graph_transform`)."""
    forward = s.axis == "u->s"
    src_chart = chart_m if forward else chart_fm
    dst_chart = chart_fm if forward else chart_m
    if forward:
        xi = np.stack([s.grid, s.values], axis=1)
    else:
        xi = np.stack([s.values, s.grid], axis=1)
    pts = np.asarray(src_chart.M) + xi @ src_chart.basis.T
    x, y = pts.T
    for region in (itinerary if forward else reversed(itinerary)):
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
        raise mf.MonotonicityError("axis projection of the transformed "
                                   "graph is not monotone")
    if prim[0] > s.grid[0] or prim[-1] < s.grid[-1]:
        raise mf.MonotonicityError("transformed graph does not cover the "
                                   "target interval")
    return mf.LipGraph(dst_chart, s.axis, s.grid,
                       np.interp(s.grid, prim, secd))


def _reference_pullback(params, chain, radius):
    """(graph, depth) of the pullback of the one radius ``radius`` along
    ``chain``, with the sup distance of :class:`manifolds.LipGraph`."""
    unstable = chain.kind == "unstable"
    axis = "u->s" if unstable else "s->u"
    prev = prev_diff = factor = None
    for depth in range(1, mf._MAX_DEPTH + 1):
        g = mf.zero_graph(chain[depth][1], axis, radius)
        for j in range(depth, 0, -1):
            near_ch = chain[j - 1][1]
            _, far_ch, block = chain[j]
            src, dst = (far_ch, near_ch) if unstable else (near_ch, far_ch)
            g = _reference_graph_transform(params, src, dst, block, g)
        if prev is not None:
            diff = g.sup_distance(prev)
            if prev_diff is not None and prev_diff > 0.0:
                factor = diff / prev_diff
            if diff < mf._TOL:
                return g, depth
            prev_diff = diff
        prev = g
    raise mf.NoConvergence(f"graph transform did not converge in "
                           f"{mf._MAX_DEPTH} pullback blocks",
                           last_factor=factor)


def _reference_ladder(params, chain):
    """(graph, depth) of the local leaf at the base of ``chain`` (not a
    corner), its radius halved from ``_RHO`` * C3 after each refusal and
    each radius pulled back on its own."""
    radius = mf._RHO * mc.default_certificate(params).C3
    last_err = None
    while radius >= mf.RHO_MIN:
        try:
            return _reference_pullback(params, chain, radius)
        except mf.MonotonicityError as err:
            last_err = err
            radius /= 2.0
    raise mf.NoConvergence("no admissible radius above the floor: "
                           f"{last_err}", last_factor=None)


def _cone_residuals(V):
    """For each (3, 2, 1) cone stack in a (3·K, 2, 1) stack, the larger
    angle between the lines of its axis vector a and of its two boundary
    rays b, ``atan2(|a x b|, |a . b|)``, with the stacked dot products
    ``a^T @ b`` (the floats of ``np.dot(a, b)``)."""
    W = V.reshape(-1, 3, 2)
    dots = (W[:, None, :1] @ W[:, 1:, :, None]).reshape(-1, 2).tolist()
    return [max(math.atan2(abs(a0 * b1 - a1 * b0), abs(d1)),
                math.atan2(abs(a0 * c1 - a1 * c0), abs(d2)))
            for ((a0, a1), (b0, b1), (c0, c1)), (d1, d2)
            in zip(W.tolist(), dots)]


def _unit_stack(V):
    """Each vector of a (K, 2, 1) stack over its Euclidean norm."""
    return V / np.sqrt(V.swapaxes(1, 2) @ V)


def _start_stack(params, m, unstable):
    """The unit axis vector and two unit boundary rays of the vertical
    (horizontal) start cone at ``m``, as a (3, 2, 1) stack."""
    s = spl._cone_slope(params, m, unstable)
    rows = ([[0.0, 1.0], [s, 1.0], [-s, 1.0]] if unstable
            else [[1.0, 0.0], [1.0, s], [1.0, -s]])
    return _unit_stack(np.array(rows)[:, :, None])


def _carry_block(params):
    """Depths carried as one stack: the depth at which the rate
    lam/sigma alone takes an O(1) aperture below ``_TOL``, within
    [1, ``MAX_DEPTH``] (``MAX_DEPTH`` when the rate does not contract)."""
    rate = params.lam / params.sigma
    if not 0 < rate < 1:
        return spl.MAX_DEPTH
    return min(max(math.ceil(math.log(spl._TOL) / math.log(rate)), 1),
               spl.MAX_DEPTH)


class _ReferenceSweep(spl._Sweep):
    """The stacked cone carry, on the orbit of :class:`splitting._Sweep`
    (the reference of its ``resolve``).

    Each side is a lane of three tables by orbit index: ``mats[i]``
    carries a cone from z_i to z_(i-s), ``stacks[t]`` holds the unit
    cones carried to z_t from its nearest ``depths[t]`` walk points,
    nearest first, as one (3·n, 2, 1) stack (cone k is depth k + 1).
    Depths are tried ``block`` at a time (``_carry_block`` by default):
    a block draws the derivatives it lacks, then carries from the
    nearest walk point deep enough, each point toward z_t taking its
    neighbour's cones pushed through one derivative, normalised and
    turned so that their axis coordinate is positive.  A stacked
    ``J @ V`` and ``sqrt(v^T v)`` give the floats of the per-vector
    ``J @ v`` and ``np.linalg.norm(v)``, so the lanes reproduce the
    per-depth, per-vector loop bit for bit whatever the block is."""

    __slots__ = ("block", "lanes")

    def __init__(self, params, m, block=None):
        super().__init__(params, m)
        self.block = _carry_block(params) if block is None else block
        self.lanes = {True: ({}, {}, {}), False: ({}, {}, {})}

    def resolve(self, unstable, t):
        mats, stacks, depths = self.lanes[unstable]
        s, axis = (-1, np.s_[:, 1:2]) if unstable else (1, np.s_[:, 0:1])
        params, pts, block = self.params, self.pts, self.block
        best, best_res, n, error = 0, math.inf, 0, None
        while True:
            depth, n = n, min(n + block, spl.MAX_DEPTH)
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
                    mats[i] = (mc.jacobian(params, p) if unstable
                               else mc.jacobian_inverse(params, pts[i - s]))
                except Exception as exc:    # deferred to its depth
                    n, error = s * (i - t) - 1, exc
                    break
            # the nearest walk point deep enough (none on a lane not read)
            k = 0 if depths else n
            while k < n and depths.get(t + s * k, 0) < n - k:
                k += 1
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
                V = _unit_stack(mats[i] @ V)
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
                    if res < spl._TOL:
                        return V[3 * best - 3, :, 0], best_res, best
            if error is not None:
                raise error
            if n < depth + block or n == spl.MAX_DEPTH:
                break
        if n == 0:
            V = _start_stack(params, pts[t], unstable)
            return V[0, :, 0], _cone_residuals(V)[0], 0
        if best == 0:
            return None, math.inf, 0
        return stacks[t][3 * best - 3, :, 0], best_res, best


def _reference_direction_field(params, m, block=None):
    """The frame at ``m`` by the stacked cone carry."""
    return _ReferenceSweep(params, m, block).frame(0)
