"""Reference forms of kernels for the tests.  The coding references
evaluate every branch, band piece or row the plain way, where
:mod:`horseshoe.coding` routes, slices or reorders its work.  The leaf
reference tries a local leaf's radii one at a time, one graph per
transform, where :mod:`horseshoe.manifolds` stacks the radii after the
first as rows.  The tests assert that both forms give the same floats."""

import numpy as np

import horseshoe.coding as cd
import horseshoe.manifolds as mf
import horseshoe.map_core as mc


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
