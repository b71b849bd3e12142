import dataclasses
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis.strategies import integers

from horseshoe import map_core as mc
from horseshoe.map_core import REF_EX, REF_STRICT, Region, apply
from horseshoe import manifolds as mf
from horseshoe import sampling as sp
from horseshoe import splitting as spl
from horseshoe.induced import chart
from reference import _reference_ladder
from test_branch_table import valid_params


# --- LipGraph -------------------------------------------------------------

def test_lipgraph_requires_increasing_grid():
    ch = chart(REF_EX, (0.79, 0.005))
    with pytest.raises(ValueError):
        mf.LipGraph(base=ch, axis="u->s", grid=np.array([0.0, 0.0, 1.0]),
                    values=np.zeros(3))


def test_zero_graph_evaluates_to_zero():
    ch = chart(REF_EX, (0.79, 0.005))
    g = mf.zero_graph(ch, "u->s", 0.01)
    assert g(0.0) == 0.0
    assert g.lip_bound == 0.0


# --- graph transform ------------------------------------------------------

def test_transform_linear_diagonal_zero_graph():
    # at the corner fixed point the one-step block is exactly linear
    # diagonal in chart coordinates, so the axis graph is invariant
    p = REF_EX
    ch = chart(p, (0.0, 0.0))
    g = mf.zero_graph(ch, "u->s", 0.01)
    out = mf.graph_transform(p, ch, ch, (Region.R1,), g)
    assert np.max(np.abs(out.values)) < 1e-14


def test_transform_linear_diagonal_slope_closed_form():
    # s(x) = eps*x maps to eps*(lam/sigma)*x under a diagonal block
    p = REF_EX
    ch = chart(p, (0.0, 0.0))
    grid = np.linspace(-0.01, 0.01, 101)
    g = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=0.3 * grid)
    out = mf.graph_transform(p, ch, ch, (Region.R1,), g)
    slope = (out.values[-1] - out.values[0]) / (out.grid[-1] - out.grid[0])
    assert slope == pytest.approx(0.3 * p.lam / p.sigma, rel=1e-9)


def test_transform_contraction_factor():
    # measured contraction between random Lip1 pairs stays below the
    # sqrt(lam/sigma)^k bound with 5% headroom
    p = REF_STRICT
    rng = np.random.default_rng(7)
    bound_base = math.sqrt(p.lam / p.sigma)
    for rp in sp.sample_A_points(p, rng, 8):
        ch = chart(p, rp.M)
        fm, chf, block = mf._Chain(p, rp.M, "stable")[1]
        rad = 0.5 * 0.0625
        grid = np.linspace(-rad, rad, 257)
        v1 = np.clip(rng.uniform(-0.8, 0.8) * grid
                     + 0.2 * rad * np.sin(3.0 * grid / rad), -rad, rad)
        v1 -= np.interp(0.0, grid, v1)
        v2 = rng.uniform(-0.8, 0.8) * grid
        s1 = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=v1)
        s2 = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=v2)
        o1 = mf.graph_transform(p, ch, chf, block, s1)
        o2 = mf.graph_transform(p, ch, chf, block, s2)
        factor = o1.sup_distance(o2) / s1.sup_distance(s2)
        assert factor <= bound_base ** len(block) * 1.05


def _chain_blocks_agree(params, rng, n_points):
    """Check that the first three blocks of both kinds of chain, at
    returning points M and at f(M), are one plain step whose itinerary
    is the region of the step's source point (the nearer anchor of a
    stable block, the farther one of an unstable block).  The unstable
    chain at f(M) steps onto the A-point M, where the chart axis expands
    least.  Returns the blocks checked."""
    checked = 0
    for i in range(n_points):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        for z0 in (m, apply(params, m)):
            orbit = {0: z0}
            for s in (1, -1):
                for j, z in enumerate(mc.iterates(params, z0, 3, s > 0), 1):
                    orbit[s * j] = z
            for kind, s in (("stable", 1), ("unstable", -1)):
                chain = mf._Chain(params, z0, kind)
                for j in range(1, 4):
                    try:
                        far, _, block = chain[j]
                    except mf.Unsupported:
                        break
                    assert far == orbit[s * j]
                    start = chain[j - 1][0] if kind == "stable" else far
                    assert block == (mc.classify(params, start),)
                    checked += 1
    return checked


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_chain_blocks_record_the_itinerary_of_their_walk(params):
    assert _chain_blocks_agree(params, np.random.default_rng(5), 8) >= 48


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_chain_blocks_record_their_walk_on_valid_params(params, seed):
    try:
        _chain_blocks_agree(params, np.random.default_rng(seed), 3)
    except sp.SampleError:
        reject()


def test_a_chain_step_with_no_chart_names_the_step():
    # on REF_STRICT: the step from T's preimage onto T = (0, t), where
    # e_u and e_s are both vertical, and the step back from f(Q) onto
    # Q = (q, 0), where l vanishes (on REF_EX the start points' own
    # charts are already refused)
    p = REF_STRICT
    for m, kind in ((mc.apply_inverse(p, (0.0, p.t)), "stable"),
                    (mc.apply(p, (p.q, 0.0)), "unstable")):
        chain = mf._Chain(p, m, kind)
        chain[0]
        with pytest.raises(mf.Unsupported, match="^step 1 of .* has no chart"):
            chain[1]


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_leaf_queries_at_the_tangency_preimage_refuse(params):
    # e_u and e_s are parallel at T = (0, t): no chart, so every leaf
    # query there raises a typed error, not numpy's LinAlgError
    t = (0.0, params.t)
    queries = [lambda: mf.local_unstable(params, t),
               lambda: mf.local_stable(params, t),
               lambda: mf.global_unstable(params, t, 1),
               lambda: mf.global_stable(params, t, 1),
               lambda: mf.unstable_invariance_defect(params, t),
               lambda: mf.stable_invariance_defect(params, t),
               lambda: mf.bracket(params, t, t)]
    for query in queries:
        with pytest.raises(mc.HorseshoeError):
            query()


def test_axis_leaves_at_corners():
    for m, axis in (((0.0, 0.0), 0), ((1.0, 1.0), 1)):
        wu = mf.local_unstable(REF_EX, m)
        ws = mf.local_stable(REF_EX, m)
        # unstable leaf vertical, stable horizontal, through the corner
        assert np.max(np.abs(wu.points[:, 0] - m[0])) < 1e-12
        assert np.max(np.abs(ws.points[:, 1] - m[1])) < 1e-12


def _count_frames(monkeypatch):
    """Frames made by sweeps, by point."""
    from collections import Counter
    seen = Counter()
    frame = spl._Sweep.frame

    def counting(self, j):
        seen[self.point(j)] += 1
        return frame(self, j)

    monkeypatch.setattr(spl._Sweep, "frame", counting)
    return seen


def _count_work(monkeypatch):
    """The work behind the frames: ``draws``, the orbit points that
    ``iterates`` yields, by direction and point, and ``derivatives``, the
    derivatives that sweeps build, by formula and point."""
    from collections import Counter
    work = {"draws": Counter(), "derivatives": Counter()}
    iterates, derivative = mc.iterates, spl._derivative_at

    def drawing(params, p, n, forward=True):
        for q in iterates(params, p, n, forward):
            work["draws"][forward, q] += 1
            yield q

    def building(params, p, which):
        work["derivatives"][which, p] += 1
        return derivative(params, p, which)

    monkeypatch.setattr(mc, "iterates", drawing)
    monkeypatch.setattr(spl, "_derivative_at", building)
    return work


def _assert_one_sweep(params, seen, work):
    """The frames of one chain came from one sweep of its orbit: each
    orbit point was drawn once, each derivative built once per point and
    side, and fewer were built than one ``direction_field`` per charted
    point builds."""
    assert set(work["draws"].values()) == {1}
    assert set(work["derivatives"].values()) == {1}
    built = sum(work["derivatives"].values())
    work["derivatives"].clear()
    for m in list(seen):
        spl.direction_field(params, m)
    assert 0 < built < sum(work["derivatives"].values())


def test_anchor_chain_charts_each_point_once(monkeypatch):
    # REF_STRICT's unstable leaves need several radii; every radius
    # reads the one chain
    p = REF_STRICT
    rp = sp.sample_returning_point(p, np.random.default_rng(6))
    seen, work = _count_frames(monkeypatch), _count_work(monkeypatch)
    wu = mf.local_unstable(p, rp.M)
    first = 0.5 * mf.default_certificate(p).C3 * spl.length_scale(p, rp.M)
    assert wu.meta["rho_effective"] <= 0.5 * first
    assert len(seen) >= 2 and set(seen.values()) == {1}
    _assert_one_sweep(p, seen, work)
    # a global leaf reads its base leaf from the tail of its own chain
    rp = sp.sample_returning_point(REF_EX, np.random.default_rng(2))
    seen.clear()
    work["draws"].clear()
    work["derivatives"].clear()
    ws = mf.global_stable(REF_EX, rp.M, 2)
    assert ws.meta["steps"] >= 2
    assert len(seen) >= 3 and set(seen.values()) == {1}
    _assert_one_sweep(REF_EX, seen, work)


def _count_kernel(monkeypatch):
    """Calls of the transform kernel and refusals raised, by name."""
    from collections import Counter
    count = Counter()
    for name in ("_transform_rows", "_refusal"):
        def counted(*args, _fn=getattr(mf, name), _name=name):
            count[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(mf, name, counted)
    return count


def test_a_ladder_stacks_only_after_its_first_refusal(monkeypatch):
    # REF_STRICT's unstable leaf here is refused 13 times; tried one
    # radius at a time that took 16 transforms, 13 of them refused
    p = REF_STRICT
    rp = sp.sample_returning_point(p, np.random.default_rng(6))
    seen, count = _count_frames(monkeypatch), _count_kernel(monkeypatch)
    wu = mf.local_unstable(p, rp.M)
    assert wu.meta["iterations"] == 2
    assert count["_transform_rows"] <= 4 and count["_refusal"] == 1
    assert len(seen) == 3 and set(seen.values()) == {1}
    # a leaf that passes at its first radius transforms as one radius
    # alone did: depth d of the pullback takes d transforms
    rng = np.random.default_rng(6)
    for _ in range(4):
        m = sp.sample_returning_point(REF_EX, rng).M
        for leaf in (mf.local_unstable, mf.local_stable):
            count.clear()
            try:
                w = leaf(REF_EX, m)
            except mf.Unsupported:
                continue
            depth = w.meta["iterations"]
            first = 0.5 * mf.default_certificate(REF_EX).C3 \
                * spl.length_scale(REF_EX, m)
            assert w.meta["rho_effective"] == first
            assert count == {"_transform_rows": depth * (depth + 1) // 2}


def _ladder_outcome(fn, params, m, kind):
    """The radius, depth, chart point and graph bytes of the local leaf
    of ``kind`` at ``m`` by ``fn`` (on a chain of its own), or the class,
    message and ``last_factor`` of its error."""
    try:
        g, depth = fn(params, mf._Chain(params, m, kind))
    except mc.HorseshoeError as err:
        return type(err).__name__, str(err), getattr(err, "last_factor", None)
    return float(g.grid[-1]), depth, g.base.M, g.values.tobytes()


def _stacked_ladder(params, chain):
    """(graph, depth) of ``_local_manifold``'s leaf: its last pullback."""
    got = []

    def recording(*args, _pullback=mf._pullback_curve):
        got.append(_pullback(*args))
        return got[-1]

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(mf, "_pullback_curve", recording)
        mf._local_manifold(params, chain)
    return got[-1]


def _ladders_agree(params, rng, n_points) -> list:
    """Compare the stacked ladder with the one-radius-at-a-time loop for
    both kinds of leaf at returning points and at the first anchors of
    their chains (F(M) and F^-1(M)).  Returns the outcomes."""
    seen = []
    for i in range(n_points):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        points = [m]
        for kind in ("stable", "unstable"):
            try:
                points.append(mf._Chain(params, m, kind)[1][0])
            except mf.Unsupported:
                pass
        for q in points:
            for kind in ("unstable", "stable"):
                got = _ladder_outcome(_stacked_ladder, params, q, kind)
                assert got == _ladder_outcome(_reference_ladder, params, q,
                                              kind)
                seen.append(got)
    return seen


#: Settings under which the ladder is compared, each with an outcome it
#: must show: the defaults (leaves refused at depth 1 at M and at depth 2
#: at F(M)), sloped seeds with a tolerance that lets the smaller STRICT
#: radii converge a block earlier than the winning one, a floor that
#: refuses every STRICT unstable radius, and a depth cap that nothing
#: reaches the tolerance within.
LADDER_SETTINGS = {
    "default": ({}, lambda out: out[0] == 3.814697265625e-06),
    "depths": ({"_SEED_SLOPE": 0.5, "_TOL": 8e-16},
               lambda out: out[:2] == (3.814697265625e-06, 3)),
    "floor": ({"RHO_MIN": 2.0 ** -17},
              lambda out: str(out[1]).startswith("no admissible radius")),
    "cap": ({"_SEED_SLOPE": 0.5, "_TOL": 0.0, "_MAX_DEPTH": 4},
            lambda out: out[0] == "NoConvergence" and out[2] is not None),
}


@pytest.mark.parametrize("setting", list(LADDER_SETTINGS))
def test_stacked_ladder_equals_the_radius_loop(setting, monkeypatch):
    values, shows = LADDER_SETTINGS[setting]
    for name, value in values.items():
        monkeypatch.setattr(mf, name, value)
    seen = []
    for params in (REF_EX, REF_STRICT):
        seen += _ladders_agree(params, np.random.default_rng(4), 4)
    assert any(shows(out) for out in seen)


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_stacked_ladder_equals_the_radius_loop_on_valid_params(params, seed):
    try:
        _ladders_agree(params, np.random.default_rng(seed), 2)
    except sp.SampleError:
        reject()


def _fold_rung(params, m) -> tuple:
    """The radius that the fold rule gives the unstable leaf at the
    A-point ``m``, and how far the nearest rung lies from its threshold
    (as |log2| of the ratio).  The chain's first anchor z = F^-1(M) lies
    in R4 at |y - t| = l(M)/sigma, charted with l = sup_A l; the seed
    graph of radius r there reaches r * |basis[1, 0]| in y, and the
    ladder keeps the largest radius whose graph stays off the fold."""
    z, ch, _ = mf._Chain(params, m, "unstable")[1]
    assert mc.classify(params, z) is Region.R4
    gap = abs(z[1] - params.t)
    assert gap == pytest.approx(spl.length_scale(params, m) / params.sigma,
                                rel=1e-6)
    assert ch.l == params.wing_half_width
    reach = abs(ch.basis[1, 0])
    r = mf._RHO * mf.default_certificate(params).C3
    while r * reach >= gap:
        r /= 2.0
    return r, min(abs(math.log2(r * reach / gap)),
                  abs(math.log2(2.0 * r * reach / gap)))


def _fold_rule_holds(params, points) -> set:
    """Assert the fold rule at each point; return the rungs found (the
    number of halvings)."""
    r0 = mf._RHO * mf.default_certificate(params).C3
    rungs = set()
    for m in points:
        r, _ = _fold_rung(params, m)
        wu = mf.local_unstable(params, m)
        assert wu.meta["rho_effective"] == r * spl.length_scale(params, m)
        rungs.add(round(math.log2(r0 / r)))
    return rungs


def test_the_ladder_stops_where_the_seed_graph_reaches_the_fold():
    # REF_EX passes at the first radius; on REF_STRICT (sigma = 1e5) the
    # gap to the fold is 1e5 times smaller, and the leaf is 13 halvings
    # down
    for params, rung in ((REF_EX, 0), (REF_STRICT, 13)):
        points = [rp.M for rp in
                  sp.sample_A_points(params, np.random.default_rng(1), 30)]
        assert _fold_rule_holds(params, points) == {rung}


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_the_fold_rule_on_valid_params(params, seed):
    try:
        points = [rp.M for rp in
                  sp.sample_A_points(params, np.random.default_rng(seed), 4)]
    except sp.SampleError:
        reject()
    # a rung within 1 % of its threshold may go either way
    points = [m for m in points if _fold_rung(params, m)[1] > 0.015]
    _fold_rule_holds(params, points)


def test_local_unstable_output_contract():
    rng = np.random.default_rng(6)
    rp = sp.sample_returning_point(REF_STRICT, rng)
    wu = mf.local_unstable(REF_STRICT, rp.M)
    assert wu.kind == "unstable"
    assert wu.meta["lip_bound"] <= 1.0 / 3.0
    # a graph over [-rho, rho] along e_u with slope at most lip_bound
    assert wu.total_length <= (2.0 * wu.meta["rho_effective"]
                               * (1.0 + wu.meta["lip_bound"]))
    # simple: a graph over the unstable axis of the chart it was built in
    ch = chart(REF_STRICT, rp.M)
    u = (wu.points - np.asarray(ch.M)) @ ch.inv_basis[0]
    assert np.all(np.diff(u) > 0.0)
    # base point on the curve
    d = np.min(np.hypot(wu.points[:, 0] - rp.M[0], wu.points[:, 1] - rp.M[1]))
    assert d < 1e-10
    # tangents in the unstable cone at the base point
    cone = spl.unstable_cone(REF_STRICT, rp.M)
    for v in np.diff(wu.points, axis=0):
        assert cone.contains(v)


def test_local_stable_seed_independence(monkeypatch):
    rng = np.random.default_rng(3)
    orb = sp.multi_return_point(REF_EX, rng, [1, 2, 1, 1, 2, 1, 1, 1])
    monkeypatch.setattr(mf, "_SEED_SLOPE", 0.0)
    c1 = mf.local_stable(REF_EX, orb.points[0])
    monkeypatch.setattr(mf, "_SEED_SLOPE", 0.5)
    c2 = mf.local_stable(REF_EX, orb.points[0])
    sup = max(float(np.min(np.hypot(c1.points[:, 0] - q[0],
                                    c1.points[:, 1] - q[1])))
              for q in c2.points)
    assert sup <= 2.0 * c1.meta["tol"] + 1e-12


def test_unstable_invariance_defect():
    rng = np.random.default_rng(11)
    for rp in sp.sample_A_points(REF_STRICT, rng, 5):
        assert mf.unstable_invariance_defect(REF_STRICT, rp.M) <= 1e-6


def test_stable_invariance_defect():
    rng = np.random.default_rng(13)
    rp = sp.sample_returning_point(REF_STRICT, rng)
    assert mf.stable_invariance_defect(REF_STRICT, rp.M) <= 1e-6


def test_invariance_defect_is_measured_inside_the_square(monkeypatch):
    # at this point of a seed-1 benchmark round, just above the bottom
    # edge, the local unstable leaf at F(M) reaches below y = 0, where
    # the mapped leaf of M is clipped to the square; over the whole leaf
    # the defect read that overhang, 2.2e-3
    m = (0.6590961196461185, 0.0010911611885486138)
    anchor = mf._Chain(REF_EX, m, "stable")[1][0]
    assert mf.local_unstable(REF_EX, anchor).points[:, 1].min() < -2e-3
    assert mf.unstable_invariance_defect(REF_EX, m) < 2e-9
    # a leaf at F(M) with no point in the square has nothing to measure
    local = mf._local_manifold

    def shifted(params, chain):
        leaf = local(params, chain)
        if chain.m != m:
            leaf.points = leaf.points + 2.0
        return leaf

    monkeypatch.setattr(mf, "_local_manifold", shifted)
    with pytest.raises(mf.NoConvergence, match="outside the square"):
        mf.unstable_invariance_defect(REF_EX, m)


@pytest.mark.parametrize("kind", ["unstable", "stable"])
def test_invariance_defect_refuses_a_lost_leaf(monkeypatch, kind):
    # a mapped leaf with no piece left in the square is a typed failure
    rng = np.random.default_rng(11)
    m = sp.sample_A_points(REF_STRICT, rng, 1)[0].M
    mapper = "advance_pieces" if kind == "unstable" else "retreat_pieces"
    monkeypatch.setattr(mf, mapper, lambda *args, **kwargs: [])
    defect = (mf.unstable_invariance_defect if kind == "unstable"
              else mf.stable_invariance_defect)
    with pytest.raises(mf.NoConvergence, match="left the square"):
        defect(REF_STRICT, m)


def test_stable_leaf_contraction_exponent():
    # fitted decay of d(f^n x, f^n M), up to the float noise floor,
    # beats 0.9 * |ln lam| / 2
    rng = np.random.default_rng(3)
    orb = sp.multi_return_point(REF_EX, rng, [1, 2, 1, 1, 2, 1, 1, 1])
    M = orb.points[0]
    ws = mf.local_stable(REF_EX, M)
    need = 0.9 * 0.5 * abs(math.log(REF_EX.lam))
    fitted = 0
    for x0 in ws.points[::50][1:8]:
        cur_x, cur_m = tuple(x0), M
        ds = [math.hypot(x0[0] - M[0], x0[1] - M[1])]
        for _ in range(30):
            cur_x, cur_m = apply(REF_EX, cur_x), apply(REF_EX, cur_m)
            if cur_x is None or cur_m is None:
                break
            ds.append(math.hypot(cur_x[0] - cur_m[0], cur_x[1] - cur_m[1]))
        ds = np.asarray(ds)
        k = int(np.argmin(ds)) + 1
        if k < 4:
            continue
        slope = np.polyfit(np.arange(k), np.log(ds[:k]), 1)[0]
        assert -slope >= need
        fitted += 1
    assert fitted >= 3


# --- global manifolds -----------------------------------------------------

def test_global_unstable_corner_is_left_edge():
    gu = mf.global_unstable(REF_EX, (0.0, 0.0), 3)
    assert np.max(np.abs(gu.points[:, 0])) < 1e-12
    assert gu.points[:, 1].min() == pytest.approx(0.0)
    assert gu.points[:, 1].max() == pytest.approx(1.0)


def test_global_stable_extends_past_band_cuts():
    gs = mf.global_stable(REF_EX, (1.0, 1.0), 4)
    assert gs.points[:, 0].min() < 1e-9
    assert gs.points[:, 0].max() == pytest.approx(1.0)
    assert np.max(np.abs(gs.points[:, 1] - 1.0)) < 1e-12


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_piece_walks_raise_above_the_piece_bound(params):
    # short segments across R1 (forward) and across its image column
    # (backward): each maps to one piece, so one step leaves as many
    br = mc.BRANCH[Region.R1]
    (y0, y1), (x0, x1) = br.strip(params), br.column(params)
    rows = [np.array([[0.1, y], [0.2, y]])
            for y in np.linspace(y0, y1, 302)[1:-1]]
    cols = [np.array([[x, 0.4], [x, 0.5]])
            for x in np.linspace(x0, x1, 302)[1:-1]]
    for walk, pieces, name in ((mf.advance_pieces, rows, "forward"),
                               (mf.retreat_pieces, cols, "backward")):
        assert len(walk(params, pieces[:mf._MAX_PIECES], 1)) == mf._MAX_PIECES
        with pytest.raises(mf.Unsupported,
                           match=f"{name} piece walk left 300 pieces at "
                                 f"step 1, more than {mf._MAX_PIECES}"):
            walk(params, pieces, 1)


def test_a_backward_step_cuts_only_at_the_levels_of_its_branch():
    # on REF_EX the R4 column [0.53, 0.97] overlaps the R5 column
    # [0.9, 1]: a segment in R4's band across x = 0.9, or in R5's band
    # across x = 0.97, pulls back whole through its one branch
    for seg, region in (([[0.89, 0.05], [0.91, 0.05]], Region.R4),
                        ([[0.96, 0.8], [0.98, 0.8]], Region.R5)):
        seg = np.array(seg)
        br = mc.BRANCH[region]
        (pre,) = mf.retreat_pieces(REF_EX, [seg], 1)
        for end, want in ((pre[0], seg[0]), (pre[-1], seg[-1])):
            assert tuple(end) == br.inverse(REF_EX, *want)


def test_a_backward_step_keeps_a_part_cut_at_the_parabola():
    # the segment leaves R4's band across the parabola offset 0; the
    # cut point is interpolated along a chord of the parabola, so its
    # offset lies just below 0, and the part inside still pulls back
    seg = np.linspace((0.80, 0.0), (0.86, 0.10), 50)
    (pre,) = mf.retreat_pieces(REF_EX, [seg], 1)
    assert tuple(pre[0]) == mc.BRANCH[Region.R4].inverse(REF_EX, *seg[0])
    assert mc.classify(REF_EX, tuple(pre[len(pre) // 2])) is Region.R4


def _walk_end_gaps(params, points, monkeypatch) -> list:
    """For each piece walk of the global leaves (n = 1, 2) and of the
    invariance defects at ``points``: the least distance between ends of
    two different pieces it returned (inf for a single piece)."""
    walks = []

    def recording(walk):
        def wrapped(*args):
            walks.append(walk(*args))
            return walks[-1]
        return wrapped

    for name in ("advance_pieces", "retreat_pieces"):
        monkeypatch.setattr(mf, name, recording(getattr(mf, name)))
    queries = [(leaf, n) for leaf in (mf.global_unstable, mf.global_stable)
               for n in (1, 2)]
    queries += [(mf.unstable_invariance_defect,),
                (mf.stable_invariance_defect,)]
    for m in points:
        for query, *n in queries:
            try:
                query(params, m, *n)
            except mc.HorseshoeError:
                pass
    return [min((math.dist(a, b) for p, q in itertools.combinations(w, 2)
                 for a in (p[0], p[-1]) for b in (q[0], q[-1])),
                default=math.inf) for w in walks]


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_piece_walks_leave_no_abutting_pieces(params, monkeypatch):
    # a walk cuts a piece only where it leaves a strip (forward) or its
    # branch's band (backward), or at the fold, which local leaves do not
    # reach: so no walk leaves two pieces to be joined
    points = [rp.M for rp in sp.sample_A_points(
        params, np.random.default_rng(0), 6)]
    gaps = _walk_end_gaps(params, points, monkeypatch)
    assert len(gaps) >= 24 and min(gaps) < math.inf
    assert min(gaps) > mf._END_TOL


@given(params=valid_params(), seed=integers(0, 2 ** 16))
@settings(max_examples=5, deadline=None)
def test_piece_walks_leave_no_abutting_pieces_on_valid_params(params, seed):
    try:
        points = [rp.M for rp in sp.sample_A_points(
            params, np.random.default_rng(seed), 2)]
    except sp.SampleError:
        reject()
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert min(_walk_end_gaps(params, points, monkeypatch),
                   default=math.inf) > mf._END_TOL


def test_resample_keeps_a_zero_length_polyline():
    pts = np.full((3, 2), 0.5)
    assert mf._resample_count(pts, 10) is pts


# --- verticality ----------------------------------------------------------

def test_vertical_segment_passes():
    y = np.linspace(0.0, 1.0, 101)
    seg = np.column_stack([np.full_like(y, 0.3), y])
    rep = mf.eps1_vertical_check(seg, 0.5)
    assert rep.ok
    assert rep.max_slope < 1e-12


def test_parabolic_arc_fails_below_curvature():
    c = 5.0
    y = np.linspace(-0.1, 0.1, 201)
    arc = np.column_stack([c * y * y, y])
    assert not mf.eps1_vertical_check(arc, 2.0 * c - 1.0).ok
    assert mf.eps1_vertical_check(arc, 2.0 * c + 1.0).ok
    # listed top-down, the curve is read bottom-up
    assert (mf.eps1_vertical_check(arc[::-1], 2.0 * c + 1.0)
            == mf.eps1_vertical_check(arc, 2.0 * c + 1.0))


def test_non_graph_curve_rejected():
    y = np.linspace(0.0, 1.0, 50)
    bad = np.column_stack([y, np.sin(4.0 * np.pi * y)])
    with pytest.raises(mf.NotGraphLike):
        mf.eps1_vertical_check(bad, 0.5)


def test_iterated_verticality_through_r4_passages():
    p = REF_STRICT
    h = p.w_max / p.sigma
    y = np.linspace(p.t - h, p.t + h, 513)
    g0 = 0.3 + 0.2 * (y - p.t) + 0.2 * (y - p.t) ** 2
    reports = mf.iterate_vertical_curve(p, g0)
    assert len(reports) == 20
    assert all(r.ok for r in reports)


# --- leaf geometry kernels -------------------------------------------------
# The loops the kernels replaced, kept verbatim as the reference.

def _ref_point_segment_distances(poly, p):
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


def _ref_segment_intersections(a0, b0, a, b):
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


def _ref_polyline_intersections(poly1, poly2):
    a2, b2 = poly2[:-1], poly2[1:]
    return [(i, j, pt, ang) for i in range(len(poly1) - 1)
            for j, pt, ang in _ref_segment_intersections(
                poly1[i], poly1[i + 1], a2, b2)]


def _collinear_pairs(rng, count):
    """Segment pairs on one line of irrational-looking slope, overlapping
    or far apart; the rounded crossing test accepts some far-apart ones."""
    out = []
    for _ in range(count):
        k, c = rng.uniform(0.1, 3.0), rng.uniform(0.0, 1.0)
        xs = np.sort(rng.uniform(0.0, 1.0, 4))
        if rng.random() < 0.5:
            xs = xs[[0, 2, 1, 3]]            # overlapping segments
        pts = np.column_stack([xs, c + k * xs])
        out.append((pts[:2], pts[2:]))
    return out


def _kernel_cases(rng):
    """Polyline pairs: random walks, pieces of 2 points, zero-length
    segments, collinear pairs and endpoint touches inside the 1e-12
    slack of the crossing test."""
    cases = []
    for n1, n2 in ((2, 2), (2, 40), (40, 2), (130, 257), (300, 60)):
        p1 = np.cumsum(rng.normal(scale=0.05, size=(n1, 2)), axis=0)
        p2 = np.cumsum(rng.normal(scale=0.05, size=(n2, 2)), axis=0)
        cases.append((p1, p2))
        cases.append((np.repeat(p1, 2, axis=0), p2))   # zero-length segs
    # the last segments cross, and each last run (5 segments: runs of 2)
    # repeats its last segment
    line = np.linspace(0.0, 1.0, 6)
    cases.append((np.column_stack([line, np.zeros(6)]),
                  np.column_stack([np.full(6, 0.9), line - 0.9])))
    cases += _collinear_pairs(rng, 400)
    for _ in range(200):
        a, d = rng.uniform(0.0, 1.0, 2), rng.normal(size=2)
        e = rng.normal(size=2)
        s = rng.uniform(-3e-12, 3e-12)
        end = a + d
        p1 = np.array([a, end])
        p2 = np.array([end + s * d, end + s * d + e])
        cases.append((p1, p2))
    return cases


@pytest.fixture(params=[None, 7], ids=["block", "block7"])
def block(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(mf, "_BLOCK", request.param)


def test_intersection_kernel_equals_the_loop(block):
    rng = np.random.default_rng(20261018)
    cases = _kernel_cases(rng)
    accepted_far = 0
    for p1, p2 in cases:
        got = mf._polyline_intersections(p1, p2)
        assert got == _ref_polyline_intersections(p1, p2)
        if len(p1) == 2 and got and \
                np.all(np.max(p1, axis=0) < np.min(p2, axis=0) - 1e-3):
            accepted_far += 1
    # collinear pairs more than 1e-3 apart that the rounded test accepts:
    # a bounding-box pass alone would drop them
    assert accepted_far >= 1


def _distance_cases(rng):
    """(polyline, points) pairs that the run bounds of the distance
    kernel must not change: long walks, points on the polyline and
    equidistant from two runs, zero-length segments, non-finite
    vertices, large coordinates and polylines of one to three segments."""
    cases = []
    for n in (257, 600, 1025):
        poly = np.cumsum(rng.normal(scale=0.02, size=(n, 2)), axis=0)
        mids = poly[:-1] + 0.5 * (poly[1:] - poly[:-1])
        cases += [(poly, rng.uniform(-1.0, 1.0, (200, 2))),
                  (poly, np.vstack([poly, mids])),          # on the polyline
                  (np.repeat(poly, 2, axis=0), poly[::5]),  # zero-length
                  (poly + 1e6, poly[::3] + 1e6 + rng.normal(
                      scale=1e-3, size=poly[::3].shape))]
    # a U: two straight runs at distance 1 from every point of y = 0
    xs = np.linspace(0.0, 1.0, 17)
    u = np.vstack([np.column_stack([xs, np.ones(17)]),
                   np.column_stack([xs[::-1], -np.ones(17)])])
    cases.append((u, np.column_stack([np.linspace(0.0, 1.0, 65),
                                      np.zeros(65)])))
    cases.append((np.zeros((6, 2)), rng.uniform(-1.0, 1.0, (20, 2))))
    for bad in (np.nan, np.inf):
        poly = np.cumsum(rng.normal(scale=0.05, size=(300, 2)), axis=0)
        poly[137, 1] = bad
        cases.append((poly, rng.uniform(-1.0, 1.0, (40, 2))))
    pts = rng.uniform(-1.0, 1.0, (30, 2))
    pts[[3, 7]] = [[np.nan, 0.0], [0.0, -np.inf]]
    cases.append((u, pts))
    # squares that overflow: the pairs of the far runs are NaN
    xs = np.linspace(0.0, 1.0, 18)
    far = np.vstack([np.column_stack([xs, np.ones(18)]),
                     np.column_stack([xs[::-1], -np.ones(18)]),
                     [[k * 1e155, k % 2 * 1e155] for k in range(1, 11)]])
    cases.append((far, pts[:3]))
    # the end of segment 0, a + (b - a), rounds to 1.1e-11 nearer the
    # origin than b: its pair beats segment 2 at distance h, whose box
    # is nearer than segment 0's
    b = -0.0012877551020408164
    end = -1e6 + (b + 1e6)
    h = -0.5 * (b + end)
    assert b < -h < end < 0.0
    cases.append((np.array([[-1e6, 0.0], [b, 0.0], [-1.0, h], [1.0, h]]),
                  np.zeros((1, 2))))
    for n in (2, 3, 4):
        cases.append((rng.uniform(-1.0, 1.0, (n, 2)),
                      rng.uniform(-1.0, 1.0, (50, 2))))
    return cases


def test_distance_kernel_equals_the_loop(block):
    rng = np.random.default_rng(20261019)
    cases = [(p1, pts) for p1, p2 in _kernel_cases(rng)[::7]
             for pts in (p2, p2[:1], p2[:0], rng.uniform(-1.0, 1.0, (50, 2)))]
    cases += _distance_cases(rng)
    # a REF_EX unstable invariance defect: the leaf at the anchor against
    # the mapped pieces of the leaf at M
    m = sp.sample_returning_point(REF_EX, np.random.default_rng(2)).M
    other, _, block = mf._Chain(REF_EX, m, "stable")[1]
    leaf = mf.local_unstable(REF_EX, other).points
    cases += [(piece, leaf) for piece in mf.advance_pieces(
        REF_EX, [mf.local_unstable(REF_EX, m).points], len(block))]
    for p1, pts in cases:
        with np.errstate(invalid="ignore", over="ignore"):
            want = [float(np.min(_ref_point_segment_distances(p1, q)))
                    for q in pts]
            got = mf._polyline_distances(p1, pts)
        assert got.shape == (len(pts),)
        assert got.tobytes() == np.array(want, dtype=float).tobytes()


def test_distance_kernel_skips_most_pairs(monkeypatch):
    # the run bounds leave the per-pair formula under a tenth of the
    # point-segment pairs of the invariance defects
    counts = {"pairs": 0, "evaluated": 0}
    kernel, pairs = mf._polyline_distances, mf._pair_distances

    def counting_kernel(poly, pts):
        counts["pairs"] += (len(poly) - 1) * len(np.reshape(pts, (-1, 2)))
        return kernel(poly, pts)

    def counting_pairs(*args):
        out = pairs(*args)
        counts["evaluated"] += out.size
        return out

    monkeypatch.setattr(mf, "_polyline_distances", counting_kernel)
    monkeypatch.setattr(mf, "_pair_distances", counting_pairs)
    rng = np.random.default_rng(4)
    for rp in sp.sample_A_points(REF_EX, rng, 2):
        mf.unstable_invariance_defect(REF_EX, rp.M)
        mf.stable_invariance_defect(REF_EX, rp.M)
    assert counts["pairs"] > 100_000
    assert counts["evaluated"] < 0.1 * counts["pairs"]


@pytest.mark.parametrize("kind", ["unstable", "stable"])
def test_invariance_defect_charts_m_and_its_anchor_once(monkeypatch, kind):
    seen = _count_frames(monkeypatch)
    defect = (mf.unstable_invariance_defect if kind == "unstable"
              else mf.stable_invariance_defect)
    rng = np.random.default_rng(9)
    for rp in sp.sample_A_points(REF_EX, rng, 2):
        other_kind = "stable" if kind == "unstable" else "unstable"
        other = mf._Chain(REF_EX, rp.M, other_kind)[1][0]
        seen.clear()
        defect(REF_EX, rp.M)
        assert (seen[rp.M], seen[other]) == (1, 1)


# --- bracket --------------------------------------------------------------

def test_bracket_of_point_with_itself():
    m = (0.79, 0.005)
    br = mf.bracket(REF_EX, m, m)
    assert br.point[0] == pytest.approx(m[0], abs=1e-9)
    assert br.point[1] == pytest.approx(m[1], abs=1e-9)


def test_bracket_corner_leaves():
    # the stable leaf of (1,1) is the top edge, the unstable leaf of
    # (0,0) the left edge; they meet at (0,1)
    br = mf.bracket(REF_EX, (1.0, 1.0), (0.0, 0.0))
    assert br.point[0] == pytest.approx(0.0, abs=1e-9)
    assert br.point[1] == pytest.approx(1.0, abs=1e-9)
    assert br.angle == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert not br.near_tangent
    # the bottom edge ends below the unstable leaf of (1,1), which
    # starts at the floor of R5' (about 1/3)
    with pytest.raises(mf.NoIntersection):
        mf.bracket(REF_EX, (0.0, 0.0), (1.0, 1.0))


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_global_unstable_corner_starts_at_the_r5_floor(params):
    floor = mc._band_floor(params, mc.BRANCH[Region.R5])
    gu = mf.global_unstable(params, (1.0, 1.0), 3)
    x, y = gu.points.T
    assert np.all(x == 1.0) and np.all(np.diff(y) > 0.0)
    assert (y[0], y[-1]) == (floor, 1.0)
    # below the floor the right edge has no preimage
    assert all(mc.apply_inverse(params, (1.0, v)) is None
               for v in (0.0, 0.5 * floor, floor - 1e-9))
    # every point above the floor has one; at the floor itself the float
    # inverse on REF_STRICT rounds the preimage below the strip, since
    # y + sigma - 1 keeps y to about 1.5e-11 at sigma = 1e5
    assert all(mc.apply_inverse(params, (1.0, float(v))) is not None
               for v in y[1:])


# --- mixing ---------------------------------------------------------------

def test_mixing_left_edge_disk_immediate():
    rep = mf.mixing_times(REF_EX, mf.Disk((0.0, 0.5), 0.75))
    assert rep["n_plus"] == 0


def test_mixing_small_disk():
    rep = mf.mixing_times(REF_EX, mf.Disk((0.05, 0.5), 0.05))
    assert 0 < rep["n_plus"] <= 50
    assert rep["n_minus"] <= 50
    arc = rep["arc_plus"]
    assert arc[:, 1].min() <= 1e-9 and arc[:, 1].max() >= 1.0 - 1e-9


def test_mixing_names_the_iterate_where_the_pieces_ran_out():
    # the disk's one stable seed is a local leaf at y ~ 0.504 that lies
    # in no image band, so the backward search has no piece at step 1
    disk = mf.Disk((0.8335273530044085, 0.5247774274049295),
                   0.08806052667550349)
    with pytest.raises(mf.BudgetExhausted,
                       match="^no stable piece is left at iterate 1$"):
        mf.mixing_times(REF_EX, disk)


def test_mixing_consequence():
    # f^n(U) meets V for n = n_plus(U) + n_minus(V): the full vertical
    # arc of f^(n_plus)(U) crosses the full horizontal arc of
    # f^(-n_minus)(V)
    u = mf.Disk((0.05, 0.5), 0.05)
    v = mf.Disk((0.5, 0.45), 0.05)
    _, arc_u = mf._mixing_search(REF_EX, u, "unstable")
    _, arc_v = mf._mixing_search(REF_EX, v, "stable")
    assert mf._polyline_intersections(arc_u, arc_v)


# --- non-expansive pairs --------------------------------------------------

def test_nonexpansive_pair_strict():
    rep = mf.nonexpansive_pair(REF_STRICT, 1e-3)
    assert rep.A != rep.B
    assert rep.separation >= 1e-6
    assert rep.sup_dist <= 1e-3
    assert rep.horizon == 50
    # exact coordinates symmetric about the tangency abscissa
    q = Fraction(REF_STRICT.q)
    assert rep.A_exact[0] - q == q - rep.B_exact[0]
    assert rep.A_exact[1] == 0 == rep.B_exact[1]


def test_nonexpansive_pair_large_delta():
    rep = mf.nonexpansive_pair(REF_EX, 3.0)
    assert rep.separation > 0.0
    assert rep.sup_dist <= 3.0


def test_nonexpansive_pair_small_delta_ladder():
    # one extra left-band rung divides the separation by sqrt(1/lam)
    rep = mf.nonexpansive_pair(REF_STRICT, 1e-6)
    assert 0.0 < rep.separation <= 0.9e-6
    assert rep.sup_dist <= 1e-6


def test_nonexpansive_rejects_bad_delta():
    with pytest.raises(ValueError):
        mf.nonexpansive_pair(REF_EX, 0.0)
    with pytest.raises(mf.SearchFailure):
        mf.nonexpansive_pair(REF_STRICT, 1e-300)


def test_nonexpansive_exact_backward_chain():
    # the exact backward orbit really threads the image bands for the
    # whole horizon (this is what float64 iteration cannot do)
    rep = mf.nonexpansive_pair(REF_STRICT, 1e-3)
    pf = dataclasses.replace(REF_STRICT, **{
        f.name: Fraction(getattr(REF_STRICT, f.name))
        for f in dataclasses.fields(REF_STRICT)})
    cur = rep.A_exact
    for _ in range(50):
        cur = mc.apply_inverse(pf, cur)
        assert cur is not None
    assert float(abs(cur[0] - Fraction(1, 2))) < REF_STRICT.lam

