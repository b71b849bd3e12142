import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from horseshoe import map_core as mc
from horseshoe.map_core import REF_EX, REF_STRICT, apply
from horseshoe import manifolds as mf
from horseshoe import sampling as sp
from horseshoe import splitting as spl
from horseshoe.induced import chart


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
    out = mf.graph_transform(p, ch, ch, 1, g)
    assert np.max(np.abs(out.values)) < 1e-14


def test_transform_linear_diagonal_slope_closed_form():
    # s(x) = eps*x maps to eps*(lam/sigma)*x under a diagonal block
    p = REF_EX
    ch = chart(p, (0.0, 0.0))
    grid = np.linspace(-0.01, 0.01, 101)
    g = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=0.3 * grid)
    out = mf.graph_transform(p, ch, ch, 1, g)
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
        fm, chf, k = mf._next_anchor(p, rp.M, ch, "forward")
        rad = 0.5 * 0.0625
        grid = np.linspace(-rad, rad, 257)
        v1 = np.clip(rng.uniform(-0.8, 0.8) * grid
                     + 0.2 * rad * np.sin(3.0 * grid / rad), -rad, rad)
        v1 -= np.interp(0.0, grid, v1)
        v2 = rng.uniform(-0.8, 0.8) * grid
        s1 = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=v1)
        s2 = mf.LipGraph(base=ch, axis="u->s", grid=grid, values=v2)
        o1 = mf.graph_transform(p, ch, chf, k, s1)
        o2 = mf.graph_transform(p, ch, chf, k, s2)
        factor = o1.sup_distance(o2) / s1.sup_distance(s2)
        assert factor <= bound_base ** k * 1.05


def _block_expansions(p, m, chart_m, direction, n=12):
    """(j, f^j(m), expansion) of the first n candidate blocks of the
    anchor search, as the reference: each block's derivative is the
    product of the Jacobians along the walked orbit, multiplied afresh
    from the block's first point."""
    forward = direction == "forward"
    pts = [m, *mc.iterates(p, m, n, forward)]
    out = []
    for j in range(1, len(pts)):
        if mc.classify(p, pts[j]) not in mc.ACTIVE_REGIONS:
            break
        jac = np.eye(2)
        for q in (pts[:j] if forward else pts[j:0:-1]):
            jac = mc.jacobian(p, q) @ jac
        ch = chart(p, pts[j])
        if forward:
            d = np.linalg.inv(ch.inv_basis @ jac @ chart_m.basis)[:, 1]
        else:
            d = (chart_m.inv_basis @ jac @ ch.basis)[:, 0]
        out.append((j, pts[j], float(np.linalg.norm(d))))
    return out


@pytest.mark.parametrize("params", [REF_EX, REF_STRICT], ids=["ex", "strict"])
def test_next_anchor_matches_blockwise_products(params, monkeypatch):
    # a threshold just below a block's expansion must stop the search at
    # that block (when no earlier block reaches it), one just above must
    # pass it: the carried derivative has to match each block's own
    rng = np.random.default_rng(12)
    checked = 0
    for i in range(6):
        m = sp.sample_returning_point(params, rng, n1=1 + i % 5).M
        ch = chart(params, m)
        for direction in ("forward", "backward"):
            best = 0.0
            for j, cur, mu in _block_expansions(params, m, ch, direction):
                if mu <= best * (1 + 1e-9):
                    continue
                best = mu
                monkeypatch.setattr(mf, "_MU_MIN", mu * (1 - 1e-9))
                got, _, k = mf._next_anchor(params, m, ch, direction)
                assert (got, k) == (cur, j)
                monkeypatch.setattr(mf, "_MU_MIN", mu * (1 + 1e-9))
                try:
                    assert mf._next_anchor(params, m, ch, direction)[2] > j
                except mf.Unsupported:
                    pass
                checked += 1
    assert checked >= 24


# --- local manifolds ------------------------------------------------------

def test_axis_leaves_at_corners():
    for m, axis in (((0.0, 0.0), 0), ((1.0, 1.0), 1)):
        wu = mf.local_unstable(REF_EX, m)
        ws = mf.local_stable(REF_EX, m)
        # unstable leaf vertical, stable horizontal, through the corner
        assert np.max(np.abs(wu.points[:, 0] - m[0])) < 1e-12
        assert np.max(np.abs(ws.points[:, 1] - m[1])) < 1e-12


def _count_charts(monkeypatch):
    """Points charted through the ``manifolds`` binding of ``chart``."""
    from collections import Counter
    seen = Counter()

    def counting(params, m):
        seen[m] += 1
        return chart(params, m)

    monkeypatch.setattr(mf, "chart", counting)
    return seen


def test_anchor_chain_charts_each_point_once(monkeypatch):
    # REF_STRICT's unstable leaves need several radii; every radius
    # reads the one chain
    p = REF_STRICT
    rp = sp.sample_returning_point(p, np.random.default_rng(6))
    seen = _count_charts(monkeypatch)
    wu = mf.local_unstable(p, rp.M)
    first = 0.5 * mf.default_certificate(p).C3 * spl.length_scale(p, rp.M)
    assert wu.meta["rho_effective"] <= 0.5 * first
    assert len(seen) >= 2 and set(seen.values()) == {1}
    # a global leaf reads its base leaf from the tail of its own chain
    rp = sp.sample_returning_point(REF_EX, np.random.default_rng(2))
    seen.clear()
    ws = mf.global_stable(REF_EX, rp.M, 2)
    assert ws.meta["steps"] >= 2
    assert len(seen) >= 3 and set(seen.values()) == {1}


def test_local_unstable_output_contract():
    rng = np.random.default_rng(6)
    rp = sp.sample_returning_point(REF_STRICT, rng)
    wu = mf.local_unstable(REF_STRICT, rp.M)
    assert wu.kind == "unstable"
    assert wu.meta["lip_bound"] <= 1.0 / 3.0
    assert wu.total_length <= mf.default_certificate(REF_STRICT).K
    assert wu.is_simple()
    # base point on the curve
    d = np.min(np.hypot(wu.points[:, 0] - rp.M[0], wu.points[:, 1] - rp.M[1]))
    assert d < 1e-10
    # tangents in the unstable cone at the base point
    cone = spl.unstable_cone(REF_STRICT, rp.M)
    for v in np.diff(wu.points, axis=0):
        assert cone.contains(v)


def test_local_stable_seed_independence():
    rng = np.random.default_rng(3)
    orb = sp.multi_return_point(REF_EX, rng, [1, 2, 1, 1, 2, 1, 1, 1])
    c1 = mf.local_stable(REF_EX, orb.points[0], seed_slope=0.0)
    c2 = mf.local_stable(REF_EX, orb.points[0], seed_slope=0.5)
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
    reports = mf.iterate_vertical_curve(p, g0, passages=20, eps1=0.5)
    assert len(reports) == 20
    assert all(r.ok for r in reports)


# --- bracket --------------------------------------------------------------

def test_bracket_of_point_with_itself():
    m = (0.79, 0.005)
    br = mf.bracket(REF_EX, m, m)
    assert br.point[0] == pytest.approx(m[0], abs=1e-9)
    assert br.point[1] == pytest.approx(m[1], abs=1e-9)


def test_bracket_corner_leaves():
    # stable leaf of (0,0) is the bottom edge, unstable leaf of (1,1)
    # the right edge; they meet at (1,0)
    br = mf.bracket(REF_EX, (0.0, 0.0), (1.0, 1.0))
    assert br.point[0] == pytest.approx(1.0, abs=1e-9)
    assert br.point[1] == pytest.approx(0.0, abs=1e-9)
    assert br.angle == pytest.approx(math.pi / 2.0, abs=1e-9)
    assert not br.near_tangent


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


def test_mixing_consequence():
    u = mf.Disk((0.05, 0.5), 0.05)
    v = mf.Disk((0.5, 0.45), 0.05)
    assert mf.mixing_consequence(REF_EX, u, v)


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


# --- serialization --------------------------------------------------------

def test_curve_csv_round_trip(tmp_path):
    wu = mf.local_unstable(REF_EX, (0.0, 0.0))
    path = tmp_path / "wu.csv"
    path.write_text(wu.to_csv())
    lines = path.read_text().splitlines()
    assert lines[0] == "idx,x,y,arclen"
    assert len(lines) == len(wu.points) + 1
    x = float(lines[1].split(",")[1])
    assert x == wu.points[0, 0]


def test_curve_json_fields(tmp_path):
    ws = mf.local_stable(REF_EX, (0.0, 0.0))
    blob = json.loads(ws.to_json())
    assert blob["kind"] == "stable"
    assert len(blob["points"]) == len(ws.points)
    assert blob["meta"]["params"]
