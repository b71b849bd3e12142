"""Constructive samplers for points of the invariant set.

Rejection sampling of the square almost never hits the invariant set
(its stable-direction thickness decays like lam^n), so points with
prescribed itineraries are built explicitly instead and then verified
by direct iteration, each itinerary read from the one walk that checks
the point's returns:

* a point of the tangency window A escaping the bottom strip after
  exactly ``n1`` steps and landing back in A one step later is obtained
  by placing its ordinate at ``(t + w/sigma) * sigma**-n1`` and choosing
  the wing coordinate ``w`` so that the return height ``c*w**2 - u``
  falls inside the bottom strip;
* a backward chain through the strips R4 <- R3 <- R5 is forced by
  choosing the parabola offset of the seed as ``lam * x`` with ``x`` in
  the R3 image band, so every backward step lands in a genuine strip;
* orbits with several consecutive returns to A are assembled by
  back-propagating the required return heights through the wing
  coordinates (a short fixed-point sweep, since the couplings are
  O(lam) small).

All samplers draw from a caller-provided ``numpy.random.Generator`` and
raise :class:`SampleError` only if verification keeps failing, which
for valid parameters indicates a bug rather than bad luck.
Numerical settings: ``_UNSTABLE_OCTAVES``, ``_STABLE_OCTAVES`` and
``_MAX_TRIES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import map_core as mc
from .map_core import MapParams, Region, classify, apply, in_A


_UNSTABLE_OCTAVES = 12     # dyadic distance scales of unstable pairs
_STABLE_OCTAVES = 10       # and of stable pairs
_MAX_TRIES = 200           # constructions a sampler verifies before failing


class SampleError(mc.HorseshoeError, RuntimeError):
    """A constructive sampler failed verification repeatedly."""


@dataclass
class ReturningPoint:
    """A verified point of A together with its first-return data."""

    M: tuple
    n_escape: int          # steps inside R1 before entering R4
    n_return: int          # first-return time to A (= n_escape + 1)
    M_return: tuple
    backward_depth: int    # verified backward f-steps staying in strips


def sample_returning_point(params: MapParams, rng: np.random.Generator,
                           n1: int | None = None) -> ReturningPoint:
    """A random point of A whose first return to A happens at n1 + 1.

    The seed's parabola offset is taken in ``lam * [R3-band]`` so the
    backward orbit runs R4 <- R3 <- R5 for at least three steps.
    """
    p = params
    for _ in range(_MAX_TRIES):
        n_esc = n1 if n1 is not None else int(rng.integers(1, 6))
        # wing coordinate of the R4 visit: return height c*w^2 - u must
        # land in [0, 1/sigma); u <= lam^2 is negligible but kept exact.
        y_ret_target = float(rng.uniform(0.1, 0.9)) * p.inv_sigma
        sign = 1.0 if rng.random() < 0.5 else -1.0
        # seed abscissa: offset K0 = lam * x_tilde with x_tilde in the R3
        # image band forces the backward chain.
        k0 = _chain_offset(p, rng)
        side = 1.0 if rng.random() < 0.5 else -1.0     # of x0 about q
        # two-pass fixed point: w depends on x0 through u, x0 on w not at
        # all, but u depends on x0 which depends on y0 which depends on w.
        w = sign * math.sqrt(y_ret_target / p.c)
        for _ in range(4):
            y0 = (p.t + w / p.sigma) * p.sigma ** (-n_esc)
            x0 = p.q + side * math.sqrt((k0 + y0) / p.c)
            u = p.lam ** (n_esc + 1) * x0
            w = sign * math.sqrt((y_ret_target + u) / p.c)
        if abs(w) > p.w_max or not (0.0 < x0 < 1.0):
            continue
        m0 = (x0, y0)
        if not in_A(p, m0):
            continue
        try:
            n_ret, orbit = mc.first_return(p, m0, n_esc + 2)
        except mc.NoReturn:
            continue
        # n_esc - 1 more steps in R1, one into R4, then back in A
        if n_ret != n_esc + 1 or [classify(p, q) for q in orbit[1:-1]] \
                != [Region.R1] * (n_esc - 1) + [Region.R4]:
            continue
        bd = len(list(mc.iterates(p, m0, 10, False)))
        if bd < 3:
            continue
        return ReturningPoint(M=m0, n_escape=n_esc, n_return=n_ret,
                              M_return=orbit[-1], backward_depth=bd)
    raise SampleError(f"no returning point found in {_MAX_TRIES} tries")


def sample_A_points(params: MapParams, rng: np.random.Generator,
                    count: int) -> list:
    """``count`` verified returning points of A (convenience wrapper)."""
    return [sample_returning_point(params, rng) for _ in range(count)]


@dataclass
class MultiReturnOrbit:
    """An A-point whose orbit makes several consecutive returns to A."""

    M: tuple
    visit_times: list      # forward times of the A-visits, 0 = seed
    points: list           # the full forward orbit up to the last visit


def multi_return_point(params: MapParams, rng: np.random.Generator,
                       escape_times: list) -> MultiReturnOrbit:
    """Build a point of A with consecutive escape times ``escape_times``.

    ``escape_times = [n_1, ..., n_m]`` requests an orbit visiting A at
    forward times 0, n_1+1, n_1+n_2+2, ...; each leg spends exactly
    n_i steps in the bottom strip before crossing the tangency strip.
    At most ``_MAX_TRIES`` constructions are verified.
    """
    p = params
    m = len(escape_times)
    if m < 1:
        raise ValueError("escape_times must be nonempty")
    for _ in range(_MAX_TRIES):
        signs = [1.0 if rng.random() < 0.5 else -1.0 for _ in range(m)]
        y_final = float(rng.uniform(0.2, 0.8)) * p.inv_sigma
        k0 = _chain_offset(p, rng)
        sign0 = 1.0 if rng.random() < 0.5 else -1.0
        ws = [0.0] * m
        xs = [0.0] * (m + 1)   # xs[i] = abscissa of the i-th A visit
        xs[0] = p.q
        # fixed-point sweeps: couplings through u are O(lam^(n+1)).
        for _ in range(6):
            for i in range(m - 1, -1, -1):
                if i == m - 1:
                    y_next = y_final
                else:
                    y_next = (p.t + ws[i + 1] / p.sigma) * p.sigma ** (-escape_times[i + 1])
                u = p.lam ** (escape_times[i] + 1) * xs[i]
                val = y_next + u
                if val < 0.0:
                    val = 0.0
                ws[i] = signs[i] * math.sqrt(val / p.c)
            y0 = (p.t + ws[0] / p.sigma) * p.sigma ** (-escape_times[0])
            xs[0] = p.q + sign0 * math.sqrt((k0 + y0) / p.c)
            for i in range(1, m + 1):
                xs[i] = p.q + ws[i - 1]
        if any(abs(w) > p.w_max for w in ws) or not (0.0 < xs[0] < 1.0):
            continue
        m0 = (xs[0], y0)
        if not in_A(p, m0):
            continue
        # verify by direct iteration, one leg at a time
        pts = [m0]
        for n_esc in escape_times:
            leg = list(mc.iterates(p, pts[-1], n_esc + 1))
            pts += leg
            if len(leg) <= n_esc or not in_A(p, pts[-1]):
                break
        else:
            visits = list(accumulate((n + 1 for n in escape_times),
                                     initial=0))
            return MultiReturnOrbit(M=m0, visit_times=visits, points=pts)
    raise SampleError(f"no multi-return orbit found in {_MAX_TRIES} tries")


def _chain_offset(params: MapParams, rng: np.random.Generator) -> float:
    """Parabola offset lam * x with x in the R3 image band (the image of
    a random abscissa of the R5 image band), which forces the backward
    chain R4 <- R3 <- R5."""
    z = float(rng.uniform(*mc.BRANCH[Region.R5].column(params)))
    r3 = mc.BRANCH[Region.R3]
    return params.lam * r3.forward(params, z, r3.strip(params)[0])[0]


def _dyadic_gap(rng: np.random.Generator, width: float, n_octaves: int):
    """A distance 2^-k among ``n_octaves`` dyadic scales below ``width``,
    or None when the drawn scale does not fit."""
    k_min = int(math.ceil(-math.log2(width / 2.0)))
    d = 2.0 ** (-(k_min + int(rng.integers(0, n_octaves))))
    return None if d >= width else d


def holder_pairs_unstable(params: MapParams, rng: np.random.Generator,
                          count: int) -> list:
    """Point pairs of A at dyadically spread distances, for regularity
    fits of the unstable direction.

    Both points of a pair sit on one parabola whose offset is chosen in
    ``lam * [R3-band]``, so each has a guaranteed backward chain and a
    well-resolved unstable direction.  Pair distances run through
    ``_UNSTABLE_OCTAVES`` dyadic scales below the wing width.
    """
    p = params
    pairs = []
    guard = 0
    while len(pairs) < count and guard < 50 * count:
        guard += 1
        k0 = _chain_offset(p, rng)
        a_lo = math.sqrt(k0 / p.c) * (1.0 + 1e-9)
        a_hi = math.sqrt((k0 + p.inv_sigma) / p.c) * (1.0 - 1e-9)
        d = _dyadic_gap(rng, a_hi - a_lo, _UNSTABLE_OCTAVES)
        if d is None:
            continue
        a = float(rng.uniform(a_lo, a_hi - d))
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        za = (p.q + sgn * a, p.c * a * a - k0)
        zb = (p.q + sgn * (a + d), p.c * (a + d) ** 2 - k0)
        if in_A(p, za) and in_A(p, zb):
            pairs.append((za, zb))
    if len(pairs) < count:
        raise SampleError("could not build enough unstable-direction pairs")
    return pairs


def holder_pairs_stable(params: MapParams, rng: np.random.Generator,
                        count: int) -> list:
    """Point pairs inside the tangency strip R4 at dyadic vertical
    distances, for regularity fits of the stable direction.

    Each point z = (x, t + w/sigma) is chosen so that f(z) lands in A
    (then one more bottom-strip step always exists), which makes the
    stable direction at z resolvable by a short forward pull-back.
    """
    p = params
    pairs = []
    guard = 0
    while len(pairs) < count and guard < 50 * count:
        guard += 1
        x = float(rng.uniform(0.1, 0.9))
        w_lo = math.sqrt(p.lam * x / p.c) * (1.0 + 1e-9)
        w_hi = math.sqrt((p.lam * x + p.inv_sigma) / p.c) * (1.0 - 1e-9)
        d = _dyadic_gap(rng, w_hi - w_lo, _STABLE_OCTAVES)
        if d is None:
            continue
        w = float(rng.uniform(w_lo, w_hi - d))
        sgn = 1.0 if rng.random() < 0.5 else -1.0
        za = (x, p.t + sgn * w / p.sigma)
        zb = (x, p.t + sgn * (w + d) / p.sigma)
        fa, fb = apply(p, za), apply(p, zb)
        if fa is None or fb is None:
            continue
        if in_A(p, fa) and in_A(p, fb):
            pairs.append((za, zb))
    if len(pairs) < count:
        raise SampleError("could not build enough stable-direction pairs")
    return pairs


def sample_nonescaping_points(params: MapParams, rng: np.random.Generator,
                              count: int, horizon: int) -> list:
    """Points of the square whose forward orbit survives ``horizon`` steps.

    Used for coarse map-correctness sweeps: draws from the union of the
    strips (where at least one step is defined) and keeps points that
    survive. Much cheaper than full A-point construction.
    """
    strips = [br.strip(params) for br in mc.BRANCHES]
    out = []
    guard = 0
    while len(out) < count and guard < 50 * count:
        guard += 1
        lo, hi = strips[int(rng.integers(0, len(strips)))]
        pt = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(lo, hi)))
        if len(list(mc.iterates(params, pt, horizon))) == horizon:
            out.append(pt)
    if len(out) < count:
        raise SampleError(f"only {len(out)} of {count} points survived "
                          f"{horizon} steps in {guard} draws")
    return out
