"""Core definition of the piecewise horseshoe map.

The map acts on the unit square and is built from four branches:

* ``R1`` (bottom strip)    : (x, y) -> (lam*x, sigma*y)
* ``R3`` (middle strip)    : (x, y) -> (r3_a - lam*x, 1 - sigma*(y - r3_y0))
* ``R4`` (tangency strip)  : shear model, see below
* ``R5`` (top strip)       : (x, y) -> (lam*x + 1 - lam, sigma*y - sigma + 1)

Everything in between (the strip ``R2`` and the two gaps around ``R4``)
leaves the square in one iterate; those points are reported as escaped.

The ``R4`` branch is a shear model.  Writing ``u = lam*x`` and
``w = sigma*(y - t)``, the image is ``(q + w, c*w**2 - u)``.  Vertical
lines ``{x0} x R4`` are mapped onto arcs of the parabolas
``y = c*(x - q)**2 - lam*x0``, the tangency preimage ``T = (0, t)`` goes
to ``Q = (q, 0)``, and ``|det Df| = lam*sigma`` everywhere.

Each branch is written once, in the table :data:`BRANCHES`: its source
strip, its image band with the coding symbol, and its forward, inverse
and derivative formulas.  The formulas use only ``+ - * /``, ``** 2``
and the scaled-square hook ``csq``, so the same text runs on floats,
numpy arrays, ``Fraction`` parameters (exact arithmetic) and the
interval hulls of :mod:`horseshoe.coding`.  Every other module reads
the branches from this table, with one hand-written step:
``manifolds.iterate_vertical_curve`` writes its return step in the wing
coordinate, where the table's height would cancel digits at large
sigma (its docstring says how).

Orbit segments are walked in one place, :func:`iterates`: the bounded,
lazy sequence of images (or preimages) of a point.  First returns to
A, escapes from R1 and the orbit chains of the leaves are built on
it: no other module steps the map by hand.  A walk's branch itinerary
is read from the points it visits, so no segment is walked twice to
learn it.
Many points at once take one step per call of :func:`step_arrays`, each
on its own branch.  Derivatives along a walk are multiplied in one place
too, :func:`_scaled_products`, as four floats and a power of two: frames,
DF-hat, cone returns, us-balls and Lyapunov exponents read it, and
growth is ln|mantissa v| + e ln 2 (:func:`_log_growth`).
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import astuple, dataclass, field, fields, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "Region",
    "MapParams",
    "Branch",
    "BRANCHES",
    "BRANCH",
    "Certificate",
    "ValidationCheck",
    "ValidationReport",
    "REF_EX",
    "REF_STRICT",
    "classify",
    "apply",
    "apply_inverse",
    "jacobian",
    "jacobian_inverse",
    "step_arrays",
    "iterates",
    "first_return",
    "float_range_steps",
    "leave_r1",
    "parabola_offset",
    "leaf_tangent",
    "in_A",
    "validate",
    "closed_form_gamma",
    "default_certificate",
    "HorseshoeError",
    "OutOfDomain",
    "OrbitEscapes",
    "NoReturn",
    "IterationCap",
]

ARCTAN_PI_10 = math.atan(math.pi / 10.0)
CHI = 1.0   # configured cone angle constant of the ``estimc3`` check

#: Exact for ``Fraction`` fields; against a float it rounds to 2.0/3.0.
_TWO_THIRDS = Fraction(2, 3)


class HorseshoeError(Exception):
    """Base of every error this package raises on purpose.  Each subclass
    also keeps the built-in base (``ValueError`` or ``RuntimeError``) it
    has always had, so existing handlers still catch it."""


class OutOfDomain(HorseshoeError, ValueError):
    """Operation requested at a point outside its domain of definition."""


class OrbitEscapes(HorseshoeError, RuntimeError):
    """The orbit needed by an operation leaves the implemented branches."""

    def __init__(self, direction: str, step: int):
        self.direction = direction
        self.step = step
        super().__init__(f"orbit escapes ({direction}) at step {step}")


class NoReturn(HorseshoeError, RuntimeError):
    """The forward orbit escapes before returning to the tangency window."""


class IterationCap(HorseshoeError, RuntimeError):
    """A loop that ends within a known number of steps reached that cap."""

    def __init__(self, what: str, step: int):
        self.what = what
        self.step = step
        super().__init__(f"{what}: still running at step {step}")


class Region(Enum):
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"
    GAP34_LOWER = "Gap34lower"
    GAP34_UPPER = "Gap34upper"
    OUTSIDE = "Outside"

    # members are singletons: hash by identity, not Enum's Python __hash__
    __hash__ = object.__hash__


#: Regions on which the map (and its derivative) is defined.
ACTIVE_REGIONS = frozenset({Region.R1, Region.R3, Region.R4, Region.R5})

_JSON_KEYS = {
    "lam": "lambda",
    "sigma": "sigma",
    "c": "c",
    "q": "q",
    "t": "t",
    "w_max": "w_max",
    "r3_y0": "r3_y0",
    "r3_a": "r3_a",
    "b": "b",
}


@dataclass(frozen=True)
class MapParams:
    """Parameter tuple of the horseshoe map.

    lam      contraction rate, 0 < lam < 1/3
    sigma    expansion rate, sigma > 3
    c        curvature of the image parabolas
    q        abscissa of the tangency point Q = (q, 0)
    t        ordinate of the tangency preimage T = (0, t)
    w_max    half-width of the parabola wings (R4 half-height is w_max/sigma)
    r3_y0    bottom ordinate of strip R3 (height 1/sigma)
    r3_a     right abscissa of the image band R3' = [r3_a-lam, r3_a] x [0,1]
    b        bound on the exponent ratio -ln lam / ln sigma

    The fields may also be ``Fraction``s, which makes the map exact.
    Derived attributes: ``inv_sigma`` = 1/sigma, ``h`` = w_max/sigma (the
    half-height of the R4 strip) and ``r5_y0`` (bottom of the R5 strip).
    """

    lam: float
    sigma: float
    c: float
    q: float
    t: float
    w_max: float
    r3_y0: float
    r3_a: float
    b: float

    def __post_init__(self):
        # Derived quantities, computed once.  Set in the constructor (not
        # cached lazily) so attribute reads stay on the fast path.
        put = object.__setattr__
        put(self, "inv_sigma", 1 / self.sigma)
        put(self, "h", self.w_max / self.sigma)          # R4 half-height
        put(self, "r5_y0", 1 - _TWO_THIRDS / self.sigma)  # R5 bottom edge
        # (level, region, branch) from the bottom of the square up:
        # ordinates up to a level, and above the previous one, lie in its
        # region, so ties at strip edges go to the region below.
        ladder = []
        for br in BRANCHES:
            lo, hi = br.strip(self)
            if br.gap_below is not None:
                ladder.append((lo, br.gap_below, None))
            ladder.append((hi, br.region, br))
        put(self, "_ladder", tuple(ladder))
        put(self, "_columns", {br: br.column(self) for br in BRANCHES})
        # (symbol, branch, x_lo, x_hi, floor or None) of every piece of the
        # coding bands: the parabolic band is split at the fold abscissa q
        pieces = []
        for br in BRANCHES:
            lo, hi = self._columns[br]
            floor = _band_floor(self, br) if br.floor else None
            edges = (lo, self.q, hi) if br.parabolic else (lo, hi)
            pieces += [(sym, br, a, b, floor) for sym, a, b
                       in zip(br.symbols, edges, edges[1:])]
        put(self, "_bands", tuple(pieces))

    def __reduce__(self):
        # pickle the fields only: the derived attributes refer to the
        # branch table, and the constructor rebuilds them
        return type(self), astuple(self)

    @property
    def wing_half_width(self) -> float:
        """Largest |x - q| over the tangency window A (spec convention).

        This is the half-width of the parabolic image region at the top of
        the bottom strip, sqrt((1/sigma + lam)/c).
        """
        return math.sqrt((self.inv_sigma + self.lam) / self.c)

    def to_json(self) -> str:
        return json.dumps({j: getattr(self, a) for a, j in _JSON_KEYS.items()}, indent=2)

    @cached_property
    def digest(self) -> str:
        """First 16 hex digits of the SHA-256 of :meth:`to_json`, made
        once; leaf metadata names the parameter set by it."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# The branch table
# ---------------------------------------------------------------------------

def _csq(c, w):
    """Scaled square ``c*w**2`` of the parabolic branch, multiplied left
    to right; interval hulls pass a hook that squares exactly first."""
    return c * w * w


def parabola_offset(params: MapParams, p) -> float:
    """Offset K such that ``p`` lies on the parabola y = c*(x-q)**2 - K.

    This is the coordinate of the parabolic band R4' (it equals lam*x
    at the preimage), so it works on every arithmetic of the table.
    Floats and arrays square by correctly rounded multiplication (a
    float ``** 2`` is libm ``pow``); intervals keep their exact ``** 2``."""
    x, y = p
    d = x - params.q
    sq = d * d if isinstance(d, (float, np.ndarray)) else d ** 2
    return params.c * sq - y


def _r4_forward(p, x, y, csq=_csq):
    w = p.sigma * (y - p.t)
    return p.q + w, csq(p.c, w) - p.lam * x


def _r4_derivative(p, x, y):
    w = p.sigma * (y - p.t)
    return (0, p.sigma), (-p.lam, 2 * p.c * p.sigma * w)


def _r4_derivative_inverse(p, x, y):
    w = p.sigma * (y - p.t)
    det = p.lam * p.sigma
    return (2 * p.c * p.sigma * w / det, -p.sigma / det), (p.lam / det, 0)


@dataclass(frozen=True, eq=False)
class Branch:
    """One branch of the map.

    ``strip`` and ``column`` give the source strip's y-range and the image
    band's x-range for a parameter set (R4's is the float image of its
    strip's edges, which q -/+ w_max may miss by an ulp).  ``symbols``
    are the coding symbols of the image band, left to right: the
    parabolic band R4' is
    split at the fold abscissa q into a left wing (2) and a right wing
    (1), and is also bounded by its offset, 0 <= parabola_offset <= lam.
    A ``floor`` band does not reach down to y = 0: it starts at the image
    of the strip's lower edge (R5' at about 1/3).  ``gap_below`` is the
    escaping region between this strip and the one below.  The formulas
    take ``(params, x, y)``; ``forward`` also takes the ``csq`` hook.
    """

    region: Region
    gap_below: Region | None
    symbols: tuple
    strip: Callable
    column: Callable
    forward: Callable
    inverse: Callable
    derivative: Callable
    derivative_inverse: Callable
    parabolic: bool = False
    floor: bool = False


def _straight_derivative(p, x, y):
    return (p.lam, 0), (0, p.sigma)


def _straight_derivative_inverse(p, x, y):
    return (1 / p.lam, 0), (0, 1 / p.sigma)


#: The four branches, bottom strip first.
BRANCHES = (
    Branch(Region.R1, None, (0,),
           strip=lambda p: (0, p.inv_sigma),
           column=lambda p: (0, p.lam),
           forward=lambda p, x, y, csq=_csq: (p.lam * x, p.sigma * y),
           inverse=lambda p, x, y: (x / p.lam, y / p.sigma),
           derivative=_straight_derivative,
           derivative_inverse=_straight_derivative_inverse),
    Branch(Region.R3, Region.R2, (2,),
           strip=lambda p: (p.r3_y0, p.r3_y0 + p.inv_sigma),
           column=lambda p: (p.r3_a - p.lam, p.r3_a),
           forward=lambda p, x, y, csq=_csq: (p.r3_a - p.lam * x,
                                              1 - p.sigma * (y - p.r3_y0)),
           inverse=lambda p, x, y: ((p.r3_a - x) / p.lam,
                                    p.r3_y0 + (1 - y) / p.sigma),
           derivative=lambda p, x, y: ((-p.lam, 0), (0, -p.sigma)),
           derivative_inverse=lambda p, x, y: ((-1 / p.lam, 0),
                                               (0, -1 / p.sigma))),
    Branch(Region.R4, Region.GAP34_LOWER, (2, 1),
           strip=lambda p: (p.t - p.h, p.t + p.h),
           column=lambda p: (_r4_forward(p, 0, p.t - p.h)[0],
                             _r4_forward(p, 0, p.t + p.h)[0]),
           forward=_r4_forward,
           inverse=lambda p, x, y: (parabola_offset(p, (x, y)) / p.lam,
                                    p.t + (x - p.q) / p.sigma),
           derivative=_r4_derivative,
           derivative_inverse=_r4_derivative_inverse, parabolic=True),
    Branch(Region.R5, Region.GAP34_UPPER, (1,),
           strip=lambda p: (p.r5_y0, 1),
           column=lambda p: (1 - p.lam, 1),
           forward=lambda p, x, y, csq=_csq: (p.lam * x + 1 - p.lam,
                                              p.sigma * y - p.sigma + 1),
           inverse=lambda p, x, y: ((x - 1 + p.lam) / p.lam,
                                    (y + p.sigma - 1) / p.sigma),
           derivative=_straight_derivative,
           derivative_inverse=_straight_derivative_inverse, floor=True),
)

#: The branches by source region.
BRANCH = {br.region: br for br in BRANCHES}
_R1 = BRANCH[Region.R1]
_R4 = BRANCH[Region.R4]


def _band_floor(params: MapParams, branch: Branch) -> float:
    """Lowest ordinate of a floor band: the image of the strip's lower
    edge (1/3 in exact arithmetic for R5')."""
    return branch.forward(params, 0, branch.strip(params)[0])[1]


def _in_band(params: MapParams, branch: Branch, x, y):
    """Whether (x, y) lies in the branch's image band, elementwise for
    arrays.  Floors are not tested here: a candidate preimage below the
    floor fails to land back in the source strip."""
    lo, hi = params._columns[branch]
    inside = (lo <= x) & (x <= hi)
    if not branch.parabolic or inside is False:   # scalars skip the offset
        return inside
    k = parabola_offset(params, (x, y))
    return inside & (0 <= k) & (k <= params.lam)


#: Human-scale demonstration parameters (soft warnings expected).
REF_EX = MapParams(lam=0.1, sigma=5.0, c=5.0, q=0.75, t=0.7,
                   w_max=0.22, r3_y0=0.4, r3_a=0.5, b=2.0)

#: Parameters satisfying every sufficient condition of the hyperbolicity
#: estimates (strong contraction/expansion, large curvature).
REF_STRICT = MapParams(lam=1e-5, sigma=1e5, c=648.0, q=0.75, t=0.6,
                       w_max=0.02, r3_y0=0.4, r3_a=0.5, b=2.0)


def _branch_at(params: MapParams, x, y):
    """Branch whose strip contains the point, or None."""
    if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
        for level, _, br in params._ladder:
            if y <= level:
                return br
    return None


def classify(params: MapParams, p: tuple[float, float]) -> Region:
    """Region of the plane containing ``p``.

    The square is cut into horizontal strips; ties at strip boundaries go
    to the lower-indexed region so itineraries are reproducible.
    """
    x, y = p
    if 0.0 <= x <= 1.0 and 0.0 <= y <= 1.0:
        for level, region, _ in params._ladder:
            if y <= level:
                return region
    return Region.OUTSIDE


def apply(params: MapParams, p: tuple[float, float]):
    """One forward step of the map, or ``None`` if the point escapes."""
    x, y = p
    br = _branch_at(params, x, y)
    return None if br is None else br.forward(params, x, y)


def step_arrays(params: MapParams, x, y):
    """:func:`apply` and :func:`jacobian` over arrays of points at once.

    Each lane (x[i], y[i]) takes the branch :func:`_branch_at` gives it,
    so ties at a strip edge go to the strip below.  Returns
    ``(x1, y1, jac)``, the images and the (..., 2, 2) derivatives, equal
    lane by lane to the scalar functions' floats.  Lanes in a gap,
    outside the square or NaN have no branch: they get NaN everywhere,
    so they stay dead when fed back, and no branch formula runs on them.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    x1 = np.full(x.shape, np.nan)
    y1 = np.full(x.shape, np.nan)
    jac = np.full(x.shape + (2, 2), np.nan)
    free = (0.0 <= x) & (x <= 1.0) & (0.0 <= y) & (y <= 1.0)
    for level, _, br in params._ladder:
        here = free & (y <= level)
        free &= ~here
        if br is None or not here.any():
            continue
        xs, ys = x[here], y[here]
        x1[here], y1[here] = br.forward(params, xs, ys)
        for i, row in enumerate(br.derivative(params, xs, ys)):
            for j, entry in enumerate(row):
                jac[here, i, j] = entry
    return x1, y1, jac


def apply_inverse(params: MapParams, p: tuple[float, float]):
    """Branch-wise inverse of :func:`apply`, or ``None`` if ``p`` has no
    preimage under the implemented branches.

    The image bands are ``R1' = [0,lam] x [0,1]``, ``R3'``, ``R5'``
    (vertical bands of width ``lam``) and the parabolic region ``R4'``.
    A branch formula only inverts points of the branch's actual image:
    the candidate preimage must land back in the source strip (e.g. the
    ``R5'`` column below height 1/3 is not an image of the R5 strip).
    ``bands_disjoint`` and ``wing_height`` keep ``R4'`` off the ``R1'``
    and ``R3'`` columns and below 1/3, so no point has two valid
    candidates: the tangency point Q = (q, 0) lies in ``R4'`` alone.
    """
    x, y = p
    for br in BRANCHES:
        if _in_band(params, br, x, y):
            pre = br.inverse(params, x, y)
            if _branch_at(params, *pre) is br:
                return pre
    return None


def _derivative_at(params: MapParams, p, which: str) -> tuple:
    """The branch formula ``which`` (``"derivative"`` or
    ``"derivative_inverse"``) at ``p``, as the table gives it: a pair of
    rows."""
    x, y = p
    br = _branch_at(params, x, y)
    if br is None:
        raise OutOfDomain("derivative undefined in region "
                          f"{classify(params, p).value} at {p}")
    return getattr(br, which)(params, x, y)


def jacobian(params: MapParams, p: tuple[float, float]) -> np.ndarray:
    """Derivative of the map at ``p`` (2x2 array)."""
    return np.array(_derivative_at(params, p, "derivative"))


def jacobian_inverse(params: MapParams, p: tuple[float, float]) -> np.ndarray:
    """Inverse of the derivative at ``p`` (derivative of the backward step
    taken at the image of ``p``)."""
    return np.array(_derivative_at(params, p, "derivative_inverse"))


def leaf_tangent(params: MapParams, p: tuple[float, float]) -> np.ndarray:
    """Unit tangent of the local parabola through a point of the image
    region R4' (slope 2c(x-q))."""
    x, y = p
    if not _in_band(params, _R4, x, y):
        raise OutOfDomain(f"{p} is not in the parabolic image region")
    v = np.array([1.0, 2.0 * params.c * (x - params.q)])
    return v / np.linalg.norm(v)


def in_A(params: MapParams, p: tuple[float, float]) -> bool:
    """Membership in the tangency window A = R4'ic R1 minus {Q}."""
    x, y = p
    if x == params.q and y == 0.0:
        return False
    return classify(params, p) is Region.R1 \
        and bool(_in_band(params, _R4, x, y))


def _require_A(params: MapParams, p) -> None:
    """Raise :class:`OutOfDomain` unless ``p`` is in A."""
    if not in_A(params, p):
        raise OutOfDomain(f"{p} is not in the tangency window A")


def iterates(params: MapParams, p, n: int, forward: bool = True):
    """The first ``n`` images of ``p`` (its preimages when not
    ``forward``), lazily, stopping at the first one that does not exist.

    This is the one orbit walk of the package: every other loop that
    steps the map from its own last result goes through it."""
    step = apply if forward else apply_inverse
    for _ in range(n):
        p = step(params, p)
        if p is None:
            return
        yield p


def _scaled_products(rows):
    """The running products P_k = D_1 ... D_k of the derivatives ``rows``
    (pairs of rows, as :data:`BRANCHES` gives them), lazily, as (p00, p01,
    p10, p11, e): P_k = 2^e ((p00, p01), (p10, p11)).  When the largest
    float leaves [1e-100, 1e100], a power of two rescales them exactly
    into [1/2, 1), so P_k stays in range however long the walk."""
    p00, p01, p10, p11, e = 1.0, 0.0, 0.0, 1.0, 0
    for (d00, d01), (d10, d11) in rows:
        p00, p01, p10, p11 = (p00 * d00 + p01 * d10, p00 * d01 + p01 * d11,
                              p10 * d00 + p11 * d10, p10 * d01 + p11 * d11)
        big = max(abs(p00), abs(p01), abs(p10), abs(p11))
        if not 1e-100 <= big <= 1e100:
            x = math.frexp(big)[1]
            f = math.ldexp(1.0, -x)
            p00, p01, p10, p11, e = p00 * f, p01 * f, p10 * f, p11 * f, e + x
        yield p00, p01, p10, p11, e


def _product(rows) -> tuple:
    """The whole product of :func:`_scaled_products` (identity if empty)."""
    P = 1.0, 0.0, 0.0, 1.0, 0
    for P in _scaled_products(rows):
        pass
    return P


def _log_growth(rows, v) -> float:
    """ln|P v| = ln|mantissa v| + e ln 2 for P = :func:`_product`."""
    p00, p01, p10, p11, e = _product(rows)
    x, y = float(v[0]), float(v[1])
    return (math.log(math.hypot(p00 * x + p01 * y, p10 * x + p11 * y))
            + e * math.log(2.0))


def first_return(params: MapParams, m, max_steps: int, forward: bool = True):
    """(n, points m..f^n(m)) of the first visit to A among the first
    ``max_steps`` images of ``m`` (preimages when not ``forward``, which
    gives the points m..f^-n(m)); raises :class:`NoReturn` otherwise."""
    pts = [m]
    for cur in iterates(params, m, max_steps, forward):
        pts.append(cur)
        if in_A(params, cur):
            return len(pts) - 1, pts
    if len(pts) <= max_steps:
        raise NoReturn(f"orbit of {m} escapes at step {len(pts)}")
    raise NoReturn(f"orbit of {m} does not return within {max_steps} steps")


def float_range_steps(rate) -> int:
    """Steps by which any positive float, multiplied by ``rate`` > 1 at
    each step, has passed every number up to 1.

    The smallest positive float is 2^-1074, so log(2^1074)/log(rate)
    steps suffice (about 463 for rate 5); two more absorb rounding."""
    return math.ceil(-math.log(math.ulp(0.0)) / math.log(rate)) + 2


def leave_r1(params: MapParams, p, forward: bool, what: str):
    """(n, point): the least n >= 1 at which the n-th image (``forward``) of
    ``p`` leaves the bottom strip R1, or its n-th preimage leaves the
    left image column R1', with that iterate (None if it has none).

    R1 multiplies y by sigma and its inverse multiplies x by 1/lam, so
    a point with a positive coordinate leaves within
    :func:`float_range_steps` steps; one on the edge (y = 0 forward,
    x = 0 backward) stays forever and raises :class:`IterationCap`."""
    cap = float_range_steps(params.sigma if forward else 1 / params.lam)
    n = 0
    for n, cur in enumerate(iterates(params, p, cap, forward), 1):
        if forward:
            stays = classify(params, cur) is Region.R1
        else:
            stays = _in_band(params, _R1, *cur)
        if not stays:
            return n, cur
    if n < cap:
        return n + 1, None
    raise IterationCap(what, cap)


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------

@dataclass
class ValidationCheck:
    constraint: str
    kind: str           # "hard" or "soft"
    passed: bool
    value: float
    bound: str
    note: str = ""


@dataclass
class ValidationReport:
    checks: list

    @property
    def valid(self) -> bool:
        return all(c.passed for c in self.checks if c.kind == "hard")

    @property
    def warnings(self) -> list:
        return [c for c in self.checks if c.kind == "soft" and not c.passed]

    @property
    def verdict(self) -> str:
        if not self.valid:
            return "invalid"
        return "valid-with-warnings" if self.warnings else "valid"

    def to_json(self) -> str:
        payload = {
            "verdict": self.verdict,
            "checks": [
                {"constraint": c.constraint, "kind": c.kind, "pass": c.passed,
                 "value": c.value, "bound": c.bound, **({"note": c.note} if c.note else {})}
                for c in self.checks
            ],
        }
        return json.dumps(payload, indent=2)


def validate(params: MapParams) -> ValidationReport:
    """Check every parameter constraint; hard failures make the set invalid,
    soft failures only produce warnings.

    The sufficient-condition check on the cone estimates uses the
    configured angle constant :data:`CHI`.  ``r4_image_below_r3`` keeps
    f(R4), whose heights are at most c*w_max^2, below the R3 strip: the
    straight branches never reach R4, so a first return from A is a run
    of straight steps and then its only R4 step, the shape whose image
    arcs ``induced`` crosses in closed form.
    """
    p = params
    checks = []

    def add(cid, kind, passed, value, bound, note=""):
        checks.append(ValidationCheck(cid, kind, bool(passed), float(value), bound, note))

    add("lambda_range", "hard", 0.0 < p.lam < 1.0 / 3.0, p.lam, "(0, 1/3)")
    add("sigma_min", "hard", p.sigma > 3.0, p.sigma, "> 3")
    add("q_range", "hard", 2.0 / 3.0 < p.q < 1.0, p.q, "(2/3, 1)")
    add("t_range", "hard", 1.0 / 3.0 < p.t < 1.0, p.t, "(1/3, 1)")

    ratio = -math.log(p.lam) / math.log(p.sigma)
    add("exponent_ratio", "hard", 1.0 / p.b < ratio < p.b, ratio, f"(1/{p.b}, {p.b})")

    wing = p.c * p.w_max ** 2
    add("wing_height", "hard", p.inv_sigma < wing < 1.0 / 3.0, wing,
        f"({p.inv_sigma:.6g}, 1/3)")
    span_margin = min(p.q - p.w_max, 1.0 - (p.q + p.w_max))
    add("wing_span", "hard", span_margin > 0.0, span_margin,
        "> 0 (wings inside (0,1))")

    strips = [br.strip(p) for br in BRANCHES]
    strip_margin = min(up[0] - low[1] for low, up in zip(strips, strips[1:]))
    add("strips_disjoint", "hard", strip_margin > 0.0, strip_margin,
        "> 0 (gaps between R1, R3, R4, R5)")

    add("r4_image_below_r3", "hard", wing < p.r3_y0, p.r3_y0 - wing,
        "> 0 (f(R4) below the R3 strip: r3_y0 - c*w_max^2)")

    band_margin = min(p.r3_a - 2.0 * p.lam,
                      (p.q - p.w_max) - p.r3_a,
                      1.0 / 3.0 - wing)
    add("bands_disjoint", "hard", band_margin > 0.0, band_margin,
        "> 0 (image bands interior-disjoint)")

    slope = 2.0 * math.sqrt(p.c * (p.lam + p.inv_sigma))
    add("tan10", "soft", slope < ARCTAN_PI_10, slope, f"< {ARCTAN_PI_10:.6g}",
        note="bound read literally as arctan(pi/10); tan(pi/10) may be intended")

    # sup over 0 < x < lam of (3cx^2)^(1+1/b) / (c*chi*x^2) is at x = lam
    lhs = (3.0 * p.c * p.lam ** 2) ** (1.0 + 1.0 / p.b)
    rhs = p.c * CHI * p.lam ** 2
    add("estimc3", "soft", lhs < rhs, lhs, f"< {rhs:.6g} (chi={CHI:g})")

    # the wing tips of the lowest image parabola (offset lam) must reach
    # over R1, or cycles such as R1 -> R5 -> R4 have no orbit (REF_EX)
    crossing = wing - p.lam - p.inv_sigma
    add("full_crossing", "soft", crossing > 0.0, crossing,
        "> 0 (wings cross R1 fully: c*w_max^2 - lambda - 1/sigma)")

    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Certificate of named constants
# ---------------------------------------------------------------------------

@dataclass
class Certificate:
    """Ledger of the named constants that calibration estimates or that
    an estimate reads, each defined once.

    The settable constants are every field but ``provenance``, in field
    order; C3 = rho1 * C0 is derived from two of them and counts as
    estimated when either is.  Provenance (``"configured"`` or
    ``"estimated"``) is tracked per constant.  The other constants of
    the estimates live with what they define: the cone factor chi0 is
    ``splitting.CHI0``, eps1 is ``manifolds._EPS1``, the Hoelder
    exponent gamma of the coding map is :func:`closed_form_gamma` and
    the exponent-ratio bound b is :attr:`MapParams.b`.  No estimate
    reads the norm-comparison constant chi1, so it is not kept.
    """

    C0: float
    eps0: float
    eta: float
    rho1: float
    C5: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, value in self._values().items():
            if value <= 0.0:
                raise ValueError(
                    f"certificate constant {name} must be positive")

    @property
    def C3(self) -> float:
        """Radius factor rho1 * C0 of the local product structure."""
        return self.rho1 * self.C0

    def _values(self) -> dict:
        """Every constant by name, the derived C3 last."""
        values = {f.name: getattr(self, f.name) for f in fields(self)
                  if f.name != "provenance"}
        return {**values, "C3": self.C3}

    def to_json(self) -> str:
        values = self._values()
        prov = {name: self.provenance.get(name, "configured")
                for name in values}
        if "estimated" in (prov["rho1"], prov["C0"]):
            prov["C3"] = "estimated"
        payload = {name: {"value": value, "provenance": prov[name]}
                   for name, value in values.items()}
        return json.dumps(payload, indent=2)

    def with_updates(self, **values) -> "Certificate":
        """A copy with ``values`` marked ``"estimated"``."""
        prov = dict(self.provenance)
        for name in values:
            prov[name] = "estimated"
        return replace(self, provenance=prov, **values)


def closed_form_gamma(params: MapParams) -> float:
    """Hoelder exponent of the coding map,
    min(-ln sqrt(lam)/ln 2, ln sqrt(sigma)/ln 2)."""
    return min(-math.log(math.sqrt(params.lam)) / math.log(2.0),
               math.log(math.sqrt(params.sigma)) / math.log(2.0))


def default_certificate(params: MapParams) -> Certificate:
    """Configured starting certificate; calibration can tighten it later."""
    return Certificate(
        C0=0.25,
        eps0=0.25,
        eta=min(0.25, 1.0 / (320.0 * params.c)),
        rho1=0.25,
        C5=4.0,
    )
