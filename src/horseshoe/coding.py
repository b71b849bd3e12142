"""Symbolic coding of the invariant set.

Three full vertical bands of the image f(Q) carry the symbols: 0 for
the left band, 1 for the part to the right of the critical point
(right band together with the right wing of the parabolic image), 2
for the middle band with the left wing.  Itineraries over these
symbols, centered words, a sound box cover for each partition atom,
the coding map theta and its Holder estimate live here.

Atom covers are built by quadtree refinement with interval arithmetic:
a box survives at level n if, for every |k| <= n, the interval hull of
its k-th image meets the closure of band s_k.  The hulls and the band
tests evaluate the branch formulas, strips and bands of the table in
:mod:`horseshoe.map_core` on the small :class:`Interval` type.  All
branch formulas are affine except the parabolic w -> w^2, whose
interval square is exact, so the hulls genuinely contain the true
images and the cover contains the true atom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import map_core as mc
from .map_core import MapParams


class NotInBands(ValueError):
    """Point outside all three vertical image bands."""


class EmptyAtom(ValueError):
    """The word's box cover refined away to nothing."""


class Escaped(RuntimeError):
    """Some iterate of the point left the bands."""

    def __init__(self, step: int):
        super().__init__(f"orbit leaves the bands at step {step}")
        self.step = step


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Word:
    """Finite symbol block with a marked center position.

    Centered words have odd length 2n+1 and positions -n..n; the
    string form marks the center with a dot before the time-0 symbol,
    e.g. "010.210".  ``ambiguous`` lists positions where the orbit sat
    on the tangency orbit and both symbols 1 and 2 apply."""

    symbols: tuple
    center: int
    ambiguous: tuple = ()

    def __post_init__(self):
        if not all(s in (0, 1, 2) for s in self.symbols):
            raise ValueError("symbols must be 0, 1 or 2")
        if not 0 <= self.center < len(self.symbols):
            raise ValueError("center outside the word")

    @property
    def n(self) -> int:
        if len(self.symbols) != 2 * self.center + 1:
            raise ValueError("word is not centered")
        return self.center

    def symbol(self, k: int) -> int:
        """Symbol at time ``k`` (position ``center + k``)."""
        return self.symbols[self.center + k]

    def to_string(self) -> str:
        s = "".join(str(c) for c in self.symbols)
        return s[:self.center] + "." + s[self.center:]

    @classmethod
    def from_string(cls, text: str) -> "Word":
        if text.count(".") != 1:
            raise ValueError("word string needs exactly one center dot")
        dot = text.index(".")
        digits = text.replace(".", "")
        return cls(tuple(int(c) for c in digits), dot)

    def shifted(self, by: int = 1) -> "Word":
        """Same symbols, center moved ``by`` steps forward in time."""
        return Word(self.symbols, self.center + by,
                    tuple(a - by for a in self.ambiguous
                          if 0 <= a - by < len(self.symbols)))

    def extended(self, left: int, right: int) -> "Word":
        """Pad with the fixed-point symbol 0 on both sides."""
        return Word((0,) * left + self.symbols + (0,) * right,
                    self.center + left,
                    tuple(a + left for a in self.ambiguous))


# ---------------------------------------------------------------------------
# Bands
# ---------------------------------------------------------------------------

def band_of(params: MapParams, p) -> frozenset:
    """Symbols of the vertical image bands containing ``p``.

    Size one except exactly at the tangency point, which belongs to
    the closures of both the right and the middle band."""
    x, y = float(p[0]), float(p[1])
    if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
        raise NotInBands(f"{p} outside the square")
    out = set()
    for symbol, br, lo, hi, floor in params._bands:
        if lo <= x <= hi and (floor is None or y >= floor) \
                and (not br.parabolic or mc._in_band(params, br, x, y)):
            out.add(symbol)
    if not out:
        raise NotInBands(f"{p} outside the vertical bands")
    return frozenset(out)


def itinerary(params: MapParams, p, n: int) -> Word:
    """Centered word of the orbit of ``p`` over times -n..n.

    On the tangency orbit the lower symbol is kept and the position
    recorded in ``ambiguous``.  Raises :class:`Escaped` with the first
    failing time when an iterate leaves the bands."""
    pts = {0: (float(p[0]), float(p[1]))}
    cur = pts[0]
    for k in range(1, n + 1):
        cur = mc.apply(params, cur)
        if cur is None:
            raise Escaped(k)
        pts[k] = cur
    cur = pts[0]
    for k in range(1, n + 1):
        cur = mc.apply_inverse(params, cur)
        if cur is None:
            raise Escaped(-k)
        pts[-k] = cur
    symbols = []
    ambiguous = []
    for k in range(-n, n + 1):
        try:
            bands = band_of(params, pts[k])
        except NotInBands as err:
            raise Escaped(k) from err
        if len(bands) > 1:
            ambiguous.append(k + n)
        symbols.append(min(bands))
    return Word(tuple(symbols), n, tuple(ambiguous))


# ---------------------------------------------------------------------------
# Interval image hulls
# ---------------------------------------------------------------------------
# boxes are arrays (N, 4) of (xmin, ymin, xmax, ymax)

def _interval_square(lo, hi):
    """Exact interval for d^2 given d in [lo, hi] (elementwise)."""
    a, b = lo * lo, hi * hi
    sq_lo = np.where((lo <= 0.0) & (hi >= 0.0), 0.0, np.minimum(a, b))
    return sq_lo, np.maximum(a, b)


class Interval:
    """Elementwise closed intervals [lo, hi] over arrays.

    Just enough arithmetic for the branch formulas of the map table:
    sums and differences of intervals and numbers, products and
    quotients by numbers, and the exact square ``** 2``.  Each bound is
    the same float expression as the corresponding end of the hull, so
    the hulls contain the true images."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None      # numpy scalars defer to these methods

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __getitem__(self, mask) -> "Interval":
        return Interval(self.lo[mask], self.hi[mask])

    def clip(self, lo=None, hi=None) -> "Interval":
        """Intersection with [lo, hi]; empty where lo > hi results."""
        return Interval(self.lo if lo is None else np.maximum(self.lo, lo),
                        self.hi if hi is None else np.minimum(self.hi, hi))

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo + other.lo, self.hi + other.hi)
        return Interval(self.lo + other, self.hi + other)

    __radd__ = __add__          # float addition and product commute

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(self.lo - other.hi, self.hi - other.lo)
        return Interval(self.lo - other, self.hi - other)

    def __rsub__(self, other):
        return Interval(other - self.hi, other - self.lo)

    def __mul__(self, k):
        if k >= 0:
            return Interval(self.lo * k, self.hi * k)
        return Interval(self.hi * k, self.lo * k)

    __rmul__ = __mul__

    def __truediv__(self, k):
        if k > 0:
            return Interval(self.lo / k, self.hi / k)
        return Interval(self.hi / k, self.lo / k)

    def __pow__(self, n):
        if n != 2:
            return NotImplemented
        return Interval(*_interval_square(self.lo, self.hi))


def _interval_csq(c, w: Interval) -> Interval:
    """Scaled-square hook of the branch table for intervals: square
    exactly, then scale."""
    return c * w ** 2


def _hull(boxes: np.ndarray) -> tuple:
    x0, y0, x1, y1 = boxes.T
    return Interval(x0, x1), Interval(y0, y1)


def _boxes(x: Interval, y: Interval) -> np.ndarray:
    return np.column_stack([x.lo, y.lo, x.hi, y.hi])


def _step(params: MapParams, boxes: np.ndarray, forward: bool,
          whole: bool = False):
    """Interval hulls of the branch images (``forward``) or preimages of
    each box, as (hulls, origin) with origin mapping each hull back to its
    source row.

    A box is clipped to every strip (image band) it meets; boxes fully
    inside the gaps produce nothing.  With ``whole`` only boxes lying
    entirely inside one strip (band) are kept: their hulls are exact.
    The parabolic band is also bounded by its offset, which is the
    preimage abscissa clipped to the strip's [0, 1]."""
    out, origin = [], []
    x, y = _hull(boxes)
    for br in mc.BRANCHES:
        if forward:
            lo, hi = br.strip(params)
            cx, cy = x, y.clip(lo, hi)
            ok = (y.lo >= lo) & (y.hi <= hi) if whole else cy.lo <= cy.hi
        else:
            lo, hi = br.column(params)
            cx, cy = x.clip(lo, hi), y
            ok = (x.lo >= lo) & (x.hi <= hi) if whole else cx.lo <= cx.hi
            if br.floor:
                f = mc._band_floor(params, br)
                cy = y.clip(f)
                ok &= (y.lo >= f) if whole else cy.lo <= cy.hi
        rows = np.nonzero(ok)[0]
        if not len(rows):
            continue
        if forward:
            ix, iy = br.forward(params, cx[rows], cy[rows], csq=_interval_csq)
        else:
            ix, iy = br.inverse(params, cx[rows], cy[rows])
            if br.parabolic:
                if whole:
                    keep = (ix.lo >= 0.0) & (ix.hi <= 1.0)
                else:
                    ix = ix.clip(0.0, 1.0)
                    keep = ix.lo <= ix.hi
                ix, iy, rows = ix[keep], iy[keep], rows[keep]
        out.append(_boxes(ix, iy))
        origin.append(rows)
    if not out:
        return np.empty((0, 4)), np.empty(0, dtype=int)
    return np.vstack(out), np.concatenate(origin)


def _band_test(params: MapParams, boxes: np.ndarray, symbol: int,
               whole: bool) -> np.ndarray:
    """Whether each box meets (``whole=False``) or lies entirely inside
    (``whole=True``) the closure of the given band."""
    x, y = _hull(boxes)
    if whole:
        hit = (x.lo >= 0.0) & (x.hi <= 1.0) & (y.lo >= 0.0) & (y.hi <= 1.0)
    else:
        hit = (x.hi >= 0.0) & (x.lo <= 1.0) & (y.hi >= 0.0) & (y.lo <= 1.0)
    piece_hit = np.zeros(len(boxes), dtype=bool)
    for sym, br, lo, hi, floor in params._bands:
        if sym != symbol:
            continue
        if whole:
            m = (x.lo >= lo) & (x.hi <= hi)
        else:
            m = (x.hi >= lo) & (x.lo <= hi)
        if floor is not None:
            m &= (y.lo if whole else y.hi) >= floor
        if br.parabolic:
            # offset hull over the box (its part over the wing, if touching)
            k = mc.parabola_offset(params, (x if whole else x.clip(lo, hi), y))
            if whole:
                m &= (k.lo >= 0.0) & (k.hi <= params.lam)
            else:
                m &= (k.lo <= params.lam) & (k.hi >= 0.0)
        piece_hit |= m
    return hit & piece_hit


def _interior(params: MapParams, boxes: np.ndarray,
              word: Word) -> np.ndarray:
    """Boxes certified to lie entirely inside the atom's constraints
    for all |k| <= n; these need no further splitting."""
    return _follow(params, boxes, word, whole=True)


def _survives(params: MapParams, boxes: np.ndarray, word: Word) -> np.ndarray:
    """Level-n survival mask: every |k| <= n image hull meets band s_k."""
    return _follow(params, boxes, word, whole=False)


def _follow(params: MapParams, boxes: np.ndarray, word: Word,
            whole: bool) -> np.ndarray:
    """Push the boxes through the word's times -n..n and keep those whose
    hulls meet (or, ``whole``, lie inside) band s_k at every time."""
    n = word.n
    alive = _band_test(params, boxes, word.symbol(0), whole)
    for forward, sign in ((True, 1), (False, -1)):
        cur, origin = boxes, np.arange(len(boxes))
        for k in range(1, n + 1):
            if not np.any(alive):
                return alive
            cur, step_origin = _step(params, cur, forward, whole)
            origin = origin[step_origin]
            hit = _band_test(params, cur, word.symbol(sign * k), whole)
            ok = np.zeros(len(boxes), dtype=bool)
            ok[origin[hit]] = True
            alive &= ok
            # advance only image boxes that still meet the square (others
            # cannot contribute and their coordinates blow up under 1/lam)
            keep = alive[origin] & (cur[:, 2] >= 0.0) & (cur[:, 0] <= 1.0) \
                & (cur[:, 3] >= 0.0) & (cur[:, 1] <= 1.0)
            cur, origin = cur[keep], origin[keep]
    return alive


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass
class Atom:
    word: Word
    boxes: np.ndarray
    diameter_ub: float = field(init=False)
    empty: bool = field(init=False)

    def __post_init__(self):
        self.empty = len(self.boxes) == 0
        if self.empty:
            self.diameter_ub = 0.0
        else:
            dx = np.max(self.boxes[:, 2]) - np.min(self.boxes[:, 0])
            dy = np.max(self.boxes[:, 3]) - np.min(self.boxes[:, 1])
            self.diameter_ub = math.hypot(dx, dy)

    def center(self):
        """Representative point: center of the cover box nearest the
        bounding-hull midpoint (the midpoint itself can fall in a gap
        when the cover has several pieces)."""
        cx, cy, d2 = self._box_centers()
        i = int(np.argmin(d2))
        return (float(cx[i]), float(cy[i]))

    def _box_centers(self):
        """Cover-box centers and their squared distances to the
        bounding-hull midpoint."""
        if self.empty:
            raise EmptyAtom(self.word.to_string())
        hx = 0.5 * (np.min(self.boxes[:, 0]) + np.max(self.boxes[:, 2]))
        hy = 0.5 * (np.min(self.boxes[:, 1]) + np.max(self.boxes[:, 3]))
        cx = 0.5 * (self.boxes[:, 0] + self.boxes[:, 2])
        cy = 0.5 * (self.boxes[:, 1] + self.boxes[:, 3])
        return cx, cy, (cx - hx) ** 2 + (cy - hy) ** 2

    def contains(self, p, slack: float = 0.0) -> bool:
        if self.empty:
            return False
        x, y = p
        hit = ((self.boxes[:, 0] - slack <= x)
               & (x <= self.boxes[:, 2] + slack)
               & (self.boxes[:, 1] - slack <= y)
               & (y <= self.boxes[:, 3] + slack))
        return bool(np.any(hit))

    def to_csv(self) -> str:
        lines = ["word,box_xmin,box_ymin,box_xmax,box_ymax"]
        w = self.word.to_string()
        for x0, y0, x1, y1 in self.boxes:
            lines.append(f"{w},{float(x0)!r},{float(y0)!r},"
                         f"{float(x1)!r},{float(y1)!r}")
        return "\n".join(lines) + "\n"


def default_resolution(params: MapParams) -> int:
    """Quadtree depth resolving the thinnest band comfortably."""
    return max(8, min(14, int(math.log2(1.0 / params.lam)) + 10))


def _split(boxes: np.ndarray) -> np.ndarray:
    x0, y0, x1, y1 = boxes.T
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return np.vstack([
        np.column_stack([x0, y0, xm, ym]),
        np.column_stack([xm, y0, x1, ym]),
        np.column_stack([x0, ym, xm, y1]),
        np.column_stack([xm, ym, x1, y1]),
    ])


_SQUARE = np.array([[0.0, 0.0, 1.0, 1.0]])


def _refine(params: MapParams, word: Word, boxes: np.ndarray,
            resolution: int) -> np.ndarray:
    """Adaptive cover: split surviving boxes down to 2^-resolution, but
    set aside boxes certified interior (no boundary can cross them)."""
    min_w = 1.5 * 2.0 ** -resolution
    done = []
    cur = np.asarray(boxes, dtype=float)
    while len(cur):
        cur = cur[_survives(params, cur, word)]
        if not len(cur):
            break
        keep = _interior(params, cur, word)
        keep |= (cur[:, 2] - cur[:, 0]) <= min_w
        done.append(cur[keep])
        cur = _split(cur[~keep])
    if not done:
        return np.empty((0, 4))
    return np.vstack(done)


def atom(params: MapParams, word: Word, resolution: int | None = None) -> Atom:
    """Sound box cover of the partition atom carrying ``word``."""
    if resolution is None:
        resolution = default_resolution(params)
    word.n  # validates centering
    return Atom(word, _refine(params, word, _SQUARE, resolution))


def _levels(params: MapParams, resolution: int | None = None):
    """Covers {word: boxes} of the nonempty level-0, 1, 2, ... atoms, each
    level refining the previous one (nesting makes the parents valid
    starting covers)."""
    if resolution is None:
        resolution = default_resolution(params)
    level = {Word((s,), 0): _refine(params, Word((s,), 0), _SQUARE,
                                    resolution) for s in (0, 1, 2)}
    level = {w: b for w, b in level.items() if len(b)}
    while True:
        yield level
        nxt = {}
        for w, boxes in level.items():
            for a in (0, 1, 2):
                for b in (0, 1, 2):
                    child = Word((a,) + w.symbols + (b,), w.center + 1)
                    cover = _refine(params, child, boxes, resolution)
                    if len(cover):
                        nxt[child] = cover
        level = nxt


def atoms(params: MapParams, n: int, resolution: int | None = None) -> dict:
    """All nonempty level-n atoms."""
    for k, level in enumerate(_levels(params, resolution)):
        if k == n:
            return {w: Atom(w, b) for w, b in level.items()}


# ---------------------------------------------------------------------------
# Coding map
# ---------------------------------------------------------------------------

@dataclass
class ThetaPoint:
    point: tuple
    radius: float
    word: Word


def _matches(word: Word, observed: Word) -> bool:
    for k in range(-word.n, word.n + 1):
        want, got = word.symbol(k), observed.symbol(k)
        if want == got:
            continue
        if k + observed.center in observed.ambiguous and want in (1, 2):
            continue
        return False
    return True


def _representative(params: MapParams, a: Atom) -> tuple:
    """Point of the cover standing in for the atom.

    Prefers a cover-box center whose own itinerary realizes the word
    (hull midpoints of multi-piece covers can sit between the strips);
    falls back to the nearest-box center when none of the closest
    candidates has a full orbit."""
    cx, cy, d2 = a._box_centers()
    for i in np.argsort(d2)[:200]:
        p = (float(cx[i]), float(cy[i]))
        try:
            observed = itinerary(params, p, a.word.n)
        except (NotInBands, Escaped):
            continue
        if _matches(a.word, observed):
            return p
    return a.center()


def theta(params: MapParams, word: Word,
          resolution: int | None = None) -> ThetaPoint:
    """Representative point of the word's atom with its radius bound."""
    return _theta_point(params, atom(params, word, resolution))


def _theta_point(params: MapParams, a: Atom) -> ThetaPoint:
    return ThetaPoint(point=_representative(params, a),
                      radius=a.diameter_ub, word=a.word)


def decay_table(params: MapParams, n_max: int,
                resolution: int | None = None) -> dict:
    """Max atom diameter per level and the fitted exponential rate."""
    rows = [(0, math.sqrt(2.0))]
    for n, level in enumerate(_levels(params, resolution)):
        if n:
            rows.append((n, max(Atom(w, b).diameter_ub
                                for w, b in level.items())))
        if n == n_max:
            break
    ns = np.array([r[0] for r in rows[1:]], dtype=float)
    ds = np.array([r[1] for r in rows[1:]])
    rate = float(np.exp(np.polyfit(ns, np.log(ds), 1)[0])) \
        if len(ns) >= 2 else float("nan")
    return {"rows": rows, "rate": rate,
            "reference_rate": max(math.sqrt(params.lam),
                                  1.0 / math.sqrt(params.sigma))}


def theta_holder_fit(params: MapParams, pairs, resolution: int | None = None,
                     min_pairs: int = 8) -> dict:
    """Holder exponent fit for theta from word pairs.

    Each pair contributes the point (j, |theta(w) - theta(w')|) where j
    is the first disagreement depth, fitted against d = 2^-j."""
    levels: dict = {}
    cache: dict = {}

    def th(word: Word):
        word = Word(word.symbols, word.center)   # drop ambiguity flags
        if word not in cache:
            if word.n not in levels:
                levels[word.n] = atoms(params, word.n, resolution)
            a = levels[word.n].get(word)
            if a is None:
                raise EmptyAtom(word.to_string())
            cache[word] = _theta_point(params, a)
        return cache[word]

    depths, dists = [], []
    for w1, w2 in pairs:
        if w1.symbols == w2.symbols:
            continue
        n = min(w1.n, w2.n)
        j = next((k for k in range(n + 1)
                  if w1.symbol(k) != w2.symbol(k)
                  or w1.symbol(-k) != w2.symbol(-k)), None)
        if j is None:
            continue
        p1, p2 = th(w1).point, th(w2).point
        d = math.hypot(p1[0] - p2[0], p1[1] - p2[1])
        floor = max(th(w1).radius, th(w2).radius)
        if d > floor:
            depths.append(j)
            dists.append(d)
    if len(dists) < min_pairs:
        raise ValueError(f"only {len(dists)} resolved pairs, "
                         f"need {min_pairs}")
    slope = np.polyfit(np.array(depths, dtype=float) * math.log(0.5),
                       np.log(np.array(dists)), 1)[0]
    gamma = math.log(max(math.sqrt(params.lam),
                         1.0 / math.sqrt(params.sigma))) / math.log(0.5)
    return {"gamma_est": float(slope), "gamma": gamma,
            "pairs_used": len(dists)}
