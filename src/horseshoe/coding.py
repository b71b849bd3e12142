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

The hulls of a box do not depend on the word, only the band test does,
so words are refined in families that share one box array: the nine
children a.w.b of a level-(n-1) atom start from its cover, the three
level-0 words from the square (:func:`atom` refines a family of one).
Each round pushes the family's boxes once forward and once backward
through times 1..n and packs, per box and time, one ``uint8`` label:
bit s when some image hull meets band s, bit 3 + s when some exact hull
(of a box lying inside one strip at every step so far) lies entirely
inside band s.  Lookup tables turn the labels into per-box word masks:
the words for which the box survives and those for which it is
certified interior.  A box carries the mask of the words whose cover it
is part of, and a round enumerates the quadrants of the boxes split in
the round before quadrant-major, in slices of boxes that bound the
memory in flight; so each word's cover comes out box for box in the
order a refinement of that word alone gives.  :func:`atoms` keeps the
last eight levels built, keyed on parameters, level and resolution;
callers get a fresh dict over shared atoms whose box arrays are
read-only.  Numerical settings: ``_SLICE`` and ``_THETA_MIN_PAIRS``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import map_core as mc
from .map_core import MapParams


class NotInBands(mc.HorseshoeError, ValueError):
    """Point outside all three vertical image bands."""


class EmptyAtom(mc.HorseshoeError, ValueError):
    """The word's box cover refined away to nothing."""


class Escaped(mc.HorseshoeError, RuntimeError):
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
    p = (float(p[0]), float(p[1]))
    fwd = list(mc.iterates(params, p, n))
    if len(fwd) < n:
        raise Escaped(len(fwd) + 1)
    bwd = list(mc.iterates(params, p, n, False))
    if len(bwd) < n:
        raise Escaped(-len(bwd) - 1)
    symbols = []
    ambiguous = []
    for k, pt in enumerate(bwd[::-1] + [p] + fwd, -n):
        try:
            bands = band_of(params, pt)
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


def _step(params: MapParams, boxes: np.ndarray, forward: bool):
    """Interval hulls of the branch images (``forward``) or preimages of
    each box, as (hulls, origin, whole): origin maps each hull back to its
    source row, and whole marks the hulls of boxes lying entirely inside
    the strip (image band), which are exact images.

    A box is clipped to every strip (image band) it meets; boxes fully
    inside the gaps produce nothing.  The parabolic band is also bounded
    by its offset, which is the preimage abscissa clipped to the strip's
    [0, 1]; a whole preimage needs no clipping."""
    out, origin, exact = [], [], []
    x, y = _hull(boxes)
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
        if not len(rows):
            continue
        whole = whole[rows]
        if forward:
            ix, iy = br.forward(params, cx[rows], cy[rows], csq=_interval_csq)
        else:
            ix, iy = br.inverse(params, cx[rows], cy[rows])
            if br.parabolic:
                whole &= (ix.lo >= 0.0) & (ix.hi <= 1.0)
                ix = ix.clip(0.0, 1.0)
                keep = ix.lo <= ix.hi
                ix, iy = ix[keep], iy[keep]
                rows, whole = rows[keep], whole[keep]
        out.append(_boxes(ix, iy))
        origin.append(rows)
        exact.append(whole)
    if not out:
        return (np.empty((0, 4)), np.empty(0, dtype=int),
                np.empty(0, dtype=bool))
    return np.vstack(out), np.concatenate(origin), np.concatenate(exact)


def _band_bits(params: MapParams, x: Interval, y: Interval,
               whole: bool) -> np.ndarray:
    """Bit s of each hull is set when the hull meets (``whole=False``) or
    lies entirely inside (``whole=True``) the closure of band s."""
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
            # offset hull over the hull (its part over the wing, if touching)
            k = mc.parabola_offset(params, (x if whole else x.clip(lo, hi), y))
            if whole:
                m &= (k.lo >= 0.0) & (k.hi <= params.lam)
            else:
                m &= (k.lo <= params.lam) & (k.hi >= 0.0)
        bits |= m.astype(np.uint8) << sym
    return bits


def _labels(params: MapParams, boxes: np.ndarray,
            whole: np.ndarray) -> np.ndarray:
    """Packed band label of each hull: bit s when it meets the closure of
    band s, bit 3 + s when it is ``whole`` (exact) and lies entirely
    inside that closure."""
    x, y = _hull(boxes)
    label = _band_bits(params, x, y, whole=False)
    rows = np.nonzero(whole)[0]
    label[rows] |= _band_bits(params, x[rows], y[rows], whole=True) << 3
    return label


def _verdicts(params: MapParams, boxes: np.ndarray, member: np.ndarray,
              table: np.ndarray) -> tuple:
    """Word masks (meet, inside) of each box.

    ``table[n + k, bits]`` holds the words whose symbol at time k is one
    of the bands in ``bits``.  Bit j of meet is set when the box is in
    word j's cover (``member``) and its time-k hulls meet band s_k for
    every |k| <= n; bit j of inside when exact time-k hulls lie inside
    band s_k for every |k| <= n.  Hulls are advanced only while they
    meet the square and their box still survives for some word."""
    n = len(table) // 2
    label = _labels(params, boxes, np.ones(len(boxes), dtype=bool))
    meet = member & table[n, label & 7]
    inside = table[n, label >> 3]
    for forward, sign in ((True, 1), (False, -1)):
        rows = np.nonzero(meet)[0]
        cur, whole = boxes[rows], inside[rows] != 0
        for k in range(1, n + 1):
            cur, step_origin, step_whole = _step(params, cur, forward)
            rows = rows[step_origin]
            whole = whole[step_origin] & step_whole
            label = np.zeros(len(boxes), dtype=np.uint8)
            np.bitwise_or.at(label, rows, _labels(params, cur, whole))
            meet &= table[n + sign * k, label & 7]
            inside &= table[n + sign * k, label >> 3]
            # hulls off the square cannot meet a band later, and their
            # coordinates blow up under 1/lam
            keep = (meet[rows] != 0) & (cur[:, 2] >= 0.0) \
                & (cur[:, 0] <= 1.0) & (cur[:, 3] >= 0.0) & (cur[:, 1] <= 1.0)
            cur, rows = cur[keep], rows[keep]
            whole = whole[keep] & (inside[rows] != 0)
    return meet, inside


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    word: Word
    boxes: np.ndarray
    diameter_ub: float = field(init=False)
    empty: bool = field(init=False)

    def __post_init__(self):
        # frozen: the atom cache hands the same objects to every caller
        empty = len(self.boxes) == 0
        if empty:
            diameter_ub = 0.0
        else:
            dx = np.max(self.boxes[:, 2]) - np.min(self.boxes[:, 0])
            dy = np.max(self.boxes[:, 3]) - np.min(self.boxes[:, 1])
            diameter_ub = math.hypot(dx, dy)
        object.__setattr__(self, "empty", empty)
        object.__setattr__(self, "diameter_ub", diameter_ub)

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


def _quadrants(boxes: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Quadrant q[i] of box i: 0 lower left, 1 lower right, 2 upper left,
    3 upper right."""
    x0, y0, x1, y1 = boxes.T
    xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    right, top = (q & 1) == 1, (q & 2) == 2
    return np.column_stack([np.where(right, xm, x0), np.where(top, ym, y0),
                            np.where(right, x1, xm), np.where(top, y1, ym)])


_SQUARE = np.array([[0.0, 0.0, 1.0, 1.0]])

#: Boxes per call of :func:`_verdicts`; bounds the arrays in flight.
_SLICE = 8192
_THETA_MIN_PAIRS = 8    # resolved word pairs a Hoelder fit of theta needs


def _slices(boxes: np.ndarray, member: np.ndarray, split: bool):
    """The boxes of one refinement round with their word masks, in slices
    of at most ``_SLICE``: the given boxes, or (``split``) their
    quadrants, quadrant-major.  A word's boxes thus come in the order
    that splitting that word's boxes alone gives."""
    total = 4 * len(boxes) if split else len(boxes)
    for start in range(0, total, _SLICE):
        rows = np.arange(start, min(start + _SLICE, total))
        if split:
            q, rows = np.divmod(rows, len(boxes))
            yield _quadrants(boxes[rows], q), member[rows]
        else:
            yield boxes[rows], member[rows]


def _refine(params: MapParams, words: list, boxes: np.ndarray,
            resolution: int) -> list:
    """Adaptive covers of a family of words of one level, all starting
    from ``boxes``: split surviving boxes down to 2^-resolution, but set
    aside boxes certified interior (no boundary can cross them)."""
    n = words[0].n
    # table[n + k, bits]: the words whose time-k symbol is among ``bits``
    bits = np.arange(8)
    table = np.zeros((2 * n + 1, 8), dtype=np.uint16)
    for j, w in enumerate(words):
        table |= ((bits >> np.array(w.symbols)[:, None] & 1) << j) \
            .astype(np.uint16)
    min_w = 1.5 * 2.0 ** -resolution
    done = [[] for _ in words]
    boxes = np.asarray(boxes, dtype=float)
    member = np.full(len(boxes), (1 << len(words)) - 1, dtype=np.uint16)
    split = False
    while len(boxes):
        parents, masks = [], []
        for cur, mem in _slices(boxes, member, split):
            meet, inside = _verdicts(params, cur, mem, table)
            small = (cur[:, 2] - cur[:, 0]) <= min_w
            keep = np.where(small, meet, meet & inside)
            for j, cover in enumerate(done):
                cover.append(cur[(keep >> j & 1).astype(bool)])
            rest = meet & ~keep
            rows = rest != 0
            parents.append(cur[rows])
            masks.append(rest[rows])
        boxes, member = np.concatenate(parents), np.concatenate(masks)
        split = True
    return [np.vstack(cover) if cover else np.empty((0, 4))
            for cover in done]


def atom(params: MapParams, word: Word, resolution: int | None = None) -> Atom:
    """Sound box cover of the partition atom carrying ``word``."""
    if resolution is None:
        resolution = default_resolution(params)
    word.n  # validates centering
    return Atom(word, _refine(params, [word], _SQUARE, resolution)[0])


def _levels(params: MapParams, resolution: int | None = None):
    """Covers {word: boxes} of the nonempty level-0, 1, 2, ... atoms, each
    level refining the previous one (nesting makes the parents valid
    starting covers)."""
    if resolution is None:
        resolution = default_resolution(params)
    words = [Word((s,), 0) for s in (0, 1, 2)]
    level = dict(zip(words, _refine(params, words, _SQUARE, resolution)))
    while True:
        level = {w: b for w, b in level.items() if len(b)}
        yield level
        nxt = {}
        for w, boxes in level.items():
            children = [Word((a,) + w.symbols + (b,), w.center + 1)
                        for a in (0, 1, 2) for b in (0, 1, 2)]
            nxt.update(zip(children,
                           _refine(params, children, boxes, resolution)))
        level = nxt


@functools.lru_cache(maxsize=8)
def _cached_atoms(params: MapParams, n: int, resolution: int) -> dict:
    """The level-n atoms with read-only box arrays, for the last few
    (parameters, level, resolution) keys."""
    for k, level in enumerate(_levels(params, resolution)):
        if k == n:
            for boxes in level.values():
                boxes.flags.writeable = False
            return {w: Atom(w, b) for w, b in level.items()}


def atoms(params: MapParams, n: int, resolution: int | None = None) -> dict:
    """All nonempty level-n atoms, as a fresh dict over cached atoms."""
    if resolution is None:
        resolution = default_resolution(params)
    return dict(_cached_atoms(params, n, resolution))


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


def theta_holder_fit(params: MapParams, pairs,
                     resolution: int | None = None) -> dict:
    """Holder exponent fit for theta from word pairs.

    Each pair contributes the point (j, |theta(w) - theta(w')|) where j
    is the first disagreement depth, fitted against d = 2^-j."""
    cache: dict = {}

    def th(word: Word):
        word = Word(word.symbols, word.center)   # drop ambiguity flags
        if word not in cache:
            a = atoms(params, word.n, resolution).get(word)
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
    if len(dists) < _THETA_MIN_PAIRS:
        raise ValueError(f"only {len(dists)} resolved pairs, "
                         f"need {_THETA_MIN_PAIRS}")
    slope = np.polyfit(np.array(depths, dtype=float) * math.log(0.5),
                       np.log(np.array(dists)), 1)[0]
    gamma = math.log(max(math.sqrt(params.lam),
                         1.0 / math.sqrt(params.sigma))) / math.log(0.5)
    return {"gamma_est": float(slope), "gamma": gamma,
            "pairs_used": len(dists)}
