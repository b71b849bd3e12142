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
interval square is exact, so the hulls contain the images of the float
map and the cover contains that map's atom.  Bounds are rounded to
nearest, not outward, so an exact image can lie outside its hull by
rounding: on REF_EX 6,536 of 12,000 exact-rational corner images do
(ROADMAP.md, item 4, "Validated interval arithmetic").

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
memory in flight; so a family started from the square gives each word
the cover, box for box, that a refinement of that word alone gives.

The kernel keeps the hulls as an :class:`Interval` pair, four
contiguous columns, from the first step to the last.  A round keeps its
boxes as such columns too: a slice is a view of them, and a slice of
quadrants halves its rows at their midpoints.  Each branch picks by
index the rows that meet its strip (image band) and clips, maps and
tests only those; each band piece tests its floor and parabola offset
only on the rows in its x-range.  A row gets the same float expressions
as if every branch and band piece evaluated it, so routing cuts the cost
per row and changes no cover.  Every band piece lies in x in [0, 1], so
a hull that meets one meets [0, 1] in x, and the labels test only y
against the square.  ``_SLICE`` caps the boxes per call of
:func:`_verdicts`, and with them the length of the hull columns: a step
gives a hull one row per strip it meets, and in the REF_EX (levels 1-3)
and REF_STRICT (levels 1-2) builds no step held more than four rows per
box of its slice.

:func:`_verdicts` runs the backward pass first.  Both passes AND into
the same word masks, so their order cannot change a verdict, and the
forward pass steps only the boxes the backward one left alive: on the
seed-1 ``atlas`` builds it gets 1,731,294 rows, against 1,854,229 the
other way round.

Only the times that can change a verdict are labelled.  The nine
children share their parent's symbols at every |k| < n, and each box of
the parent's cover is of the finest size or certified interior there.
An unsplit box repeats the parent's float computation, and a quadrant
of an interior box has hulls inside the parent's exact hulls, since
every hull bound, clip and band test is a monotone float expression of
the box ends.  So a family started from its parent's cover is labelled
at k = +-n alone, though its hulls are still stepped through every
time.  The inside bits are computed only for boxes above the finest
size: a finest box is kept on meeting alone.

Every cover box is a dyadic cell: :func:`_refine` only halves boxes of
the unit square, so a box of depth d is [i, i + 1] x [j, j + 1] times
2^-d for integers i and j, with d at most the resolution (the 455,757
boxes of ``atoms(REF_EX, 2)`` have depths 9 to 13).
:meth:`Atom.contains` decides through these cells.  An atom's first
lookup sorts the ``uint32`` keys d << 28 | i << 14 | j of its boxes, 4
bytes per box, and keeps them with the atom (:func:`_cell_index`, which
raises on a box that is not such a cell of depth at most 14).  A lookup
then binary-searches, depth by depth, only the cells whose closed span
can hold the point, at most four per depth at slack 0, and applies a
box scan's closed float test to the cells it finds.  So it answers as a
scan of every box does, at a cost set by the number of depths, not of
boxes.  It tries the depths in decreasing order of the area their cells
cover and stops at its first hit.

:func:`atoms` refines a level in families from the parents' covers and
:func:`atom` one word alone from the square: the same boxes, but on
REF_EX mostly in another order, so 23 level-2 representative points
differ.  :func:`theta` reads the level, as :mod:`horseshoe.thermo` does.
:func:`atoms` keeps the last eight levels built, keyed on parameters,
level and resolution (from :func:`default_resolution`); callers get a
fresh dict over shared atoms whose box arrays are read-only.  Each atom
keeps its representative point once asked for it, so a warm level costs
no itinerary.  Numerical settings: ``_SLICE`` and ``_THETA_MIN_PAIRS``.
"""

from __future__ import annotations

import array
import bisect
import functools
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import map_core as mc
from .map_core import MapParams, closed_form_gamma


class NotInBands(mc.HorseshoeError, ValueError):
    """Point outside all three vertical image bands."""


class EmptyAtom(mc.HorseshoeError, ValueError):
    """The word's box cover refined away to nothing."""


class Escaped(mc.HorseshoeError, RuntimeError):
    """Some iterate of the point left the bands."""

    def __init__(self, step: int):
        super().__init__(f"orbit leaves the bands at step {step}")
        self.step = step


class _NotACell(mc.HorseshoeError, ValueError):
    """A cover box that is not a dyadic cell of the unit square."""


def _level(n) -> int:
    """``n`` as a level: a nonnegative integer, or ValueError naming it."""
    if not isinstance(n, numbers.Integral) or n < 0:
        raise ValueError(f"level {n!r} is not a nonnegative integer")
    return int(n)


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
    failing time when an iterate leaves the bands, and ValueError when
    ``n`` is not a nonnegative integer."""
    n = _level(n)
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
# boxes are arrays (N, 4) of (xmin, ymin, xmax, ymax); hulls are pairs
# (x, y) of Interval columns

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
    the hulls contain the images of the float map, not always the exact
    images (see the module docstring)."""

    __slots__ = ("lo", "hi")
    __array_ufunc__ = None      # numpy scalars defer to these methods

    def __init__(self, lo, hi):
        self.lo, self.hi = lo, hi

    def __getitem__(self, mask) -> "Interval":
        return Interval(self.lo[mask], self.hi[mask])

    @staticmethod
    def concatenate(parts) -> "Interval":
        """The rows of several intervals, in order."""
        return Interval(np.concatenate([p.lo for p in parts]),
                        np.concatenate([p.hi for p in parts]))

    def meets(self, lo, hi) -> np.ndarray:
        """Whether each interval meets [lo, hi] (both have lo <= hi)."""
        return (self.hi >= lo) & (self.lo <= hi)

    def within(self, lo, hi) -> np.ndarray:
        """Whether each interval lies inside [lo, hi]."""
        return (self.lo >= lo) & (self.hi <= hi)

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


def _columns(boxes: np.ndarray) -> tuple:
    """Boxes (N, 4) of (xmin, ymin, xmax, ymax) as the interval pair
    (x, y) over four contiguous columns."""
    x0, y0, x1, y1 = np.ascontiguousarray(boxes.T)
    return Interval(x0, x1), Interval(y0, y1)


def _step(params: MapParams, x: Interval, y: Interval, forward: bool):
    """Interval hulls of the branch images (``forward``) or preimages of
    the hulls (x, y), as (x, y, origin, whole): origin maps each new hull
    back to its source row, and whole marks the images of sources lying
    entirely inside the strip (image band), which are exact.

    Each branch picks by index the rows that meet its strip (image band,
    above its floor) and clips, maps and tests only those; rows inside
    the gaps produce nothing.  Since every hull has lo <= hi, a row meets
    [lo, hi] exactly when its clip to [lo, hi] is nonempty.  The
    parabolic band is also bounded by its offset, which is the preimage
    abscissa clipped to the strip's [0, 1]; a whole preimage needs no
    clipping."""
    xs, ys, origin, exact = [], [], [], []
    for br in mc.BRANCHES:
        if forward:
            lo, hi = br.strip(params)
            ok = y.meets(lo, hi)
        else:
            lo, hi = br.column(params)
            ok = x.meets(lo, hi)
            if br.floor:
                f = mc._band_floor(params, br)
                ok &= y.hi >= f
        rows = ok.nonzero()[0]
        if not len(rows):
            continue
        cx, cy = x[rows], y[rows]
        if forward:
            whole = cy.within(lo, hi)
            ix, iy = br.forward(params, cx, cy.clip(lo, hi),
                                csq=_interval_csq)
        else:
            whole = cx.within(lo, hi)
            if br.floor:
                whole &= cy.lo >= f
                cy = cy.clip(f)
            ix, iy = br.inverse(params, cx.clip(lo, hi), cy)
            if br.parabolic:
                whole &= ix.within(0.0, 1.0)
                keep = ix.meets(0.0, 1.0).nonzero()[0]
                ix, iy = ix[keep].clip(0.0, 1.0), iy[keep]
                rows, whole = rows[keep], whole[keep]
        xs.append(ix)
        ys.append(iy)
        origin.append(rows)
        exact.append(whole)
    if not origin:
        rows = np.empty(0, dtype=np.intp)
        return x[rows], y[rows], rows, np.empty(0, dtype=bool)
    return (Interval.concatenate(xs), Interval.concatenate(ys),
            np.concatenate(origin), np.concatenate(exact))


def _band_bits(params: MapParams, x: Interval, y: Interval, among,
               whole: bool) -> np.ndarray:
    """Bit s of each hull among ``among`` (a mask, or True) when it meets,
    or (``whole``) lies entirely inside, the closure of band s.

    One broadcast tests every row against the x-ranges of all pieces of
    ``params._bands``; the floor and the parabola offset are tested only
    on the rows in their piece's x-range.  On one wing of the parabolic
    band x - q keeps its sign, so the hull of its square is the squares
    of its two ends, in order: the floats that ``Interval ** 2`` gives."""
    pieces = params._bands
    los, his = (np.array([[p[i]] for p in pieces]) for i in (2, 3))
    syms = np.array([[p[0]] for p in pieces], dtype=np.uint8)
    if whole:
        hit = (x.lo >= los) & (x.hi <= his)
    else:
        hit = (x.hi >= los) & (x.lo <= his)
    hit &= among
    test = Interval.within if whole else Interval.meets
    for i, (_, br, lo, hi, floor) in enumerate(pieces):
        if floor is not None:
            hit[i] &= (y.lo if whole else y.hi) >= floor
        if br.parabolic:
            # offset hull over the hull (its part over the wing, if meeting)
            rows = hit[i].nonzero()[0]
            d = (x[rows] if whole else x[rows].clip(lo, hi)) - params.q
            a, b = d.lo * d.lo, d.hi * d.hi
            sq = Interval(b, a) if hi == params.q else Interval(a, b)
            hit[i, rows] = test(params.c * sq - y[rows], 0.0, params.lam)
    return np.bitwise_or.reduce(hit.view(np.uint8) << syms, axis=0)


def _labels(params: MapParams, x: Interval, y: Interval,
            whole: np.ndarray) -> np.ndarray:
    """Packed band label of each hull: bit s when it meets the closure of
    band s, bit 3 + s when it is ``whole`` (exact) and lies entirely
    inside that closure.  Every band piece lies in x in [0, 1], so only
    y is tested against the square."""
    label = _band_bits(params, x, y, y.meets(0.0, 1.0), False)
    inner = (whole & y.within(0.0, 1.0)).nonzero()[0]
    if len(inner):
        label[inner] |= _band_bits(params, x[inner], y[inner], True,
                                   True) << 3
    return label


def _verdicts(params: MapParams, x: Interval, y: Interval,
              member: np.ndarray, exact: np.ndarray, table: np.ndarray,
              first_unknown: int) -> tuple:
    """Word masks (meet, inside) of each box (x, y).

    ``table[n + k, bits]`` holds the words whose symbol at time k is one
    of the bands in ``bits``.  Bit j of meet is set when the box is in
    word j's cover (``member``) and its time-k hulls meet band s_k for
    every |k| <= n; bit j of inside when the box is ``exact`` and exact
    time-k hulls lie inside band s_k for every |k| <= n.  Hulls are
    advanced only while their box still survives for some word.

    Bands are tested only at the times |k| >= ``first_unknown``; the
    verdicts at earlier times are taken as known for every member word:
    meet starts as ``member``, inside as ``member`` on the exact boxes.
    That holds for the boxes of a parent's cover and their quadrants
    (see :func:`_refine`).  The hulls are still stepped through every
    time, so the same hulls reach the tested times."""
    n = len(table) // 2
    if first_unknown == 0:
        label = _labels(params, x, y, exact)
        meet = member & table[n].take(label & 7)
        inside = table[n].take(label >> 3)
    else:
        meet = member.copy()
        inside = np.where(exact, member, np.uint16(0))
    for forward, sign in ((False, -1), (True, 1)):
        rows = (meet != 0).nonzero()[0]
        hx, hy = (x, y) if len(rows) == len(meet) else (x[rows], y[rows])
        whole = inside.take(rows) != 0
        for k in range(1, n + 1):
            hx, hy, origin, step_whole = _step(params, hx, hy, forward)
            rows = rows[origin]
            whole = whole[origin] & step_whole
            if k >= first_unknown:
                label = _box_labels(len(meet), rows,
                                    _labels(params, hx, hy, whole))
                meet &= table[n + sign * k].take(label & 7)
                inside &= table[n + sign * k].take(label >> 3)
            if k == n:
                break
            # the next step drops the hulls that miss every strip
            keep = (meet.take(rows) != 0).nonzero()[0]
            hx, hy, rows = hx[keep], hy[keep], rows[keep]
            whole = whole[keep] & (inside.take(rows) != 0)
    return meet, inside


def _box_labels(count: int, rows: np.ndarray, label: np.ndarray) -> np.ndarray:
    """The OR of the hull labels of each of ``count`` boxes, where hull i
    belongs to box ``rows[i]``: one assignment, then the labels that
    another hull of the same box overwrote are ORed back in."""
    out = np.zeros(count, dtype=np.uint8)
    out[rows] = label
    lost = (out[rows] != label).nonzero()[0]
    if len(lost):
        np.bitwise_or.at(out, rows[lost], label[lost])
    return out


# ---------------------------------------------------------------------------
# Atoms
# ---------------------------------------------------------------------------

def _cell_index(word: Word, boxes: np.ndarray) -> tuple:
    """(keys, depths): the sorted ``uint32`` keys d << 28 | i << 14 | j of
    the cover ``boxes``, each the cell [i, i + 1] x [j, j + 1] times 2^-d,
    and the depths d present, in decreasing order of the area their cells
    cover: the order in which a point is most likely to be found.

    Raises :class:`_NotACell`, naming the word and the box, when a box is
    not such a cell with d <= 14, bit for bit."""
    x0, y0, x1, y1 = boxes.T
    mant, exp = np.frexp(x1 - x0)
    depth = 1 - exp
    size = np.ldexp(1.0, depth)
    i, j = x0 * size, y0 * size
    cell = ((mant == 0.5) & (depth >= 0) & (depth <= 14)
            & (i == np.floor(i)) & (j == np.floor(j))
            & (i >= 0) & (j >= 0) & (i < size) & (j < size)
            & (x1 == (i + 1) / size) & (y1 == (j + 1) / size))
    bad = (~cell).nonzero()[0]
    if len(bad):
        raise _NotACell(f"cover of {word.to_string()}: box "
                        f"{tuple(boxes[bad[0]].tolist())} is not a dyadic "
                        f"cell of depth at most 14")
    keys = np.sort((depth.astype(np.uint32) << 28)
                   | (i.astype(np.uint32) << 14) | j.astype(np.uint32))
    depths, counts = np.unique(keys >> 28, return_counts=True)
    order = np.argsort(-counts * 0.25 ** depths, kind="stable")
    return array.array("I", keys.tobytes()), tuple(depths[order].tolist())


def _probe(keys: array.array, key: int) -> bool:
    """Whether ``key`` is among the sorted ``keys``: one binary search."""
    at = bisect.bisect_left(keys, key)
    return at < len(keys) and keys[at] == key


@dataclass(frozen=True)
class Atom:
    """Box cover of the atom carrying ``word``: rows (xmin, ymin, xmax,
    ymax), each a dyadic cell of the unit square of depth at most the
    resolution it was refined to.  The sorted cell keys of the cover are
    built on the first :meth:`contains` and kept with the atom."""

    word: Word
    boxes: np.ndarray
    diameter_ub: float = field(init=False)
    empty: bool = field(init=False)
    # representative point per parameter set, see :func:`representative`
    _reps: dict = field(init=False, default_factory=dict, repr=False,
                        compare=False)
    # (keys, depths) of :func:`_cell_index`, built on the first lookup
    _cells: tuple = field(init=False, default=None, repr=False,
                          compare=False)

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
        """Whether some cover box, widened by ``slack``, holds ``p``:
        xmin - slack <= x <= xmax + slack, and the same in y.

        At each depth present only the cells whose closed span can meet
        [x - slack, x + slack] x [y - slack, y + slack], its ends moved out
        by more than that test can round, are looked up in the cell keys:
        at most two per axis when ``slack`` is 0.  The closed test above
        then decides on the cells found, so a lookup costs a few binary
        searches per depth, whatever the size of the cover.  NaN and
        infinite coordinates are in no box."""
        x, y = float(p[0]), float(p[1])
        if not (math.isfinite(x) and math.isfinite(y)):
            return False            # every box is bounded
        if self._cells is None:
            object.__setattr__(self, "_cells",
                               _cell_index(self.word, self.boxes))
        keys, depths = self._cells
        # [x - slack, x + slack] x [y - slack, y + slack], each end moved
        # out by two ulps of |v| + slack + 1, which bounds the rounding of
        # the box test's sums and of these ends, and clamped to [-1, 2],
        # which leaves the cells of the unit square that meet it unchanged
        ex = 2.0 * math.ulp(abs(x) + slack + 1.0)
        ey = 2.0 * math.ulp(abs(y) + slack + 1.0)
        xl = min(max(x - slack - ex, -1.0), 2.0)
        xh = min(max(x + slack + ex, -1.0), 2.0)
        yl = min(max(y - slack - ey, -1.0), 2.0)
        yh = min(max(y + slack + ey, -1.0), 2.0)
        for d in depths:
            # cell [i, i + 1] in units of w = 2^-d meets [lo, hi] when
            # ceil(lo) - 1 <= i <= floor(hi)
            size = 1 << d
            w = 1.0 / size
            js = range(max(math.ceil(yl * size) - 1, 0),
                       min(math.floor(yh * size), size - 1) + 1)
            for i in range(max(math.ceil(xl * size) - 1, 0),
                           min(math.floor(xh * size), size - 1) + 1):
                for j in js:
                    if _probe(keys, d << 28 | i << 14 | j) \
                            and i * w - slack <= x <= (i + 1) * w + slack \
                            and j * w - slack <= y <= (j + 1) * w + slack:
                        return True
        return False


def default_resolution(params: MapParams) -> int:
    """Quadtree depth resolving the thinnest band comfortably."""
    return max(8, min(14, int(math.log2(1.0 / params.lam)) + 10))


_SQUARE = np.array([[0.0, 0.0, 1.0, 1.0]])

#: Boxes per call of :func:`_verdicts`; bounds the hull columns in flight.
_SLICE = 16384
_THETA_MIN_PAIRS = 8    # resolved word pairs a Hoelder fit of theta needs


def _quadrant(x: Interval, y: Interval, q: int, rows: slice) -> tuple:
    """Quadrant q (0 lower left, 1 lower right, 2 upper left, 3 upper
    right) of the boxes (x, y) in ``rows``, as columns (x, y)."""
    x, y = x[rows], y[rows]
    xm, ym = 0.5 * (x.lo + x.hi), 0.5 * (y.lo + y.hi)
    return (Interval(xm, x.hi) if q & 1 else Interval(x.lo, xm),
            Interval(ym, y.hi) if q & 2 else Interval(y.lo, ym))


def _slices(x: Interval, y: Interval, member: np.ndarray, split: bool):
    """The boxes (x, y) of one refinement round with their word masks, in
    slices of at most ``_SLICE``: the given boxes, or (``split``) their
    quadrants, quadrant-major.  A word's boxes thus come in the order
    that splitting that word's boxes alone gives.

    A slice is cut from the round's columns as views; a quadrant takes
    the midpoints of its rows, and only a slice across two quadrant
    blocks is copied."""
    n = len(member)
    total = 4 * n if split else n
    for start in range(0, total, _SLICE):
        stop = min(start + _SLICE, total)
        cut = []
        for q in range(start // n, (stop - 1) // n + 1):
            rows = slice(max(start - q * n, 0), min(stop - q * n, n))
            qx, qy = _quadrant(x, y, q, rows) if split else (x[rows], y[rows])
            cut.append((qx, qy, member[rows]))
        if len(cut) == 1:
            yield cut[0]
        else:
            qx, qy, mem = zip(*cut)
            yield (Interval.concatenate(qx), Interval.concatenate(qy),
                   np.concatenate(mem))


def _refine(params: MapParams, words: list, boxes: np.ndarray,
            resolution: int, first_unknown: int) -> list:
    """Adaptive covers of a family of words of one level, all starting
    from ``boxes``: split surviving boxes down to 2^-resolution, but set
    aside boxes certified interior (no boundary can cross them).

    The words share their symbols at the times |k| < ``first_unknown``,
    and ``boxes`` is a cover that is final for those times: each box is
    either of the finest size or certified interior there.  The bands
    are then tested only at the later times (:func:`_verdicts`).  An
    unsplit box repeats the float computation that built the cover.  A
    quadrant of an interior box has its hulls inside the box's exact
    hulls, because every hull bound, clip and band test is a monotone
    float expression of the box ends; so it passes the same tests.  The
    inside test runs only on boxes above the finest size: a finest box
    is kept on meeting alone.

    Boxes kept for some word are set aside once, with their word masks,
    and split into the word covers when the family is done."""
    n = words[0].n
    # table[n + k, bits]: the words whose time-k symbol is among ``bits``
    bits = np.arange(8)
    table = np.zeros((2 * n + 1, 8), dtype=np.uint16)
    for j, w in enumerate(words):
        table |= ((bits >> np.array(w.symbols)[:, None] & 1) << j) \
            .astype(np.uint16)
    min_w = 1.5 * 2.0 ** -resolution
    kept, kept_masks = [np.empty((0, 4))], [np.empty(0, dtype=np.uint16)]
    x, y = _columns(np.asarray(boxes, dtype=float))
    member = np.full(len(x.lo), (1 << len(words)) - 1, dtype=np.uint16)
    split = False
    while len(member):
        xs, ys, masks = [], [], []
        for sx, sy, mem in _slices(x, y, member, split):
            small = (sx.hi - sx.lo) <= min_w
            meet, inside = _verdicts(params, sx, sy, mem, ~small, table,
                                     first_unknown)
            keep = np.where(small, meet, meet & inside)
            rows = (keep != 0).nonzero()[0]
            kept.append(np.column_stack([sx.lo[rows], sy.lo[rows],
                                         sx.hi[rows], sy.hi[rows]]))
            kept_masks.append(keep.take(rows))
            rest = meet & ~keep
            rows = (rest != 0).nonzero()[0]
            xs.append(sx[rows])
            ys.append(sy[rows])
            masks.append(rest.take(rows))
        # free this round's columns before joining the next round's, which
        # lowers the peak memory of a family
        del x, y, sx, sy
        x, y = Interval.concatenate(xs), Interval.concatenate(ys)
        member = np.concatenate(masks)
        split = True
    kept, kept_masks = np.concatenate(kept), np.concatenate(kept_masks)
    return [kept.take(((kept_masks & np.uint16(1 << j)) != 0).nonzero()[0],
                      axis=0) for j in range(len(words))]


def atom(params: MapParams, word: Word) -> Atom:
    """Sound box cover of the partition atom carrying ``word``."""
    word.n  # validates centering
    return Atom(word, _refine(params, [word], _SQUARE,
                              default_resolution(params), 0)[0])


def _levels(params: MapParams, resolution: int):
    """Covers {word: boxes} of the nonempty level-0, 1, 2, ... atoms, each
    level refining the previous one (nesting makes the parents valid
    starting covers)."""
    words = [Word((s,), 0) for s in (0, 1, 2)]
    level = dict(zip(words, _refine(params, words, _SQUARE, resolution, 0)))
    while True:
        level = {w: b for w, b in level.items() if len(b)}
        yield level
        nxt = {}
        for w, boxes in level.items():
            children = [Word((a,) + w.symbols + (b,), w.center + 1)
                        for a in (0, 1, 2) for b in (0, 1, 2)]
            nxt.update(zip(children,
                           _refine(params, children, boxes, resolution,
                                   w.n + 1)))
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


def atoms(params: MapParams, n: int) -> dict:
    """All nonempty level-n atoms, as a fresh dict over cached atoms.
    Raises ValueError, before building anything, when ``n`` is not a
    nonnegative integer."""
    return dict(_cached_atoms(params, _level(n), default_resolution(params)))


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


def representative(params: MapParams, a: Atom) -> tuple:
    """:func:`_representative`, kept on the atom: an atom of the atom
    cache keeps its point as long as the cache keeps its level."""
    if params not in a._reps:
        a._reps[params] = _representative(params, a)
    return a._reps[params]


def theta(params: MapParams, word: Word) -> ThetaPoint:
    """Representative point of the word's atom in the level cover of
    :func:`atoms`, with its radius bound.  Ambiguity flags are dropped;
    a word that is not in the level raises :class:`EmptyAtom`."""
    a = atoms(params, word.n).get(Word(word.symbols, word.center))
    if a is None:
        raise EmptyAtom(word.to_string())
    return ThetaPoint(point=representative(params, a),
                      radius=a.diameter_ub, word=a.word)


def decay_table(params: MapParams, n_max: int) -> dict:
    """Max atom diameter per level and the fitted exponential rate."""
    rows = [(0, math.sqrt(2.0))]
    rows += [(n, max(a.diameter_ub for a in atoms(params, n).values()))
             for n in range(1, n_max + 1)]
    ns, ds = np.array(rows[1:], dtype=float).reshape(-1, 2).T
    rate = float(np.exp(np.polyfit(ns, np.log(ds), 1)[0])) \
        if len(ns) >= 2 else float("nan")
    return {"rows": rows, "rate": rate,
            "reference_rate": 0.5 ** closed_form_gamma(params)}


def theta_holder_fit(params: MapParams, pairs) -> dict:
    """Holder exponent fit for theta from word pairs.

    Each pair contributes the point (j, |theta(w) - theta(w')|) where j
    is the first disagreement depth, fitted against d = 2^-j."""
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
        t1, t2 = theta(params, w1), theta(params, w2)
        d = math.hypot(t1.point[0] - t2.point[0], t1.point[1] - t2.point[1])
        floor = max(t1.radius, t2.radius)
        if d > floor:
            depths.append(j)
            dists.append(d)
    if len(dists) < _THETA_MIN_PAIRS:
        raise ValueError(f"only {len(dists)} resolved pairs, "
                         f"need {_THETA_MIN_PAIRS}")
    slope = np.polyfit(np.array(depths, dtype=float) * math.log(0.5),
                       np.log(np.array(dists)), 1)[0]
    return {"gamma_est": float(slope), "gamma": closed_form_gamma(params),
            "pairs_used": len(dists)}
