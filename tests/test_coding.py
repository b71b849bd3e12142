"""Tests for the symbolic coding: bands, itineraries, atom covers,
theta and its Holder fit."""

import collections
import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import horseshoe.coding as cd
import horseshoe.map_core as mc
import horseshoe.sampling as sp
from horseshoe.map_core import REF_EX, REF_STRICT, apply, apply_inverse
from reference import (_reference_contains, _reference_labels,
                       _reference_slices, _reference_step,
                       _reference_verdicts)
from test_branch_table import valid_params


def _sample_words(params, n, count, seed=0, max_draws=2_000_000,
                  block=4096):
    """Random points with defined length-(2n+1) itineraries.

    The uniform draws come ``block`` points at a time, in the order of
    one-at-a-time draws.  A draw whose orbit
    :func:`map_core.step_arrays` shows escaping within n forward steps
    would make :func:`coding.itinerary` raise :class:`coding.Escaped`,
    so it is dropped unasked; the words are those of
    :func:`_sample_words_one_by_one`."""
    rng = np.random.default_rng(seed)
    out = []
    for start in range(0, max_draws, block):
        pts = rng.uniform(size=(min(block, max_draws - start), 2))
        x, y = pts.T
        for _ in range(n):
            x, y, _ = mc.step_arrays(params, x, y)
        for px, py in pts[~np.isnan(x)].tolist():
            try:
                out.append(((px, py), cd.itinerary(params, (px, py), n)))
            except (cd.NotInBands, cd.Escaped):
                continue
            if len(out) == count:
                return out
    raise AssertionError("sampling starved")


def _sample_words_one_by_one(params, n, count, seed):
    """The reference for :func:`_sample_words`: one draw, one itinerary."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        p = (float(rng.uniform()), float(rng.uniform()))
        try:
            out.append((p, cd.itinerary(params, p, n)))
        except (cd.NotInBands, cd.Escaped):
            continue
    return out


@pytest.mark.parametrize("n,count,seed", [(1, 40, 1), (2, 20, 4), (3, 12, 6)])
def test_block_sampler_keeps_the_one_by_one_words(n, count, seed):
    fast = _sample_words(REF_EX, n, count, seed=seed, block=64)
    assert fast == _sample_words_one_by_one(REF_EX, n, count, seed)
    assert all(type(c) is float for p, _ in fast for c in p)


# ---------------------------------------------------------------------------
# Words
# ---------------------------------------------------------------------------

class TestWord:
    def test_string_round_trip(self):
        w = cd.Word.from_string("010.210")
        assert w.symbols == (0, 1, 0, 2, 1, 0)
        assert w.center == 3
        assert w.to_string() == "010.210"

    def test_centered_length(self):
        assert cd.Word((0, 1, 2), 1).n == 1
        with pytest.raises(ValueError):
            cd.Word((0, 1), 1).n

    def test_symbol_indexing(self):
        w = cd.Word((0, 1, 2), 1)
        assert (w.symbol(-1), w.symbol(0), w.symbol(1)) == (0, 1, 2)

    def test_bad_symbols_rejected(self):
        with pytest.raises(ValueError):
            cd.Word((0, 3), 0)
        with pytest.raises(ValueError):
            cd.Word((0, 1), 5)
        with pytest.raises(ValueError):
            cd.Word.from_string("01.2.0")


# ---------------------------------------------------------------------------
# Bands and itineraries
# ---------------------------------------------------------------------------

class TestBands:
    def test_left_band(self):
        assert cd.band_of(REF_EX, (0.05, 0.3)) == frozenset({0})

    def test_right_band_corner(self):
        assert cd.band_of(REF_EX, (1.0, 1.0)) == frozenset({1})

    def test_middle_band(self):
        assert cd.band_of(REF_EX, (0.45, 0.8)) == frozenset({2})

    def test_tangency_point_is_double(self):
        assert cd.band_of(REF_EX, (REF_EX.q, 0.0)) == frozenset({1, 2})

    def test_wings_attach_to_side_bands(self):
        # points just off the tangency on the parabolic image
        q, c = REF_EX.q, REF_EX.c
        w = 0.1
        y = c * w * w - 0.5 * REF_EX.lam
        assert cd.band_of(REF_EX, (q + w, y)) == frozenset({1})
        assert cd.band_of(REF_EX, (q - w, y)) == frozenset({2})

    def test_gap_raises(self):
        with pytest.raises(cd.NotInBands):
            cd.band_of(REF_EX, (0.2, 0.5))
        with pytest.raises(cd.NotInBands):
            cd.band_of(REF_EX, (0.5, 1.2))


class TestItinerary:
    def test_origin_fixed_point(self):
        assert cd.itinerary(REF_EX, (0.0, 0.0), 3).to_string() == "000.0000"

    def test_corner_fixed_point(self):
        assert cd.itinerary(REF_EX, (1.0, 1.0), 3).to_string() == "111.1111"

    def test_tangency_code(self):
        w = cd.itinerary(REF_EX, (REF_EX.q, 0.0), 1)
        assert w.to_string() == "0.10"          # lower symbol kept
        assert w.ambiguous == (1,)              # center position flagged

    def test_escape_reports_step(self):
        # (0.2, 0.5) sits in the gap between bands at time 0
        with pytest.raises(cd.Escaped):
            cd.itinerary(REF_EX, (0.2, 0.5), 1)
        # forward image of (0.05, 0.3) leaves the strips
        with pytest.raises(cd.Escaped) as err:
            cd.itinerary(REF_EX, (0.05, 0.3), 2)
        assert err.value.step > 0

    @given(params=valid_params())
    @example(params=REF_EX)
    @settings(max_examples=10, deadline=None)
    def test_shift_consistency(self, params):
        # built A-points hold a level-2 itinerary on every valid set;
        # uniform draws hit points with level-3 ones only at small sigma
        rng = np.random.default_rng(5)
        points = [sp.sample_returning_point(params, rng).M
                  for _ in range(20)]
        samples = [(p, cd.itinerary(params, p, 2)) for p in points]
        if params.sigma < 10.0:
            samples += _sample_words(params, 3, 40, seed=5)
        for p, w in samples:
            wf = cd.itinerary(params, apply(params, p), w.n - 1)
            # times -n+1..n-1 of f(p) are times -n+2..n of p
            assert wf.symbols == w.symbols[2:]

    def test_strict_params(self):
        w = cd.itinerary(REF_STRICT, (0.0, 0.0), 2)
        assert w.to_string() == "00.000"

    @pytest.mark.parametrize("n", [-1, 1.5, "2", None])
    def test_a_level_must_be_a_nonnegative_integer(self, n):
        # atoms(REF_STRICT, -1) used to build ever deeper levels and never
        # return, and itinerary(..., -1) raised Escaped or a complaint
        # about the word's center
        with mock.patch.object(cd, "_refine", side_effect=AssertionError):
            with pytest.raises(ValueError, match=f"level {n!r} "):
                cd.atoms(REF_STRICT, n)
        with pytest.raises(ValueError, match=f"level {n!r} "):
            cd.itinerary(REF_EX, (0.0, 0.0), n)

    def test_a_numpy_integer_is_a_level(self):
        assert cd.itinerary(REF_EX, (0.0, 0.0), np.int64(1)).to_string() \
            == "0.00"
        assert cd.atoms(REF_EX, np.int64(0)).keys() \
            == cd.atoms(REF_EX, 0).keys()


# ---------------------------------------------------------------------------
# Atom covers
# ---------------------------------------------------------------------------

class TestAtoms:
    def test_all_zero_atom_sits_in_the_corner(self):
        a = cd.atom(REF_EX, cd.Word((0, 0, 0), 1))
        assert not a.empty
        assert a.contains((0.0, 0.0))
        assert np.max(a.boxes[:, 2]) <= REF_EX.lam + 1e-12
        assert np.max(a.boxes[:, 3]) <= REF_EX.inv_sigma + 1e-3

    def test_soundness_sampled_points(self):
        level = cd.atoms(REF_EX, 1)
        for p, w in _sample_words(REF_EX, 1, 300, seed=1):
            plain = cd.Word(w.symbols, w.center)
            assert plain in level
            assert level[plain].contains(p, slack=1e-12)

    def test_center_symbol_not_determined(self):
        # the parabolic strip shadows the band itineraries of the two
        # straight strips, so every center symbol is realizable and all
        # 27 centered 3-words carry points
        level = cd.atoms(REF_EX, 1)
        assert len(level) == 27
        # explicit witnesses in different strips sharing one word
        wa = cd.itinerary(REF_EX, (0.05, 0.5974), 2)
        wb = cd.itinerary(REF_EX, (0.05, 0.688), 2)
        assert wa.symbols == wb.symbols == (0, 2, 0, 2, 0)

    def test_counts(self):
        assert len(cd.atoms(REF_EX, 0)) == 3
        # all but two of the 3^5 centered 5-words carry points
        assert len(cd.atoms(REF_EX, 2)) == 241

    def test_nesting(self, monkeypatch):
        res = 12
        monkeypatch.setattr(cd, "default_resolution", lambda p: res)
        parents = cd.atoms(REF_EX, 1)
        children = cd.atoms(REF_EX, 2)
        slack = 2.0 ** -res
        for w, a in children.items():
            parent = parents[cd.Word(w.symbols[1:-1], w.center - 1)]
            mids = 0.5 * (a.boxes[:, :2] + a.boxes[:, 2:])
            for x, y in mids[:: max(1, len(mids) // 20)]:
                assert parent.contains((x, y), slack=slack)

    def test_markov_containment_on_orbits(self):
        level = cd.atoms(REF_EX, 1)
        for p, w in _sample_words(REF_EX, 2, 60, seed=2):
            fwd = cd.Word(w.symbols[2:], 1)
            bwd = cd.Word(w.symbols[:-2], 1)
            assert level[fwd].contains(apply(REF_EX, p), slack=1e-12)
            assert level[bwd].contains(apply_inverse(REF_EX, p), slack=1e-12)

    def test_empty_atom(self):
        a = cd.atom(REF_EX, cd.Word.from_string("11.011"))
        assert a.empty
        assert a.diameter_ub == 0.0
        assert not a.contains((0.5, 0.5))
        with pytest.raises(cd.EmptyAtom):
            a.center()

    def test_step_drops_a_box_inside_a_gap(self):
        box = np.array([[0.4, 0.25, 0.6, 0.3]])
        assert mc.classify(REF_EX, (0.5, 0.25)) is mc.Region.R2
        x, y, origin, whole = cd._step(REF_EX, *cd._columns(box), True)
        assert len(x.lo) == len(x.hi) == len(y.lo) == len(y.hi) == 0
        assert len(origin) == len(whole) == 0

    def test_strict_params_level_one(self):
        level = cd.atoms(REF_STRICT, 1)
        assert len(level) == 27
        assert all(not a.empty for a in level.values())

    def test_cached_atoms_are_frozen(self):
        # the atom cache shares its Atom objects between callers
        a = cd.atoms(REF_EX, 1)[cd.Word((0, 0, 0), 1)]
        assert a is cd.atoms(REF_EX, 1)[cd.Word((0, 0, 0), 1)]
        for name, value in (("empty", True), ("diameter_ub", 0.0),
                            ("word", cd.Word((1, 1, 1), 1)),
                            ("boxes", np.zeros((0, 4)))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(a, name, value)
        assert not a.empty and a.diameter_ub > 0.0
        assert not a.boxes.flags.writeable


# ---------------------------------------------------------------------------
# Refinement from a parent's cover
# ---------------------------------------------------------------------------

def _families(params, resolution, n_max):
    """(n, children, parent cover) for every level-(n - 1) atom with
    n = 1..n_max: the families that ``_levels`` refines."""
    out = []
    levels = cd._levels(params, resolution)
    for n, parents in enumerate(itertools.islice(levels, n_max), 1):
        for w, boxes in parents.items():
            children = [cd.Word((a,) + w.symbols + (b,), w.n + 1)
                        for a in (0, 1, 2) for b in (0, 1, 2)]
            out.append((n, children, boxes))
    return out


@given(params=valid_params(), resolution=st.integers(6, 7))
@example(params=REF_EX, resolution=7)
@example(params=REF_STRICT, resolution=7)
@settings(max_examples=8, deadline=None)
def test_parent_cover_needs_only_the_new_times(params, resolution):
    # labelling every time again gives the same covers, box for box
    boxes_seen = 0
    for n, children, boxes in _families(params, resolution, 2):
        full = cd._refine(params, children, boxes, resolution, 0)
        fast = cd._refine(params, children, boxes, resolution, n)
        for a, b in zip(full, fast, strict=True):
            assert np.array_equal(a, b)
        boxes_seen += sum(map(len, full))
    assert boxes_seen > 0


def test_parent_cover_labels_only_the_new_times(monkeypatch):
    params, resolution = REF_EX, 7
    families = _families(params, resolution, 2)
    rows = collections.Counter()    # (time, exact) -> hull rows labelled
    # steps taken forward (True) and backward (False) in this _verdicts
    # call, and under None the direction of the last one
    clock = {}
    verdicts, step, labels = cd._verdicts, cd._step, cd._labels

    def timed_verdicts(*args):
        clock.update({True: 0, False: 0, None: None})
        return verdicts(*args)

    def timed_step(params, x, y, forward):
        clock[forward] += 1
        clock[None] = forward
        return step(params, x, y, forward)

    def counted_labels(params, x, y, whole):
        last = clock[None]
        time = 0 if last is None else clock[True] if last else -clock[False]
        rows[time, False] += len(x.lo)
        rows[time, True] += int(np.count_nonzero(whole))
        return labels(params, x, y, whole)

    monkeypatch.setattr(cd, "_verdicts", timed_verdicts)
    monkeypatch.setattr(cd, "_step", timed_step)
    monkeypatch.setattr(cd, "_labels", counted_labels)

    def labelled(children, boxes, first_unknown):
        rows.clear()
        cd._refine(params, children, boxes, resolution, first_unknown)
        return ({k for (k, _), r in rows.items() if r},
                sum(r for (_, exact), r in rows.items() if exact))

    min_w = 1.5 * 2.0 ** -resolution
    fine_seen = exact_seen = 0
    for n, children, boxes in families:
        times, _ = labelled(children, boxes, n)
        assert n in times and times <= {n, -n}
        # the route from the square labels every time
        times, _ = labelled(children, boxes, 0)
        assert times == set(range(-n, n + 1))
        small = (boxes[:, 2] - boxes[:, 0]) <= min_w
        for first_unknown in (0, n):
            assert labelled(children, boxes[small], first_unknown)[1] == 0
        exact_seen += labelled(children, boxes[~small], n)[1]
        fine_seen += int(small.sum())
    assert fine_seen > 0 and exact_seen > 0


# ---------------------------------------------------------------------------
# Slices, pass order and memory of a refinement
# ---------------------------------------------------------------------------

def _same_bits(*pairs):
    """Whether the two arrays of each pair have the same shape, dtype and
    bytes."""
    return all(a.shape == b.shape and a.dtype == b.dtype
               and a.tobytes() == b.tobytes() for a, b in pairs)


def _crosses_a_quadrant_block(count):
    """Whether some slice of ``4 * count`` quadrant rows reaches over the
    end of a quadrant block."""
    return any(start // count != (min(start + cd._SLICE, 4 * count) - 1)
               // count for start in range(0, 4 * count, cd._SLICE))


@pytest.mark.parametrize("size", [cd._SLICE, 37], ids=["default", "37"])
def test_slices_equal_the_gather_reference(monkeypatch, size):
    monkeypatch.setattr(cd, "_SLICE", size)
    rng = np.random.default_rng(3)
    cases = [boxes for _, _, boxes in _families(REF_EX, 7, 2)[-4:]]
    cases += [_boxes(_spans(rng, 0.0, 1.0, count), _spans(rng, 0.0, 1.0, count))
              for count in (1, size, 3 * size // 2 + 1)]
    assert any(_crosses_a_quadrant_block(len(boxes)) for boxes in cases)
    for boxes in cases:
        member = rng.integers(1, 512, len(boxes)).astype(np.uint16)
        for split in (False, True):
            got = list(cd._slices(*cd._columns(boxes), member, split))
            want = list(_reference_slices(boxes, member, split))
            assert len(got) == len(want)
            for (gx, gy, gm), (wx, wy, wm) in zip(got, want):
                assert _same_bits((gx.lo, wx.lo), (gx.hi, wx.hi),
                                    (gy.lo, wy.lo), (gy.hi, wy.hi), (gm, wm))


@given(params=valid_params())
@example(params=REF_EX)
@example(params=REF_STRICT)
@settings(max_examples=6, deadline=None)
def test_covers_depend_neither_on_slices_nor_on_pass_order(params):
    # every word mask equals the forward-first reference's, and slices of
    # 37 boxes, which cut through the quadrant blocks of a round, give the
    # same covers, box for box
    resolution = 7
    verdicts = cd._verdicts
    calls = []

    def checked(*args):
        got = verdicts(*args)
        want = _reference_verdicts(*args)
        assert _same_bits(*zip(got, want))
        calls.append(len(args[3]))
        return got

    slices = cd._slices
    crossed = []

    def watched(x, y, member, split):
        crossed.append(split and _crosses_a_quadrant_block(len(member)))
        return slices(x, y, member, split)

    words = [cd.Word((s,), 0) for s in (0, 1, 2)]
    families = [(0, words, cd._SQUARE)] + _families(params, resolution, 2)
    for n, children, boxes in families:
        with mock.patch.object(cd, "_verdicts", checked):
            want = cd._refine(params, children, boxes, resolution, n)
        with mock.patch.object(cd, "_SLICE", 37), \
                mock.patch.object(cd, "_slices", watched):
            got = cd._refine(params, children, boxes, resolution, n)
        assert _same_bits(*zip(got, want, strict=True))
    assert any(crossed) and sum(calls) > 0


def test_level_build_memory_stays_bounded():
    # Peak traced memory of a cold atoms(REF_EX, 2) build at resolution
    # 11: 4.70 MB, against 4.67 MB when each slice gathered its quadrants.
    # The bound is that parent peak plus 20 %; a build that held a whole
    # level's boxes in flight, not one family's, would exceed it.
    tracemalloc.start()
    try:
        level = cd._cached_atoms.__wrapped__(REF_EX, 2, 11)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(level) == 241
    assert peak < 1.2 * 4.67 * 2**20


# ---------------------------------------------------------------------------
# Point lookups through the cell index of a cover
# ---------------------------------------------------------------------------

def _covers(params, resolution):
    """The atoms of levels 0-2 and two atoms built alone, at
    ``resolution``."""
    with mock.patch.object(cd, "default_resolution", lambda p: resolution):
        out = [a for n in (0, 1, 2) for a in cd.atoms(params, n).values()]
        out += [cd.atom(params, cd.Word.from_string(text))
                for text in (".2", "1.02")]
    return out


def _dyadic_cells(boxes, resolution) -> bool:
    """Whether every box is [i, i + 1] x [j, j + 1] times 2^-d for
    integers 0 <= i, j < 2^d and d <= ``resolution``: scaled by
    2^resolution, the corners are integers on a grid of the box's
    width, a power of two."""
    scaled = boxes * 2.0 ** resolution
    width = scaled[:, 2] - scaled[:, 0]
    whole = width.astype(np.int64)
    return bool(np.all(scaled == np.floor(scaled))
                and np.all(scaled[:, 3] - scaled[:, 1] == width)
                and np.all(width >= 1) and np.all(whole & (whole - 1) == 0)
                and np.all(scaled[:, 0] % width == 0)
                and np.all(scaled[:, 1] % width == 0)
                and np.all((scaled >= 0) & (scaled <= 2.0 ** resolution)))


@given(params=valid_params())
@example(params=REF_EX)
@example(params=REF_STRICT)
@settings(max_examples=4, deadline=None)
def test_every_cover_box_is_a_dyadic_cell(params):
    resolution = 7
    for a in _covers(params, resolution):
        assert _dyadic_cells(a.boxes, resolution), a.word
    assert _dyadic_cells(cd.atoms(REF_EX, 2)[cd.Word((0,) * 5, 2)].boxes,
                         cd.default_resolution(REF_EX))


_OFF_SQUARE = [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0), (0.0, 0.0),
               (1.0, 1.0), (0.0, 1.0), (1.0, 0.0), (-5e-324, 0.5),
               (np.nextafter(0.0, -1.0), 0.3), (np.nextafter(1.0, 2.0), 0.7),
               (0.3, np.nextafter(0.0, -1.0)), (0.7, np.nextafter(1.0, 2.0)),
               (-1e-12, 1e-12), (1.0 + 1e-12, 0.5), (5.0, 0.5), (0.5, -3.0),
               (1e308, 0.5), (0.5, -1e308),
               (math.nan, 0.5), (0.5, math.nan), (math.nan, math.nan),
               (math.inf, 0.5), (-math.inf, 0.5), (0.5, math.inf),
               (0.5, -math.inf), (math.inf, -math.inf)]


def _sides(v, slack):
    """``v``, and ``v - slack``, ``v + slack`` with the floats next to them
    on both sides."""
    out = {v}
    for u in (v - slack, v + slack):
        out |= {u, np.nextafter(u, -np.inf), np.nextafter(u, np.inf)}
    return sorted(out)


def _probes(rng, atom, slack, count):
    """Points to look up in ``atom``: ``count`` random ones in and
    around the square, the square's edges, points just off it and
    non-finite ones, and at a few boxes of the cover every point whose
    coordinates are the middle, an end, or an end moved out by ``slack``
    or a float next to that."""
    pts = [tuple(p) for p in rng.uniform(-0.05, 1.05, (count, 2))]
    pts += [(float(t), e) for t in rng.uniform(size=4) for e in (0.0, 1.0)]
    pts += [(e, float(t)) for t in rng.uniform(size=4) for e in (0.0, 1.0)]
    pts += _OFF_SQUARE
    if not atom.empty:
        for x0, y0, x1, y1 in atom.boxes[rng.integers(len(atom.boxes),
                                                      size=2)]:
            xs = [0.5 * (x0 + x1)] + _sides(x0, slack) + _sides(x1, slack)
            ys = [0.5 * (y0 + y1)] + _sides(y0, slack) + _sides(y1, slack)
            pts += list(itertools.product(xs, ys))
    return pts


@given(params=valid_params())
@example(params=REF_EX)
@example(params=REF_STRICT)
@settings(max_examples=4, deadline=None)
def test_lookups_give_the_box_scan_answer(params):
    resolution = 7
    rng = np.random.default_rng(11)
    covers = _covers(params, resolution)
    picked = [covers[i] for i in rng.choice(len(covers), 8, replace=False)]
    picked.append(cd.Atom(cd.Word.from_string("11.011"), np.empty((0, 4))))
    hits = 0
    for a in picked:
        for slack in (0.0, 1e-12, 2.0 ** -resolution):
            for p in _probes(rng, a, slack, 30):
                want = _reference_contains(a, p, slack)
                assert a.contains(p, slack) is want, (a.word, p, slack)
                hits += want
    assert hits > 0


@pytest.mark.parametrize("slack", [0.1, 0.3])
def test_lookups_at_a_wide_slack_give_the_box_scan_answer(slack):
    # at such a slack the sums v - slack and xmax + slack round on the
    # scale of the slack, not of v - slack: at depths 1-5 a range of cells
    # that is not widened misses 4 (0.1) and 16 (0.3) boxes that accept a
    # point next to an edge moved out by the slack, and one widened by a
    # float at each end still misses one (0.3)
    for depth in range(1, 6):
        w = 2.0 ** -depth
        for i in range(2 ** depth):
            lo, hi = i * w, (i + 1) * w
            for box in ((lo, 0.0, hi, w), (0.0, lo, w, hi)):
                a = cd.Atom(cd.Word.from_string(".0"), np.array([box]))
                for v in _sides(lo, slack) + _sides(hi, slack):
                    p = (v, 0.5 * w) if box[1] == 0.0 else (0.5 * w, v)
                    want = _reference_contains(a, p, slack)
                    assert a.contains(p, slack) is want, (box, p)


@pytest.mark.parametrize("box", [
    (0.1, 0.0, 0.35, 0.25),                 # corners off the grid
    (0.0, 0.0, 0.25, 0.5),                  # not square
    (0.25, 0.25, 0.5, 0.5 + 2.0 ** -40),
    (0.0, 0.0, 2.0 ** -15, 2.0 ** -15),     # deeper than a key holds
    (0.5, 0.5, 0.5, 0.5),                   # a point
    (1.0, 0.0, 2.0, 1.0),                   # outside the square
    (-0.5, 0.0, 0.0, 0.5),
    (math.nan, 0.0, 0.5, 0.5),
], ids=["off-grid", "oblong", "ragged", "deep", "point", "right", "left",
        "nan"])
def test_a_box_that_is_not_a_cell_stops_the_index(box):
    word = cd.Word.from_string("0.12")
    a = cd.Atom(word, np.array([(0.0, 0.0, 0.5, 0.5),
                                (0.5, 0.5, 0.75, 0.75), box]))
    # the first box holds the point: a scan would answer True, the index
    # refuses to be built
    with pytest.raises(cd._NotACell) as err:
        a.contains((0.25, 0.25))
    assert isinstance(err.value, mc.HorseshoeError)
    assert "0.12" in str(err.value)
    assert str(tuple(float(v) for v in box)) in str(err.value)


def test_a_lookup_probes_at_most_four_cells_per_depth(monkeypatch):
    probed = []
    probe = cd._probe

    def counted(keys, key):
        probed.append(key)
        return probe(keys, key)

    monkeypatch.setattr(cd, "_probe", counted)
    rng = np.random.default_rng(12)
    covers = sorted(cd.atoms(REF_EX, 2).values(), key=lambda a: len(a.boxes))
    picked = covers[::len(covers) // 10]
    assert len(picked[0].boxes) < 100 and len(picked[-1].boxes) > 5_000
    worst = 0
    for a in picked:
        depths = len(np.unique(a.boxes[:, 2] - a.boxes[:, 0]))
        for p in _probes(rng, a, 0.0, 30):
            probed.clear()
            a.contains(p)
            assert len(probed) <= 4 * depths, (a.word, p)
            worst = max(worst, len(probed) / depths)
        cells = a._cells
        a.contains((0.5, 0.5))
        assert a._cells is cells        # built once, kept with the atom
    assert worst > 1


# ---------------------------------------------------------------------------
# Routed hull kernel against the every-branch, every-band reference
# ---------------------------------------------------------------------------

def _spans(rng, a, b, count):
    """``count`` random [lo, hi] inside [a, b] (either order)."""
    ends = np.sort(rng.uniform(min(a, b), max(a, b), size=(count, 2)), axis=1)
    return ends[:, 0], ends[:, 1]


def _around(rng, a, b, width, count):
    """``count`` random [lo, hi] reaching from below ``a`` up past ``b``,
    by at most ``width`` on each side."""
    return (min(a, b) - rng.uniform(0.0, width, count),
            max(a, b) + rng.uniform(0.0, width, count))


def _boxes(x, y):
    return np.column_stack([x[0], y[0], x[1], y[1]])


def _edges(params):
    """Every strip, column and band edge and the floor of R5'."""
    ends = [br.strip(params) for br in mc.BRANCHES] \
        + [piece[2:4] for piece in params._bands]
    r5 = mc.BRANCH[mc.Region.R5]
    return sorted({float(e) for pair in ends for e in pair}
                  | {mc._band_floor(params, r5)})


def _touching(rng, edge, count):
    """``count`` random [lo, hi] ending at ``edge`` from above or below, or
    both ends on it."""
    w = rng.uniform(0.0, 0.05, count) * rng.integers(0, 2, count)
    below = rng.random(count) < 0.5
    return np.where(below, edge - w, edge), np.where(below, edge, edge + w)


def _step_cases(params, rng, count=40):
    """Boxes (N, 4) for both directions of a step: random ones, boxes
    straddling two strips (columns), boxes inside the gaps between them,
    boxes across the floor of R5', boxes ending on an edge, and boxes in
    the R4' column whose parabolic preimage leaves [0, 1]."""
    full = _spans(rng, -0.05, 1.05, count)
    cases = [_boxes(_spans(rng, -0.05, 1.05, count), full)]
    for edges in ([br.strip(params) for br in mc.BRANCHES],
                  sorted(br.column(params) for br in mc.BRANCHES)):
        for (_, top), (bottom, _) in zip(edges, edges[1:]):
            straddle = _around(rng, top, bottom, 0.01, count)
            cases.append(_boxes(full, straddle))
            cases.append(_boxes(straddle, full))
            if top < bottom:
                gap = _spans(rng, top + 1e-12, bottom - 1e-12, count)
                cases.append(_boxes(full, gap))
                cases.append(_boxes(gap, full))
    r4, r5 = mc.BRANCH[mc.Region.R4], mc.BRANCH[mc.Region.R5]
    floor = mc._band_floor(params, r5)
    cases.append(_boxes(_spans(rng, *r5.column(params), count),
                        _around(rng, floor, floor, 0.02, count)))
    for edge in _edges(params):
        cases.append(_boxes(full, _touching(rng, edge, count)))
        cases.append(_boxes(_touching(rng, edge, count), full))
    x = _spans(rng, *r4.column(params), count)
    d = np.maximum(np.abs(x[0] - params.q), np.abs(x[1] - params.q))
    cases.append(_boxes(x, (params.c * d * d - 2.0 * params.lam,
                            params.c * d * d + params.lam)))
    return np.vstack(cases)


def _hull_rows(hulls, origin, whole):
    """The multiset of (origin, whole, hull bits) rows of a step."""
    bits = np.ascontiguousarray(hulls).view(np.int64)
    return sorted(zip(origin.tolist(), whole.tolist(),
                      map(tuple, bits.tolist())))


@given(params=valid_params(), seed=st.integers(0, 2**32 - 1))
@example(params=REF_EX, seed=0)
@example(params=REF_STRICT, seed=0)
@settings(max_examples=20, deadline=None)
def test_routed_step_equals_every_branch_clip(params, seed):
    rng = np.random.default_rng(seed)
    for forward in (True, False):
        boxes = _step_cases(params, rng)
        # the cases give some rows no hull (gaps) and some two (straddles)
        counts = np.bincount(_reference_step(params, boxes, forward)[1],
                             minlength=len(boxes))
        assert (counts == 0).any() and (counts >= 2).any()
        for _ in range(2):      # the cases, then their hulls on the square
            want = _reference_step(params, boxes, forward)
            x, y, origin, whole = cd._step(params, *cd._columns(boxes),
                                           forward)
            got = np.column_stack([x.lo, y.lo, x.hi, y.hi])
            assert _hull_rows(got, origin, whole) == _hull_rows(*want)
            assert np.all(x.lo <= x.hi) and np.all(y.lo <= y.hi)
            on = (got[:, 2] >= 0.0) & (got[:, 0] <= 1.0) \
                & (got[:, 3] >= 0.0) & (got[:, 1] <= 1.0)
            boxes = got[on]


def _label_cases(params, rng, count=60):
    """Hulls (N, 4) across the fold abscissa q, in the x-overlap of the
    right R4' wing and R5' (or the stretch between them), below and
    across the floor of R5', partly and wholly off the square, at random,
    and ending on a band edge or on the floor."""
    r5 = mc.BRANCH[mc.Region.R5]
    floor = mc._band_floor(params, r5)
    wing = params.q + params.w_max
    low = _spans(rng, -0.02, 0.3, count)
    return np.vstack([
        _boxes(_around(rng, params.q, params.q, params.w_max, count), low),
        _boxes(_spans(rng, 1.0 - params.lam, wing, count),
               _spans(rng, 0.0, 1.0, count)),
        _boxes(_spans(rng, *r5.column(params), count),
               _spans(rng, floor - 0.1, floor, count)),
        _boxes(_spans(rng, *r5.column(params), count),
               _around(rng, floor, floor, 0.05, count)),
        _boxes(_spans(rng, -0.3, 0.2, count), _spans(rng, 0.0, 1.0, count)),
        _boxes(_spans(rng, 0.0, 1.0, count), _spans(rng, 0.9, 1.3, count)),
        _boxes(_spans(rng, 1.01, 2.0, count), _spans(rng, 0.0, 1.0, count)),
        _boxes(_spans(rng, 0.0, 1.0, count), _spans(rng, 0.0, 1.0, count)),
        *[_boxes(_touching(rng, e, count), _spans(rng, 0.0, 1.0, count))
          for e in _edges(params)],
        _boxes(_spans(rng, *r5.column(params), count),
               _touching(rng, floor, count)),
    ])


@given(params=valid_params(), seed=st.integers(0, 2**32 - 1))
@example(params=REF_EX, seed=0)
@example(params=REF_STRICT, seed=0)
@settings(max_examples=20, deadline=None)
def test_routed_labels_equal_every_band_test(params, seed):
    rng = np.random.default_rng(seed)
    boxes = _label_cases(params, rng)
    for forward in (True, False):     # also the hulls of a real step
        boxes = np.vstack([boxes, _reference_step(params, boxes, forward)[0]])
    whole = rng.random(len(boxes)) < 0.5
    got = cd._labels(params, *cd._columns(boxes), whole)
    assert np.array_equal(got, _reference_labels(params, boxes, whole))
    assert (got & 7).any() and (got >> 3).any() and (got == 0).any()


# ---------------------------------------------------------------------------
# Theta
# ---------------------------------------------------------------------------

class TestTheta:
    def test_fixed_points(self):
        t0 = cd.theta(REF_EX, cd.Word((0,) * 5, 2))
        assert math.hypot(*t0.point) <= t0.radius
        t1 = cd.theta(REF_EX, cd.Word((1,) * 5, 2))
        assert math.hypot(t1.point[0] - 1, t1.point[1] - 1) <= t1.radius

    def test_an_ambiguous_position_accepts_either_tangency_symbol(self):
        # the tangency point codes "0.10" with its time-0 symbol flagged:
        # a wanted 1 or 2 there matches, a wanted 0 does not, and the
        # unflagged positions still have to agree
        observed = cd.itinerary(REF_EX, (REF_EX.q, 0.0), 1)
        assert observed.ambiguous == (1,)
        assert cd._matches(cd.Word((0, 2, 0), 1), observed)
        assert cd._matches(cd.Word((0, 1, 0), 1), observed)
        assert not cd._matches(cd.Word((0, 0, 0), 1), observed)
        assert not cd._matches(cd.Word((2, 2, 0), 1), observed)

    def test_empty_word_raises(self):
        with pytest.raises(cd.EmptyAtom):
            cd.theta(REF_EX, cd.Word.from_string("11.012"))

    def test_semiconjugacy(self):
        cache = {}

        def th(word):
            if word not in cache:
                cache[word] = cd.theta(REF_EX, word)
            return cache[word]

        for _, w in _sample_words(REF_EX, 2, 40, seed=3):
            plain = cd.Word(w.symbols, w.center)
            t = th(plain)
            ts = th(cd.Word(plain.symbols[2:], 1))
            fp = apply(REF_EX, t.point)
            assert fp is not None
            defect = math.hypot(fp[0] - ts.point[0], fp[1] - ts.point[1])
            assert defect <= t.radius + ts.radius

    def test_round_trip(self):
        level = cd.atoms(REF_EX, 2)
        for p, w in _sample_words(REF_EX, 2, 200, seed=4):
            a = level[cd.Word(w.symbols, w.center)]
            cx, cy = a.center()
            assert math.hypot(cx - p[0], cy - p[1]) <= a.diameter_ub

    @pytest.mark.parametrize("params", [REF_EX, REF_STRICT],
                             ids=["ex", "strict"])
    def test_theta_reads_the_level(self, params):
        for w, a in cd.atoms(params, 2).items():
            assert cd.theta(params, w).point == cd.representative(params, a)

    def test_nested_extension_stays_close(self):
        w = cd.Word((0, 2, 0, 2, 0), 2)
        t2 = cd.theta(REF_EX, w)
        t1 = cd.theta(REF_EX, cd.Word(w.symbols[1:-1], 1))
        d = math.hypot(t2.point[0] - t1.point[0], t2.point[1] - t1.point[1])
        assert d <= t1.radius


class TestDecayAndHolder:
    def test_decay_table(self):
        table = cd.decay_table(REF_EX, 2)
        rows = table["rows"]
        assert rows[0] == (0, pytest.approx(math.sqrt(2.0)))
        diams = [d for _, d in rows]
        assert all(a >= b for a, b in zip(diams, diams[1:]))
        assert 0.0 < table["rate"] < 1.0
        assert table["reference_rate"] == pytest.approx(1 / math.sqrt(5))

    def test_holder_fit(self):
        pairs = []
        words = [w for _, w in _sample_words(REF_EX, 3, 600, seed=6)]
        for w1, w2 in zip(words[::2], words[1::2]):
            pairs.append((cd.Word(w1.symbols, w1.center),
                          cd.Word(w2.symbols, w2.center)))
        fit = cd.theta_holder_fit(REF_EX, pairs)
        assert fit["gamma"] == pytest.approx(1.1609640474436813)
        assert fit["gamma_est"] >= 0.8 * fit["gamma"]
        assert fit["pairs_used"] >= 8

    def test_holder_fit_needs_pairs(self):
        w1 = cd.Word((0, 0, 0), 1)
        w2 = cd.Word((0, 2, 0), 1)
        with pytest.raises(ValueError):
            cd.theta_holder_fit(REF_EX, [(w1, w2)])
