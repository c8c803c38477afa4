import itertools

import numpy as np
import pytest
from box_union import box_union_volume
from hypothesis import given, settings
from hypothesis import strategies as st
from packing_reference import greedy_packing

from smoothcb import policies
from smoothcb.elimination import solve_variance_program
from smoothcb.policies import (PolicyClass, VersionSpace, packing_number,
                               projected_actions, union_ball_volume)
from smoothcb.spaces import ActionSpace


class TestPolicyClass:
    def test_constant_lookup(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.1, 0.2, 0.3])
        assert pc.act(1) == 0.2
        assert pc.size == 3

    def test_tabular_lookup(self):
        table = np.arange(18).reshape(3, 6) / 20.0
        pc = PolicyClass.tabular(ActionSpace.cube(1), table)
        assert pc.act(5, 2) == table[2][5]

    def test_linear_sphere_rescaled_to_unit_interval(self):
        pc = PolicyClass.linear_sphere(ActionSpace.cube(1), [[1.0, 0.0]])
        assert pc.act(0, np.array([-1.0, 0.0])) == pytest.approx(0.0)
        assert pc.act(0, np.array([0.3, 0.9])) == pytest.approx(0.65)

    @pytest.mark.parametrize("kind", ["constant", "cube2", "tabular",
                                      "sphere"])
    def test_actions_many_stacks_actions_at(self, kind):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(16, 2))
        pcs = {
            "constant": (PolicyClass.constant(ActionSpace.ring(),
                                              rng.random(5)), [None] * 3),
            "cube2": (PolicyClass.constant(ActionSpace.cube(2),
                                           rng.random((5, 2))), [None] * 3),
            "tabular": (PolicyClass.tabular(ActionSpace.cube(1),
                                            rng.random((4, 6))), [3, 0, 3]),
            "sphere": (PolicyClass.linear_sphere(
                ActionSpace.cube(1), w / np.linalg.norm(w, axis=1)[:, None]),
                list(rng.normal(size=(50, 2)))),
        }
        pc, xs = pcs[kind]
        many = pc.actions_many(xs)
        assert np.array_equal(many, np.stack([pc.actions_at(x) for x in xs]))
        assert all(np.array_equal(pc.act(i, x), many[n, i])
                   for n, x in enumerate(xs) for i in range(pc.size))

    def test_constant_actions_at_is_the_stored_row(self):
        given = np.array([0.1, 0.2, 0.3])
        pc = PolicyClass.constant(ActionSpace.ring(), given)
        row = pc.actions_at(None)
        assert row is pc.actions and pc.actions_at(0) is row
        assert not row.flags.writeable
        assert np.array_equal(row, pc.actions_many([None])[0])
        # the class keeps a copy; the caller's array stays writeable
        assert row is not given and given.flags.writeable

    def test_linear_sphere_requires_unit_norm(self):
        with pytest.raises(ValueError):
            PolicyClass.linear_sphere(ActionSpace.cube(1), [[2.0, 0.0]])

    def test_from_csv(self, tmp_path):
        p = tmp_path / "pc.csv"
        p.write_text("0.1,0.2\n0.3,0.4\n")
        pc = PolicyClass.from_csv(ActionSpace.cube(1), str(p))
        assert pc.size == 2
        assert pc.act(1, 0) == 0.2

    def test_from_empty_csv(self, tmp_path):
        p = tmp_path / "pc.csv"
        p.write_text("")
        with pytest.raises(ValueError, match="tabular class needs"):
            PolicyClass.from_csv(ActionSpace.cube(1), str(p))


class TestProjection:
    def test_full_class(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.1, 0.2, 0.3])
        got = projected_actions(VersionSpace(pc))
        assert np.allclose(np.sort(got), [0.1, 0.2, 0.3])

    def test_singleton(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.1, 0.2])
        vs = VersionSpace(pc, mask=np.array([False, True]))
        assert np.allclose(projected_actions(vs), [0.2])

    def test_duplicates_collapse(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.4, 0.4])
        assert len(projected_actions(VersionSpace(pc))) == 1


def exact_max_packing(space, points, delta):
    """Brute-force maximum delta-packing; only for <= 20 points."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None] if space.d > 1 else pts
    n = len(pts)
    if n > 20:
        raise ValueError("brute-force packing limited to 20 points")
    ok = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in range(n):
            ok[i, j] = i == j or space.distance(pts[i], pts[j]) >= delta

    best = 0

    def grow(chosen, candidates):
        nonlocal best
        best = max(best, len(chosen))
        for k, c in enumerate(candidates):
            if len(chosen) + len(candidates) - k <= best:
                return
            if all(ok[c, d] for d in chosen):
                grow(chosen + [c], candidates[k + 1:])

    grow([], list(range(n)))
    return best


class TestPacking:
    def test_two_separated_points(self):
        assert packing_number(ActionSpace.ring(), [0.0, 0.5], 0.4) == 2

    def test_near_pair_collapses(self):
        got = packing_number(ActionSpace.cube(1), [0.0, 0.05, 0.5], 0.1)
        assert got == exact_max_packing(ActionSpace.cube(1),
                                        [0.0, 0.05, 0.5], 0.1) == 2

    def test_singleton(self):
        assert packing_number(ActionSpace.ring(), [0.77], 0.3) == 1

    def test_greedy_is_valid_and_maximal(self):
        rng = np.random.default_rng(0)
        space = ActionSpace.cube(1)
        for _ in range(100):
            pts = rng.random(12)
            delta = float(rng.uniform(0.02, 0.3))
            k = packing_number(space, pts, delta)
            assert 1 <= k <= len(pts)
            # maximality surrogate: greedy never under-reports a
            # brute-force maximal packing by more than validity allows
            assert k <= exact_max_packing(space, pts, delta)


_PACKING_SPACES = {"ring": ActionSpace.ring(), "cube1": ActionSpace.cube(1),
                   "cube2": ActionSpace.cube(2)}


@st.composite
def _packing_cases(draw):
    """A space, points on it with repeats (and, on the ring, pairs close
    across 0), and a delta that is sometimes one of their distances."""
    name = draw(st.sampled_from(sorted(_PACKING_SPACES)))
    space = _PACKING_SPACES[name]
    n = draw(st.integers(1, 12))
    unit = st.floats(0.0, 1.0, exclude_max=name == "ring")
    pts = draw(st.lists(unit if space.d == 1 else st.tuples(unit, unit),
                        min_size=n, max_size=n))
    if name == "ring":
        for lo, hi in draw(st.lists(st.tuples(st.floats(0.0, 0.1),
                                              st.floats(1e-6, 0.1)),
                                    max_size=3)):
            pts += [lo, 1.0 - hi]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    dists = [space.distance(p, q) for p in pts for q in pts]
    delta = draw(st.one_of(st.floats(1e-3, 0.6),
                           st.sampled_from([x for x in dists if x > 0]
                                           or [0.25])))
    return space, pts, delta


class TestPackingAgainstScalarGreedy:
    @settings(max_examples=300, deadline=None)
    @given(_packing_cases())
    def test_equals_scalar_greedy(self, case):
        space, pts, delta = case
        assert packing_number(space, pts, delta) == greedy_packing(
            space, pts, delta)


def _pieces(ends):
    """Lengths and midpoints of the pieces of [0, 1] between the given ends
    longer than 1e-15."""
    bs = np.array(sorted({0.0, 1.0, *ends}))
    keep = np.diff(bs) > 1e-15
    return np.diff(bs)[keep], ((bs[:-1] + bs[1:]) / 2.0)[keep]


def _reference_geometry(space, centers, h):
    """One context's cells, densities and ball-union volume, built one ball
    at a time: ball_intervals cuts and an interval merge on 1-d spaces; on
    the cube in d >= 2, the products of each axis's pieces between the
    clipped ball ends, and the union's measure by inclusion-exclusion."""
    centers = np.asarray(centers, dtype=float)
    if space.d > 1:
        lo, hi = np.maximum(0.0, centers - h), np.minimum(1.0, centers + h)
        axes = [_pieces([*lo[:, i], *hi[:, i]]) for i in range(space.d)]
        meas = np.array([np.prod(x) for x in
                         itertools.product(*(x for x, _ in axes))])
        mids = list(itertools.product(*(m for _, m in axes)))
    else:
        pieces = [iv for c in centers for iv in space.ball_intervals(c, h)]
        meas, mids = _pieces([e for iv in pieces for e in iv])
    dens = np.array([[1.0 / space.ball_volume(c, h)
                      if space.distance(c, m) <= h else 0.0
                      for m in mids] for c in centers])
    if space.d > 1:
        return dens, meas, box_union_volume(lo, hi)
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(pieces):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    return dens, meas, min(1.0, total + (cur_hi - cur_lo))


def _run_length_volume(space, acts, h):
    """One context's ball-union measure on a 1-d space, one piece at a time:
    over the pieces between its segment_cuts, those of length <= 1e-15
    skipped, each run of covered pieces adds its right end minus its left
    end, left to right."""
    cuts = policies.segment_cuts(space, np.asarray(acts)[None], h)[0, 0]
    total, run = 0.0, None
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        if hi - lo <= 1e-15:
            continue
        mid = (lo + hi) / 2.0
        if any(space.distance(c, mid) <= h for c in acts):
            run = (lo if run is None else run[0], hi)
        elif run is not None:
            total += run[1] - run[0]
            run = None
    if run is not None:
        total += run[1] - run[0]
    return min(1.0, total)


_RING, _CUBE1 = ActionSpace.ring(), ActionSpace.cube(1)
_GEOMETRY_CASES = {
    "ring-wraparound": (_RING, [0.02, 0.5, 0.97, 0.9], 0.1),
    "ring-2h-ge-1": (_RING, [0.1, 0.6], 0.5),
    "ring-wider-than-circle": (_RING, [0.3], 0.8),
    "ring-touching": (_RING, [0.125, 0.375, 0.625], 0.125),
    "cube1-edges": (_CUBE1, [0.0, 0.05, 1.0, 0.93, 0.5], 0.1),
}


class TestUnionGeometry:
    """union_geometry and the solver against the one-ball-at-a-time
    reference, to 1e-12."""

    def _check(self, pc, panel, h, mu):
        xs, ws = panel
        vs = VersionSpace(pc)
        refs = [_reference_geometry(pc.space, pc.actions_at(x), h)
                for x in xs]
        blocks = policies.union_geometry(pc.space, pc.actions_many(xs), h)
        vols = np.concatenate([vol for _, _, vol, _ in blocks])
        assert vols == pytest.approx([r[2] for r in refs], abs=1e-12)
        Q, value, _, V = solve_variance_program(pc, vs, h, mu, panel)
        assert V == pytest.approx(np.dot(ws, vols), abs=1e-12)
        terms = sum(w * (dens * meas) @ (1.0 / (mu + (1.0 - mu) * Q @ dens))
                    for w, (dens, meas, _) in zip(ws, refs))
        assert value == pytest.approx(terms.max(), abs=1e-12)

    @pytest.mark.parametrize("name", sorted(_GEOMETRY_CASES))
    def test_one_context(self, name):
        space, acts, h = _GEOMETRY_CASES[name]
        pc = PolicyClass.constant(space, acts)
        self._check(pc, ([None], np.array([1.0])), h, mu=0.2)
        assert union_ball_volume(VersionSpace(pc), h=h) == pytest.approx(
            _reference_geometry(space, np.asarray(acts), h)[2], abs=1e-12)

    @pytest.mark.parametrize("cells", [1, 40, 10 ** 6])
    def test_weighted_panel_in_blocks(self, cells, monkeypatch):
        # one context per block, blocks of a few contexts, and one block:
        # every split gives the reference values, with padding included
        monkeypatch.setattr(policies, "_BLOCK_CELLS", cells)
        table = np.random.default_rng(3).random((7, 4))
        table[0] = [0.0, 0.02, 0.98, 0.5]
        pc = PolicyClass.tabular(_RING, table)
        ws = np.array([0.05, 0.1, 0.15, 0.2, 0.1, 0.25, 0.15])
        self._check(pc, (list(range(7)), ws), 0.07, mu=0.05)

    @pytest.mark.parametrize("d", [2, 3])
    def test_random_cube_classes(self, d):
        # clipped and overlapping boxes; V_m and the objective against the
        # inclusion-exclusion measure and the per-ball cells
        rng = np.random.default_rng(d)
        for _ in range(6):
            k = int(rng.integers(1, 9))
            pc = PolicyClass.constant(ActionSpace.cube(d), rng.random((k, d)))
            h = float(rng.uniform(0.02, 0.4))
            self._check(pc, ([None], np.array([1.0])), h,
                        mu=float(rng.uniform(0.01, 0.5)))
            assert union_ball_volume(VersionSpace(pc), h=h) == pytest.approx(
                box_union_volume(np.maximum(0.0, pc.actions - h),
                                 np.minimum(1.0, pc.actions + h)), abs=1e-12)

    @pytest.mark.parametrize("cells", [1, 400, 10 ** 6])
    def test_cube2_weighted_panel_in_blocks(self, cells, monkeypatch):
        # contexts whose axes keep different numbers of pieces (shared and
        # touching coordinates), padded alike in every split into blocks
        monkeypatch.setattr(policies, "_BLOCK_CELLS", cells)
        table = np.random.default_rng(4).random((5, 4, 2))
        table[0, :, 0] = [0.3, 0.3, 0.5, 0.5]
        table[1, 1] = table[1, 0] + 0.2
        pc = PolicyClass.tabular(ActionSpace.cube(2), table)
        ws = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        self._check(pc, (list(range(5)), ws), 0.1, mu=0.05)


def _unique_rows(c):
    """np.unique's (first, inverse) over the rows' bytes."""
    c = np.ascontiguousarray(c)
    keys = c.view(np.dtype((np.void, c.itemsize * c.shape[1])))[:, 0]
    return np.unique(keys, return_index=True, return_inverse=True)[1:]


class TestDistinctRows:
    def _check(self, c, n_distinct):
        want = _unique_rows(c)
        got = policies.distinct_rows(c)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        assert len(got[0]) == n_distinct
        assert c[got[0]][got[1]].tobytes() == c.tobytes()

    def test_identical_rows_skip_the_sort(self, monkeypatch):
        c = np.tile(np.random.default_rng(0).random(16), (2000, 1))
        want = _unique_rows(c)

        def no_sort(*args, **kwargs):
            raise AssertionError("identical rows need no np.unique")
        with monkeypatch.context() as m:
            m.setattr(policies.np, "unique", no_sort)
            got = policies.distinct_rows(c)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)
        self._check(c[:1], 1)

    def test_mixed_rows(self):
        rng = np.random.default_rng(1)
        rows = rng.random((3, 5))
        self._check(rows[rng.integers(3, size=200)], 3)
        # the first row repeated but once
        c = np.tile(rows[0], (50, 1))
        c[37] = rows[1]
        self._check(c, 2)

    def test_signed_zeros_stay_distinct(self):
        # equal as floats, not as bytes
        c = np.tile([0.0, 0.5], (6, 1))
        c[4, 0] = -0.0
        self._check(c, 2)
        self._check(c[::-1].copy(), 2)

    def test_cube2_rows_are_grouped(self):
        # a row is a context's (policies x d) actions, compared whole
        rows = np.random.default_rng(2).random((3, 4, 2))
        c = rows[[0, 2, 0, 1, 2, 2]]
        c[5, 3, 1] = -c[5, 3, 1]
        first, inverse = policies.distinct_rows(c)
        want = _unique_rows(c.reshape(len(c), -1))
        assert np.array_equal(first, want[0])
        assert np.array_equal(inverse, want[1])
        assert len(first) == 4 and c[first][inverse].tobytes() == c.tobytes()
        assert np.array_equal(policies.distinct_rows(c[[0, 2]])[1], [0, 0])


class TestUnionBallVolume:
    def test_overlapping_ring_balls(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.2, 0.25])
        got = union_ball_volume(VersionSpace(pc), h=0.1)
        assert got == pytest.approx(0.25, abs=1e-12)

    def test_single_interior_ball(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.5])
        assert union_ball_volume(VersionSpace(pc), h=0.15) \
            == pytest.approx(0.3, abs=1e-12)

    def test_covering_everything(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.0, 0.25, 0.5, 0.75])
        assert union_ball_volume(VersionSpace(pc), h=0.2) \
            == pytest.approx(1.0, abs=1e-12)

    def test_monotone_in_subset_and_h(self):
        rng = np.random.default_rng(1)
        space = ActionSpace.cube(1)
        for _ in range(50):
            acts = rng.random(8)
            pc = PolicyClass.constant(space, acts)
            mask_small = np.zeros(8, dtype=bool)
            mask_small[:4] = True
            small = VersionSpace(pc, mask_small)
            big = VersionSpace(pc)
            h1, h2 = sorted(rng.uniform(0.02, 0.4, size=2))
            assert (union_ball_volume(small, h=h1)
                    <= union_ball_volume(big, h=h1) + 1e-12)
            assert (union_ball_volume(big, h=h1)
                    <= union_ball_volume(big, h=h2) + 1e-12)

    @pytest.mark.parametrize("h", [1 / 2, 1 / 4, 1 / 8, 1 / 16])
    def test_evenly_spaced_ring_class_covers_exactly_one(self, h):
        # the class pe-absolute eliminates over: its covered runs add up to
        # exactly 1.0, where the cells' measures summed give
        # 0.9999999999999968 at h = 1/4, and V_m sets the epoch budgets
        pc = PolicyClass.constant(ActionSpace.ring(), np.arange(100) / 100)
        assert union_ball_volume(VersionSpace(pc), h=h) == 1.0

    @pytest.mark.parametrize("space", [_RING, _CUBE1], ids=repr)
    def test_one_d_volume_same_bits_as_the_run_reference(self, space):
        # random classes, some evenly spaced with dyadic h so that balls
        # touch, several contexts per call so that rows are padded
        rng = np.random.default_rng(11)
        for _ in range(400):
            k = int(rng.integers(1, 10))
            if rng.random() < 0.3:
                acts = np.tile(np.arange(k) / k, (3, 1))
                h = 2.0 ** -int(rng.integers(1, 7))
            else:
                acts = rng.random((3, k))
                h = float(rng.uniform(0.005, 0.4))
            blocks = policies.union_geometry(space, acts, h)
            got = np.concatenate([vol for _, _, vol, _ in blocks])
            want = np.array([_run_length_volume(space, row, h)
                             for row in acts])
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    @pytest.mark.parametrize("side,cells", [(9, 19 ** 3), (10, 21 ** 3)])
    def test_cube_cell_cap(self, monkeypatch, side, cells):
        # a side^3 grid of centres and h = 0.01 cut each axis into
        # 2 * side + 1 pieces; more than MAX_CELLS = 8192 cells is refused
        # from the per-axis counts, before any table is built
        axis = (np.arange(side) + 0.5) / side
        grid = np.stack(np.meshgrid(axis, axis, axis), axis=-1)
        pc = PolicyClass.constant(ActionSpace.cube(3), grid.reshape(-1, 3))
        if cells <= policies.MAX_CELLS:
            assert union_ball_volume(VersionSpace(pc), h=0.01) \
                == pytest.approx(side ** 3 * 0.02 ** 3, rel=1e-12)
            return

        def no_table(*args):
            raise AssertionError("a table was built")
        monkeypatch.setattr(policies, "_union_block", no_table)
        with pytest.raises(ValueError, match=f"into {cells} cells per "
                           "context, more than 8192"):
            union_ball_volume(VersionSpace(pc), h=0.01)


class TestVersionSpace:
    def test_nonempty_required(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.1, 0.2])
        with pytest.raises(ValueError):
            VersionSpace(pc, mask=np.array([False, False]))

    def test_indices(self):
        pc = PolicyClass.constant(ActionSpace.ring(), [0.1, 0.2, 0.3])
        vs = VersionSpace(pc, mask=np.array([True, False, True]))
        assert list(vs.indices) == [0, 2]
        assert len(vs) == 2
