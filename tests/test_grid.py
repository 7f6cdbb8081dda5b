import itertools
import math

import numpy as np
import pytest

from sparsefrac.grid import (
    DyadicCube,
    DyadicGridFamily,
    GridFunction,
    RootBox,
    range_coords,
    read_gridfunction,
    write_gridfunction,
)

from sparsefrac.operators import cells_in_cube

from .oracles import naive_box_integral, naive_cube_average


def test_root_box_validation():
    with pytest.raises(ValueError):
        RootBox((0.0,), -1.0)
    with pytest.raises(ValueError):
        RootBox((0.0, 0.0, 0.0), 1.0)


def test_family_size(root1, root2):
    assert DyadicGridFamily(root1, 6).num_grids == 2
    assert DyadicGridFamily(root2, 6).num_grids == 4


class TestEnumeration:
    def test_level0_identity_tiling(self, root1):
        fam = DyadicGridFamily(root1, 4)
        inside = fam.cubes_inside_root(0, 0)
        assert inside == [DyadicCube(0, 0, (0,))]
        lo, hi = fam.cube_bounds(inside[0])
        assert lo[0] == 0.0 and hi[0] == 1.0

    def test_level2_binary_subdivision(self, root1):
        fam = DyadicGridFamily(root1, 4)
        cubes = fam.cubes_inside_root(0, 2)
        assert len(cubes) == 4
        bounds = sorted(fam.cube_bounds(c)[0][0] for c in cubes)
        assert bounds == [0.0, 0.25, 0.5, 0.75]

    def test_level3_2d_count_and_area(self, root2):
        # brute count: 4^3 cubes tile the unit square
        fam = DyadicGridFamily(root2, 4)
        cubes = fam.cubes_inside_root(0, 3)
        assert len(cubes) == 64
        area = sum(fam.volume_at(c.level) for c in cubes)
        assert area == pytest.approx(1.0, abs=1e-15)
        corners = {tuple(fam.cube_bounds(c)[0]) for c in cubes}
        assert len(corners) == 64

    def test_level_out_of_range(self, root1):
        fam = DyadicGridFamily(root1, 4)
        with pytest.raises(ValueError):
            list(fam.enumerate_cubes(0, 5))
        with pytest.raises(ValueError):
            list(fam.enumerate_cubes(0, -1))


class TestGridAxioms:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_per_level_tiling_exhaustive(self, root1, root2, dim):
        """Clipped cube volumes sum to the ambient volume; corners are an
        exact arithmetic progression, so same-level cubes cannot overlap."""
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, 6)
        amb_lo, amb_hi = fam.ambient_lo, fam.ambient_hi
        for gid in range(fam.num_grids):
            for level in range(7):
                per_dim = []
                rng = fam.coord_range(gid, level)
                e = fam._shift_signs(gid, level)
                s = fam.side_at(level)
                for d in range(dim):
                    ms = np.arange(rng[d][0], rng[d][1] + 1)
                    lo = s * (ms + e[d] / 3.0) + root.origin[d]
                    hi = lo + s
                    clipped = np.minimum(hi, amb_hi[d]) - np.maximum(lo, amb_lo[d])
                    assert np.all(clipped > 0)
                    per_dim.append(clipped.sum())
                    # exact integer corners: consecutive cubes abut exactly
                    nums = 3 * ms + e[d]
                    assert np.all(np.diff(nums) == 3)
                total = np.prod(per_dim)
                ambient_vol = float(np.prod(amb_hi - amb_lo))
                assert total == pytest.approx(ambient_vol, rel=1e-10)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_nested_or_disjoint(self, root1, root2, dim):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, 6)
        rng = np.random.default_rng(3)
        for _ in range(10_000 // (dim * 2)):
            gid = int(rng.integers(fam.num_grids))
            kp, kq = rng.integers(0, 7, size=2)
            x = rng.uniform(-0.5, 1.5, size=dim)
            y = rng.uniform(-0.5, 1.5, size=dim)
            p = fam.containing_cube(gid, int(kp), x)
            q = fam.containing_cube(gid, int(kq), y)
            assert fam.relation(p, q) in ("equal", "p_in_q", "q_in_p", "disjoint")

    def test_children_tile_parent_exactly(self, root1):
        fam = DyadicGridFamily(root1, 8)
        rng = np.random.default_rng(5)
        for _ in range(200):
            gid = int(rng.integers(2))
            k = int(rng.integers(0, 8))
            cube = fam.containing_cube(gid, k, rng.uniform(0, 1, 1))
            kids = fam.children(cube)
            assert len(kids) == 2
            lo, hi, _ = fam.cube_bounds_thirds(cube)
            klo0, khi0, _ = fam.cube_bounds_thirds(kids[0])
            klo1, khi1, _ = fam.cube_bounds_thirds(kids[1])
            assert klo0[0] == 2 * lo[0] and khi1[0] == 2 * hi[0]
            assert khi0[0] == klo1[0]
            assert all(fam.parent(kid) == cube for kid in kids)

    @pytest.mark.parametrize("origin,side", [((0.0, 0.0), 1.0), ((-0.3, 0.7), 2.5)])
    def test_array_geometry_matches_per_cube(self, origin, side):
        # corners are origin + side / (3 * 2^k) * float(3 m + e [+ 3]) with
        # e = (-1)^k * shift, bit for bit; range_coords lists enumerate_cubes
        # and child_coords lists children(), in their order
        root = RootBox(origin, side)
        fam = DyadicGridFamily(root, 4)
        for gid in range(fam.num_grids):
            for k in range(5):
                cubes = list(fam.enumerate_cubes(gid, k))
                coords = range_coords(fam.coord_range(gid, k))
                assert [c.coords for c in cubes] == [tuple(m) for m in coords.tolist()]
                e = [t if k % 2 == 0 else -t for t in fam.shift_thirds[gid]]
                scale = side / (3 * 2 ** k)
                lo, hi = fam.cube_corners(gid, k, coords)
                assert lo.tolist() == [[o + scale * float(3 * m + s) for o, m, s in
                                        zip(origin, c.coords, e)] for c in cubes]
                assert hi.tolist() == [[o + scale * float(3 * m + s + 3) for o, m, s in
                                        zip(origin, c.coords, e)] for c in cubes]
                if k < 4:
                    kids = [kid.coords for c in cubes for kid in fam.children(c)]
                    assert [tuple(m) for m in fam.child_coords(gid, k, coords).tolist()] == kids

    def test_one_third_covering(self, root1):
        fam = DyadicGridFamily(root1, 10)
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(1000):
            side = rng.uniform(2.0 ** -9, 1.0 / 8.0)
            lo = rng.uniform(0.0, 1.0 - side)
            best = fam.smallest_covering_cube([lo], [lo + side])
            assert best is not None
            worst = max(worst, fam.side_at(best.level) / side)
        assert worst <= 6.0


class TestLevelBlocks:
    @pytest.mark.parametrize("dim,depth", [(1, 6), (2, 4)])
    def test_rows_reproduce_box_overlap(self, root1, root2, dim, depth):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        m = 2 ** depth
        # distinct cell values, so equal values mean equal cells
        f = GridFunction(root, np.arange(float(m ** dim)).reshape((m,) * dim))
        for gid in range(fam.num_grids):
            for k in range(depth + 1):
                blocks = fam.level_blocks(gid, k, depth)
                for cube in fam.cubes_inside_root(gid, k):
                    sel = blocks.select([(c, c) for c in cube.coords])
                    sl, frac = f.box_overlap(*fam.cube_bounds(cube))
                    vals, fracs = blocks.rows(f.cells, sel)
                    assert vals.shape == fracs.shape == (1, frac.size)
                    assert np.array_equal(vals[0], f.cells[sl].ravel())
                    assert np.array_equal(fracs[0], frac.ravel())
                # the x-window of every row: the cells whose centres it holds
                for r in itertools.product(*(range(len(i)) for i in blocks.idx)):
                    coords = tuple(s + i for s, i in zip(blocks.start, r))
                    ranges = cells_in_cube(fam, DyadicCube(gid, k, coords), depth)
                    for d in range(dim):
                        held = np.flatnonzero(blocks.row[d] == r[d])
                        assert np.array_equal(held, np.arange(*ranges[d]))


class TestContainingCube:
    def test_origin(self, root1):
        fam = DyadicGridFamily(root1, 6)
        for k in range(7):
            assert fam.containing_cube(0, k, [0.0]).coords == (0,)

    def test_half_open_convention(self, root1):
        fam = DyadicGridFamily(root1, 6)
        left = fam.containing_cube(0, 1, [0.49])
        right = fam.containing_cube(0, 1, [0.5])
        assert fam.cube_bounds(left)[0][0] == 0.0
        assert fam.cube_bounds(right)[0][0] == 0.5

    def test_outside_ambient_rejected(self, root1):
        fam = DyadicGridFamily(root1, 6)
        with pytest.raises(ValueError):
            fam.containing_cube(0, 2, [2.5])


class TestBoxIntegral:
    def test_constant_simple(self, root1):
        f = GridFunction.constant(root1, 6, 1.0)
        assert f.box_integral([0.25], [0.75]) == pytest.approx(0.5, abs=1e-15)

    def test_one_third_edge(self, root1):
        f = GridFunction.constant(root1, 8, 1.0)
        assert f.box_integral([1.0 / 3.0], [1.0]) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_half_cell_overlap(self, root1):
        k = 6
        h = 2.0 ** -k
        f = GridFunction.indicator(root1, k, [0.0], [h])
        got = f.box_integral([h / 2], [1.0])
        assert got == pytest.approx(h / 2, abs=1e-15)

    def test_degenerate_box(self, root1):
        f = GridFunction.constant(root1, 5, 3.0)
        assert f.box_integral([0.5], [0.5]) == 0.0

    def test_additive_split(self, root1):
        rng = np.random.default_rng(1)
        f = GridFunction(root1, rng.uniform(-1, 1, 2 ** 8))
        for _ in range(50):
            a, b = np.sort(rng.uniform(-0.2, 1.2, 2))
            mid = rng.uniform(a, b)
            whole = f.box_integral([a], [b])
            parts = f.box_integral([a], [mid]) + f.box_integral([mid], [b])
            assert parts == pytest.approx(whole, abs=1e-12)

    @pytest.mark.parametrize("dim,depth", [(1, 5), (2, 4)])
    def test_against_naive_overlap(self, root1, root2, dim, depth):
        root = root1 if dim == 1 else root2
        rng = np.random.default_rng(2)
        f = GridFunction(root, rng.uniform(0, 2, (2 ** depth,) * dim))
        for _ in range(25):
            lo = rng.uniform(-0.3, 0.9, dim)
            hi = lo + rng.uniform(0.05, 0.8, dim)
            got = f.box_integral(lo, hi)
            ref = naive_box_integral(f, lo, hi)
            assert got == pytest.approx(ref, abs=1e-12)

    def test_total_integral_matches_cells(self, root2):
        rng = np.random.default_rng(4)
        f = GridFunction(root2, rng.uniform(0, 1, (16, 16)))
        assert f.integral() == pytest.approx(f.cells.sum() * f.cell_volume, rel=1e-13)


class TestCubeAverage:
    def test_constant(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction.constant(root1, 6, 4.2)
        for gid in (0, 1):
            cube = fam.containing_cube(gid, 3, [0.51])
            lo, hi = fam.cube_bounds(cube)
            # shifted cubes may stick outside where f vanishes
            if np.all(lo >= 0) and np.all(hi <= 1):
                assert f.box_average(lo, hi) == pytest.approx(4.2, rel=1e-13)

    def test_left_half_indicator(self, root1):
        fam = DyadicGridFamily(root1, 6)
        cube = fam.containing_cube(0, 2, [0.3])
        lo, hi = fam.cube_bounds(cube)
        f = GridFunction.indicator(root1, 6, lo, [(lo[0] + hi[0]) / 2])
        assert f.box_average(lo, hi) == pytest.approx(0.5, abs=1e-14)

    def test_random_against_naive(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(9)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        for _ in range(40):
            gid = int(rng.integers(2))
            k = int(rng.integers(0, 7))
            cube = fam.containing_cube(gid, k, rng.uniform(0, 1, 1))
            lo, hi = fam.cube_bounds(cube)
            got = f.box_average(lo, hi)
            ref = naive_cube_average(f, fam, cube)
            assert got == pytest.approx(ref, abs=1e-12)


class TestGridFunction:
    def test_depth_caps(self, root1, root2):
        with pytest.raises(ValueError):
            GridFunction(root1, np.ones(2 ** 13))
        with pytest.raises(ValueError):
            GridFunction(root2, np.ones((2 ** 9,) * 2))
        with pytest.raises(ValueError):
            GridFunction(root1, np.ones(48))  # not a power of two

    def test_cells_immutable(self, root1):
        f = GridFunction.constant(root1, 5, 1.0)
        with pytest.raises(ValueError):
            f.cells[0] = 2.0

    def test_indicator_projection_is_exact_in_measure(self, root1):
        f = GridFunction.indicator(root1, 6, [1 / 3], [0.8])
        assert f.integral() == pytest.approx(0.8 - 1 / 3, abs=1e-14)
        assert f.min_cell() >= 0.0 and f.max_cell() <= 1.0

    def test_mesh_mismatch_rejected(self, root1):
        f = GridFunction.constant(root1, 5, 1.0)
        g = GridFunction.constant(root1, 6, 1.0)
        with pytest.raises(ValueError):
            _ = f + g


class TestSerialization:
    @pytest.mark.parametrize("fmt", ["bin", "csv"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_exact_round_trip(self, tmp_path, root1, root2, fmt, dim):
        root = root1 if dim == 1 else root2
        rng = np.random.default_rng(17)
        cells = rng.uniform(-1, 1, (2 ** 4,) * dim)
        cells.flat[0] = 1.0 / 3.0
        cells.flat[1] = 1e-300
        cells.flat[2] = math.pi
        f = GridFunction(root, cells)
        path = tmp_path / f"f.{fmt}"
        write_gridfunction(f, path, fmt)
        g = read_gridfunction(path, fmt)
        assert g.root == f.root and g.depth == f.depth
        assert np.array_equal(g.cells, f.cells)

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b'{"format": "something-else"}\n')
        with pytest.raises(ValueError):
            read_gridfunction(path)
