import math

import numpy as np
import pytest

from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction
from sparsefrac.operators import (
    bmo_norm,
    cells_in_cube,
    commutator_1d,
    dyadic_commutator,
    dyadic_commutator_naive,
    dyadic_fractional_integral,
    dyadic_fractional_maximal,
    fractional_maximal,
    inner_outer_split,
    level_set_cubes,
    riesz_potential_1d,
    riesz_potential_at,
    sparse_fractional_integral,
    weighted_orlicz_fractional_maximal,
)
from sparsefrac.orlicz import LLOG, POWER1
from sparsefrac.weights import CubeBattery

from .conftest import refine
from .oracles import (
    naive_commutator,
    naive_dyadic_integral,
    naive_dyadic_maximal,
    naive_orlicz_maximal,
    naive_sparse_integral,
    overlap_weights,
)

GEOM_SUM_HALF_K3 = sum(2.0 ** (-k / 2) for k in range(4))


class TestRiesz:
    def test_indicator_closed_form_outside(self, root1):
        f = GridFunction.constant(root1, 6, 1.0)
        got = riesz_potential_at(f, 0.5, [2.0])[0]
        assert got == pytest.approx(2.0 * (math.sqrt(2.0) - 1.0), rel=1e-13)

    def test_zero_function(self, root1):
        f = GridFunction.constant(root1, 6, 0.0)
        assert np.all(riesz_potential_1d(f, 0.5).cells == 0.0)

    def test_linearity(self, root1):
        rng = np.random.default_rng(0)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        g = GridFunction(root1, rng.uniform(0, 1, 64))
        lhs = riesz_potential_1d(f + g, 0.4).cells
        rhs = riesz_potential_1d(f, 0.4).cells + riesz_potential_1d(g, 0.4).cells
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * np.max(np.abs(lhs))

    def test_dimension_guard(self, root2):
        f = GridFunction.constant(root2, 4, 1.0)
        with pytest.raises(ValueError):
            riesz_potential_1d(f, 0.5)


class TestDyadicFractionalIntegral:
    def test_unit_function_geometric_sum(self, root1):
        fam = DyadicGridFamily(root1, 3)
        f = GridFunction.constant(root1, 3, 1.0)
        out = dyadic_fractional_integral(f, 0.5, fam, 0).cells
        assert np.all(np.abs(out - GEOM_SUM_HALF_K3) < 1e-12)

    def test_zero(self, root1):
        fam = DyadicGridFamily(root1, 4)
        f = GridFunction.constant(root1, 4, 0.0)
        assert np.all(dyadic_fractional_integral(f, 0.3, fam, 1).cells == 0.0)

    @pytest.mark.parametrize("dim,depth", [(1, 4), (2, 3)])
    def test_oracle_match(self, root1, root2, dim, depth):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(42)
        for trial in range(3):
            f = GridFunction(root, rng.uniform(0, 1, (2 ** depth,) * dim))
            for gid in range(fam.num_grids):
                got = dyadic_fractional_integral(f, 0.4, fam, gid).cells
                ref = naive_dyadic_integral(f, 0.4, fam, gid)
                assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12

    def test_provenance(self, root1):
        fam = DyadicGridFamily(root1, 4)
        out = dyadic_fractional_integral(GridFunction.constant(root1, 4, 1.0), 0.5, fam, 1)
        assert out.operator == "dyadic_fractional_integral"
        assert out.grid_id == 1
        assert out.cube_visits > 0


class TestSparseFractionalIntegral:
    def test_full_grid_equals_dyadic(self, root1):
        fam = DyadicGridFamily(root1, 4)
        rng = np.random.default_rng(1)
        f = GridFunction(root1, rng.uniform(0, 1, 16))
        all_cubes = [c for k in range(5) for c in fam.enumerate_cubes(0, k)]
        got = sparse_fractional_integral(f, 0.5, fam, all_cubes).cells
        ref = dyadic_fractional_integral(f, 0.5, fam, 0).cells
        assert np.max(np.abs(got - ref)) < 1e-12 * np.max(ref)

    def test_root_only(self, root1):
        fam = DyadicGridFamily(root1, 4)
        rng = np.random.default_rng(2)
        f = GridFunction(root1, rng.uniform(0, 1, 16))
        root_cube = DyadicCube(0, 0, (0,))
        got = sparse_fractional_integral(f, 0.5, fam, [root_cube]).cells
        assert np.all(np.abs(got - f.integral()) < 1e-14)

    def test_oracle_match(self, root1):
        fam = DyadicGridFamily(root1, 5)
        rng = np.random.default_rng(3)
        f = GridFunction(root1, rng.uniform(0, 1, 32))
        cubes = [
            fam.containing_cube(0, int(rng.integers(0, 6)), rng.uniform(0, 1, 1))
            for _ in range(8)
        ]
        cubes = sorted(set(cubes))
        got = sparse_fractional_integral(f, 0.4, fam, cubes).cells
        ref = naive_sparse_integral(f, 0.4, fam, cubes)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(ref), 1.0)


class TestFractionalMaximal:
    def test_unit_alpha0(self, root1):
        fam = DyadicGridFamily(root1, 5)
        f = GridFunction.constant(root1, 5, 1.0)
        out = dyadic_fractional_maximal(f, 0.0, fam, 0).cells
        assert np.all(np.abs(out - 1.0) < 1e-14)
        # shifted ancestors stick out of the root box where f vanishes, so
        # the family max is still 1 but the shifted grid alone dips below
        shifted = dyadic_fractional_maximal(f, 0.0, fam, 1).cells
        assert np.all(shifted <= 1.0 + 1e-14)
        both = fractional_maximal(f, 0.0, fam).cells
        assert np.all(np.abs(both - 1.0) < 1e-14)

    def test_root_indicator_single_term(self, root1):
        # f = 1 on the root box: every term is |Q|^alpha <f>_Q <= 1, the
        # root term wins
        fam = DyadicGridFamily(root1, 5)
        f = GridFunction.constant(root1, 5, 1.0)
        out = dyadic_fractional_maximal(f, 0.5, fam, 0).cells
        assert np.all(np.abs(out - 1.0) < 1e-14)

    @pytest.mark.parametrize("dim,depth", [(1, 4), (2, 3)])
    def test_oracle_match(self, root1, root2, dim, depth):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(4)
        f = GridFunction(root, rng.uniform(-1, 1, (2 ** depth,) * dim))
        for gid in range(fam.num_grids):
            got = dyadic_fractional_maximal(f, 0.4, fam, gid).cells
            ref = naive_dyadic_maximal(f, 0.4, fam, gid)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12

    def test_family_max(self, root1):
        fam = DyadicGridFamily(root1, 4)
        rng = np.random.default_rng(5)
        f = GridFunction(root1, rng.uniform(0, 1, 16))
        full = fractional_maximal(f, 0.4, fam).cells
        per_grid = np.maximum(
            dyadic_fractional_maximal(f, 0.4, fam, 0).cells,
            dyadic_fractional_maximal(f, 0.4, fam, 1).cells,
        )
        assert np.array_equal(full, per_grid)


class TestOrliczMaximal:
    def test_unit_function_power1_alpha0(self, root1):
        fam = DyadicGridFamily(root1, 5)
        f = GridFunction.constant(root1, 5, 1.0)
        sigma = GridFunction.constant(root1, 5, 1.0)
        out = weighted_orlicz_fractional_maximal(f, sigma, 0.0, POWER1, fam, 0).cells
        assert np.all(np.abs(out - 1.0) < 1e-14)

    def test_collapse_to_plain_maximal(self, root1):
        # sigma = 1 and phi(t) = t turn sigma(Q)^(a/n) ||f|| into the plain
        # fractional maximal function
        fam = DyadicGridFamily(root1, 5)
        rng = np.random.default_rng(6)
        f = GridFunction(root1, rng.uniform(0, 2, 32))
        sigma = GridFunction.constant(root1, 5, 1.0)
        got = weighted_orlicz_fractional_maximal(f, sigma, 0.3, POWER1, fam, 0).cells
        ref = dyadic_fractional_maximal(f, 0.3, fam, 0).cells
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)

    @pytest.mark.parametrize("dim,depth,phi", [(1, 4, LLOG), (2, 3, LLOG), (1, 4, POWER1)])
    def test_oracle_match(self, root1, root2, dim, depth, phi):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(7)
        f = GridFunction(root, rng.uniform(0, 1, (2 ** depth,) * dim))
        sigma = GridFunction(root, rng.uniform(0.3, 2, (2 ** depth,) * dim))
        for gid in range(fam.num_grids):
            got = weighted_orlicz_fractional_maximal(f, sigma, 0.4, phi, fam, gid).cells
            ref = naive_orlicz_maximal(f, sigma, 0.4, phi, fam, gid)
            assert np.max(np.abs(got - ref) / np.abs(ref)) < 1e-12


    @pytest.mark.parametrize("dim,depth", [(1, 5), (2, 3)])
    def test_zero_mass_block_contributes_nothing(self, root1, root2, dim, depth):
        # sigma vanishes on one level-1 block of grid 0: cubes inside it
        # carry no sigma-mass and drop out on every grid
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(19)
        shape = (2 ** depth,) * dim
        f = GridFunction(root, rng.uniform(0.1, 1, shape))
        cells = rng.uniform(0.3, 2, shape)
        cells[(slice(0, 2 ** (depth - 1)),) * dim] = 0.0
        sigma = GridFunction(root, cells)
        for gid in range(fam.num_grids):
            got = weighted_orlicz_fractional_maximal(f, sigma, 0.4, LLOG, fam, gid).cells
            ref = naive_orlicz_maximal(f, sigma, 0.4, LLOG, fam, gid)
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(ref)


class TestCommutators:
    def test_constant_b_vanishes(self, root1):
        fam = DyadicGridFamily(root1, 5)
        f = GridFunction(root1, np.random.default_rng(8).uniform(0, 1, 32))
        b = GridFunction.constant(root1, 5, 2.5)
        assert np.max(np.abs(commutator_1d(b, f, 0.5).cells)) < 1e-12
        assert np.max(dyadic_commutator(b, f, 0.5, fam, 0).cells) < 1e-13
        assert np.max(dyadic_commutator_naive(b, f, 0.5, fam, 0).cells) < 1e-13

    def test_zero_f(self, root1):
        fam = DyadicGridFamily(root1, 5)
        f = GridFunction.constant(root1, 5, 0.0)
        b = GridFunction(root1, np.random.default_rng(9).uniform(-1, 1, 32))
        assert np.all(commutator_1d(b, f, 0.5).cells == 0.0)
        assert np.all(dyadic_commutator(b, f, 0.5, fam, 1).cells == 0.0)

    def test_continuous_against_direct_quadrature(self, root1):
        # assemble the kernel integral in one pass per target instead of
        # subtracting two potentials
        b = GridFunction.indicator(root1, 6, [0.5], [1.0])
        f = GridFunction.indicator(root1, 6, [0.25], [0.75])
        alpha = 0.5
        got = commutator_1d(b, f, alpha).cells
        m = 2 ** 6
        h = 1.0 / m
        edges = np.arange(m + 1) * h
        centers = (np.arange(m) + 0.5) * h
        ref = np.empty(m)
        for i, x in enumerate(centers):
            t = edges - x
            g = np.sign(t) * np.abs(t) ** alpha / alpha
            wts = np.diff(g)
            ref[i] = float(((b.cells[i] - b.cells) * f.cells * wts).sum())
        assert np.max(np.abs(got - ref)) < 1e-8

    @pytest.mark.parametrize("dim,depth", [(1, 4), (2, 3)])
    def test_accelerated_matches_naive_module(self, root1, root2, dim, depth):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(10)
        f = GridFunction(root, rng.uniform(0, 1, (2 ** depth,) * dim))
        b = GridFunction(root, rng.uniform(-1, 1, (2 ** depth,) * dim))
        for gid in range(fam.num_grids):
            got = dyadic_commutator(b, f, 0.4, fam, gid).cells
            ref = dyadic_commutator_naive(b, f, 0.4, fam, gid).cells
            assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(ref), 1e-12)

    def test_naive_module_matches_oracle(self, root1):
        fam = DyadicGridFamily(root1, 4)
        rng = np.random.default_rng(11)
        f = GridFunction(root1, rng.uniform(0, 1, 16))
        b = GridFunction(root1, rng.uniform(-1, 1, 16))
        got = dyadic_commutator_naive(b, f, 0.4, fam, 1).cells
        ref = naive_commutator(b, f, 0.4, fam, 1)
        assert np.max(np.abs(got - ref)) <= 1e-12 * max(np.max(ref), 1e-12)


class TestBmoNorm:
    def test_constant_is_zero(self, root1):
        fam = DyadicGridFamily(root1, 8)
        bat = CubeBattery(fam, 4)
        b = GridFunction.constant(root1, 8, 5.0)
        # exact zero on aligned cubes; shifted-cube averages leave rounding
        assert bmo_norm(b, bat) <= 1e-13

    def test_step_function(self, root1):
        fam = DyadicGridFamily(root1, 8)
        bat = CubeBattery(fam, 4)
        b = GridFunction.indicator(root1, 8, [0.5], [1.0])
        got = bmo_norm(b, bat)
        assert got >= 0.5 - 1e-14  # the root cube already gives 1/2

    def test_log_distance_regression(self, root1):
        fam = DyadicGridFamily(root1, 10)
        bat = CubeBattery(fam, 6)
        b = GridFunction.from_callable(root1, 10, lambda x: np.log(np.abs(x - 1 / 3)))
        assert bmo_norm(b, bat) == pytest.approx(0.7787282983485166, rel=1e-9)


    @pytest.mark.parametrize("dim,depth,level", [(1, 8, 4), (2, 4, 3)])
    def test_battery_matches_brute_force(self, root1, root2, dim, depth, level):
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        bat = CubeBattery(fam, level)
        rng = np.random.default_rng(20)
        b = GridFunction(root, rng.normal(0, 1, (2 ** depth,) * dim))
        osc, lows, highs = [], [], []
        for i in range(len(bat)):
            lo, hi = bat.bounds(i)
            vol = float(bat.volumes()[i])
            w = overlap_weights(b, lo, hi)
            avg = float((b.cells * w).sum()) * b.cell_volume / vol
            osc.append(float((np.abs(b.cells - avg) * w).sum()) * b.cell_volume / vol)
            lows.append(b.cells[w > 1e-9].min())
            highs.append(np.abs(b.cells[w > 1e-9]).max())
        assert bmo_norm(b, bat) == pytest.approx(max(osc), rel=1e-12)
        assert np.array_equal(bat.cell_min(b), lows)
        assert np.array_equal(bat.cell_max_abs(b), highs)


class TestInnerOuterSplit:
    def test_root_cube(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(12)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        inner, outer = inner_outer_split(f, 0.5, DyadicCube(0, 0, (0,)), fam)
        assert outer == 0.0
        full = dyadic_fractional_integral(f, 0.5, fam, 0).cells
        assert np.max(np.abs(inner.cells - full)) < 1e-12

    def test_finest_cell_single_term(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(13)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        cube = fam.containing_cube(0, 6, [0.3])
        inner, outer = inner_outer_split(f, 0.5, cube, fam)
        i = cells_in_cube(fam, cube, 6)[0][0]
        expect = fam.side_at(6) ** 0.5 * f.cells[i]
        assert inner.cells[i] == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("gid", [0, 1])
    def test_recomposition(self, root1, gid):
        fam = DyadicGridFamily(root1, 8)
        rng = np.random.default_rng(14)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        full = dyadic_fractional_integral(f, 0.5, fam, gid).cells
        for _ in range(20):
            k = int(rng.integers(0, 9))
            cube = fam.containing_cube(gid, k, rng.uniform(0, 1, 1))
            inner, outer = inner_outer_split(f, 0.5, cube, fam)
            (i0, i1), = cells_in_cube(fam, cube, 8)
            if i0 >= i1:
                continue
            err = np.abs(inner.cells[i0:i1] + outer - full[i0:i1])
            assert np.max(err) < 1e-12


class TestLevelSets:
    def test_low_threshold_gives_root(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction.constant(root1, 6, 1.0)
        out = dyadic_fractional_integral(f, 0.5, fam, 0)
        cubes = level_set_cubes(out.values, 0.5, fam, 0)
        assert cubes == [DyadicCube(0, 0, (0,))]

    def test_high_threshold_empty(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction.constant(root1, 6, 1.0)
        out = dyadic_fractional_integral(f, 0.5, fam, 0)
        assert level_set_cubes(out.values, float(out.cells.max()) + 1.0, fam, 0) == []

    def test_union_identity_and_disjoint(self, root1):
        fam = DyadicGridFamily(root1, 8)
        rng = np.random.default_rng(15)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        out = dyadic_fractional_integral(f, 0.5, fam, 0)
        t = float(np.percentile(out.cells, 70))
        cubes = level_set_cubes(out.values, t, fam, 0)
        cover = np.zeros(256, dtype=int)
        for c in cubes:
            (i0, i1), = cells_in_cube(fam, c, 8)
            cover[i0:i1] += 1
        assert np.all(cover <= 1)
        assert np.array_equal(cover.astype(bool), out.cells > t)

    def test_stopping_property(self, root1):
        # on Q cap E_{2t} the inner part alone already exceeds t
        fam = DyadicGridFamily(root1, 7)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            f = GridFunction(root1, rng.uniform(0, 1, 128))
            out = dyadic_fractional_integral(f, 0.5, fam, 0)
            t = float(np.percentile(out.cells, 60))
            for cube in level_set_cubes(out.values, t, fam, 0):
                inner, _ = inner_outer_split(f, 0.5, cube, fam)
                (i0, i1), = cells_in_cube(fam, cube, 7)
                mask = out.cells[i0:i1] > 2 * t
                assert np.all(inner.cells[i0:i1][mask] > t)

    def test_shifted_grid_rejected(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction.constant(root1, 6, 1.0)
        out = dyadic_fractional_integral(f, 0.5, fam, 0)
        with pytest.raises(ValueError):
            level_set_cubes(out.values, 0.5, fam, 1)


class TestDominationProperties:
    def test_continuous_dominated_by_grid_family(self, root1):
        # the 2-grid max controls the Riesz potential with a depth-stable
        # constant; a single grid cannot do this near its boundaries
        ratios = {}
        base = np.random.default_rng(16).uniform(0, 1, 64)
        for depth in (6, 8, 10):
            fam = DyadicGridFamily(root1, depth)
            f = GridFunction(root1, refine(base, 2 ** (depth - 6)))
            cont = riesz_potential_1d(f, 0.5).cells
            dyad = np.maximum(
                dyadic_fractional_integral(f, 0.5, fam, 0).cells,
                dyadic_fractional_integral(f, 0.5, fam, 1).cells,
            )
            ratios[depth] = float(np.max(cont / dyad))
        vals = list(ratios.values())
        assert max(vals) / min(vals) <= 1.10

    def test_tail_bound_off_support(self, root1):
        # outside the support cube the integral is one geometric chain,
        # so it is controlled by the maximal function with 1/(1 - 2^(a-n))
        fam = DyadicGridFamily(root1, 8)
        alpha = 0.5
        rng = np.random.default_rng(17)
        cells = np.zeros(256)
        cells[:64] = rng.uniform(0.2, 1, 64)  # supported in [0, 1/4)
        f = GridFunction(root1, cells)
        integ = dyadic_fractional_integral(f, alpha, fam, 0).cells
        maxi = dyadic_fractional_maximal(f, alpha, fam, 0).cells
        outside = slice(64, 256)
        bound = 1.0 / (1.0 - 2.0 ** (alpha - 1.0))
        assert np.all(integ[outside] <= bound * maxi[outside] * (1 + 1e-12))

    def test_monotone_in_f(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(18)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        g = f + 0.25
        for op in (
            lambda h: dyadic_fractional_integral(h, 0.5, fam, 0).cells,
            lambda h: dyadic_fractional_maximal(h, 0.5, fam, 1).cells,
            lambda h: riesz_potential_1d(h, 0.5).cells,
        ):
            assert np.all(op(f) <= op(g) + 1e-13)
