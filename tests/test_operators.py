import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsefrac import operators, verify
from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction, RootBox
from sparsefrac.operators import (
    bmo_norm,
    commutator_1d,
    commutator_plan,
    dyadic_commutator,
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
from sparsefrac.orlicz import EXPM1, LLOG, POWER1
from sparsefrac.weights import CubeBattery, ExponentTriple, admissible_gamma_range, power_weight

from .conftest import refine
from .oracles import (
    cells_in_cube,
    containing_cube,
    dyadic_commutator_blocks,
    dyadic_commutator_naive,
    naive_commutator,
    naive_dyadic_integral,
    naive_dyadic_maximal,
    naive_level_set_cubes,
    naive_orlicz_maximal,
    naive_sparse_integral,
    overlap_weights,
    per_block_gauge,
    riesz_centres_mp,
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

    @pytest.mark.parametrize("origin,side", [(0.0, 1.0), (-0.3, 2.5), (0.1, 1.0)])
    def test_centres_match_per_point(self, origin, side):
        # the Toeplitz correlation against one dot product per centre, on
        # signed data; the scale is the potential of |f|, the size every
        # error of a dot product is measured against
        rng = np.random.default_rng(31)
        root = RootBox((origin,), side)
        for depth in range(1, 13):
            for alpha in (0.1, 1 / 3, 0.5, 0.9):
                f = GridFunction(root, rng.standard_normal(2 ** depth))
                ref = riesz_potential_at(f, alpha, f.cell_centers()[0])
                got = riesz_potential_1d(f, alpha).cells
                scale = np.max(riesz_potential_1d(abs(f), alpha).cells)
                assert np.max(np.abs(got - ref)) <= 1e-13 * scale, (depth, alpha)

    @pytest.mark.parametrize("depth", [4, 6, 8])
    def test_centres_against_mpmath(self, depth):
        # riesz_potential_at is given the float centres, a few ulps off the
        # exact ones, which moves I_alpha f by up to 4.7 eps of the scale at
        # depth 8 on this root, so its reference is taken at those points
        eps = np.finfo(float).eps
        rng = np.random.default_rng(32)
        root = RootBox((-0.3,), 2.5)
        for alpha in (0.1, 1 / 3, 0.5, 0.9):
            f = GridFunction(root, rng.standard_normal(2 ** depth))
            exact, scale = riesz_centres_mp(f, alpha)
            got = riesz_potential_1d(f, alpha).cells
            assert np.max(np.abs(got - exact)) <= 4 * eps * np.max(scale), alpha
            points = f.cell_centers()[0]
            exact_at, _ = riesz_centres_mp(f, alpha, points=points)
            got_at = riesz_potential_at(f, alpha, points)
            assert np.max(np.abs(got_at - exact_at)) <= 4 * eps * np.max(scale), alpha


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
            containing_cube(fam, 0, int(rng.integers(0, 6)), rng.uniform(0, 1, 1))
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

    @pytest.mark.parametrize("phi", [LLOG, EXPM1])
    @pytest.mark.parametrize("dim,depth", [(1, 8), (2, 4)])
    def test_equals_per_level_bisection(self, root1, root2, dim, depth, phi, monkeypatch):
        # the operator, which bisects only the cubes that can hold a cell's
        # maximum, gives bit for bit what spreading the rows of one
        # bisection per level gives, on every grid (shifted ones included)
        root = root1 if dim == 1 else root2
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(23)
        shape = (2 ** depth,) * dim
        f = GridFunction(root, rng.lognormal(0.0, 2.0, shape) * (rng.uniform(size=shape) > 0.2))
        cells = rng.uniform(0.1, 3.0, shape)
        cells[(slice(0, 2 ** (depth - 2)),) * dim] = 0.0  # cubes of no sigma-mass
        sigma = GridFunction(root, cells)
        got = [weighted_orlicz_fractional_maximal(f, sigma, 0.4, phi, fam, gid)
               for gid in range(fam.num_grids)]
        monkeypatch.setattr(operators, "luxemburg_norm_blocks", per_block_gauge)
        for gid, out in enumerate(got):
            rows = operators.orlicz_level_rows(f, sigma, phi, fam, gid)
            ref = weighted_orlicz_fractional_maximal(f, sigma, 0.4, phi, fam, gid, rows=rows)
            assert np.array_equal(out.cells, ref.cells)
            assert out.cube_visits == ref.cube_visits

    def test_rows_are_read_only(self, root2, monkeypatch):
        # a run scope shares the rows, so they are read-only where they are
        # made: the direct call's and the operator's own pruned rows
        fam = DyadicGridFamily(root2, 3)
        rng = np.random.default_rng(29)
        f = GridFunction(root2, rng.uniform(0, 1, (8, 8)))
        sigma = GridFunction(root2, rng.uniform(0.3, 2, (8, 8)))
        built = operators._orlicz_rows
        made = []

        def spied(*args):
            made.append(built(*args))
            return made[-1]

        monkeypatch.setattr(operators, "_orlicz_rows", spied)
        for gid in range(fam.num_grids):
            rows = operators.orlicz_level_rows(f, sigma, LLOG, fam, gid)
            weighted_orlicz_fractional_maximal(f, sigma, 0.4, LLOG, fam, gid)
            pruned = made[-1]  # the operator's own, built with alpha
            assert len(rows) == len(pruned) == 4
            for arrays in (rows, pruned):
                assert not any(a.flags.writeable for level in arrays for a in level)
        with pytest.raises(ValueError, match="read-only"):
            rows[0][1][0] = 1.0

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([LLOG, EXPM1]), st.sampled_from([0.0, 0.4, 0.9]),
           st.sampled_from([(1, 5), (1, 7), (2, 3), (2, 4)]),
           st.sampled_from([(0.0, 1.0), (-0.3, 2.5), (0.1, 0.9)]),
           st.floats(0.1, 6.0), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_pruned_equals_full_rows(self, phi, alpha, mesh, box, spread, hole, seed):
        # the pruned operator against the spread of every cube's norm, on
        # dyadic and non-dyadic roots, log-normal f up to sigma 6, and a
        # corner of no sigma-mass; its gauge call, with the keep rule as an
        # argument, gives every kept row the value of the call without one
        # and every other row that value or 0
        (dim, depth), (origin, side) = mesh, box
        root = RootBox((origin,) * dim, side)
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(seed)
        shape = (2 ** depth,) * dim
        f = GridFunction(root, rng.lognormal(0.0, spread, shape))
        cells = rng.lognormal(0.0, 1.0, shape)
        if hole:
            cells[(slice(0, 2 ** (depth - 1)),) * dim] = 0.0
        sigma = GridFunction(root, cells)
        full, seen = operators.luxemburg_norm_blocks, []

        def spied(parts, phi, rtol=1e-13, keep=None):
            kept = []

            def recorded(low, high):
                kept.append(keep(low, high))
                return kept[0]

            norms = full(parts, phi, rtol, keep=recorded)
            seen.append((norms, full(parts, phi, rtol), kept[0]))
            return norms

        for gid in range(fam.num_grids):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(operators, "luxemburg_norm_blocks", spied)
                got = weighted_orlicz_fractional_maximal(f, sigma, alpha, phi, fam, gid)
            rows = operators.orlicz_level_rows(f, sigma, phi, fam, gid)
            ref = weighted_orlicz_fractional_maximal(f, sigma, alpha, phi, fam, gid, rows=rows)
            assert np.array_equal(got.cells, ref.cells)
            assert got.cube_visits == ref.cube_visits
        assert len(seen) == fam.num_grids
        for norms, want, kept in seen:
            assert kept.any() and np.array_equal(norms[kept], want[kept])
            assert np.all((norms == want) | (norms == 0.0))

    @pytest.mark.parametrize("dim,depth,alpha", [(1, 10, 1 / 3), (2, 5, 0.8)])
    def test_bisects_few_rows(self, dim, depth, alpha, monkeypatch):
        # on a rough background with point masses against a power weight,
        # the shape of the benchmark's operator inputs, every grid's gauge
        # bisects at most a tenth of its rows: the rest gauge 0 in that
        # call, so a fallback to bisecting every row fails here
        root = RootBox((0.0,) * dim, 1.0)
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(dim)
        shape = (2 ** depth,) * dim
        cells = np.exp(0.25 * rng.standard_normal(shape))
        spikes = rng.choice(cells.size, size=24, replace=False)
        cells.flat[spikes] += rng.uniform(2.0, 4.0, 24) * 2.0 ** (depth * dim / 2)
        f = GridFunction(root, cells)
        e = ExponentTriple(dim, alpha, 2.0)
        sigma = power_weight(root, depth, 0.5 * admissible_gamma_range(e)[0], (0.3,) * dim).sigma(e)
        full = operators.luxemburg_norm_blocks
        counts = []

        def counted(parts, phi, rtol=1e-13, keep=None):
            got = full(parts, phi, rtol, keep)
            counts.append((np.count_nonzero(got), got.size))
            return got

        monkeypatch.setattr(operators, "luxemburg_norm_blocks", counted)
        for gid in range(fam.num_grids):
            weighted_orlicz_fractional_maximal(f, sigma, alpha, LLOG, fam, gid)
        assert len(counts) == fam.num_grids
        assert all(0 < bisected <= 0.1 * rows for bisected, rows in counts)


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
        alpha = 0.5
        for depth in (6, 10):
            b = GridFunction.indicator(root1, depth, [0.5], [1.0])
            f = GridFunction.indicator(root1, depth, [0.25], [0.75])
            got = commutator_1d(b, f, alpha).cells
            m = 2 ** depth
            h = 1.0 / m
            edges = np.arange(m + 1) * h
            centers = (np.arange(m) + 0.5) * h
            ref = np.empty(m)
            for i, x in enumerate(centers):
                t = edges - x
                g = np.sign(t) * np.abs(t) ** alpha / alpha
                wts = np.diff(g)
                ref[i] = float(((b.cells[i] - b.cells) * f.cells * wts).sum())
            assert np.max(np.abs(got - ref)) < 1e-8, depth

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

    @pytest.mark.parametrize("root,depth", [
        (RootBox((0.0,), 1.0), 8), (RootBox((0.0, 0.0), 1.0), 4), (RootBox((-0.3,), 2.5), 6),
    ])
    @pytest.mark.parametrize("bump", ["step", "logdist", "random"])
    def test_planned_equals_block_form(self, root, depth, bump):
        # the plan only moves the b-side sorts out of the per-f work: with a
        # plan, without one and the former block form agree bit for bit
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(12)
        shape = (2 ** depth,) * root.n
        f = GridFunction(root, rng.uniform(0, 1, shape))
        b = (GridFunction(root, rng.standard_normal(shape)) if bump == "random"
             else verify.materialize_bump(verify.BumpSpec(bump), root, depth))
        for gid in range(fam.num_grids):
            plan = commutator_plan(b, fam, gid)
            assert all(not a.flags.writeable for level in plan for a in level)
            got = dyadic_commutator(b, f, 0.4, fam, gid, plan=plan).cells
            assert np.array_equal(got, dyadic_commutator(b, f, 0.4, fam, gid).cells)
            assert np.array_equal(got, dyadic_commutator_blocks(b, f, 0.4, fam, gid))
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
        cube = containing_cube(fam, 0, 6, [0.3])
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
            cube = containing_cube(fam, gid, k, rng.uniform(0, 1, 1))
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

    @pytest.mark.parametrize("root,depth", [
        (RootBox((0.0,), 1.0), 8), (RootBox((-0.3,), 2.5), 7),
        (RootBox((0.0, 0.0), 1.0), 5), (RootBox((0.2, -1.0), 1.5), 4)])
    def test_matches_recursion(self, root, depth):
        # the per-level minima give the recursion's cubes, in sorted order
        fam = DyadicGridFamily(root, depth)
        rng = np.random.default_rng(depth)
        f = GridFunction(root, rng.lognormal(0.0, 1.0, (2 ** depth,) * root.n))
        out = dyadic_fractional_integral(f, 0.5, fam, 0)
        for pct in (5, 30, 60, 90, 99):
            t = float(np.percentile(out.cells, pct))
            got = level_set_cubes(out.values, t, fam, 0)
            assert got == sorted(naive_level_set_cubes(out.values, t, fam, 0))
            assert len(got) > 0

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
