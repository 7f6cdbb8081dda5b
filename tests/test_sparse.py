import tracemalloc

import numpy as np
import pytest

from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction, RootBox
from sparsefrac.operators import dyadic_fractional_integral, sparse_fractional_integral
from sparsefrac.sparse import (
    SparseFamily,
    certify_sparse,
    cz_stopping_cubes,
    sparse_family_from_json,
    sparse_family_to_json,
    sparse_select_for_operator,
    verify_commutator_domination,
    verify_sparse_domination,
)

from .conftest import refine
from .oracles import (
    cubes_inside_root,
    naive_carrier,
    naive_certify,
    naive_cz_stopping,
    naive_sparse_select,
    percube_sparse_integral,
)

GEOM_SUM_HALF_K3 = sum(2.0 ** (-k / 2) for k in range(4))


@pytest.fixture(scope="module")
def fam8(root1):
    return DyadicGridFamily(root1, 8)


class TestStoppingLevels:
    def test_constant_selects_root_when_threshold_below(self, root1):
        fam = DyadicGridFamily(root1, 6)
        g = GridFunction.constant(root1, 6, 3.0)
        levels = cz_stopping_cubes(g, fam, 0)
        assert levels == {0: [DyadicCube(0, 0, (0,))]}

    def test_tie_at_threshold_not_selected(self, root1):
        # averages equal to a^k stay out: strict inequality
        fam = DyadicGridFamily(root1, 6)
        g = GridFunction.constant(root1, 6, 1.0)
        assert cz_stopping_cubes(g, fam, 0) == {}

    def test_zero_function(self, root1):
        fam = DyadicGridFamily(root1, 6)
        g = GridFunction.constant(root1, 6, 0.0)
        assert cz_stopping_cubes(g, fam, 0) == {}

    def test_spike_selects_thinned_chain(self, root1):
        fam = DyadicGridFamily(root1, 6)
        cells = np.zeros(64)
        cells[13] = 1.0
        g = GridFunction(root1, cells)
        levels = cz_stopping_cubes(g, fam, 0)
        x = (13 + 0.5) / 64
        for k, cubes in levels.items():
            assert len(cubes) == 1
            cube = cubes[0]
            lo, hi = fam.cube_bounds(cube)
            assert lo[0] <= x < hi[0]

    def test_threshold_bracketing(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(0)
        g = GridFunction(root1, np.abs(rng.lognormal(0, 1.2, 64)))
        levels = cz_stopping_cubes(g, fam, 0)
        assert levels
        for k, cubes in levels.items():
            for cube in cubes:
                lo, hi = fam.cube_bounds(cube)
                avg = g.box_integral(lo, hi) / fam.volume_at(cube.level)
                assert avg > 4.0 ** k
                if cube.level > 0:
                    plo, phi = fam.cube_bounds(fam.parent(cube))
                    pavg = g.box_integral(plo, phi) / fam.volume_at(cube.level - 1)
                    assert pavg <= 4.0 ** k
                    assert avg <= 2.0 * 4.0 ** k * (1 + 1e-12)

    def test_per_level_maximality(self, root1):
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(1)
        g = GridFunction(root1, np.abs(rng.lognormal(0, 1.0, 64)))
        levels = cz_stopping_cubes(g, fam, 0)
        for cubes in levels.values():
            for i, p in enumerate(cubes):
                for q in cubes[i + 1:]:
                    assert fam.relation(p, q) == "disjoint"

    def test_union_is_sparse_on_random_data(self, root1):
        fam = DyadicGridFamily(root1, 6)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            g = GridFunction(root1, np.abs(rng.lognormal(0, 1.0, 64)))
            levels = cz_stopping_cubes(g, fam, 0)
            union = SparseFamily(0, [c for v in levels.values() for c in v])
            assert certify_sparse(union, fam, 6).ok


class TestSparseSelection:
    def test_unit_function_gives_root(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction.constant(root1, 6, 1.0)
        fam_sel = sparse_select_for_operator(f, fam, 0)
        assert fam_sel.cubes == [DyadicCube(0, 0, (0,))]

    def test_spike_gives_chain(self, root1, fam8):
        cells = np.zeros(256)
        cells[77] = 1.0
        f = GridFunction(root1, cells)
        sel = sparse_select_for_operator(f, fam8, 0)
        x = (77 + 0.5) / 256
        levels = [c.level for c in sel.cubes]
        assert levels == sorted(set(levels))  # a chain, one cube per level
        for c in sel.cubes:
            lo, hi = fam8.cube_bounds(c)
            assert lo[0] <= x < hi[0]
        assert certify_sparse(sel, fam8, 8).ok

    @pytest.mark.parametrize("gid", [0, 1])
    def test_random_families_certify(self, root1, fam8, gid):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            f = GridFunction(root1, rng.uniform(0, 1, 256))
            sel = sparse_select_for_operator(f, fam8, gid)
            cert = certify_sparse(sel, fam8, 8)
            assert cert.ok, (seed, gid, cert.min_density)

    def test_negative_input_rejected(self, root1, fam8):
        f = GridFunction.constant(root1, 8, -1.0)
        with pytest.raises(ValueError):
            sparse_select_for_operator(f, fam8, 0)


class TestCertification:
    def test_root_alone(self, root1, fam8):
        cert = certify_sparse(SparseFamily(0, [DyadicCube(0, 0, (0,))]), fam8, 8)
        assert cert.ok and cert.min_density == 1.0

    def test_both_children_rejected(self, root1, fam8):
        q = DyadicCube(0, 2, (1,))
        bad = SparseFamily(0, [q] + fam8.children(q))
        cert = certify_sparse(bad, fam8, 8)
        assert not cert.ok
        assert cert.first_violation == q
        assert cert.min_density == pytest.approx(0.0)

    def test_one_child_boundary_passes(self, root1, fam8):
        q = DyadicCube(0, 2, (1,))
        fam_sel = SparseFamily(0, [q, fam8.children(q)[0]])
        cert = certify_sparse(fam_sel, fam8, 8)
        assert cert.ok
        assert cert.min_density == pytest.approx(0.5)

    def test_carriers_disjoint(self, root1, fam8):
        rng = np.random.default_rng(2)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        sel = sparse_select_for_operator(f, fam8, 0)
        cert = certify_sparse(sel, fam8, 8)
        total = np.zeros(256, dtype=int)
        for mask in cert.carriers.values():
            total += mask
        assert np.all(total <= 1)

    def test_tree_and_mesh_disagreeing_is_not_disjoint(self, root1, monkeypatch):
        # parent pointers that skip level 1 make the level-0 cube the nearest
        # selected ancestor of the level-2 cube, whose cells the level-1 cube
        # holds: they would sit in two carriers
        fam = DyadicGridFamily(root1, 4)
        chain = SparseFamily(0, [DyadicCube(0, k, (0,)) for k in range(3)])
        assert certify_sparse(chain, fam, 4).disjoint
        monkeypatch.setattr(fam, "parent", lambda c: DyadicCube(0, 0, (0,)))
        cert = certify_sparse(chain, fam, 4)
        assert not cert.disjoint and not cert.ok

    def test_mixed_grids_rejected(self):
        with pytest.raises(ValueError):
            SparseFamily(0, [DyadicCube(0, 1, (0,)), DyadicCube(1, 1, (0,))])


def assert_same_certificate(got, ref):
    assert (got.ok, got.min_density, got.disjoint, got.first_violation) == (
        ref.ok, ref.min_density, ref.disjoint, ref.first_violation)
    assert list(got.carriers) == list(ref.carriers)
    for cube, carrier in ref.carriers.items():
        assert np.array_equal(got.carriers[cube], carrier)


def assert_sweeps_match_per_cube(f, fam, gid, stopping=True):
    """The level sweeps give the per-cube oracles' results exactly."""
    sel = sparse_select_for_operator(f, fam, gid)
    ref = naive_sparse_select(f, fam, gid)
    assert sel.cubes == ref.cubes
    assert_same_certificate(certify_sparse(sel, fam, f.depth), naive_certify(ref, fam, f.depth))
    if stopping:
        assert cz_stopping_cubes(f, fam, gid) == naive_cz_stopping(f, fam, gid)
    out = sparse_fractional_integral(f, 0.5, fam, sel.cubes)
    cells, visits = percube_sparse_integral(f, 0.5, fam, ref.cubes)
    assert np.array_equal(out.cells, cells)
    assert out.cube_visits == visits
    return sel


class TestLevelSweepsMatchPerCube:
    @pytest.mark.parametrize("gid", [0, 1])
    def test_criterion_03_inputs(self, root1, fam8, gid):
        # the stopping-cube oracle averages every ambient cube with one scalar
        # call each, so it runs on every fifth seed
        for seed in range(50):
            f = GridFunction(root1, np.random.default_rng(seed).uniform(0.0, 1.0, 256))
            assert_sweeps_match_per_cube(f, fam8, gid, stopping=seed % 5 == 0)

    @pytest.mark.parametrize("gid", range(4))
    @pytest.mark.parametrize("depth", [4, 5])
    def test_random_2d(self, root2, depth, gid):
        fam = DyadicGridFamily(root2, depth)
        rng = np.random.default_rng(depth)
        cells = np.exp(1.5 * rng.standard_normal((2 ** depth, 2 ** depth)))
        cells.flat[rng.choice(cells.size, 6, replace=False)] += 4.0 ** depth
        sel = assert_sweeps_match_per_cube(
            GridFunction(root2, cells), fam, gid, stopping=depth == 4)
        assert max(c.level for c in sel.cubes) == depth

    def test_non_dyadic_root(self):
        root = RootBox((-0.3,), 2.5)
        fam = DyadicGridFamily(root, 8)
        f = GridFunction(root, np.random.default_rng(5).lognormal(0.0, 1.5, 256))
        for gid in (0, 1):
            assert_sweeps_match_per_cube(f, fam, gid)

    @pytest.mark.parametrize("n,depth", [(1, 6), (2, 3)])
    def test_zero_function(self, n, depth):
        root = RootBox((0.0,) * n, 1.0)
        fam = DyadicGridFamily(root, depth)
        f = GridFunction.constant(root, depth, 0.0)
        for gid in range(fam.num_grids):
            assert len(assert_sweeps_match_per_cube(f, fam, gid)) == 0

    def test_2d_cube_outside_root_box(self, root2):
        # The level-0 cube [1/3, 4/3) x [1, 2) of grid 1 misses the root box,
        # yet its box integral rounds to +1.4e-20 rather than 0, so both
        # selections keep it (ROADMAP item 4).  The sweep must not drop it.
        fam = DyadicGridFamily(root2, 4)
        f = GridFunction(root2, np.random.default_rng(0).uniform(0.0, 1.0, (16, 16)))
        sel = assert_sweeps_match_per_cube(f, fam, 1)
        assert DyadicCube(1, 0, (0, 1)) in sel.cubes


class TestCertificateMemory:
    def test_labels_not_masks(self, root2):
        # (2, 8): a heavy-tailed background plus 40 point masses gives grid 1
        # a family of over 800 cubes; one full-mesh mask per cube took 53 MiB
        rng = np.random.default_rng(0)
        cells = rng.lognormal(0.0, 2.5, (256, 256))
        cells.flat[rng.choice(cells.size, 40, replace=False)] += 4.0 ** 8
        fam = DyadicGridFamily(root2, 8)
        sel = sparse_select_for_operator(GridFunction(root2, cells), fam, 1)
        assert len(sel) >= 800
        tracemalloc.start()
        try:
            cert = certify_sparse(sel, fam, 8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2 ** 20
        assert cert.ok
        assert list(cert.carriers) == sorted(sel.cubes)
        for q in sel.cubes[::40]:
            assert np.array_equal(cert.carriers[q], naive_carrier(sel, fam, 8, q))
        with pytest.raises(TypeError):
            cert.carriers[sel.cubes[0]] = cert.carriers[sel.cubes[0]]


class TestSparseDomination:
    def test_unit_function_exact_ratio(self, root1):
        fam = DyadicGridFamily(root1, 3)
        f = GridFunction.constant(root1, 3, 1.0)
        rep = verify_sparse_domination(f, 0.5, fam, 0)
        assert rep.max_ratio == pytest.approx(GEOM_SUM_HALF_K3, abs=1e-9)
        assert rep.positivity_ok

    def test_zero_function_vacuous(self, root1):
        fam = DyadicGridFamily(root1, 4)
        f = GridFunction.constant(root1, 4, 0.0)
        rep = verify_sparse_domination(f, 0.5, fam, 0)
        assert rep.max_ratio == 0.0 and rep.positivity_ok

    def test_positivity_and_finite_ratio(self, root1, fam8):
        for seed in range(10):
            rng = np.random.default_rng(seed + 20)
            f = GridFunction(root1, rng.uniform(0, 1, 256))
            rep = verify_sparse_domination(f, 0.5, fam8, 0)
            assert rep.positivity_ok
            assert 1.0 <= rep.max_ratio < 50.0

    def test_ratio_depth_stability(self, root1):
        # ratios converge geometrically: each refinement step K -> K+2 may
        # move the ratio by at most 10 percent
        base = np.random.default_rng(21).uniform(0, 1, 64)
        ratios = []
        for depth in (6, 8, 10):
            fam = DyadicGridFamily(root1, depth)
            f = GridFunction(root1, refine(base, 2 ** (depth - 6)))
            ratios.append(verify_sparse_domination(f, 0.5, fam, 0).max_ratio)
        for a, b in zip(ratios, ratios[1:]):
            assert abs(b - a) / a <= 0.10

    def test_enlarging_family_lowers_ratio(self, root1, fam8):
        rng = np.random.default_rng(22)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        sel = sparse_select_for_operator(f, fam8, 0)
        full = dyadic_fractional_integral(f, 0.5, fam8, 0).cells
        part = sparse_fractional_integral(f, 0.5, fam8, sel.cubes).cells
        ratio_small = np.max(full[part > 0] / part[part > 0])
        extra = [c for k in range(3) for c in cubes_inside_root(fam8, 0, k)]
        bigger = sorted(set(sel.cubes) | set(extra))
        part2 = sparse_fractional_integral(f, 0.5, fam8, bigger).cells
        ratio_big = np.max(full[part2 > 0] / part2[part2 > 0])
        assert ratio_big <= ratio_small + 1e-12


class TestCommutatorDomination:
    def test_constant_b_vacuous(self, root1):
        fam = DyadicGridFamily(root1, 6)
        f = GridFunction(root1, np.random.default_rng(23).uniform(0, 1, 64))
        b = GridFunction.constant(root1, 6, 3.0)
        rep = verify_commutator_domination(b, f, 0.5, fam)
        assert rep.max_ratio <= 1e-9

    def test_step_indicator_regression(self, root1, fam8):
        b = GridFunction.indicator(root1, 8, [0.5], [1.0])
        f = GridFunction.indicator(root1, 8, [0.0], [0.5])
        rep = verify_commutator_domination(b, f, 0.5, fam8)
        assert rep.positivity_ok
        assert rep.max_ratio == pytest.approx(1.8975525032224079, rel=1e-9)

    def test_ratio_depth_stability(self, root1):
        base_b = np.random.default_rng(24).standard_normal(64)
        base_f = np.random.default_rng(25).uniform(0, 1, 64)
        ratios = []
        for depth in (6, 8, 10):
            fam = DyadicGridFamily(root1, depth)
            factor = 2 ** (depth - 6)
            b = GridFunction(root1, refine(base_b, factor))
            f = GridFunction(root1, refine(base_f, factor))
            ratios.append(verify_commutator_domination(b, f, 0.5, fam).max_ratio)
        assert max(ratios) / min(ratios) <= 1.10


class TestSerialization:
    def test_round_trip(self, root1, fam8):
        rng = np.random.default_rng(26)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        sel = sparse_select_for_operator(f, fam8, 1)
        cert = certify_sparse(sel, fam8, 8)
        text = sparse_family_to_json(sel, cert)
        back = sparse_family_from_json(text)
        assert back.grid_id == sel.grid_id
        assert back.cubes == sel.cubes

    def test_reject_foreign(self):
        with pytest.raises(ValueError):
            sparse_family_from_json('{"format": "other"}')
