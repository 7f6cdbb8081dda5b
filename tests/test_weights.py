import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsefrac import weights
from sparsefrac.grid import DyadicGridFamily, GridFunction, RootBox
from sparsefrac.weights import (
    RH_CAP,
    CubeBattery,
    ExponentTriple,
    Weight,
    a1_characteristic,
    a1q_characteristic,
    admissible_gamma_range,
    ainfty_characteristic,
    ainfty_subset_bounds,
    ap_characteristic,
    apq_characteristic,
    power_weight,
    reverse_holder_exponent,
    step_weight,
    weighted_average,
    weighted_measure,
)
from sparsefrac.verify import sweep_gammas

from .oracles import (
    box_average,
    containing_cube,
    cubes_inside_root,
    naive_box_integral,
    overlap_weights,
    power_cell_average_2d_mp,
    power_cell_average_2d_recursive,
)


@pytest.fixture(scope="module")
def fam10(root1):
    return DyadicGridFamily(root1, 10)


@pytest.fixture(scope="module")
def bat6(fam10):
    return CubeBattery(fam10, 6)


class TestExponentTriple:
    def test_relations(self):
        e = ExponentTriple(1, 1 / 3, 2.0)
        assert e.q == pytest.approx(6.0)
        assert e.p_prime == 2.0
        assert e.r == pytest.approx(4.0)
        assert e.r_prime == pytest.approx(4.0 / 3.0)

    def test_p1_conventions(self):
        e = ExponentTriple(1, 0.5, 1.0)
        assert e.q == pytest.approx(2.0)
        assert e.p_prime == math.inf
        assert e.q_over_p_prime == 0.0
        assert e.r == 1.0
        assert e.r_prime == math.inf

    def test_exponent_identity(self):
        # 1 - alpha/n = 1/p' + 1/q at float precision
        for n, alpha, p in [(1, 0.5, 1.5), (1, 1 / 3, 2.0), (2, 0.7, 2.2), (2, 1.1, 1.5)]:
            e = ExponentTriple(n, alpha, p)
            assert abs(1 - e.alpha / e.n - 1 / e.p_prime - 1 / e.q) <= 1e-15

    def test_validation(self):
        with pytest.raises(ValueError):
            ExponentTriple(1, 1.5, 1.0)  # alpha >= n
        with pytest.raises(ValueError):
            ExponentTriple(1, 0.5, 2.0)  # p >= n/alpha
        with pytest.raises(ValueError):
            ExponentTriple(1, 0.5, 0.5)  # p < 1


class TestWeightedMeasure:
    def test_unit_density(self, root1):
        sigma = GridFunction.constant(root1, 6, 1.0)
        assert weighted_measure(sigma, [0.0], [1.0]) == pytest.approx(1.0)

    def test_scaled_density(self, root1):
        sigma = GridFunction.constant(root1, 6, 2.0)
        assert weighted_measure(sigma, [0.25], [0.5]) == pytest.approx(0.5)

    def test_random_against_naive(self, root1, fam10):
        rng = np.random.default_rng(0)
        sigma = GridFunction(root1, rng.uniform(0.1, 2.0, 2 ** 6))
        for _ in range(20):
            gid = int(rng.integers(2))
            k = int(rng.integers(0, 7))
            cube = containing_cube(fam10, gid, k, rng.uniform(0, 1, 1))
            lo, hi = fam10.cube_bounds(cube)
            got = weighted_measure(sigma, lo, hi)
            assert got == pytest.approx(naive_box_integral(sigma, lo, hi), abs=1e-12)


class TestWeightedAverage:
    def test_constant_f(self, root1):
        sigma = GridFunction(root1, np.random.default_rng(1).uniform(0.5, 2, 64))
        f = GridFunction.constant(root1, 6, 3.7)
        assert weighted_average(f, [0.0], [0.5], sigma) == pytest.approx(3.7)

    def test_lebesgue_reduction(self, root1):
        rng = np.random.default_rng(2)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        sigma = GridFunction.constant(root1, 6, 1.0)
        got = weighted_average(f, [0.25], [0.75], sigma)
        assert got == pytest.approx(box_average(f, [0.25], [0.75]), rel=1e-12)

    def test_inverse_density(self, root1):
        rng = np.random.default_rng(3)
        sigma = GridFunction(root1, rng.uniform(0.5, 2, 64))
        f = sigma.power(-1.0)
        got = weighted_average(f, [0.0], [0.5], sigma)
        expect = 0.5 / sigma.box_integral([0.0], [0.5])
        assert got == pytest.approx(expect, rel=1e-12)

    def test_degenerate_measure_guarded(self, root1):
        sigma = GridFunction.constant(root1, 6, 0.0)
        f = GridFunction.constant(root1, 6, 1.0)
        with pytest.raises(ValueError):
            weighted_average(f, [0.0], [0.5], sigma)


class TestCubeBattery:
    @pytest.mark.parametrize("n,depth,level", [(1, 10, 10), (2, 6, 6)])
    def test_bounds_match_cube_bounds(self, n, depth, level):
        fam = DyadicGridFamily(RootBox((0.0,) * n, 1.0), depth)
        bat = CubeBattery(fam, level)
        assert bat.cubes == [c for g in range(fam.num_grids) for k in range(level + 1)
                             for c in cubes_inside_root(fam, g, k)]
        lo = np.array([fam.cube_bounds(c)[0] for c in bat.cubes])
        hi = np.array([fam.cube_bounds(c)[1] for c in bat.cubes])
        vol = np.array([fam.volume_at(c.level) for c in bat.cubes])
        assert np.array_equal(bat._lo, lo)
        assert np.array_equal(bat._hi, hi)
        assert np.array_equal(bat._vol, vol)

    @pytest.mark.parametrize("origin,side,depth", [((0.0,), 1.0, 7), ((0.1,), 0.9, 7),
                                                   ((-0.3, 0.7), 2.5, 4)])
    def test_overlap_rows_of_two_functions_equal_the_pair(self, origin, side, depth):
        # one gather for b and sigma hands each the rows its own walk gives
        root = RootBox(origin, side)
        bat = CubeBattery(DyadicGridFamily(root, depth), depth - 1)
        rng = np.random.default_rng(41)
        b, sigma = (GridFunction(root, rng.lognormal(0.0, 1.0, (2 ** depth,) * root.n))
                    for _ in range(2))
        for (sl, bv, sv, frac), (sb, bv1, fb), (ss, sv1, fs) in zip(
                bat.overlap_rows(b, sigma), bat.overlap_rows(b), bat.overlap_rows(sigma),
                strict=True):
            assert sl == sb == ss
            for x, y in ((bv, bv1), (sv, sv1), (frac, fb), (frac, fs)):
                assert (x.dtype, x.shape) == (y.dtype, y.shape) and x.tobytes() == y.tobytes()


class TestCharacteristics:
    def test_unit_weight(self, bat6):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = Weight(GridFunction.constant(RootBox((0.0,), 1.0), 10, 1.0))
        assert apq_characteristic(w, e, bat6) == pytest.approx(1.0, abs=1e-12)

    def test_scale_invariance(self, bat6, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = Weight(GridFunction.constant(root1, 10, 37.5))
        assert apq_characteristic(w, e, bat6) == pytest.approx(1.0, rel=1e-12)

    def test_apq_regression_power_01(self, bat6, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = power_weight(root1, 10, 0.1, "center")
        assert apq_characteristic(w, e, bat6) == pytest.approx(1.037831306247784, rel=1e-9)

    def test_a1q_trivial_and_regression(self, bat6, root1):
        e = ExponentTriple(1, 0.5, 1.0)
        assert a1q_characteristic(
            Weight(GridFunction.constant(root1, 10, 2.0)), e, bat6
        ) == pytest.approx(1.0, rel=1e-12)
        w = power_weight(root1, 10, -0.2, "center")
        assert a1q_characteristic(w, e, bat6) == pytest.approx(1.3563603675385754, rel=1e-9)

    def test_p_mismatch_errors(self, bat6, root1):
        w = Weight(GridFunction.constant(root1, 10, 1.0))
        with pytest.raises(ValueError):
            apq_characteristic(w, ExponentTriple(1, 0.5, 1.0), bat6)
        with pytest.raises(ValueError):
            a1q_characteristic(w, ExponentTriple(1, 1 / 3, 2.0), bat6)

    def test_all_characteristics_at_least_one(self, bat6, root1):
        rng = np.random.default_rng(4)
        for _ in range(10):
            e = ExponentTriple(1, 1 / 3, 2.0)
            glo, ghi = admissible_gamma_range(e)
            g = rng.uniform(0.9 * glo, 0.9 * ghi)
            w = power_weight(root1, 10, g, "third")
            assert apq_characteristic(w, e, bat6) >= 1.0 - 1e-12
            assert ap_characteristic(w.v(e), e.r, bat6) >= 1.0 - 1e-12
            assert a1_characteristic(abs(w.base) + 0.0, bat6) >= 1.0 - 1e-12

    def test_battery_monotonicity(self, fam10, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = power_weight(root1, 10, -0.3, "third")
        values = [
            apq_characteristic(w, e, CubeBattery(fam10, k)) for k in range(1, 7)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))

    def test_apq_against_from_scratch_scan(self, root1):
        # recompute the characteristic with direct overlap sums and an
        # explicit double loop over grids and levels
        from .oracles import overlap_weights

        depth, k_char = 6, 4
        fam = DyadicGridFamily(root1, depth)
        bat = CubeBattery(fam, k_char)
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = power_weight(root1, depth, -0.12, "third")
        fast = apq_characteristic(w, e, bat)
        v, sg = w.v(e), w.sigma(e)
        best = 0.0
        for gid in range(fam.num_grids):
            for level in range(k_char + 1):
                for cube in cubes_inside_root(fam, gid, level):
                    lo, hi = fam.cube_bounds(cube)
                    vol = fam.volume_at(level)
                    wts = overlap_weights(v, lo, hi)
                    av = float((v.cells * wts).sum()) * v.cell_volume / vol
                    au = float((sg.cells * wts).sum()) * sg.cell_volume / vol
                    best = max(best, av ** (1 / e.q) * au ** (1 / e.p_prime))
        assert fast == pytest.approx(best, rel=1e-12)

    def test_a1q_esssup_on_shifted_cube(self, root1):
        # the esssup over a shifted cube must see every cell the cube
        # meets with positive measure, including cut boundary cells whose
        # centers lie outside the cube
        depth = 5
        fam = DyadicGridFamily(root1, depth)
        bat = CubeBattery(fam, 2)
        cells = np.ones(2 ** depth)
        cells[10] = 0.05  # tiny weight value -> dominant 1/w
        w = Weight(GridFunction(root1, cells))
        e = ExponentTriple(1, 0.5, 1.0)
        got = a1q_characteristic(w, e, bat)
        h = 1.0 / 32.0
        best = 0.0
        for i in range(len(bat.cubes)):
            lo, hi = bat.bounds(i)
            av = w.v(e).box_integral(lo, hi) / float(bat.volumes()[i])
            meets_cell_10 = hi[0] > 10 * h + 1e-12 and lo[0] < 11 * h - 1e-12
            inv = 1.0 / 0.05 if meets_cell_10 else 1.0
            best = max(best, av ** (1 / e.q) * inv)
        assert got == pytest.approx(best, rel=1e-12)
        # the maximizer is a shifted cube that only cuts into cell 10
        winner = int(np.argmax([
            (w.v(e).box_integral(*bat.bounds(i)) / float(bat.volumes()[i])) ** 0.5
            / bat.cell_min(w.base)[i]
            for i in range(len(bat.cubes))
        ]))
        assert bat.cubes[winner].grid_id == 1

    def test_identity_suite(self, root1):
        """[w^q]_{A_r} = [w]^q and [w^-p']_{A_r'} = [w]^p' on one battery."""
        fam = DyadicGridFamily(root1, 8)
        bat = CubeBattery(fam, 5)
        rng = np.random.default_rng(6)
        triples = [
            ExponentTriple(1, 1 / 3, 2.0),
            ExponentTriple(1, 0.25, 2.0),
            ExponentTriple(1, 0.5, 1.5),
            ExponentTriple(1, 0.2, 3.0),
            ExponentTriple(1, 0.4, 1.8),
        ]
        centers = ["center", "corner", "third"]
        for e in triples:
            glo, ghi = admissible_gamma_range(e)
            for j in range(4):
                gamma = float(rng.uniform(0.9 * glo, 0.9 * ghi))
                w = power_weight(root1, 8, gamma, centers[j % 3])
                char = apq_characteristic(w, e, bat)
                lhs_v = ap_characteristic(w.v(e), e.r, bat)
                lhs_s = ap_characteristic(w.sigma(e), e.r_prime, bat)
                assert lhs_v == pytest.approx(char ** e.q, rel=1e-10)
                assert lhs_s == pytest.approx(char ** e.p_prime, rel=1e-10)

    def test_step_weight_identities(self, bat6, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = step_weight(root1, 10, 1.0, 3.0)
        char = apq_characteristic(w, e, bat6)
        assert char >= 1.0
        assert ap_characteristic(w.v(e), e.r, bat6) == pytest.approx(char ** e.q, rel=1e-10)
        assert ap_characteristic(w.sigma(e), e.r_prime, bat6) == pytest.approx(
            char ** e.p_prime, rel=1e-10
        )

    def test_ainfty_is_contextual_ap(self, bat6, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        w = power_weight(root1, 10, 0.2, "center")
        assert ainfty_characteristic(w.v(e), e.r, bat6) == ap_characteristic(w.v(e), e.r, bat6)
        assert ainfty_characteristic(
            GridFunction.constant(root1, 10, 1.0), e.r, bat6
        ) == pytest.approx(1.0, abs=1e-12)

    def test_ainfty_monotone_under_battery_growth(self, fam10, root1):
        e = ExponentTriple(1, 1 / 3, 2.0)
        sigma = power_weight(root1, 10, 0.3, "third").v(e)
        values = [
            ainfty_characteristic(sigma, e.r, CubeBattery(fam10, k))
            for k in range(1, 7)
        ]
        assert all(b >= a - 1e-14 for a, b in zip(values, values[1:]))


class TestReverseHolder:
    def test_constant_hits_cap(self, bat6, root1):
        sigma = GridFunction.constant(root1, 10, 1.0)
        assert reverse_holder_exponent(sigma, bat6) == RH_CAP

    def test_power_weight_regression(self, bat6, root1):
        sigma = power_weight(root1, 10, -0.5, "center").base
        s = reverse_holder_exponent(sigma, bat6)
        assert s == pytest.approx(2.340092108632346, abs=2e-6)

    def test_bisection_sharpness(self, bat6, root1):
        sigma = power_weight(root1, 10, -0.5, "center").base
        s = reverse_holder_exponent(sigma, bat6)
        avg = bat6.averages(sigma)

        def holds(expnt):
            return bool(np.all(bat6.averages(sigma.power(expnt)) ** (1 / expnt) <= 2 * avg))

        assert holds(s)
        assert not holds(s + 1e-3)

    def test_2d_power_weight_in_range(self, root2):
        # the input on which box integrals of w^64 once came out negative
        w = power_weight(root2, 8, -0.2, (1 / 3, 1 / 3))
        bat = CubeBattery(DyadicGridFamily(root2, 8), 5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1.0 <= reverse_holder_exponent(w.base, bat) <= RH_CAP

    @pytest.mark.parametrize("gamma, x0", [(-1.0, "center"), (1.5, "third")])
    def test_2d_equals_fsum_bisection(self, root2, gamma, x0):
        # the same bisection over power means summed with math.fsum from
        # direct overlap fractions, and sharp as in test_bisection_sharpness
        sigma = power_weight(root2, 5, gamma, x0).base
        bat = CubeBattery(DyadicGridFamily(root2, 5), 3)
        fracs = [overlap_weights(sigma, *bat.bounds(i)).ravel() for i in range(len(bat))]
        cells = sigma.cells.ravel()
        avg = [math.fsum(f * cells) / math.fsum(f) for f in fracs]

        def holds(s):
            return all((math.fsum(f * cells ** s) / math.fsum(f)) ** (1 / s) <= 2 * a
                       for f, a in zip(fracs, avg))

        lo, hi = 1.0 + 1e-9, RH_CAP
        assert holds(lo) and not holds(hi)
        while hi - lo > 1e-6:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if holds(mid) else (lo, mid)
        s = reverse_holder_exponent(sigma, bat)
        assert s == lo
        assert holds(s) and not holds(s + 1e-3)

    def test_at_least_one(self, bat6, root1):
        rng = np.random.default_rng(8)
        for _ in range(5):
            sigma = GridFunction(root1, rng.uniform(0.2, 5.0, 2 ** 10))
            assert reverse_holder_exponent(sigma, bat6) >= 1.0

    def test_implied_constant_bounded_over_battery(self, bat6, root1):
        # nothing pins the dimensional constant in s = 1 + 1/(c [s]_Ainf);
        # measure it per weight and only ask that it stays bounded
        from sparsefrac.weights import implied_reverse_holder_constant

        e = ExponentTriple(1, 1 / 3, 2.0)
        rng = np.random.default_rng(12)
        implied = []
        glo, ghi = admissible_gamma_range(e)
        for j in range(6):
            gamma = float(rng.uniform(0.9 * glo, 0.9 * ghi))
            sigma = power_weight(root1, 10, gamma, "third").sigma(e)
            s, c = implied_reverse_holder_constant(sigma, e.r_prime, bat6)
            assert s >= 1.0
            if s < RH_CAP:  # capped runs only bound c from below
                implied.append(c)
        assert implied == [] or max(implied) < 10.0


class TestReverseHolderChecksOnce:
    def test_rows_checked_once(self, bat6, root1, monkeypatch):
        # the bisection gauges the overlap rows at about 25 exponents but
        # checks and normalizes them once, and lands where checking them
        # at every step does
        from sparsefrac import orlicz

        sigma = power_weight(root1, 10, -0.5, "center").base
        checks = []
        inner = orlicz.checked_blocks

        def counted(blocks):
            checks.append(None)
            return inner(blocks)

        monkeypatch.setattr(orlicz, "checked_blocks", counted)  # the gauge's own check
        monkeypatch.setattr(weights, "checked_blocks", counted)
        s = reverse_holder_exponent(sigma, bat6)
        assert len(checks) == 1 and 1.0 < s < RH_CAP
        monkeypatch.setattr(weights, "checked_blocks", list)  # every step checks again
        assert reverse_holder_exponent(sigma, bat6) == s
        assert len(checks) > 20


class TestSubsetBounds:
    def _setup(self, root1):
        fam = DyadicGridFamily(root1, 8)
        bat = CubeBattery(fam, 5)
        sigma = power_weight(root1, 8, -0.3, "third").base
        p = 2.0
        char = ap_characteristic(sigma, p, bat)
        rh = reverse_holder_exponent(sigma, bat)
        return fam, bat, sigma, p, char, rh

    def test_full_and_empty_set(self, root1):
        fam, bat, sigma, p, char, rh = self._setup(root1)
        lo, hi = bat.bounds(0)
        full = np.ones(sigma.cells.shape, dtype=bool)
        l1, r1, l2, r2 = ainfty_subset_bounds(sigma, lo, hi, full, p, char, rh)
        assert l1 == pytest.approx(1.0) and r1 >= l1
        empty = np.zeros(sigma.cells.shape, dtype=bool)
        l1, r1, l2, r2 = ainfty_subset_bounds(sigma, lo, hi, empty, p, char, rh)
        assert l1 == 0.0 and l2 == 0.0

    def test_random_subsets_no_violations(self, root1):
        fam, bat, sigma, p, char, rh = self._setup(root1)
        rng = np.random.default_rng(10)
        aligned = [i for i, c in enumerate(bat.cubes) if c.grid_id == 0]
        for _ in range(300):
            i = aligned[int(rng.integers(len(aligned)))]
            lo, hi = bat.bounds(i)
            sl, frac = sigma.box_overlap(lo, hi)
            mask = np.zeros(sigma.cells.shape, dtype=bool)
            mask[sl] = rng.random(sigma.cells[sl].shape) < 0.5
            l1, r1, l2, r2 = ainfty_subset_bounds(sigma, lo, hi, mask, p, char, rh)
            assert l1 <= r1 * (1 + 1e-12)
            assert l2 <= r2 * (1 + 1e-12)


class TestPowerWeightDiscretization:
    def test_singular_cell_exact_1d(self, root1):
        gamma = -0.4
        w = power_weight(root1, 6, gamma, "center")
        h = 2.0 ** -6
        i = 32  # cell [0.5, 0.5 + h) holds the singularity
        a = i * h
        expect = ((a + h - 0.5) ** (gamma + 1)) / ((gamma + 1) * h)
        assert w.base.cells[i] == pytest.approx(expect, rel=1e-13)

    def test_positive_everywhere(self, root1):
        for gamma in (-0.6, -0.2, 0.0, 0.3):
            w = power_weight(root1, 8, gamma, "third")
            assert w.base.min_cell() > 0

    def test_2d_refinement_consistency(self, root2):
        # tolerance-tightened recursion agrees with itself and with a fine
        # midpoint estimate away from machine precision
        from sparsefrac.weights import _power_cell_average_2d

        lo, hi = (0.328125, 0.328125), (0.34375, 0.34375)
        x0 = (1 / 3, 1 / 3)
        coarse = _power_cell_average_2d(lo, hi, x0, -0.7, tol=1e-10)
        fine = _power_cell_average_2d(lo, hi, x0, -0.7, tol=1e-13)
        assert coarse == pytest.approx(fine, rel=1e-9)

    def test_gauss_legendre_literals(self):
        nodes, wts = np.polynomial.legendre.leggauss(6)
        assert np.array_equal(weights._GL_NODES, nodes)
        assert np.array_equal(weights._GL_WEIGHTS, wts)

    @pytest.mark.parametrize("depth", [5, 8])
    @pytest.mark.parametrize("x0", [(1 / 3, 1 / 3), (0.5, 0.5), (0.4121940127942285, 0.5911602856139894)])
    def test_2d_cell_average_against_polar_form(self, depth, x0):
        # about 1e-9 relative for gamma >= -1.2, as the docstring states
        h = 2.0 ** -depth
        lo = tuple(math.floor(v / h) * h for v in x0)
        hi = (lo[0] + h, lo[1] + h)
        for gamma in (-1.2, -0.7, -0.2, 0.3, 0.9):
            exact = power_cell_average_2d_mp(lo, hi, x0, gamma)
            got = weights._power_cell_average_2d(lo, hi, x0, gamma)
            assert abs(got - exact) <= 2e-9 * exact

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.floats(-1.95, 2.5, exclude_min=True, exclude_max=True),
           st.sampled_from([1e-10, 1e-13]),
           st.integers(2, 8),
           st.sampled_from([1.0, 0.7]),
           st.tuples(st.floats(0, 1, exclude_max=True), st.floats(0, 1, exclude_max=True)),
           st.sampled_from(["interior", "edge", "vertex", "centre"]),
           st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)))
    # x0 on the corner 0.5 of a K = 8 cell below it: boxes under the float
    # spacing, NaN; and x0 near 1/3 at gamma = -1.9, the depth cap
    @example(-0.8, 1e-10, 8, 1.0, (0.499, 0.499), "vertex", (1.0, 1.0))
    @example(-1.9, 1e-13, 5, 1.0, (0.32, 0.32), "interior", (2 / 3, 2 / 3))
    def test_2d_cell_average_equals_recursion(self, gamma, tol, depth, side, corner, where, t):
        # the level-batched quadrature adds the recursive form's floats in
        # its order: equal bits, NaN (and a warning) where it gives NaN.
        # Cells of a root box of the given side: 0.7 makes the sides inexact
        h = side * 2.0 ** -depth
        lo = tuple(math.floor(c * side / h) * h for c in corner)
        hi = (lo[0] + h, lo[1] + h)
        x0 = {"interior": (lo[0] + t[0] * h, lo[1] + t[1] * h),
              "edge": (lo[0] + t[0] * h, hi[1] if t[1] > 0.5 else lo[1]),
              "vertex": (hi[0] if t[0] > 0.5 else lo[0], hi[1] if t[1] > 0.5 else lo[1]),
              "centre": (lo[0] + 0.5 * h, lo[1] + 0.5 * h)}[where]
        got = []
        for quad in (weights._power_cell_average_2d, power_cell_average_2d_recursive):
            with warnings.catch_warnings(record=True) as seen:
                warnings.simplefilter("always")
                got.append((quad(lo, hi, x0, gamma, tol), bool(seen)))
        (new, new_warned), (old, old_warned) = got
        assert new == old or (math.isnan(new) and math.isnan(old))
        assert new_warned == old_warned == math.isnan(old)

    def test_power_weight_equals_recursion_on_benchmark_inputs(self, root2, monkeypatch):
        # the 2-d family-ops weights of seeds 0-63 (n = 2, K = 5, (0.8, 2))
        # and the battery-2d weights (K = 6, x0 'third', 3 gammas per pair)
        cases = []
        lo, hi = admissible_gamma_range(ExponentTriple(2, 0.8, 2.0))
        for seed in range(64):
            rng = np.random.default_rng([seed, 2])
            gamma = float(rng.uniform(0.9 * lo, 0.9 * hi))
            cases.append((5, gamma, tuple(float(v) for v in rng.uniform(0.05, 0.95, 2))))
        for alpha, p in ((0.8, 2.0), (1.2, 1.5)):
            cases += [(6, g, "third") for g in sweep_gammas(ExponentTriple(2, alpha, p), 3)]
        new = [power_weight(root2, *case).base.cells for case in cases]
        monkeypatch.setattr(weights, "_power_cell_average_2d", power_cell_average_2d_recursive)
        for case, cells in zip(cases, new):
            assert np.array_equal(cells, power_weight(root2, *case).base.cells), case

    @pytest.mark.parametrize("gamma", [-2.0, -2.5])
    def test_2d_gamma_at_most_minus_two_raises(self, root2, gamma):
        with pytest.raises(ValueError, match="exceed -2"):
            weights._power_cell_average_2d((0.0, 0.0), (0.25, 0.25), (0.1, 0.1), gamma)
        with pytest.raises(ValueError, match="exceed -2"):
            power_weight(root2, 4, gamma, "third")

    def test_weight_requires_positive(self, root1):
        with pytest.raises(ValueError):
            Weight(GridFunction.constant(root1, 5, 0.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_weight_rejects_non_finite_cell(self, root1, bad):
        cells = np.ones(2 ** 5)
        cells[7] = bad
        with pytest.raises(ValueError, match="finite"):
            Weight(GridFunction(root1, cells))

    def test_power_weight_with_a_nan_cell_raises(self, root2):
        # x0 = (1/2, 1/2) sits on the upper corner of a cell just below 0.5;
        # the quadrature descends below the float spacing there and gives NaN
        with pytest.raises(ValueError, match="finite"):
            with pytest.warns(RuntimeWarning, match="float spacing"):
                power_weight(root2, 8, -0.2, "center")

    def test_step_weight(self, root1):
        w = step_weight(root1, 6, 1.0, 3.0)
        assert w.base.cells[0] == 1.0 and w.base.cells[-1] == 3.0

    def test_gamma_range(self):
        e = ExponentTriple(1, 1 / 3, 2.0)
        lo, hi = admissible_gamma_range(e)
        assert lo == pytest.approx(-1.0 / 6.0)
        assert hi == pytest.approx(0.5)
        e1 = ExponentTriple(1, 0.5, 1.0)
        assert admissible_gamma_range(e1) == (pytest.approx(-0.5), 0.0)
