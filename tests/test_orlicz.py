import math

import numpy as np
import pytest

from sparsefrac.grid import GridFunction
from sparsefrac.orlicz import (
    EXPM1,
    LLOG,
    POWER1,
    YoungFunction,
    amemiya_norm,
    box_samples,
    generalized_holder_check,
    luxemburg_norm,
    luxemburg_norm_arrays,
    luxemburg_norm_blocks,
    norm_sandwich_check,
)

from .oracles import _bisect_gauge, naive_luxemburg

BOX = ([0.0], [1.0])


def unit_sigma(root1, depth=8):
    return GridFunction.constant(root1, depth, 1.0)


class TestYoungFunctions:
    def test_zero_at_zero(self):
        for phi in (POWER1, LLOG, EXPM1, YoungFunction("power", 2.5)):
            assert phi(0.0) == 0.0

    def test_convex_increasing_spot_check(self):
        ts = np.logspace(-3, 2, 40)
        for phi in (POWER1, LLOG, EXPM1, YoungFunction("power", 3.0)):
            vals = phi(ts)
            assert np.all(np.diff(vals) > 0)
            mid = phi((ts[:-1] + ts[1:]) / 2)
            assert np.all(mid <= (vals[:-1] + vals[1:]) / 2 + 1e-12)

    def test_exp_overflow_guard(self):
        assert EXPM1(1e4) == math.inf
        assert np.isfinite(EXPM1(600.0))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            YoungFunction("cosh")


class TestLuxemburg:
    def test_power_closed_form_matches_bisection(self, root1):
        rng = np.random.default_rng(0)
        f = GridFunction(root1, rng.uniform(0, 2, 256))
        sigma = unit_sigma(root1)
        for p in (1.0, 2.0, 3.5):
            phi = YoungFunction("power", p)
            got = luxemburg_norm(f, *BOX, sigma, phi)
            ref = float(np.mean(f.cells ** p)) ** (1 / p)
            assert got == pytest.approx(ref, rel=1e-9)
            vals, mass = box_samples(f, *BOX, sigma)
            bis = _bisect_gauge(np.abs(vals), mass / mass.sum(), phi, 1e-13)
            assert bis == pytest.approx(ref, rel=1e-9)

    def test_unit_function_llog(self, root1, t_star):
        f = GridFunction.constant(root1, 8, 1.0)
        got = luxemburg_norm(f, *BOX, unit_sigma(root1), LLOG)
        assert got == pytest.approx(1.0 / t_star, rel=1e-9)
        assert got == pytest.approx(1.2567, abs=1e-3)

    def test_unit_function_expm1(self, root1, inv_log2):
        f = GridFunction.constant(root1, 8, 1.0)
        got = luxemburg_norm(f, *BOX, unit_sigma(root1), EXPM1)
        assert got == pytest.approx(inv_log2, rel=1e-9)

    def test_homogeneity(self, root1):
        rng = np.random.default_rng(1)
        f = GridFunction(root1, rng.uniform(-1, 1, 256))
        sigma = GridFunction(root1, rng.uniform(0.5, 2, 256))
        base = luxemburg_norm(f, *BOX, sigma, LLOG)
        scaled = luxemburg_norm(f * 3.5, *BOX, sigma, LLOG)
        assert scaled == pytest.approx(3.5 * base, rel=1e-9)

    def test_zero_function(self, root1):
        f = GridFunction.constant(root1, 6, 0.0)
        assert luxemburg_norm(f, *BOX, unit_sigma(root1, 6), LLOG) == 0.0

    def test_unit_mean_at_returned_lambda(self, root1):
        rng = np.random.default_rng(2)
        for seed in range(10):
            r = np.random.default_rng(seed)
            f = GridFunction(root1, r.uniform(0, 3, 256))
            sigma = GridFunction(root1, r.uniform(0.2, 2, 256))
            lam = luxemburg_norm(f, *BOX, sigma, LLOG)
            vals, mass = box_samples(f, *BOX, sigma)
            mean = float(LLOG(np.abs(vals) / lam) @ (mass / mass.sum()))
            assert 1 - 1e-8 <= mean <= 1.0 + 1e-15

    def test_monotone_in_f(self, root1):
        rng = np.random.default_rng(3)
        f = GridFunction(root1, rng.uniform(0, 1, 256))
        g = f + 0.3
        sigma = GridFunction(root1, rng.uniform(0.5, 2, 256))
        for phi in (LLOG, EXPM1, POWER1):
            assert luxemburg_norm(f, *BOX, sigma, phi) <= \
                luxemburg_norm(g, *BOX, sigma, phi) + 1e-12

    def test_blocks_match_scalar(self, root1):
        rng = np.random.default_rng(4)
        vals = rng.uniform(0, 2, (16, 32))
        mass = rng.uniform(0.1, 1, (16, 32))
        got = luxemburg_norm_blocks(vals, mass, LLOG)
        ref = [naive_luxemburg(v, m, LLOG) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12)

    @pytest.mark.parametrize("phi", [LLOG, EXPM1])
    def test_blocks_zero_where_mass_misses_values(self, phi):
        # row 0 has a positive value only where its mass is zero: gauge 0,
        # as luxemburg_norm_arrays gives, and the other rows are unaffected
        vals = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 3.0], [0.0, 0.0], [0.5, 0.0]])
        mass = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        got = luxemburg_norm_blocks(vals, mass, phi)
        assert got[0] == 0.0
        ref = [naive_luxemburg(v, m, phi) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("big", [1e60, 1e100])
    def test_blocks_converge_on_a_wide_bracket(self, big):
        # the bracket spans [1.25, big]: every row bisects until it meets
        # rtol, the one-row call too, and a converged row beside it stays put
        vals = np.array([[big, 1.0], [1.0, 1.0]])
        mass = np.array([[1e-300, 1.0], [1.0, 1.0]])
        got = luxemburg_norm_blocks(vals, mass, LLOG)
        ref = [naive_luxemburg(v, m, LLOG) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        assert luxemburg_norm_arrays(vals[0], mass[0], LLOG) == pytest.approx(ref[0], rel=1e-12)

    def test_blocks_zero_below_the_bracket_floor(self):
        # a lower bracket under 1e-300 gauges 0, as the scalar rule does
        vals = np.array([[1e-305, 0.0], [1.0, 2.0]])
        mass = np.ones((2, 2))
        got = luxemburg_norm_blocks(vals, mass, LLOG)
        assert got[0] == 0.0 == naive_luxemburg(vals[0], mass[0], LLOG)
        assert got[1] == pytest.approx(naive_luxemburg(vals[1], mass[1], LLOG), rel=1e-12)

    @pytest.mark.parametrize("phi", [LLOG, POWER1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_blocks_reject_non_finite(self, phi, bad):
        ok = np.array([[1.0, 2.0], [1.0, 1.0]])
        for vals, mass in ((np.array([[bad, 1.0], [1.0, 2.0]]), ok),
                           (ok, np.array([[1.0, 1.0], [bad, 1.0]]))):
            with pytest.raises(ValueError, match="non-finite"):
                luxemburg_norm_blocks(vals, mass, phi)
        with pytest.raises(ValueError, match="non-finite"):
            luxemburg_norm_arrays([bad, 1.0], [1.0, 1.0], phi)

    def test_blocks_reject_what_cannot_converge(self):
        with pytest.raises(ValueError, match="overflows"):
            luxemburg_norm_blocks(np.full((1, 2), 1.7e308), np.ones((1, 2)), LLOG)
        with pytest.raises(ValueError, match="rtol"):
            luxemburg_norm_blocks(np.ones((1, 2)), np.ones((1, 2)), LLOG, rtol=1e-17)

    def test_shifted_cube_box(self, root1):
        # a box cutting cells still gives overlap-exact samples
        f = GridFunction.constant(root1, 6, 2.0)
        got = luxemburg_norm(f, [1 / 3], [5 / 6], unit_sigma(root1, 6), POWER1)
        assert got == pytest.approx(2.0, rel=1e-12)


class TestAmemiya:
    def test_sandwich_100_random(self, root1):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            depth = 6
            f = GridFunction(root1, rng.uniform(-2, 2, 2 ** depth))
            sigma = GridFunction(root1, rng.uniform(0.2, 3, 2 ** depth))
            lux = luxemburg_norm(f, *BOX, sigma, LLOG)
            ame = amemiya_norm(f, *BOX, sigma, LLOG)
            assert lux <= ame * (1 + 1e-8)
            assert ame <= 2 * lux * (1 + 1e-8)

    def test_zero_function(self, root1):
        f = GridFunction.constant(root1, 6, 0.0)
        assert amemiya_norm(f, *BOX, unit_sigma(root1, 6), LLOG) == 0.0

    def test_linear_phi_limit(self, root1):
        # objective lam + mean|f| is minimized as lam -> 0
        rng = np.random.default_rng(5)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        sigma = GridFunction(root1, rng.uniform(0.5, 2, 64))
        got = amemiya_norm(f, *BOX, sigma, POWER1)
        vals, mass = box_samples(f, *BOX, sigma)
        expect = float(np.abs(vals) @ mass / mass.sum())
        assert got == pytest.approx(expect, rel=1e-6)


class TestGeneralizedHolder:
    def test_zero_factor(self, root1):
        z = GridFunction.constant(root1, 6, 0.0)
        g = GridFunction.constant(root1, 6, 1.0)
        lhs, rhs = generalized_holder_check(z, g, *BOX, unit_sigma(root1, 6))
        assert lhs == 0.0 and rhs == 0.0

    def test_unit_pair(self, root1, t_star, inv_log2):
        one = GridFunction.constant(root1, 8, 1.0)
        lhs, rhs = generalized_holder_check(one, one, *BOX, unit_sigma(root1))
        assert lhs == pytest.approx(1.0)
        assert rhs == pytest.approx(2.0 * (1.0 / t_star) * inv_log2, rel=1e-8)
        assert lhs <= rhs

    def test_random_pairs(self, root1):
        for seed in range(60):
            rng = np.random.default_rng(seed + 100)
            f = GridFunction(root1, rng.uniform(-2, 2, 128))
            g = GridFunction(root1, rng.uniform(-2, 2, 128))
            sigma = GridFunction(root1, rng.uniform(0.2, 3, 128))
            lhs, rhs = generalized_holder_check(f, g, *BOX, sigma)
            assert lhs <= rhs * (1 + 1e-12)


class TestNormSandwich:
    def test_unit_function(self, root1, t_star):
        one = GridFunction.constant(root1, 8, 1.0)
        a, b, c = norm_sandwich_check(one, *BOX, unit_sigma(root1), 2.0)
        assert a == pytest.approx(1.0)
        assert b == pytest.approx(1.0 / t_star, rel=1e-9)
        assert c == pytest.approx(1.0)

    def test_half_indicator_lower(self, root1):
        f = GridFunction.indicator(root1, 6, [0.0], [0.5])
        a, b, c = norm_sandwich_check(f, *BOX, unit_sigma(root1, 6), 2.0)
        assert a == pytest.approx(0.5)
        assert b >= 0.5

    def test_lower_sandwich_random(self, root1):
        for seed in range(100):
            rng = np.random.default_rng(seed + 500)
            f = GridFunction(root1, rng.uniform(-1, 1, 128))
            sigma = GridFunction(root1, rng.uniform(0.2, 2, 128))
            a, b, c = norm_sandwich_check(f, *BOX, sigma, 2.0)
            assert a <= b * (1 + 1e-10)

    def test_upper_constant_stable_in_depth(self, root1):
        # C(p) as the max observed ratio ||f||_llog / ||f||_p over a fixed
        # function family, compared across mesh depths
        ratios = []
        for depth in (6, 8):
            worst = 0.0
            for seed in range(20):
                rng = np.random.default_rng(seed)
                cells = rng.uniform(0, 1, 2 ** 6)
                reps = 2 ** (depth - 6)
                f = GridFunction(root1, np.repeat(cells, reps))
                sigma = GridFunction.constant(root1, depth, 1.0)
                a, b, c = norm_sandwich_check(f, *BOX, sigma, 2.0)
                worst = max(worst, b / c)
            ratios.append(worst)
        assert ratios[1] == pytest.approx(ratios[0], rel=0.2)
