import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparsefrac import orlicz
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
    luxemburg_norm_max,
    norm_sandwich_check,
)

from .oracles import _bisect_gauge, bisect_blocks, naive_luxemburg

BOX = ([0.0], [1.0])


def unit_sigma(root1, depth=8):
    return GridFunction.constant(root1, depth, 1.0)


def mp_p_mean(values, masses, p):
    """(sum m |v|^p / sum m)^(1/p) of one row in 40-digit arithmetic."""
    with mpmath.workdps(40):
        p = mpmath.mpf(p)
        m = [mpmath.mpf(float(w)) for w in masses]
        total = mpmath.fsum(w * abs(mpmath.mpf(float(v))) ** p for v, w in zip(values, m))
        return float((total / mpmath.fsum(m)) ** (1 / p))


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
        got = luxemburg_norm_blocks([(vals, mass)], LLOG)
        ref = [naive_luxemburg(v, m, LLOG) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12)

    @pytest.mark.parametrize("phi", [LLOG, EXPM1])
    def test_blocks_zero_where_mass_misses_values(self, phi):
        # row 0 has a positive value only where its mass is zero: gauge 0,
        # as luxemburg_norm_arrays gives, and the other rows are unaffected
        vals = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 3.0], [0.0, 0.0], [0.5, 0.0]])
        mass = np.array([[0.0, 1.0], [0.5, 0.5], [1.0, 1.0], [1.0, 2.0], [2.0, 1.0]])
        got = luxemburg_norm_blocks([(vals, mass)], phi)
        assert got[0] == 0.0
        ref = [naive_luxemburg(v, m, phi) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("big", [1e60, 1e100])
    def test_blocks_converge_on_a_wide_bracket(self, big):
        # the bracket spans [1.25, big]: every row bisects until it meets
        # rtol, the one-row call too, and a converged row beside it stays put
        vals = np.array([[big, 1.0], [1.0, 1.0]])
        mass = np.array([[1e-300, 1.0], [1.0, 1.0]])
        got = luxemburg_norm_blocks([(vals, mass)], LLOG)
        ref = [naive_luxemburg(v, m, LLOG) for v, m in zip(vals, mass)]
        assert np.allclose(got, ref, rtol=1e-12, atol=0.0)
        assert luxemburg_norm_arrays(vals[0], mass[0], LLOG) == pytest.approx(ref[0], rel=1e-12)

    def test_blocks_zero_below_the_bracket_floor(self):
        # a lower bracket under 1e-300 gauges 0, as the scalar rule does
        vals = np.array([[1e-305, 0.0], [1.0, 2.0]])
        mass = np.ones((2, 2))
        got = luxemburg_norm_blocks([(vals, mass)], LLOG)
        assert got[0] == 0.0 == naive_luxemburg(vals[0], mass[0], LLOG)
        assert got[1] == pytest.approx(naive_luxemburg(vals[1], mass[1], LLOG), rel=1e-12)

    @pytest.mark.parametrize("phi", [LLOG, POWER1])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_blocks_reject_non_finite(self, phi, bad):
        ok = np.array([[1.0, 2.0], [1.0, 1.0]])
        for vals, mass in ((np.array([[bad, 1.0], [1.0, 2.0]]), ok),
                           (ok, np.array([[1.0, 1.0], [bad, 1.0]]))):
            with pytest.raises(ValueError, match="non-finite"):
                luxemburg_norm_blocks([(vals, mass)], phi)
        with pytest.raises(ValueError, match="non-finite"):
            luxemburg_norm_arrays([bad, 1.0], [1.0, 1.0], phi)

    def test_blocks_reject_what_cannot_converge(self):
        with pytest.raises(ValueError, match="overflows"):
            luxemburg_norm_blocks([(np.full((1, 2), 1.7e308), np.ones((1, 2)))], LLOG)
        with pytest.raises(ValueError, match="rtol"):
            luxemburg_norm_blocks([(np.ones((1, 2)), np.ones((1, 2)))], LLOG, rtol=1e-17)

    def test_shifted_cube_box(self, root1):
        # a box cutting cells still gives overlap-exact samples
        f = GridFunction.constant(root1, 6, 2.0)
        got = luxemburg_norm(f, [1 / 3], [5 / 6], unit_sigma(root1, 6), POWER1)
        assert got == pytest.approx(2.0, rel=1e-12)


KINDS = (LLOG, EXPM1, POWER1, YoungFunction("power", 2.5))
ROW_KINDS = ("plain", "wide", "floor", "massless", "guard")


def gauge_block(width, seed, kinds, phi):
    """One (values, masses) block of len(kinds) rough seeded rows, each
    turned into the edge case its kind names, for the Young function phi."""
    rng = np.random.default_rng(seed)
    shape = (len(kinds), width)
    vals = rng.lognormal(0.0, 3.0, shape) * rng.choice([-1.0, 0.0, 1.0], shape, p=[0.4, 0.2, 0.4])
    mass = rng.uniform(0.0, 2.0, shape) * (rng.uniform(size=shape) > 0.25)
    mass[:, -1] += 0.5  # every row carries mass
    for i, kind in enumerate(kinds):
        if kind == "wide":  # a huge value on a sliver of mass: a long bracket
            vals[i, 0], mass[i, 0] = (1e60, 1e100)[i % 2], 1e-300
        elif kind == "floor":  # the root near or under the 1e-300 floor
            vals[i] *= 10.0 ** -rng.uniform(285.0, 310.0)
        elif kind == "massless":  # positive values where no mass lies (all, on even rows)
            mass[i, :-1] = 0.0
            vals[i, :-1] = rng.lognormal(0.0, 3.0, width - 1)
            vals[i, -1] *= i % 2
        elif kind == "guard" and width > 1:
            # unit values and one cell on a mass that may be subnormal whose
            # t at their root nears or passes the 700 expm1 guard or, on
            # odd rows, where t log(e + t) overflows (t^p overflows sooner)
            vals[i] = 1.0
            vals[i, 0] = 10.0 ** rng.uniform(302.0, 307.0) if i % 2 and phi.kind != "power" else \
                rng.uniform(300.0, 1100.0) / math.log(2.0)
            mass[i, 0] = 10.0 ** -rng.uniform(296.0, 322.0)
    return vals, mass


class TestBatchedGauge:
    """The batched gauge against the former one-block bisection."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS),
           st.lists(st.tuples(st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
                              st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5)),
                    min_size=1, max_size=12),
           st.data())
    @example(EXPM1, [(6, 1, ["guard"] * 5), (3, 2, ["plain", "guard"])], None)
    @example(LLOG, [(2, 3, ["wide", "wide", "plain"]), (1, 4, ["plain"]), (9, 5, ["floor"] * 4)], None)
    @example(EXPM1, [(5, 6, ["massless", "massless", "floor", "wide"])] * 3, None)
    def test_equals_per_block_bisection(self, phi, specs, data):
        blocks = [gauge_block(*spec, phi) for spec in specs]
        ref = [bisect_blocks(vals, mass, phi) for vals, mass in blocks]
        # the oracle's power branch sums m a^p, which underflows on floor
        # rows: those are held to their 40-digit p-mean, every other row
        # to the oracle's bits
        floor = [np.array([kind == "floor" and phi.kind == "power" for kind in kinds])
                 for *_, kinds in specs]
        for r, (vals, mass), f in zip(ref, blocks, floor):
            r[f] = [mp_p_mean(v, m, phi.exponent) for v, m in zip(vals[f], mass[f])]
        order = list(reversed(range(len(blocks)))) if data is None else \
            data.draw(st.permutations(range(len(blocks))))
        for perm in (range(len(blocks)), order):
            got = luxemburg_norm_blocks([blocks[i] for i in perm], phi)
            want = np.concatenate([np.zeros(0)] + [ref[i] for i in perm])
            f = np.concatenate([np.zeros(0, dtype=bool)] + [floor[i] for i in perm])
            assert np.array_equal(got[~f], want[~f])
            assert got[f] == pytest.approx(want[f], rel=1e-13, abs=0.0)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS),
           st.lists(st.tuples(st.integers(1, 64), st.integers(0, 2 ** 32 - 1),
                              st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=5)),
                    max_size=12),
           st.randoms(use_true_random=False))
    @example(EXPM1, [(6, 1, ["guard"] * 5), (3, 2, ["plain", "guard"])], None)
    @example(LLOG, [(9, 5, ["floor"] * 4), (2, 3, ["wide", "plain"]), (4, 7, ["massless"])], None)
    def test_max_equals_full_call(self, phi, specs, rnd):
        # the max path bisects only the blocks that can hold the maximum
        # and returns the full call's maximum, bit for bit, in any order
        blocks = [gauge_block(*spec, phi) for spec in specs]
        if rnd is not None:
            rnd.shuffle(blocks)
        want = luxemburg_norm_blocks(blocks, phi).max(initial=0.0)
        got = luxemburg_norm_max(iter(blocks), phi)
        assert type(got) is float and got == want

    @pytest.mark.parametrize("phi", [LLOG, EXPM1])
    def test_roots_settle_most_tests(self, phi, monkeypatch):
        # on the levels of a rough 1-d mesh (K = 10) Newton settles every
        # row within 8 steps, so the bisection's own test runs on fewer
        # than 2 rows per gauge row, against about 46 when every test ran
        rng = np.random.default_rng(29)
        shapes = [(2 ** k, 2 ** (10 - k)) for k in range(11)]
        blocks = [(rng.lognormal(0.0, 2.0, shape), rng.uniform(0.1, 3.0, shape)) for shape in shapes]
        tested = []
        phi_means = orlicz._phi_means

        def counted(a, m, lam, phi):
            tested.append(len(lam))
            return phi_means(a, m, lam, phi)

        monkeypatch.setattr(orlicz, "_phi_means", counted)
        monkeypatch.setattr(orlicz, "_NEWTON_CAP", 8)
        got = luxemburg_norm_blocks(blocks, phi)
        assert np.array_equal(got, np.concatenate([bisect_blocks(v, m, phi) for v, m in blocks]))
        assert sum(tested) < 2 * len(got)

    def test_power_kind_past_float_range(self):
        # 1e302^2.5 overflows although the p-average is finite, and a huge
        # value on a cell of no mass must not count at all
        phi = YoungFunction("power", 2.5)
        vals = np.array([[1e302, 1.0]])
        masses = (np.array([[1.0, 1.0]]), np.array([[0.0, 1.0]]))
        got = luxemburg_norm_blocks([(vals, m) for m in masses], phi)
        with mpmath.workdps(40):
            p = mpmath.mpf(2.5)
            for value, m in zip(got, masses):
                mean = mpmath.fsum(mpmath.mpf(float(w)) * mpmath.mpf(float(v)) ** p
                                   for v, w in zip(vals[0], m[0])) / float(m.sum())
                assert value == pytest.approx(float(mean ** (1 / p)), rel=1e-13)

    def test_power_kind_under_float_range(self):
        # 1e-150^2.5 underflows to 0 although the p-average is 1e-150; a
        # huge value on a cell of no mass must not count, and down to
        # where the values themselves are subnormal each row keeps its
        # p-average to 1e-13
        phi = YoungFunction("power", 2.5)
        vals = np.array([[1e-150, 1e-150], [1e-150, 1e200], [0.0, 0.0]])
        mass = np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        got = luxemburg_norm_blocks([(vals, mass)], phi)
        assert got[0] == pytest.approx(1e-150, rel=1e-13)
        assert got[1] == pytest.approx(1e-150, rel=1e-13) and got[2] == 0.0
        rng = np.random.default_rng(7)
        scale = 10.0 ** np.linspace(-160.0, -100.0, 25)[:, None]
        vals = scale * rng.uniform(0.1, 10.0, (25, 6))
        mass = rng.uniform(0.0, 2.0, (25, 6))
        for p in (1.0, 2.5, 3.0):
            got = luxemburg_norm_blocks([(vals, mass)], YoungFunction("power", p))
            want = [mp_p_mean(v, m, p) for v, m in zip(vals, mass)]
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    def test_empty_input(self):
        for phi in (LLOG, POWER1):
            assert luxemburg_norm_blocks([], phi).shape == (0,)
            assert luxemburg_norm_blocks([(np.ones((0, 3)), np.ones((0, 3)))], phi).shape == (0,)

    def test_max_of_nothing_is_zero(self):
        # no block, empty blocks, and blocks whose every row gauges 0 (no
        # positive value on mass, or a root under the 1e-300 floor)
        dead = [(np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[1.0, 1.0], [0.0, 1.0]])),
                (np.array([[1e-305, 0.0]]), np.ones((1, 2)))]
        for phi in KINDS:
            assert luxemburg_norm_max([], phi) == 0.0
            assert luxemburg_norm_max([(np.ones((0, 3)), np.ones((0, 3)))], phi) == 0.0
            assert luxemburg_norm_max(dead[:1], phi) == 0.0
        for phi in (LLOG, EXPM1):
            assert luxemburg_norm_max(dead, phi) == 0.0

    @pytest.mark.parametrize("phi", KINDS)
    def test_max_rejects_what_the_full_call_rejects(self, phi):
        # every block is checked, also those the bands would rule out
        fine = (np.array([[5.0, 4.0]]), np.ones((1, 2)))
        cases = [([fine, (np.array([[math.nan, 1.0]]), np.ones((1, 2)))], "non-finite"),
                 ([fine, (np.ones((1, 2)), np.array([[1.0, math.inf]]))], "non-finite"),
                 ([fine, (np.ones((2, 2)), np.array([[1.0, 1.0], [0.0, 0.0]]))], "degenerate")]
        if phi.kind != "power":  # the closed form needs no bracket
            cases.append(([fine, (np.full((1, 2), 1.7e308), np.ones((1, 2)))], "overflows"))
            # sum m a rounds past the float range: a NaN bottom
            cases.append(([fine, (np.full((1, 3), np.finfo(float).max), np.ones((1, 3)))],
                          "overflows"))
        if phi == LLOG:
            # the first bracket doubles past the float range, although its
            # band (9.07e307) lies under the second block's (9.86e307)
            cases.append(([(np.array([[2.0 ** 1023, 0.0]]), np.array([[0.77, 0.23]])),
                           (np.array([[1.2e308, 1e300]]), np.array([[0.6, 0.4]]))], "overflows"))
        for blocks, match in cases:
            for order in (blocks, blocks[::-1]):
                with pytest.raises(ValueError, match=match):
                    luxemburg_norm_blocks(order, phi)
                with pytest.raises(ValueError, match=match):
                    luxemburg_norm_max(order, phi)
        for rtol in (1e-17, 4.0 * np.finfo(float).eps):
            with pytest.raises(ValueError, match="rtol"):
                luxemburg_norm_max([fine], phi, rtol=rtol)


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
