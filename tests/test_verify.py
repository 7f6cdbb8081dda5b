import contextlib
import dataclasses
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from sparsefrac import cli, operators, orlicz, verify
from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction, RootBox
from sparsefrac.operators import dyadic_fractional_maximal
from sparsefrac.weights import ExponentTriple
from sparsefrac.verify import (
    BumpSpec,
    FunctionSpec,
    TestCase,
    WeightSpec,
    build_battery,
    large_small_partition,
    materialize_bump,
    materialize_weight,
    run_battery,
    stability_pair,
    standard_function_specs,
    sweep_slope,
    verify_case,
    verify_commutator_strong,
    verify_duality_cube_estimate,
    verify_maximal_weak_and_strong,
    verify_strong_pq,
    verify_summation_lemma,
    verify_weak_1q,
    verify_wtd_bmo,
    weak_quasinorm,
    write_reports_csv,
    write_reports_json,
    workspace,
    write_sweep_csv,
)

from .oracles import (
    naive_duality_ratios,
    naive_summation_sides,
    naive_weak_quasinorm,
    naive_wtd_bmo_lhs,
    per_block_gauge,
)

E_THIRD = ExponentTriple(1, 1.0 / 3.0, 2.0)
E_HALF_P1 = ExponentTriple(1, 0.5, 1.0)
THEOREMS = list(verify.THEOREM_TABLE)


@contextlib.contextmanager
def benchmark_tracer():
    """perfbench/tracer.py's Tracer, installed for the block."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        yield tracer
    finally:
        tracer.uninstall()


def case_for(theorem, e=E_THIRD, weight=None, func=None, bump=None, phi="llog",
             depth=7, battery_depth=4):
    return TestCase(
        case_id=f"{theorem}-unit",
        theorem=theorem,
        e=e,
        weight=weight or WeightSpec("constant"),
        func=func or FunctionSpec("constant"),
        bump=bump,
        phi=phi,
        depth=depth,
        battery_depth=battery_depth,
    )


class TestWeakQuasinorm:
    def test_exact_against_histogram_oracle(self, root1):
        rng = np.random.default_rng(0)
        vals = rng.uniform(0, 2, 128)
        density = GridFunction(root1, rng.uniform(0.2, 2, 128))
        got = weak_quasinorm(vals, density, 2.0)
        ref = naive_weak_quasinorm(vals, density, 2.0)
        assert got == pytest.approx(ref, rel=1e-13)

    def test_zero(self, root1):
        density = GridFunction.constant(root1, 5, 1.0)
        assert weak_quasinorm(np.zeros(32), density, 2.0) == 0.0


class TestWeak1q:
    def test_zero_function(self):
        case = case_for("weak_1q", E_HALF_P1,
                        func=FunctionSpec("indicator", ((0.3,), (0.3,))))
        rep = verify_weak_1q(case)[0]
        assert rep.lhs == 0.0 and rep.measured_constant == 0.0

    def test_histogram_case_regression(self):
        case = case_for("weak_1q", E_HALF_P1,
                        func=FunctionSpec("indicator", ((0.0,), (0.5,))),
                        depth=6, battery_depth=4)
        rep = verify_weak_1q(case)[0]
        assert rep.characteristic == pytest.approx(1.0, abs=1e-12)
        assert rep.lhs == pytest.approx(1.8472718241315031, rel=1e-9)

    def test_p_must_be_one(self):
        with pytest.raises(ValueError):
            verify_weak_1q(case_for("weak_1q", E_THIRD))


class TestStrongPq:
    def test_zero_function(self):
        case = case_for("strong_pq", func=FunctionSpec("indicator", ((0.3,), (0.3,))))
        for rep in verify_strong_pq(case):
            assert rep.lhs == 0.0

    def test_unit_closed_form(self):
        case = case_for("strong_pq", depth=6, battery_depth=4)
        reps = verify_strong_pq(case)
        expect = sum(2.0 ** (-k / 3.0) for k in range(7))
        dyadic = [r for r in reps if r.case_id.endswith(":dyadic")][0]
        assert dyadic.lhs == pytest.approx(expect, rel=1e-12)
        sparse = [r for r in reps if r.case_id.endswith(":sparse")][0]
        assert sparse.lhs == pytest.approx(1.0, rel=1e-12)


class TestCommutatorStrong:
    def test_constant_bump_degenerate(self):
        case = case_for("commutator_strong", bump=BumpSpec("constant"))
        rep = verify_commutator_strong(case)[0]
        assert rep.extra.get("degenerate")
        assert rep.passed

    def test_log_bump_regression(self):
        case = case_for("commutator_strong", bump=BumpSpec("logdist", "third"),
                        depth=8, battery_depth=5)
        rep = verify_commutator_strong(case)[0]
        assert rep.measured_constant == pytest.approx(8.619194092311478, rel=1e-9)
        assert math.isfinite(rep.measured_constant)


class TestMaximal:
    def test_zero_function(self):
        case = case_for("maximal_pq", func=FunctionSpec("indicator", ((0.3,), (0.3,))))
        for rep in verify_maximal_weak_and_strong(case):
            assert rep.lhs == 0.0

    def test_definition_collapse_alpha0_power1(self, root1):
        # sigma = 1, phi = t: the operator is the classical dyadic maximal
        fam = DyadicGridFamily(root1, 6)
        rng = np.random.default_rng(1)
        f = GridFunction(root1, rng.uniform(0, 1, 64))
        from sparsefrac.operators import weighted_orlicz_fractional_maximal
        from sparsefrac.orlicz import POWER1
        sigma = GridFunction.constant(root1, 6, 1.0)
        got = weighted_orlicz_fractional_maximal(f, sigma, 0.0, POWER1, fam, 0).cells
        ref = dyadic_fractional_maximal(f, 0.0, fam, 0).cells
        assert np.max(np.abs(got - ref)) <= 1e-14  # equal up to summation order

    def test_llog_ratios_finite_and_stable(self):
        vals = []
        for depth in (6, 8):
            case = case_for("maximal_pq", weight=WeightSpec("power", -0.15, "third"),
                            phi="llog", depth=depth, battery_depth=4)
            reps = verify_maximal_weak_and_strong(case)
            vals.append(max(r.measured_constant for r in reps))
        assert all(math.isfinite(v) for v in vals)
        assert abs(vals[1] - vals[0]) / vals[0] <= 0.2


class TestWtdBmo:
    def test_constant_bump_degenerate(self):
        case = case_for("weighted_bmo", bump=BumpSpec("constant"))
        rep = verify_wtd_bmo(case)[0]
        assert rep.extra.get("degenerate") and rep.passed

    def test_unit_sigma_step_pinned(self):
        # the root cube realizes the max: ||b - 1/2|| in the exponential
        # norm solves exp(1/(2 lam)) - 1 = 1, so lhs = 1/(2 ln 2)
        case = case_for("weighted_bmo", bump=BumpSpec("step"), depth=8,
                        battery_depth=4)
        rep = verify_wtd_bmo(case)[0]
        assert rep.lhs == pytest.approx(0.5 / math.log(2.0), rel=1e-8)
        assert rep.extra["bmo"] == pytest.approx(0.5, abs=1e-12)
        assert rep.characteristic == pytest.approx(1.0, abs=1e-12)

    def test_power_sigma_bounded(self):
        base = verify_wtd_bmo(case_for("weighted_bmo", bump=BumpSpec("step")))[0]
        for gamma in (-0.1, 0.2, 0.4):
            case = case_for("weighted_bmo", weight=WeightSpec("power", gamma, "third"),
                            bump=BumpSpec("logdist", "third"))
            rep = verify_wtd_bmo(case)[0]
            assert rep.measured_constant <= 4.0 * base.measured_constant

    @pytest.mark.parametrize("e,depth,battery_depth,gamma", [
        (E_THIRD, 8, 5, 0.2),
        (ExponentTriple(2, 0.8, 2.0), 4, 3, 0.4),
    ])
    def test_lhs_matches_per_cube_oracle(self, e, depth, battery_depth, gamma):
        # every battery cube of every grid, shifted ones included
        root = RootBox((0.0,) * e.n, 1.0)
        case = TestCase("bmo", "weighted_bmo", e, WeightSpec("power", gamma, "third"),
                        FunctionSpec("constant"), BumpSpec("logdist", "third"),
                        depth=depth, battery_depth=battery_depth, root=root)
        rep = verify_wtd_bmo(case)[0]
        sigma = materialize_weight(case.weight, root, depth).sigma(e)
        b = materialize_bump(case.bump, root, depth)
        ref = naive_wtd_bmo_lhs(b, sigma, workspace(root, depth, battery_depth).battery)
        assert rep.lhs == pytest.approx(ref, rel=1e-12)


class TestSummationLemma:
    def test_zero_function(self):
        case = case_for("cube_summation", func=FunctionSpec("indicator", ((0.3,), (0.3,))),
                        phi="power1")
        rep = verify_summation_lemma(case)[0]
        assert rep.lhs == 0.0 and rep.measured_constant == 0.0

    def test_unit_closed_form_k6(self):
        # sigma = 1, f = 1, phi = t: level j contributes 2^j cubes of
        # measure 2^-j, so the ratio is the plain geometric sum
        case = case_for("cube_summation", e=ExponentTriple(1, 0.5, 1.5),
                        phi="power1", depth=6, battery_depth=4)
        rep = verify_summation_lemma(case)[0]
        expect = sum(2.0 ** (-k / 2.0) for k in range(7))
        assert rep.measured_constant == pytest.approx(expect, rel=1e-12)

    def test_monotone_bounded_in_depth(self):
        limit = 1.0 / (1.0 - 2.0 ** -0.5)
        prev = 0.0
        for depth in (6, 8, 10):
            case = case_for("cube_summation", e=ExponentTriple(1, 0.5, 1.5),
                            phi="power1", depth=depth, battery_depth=4)
            ratio = verify_summation_lemma(case)[0].measured_constant
            assert prev <= ratio <= limit
            prev = ratio

    def test_random_weighted_cases_bounded(self):
        worst = 0.0
        for gamma in (-0.1, 0.2):
            for depth in (6, 8):
                case = case_for("cube_summation",
                                weight=WeightSpec("power", gamma, "third"),
                                func=FunctionSpec("indicator", ((1 / 3,), (0.8,))),
                                phi="llog", depth=depth, battery_depth=4)
                ratio = verify_summation_lemma(case)[0].measured_constant
                worst = max(worst, ratio)
        assert worst < 2.0 / (1.0 - 2.0 ** (-1.0 / 3.0))

    def test_selectable_top_cube(self):
        case = case_for("cube_summation", phi="power1", depth=6, battery_depth=4)
        top = DyadicCube(0, 2, (1,))
        rep = verify_summation_lemma(case, top=top)[0]
        expect = sum(2.0 ** (-k / 3.0) for k in range(5))  # levels 2..6
        assert rep.measured_constant == pytest.approx(expect, rel=1e-12)

    @pytest.mark.parametrize("top", [DyadicCube(0, 1, (1,)), DyadicCube(0, 2, (2,)),
                                     DyadicCube(0, 3, (5,)), DyadicCube(0, 1, (1, 0)),
                                     DyadicCube(0, 2, (1, 2)), DyadicCube(0, 3, (6, 3))])
    def test_top_cube_with_a_gauge(self, top):
        # a top cube's subcubes are a block of each level's rows, gauged with llog
        n = len(top.coords)
        root = verify.DEFAULT_ROOT_1D if n == 1 else verify.DEFAULT_ROOT_2D
        case = dataclasses.replace(
            case_for("cube_summation", e=_battery_exponents("cube_summation", n),
                     weight=WeightSpec("power", 0.3, "third"),
                     func=FunctionSpec("sigma_probe", ((0.0,) * n, (0.8,) * n)),
                     phi="llog", depth=6, battery_depth=4),
            root=root)
        rep = verify_summation_lemma(case, top=top)[0]
        lhs, rhs = naive_summation_sides(case, top)
        assert rep.lhs == pytest.approx(lhs, rel=1e-12)
        assert rep.rhs_sans_constant == pytest.approx(rhs, rel=1e-12)
        assert verify_summation_lemma(case, top=DyadicCube(0, 0, (0,) * n)) == \
            verify_summation_lemma(case)


class TestBatchedGauge:
    @pytest.mark.parametrize("e,depth,battery_depth", [
        (E_THIRD, 8, 5),
        (ExponentTriple(2, 0.8, 2.0), 4, 3),
    ])
    def test_reports_equal_per_level_bisection(self, e, depth, battery_depth, monkeypatch):
        # the oscillation bound (every grid's battery levels in one max-only
        # gauge call) and the summation lemma (every level in one call)
        # report exactly what one bisection per level reports
        root = RootBox((0.0,) * e.n, 1.0)
        weight = WeightSpec("power", 0.3, "third")
        cases = [
            TestCase("bmo", "weighted_bmo", e, weight, FunctionSpec("constant"),
                     BumpSpec("logdist", "third"), depth=depth,
                     battery_depth=battery_depth, root=root),
            TestCase("sum", "cube_summation", e, weight, FunctionSpec("sigma_probe", ((0.1,) * e.n, (0.7,) * e.n)),
                     None, phi="llog", depth=depth, battery_depth=battery_depth, root=root),
        ]
        got = [verify_wtd_bmo(cases[0])[0], verify_summation_lemma(cases[1])[0]]
        monkeypatch.setattr(verify, "luxemburg_norm_max",
                            lambda blocks, phi: float(per_block_gauge(blocks, phi).max(initial=0.0)))
        monkeypatch.setattr(operators, "luxemburg_norm_blocks", per_block_gauge)
        ref = [verify_wtd_bmo(cases[0])[0], verify_summation_lemma(cases[1])[0]]
        assert got == ref
        assert all(r.lhs > 0 for r in got)

    def test_max_gauge_bisects_one_level(self, monkeypatch):
        # at (n, K, battery depth) = (1, 10, 5) the root bands rule out all
        # but one battery level in each of the four distinct oscillation
        # gauges, so one block per gauge reaches the bisection: the rows
        # of every other block gauge 0 in the call the max path makes
        held = []
        full = orlicz.luxemburg_norm_blocks

        def counted(parts, phi, rtol=1e-13, keep=None):
            got = full(parts, phi, rtol, keep)
            held.append(sum(bool(part.any()) for part in np.split(
                got, np.cumsum([len(a) for a, _ in parts])[:-1])))
            return got

        monkeypatch.setattr(orlicz, "luxemburg_norm_blocks", counted)
        run_battery("weighted_bmo", E_THIRD, depth=10, battery_depth=5, gammas=2)
        assert held == [1] * 4


class TestDualityCubes:
    def test_unit_weight_first_inequality_tight(self):
        case = case_for("duality_cubes", depth=7, battery_depth=4)
        rep = verify_duality_cube_estimate(case)[0]
        assert rep.extra["violations"] == 0
        assert rep.extra["worst_first_ratio"] == pytest.approx(1.0, rel=1e-12)
        assert rep.passed

    def test_power_weight_no_violations(self):
        for gamma in (-0.15, 0.1, 0.4):
            case = case_for("duality_cubes",
                            weight=WeightSpec("power", gamma, "third"),
                            func=FunctionSpec("indicator", ((1 / 3,), (0.9,))),
                            depth=8, battery_depth=5)
            rep = verify_duality_cube_estimate(case)[0]
            assert rep.extra["violations"] == 0
            assert rep.extra["sparse_ok"]
            assert rep.passed

    @pytest.mark.parametrize("e,depth,gamma", [
        (E_THIRD, 8, 0.45), (ExponentTriple(2, 0.8, 2.0), 5, 0.5)])
    @pytest.mark.parametrize("kind", ["probe", "spike"])
    def test_matches_per_cube_loop(self, e, depth, gamma, kind):
        # the power weight and both inputs select nested chains of cubes
        root = RootBox((0.0,) * e.n, 1.0)
        func = next(s for s in standard_function_specs(root) if s.name == kind)
        case = TestCase("duality-chain", "duality_cubes", e,
                        WeightSpec("power", gamma, "third"), func,
                        depth=depth, battery_depth=4, root=root)
        rep = verify_duality_cube_estimate(case)[0]
        ref = naive_duality_ratios(case)
        assert ref["family_size"] >= 3
        got = {key: rep.extra[key] for key in
               ("violations", "worst_first_ratio", "worst_second_ratio", "family_size")}
        got["measured_constant"] = rep.measured_constant
        assert got == ref

    def test_full_battery_cached_on_workspace(self):
        root = RootBox((0.0,), 1.0)
        ws = workspace(root, 7, 4)
        assert ws.full_battery is ws.full_battery
        assert ws.full_battery.max_level == 7
        assert ws.battery.max_level == 4
        deep = workspace(root, 7, 7)
        assert deep.full_battery is deep.battery

    def test_exponent_identity_all_triples(self):
        for e in (E_THIRD, ExponentTriple(1, 0.25, 3.0), ExponentTriple(2, 0.8, 2.0),
                  ExponentTriple(1, 0.5, 1.9), ExponentTriple(2, 1.2, 1.5)):
            assert abs(1 - e.alpha / e.n - 1 / e.p_prime - 1 / e.q) <= 1e-15


class TestLargeSmallPartition:
    def test_above_max_empty(self):
        case = case_for("weak_1q", E_HALF_P1, depth=6)
        diag = large_small_partition(case, t=100.0)
        assert diag.large == [] and diag.small == []
        assert diag.level_set_mass == 0.0

    def test_masses_sum_exactly(self):
        case = case_for("weak_1q", E_HALF_P1,
                        func=FunctionSpec("indicator", ((0.0,), (0.5,))), depth=7)
        for t in (0.2, 0.5, 0.9, 1.3):
            diag = large_small_partition(case, t)
            assert diag.large_mass + diag.small_mass == pytest.approx(
                diag.level_set_mass, abs=1e-14
            )

    def test_both_branches_reachable(self):
        # constant output: 2t below the value puts the root in the large
        # class, 2t above empties the deeper level set and flips it small
        case = case_for("weak_1q", E_HALF_P1, depth=6)
        out_max = sum(2.0 ** (-k / 2.0) for k in range(7))
        large_seen = small_seen = False
        for t in np.linspace(0.3 * out_max, 0.95 * out_max, 8):
            diag = large_small_partition(case, float(t))
            large_seen |= bool(diag.large)
            small_seen |= bool(diag.small)
        assert large_seen and small_seen


class TestBatteriesAndReports:
    def test_battery_layout_and_calibration(self):
        res = run_battery("strong_pq", E_THIRD, depth=6, battery_depth=4, gammas=3)
        # calibration cases come from the unweighted runs
        assert res.calibration > 0
        assert res.threshold == pytest.approx(4.0 * res.calibration)
        assert res.all_passed
        unweighted = [r for r in res.reports if r.gamma is None]
        assert max(r.measured_constant for r in unweighted) == res.calibration

    def test_unknown_theorem_rejected(self):
        with pytest.raises(ValueError):
            build_battery("bogus", E_THIRD, root=None, depth=6, battery_depth=4)

    def test_stability_pair(self):
        a, b = stability_pair("strong_pq", E_THIRD, depth=6, battery_depth=4, gammas=2)
        assert abs(b - a) / a <= 0.2

    def test_sweep_slope_below_power(self):
        res = run_battery("strong_pq", E_THIRD, depth=7, battery_depth=4, gammas=5)
        slope, points = sweep_slope(res)
        assert len(points) == 5
        assert slope <= E_THIRD.strong_power + 0.3

    def test_report_writers_deterministic(self, tmp_path):
        res = run_battery("weak_1q", E_HALF_P1, depth=6, battery_depth=4, gammas=3)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_reports_csv(res.reports, p1)
        write_reports_csv(res.reports, p2)
        assert p1.read_bytes() == p2.read_bytes()
        jp = tmp_path / "a.json"
        write_reports_json(res.reports, jp)
        docs = json.loads(jp.read_text())
        assert len(docs) == len(res.reports)
        assert all(doc["passed"] for doc in docs)

    def test_sweep_csv(self, tmp_path):
        res = run_battery("weak_1q", E_HALF_P1, depth=6, battery_depth=4, gammas=4)
        path = tmp_path / "sweep.csv"
        slope = write_sweep_csv(res, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "log_characteristic,log_normalized_lhs"
        assert len(lines) == 5
        assert slope <= E_HALF_P1.weak_power + 0.3

    def test_verify_case_dispatch(self):
        reps = verify_case(case_for("strong_pq", depth=6))
        assert {r.theorem for r in reps} == {"strong_pq"}

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_p_domain(self, theorem):
        # weak_1q is the endpoint p = 1, cube_summation holds at every p,
        # and the other five need p > 1; verify_case checks before it builds
        if theorem == "cube_summation":
            reps = verify_case(case_for(theorem, E_HALF_P1, depth=5, battery_depth=3))
            assert [r.theorem for r in reps] == [theorem]
            return
        wrong = E_THIRD if theorem == "weak_1q" else E_HALF_P1
        with pytest.raises(ValueError, match=f"theorem {theorem} needs p "):
            verify_case(case_for(theorem, wrong, bump=BumpSpec("step")))

    def test_inadmissible_gamma_rejected(self):
        glo, ghi = (-1.0 / 6.0, 0.5)  # the admissible range at these exponents
        with pytest.raises(ValueError):
            case_for("strong_pq", weight=WeightSpec("power", ghi + 0.2, "third"))
        with pytest.raises(ValueError):
            case_for("strong_pq", weight=WeightSpec("power", glo - 0.2, "third"))
        case_for("strong_pq", weight=WeightSpec("power", 0.9 * glo, "third"))

    def test_two_dimensional_batteries(self):
        from sparsefrac.verify import DEFAULT_ROOT_2D

        e = ExponentTriple(2, 0.8, 2.0)
        for theorem in ("strong_pq", "duality_cubes"):
            res = run_battery(theorem, e, DEFAULT_ROOT_2D, depth=4,
                              battery_depth=3, gammas=2)
            assert res.all_passed, theorem
        e1 = ExponentTriple(2, 0.8, 1.0)
        res = run_battery("weak_1q", e1, DEFAULT_ROOT_2D, depth=4,
                          battery_depth=3, gammas=2)
        assert res.all_passed


def _battery_exponents(theorem, n):
    # the endpoint inequality runs at p = 1, as `sparsefrac verify` runs it
    alpha, p = (1.0 / 3.0, 2.0) if n == 1 else (0.8, 2.0)
    return ExponentTriple(n, alpha, 1.0 if theorem == "weak_1q" else p)


def _shared_arrays(result):
    if isinstance(result, operators.OperatorOutput):
        return [result.cells]
    if hasattr(result, "carriers"):  # a SparseCertificate
        return [result.carriers.labels]
    if isinstance(result, list) and result and isinstance(result[0], tuple):
        return [a for level in result for a in level]  # level rows or a commutator plan
    return []


class TestRunScope:
    @pytest.mark.parametrize("theorem", THEOREMS)
    @pytest.mark.parametrize("n,depth,battery_depth", [(1, 8, 5), (2, 4, 3)])
    def test_battery_equals_direct_cases(self, theorem, n, depth, battery_depth, monkeypatch):
        # at (1/3, 2) two gammas include gamma = 0, the calibration weight again
        root = verify.DEFAULT_ROOT_1D if n == 1 else verify.DEFAULT_ROOT_2D
        e = _battery_exponents(theorem, n)
        shared = run_battery(theorem, e, root, depth, battery_depth, gammas=2)
        monkeypatch.setattr(verify, "run_scope", contextlib.nullcontext)
        direct = run_battery(theorem, e, root, depth, battery_depth, gammas=2)
        assert shared.reports == direct.reports
        assert (shared.calibration, shared.threshold) == (direct.calibration, direct.threshold)

    def test_gamma_zero_repeat_is_shared(self):
        assert 0.0 in verify.sweep_gammas(E_THIRD, 2)
        with verify.run_scope() as scope:
            run_battery("maximal_pq", E_THIRD, depth=6, battery_depth=4, gammas=2)
        assert scope.reused["orlicz_level_rows"] > 0

    def test_nested_scopes_share_and_exit_empties(self):
        case = case_for("duality_cubes", func=FunctionSpec("indicator", ((0.25,), (0.5,))))
        with verify.run_scope() as outer:
            with verify.run_scope() as inner:
                assert inner is outer
                first = verify_case(case)
            assert outer.entries and verify._SCOPE is outer
            computed = dict(outer.computed)
            assert verify_case(case) == first
            assert dict(outer.computed) == computed
            assert outer.reused == computed  # one reuse of each result
        assert verify._SCOPE is None and outer.entries == {}
        with verify.run_scope() as again:
            assert verify_case(case) == first
        assert dict(again.computed) == computed and not again.reused

    def test_equal_cells_on_another_root_or_depth_not_shared(self):
        scope = verify.RunScope()
        calls = []

        def compute():
            calls.append(None)
            return len(calls)

        a = GridFunction.constant(RootBox((0.0,), 1.0), 4, 1.0)
        moved = GridFunction.constant(RootBox((2.0,), 1.0), 4, 1.0)
        finer = GridFunction.constant(RootBox((0.0,), 1.0), 5, 1.0)
        again = GridFunction.constant(RootBox((0.0,), 1.0), 4, 1.0)
        got = [scope.fetch("kind", (g,), (), compute) for g in (a, moved, finer, again)]
        assert got == [1, 2, 3, 1]

    def test_constant_fingerprint_still_correct(self, monkeypatch):
        e = E_THIRD
        with verify.run_scope() as honest:
            want = [run_battery(t, e, depth=6, battery_depth=4, gammas=2) for t in THEOREMS[1:]]
        monkeypatch.setattr(GridFunction, "fingerprint", property(lambda self: 0))
        with verify.run_scope() as colliding:
            got = [run_battery(t, e, depth=6, battery_depth=4, gammas=2) for t in THEOREMS[1:]]
        assert [r.reports for r in got] == [r.reports for r in want]
        assert colliding.computed == honest.computed
        assert colliding.reused == honest.reused

    def test_shared_arrays_read_only(self):
        with verify.run_scope() as scope:
            for theorem in THEOREMS[1:]:
                run_battery(theorem, E_THIRD, depth=6, battery_depth=4, gammas=2)
            results = [result for store in scope.entries.values()
                       for bucket in store.values() for _, result in bucket]
            arrays = [a for result in results for a in _shared_arrays(result)]
            kinds = set(scope.entries)
        assert {type(r).__name__ for r in results} >= {"OperatorOutput", "SparseCertificate", "list"}
        assert {"orlicz_level_rows", "commutator_plan"} <= kinds
        assert arrays and not any(a.flags.writeable for a in arrays)

    def test_plans_gauges_and_inputs_once_per_run(self, monkeypatch):
        # five functions, two bumps, three weights, and gamma = 0 repeats the
        # constant weight: 12 distinct (b, f) commutators on two plans, and
        # 4 distinct (b, sigma) oscillation gauges for 6 weighted_bmo cases
        calls = Counter()
        for name in ("materialize_function", "materialize_bump"):
            def counted(*args, _inner=getattr(verify, name), _name=name):
                calls[_name] += 1
                return _inner(*args)
            monkeypatch.setattr(verify, name, counted)
        with verify.run_scope() as scope:
            for theorem in ("commutator_strong", "weighted_bmo"):
                run_battery(theorem, E_THIRD, depth=6, battery_depth=4, gammas=2)
        assert (scope.computed["dyadic_commutator"], scope.reused["dyadic_commutator"]) == (12, 18)
        assert (scope.computed["commutator_plan"], scope.reused["commutator_plan"]) == (2, 10)
        assert (scope.computed["oscillation_gauge"], scope.reused["oscillation_gauge"]) == (4, 2)
        # 30 commutator cases on two distinct weights, 6 BMO cases on two sigmas
        assert (scope.computed["apq_characteristic"], scope.reused["apq_characteristic"]) == (2, 28)
        assert (scope.computed["ap_characteristic"], scope.reused["ap_characteristic"]) == (2, 4)
        # four plain functions, the probe once per weight, and the two bumps
        assert calls == {"materialize_function": 7, "materialize_bump": 2}
        assert scope.entries == {} and verify._WORKSPACE_CACHE == {} == verify._WEIGHT_CACHE
        case = case_for("commutator_strong", depth=6, battery_depth=4,
                        func=FunctionSpec("sigma_probe", ((0.0,), (0.5,))), bump=BumpSpec("step"))
        verify_case(case)
        verify_case(case)
        assert calls == {"materialize_function": 9, "materialize_bump": 4}
        # 15 strong_pq cases on the six distinct functions above: one sparse
        # integral (on one selection) per function
        with verify.run_scope() as scope:
            run_battery("strong_pq", E_THIRD, depth=6, battery_depth=4, gammas=2)
        assert (scope.computed["sparse_fractional_integral"],
                scope.reused["sparse_fractional_integral"]) == (6, 9)
        assert (scope.computed["sparse_select_for_operator"],
                scope.reused["sparse_select_for_operator"]) == (6, 0)

    def test_workspaces_and_weights_live_as_long_as_the_scope(self):
        root, spec = verify.DEFAULT_ROOT_1D, WeightSpec("power", 0.2)

        def held():
            return verify._WORKSPACE_CACHE or verify._WEIGHT_CACHE or verify._SCOPE

        with verify.run_scope() as scope:
            with verify.run_scope():
                assert workspace(root, 6, 4) is workspace(root, 6, 4)
                assert materialize_weight(spec, root, 6) is materialize_weight(spec, root, 6)
            assert verify._WORKSPACE_CACHE and verify._WEIGHT_CACHE
        assert (scope.computed["workspace"], scope.reused["workspace"]) == (1, 1)
        assert (scope.computed["weight"], scope.reused["weight"]) == (1, 1)
        assert not held() and scope.entries == {}
        assert workspace(root, 6, 4) is not workspace(root, 6, 4)
        assert materialize_weight(spec, root, 6) is not materialize_weight(spec, root, 6)
        assert not held()
        run_battery("strong_pq", E_THIRD, depth=6, battery_depth=4, gammas=2)
        assert not held()

    def test_benchmark_tracer_counts_builds(self):
        # perfbench/tracer.py counts a build as the growth of _WORKSPACE_CACHE
        # or _WEIGHT_CACHE during the call, and wraps these names by binding
        with benchmark_tracer() as tracer:
            with verify.run_scope():
                verify.run_battery("strong_pq", E_THIRD, depth=6, battery_depth=4, gammas=2)
            metrics = tracer.layer_metrics()
        assert metrics["verify.workspace.builds"] >= 1
        assert metrics["verify.materialize_weight.calls"] >= 1
        assert metrics["verify.materialize_weight.hit_ratio"] < 1

    def test_benchmark_tracer_counts_what_the_scope_computes(self):
        # the scope's workspace and weight stores are the dicts the tracer watches
        with benchmark_tracer() as tracer:
            with verify.run_scope() as scope:
                for theorem in ("strong_pq", "weighted_bmo"):
                    run_battery(theorem, E_THIRD, depth=6, battery_depth=4, gammas=2)
            metrics = tracer.layer_metrics()
        built, calls = scope.computed["weight"], scope.computed["weight"] + scope.reused["weight"]
        assert metrics["verify.workspace.builds"] == scope.computed["workspace"]
        assert metrics["verify.materialize_weight.calls"] == calls
        assert metrics["verify.materialize_weight.hit_ratio"] == 1.0 - built / calls

    @pytest.mark.parametrize("theorem", THEOREMS)
    def test_benchmark_tracer_reaches_what_the_tables_call(self, theorem):
        # the tracer rebinds module globals, so the theorem and kind tables
        # must reach power_weight, the characteristics, bmo_norm and the
        # Luxemburg gauges through them at call time, not bind them early
        with benchmark_tracer() as tracer:
            run_battery(theorem, _battery_exponents(theorem, 1), depth=5, battery_depth=3,
                        gammas=1)
            metrics = tracer.layer_metrics()
        assert metrics["weights.power_weight.self_s"] > 0
        assert (metrics["weights.characteristic.calls"] > 0) == (
            theorem not in ("maximal_pq", "cube_summation"))
        assert (metrics["operators.bmo_norm.calls"] > 0) == (
            theorem in ("commutator_strong", "weighted_bmo"))
        assert (metrics["orlicz.luxemburg_norm_blocks.rows"] > 0) == (
            theorem in ("maximal_pq", "cube_summation", "weighted_bmo"))

    def test_benchmark_tracer_wraps_cli_verify(self, tmp_path):
        # the benchmark runs cli.main(["verify", ...], standalone_mode=False)
        # with cli.verify.callback wrapped by the tracer
        out = tmp_path / "out"
        path = tmp_path / "config.yaml"
        path.write_text(
            f"run:\n  depth: 6\n  battery_depth: 4\n  out: {out}\n"
            "exponents:\n  alpha: 0.3333333333333333\n  p: 2.0\n"
            "verify:\n  theorems: [strong_pq]\n  gammas: 2\n")
        with benchmark_tracer() as tracer:
            cli.main(["verify", "--config", str(path)], standalone_mode=False)
            spans = [name for name, *_ in tracer.spans]
            metrics = tracer.layer_metrics()
        assert spans.count("cli.verify") == 1
        assert metrics["cli.verify.self_s"] > 0
        assert metrics["verify.write_reports.bytes"] == (out / "reports.csv").stat().st_size

    def test_benchmark_tracer_reaches_the_operator_table(self, tmp_path):
        # operators.OPERATORS reaches each operator through the module's
        # globals at call time, so the tracer's rebinding sees what op calls
        out = tmp_path / "out"
        path = tmp_path / "config.yaml"
        path.write_text(
            f"run:\n  depth: 6\n  battery_depth: 4\n  out: {out}\n"
            "exponents:\n  alpha: 0.3333333333333333\n  p: 2.0\n"
            "op:\n  name: dyadic_fractional_integral\n")
        with benchmark_tracer() as tracer:
            cli.main(["op", "--config", str(path)], standalone_mode=False)
            spans = [name for name, *_ in tracer.spans]
        assert spans.count("operators.dyadic_fractional_integral.aligned") == 1

    def test_outside_a_scope_every_call_computes(self, monkeypatch):
        calls = []
        inner = verify.dyadic_fractional_integral

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(verify, "dyadic_fractional_integral", counted)
        case = case_for("strong_pq", depth=6)
        verify_case(case)
        verify_case(case)
        assert len(calls) == 2 and verify._SCOPE is None
