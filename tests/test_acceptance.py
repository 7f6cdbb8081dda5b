"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with -s to see them inline).
"""

import json
import math
import time

import numpy as np
from click.testing import CliRunner

from sparsefrac.cli import main as cli_main
from sparsefrac.grid import (
    DyadicCube,
    DyadicGridFamily,
    GridFunction,
    RootBox,
    read_gridfunction,
    write_gridfunction,
)
from sparsefrac.operators import (
    dyadic_commutator,
    dyadic_fractional_integral,
    inner_outer_split,
    level_set_cubes,
    riesz_potential_1d,
    weighted_orlicz_fractional_maximal,
)
from sparsefrac.orlicz import (
    LLOG,
    YoungFunction,
    amemiya_norm,
    generalized_holder_check,
    luxemburg_norm,
)
from sparsefrac.sparse import (
    SparseFamily,
    certify_sparse,
    sparse_family_doc,
    sparse_family_from_json,
    sparse_select_for_operator,
    verify_sparse_domination,
)
from sparsefrac.verify import (
    THEOREM_TABLE,
    FunctionSpec,
    TestCase,
    WeightSpec,
    large_small_partition,
    run_battery,
    sweep_slope,
    verify_summation_lemma,
)
from sparsefrac.weights import (
    CubeBattery,
    ExponentTriple,
    a1_characteristic,
    a1q_characteristic,
    admissible_gamma_range,
    ainfty_subset_bounds,
    ap_characteristic,
    apq_characteristic,
    power_weight,
    reverse_holder_exponent,
)

from .conftest import refine
from .oracles import (
    cells_in_cube,
    containing_cube,
    naive_commutator,
    naive_dyadic_integral,
    naive_orlicz_maximal,
    smallest_covering_cube,
)

ROOT1 = RootBox((0.0,), 1.0)
ROOT2 = RootBox((0.0, 0.0), 1.0)


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}", flush=True)
    assert ok, detail


def test_criterion_01_oracle_equivalence():
    """Accelerated operators match brute force at 1e-12 within 10 s."""
    start = time.monotonic()
    worst = 0.0
    configs = [(ROOT1, 4, (0, 1)), (ROOT2, 3, (0, 3))]
    for root, depth, grids in configs:
        fam = DyadicGridFamily(root, depth)
        shape = (2 ** depth,) * root.n
        for trial in range(20):
            rng = np.random.default_rng(100 + trial)
            f = GridFunction(root, rng.uniform(0.0, 1.0, shape))
            sigma = GridFunction(root, rng.uniform(0.3, 2.0, shape))
            b = GridFunction(root, rng.uniform(-1.0, 1.0, shape))
            gid = grids[trial % len(grids)]
            got = dyadic_fractional_integral(f, 0.4, fam, gid).cells
            ref = naive_dyadic_integral(f, 0.4, fam, gid)
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
            got = weighted_orlicz_fractional_maximal(f, sigma, 0.4, LLOG, fam, gid).cells
            ref = naive_orlicz_maximal(f, sigma, 0.4, LLOG, fam, gid)
            worst = max(worst, float(np.max(np.abs(got - ref) / np.abs(ref))))
            got = dyadic_commutator(b, f, 0.4, fam, gid).cells
            ref = naive_commutator(b, f, 0.4, fam, gid)
            scale = max(float(np.max(np.abs(ref))), 1e-300)
            worst = max(worst, float(np.max(np.abs(got - ref))) / scale)
    elapsed = time.monotonic() - start
    ok = worst < 1e-12 and elapsed < 10.0
    _report(1, ok, f"oracle equivalence: worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_grid_axioms():
    """Tiling/nesting axioms exhaustively at K <= 6; one-third covering."""
    ok = True
    detail = []
    for root in (ROOT1, ROOT2):
        fam = DyadicGridFamily(root, 6)
        amb_lo, amb_hi = fam.ambient_lo, fam.ambient_hi
        ambient_vol = float(np.prod(amb_hi - amb_lo))
        for gid in range(fam.num_grids):
            for level in range(7):
                rngs = fam.coord_range(gid, level)
                e = fam._shift_signs(gid, level)
                s = fam.side_at(level)
                per_dim = []
                for d in range(root.n):
                    ms = np.arange(rngs[d][0], rngs[d][1] + 1)
                    lo = s * (ms + e[d] / 3.0) + root.origin[d]
                    clip = np.minimum(lo + s, amb_hi[d]) - np.maximum(lo, amb_lo[d])
                    ok &= bool(np.all(clip > 0))
                    per_dim.append(clip.sum())
                    nums = 3 * ms + e[d]
                    ok &= bool(np.all(np.diff(nums) == 3))  # abut exactly
                ok &= abs(float(np.prod(per_dim)) - ambient_vol) <= 1e-10 * ambient_vol
        rng = np.random.default_rng(7)
        for _ in range(2000):
            gid = int(rng.integers(fam.num_grids))
            p = containing_cube(fam, gid, int(rng.integers(0, 7)),
                                rng.uniform(-0.5, 1.5, root.n))
            q = containing_cube(fam, gid, int(rng.integers(0, 7)),
                                rng.uniform(-0.5, 1.5, root.n))
            ok &= fam.relation(p, q) in ("equal", "p_in_q", "q_in_p", "disjoint")
    fam1 = DyadicGridFamily(ROOT1, 10)
    rng = np.random.default_rng(8)
    worst_ratio = 0.0
    for _ in range(1000):
        side = rng.uniform(2.0 ** -9, 1.0 / 8.0)
        lo = rng.uniform(0.0, 1.0 - side)
        best = smallest_covering_cube(fam1, [lo], [lo + side])
        ok &= best is not None
        worst_ratio = max(worst_ratio, fam1.side_at(best.level) / side)
    ok &= worst_ratio <= 6.0
    _report(2, ok, f"grid axioms exhaustive at K<=6; covering ratio {worst_ratio:.3f} <= 6")


def test_criterion_03_sparsity():
    """Selection certifies for 50 random f at K = 8; bad family rejected."""
    fam = DyadicGridFamily(ROOT1, 8)
    ok = True
    min_density = 1.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        f = GridFunction(ROOT1, rng.uniform(0.0, 1.0, 256))
        cert = certify_sparse(sparse_select_for_operator(f, fam, 0), fam, 8)
        ok &= cert.ok
        min_density = min(min_density, cert.min_density)
    q = DyadicCube(0, 2, (1,))
    bad = certify_sparse(SparseFamily(0, [q] + fam.children(q)), fam, 8)
    ok &= not bad.ok and bad.first_violation == q
    _report(3, ok, f"sparsity: 50/50 certified (min density {min_density:.3f}); "
                   f"forced failure rejected")


def test_criterion_04_domination():
    """Continuous-vs-dyadic stability; dyadic-vs-sparse with the pinned ratio."""
    alpha = 0.5
    base = [np.random.default_rng(200 + i).uniform(0.0, 1.0, 64) for i in range(20)]
    cs = {}
    for depth in (6, 8, 10):
        fam = DyadicGridFamily(ROOT1, depth)
        worst = 0.0
        for cells in base:
            f = GridFunction(ROOT1, refine(cells, 2 ** (depth - 6)))
            cont = riesz_potential_1d(f, alpha).cells
            dyad = np.maximum(
                dyadic_fractional_integral(f, alpha, fam, 0).cells,
                dyadic_fractional_integral(f, alpha, fam, 1).cells,
            )
            worst = max(worst, float(np.max(cont / dyad)))
        cs[depth] = worst
    steps = [cs[8] / cs[6], cs[10] / cs[8]]
    ok = all(1 / 1.10 <= r <= 1.10 for r in steps)

    fam8 = DyadicGridFamily(ROOT1, 8)
    for seed in range(20):
        rng = np.random.default_rng(300 + seed)
        f = GridFunction(ROOT1, rng.uniform(0.0, 1.0, 256))
        rep = verify_sparse_domination(f, alpha, fam8, 0)
        ok &= rep.positivity_ok and math.isfinite(rep.max_ratio)
    fam3 = DyadicGridFamily(ROOT1, 3)
    pinned = verify_sparse_domination(GridFunction.constant(ROOT1, 3, 1.0), alpha, fam3, 0)
    closed_form = sum(2.0 ** (-k / 2.0) for k in range(4))
    gap = abs(pinned.max_ratio - closed_form)
    ok &= gap <= 1e-9
    _report(4, ok, f"domination: continuous/dyadic C at K=6,8,10 = "
                   f"{cs[6]:.3f},{cs[8]:.3f},{cs[10]:.3f} (steps within 10%); "
                   f"sparse ratio {pinned.max_ratio:.8f} vs 2.56066017 (gap {gap:.1e})")


def test_criterion_05_weight_identities():
    """Class identities at 1e-10; subset bounds; reverse-Holder sharpness."""
    fam = DyadicGridFamily(ROOT1, 8)
    bat = CubeBattery(fam, 5)
    rng = np.random.default_rng(9)
    triples = [
        ExponentTriple(1, 1 / 3, 2.0),
        ExponentTriple(1, 0.25, 2.0),
        ExponentTriple(1, 0.5, 1.5),
        ExponentTriple(1, 0.2, 3.0),
        ExponentTriple(1, 0.4, 1.8),
    ]
    centers = ["center", "corner", "third"]
    ok = True
    worst_gap = 0.0
    weights_per_triple = 4  # 5 triples x 4 = 20 power weights
    for e in triples:
        glo, ghi = admissible_gamma_range(e)
        for j in range(weights_per_triple):
            gamma = float(rng.uniform(0.9 * glo, 0.9 * ghi))
            w = power_weight(ROOT1, 8, gamma, centers[j % 3])
            char = apq_characteristic(w, e, bat)
            ok &= char >= 1.0 - 1e-12
            g1 = abs(ap_characteristic(w.v(e), e.r, bat) - char ** e.q) / char ** e.q
            g2 = abs(ap_characteristic(w.sigma(e), e.r_prime, bat) - char ** e.p_prime) \
                / char ** e.p_prime
            worst_gap = max(worst_gap, g1, g2)
    ok &= worst_gap <= 1e-10
    e1 = ExponentTriple(1, 0.5, 1.0)
    ok &= a1q_characteristic(power_weight(ROOT1, 8, -0.2, "center"), e1, bat) >= 1.0
    ok &= a1_characteristic(GridFunction.constant(ROOT1, 8, 1.0), bat) >= 1.0 - 1e-12

    sigma = power_weight(ROOT1, 8, -0.3, "third").base
    char = ap_characteristic(sigma, 2.0, bat)
    rh = reverse_holder_exponent(sigma, bat)
    aligned = [i for i, c in enumerate(bat.cubes) if c.grid_id == 0]
    violations = 0
    for trial in range(1000):
        r = np.random.default_rng(trial)
        i = aligned[int(r.integers(len(aligned)))]
        lo, hi = bat.bounds(i)
        sl, _ = sigma.box_overlap(lo, hi)
        mask = np.zeros(sigma.cells.shape, dtype=bool)
        mask[sl] = r.random(sigma.cells[sl].shape) < 0.5
        l1, r1, _, _ = ainfty_subset_bounds(sigma, lo, hi, mask, 2.0, char, rh)
        if l1 > r1 * (1 + 1e-12):
            violations += 1
    ok &= violations == 0

    avg = bat.averages(sigma)

    def rh_holds(expnt):
        return bool(np.all(bat.averages(sigma.power(expnt)) ** (1 / expnt) <= 2 * avg))

    ok &= rh_holds(rh) and not rh_holds(rh + 1e-3)
    _report(5, ok, f"weight identities: worst gap {worst_gap:.1e} <= 1e-10; "
                   f"subset-bound violations {violations}/1000; reverse-Holder "
                   f"sharp at s = {rh:.4f}")


def test_criterion_06_orlicz(t_star):
    """Closed forms, the pinned unit norm, the sandwich, and Holder."""
    sigma = GridFunction.constant(ROOT1, 8, 1.0)
    box = ([0.0], [1.0])
    rng = np.random.default_rng(10)
    worst = 0.0
    for p in (1.0, 1.7, 2.0, 3.5):
        f = GridFunction(ROOT1, rng.uniform(0.0, 2.0, 256))
        got = luxemburg_norm(f, *box, sigma, YoungFunction("power", p))
        ref = float(np.mean(f.cells ** p)) ** (1.0 / p)
        worst = max(worst, abs(got - ref) / ref)
    ok = worst <= 1e-9
    one = GridFunction.constant(ROOT1, 8, 1.0)
    unit = luxemburg_norm(one, *box, sigma, LLOG)
    ok &= abs(unit - 1.2567) <= 1e-3 and abs(unit - 1.0 / t_star) <= 1e-9

    sandwich_ok = True
    for seed in range(100):
        r = np.random.default_rng(seed)
        f = GridFunction(ROOT1, r.uniform(-2.0, 2.0, 64))
        s = GridFunction(ROOT1, r.uniform(0.2, 3.0, 64))
        lux = luxemburg_norm(f, *box, s, LLOG)
        ame = amemiya_norm(f, *box, s, LLOG)
        sandwich_ok &= lux <= ame * (1 + 1e-8) <= 2 * lux * (1 + 2e-8)
    ok &= sandwich_ok

    holder_ok = True
    for seed in range(200):
        r = np.random.default_rng(1000 + seed)
        f = GridFunction(ROOT1, r.uniform(-2.0, 2.0, 128))
        g = GridFunction(ROOT1, r.uniform(-2.0, 2.0, 128))
        s = GridFunction(ROOT1, r.uniform(0.2, 3.0, 128))
        lhs, rhs = generalized_holder_check(f, g, *box, s)
        holder_ok &= lhs <= rhs * (1 + 1e-12)
    ok &= holder_ok
    _report(6, ok, f"orlicz: power closed form gap {worst:.1e}; unit llog norm "
                   f"{unit:.6f}; sandwich 100/100; Holder 200/200")


E_THEOREMS = {
    "weak_1q": ExponentTriple(1, 0.5, 1.0),
    "strong_pq": ExponentTriple(1, 1 / 3, 2.0),
    "commutator_strong": ExponentTriple(1, 1 / 3, 2.0),
    "maximal_pq": ExponentTriple(1, 1 / 3, 2.0),
}


def test_criterion_07_theorem_batteries():
    """Calibrated batteries at K = 10, depth stability, and sweep slopes."""
    start = time.monotonic()
    ok = True
    details = []
    results = {}
    for theorem, e in E_THEOREMS.items():
        res = run_battery(theorem, e, ROOT1, depth=10, battery_depth=5)
        results[theorem] = res
        ok &= res.all_passed
        details.append(f"{theorem}: {len(res.reports)} cases "
                       f"{'pass' if res.all_passed else 'FAIL'}")
    battery_elapsed = time.monotonic() - start
    ok &= battery_elapsed < 300.0

    for theorem, e in E_THEOREMS.items():
        res12 = run_battery(theorem, e, ROOT1, depth=12, battery_depth=5)
        c10, c12 = results[theorem].max_measured, res12.max_measured
        drift = abs(c12 - c10) / c10
        ok &= drift <= 0.20
        details.append(f"{theorem} drift {drift * 100:.1f}%")

    for theorem, power_fn in ((t, row.power) for t, row in THEOREM_TABLE.items() if row.power):
        e = E_THEOREMS[theorem]
        slope, _ = sweep_slope(results[theorem])
        allowed = power_fn(e) + 0.3
        ok &= slope <= allowed
        details.append(f"{theorem} slope {slope:.2f} <= {allowed:.2f}")
    _report(7, ok, f"batteries at K=10 in {battery_elapsed:.0f}s (< 300s); "
                   + "; ".join(details))


def test_criterion_08_bmo_and_summation_battery():
    """Oscillation-norm battery bounded by 4x its calibration."""
    e = ExponentTriple(1, 1 / 3, 2.0)
    res = run_battery("weighted_bmo", e, ROOT1, depth=10, battery_depth=5)
    ok = res.all_passed
    _report(8, ok, f"weighted-BMO battery: {len(res.reports)} cases, "
                   f"calibration {res.calibration:.4f}, max measured "
                   f"{res.max_measured:.4f} <= {res.threshold:.4f}")


def test_criterion_08_summation_pinned_value():
    """The unweighted summation ratio equals its geometric closed form.

    With sigma = 1, f = 1, phi(t) = t and n = 1, level k holds 2^k cubes
    of measure 2^-k, each weighted by |Q|^alpha = 2^(-k alpha), so the
    ratio down to depth K is sum_{k=0..K} 2^(-k alpha).  Checked at
    K = 6, 8 and 10, together with growth in K below the series limit
    1 / (1 - 2^-alpha).
    """
    e = ExponentTriple(1, 0.5, 1.5)
    ratios = {}
    for depth in (6, 8, 10):
        case = TestCase(
            case_id="summation-pin", theorem="cube_summation", e=e,
            weight=WeightSpec("constant"), func=FunctionSpec("constant"),
            phi="power1", depth=depth, battery_depth=4,
        )
        ratios[depth] = verify_summation_lemma(case)[0].measured_constant
    closed = {depth: sum(2.0 ** (-k * e.alpha) for k in range(depth + 1))
              for depth in ratios}
    limit = 1.0 / (1.0 - 2.0 ** -e.alpha)
    monotone = ratios[6] <= ratios[8] <= ratios[10] <= limit
    gap = max(abs(ratios[d] - closed[d]) for d in ratios)
    ok = monotone and gap <= 1e-9
    _report(8, ok, f"summation ratio at K=6 is {ratios[6]:.8f}, closed form "
                   f"{closed[6]:.8f} (worst gap over K=6,8,10 {gap:.2e}); "
                   f"monotone-bounded {monotone} (K=8: {ratios[8]:.6f}, "
                   f"K=10: {ratios[10]:.6f}, limit {limit:.6f})")


def test_criterion_09_decomposition_machinery():
    """Inner/outer recomposition, stopping property, partition masses."""
    fam = DyadicGridFamily(ROOT1, 8)
    alpha = 0.5
    ok = True
    worst_recomp = 0.0
    for seed in range(20):
        rng = np.random.default_rng(400 + seed)
        f = GridFunction(ROOT1, rng.uniform(0.0, 1.0, 256))
        for gid in (0, 1):
            full = dyadic_fractional_integral(f, alpha, fam, gid).cells
            k = int(rng.integers(0, 9))
            cube = containing_cube(fam, gid, k, rng.uniform(0, 1, 1))
            inner, outer = inner_outer_split(f, alpha, cube, fam)
            (i0, i1), = cells_in_cube(fam, cube, 8)
            if i0 < i1:
                gap = float(np.max(np.abs(inner.cells[i0:i1] + outer - full[i0:i1])))
                worst_recomp = max(worst_recomp, gap)
        out = dyadic_fractional_integral(f, alpha, fam, 0)
        t = float(np.percentile(out.cells, 65))
        for cube in level_set_cubes(out.values, t, fam, 0):
            inner, _ = inner_outer_split(f, alpha, cube, fam)
            (i0, i1), = cells_in_cube(fam, cube, 8)
            mask = out.cells[i0:i1] > 2 * t
            ok &= bool(np.all(inner.cells[i0:i1][mask] > t))
    ok &= worst_recomp <= 1e-12

    e1 = ExponentTriple(1, 0.5, 1.0)
    case = TestCase(
        case_id="partition", theorem="weak_1q", e=e1,
        weight=WeightSpec("power", -0.2, "third"),
        func=FunctionSpec("indicator", ((0.0,), (0.5,))),
        depth=8, battery_depth=4,
    )
    for t in (0.2, 0.6, 1.0):
        diag = large_small_partition(case, t)
        ok &= abs(diag.large_mass + diag.small_mass - diag.level_set_mass) <= 1e-14
    _report(9, ok, f"decomposition: worst recomposition gap {worst_recomp:.1e} "
                   f"<= 1e-12; stopping property and partition masses hold")


def test_criterion_10_determinism_and_interfaces(tmp_path):
    """Byte-identical reports; exact serialization round-trips."""
    config = tmp_path / "config.yaml"
    out = tmp_path / "out"
    config.write_text(
        f"""run:
  depth: 6
  battery_depth: 4
  out: {out}
exponents:
  alpha: 0.3333333333333333
  p: 2.0
weight:
  kind: power
  gamma: -0.2
  x0: third
verify:
  theorems: [strong_pq, weak_1q]
  gammas: 3
"""
    )
    runner = CliRunner()
    blobs = []
    for _ in range(2):
        result = runner.invoke(cli_main, ["verify", "--config", str(config), "--seed", "0"])
        assert result.exit_code == 0, result.output
        blobs.append((out / "reports.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    result = runner.invoke(cli_main, ["verify", "--config", str(config),
                                      "--seed", "0", "--format", "json"])
    ok &= result.exit_code == 0
    first_json = (out / "reports.json").read_bytes()
    runner.invoke(cli_main, ["verify", "--config", str(config), "--seed", "0",
                             "--format", "json"])
    ok &= (out / "reports.json").read_bytes() == first_json

    rng = np.random.default_rng(11)
    for root, shape in ((ROOT1, (64,)), (ROOT2, (16, 16))):
        f = GridFunction(root, rng.uniform(-1.0, 1.0, shape))
        for fmt in ("bin", "csv"):
            path = tmp_path / f"gf_{len(shape)}.{fmt}"
            write_gridfunction(f, path, fmt)
            back = read_gridfunction(path, fmt)
            ok &= bool(np.array_equal(back.cells, f.cells)) and back.root == f.root
    fam = DyadicGridFamily(ROOT1, 8)
    f = GridFunction(ROOT1, rng.uniform(0.0, 1.0, 256))
    sel = sparse_select_for_operator(f, fam, 1)
    back = sparse_family_from_json(json.dumps(sparse_family_doc(sel, certify_sparse(sel, fam, 8))))
    ok &= back.cubes == sel.cubes and back.grid_id == sel.grid_id
    _report(10, ok, "determinism: byte-identical CSV/JSON reports; exact "
                    "mesh-function and sparse-family round-trips")
