"""End-to-end verification of the weighted norm inequalities.

Each verifier computes the two sides of one inequality on discretized
data and reports the measured constant lhs / (characteristic^power *
input-norm).  The absolute constants are unknowable, so batteries follow
a calibration protocol: the unweighted runs (characteristic 1) fix a
reference constant and every weighted case must stay within 4x of it.
Measured constants are also swept in the mesh depth to check refinement
stability, and the growth of the normalized left side against the
characteristic is slope-fitted to confirm the stated powers suffice.

Each theorem is a row of THEOREM_TABLE; weight, function and bump kinds and
Young functions are names in tables, which the CLI's config check also reads.

Batteries cross a few inputs with several weights and theorems, so a run
(run_battery, the CLI's verify and sweep) opens a run_scope, in which each
workspace, weight, function, bump, characteristic and repeated operator
result is built once and dropped when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np

from .grid import DyadicCube, DyadicGridFamily, GridFunction, RootBox, cubes_by_level
from .operators import (
    bmo_norm,
    commutator_plan,
    dyadic_commutator,
    dyadic_fractional_integral,
    level_set_cubes,
    orlicz_level_rows,
    sparse_fractional_integral,
    weighted_orlicz_fractional_maximal,
)
from .orlicz import EXPM1, LLOG, POWER1, YoungFunction, luxemburg_norm_max
from .sparse import certify_sparse, sparse_select_for_operator
from .weights import (
    CubeBattery,
    ExponentTriple,
    Weight,
    a1q_characteristic,
    admissible_gamma_range,
    ap_characteristic,
    apq_characteristic,
    named_center,
    power_weight,
    step_weight,
)

__all__ = [
    "WeightSpec",
    "FunctionSpec",
    "BumpSpec",
    "TestCase",
    "VerificationReport",
    "BatteryResult",
    "PartitionDiagnostic",
    "THEOREM_TABLE",
    "verify_case",
    "run_scope",
    "RunScope",
    "verify_weak_1q",
    "verify_strong_pq",
    "verify_commutator_strong",
    "verify_maximal_weak_and_strong",
    "verify_wtd_bmo",
    "verify_summation_lemma",
    "verify_duality_cube_estimate",
    "large_small_partition",
    "weak_quasinorm",
    "standard_function_specs",
    "sweep_gammas",
    "build_battery",
    "run_battery",
    "stability_pair",
    "sweep_slope",
    "write_json",
    "write_reports_csv",
    "write_reports_json",
    "write_sweep_csv",
    "CSV_COLUMNS",
    "YOUNG_FUNCTIONS", "WEIGHT_KINDS", "FUNCTION_KINDS", "BUMP_KINDS",
    "materialize_weight", "materialize_function", "materialize_bump",
    "workspace", "write_csv",
]

DEFAULT_ROOT_1D = RootBox((0.0,), 1.0)
DEFAULT_ROOT_2D = RootBox((0.0, 0.0), 1.0)


# -- case specification --------------------------------------------------------


@dataclass(frozen=True)
class WeightSpec:
    kind: str = "constant"  # a name of WEIGHT_KINDS
    gamma: float = 0.0
    x0: str | tuple = "third"
    low: float = 1.0
    high: float = 3.0

    def label(self) -> str:
        if self.kind == "power":
            return f"power(g={self.gamma:+.4f},{self.x0})"
        return self.kind


@dataclass(frozen=True)
class FunctionSpec:
    kind: str = "constant"  # a name of FUNCTION_KINDS
    box: tuple | None = None  # ((lo...) , (hi...)) in absolute coordinates
    value: float = 1.0
    name: str = ""

    def label(self) -> str:
        return self.name or self.kind


@dataclass(frozen=True)
class BumpSpec:
    kind: str = "step"  # a name of BUMP_KINDS
    x0: str | tuple = "third"
    value: float = 1.0

    def label(self) -> str:
        return self.kind


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # keep pytest from collecting the dataclass

    case_id: str
    theorem: str
    e: ExponentTriple
    weight: WeightSpec
    func: FunctionSpec
    bump: BumpSpec | None = None
    phi: str = "llog"  # a name of YOUNG_FUNCTIONS, for the maximal-operator lemma
    depth: int = 8
    battery_depth: int = 5
    root: RootBox = DEFAULT_ROOT_1D

    def __post_init__(self):
        if self.weight.kind == "power" and self.weight.gamma != 0.0:
            glo, ghi = admissible_gamma_range(self.e)
            if not glo < self.weight.gamma < (ghi if ghi > 0 else 0.0):
                raise ValueError(
                    f"gamma {self.weight.gamma} outside the admissible "
                    f"range ({glo:.4f}, {ghi:.4f}) for these exponents"
                )


@dataclass
class VerificationReport:
    case_id: str
    theorem: str
    n: int
    alpha: float
    p: float
    q: float
    gamma: float | None
    x0: str
    depth: int
    battery_depth: int
    characteristic: float
    lhs: float
    rhs_sans_constant: float
    measured_constant: float
    passed: bool | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class BatteryResult:
    theorem: str
    reports: list[VerificationReport]
    calibration: float
    threshold: float

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def max_measured(self) -> float:
        return max(r.measured_constant for r in self.reports)

    def first_failure(self) -> VerificationReport | None:
        for r in self.reports:
            if not r.passed:
                return r
        return None


@dataclass
class PartitionDiagnostic:
    threshold: float
    large: list[DyadicCube]
    small: list[DyadicCube]
    large_mass: float
    small_mass: float
    level_set_mass: float


# -- materialization -------------------------------------------------------------

# The run scope's stores of kinds workspace and weight (see run_scope).  They
# are module dicts because perfbench's tracer counts a build as the growth of
# one during a workspace or materialize_weight call.
_WEIGHT_CACHE: dict = {}
_WORKSPACE_CACHE: dict = {}


@dataclass
class Workspace:
    root: RootBox
    depth: int
    battery_depth: int
    family: DyadicGridFamily
    battery: CubeBattery

    @functools.cached_property
    def full_battery(self) -> CubeBattery:
        """The battery down to the mesh depth, built on first use; battery
        itself when battery_depth == depth."""
        if self.battery_depth == self.depth:
            return self.battery
        return CubeBattery(self.family, self.depth)


def workspace(root: RootBox, depth: int, battery_depth: int) -> Workspace:
    def build():
        family = DyadicGridFamily(root, depth)
        return Workspace(root, depth, battery_depth, family, CubeBattery(family, battery_depth))
    return _shared("workspace", (), (root, depth, battery_depth), build)


def _logdist_bump(spec: BumpSpec, root: RootBox, depth: int) -> GridFunction:
    x0 = named_center(root, spec.x0)
    if root.n == 1:
        return GridFunction.from_callable(root, depth, lambda x: np.log(np.abs(x - x0[0])))
    return GridFunction.from_callable(
        root, depth,
        lambda x, y: 0.5 * np.log((x - x0[0]) ** 2 + (y - x0[1]) ** 2),
    )


# kind -> builder from (spec, root, depth); the builders reach power_weight
# and step_weight through this module's globals, where tracing may rebind them
WEIGHT_KINDS = {
    "constant": lambda spec, root, depth: Weight(GridFunction.constant(root, depth, spec.low)),
    "power": lambda spec, root, depth: power_weight(root, depth, spec.gamma, spec.x0),
    "step": lambda spec, root, depth: step_weight(root, depth, spec.low, spec.high),
}
# kind -> (needs a box, builder from (spec, root, depth, sigma)); sigma_probe, the
# extremal direction, is the dual density sigma cut to the box
FUNCTION_KINDS = {
    "constant": (False, lambda spec, root, depth, sigma:
                 GridFunction.constant(root, depth, spec.value)),
    "indicator": (True, lambda spec, root, depth, sigma:
                  GridFunction.indicator(root, depth, *spec.box) * spec.value),
    "sigma_probe": (True, lambda spec, root, depth, sigma:
                    GridFunction.indicator(root, depth, *spec.box) * sigma),
}
# kind -> builder from (spec, root, depth); the step is 1 on the upper half of the first axis
BUMP_KINDS = {
    "constant": lambda spec, root, depth: GridFunction.constant(root, depth, spec.value),
    "step": lambda spec, root, depth: GridFunction.indicator(
        root, depth, (root.origin[0] + 0.5 * root.side,) + root.origin[1:], root.hi),
    "logdist": _logdist_bump,
}
# the Young functions a case's phi and the CLI's op.phi name
YOUNG_FUNCTIONS = {"power1": POWER1, "llog": LLOG}


def materialize_weight(spec: WeightSpec, root: RootBox, depth: int) -> Weight:
    return _shared("weight", (), (spec, root, depth),
                   lambda: WEIGHT_KINDS[spec.kind](spec, root, depth))


def materialize_function(
    spec: FunctionSpec, root: RootBox, depth: int, sigma: GridFunction | None = None
) -> GridFunction:
    return FUNCTION_KINDS[spec.kind][1](spec, root, depth, sigma)


def materialize_bump(spec: BumpSpec, root: RootBox, depth: int) -> GridFunction:
    return BUMP_KINDS[spec.kind](spec, root, depth)


def _case_weight(case: TestCase) -> Weight:
    return materialize_weight(case.weight, case.root, case.depth)


def _case_sigma(case: TestCase) -> GridFunction:
    return _case_weight(case).sigma(case.e)


def _case_density(case: TestCase) -> GridFunction:
    """The case's sigma, or ones for the constant weight and at p = 1."""
    if case.weight.kind == "constant" or case.e.p == 1:
        return GridFunction.constant(case.root, case.depth, 1.0)
    return _case_sigma(case)


def _case_function(case: TestCase) -> GridFunction:
    probe = case.func.kind == "sigma_probe"  # cut from the case's dual density
    params = (case.func, case.root, case.depth) + ((case.weight, case.e) if probe else ())
    return _shared("function", (), params, lambda: materialize_function(
        case.func, case.root, case.depth, _case_sigma(case) if probe else None))


def _case_bump(case: TestCase) -> tuple[str, GridFunction]:
    """The label and mesh function of the case's bump, the step when it has none."""
    spec = case.bump or BumpSpec("step")
    return spec.label(), _shared("bump", (), (spec, case.root, case.depth),
                                 lambda: materialize_bump(spec, case.root, case.depth))


# -- run scope: everything a run builds, once per run --------------------------


class RunScope:
    """What a run builds, shared while it is open (see run_scope).

    entries maps each kind to its store; a store keys its results by their
    other arguments and the fingerprints of their mesh-function inputs.
    Workspaces, weights, the cases' functions and bumps have no mesh inputs
    and are keyed by their arguments alone.  A hit is confirmed by comparing
    roots and cells with the stored inputs (cells are read-only, so the same
    array needs no comparison), so a fingerprint collision costs a
    comparison or a recomputation, never a wrong result.  computed and
    reused count the results of each kind.
    """

    def __init__(self):
        self.entries, self.computed, self.reused = {}, Counter(), Counter()

    def fetch(self, kind: str, inputs: tuple[GridFunction, ...], params: tuple, compute):
        store = self.entries.setdefault(kind, {})
        bucket = store.setdefault((params, *(g.fingerprint for g in inputs)), [])
        for held, result in bucket:
            if all(root == g.root and (cells is g.cells or np.array_equal(cells, g.cells))
                   for (root, cells), g in zip(held, inputs)):
                self.reused[kind] += 1
                return result
        result = compute()
        # the cells alone, not the functions with their cached tables
        bucket.append((tuple((g.root, g.cells) for g in inputs), result))
        self.computed[kind] += 1
        return result


_SCOPE: RunScope | None = None


@contextlib.contextmanager
def run_scope():
    """Share what the cases and theorems of one run build.  A nested entry
    joins the open scope; leaving the outermost one drops every held result,
    workspace and weight (the counts stay on the yielded scope).  Outside a
    scope every call builds and computes directly."""
    global _SCOPE
    if _SCOPE is not None:
        yield _SCOPE
        return
    _SCOPE = scope = RunScope()
    scope.entries.update(workspace=_WORKSPACE_CACHE, weight=_WEIGHT_CACHE)
    try:
        yield scope
    finally:
        for store in scope.entries.values():
            store.clear()
        scope.entries.clear()
        _SCOPE = None


def _shared(kind: str, inputs: tuple[GridFunction, ...], params: tuple, compute):
    """compute() once per distinct input in the open run scope, else on
    every call.  compute reaches the operators through this module's
    globals at call time, where tracing may rebind them."""
    if _SCOPE is None:
        return compute()
    return _SCOPE.fetch(kind, inputs, params, compute)


def _integral(f: GridFunction, alpha: float, ws: Workspace):
    return _shared("dyadic_fractional_integral", (f,), (alpha, ws.family),
                   lambda: dyadic_fractional_integral(f, alpha, ws.family, 0))


def _selection(f: GridFunction, ws: Workspace):
    return _shared("sparse_select_for_operator", (f,), (ws.family,),
                   lambda: sparse_select_for_operator(f, ws.family, 0))


def _sparse_integral(f: GridFunction, alpha: float, ws: Workspace):
    return _shared("sparse_fractional_integral", (f,), (alpha, ws.family),
                   lambda: sparse_fractional_integral(f, alpha, ws.family,
                                                      _selection(f, ws).cubes))


def _bmo(b: GridFunction, ws: Workspace) -> float:
    return _shared("bmo_norm", (b,), (ws.battery,), lambda: bmo_norm(b, ws.battery))


def _apq(w: Weight, e: ExponentTriple, battery: CubeBattery) -> float:
    return _shared("apq_characteristic", (w.base,), (e, battery),
                   lambda: apq_characteristic(w, e, battery))


def _level_rows(f: GridFunction, sigma: GridFunction, phi: YoungFunction, ws: Workspace):
    """(sigma(Q), ||f||_{Phi,Q,sigma}) per level of grid 0, read-only."""
    return _shared("orlicz_level_rows", (f, sigma), (phi, ws.family),
                   lambda: orlicz_level_rows(f, sigma, phi, ws.family, 0))


# -- norm helpers ---------------------------------------------------------------


def lebesgue_product_norm(f: GridFunction, w: GridFunction, p: float) -> float:
    """(integral of |f w|^p dx)^(1/p) on the mesh."""
    vals = np.abs(f.cells * w.cells) ** p
    return float(vals.sum() * f.cell_volume) ** (1.0 / p)


def weighted_p_norm(f: GridFunction, sigma: GridFunction, p: float) -> float:
    """(integral of |f|^p d sigma)^(1/p)."""
    vals = np.abs(f.cells) ** p * sigma.cells
    return float(vals.sum() * f.cell_volume) ** (1.0 / p)


def weak_quasinorm(values: np.ndarray, density: GridFunction, q: float) -> float:
    """sup over t > 0 of t * mu({values > t})^(1/q), evaluated exactly.

    The cellwise output takes finitely many values; on each interval
    between consecutive distinct values the map is increasing in t, so
    the supremum is attained at a distinct value approached from below,
    where the super-level set includes the ties.
    """
    mass = (density.cells * density.cell_volume).ravel()
    vals = values.ravel()
    order = np.argsort(vals)[::-1]
    sorted_vals = vals[order]
    cum = np.cumsum(mass[order])
    neg, first_idx = np.unique(-sorted_vals, return_index=True)
    ends = np.append(first_idx[1:], len(sorted_vals)) - 1
    t = -neg
    good = t > 0
    if not good.any():
        return 0.0
    return float(np.max(t[good] * cum[ends][good] ** (1.0 / q)))


def _measured(lhs: float, rhs_sans: float) -> float:
    if rhs_sans > 0:
        return lhs / rhs_sans
    return 0.0 if lhs <= 0 else math.inf


def _base_report(case: TestCase, characteristic, lhs, rhs_sans, suffix="", **extra):
    spec = case.weight
    return VerificationReport(
        case_id=case.case_id + suffix,
        theorem=case.theorem,
        n=case.e.n,
        alpha=case.e.alpha,
        p=case.e.p,
        q=case.e.q,
        gamma=spec.gamma if spec.kind == "power" else None,
        x0=str(spec.x0) if spec.kind == "power" else "",
        depth=case.depth,
        battery_depth=case.battery_depth,
        characteristic=characteristic,
        lhs=lhs,
        rhs_sans_constant=rhs_sans,
        measured_constant=_measured(lhs, rhs_sans),
        extra=extra,
    )


def _settle_degenerate(report: VerificationReport, b: GridFunction) -> VerificationReport:
    """A bump whose BMO norm is zero to rounding leaves a zero right side:
    the case passes when its left side is zero too, and calibration skips
    it."""
    if report.extra["bmo"] <= 1e-13 * max(1.0, abs(float(b.max_cell()))):
        report.passed = report.lhs <= 1e-10
        report.measured_constant = 0.0 if report.passed else math.inf
        report.extra["degenerate"] = True
    return report


# -- the verifiers ---------------------------------------------------------------


def verify_weak_1q(case: TestCase) -> list[VerificationReport]:
    """Endpoint weak-type bound for the dyadic fractional integral at p = 1."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    f = _case_function(case)
    out = _integral(f, e.alpha, ws)
    lhs = weak_quasinorm(out.cells, w.v(e), e.q)
    char = _shared("a1q_characteristic", (w.base,), (e, ws.battery),
                   lambda: a1q_characteristic(w, e, ws.battery))
    input_norm = float((f.cells * w.base.cells).sum() * f.cell_volume)
    rhs = char ** e.weak_power * input_norm
    return [_base_report(case, char, lhs, rhs)]


def verify_strong_pq(case: TestCase) -> list[VerificationReport]:
    """Strong (p, q) bound, reported for the dyadic and the sparse operator."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    f = _case_function(case)
    char = _apq(w, e, ws.battery)
    input_norm = lebesgue_product_norm(f, w.base, e.p)
    rhs = char ** e.strong_power * input_norm
    out_d = _integral(f, e.alpha, ws)
    out_s = _sparse_integral(f, e.alpha, ws)
    reports = []
    for suffix, out in ((":dyadic", out_d), (":sparse", out_s)):
        lhs = lebesgue_product_norm(out.values, w.base, e.q)
        reports.append(_base_report(case, char, lhs, rhs, suffix))
    return reports


def verify_commutator_strong(case: TestCase) -> list[VerificationReport]:
    """Strong (p, q) bound for the positive dyadic commutator."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    f = _case_function(case)
    label, b = _case_bump(case)

    def commutator():  # b's sorts are shared by every f
        plan = _shared("commutator_plan", (b,), (ws.family,),
                       lambda: commutator_plan(b, ws.family, 0))
        return dyadic_commutator(b, f, e.alpha, ws.family, 0, plan=plan)
    out = _shared("dyadic_commutator", (b, f), (e.alpha, ws.family), commutator)
    lhs = lebesgue_product_norm(out.values, w.base, e.q)
    char = _apq(w, e, ws.battery)
    bmo = _bmo(b, ws)
    input_norm = lebesgue_product_norm(f, w.base, e.p)
    rhs = char ** e.commutator_power * bmo * input_norm
    report = _base_report(case, char, lhs, rhs, bump=label, bmo=bmo)
    return [_settle_degenerate(report, b)]


def verify_maximal_weak_and_strong(case: TestCase) -> list[VerificationReport]:
    """Weighted Orlicz maximal operator: L^p(sigma) to L^q(sigma) bounds."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    sigma = _case_density(case)
    f = _case_function(case)
    phi = YOUNG_FUNCTIONS[case.phi]
    out = weighted_orlicz_fractional_maximal(
        f, sigma, e.alpha, phi, ws.family, 0, rows=_level_rows(f, sigma, phi, ws)
    )
    input_norm = weighted_p_norm(f, sigma, e.p)
    lhs_weak = weak_quasinorm(out.cells, sigma, e.q)
    lhs_strong = weighted_p_norm(out.values, sigma, e.q)
    return [
        _base_report(case, 1.0, lhs_weak, input_norm, ":weak", phi=case.phi),
        _base_report(case, 1.0, lhs_strong, input_norm, ":strong", phi=case.phi),
    ]


def verify_wtd_bmo(case: TestCase) -> list[VerificationReport]:
    """Oscillation bound: ||b - <b>_Q|| in the exponential norm vs BMO."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    sigma = _case_density(case)
    label, b = _case_bump(case)
    ainf = _shared("ap_characteristic", (sigma,), (e.r_prime, ws.battery),
                   lambda: ap_characteristic(sigma, e.r_prime, ws.battery))
    bmo = _bmo(b, ws)

    def oscillation_gauge() -> float:
        avg = ws.battery.averages(b)
        parts = [(vals - avg[sl, None], sig * frac * sigma.cell_volume)
                 for sl, vals, sig, frac in ws.battery.overlap_rows(b, sigma)
                 if len(vals)]  # a level with no cube inside the root box has no rows
        return luxemburg_norm_max(parts, EXPM1)
    lhs = _shared("oscillation_gauge", (b, sigma), (ws.battery,), oscillation_gauge)
    rhs = ainf * bmo
    report = _base_report(case, ainf, lhs, rhs, bump=label, bmo=bmo)
    return [_settle_degenerate(report, b)]


def verify_summation_lemma(case: TestCase, top: DyadicCube | None = None) -> list[VerificationReport]:
    """Geometric summation over the subcubes of a mesh-aligned cube.

    ratio = sum over Q inside the top cube (levels down to K) of
    |Q|^(alpha/n) sigma(Q) ||f|| divided by the single top-cube term.
    top defaults to the root cube; the terms are read from the Orlicz
    maximal operator's level rows of grid 0.
    """
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    sigma = _case_density(case)
    f = _case_function(case)
    phi = YOUNG_FUNCTIONS[case.phi]
    top = top or DyadicCube(0, 0, (0,) * case.root.n)
    if not ws.family.is_aligned(top.grid_id):
        raise ValueError("the summation check runs on the mesh-aligned grid")
    total = 0.0
    for k, (sq, norms) in enumerate(_level_rows(f, sigma, phi, ws)[top.level:], top.level):
        # level k holds (2^k,)^n rows; top's subcubes are a block 2^(k - top.level) wide
        r = 1 << (k - top.level)
        shape, block = (1 << k,) * e.n, tuple([slice(c * r, (c + 1) * r) for c in top.coords])
        sq, norms = sq.reshape(shape)[block].ravel(), norms.reshape(shape)[block].ravel()
        total += float(np.dot(sq, norms)) * ws.family.side_at(k) ** e.alpha
        if k == top.level:  # the one row of the top cube
            rhs = ws.family.side_at(k) ** e.alpha * float(sq[0]) * float(norms[0])
    return [_base_report(case, 1.0, total, rhs, phi=case.phi,
                         top_level=top.level)]


def verify_duality_cube_estimate(case: TestCase) -> list[VerificationReport]:
    """Per-cube two-sided estimate over a sparse family with carriers.

    First inequality: |Q|^(alpha/n - 1) sigma(Q) v(Q)^(1 - alpha/n) is at
    most the characteristic times sigma(Q)^(1/p) v(Q)^(1/p'); it is exact
    for battery cubes because 1 - alpha/n = 1/p' + 1/q.  Second: passing
    to the carriers costs the subset bounds for sigma and v plus the
    half-density, so the testable constant is 2^(r'/p + r/p').  Carrier
    masses are sums over segments of the certificate's owner labels.
    """
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    f = _case_function(case)
    sigma, v = w.sigma(e), w.v(e)
    char = _apq(w, e, ws.full_battery)
    sparse = _selection(f, ws)
    cert = _shared("certify_sparse", (f,), (ws.family,),  # sparse is a function of f
                   lambda: certify_sparse(sparse, ws.family, case.depth))
    density_const = 2.0 ** (e.r_prime / e.p + e.r / e.p_prime)
    tol = 1e-9
    worst1 = worst2 = 0.0
    violations = 0
    cellvol = f.cell_volume
    sigma_q, v_q = [], []
    for (g, k), coords in cubes_by_level(sparse.cubes).items():
        sigma_q += ws.family.cube_integrals(sigma, g, k, coords).tolist()
        v_q += ws.family.cube_integrals(v, g, k, coords).tolist()
    sigma_e, v_e = cert.carriers.sums(sigma.cells), cert.carriers.sums(v.cells)
    for cube, sq, vq, se, ve in zip(sparse.cubes, sigma_q, v_q, sigma_e, v_e):
        vol = ws.family.volume_at(cube.level)
        se, ve = se * cellvol, ve * cellvol
        lhs1 = vol ** (e.alpha / e.n - 1.0) * sq * vq ** (1.0 - e.alpha / e.n)
        mid = char * sq ** (1.0 / e.p) * vq ** (1.0 / e.p_prime)
        rhs2 = density_const * char ** e.strong_power \
            * se ** (1.0 / e.p) * ve ** (1.0 / e.p_prime)
        if lhs1 > mid * (1.0 + tol) or mid > rhs2 * (1.0 + tol):
            violations += 1
        worst1 = max(worst1, lhs1 / mid if mid > 0 else math.inf)
        worst2 = max(worst2, mid / rhs2 if rhs2 > 0 else math.inf)
    identity_gap = abs(1.0 - e.alpha / e.n - 1.0 / e.p_prime - 1.0 / e.q)
    report = _base_report(
        case, char, worst1, 1.0,
        violations=violations,
        worst_first_ratio=worst1,
        worst_second_ratio=worst2,
        family_size=len(sparse),
        sparse_ok=cert.ok,
        identity_gap=identity_gap,
    )
    report.measured_constant = max(worst1, worst2)
    report.passed = violations == 0 and cert.ok and identity_gap <= 1e-15
    return [report]


def large_small_partition(case: TestCase, t: float) -> PartitionDiagnostic:
    """Split the level-set cubes at t by the v-mass they keep at level 2t."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    v = w.v(e)
    f = _case_function(case)
    out = dyadic_fractional_integral(f, e.alpha, ws.family, 0)
    cubes = level_set_cubes(out.values, t, ws.family, 0)
    vmass = v.cells * v.cell_volume
    mask_2t = out.cells > 2.0 * t
    mask_t = out.cells > t
    cut = 2.0 ** (-e.q - 1.0)
    large, small = [], []
    large_mass = small_mass = 0.0
    for cube in cubes:  # aligned: a level-k cube is a block of 2^(K-k) cells per axis
        b = 1 << (case.depth - cube.level)
        sl = tuple(slice(m * b, (m + 1) * b) for m in cube.coords)
        vq = float(vmass[sl].sum())
        v2 = float(vmass[sl][mask_2t[sl]].sum())
        if v2 >= cut * vq:
            large.append(cube)
            large_mass += vq
        else:
            small.append(cube)
            small_mass += vq
    return PartitionDiagnostic(
        t, large, small, large_mass, small_mass, float(vmass[mask_t].sum())
    )


class Theorem(NamedTuple):
    """One inequality: how to verify a case, the p it holds for, the power of
    its characteristic in the right side, and the shape of its battery."""

    verifier: Callable[[TestCase], list[VerificationReport]]
    p: str = "> 1"  # "= 1" (an endpoint inequality), "> 1" or "any"
    power: Callable[[ExponentTriple], float] | None = None
    bumps: bool = False  # the battery crosses its cases with the bump battery
    uses_f: bool = True  # when False the battery keeps only the first function


THEOREM_TABLE = {
    "weak_1q": Theorem(verify_weak_1q, "= 1", lambda e: e.weak_power),
    "strong_pq": Theorem(verify_strong_pq, power=lambda e: e.strong_power),
    "commutator_strong": Theorem(verify_commutator_strong, power=lambda e: e.commutator_power,
                                 bumps=True),
    "maximal_pq": Theorem(verify_maximal_weak_and_strong),
    "weighted_bmo": Theorem(verify_wtd_bmo, bumps=True, uses_f=False),
    "cube_summation": Theorem(verify_summation_lemma, "any"),
    "duality_cubes": Theorem(verify_duality_cube_estimate),
}


def verify_case(case: TestCase) -> list[VerificationReport]:
    """Run the case's verifier once its p lies in the theorem's p-domain."""
    theorem, p = THEOREM_TABLE[case.theorem], case.e.p
    if not {"= 1": p == 1, "> 1": p > 1, "any": True}[theorem.p]:
        raise ValueError(f"theorem {case.theorem} needs p {theorem.p}")
    return theorem.verifier(case)


# -- batteries -------------------------------------------------------------------


def standard_function_specs(root: RootBox, with_probe: bool = True) -> list[FunctionSpec]:
    """The standard inputs: constant, aligned and off-grid boxes, a spike,
    and the dual-density probe on a sub-box."""
    o, L = root.lo, root.side
    spike_depth = 6
    h = L / 2 ** spike_depth
    spike_lo = o + np.floor((0.3 * L) / h) * h
    specs = [
        FunctionSpec("constant", name="const"),
        FunctionSpec("indicator", (tuple(o + L / 4), tuple(o + L / 2)), name="dyadic-box"),
        FunctionSpec("indicator", (tuple(o + L / 3), tuple(o + 0.8 * L)), name="offgrid-box"),
        FunctionSpec("indicator", (tuple(spike_lo), tuple(spike_lo + h)), name="spike"),
    ]
    if with_probe:
        specs.append(FunctionSpec("sigma_probe", (tuple(o), tuple(o + L / 2)), name="probe"))
    return specs


def sweep_gammas(e: ExponentTriple, count: int = 8) -> list[float]:
    """Power-weight exponents spread over the admissible open range, pulled
    in to 0.9 of it."""
    lo, hi = admissible_gamma_range(e)
    return [
        0.9 * (lo + (j + 0.5) * (hi - lo) / count) for j in range(count)
    ]


def build_battery(
    theorem: str,
    e: ExponentTriple,
    root: RootBox,
    depth: int,
    battery_depth: int,
    gammas: int = 8,
) -> list[TestCase]:
    """The standard battery: unweighted calibration cases first, then the
    power-weight sweep, crossed with the function battery (and the bump
    battery for commutator-type checks).  Weight and log bump are singular
    at the root box's third point."""
    if theorem not in THEOREM_TABLE:
        raise ValueError(f"unknown theorem {theorem!r}")
    shape = THEOREM_TABLE[theorem]
    funcs = standard_function_specs(root, with_probe=e.p > 1)
    if not shape.uses_f:
        funcs = funcs[:1]
    weights = [WeightSpec("constant")]
    weights += [WeightSpec("power", g, "third") for g in sweep_gammas(e, gammas)]
    bumps = [BumpSpec("step"), BumpSpec("logdist", "third")] if shape.bumps else [None]
    cases = []
    for wi, wspec in enumerate(weights):
        for fi, fspec in enumerate(funcs):
            for bi, bspec in enumerate(bumps):
                label = f"{theorem}/w{wi}-{wspec.label()}/f-{fspec.label()}"
                if bspec is not None:
                    label += f"/b-{bspec.label()}"
                cases.append(
                    TestCase(
                        case_id=label,
                        theorem=theorem,
                        e=e,
                        weight=wspec,
                        func=fspec,
                        bump=bspec,
                        depth=depth,
                        battery_depth=battery_depth,
                        root=root,
                    )
                )
    return cases


def run_battery(
    theorem: str,
    e: ExponentTriple,
    root: RootBox = DEFAULT_ROOT_1D,
    depth: int = 8,
    battery_depth: int = 5,
    gammas: int = 8,
    threshold_factor: float = 4.0,
) -> BatteryResult:
    """Run the battery and apply the calibration protocol.

    The calibration constant is the largest measured constant among the
    unweighted cases; every case must come in under threshold_factor
    times it.  Reports keep battery order (case id order), so output is
    run-to-run identical.  The cases run in one run_scope, which joins
    the caller's when one is open.
    """
    cases = build_battery(theorem, e, root, depth, battery_depth, gammas)
    with run_scope():
        reports = [r for c in cases for r in verify_case(c)]
    calib = [
        r.measured_constant
        for r in reports
        if r.gamma is None and not r.extra.get("degenerate") and r.measured_constant > 0
    ]
    calibration = max(calib) if calib else 1.0
    threshold = threshold_factor * calibration
    for r in reports:
        if r.passed is None:
            r.passed = r.measured_constant <= threshold * (1.0 + 1e-12)
        r.extra["threshold"] = threshold
    return BatteryResult(theorem, reports, calibration, threshold)


def stability_pair(
    theorem: str,
    e: ExponentTriple,
    root: RootBox = DEFAULT_ROOT_1D,
    depth: int = 8,
    battery_depth: int = 5,
    gammas: int = 8,
) -> tuple[float, float]:
    """Battery-level measured constants at depth and depth + 2."""
    a = run_battery(theorem, e, root, depth, battery_depth, gammas)
    b = run_battery(theorem, e, root, depth + 2, battery_depth, gammas)
    return a.max_measured, b.max_measured


def sweep_slope(result: BatteryResult) -> tuple[float | None, list[tuple[float, float]]]:
    """Fit log(normalized lhs envelope) against log characteristic.

    For each power-weight gamma the envelope takes the largest normalized
    left side over the function battery; the slope says how fast the
    inequality's left side actually grows in the characteristic.  It is
    None, not a number, when fewer than two gammas give points at distinct
    characteristics: no line can be fitted.
    """
    power = THEOREM_TABLE[result.theorem].power
    buckets: dict[float, tuple[float, float]] = {}
    for r in result.reports:
        if r.gamma is None or r.rhs_sans_constant <= 0 or r.lhs <= 0:
            continue
        # lhs over the input norm alone; rhs_sans = char^power * input_norm
        exponent = power(ExponentTriple(r.n, r.alpha, r.p)) if power else 0.0
        input_norm = r.rhs_sans_constant / r.characteristic ** exponent
        norm = r.lhs / input_norm
        prev = buckets.get(r.gamma)
        if prev is None or norm > prev[1]:
            buckets[r.gamma] = (r.characteristic, norm)
    points = sorted((math.log(c), math.log(v)) for c, v in buckets.values())
    if len(points) < 2:
        return None, points
    xs, ys = np.array(points).T
    if np.ptp(xs) < 1e-9:
        return None, points
    # the least-squares line in closed form, with no LAPACK kernel
    dx = xs - xs.mean()
    return float((dx * (ys - ys.mean())).sum() / (dx * dx).sum()), points


# -- report output ----------------------------------------------------------------

CSV_COLUMNS = [f.name for f in fields(VerificationReport) if f.name != "extra"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_json(doc, path) -> None:
    """The one JSON format of the run files: indent 2, sorted keys, a value
    JSON cannot hold written as its str, and a trailing newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def write_csv(path, columns, rows) -> None:
    """The one CSV format of the run files: a header line of the column
    names, then one line per row of its fields through _fmt, comma-joined."""
    with open(path, "w") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def write_reports_csv(reports: list[VerificationReport], path) -> None:
    rows = sorted(reports, key=lambda r: (r.theorem, r.case_id))
    write_csv(path, CSV_COLUMNS, ([getattr(r, col) for col in CSV_COLUMNS] for r in rows))


def write_reports_json(reports: list[VerificationReport], path) -> None:
    rows = sorted(reports, key=lambda r: (r.theorem, r.case_id))
    docs = []
    for r in rows:
        doc = {col: getattr(r, col) for col in CSV_COLUMNS}
        doc["extra"] = {
            k: v for k, v in sorted(r.extra.items())
            if isinstance(v, (int, float, str, bool))
        }
        docs.append(doc)
    write_json(docs, path)


def write_sweep_csv(result: BatteryResult, path) -> float | None:
    """Plot data for the gamma sweep: one (log char, log lhs) row per gamma.
    Returns the fitted slope (see sweep_slope)."""
    slope, points = sweep_slope(result)
    write_csv(path, ["log_characteristic", "log_normalized_lhs"], points)
    return slope
