"""Command-line front end: operators, sparse families, characteristics,
verification batteries, and sweep data, all driven by a YAML config.

Exit codes: 0 on success, 1 when an asserted inequality fails (the first
failing case is printed), 2 on configuration errors.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path
from typing import NamedTuple

import click
import numpy as np

from . import __version__
from .config import FORMATS, ConfigError, load_config, require
from .grid import DyadicGridFamily, GridFunction, RootBox, write_gridfunction
from .operators import OPERATORS
from .sparse import certify_sparse, sparse_family_doc, sparse_select_for_operator
from .verify import (
    THEOREM_TABLE,
    YOUNG_FUNCTIONS,
    materialize_bump,
    materialize_function,
    materialize_weight,
    run_battery,
    run_scope,
    workspace,
    write_csv,
    write_json,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
    BumpSpec,
    FunctionSpec,
    WeightSpec,
)
from .weights import (
    ExponentTriple,
    Weight,
    a1_characteristic,
    a1q_characteristic,
    ap_characteristic,
    apq_characteristic,
    implied_reverse_holder_constant,
    reverse_holder_exponent,
)

_OPTIONS = [
    click.option("--config", required=True, type=click.Path(exists=True),
                 help="YAML experiment config"),
    click.option("--out", default=None, help="output directory"),
    click.option("--seed", default=None, type=int, help="only recorded in run_meta.json"),
    click.option("--depth", default=None, type=int, help="mesh depth K override"),
    click.option("--format", default=None, type=click.Choice(FORMATS), help="report format"),
]


def _fail_config(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


class _Setup(NamedTuple):
    """What every command reads first: the config with the flag overrides
    applied, the root box, its grid family, the exponents and the two depths."""

    cfg: dict
    root: RootBox
    family: DyadicGridFamily
    e: ExponentTriple
    depth: int
    battery_depth: int

    @property
    def out(self) -> Path:
        return Path(self.cfg["run"]["out"])


def _setup(config, **overrides) -> _Setup:
    """Each flag's value, unless None, replaces the run key of its name."""
    try:
        cfg = load_config(config)
    except ConfigError as exc:
        _fail_config(str(exc))
    run, dom = cfg["run"], cfg["domain"]
    run.update((key, value) for key, value in overrides.items() if value is not None)
    try:  # the library's own checks of the box, the depth and the exponents
        root = RootBox(tuple(float(v) for v in dom["origin"]), float(dom["side"]))
        family = DyadicGridFamily(root, run["depth"])
        require(cfg, "exponents.alpha", "exponents.p")
        e = ExponentTriple(dom["dimension"], float(cfg["exponents"]["alpha"]),
                           float(cfg["exponents"]["p"]))
    except (ConfigError, ValueError) as exc:
        _fail_config(str(exc))
    return _Setup(cfg, root, family, e, run["depth"], min(run["battery_depth"], run["depth"]))


def _command(fn):
    """A subcommand taking the config and its overrides; fn gets the _Setup."""
    @functools.wraps(fn)
    def command(**flags):
        return fn(_setup(**flags))
    for opt in reversed(_OPTIONS):
        command = opt(command)
    return main.command()(command)


def _center(x0):
    """A config x0 as a spec holds it: a name, or a tuple of float coordinates."""
    return tuple(float(v) for v in x0) if isinstance(x0, list) else x0


def _weight(s: _Setup) -> Weight:
    wc = s.cfg["weight"]
    spec = WeightSpec(wc["kind"], float(wc["gamma"]), _center(wc["x0"]), float(wc["low"]),
                      float(wc["high"]))
    try:  # the library's own checks of the weight, such as its integrability
        return materialize_weight(spec, s.root, s.depth)
    except ValueError as exc:
        _fail_config(str(exc))


def _function(s: _Setup) -> tuple[GridFunction, GridFunction]:
    """The configured function and its density: the weight's sigma, or the weight at p = 1."""
    w = _weight(s)
    sigma = w.base if s.e.p == 1 else w.sigma(s.e)
    fc = s.cfg["function"]
    box = fc.get("box") and tuple(map(tuple, fc["box"]))  # None or two checked corners
    spec = FunctionSpec(fc["kind"], box, float(fc["value"]))
    return materialize_function(spec, s.root, s.depth, sigma), sigma


def _write_meta(s: _Setup, scope=None) -> None:
    """Create the out directory and write the config as run; after a verify
    or sweep run, also the versions and the computed and reused counts of
    each shared result kind."""
    doc = dict(s.cfg)
    if scope is not None:
        doc["provenance"] = {
            "sparsefrac": __version__,
            "numpy": np.__version__,
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
        }
        doc["shared_results"] = {kind: {"computed": n, "reused": scope.reused[kind]}
                                 for kind, n in sorted(scope.computed.items())}
    s.out.mkdir(parents=True, exist_ok=True)
    write_json(doc, s.out / "run_meta.json")


@click.group(context_settings={"auto_envvar_prefix": "SPARSEFRAC"})
def main():
    """Dyadic-grid fractional integral machinery and inequality checks."""


@_command
def char(s: _Setup):
    """Weight characteristics over the cube battery."""
    e = s.e
    battery = workspace(s.root, s.depth, s.battery_depth).battery
    w = _weight(s)
    rows = {}
    if e.p == 1:
        rows["a1q_characteristic"] = a1q_characteristic(w, e, battery)
        rows["a1_of_v"] = a1_characteristic(w.v(e), battery)
    else:
        rows["apq_characteristic"] = apq_characteristic(w, e, battery)
        rows["ar_of_v"] = ap_characteristic(w.v(e), e.r, battery)
        rows["ar_prime_of_sigma"] = ap_characteristic(w.sigma(e), e.r_prime, battery)
        s_sigma, c_sigma = implied_reverse_holder_constant(w.sigma(e), e.r_prime, battery)
        rows["reverse_holder_of_sigma"] = s_sigma
        rows["implied_rh_constant_of_sigma"] = c_sigma
    rows["reverse_holder_of_v"] = reverse_holder_exponent(w.v(e), battery)
    _write_meta(s)
    for name, value in rows.items():
        click.echo(f"{name} {value:.17g}")
    if s.cfg["run"]["format"] == "json":
        write_json(rows, s.out / "characteristics.json")
    else:
        write_csv(s.out / "characteristics.csv", ["name", "value"], sorted(rows.items()))


@_command
def op(s: _Setup):
    """Apply one operator and write the output mesh function."""
    name = s.cfg["op"].get("name")
    if name is None:
        _fail_config("missing required key 'op.name'")
    f, sigma = _function(s)
    bc = s.cfg["commutator"]
    bump = functools.partial(materialize_bump, BumpSpec(bc["b"], _center(bc["x0"])), s.root,
                             s.depth)
    result = OPERATORS[name][1](f, sigma, s.e.alpha, YOUNG_FUNCTIONS[s.cfg["op"]["phi"]], bump,
                                s.family, s.cfg["op"]["grid"])
    _write_meta(s)
    path = s.out / f"op_{name}.bin"
    write_gridfunction(result.values, path)
    click.echo(f"{name}: wrote {path} (cube visits {result.cube_visits})")


@_command
def sparse(s: _Setup):
    """Extract the sparse family for the configured function and certify it."""
    f, _ = _function(s)
    family = sparse_select_for_operator(f, s.family, s.cfg["op"]["grid"])
    cert = certify_sparse(family, s.family, s.depth)
    _write_meta(s)
    write_json(sparse_family_doc(family, cert), s.out / "sparse_family.json")
    click.echo(
        f"sparse family: {len(family)} cubes, min density {cert.min_density:.6f}, "
        f"certificate {'ok' if cert.ok else 'VIOLATION'}"
    )
    if not cert.ok:
        click.echo(f"first violation: {cert.first_violation}", err=True)
        sys.exit(1)


def _batteries(s: _Setup, section: str, emit, **options) -> None:
    """Run the battery of every theorem in <section>.theorems in one run scope,
    with run_meta.json written before and after: an endpoint theorem at p = 1,
    any other at the configured p, which must exceed 1 for every theorem
    before the first runs.  emit(theorem, exponents, result) gets each result."""
    theorems = s.cfg[section].get("theorems")
    if not theorems:
        _fail_config(f"missing required key '{section}.theorems'")
    for theorem in theorems:
        if THEOREM_TABLE[theorem].p != "= 1" and s.e.p == 1:
            _fail_config(f"theorem {theorem} needs exponents.p > 1")
    endpoint = ExponentTriple(s.e.n, s.e.alpha, 1.0)
    _write_meta(s)
    with run_scope() as scope:
        for theorem in theorems:
            te = endpoint if THEOREM_TABLE[theorem].p == "= 1" else s.e
            result = run_battery(theorem, te, s.root, depth=s.depth,
                                 battery_depth=s.battery_depth,
                                 gammas=s.cfg[section]["gammas"], **options)
            emit(theorem, te, result)
    _write_meta(s, scope)


@_command
def verify(s: _Setup):
    """Run verification batteries; nonzero exit if any asserted case fails."""
    all_reports = []
    failed = []

    def emit(theorem, te, result):
        all_reports.extend(result.reports)
        click.echo(
            f"{theorem}: {len(result.reports)} cases, calibration "
            f"{result.calibration:.6g}, max measured {result.max_measured:.6g}, "
            f"{'pass' if result.all_passed else 'FAIL'}"
        )
        if not result.all_passed:
            failed.append(result.first_failure())

    _batteries(s, "verify", emit, threshold_factor=s.cfg["verify"]["threshold_factor"])
    if s.cfg["run"]["format"] == "json":
        write_reports_json(all_reports, s.out / "reports.json")
    else:
        write_reports_csv(all_reports, s.out / "reports.csv")
    if failed:
        first = failed[0]
        click.echo(
            f"first failing case: {first.case_id} measured "
            f"{first.measured_constant:.6g} threshold {first.extra['threshold']:.6g}",
            err=True,
        )
        sys.exit(1)


@_command
def sweep(s: _Setup):
    """Gamma sweeps with plot-data export and slope fits."""

    def emit(theorem, te, result):
        path = s.out / f"sweep_{theorem}.csv"
        slope = write_sweep_csv(result, path)
        fit = "slope undefined (fewer than two gammas)" if slope is None else f"slope {slope:.4f}"
        power = THEOREM_TABLE[theorem].power(te)
        click.echo(f"{theorem}: {fit} (stated exponent {power:.4f}), wrote {path}")

    _batteries(s, "sweep", emit)


if __name__ == "__main__":
    main()
