"""Command-line front end: operators, sparse families, characteristics,
verification batteries, and sweep data, all driven by a YAML config.

Exit codes: 0 on success, 1 when an asserted inequality fails (the first
failing case is printed), 2 on configuration errors.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import click

from .config import ConfigError, load_config, require
from .grid import RootBox, write_gridfunction
from .operators import (
    commutator_1d,
    dyadic_commutator,
    dyadic_fractional_integral,
    dyadic_fractional_maximal,
    fractional_maximal,
    riesz_potential_1d,
    weighted_orlicz_fractional_maximal,
)
from .orlicz import LLOG, POWER1
from .sparse import certify_sparse, sparse_family_to_json, sparse_select_for_operator
from .verify import (
    CHARACTERISTIC_POWERS,
    materialize_bump,
    materialize_function,
    materialize_weight,
    run_battery,
    sweep_slope,
    workspace,
    write_reports_csv,
    write_reports_json,
    write_sweep_csv,
    BumpSpec,
    FunctionSpec,
    WeightSpec,
)
from .weights import (
    ExponentTriple,
    a1_characteristic,
    a1q_characteristic,
    ap_characteristic,
    apq_characteristic,
    implied_reverse_holder_constant,
    reverse_holder_exponent,
)

_CONFIG_OPT = click.option(
    "--config", "config_path", required=True, type=click.Path(exists=True),
    help="YAML experiment config",
)
_COMMON = [
    click.option("--out", "out_dir", default=None, help="output directory"),
    click.option("--seed", default=None, type=int, help="random seed override"),
    click.option("--depth", default=None, type=int, help="mesh depth K override"),
    click.option("--format", "fmt", default=None,
                 type=click.Choice(["csv", "json"]), help="report format"),
]


def _common(fn):
    for opt in reversed(_COMMON):
        fn = opt(fn)
    return _CONFIG_OPT(fn)


def _load(config_path, out_dir, seed, depth, fmt) -> dict:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        click.echo(f"config error: {exc}", err=True)
        sys.exit(2)
    run = cfg["run"]
    if out_dir is not None:
        run["out"] = out_dir
    if seed is not None:
        run["seed"] = seed
    if depth is not None:
        run["depth"] = depth
    if fmt is not None:
        run["format"] = fmt
    return cfg


def _fail_config(message: str):
    click.echo(f"config error: {message}", err=True)
    sys.exit(2)


def _root(cfg) -> RootBox:
    dom = cfg["domain"]
    if len(dom["origin"]) != dom["dimension"]:
        _fail_config("domain.origin length must match domain.dimension")
    return RootBox(tuple(float(v) for v in dom["origin"]), float(dom["side"]))


def _exponents(cfg) -> ExponentTriple:
    try:
        require(cfg, "exponents.alpha", "exponents.p")
        return ExponentTriple(
            cfg["domain"]["dimension"],
            float(cfg["exponents"]["alpha"]),
            float(cfg["exponents"]["p"]),
        )
    except (ConfigError, ValueError) as exc:
        _fail_config(str(exc))


def _weight_spec(cfg) -> WeightSpec:
    wc = cfg["weight"]
    x0 = wc["x0"]
    if isinstance(x0, list):
        x0 = tuple(float(v) for v in x0)
    return WeightSpec(wc["kind"], float(wc["gamma"]), x0,
                      float(wc["low"]), float(wc["high"]))


def _function_spec(cfg) -> FunctionSpec:
    fc = cfg["function"]
    box = fc.get("box")
    if fc["kind"] in ("indicator", "sigma_probe"):
        if box is None:
            _fail_config("missing required key 'function.box'")
        box = (tuple(float(v) for v in box[0]), tuple(float(v) for v in box[1]))
    return FunctionSpec(fc["kind"], box, float(fc["value"]))


def _outdir(cfg) -> Path:
    out = Path(cfg["run"]["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_meta(cfg, out: Path) -> None:
    with open(out / "run_meta.json", "w") as fh:
        json.dump(cfg, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


@click.group(context_settings={"auto_envvar_prefix": "SPARSEFRAC"})
def main():
    """Dyadic-grid fractional integral machinery and inequality checks."""


@main.command()
@_common
def char(config_path, out_dir, seed, depth, fmt):
    """Weight characteristics over the cube battery."""
    cfg = _load(config_path, out_dir, seed, depth, fmt)
    root = _root(cfg)
    e = _exponents(cfg)
    run = cfg["run"]
    ws = workspace(root, run["depth"], min(run["battery_depth"], run["depth"]))
    w = materialize_weight(_weight_spec(cfg), root, run["depth"])
    rows = {}
    if e.p == 1:
        rows["a1q_characteristic"] = a1q_characteristic(w, e, ws.battery)
        rows["a1_of_v"] = a1_characteristic(w.v(e), ws.battery)
    else:
        rows["apq_characteristic"] = apq_characteristic(w, e, ws.battery)
        rows["ar_of_v"] = ap_characteristic(w.v(e), e.r, ws.battery)
        rows["ar_prime_of_sigma"] = ap_characteristic(w.sigma(e), e.r_prime, ws.battery)
        s_sigma, c_sigma = implied_reverse_holder_constant(w.sigma(e), e.r_prime, ws.battery)
        rows["reverse_holder_of_sigma"] = s_sigma
        rows["implied_rh_constant_of_sigma"] = c_sigma
    rows["reverse_holder_of_v"] = reverse_holder_exponent(w.v(e), ws.battery)
    out = _outdir(cfg)
    _write_meta(cfg, out)
    for name, value in rows.items():
        click.echo(f"{name} {value:.17g}")
    if run["format"] == "json":
        with open(out / "characteristics.json", "w") as fh:
            json.dump(rows, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(out / "characteristics.csv", "w") as fh:
            fh.write("name,value\n")
            for name, value in sorted(rows.items()):
                fh.write(f"{name},{value:.17g}\n")


_OPERATORS = (
    "riesz_potential",
    "dyadic_fractional_integral",
    "dyadic_fractional_maximal",
    "fractional_maximal",
    "weighted_orlicz_fractional_maximal",
    "commutator",
    "dyadic_commutator",
)


@main.command()
@_common
def op(config_path, out_dir, seed, depth, fmt):
    """Apply one operator and write the output mesh function."""
    cfg = _load(config_path, out_dir, seed, depth, fmt)
    root = _root(cfg)
    e = _exponents(cfg)
    run = cfg["run"]
    name = cfg["op"].get("name")
    if name is None:
        _fail_config("missing required key 'op.name'")
    if name not in _OPERATORS:
        _fail_config(f"op.name must be one of {', '.join(_OPERATORS)}")
    ws = workspace(root, run["depth"], min(run["battery_depth"], run["depth"]))
    gid = cfg["op"]["grid"]
    w = materialize_weight(_weight_spec(cfg), root, run["depth"])
    sigma = w.base if e.p == 1 else w.sigma(e)
    f = materialize_function(_function_spec(cfg), root, run["depth"], sigma)
    if name == "riesz_potential":
        result = riesz_potential_1d(f, e.alpha)
    elif name == "dyadic_fractional_integral":
        result = dyadic_fractional_integral(f, e.alpha, ws.family, gid)
    elif name == "dyadic_fractional_maximal":
        result = dyadic_fractional_maximal(f, e.alpha, ws.family, gid)
    elif name == "fractional_maximal":
        result = fractional_maximal(f, e.alpha, ws.family)
    elif name == "weighted_orlicz_fractional_maximal":
        phi = {"power1": POWER1, "llog": LLOG}[cfg["op"]["phi"]]
        result = weighted_orlicz_fractional_maximal(f, sigma, e.alpha, phi, ws.family, gid)
    else:
        b = materialize_bump(BumpSpec(cfg["commutator"]["b"], cfg["commutator"]["x0"]),
                             root, run["depth"])
        if name == "commutator":
            result = commutator_1d(b, f, e.alpha)
        else:
            result = dyadic_commutator(b, f, e.alpha, ws.family, gid)
    out = _outdir(cfg)
    _write_meta(cfg, out)
    path = out / f"op_{name}.bin"
    write_gridfunction(result.values, path)
    click.echo(f"{name}: wrote {path} (cube visits {result.cube_visits})")


@main.command()
@_common
def sparse(config_path, out_dir, seed, depth, fmt):
    """Extract the sparse family for the configured function and certify it."""
    cfg = _load(config_path, out_dir, seed, depth, fmt)
    root = _root(cfg)
    e = _exponents(cfg)
    run = cfg["run"]
    ws = workspace(root, run["depth"], min(run["battery_depth"], run["depth"]))
    w = materialize_weight(_weight_spec(cfg), root, run["depth"])
    sigma = w.base if e.p == 1 else w.sigma(e)
    f = materialize_function(_function_spec(cfg), root, run["depth"], sigma)
    gid = cfg["op"]["grid"]
    family = sparse_select_for_operator(f, ws.family, gid)
    cert = certify_sparse(family, ws.family, run["depth"])
    out = _outdir(cfg)
    _write_meta(cfg, out)
    path = out / "sparse_family.json"
    with open(path, "w") as fh:
        fh.write(sparse_family_to_json(family, cert) + "\n")
    click.echo(
        f"sparse family: {len(family)} cubes, min density {cert.min_density:.6f}, "
        f"certificate {'ok' if cert.ok else 'VIOLATION'}"
    )
    if not cert.ok:
        click.echo(f"first violation: {cert.first_violation}", err=True)
        sys.exit(1)


def _theorem_exponents(theorem: str, e: ExponentTriple) -> ExponentTriple:
    # the endpoint inequality lives at p = 1 with the same alpha
    if theorem == "weak_1q" and e.p != 1:
        return ExponentTriple(e.n, e.alpha, 1.0)
    return e


@main.command()
@_common
def verify(config_path, out_dir, seed, depth, fmt):
    """Run verification batteries; nonzero exit if any asserted case fails."""
    cfg = _load(config_path, out_dir, seed, depth, fmt)
    root = _root(cfg)
    e = _exponents(cfg)
    run = cfg["run"]
    theorems = cfg["verify"].get("theorems")
    if not theorems:
        _fail_config("missing required key 'verify.theorems'")
    out = _outdir(cfg)
    _write_meta(cfg, out)
    all_reports = []
    failed = None
    for theorem in theorems:
        te = _theorem_exponents(theorem, e)
        if theorem != "weak_1q" and te.p == 1:
            _fail_config(f"theorem {theorem} needs exponents.p > 1")
        result = run_battery(
            theorem, te, root,
            depth=run["depth"],
            battery_depth=min(run["battery_depth"], run["depth"]),
            gammas=cfg["verify"]["gammas"],
            threshold_factor=cfg["verify"]["threshold_factor"],
        )
        all_reports.extend(result.reports)
        click.echo(
            f"{theorem}: {len(result.reports)} cases, calibration "
            f"{result.calibration:.6g}, max measured {result.max_measured:.6g}, "
            f"{'pass' if result.all_passed else 'FAIL'}"
        )
        if failed is None and not result.all_passed:
            failed = result.first_failure()
    if run["format"] == "json":
        write_reports_json(all_reports, out / "reports.json")
    else:
        write_reports_csv(all_reports, out / "reports.csv")
    if failed is not None:
        click.echo(
            f"first failing case: {failed.case_id} measured "
            f"{failed.measured_constant:.6g} threshold {failed.extra['threshold']:.6g}",
            err=True,
        )
        sys.exit(1)


@main.command()
@_common
def sweep(config_path, out_dir, seed, depth, fmt):
    """Gamma sweeps with plot-data export and slope fits."""
    cfg = _load(config_path, out_dir, seed, depth, fmt)
    root = _root(cfg)
    e = _exponents(cfg)
    run = cfg["run"]
    theorems = cfg["sweep"].get("theorems")
    if not theorems:
        _fail_config("missing required key 'sweep.theorems'")
    out = _outdir(cfg)
    _write_meta(cfg, out)
    for theorem in theorems:
        if theorem not in CHARACTERISTIC_POWERS:
            _fail_config(f"theorem {theorem} has no characteristic to sweep")
        te = _theorem_exponents(theorem, e)
        result = run_battery(
            theorem, te, root,
            depth=run["depth"],
            battery_depth=min(run["battery_depth"], run["depth"]),
            gammas=cfg["sweep"]["gammas"],
        )
        path = out / f"sweep_{theorem}.csv"
        slope = write_sweep_csv(result, path)
        power = CHARACTERISTIC_POWERS[theorem](te)
        click.echo(
            f"{theorem}: slope {slope:.4f} (stated exponent {power:.4f}), wrote {path}"
        )


if __name__ == "__main__":
    main()
