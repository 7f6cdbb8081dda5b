"""One pass of one workload in a fresh process, started by run.py.

A fresh process per pass keeps the module-global caches in
``sparsefrac.verify`` empty at the start, as they are for every CLI
invocation.  The worker times its own imports and input generation
(set-up), then the pass, then checks the outputs untimed, and writes one
JSON document to the path given by ``--result``.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is imported

from time import perf_counter  # noqa: E402

_T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import pace  # noqa: E402


def _parse():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--oracle", action="store_true",
                    help="compare outputs with the brute-force references")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--perturb", choices=["report", "operator"])
    ap.add_argument("--spans", help="write the traced spans here (gzip CSV)")
    return ap.parse_args()


def _setup_battery(args):
    import yaml

    import sparsefrac.cli  # noqa: F401  (import cost belongs to set-up)
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    cfg = workloads.battery_config(args.workload, args.seed, str(workdir / "out"), args.smoke)
    path = workdir / "config.yaml"
    path.write_text(yaml.safe_dump(cfg, sort_keys=True))
    return path


def _run_battery(args, config_path):
    """One in-process ``sparsefrac verify``; an item is one verify_case call."""
    import sparsefrac.cli as cli
    import sparsefrac.verify as verify

    times, probes, item_reports = [], [pace.probe()], []
    inner = verify.verify_case

    def timed_case(case):
        start = perf_counter()
        reports = inner(case)
        times.append(perf_counter() - start)
        probes.append(pace.probe())
        item_reports.append([(r.theorem, r.case_id) for r in reports])
        return reports

    verify.verify_case = timed_case
    error = None
    start = perf_counter()
    try:
        cli.main(["verify", "--config", str(config_path)], standalone_mode=False)
    except SystemExit as exc:
        if exc.code:
            error = f"sparsefrac verify exited with {exc.code}"
    except Exception:  # the pass must still report what it attempted
        error = traceback.format_exc()
    wall = perf_counter() - start
    verify.verify_case = inner
    return pace.normalise_pass(wall, times, probes), item_reports, error


def _check_battery(args, item_reports, error):
    import checks
    import workloads

    reports_path = Path(args.workdir) / "out" / "reports.csv"
    lines = reports_path.read_text().splitlines() if reports_path.exists() else []
    if args.perturb == "report" and len(lines) > 1:
        head, lhs, rest = _split_lhs(lines[1])
        lines[1] = f"{head},{float(lhs) * (1 + 1e-9)!r},{rest}"
    name = workloads.reference_name(args.workload, args.seed, args.smoke)
    reference = checks.load_reference_reports(name)
    ok, problems = checks.check_battery_reports(lines, item_reports, reference)
    if reference is None:
        problems.append(f"no recorded reports {name}: verdicts checked only")
    if error is not None:
        ok = [False] * len(ok)
        problems.insert(0, error)
    return ok, problems, {}


def _split_lhs(row):
    """(columns before lhs, lhs, columns after) of one reports.csv row; the
    case id may hold commas, so split from the right."""
    head, lhs, *rest = row.rsplit(",", 4)
    return head, lhs, ",".join(rest)


def _run_family(inputs):
    import workloads

    times, probes, results, keys, ops, errors = [], [pace.probe()], [], [], [], []
    start = perf_counter()
    for inp in inputs:
        for key, op, thunk in workloads.family_items(inp):
            t = perf_counter()
            try:
                result, err = thunk(), None
            except Exception:  # a raising item counts as failed, the pass goes on
                result, err = None, traceback.format_exc(limit=3)
            times.append(perf_counter() - t)
            probes.append(pace.probe())
            results.append((inp, result))
            keys.append(key)
            ops.append(op)
            errors.append(err)
    wall = perf_counter() - start
    return pace.normalise_pass(wall, times, probes), keys, ops, results, errors


def _check_family(args, keys, ops, results, errors):
    import checks

    if args.perturb == "operator":  # self-test: a wrong output must be caught
        out = results[ops.index("dyadic_fractional_integral")][1]
        cells = out.cells.copy()
        cells.flat[0] *= 1.0 + 1e-9
        out.values = out.values.with_cells(cells)
    digests = checks.load_family_digests(args.smoke).get(str(args.seed))
    ok, problems, out_digests = [], [], {}
    if digests is None:
        problems.append(f"no recorded cube-set digests for seed {args.seed}")
        digests = {}
    families = {}
    for key, op, (inp, result), err in zip(keys, ops, results, errors):
        good, why = err is None, err or ""
        if good:
            out_digests[key] = checks.output_digest(result)
            if op == "sparse_select_for_operator":
                families[key.rsplit("/", 1)[0]] = result
            want = digests.get(key)
            if want is not None and want != checks.cube_set_digest(result):
                good, why = False, "cube-set digest differs from the reference"
        if good and args.oracle:
            family = families.get(key.rsplit("/", 1)[0])
            good, why = checks.check_family_item(op, result, inp, family)
        ok.append(good)
        if not good and len(problems) < 5:
            problems.append(f"{key}: {why}")
    return ok, problems, {"item_keys": keys, "output_digests": out_digests}


def main():
    args = _parse()
    here = Path(__file__).resolve().parent
    root = here.parent
    sys.path[:0] = [str(root / "src"), str(root), str(here)]
    doc = {"workload": args.workload, "seed": args.seed, "trace": args.trace}

    tracer = None
    if args.trace:
        import tracer as tracing

        import sparsefrac.cli  # noqa: F401  (every module loaded before patching)
        tracer = tracing.Tracer()
        tracer.install()
    if args.workload == "family-ops":
        import workloads
        inputs = workloads.family_inputs(args.seed, args.smoke)
    else:
        config_path = _setup_battery(args)
    doc["raw_setup_s"] = perf_counter() - _T0
    doc["setup_s"] = doc["raw_setup_s"] * pace.REFERENCE_S / pace.settle()
    if args.setup_only:
        _write(args.result, doc)
        return

    if args.workload == "family-ops":
        timing, keys, ops, results, errors = _run_family(inputs)
    else:
        timing, item_reports, error = _run_battery(args, config_path)
    doc["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    doc.update(timing)
    if tracer is not None:
        tracer.uninstall()
        # per-layer times in the same host-pace unit as the pass's times
        scale = pace.REFERENCE_S / (doc["pace_ms"] / 1e3)
        doc["layers"] = {name: value * scale if tracing.LAYER_METRICS[name] == "s" else value
                         for name, value in tracer.layer_metrics().items()}
        if args.spans:
            tracer.write_spans(args.spans)
        tracer = None

    check_start = perf_counter()
    if args.workload == "family-ops":
        ok, problems, extra = _check_family(args, keys, ops, results, errors)
    else:
        ok, problems, extra = _check_battery(args, item_reports, error)
    doc.update(extra)
    doc["item_ok"] = ok
    doc["problems"] = problems
    doc["check_s"] = perf_counter() - check_start
    _write(args.result, doc)


def _write(path, doc):
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh)
    os.replace(tmp, path)


if __name__ == "__main__":
    main()
