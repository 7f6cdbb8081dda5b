"""Self-test of the benchmark on tiny meshes (about half a minute).

    python3 perfbench/selftest.py

Checks that every workload prints every end-to-end metric (untraced) and
every per-layer metric (traced) by name with its unit, that the final JSON
line carries the metrics BENCHMARK.json declares, that clean runs report
no failures, and that a perturbed operator output and a perturbed report
row are each caught, raising ``failed_ratio`` above 0.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

LAYERS = ("grid", "weights", "orlicz", "operators", "sparse", "verify", "cli")


def bench(workload: str, trace: int, perturb: str | None = None):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    cmd += ["--perturb", perturb] if perturb else []
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        kind, *rest = line.split()
        if kind in ("metric", "layer"):
            printed[rest[0]] = (float(rest[1]), rest[2])
    return printed, json.loads(lines[-1])


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)


def main():
    expect(len(run.E2E_UNITS) == 6, "six end-to-end metrics")
    expect({name.split(".")[0] for name in tracer.LAYER_METRICS} == set(LAYERS),
           "every layer has metrics")
    for workload in workloads.WORKLOADS:
        for trace, names in ((0, run.E2E_UNITS), (1, tracer.LAYER_METRICS)):
            printed, result = bench(workload, trace)
            for name, unit in names.items():
                expect(name in printed, f"{workload} trace {trace}: {name} not printed")
                expect(printed[name][1] == unit,
                       f"{workload}: {name} printed in {printed[name][1]}, not {unit}")
            declared = run._declared(trace)
            expect(set(result["metrics"]) == set(declared),
                   f"{workload} trace {trace}: JSON metrics differ from BENCHMARK.json")
            expect(result["correct"] and result["failed"] == 0,
                   f"{workload} trace {trace}: clean run reported failures")
            expect(trace or printed["failed_ratio"][0] == 0.0, f"{workload}: failed_ratio")
        print(f"ok {workload}: all metrics printed with units, no failures", flush=True)
    for workload, perturb in (("family-ops", "operator"), ("battery-1d", "report"),
                              ("battery-2d", "report")):
        printed, result = bench(workload, 0, perturb)
        expect(printed["failed_ratio"][0] > 0 and result["failed"] > 0
               and not result["correct"], f"{workload}: perturbed {perturb} not caught")
        print(f"ok {workload}: perturbed {perturb} raises failed_ratio to "
              f"{printed['failed_ratio'][0]:.4g}", flush=True)


if __name__ == "__main__":
    main()
