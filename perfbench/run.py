"""sparsefrac benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload battery-1d --seed 0 --seconds 40 --trace 0

Run from any directory; the program is imported from ``src/`` of the
checkout that holds this file.  Each pass runs in a fresh worker process
(see worker.py), one after another: a closed loop with one client and
jobs = 1.  Passes repeat until another one would end more than half a pass
after ``--seconds``, but never fewer than needed for 200 items.  Extra
set-up-only workers bring the set-up samples to fifteen.  With ``--trace 1``
untraced and traced passes alternate, in pairs, with no item minimum; the
traced passes give the per-layer metrics, and the difference of their
median wall time to the untraced passes' is the tracing overhead.  Times
are normalised to a reference host pace (see pace.py); the raw times are
printed too.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``).
The lines before it print every metric by name with its unit, the
provenance, and any failed check.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
BLAS_THREADS = 1
for _var in THREAD_VARS:
    os.environ[_var] = str(BLAS_THREADS)  # before numpy is imported

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # the benchmark writes only under .perfbench/

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 15
HARD_LIMIT_S = 165.0  # the whole run must end well within 180 s

E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_p95_ms": "ms",
    "peak_rss_mb": "MB",
    "failed_ratio": "1",
}


def _parse():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny meshes and no minimum item count (self-test only)")
    ap.add_argument("--perturb", choices=("report", "operator"),
                    help="corrupt one output before it is checked (self-test only)")
    return ap.parse_args()


class Runner:
    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
        self.env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
        self.count = 0

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def worker(self, *, trace=0, setup_only=False, oracle=False, perturb=None, spans=None):
        """Run one fresh worker process and return its result document."""
        self.count += 1
        tag = f"w{self.count}"
        result = self.workdir / f"{tag}.json"
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--result", str(result), "--workdir", str(self.workdir / tag),
               "--trace", str(trace)]
        cmd += ["--setup-only"] if setup_only else []
        cmd += ["--oracle"] if oracle else []
        cmd += ["--smoke"] if self.args.smoke else []
        cmd += ["--perturb", perturb] if perturb else []
        cmd += ["--spans", str(spans)] if spans else []
        started = time.perf_counter()
        budget = max(HARD_LIMIT_S - self.elapsed(), 1.0)
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=budget)
        except subprocess.TimeoutExpired:
            sys.exit(f"perfbench: worker exceeded the {HARD_LIMIT_S:.0f} s run limit")
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(proc.stderr[-4000:])
            sys.exit(f"perfbench: worker failed with exit code {proc.returncode}")
        doc = json.loads(result.read_text())
        doc["process_s"] = time.perf_counter() - started
        return doc

    def passes(self) -> list[dict]:
        """Timed passes: at least one (a pair when tracing), then more while
        the time budget lasts or fewer than MIN_ITEMS untraced items were
        timed.  A traced run gives per-layer metrics, which need no minimum."""
        args = self.args
        min_items = 1 if args.smoke or args.trace else workloads.MIN_ITEMS
        step = 2 if args.trace else 1  # with --trace 1, passes come in pairs
        spans = ROOT / ".perfbench" / f"spans-{args.workload}.csv.gz" if args.trace else None
        done: list[dict] = []
        spent = 0.0
        while True:
            # with --trace 1, untraced and traced passes alternate
            traced = bool(args.trace and len(done) % 2)
            doc = self.worker(trace=int(traced), oracle=not done,
                              perturb=args.perturb if not done else None,
                              spans=spans if traced else None)
            done.append(doc)
            spent += doc["process_s"] - doc["check_s"]
            if len(done) % step:
                continue
            typical = step * statistics.median(d["process_s"] - d["check_s"] for d in done)
            items = sum(len(d["item_s"]) for d in done if not d["trace"])
            if self.elapsed() + 1.2 * typical > HARD_LIMIT_S:
                break
            # stop when another step would end more than half a step late
            if items >= min_items and spent + typical / 2 > args.seconds:
                break
        return done

    def setup_samples(self, done: list[dict]) -> list[dict]:
        samples = [d for d in done if not d["trace"]]
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.worker(setup_only=True))
        return samples


def _mark_nondeterministic(done: list[dict]) -> None:
    """family-ops: a later pass must reproduce the oracle-checked first pass."""
    first = done[0].get("output_digests")
    if first is None:
        return
    for doc in done[1:]:
        for i, key in enumerate(doc["item_keys"]):
            if doc["output_digests"].get(key) != first.get(key):
                doc["item_ok"][i] = False
                doc["problems"].append(f"{key}: output differs from the first pass")


def provenance(args) -> dict:
    import numpy as np

    def cache_size(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=5)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    git_sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        git_sha = out.stdout.strip() or None
    doc = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "longdouble_eps": float(np.finfo(np.longdouble).eps),
        "git_sha": git_sha or "unknown (not a git checkout)",
        "seed": args.seed,
        "blas_threads": BLAS_THREADS,
        "l2_bytes": cache_size("LEVEL2_CACHE_SIZE"),
        "l3_bytes": cache_size("LEVEL3_CACHE_SIZE"),
        "working_set_bytes": workloads.working_set_bytes(args.workload, args.smoke),
    }
    if args.workload in workloads.TRIPLES:
        doc["alpha"], doc["p"] = workloads.triple_for(args.workload, args.seed)
    return doc


def _quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def times(done: list[dict], setups: list[dict], raw: bool = False) -> dict:
    """The time metrics over the untraced passes: normalised to the
    reference host pace (see pace.py), or as measured with ``raw``."""
    pre = "raw_" if raw else ""
    untraced = [d for d in done if not d["trace"]]
    items = [t for d in untraced for t in d[pre + "item_s"]]
    return {
        "setup_s": statistics.median(d[pre + "setup_s"] for d in setups),
        "wall_s": statistics.median(d[pre + "wall_s"] for d in untraced),
        "item_p50_ms": 1e3 * statistics.median(items),
        "item_p95_ms": 1e3 * _quantile(items, 95),
    }


def end_to_end(done: list[dict], setups: list[dict], failed: int, attempted: int) -> dict:
    untraced = [d for d in done if not d["trace"]]
    return {
        **times(done, setups),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in untraced),
        "failed_ratio": failed / attempted,
    }


def layers(done: list[dict]) -> dict:
    traced = [d["layers"] for d in done if d["trace"]]
    return {k: statistics.median(t[k] for t in traced) for k in tracer.LAYER_METRICS}


def _declared(trace: int) -> dict[str, str]:
    """Metric names and units the final JSON line carries, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    args = _parse()
    for need in (ROOT / "src" / "sparsefrac" / "__init__.py", ROOT / "tests" / "oracles.py"):
        if not need.exists():
            sys.exit(f"perfbench: {need.relative_to(ROOT)} is missing; run from a "
                     "full sparsefrac checkout")
    runner = Runner(args)
    runner.workdir.mkdir(parents=True, exist_ok=True)
    try:
        done = runner.passes()
        setups = runner.setup_samples(done)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    _mark_nondeterministic(done)

    attempted = sum(len(d["item_ok"]) for d in done)
    failed = sum(not ok for d in done for ok in d["item_ok"])
    correct = attempted > 0 and failed == 0
    e2e = end_to_end(done, setups, failed, max(attempted, 1))
    prov = provenance(args)
    untraced_items = sum(len(d["item_s"]) for d in done if not d["trace"])

    print(f"perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(done)} passes, {attempted} items, {len(setups)} set-ups")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for name, value in e2e.items():
        extra = f"  (n={untraced_items} items)" if name.startswith("item_") else ""
        if name == "failed_ratio":
            extra = f"  ({failed} of {attempted} items)"
        print(f"metric {name} {value:.6g} {E2E_UNITS[name]}{extra}")
    raw = times(done, setups, raw=True)
    pace_ms = statistics.median(d["pace_ms"] for d in done if not d["trace"])
    for name, value in raw.items():
        print(f"raw {name} {value:.6g} {E2E_UNITS[name]}  (as measured, not normalised)")
    print(f"pace probe_ms {pace_ms:.6g} ms  (median probe time of the untraced passes; "
          f"reference {1e3 * pace.REFERENCE_S:g} ms)")
    for doc in done:
        for problem in doc["problems"]:
            print(f"check: {problem}")

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "provenance": prov, "end_to_end": e2e, "passes": len(done),
              "attempted": attempted, "failed": failed, "raw_times": raw,
              "pace_ms": pace_ms, "setup_samples_s": [d["setup_s"] for d in setups],
              "pass_detail": [{k: d[k] for k in ("trace", "wall_s", "raw_wall_s", "pace_ms",
                                                 "peak_rss_mb", "item_s", "raw_item_s")}
                              for d in done]}
    if args.trace:
        layer = layers(done)
        traced_wall = statistics.median(d["wall_s"] for d in done if d["trace"])
        overhead = traced_wall - e2e["wall_s"]
        for name, unit in tracer.LAYER_METRICS.items():
            print(f"layer {name} {layer[name]:.6g} {unit}")
        print(f"trace overhead_s {overhead:.6g} s  (traced wall_s {traced_wall:.6g} s, "
              f"untraced {e2e['wall_s']:.6g} s, {100 * overhead / e2e['wall_s']:.1f} %)")
        result.update(layers=layer, trace_overhead_s=overhead)
        values = layer
    else:
        values = e2e
    out_dir = ROOT / ".perfbench"
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n")
    declared = _declared(args.trace)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in declared.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
