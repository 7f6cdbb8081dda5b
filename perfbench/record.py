"""Record the reference data the checks compare against, and the baseline.

    python3 perfbench/record.py references   # reports and cube-set digests
    python3 perfbench/record.py baseline     # one full run of every workload

References pin the program's outputs at the commit they are recorded on:
battery reports per (alpha, p) pair, so every seed is covered, and the
cube-set digests of the family-ops sparse families and stopping cubes for
seeds 0..DIGEST_SEEDS-1.  Re-record only when a change is meant to alter
those outputs, and say so in the change.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import gzip  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402

DIGEST_SEEDS = 64


def record_reports(smoke: bool) -> None:
    import yaml

    from sparsefrac import cli

    for workload, triples in workloads.TRIPLES.items():
        for seed in range(len(triples)):
            with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
                cfg = workloads.battery_config(workload, seed, f"{tmp}/out", smoke)
                path = Path(tmp) / "config.yaml"
                path.write_text(yaml.safe_dump(cfg, sort_keys=True))
                cli.main(["verify", "--config", str(path)], standalone_mode=False)
                data = (Path(tmp) / "out" / "reports.csv").read_bytes()
            name = workloads.reference_name(workload, seed, smoke)
            with open(checks.REFERENCE_DIR / f"{name}.csv.gz", "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(data)
            print(f"recorded {name}", flush=True)


def record_digests(smoke: bool) -> None:
    out = {}
    for seed in range(DIGEST_SEEDS):
        per = {}
        for inp in workloads.family_inputs(seed, smoke):
            for key, op, thunk in workloads.family_items(inp):
                if op in ("sparse_select_for_operator", "cz_stopping_cubes"):
                    per[key] = checks.cube_set_digest(thunk())
        out[str(seed)] = per
    path = checks.REFERENCE_DIR / f"family-ops-{'smoke' if smoke else 'full'}-digests.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    print(f"recorded {path.name}", flush=True)


def record_baseline(seconds: int = 40) -> None:
    runs = []
    for workload in workloads.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", "0", "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
            print(proc.stdout, flush=True)
            result = json.loads(
                (ROOT / ".perfbench" / f"result-{workload}-trace{trace}.json").read_text())
            for detail in result["pass_detail"]:
                del detail["item_s"], detail["raw_item_s"]  # these stay in .perfbench/
            runs.append(result)
    doc = {"command": "python3 perfbench/run.py --workload <w> --seed 0 "
                      f"--seconds {seconds} --trace <0|1>",
           "runs": runs}
    (HERE / "baseline.json").write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main():
    what = sys.argv[1] if len(sys.argv) > 1 else ""
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    if what == "references":
        checks.REFERENCE_DIR.mkdir(exist_ok=True)
        for smoke in (True, False):
            record_reports(smoke)
            record_digests(smoke)
    elif what == "baseline":
        record_baseline()
    else:
        sys.exit("usage: record.py references | baseline")


if __name__ == "__main__":
    main()
