import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import sparsefrac
from sparsefrac import config, operators, verify
from sparsefrac.cli import main
from sparsefrac.config import ConfigError, load_config
from sparsefrac.grid import read_gridfunction
from sparsefrac.sparse import sparse_family_from_json


BASE_CONFIG = """\
run:
  depth: 6
  battery_depth: 4
  out: {out}
domain:
  dimension: 1
  origin: [0.0]
  side: 1.0
exponents:
  alpha: 0.3333333333333333
  p: 2.0
weight:
  kind: {weight_kind}
  gamma: -0.2
  x0: third
verify:
  theorems: [strong_pq, weak_1q]
  gammas: 3
sweep:
  theorems: [strong_pq]
  gammas: 3
op:
  name: dyadic_fractional_integral
  grid: 0
"""


@pytest.fixture()
def runner():
    return CliRunner()


def write_config(tmp_path, weight_kind="power", **extra):
    out = tmp_path / "out"
    text = BASE_CONFIG.format(out=out, weight_kind=weight_kind)
    for block in extra.values():
        text += block
    path = tmp_path / "config.yaml"
    path.write_text(text)
    return path, out


class TestChar:
    def test_unit_weight_prints_one(self, runner, tmp_path):
        path, out = write_config(tmp_path, weight_kind="constant")
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 0, result.output
        line = [l for l in result.output.splitlines() if l.startswith("apq")][0]
        assert float(line.split()[1]) == pytest.approx(1.0, abs=1e-12)
        assert (out / "characteristics.csv").exists()

    def test_json_format(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["char", "--config", str(path), "--format", "json"])
        assert result.exit_code == 0
        doc = json.loads((out / "characteristics.json").read_text())
        assert doc["apq_characteristic"] > 1.0


class TestVerify:
    def test_battery_passes_and_writes_csv(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 0, result.output
        lines = (out / "reports.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header[-1] == "passed"
        assert all(row.split(",")[-1] == "true" for row in lines[1:])

    def test_determinism_byte_identical(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        runner.invoke(main, ["verify", "--config", str(path), "--seed", "0"])
        first = (out / "reports.csv").read_bytes()
        runner.invoke(main, ["verify", "--config", str(path), "--seed", "0"])
        assert (out / "reports.csv").read_bytes() == first

    def test_run_meta_records_versions_and_shared_counts(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        assert runner.invoke(main, ["verify", "--config", str(path)]).exit_code == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["provenance"] == {
            "sparsefrac": sparsefrac.__version__,
            "numpy": np.__version__,
            "longdouble_eps": float(np.finfo(np.longdouble).eps),
        }
        shared = meta["shared_results"]
        assert set(shared) == {"dyadic_fractional_integral", "sparse_select_for_operator",
                               "workspace", "weight", "function",
                               "a1q_characteristic", "apq_characteristic"}
        assert all(c["computed"] > 0 for c in shared.values())
        assert meta["verify"]["theorems"] == ["strong_pq", "weak_1q"]
        assert verify._WORKSPACE_CACHE == {} == verify._WEIGHT_CACHE and verify._SCOPE is None

    def test_each_repeated_result_computed_once(self, runner, tmp_path, monkeypatch):
        # all seven theorems in one run: one commutator per distinct (b, f),
        # and cube_summation reuses the gauge rows of maximal_pq
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "theorems: [strong_pq, weak_1q]",
            "theorems: [weak_1q, strong_pq, commutator_strong, maximal_pq,\n"
            "             weighted_bmo, cube_summation, duality_cubes]", 1))
        commutators, gauges, theorem = [], [], [None]
        run_case, commutator = verify.verify_case, verify.dyadic_commutator
        gauge = operators.luxemburg_norm_blocks

        def case(c):
            theorem[0] = c.theorem
            return run_case(c)

        def counted_commutator(b, f, *args, **kwargs):
            commutators.append((b.cells.tobytes(), f.cells.tobytes()) + args[:1])
            return commutator(b, f, *args, **kwargs)

        def counted_gauge(*args, **kwargs):
            gauges.append(theorem[0])
            return gauge(*args, **kwargs)

        monkeypatch.setattr(verify, "verify_case", case)
        monkeypatch.setattr(verify, "dyadic_commutator", counted_commutator)
        monkeypatch.setattr(operators, "luxemburg_norm_blocks", counted_gauge)
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 0, result.output
        assert commutators and len(commutators) == len(set(commutators))
        assert "maximal_pq" in gauges and "cube_summation" not in gauges
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["shared_results"]["dyadic_commutator"]["computed"] == len(commutators)
        assert meta["shared_results"]["orlicz_level_rows"]["reused"] > 0

    def test_missing_alpha_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("exponents:\n  p: 2.0\nverify:\n  theorems: [strong_pq]\n")
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 2
        assert "exponents.alpha" in result.output

    def test_unknown_key_exits_2(self, runner, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("exponents:\n  alpha: 0.5\n  p: 2.0\n  bogus: 1\n")
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 2
        assert "exponents.bogus" in result.output

    def test_run_jobs_must_be_one(self, runner, tmp_path):
        # run.jobs still loads so existing configs run; cases run one at a time
        path = tmp_path / "jobs.yaml"
        for jobs in (1, 2, 0):
            path.write_text(f"run:\n  jobs: {jobs}\n")
            if jobs == 1:
                assert load_config(path)["run"]["jobs"] == 1
            else:
                with pytest.raises(ConfigError, match="run.jobs"):
                    load_config(path)
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 2
        assert "run.jobs" in result.output

    def test_yaml_syntax_error_line_anchored(self, runner, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("exponents:\n  alpha: [unclosed\n")
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 2
        assert "line" in result.output

    def test_loaders_agree(self, tmp_path, monkeypatch):
        # the sample config and a battery-shaped one load to the same dicts
        # through libyaml's parser and through the pure-Python one, and a
        # syntax error is marked at the same place
        if not hasattr(yaml, "CSafeLoader"):
            pytest.skip("PyYAML built without libyaml")
        battery = tmp_path / "battery.yaml"
        battery.write_text(yaml.safe_dump({
            "run": {"depth": 10, "battery_depth": 5, "out": str(tmp_path / "out"),
                    "format": "csv", "jobs": 1},
            "domain": {"dimension": 1, "origin": [0.0], "side": 1.0},
            "exponents": {"alpha": 1.0 / 3.0, "p": 2.0},
            "weight": {"kind": "power", "gamma": -0.15, "x0": "third"},
            "commutator": {"b": "logdist", "x0": "third"},
            "verify": {"theorems": list(verify.THEOREMS), "gammas": 2},
        }, sort_keys=True))
        broken = tmp_path / "broken.yaml"
        broken.write_text("exponents:\n  alpha: [unclosed\n")
        paths = [Path(__file__).resolve().parents[1] / "sample-config.yaml", battery]
        loaded = []
        for loader in (yaml.SafeLoader, yaml.CSafeLoader):
            monkeypatch.setattr(config, "_LOADER", loader)
            loaded.append([load_config(path) for path in paths])
            with pytest.raises(ConfigError, match="at line 3, column 1"):  # the stream end
                load_config(broken)
        assert loaded[0] == loaded[1]
        assert loaded[0][1]["exponents"]["alpha"] == 1.0 / 3.0

    def test_p1_rejected_for_strong(self, runner, tmp_path):
        path = tmp_path / "p1.yaml"
        path.write_text(
            "exponents:\n  alpha: 0.5\n  p: 1.0\nverify:\n  theorems: [strong_pq]\n"
        )
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 2

    def test_failing_case_exits_1_and_is_printed(self, runner, tmp_path):
        # an impossible threshold factor forces honest failures
        path = tmp_path / "tight.yaml"
        path.write_text(
            "run:\n  depth: 6\n  battery_depth: 4\n"
            f"  out: {tmp_path / 'tight_out'}\n"
            "exponents:\n  alpha: 0.3333333333333333\n  p: 2.0\n"
            "verify:\n  theorems: [strong_pq]\n  gammas: 2\n"
            "  threshold_factor: 0.5\n"
        )
        result = runner.invoke(main, ["verify", "--config", str(path)])
        assert result.exit_code == 1
        assert "first failing case" in result.output


class TestOpAndSparse:
    def test_op_output_round_trips(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["op", "--config", str(path)])
        assert result.exit_code == 0, result.output
        gf = read_gridfunction(out / "op_dyadic_fractional_integral.bin")
        assert gf.depth == 6
        assert np.all(gf.cells > 0)

    def test_sparse_emits_family_and_certificate(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["sparse", "--config", str(path)])
        assert result.exit_code == 0, result.output
        doc = json.loads((out / "sparse_family.json").read_text())
        assert doc["certificate"]["ok"]
        fam = sparse_family_from_json(json.dumps(doc))
        assert len(fam.cubes) >= 1

    @pytest.mark.parametrize("name", ["riesz_potential", "commutator"])
    def test_continuous_operator_needs_one_dimension(self, runner, tmp_path, name):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text()
                        .replace("dimension: 1\n  origin: [0.0]", "dimension: 2\n  origin: [0.0, 0.0]")
                        .replace("name: dyadic_fractional_integral", f"name: {name}"))
        result = runner.invoke(main, ["op", "--config", str(path)])
        assert result.exit_code == 2, result.output
        assert "config error" in result.output and "domain.dimension" in result.output
        assert not out.exists()

    def test_unknown_operator(self, runner, tmp_path):
        path = tmp_path / "op.yaml"
        path.write_text(
            "exponents:\n  alpha: 0.5\n  p: 1.5\nop:\n  name: fancy_transform\n"
        )
        result = runner.invoke(main, ["op", "--config", str(path)])
        assert result.exit_code == 2
        assert "op.name" in result.output


class TestSweep:
    def test_sweep_writes_plot_data(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["sweep", "--config", str(path)])
        assert result.exit_code == 0, result.output
        lines = (out / "sweep_strong_pq.csv").read_text().splitlines()
        assert lines[0] == "log_characteristic,log_normalized_lhs"
        assert len(lines) == 4
        assert "slope" in result.output
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["provenance"]["sparsefrac"] == sparsefrac.__version__
        assert meta["shared_results"]["dyadic_fractional_integral"]["computed"] > 0


class TestReportRoundTrip:
    def test_csv_floats_reparse_exactly(self, runner, tmp_path):
        # 17 significant digits: parsing a float column and re-rendering it
        # reproduces the stored text
        path, out = write_config(tmp_path)
        runner.invoke(main, ["verify", "--config", str(path)])
        lines = (out / "reports.csv").read_text().splitlines()
        header = lines[0].split(",")
        for col in ("lhs", "measured_constant", "characteristic"):
            idx = header.index(col)
            for row in lines[1:]:
                text = row.split(",")[idx]
                assert f"{float(text):.17g}" == text


class TestEnvOverrides:
    def test_depth_env_var(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(
            main, ["op", "--config", str(path)], env={"SPARSEFRAC_OP_DEPTH": "5"}
        )
        assert result.exit_code == 0, result.output
        gf = read_gridfunction(out / "op_dyadic_fractional_integral.bin")
        assert gf.depth == 5


def loaded_after_import(module: str, names) -> str:
    """Which of names a fresh interpreter has loaded after importing module."""
    src = str(Path(sparsefrac.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = f"import sys, {module}; print([m for m in {tuple(names)!r} if m in sys.modules])"
    got = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return got.stdout.strip()


def test_import_footprint():
    # hashlib loads OpenSSL and scipy is large; every run and the benchmark's
    # set-up import the CLI, which needs neither
    assert loaded_after_import("sparsefrac.cli", ("hashlib", "_hashlib", "scipy")) == "[]"


def test_library_import_footprint():
    # the library alone needs no CLI, config parser or numpy.polynomial (the
    # Gauss-Legendre rule is written out): each costs every worker set-up time
    names = ("numpy.polynomial", "scipy", "yaml", "click")
    assert loaded_after_import("sparsefrac", names) == "[]"
