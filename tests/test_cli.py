import json

import numpy as np
import pytest
from click.testing import CliRunner

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
