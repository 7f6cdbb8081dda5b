import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

import sparsefrac
from sparsefrac import cli, config, operators, verify
from sparsefrac.cli import main
from sparsefrac.config import ConfigError, load_config
from sparsefrac.grid import DyadicGridFamily, RootBox, read_gridfunction
from sparsefrac.orlicz import POWER1
from sparsefrac.sparse import sparse_family_from_json
from sparsefrac.verify import BumpSpec, FunctionSpec, WeightSpec
from sparsefrac.weights import (
    CubeBattery,
    ExponentTriple,
    a1_characteristic,
    a1q_characteristic,
    reverse_holder_exponent,
)


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


COMMANDS = ("char", "op", "sparse", "verify", "sweep")


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
            "verify": {"theorems": list(verify.THEOREM_TABLE), "gammas": 2},
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


OP_CONFIG = """\
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
  kind: power
  gamma: -0.2
  x0: third
function:
  kind: indicator
  box: [[0.25], [0.75]]
  value: 2.0
commutator:
  b: logdist
  x0: third
op:
  name: {name}
  grid: 1
  phi: power1
"""


def direct_operator(name: str):
    """The library call op should make for OP_CONFIG, built without the CLI."""
    root = RootBox((0.0,), 1.0)
    e = ExponentTriple(1, 0.3333333333333333, 2.0)
    fam = DyadicGridFamily(root, 6)
    sigma = verify.materialize_weight(WeightSpec("power", -0.2, "third"), root, 6).sigma(e)
    f = verify.materialize_function(FunctionSpec("indicator", ((0.25,), (0.75,)), 2.0), root, 6)
    b = verify.materialize_bump(BumpSpec("logdist", "third"), root, 6)
    return {
        "riesz_potential": lambda: operators.riesz_potential_1d(f, e.alpha),
        "dyadic_fractional_integral": lambda: operators.dyadic_fractional_integral(
            f, e.alpha, fam, 1),
        "dyadic_fractional_maximal": lambda: operators.dyadic_fractional_maximal(
            f, e.alpha, fam, 1),
        "fractional_maximal": lambda: operators.fractional_maximal(f, e.alpha, fam),
        "weighted_orlicz_fractional_maximal": lambda: operators.weighted_orlicz_fractional_maximal(
            f, sigma, e.alpha, POWER1, fam, 1),
        "commutator": lambda: operators.commutator_1d(b, f, e.alpha),
        "dyadic_commutator": lambda: operators.dyadic_commutator(b, f, e.alpha, fam, 1),
    }[name]()


def exits_2_naming(runner, command, path, text):
    result = runner.invoke(main, [command, "--config", str(path)])
    assert result.exit_code == 2, result.output
    assert f"config error: {text}" in result.output
    return result


class TestFrontEndBranches:
    @pytest.mark.parametrize("name", [
        "riesz_potential", "dyadic_fractional_integral", "dyadic_fractional_maximal",
        "fractional_maximal", "weighted_orlicz_fractional_maximal", "commutator",
        "dyadic_commutator"])
    def test_op_equals_direct_call(self, runner, tmp_path, name):
        out = tmp_path / "out"
        path = tmp_path / "op.yaml"
        path.write_text(OP_CONFIG.format(out=out, name=name))
        result = runner.invoke(main, ["op", "--config", str(path)])
        assert result.exit_code == 0, result.output
        expected = direct_operator(name)
        got = read_gridfunction(out / f"op_{name}.bin")
        assert got.cells.tobytes() == expected.values.cells.astype("<f8").tobytes()
        assert result.output == (f"{name}: wrote {out / f'op_{name}.bin'} "
                                 f"(cube visits {expected.cube_visits})\n")

    def test_char_at_p1_rows(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("p: 2.0", "p: 1.0"))
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 0, result.output
        root = RootBox((0.0,), 1.0)
        e = ExponentTriple(1, 0.3333333333333333, 1.0)
        w = verify.materialize_weight(WeightSpec("power", -0.2, "third"), root, 6)
        battery = CubeBattery(DyadicGridFamily(root, 6), 4)
        rows = {
            "a1q_characteristic": a1q_characteristic(w, e, battery),
            "a1_of_v": a1_characteristic(w.v(e), battery),
            "reverse_holder_of_v": reverse_holder_exponent(w.v(e), battery),
        }
        assert result.output == "".join(f"{k} {v:.17g}\n" for k, v in rows.items())
        assert (out / "characteristics.csv").read_text() == "name,value\n" + "".join(
            f"{k},{v:.17g}\n" for k, v in sorted(rows.items()))

    def test_out_override(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        other = tmp_path / "other"
        result = runner.invoke(main, ["char", "--config", str(path), "--out", str(other)])
        assert result.exit_code == 0, result.output
        assert not out.exists()
        assert (other / "characteristics.csv").exists()
        assert json.loads((other / "run_meta.json").read_text())["run"]["out"] == str(other)

    def test_origin_length_must_match_dimension(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("dimension: 1", "dimension: 2"))
        exits_2_naming(runner, "char", path, "domain.origin length must match domain.dimension")
        assert not out.exists()

    def test_indicator_needs_box(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text() + "function:\n  kind: indicator\n")
        for command in ("op", "sparse"):
            exits_2_naming(runner, command, path, "missing required key 'function.box'")

    def test_op_needs_name(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("  name: dyadic_fractional_integral\n", ""))
        exits_2_naming(runner, "op", path, "missing required key 'op.name'")

    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("theorems", ["[]", None])
    def test_battery_needs_theorems(self, runner, tmp_path, command, theorems):
        path, out = write_config(tmp_path)
        text = path.read_text()
        head, _, tail = text.partition(f"{command}:\n  theorems: ")
        tail = tail.split("\n", 1)[1]
        path.write_text(head + f"{command}:\n" + (f"  theorems: {theorems}\n" if theorems else "")
                        + tail)
        exits_2_naming(runner, command, path, f"missing required key '{command}.theorems'")
        assert not out.exists()

    @pytest.mark.parametrize("theorem", list(verify.THEOREM_TABLE))
    def test_verify_at_p1_runs_only_the_endpoint(self, runner, tmp_path, theorem):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("p: 2.0", "p: 1.0").replace(
            "theorems: [strong_pq, weak_1q]", f"theorems: [{theorem}]"))
        if theorem == "weak_1q":
            result = runner.invoke(main, ["verify", "--config", str(path)])
            assert result.exit_code == 0, result.output
            assert result.output.startswith("weak_1q: ")
        else:
            exits_2_naming(runner, "verify", path, f"theorem {theorem} needs exponents.p > 1")

    def test_sweep_at_p1_runs_only_the_endpoint(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace("p: 2.0", "p: 1.0").replace(
            "sweep:\n  theorems: [strong_pq]", "sweep:\n  theorems: [weak_1q, strong_pq]"))
        result = exits_2_naming(runner, "sweep", path, "theorem strong_pq needs exponents.p > 1")
        assert result.output.startswith("weak_1q: slope ")
        assert (out / "sweep_weak_1q.csv").exists()

    def test_sweep_needs_a_characteristic(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        path.write_text(path.read_text().replace(
            "sweep:\n  theorems: [strong_pq]", "sweep:\n  theorems: [maximal_pq]"))
        exits_2_naming(runner, "sweep", path,
                       "theorem maximal_pq has no characteristic to sweep")


class TestConfigErrors:
    @pytest.mark.parametrize("text, message", [
        ("bogus:\n  a: 1\n", "unknown section 'bogus'"),
        ("run: 3\n", "section 'run' must be a mapping"),
        ("- run\n", "config root must be a mapping of sections"),
        ("run:\n  depth: deep\n", "key run.depth must be int, got str"),
        ("domain:\n  side: wide\n", "key domain.side must be int/float, got str"),
        ("weight:\n  x0: 3\n", "key weight.x0 must be str/list, got int"),
    ])
    def test_message(self, runner, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message
        result = runner.invoke(main, ["char", "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"

    @pytest.mark.parametrize("command, key, value, message", [
        (command, key, value, message)
        for key, value, message, commands in [
            ("weight.kind", "bogus", "key weight.kind: 'bogus' is not one of constant, power, step",
             ("char", "op", "sparse")),
            ("weight.x0", "middle", "key weight.x0: 'middle' is not one of center, corner, third",
             ("char", "op", "sparse")),
            ("function.kind", "bogus", "key function.kind: 'bogus' is not one of "
             "constant, indicator, sigma_probe", ("op", "sparse")),
            ("commutator.b", "bogus", "key commutator.b: 'bogus' is not one of "
             "constant, step, logdist", ("op",)),
            ("commutator.x0", "middle", "key commutator.x0: 'middle' is not one of "
             "center, corner, third", ("op",)),
            ("op.phi", "bogus", "key op.phi: 'bogus' is not one of power1, llog", ("op",)),
            ("verify.theorems", ["strong_pq", "bogus"], "key verify.theorems: 'bogus' is not one "
             "of weak_1q, strong_pq, commutator_strong, maximal_pq, weighted_bmo, "
             "cube_summation, duality_cubes", ("verify",)),
            ("sweep.theorems", ["bogus"], "key sweep.theorems: 'bogus' is not one of weak_1q, "
             "strong_pq, commutator_strong, maximal_pq, weighted_bmo, cube_summation, "
             "duality_cubes", ("sweep",)),
            ("run.format", "xml", "key run.format: 'xml' is not one of csv, json",
             ("char", "verify")),
            ("op.grid", 5, "key op.grid must be in [0, 2) in dimension 1", ("op", "sparse")),
        ]
        for command in commands
    ])
    def test_unknown_name(self, runner, tmp_path, command, key, value, message):
        # every other key is valid, and op.name picks an operator that reads key
        out = tmp_path / "out"
        doc = {"run": {"depth": 5, "battery_depth": 3, "out": str(out)},
               "exponents": {"alpha": 1.0 / 3.0, "p": 2.0},
               "weight": {"kind": "power", "gamma": -0.1},
               "function": {"kind": "indicator", "box": [[0.25], [0.75]]},
               "op": {"name": {"commutator": "dyadic_commutator",
                               "op": "weighted_orlicz_fractional_maximal"}.get(
                                   key.split(".")[0], "dyadic_fractional_integral")},
               "verify": {"theorems": ["strong_pq"], "gammas": 1},
               "sweep": {"theorems": ["strong_pq"], "gammas": 1}}
        section, name = key.split(".")
        doc.setdefault(section, {})[name] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        with pytest.raises(ConfigError) as info:
            load_config(path)
        assert str(info.value) == message
        result = runner.invoke(main, [command, "--config", str(path)])
        assert result.exit_code == 2
        assert result.output == f"config error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, changes, message", [
        (command, changes, message)
        for changes, message, commands in [
            ({"run.depth": 0}, "max_level must be in [1, 12] for n=1", COMMANDS),
            ({"run.depth": 20}, "max_level must be in [1, 12] for n=1", COMMANDS),
            ({"run.battery_depth": -1}, "key run.battery_depth must be >= 0, got -1", COMMANDS),
            ({"domain.side": 0}, "root box side must be positive", COMMANDS),
            ({"domain.dimension": 3, "domain.origin": [0.0, 0.0, 0.0]},
             "dimension must be 1 or 2, got 3", COMMANDS),
            ({"domain.dimension": 2, "domain.origin": [0.0, 0.0], "weight.x0": [0.5]},
             "key weight.x0 must be a point of dimension 2, got [0.5]", ("char", "op", "sparse")),
            ({"weight.x0": ["a"]}, "key weight.x0 must be a point of dimension 1, got ['a']",
             ("char", "op", "sparse")),
            ({"function.kind": "indicator", "function.box": [[0.1]]},
             "key function.box must be two corners of dimension 1, got [[0.1]]", ("op", "sparse")),
            ({"weight.kind": "step", "weight.low": -1},
             "key weight.low must be positive and finite, got -1", ("char", "op", "sparse")),
            ({"weight.kind": "step", "weight.high": 0},
             "key weight.high must be positive and finite, got 0", ("char", "op", "sparse")),
            ({"op.name": "commutator", "commutator.b": "logdist",
              "commutator.x0": [0.1, 0.2, 0.3]},
             "key commutator.x0 must be a point of dimension 1, got [0.1, 0.2, 0.3]", ("op",)),
        ]
        for command in commands
    ])
    def test_out_of_domain(self, runner, tmp_path, command, changes, message):
        # values the library rejects: exit 2 before any output, not a traceback and exit 1
        out = tmp_path / "out"
        doc = {"run": {"depth": 5, "battery_depth": 3, "out": str(out)},
               "exponents": {"alpha": 1.0 / 3.0, "p": 2.0},
               "weight": {"kind": "power", "gamma": -0.1},
               "op": {"name": "dyadic_fractional_integral"},
               "verify": {"theorems": ["strong_pq"], "gammas": 1},
               "sweep": {"theorems": ["strong_pq"], "gammas": 1}}
        for key, value in changes.items():
            section, name = key.split(".")
            doc.setdefault(section, {})[name] = value
        path = tmp_path / "bad.yaml"
        path.write_text(yaml.safe_dump(doc))
        result = runner.invoke(main, [command, "--config", str(path)])
        assert (result.exit_code, result.output) == (2, f"config error: {message}\n")
        assert not out.exists()

    def test_list_x0_is_coordinates(self, tmp_path):
        path = tmp_path / "x0.yaml"
        path.write_text("weight:\n  x0: [0.3]\ncommutator:\n  x0: [0.6]\n")
        cfg = load_config(path)
        assert (cfg["weight"]["x0"], cfg["commutator"]["x0"]) == ([0.3], [0.6])

    def test_readme_lists_the_tables_names(self):
        # README's choice keys list each table's names, in table order
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = text.split("### Choice keys")[1].split("\n#")[0]
        listed = {}
        for line in section.splitlines():
            if line.startswith("- `"):
                head, _, tail = line.partition(": ")
                for key in re.findall(r"`([^`]+)`", head):
                    listed[key] = re.findall(r"`([^`]+)`", tail)
        tables = {f"{section}.{key}": list(spec[2]) for section, keys in config._KEYS.items()
                  for key, spec in keys.items() if len(spec) == 3}
        assert listed == tables | {"op.name": list(cli._OPERATORS)}

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.yaml"
        with pytest.raises(ConfigError, match="No such file") as info:
            load_config(path)
        assert str(path) in str(info.value)

    def test_empty_file_loads_every_default(self, tmp_path):
        path = tmp_path / "empty.yaml"
        path.write_text("")
        assert load_config(path) == {
            "run": {"seed": 0, "depth": 8, "battery_depth": 5, "format": "csv",
                    "jobs": 1, "out": "out"},
            "domain": {"dimension": 1, "origin": [0.0], "side": 1.0},
            "weight": {"kind": "constant", "gamma": 0.0, "x0": "third",
                       "low": 1.0, "high": 3.0},
            "function": {"kind": "constant", "value": 1.0},
            "commutator": {"b": "step", "x0": "third"},
            "op": {"grid": 0, "phi": "llog"},
            "verify": {"gammas": 8, "threshold_factor": 4.0},
            "sweep": {"gammas": 8},
        }


class TestSurface:
    def test_commands_and_parameters(self):
        # the benchmark drives `verify --config`; users drive every flag and
        # its SPARSEFRAC_<COMMAND>_<FLAG> variable
        assert set(main.commands) == {"char", "op", "sparse", "verify", "sweep"}
        for command in main.commands.values():
            assert [p.name for p in command.params] == [
                "config_path", "out_dir", "seed", "depth", "fmt"]

    def test_env_var_reaches_char(self, runner, tmp_path):
        path, out = write_config(tmp_path)
        result = runner.invoke(main, ["char", "--config", str(path)],
                               env={"SPARSEFRAC_CHAR_DEPTH": "5"})
        assert result.exit_code == 0, result.output
        assert json.loads((out / "run_meta.json").read_text())["run"]["depth"] == 5
