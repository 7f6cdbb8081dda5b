"""Span tracer installed from the benchmark's own files; no program code changes.

``verify.py``, ``sparse.py`` and ``cli.py`` import functions by name, so a
wrapper must replace every binding of a function in every ``sparsefrac``
module (and in the package namespace), not just the defining one.  Methods
are wrapped on their class.  Spans (name, start, end, parent) stay in
memory until the pass ends; ``layer_metrics`` then derives every per-layer
metric, where a span's self time is its duration minus its child spans.
"""

from __future__ import annotations

import gzip
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

THEOREMS = ("weak_1q", "strong_pq", "commutator_strong", "maximal_pq",
            "weighted_bmo", "cube_summation", "duality_cubes")
OPERATORS = ("dyadic_fractional_integral", "weighted_orlicz_fractional_maximal",
             "dyadic_commutator")

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {
    "grid.box_integral.calls": "count",
    "grid.box_integral.self_s": "s",
    "grid.box_integrals.calls": "count",
    "grid.box_integrals.rows": "count",
    "grid.box_integrals.self_s": "s",
    "grid.box_overlap.calls": "count",
    "grid.box_overlap.self_s": "s",
    "grid.enumerate_cubes.cubes": "count",
    "grid.children.calls": "count",
    "grid.relation.calls": "count",
    "weights.CubeBattery.builds": "count",
    "weights.CubeBattery.cubes": "count",
    "weights.CubeBattery.build_s": "s",
    "weights.averages.calls": "count",
    "weights.averages.self_s": "s",
    "weights.cell_extrema.self_s": "s",
    "weights.characteristic.calls": "count",
    "weights.characteristic.self_s": "s",
    "weights.power_weight.self_s": "s",
    "orlicz.luxemburg_norm_arrays.calls": "count",
    "orlicz.luxemburg_norm_arrays.self_s": "s",
    "orlicz.luxemburg_norm_blocks.rows": "count",
    "orlicz.luxemburg_norm_blocks.self_s": "s",
    **{f"operators.{op}.{m}": u for op in OPERATORS
       for m, u in (("aligned_s", "s"), ("shifted_s", "s"), ("cube_visits", "count"))},
    "operators.sparse_fractional_integral.self_s": "s",
    "operators.sparse_fractional_integral.cube_visits": "count",
    "operators.bmo_norm.calls": "count",
    "operators.bmo_norm.self_s": "s",
    "operators.commutator_1d.self_s": "s",
    "operators.fractional_maximal.self_s": "s",
    "operators.fractional_maximal.cube_visits": "count",
    "sparse.select.self_s": "s",
    "sparse.select.cubes_averaged": "count",
    "sparse.select.cubes_selected": "count",
    "sparse.select.yield": "1",
    "sparse.certify.self_s": "s",
    "sparse.certify.relation_calls": "count",
    "sparse.certify.cubes": "count",
    "sparse.cz_stopping.self_s": "s",
    **{f"verify.{t}.case_s": "s" for t in THEOREMS},
    "verify.workspace.calls": "count",
    "verify.workspace.builds": "count",
    "verify.materialize_weight.calls": "count",
    "verify.materialize_weight.hit_ratio": "1",
    "verify.weak_quasinorm.self_s": "s",
    "verify.write_reports.self_s": "s",
    "verify.write_reports.bytes": "count",
    "cli.verify.self_s": "s",
}


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._undo: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, fn, name, after=None):
        """Wrap fn in a span; ``name`` is a string or a function of the args;
        ``after(args, result)`` adds counts once the call returns."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            parent = stack[-2] if len(stack) > 1 else -1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (label, start, end, parent)
            if after is not None:
                after(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def patch_function(self, module, attr, make):
        """Replace every binding of module.attr across the sparsefrac modules."""
        orig = getattr(module, attr)
        new = make(orig)
        for mod in list(sys.modules.values()):
            if mod is None or not getattr(mod, "__name__", "").startswith("sparsefrac"):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    self._set(mod, key, new)

    def patch_method(self, cls, attr, make):
        self._set(cls, attr, make(getattr(cls, attr)))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- installation --------------------------------------------------------

    def install(self):
        import sparsefrac.cli as cli
        import sparsefrac.grid as grid
        import sparsefrac.operators as operators
        import sparsefrac.orlicz as orlicz
        import sparsefrac.sparse as sparse
        import sparsefrac.verify as verify
        import sparsefrac.weights as weights

        counts = self.counts
        wrap, count = self._wrap, self._count

        def add(name, amount):
            counts[name] += amount

        gf, fam, cb = grid.GridFunction, grid.DyadicGridFamily, weights.CubeBattery
        self.patch_method(gf, "box_integral", lambda f: wrap(f, "grid.box_integral"))
        self.patch_method(gf, "box_integrals", lambda f: wrap(
            f, "grid.box_integrals",
            lambda a, k, r: add("grid.box_integrals.rows", _rows(a[1]))))
        self.patch_method(gf, "box_overlap", lambda f: wrap(f, "grid.box_overlap"))
        self.patch_method(fam, "children", lambda f: count(f, "grid.children.calls"))
        self.patch_method(fam, "relation", lambda f: count(f, "grid.relation.calls"))

        def counted_cubes(orig):
            def enumerate_cubes(*args, **kwargs):
                for cube in orig(*args, **kwargs):
                    counts["grid.enumerate_cubes.cubes"] += 1
                    yield cube
            return enumerate_cubes

        self.patch_method(fam, "enumerate_cubes", counted_cubes)

        self.patch_method(cb, "__init__", lambda f: wrap(
            f, "weights.CubeBattery.build",
            lambda a, k, r: add("weights.CubeBattery.cubes", len(a[0].cubes))))
        self.patch_method(cb, "averages", lambda f: wrap(f, "weights.averages"))
        self.patch_method(cb, "cell_min", lambda f: wrap(f, "weights.cell_extrema"))
        self.patch_method(cb, "cell_max_abs", lambda f: wrap(f, "weights.cell_extrema"))
        for name in ("apq_characteristic", "a1q_characteristic",
                     "ap_characteristic", "a1_characteristic"):
            self.patch_function(weights, name, lambda f: wrap(f, "weights.characteristic"))
        self.patch_function(weights, "power_weight", lambda f: wrap(f, "weights.power_weight"))

        self.patch_function(orlicz, "luxemburg_norm_arrays",
                            lambda f: wrap(f, "orlicz.luxemburg_norm_arrays"))
        self.patch_function(orlicz, "luxemburg_norm_blocks", lambda f: wrap(
            f, "orlicz.luxemburg_norm_blocks",
            lambda a, k, r: add("orlicz.luxemburg_norm_blocks.rows", len(r))))

        for op in OPERATORS:
            self.patch_function(operators, op, lambda f, op=op: wrap(
                f, lambda a, k, op=op: f"operators.{op}." + _grid_kind(a, k),
                lambda a, k, r, op=op: add(f"operators.{op}.cube_visits", r.cube_visits)))
        self.patch_function(operators, "sparse_fractional_integral", lambda f: wrap(
            f, "operators.sparse_fractional_integral",
            lambda a, k, r: add("operators.sparse_fractional_integral.cube_visits",
                                r.cube_visits)))
        self.patch_function(operators, "bmo_norm", lambda f: wrap(f, "operators.bmo_norm"))
        self.patch_function(operators, "commutator_1d",
                            lambda f: wrap(f, "operators.commutator_1d"))
        self.patch_function(operators, "fractional_maximal", lambda f: wrap(
            f, "operators.fractional_maximal",
            lambda a, k, r: add("operators.fractional_maximal.cube_visits", r.cube_visits)))

        self.patch_function(sparse, "sparse_select_for_operator", lambda f: wrap(
            f, "sparse.select",
            lambda a, k, r: add("sparse.select.cubes_selected", len(r))))

        def certify(orig):
            def run(*args, **kwargs):
                before = counts["grid.relation.calls"]
                result = orig(*args, **kwargs)
                add("sparse.certify.relation_calls", counts["grid.relation.calls"] - before)
                add("sparse.certify.cubes", len(args[0]))
                return result
            return wrap(run, "sparse.certify")

        self.patch_function(sparse, "certify_sparse", certify)
        self.patch_function(sparse, "cz_stopping_cubes", lambda f: wrap(f, "sparse.cz_stopping"))

        self.patch_function(verify, "verify_case", lambda f: wrap(
            f, lambda a, k: f"verify.{a[0].theorem}.case"))
        self.patch_function(verify, "run_battery", lambda f: wrap(f, "verify.run_battery"))

        def cache_counter(orig, name, cache):
            def run(*args, **kwargs):
                before = len(cache)
                result = orig(*args, **kwargs)
                add(f"verify.{name}.calls", 1)
                add(f"verify.{name}.builds", len(cache) - before)
                return result
            return run

        self.patch_function(verify, "workspace", lambda f: cache_counter(
            f, "workspace", verify._WORKSPACE_CACHE))
        self.patch_function(verify, "materialize_weight", lambda f: cache_counter(
            f, "materialize_weight", verify._WEIGHT_CACHE))
        self.patch_function(verify, "weak_quasinorm", lambda f: wrap(f, "verify.weak_quasinorm"))
        for name in ("write_reports_csv", "write_reports_json"):
            self.patch_function(verify, name, lambda f: wrap(
                f, "verify.write_reports",
                lambda a, k, r: add("verify.write_reports.bytes", os.path.getsize(a[1]))))
        self._set(cli.verify, "callback", wrap(cli.verify.callback, "cli.verify"))

    # -- reduction -----------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Every metric of LAYER_METRICS for the spans and counts recorded."""
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        child_calls: dict[tuple[str, str], int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
                child_calls[(self.spans[parent][0], name)] += 1
        for i, (name, start, end, _) in enumerate(self.spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start - child_time[i]

        c = self.counts
        out = {
            "grid.box_integral.calls": calls["grid.box_integral"],
            "grid.box_integral.self_s": self_time["grid.box_integral"],
            "grid.box_integrals.calls": calls["grid.box_integrals"],
            "grid.box_integrals.rows": c["grid.box_integrals.rows"],
            "grid.box_integrals.self_s": self_time["grid.box_integrals"],
            "grid.box_overlap.calls": calls["grid.box_overlap"],
            "grid.box_overlap.self_s": self_time["grid.box_overlap"],
            "grid.enumerate_cubes.cubes": c["grid.enumerate_cubes.cubes"],
            "grid.children.calls": c["grid.children.calls"],
            "grid.relation.calls": c["grid.relation.calls"],
            "weights.CubeBattery.builds": calls["weights.CubeBattery.build"],
            "weights.CubeBattery.cubes": c["weights.CubeBattery.cubes"],
            "weights.CubeBattery.build_s": total["weights.CubeBattery.build"],
            "weights.averages.calls": calls["weights.averages"],
            "weights.averages.self_s": self_time["weights.averages"],
            "weights.cell_extrema.self_s": self_time["weights.cell_extrema"],
            "weights.characteristic.calls": calls["weights.characteristic"],
            "weights.characteristic.self_s": self_time["weights.characteristic"],
            "weights.power_weight.self_s": self_time["weights.power_weight"],
            "orlicz.luxemburg_norm_arrays.calls": calls["orlicz.luxemburg_norm_arrays"],
            "orlicz.luxemburg_norm_arrays.self_s": self_time["orlicz.luxemburg_norm_arrays"],
            "orlicz.luxemburg_norm_blocks.rows": c["orlicz.luxemburg_norm_blocks.rows"],
            "orlicz.luxemburg_norm_blocks.self_s": self_time["orlicz.luxemburg_norm_blocks"],
            "operators.sparse_fractional_integral.self_s":
                self_time["operators.sparse_fractional_integral"],
            "operators.sparse_fractional_integral.cube_visits":
                c["operators.sparse_fractional_integral.cube_visits"],
            "operators.bmo_norm.calls": calls["operators.bmo_norm"],
            "operators.bmo_norm.self_s": self_time["operators.bmo_norm"],
            "operators.commutator_1d.self_s": self_time["operators.commutator_1d"],
            "operators.fractional_maximal.self_s": self_time["operators.fractional_maximal"],
            "operators.fractional_maximal.cube_visits":
                c["operators.fractional_maximal.cube_visits"],
            "sparse.select.self_s": self_time["sparse.select"],
            "sparse.select.cubes_averaged": child_calls[("sparse.select", "grid.box_integral")],
            "sparse.select.cubes_selected": c["sparse.select.cubes_selected"],
            "sparse.certify.self_s": self_time["sparse.certify"],
            "sparse.certify.relation_calls": c["sparse.certify.relation_calls"],
            "sparse.certify.cubes": c["sparse.certify.cubes"],
            "sparse.cz_stopping.self_s": self_time["sparse.cz_stopping"],
            "verify.workspace.calls": c["verify.workspace.calls"],
            "verify.workspace.builds": c["verify.workspace.builds"],
            "verify.materialize_weight.calls": c["verify.materialize_weight.calls"],
            "verify.weak_quasinorm.self_s": self_time["verify.weak_quasinorm"],
            "verify.write_reports.self_s": self_time["verify.write_reports"],
            "verify.write_reports.bytes": c["verify.write_reports.bytes"],
            "cli.verify.self_s": self_time["cli.verify"],
        }
        for op in OPERATORS:
            out[f"operators.{op}.aligned_s"] = total[f"operators.{op}.aligned"]
            out[f"operators.{op}.shifted_s"] = total[f"operators.{op}.shifted"]
            out[f"operators.{op}.cube_visits"] = c[f"operators.{op}.cube_visits"]
        for t in THEOREMS:
            out[f"verify.{t}.case_s"] = total[f"verify.{t}.case"]
        averaged = out["sparse.select.cubes_averaged"]
        out["sparse.select.yield"] = (
            out["sparse.select.cubes_selected"] / averaged if averaged else 0.0)
        weight_calls = c["verify.materialize_weight.calls"]
        out["verify.materialize_weight.hit_ratio"] = (
            1.0 - c["verify.materialize_weight.builds"] / weight_calls if weight_calls else 0.0)
        assert set(out) == set(LAYER_METRICS), set(out) ^ set(LAYER_METRICS)
        return {k: float(v) for k, v in out.items()}

    def write_spans(self, path) -> None:
        """One CSV line per span: index, parent, name, start and end in seconds."""
        with gzip.open(path, "wt") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i},{parent},{name},{start:.9f},{end:.9f}\n")


def _rows(lo) -> int:
    """Number of boxes in a box_integrals query: lo has shape (..., n)."""
    return math.prod(np.shape(lo)[:-1])


def _grid_kind(args, kwargs) -> str:
    # (..., family, grid_id) are the last two positional arguments of each operator
    family, grid_id = args[-2], args[-1]
    return "aligned" if family.is_aligned(grid_id) else "shifted"
