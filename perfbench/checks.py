"""Output checks.  Nothing here runs inside a timed region.

Battery passes compare ``reports.csv`` row by row with reports recorded by
``record.py`` and require every verdict to pass.  family-ops outputs are
compared at 1e-12 with the brute-force oracles in ``tests/oracles.py``
(or, where that module has none, with an independent direct evaluation),
and sparse families must certify and match their recorded cube-set digest.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
TOLERANCE = 1e-12


# -- battery reports -------------------------------------------------------------


def load_reference_reports(name: str) -> list[str] | None:
    path = REFERENCE_DIR / f"{name}.csv.gz"
    if not path.exists():
        return None
    with gzip.open(path, "rt") as fh:
        return fh.read().splitlines()


def check_battery_reports(lines: list[str], item_reports: list[list[tuple[str, str]]],
                          reference: list[str] | None) -> tuple[list[bool], list[str]]:
    """Per-item verdicts for one battery pass.

    ``item_reports`` holds, per item, the (theorem, case id) of each report
    row it produced.  The CSV writer sorts rows by that key, which maps
    every data line back to its item.  An item fails when one of its rows
    differs from the reference, has a verdict other than ``true``, or is
    missing.
    """
    ok = [True] * len(item_reports)
    problems: list[str] = []
    owner = sorted((key, i) for i, keys in enumerate(item_reports) for key in keys)
    header, rows = (lines[0], lines[1:]) if lines else ("", [])
    if reference is not None and header != reference[0]:
        problems.append("reports.csv header differs from the reference")
        return [False] * len(item_reports), problems
    if len(rows) != len(owner) or (reference is not None and len(reference) - 1 != len(owner)):
        problems.append(f"{len(rows)} report rows for {len(owner)} reports")
        return [False] * len(item_reports), problems
    for j, ((key, i), row) in enumerate(zip(owner, rows)):
        if not row.startswith(key[1] + ","):
            bad, why = True, "row order does not match the case ids"
        elif not row.endswith(",true"):
            bad, why = True, "verdict is not a pass"
        elif reference is not None and row != reference[j + 1]:
            bad, why = True, "row differs from the reference"
        else:
            bad = False
        if bad:
            ok[i] = False
            if len(problems) < 5:
                problems.append(f"{key[1]}: {why}")
    return ok, problems


# -- family-ops ------------------------------------------------------------------


def output_digest(result) -> str:
    """Bitwise digest of one family-ops output, for pass-to-pass equality."""
    h = hashlib.sha256()
    if isinstance(result, dict) or hasattr(result, "cubes"):
        h.update(cube_set_text(result).encode())
    elif hasattr(result, "carriers"):  # SparseCertificate
        h.update(repr((result.ok, result.min_density, result.disjoint)).encode())
    else:  # OperatorOutput
        h.update(np.ascontiguousarray(result.cells).tobytes())
    return h.hexdigest()


def cube_set_text(result) -> str:
    """Canonical text of a sparse family or of the stopping levels."""
    if isinstance(result, dict):
        doc = {str(k): [[c.level, list(c.coords)] for c in v] for k, v in sorted(result.items())}
    else:
        doc = [[c.level, list(c.coords)] for c in result.cubes]
    return json.dumps(doc, sort_keys=True)


def cube_set_digest(result) -> str:
    return hashlib.sha256(cube_set_text(result).encode()).hexdigest()


def load_family_digests(smoke: bool) -> dict:
    path = REFERENCE_DIR / f"family-ops-{'smoke' if smoke else 'full'}-digests.json"
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def _close(got: np.ndarray, ref: np.ndarray) -> tuple[bool, float]:
    scale = max(float(np.max(np.abs(ref))), 1e-300)
    err = float(np.max(np.abs(got - ref))) / scale
    return err <= TOLERANCE, err


def _riesz_matrix(f, alpha: float) -> np.ndarray:
    """Exact cell-to-centre Riesz kernel as one dense matrix (direct evaluation)."""
    m = 2 ** f.depth
    edges = f.root.origin[0] + np.arange(m + 1) * f.cell_side
    centres = f.cell_centers()[0]
    t = edges[None, :] - centres[:, None]
    g = np.sign(t) * np.abs(t) ** alpha / alpha
    return np.diff(g, axis=1)


def check_family_item(op: str, result, inp, sparse_family) -> tuple[bool, str]:
    """Compare one family-ops output with its brute-force reference."""
    from tests import oracles

    from sparsefrac.orlicz import LLOG

    grid_id = getattr(result, "grid_id", None)
    if op == "dyadic_fractional_integral":
        return _verdict(*_close(result.cells, oracles.naive_dyadic_integral(
            inp.f, inp.alpha, inp.family, grid_id)))
    if op == "weighted_orlicz_fractional_maximal":
        return _verdict(*_close(result.cells, oracles.naive_orlicz_maximal(
            inp.f, inp.sigma, inp.alpha, LLOG, inp.family, grid_id)))
    if op == "fractional_maximal":  # the max over every grid of the family
        return _verdict(*_close(result.cells, np.max(
            [oracles.naive_dyadic_maximal(inp.f, inp.alpha, inp.family, g)
             for g in range(inp.family.num_grids)], axis=0)))
    if op == "dyadic_commutator":
        return _verdict(*_close(result.cells, oracles.naive_commutator(
            inp.b, inp.f, inp.alpha, inp.family, grid_id)))
    if op == "sparse_fractional_integral":
        return _verdict(*_close(result.cells, oracles.naive_sparse_integral(
            inp.f, inp.alpha, inp.family, sparse_family.cubes)))
    if op == "commutator_1d":
        d = _riesz_matrix(inp.f, inp.alpha)
        ref = inp.b.cells * (d @ inp.f.cells) - d @ (inp.b.cells * inp.f.cells)
        return _verdict(*_close(result.cells, ref))
    if op == "certify_sparse":
        return (bool(result.ok), "" if result.ok else f"not sparse: {result.first_violation}")
    if op == "sparse_select_for_operator":
        return (len(result) > 0, "" if len(result) else "empty family")
    if op == "cz_stopping_cubes":
        return _check_stopping(result, inp)
    raise ValueError(f"no check for {op}")


def _verdict(ok: bool, err: float) -> tuple[bool, str]:
    return ok, "" if ok else f"relative error {err:.2e} above {TOLERANCE:g}"


def _check_stopping(levels: dict, inp) -> tuple[bool, str]:
    """Each stopping cube's brute-force average exceeds its threshold a^k."""
    from tests import oracles

    a = float(2 ** (inp.n + 1))
    if not levels:
        return False, "no stopping cubes for a positive function"
    for k, cubes in levels.items():
        for cube in cubes:
            lo, hi = inp.family.cube_bounds(cube)
            w = oracles.overlap_weights(inp.f, lo, hi)
            avg = float((inp.f.cells * w).sum()) * inp.f.cell_volume \
                / inp.family.volume_at(cube.level)
            if not avg > a ** k * (1 - TOLERANCE):
                return False, f"cube {cube} average {avg:.6g} not above {a}^{k}"
    return True, ""
