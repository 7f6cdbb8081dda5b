"""Brute-force reference implementations used as test oracles.

Everything here works from first principles: per-cell overlap fractions
computed with min/max, plain loops over cubes, no cumulative tables and
no vectorized block tricks, so these stay independent of the accelerated
paths they check.  The per-cube sparse machinery at the end is the one
exception: it averages with the library's scalar box_integral, so the
level sweeps it checks must reproduce it bit for bit.
"""

import math

import numpy as np

from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction
from sparsefrac.operators import _cube_slices, cells_in_cube
from sparsefrac.orlicz import EXPM1, YoungFunction
from sparsefrac.sparse import SparseCertificate, SparseFamily


def cell_bounds(f: GridFunction, index):
    h = f.cell_side
    lo = [f.root.origin[d] + index[d] * h for d in range(f.n)]
    return lo, [v + h for v in lo]


def overlap_fraction(f: GridFunction, index, lo, hi) -> float:
    clo, chi = cell_bounds(f, index)
    frac = 1.0
    for d in range(f.n):
        frac *= max(0.0, min(chi[d], hi[d]) - max(clo[d], lo[d])) / f.cell_side
    return frac


def all_indices(f: GridFunction):
    m = 2 ** f.depth
    if f.n == 1:
        return [(i,) for i in range(m)]
    return [(i, j) for i in range(m) for j in range(m)]


def overlap_weights(f: GridFunction, lo, hi):
    """Overlap fraction of every cell with [lo, hi), by direct min/max."""
    m = 2 ** f.depth
    h = f.cell_side
    axes = []
    for d in range(f.n):
        cell_lo = f.root.origin[d] + np.arange(m) * h
        w = np.minimum(cell_lo + h, hi[d]) - np.maximum(cell_lo, lo[d])
        axes.append(np.clip(w, 0.0, h) / h)
    return axes[0] if f.n == 1 else np.outer(axes[0], axes[1])


def naive_box_integral(f: GridFunction, lo, hi) -> float:
    total = 0.0
    for idx in all_indices(f):
        frac = overlap_fraction(f, idx, lo, hi)
        if frac > 0:
            total += f.cells[idx] * frac * f.cell_volume
    return total


def naive_cube_average(f: GridFunction, family: DyadicGridFamily, cube) -> float:
    lo, hi = family.cube_bounds(cube)
    return naive_box_integral(f, lo, hi) / family.volume_at(cube.level)


def centers_in(f: GridFunction, lo, hi):
    axes = f.cell_centers()
    masks = [(axes[d] >= lo[d]) & (axes[d] < hi[d]) for d in range(f.n)]
    if f.n == 1:
        return masks[0]
    return masks[0][:, None] & masks[1][None, :]


def _bisect_gauge(a: np.ndarray, m: np.ndarray, phi: YoungFunction, rtol: float) -> float:
    """Bisection on lambda for the unit-mean constraint (any Young kind)."""

    def mean(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = phi(a / lam)
        return float(np.dot(np.where(m > 0, vals, 0.0), m))

    hi = float(a.max())
    while mean(hi) > 1.0:
        hi *= 2.0
    lo = hi
    while mean(lo) <= 1.0:
        lo *= 0.5
        if lo < 1e-300:
            return 0.0
    while hi - lo > rtol * hi:
        mid = 0.5 * (lo + hi)
        if mean(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def naive_luxemburg(values, masses, phi: YoungFunction, rtol: float = 1e-13) -> float:
    """Luxemburg gauge of sampled |values| against normalized masses, one
    scalar bisection (power kinds take the closed p-average)."""
    a = np.abs(np.asarray(values, dtype=float))
    m = np.asarray(masses, dtype=float)
    total = m.sum()
    if total <= 0:
        raise ValueError("degenerate measure")
    m = m / total
    peak = float(a.max(initial=0.0))
    if peak == 0.0 or not np.any((a > 0) & (m > 0)):
        return 0.0
    if phi.kind == "power":
        return float((a ** phi.exponent @ m) ** (1.0 / phi.exponent))
    return _bisect_gauge(a, m, phi, rtol)


def naive_dyadic_integral(f, alpha, family, grid_id):
    out = np.zeros_like(f.cells)
    for k in range(f.depth + 1):
        s = family.side_at(k)
        for cube in family.enumerate_cubes(grid_id, k):
            lo, hi = family.cube_bounds(cube)
            mask = centers_in(f, lo, hi)
            if not mask.any():
                continue
            w = overlap_weights(f, lo, hi)
            avg = float((f.cells * w).sum()) * f.cell_volume / family.volume_at(k)
            out[mask] += s ** alpha * avg
    return out


def naive_sparse_integral(f, alpha, family, cubes):
    out = np.zeros_like(f.cells)
    for cube in cubes:
        lo, hi = family.cube_bounds(cube)
        mask = centers_in(f, lo, hi)
        if not mask.any():
            continue
        avg = naive_box_integral(f, lo, hi) / family.volume_at(cube.level)
        out[mask] += family.side_at(cube.level) ** alpha * avg
    return out


def naive_dyadic_maximal(f, alpha, family, grid_id):
    out = np.zeros_like(f.cells)
    for k in range(f.depth + 1):
        s = family.side_at(k)
        for cube in family.enumerate_cubes(grid_id, k):
            lo, hi = family.cube_bounds(cube)
            mask = centers_in(f, lo, hi)
            if not mask.any():
                continue
            w = overlap_weights(f, lo, hi)
            avg = float((np.abs(f.cells) * w).sum()) * f.cell_volume / family.volume_at(k)
            out[mask] = np.maximum(out[mask], s ** alpha * avg)
    return out


def naive_orlicz_maximal(f, sigma, alpha, phi: YoungFunction, family, grid_id):
    out = np.zeros_like(f.cells)
    for k in range(f.depth + 1):
        for cube in family.enumerate_cubes(grid_id, k):
            lo, hi = family.cube_bounds(cube)
            mask = centers_in(f, lo, hi)
            if not mask.any():
                continue
            w = overlap_weights(f, lo, hi)
            live = w > 0
            vals = f.cells[live]
            masses = (sigma.cells * w)[live] * f.cell_volume
            total = masses.sum()
            if total <= 0:
                continue
            norm = naive_luxemburg(vals, masses, phi)
            out[mask] = np.maximum(out[mask], total ** (alpha / f.n) * norm)
    return out


def naive_wtd_bmo_lhs(b: GridFunction, sigma: GridFunction, battery) -> float:
    """Battery max of ||b - <b>_Q||_{exp L, Q, sigma}, one cube at a time."""
    lhs = 0.0
    for i in range(len(battery)):
        lo, hi = battery.bounds(i)
        w = overlap_weights(b, lo, hi)
        live = w > 0
        avg = float((b.cells * w).sum()) * b.cell_volume / battery.volumes()[i]
        masses = (sigma.cells * w)[live] * b.cell_volume
        lhs = max(lhs, naive_luxemburg(b.cells[live] - avg, masses, EXPM1))
    return lhs


def naive_commutator(b, f, alpha, family, grid_id):
    out = np.zeros_like(f.cells)
    for k in range(f.depth + 1):
        s = family.side_at(k)
        factor = s ** alpha / family.volume_at(k)
        for cube in family.enumerate_cubes(grid_id, k):
            lo, hi = family.cube_bounds(cube)
            mask = centers_in(f, lo, hi)
            if not mask.any():
                continue
            w = overlap_weights(f, lo, hi)
            live = w > 0
            ys = b.cells[live]
            fx = (f.cells * w)[live] * f.cell_volume
            xs = b.cells[mask]
            inner = np.array([(np.abs(x - ys) * fx).sum() for x in xs])
            out[mask] += factor * inner
    return out


def naive_weak_quasinorm(values, density: GridFunction, q: float) -> float:
    """Histogram-style scan over every distinct output level."""
    mass = (density.cells * density.cell_volume).ravel()
    vals = values.ravel()
    best = 0.0
    for t in np.unique(vals):
        if t <= 0:
            continue
        best = max(best, t * mass[vals >= t].sum() ** (1.0 / q))
    return best


# -- per-cube sparse machinery -------------------------------------------------
#
# The cube-by-cube stopping times and certification that the level sweeps in
# sparsefrac.sparse replace.  They average with the same scalar box_integral
# and sum volumes in the same order, so the sweeps must match them exactly.


def _cube_average(f: GridFunction, family: DyadicGridFamily, cube: DyadicCube) -> float:
    lo, hi = family.cube_bounds(cube)
    return f.box_integral(lo, hi) / family.volume_at(cube.level)


def naive_cz_stopping(
    g: GridFunction,
    family: DyadicGridFamily,
    grid_id: int,
    a: float | None = None,
) -> dict[int, list[DyadicCube]]:
    """Stopping levels S_k by a depth-first descent per threshold."""
    n = family.n
    if a is None:
        a = float(2 ** (n + 1))
    if not a > 2 ** n:
        raise ValueError(f"threshold ratio must exceed 2^n = {2 ** n}")
    if g.min_cell() < 0:
        raise ValueError("stopping cubes need a non-negative function")
    depth = g.depth
    averages: dict[DyadicCube, float] = {}
    for k in range(depth + 1):
        for cube in family.enumerate_cubes(grid_id, k):
            averages[cube] = _cube_average(g, family, cube)
    positive = [v for v in averages.values() if v > 0]
    if not positive:
        return {}
    k_lo = math.floor(math.log(min(positive), a))
    k_hi = math.ceil(math.log(max(positive), a))
    roots = [c for c in family.enumerate_cubes(grid_id, 0) if averages[c] > 0]
    levels: dict[int, list[DyadicCube]] = {}
    for k in range(k_lo, k_hi + 1):
        thr = a ** k
        selected: list[DyadicCube] = []

        def descend(cube: DyadicCube):
            if averages[cube] > thr:
                selected.append(cube)
                return
            if cube.level >= depth:
                return
            for child in family.children(cube):
                if averages.get(child, 0.0) > 0:
                    descend(child)

        for root_cube in roots:
            descend(root_cube)
        if selected:
            levels[k] = sorted(selected)
    return levels


def naive_sparse_select(
    f: GridFunction,
    family: DyadicGridFamily,
    grid_id: int,
    a: float | None = None,
) -> SparseFamily:
    """Principal cubes of f by a depth-first stack per selected cube."""
    n = family.n
    if a is None:
        a = float(2 ** (n + 1))
    if not a > 2 ** n:
        raise ValueError(f"threshold ratio must exceed 2^n = {2 ** n}")
    if f.min_cell() < 0:
        raise ValueError("sparse selection needs a non-negative function")
    depth = f.depth
    selected: list[DyadicCube] = []

    def build(cube: DyadicCube, base_avg: float):
        selected.append(cube)
        if cube.level >= depth:
            return
        stack = list(family.children(cube))
        while stack:
            cand = stack.pop()
            avg = _cube_average(f, family, cand)
            if avg > a * base_avg:
                build(cand, avg)
            elif cand.level < depth and avg > 0:
                stack.extend(family.children(cand))

    for cube in family.enumerate_cubes(grid_id, 0):
        avg = _cube_average(f, family, cube)
        if avg > 0:
            build(cube, avg)
    return SparseFamily(grid_id, selected)


def naive_certify(
    sparse: SparseFamily, family: DyadicGridFamily, depth: int
) -> SparseCertificate:
    """Carriers and densities from pairwise relation() scans, O(N^2)."""
    cubes = sparse.cubes
    shape = (2 ** depth,) * family.n
    masks = []
    inside = [[] for _ in cubes]  # indices of strict descendants per cube
    for i, c in enumerate(cubes):
        mask = np.zeros(shape, dtype=bool)
        mask[_cube_slices(cells_in_cube(family, c, depth))] = True
        masks.append(mask)
        for j, other in enumerate(cubes):
            if other != c and family.relation(other, c) == "p_in_q":
                inside[i].append(j)
    carriers = {}
    count = np.zeros(shape, dtype=np.int64)
    min_density = math.inf
    first_violation = None
    for i, q in enumerate(cubes):
        carrier = masks[i].copy()
        descendants = inside[i]
        for j in descendants:
            carrier &= ~masks[j]
        carriers[q] = carrier
        count += carrier
        maximal = [
            j for j in descendants
            if not any(
                k != j and family.relation(cubes[j], cubes[k]) == "p_in_q"
                for k in descendants
            )
        ]
        removed = sum(family.volume_at(cubes[j].level) for j in maximal)
        density = 1.0 - removed / family.volume_at(q.level)
        if density < min_density:
            min_density = density
        if density < 0.5 and first_violation is None:
            first_violation = q
    disjoint = bool(np.all(count <= 1))
    ok = disjoint and first_violation is None
    return SparseCertificate(ok, min_density, disjoint, first_violation, carriers)
