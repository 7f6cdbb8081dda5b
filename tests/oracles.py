"""Brute-force reference implementations used as test oracles.

Everything here works from first principles: per-cell overlap fractions
computed with min/max, plain loops over cubes, no cumulative tables and
no vectorized block tricks, so these stay independent of the accelerated
paths they check.  The exceptions are the library's former per-cube
paths, dyadic_commutator_naive and the sparse machinery at the end: they
find a cube's cells with cells_in_cube and average with box_overlap or the
scalar box_integral, so the level sweeps they check must reproduce the
sparse ones bit for bit; dyadic_commutator_blocks, the commutator's
former per-(b, f) block form on the library's level gather, which the
planned commutator must reproduce bit for bit; and
power_cell_average_2d_recursive, the former recursive power-weight
quadrature, which the level-batched one must reproduce bit for bit.
The per-cube exact geometry the level sweeps replaced (containing_cube,
smallest_covering_cube, cubes_inside_root) and box_average live here too.
"""

import itertools
import math

import numpy as np

from sparsefrac.grid import DyadicCube, DyadicGridFamily, GridFunction
from sparsefrac.operators import OperatorOutput
from sparsefrac.orlicz import EXPM1, YoungFunction
from sparsefrac.sparse import SparseCertificate, SparseFamily, sparse_select_for_operator
from sparsefrac.verify import (
    YOUNG_FUNCTIONS,
    _case_density,
    _case_function,
    _case_weight,
    workspace,
)
from sparsefrac.weights import apq_characteristic


def cell_bounds(f: GridFunction, index):
    h = f.cell_side
    lo = [f.root.origin[d] + index[d] * h for d in range(f.n)]
    return lo, [v + h for v in lo]


def containing_cube(family: DyadicGridFamily, grid_id: int, level: int, x) -> DyadicCube:
    """The unique half-open cube of the grid/level containing x."""
    family._check_grid(grid_id)
    family._check_level(level)
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if np.any(x < family.ambient_lo) or np.any(x >= family.ambient_hi):
        raise ValueError(f"point {x.tolist()} outside the ambient box")
    s = family.side_at(level)
    e = family._shift_signs(grid_id, level)
    m = tuple(
        int(math.floor((x[d] - family.root.origin[d]) / s - e[d] / 3.0))
        for d in range(family.n)
    )
    return DyadicCube(grid_id, level, m)


def cubes_inside_root(family: DyadicGridFamily, grid_id: int, level: int) -> list[DyadicCube]:
    """Cubes at one level fully contained in the root box, lexicographic."""
    axes = [range(lo, hi + 1) for lo, hi in family.inside_range(grid_id, level)]
    return [DyadicCube(grid_id, level, m) for m in itertools.product(*axes)]


def smallest_covering_cube(family: DyadicGridFamily, lo, hi):
    """Smallest family cube containing the box [lo, hi), or None.

    Scans every grid from fine to coarse.  The one-third shifts
    guarantee a hit with side at most 6x the box side whenever the box
    is small relative to the root box (this is the covering trick that
    lets a finite grid family stand in for all cubes).
    """
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    eps = 1e-12 * family.root.side
    best = None
    for g in range(family.num_grids):
        for k in range(family.max_level, -1, -1):
            if family.side_at(k) < np.max(hi - lo):
                continue
            cube = containing_cube(family, g, k, lo)
            clo, chi = family.cube_bounds(cube)
            if np.all(lo >= clo - eps) and np.all(hi <= chi + eps):
                if best is None or cube.level > best.level:
                    best = cube
                break  # finer levels of this grid cannot contain the box
    return best


def box_average(f: GridFunction, lo, hi) -> float:
    """Integral over the full box volume (zero extension included)."""
    lo = np.atleast_1d(np.asarray(lo, dtype=float))
    hi = np.atleast_1d(np.asarray(hi, dtype=float))
    vol = float(np.prod(hi - lo))
    if vol <= 0:
        raise ValueError("degenerate box")
    return f.box_integral(lo, hi) / vol


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


def cells_in_cube(family: DyadicGridFamily, cube: DyadicCube, depth: int):
    """Index ranges (i0, i1) per axis of mesh cells whose centers lie in the
    cube, from its float corners (the library reads LevelBlocks rows)."""
    m = 2 ** depth
    h = family.root.side / m
    lo, hi = family.cube_bounds(cube)
    out = []
    for d in range(family.n):
        i0 = math.ceil((lo[d] - family.root.origin[d]) / h - 0.5)
        i1 = math.ceil((hi[d] - family.root.origin[d]) / h - 0.5)
        out.append((max(i0, 0), min(i1, m)))
    return tuple(out)


def _cube_slices(ranges):
    return tuple(slice(i0, i1) for i0, i1 in ranges)


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
        mid = 0.5 * lo + 0.5 * hi
        if mean(mid) <= 1.0:
            hi = mid
        else:
            lo = mid
    return hi


def bisect_blocks(values: np.ndarray, masses: np.ndarray,
                  phi: YoungFunction, rtol: float = 1e-13) -> np.ndarray:
    """The library's former one-block gauge, unchanged: Luxemburg gauge of
    sampled |values| against normalized masses, per row of the (rows,
    cells) arrays.

    Power kinds take the closed form (the gauge equals the p-average).
    Other kinds bracket each row by doubling and halving from its peak,
    then bisect all rows together until every relative bracket width is
    under rtol (so a row can come out tighter than on its own, never
    looser), and return the upper ends so the unit-mean constraint holds.
    A row gauges 0 when no positive value carries mass or when its lower
    bracket falls below 1e-300.  The default tolerance is pinned well
    below the contracted 1e-10 so that independent scans of the same cube
    land within 1e-12 of each other.  Non-finite input, a row of no mass,
    a bracket past the float range and an rtol at the float spacing raise
    ValueError.
    """
    a = np.abs(np.asarray(values, dtype=float))
    m = np.asarray(masses, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(m).all()):
        raise ValueError("non-finite values or masses")
    if not rtol > 4.0 * np.finfo(float).eps:
        raise ValueError("rtol must exceed the float spacing")
    total = m.sum(axis=1)
    if np.any(total <= 0):
        raise ValueError("degenerate measure")
    m = m / total[:, None]
    if phi.kind == "power":
        return np.einsum("ij,ij->i", a ** phi.exponent, m) ** (1.0 / phi.exponent)
    out = np.zeros(a.shape[0])
    live = np.any((a > 0) & (m > 0), axis=1)
    if not np.any(live):
        return out
    a, m = a[live], m[live]

    def means(lam):
        with np.errstate(over="ignore", invalid="ignore"):
            vals = phi(a / lam[:, None])
        return np.einsum("ij,ij->i", np.where(m > 0, vals, 0.0), m)

    hi = a.max(axis=1)
    while (up := means(hi) > 1.0).any():
        with np.errstate(over="ignore"):
            hi[up] *= 2.0
    if not np.isfinite(hi).all():
        raise ValueError("gauge bracket overflows")
    lo = hi.copy()
    dead = np.zeros(len(a), dtype=bool)  # lower bracket under 1e-300: gauge 0
    while (down := (means(lo) <= 1.0) & ~dead).any():
        lo[down] *= 0.5
        dead |= lo < 1e-300
    while ((hi - lo > rtol * hi) & ~dead).any():
        mid = 0.5 * lo + 0.5 * hi
        ok = means(mid) <= 1.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    out[live] = np.where(dead, 0.0, hi)
    return out


def per_block_gauge(blocks, phi: YoungFunction, rtol: float = 1e-13) -> np.ndarray:
    """luxemburg_norm_blocks as one bisect_blocks call per block: the
    per-level loop the batched gauge replaced."""
    return np.concatenate([np.zeros(0)] + [bisect_blocks(v, m, phi, rtol) for v, m in blocks])


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


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(6)


def power_cell_average_2d_recursive(lo, hi, x0, gamma, tol=1e-10):
    """The library's former recursive 2-d power-weight cell average,
    unchanged: the level-batched weights._power_cell_average_2d must
    reproduce it bit for bit.

    Recursive dyadic refinement toward x0: boxes well separated from x0
    get tensor Gauss-Legendre, the rest are split, and the ball around x0
    is closed with the exact radial bound once its contribution is below
    tolerance.  gamma > -2 keeps everything integrable.
    """
    if gamma <= -2:
        raise ValueError("gamma must exceed -2 for an integrable 2-d weight")
    x0 = np.asarray(x0, dtype=float)

    def gauss(b_lo, b_hi):
        mid = 0.5 * (b_lo + b_hi)
        half = 0.5 * (b_hi - b_lo)
        xs = mid[0] + half[0] * _GL_NODES
        ys = mid[1] + half[1] * _GL_NODES
        dx = xs[:, None] - x0[0]
        dy = ys[None, :] - x0[1]
        vals = (dx * dx + dy * dy) ** (gamma / 2.0)
        wts = _GL_WEIGHTS[:, None] * _GL_WEIGHTS[None, :]
        return float((vals * wts).sum() * half[0] * half[1])

    total_vol = float(np.prod(np.asarray(hi) - np.asarray(lo)))
    acc = 0.0
    stack = [(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), 0)]
    while stack:
        b_lo, b_hi, depth = stack.pop()
        diam = float(np.linalg.norm(b_hi - b_lo))
        d = float(np.linalg.norm(np.clip(x0, b_lo, b_hi) - x0))
        if d >= diam:
            acc += gauss(b_lo, b_hi)
            continue
        # ball bound: integral over the box is under the full radial integral
        ball = 2.0 * math.pi * diam ** (gamma + 2.0) / (gamma + 2.0)
        if depth >= 48 or ball < tol * max(abs(acc), 1e-300):
            acc += ball if gamma < 0 else gauss(b_lo, b_hi)
            continue
        mid = 0.5 * (b_lo + b_hi)
        for i in range(2):
            for j in range(2):
                s_lo = np.array([b_lo[0] if i == 0 else mid[0],
                                 b_lo[1] if j == 0 else mid[1]])
                s_hi = np.array([mid[0] if i == 0 else b_hi[0],
                                 mid[1] if j == 0 else b_hi[1]])
                stack.append((s_lo, s_hi, depth + 1))
    return acc / total_vol


def power_cell_average_2d_mp(lo, hi, x0, gamma, dps: int = 30):
    """Average of |x - x0|^gamma over the rectangle [lo, hi] holding x0,
    in dps-digit arithmetic.  x0 cuts the rectangle into at most four with
    x0 at a corner; one with sides a, b integrates in polar form as the
    integral of (a / cos phi)^(gamma + 2) / (gamma + 2) over phi up to
    atan(b / a) plus that of (b / sin phi)^(gamma + 2) / (gamma + 2) above."""
    import mpmath

    with mpmath.workdps(dps):
        g2 = mpmath.mpf(gamma) + 2
        lo, hi, x0 = ([mpmath.mpf(float(v)) for v in u] for u in (lo, hi, x0))
        total = mpmath.mpf(0)
        for a in (x0[0] - lo[0], hi[0] - x0[0]):
            for b in (x0[1] - lo[1], hi[1] - x0[1]):
                if a > 0 and b > 0:
                    split = mpmath.atan(b / a)
                    total += mpmath.quad(lambda phi: (a / mpmath.cos(phi)) ** g2, [0, split])
                    total += mpmath.quad(lambda phi: (b / mpmath.sin(phi)) ** g2,
                                         [split, mpmath.pi / 2])
        return float(total / g2 / ((hi[0] - lo[0]) * (hi[1] - lo[1])))


def riesz_centres_mp(f: GridFunction, alpha: float, dps: int = 40, points=None):
    """I_alpha f and I_alpha |f| at the cell centres of the float mesh, in
    dps-digit arithmetic.  Cell j seen from centre i spans
    [(j - i - 1/2) h, (j - i + 1/2) h] exactly, wherever the root sits.

    points (one per cell, each a few ulps from its exact centre, such as
    the float centres) moves I_alpha f, not the scale, to the points: the
    centre value minus delta_i sum_j c_j D[j - i], with delta_i the exact
    offset of points[i] from its centre and D[k] = |(k + 1/2) h|^(alpha-1)
    - |(k - 1/2) h|^(alpha-1).  The shift is about 1e-14 of the value, so
    its sum runs in float64, and its neglected second-order term is about
    delta / h of it, 1e-13 for a root near 1 at depth 8."""
    import mpmath

    m = 2 ** f.depth
    with mpmath.workdps(dps):
        a, h = mpmath.mpf(alpha), mpmath.mpf(f.cell_side)

        def g(t):
            return mpmath.sign(t) * abs(t) ** a / a

        w = {k: g((k + 0.5) * h) - g((k - 0.5) * h) for k in range(1 - m, m)}
        c = [mpmath.mpf(float(v)) for v in f.cells]
        rows = [[w[j - i] for j in range(m)] for i in range(m)]
        val = [mpmath.fdot(c, r) for r in rows]
        mag = [float(mpmath.fdot([abs(v) for v in c], r)) for r in rows]
        if points is not None:
            o = mpmath.mpf(f.root.origin[0])
            delta = [float(mpmath.mpf(float(x)) - o - (i + 0.5) * h)
                     for i, x in enumerate(points)]
            k = np.arange(1 - m, m) * f.cell_side
            d = np.abs(k + 0.5 * f.cell_side) ** (alpha - 1) - np.abs(k - 0.5 * f.cell_side) ** (alpha - 1)
            slope = np.correlate(d, f.cells, "valid")[::-1]  # sum_j c_j D[j - i]
            val = [v - mpmath.mpf(float(s * dx)) for v, s, dx in zip(val, slope, delta)]
    return np.array([float(v) for v in val]), np.array(mag)


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


def dyadic_commutator_naive(
    b: GridFunction, f: GridFunction, alpha: float,
    family: DyadicGridFamily, grid_id: int,
) -> OperatorOutput:
    """The dyadic commutator one cube at a time: cells_in_cube, box_overlap
    and a dense |b(x) - b(y)| matrix per cube."""
    b._same_mesh(f)
    out = np.zeros_like(f.cells)
    visits = 0
    cellvol = f.cell_volume
    for k in range(f.depth + 1):
        factor = family.side_at(k) ** alpha / family.volume_at(k)
        for cube in family.enumerate_cubes(grid_id, k):
            ranges = cells_in_cube(family, cube, f.depth)
            if any(i0 >= i1 for i0, i1 in ranges):
                continue
            lo, hi = family.cube_bounds(cube)
            sl, frac = f.box_overlap(lo, hi)
            fm = (f.cells[sl] * frac).ravel() * cellvol
            by = b.cells[sl].ravel()
            xb = b.cells[_cube_slices(ranges)].ravel()
            inner = np.abs(xb[:, None] - by[None, :]) @ fm
            out[_cube_slices(ranges)] += factor * inner.reshape(
                tuple(i1 - i0 for i0, i1 in ranges)
            )
            visits += 1
    return OperatorOutput(f.with_cells(out), "dyadic_commutator_naive", grid_id, visits)


def _commutator_blocks(bb: np.ndarray, fm: np.ndarray) -> np.ndarray:
    """Rows are cubes: inner sums of |b(x) - b(y)| fm(y) for x, y in the cube.

    Sorted prefix sums per row; the split position for a query is its own
    sorted rank, which is valid because within a tie block the absolute
    difference vanishes, so any consistent split gives the same sum.
    """
    rows, c = bb.shape
    order = np.argsort(bb, axis=1, kind="stable")
    bs = np.take_along_axis(bb, order, axis=1)
    fms = np.take_along_axis(fm, order, axis=1)
    zero = np.zeros((rows, 1))
    cfm = np.concatenate([zero, np.cumsum(fms, axis=1)], axis=1)
    cbm = np.concatenate([zero, np.cumsum(bs * fms, axis=1)], axis=1)
    ftot = cfm[:, -1:]
    btot = cbm[:, -1:]
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.broadcast_to(np.arange(c), (rows, c)), axis=1)
    pos = ranks + 1
    take_f = np.take_along_axis(cfm, pos, axis=1)
    take_b = np.take_along_axis(cbm, pos, axis=1)
    return bb * (2.0 * take_f - ftot) + (btot - 2.0 * take_b)


def dyadic_commutator_blocks(b: GridFunction, f: GridFunction, alpha: float,
                             family: DyadicGridFamily, grid_id: int) -> np.ndarray:
    """The dyadic commutator with every level sorted afresh for each (b, f):
    _commutator_blocks on the level_blocks rows, spread by open-mesh indexing."""
    out = np.zeros_like(f.cells)
    for k in range(f.depth + 1):
        factor = family.side_at(k) ** alpha / family.volume_at(k)
        blocks = family.level_blocks(grid_id, k, f.depth)
        fv, frac = blocks.rows(f.cells)
        inner = _commutator_blocks(blocks.rows(b.cells)[0], fv * frac * f.cell_volume)
        cols = [np.arange(r.size) - i[r, 0] for i, r in zip(blocks.idx, blocks.row)]
        a = inner.reshape(blocks.shape + tuple(i.shape[1] for i in blocks.idx))
        out += factor * a[np.ix_(*blocks.row) + np.ix_(*cols)]
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
# The cube-by-cube stopping times, certification, sparse integral, level sets
# and duality loop that the level sweeps replace.  They average with the same
# scalar box_integral, find cells with cells_in_cube and sum in the same
# order, so the sweeps must match them exactly.


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


def naive_carrier(
    sparse: SparseFamily, family: DyadicGridFamily, depth: int, q: DyadicCube
) -> np.ndarray:
    """The carrier of q by definition: the cells whose centres q holds minus
    those of every selected cube strictly inside q, found by relation()."""
    shape = (2 ** depth,) * family.n

    def cells(c):
        mask = np.zeros(shape, dtype=bool)
        mask[_cube_slices(cells_in_cube(family, c, depth))] = True
        return mask

    carrier = cells(q)
    for p in sparse.cubes:
        if p != q and family.relation(p, q) == "p_in_q":
            carrier &= ~cells(p)
    return carrier


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


def percube_sparse_integral(f, alpha, family, cubes):
    """The sparse fractional integral one cube at a time: cells_in_cube and a
    scalar box_integral per cube, summed in the given order."""
    out = np.zeros_like(f.cells)
    visits = 0
    for cube in cubes:
        ranges = cells_in_cube(family, cube, f.depth)
        if any(i0 >= i1 for i0, i1 in ranges):
            continue
        lo, hi = family.cube_bounds(cube)
        avg = f.box_integral(lo, hi) / family.volume_at(cube.level)
        out[_cube_slices(ranges)] += family.side_at(cube.level) ** alpha * avg
        visits += 1
    return out, visits


def naive_level_set_cubes(values: GridFunction, t: float, family, grid_id: int):
    """Maximal aligned cubes with every cell above t, by a depth-first
    recursion from the level-0 cubes inside the root box."""
    out = []

    def recurse(cube: DyadicCube):
        ranges = cells_in_cube(family, cube, values.depth)
        if any(i0 >= i1 for i0, i1 in ranges):
            return
        vals = values.cells[_cube_slices(ranges)]
        if float(vals.min()) > t:
            out.append(cube)
            return
        if cube.level >= values.depth:
            return
        if float(vals.max()) <= t:
            return
        for child in family.children(cube):
            recurse(child)

    for cube in cubes_inside_root(family, grid_id, 0):
        recurse(cube)
    return out


def naive_duality_ratios(case) -> dict:
    """verify_duality_cube_estimate's per-cube loop: scalar box_integral
    for sigma(Q) and v(Q), masked carrier sums from naive_certify."""
    e = case.e
    ws = workspace(case.root, case.depth, case.battery_depth)
    w = _case_weight(case)
    f = _case_function(case)
    sigma, v = w.sigma(e), w.v(e)
    char = apq_characteristic(w, e, ws.full_battery)
    sparse = sparse_select_for_operator(f, ws.family, 0)
    cert = naive_certify(sparse, ws.family, case.depth)
    density_const = 2.0 ** (e.r_prime / e.p + e.r / e.p_prime)
    tol = 1e-9
    worst1 = worst2 = 0.0
    violations = 0
    cellvol = f.cell_volume
    for cube in sparse.cubes:
        lo, hi = ws.family.cube_bounds(cube)
        vol = ws.family.volume_at(cube.level)
        sq = sigma.box_integral(lo, hi)
        vq = v.box_integral(lo, hi)
        carrier = cert.carriers[cube]
        se = float(sigma.cells[carrier].sum()) * cellvol
        ve = float(v.cells[carrier].sum()) * cellvol
        lhs1 = vol ** (e.alpha / e.n - 1.0) * sq * vq ** (1.0 - e.alpha / e.n)
        mid = char * sq ** (1.0 / e.p) * vq ** (1.0 / e.p_prime)
        rhs2 = density_const * char ** e.strong_power \
            * se ** (1.0 / e.p) * ve ** (1.0 / e.p_prime)
        if lhs1 > mid * (1.0 + tol) or mid > rhs2 * (1.0 + tol):
            violations += 1
        worst1 = max(worst1, lhs1 / mid if mid > 0 else math.inf)
        worst2 = max(worst2, mid / rhs2 if rhs2 > 0 else math.inf)
    return {"violations": violations, "worst_first_ratio": worst1,
            "worst_second_ratio": worst2, "measured_constant": max(worst1, worst2),
            "family_size": len(sparse)}


def naive_summation_sides(case, top: DyadicCube) -> tuple[float, float]:
    """verify_summation_lemma's lhs and rhs cube by cube: each subcube's
    cells by cells_in_cube, sigma(Q) as an fsum of its cells and the
    gauge by naive_luxemburg."""
    family = DyadicGridFamily(case.root, case.depth)
    sigma, f = _case_density(case), _case_function(case)
    lhs = rhs = 0.0
    for k in range(top.level, case.depth + 1):
        r = 1 << (k - top.level)
        for m in itertools.product(*(range(c * r, (c + 1) * r) for c in top.coords)):
            sl = _cube_slices(cells_in_cube(family, DyadicCube(top.grid_id, k, m), case.depth))
            sq = math.fsum(sigma.cells[sl].ravel()) * sigma.cell_volume
            norm = naive_luxemburg(f.cells[sl].ravel(), sigma.cells[sl].ravel(),
                                   YOUNG_FUNCTIONS[case.phi]) if sq > 0 else 0.0
            term = family.side_at(k) ** case.e.alpha * sq * norm
            lhs += term
            if k == top.level:  # the top cube itself
                rhs = term
    return lhs, rhs
