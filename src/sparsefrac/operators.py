"""The operators: Riesz potential, dyadic/sparse fractional integrals,
fractional maximal functions (plain, weighted, Orlicz), commutators, BMO
norms, and the inner/outer and level-set machinery used by the weak-type
argument.

Dyadic operators sum over levels 0..K of one grid; the level-0 cutoff is
shared by every verified inequality, so the excluded coarse tail never
enters on either side.  Every grid runs one block computation per level
on DyadicGridFamily.level_blocks: a cube integrates over every cell it
meets, weighted by overlap, and its value lands on the cells whose
centers it holds, so outputs are cellwise values at cell centers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, DyadicGridFamily, GridFunction, cubes_by_level
from .orlicz import YoungFunction, luxemburg_norm_blocks
from .weights import CubeBattery

__all__ = [
    "OperatorOutput",
    "riesz_potential_at",
    "riesz_potential_1d",
    "dyadic_fractional_integral",
    "sparse_fractional_integral",
    "dyadic_fractional_maximal",
    "fractional_maximal",
    "orlicz_level_rows",
    "weighted_orlicz_fractional_maximal",
    "commutator_1d",
    "commutator_plan",
    "dyadic_commutator",
    "bmo_norm",
    "inner_outer_split",
    "level_set_cubes",
]


@dataclass
class OperatorOutput:
    """Cellwise operator values with provenance and a work counter."""

    values: GridFunction
    operator: str
    grid_id: int | None = None
    cube_visits: int = 0

    @property
    def cells(self) -> np.ndarray:
        return self.values.cells


def _size_factor(family: DyadicGridFamily, level: int, alpha: float) -> float:
    # |Q|^(alpha/n) for a level-k cube is just side_k^alpha
    return family.side_at(level) ** alpha


def _level_cell_info(f: GridFunction, family: DyadicGridFamily, grid_id: int, level: int):
    """Cube averages at one level, mapped onto cells by center membership.

    Returns (per_cell_average, cubes_visited): the overlap-weighted block
    sums of the level gather over the cube volume in cells.
    """
    blocks = family.level_blocks(grid_id, level, f.depth)
    vals, frac = blocks.gather(f.cells)
    avg = (vals * frac).sum(axis=tuple(range(1, vals.ndim, 2))) / 2 ** ((f.depth - level) * f.n)
    return blocks.spread(avg), avg.size


def dyadic_fractional_integral(
    f: GridFunction, alpha: float, family: DyadicGridFamily, grid_id: int
) -> OperatorOutput:
    """Sum over levels 0..K of |Q|^(alpha/n) <f>_Q over the containing cubes."""
    out = np.zeros_like(f.cells)
    visits = 0
    for k in range(f.depth + 1):
        avg, nv = _level_cell_info(f, family, grid_id, k)
        out += _size_factor(family, k, alpha) * avg
        visits += nv
    return OperatorOutput(f.with_cells(out), "dyadic_fractional_integral", grid_id, visits)


def sparse_fractional_integral(
    f: GridFunction, alpha: float, family: DyadicGridFamily, cubes
) -> OperatorOutput:
    """Same sum restricted to an explicit cube collection (usually sparse),
    one cube_integrals call and one spread per (grid, level); cubes holding
    no cell centre add nothing and are not visited."""
    out = np.zeros_like(f.cells)
    visits = 0
    for (g, k), coords in cubes_by_level(cubes).items():
        blocks = family.level_blocks(g, k, f.depth)
        rows, inside = blocks.locate(coords)
        avg = family.cube_integrals(f, g, k, coords[inside]) / family.volume_at(k)
        per_row = np.zeros(math.prod(blocks.shape))
        np.add.at(per_row, rows, _size_factor(family, k, alpha) * avg)
        out += blocks.spread(per_row)
        visits += len(rows)
    return OperatorOutput(f.with_cells(out), "sparse_fractional_integral", None, visits)


def dyadic_fractional_maximal(
    f: GridFunction, alpha: float, family: DyadicGridFamily, grid_id: int
) -> OperatorOutput:
    """Cellwise max over containing cubes of |Q|^(alpha/n) <|f|>_Q for one grid."""
    absf = abs(f)
    out = np.zeros_like(f.cells)
    visits = 0
    for k in range(f.depth + 1):
        avg, nv = _level_cell_info(absf, family, grid_id, k)
        np.maximum(out, _size_factor(family, k, alpha) * avg, out=out)
        visits += nv
    return OperatorOutput(f.with_cells(out), "dyadic_fractional_maximal", grid_id, visits)


def fractional_maximal(
    f: GridFunction, alpha: float, family: DyadicGridFamily
) -> OperatorOutput:
    """Max of the per-grid dyadic maximal functions over the whole family."""
    out = None
    visits = 0
    for g in range(family.num_grids):
        part = dyadic_fractional_maximal(f, alpha, family, g)
        visits += part.cube_visits
        out = part.cells if out is None else np.maximum(out, part.cells)
    return OperatorOutput(f.with_cells(out), "fractional_maximal", None, visits)


def orlicz_level_rows(
    f: GridFunction, sigma: GridFunction, phi: YoungFunction,
    family: DyadicGridFamily, grid_id: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Per level k = 0..K of one grid, sigma(Q) and ||f||_{Phi,Q,sigma} over
    every cube of the level gather: the rows the Orlicz maximal operator
    spreads.  They do not depend on alpha.

    Zero-mass cubes get norm 0; the rest of every level share one
    luxemburg_norm_blocks call, one block per level."""
    f._same_mesh(sigma)
    sqs, parts = [], []
    for k in range(f.depth + 1):
        blocks = family.level_blocks(grid_id, k, f.depth)
        vals, frac = blocks.rows(f.cells)
        mass = blocks.rows(sigma.cells)[0] * frac * f.cell_volume
        sq = mass.sum(axis=1)
        live = sq > 0
        sqs.append(sq)
        parts.append((vals[live], mass[live]))
    flat = luxemburg_norm_blocks(parts, phi)
    out = []
    for sq, got in zip(sqs, np.split(flat, np.cumsum([len(v) for v, _ in parts])[:-1])):
        norms = np.zeros_like(sq)
        norms[sq > 0] = got
        out.append((sq, norms))
    return out


def weighted_orlicz_fractional_maximal(
    f: GridFunction,
    sigma: GridFunction,
    alpha: float,
    phi: YoungFunction,
    family: DyadicGridFamily,
    grid_id: int,
    rows: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> OperatorOutput:
    """Cellwise max over containing cubes of sigma(Q)^(alpha/n) ||f||_{Phi,Q,sigma}.

    alpha = 0 gives the weighted (Orlicz) maximal function; phi = t gives
    the plain weighted fractional maximal function.  rows, when given, are
    orlicz_level_rows(f, sigma, phi, family, grid_id), computed earlier;
    only their spread onto the cells is left.
    """
    if rows is None:
        rows = orlicz_level_rows(f, sigma, phi, family, grid_id)
    out = np.zeros_like(f.cells)
    visits = 0
    for k, (sq, norms) in enumerate(rows):
        blocks = family.level_blocks(grid_id, k, f.depth)
        np.maximum(out, blocks.spread(sq ** (alpha / f.n) * norms), out=out)
        visits += int(np.count_nonzero(sq > 0))
    return OperatorOutput(
        f.with_cells(out), "weighted_orlicz_fractional_maximal", grid_id, visits,
    )


# -- continuous operators (n = 1) ---------------------------------------------


def _check_riesz(f: GridFunction, alpha: float) -> None:
    if f.n != 1:
        raise ValueError("continuous Riesz potential is implemented for n = 1 only")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")


def riesz_potential_at(f: GridFunction, alpha: float, points) -> np.ndarray:
    """I_alpha f at arbitrary points, exact for the piecewise-constant f.

    Per source cell the kernel |x-y|^(alpha-1) integrates in closed form
    to an increment of g(t) = sign(t)|t|^alpha/alpha; the cell containing
    the target is included (finite for alpha > 0).  One dot product per
    point.  The edge offsets t = o + j h - x carry o - x as an exact
    two-sum pair, so near x, where j h + (o - x) cancels exactly, each
    takes one rounding (given j h exact, as for side 1 or 2.5).  A cell on
    one side of x, at distance t_near > 0, weighs
    g(t_near) * expm1(alpha * log1p(h / t_near)), _riesz_kernel's form,
    free of the cancellation in a difference of rounded g values; the
    cell holding x, and a cell with an edge at x, weigh the sum of the two
    positive one-sided terms.
    """
    _check_riesz(f, alpha)
    points = np.atleast_1d(np.asarray(points, dtype=float))
    h, o, m = f.cell_side, f.root.origin[0], 2 ** f.depth
    jh = np.arange(m + 1) * h
    out = np.empty(points.size)
    for i, x in enumerate(points):
        d = o - x
        b = d - o
        err = (o - (d - b)) + (-x - b)  # d + err == o - x exactly
        t = (jh + d) + err
        k = int(np.searchsorted(t, 0.0))  # t[k - 1] < 0 <= t[k]: cell k - 1 holds x
        a = np.abs(t)
        g = a ** alpha / alpha
        on_edge = k <= m and t[k] == 0
        if on_edge:
            a[k] = h  # x is edge k: both cells beside it take the sum below
        near = g * np.expm1(alpha * np.log1p(h / a))  # each edge's term as a near edge
        w = np.concatenate([near[1:k], near[max(k - 1, 0):-1]])  # left cells, then the rest
        for j in (k - 1, k) if on_edge else (k - 1,):
            if 0 <= j < m:
                w[j] = g[j] + g[j + 1]
        out[i] = float(np.dot(f.cells, w))
    return out


def _riesz_kernel(f: GridFunction, alpha: float) -> np.ndarray:
    """The 2m - 1 weights d[j - i + m - 1] of cell j at the centre of cell i.

    Cell j seen from centre i spans t in [(k - 1/2) h, (k + 1/2) h] with
    k = j - i, so its weight g((k + 1/2) h) - g((k - 1/2) h) depends on |k|
    alone.  For k != 0 it is formed without cancellation as
    g(s h) * expm1(alpha * log1p(1/s)), s = |k| - 1/2.
    """
    _check_riesz(f, alpha)
    h = f.cell_side
    s = np.arange(1, 2 ** f.depth) - 0.5
    far = (s * h) ** alpha / alpha * np.expm1(alpha * np.log1p(1.0 / s))
    return np.concatenate([far[::-1], [2.0 * (0.5 * h) ** alpha / alpha], far])


def _correlate_riesz(d: np.ndarray, cells: np.ndarray) -> np.ndarray:
    # out[i] = sum_j cells[j] d[j - i + m - 1]; direct, not by FFT, whose
    # error scales with the largest output rather than with each dot product
    return np.correlate(d, cells, "valid")[::-1]


def riesz_potential_1d(f: GridFunction, alpha: float) -> OperatorOutput:
    """I_alpha f at the cell centres: one correlation with a Toeplitz kernel.

    At cell centres the weight of cell j at centre i depends only on
    j - i, so the 2m - 1 kernel weights are built once (_riesz_kernel)
    and the potential is one direct correlation, O(m^2) in C.  The
    kernel depends on the cell side h alone, not on the root's origin;
    (k - 1/2) h is exact for dyadic h, and each weight, formed without
    cancellation, is within a few eps of the exact one relative to
    itself.  Every output is then a dot product of m terms with positive
    weights, so its error is at most about (gamma_m + 4 eps) (I_alpha|f|)
    at that centre, gamma_m = m eps / (1 - m eps), and far less for the
    blocked sums numpy runs.  riesz_potential_at, one dot product per
    point on the same weight form, is the per-point reference.
    """
    vals = _correlate_riesz(_riesz_kernel(f, alpha), f.cells)
    return OperatorOutput(f.with_cells(vals), "riesz_potential", None, 0)


def commutator_1d(b: GridFunction, f: GridFunction, alpha: float) -> OperatorOutput:
    """[b, I_alpha] f = b * I_alpha(f) - I_alpha(b f), evaluated at cell
    centers: one kernel, correlated with f and with b f."""
    b._same_mesh(f)
    d = _riesz_kernel(f, alpha)
    first = _correlate_riesz(d, f.cells)
    second = _correlate_riesz(d, b.cells * f.cells)
    return OperatorOutput(f.with_cells(b.cells * first - second), "commutator", None, 0)


# -- dyadic commutator ---------------------------------------------------------


def commutator_plan(
    b: GridFunction, family: DyadicGridFamily, grid_id: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The half of dyadic_commutator that depends on b alone, per level
    k = 0..K of one grid: (order, split), read-only int32 arrays (half
    the memory of intp; a level's rows hold well under 2^31 entries).

    order, shaped like the level's rows() array, is the stable sort of
    each cube's row of b, as flat indices into that array.  split, shaped
    like the cells, gives each cell its sorted rank + 1 in the row of the
    cube holding its centre, as a flat index into the rows' zero-led
    prefix sums (c + 1 entries a row).  The split at its own rank is
    valid because within a tie block |b(x) - b(y)| vanishes, so any
    consistent split gives the same sum.
    """
    plan = []
    for k in range(b.depth + 1):
        blocks = family.level_blocks(grid_id, k, b.depth)
        bb = blocks.rows(b.cells)[0]
        rows, c = bb.shape
        base = np.arange(rows)[:, None]
        order = np.argsort(bb, axis=1, kind="stable") + base * c
        pos = np.empty_like(order)
        pos.ravel()[order.ravel()] = (base * (c + 1) + np.arange(1, c + 1)).ravel()
        order, split = order.astype(np.int32), blocks.spread_entries(pos).astype(np.int32)
        order.flags.writeable = split.flags.writeable = False  # shared in a run scope
        plan.append((order, split))
    return plan


def dyadic_commutator(
    b: GridFunction, f: GridFunction, alpha: float,
    family: DyadicGridFamily, grid_id: int,
    *, plan: list[tuple[np.ndarray, np.ndarray]] | None = None,
) -> OperatorOutput:
    """Sum over cubes of |Q|^(alpha/n) avg_Q |b(x) - b(y)| f(y) dy.

    Accelerated with sorted prefix sums over the b values of each cube's
    row in the level gather, so a whole level costs one block computation
    of O(cells log cells).  The y-row is every cell the cube meets; each x
    cell reads the row of the cube holding its centre at its own sorted
    rank.  The sorts depend on b alone: plan, when given, is
    commutator_plan(b, family, grid_id), computed earlier and shared by
    every f; then each level costs f's gather, two cumsums and their takes.
    """
    b._same_mesh(f)
    if plan is None:
        plan = commutator_plan(b, family, grid_id)
    out = np.zeros_like(f.cells)
    visits = 0
    for k, level in enumerate(plan):
        order, split = (a.astype(np.intp) for a in level)  # each used twice below
        factor = _size_factor(family, k, alpha) / family.volume_at(k)
        blocks = family.level_blocks(grid_id, k, f.depth)
        fv, frac = blocks.rows(f.cells)
        fms = (fv * frac * f.cell_volume).ravel()[order]
        zero = np.zeros((len(fv), 1))
        cfm = np.concatenate([zero, np.cumsum(fms, axis=1)], axis=1)
        cbm = np.concatenate(
            [zero, np.cumsum(blocks.rows(b.cells)[0].ravel()[order] * fms, axis=1)], axis=1)
        out += factor * (b.cells * (2.0 * cfm - cfm[:, -1:]).ravel()[split]
                         + (cbm[:, -1:] - 2.0 * cbm).ravel()[split])
        visits += len(fv)
    return OperatorOutput(f.with_cells(out), "dyadic_commutator", grid_id, visits)


def bmo_norm(b: GridFunction, battery: CubeBattery) -> float:
    """Battery maximum of the mean oscillation avg_Q |b - <b>_Q|."""
    avg = battery.averages(b)
    vol = battery.volumes()
    osc = [
        (np.abs(vals - avg[sl, None]) * frac).sum(axis=1) * b.cell_volume / vol[sl]
        for sl, vals, frac in battery.overlap_rows(b)
    ]
    return float(np.concatenate(osc).max())


# -- inner/outer split and level sets ----------------------------------------


def inner_outer_split(
    f: GridFunction, alpha: float, cube: DyadicCube, family: DyadicGridFamily
) -> tuple[OperatorOutput, float]:
    """Split the dyadic fractional integral at a cube.

    inner collects the levels at and below the cube (cubes contained in
    it, along each cell's chain), supported on the cube's cells; outer is
    the constant contribution of the strict ancestors.  On the cube,
    inner + outer recomposes the full operator.
    """
    blocks = family.level_blocks(cube.grid_id, cube.level, f.depth)
    rows = blocks.locate(cube.coords)[0]
    held = blocks.spread(np.isin(np.arange(math.prod(blocks.shape)), rows))
    inner = np.zeros_like(f.cells)
    outer = 0.0
    for k in range(f.depth + 1):
        avg, _ = _level_cell_info(f, family, cube.grid_id, k)
        if k >= cube.level:
            inner[held] += _size_factor(family, k, alpha) * avg[held]
        elif held.any():
            outer += _size_factor(family, k, alpha) * float(avg[held][0])
    return (
        OperatorOutput(f.with_cells(inner), "inner_part", cube.grid_id, 0),
        outer,
    )


def level_set_cubes(
    values: GridFunction, t: float, family: DyadicGridFamily, grid_id: int
) -> list[DyadicCube]:
    """Maximal grid cubes on which the cellwise output exceeds t everywhere.

    The union of the returned cubes' cells is exactly the thresholded mask
    {values > t}; this needs the mesh-aligned grid, where every finest
    cube is a single cell and a level-k cube is a block of the mesh.  Block
    minima are built bottom-up by reshapes; a cube is returned, in sorted
    order, when its minimum exceeds t and its parent's does not.
    """
    if not family.is_aligned(grid_id):
        raise ValueError("level-set decomposition needs a mesh-aligned grid")
    if t <= 0:
        raise ValueError("threshold must be positive")
    above = [values.cells > t]
    mins = values.cells
    for _ in range(values.depth):
        mins = mins.reshape([s for m in mins.shape for s in (m // 2, 2)]).min(
            axis=tuple(range(1, 2 * values.n, 2)))
        above.insert(0, mins > t)
    out: list[DyadicCube] = []
    parent = np.zeros_like(above[0])
    for k, mask in enumerate(above):
        out += [DyadicCube(grid_id, k, tuple(m)) for m in np.argwhere(mask & ~parent).tolist()]
        parent = np.kron(mask, np.ones((2,) * values.n, dtype=bool))
    return out
