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
from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, DyadicGridFamily, GridFunction, LevelBlocks
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
    "weighted_orlicz_fractional_maximal",
    "commutator_1d",
    "dyadic_commutator",
    "dyadic_commutator_naive",
    "bmo_norm",
    "inner_outer_split",
    "level_set_cubes",
    "cells_in_cube",
]


@dataclass
class OperatorOutput:
    """Cellwise operator values with provenance and a work counter."""

    values: GridFunction
    operator: str
    grid_id: int | None = None
    params: dict = field(default_factory=dict)
    cube_visits: int = 0

    @property
    def cells(self) -> np.ndarray:
        return self.values.cells


def _size_factor(family: DyadicGridFamily, level: int, alpha: float) -> float:
    # |Q|^(alpha/n) for a level-k cube is just side_k^alpha
    return family.side_at(level) ** alpha


def cells_in_cube(family: DyadicGridFamily, cube: DyadicCube, depth: int):
    """Index ranges (i0, i1) per axis of mesh cells whose centers lie in the cube."""
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
    return OperatorOutput(
        f.with_cells(out), "dyadic_fractional_integral", grid_id,
        {"alpha": alpha}, visits,
    )


def sparse_fractional_integral(
    f: GridFunction, alpha: float, family: DyadicGridFamily, cubes
) -> OperatorOutput:
    """Same sum restricted to an explicit cube collection (usually sparse)."""
    out = np.zeros_like(f.cells)
    visits = 0
    for cube in cubes:
        ranges = cells_in_cube(family, cube, f.depth)
        if any(i0 >= i1 for i0, i1 in ranges):
            continue
        lo, hi = family.cube_bounds(cube)
        avg = f.box_integral(lo, hi) / family.volume_at(cube.level)
        out[_cube_slices(ranges)] += _size_factor(family, cube.level, alpha) * avg
        visits += 1
    return OperatorOutput(
        f.with_cells(out), "sparse_fractional_integral", None,
        {"alpha": alpha}, visits,
    )


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
    return OperatorOutput(
        f.with_cells(out), "dyadic_fractional_maximal", grid_id,
        {"alpha": alpha}, visits,
    )


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
    return OperatorOutput(
        f.with_cells(out), "fractional_maximal", None, {"alpha": alpha}, visits
    )


def _orlicz_rows(f: GridFunction, sigma: GridFunction, phi: YoungFunction,
                 blocks: LevelBlocks, sel=None):
    """sigma(Q) and ||f||_{Phi,Q,sigma} for the cubes of a level gather.

    Zero-mass cubes get norm 0; the rest share one luxemburg_norm_blocks
    call, whose bisection runs until every row it is given converges."""
    vals, frac = blocks.rows(f.cells, sel)
    mass = blocks.rows(sigma.cells, sel)[0] * frac * f.cell_volume
    sq = mass.sum(axis=1)
    live = sq > 0
    norms = np.zeros_like(sq)
    norms[live] = luxemburg_norm_blocks(vals[live], mass[live], phi)
    return sq, norms


def weighted_orlicz_fractional_maximal(
    f: GridFunction,
    sigma: GridFunction,
    alpha: float,
    phi: YoungFunction,
    family: DyadicGridFamily,
    grid_id: int,
) -> OperatorOutput:
    """Cellwise max over containing cubes of sigma(Q)^(alpha/n) ||f||_{Phi,Q,sigma}.

    alpha = 0 gives the weighted (Orlicz) maximal function; phi = t gives
    the plain weighted fractional maximal function.
    """
    f._same_mesh(sigma)
    out = np.zeros_like(f.cells)
    visits = 0
    for k in range(f.depth + 1):
        blocks = family.level_blocks(grid_id, k, f.depth)
        sq, norms = _orlicz_rows(f, sigma, phi, blocks)
        np.maximum(out, blocks.spread(sq ** (alpha / f.n) * norms), out=out)
        visits += int(np.count_nonzero(sq > 0))
    return OperatorOutput(
        f.with_cells(out), "weighted_orlicz_fractional_maximal", grid_id,
        {"alpha": alpha, "phi": phi.kind}, visits,
    )


# -- continuous operators (n = 1) ---------------------------------------------


def riesz_potential_at(f: GridFunction, alpha: float, points) -> np.ndarray:
    """I_alpha f at arbitrary points, exact for the piecewise-constant f.

    Per source cell the kernel |x-y|^(alpha-1) integrates in closed form;
    the cell containing the target is included (finite for alpha > 0).
    """
    if f.n != 1:
        raise ValueError("continuous Riesz potential is implemented for n = 1 only")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    points = np.atleast_1d(np.asarray(points, dtype=float))
    m = 2 ** f.depth
    edges = f.root.origin[0] + np.arange(m + 1) * f.cell_side
    out = np.empty(points.size)
    for i, x in enumerate(points):
        t = edges - x
        g = np.sign(t) * np.abs(t) ** alpha / alpha
        out[i] = float(np.dot(f.cells, np.diff(g)))
    return out


def riesz_potential_1d(f: GridFunction, alpha: float) -> OperatorOutput:
    vals = riesz_potential_at(f, alpha, f.cell_centers()[0])
    return OperatorOutput(
        f.with_cells(vals), "riesz_potential", None, {"alpha": alpha}, 0
    )


def commutator_1d(b: GridFunction, f: GridFunction, alpha: float) -> OperatorOutput:
    """[b, I_alpha] f = b * I_alpha(f) - I_alpha(b f), evaluated at cell centers."""
    b._same_mesh(f)
    first = riesz_potential_1d(f, alpha).cells
    second = riesz_potential_1d(b * f, alpha).cells
    return OperatorOutput(
        f.with_cells(b.cells * first - second), "commutator", None,
        {"alpha": alpha}, 0,
    )


# -- dyadic commutator ---------------------------------------------------------


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


def dyadic_commutator(
    b: GridFunction, f: GridFunction, alpha: float,
    family: DyadicGridFamily, grid_id: int,
) -> OperatorOutput:
    """Sum over cubes of |Q|^(alpha/n) avg_Q |b(x) - b(y)| f(y) dy.

    Accelerated with sorted prefix sums over the b values of each cube's
    row in the level gather, so a whole level costs one block computation
    of O(cells log cells).  The y-row is every cell the cube meets; each x
    cell takes its own entry of the row of the cube holding its centre.
    The plain loop in dyadic_commutator_naive is the normative definition.
    """
    b._same_mesh(f)
    out = np.zeros_like(f.cells)
    visits = 0
    for k in range(f.depth + 1):
        factor = _size_factor(family, k, alpha) / family.volume_at(k)
        blocks = family.level_blocks(grid_id, k, f.depth)
        fv, frac = blocks.rows(f.cells)
        inner = _commutator_blocks(blocks.rows(b.cells)[0], fv * frac * f.cell_volume)
        out += factor * blocks.spread_entries(inner)
        visits += len(fv)
    return OperatorOutput(
        f.with_cells(out), "dyadic_commutator", grid_id, {"alpha": alpha}, visits
    )


def dyadic_commutator_naive(
    b: GridFunction, f: GridFunction, alpha: float,
    family: DyadicGridFamily, grid_id: int,
) -> OperatorOutput:
    """Reference implementation: direct absolute-difference averages per cube."""
    b._same_mesh(f)
    out = np.zeros_like(f.cells)
    visits = 0
    cellvol = f.cell_volume
    for k in range(f.depth + 1):
        factor = _size_factor(family, k, alpha) / family.volume_at(k)
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
    return OperatorOutput(
        f.with_cells(out), "dyadic_commutator_naive", grid_id, {"alpha": alpha}, visits
    )


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
    inner = np.zeros_like(f.cells)
    ranges = cells_in_cube(family, cube, f.depth)
    sl = _cube_slices(ranges)
    outer = 0.0
    probe = sl if all(i1 > i0 for i0, i1 in ranges) else None
    for k in range(f.depth + 1):
        avg, _ = _level_cell_info(f, family, cube.grid_id, k)
        if k >= cube.level:
            inner[sl] += _size_factor(family, k, alpha) * avg[sl]
        elif probe is not None:
            first = tuple(i0 for i0, _ in ranges)
            outer += _size_factor(family, k, alpha) * float(avg[first])
    return (
        OperatorOutput(f.with_cells(inner), "inner_part", cube.grid_id,
                       {"alpha": alpha, "cube": cube}, 0),
        outer,
    )


def level_set_cubes(
    values: GridFunction, t: float, family: DyadicGridFamily, grid_id: int
) -> list[DyadicCube]:
    """Maximal grid cubes on which the cellwise output exceeds t everywhere.

    The union of the returned cubes' cells is exactly the thresholded mask
    {values > t}; this needs the mesh-aligned grid, where every finest
    cube is a single cell.
    """
    if not family.is_aligned(grid_id):
        raise ValueError("level-set decomposition needs a mesh-aligned grid")
    if t <= 0:
        raise ValueError("threshold must be positive")
    out: list[DyadicCube] = []

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

    for cube in family.cubes_inside_root(grid_id, 0):
        recurse(cube)
    return out
