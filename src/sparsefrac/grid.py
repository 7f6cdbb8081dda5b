"""Dyadic grid families and piecewise-constant mesh functions on a box.

Everything lives on a half-open root box [o, o+L)^n with n = 1 or 2.  A
grid family holds the 2^n one-third-shifted dyadic grids; a cube is
addressed by (grid_id, level, integer coords) and its corners are exact
rationals with denominator 3 * 2^level, so nesting and disjointness tests
are pure integer arithmetic.  Level blocks come from per-axis tables
shared by the grids.  Mesh functions are arrays of cell values at depth K
with a long-double cumulative table (built on first use), giving O(1) box
integrals within a few long-double ulps of the box's mass, also for boxes
cutting through cells (the shifted grids are not mesh aligned, so
partial-cell overlap is the common case, not the exception).
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

__all__ = [
    "RootBox",
    "DyadicCube",
    "DyadicGridFamily",
    "GridFunction",
    "LevelBlocks",
    "cell_centers",
    "cubes_by_level",
    "range_coords",
    "read_gridfunction",
    "write_gridfunction",
]

_MAX_DEPTH = {1: 12, 2: 8}
_BOX_CHUNK = 1 << 11  # boxes per box_integrals pass: under 1 MB of temporaries


def _cell_units(x, origin, h: float, m: int):
    """Coordinates x in cell units of a mesh of m cells of side h, clamped to [0, m]."""
    return np.minimum(np.maximum((x - origin) / h, 0.0), m)


def _overlap_fractions(u, v, j):
    """Overlap of [u, v) with the cells [j, j + 1), all in cell units."""
    return np.minimum(np.maximum(np.minimum(v, j + 1.0) - np.maximum(u, j), 0.0), 1.0)


def _corners(origin, side: float, level, num):
    """origin + side / (3 * 2^level) * num: the one float expression for cube corners."""
    return origin + side / (3 * (1 << level)) * num


def _shift_sign(t, level):
    """e = (-1)^level t, in {-1, 0, 1} for the shift t/3 (ints or integer arrays)."""
    return (-1) ** level * t


def _corner_thirds(m, t, level):
    """3 m + e: the exact lower corner of level cube m, in thirds of its side."""
    return 3 * m + _shift_sign(t, level)


def _outer(axes):
    """Product over the mesh of one factor array per axis."""
    return functools.reduce(np.multiply.outer, axes)


def cell_centers(root: RootBox, depth: int) -> list[np.ndarray]:
    """Per axis, the centres of the 2^depth mesh cells."""
    m = 2 ** depth
    return [root.origin[d] + (np.arange(m) + 0.5) * root.side / m for d in range(root.n)]


def range_coords(ranges) -> np.ndarray:
    """(N, n) integer coordinates of the inclusive per-axis ranges [m_lo, m_hi],
    in lexicographic order (the order of enumerate_cubes)."""
    axes = [np.arange(lo, hi + 1) for lo, hi in ranges]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(axes))


def cubes_by_level(cubes) -> dict[tuple[int, int], np.ndarray]:
    """Coordinates (N, n) of the cubes per (grid_id, level), in sorted key
    order and in input order within a key (a sorted list is their concatenation)."""
    groups: dict[tuple[int, int], list] = {}
    for c in cubes:
        groups.setdefault((c.grid_id, c.level), []).append(c.coords)
    return {key: np.array(groups[key], dtype=np.int64) for key in sorted(groups)}


@dataclass(frozen=True)
class RootBox:
    """Half-open box [origin, origin + side)^n carrying all data."""

    origin: tuple[float, ...]
    side: float

    def __post_init__(self):
        n = len(self.origin)
        if n not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {n}")
        if not self.side > 0:
            raise ValueError("root box side must be positive")
        if not all(map(math.isfinite, (*self.origin, self.side))):
            raise ValueError("root box origin and side must be finite")

    @property
    def n(self) -> int:
        return len(self.origin)

    @property
    def lo(self) -> np.ndarray:
        return np.asarray(self.origin, dtype=float)

    @property
    def hi(self) -> np.ndarray:
        return self.lo + self.side


@dataclass(frozen=True, order=True)
class DyadicCube:
    """Addressed cube: grid index, refinement level, integer coordinates.

    The geometry (corner positions, side length) is owned by the grid
    family; a cube by itself is just an address.
    """

    grid_id: int
    level: int
    coords: tuple[int, ...]


class DyadicGridFamily:
    """The 2^n alternating one-third-shifted dyadic grids over a root box.

    Grid g has shift t = shift_thirds[g] / 3 componentwise; its level-k
    cubes are  s_k * ([0,1)^n + m + (-1)^k t)  with s_k = side * 2^-k,
    translated by the root origin.  The alternating sign makes each grid
    genuinely dyadic (level-(k+1) cubes refine level-k cubes) because
    3 * (-1)^k t is an integer vector.  Grids are materialized over an
    ambient box that extends the root box by one root side in every
    direction, so coarse shifted cubes covering the support exist.
    """

    def __init__(self, root: RootBox, max_level: int):
        n = root.n
        cap = _MAX_DEPTH[n]
        if not 0 < max_level <= cap:
            raise ValueError(f"max_level must be in [1, {cap}] for n={n}")
        self.root = root
        self.max_level = max_level
        # lexicographic over {0,1}^n; grid 0 is the unshifted, mesh-aligned grid
        self.shift_thirds = [
            tuple((g >> d) & 1 for d in range(n)) for g in range(2 ** n)
        ]
        self._level_blocks: dict[tuple[int, int, int], LevelBlocks] = {}
        self._axis_tables = functools.cache(functools.partial(_axis_levels, side=root.side))

    @property
    def n(self) -> int:
        return self.root.n

    @property
    def num_grids(self) -> int:
        return len(self.shift_thirds)

    @property
    def ambient_lo(self) -> np.ndarray:
        return self.root.lo - self.root.side

    @property
    def ambient_hi(self) -> np.ndarray:
        return self.root.lo + 2.0 * self.root.side

    def is_aligned(self, grid_id: int) -> bool:
        """True for the unshifted grid, whose cubes are unions of mesh cells."""
        return all(t == 0 for t in self.shift_thirds[grid_id])

    def side_at(self, level: int) -> float:
        return self.root.side * 2.0 ** (-level)

    def volume_at(self, level: int) -> float:
        return self.side_at(level) ** self.n

    def _check_grid(self, grid_id: int) -> None:
        if not 0 <= grid_id < self.num_grids:
            raise ValueError(f"grid_id must be in [0, {self.num_grids})")

    def _check_level(self, level: int) -> None:
        if not 0 <= level <= self.max_level:
            raise ValueError(
                f"level {level} out of range [0, {self.max_level}]"
            )

    def _shift_signs(self, grid_id: int, level: int) -> tuple[int, ...]:
        return tuple(_shift_sign(t, level) for t in self.shift_thirds[grid_id])

    # -- exact geometry ---------------------------------------------------

    def cube_bounds_thirds(self, cube: DyadicCube):
        """Corner numerators over the exact denominator 3 * 2^level.

        Returns (lo_num, hi_num, denom) with corner = origin + side*num/denom.
        """
        lo = tuple(_corner_thirds(m, t, cube.level)
                   for m, t in zip(cube.coords, self.shift_thirds[cube.grid_id]))
        hi = tuple(v + 3 for v in lo)
        return lo, hi, 3 * (1 << cube.level)

    def cube_bounds(self, cube: DyadicCube) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.cube_corners(cube.grid_id, cube.level, [cube.coords])
        return lo[0], hi[0]

    def cube_corners(self, grid_id: int, level: int, coords) -> tuple[np.ndarray, np.ndarray]:
        """(lo, hi) corners, each (N, n), of the cubes at integer coords (N, n):
        _corners of float(3 m + e [+ 3]), so every caller gets the same bits."""
        num = _corner_thirds(np.asarray(coords, dtype=np.int64).reshape(-1, self.n),
                             np.array(self.shift_thirds[grid_id]), level)
        return tuple(_corners(self.root.lo, self.root.side, level, x.astype(float))
                     for x in (num, num + 3))

    def cube_integrals(self, f: "GridFunction", grid_id: int, level: int, coords) -> np.ndarray:
        """Integrals of f over the level cubes at coords (N, n), in one
        box_integrals call on their corners."""
        return f.box_integrals(*self.cube_corners(grid_id, level, coords))

    def relation(self, p: DyadicCube, q: DyadicCube) -> str:
        """Exact set relation of two same-grid cubes.

        Returns one of "equal", "p_in_q", "q_in_p", "disjoint".
        """
        if p.grid_id != q.grid_id:
            raise ValueError("cubes from different grids")
        kmax = max(p.level, q.level)

        def scaled(c):  # corner numerators over the denominator 3 * 2^kmax
            lo, hi, _ = self.cube_bounds_thirds(c)
            return [v << (kmax - c.level) for v in lo], [v << (kmax - c.level) for v in hi]

        (plo, phi), (qlo, qhi) = scaled(p), scaled(q)
        if plo == qlo and phi == qhi:
            return "equal"
        if all(a <= b and c <= d for a, b, c, d in zip(qlo, plo, phi, qhi)):
            return "p_in_q"
        if all(a <= b and c <= d for a, b, c, d in zip(plo, qlo, qhi, phi)):
            return "q_in_p"
        if any(b <= a or d <= c for a, b, c, d in zip(plo, qhi, qlo, phi)):
            return "disjoint"
        return "overlap"  # impossible for a valid dyadic grid

    # -- navigation -------------------------------------------------------

    def children(self, cube: DyadicCube) -> list[DyadicCube]:
        self._check_level(cube.level + 1)
        e = self._shift_signs(cube.grid_id, cube.level)
        base = tuple(2 * m + ei for m, ei in zip(cube.coords, e))
        return [DyadicCube(cube.grid_id, cube.level + 1,
                           tuple(b + ((j >> d) & 1) for d, b in enumerate(base)))
                for j in range(2 ** self.n)]

    def child_coords(self, grid_id: int, level: int, coords) -> np.ndarray:
        """Coordinates (N * 2^n, n) of the children of the level cubes at
        coords (N, n), each cube's 2^n children together in children() order."""
        offsets = np.array([[(j >> d) & 1 for d in range(self.n)] for j in range(2 ** self.n)])
        base = 2 * np.asarray(coords, dtype=np.int64).reshape(-1, self.n)
        base += self._shift_signs(grid_id, level)
        return (base[:, None, :] + offsets).reshape(-1, self.n)

    def parent(self, cube: DyadicCube) -> DyadicCube:
        (m,) = self.parent_coords(cube.grid_id, cube.level, [cube.coords]).tolist()
        return DyadicCube(cube.grid_id, cube.level - 1, tuple(m))

    def parent_coords(self, grid_id: int, level: int, coords) -> np.ndarray:
        """Coordinates (N, n) of the parents of the level cubes at coords
        (N, n): (m - e) >> 1 with e the shift signs of level - 1."""
        if level == 0:
            raise ValueError("level-0 cube has no parent in the materialized grid")
        m = np.asarray(coords, dtype=np.int64).reshape(-1, self.n)
        return (m - self._shift_signs(grid_id, level - 1)) >> 1

    def coord_range(self, grid_id: int, level: int) -> tuple[tuple[int, int], ...]:
        """Per-dimension [m_min, m_max] of cubes intersecting the ambient box."""
        self._check_grid(grid_id)
        self._check_level(level)
        e = self._shift_signs(grid_id, level)
        out = []
        for ei in e:
            # cube [s(m + e/3), s(m+1+e/3)) meets [-L, 2L) in root-relative units
            m_min = (-3 * (1 << level) - 3 - ei) // 3 + 1
            m_max = (3 * (2 << level) - ei - 1) // 3
            out.append((m_min, m_max))
        return tuple(out)

    def enumerate_cubes(self, grid_id: int, levels) -> Iterator[DyadicCube]:
        """All cubes of the grid at the given level(s) meeting the ambient box."""
        if isinstance(levels, int):
            levels = [levels]
        for k in levels:
            axes = [range(lo, hi + 1) for lo, hi in self.coord_range(grid_id, k)]
            for m in itertools.product(*axes):
                yield DyadicCube(grid_id, k, m)

    def inside_range(self, grid_id: int, level: int) -> tuple[tuple[int, int], ...]:
        """Per-dimension [m_min, m_max] of cubes fully inside the root box (exact)."""
        self._check_grid(grid_id)
        self._check_level(level)
        full = 3 * (1 << level)
        # need 3m + e >= 0 and 3m + e + 3 <= 3*2^k
        return tuple(
            (math.ceil(-ei / 3), (full - 3 - ei) // 3)
            for ei in self._shift_signs(grid_id, level)
        )

    def level_blocks(self, grid_id: int, level: int, depth: int) -> "LevelBlocks":
        """The cubes of one grid level holding a cell centre of the depth-K mesh.

        Per axis cube m covers [b (m + e/3), b (m + 1 + e/3)) in cell units,
        b = 2^(K - level): b cells on an unshifted axis, b + 1 on a shifted
        one (fewer where the root box clips).  Each axis is one level of a
        table per (axis origin, shift, K) that grids share; read-only.  Cached."""
        key = (grid_id, level, depth)
        if key in self._level_blocks:
            return self._level_blocks[key]
        self._check_grid(grid_id)
        self._check_level(level)
        if level > depth:
            raise ValueError(f"level {level} cubes are finer than the depth-{depth} mesh")
        axes = (self._axis_tables(o, t, depth)[level]
                for o, t in zip(self.root.origin, self.shift_thirds[grid_id]))
        self._level_blocks[key] = blocks = LevelBlocks(*map(tuple, zip(*axes)))
        return blocks


def _axis_levels(origin: float, t: int, depth: int, side: float) -> list[tuple]:
    """One axis of level_blocks for every level 0..K in one pass: per level
    (start, idx, frac, row) for the axis at origin with shift t/3."""
    m, lev = 1 << depth, np.arange(depth + 1)
    b, e = 1 << (depth - lev), _shift_sign(t, lev)
    # cube holding the centre i + 1/2: floor((i + 1/2) / b - e / 3), exactly
    holder = (6 * np.arange(m) + 3 - (2 * b * e)[:, None]) // (6 * b)[:, None]
    start, rows = holder[:, 0], holder[:, -1] + 1 - holder[:, 0]
    first, k = np.cumsum(rows) - rows, np.repeat(lev, rows)  # k: the level of each row
    num = _corner_thirds(start[k] + np.arange(k.size) - first[k], t, k)
    # corners as cube_corners computes them, so rows reproduce box_overlap bit for bit
    u, v = (_cell_units(_corners(origin, side, k, x.astype(float)), origin, side / m, m)
            for x in (num, num + 3))
    i0, i1 = np.floor(u).astype(np.int64), np.ceil(v).astype(np.int64)
    width = np.maximum.reduceat(i1 - i0, first)
    r = np.repeat(np.arange(k.size), w := width[k])  # the row of each window entry
    j = i0[r] + np.arange(r.size) - np.repeat(np.cumsum(w) - w, w)
    idx, frac = np.where(j < i1[r], j, m), _overlap_fractions(u[r], v[r], j)
    row = holder - start[:, None]
    for a in (idx, frac, row):
        a.flags.writeable = False  # shared through the caches
    return [(int(s), idx[z - n * c:z].reshape(n, c), frac[z - n * c:z].reshape(n, c), rk)
            for s, n, c, z, rk in zip(start, rows, width, np.cumsum(rows * width), row)]


@dataclass(frozen=True)
class LevelBlocks:
    """One grid level as a block matrix over the mesh (see level_blocks).

    Rows are the cubes holding at least one cell centre.  Per axis d:
    start[d] is the cube coordinate of row 0; idx[d] (rows, width) lists
    the cells each row meets in the mesh zero-extended by one cell (index
    2^K); frac[d] holds their overlap fractions; row[d] maps every cell to
    the row whose cube holds its centre.  All are read-only, shared per axis.
    gather and rows read any number of cell arrays at once, with one
    fraction array for all of them."""

    start: tuple[int, ...]
    idx: tuple[np.ndarray, ...]
    frac: tuple[np.ndarray, ...]
    row: tuple[np.ndarray, ...]

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(i) for i in self.idx)

    def locate(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """Flat rows (in rows() and spread() order) of the cubes at coords (N, n)
        that hold a cell centre, and the (N,) mask of those cubes."""
        r = np.asarray(coords, dtype=np.int64).reshape(-1, len(self.start)) - self.start
        inside = np.all((r >= 0) & (r < self.shape), axis=1)
        return np.ravel_multi_index(tuple(r[inside].T), self.shape), inside

    def select(self, ranges) -> tuple[slice, ...]:
        """Per-axis row slices for inclusive cube-coordinate ranges [m_lo, m_hi]."""
        return tuple(slice(lo - s, hi + 1 - s) for (lo, hi), s in zip(ranges, self.start))

    def gather(self, *cells: np.ndarray, sel=None) -> tuple[np.ndarray, ...]:
        """(*values, frac): the values of each cell array and the overlap
        fractions they share, laid out (rows0, w0[, rows1, w1]), which on
        the unshifted grid is cells.reshape(nc, b[, nc, b]); sel is a
        per-axis slice of rows (see select)."""
        sel = sel or (slice(None),) * len(self.idx)
        vals = np.zeros((len(cells), *(d + 1 for d in cells[0].shape)))
        for v, c in zip(vals, cells):
            v[(slice(-1),) * c.ndim] = c
        for d, (i, s) in enumerate(zip(self.idx, sel)):
            vals = vals.take(i[s], axis=2 * d + 1)
        return (*vals, _outer([f[s] for f, s in zip(self.frac, sel)]))

    def rows(self, *cells: np.ndarray, sel=None) -> tuple[np.ndarray, ...]:
        """gather with one row per cube, (cubes, cells met), cubes in
        lexicographic coordinate order."""
        return tuple(
            a.transpose(*range(0, a.ndim, 2), *range(1, a.ndim, 2))
            .reshape(math.prod(a.shape[::2]), math.prod(a.shape[1::2]))
            for a in self.gather(*cells, sel=sel)
        )

    def spread(self, per_cube: np.ndarray) -> np.ndarray:
        """One value per cube onto the cells whose centres the cube holds."""
        out = per_cube.reshape(self.shape)
        for d, r in enumerate(self.row):
            out = out.take(r, axis=d)
        return out

    def spread_entries(self, per_entry: np.ndarray) -> np.ndarray:
        """A rows() array onto the cells: each cell takes its own entry in
        the row of the cube holding its centre."""
        cols = [np.arange(r.size) - i[r, 0] for i, r in zip(self.idx, self.row)]
        a = per_entry.reshape(self.shape + tuple(i.shape[1] for i in self.idx))
        return a[np.ix_(*self.row) + np.ix_(*cols)]


class GridFunction:
    """Piecewise-constant function on the finest dyadic mesh of a root box.

    Cell values are stored in C order, cells[i] spanning
    [o + i*h, o + (i+1)*h) per axis with h = side * 2^-depth.  The function
    is extended by zero outside the root box.  A cumulative table in
    long double, built on the first box integral, gives box integrals
    within a few long-double ulps of the box's mass, also when the query
    box cuts cells.
    """

    def __init__(self, root: RootBox, cells: np.ndarray):
        cells = np.ascontiguousarray(cells, dtype=np.float64)
        n = root.n
        if cells.ndim != n:
            raise ValueError(f"cells must be {n}-dimensional")
        m = cells.shape[0]
        depth = m.bit_length() - 1
        if m != 2 ** depth or any(s != m for s in cells.shape):
            raise ValueError("cells must have shape (2^K,) * n")
        if depth < 1 or depth > _MAX_DEPTH[n]:
            raise ValueError(
                f"depth {depth} outside [1, {_MAX_DEPTH[n]}] for n={n}"
            )
        self.root = root
        self.depth = depth
        self.cells = cells
        self.cells.flags.writeable = False

    @functools.cached_property
    def _cum(self) -> np.ndarray:
        """Long-double cumulative table, zero-padded in front; built on first use."""
        cum = self.cells.astype(np.longdouble)
        for ax in range(self.n):
            cum = np.cumsum(cum, axis=ax)
        return np.pad(cum, [(1, 0)] * self.n)

    @functools.cached_property
    def fingerprint(self) -> tuple:
        """(root, shape, hash of the cell bytes), stable because cells are
        read-only.  Equal functions share it; unequal ones may too, so a
        match is confirmed by comparing cells."""
        return (self.root, self.cells.shape, hash(self.cells.tobytes()))

    # -- constructors -----------------------------------------------------

    @classmethod
    def constant(cls, root: RootBox, depth: int, value: float) -> "GridFunction":
        shape = (2 ** depth,) * root.n
        return cls(root, np.full(shape, float(value)))

    @classmethod
    def from_callable(cls, root: RootBox, depth: int, fn: Callable) -> "GridFunction":
        """Sample fn at cell centers (fn takes per-axis coordinate arrays)."""
        vals = fn(*np.meshgrid(*cell_centers(root, depth), indexing="ij"))
        return cls(root, np.broadcast_to(np.asarray(vals, float), (2 ** depth,) * root.n).copy())

    @classmethod
    def indicator(cls, root: RootBox, depth: int, lo, hi) -> "GridFunction":
        """Mesh projection of the indicator of [lo, hi): exact overlap fractions."""
        m = 2 ** depth
        h = root.side / m
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        u, v = (_cell_units(x, root.lo, h, m) for x in (lo, hi))
        return cls(root, _outer([_overlap_fractions(u[d], v[d], np.arange(m))
                                 for d in range(root.n)]))

    def with_cells(self, cells: np.ndarray) -> "GridFunction":
        return GridFunction(self.root, cells)

    # -- basic queries ----------------------------------------------------

    @property
    def n(self) -> int:
        return self.root.n

    @property
    def cell_side(self) -> float:
        return self.root.side / 2 ** self.depth

    @property
    def cell_volume(self) -> float:
        return self.cell_side ** self.n

    def cell_centers(self) -> list[np.ndarray]:
        return cell_centers(self.root, self.depth)

    def integral(self) -> float:
        return float(self._cum.flat[-1] * self.cell_volume)

    def min_cell(self) -> float:
        return float(self.cells.min())

    def max_cell(self) -> float:
        return float(self.cells.max())

    # -- box integration ---------------------------------------------------

    def box_integrals(self, lo, hi) -> np.ndarray:
        """Integrals over half-open boxes; lo, hi have shape (..., n).

        The function is extended by zero outside the root box, so queries
        may extend past it.  Each corner coordinate is split once into a
        cell index and an in-cell fraction, and the 2^n corners' fractional
        prefix sums of the long-double table are differenced.  So the
        result is within a few long-double ulps of the box's mass, not
        exact: a 2-d box missing the root box in one axis gives about
        eps_ld times the mass, not 0.  Boxes go through in chunks of
        _BOX_CHUNK, which bounds the temporaries.
        """
        lo = np.asarray(lo, dtype=float)
        hi = np.asarray(hi, dtype=float)
        if lo.shape != hi.shape:
            lo, hi = np.broadcast_arrays(lo, hi)
        corners = np.stack((lo, hi)).reshape(2, -1, self.n)
        out = np.empty(corners.shape[1])
        m, c, cells = len(self.cells), self._cum, self.cells
        for s in range(0, len(out), _BOX_CHUNK):
            frac = _cell_units(corners[:, s:s + _BOX_CHUNK], self.root.lo, self.cell_side, m)
            i = np.minimum(np.maximum(frac.astype(np.int64), 0), m - 1)  # floor, 0 for NaN
            frac -= i
            if self.n == 1:
                i, fx = i[..., 0], frac[..., 0]
                p = c[i] + fx * cells[i]  # p[0] at lo, p[1] at hi
                p = p[1] - p[0]
            else:
                # p[a, b]: axis 0 at lo (a = 0) or hi (a = 1), axis 1 likewise by b
                i, j = i[:, None, :, 0], i[None, :, :, 1]
                fx, fy = frac[:, None, :, 0], frac[None, :, :, 1]
                base = c[i, j]
                p = (
                    base
                    + fx * (c[i + 1, j] - base)
                    + fy * (c[i, j + 1] - base)
                    + fx * fy * cells[i, j]
                )
                p = p[1, 1] - p[0, 1] - p[1, 0] + p[0, 0]
            out[s:s + _BOX_CHUNK] = p * np.longdouble(self.cell_volume)
        return out.reshape(lo.shape[:-1])

    def box_integral(self, lo, hi) -> float:
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if np.any(hi <= lo):
            return 0.0
        return float(self.box_integrals(lo[None, :], hi[None, :])[0])

    def box_overlap(self, lo, hi):
        """Cells meeting [lo, hi) inside the root box, with overlap fractions.

        Returns (slices, frac) where frac has the sliced shape and entries
        in [0, 1] measured in cell units; frac * cell_volume is the overlap
        measure.  Empty intersection gives zero-size slices.
        """
        m = 2 ** self.depth
        h = self.cell_side
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        u, v = (_cell_units(x, self.root.lo, h, m) for x in (lo, hi))
        slices, axes = [], []
        for d in range(self.n):
            i0 = int(math.floor(u[d])) if u[d] < v[d] else 0
            i1 = int(math.ceil(v[d])) if u[d] < v[d] else 0
            slices.append(slice(i0, i1))
            axes.append(_overlap_fractions(u[d], v[d], np.arange(i0, i1)))
        return tuple(slices), _outer(axes)

    # -- arithmetic ---------------------------------------------------------

    def _same_mesh(self, other: "GridFunction") -> None:
        if self.root != other.root or self.depth != other.depth:
            raise ValueError("mesh mismatch")

    def __add__(self, other):
        if isinstance(other, GridFunction):
            self._same_mesh(other)
            return self.with_cells(self.cells + other.cells)
        return self.with_cells(self.cells + float(other))

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            self._same_mesh(other)
            return self.with_cells(self.cells - other.cells)
        return self.with_cells(self.cells - float(other))

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            self._same_mesh(other)
            return self.with_cells(self.cells * other.cells)
        return self.with_cells(self.cells * float(other))

    __rmul__ = __mul__

    def __abs__(self):
        return self.with_cells(np.abs(self.cells))

    def power(self, exponent: float) -> "GridFunction":
        return self.with_cells(self.cells ** float(exponent))


# -- serialization ----------------------------------------------------------

_MAGIC = "sparsefrac-gridfunction"


def write_gridfunction(gf: GridFunction, path, fmt: str = "bin") -> None:
    """Write a mesh function; 'bin' and 'csv' both round-trip exactly."""
    header = {
        "format": _MAGIC,
        "version": 1,
        "dimension": gf.n,
        "depth": gf.depth,
        "origin": list(gf.root.origin),
        "side": gf.root.side,
    }
    if fmt == "bin":
        with open(path, "wb") as fh:
            fh.write(json.dumps(header, sort_keys=True).encode() + b"\n")
            fh.write(gf.cells.astype("<f8").tobytes())
    elif fmt == "csv":
        with open(path, "w") as fh:
            fh.write("dimension,depth,side," +
                     ",".join(f"origin_{d}" for d in range(gf.n)) + "\n")
            fh.write(
                f"{gf.n},{gf.depth},{gf.root.side!r},"
                + ",".join(repr(o) for o in gf.root.origin) + "\n"
            )
            fh.write("value\n")
            for v in gf.cells.ravel():
                fh.write(f"{v:.17g}\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")


def read_gridfunction(path, fmt: str = "bin") -> GridFunction:
    if fmt == "bin":
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            if header.get("format") != _MAGIC:
                raise ValueError("not a gridfunction file")
            raw = fh.read()
        n, depth = header["dimension"], header["depth"]
        cells = np.frombuffer(raw, dtype="<f8").reshape((2 ** depth,) * n)
        root = RootBox(tuple(header["origin"]), header["side"])
        return GridFunction(root, cells.copy())
    if fmt == "csv":
        with open(path) as fh:
            names = fh.readline().strip().split(",")
            vals = fh.readline().strip().split(",")
            if names[:3] != ["dimension", "depth", "side"]:
                raise ValueError("not a gridfunction csv")
            n, depth = int(vals[0]), int(vals[1])
            side = float(vals[2])
            origin = tuple(float(v) for v in vals[3:3 + n])
            if fh.readline().strip() != "value":
                raise ValueError("missing value column")
            cells = np.array([float(line) for line in fh], dtype=float)
        root = RootBox(origin, side)
        return GridFunction(root, cells.reshape((2 ** depth,) * n))
    raise ValueError(f"unknown format {fmt!r}")
