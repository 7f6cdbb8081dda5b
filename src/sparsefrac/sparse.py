"""Sparse family extraction, certification, and domination checks.

Two stopping-time constructions are provided, both as level sweeps: one
DyadicGridFamily.cube_integrals call averages all the cubes a level needs, and
the stopping rule runs over those arrays top-down, parents before
children.  The geometric-threshold levels S_k collect, for each k, the
maximal grid cubes whose average crosses a^k; level-0 cubes have no
parent in the materialized grid, so they are maximal whenever their own
average qualifies.  The operator domination uses the recursive
principal-cube construction (Lacey, Moen, Perez and Torres) seeded at the
level-0 cubes: a cube is selected when its average exceeds a = 2^(n+1)
times the average of its nearest selected ancestor, which forces the
half-density condition by construction for every cube including the
seeds.  Certification finds each cube's nearest selected ancestor by
walking parent pointers, so it never compares cubes pairwise, and keeps
the carriers as one owner label per cell (-1: no carrier), made per level
on the level_blocks rows; carrier masks are made from them on demand.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, DyadicGridFamily, GridFunction, cubes_by_level, range_coords
from .operators import (
    commutator_1d,
    dyadic_commutator,
    dyadic_fractional_integral,
    sparse_fractional_integral,
)

__all__ = [
    "SparseFamily",
    "SparseCertificate",
    "Carriers",
    "DominationReport",
    "cz_stopping_cubes",
    "sparse_select_for_operator",
    "certify_sparse",
    "verify_sparse_domination",
    "verify_commutator_domination",
    "sparse_family_to_json",
    "sparse_family_from_json",
]


@dataclass
class SparseFamily:
    """A collection of cubes from one grid, ordered coarse to fine."""

    grid_id: int
    cubes: list[DyadicCube] = field(default_factory=list)

    def __post_init__(self):
        if any(c.grid_id != self.grid_id for c in self.cubes):
            raise ValueError("cubes from mixed grids")
        self.cubes = sorted(set(self.cubes))

    def __len__(self) -> int:
        return len(self.cubes)

    def __iter__(self):
        return iter(self.cubes)


class Carriers(Mapping):
    """Read-only carrier masks, made on demand from owner labels: labels[x]
    is the index in cubes of the cube whose carrier holds cell x, -1 for no
    carrier, and carriers[q] is labels == (index of q)."""

    def __init__(self, cubes: list[DyadicCube], labels: np.ndarray):
        self.cubes, self.labels = cubes, labels
        self._index = {c: i for i, c in enumerate(cubes)}
        labels.flags.writeable = False

    def __getitem__(self, cube: DyadicCube) -> np.ndarray:
        return self.labels == self._index[cube]

    def __iter__(self):
        return iter(self.cubes)

    def __len__(self) -> int:
        return len(self.cubes)

    def sums(self, cells: np.ndarray) -> list[float]:
        """cells[self[q]].sum() per cube in one pass: numpy's pairwise sum of
        the carrier's cells in C order, a segment of a stable label sort."""
        order = np.argsort(self.labels, axis=None, kind="stable")
        ends = np.searchsorted(self.labels.ravel()[order], np.arange(len(self.cubes) + 1))
        vals = cells.ravel()[order]
        return [float(vals[a:b].sum()) for a, b in zip(ends[:-1], ends[1:])]


@dataclass
class SparseCertificate:
    """Outcome of the two sparseness conditions on the cell mesh; from
    certify_sparse, carriers is the lazy Carriers view of owner labels."""

    ok: bool
    min_density: float
    disjoint: bool
    first_violation: DyadicCube | None
    carriers: Mapping[DyadicCube, np.ndarray]


@dataclass
class DominationReport:
    max_ratio: float
    positivity_ok: bool
    cells_compared: int
    detail: dict = field(default_factory=dict)


def cz_stopping_cubes(
    g: GridFunction, family: DyadicGridFamily, grid_id: int
) -> dict[int, list[DyadicCube]]:
    """Stopping levels S_k: maximal grid cubes with average above a^k, a = 2^(n+1).

    Maximality is within the materialized levels 0..K, so a level-0 cube
    is selected whenever its own average qualifies.  Every selected cube
    with a parent satisfies the bracket a^k < avg <= 2^n a^k; level-0
    cubes only satisfy the lower half.  Thresholds run over the integer k
    with a^k inside the range of positive cube averages, taken over every
    cube of the ambient coordinate range (one cube_integrals call per
    level).  The descent only enters cubes of positive average, so the
    cubes it can reach form a tree, built once: each level's children of
    the previous level's tree cubes, kept where positive (children outside
    the ambient range read 0).  Each threshold is then one top-down pass
    over that tree: a cube is selected when it is above the threshold and
    no ancestor is.  Returns {} for g identically zero.
    """
    a = 2.0 ** (family.n + 1)
    if g.min_cell() < 0:
        raise ValueError("stopping cubes need a non-negative function")
    ranges = [family.coord_range(grid_id, k) for k in range(g.depth + 1)]
    averages = [
        family.cube_integrals(g, grid_id, k, range_coords(r)).reshape(
            [hi - lo + 1 for lo, hi in r]) / family.volume_at(k)
        for k, r in enumerate(ranges)
    ]
    positive = np.concatenate([v[v > 0] for v in averages])
    if not positive.size:
        return {}
    k_lo = math.floor(math.log(float(positive.min()), a))
    k_hi = math.ceil(math.log(float(positive.max()), a))

    # the cubes the descent can enter, level by level: (coords, averages,
    # parent rows); level 0 hangs off one virtual parent
    tree = []
    coords = range_coords(ranges[0])
    parent = np.zeros(len(coords), dtype=np.int64)
    for k, (r, table) in enumerate(zip(ranges, averages)):
        if k:
            coords = family.child_coords(grid_id, k - 1, tree[-1][0])
            parent = np.arange(len(coords)) >> family.n
        offset = coords - [lo for lo, _ in r]
        inside = np.all((offset >= 0) & (offset < table.shape), axis=1)
        avg = np.zeros(len(coords))
        avg[inside] = table[tuple(offset[inside].T)]
        keep = avg > 0
        tree.append((coords[keep], avg[keep], parent[keep]))

    levels: dict[int, list[DyadicCube]] = {}
    for j in range(k_lo, k_hi + 1):
        thr = a ** j
        selected: list[DyadicCube] = []
        stopped = np.zeros(1, dtype=bool)  # per cube: it or an ancestor is above thr
        for k, (coords, avg, parent) in enumerate(tree):
            above, blocked = avg > thr, stopped[parent]
            stopped = above | blocked
            selected += [DyadicCube(grid_id, k, tuple(m))
                         for m in coords[above & ~blocked].tolist()]
        if selected:
            levels[j] = sorted(selected)
    return levels


def sparse_select_for_operator(
    f: GridFunction, family: DyadicGridFamily, grid_id: int
) -> SparseFamily:
    """Principal cubes of f: the sparse family dominating the dyadic integral.

    Seeded at the level-0 cubes carrying mass; below a selected cube the
    next generation is the maximal descendants whose average exceeds
    a = 2^(n+1) times the cube's average.  Disjoint children then cover at
    most 1/a of the parent, so the family is sparse by construction, and
    between consecutive selections the operator's level sums are geometric.

    A frontier sweep: level 0 is every level-0 cube of the ambient range,
    level k + 1 the children of the level-k cubes of positive average.
    One cube_integrals call averages a level; every frontier cube carries
    base, the average of its nearest selected ancestor (0 at level 0), and
    is selected when avg > a * base.  These are exactly the cubes a
    depth-first descent averages and selects.
    """
    a = 2.0 ** (family.n + 1)
    if f.min_cell() < 0:
        raise ValueError("sparse selection needs a non-negative function")
    selected: list[DyadicCube] = []
    coords = range_coords(family.coord_range(grid_id, 0))
    base = np.zeros(len(coords))
    for k in range(f.depth + 1):
        avg = family.cube_integrals(f, grid_id, k, coords) / family.volume_at(k)
        chosen = avg > a * base
        selected += [DyadicCube(grid_id, k, tuple(m)) for m in coords[chosen].tolist()]
        live = avg > 0  # a chosen cube has avg > a * base >= 0
        if k == f.depth or not live.any():
            break
        coords = family.child_coords(grid_id, k, coords[live])
        base = np.repeat(np.where(chosen, avg, base)[live], 2 ** family.n)
    return SparseFamily(grid_id, selected)


def certify_sparse(
    sparse: SparseFamily, family: DyadicGridFamily, depth: int
) -> SparseCertificate:
    """Check carrier disjointness and the half-density condition.

    Each cube's nearest selected strict ancestor is found by walking parent
    pointers (O(N K)); the maximal selected strict descendants of q are the
    cubes whose nearest selected ancestor is q.  The carriers are owner
    labels (see Carriers): each cell takes the index of the deepest selected
    cube holding its centre, or -1, written coarse to fine with one
    LevelBlocks.spread per level in O(cells) memory.  Disjointness is the
    check that every cell a cube takes over was held by the cube's nearest
    selected ancestor.  Densities are geometric: the measure removed from a
    cube is the total volume of its maximal selected strict descendants,
    summed in cube order, which is exact for every grid, including shifted
    cubes that extend past the root box where no cells live.
    """
    cubes = sparse.cubes
    index = {c: i for i, c in enumerate(cubes)}
    nearest = np.full(len(cubes), -1, dtype=np.int64)
    maximal = [[] for _ in cubes]  # per cube, its maximal selected strict descendants
    for j, c in enumerate(cubes):
        while c.level > 0:
            c = family.parent(c)
            if c in index:
                nearest[j] = index[c]
                maximal[index[c]].append(j)
                break
    labels = np.full((2 ** depth,) * family.n, -1, dtype=np.int64)
    disjoint, first = True, 0
    for (g, k), coords in cubes_by_level(cubes).items():
        blocks = family.level_blocks(g, k, depth)
        rows, inside = blocks.locate(coords)
        owner = np.full(math.prod(blocks.shape), -1, dtype=np.int64)
        owner[rows] = first + np.flatnonzero(inside)
        owner = blocks.spread(owner)
        held = owner >= 0
        disjoint &= bool(np.array_equal(labels[held], nearest[owner[held]]))
        labels[held] = owner[held]
        first += len(coords)
    density = [1.0 - sum(family.volume_at(cubes[j].level) for j in maximal[i])
               / family.volume_at(q.level) for i, q in enumerate(cubes)]
    min_density = min(density, default=math.inf)
    first_violation = next((q for q, d in zip(cubes, density) if d < 0.5), None)
    ok = disjoint and first_violation is None
    return SparseCertificate(ok, min_density, disjoint, first_violation, Carriers(cubes, labels))


def verify_sparse_domination(
    f: GridFunction, alpha: float, family: DyadicGridFamily, grid_id: int
) -> DominationReport:
    """Cellwise ratio of the full dyadic integral to its sparse majorant."""
    sparse = sparse_select_for_operator(f, family, grid_id)
    full = dyadic_fractional_integral(f, alpha, family, grid_id).cells
    part = sparse_fractional_integral(f, alpha, family, sparse.cubes).cells
    pos = part > 0
    positivity_ok = bool(np.all(pos[full > 0]))
    ratio = float(np.max(full[pos] / part[pos])) if pos.any() else 0.0
    return DominationReport(
        ratio, positivity_ok, int(pos.sum()), {"family_size": len(sparse), "sparse": sparse}
    )


def verify_commutator_domination(
    b: GridFunction, f: GridFunction, alpha: float, family: DyadicGridFamily
) -> DominationReport:
    """|[b, I_alpha] f| against the grid-family max of the dyadic commutators."""
    if f.n != 1:
        raise ValueError("the continuous side needs n = 1")
    lhs = np.abs(commutator_1d(b, f, alpha).cells)
    rhs = None
    for g in range(family.num_grids):
        vals = dyadic_commutator(b, f, alpha, family, g).cells
        rhs = vals if rhs is None else np.maximum(rhs, vals)
    # the continuous side is a difference of two potentials, so cells where
    # it cancels to rounding noise carry no information about the ratio
    meaningful = lhs > 1e-13 * max(float(lhs.max()), 1.0)
    positivity_ok = bool(np.all(rhs[meaningful] > 0))
    live = meaningful & (rhs > 0)
    ratio = float(np.max(lhs[live] / rhs[live])) if live.any() else 0.0
    return DominationReport(ratio, positivity_ok, int(live.sum()))


# -- serialization -------------------------------------------------------------


def sparse_family_to_json(
    sparse: SparseFamily, certificate: SparseCertificate | None = None
) -> str:
    doc = {
        "format": "sparsefrac-sparse-family",
        "version": 1,
        "grid_id": sparse.grid_id,
        "cubes": [[c.level, list(c.coords)] for c in sparse.cubes],
    }
    if certificate is not None:
        doc["certificate"] = {
            "ok": certificate.ok,
            "min_density": certificate.min_density,
            "disjoint": certificate.disjoint,
        }
    return json.dumps(doc, sort_keys=True, indent=2)


def sparse_family_from_json(text: str) -> SparseFamily:
    doc = json.loads(text)
    if doc.get("format") != "sparsefrac-sparse-family":
        raise ValueError("not a sparse family document")
    gid = doc["grid_id"]
    cubes = [DyadicCube(gid, lvl, tuple(coords)) for lvl, coords in doc["cubes"]]
    return SparseFamily(gid, cubes)
