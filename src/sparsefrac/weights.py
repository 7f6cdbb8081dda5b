"""Weights, weighted averages, and Muckenhoupt-type characteristics.

The supremum over all cubes in the continuum definitions is replaced by a
finite battery: every cube of every grid in the family, up to a chosen
level, that sits fully inside the root box.  Battery values are lower
bounds for the true characteristics; all verification routines use the
same battery value on both sides of an inequality, which keeps each check
self-consistent.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .grid import DyadicCube, DyadicGridFamily, GridFunction, RootBox, range_coords

__all__ = [
    "ExponentTriple",
    "Weight",
    "CubeBattery",
    "weighted_measure",
    "weighted_average",
    "apq_characteristic",
    "a1q_characteristic",
    "ap_characteristic",
    "a1_characteristic",
    "ainfty_characteristic",
    "reverse_holder_exponent",
    "implied_reverse_holder_constant",
    "ainfty_subset_bounds",
    "power_weight",
    "step_weight",
    "admissible_gamma_range",
    "named_center",
    "CENTERS",
    "RH_CAP",
]

RH_CAP = 64.0


@dataclass(frozen=True)
class ExponentTriple:
    """Exponents (n, alpha, p) with q tied by 1/p - 1/q = alpha/n.

    For p = 1 the conjugate p' is infinite and q/p' is read as 0, so the
    induced class index r collapses to 1.
    """

    n: int
    alpha: float
    p: float

    def __post_init__(self):
        if self.n not in (1, 2):
            raise ValueError("n must be 1 or 2")
        if not 0 < self.alpha < self.n:
            raise ValueError("alpha must lie in (0, n)")
        if not 1 <= self.p < self.n / self.alpha:
            raise ValueError("p must lie in [1, n/alpha)")

    @property
    def q(self) -> float:
        return 1.0 / (1.0 / self.p - self.alpha / self.n)

    @property
    def p_prime(self) -> float:
        return math.inf if self.p == 1 else self.p / (self.p - 1.0)

    @property
    def q_over_p_prime(self) -> float:
        return 0.0 if self.p == 1 else self.q / self.p_prime

    @property
    def r(self) -> float:
        return 1.0 + self.q_over_p_prime

    @property
    def r_prime(self) -> float:
        return math.inf if self.r == 1.0 else self.r / (self.r - 1.0)

    @property
    def weak_power(self) -> float:
        return 1.0 + self.q

    @property
    def strong_power(self) -> float:
        return 1.0 + self.q / self.p_prime + self.p_prime / self.p

    @property
    def commutator_power(self) -> float:
        return max(self.p_prime, self.q) + self.strong_power - 1.0


class CubeBattery:
    """Finite stand-in for "all cubes": every family cube inside the root box.

    Cubes of all 2^n grids at levels 0..max_level are collected in a fixed
    deterministic order; averages over the whole battery are evaluated in
    one vectorized sweep.
    """

    def __init__(self, family: DyadicGridFamily, max_level: int):
        if not 0 <= max_level <= family.max_level:
            raise ValueError("battery level out of range")
        self.family = family
        self.max_level = max_level
        parts = []  # per (grid, level): lo, hi, volumes
        for g, k, coords in self._levels():
            parts.append((*family.cube_corners(g, k, coords),
                          np.full(len(coords), family.volume_at(k))))
        self._lo, self._hi, self._vol = (np.concatenate(a) for a in zip(*parts))
        if not len(self._vol):
            raise ValueError("empty battery")

    def _levels(self):
        """(grid, level, coordinate array) in battery order."""
        for g in range(self.family.num_grids):
            for k in range(self.max_level + 1):
                yield g, k, range_coords(self.family.inside_range(g, k))

    @functools.cached_property
    def cubes(self) -> list[DyadicCube]:
        """The battery cubes in battery order, made on first use: the
        verifiers read only the corner arrays."""
        return [DyadicCube(g, k, tuple(m)) for g, k, coords in self._levels()
                for m in coords.tolist()]

    def __len__(self) -> int:
        return len(self._vol)

    def bounds(self, i: int):
        return self._lo[i], self._hi[i]

    def volumes(self) -> np.ndarray:
        return self._vol

    def averages(self, gf: GridFunction) -> np.ndarray:
        """Plain averages of gf over every battery cube."""
        return gf.box_integrals(self._lo, self._hi) / self._vol

    def overlap_rows(self, gf: GridFunction):
        """Per (grid, level): (battery index slice, cell values, overlap
        fractions), one row per cube; a level's battery cubes are a
        contiguous row range of its level_blocks gather."""
        start = 0
        for g in range(self.family.num_grids):
            for k in range(self.max_level + 1):
                blocks = self.family.level_blocks(g, k, gf.depth)
                sel = blocks.select(self.family.inside_range(g, k))
                vals, frac = blocks.rows(gf.cells, sel)
                yield slice(start, start + len(vals)), vals, frac
                start += len(vals)

    def cell_min(self, gf: GridFunction) -> np.ndarray:
        """Per-cube minimum over cells meeting the cube with positive measure."""
        return np.concatenate([
            np.where(frac > 1e-9, vals, np.inf).min(axis=1)
            for _, vals, frac in self.overlap_rows(gf)
        ])

    def cell_max_abs(self, gf: GridFunction) -> np.ndarray:
        return np.concatenate([
            np.where(frac > 1e-9, np.abs(vals), -np.inf).max(axis=1)
            for _, vals, frac in self.overlap_rows(gf)
        ])


class Weight:
    """Finite, strictly positive mesh function with cached cellwise powers."""

    def __init__(self, base: GridFunction):
        if not (np.isfinite(base.cells).all() and base.min_cell() > 0):
            raise ValueError("weight cells must be finite and strictly positive")
        self.base = base
        self._powers: dict[float, GridFunction] = {1.0: base}

    def power(self, exponent: float) -> GridFunction:
        exponent = float(exponent)
        got = self._powers.get(exponent)
        if got is None:
            got = self.base.power(exponent)
            self._powers[exponent] = got
        return got

    def sigma(self, e: ExponentTriple) -> GridFunction:
        """w^{-p'}, the dual-side measure density (p > 1 only)."""
        if e.p == 1:
            raise ValueError("sigma is undefined at p = 1")
        return self.power(-e.p_prime)

    def v(self, e: ExponentTriple) -> GridFunction:
        """w^q, the target-side measure density."""
        return self.power(e.q)


# -- weighted measures and averages ------------------------------------------


def weighted_measure(sigma: GridFunction, lo, hi) -> float:
    """sigma-measure of a box, sigma extended by zero off the root box."""
    return sigma.box_integral(lo, hi)


def weighted_average(f: GridFunction, lo, hi, sigma: GridFunction) -> float:
    """Average of f over the box against d(sigma) = sigma dx."""
    f._same_mesh(sigma)
    mass = sigma.box_integral(lo, hi)
    if mass <= 0:
        raise ValueError("degenerate measure on the box")
    return (f * sigma).box_integral(lo, hi) / mass


# -- characteristics ----------------------------------------------------------


def apq_characteristic(w: Weight, e: ExponentTriple, battery: CubeBattery) -> float:
    """Battery maximum of (avg w^q)^(1/q) (avg w^-p')^(1/p'); needs p > 1."""
    if e.p == 1:
        raise ValueError("use a1q_characteristic for p = 1")
    av = battery.averages(w.v(e))
    au = battery.averages(w.sigma(e))
    return float(np.max(av ** (1.0 / e.q) * au ** (1.0 / e.p_prime)))


def a1q_characteristic(w: Weight, e: ExponentTriple, battery: CubeBattery) -> float:
    """Battery maximum of (avg w^q)^(1/q) * esssup_Q w^-1 for p = 1 exponents."""
    if e.p != 1:
        raise ValueError("a1q_characteristic requires p = 1")
    av = battery.averages(w.v(e))
    inv = 1.0 / battery.cell_min(w.base)
    return float(np.max(av ** (1.0 / e.q) * inv))


def ap_characteristic(sigma: GridFunction, p: float, battery: CubeBattery) -> float:
    """Classical A_p battery characteristic of a positive density."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if p == 1:
        return a1_characteristic(sigma, battery)
    pp = p / (p - 1.0)
    a = battery.averages(sigma)
    b = battery.averages(sigma.power(1.0 - pp))
    return float(np.max(a * b ** (p - 1.0)))


def a1_characteristic(sigma: GridFunction, battery: CubeBattery) -> float:
    a = battery.averages(sigma)
    inv = 1.0 / battery.cell_min(sigma)
    return float(np.max(a * inv))


def ainfty_characteristic(sigma: GridFunction, context_p: float, battery: CubeBattery) -> float:
    """Operational A_infinity value: the A_p characteristic at the contextual p.

    Every use downstream is through the bound by an A_p characteristic, so
    no separate A_infinity definition is introduced.
    """
    return ap_characteristic(sigma, context_p, battery)


def reverse_holder_exponent(sigma: GridFunction, battery: CubeBattery) -> float:
    """Largest s in [1, RH_CAP] with (avg sigma^s)^(1/s) <= 2 avg sigma on the battery.

    Found by bisection to within 1e-6; returns RH_CAP when the inequality
    still holds there, and 1.0 when it already fails just above 1.  Raises
    ValueError when an average of sigma^s comes out negative or non-finite,
    as the box integrals of a large power can when they lose all precision.
    """

    def holds(s: float) -> bool:
        avg = battery.averages(sigma.power(s))
        bad = ~np.isfinite(avg) | (avg < 0)
        if bad.any():
            raise ValueError(
                f"{int(bad.sum())} battery averages of sigma^{s:.6g} are negative or "
                f"non-finite (smallest {np.min(avg[bad]):.6g})")
        return bool(np.all(avg ** (1.0 / s) <= 2.0 * battery.averages(sigma)))

    if not holds(1.0 + 1e-9):
        return 1.0
    if holds(RH_CAP):
        return RH_CAP
    lo_s, hi_s = 1.0 + 1e-9, RH_CAP
    while hi_s - lo_s > 1e-6:
        mid = 0.5 * (lo_s + hi_s)
        if holds(mid):
            lo_s = mid
        else:
            hi_s = mid
    return lo_s


def implied_reverse_holder_constant(
    sigma: GridFunction, context_p: float, battery: CubeBattery
) -> tuple[float, float]:
    """Measured reverse-Holder exponent and the dimensional constant it implies.

    The sharp form writes s = 1 + 1/(c [sigma]_Ainf) with an unspecified
    dimensional c; nothing assumes a value for it, so we solve for
    c = 1/((s - 1) [sigma]_Ainf) from the measured s and only ever assert
    that these stay bounded over the weight battery.  Capped s makes the
    reported c a lower bound.
    """
    s = reverse_holder_exponent(sigma, battery)
    ainf = ainfty_characteristic(sigma, context_p, battery)
    if s <= 1.0:
        return s, math.inf
    return s, 1.0 / ((s - 1.0) * ainf)


def ainfty_subset_bounds(
    sigma: GridFunction,
    cube_lo,
    cube_hi,
    cell_mask: np.ndarray,
    p: float,
    characteristic: float,
    rh_exponent: float,
) -> tuple[float, float, float, float]:
    """Both subset inequalities for sigma on E inside Q.

    E is a union of finest cells given as a boolean mask over the whole
    mesh.  Returns (lhs1, rhs1, lhs2, rhs2) for
        (|E|/|Q|)^p <= [sigma]_{A_p} sigma(E)/sigma(Q)   and
        sigma(E)/sigma(Q) <= 2 (|E|/|Q|)^(1/s').
    Empty E gives zeros on the left sides.
    """
    cube_lo = np.atleast_1d(np.asarray(cube_lo, dtype=float))
    cube_hi = np.atleast_1d(np.asarray(cube_hi, dtype=float))
    vol_q = float(np.prod(cube_hi - cube_lo))
    mass_q = sigma.box_integral(cube_lo, cube_hi)
    vol_e = float(cell_mask.sum()) * sigma.cell_volume
    mass_e = float(sigma.cells[cell_mask].sum()) * sigma.cell_volume
    frac = vol_e / vol_q
    lhs1 = frac ** p
    rhs1 = characteristic * mass_e / mass_q
    lhs2 = mass_e / mass_q
    if rh_exponent <= 1.0:
        rhs2 = math.inf
    else:
        s_prime = rh_exponent / (rh_exponent - 1.0)
        rhs2 = 2.0 * frac ** (1.0 / s_prime)
    return lhs1, rhs1, lhs2, rhs2


# -- the weight test battery ---------------------------------------------------


CENTERS = {"center": 0.5, "corner": 0.0, "third": 1.0 / 3.0}  # offset on every axis, in sides


def named_center(root: RootBox, name) -> tuple[float, ...]:
    """Resolve a singularity location: a name of CENTERS, or coords."""
    if isinstance(name, (tuple, list)):
        return tuple(float(v) for v in name)
    if name not in CENTERS:
        raise ValueError(f"unknown center {name!r}")
    return tuple(o + CENTERS[name] * root.side for o in root.origin)


def admissible_gamma_range(e: ExponentTriple) -> tuple[float, float]:
    """Open range of exponents gamma with |x - x0|^gamma in the weight class.

    Membership of the power weight follows from w^q in A_r, which holds
    exactly when -n < gamma q < n (r - 1); at p = 1 the upper end is 0.
    """
    return (-e.n / e.q, e.n / e.p_prime if e.p > 1 else 0.0)


def _power_cell_average_1d(a: float, b: float, x0: float, gamma: float) -> float:
    g1 = gamma + 1.0
    if g1 <= 0:
        raise ValueError("gamma must exceed -1 for an integrable 1-d weight")

    def anti(t):
        return math.copysign(abs(t) ** g1, t) / g1

    return (anti(b - x0) - anti(a - x0)) / (b - a)


# numpy.polynomial.legendre.leggauss(6), written out: no numpy.polynomial import
_GL_NODES = np.array([-0.9324695142031519, -0.6612093864662645, -0.2386191860831969,
                      0.2386191860831969, 0.6612093864662645, 0.9324695142031519])
_GL_WEIGHTS = np.array([0.17132449237917027, 0.3607615730481387, 0.46791393457269104,
                        0.46791393457269104, 0.3607615730481387, 0.17132449237917027])
# child c = 2 i + j of a split box: lower half of axis 0 iff i = 0, of axis 1 iff j = 0
_LOWER_HALF = np.array([[True, True], [True, False], [False, True], [False, False]])


def _power_cell_average_2d(lo, hi, x0, gamma, tol=1e-10):
    """Average of |x - x0|^gamma over a rectangle containing the singularity.

    Dyadic refinement toward x0: boxes at least their diagonal away from x0
    get 6x6 tensor Gauss-Legendre, the rest are split, and the ball around
    x0 is closed with the exact radial bound once its contribution is below
    tol times the running sum, or at depth 48.  About 1e-9 relative for
    gamma >= -1.2; nearer -2 the depth cap's ball bound dominates.  gamma >
    -2 keeps everything integrable.

    One array pass per depth builds its boxes, with their diagonals,
    distances to x0 and Gauss sums, when a box of the depth above is first
    split; a depth-first replay on those floats adds up the running sum in
    the recursive form's order, bit for bit.
    """
    if gamma <= -2:
        raise ValueError("gamma must exceed -2 for an integrable 2-d weight")
    x0 = np.asarray(x0, dtype=float)

    def norms(v):
        # sqrt of a BLAS dot per row, the bits np.linalg.norm gives a 2-vector
        return np.sqrt(v[:, None, :] @ v[:, :, None]).ravel()

    def level(b_lo, b_hi):
        """(diagonal, distance to x0, Gauss sum, first child) per box as
        lists, and the children of the boxes nearer x0 than their diagonal."""
        diam = norms(b_hi - b_lo)
        d = norms(np.clip(x0, b_lo, b_hi) - x0)
        split = d < diam
        # only the boxes that can use a Gauss sum: at gamma < 0 one holding
        # x0 gives inf, as does one below the float spacing (zero diagonal)
        # with x0 on it, whose NaN is reported below if the replay reaches it
        use = ~split if gamma < 0 else np.ones(len(d), dtype=bool)
        g_lo, g_hi = b_lo[use], b_hi[use]
        mid, half = 0.5 * (g_lo + g_hi), 0.5 * (g_hi - g_lo)
        dx = (mid[:, :1] + half[:, :1] * _GL_NODES)[:, :, None] - x0[0]
        dy = (mid[:, 1:] + half[:, 1:] * _GL_NODES)[:, None, :] - x0[1]
        gsum = np.zeros(len(d))
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = (dx * dx + dy * dy) ** (gamma / 2.0)
            wts = _GL_WEIGHTS[:, None] * _GL_WEIGHTS[None, :]
            gsum[use] = (vals * wts).reshape(-1, 36).sum(axis=1) * half[:, 0] * half[:, 1]
        s_lo, s_hi = b_lo[split, None], b_hi[split, None]
        mid = 0.5 * (s_lo + s_hi)
        kids = (np.where(_LOWER_HALF, s_lo, mid).reshape(-1, 2),
                np.where(_LOWER_HALF, mid, s_hi).reshape(-1, 2))
        first = 4 * (np.cumsum(split) - 1)
        return diam.tolist(), d.tolist(), gsum.tolist(), first.tolist(), kids

    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    total_vol = float(np.prod(hi - lo))
    levels = [level(lo[None], hi[None])]
    acc = 0.0
    stack = [(0, 0)]
    while stack:
        depth, i = stack.pop()
        diams, dists, gsums, firsts, kids = levels[depth]
        diam = diams[i]
        if dists[i] >= diam:
            acc += gsums[i]
            continue
        # ball bound: integral over the box is under the full radial integral
        ball = 2.0 * math.pi * diam ** (gamma + 2.0) / (gamma + 2.0)
        if depth >= 48 or ball < tol * max(abs(acc), 1e-300):
            acc += ball if gamma < 0 else gsums[i]
            continue
        if depth + 1 == len(levels):
            levels.append(level(*kids))
        # children pushed (0, 0) first, so (1, 1) pops first
        stack += [(depth + 1, firsts[i] + c) for c in range(4)]
    if not math.isfinite(acc):
        warnings.warn("quadrature met a box below the float spacing", RuntimeWarning)
    return acc / total_vol


def power_weight(root: RootBox, depth: int, gamma: float, x0) -> Weight:
    """w(x) = |x - x0|^gamma sampled at cell centers.

    Cells whose closure contains x0 take the exact analytic cell average
    instead (center sampling there would be undefined or wildly unstable).
    """
    x0 = named_center(root, x0)
    m = 2 ** depth
    h = root.side / m
    if root.n == 1:
        centers = root.origin[0] + (np.arange(m) + 0.5) * h
        cells = np.abs(centers - x0[0]) ** gamma
        i0 = int(np.clip(math.floor((x0[0] - root.origin[0]) / h), 0, m - 1))
        for i in {max(i0 - 1, 0), i0, min(i0 + 1, m - 1)}:
            a = root.origin[0] + i * h
            if a <= x0[0] <= a + h:
                cells[i] = _power_cell_average_1d(a, a + h, x0[0], gamma)
    else:
        c0 = root.origin[0] + (np.arange(m) + 0.5) * h
        c1 = root.origin[1] + (np.arange(m) + 0.5) * h
        dx = c0[:, None] - x0[0]
        dy = c1[None, :] - x0[1]
        cells = (dx * dx + dy * dy) ** (gamma / 2.0)
        i0 = int(np.clip(math.floor((x0[0] - root.origin[0]) / h), 0, m - 1))
        j0 = int(np.clip(math.floor((x0[1] - root.origin[1]) / h), 0, m - 1))
        for i in range(max(i0 - 1, 0), min(i0 + 2, m)):
            for j in range(max(j0 - 1, 0), min(j0 + 2, m)):
                lo = (root.origin[0] + i * h, root.origin[1] + j * h)
                hi = (lo[0] + h, lo[1] + h)
                if lo[0] <= x0[0] <= hi[0] and lo[1] <= x0[1] <= hi[1]:
                    cells[i, j] = _power_cell_average_2d(lo, hi, x0, gamma)
    return Weight(GridFunction(root, cells))


def step_weight(root: RootBox, depth: int, low: float = 1.0, high: float = 3.0) -> Weight:
    """Two-level weight: low on the left half (axis 0), high on the right."""
    m = 2 ** depth
    half = m // 2
    cells = np.full((m,) * root.n, float(high))
    cells[:half] = low
    return Weight(GridFunction(root, cells))
