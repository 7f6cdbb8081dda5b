"""Young functions and Orlicz norms over cubes with a weighted measure.

Two norms are provided: the Luxemburg gauge and the Amemiya infimum form,
which sandwich each other within a factor 2.  The Young pair used by the
commutator machinery is fixed once and for all: Phi(t) = t log(e + t) and
its associate, pinned to exactly exp(t) - 1 (the associate is only
canonical up to equivalence; fixing it keeps every measured constant
deterministic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridFunction

__all__ = [
    "YoungFunction",
    "POWER1",
    "LLOG",
    "EXPM1",
    "luxemburg_norm",
    "luxemburg_norm_arrays",
    "luxemburg_norm_blocks",
    "amemiya_norm",
    "generalized_holder_check",
    "norm_sandwich_check",
    "box_samples",
]

_EXP_GUARD = 700.0


@dataclass(frozen=True)
class YoungFunction:
    """One of the three Young functions the machinery needs.

    kind 'power'  : t^p (p >= 1)
    kind 'llog'   : t log(e + t)
    kind 'expm1'  : exp(t) - 1, the associate of 'llog'
    """

    kind: str
    exponent: float = 1.0

    def __post_init__(self):
        if self.kind not in ("power", "llog", "expm1"):
            raise ValueError(f"unknown Young function kind {self.kind!r}")
        if self.kind == "power" and self.exponent < 1:
            raise ValueError("power exponent must be >= 1")

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.kind == "power":
            return t ** self.exponent
        if self.kind == "llog":
            return t * np.log(math.e + t)
        with np.errstate(over="ignore"):
            return np.where(t > _EXP_GUARD, np.inf, np.expm1(np.minimum(t, _EXP_GUARD)))


POWER1 = YoungFunction("power", 1.0)
LLOG = YoungFunction("llog")
EXPM1 = YoungFunction("expm1")


def box_samples(f: GridFunction, lo, hi, sigma: GridFunction):
    """Cell values of f on a box plus their sigma-masses (overlap-exact)."""
    f._same_mesh(sigma)
    sl, frac = f.box_overlap(lo, hi)
    vals = f.cells[sl].ravel()
    mass = (sigma.cells[sl] * frac).ravel() * sigma.cell_volume
    return vals, mass


def luxemburg_norm_arrays(values, masses, phi: YoungFunction, rtol: float = 1e-13) -> float:
    """Luxemburg gauge of one sample set: luxemburg_norm_blocks on one row."""
    return float(luxemburg_norm_blocks(
        np.ravel(values)[None], np.ravel(masses)[None], phi, rtol)[0])


def luxemburg_norm(f: GridFunction, lo, hi, sigma: GridFunction,
                   phi: YoungFunction, rtol: float = 1e-13) -> float:
    """Luxemburg norm of f over the box [lo, hi) against d(sigma)."""
    values, masses = box_samples(f, lo, hi, sigma)
    if values.size == 0:
        return 0.0
    return luxemburg_norm_arrays(values, masses, phi, rtol)


def luxemburg_norm_blocks(values: np.ndarray, masses: np.ndarray,
                          phi: YoungFunction, rtol: float = 1e-13) -> np.ndarray:
    """Luxemburg gauge of sampled |values| against normalized masses, per
    row of the (rows, cells) arrays.

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
        mid = 0.5 * (lo + hi)
        ok = means(mid) <= 1.0
        hi = np.where(ok, mid, hi)
        lo = np.where(ok, lo, mid)
    out[live] = np.where(dead, 0.0, hi)
    return out


def amemiya_norm(f: GridFunction, lo, hi, sigma: GridFunction,
                 phi: YoungFunction, tol: float = 1e-8) -> float:
    """inf over lam of lam * avg(1 + Phi(|f|/lam)) d(sigma) on the box.

    The objective is the perspective of a convex function, hence unimodal
    in lam; golden-section on log(lam) over a bracket derived from the
    Luxemburg norm (the infimum lies in [lux, 2 lux]).
    """
    values, masses = box_samples(f, lo, hi, sigma)
    a = np.abs(values)
    m = np.asarray(masses, dtype=float)
    total = m.sum()
    if total <= 0:
        raise ValueError("degenerate measure")
    m = m / total
    if float(a.max(initial=0.0)) == 0.0:
        return 0.0
    lux = luxemburg_norm_arrays(values, masses, phi)

    def objective(loglam):
        lam = math.exp(loglam)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = phi(a / lam)
        mean = float(np.dot(np.where(m > 0, vals, 0.0), m))
        return lam * (1.0 + mean)

    lo_l = math.log(lux) - 28.0
    hi_l = math.log(2.0 * lux) + 1e-3
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi_l - invphi * (hi_l - lo_l)
    x2 = lo_l + invphi * (hi_l - lo_l)
    f1, f2 = objective(x1), objective(x2)
    while hi_l - lo_l > tol:
        if f1 <= f2:
            hi_l, x2, f2 = x2, x1, f1
            x1 = hi_l - invphi * (hi_l - lo_l)
            f1 = objective(x1)
        else:
            lo_l, x1, f1 = x1, x2, f2
            x2 = lo_l + invphi * (hi_l - lo_l)
            f2 = objective(x2)
    return min(f1, f2, objective(lo_l), objective(hi_l))


def generalized_holder_check(f: GridFunction, g: GridFunction, lo, hi,
                             sigma: GridFunction) -> tuple[float, float]:
    """(lhs, rhs) of the generalized Holder inequality with constant 2.

    lhs = avg |fg| d(sigma) over the box; rhs = 2 ||f||_llog ||g||_expm1.
    The constant 2 is valid because s t <= Phi(s) + Phibar(t) holds for the
    pinned pair.
    """
    vals_f, mass = box_samples(f, lo, hi, sigma)
    vals_g, _ = box_samples(g, lo, hi, sigma)
    total = mass.sum()
    lhs = float(np.abs(vals_f * vals_g) @ mass) / total
    rhs = 2.0 * luxemburg_norm_arrays(vals_f, mass, LLOG) \
        * luxemburg_norm_arrays(vals_g, mass, EXPM1)
    return lhs, rhs


def norm_sandwich_check(f: GridFunction, lo, hi, sigma: GridFunction,
                        p: float) -> tuple[float, float, float]:
    """(L1, llog, Lp) norms over the box: L1 <= llog and llog <= C(p) Lp."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    values, masses = box_samples(f, lo, hi, sigma)
    a = luxemburg_norm_arrays(values, masses, POWER1)
    b = luxemburg_norm_arrays(values, masses, LLOG)
    c = luxemburg_norm_arrays(values, masses, YoungFunction("power", p))
    return a, b, c
