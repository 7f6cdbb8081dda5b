"""Young functions and Orlicz norms over cubes with a weighted measure.

Two norms are provided: the Luxemburg gauge and the Amemiya infimum form,
which sandwich each other within a factor 2.  The Young pair used by the
commutator machinery is fixed once and for all: Phi(t) = t log(e + t) and
its associate, pinned to exactly exp(t) - 1 (the associate is only
canonical up to equivalence; fixing it keeps every measured constant
deterministic).

The Luxemburg gauge is a bisection on lambda for the unit-mean
constraint, run once over blocks of rows (one block per cube level) with
each block keeping its own stop rule.  A root located per row by Newton
decides every bisection test whose lambda lies outside a derived error
band [bottom, top], so only tests inside the band evaluate Phi, and every
value is the one bisecting that block on its own gives, bit for bit.
A value is 0 or lies in [bottom, top / (1 - rtol)], so the max-only gauge
bisects just the blocks whose bands reach the largest bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

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
    "luxemburg_norm_max",
    "amemiya_norm",
    "generalized_holder_check",
    "norm_sandwich_check",
    "box_samples",
]

_EXP_GUARD = 700.0
_EPS = float(np.finfo(float).eps)
# Phi^-1(1) of the bisected kinds: t log(e + t) = 1 and exp(t) - 1 = 1
_PHI_INV_ONE = {"llog": 0.7957028110823631, "expm1": math.log(2.0)}
# largest t at the root for which a band is trusted: half the expm1
# guard, and far below where t log(e + t) overflows
_T_SURE = {"llog": 1e300, "expm1": 0.5 * _EXP_GUARD}
_NEWTON_CAP = 40


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
        [(np.ravel(values)[None], np.ravel(masses)[None])], phi, rtol)[0])


def luxemburg_norm(f: GridFunction, lo, hi, sigma: GridFunction,
                   phi: YoungFunction, rtol: float = 1e-13) -> float:
    """Luxemburg norm of f over the box [lo, hi) against d(sigma)."""
    values, masses = box_samples(f, lo, hi, sigma)
    if values.size == 0:
        return 0.0
    return luxemburg_norm_arrays(values, masses, phi, rtol)


def _phi_means(a: np.ndarray, m: np.ndarray, lam: np.ndarray, phi: YoungFunction) -> np.ndarray:
    """Mean of Phi(a / lam) against m per row: the bisection's test is
    that this is at most 1."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi(a / lam[:, None])
    return np.einsum("ij,ij->i", np.where(m > 0, vals, 0.0), m)


def _p_means(a: np.ndarray, m: np.ndarray, p: float) -> np.ndarray:
    """(sum m a^p)^(1/p) per row over the cells of positive mass.  Rows whose sum
    overflows or falls under the normal range are summed as peak * (a/peak)^p."""
    live = m > 0
    with np.errstate(over="ignore"):
        total = np.einsum("ij,ij->i", np.where(live, a ** p, 0.0), m)
    out = total ** (1.0 / p)
    redo = np.flatnonzero((total == np.inf) | (total < np.finfo(float).tiny))
    if redo.size:
        peak = np.where(live[redo], a[redo], 0.0).max(axis=1)
        redo, peak = redo[peak > 0], peak[peak > 0, None]  # a row of zeros stays 0
        a, m, live = a[redo], m[redo], live[redo]
        out[redo] = peak[:, 0] * np.einsum(
            "ij,ij->i", (np.where(live, a, 0.0) / peak) ** p, m) ** (1.0 / p)
    return out


def _locate_roots(a: np.ndarray, m: np.ndarray, row: np.ndarray, nrows: int,
                  phi: YoungFunction) -> tuple[np.ndarray, np.ndarray]:
    """(bottom, top) per row: every lam above top passes the bisection's
    test and every lam below bottom fails it.

    a, m hold the cells with positive value and normalized mass, row
    their row numbers (sorted, every row present).  Newton in s = 1/lam
    on the convex increasing G(s) = sum m Phi(a s) starts where G >= 1,
    at the larger of two lower bounds on lam: Jensen's sum(m a)/Phi^-1(1)
    and the one-cell max(a m) (llog) or max(a / log1p(1/m)) (expm1).
    From there it falls monotonically onto the root r.  One float
    evaluation of G, a sum of c positive terms each off by its own
    rounding times Phi's elasticity el (2 for llog, 1 + max t for
    expm1), errs by at most noise = (c + 8 + 4 el) eps relative, so a row
    stops once |G - 1| <= max(1e-14, noise).  Convexity with G(0) = 0
    gives |s - r|/r <= |G(s) - 1|, and the float test can disagree with
    the exact one only within noise of the root: outside a relative band
    of 4 noise + 2 |G - 1| around lam = 1/s its outcome is lam > 1/s.
    A row gets an infinite band when Newton does not settle within
    _NEWTON_CAP steps or G leaves the float range, when its root is under
    1e-290 (near the 1e-300 floor) and when Phi nears its float limits at
    the root (half the expm1 guard, llog overflow).
    """
    c = np.bincount(row, minlength=nrows)
    starts = np.cumsum(c) - c
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        one = m * a if phi.kind == "llog" else a / np.log1p(1.0 / m)  # per-cell bound
        s = 1.0 / np.maximum(np.bincount(row, m * a, nrows) / _PHI_INV_ONE[phi.kind],
                             np.maximum.reduceat(one, starts))
        del one  # the batch holds every level's cells: keep few of their arrays alive
        for _ in range(_NEWTON_CAP):
            t = s[row]
            t *= a
            tmax = np.maximum.reduceat(t, starts)
            if phi.kind == "llog":  # in place, for the same reason
                dg = math.e + t
                g = np.log(dg)
                dg = np.divide(t, dg, out=dg)
                dg += g  # Phi'(t) = log(e + t) + t/(e + t)
                g *= t
                elastic = 2.0
            else:
                g = np.expm1(t)
                dg, elastic = g + 1.0, 1.0 + tmax
            noise = (c + 8.0 + 4.0 * elastic) * _EPS
            gap = np.bincount(row, np.multiply(m, g, out=g), nrows) - 1.0
            settled = np.abs(gap) <= np.maximum(1e-14, noise)
            done = settled | ~np.isfinite(gap)  # G past the float range stays there
            if done.all():
                break
            dg *= m
            dg *= a
            s = np.where(done, s, s - gap / np.bincount(row, dg, nrows))
        root = 1.0 / s
        sure = settled & (root >= 1e-290) & (tmax <= _T_SURE[phi.kind])
        band = np.where(sure, (4.0 * noise + 2.0 * np.abs(gap)) * root, np.inf)
        return root - band, root + band


def _checked(blocks, rtol: float) -> list[tuple[np.ndarray, np.ndarray]]:
    """(|values|, masses normalized per row) of each checked block."""
    if not rtol > 4.0 * _EPS:
        raise ValueError("rtol must exceed the float spacing")
    rows = []
    for values, masses in blocks:
        a = np.abs(np.asarray(values, dtype=float))
        m = np.asarray(masses, dtype=float)
        if not (np.isfinite(a).all() and np.isfinite(m).all()):
            raise ValueError("non-finite values or masses")
        total = m.sum(axis=1)
        if np.any(total <= 0):
            raise ValueError("degenerate measure")
        rows.append((a, m / total[:, None]))
    return rows


def _live_bands(rows, phi: YoungFunction):
    """Per checked block, the mask of rows where a positive value carries
    mass, those rows and their count; and the rows' root bands."""
    pos = [(a > 0) & (m > 0) for a, m in rows]  # the cells Phi sees
    lives = [p.any(axis=1) for p in pos]
    # copy only the blocks with dead rows: the batch holds every level's cells
    rows = [(a, m) if live.all() else (a[live], m[live]) for (a, m), live in zip(rows, lives)]
    pos = [p if live.all() else p[live] for p, live in zip(pos, lives)]
    count = np.array([len(a) for a, _ in rows], dtype=int)
    if not count.any():
        return lives, rows, count, np.zeros(0), np.zeros(0)
    first = np.cumsum(count) - count
    bottom, top = _locate_roots(
        np.concatenate([a[p] for (a, _), p in zip(rows, pos)]),
        np.concatenate([m[p] for (_, m), p in zip(rows, pos)]),
        np.concatenate([np.nonzero(p)[0] + f for p, f in zip(pos, first)]),
        int(count.sum()), phi)
    return lives, rows, count, bottom, top


def luxemburg_norm_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                          phi: YoungFunction, rtol: float = 1e-13) -> np.ndarray:
    """Luxemburg gauge of sampled |values| against normalized masses for
    a sequence of (values, masses) blocks of shape (rows_i, cells_i): one
    value per row, block after block.

    Power kinds take the closed form (the gauge equals the p-average over
    the cells of positive mass; rows whose p-sum overflows or underflows
    are rescaled by their peak).
    Other kinds bracket each row by doubling and halving from its peak,
    then bisect each block's rows together until every relative bracket
    width in the block is under rtol (so a row can come out tighter than
    on its own, never looser), and return the upper ends so the unit-mean
    constraint holds.  A row gauges 0 when no positive value carries mass
    or when its lower bracket falls below 1e-300.  The default tolerance
    is pinned well below the contracted 1e-10 so that independent scans
    of the same cube land within 1e-12 of each other.  Non-finite input,
    a row of no mass, a bracket past the float range and an rtol at the
    float spacing raise ValueError.

    All blocks run through one set of loops.  Each test "mean of
    Phi(|values|/lam) <= 1" is read off a root located once per row by
    Newton (see _locate_roots): it passes when lam lies above the root's
    band and fails below it; only a lam inside the band, whose relative
    half-width is 4 (c + 8 + 4 el) eps + 2 |G(root) - 1| for c positive
    terms and elasticity el, runs the test on the block's own arrays.  So
    every value is bit-identical to bisecting each block on its own, and
    a block's values depend only on its own rows.
    """
    rows = _checked(blocks, rtol)
    if phi.kind == "power":
        return np.concatenate([np.zeros(0)] + [_p_means(a, m, phi.exponent) for a, m in rows])
    lives, rows, count, bottom, top = _live_bands(rows, phi)
    out = np.zeros(sum(len(live) for live in lives))
    if not count.any():
        return out
    first = np.cumsum(count) - count  # each block's first row
    blk = np.repeat(np.arange(len(rows)), count)

    def test(lam, ids, bottom, top, bracket=None):
        # means(lam) <= 1 for the rows ids, read off the roots outside
        # their bands and run on the block's own arrays inside them; a
        # lam at an end of its row's (lo, hi) bracket repeats that end's
        # outcome (lo failed, hi passed)
        ok = lam > top
        near = ~(ok | (lam < bottom))
        if near.any() and bracket is not None:
            ok |= near & (lam == bracket[1])
            near &= (lam != bracket[0]) & (lam != bracket[1])
        if near.any():
            near = np.flatnonzero(near)
            for part in np.split(near, np.flatnonzero(np.diff(blk[ids[near]])) + 1):
                b = blk[ids[part[0]]]
                a, m = rows[b]
                local = ids[part] - first[b]
                ok[part] = _phi_means(a[local], m[local], lam[part], phi) <= 1.0
        return ok

    hi = np.concatenate([a.max(axis=1, initial=0.0) for a, _ in rows])
    up = np.flatnonzero(~test(hi, np.arange(len(hi)), bottom, top))
    while up.size:
        with np.errstate(over="ignore"):
            hi[up] *= 2.0
        up = up[~test(hi[up], up, bottom[up], top[up])]
    if not np.isfinite(hi).all():
        raise ValueError("gauge bracket overflows")
    lo = hi.copy()
    down = np.arange(len(lo))  # every row passes at its upper bracket
    while down.size:
        lo[down] *= 0.5
        down = down[lo[down] >= 1e-300]
        down = down[test(lo[down], down, bottom[down], top[down])]
    dead = lo < 1e-300  # lower bracket under 1e-300: gauge 0
    # bisect; a block stops once every one of its live rows meets rtol
    w = np.flatnonzero(~dead)
    lo_w, hi_w, bottom_w, top_w = lo[w], hi[w], bottom[w], top[w]
    starts = np.flatnonzero(np.diff(blk[w], prepend=-1))
    while w.size:
        wide = hi_w - lo_w > rtol * hi_w
        if not wide.all() and not (still := np.logical_or.reduceat(wide, starts)).all():
            keep = np.repeat(still, np.diff(starts, append=w.size))
            hi[w[~keep]] = hi_w[~keep]
            w, lo_w, hi_w, bottom_w, top_w = (
                x[keep] for x in (w, lo_w, hi_w, bottom_w, top_w))
            starts = np.flatnonzero(np.diff(blk[w], prepend=-1))
            if not w.size:
                break
        mid = 0.5 * lo_w + 0.5 * hi_w  # no overflow near the float maximum
        ok = test(mid, w, bottom_w, top_w, (lo_w, hi_w))
        hi_w = np.where(ok, mid, hi_w)
        lo_w = np.where(ok, lo_w, mid)
    out[np.concatenate(lives)] = np.where(dead, 0.0, hi)
    return out


def luxemburg_norm_max(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                       phi: YoungFunction, rtol: float = 1e-13) -> float:
    """luxemburg_norm_blocks(blocks, phi, rtol).max(initial=0.0), bit for
    bit, bisecting only the blocks with a row whose top / (1 - 2 rtol) (2
    rtol covering rounding) reaches the largest bottom, or whose bracket
    could double past the float range: no other block holds the maximum."""
    blocks = list(blocks)
    if phi.kind != "power":
        count, bottom, top = _live_bands(_checked(blocks, rtol), phi)[2:]
        held = np.flatnonzero(count)
        reach = np.maximum.reduceat(top, (np.cumsum(count) - count)[held])
        # fmax skips the NaN bottoms of rows whose sum of m a overflows
        floor = min(np.fmax.reduce(bottom, initial=-np.inf), 2.0 ** 1023) * (1.0 - 2.0 * rtol)
        blocks = [blocks[b] for b in held[reach >= floor]]
    return float(luxemburg_norm_blocks(blocks, phi, rtol).max(initial=0.0))


def amemiya_norm(f: GridFunction, lo, hi, sigma: GridFunction, phi: YoungFunction) -> float:
    """inf over lam of lam * avg(1 + Phi(|f|/lam)) d(sigma) on the box.

    The objective is the perspective of a convex function, hence unimodal
    in lam; golden-section on log(lam) over a bracket derived from the
    Luxemburg norm (the infimum lies in [lux, 2 lux]), down to width 1e-8.
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
    while hi_l - lo_l > 1e-8:
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
