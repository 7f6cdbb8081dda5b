"""Young functions and Orlicz norms over cubes with a weighted measure.

Two norms are provided: the Luxemburg gauge and the Amemiya infimum form,
which sandwich each other within a factor 2.  The Young pair used by the
commutator machinery is fixed once and for all: Phi(t) = t log(e + t) and
its associate, pinned to exactly exp(t) - 1 (the associate is only
canonical up to equivalence; fixing it keeps every measured constant
deterministic).

The Luxemburg gauge is a bisection on lambda for the unit-mean
constraint, run once over blocks of rows (one block per cube level) with
each block keeping its own stop rule.  Each call sets up once: it checks
and normalizes the rows, locates every row's root by Newton with an error
band [bottom, top] around it, and opens one float-error scope.  The root
decides every bisection test whose lambda lies outside the band, so only
tests inside it evaluate Phi, and every value is the one bisecting that
block on its own gives, bit for bit.  A caller gauging the same rows many
times checks them once (checked_blocks).

A value is 0 or lies in [bottom, top / (1 - 2 rtol)], so a caller after
maxima passes the call a keep rule (its keep argument) that picks the
rows that can hold one, and only those are bisected.  A block stops when
its slowest row meets rtol, so every row of a block with a kept row is
still bracketed and a dropped row's stop step is read off its bracket and
band: after j steps the width is (hi - lo) 2^-j to within
eps (top + j 2^-j hi + eps hi), and rows that bound leaves open are
bisected too (_stop_steps).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .grid import GridFunction

__all__ = [
    "YoungFunction",
    "CheckedBlocks",
    "POWER1",
    "LLOG",
    "EXPM1",
    "luxemburg_norm",
    "luxemburg_norm_arrays",
    "luxemburg_norm_blocks",
    "luxemburg_norm_max",
    "checked_blocks",
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
            return _llog(t)
        with np.errstate(over="ignore"):
            return _expm1(t)


def _llog(t: np.ndarray) -> np.ndarray:
    return t * np.log(math.e + t)


def _expm1(t: np.ndarray) -> np.ndarray:
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
    that this is at most 1.  Phi is YoungFunction.__call__'s, evaluated in
    the caller's float-error scope, which silences overflow and invalid
    values (see luxemburg_norm_blocks)."""
    vals = (_llog if phi.kind == "llog" else _expm1)(a / lam[:, None])
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
        if phi.kind == "llog":  # the elasticity is the constant 2
            noise = (c + 8.0 + 4.0 * 2.0) * _EPS
            stop = np.maximum(1e-14, noise)
        for _ in range(_NEWTON_CAP):
            t = s[row]
            t *= a
            if phi.kind == "llog":  # in place, for the same reason
                dg = math.e + t
                g = np.log(dg)
                dg = np.divide(t, dg, out=dg)
                dg += g  # Phi'(t) = log(e + t) + t/(e + t)
                g *= t
            else:
                g = np.expm1(t)
                dg, tmax = g + 1.0, np.maximum.reduceat(t, starts)
                noise = (c + 8.0 + 4.0 * (1.0 + tmax)) * _EPS
                stop = np.maximum(1e-14, noise)
            gap = np.bincount(row, np.multiply(m, g, out=g), nrows) - 1.0
            settled = np.abs(gap) <= stop
            done = settled | ~np.isfinite(gap)  # G past the float range stays there
            if done.all():
                break
            dg *= m
            dg *= a
            s = np.where(done, s, s - gap / np.bincount(row, dg, nrows))
        if phi.kind == "llog":  # t of the last evaluated s, unchanged by the loop
            tmax = np.maximum.reduceat(t, starts)
        root = 1.0 / s
        sure = settled & (root >= 1e-290) & (tmax <= _T_SURE[phi.kind])
        band = np.where(sure, (4.0 * noise + 2.0 * np.abs(gap)) * root, np.inf)
        return root - band, root + band


class CheckedBlocks(list):
    """Blocks as luxemburg_norm_blocks checks them, one (|values|, masses
    normalized per row) pair per block; it takes them as they are."""


def checked_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]]) -> CheckedBlocks:
    """(|values|, masses normalized per row) of each (values, masses)
    block.  A caller gauging the same rows many times checks them once:
    luxemburg_norm_blocks takes the result as it is and gives each row the
    value the blocks give.  Non-finite input or a row of no mass raises
    ValueError."""
    rows = CheckedBlocks()
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


def _unchecked_steps(rtol: float) -> int:
    """Bisection steps before any row can meet rtol: a bracket starts at
    relative width 1/2 or more and at most halves per step (a factor 8
    spare for rounding)."""
    return max(math.floor(-math.log2(min(rtol, 1.0))) - 3, 0)


def _stop_steps(lo, hi, bottom, top, rtol: float) -> np.ndarray:
    """Per row, the first bisection step, at least _unchecked_steps(rtol),
    after which the stop check finds the row narrow, read off its bracket
    (lo, hi) = (hi 2^-k, hi) and root band [bottom, top] without bisecting;
    -1 where the bounds cannot tell.

    Relative to hi, after j steps the bracket is x 2^-j wide, x = 1 - 2^-k,
    to within e = eps (top / hi + j 2^-j + eps): midpoint i rounds by at
    most eps/2 of itself, it lies under min(hi, top + width_i) as the
    lower end never passed, and later steps halve its error.  The upper
    end lies in [bottom, top + width].  So the row is surely narrow at j
    if x 2^-j + e stays under rtol bottom / hi, and surely wide if
    x 2^-j - e exceeds rtol (top / hi + x 2^-j + e); the slack (8 eps, and
    e doubled) covers the rounding of the check and of these bounds."""
    first = _unchecked_steps(rtol)
    x = 1.0 - lo / hi
    e = 2.0 * _EPS * (top / hi + max(first, 1) * 2.0 ** -max(first, 1) + _EPS)  # j 2^-j <= that
    reach = rtol * (bottom / hi) * (1.0 - 8.0 * _EPS) - e
    sure = reach > 0  # NaN and infinite bands read nothing
    j = np.full(len(x), first)
    j[sure] = np.maximum(np.ceil(np.log2(x[sure] / reach[sure])), first)
    j += np.ldexp(x, -j) > reach  # log2 and the quotient round: one step either way
    j -= (j > first) & (np.ldexp(x, 1 - j) <= reach)
    d = np.ldexp(x, 1 - j)  # the width one step earlier
    wide = d * (1.0 - 8.0 * _EPS) - e > rtol * (top / hi + d + e) * (1.0 + 8.0 * _EPS)
    return np.where(sure & ((j == first) | wide), j, -1)


def luxemburg_norm_blocks(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                          phi: YoungFunction, rtol: float = 1e-13,
                          keep: Callable | None = None) -> np.ndarray:
    """Luxemburg gauge of sampled |values| against normalized masses for
    a sequence of (values, masses) blocks of shape (rows_i, cells_i): one
    value per row, block after block.  CheckedBlocks are taken as they are.

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

    Each call sets up once: it checks the blocks, locates every row's
    root by Newton (see _locate_roots) and opens one float-error scope,
    then runs all blocks through one set of loops.  Each test "mean of
    Phi(|values|/lam) <= 1" is read off the root: it passes when lam lies
    above the root's band and fails below it; only a lam inside the band,
    whose relative half-width is 4 (c + 8 + 4 el) eps + 2 |G(root) - 1|
    for c positive terms and elasticity el, runs the test (_phi_means,
    once per block and step) on the block's own arrays.  So every value
    is bit-identical to bisecting each block on its own, and a block's
    values depend only on its own rows.  The scope silences overflow and
    invalid values, which only Phi and the bracket doubling can produce.

    keep, when given, is the caller's rule for which rows to bisect: it
    takes each row's value bounds (max(bottom, 0), top / (1 - 2 rtol)), or
    (0, 0) where no positive value carries mass, and returns the mask of
    rows to bisect; the others gauge 0.  Blocks with none are not
    bracketed; in the rest, the dropped rows' stop steps (_stop_steps)
    floor the block's, so kept rows keep their bits.  The power kinds,
    which do not bisect, ignore it.
    """
    if not rtol > 4.0 * _EPS:
        raise ValueError("rtol must exceed the float spacing")
    rows = blocks if isinstance(blocks, CheckedBlocks) else checked_blocks(blocks)
    if phi.kind == "power":
        return np.concatenate([np.zeros(0)] + [_p_means(a, m, phi.exponent) for a, m in rows])
    lives, live_rows, count, bottom, top = _live_bands(rows, phi)
    live = np.concatenate([np.zeros(0, dtype=bool)] + lives)
    out = np.zeros(len(live))
    if not count.any():
        return out
    first = np.cumsum(count) - count  # each block's first row
    edges = np.append(first, len(bottom))
    blk = np.repeat(np.arange(len(live_rows)), count)

    def test(lam, ids, bottom, top, bracket=None):
        # means(lam) <= 1 for the rows ids (ascending), read off the roots
        # outside their bands and run on the block's own arrays inside
        # them; a lam at an end of its row's (lo, hi) bracket repeats that
        # end's outcome (lo failed, hi passed)
        ok = lam > top
        decided = ok | (lam < bottom)
        if decided.all():
            return ok
        near = np.flatnonzero(~decided)
        if bracket is not None:
            at, lo_n, hi_n = lam[near], bracket[0][near], bracket[1][near]
            ok[near[at == hi_n]] = True
            near = near[(at != lo_n) & (at != hi_n)]
        ids = ids[near]
        cut = np.searchsorted(ids, edges)  # block b's near rows: cut[b] to cut[b + 1]
        for b in np.flatnonzero(cut[1:] > cut[:-1]).tolist():
            part = near[cut[b]:cut[b + 1]]
            a, m = live_rows[b]
            local = ids[cut[b]:cut[b + 1]] - first[b]
            ok[part] = _phi_means(a[local], m[local], lam[part], phi) <= 1.0
        return ok

    run = np.ones(len(bottom), dtype=bool)  # the rows to bracket, then to bisect
    if keep is not None:
        bounds = np.zeros((2, len(out)))  # (low, high) per row
        bounds[:, live] = np.fmax(bottom, 0.0), top / (1.0 - 2.0 * rtol)
        kept = keep(*bounds)[live]
        # only blocks with a kept row are bracketed, and the rows whose
        # bracket could double past the float range (no other row can)
        run = (np.bincount(blk[kept], minlength=len(count)) > 0)[blk] | ~(top < 2.0 ** 1023)
    with np.errstate(over="ignore", invalid="ignore"):
        hi = np.concatenate([a.max(axis=1, initial=0.0) for a, _ in live_rows])
        up = np.flatnonzero(run)
        up = up[~test(hi[up], up, bottom[up], top[up])]
        while up.size:
            hi[up] *= 2.0
            up = up[~test(hi[up], up, bottom[up], top[up])]
        if not np.isfinite(hi).all():
            raise ValueError("gauge bracket overflows")
        lo = hi.copy()
        down = np.flatnonzero(run)  # every row passes at its upper bracket
        while down.size:
            lo[down] *= 0.5
            down = down[lo[down] >= 1e-300]
            down = down[test(lo[down], down, bottom[down], top[down])]
        run &= lo >= 1e-300  # the rest gauge 0
        # a block stops once all its rows meet rtol, at or after its floor:
        # _unchecked_steps(rtol) and the stop steps of its dropped rows
        floor = np.full(len(live_rows), _unchecked_steps(rtol))
        if keep is not None:
            kept &= run
            run &= (np.bincount(blk[kept], minlength=len(count)) > 0)[blk]  # not without one
            drop = np.flatnonzero(run & ~kept)
            steps = _stop_steps(lo[drop], hi[drop], bottom[drop], top[drop], rtol)
            drop, steps = drop[steps >= 0], steps[steps >= 0]
            np.maximum.at(floor, blk[drop], steps)
            run[drop] = False
        w = np.flatnonzero(run)
        lo_w, hi_w, bottom_w, top_w, floor_w = lo[w], hi[w], bottom[w], top[w], floor[blk[w]]
        starts = np.flatnonzero(np.diff(blk[w], prepend=-1))
        step, checked = 0, floor_w.min() if w.size else 0  # no check before the lowest floor
        while w.size:
            if step >= checked and (
                    not (wide := (hi_w - lo_w > rtol * hi_w) | (floor_w > step)).all()
                    and not (still := np.logical_or.reduceat(wide, starts)).all()):
                on = np.repeat(still, np.diff(starts, append=w.size))
                hi[w[~on]] = hi_w[~on]
                w, lo_w, hi_w, bottom_w, top_w, floor_w = (
                    x[on] for x in (w, lo_w, hi_w, bottom_w, top_w, floor_w))
                starts = np.flatnonzero(np.diff(blk[w], prepend=-1))
                if not w.size:
                    break
            mid = 0.5 * lo_w + 0.5 * hi_w  # no overflow near the float maximum
            ok = test(mid, w, bottom_w, top_w, (lo_w, hi_w))
            hi_w = np.where(ok, mid, hi_w)
            lo_w = np.where(ok, lo_w, mid)
            step += 1
    out[live] = np.where(run, hi, 0.0)
    return out


def luxemburg_norm_max(blocks: Iterable[tuple[np.ndarray, np.ndarray]],
                       phi: YoungFunction, rtol: float = 1e-13) -> float:
    """luxemburg_norm_blocks(blocks, phi, rtol).max(initial=0.0), bit for
    bit: one call whose keep rule bisects only the rows whose
    top / (1 - 2 rtol) reaches the largest bottom, since no other row holds
    the maximum.  The other rows of their blocks give their stop steps by
    the read-off of _stop_steps (the bracket's width after j steps to
    within eps (top + j 2^-j hi + eps hi)); other blocks are not bracketed."""
    return float(luxemburg_norm_blocks(
        blocks, phi, rtol, keep=lambda low, high: high >= low.max()).max(initial=0.0))


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
        mean = float((np.where(m > 0, vals, 0.0) * m).sum())
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
    lhs = float((np.abs(vals_f * vals_g) * mass).sum()) / total
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
