"""Simultaneous element-wise band calibration from bootstrap draws.

Calibration finds a single tail level c, shared by every component,
such that the band built from each column's (c, 1-c) empirical
quantiles contains at least a 1-alpha fraction of the bootstrap
replicates component-wise.  Because coverage is monotone in c, the
largest admissible c is well defined, and it can be read off a rank
transform without scanning candidate levels:

    m_b = min over components of (#draws strictly below b, #draws
          strictly above b); then c = k/B, where k is the largest
          depth attained by at least ceil((1-alpha) B) replicates.

Conventions pinned here (they matter for exactness):
  * empirical quantiles are inverse-ECDF order statistics, lower index
    k = ceil(cB), upper symmetric from the top;
  * "inside" means strict inequality on both sides;
  * sorting is stable, so ties are broken by replicate index;
  * achievable coverage moves in steps of 1/B and the returned bands
    are the smallest with coverage >= 1 - alpha.

The depths come from ranks, not from a search per column.  In each
component's stably sorted draws, the entries equal to a value form one
tie run: the run's start is the count strictly below it and B - 1
minus the run's end is the count strictly above it.  A running
minimum of these per-component depths along the components then gives
m_b for every prefix of the first T components at once, so one sort
serves every T of a coverage grid row (``calibrate_prefixes``), and
``calibrate`` is its one-T case.  The components are ranked in blocks
of RANK_BLOCK = 64, which gives the same bits as ranking all columns at
once with a fraction of the scratch: at B = 1000 and T = 512 one call
raised peak RSS by about 28 MB unblocked and by about 8 MB in blocks,
4 MB of which is the sorted copy of the draws.

Components whose delta column has zero spread get a zero-width band,
are flagged, and impose no constraint on the tail level (a point mass
can never be strictly covered).  If even the widest candidate band
(k = 1) misses the target -- possible when many weakly coupled
components meet a small B -- that widest band is returned and
``tail_reachable`` is set to False.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bootstrap import BootstrapDraws

# components ranked per argsort; bounds the rank scratch to a few (64, B) arrays
RANK_BLOCK = 64


@dataclass(frozen=True)
class Bands:
    """Calibrated per-component offsets for the centered bootstrap law."""

    lower: np.ndarray  # (T,)
    upper: np.ndarray  # (T,)
    achieved_tail: float
    achieved_coverage: float
    degenerate: np.ndarray  # (T,) bool, zero-spread components
    tail_reachable: bool


def _min_inside_count(b_total: int, alpha: float) -> int:
    """Smallest integer count with count / B >= 1 - alpha."""
    target = 1.0 - alpha
    count = int(np.ceil(b_total * target))
    while count > 0 and (count - 1) / b_total >= target:
        count -= 1
    while count <= b_total and count / b_total < target:
        count += 1
    return count


def _block_depths(block: np.ndarray):
    """Sorted rows, per-entry depths and degenerate flags of a (w, B) block.

    Row i holds one component's B draws.  An entry's depth is
    min(#draws strictly below, #draws strictly above): in the stably
    sorted row these are the start of its tie run and B - 1 minus the
    run's end.  Degenerate rows get the int64 maximum, so they never
    bind the minimum over components.
    """
    w, b_total = block.shape
    order = np.argsort(block, axis=1, kind="stable")
    ordered = np.take_along_axis(block, order, axis=1)
    position = np.arange(b_total)
    run_start = np.ones((w, b_total), dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=run_start[:, 1:])
    below = np.where(run_start, position, 0)
    np.maximum.accumulate(below, axis=1, out=below)
    run_end = np.ones((w, b_total), dtype=bool)
    run_end[:, :-1] = run_start[:, 1:]
    above = np.where(run_end, position, b_total - 1)[:, ::-1]
    np.minimum.accumulate(above, axis=1, out=above)
    np.subtract(b_total - 1, above, out=above)
    np.minimum(below, above[:, ::-1], out=below)
    depth = np.empty((w, b_total), dtype=np.int64)
    np.put_along_axis(depth, order, below, axis=1)
    degenerate = ordered[:, 0] == ordered[:, -1]
    depth[degenerate] = np.iinfo(np.int64).max
    return ordered, depth, degenerate


def calibrate_prefixes(draws: BootstrapDraws, alpha: float, points) -> list[Bands]:
    """Calibrate the first T components, for every T in points, from one sort.

    Result i equals ``calibrate`` on the draws' first ``points[i]``
    columns.  A replicate's depth at T is the running minimum, over the
    first T components, of its per-component depth, so one pass over
    the columns serves every T.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    deltas = np.asarray(draws.deltas, dtype=np.float64)
    b_total, t_total = deltas.shape
    if t_total < 1:
        raise ValueError("draws must cover at least one component")
    points = [int(t) for t in points]
    if not points or not all(1 <= t <= t_total for t in points):
        raise ValueError(f"each T must lie in [1, {t_total}], got {points}")
    t_max = max(points)

    sorted_cols = np.empty((t_max, b_total), dtype=np.float64)
    degenerate = np.empty(t_max, dtype=bool)
    depth_at = {}
    running = np.full(b_total, np.iinfo(np.int64).max, dtype=np.int64)
    columns = deltas.T
    for start in range(0, t_max, RANK_BLOCK):
        stop = min(start + RANK_BLOCK, t_max)
        ordered, depth, degenerate[start:stop] = _block_depths(columns[start:stop])
        sorted_cols[start:stop] = ordered
        np.minimum(depth[0], running, out=depth[0])
        np.minimum.accumulate(depth, axis=0, out=depth)
        running = depth[-1]
        for t in points:
            if start < t <= stop:
                depth_at[t] = depth[t - start - 1].copy()

    k_max = max(1, (b_total - 1) // 2)
    need = _min_inside_count(b_total, alpha)
    out = []
    for t in points:
        if bool(np.all(degenerate[:t])):
            k = k_max
            coverage = 1.0
            reachable = True
        else:
            depth = depth_at[t]
            if need > b_total:
                k_star = 0
            else:
                k_star = int(np.partition(depth, b_total - need)[b_total - need])
            k_star = min(k_star, k_max)
            reachable = k_star >= 1
            k = max(1, k_star)
            coverage = float(np.count_nonzero(depth >= k) / b_total)
        out.append(Bands(
            lower=sorted_cols[:t, k - 1].copy(),
            upper=sorted_cols[:t, b_total - k].copy(),
            achieved_tail=k / b_total,
            achieved_coverage=coverage,
            degenerate=degenerate[:t].copy(),
            tail_reachable=reachable,
        ))
    return out


def calibrate(draws: BootstrapDraws, alpha: float) -> Bands:
    """Choose the equal-tail level and the per-component band offsets."""
    return calibrate_prefixes(draws, alpha, (np.shape(draws.deltas)[1],))[0]


def band_intervals(bands: Bands, f_bar: np.ndarray) -> np.ndarray:
    """Per-component intervals for the true values: (f_bar - u, f_bar - l).

    The upper bootstrap offset bounds f_bar minus the truth from above,
    hence it produces the interval's lower endpoint.
    """
    f = np.asarray(f_bar, dtype=np.float64)
    if f.shape != bands.lower.shape:
        raise ValueError("f_bar length does not match the calibrated bands")
    return np.column_stack((f - bands.upper, f - bands.lower))


def covers(intervals: np.ndarray, truth) -> bool:
    """True iff every truth value lies strictly inside its interval."""
    iv = np.asarray(intervals, dtype=np.float64)
    tr = np.asarray(truth, dtype=np.float64).reshape(-1)
    if iv.shape != (tr.shape[0], 2):
        raise ValueError("intervals and truth have mismatched lengths")
    return bool(np.all((tr > iv[:, 0]) & (tr < iv[:, 1])))


def save_bands_csv(path, x_tilde, f_bar, bands: Bands, metadata: str) -> None:
    """Write intervals as CSV: t, x_tilde, f_bar, lower, upper."""
    x = np.asarray(x_tilde, dtype=np.float64)
    if x.ndim == 1:
        x = x.reshape(-1, 1)
    iv = band_intervals(bands, f_bar)
    dim = x.shape[1]
    xcols = "x_tilde" if dim == 1 else ",".join(f"x_tilde_{j + 1}" for j in range(dim))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# {metadata}\n")
        fh.write(f"t,{xcols},f_bar,lower,upper\n")
        for t in range(x.shape[0]):
            coords = ",".join(repr(float(v)) for v in x[t])
            fh.write(
                f"{t},{coords},{float(f_bar[t])!r},{float(iv[t, 0])!r},{float(iv[t, 1])!r}\n"
            )
