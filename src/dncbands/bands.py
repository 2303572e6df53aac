"""Simultaneous element-wise band calibration from bootstrap draws.

Calibration finds a single tail level c, shared by every component,
such that the band built from each column's (c, 1-c) empirical
quantiles contains at least a 1-alpha fraction of the bootstrap
replicates component-wise.  Because coverage is monotone in c, the
largest admissible c is well defined, and it can be read off per-draw
depths without scanning candidate levels:

    m_b = min over components of (#draws strictly below b, #draws
          strictly above b); then c = k/B, where k is the largest
          depth attained by at least need = ceil((1-alpha) B) replicates.

Conventions pinned here (they matter for exactness):
  * empirical quantiles are inverse-ECDF order statistics, lower index
    k = ceil(cB), upper symmetric from the top;
  * "inside" means strict inequality on both sides;
  * ties are broken by replicate index, as in a stable sort, which
    fixes the sign of a zero band offset;
  * achievable coverage moves in steps of 1/B and the returned bands
    are the smallest with coverage >= 1 - alpha.

Only small depths matter.  In a component with spread, the k lowest
draws have fewer than k draws strictly below them and the k highest
fewer than k above, so at most B - 2k replicates reach depth k and no
admissible k exceeds (B - need) // 2.  Depths are clipped at
cap = min(k_max, (B - need) // 2) + 1, and only a column's two tails
(the draws at or below its cap-th smallest value, or at or above its
cap-th largest) can lie below cap.  A tail holds every value beyond its
draws, so their counts come exactly, ties included, from the sorted
tail.  A running minimum of these depths along the components gives
m_b for every prefix, so one values-only sort of the first max(T)
components serves every T of a coverage grid row
(``calibrate_prefixes``), and ``calibrate`` is its one-T case.

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


def _count_below(tails: np.ndarray, rows: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Per entry i, how many of ``tails[rows[i]]`` lie strictly below ``values[i]``.

    Rows are ascending and 2^m - 1 long: m halving steps search them all.
    """
    width = tails.shape[1]
    flat = tails.ravel()
    last = rows * width - 1
    count = np.zeros_like(rows)
    step = (width + 1) // 2
    while step:
        count += step * (flat[last + count + step] < values)
        step //= 2
    return count


def _stable_pick(columns: np.ndarray, ordered: np.ndarray, t: int, pos: int) -> np.ndarray:
    """``ordered[:t, pos]``, with each zero signed as a stable sort would place it.

    The default sort may swap the equal -0.0 and 0.0.  A stable sort puts
    the raw column's (pos - #negatives)-th zero, in replicate order, at pos.
    """
    picked = ordered[:t, pos].copy()
    rows = np.flatnonzero(picked == 0.0)
    if rows.size:
        raw = columns[rows]
        nth = pos - np.count_nonzero(ordered[rows] < 0.0, axis=1)
        seen = np.cumsum(raw == 0.0, axis=1)
        picked[rows] = raw[np.arange(rows.size), np.argmax(seen > nth[:, None], axis=1)]
    return picked


def calibrate_prefixes(draws: BootstrapDraws, alpha: float, points) -> list[Bands]:
    """Calibrate the first T components, for every T in points, from one sort.

    Result i equals ``calibrate`` on the draws' first ``points[i]``
    columns; a delta in those columns that is not finite raises
    ValueError.  A replicate's depth at T is the running minimum of its
    per-component depths over the first T components, so one pass over
    the columns serves every T.
    """
    if not (0.0 < alpha < 1.0):
        raise ValueError(f"alpha must lie strictly inside (0, 1), got {alpha}")
    deltas = np.asarray(draws.deltas, dtype=np.float64)
    b_total, t_total = deltas.shape
    points = list(points)
    if not points or not all(isinstance(t, (int, np.integer)) and not isinstance(t, bool)
                             and 1 <= t <= t_total for t in points):
        raise ValueError(f"each T must be an integer in [1, {t_total}], got {points}")

    ordered = deltas.T[: max(points)].copy(order="C")
    ordered.sort(axis=1)
    if not np.isfinite(ordered[:, [0, -1]]).all():  # the sort puts nan and inf last
        raise ValueError("bootstrap deltas must be finite")
    degenerate = ordered[:, 0] == ordered[:, -1]
    k_max = max(1, (b_total - 1) // 2)
    need = _min_inside_count(b_total, alpha)  # in [1, B] for alpha in (0, 1)
    cap = min(k_max, (b_total - need) // 2) + 1
    width = (1 << cap.bit_length()) - 1  # >= cap values, and at most 2 cap - 1 <= B
    # the upper tail is the lower tail of the negated draws
    sides = ((False, ordered[:, :width].copy()), (True, -ordered[:, ::-1][:, :width]))
    running = np.full(b_total, cap, dtype=np.intp)
    depth_at = {}
    start = 0
    for stop in sorted(set(points)):
        for negate, tails in sides:
            block = -deltas[:, start:stop] if negate else deltas[:, start:stop]
            # an infinite threshold keeps a degenerate column out of the tail
            top = np.where(degenerate[start:stop], -np.inf, tails[start:stop, cap - 1])
            b, t = np.divmod(np.flatnonzero(block <= top), stop - start)
            np.minimum.at(running, b, _count_below(tails, t + start, block[b, t]))
        depth_at[stop] = running.copy()
        start = stop

    out = []
    for t in points:
        if bool(np.all(degenerate[:t])):
            k, coverage, reachable = k_max, 1.0, True
        else:
            depth = depth_at[t]
            # the cap bound keeps k_star below cap, where clipping changes nothing
            k_star = int(np.partition(depth, b_total - need)[b_total - need])
            reachable = k_star >= 1
            k = max(1, k_star)
            coverage = float(np.count_nonzero(depth >= k) / b_total)
        out.append(Bands(
            lower=_stable_pick(deltas.T, ordered, t, k - 1),
            upper=_stable_pick(deltas.T, ordered, t, b_total - k),
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
