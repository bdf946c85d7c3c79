"""GPS track cleaning and interpolation of gridded hindcast fields to the
ship's position and time.

The steady-state filter lives here because irrational GPS positions are its
first customer, but the corrections and cleaning stages reuse it on draft,
shaft rpm and speed series.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ingest import HindcastGrid
from .model import (
    ProcessingReport,
    QualityFlag,
    VariableSpec,
    VoyageDataset,
    add_flags,
    stage_entry,
)


# -- Student t quantile -------------------------------------------------------
#
# Self-contained so the runtime dependency stays numpy-only. The filter's df
# is always a whole number (window - 2), for which the CDF is a finite series
# in theta = atan(t / sqrt(df)), inverted by bisection; far tighter than the
# 1e-4 the filter needs.


def t_cdf(t: float, df: int) -> float:
    """CDF of Student's t distribution with a whole number ``df`` >= 1 of
    degrees of freedom (Abramowitz & Stegun 26.7.3 for odd df, 26.7.4 for
    even df)."""
    if df < 1 or df != int(df):
        raise ValueError("degrees of freedom must be a whole number >= 1")
    odd = int(df) % 2
    theta = math.atan(t / math.sqrt(df))
    cos2 = math.cos(theta) ** 2
    term = math.cos(theta) if odd else 1.0
    series = 0.0
    for k in range(1, int(df) // 2 + 1):
        series += term
        term *= cos2 * (2 * k - 1 + odd) / (2 * k + odd)
    a = math.sin(theta) * series
    if odd:
        a = 2.0 / math.pi * (theta + a)
    return 0.5 + 0.5 * a


@functools.cache
def t_quantile(p: float, df: int) -> float:
    """Inverse t CDF by bisection (absolute accuracy far below 1e-4)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must lie in (0, 1)")
    if p == 0.5:
        return 0.0
    if p < 0.5:
        return -t_quantile(1.0 - p, df)
    lo, hi = 0.0, 1.0
    while t_cdf(hi, df) < p:
        hi *= 2.0
        if hi > 1e12:  # pragma: no cover - p astronomically close to 1
            break
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if t_cdf(mid, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-10 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


# -- two-stage steady-state filter ---------------------------------------------


@dataclass(frozen=True)
class SteadyFilterParams:
    """Sliding-window t-test on the local slope (stage 1) followed by a
    local-gradient check that retains misidentified samples (stage 2).

    ``gradient_tolerance`` is an absolute rate limit in unit/s."""

    window: int
    alpha: float
    gradient_tolerance: float

    def __post_init__(self) -> None:
        if self.window < 3 or self.window % 2 == 0:
            raise ValueError("window must be an odd sample count >= 3")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.gradient_tolerance > 0:
            raise ValueError("gradient_tolerance must be strictly positive")


@dataclass
class SteadyFilterResult:
    """The final marks, and how many window centres stage 1 rejected."""

    unsteady: np.ndarray  # aligned to the input series, missing -> False
    stage1_rejected: int
    warning: str | None = None


def steady_state_filter(
    timestamps: np.ndarray, values: np.ndarray, params: SteadyFilterParams
) -> SteadyFilterResult:
    """Mark unsteady samples of one timestamped series.

    Missing values (NaN) are dropped before windowing and never marked.
    Stage 1 fits a least-squares slope in each centered window and rejects
    zero slope at level alpha (two-sided t-test, window-2 dof). Stage 2
    clears the mark when the local gradient |x[i+1]-x[i-1]| / (t[i+1]-t[i-1])
    stays within the tolerance.
    """
    timestamps = np.asarray(timestamps, dtype=float)
    values = np.asarray(values, dtype=float)
    n_all = len(values)
    unsteady = np.zeros(n_all, dtype=bool)
    present = np.nonzero(~np.isnan(values))[0]
    w = params.window
    if len(present) < w:
        return SteadyFilterResult(
            unsteady, 0,
            warning=f"series has {len(present)} valid samples, window is {w}; "
            "all samples pass",
        )

    tt = timestamps[present]
    vv = values[present]
    h = w // 2

    tw = np.lib.stride_tricks.sliding_window_view(tt, w)
    vw = np.lib.stride_tricks.sliding_window_view(vv, w)
    tc = tw - tw.mean(axis=1, keepdims=True)
    sxx = (tc * tc).sum(axis=1)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):  # huge: inf, NaN
        sxy = (tc * vw).sum(axis=1)
        slope = sxy / sxx
        fit = vw.mean(axis=1, keepdims=True) + slope[:, None] * tc
        sse = ((vw - fit) ** 2).sum(axis=1)
        se = np.sqrt(sse / (w - 2) / sxx)

    crit = t_quantile(1.0 - params.alpha / 2.0, w - 2)
    tstat = np.zeros_like(slope)
    nz = se > 0
    tstat[nz] = np.abs(slope[nz]) / se[nz]
    # a perfect nonconstant line has zero residual but a real slope
    tstat[~nz & (np.abs(slope) > 0)] = np.inf
    reject = tstat > crit

    # the window centres stage 1 rejects; h >= 1, so each has two neighbours
    c = np.flatnonzero(reject) + h
    dt = tt[c + 1] - tt[c - 1]
    grad = np.full(len(c), np.inf)
    with np.errstate(over="ignore"):  # a huge step: an inf gradient
        np.divide(np.abs(vv[c + 1] - vv[c - 1]), dt, out=grad, where=dt > 0)
    keep = ~(grad <= params.gradient_tolerance)  # a NaN gradient keeps the mark
    unsteady[present[c[keep]]] = True
    return SteadyFilterResult(unsteady, len(c))


def clean_gps(
    dataset: VoyageDataset,
    params: SteadyFilterParams,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Flag irrational GPS positions found by the two-stage filter applied
    to the latitude and (unwrapped) longitude series. Coordinates are never
    altered; flagged positions are simply excluded from interpolation.
    ``run_pipeline`` skips the stage when lat or lon carries no value."""
    entry = stage_entry(report, "gps_clean")
    ts = dataset.timestamps.astype(float)
    lat, lon = dataset.valid("lat"), dataset.valid("lon")
    irrational = np.zeros(len(dataset), dtype=bool)
    stage1_total = 0
    for idx in dataset.trip_groups():
        lat_g = lat[idx]
        lon_g = lon[idx].copy()
        ok = ~np.isnan(lon_g)
        if ok.sum() >= 2:
            lon_g[ok] = np.unwrap(lon_g[ok], period=360.0)
        for series in (lat_g, lon_g):
            res = steady_state_filter(ts[idx], series, params)
            stage1_total += res.stage1_rejected
            irrational[idx[res.unsteady]] = True
            if res.warning:
                entry.notes.append(res.warning)
    out = add_flags(dataset, QualityFlag.IRRATIONAL_POSITION, irrational, entry)
    entry.summary["stage1_rejected"] = stage1_total
    pairs = zip(lat[irrational].tolist(), lon[irrational].tolist())
    observed = [tuple(None if v != v else v for v in pair) for pair in pairs]
    stamps = dataset.timestamps[irrational]
    entry.check_rows("irrational_position", stamps, "lat/lon", observed=observed)
    return out


# -- hindcast interpolation ----------------------------------------------------
#
# Every helper works on all samples at once, with the per-sample arithmetic
# term by term and in the same order, so the results are the same floats.


def _stencil_starts(times: np.ndarray, t: np.ndarray, count: int) -> np.ndarray:
    """First index of the ``count`` consecutive grid timestamps around each t:
    the window must bracket t, and the nearest one (least summed distance)
    wins; ties go to the earlier window. Every t lies within the grid span
    and ``count <= len(times)``."""
    n = len(times)
    j = np.searchsorted(times, t)  # times[j-1] < t <= times[j]
    last = np.minimum(j + 1, n - count)
    best = np.clip(j - 1, 0, n - count)
    best_cost = np.full(len(t), np.inf)
    for k in range(count + 2):  # candidate starts j - count .. j + 1
        s = j - count + k
        sc = np.clip(s, 0, n - count)
        window = times[sc[:, None] + np.arange(count)]
        # timestamps are whole seconds, so these sums are exact in any order
        cost = np.abs(window - t[:, None]).sum(axis=1)
        better = (
            (s >= 0) & (s <= last) & (window[:, 0] <= t) & (t <= window[:, -1])
            & (cost < best_cost - 1e-12)
        )
        best = np.where(better, sc, best)
        best_cost = np.where(better, cost, best_cost)
    return best


def cells(axis: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bracketing cell index, fractional position and in-range mask of each
    x along a monotonic axis."""
    n = len(axis)
    if n < 2:
        return np.zeros(len(x), dtype=np.intp), np.zeros(len(x)), np.zeros(len(x), dtype=bool)
    i = np.clip(np.searchsorted(axis, x, side="right") - 1, 0, n - 2)
    a, b = axis[i], axis[i + 1]
    with np.errstate(over="ignore", invalid="ignore"):  # a cell too wide for a float:
        frac, wide = (x - a) / (b - a), np.isinf(b - a)  # redone halved, exact for such ends
    frac[wide] = (x[wide] / 2 - a[wide] / 2) / (b[wide] / 2 - a[wide] / 2)
    return i, frac, (x >= axis[0]) & (x <= axis[-1])


def _lon_cells(
    lons: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Like cells, with both node columns, and handling the +-180 seam: when
    the grid nearly spans the globe, a point in the seam gap interpolates
    between the last and first longitude columns."""
    x0, fx, inside = cells(lons, lon)
    x1 = x0 + 1
    if len(lons) < 2:
        return x0, x1, fx, inside
    with np.errstate(over="ignore"):  # -inf, no seam, for an axis wider than the float range
        gap = (lons[0] + 360.0) - lons[-1]
    if 0 < gap <= 2.0 * float(np.max(np.diff(lons))):
        offset = (lon - lons[-1]) % 360.0
        seam = ~inside & (offset <= gap)
        x0 = np.where(seam, len(lons) - 1, x0)
        x1 = np.where(seam, 0, x1)
        fx = np.where(seam, offset / gap, fx)
        inside = inside | seam
    return x0, x1, fx, inside


def _bilinear(
    field: np.ndarray,
    corners: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...],
    masked: list[np.ndarray],
    weights: tuple[np.ndarray, ...],
    policy: str,
) -> np.ndarray:
    """Weighted sum of the 4 cell nodes at each stencil time. Masked nodes
    read 0 (``zero_fill``) or the mean of the cell's unmasked nodes
    (``neighbor_mean``); cells with every node masked are left to the caller."""
    values = [field[idx] for idx in corners]
    if policy == "zero_fill":
        values = [np.where(m, 0.0, v) for v, m in zip(values, masked)]
    else:
        total = np.full(values[0].shape, -0.0)  # -0.0 + v == v, as in np.sum
        for v, m in zip(values, masked):
            total = np.where(m, total, total + v)
        unmasked = sum((~m).astype(int) for m in masked)
        fill = total / np.maximum(unmasked, 1)
        values = [np.where(m, fill, v) for v, m in zip(values, masked)]
    w0, w1, w2, w3 = weights
    return w0 * values[0] + w1 * values[1] + w2 * values[2] + w3 * values[3]


def _lagrange(factors: list[list[np.ndarray]], ys: np.ndarray) -> np.ndarray:
    """Polynomial through ``ys[:, j]`` at each sample's time; ``factors[j]``
    holds (t - t_m) / (t_j - t_m) for every m != j, applied one at a time."""
    total = np.zeros(len(ys))
    for j, row in enumerate(factors):
        term = ys[:, j]
        for factor in row:
            term = term * factor
        total = total + term
    return total


def interpolate(
    grid: HindcastGrid,
    dataset: VoyageDataset,
    order: int,
    mask_policy: str,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Interpolate every grid variable to each sample's position and time.

    Per variable and sample: bilinear over the 4 bracketing grid nodes at the
    ``order + 1`` nearest grid timestamps around t, then polynomial (degree =
    order) interpolation in time. Masked nodes follow ``mask_policy``
    (``zero_fill`` or ``neighbor_mean``); a fully masked cell yields a
    missing value. Samples with flagged or missing positions, or outside the
    grid's bounding box or time span, stay missing and are counted.

    The work is done as array operations over all samples at once: one
    ``searchsorted`` per axis finds every time stencil and cell, shared by
    all variables; the nodes are gathered by fancy indexing; angular fields
    use the grid's sin/cos, taken once when the grid was built. The values
    and counts equal those of the per-sample scalar reference in
    ``tests/hindcast_reference.py``.

    Results land in new ``hc_*`` variables; direction fields declared with a
    ``toward`` convention are converted to the internal from-convention.
    """
    entry = stage_entry(report, "interpolate")

    candidates = np.nonzero(dataset.in_trip_or_all())[0]
    lat, lon, pos_ok = (a[candidates] for a in dataset.positions())
    t = dataset.timestamps.astype(float)[candidates]
    times = grid.timestamps.astype(float)
    count = order + 1
    in_span = pos_ok & (times[0] <= t) & (t <= times[-1]) & (len(times) >= count)

    span_idx = np.nonzero(in_span)[0]
    yi, fy, lat_in = cells(grid.latitudes, lat[span_idx])
    x0, x1, fx, lon_in = _lon_cells(grid.longitudes, lon[span_idx])
    in_box = lat_in & lon_in
    sel = span_idx[in_box]
    yi, fy, x0, x1, fx = (a[in_box] for a in (yi, fy, x0, x1, fx))
    t = t[sel]

    stencil = _stencil_starts(times, t, count)[:, None] + np.arange(count)
    ts = times[stencil]
    factors = [
        [(t - ts[:, m]) / (ts[:, j] - ts[:, m]) for m in range(count) if m != j]
        for j in range(count)
    ]
    corners = tuple(
        (stencil, y[:, None], x[:, None])
        for y, x in ((yi, x0), (yi, x1), (yi + 1, x0), (yi + 1, x1))
    )
    fy, fx = fy[:, None], fx[:, None]
    weights = ((1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx)

    n_outside = int((~in_box).sum() + (pos_ok & ~in_span).sum())
    out = dataset
    counts = {"no_position": 0, "outside": 0, "interpolated": 0, "masked_missing": 0}
    for var in grid.variables:
        masked = [var.mask[idx] for idx in corners]
        ok = ~np.logical_and.reduce(masked).any(axis=1)
        if var.is_angular:
            s, c = (
                _lagrange(factors, _bilinear(f, corners, masked, weights, mask_policy))
                for f in var.sin_cos
            )
            ok &= (s != 0.0) | (c != 0.0)
            # math.atan2 per element: numpy's arctan2 differs in the last bit
            angle = np.array(list(map(math.atan2, s[ok].tolist(), c[ok].tolist())))
            values = np.degrees(angle) % 360.0
            if var.convention == "toward":
                values = (values + 180.0) % 360.0
        else:
            series = _bilinear(var.values, corners, masked, weights, mask_policy)
            values = _lagrange(factors, series)[ok]
        column = np.full(len(dataset), np.nan)
        column[candidates[sel[ok]]] = values
        counts["no_position"] += int((~pos_ok).sum())
        counts["outside"] += n_outside
        counts["interpolated"] += len(values)
        counts["masked_missing"] += int((~ok).sum())
        kind = "angular" if var.is_angular else "linear"
        spec = VariableSpec("hc_" + var.name, var.unit, kind)
        out = out.adding_variable(spec, column)
    entry.summary.update(
        {f"samples_{k}": v for k, v in sorted(counts.items())}
    )
    entry.summary["order"] = order
    entry.summary["mask_policy"] = mask_policy
    return out
