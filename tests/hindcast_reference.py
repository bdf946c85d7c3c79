"""Scalar references for ``shipdataprep.hindcast``.

``interpolate``: one sample and one variable at a time, the time stencil,
the lat/lon cells, bilinear weighting at each stencil time and Lagrange
interpolation in time are all plain Python. The vectorised ``interpolate``
must return the same ``hc_*`` values and the same ``samples_*`` counts.

``steady_state_filter``: the filter as it was before its stage 2 became
array code, with a loop over every window centre. The array version must
return the same marks and counts.
"""

from __future__ import annotations

import math

import numpy as np

from shipdataprep.hindcast import SteadyFilterParams, SteadyFilterResult, t_quantile
from shipdataprep.ingest import GridVariable, HindcastGrid
from shipdataprep.model import ProcessingReport, VariableSpec, VoyageDataset


def _time_stencil(times: np.ndarray, t: float, count: int) -> np.ndarray | None:
    """Indices of the ``count`` grid timestamps around t (consecutive,
    containing the bracketing pair, nearest overall; ties biased to the
    past). None when t lies outside the grid span or the grid is too short."""
    n = len(times)
    if count > n or t < times[0] or t > times[-1]:
        return None
    j = int(np.searchsorted(times, t))  # times[j-1] < t <= times[j]
    best_s = None
    best_cost = math.inf
    for s in range(max(0, j - count), min(j + 1, n - count) + 1):
        window = times[s : s + count]
        if not (window[0] <= t <= window[-1]) and count > 1:
            continue
        cost = float(np.abs(window - t).sum())
        if cost < best_cost - 1e-12:
            best_cost = cost
            best_s = s
    if best_s is None:  # count == 1 or degenerate; fall back to nearest
        best_s = int(np.clip(j - 1, 0, n - count))
    return np.arange(best_s, best_s + count)


def _cell(axis: np.ndarray, x: float) -> tuple[int, float] | None:
    """Bracketing cell index and fractional position along a monotonic axis."""
    n = len(axis)
    if n < 2 or x < axis[0] or x > axis[-1]:
        return None
    i = int(np.clip(np.searchsorted(axis, x, side="right") - 1, 0, n - 2))
    frac = (x - axis[i]) / (axis[i + 1] - axis[i])
    return i, float(frac)


def _lon_cell(lons: np.ndarray, lon: float) -> tuple[int, int, float] | None:
    """Like _cell but handles the +-180 seam: when the grid nearly spans the
    globe and the point falls in the seam gap, interpolate between the last
    and first longitude columns."""
    direct = _cell(lons, lon)
    if direct is not None:
        i, f = direct
        return i, i + 1, f
    if len(lons) < 2:
        return None
    span_gap = (lons[0] + 360.0) - lons[-1]
    if span_gap <= 0 or span_gap > 2.0 * float(np.max(np.diff(lons))):
        return None
    offset = (lon - lons[-1]) % 360.0
    if offset > span_gap:
        return None
    return len(lons) - 1, 0, float(offset / span_gap)


def _bilinear(
    values: np.ndarray,
    mask: np.ndarray,
    yi: int,
    x0: int,
    x1: int,
    fy: float,
    fx: float,
    policy: str,
) -> float | None:
    nodes = np.array(
        [values[yi, x0], values[yi, x1], values[yi + 1, x0], values[yi + 1, x1]]
    )
    masked = np.array(
        [mask[yi, x0], mask[yi, x1], mask[yi + 1, x0], mask[yi + 1, x1]]
    )
    if masked.all():
        return None
    if masked.any():
        if policy == "zero_fill":
            nodes = np.where(masked, 0.0, nodes)
        else:  # neighbor_mean
            fill = nodes[~masked].mean()
            nodes = np.where(masked, fill, nodes)
    w = np.array(
        [(1 - fy) * (1 - fx), (1 - fy) * fx, fy * (1 - fx), fy * fx]
    )
    return float((w * nodes).sum())


def _lagrange(ts: np.ndarray, ys: np.ndarray, t: float) -> float:
    total = 0.0
    for j in range(len(ts)):
        term = ys[j]
        for m in range(len(ts)):
            if m != j:
                term *= (t - ts[m]) / (ts[j] - ts[m])
        total += term
    return float(total)


def _interp_variable_at(
    var: GridVariable,
    grid: HindcastGrid,
    t: float,
    lat: float,
    lon: float,
    order: int,
    policy: str,
) -> float | None:
    stencil = _time_stencil(grid.timestamps.astype(float), t, order + 1)
    if stencil is None:
        return None
    cy = _cell(grid.latitudes, lat)
    cx = _lon_cell(grid.longitudes, lon)
    if cy is None or cx is None:
        return None
    yi, fy = cy
    x0, x1, fx = cx

    def spatial(values: np.ndarray) -> list[float] | None:
        out = []
        for ti in stencil:
            v = _bilinear(values[ti], var.mask[ti], yi, x0, x1, fy, fx, policy)
            if v is None:
                return None
            out.append(v)
        return out

    times = grid.timestamps[stencil].astype(float)
    if var.is_angular:
        rad = np.deg2rad(var.values)
        sins = spatial(np.sin(rad))
        coss = spatial(np.cos(rad))
        if sins is None or coss is None:
            return None
        s = _lagrange(times, np.array(sins), t)
        c = _lagrange(times, np.array(coss), t)
        if s == 0.0 and c == 0.0:
            return None
        value = math.degrees(math.atan2(s, c)) % 360.0
        if var.convention == "toward":
            value = (value + 180.0) % 360.0
        return value
    vals = spatial(var.values)
    if vals is None:
        return None
    return _lagrange(times, np.array(vals), t)


def interpolate(
    grid: HindcastGrid,
    dataset: VoyageDataset,
    order: int,
    mask_policy: str,
    report: ProcessingReport | None = None,
) -> VoyageDataset:
    """Per-sample loop with the signature and outputs of the vectorised
    ``shipdataprep.hindcast.interpolate``."""
    entry = report.stage("interpolate") if report is not None else None

    candidates = np.nonzero(dataset.in_trip_or_all())[0]
    lat, lon, pos_ok = dataset.positions()
    ts = dataset.timestamps.astype(float)

    out = dataset
    counts = {"no_position": 0, "outside": 0, "interpolated": 0, "masked_missing": 0}
    for var in grid.variables:
        name = "hc_" + var.name
        column: list[float | None] = [None] * len(dataset)
        for i in candidates:
            if not pos_ok[i]:
                counts["no_position"] += 1
                continue
            stencil_ok = (
                grid.timestamps[0] <= ts[i] <= grid.timestamps[-1]
                and len(grid.timestamps) >= order + 1
            )
            if not stencil_ok:
                counts["outside"] += 1
                continue
            v = _interp_variable_at(
                var, grid, ts[i], float(lat[i]), float(lon[i]), order, mask_policy
            )
            if v is None:
                in_box = (
                    _cell(grid.latitudes, float(lat[i])) is not None
                    and _lon_cell(grid.longitudes, float(lon[i])) is not None
                )
                counts["masked_missing" if in_box else "outside"] += 1
                continue
            counts["interpolated"] += 1
            column[i] = v
        kind = "angular" if var.is_angular else "linear"
        spec = VariableSpec(name, var.unit, kind)
        out = out.adding_variable(spec, column)
    if entry is not None:
        entry.summary.update(
            {f"samples_{k}": v for k, v in sorted(counts.items())}
        )
        entry.summary["order"] = order
        entry.summary["mask_policy"] = mask_policy
    return out


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
    sxy = (tc * vw).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = sxy / sxx
    fit = vw.mean(axis=1, keepdims=True) + slope[:, None] * tc
    sse = ((vw - fit) ** 2).sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        se = np.sqrt(sse / (w - 2) / sxx)

    crit = t_quantile(1.0 - params.alpha / 2.0, w - 2)
    tstat = np.zeros_like(slope)
    nz = se > 0
    tstat[nz] = np.abs(slope[nz]) / se[nz]
    # a perfect nonconstant line has zero residual but a real slope
    tstat[~nz & (np.abs(slope) > 0)] = np.inf
    reject = tstat > crit

    stage1 = 0
    tol = params.gradient_tolerance
    centers = np.arange(h, len(vv) - h)
    for k, i in enumerate(centers):
        if not reject[k]:
            continue
        stage1 += 1
        if 0 < i < len(vv) - 1:
            dt = tt[i + 1] - tt[i - 1]
            grad = abs(vv[i + 1] - vv[i - 1]) / dt if dt > 0 else math.inf
            if grad <= tol:
                continue
        unsteady[present[i]] = True
    return SteadyFilterResult(unsteady, stage1)
