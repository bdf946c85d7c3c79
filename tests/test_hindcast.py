"""Steady-state filter against an independent regression oracle, GPS
cleaning fixtures, and grid interpolation exactness/mask policies."""

import functools
import math

import numpy as np
import pytest
from scipy import stats

from conftest import DEFAULTS, flagged_rows, rows_dataset

from shipdataprep.hindcast import (
    SteadyFilterParams,
    clean_gps,
    interpolate,
    steady_state_filter,
    t_cdf,
    t_quantile,
)
from shipdataprep.ingest import GridVariable, HindcastGrid
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    VariableSpec,
)

# the config's interpolation order and mask policy, unless a test gives its own
interp = functools.partial(
    interpolate, order=DEFAULTS.interpolation_order, mask_policy=DEFAULTS.mask_policy
)


class TestTDistribution:
    def test_quantile_matches_scipy_within_1e4(self):
        for df in (1, 2, 3, 5, 9, 19, 49, 199):
            for p in (0.55, 0.9, 0.95, 0.975, 0.99, 0.995, 0.9995):
                assert t_quantile(p, df) == pytest.approx(
                    stats.t.ppf(p, df), abs=1e-4
                )

    def test_cdf_matches_scipy(self):
        for df in (1, 2, 3, 9, 30):
            for t in (-4.0, -1.0, 0.0, 0.5, 2.5, 7.0):
                assert t_cdf(t, df) == pytest.approx(stats.t.cdf(t, df), abs=1e-14)

    # the bisection's results when the CDF was the continued fraction of the
    # regularized incomplete beta; the filter uses (0.995, 9) and (0.9995, 9)
    PINNED = {
        0.9: {1: 3.077683537150733, 2: 1.8856180831207894, 9: 1.3830287383752875,
              30: 1.310415025393013},
        0.975: {1: 12.706204736139625, 2: 4.302652729791589, 9: 2.2621571628260426,
                30: 2.042272456281353},
        0.995: {1: 63.656741162762046, 2: 9.92484320094809, 9: 3.2498355415882543,
                30: 2.7499956536339596},
        0.9995: {1: 636.619248777628, 2: 31.599054575897753, 9: 4.780912585789338,
                 30: 3.6459586351411417},
    }

    @pytest.mark.parametrize("p", sorted(PINNED))
    def test_quantile_keeps_its_bits(self, p):
        assert {df: t_quantile(p, df) for df in self.PINNED[p]} == self.PINNED[p]

    @pytest.mark.parametrize("df", [0, -1, 2.5])
    def test_df_must_be_a_whole_number_of_at_least_1(self, df):
        with pytest.raises(ValueError, match="whole number"):
            t_cdf(1.0, df)

    def test_symmetry(self):
        assert t_quantile(0.25, 7) == pytest.approx(-t_quantile(0.75, 7), abs=1e-10)


def run_filter(values, tol, window=11, alpha=0.01, dt=1.0):
    t = np.arange(len(values), dtype=float) * dt
    return steady_state_filter(
        t, np.asarray(values, dtype=float),
        SteadyFilterParams(window, alpha, tol),
    )


class TestSteadyFilter:
    def test_constant_series_all_steady(self):
        # stage 1 rejects no window, so no tolerance can leave a mark
        res = run_filter([5.0] * 50, tol=1.0)
        assert not res.unsteady.any()
        assert res.stage1_rejected == 0

    def test_short_series_passes_with_warning(self):
        # fewer samples than the window: neither stage runs, whatever the tolerance
        res = run_filter([1.0, 2.0, 3.0], tol=1.0, window=11)
        assert not res.unsteady.any()
        assert res.warning is not None

    def test_ramp_interior_marked_plateau_retained(self):
        rng = np.random.default_rng(3)
        x = np.concatenate([np.zeros(60), np.arange(1, 21) * 5.0, np.full(60, 100.0)])
        x += rng.normal(0, 0.5, len(x))
        res = run_filter(x, window=11, alpha=0.01, tol=1.0)
        ramp = res.unsteady[61:79]
        plateau = np.concatenate([res.unsteady[:55], res.unsteady[85:]])
        assert ramp.mean() > 0.9
        assert plateau.mean() <= 0.02

    def test_stage1_t_statistic_matches_independent_regression(self):
        # one deterministic window, slope fit recomputed longhand
        rng = np.random.default_rng(11)
        x = rng.normal(0, 1, 21) + np.arange(21) * 0.8
        t = np.arange(21, dtype=float)
        w, alpha = 21, 0.01
        # a tolerance below the centred gradient at 10 keeps stage 1's mark there
        grad = abs(x[11] - x[9]) / 2.0
        res = run_filter(x, tol=grad / 2.0, window=w, alpha=alpha)

        tc = t - t.mean()
        sxx = (tc**2).sum()
        slope = (tc * x).sum() / sxx
        intercept = x.mean() - slope * t.mean()
        sse = ((x - (intercept + slope * t)) ** 2).sum()
        se = math.sqrt(sse / (w - 2) / sxx)
        tstat = abs(slope) / se
        crit = stats.t.ppf(1 - alpha / 2, w - 2)
        assert res.unsteady[10] == (tstat > crit)
        assert res.stage1_rejected == (tstat > crit)  # the one window is centred at 10
        assert tstat > crit  # the ramp is unambiguous in this fixture

    def test_stage2_clears_spike_neighbours_with_loose_tolerance(self):
        # constant series, one spike at i=20; with a trigger-happy alpha the
        # windows where the spike sits off-centre reject zero slope: the four
        # centred at 18, 19, 21 and 22. Hand-computed centered gradients: at
        # 18 and 22 the difference skips the spike (|x19-x17|/2 = 0 <= 1) so
        # stage 2 clears them; at 19 and 21 it includes it (|x20-x18|/2 = 10 > 1)
        x = np.full(41, 10.0)
        x[20] = 30.0
        loose = run_filter(x, window=5, alpha=0.6, tol=1.0)
        assert loose.stage1_rejected == 4
        assert set(np.nonzero(loose.unsteady)[0]) == {19, 21}
        assert loose.stage1_rejected - loose.unsteady.sum() == 2

    @pytest.mark.parametrize("big", [1e306, -1e306])
    def test_huge_finite_value_marks_its_windows_without_warning(self, big):
        # the window sums overflow to inf and the fit to NaN, silently: stage 1
        # rejects the ten windows centred at 15-19 and 21-25, and stage 2 clears
        # all but the two centred differences that span the spike
        x = np.full(41, 10.0)
        x[20] = big
        loose = run_filter(x, window=11, alpha=0.01, tol=1.0, dt=900.0)
        assert np.flatnonzero(loose.unsteady).tolist() == [19, 21]
        assert (loose.stage1_rejected, loose.stage1_rejected - loose.unsteady.sum()) == (10, 8)

    def test_overflowing_gradient_keeps_the_mark_without_warning(self):
        # the centred difference at 20 spans -DBL_MAX to DBL_MAX: an inf gradient
        big = np.finfo(float).max
        x = np.full(41, 10.0)
        x[19], x[21] = -big, big
        res = run_filter(x, window=11, alpha=0.01, tol=1.0, dt=900.0)
        assert np.flatnonzero(res.unsteady).tolist() == [20]

    def test_missing_values_never_marked(self):
        x = [1.0, None, 1.0, 1.0, 1.0, None, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        vals = np.array([np.nan if v is None else v for v in x])
        # marks land only on present samples, whatever the tolerance
        res = steady_state_filter(
            np.arange(len(vals), dtype=float), vals, SteadyFilterParams(5, 0.05, 1e-9)
        )
        assert not res.unsteady[1] and not res.unsteady[5]


def gps_dataset(lats, lons, flag_none=True):
    schema = [VariableSpec("lat"), VariableSpec("lon")]
    samples = [
        Sample(i * 900, {"lat": la, "lon": lo}) for i, (la, lo) in enumerate(zip(lats, lons))
    ]
    return rows_dataset(schema, samples)


class TestCleanGps:
    def params(self):
        return SteadyFilterParams(window=11, alpha=0.01, gradient_tolerance=5e-4)

    def test_smooth_track_zero_flags(self):
        n = 60
        lats = [10.0 + 0.001 * i for i in range(n)]
        lons = [4.0 + 0.04 * i for i in range(n)]
        out = clean_gps(gps_dataset(lats, lons), self.params(), report=ProcessingReport())
        assert not out.flagged(QualityFlag.IRRATIONAL_POSITION).any()

    def test_off_route_excursion_flagged_at_jumps(self):
        # the track suddenly jumps 2 degrees off-route, stays there a while
        # and returns; the filter must flag the irrational position changes
        n = 81
        rng = np.random.default_rng(1)
        lats = [10.0] * n
        lons = list(4.0 + 0.04 * np.arange(n) + rng.normal(0, 1e-4, n))
        for i in range(30, 45):
            lons[i] += 2.0
        report = ProcessingReport()
        out = clean_gps(gps_dataset(lats, lons), self.params(), report)
        flagged = set(flagged_rows(out, QualityFlag.IRRATIONAL_POSITION))
        # both the departure and the return transitions are caught, and
        # nothing away from them is
        assert flagged & {29, 30}
        assert flagged & {44, 45}
        assert flagged <= {29, 30, 44, 45}
        # coordinates must not be altered, only flagged
        assert out.column("lon")[30] == pytest.approx(lons[30])
        assert len(flagged) <= report.stage_entries[0].summary["stage1_rejected"]

    def test_slow_turn_not_flagged(self):
        # genuine turn: lon rate changes smoothly, gradient below tolerance
        n = 80
        lats = [10.0 + 0.0002 * i for i in range(n)]
        lons = [4.0]
        for i in range(1, n):
            rate = 0.0002 + 0.0001 * math.sin(i / 20.0)
            lons.append(lons[-1] + rate)
        out = clean_gps(gps_dataset(lats, lons), self.params(), report=ProcessingReport())
        assert not out.flagged(QualityFlag.IRRATIONAL_POSITION).any()


def make_grid(field, lats, lons, times, unit="m", mask_cells=(), name="f"):
    values = np.zeros((len(times), len(lats), len(lons)))
    mask = np.zeros_like(values, dtype=bool)
    for ti, t in enumerate(times):
        for yi, la in enumerate(lats):
            for xi, lo in enumerate(lons):
                values[ti, yi, xi] = field(la, lo, t)
    for cell in mask_cells:
        mask[cell] = True
    return HindcastGrid(
        (GridVariable(name, unit, values, mask),),
        np.asarray(lats, dtype=float),
        np.asarray(lons, dtype=float),
        np.asarray(times, dtype=np.int64),
    )


def query_dataset(points):
    """points: list of (t, lat, lon); timestamps must be unique. Returned
    datasets are timestamp-sorted, so callers should sort points too."""
    schema = [VariableSpec("lat"), VariableSpec("lon")]
    samples = [Sample(int(t), {"lat": la, "lon": lo}) for t, la, lo in points]
    return rows_dataset(schema, samples)


def random_points(rng, n, t_span=(0, 7200), lat_span=(-2, 2), lon_span=(-3, 3)):
    """Unique, sorted random query points aligned with dataset ordering."""
    times = rng.choice(np.arange(t_span[0], t_span[1]), size=n, replace=False)
    times.sort()
    return [
        (int(t), rng.uniform(*lat_span), rng.uniform(*lon_span)) for t in times
    ]


def two_slice_grid(values2d, mask2d=None, unit="m", convention=None,
                   lats=(0.0, 1.0), lons=(0.0, 1.0)):
    """Grid with two identical time slices so order-1 stencils exist."""
    v = np.asarray(values2d, dtype=float)
    values = np.stack([v, v])
    if mask2d is None:
        mask = np.zeros_like(values, dtype=bool)
    else:
        m = np.asarray(mask2d, dtype=bool)
        mask = np.stack([m, m])
    return HindcastGrid(
        (GridVariable("f", unit, values, mask, convention),),
        np.asarray(lats, dtype=float),
        np.asarray(lons, dtype=float),
        np.array([0, 3600], dtype=np.int64),
    )


LATS = [-2.0, -1.0, 0.5, 2.0]
LONS = [-3.0, -1.5, 0.0, 1.0, 3.0]
TIMES = [0, 3600, 7200]


class TestInterpolate:
    def test_bilinear_reproduces_linear_field(self):
        grid = make_grid(lambda la, lo, t: 2.0 * la + 3.0 * lo, LATS, LONS, TIMES)
        pts = random_points(np.random.default_rng(0), 50)
        ds = interp(grid, query_dataset(pts), order=1, report=ProcessingReport())
        col = ds.column("hc_f")
        for (t, la, lo), got in zip(pts, col):
            assert got == pytest.approx(2.0 * la + 3.0 * lo, abs=1e-9)

    def test_time_linear_field(self):
        grid = make_grid(lambda la, lo, t: t / 360.0, LATS, LONS, [0, 3600])
        ds = interp(grid, query_dataset([(1800, 0.0, 0.0)]), order=1, report=ProcessingReport())
        assert ds.column("hc_f")[0] == pytest.approx(5.0, abs=1e-9)

    def test_constant_field_masked_node_neighbor_mean(self):
        # nodes around the query: three valid {2, 4, 6}, one masked; the
        # masked node takes their mean 4.0 before bilinear weighting
        grid = two_slice_grid([[2.0, 4.0], [6.0, 99.0]], [[False, False], [False, True]])
        ds = interpolate(grid, query_dataset([(0, 0.5, 0.5)]), order=1,
                         mask_policy="neighbor_mean", report=ProcessingReport())
        expected = 0.25 * (2.0 + 4.0 + 6.0 + 4.0)  # hand-computed weights
        assert ds.column("hc_f")[0] == pytest.approx(expected, abs=1e-12)

        ds0 = interpolate(grid, query_dataset([(0, 0.5, 0.5)]), order=1,
                          mask_policy="zero_fill", report=ProcessingReport())
        assert ds0.column("hc_f")[0] == pytest.approx(0.25 * (2 + 4 + 6 + 0), abs=1e-12)

    def test_policies_agree_when_unmasked(self):
        grid = make_grid(lambda la, lo, t: la * lo + t / 3600.0, LATS, LONS, TIMES)
        pts = [(5000, 0.3, 0.7), (100, -1.2, 2.2)]
        a = interpolate(grid, query_dataset(pts), order=1, mask_policy="zero_fill", report=ProcessingReport())
        b = interpolate(grid, query_dataset(pts), order=1, mask_policy="neighbor_mean", report=ProcessingReport())
        assert np.array_equal(a.column("hc_f"), b.column("hc_f"))

    def test_all_four_masked_yields_missing(self):
        grid = two_slice_grid(np.ones((2, 2)), np.ones((2, 2), dtype=bool))
        report = ProcessingReport()
        ds = interp(grid, query_dataset([(0, 0.5, 0.5)]), report=report)
        assert math.isnan(ds.column("hc_f")[0])
        assert report.stage_entries[0].summary["samples_masked_missing"] == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_cell_wider_than_the_float_range(self):
        # each cell spans 2 x DBL_MAX: the query lies halfway across both
        big = np.finfo(float).max
        grid = two_slice_grid([[2.0, 4.0], [6.0, 8.0]], lats=(-big, big), lons=(-big, big))
        ds = interp(grid, query_dataset([(0, 0.0, 0.5)]), order=1, report=ProcessingReport())
        assert ds.column("hc_f")[0] == 5.0

    def test_outside_bounding_box_missing_and_counted(self):
        grid = make_grid(lambda la, lo, t: 1.0, LATS, LONS, TIMES)
        report = ProcessingReport()
        ds = interp(grid, query_dataset([(0, 50.0, 0.0)]), report=report)
        assert math.isnan(ds.column("hc_f")[0])
        assert report.stage_entries[0].summary["samples_outside"] == 1

    def test_sample_on_east_edge_node_interpolated(self):
        lons = [10.0, 11.1, 12.3]
        grid = make_grid(lambda la, lo, t: lo, LATS, lons, TIMES)
        report = ProcessingReport()
        ds = interp(grid, query_dataset([(3600, 0.5, 12.3)]), report=report)
        assert ds.column("hc_f")[0] == pytest.approx(12.3, abs=1e-12)
        summary = report.stage_entries[0].summary
        assert summary["samples_outside"] == 0
        assert summary["samples_interpolated"] == 1

    def test_flagged_position_left_missing(self):
        grid = make_grid(lambda la, lo, t: 1.0, LATS, LONS, TIMES)
        ds = query_dataset([(0, 0.0, 0.0)]).adding_flags(
            QualityFlag.IRRATIONAL_POSITION, [0]
        )
        out = interp(grid, ds, report=ProcessingReport())
        assert math.isnan(out.column("hc_f")[0])

    def test_temporal_exactness_at_grid_timestamp(self):
        grid = make_grid(lambda la, lo, t: la + lo + t, LATS, LONS, TIMES)
        ds = interp(grid, query_dataset([(3600, 0.25, 0.5)]), order=1, report=ProcessingReport())
        assert ds.column("hc_f")[0] == pytest.approx(0.25 + 0.5 + 3600.0, rel=1e-12)

    def test_convexity_for_order_1(self):
        grid = make_grid(
            lambda la, lo, t: math.sin(la) * math.cos(lo) + t / 7200.0,
            LATS, LONS, TIMES,
        )
        pts = random_points(np.random.default_rng(5), 100)
        ds = interp(grid, query_dataset(pts), order=1, report=ProcessingReport())
        col = ds.column("hc_f")
        var = grid.variables[0]
        for (t, la, lo), got in zip(pts, col):
            ti = np.searchsorted(grid.timestamps, t)
            t_lo, t_hi = max(0, ti - 1), min(len(TIMES) - 1, ti)
            yi = np.searchsorted(grid.latitudes, la) - 1
            xi = np.searchsorted(grid.longitudes, lo) - 1
            nodes = var.values[
                np.ix_([t_lo, t_hi], [yi, yi + 1], [xi, xi + 1])
            ].ravel()
            assert nodes.min() - 1e-12 <= got <= nodes.max() + 1e-12

    def test_longitude_seam_wrap(self):
        # near-global grid; query inside the seam gap between 170 and -170
        lats = [-1.0, 1.0]
        lons = list(np.arange(-170.0, 171.0, 20.0))  # -170 .. 170
        times = [0, 3600]

        def field(la, lo, t):  # continuous across the seam
            return math.cos(math.radians(lo))

        grid = make_grid(field, lats, lons, times)
        ds = interp(grid, query_dataset([(0, 0.0, 178.0)]), order=1, report=ProcessingReport())
        got = ds.column("hc_f")[0]
        # linear blend between the seam columns at 170 and -170
        f = (178.0 - 170.0) / 20.0
        expected = (1 - f) * math.cos(math.radians(170.0)) + f * math.cos(
            math.radians(-170.0)
        )
        assert got == pytest.approx(expected, abs=1e-12)

    def test_angular_variable_interpolated_circularly(self):
        grid = two_slice_grid([[350.0, 10.0], [350.0, 10.0]], unit="deg")
        ds = interp(grid, query_dataset([(0, 0.5, 0.5)]), report=ProcessingReport())
        assert ds.column("hc_f")[0] == pytest.approx(0.0, abs=1e-9)

    def test_toward_convention_converted(self):
        grid = two_slice_grid(np.full((2, 2), 90.0), unit="deg", convention="toward")
        ds = interp(grid, query_dataset([(0, 0.5, 0.5)]), report=ProcessingReport())
        assert ds.column("hc_f")[0] == pytest.approx(270.0, abs=1e-9)


class TestOrderCheck:
    """Order-1 against order-2 interpolation in time."""

    @staticmethod
    def orders(grid, pts):
        ds = query_dataset(pts)
        return [interp(grid, ds, order=k, report=ProcessingReport()).column("hc_f") for k in (1, 2)]

    def test_time_linear_field_zero_difference(self):
        grid = make_grid(lambda la, lo, t: la + t / 100.0, LATS, LONS, TIMES)
        first, second = self.orders(grid, [(1800, 0.0, 0.0), (5000, 1.0, 1.0)])
        assert not np.isnan(second).any()
        assert np.max(np.abs(first - second)) == pytest.approx(0.0, abs=1e-9)

    def test_time_quadratic_field_nonzero(self):
        grid = make_grid(lambda la, lo, t: (t / 3600.0) ** 2, LATS, LONS, TIMES)
        first, second = self.orders(grid, [(1800, 0.0, 0.0)])
        assert abs(first[0] - second[0]) > 0.1

    def test_requires_three_time_steps(self):
        # order 2 needs three grid times around t: with two, t stays missing
        grid = make_grid(lambda la, lo, t: 1.0, LATS, LONS, [0, 3600])
        first, second = self.orders(grid, [(0, 0.0, 0.0)])
        assert first[0] == 1.0
        assert np.isnan(second[0])
