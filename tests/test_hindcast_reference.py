"""The vectorised ``interpolate`` against the per-sample scalar reference in
``hindcast_reference.py`` (equal values and counts), unmasked order-1 grids
against scipy's ``RegularGridInterpolator``, and the array stage 2 of
``steady_state_filter`` against its loop over window centres."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import RegularGridInterpolator

import hindcast_reference as reference
from conftest import DEFAULTS, rows_dataset
from shipdataprep import hindcast
from shipdataprep.hindcast import SteadyFilterParams, interpolate, steady_state_filter
from shipdataprep.ingest import GridVariable, HindcastGrid
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    Sample,
    VariableSpec,
)

T0 = 1_600_000_000


@st.composite
def grids(draw, min_steps=1, min_nodes=1, masked=True, angular_spread=180.0):
    """A grid with one linear and one angular variable: regional, or nearly
    global with a seam gap of one to three longitude steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.lists(st.integers(600, 21_600), min_size=min_steps - 1, max_size=4))
    times = T0 + np.cumsum([0] + steps)
    if draw(st.booleans()):
        step = draw(st.sampled_from([15.0, 20.0, 30.0, 45.0]))
        gap_steps = draw(st.integers(1, 3))
        lons = -180.0 + draw(st.sampled_from([0.0, 0.25, 0.5])) * step + step * np.arange(
            int(round(360.0 / step)) - gap_steps + 1
        )
        lats = np.array([-30.0, 0.0, 30.0])[: draw(st.integers(min_nodes, 3))]
    else:
        def axis(start, spacings, most):
            gaps = st.lists(st.sampled_from(spacings), min_size=min_nodes - 1, max_size=most)
            return draw(start) + np.cumsum([0.0] + draw(gaps))

        lats = axis(st.floats(-60, 50), [0.25, 0.5, 1.0], 3)
        lons = axis(st.floats(-170, 160), [0.25, 0.5, 2.0], 4)
    shape = (len(times), len(lats), len(lons))
    centre = draw(st.floats(0, 360))
    variables = []
    for name, unit, values in (
        ("lin", "m", rng.uniform(-50.0, 50.0, shape)),
        ("dir", "deg", (centre + rng.uniform(-angular_spread, angular_spread, shape)) % 360.0),
    ):
        mask = np.zeros(shape, dtype=bool)
        if masked:
            mask = rng.random(shape) < draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
            if draw(st.booleans()):  # one cell masked at every time step
                y, x = rng.integers(0, len(lats)), rng.integers(0, len(lons))
                mask[:, y : y + 2, x : x + 2] = True
        convention = draw(st.sampled_from([None, "from", "toward"])) if unit == "deg" else None
        variables.append(GridVariable(name, unit, values, mask, convention))
    return HindcastGrid(
        tuple(variables), lats.astype(float), lons.astype(float), times.astype(np.int64)
    )


@st.composite
def queries(draw, grid, inside=False):
    """Samples on grid nodes, cell edges and grid timestamps, in the seam gap,
    outside the box or the time span, with missing or flagged positions, and
    optionally with trip ids (then only in-trip samples are candidates).
    ``inside`` keeps every sample a candidate, in the box and in the span."""
    lats, lons, times = grid.latitudes, grid.longitudes, grid.timestamps
    kinds = ["node", "edge", "random"]
    if not inside:
        kinds += ["seam", "outside_box", "outside_time", "no_position", "flagged"]
    samples: dict[int, Sample] = {}
    for _ in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(kinds))
        k = draw(st.integers(0, len(times) - 1))
        on_time = kind == "node" or draw(st.booleans())
        t = int(times[k]) if on_time else draw(st.integers(int(times[0]), int(times[-1])))
        lat = draw(st.sampled_from(list(lats))) if kind in ("node", "edge") else draw(
            st.floats(float(lats[0]), float(lats[-1]))
        )
        lon = draw(st.sampled_from(list(lons))) if kind == "node" else draw(
            st.floats(float(lons[0]), float(lons[-1]))
        )
        flags = frozenset()
        if kind == "seam":
            lon = (float(lons[-1]) + draw(st.floats(0.0, 60.0)) + 180.0) % 360.0 - 180.0
        elif kind == "outside_box":
            lat, lon = (lat + 40.0, lon) if draw(st.booleans()) else (lat, lon - 25.0)
            lat = min(lat, 90.0)
        elif kind == "outside_time":
            t = int(times[0]) - draw(st.integers(1, 7200)) if draw(st.booleans()) else (
                int(times[-1]) + draw(st.integers(1, 7200))
            )
        elif kind == "flagged":
            flags = frozenset({QualityFlag.IRRATIONAL_POSITION})
        values = {"lat": lat, "lon": lon}
        if kind == "no_position":
            del values[draw(st.sampled_from(["lat", "lon"]))]
        trip = None if inside else draw(st.sampled_from([None, None, 1]))
        samples.setdefault(t, Sample(t, values, flags, trip))
    return rows_dataset([VariableSpec("lat"), VariableSpec("lon")], samples.values())


def exact(column):
    return [repr(v) for v in column.tolist()]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_vectorised_equals_scalar_reference(data):
    grid = data.draw(grids())
    dataset = data.draw(queries(grid))
    order = data.draw(st.integers(1, 3))
    policy = data.draw(st.sampled_from(["zero_fill", "neighbor_mean"]))
    got_report, want_report = ProcessingReport(), ProcessingReport()
    got = interpolate(grid, dataset, order, policy, got_report)
    want = reference.interpolate(grid, dataset, order, policy, want_report)
    for var in grid.variables:
        assert exact(got.column("hc_" + var.name)) == exact(want.column("hc_" + var.name))
        assert got.spec("hc_" + var.name) == want.spec("hc_" + var.name)
    assert got_report.to_dict() == want_report.to_dict()


def test_every_count_on_a_fixed_grid():
    """One sample for each ``samples_*`` outcome, from both implementations."""
    lats, lons = np.array([0.0, 1.0, 2.0]), np.array([0.0, 1.0, 2.0])
    times = np.array([T0, T0 + 3600, T0 + 7200], dtype=np.int64)
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[:, 1:, 1:] = True
    grid = HindcastGrid(
        (GridVariable("lin", "m", np.ones((3, 3, 3)), mask),), lats, lons, times
    )
    samples = [
        Sample(T0, {"lat": 0.5, "lon": 0.5}),
        Sample(T0 + 1, {"lat": 1.5, "lon": 1.5}),
        Sample(T0 + 2, {"lat": 5.0, "lon": 0.5}),
        Sample(T0 + 3, {"lat": 0.5}),
    ]
    dataset = rows_dataset([VariableSpec("lat"), VariableSpec("lon")], samples)
    for module in (hindcast, reference):
        report = ProcessingReport()
        module.interpolate(grid, dataset, 1, DEFAULTS.mask_policy, report=report)
        summary = report.stage_entries[0].summary
        assert [summary[f"samples_{k}"] for k in (
            "interpolated", "masked_missing", "outside", "no_position"
        )] == [1, 1, 1, 1]


def test_angular_zero_resultant_is_masked_missing():
    # on a masked node with zero_fill, the only weighted node reads 0 in both
    # sin and cos, so no direction exists
    mask = np.zeros((2, 2, 2), dtype=bool)
    mask[:, 0, 0] = True
    grid = HindcastGrid(
        (GridVariable("dir", "deg", np.full((2, 2, 2), 40.0), mask),),
        np.array([0.0, 1.0]), np.array([0.0, 1.0]), np.array([T0, T0 + 3600]),
    )
    dataset = rows_dataset(
        [VariableSpec("lat"), VariableSpec("lon")], [Sample(T0, {"lat": 0.0, "lon": 0.0})]
    )
    for module in (hindcast, reference):
        report = ProcessingReport()
        out = module.interpolate(grid, dataset, 1, "zero_fill", report)
        assert math.isnan(out.column("hc_dir")[0])
        assert report.stage_entries[0].summary["samples_masked_missing"] == 1


def test_stencil_tie_goes_to_the_past():
    # t halfway between grid steps 1 and 2 of four equally spaced ones: the
    # order-2 windows {0,1,2} and {1,2,3} are equally near; the earlier wins
    times = np.array([T0, T0 + 3600, T0 + 7200, T0 + 10800], dtype=np.int64)
    values = np.zeros((4, 2, 2))
    values[3] = 1000.0  # only the later window can see this step
    grid = HindcastGrid(
        (GridVariable("lin", "m", values, np.zeros((4, 2, 2), dtype=bool)),),
        np.array([0.0, 1.0]), np.array([0.0, 1.0]), times,
    )
    dataset = rows_dataset(
        [VariableSpec("lat"), VariableSpec("lon")],
        [Sample(T0 + 5400, {"lat": 0.5, "lon": 0.5})],
    )
    for stage in (interpolate, reference.interpolate):
        got = stage(grid, dataset, 2, DEFAULTS.mask_policy, report=ProcessingReport())
        assert got.column("hc_lin")[0] == 0.0


def scipy_values(grid, var, dataset):
    points = np.column_stack([
        dataset.timestamps.astype(float), dataset.column("lat"), dataset.column("lon"),
    ])
    axes = (grid.timestamps.astype(float), grid.latitudes, grid.longitudes)

    def at(field):
        # wrapping a longitude into [-180, 180) can move it by a few ulps,
        # out of the box; both sides then call it outside
        return RegularGridInterpolator(
            axes, field, method="linear", bounds_error=False, fill_value=np.nan
        )(points)

    if not var.is_angular:
        return at(var.values)
    rad = np.deg2rad(var.values)
    deg = np.degrees(np.arctan2(at(np.sin(rad)), at(np.cos(rad)))) % 360.0
    return (deg + 180.0) % 360.0 if var.convention == "toward" else deg


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_order_1_unmasked_matches_scipy(data):
    grid = data.draw(grids(min_steps=2, min_nodes=2, masked=False, angular_spread=60.0))
    # inside the box and the time span, off the seam, which scipy does not wrap
    dataset = data.draw(queries(grid, inside=True))
    got = interpolate(grid, dataset, 1, DEFAULTS.mask_policy, report=ProcessingReport())
    for var in grid.variables:
        want = scipy_values(grid, var, dataset)
        col = got.column("hc_" + var.name)
        for g, w in zip(col, want):
            assert math.isnan(g) == math.isnan(w)
            if math.isnan(g):
                continue
            if var.is_angular:
                diff = (g - w + 180.0) % 360.0 - 180.0
                assert abs(diff) <= 1e-9
            else:
                assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


@st.composite
def steady_series(draw):
    """Timestamps with repeated stamps (zero steps) and values built from
    plateaus, ramps, noise, spikes and NaN gaps; whole-number levels and
    slopes put some gradients exactly on the tolerance."""
    n = draw(st.integers(0, 60))
    steps = draw(st.lists(st.sampled_from([0, 1, 60, 900]), min_size=n, max_size=n))
    times = T0 + np.cumsum(steps, dtype=float)
    values: list[float] = []
    while len(values) < n:
        length = draw(st.integers(1, 12))
        kind = draw(st.sampled_from(["plateau", "ramp", "noise", "spike", "nan"]))
        level = draw(st.one_of(st.floats(-100.0, 100.0), st.integers(-100, 100).map(float)))
        if kind == "ramp":
            slope = draw(st.one_of(st.floats(-5.0, 5.0), st.sampled_from([-1.0, 0.5, 1.0])))
            values += [level + slope * k for k in range(length)]
        elif kind == "noise":
            values += draw(st.lists(st.floats(-100.0, 100.0), min_size=length,
                                    max_size=length))
        elif kind == "spike":
            values += [level, level + draw(st.floats(-50.0, 50.0)), level]
        else:
            values += [math.nan if kind == "nan" else level] * length
    params = SteadyFilterParams(
        draw(st.sampled_from([3, 5, 7, 11])),
        draw(st.sampled_from([0.01, 0.3, 0.6])),
        draw(st.sampled_from([1e-3, 0.05, 0.5, 1.0])),
    )
    return times, np.array(values[:n]), params


@settings(max_examples=400, deadline=None)
@given(steady_series())
def test_steady_filter_stage2_matches_loop(case):
    got = steady_state_filter(*case)
    want = reference.steady_state_filter(*case)
    assert got.unsteady.tolist() == want.unsteady.tolist()
    assert (got.stage1_rejected, got.warning) == (want.stage1_rejected, want.warning)
