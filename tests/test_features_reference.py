"""The array feature stages against the scalar helpers and row loops they
replaced (``tests/features_reference.py``).

- ``haversine_distances`` and ``initial_bearings`` must give the scalar
  formulas' bits on many random legs: a step done with numpy's ``x**2``,
  ``arcsin`` or ``arctan2`` differs in the last bit often enough to fail.
- ``add_gps_heading``, ``add_leg_distance``, ``ais_speed_consistency`` and
  ``ais_status_check`` must give the same bits in every column they write,
  the same flags and the same report entry, on tracks with missing,
  flagged and repeated positions, several trips and berth rows.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import features_reference as ref
from conftest import DEFAULTS, FERRY, INTERVAL, T0, stage_outcome
from shipdataprep.features import (
    add_gps_heading,
    add_leg_distance,
    ais_speed_consistency,
    ais_status_check,
    haversine_distances,
    initial_bearings,
)
from shipdataprep.model import (
    ProcessingReport,
    QualityFlag,
    VariableSpec,
    new_dataset,
)


def random_legs(n, seed):
    """``n`` legs: half between any two points of the globe, half short
    steps as a ship makes them, some across the antimeridian."""
    rng = np.random.default_rng(seed)
    lat1 = rng.uniform(-90.0, 90.0, n)
    lon1 = rng.uniform(-180.0, 180.0, n)
    far = rng.random(n) < 0.5
    near_lat = np.clip(lat1 + rng.normal(0, 0.05, n), -90.0, 90.0)
    near_lon = (lon1 + rng.normal(0, 0.05, n) + 180.0) % 360.0 - 180.0
    lat2 = np.where(far, rng.uniform(-90.0, 90.0, n), near_lat)
    lon2 = np.where(far, rng.uniform(-180.0, 180.0, n), near_lon)
    return lat1, lon1, lat2, lon2


def test_distances_have_the_scalar_bits():
    legs = random_legs(20_000, 1)
    got = haversine_distances(*legs)
    want = [ref.haversine(*leg) for leg in zip(*(a.tolist() for a in legs))]
    assert got.tolist() == want


def test_bearings_have_the_scalar_bits():
    legs = random_legs(20_000, 2)
    got = initial_bearings(*legs)
    want = [ref.initial_bearing(*leg) for leg in zip(*(a.tolist() for a in legs))]
    assert got.tolist() == want


def random_voyage(n, seed):
    """``n`` rows of a random-walk track in trips and berth runs, one row
    in twelve without a position or flagged, 5 s to 15 min apart, with a
    noisy sog, some repeated fixes and the AIS status codes."""
    rng = np.random.default_rng(seed)
    stamps = T0 + np.cumsum(rng.choice([5, 30, 59, 60, 61, 300, 900], n))
    lat = np.clip(20.0 + np.cumsum(rng.normal(0.0, 0.01, n)), -89.0, 89.0)
    lon = (179.0 + np.cumsum(rng.normal(0.01, 0.01, n)) + 180.0) % 360.0 - 180.0
    lat[rng.random(n) < 0.05] = np.nan
    repeat = np.flatnonzero(rng.random(n - 1) < 0.05) + 1
    lat[repeat], lon[repeat] = lat[repeat - 1], lon[repeat - 1]
    sog = rng.uniform(0.0, 12.0, n)
    sog[rng.random(n) < 0.05] = np.nan
    status = rng.choice([0.0, 1.0, 5.0, 2.0, np.nan], n)
    runs = np.where(rng.random(n // 20 + 1) < 0.25, -1, np.arange(n // 20 + 1))
    trips = np.repeat(runs, 20)[:n]
    flags = [[QualityFlag.IRRATIONAL_POSITION] if bad else [] for bad in rng.random(n) < 0.03]
    schema = [VariableSpec("lat", "deg"), VariableSpec("lon", "deg"), VariableSpec("sog", "m/s"),
              VariableSpec("nav_status", "-")]
    columns = {"lat": lat, "lon": lon, "sog": sog, "nav_status": status}
    return new_dataset(schema, stamps.tolist(), columns, flags=flags,
                       trip_ids=[None if t < 0 else int(t) for t in trips])


@pytest.mark.parametrize("with_trips", [True, False])
def test_stages_match_loops_on_a_long_random_voyage(with_trips):
    """Thousands of rows, so that a step done in another order shows in
    the last bit somewhere; with trips and berth runs, and with no trips."""
    dataset = random_voyage(4_000, 5)
    if not with_trips:
        dataset = dataset.with_trip_ids(np.full(len(dataset), -1))
    for name, stage, reference in (("gps_heading", add_gps_heading, ref.add_gps_heading),
                                   ("leg_distance", add_leg_distance, ref.add_leg_distance)):
        assert columns(stage(dataset), name) == columns(reference(dataset), name)
    kwargs = dict(tolerance_fraction=DEFAULTS.ais_tolerance, window=DEFAULTS.ais_window,
                  particulars=FERRY)
    assert run_stage(ais_speed_consistency, dataset, ("sog", "raw_sog"), **kwargs) == run_stage(
        ref.ais_speed_consistency, dataset, ("sog", "raw_sog"), **kwargs
    )
    threshold = DEFAULTS.port_speed_threshold
    assert run_stage(ais_status_check, dataset, (), port_speed_threshold=threshold) == run_stage(
        ref.ais_status_check, dataset, (), port_speed_threshold=threshold
    )


# a few fixed points, so that tracks repeat positions and cross the antimeridian
POINTS = [(0.0, 0.0), (0.0, 0.1), (0.1, 0.1), (10.0, 179.9), (10.0, -179.9), (-45.0, 20.0)]
position = st.one_of(
    st.sampled_from(POINTS),
    st.tuples(st.floats(-89.0, 89.0), st.floats(-180.0, 179.99)),
)


@st.composite
def tracks(draw):
    """Positions of which about one in ten is missing, one in ten lacks
    its latitude and one in ten is flagged, in no trip or in up to three
    trips whose rows interleave."""
    n = draw(st.integers(1, 40))
    points = draw(st.lists(position, min_size=n, max_size=n))
    state = draw(st.lists(st.integers(0, 9), min_size=n, max_size=n))
    lat = [None if k in (0, 1) else p[0] for p, k in zip(points, state)]
    lon = [None if k == 0 else p[1] for p, k in zip(points, state)]
    flags = [[QualityFlag.IRRATIONAL_POSITION] if k == 2 else [] for k in state]
    trips = draw(st.one_of(
        st.none(), st.lists(st.one_of(st.none(), st.integers(1, 3)), min_size=n, max_size=n)
    ))
    schema = [VariableSpec("lat", "deg"), VariableSpec("lon", "deg")]
    stamps = [T0 + i * INTERVAL for i in range(n)]
    return new_dataset(schema, stamps, {"lat": lat, "lon": lon}, INTERVAL,
                       flags=flags, trip_ids=trips)


def columns(dataset, name):
    """The schema and the bits of column ``name``, if the stage added it."""
    bits = dataset.column(name).view(np.uint64).tolist() if dataset.declares(name) else None
    return dataset.schema, bits


@settings(max_examples=60, deadline=None)
@given(tracks())
def test_heading_and_leg_distance_match_loops(dataset):
    assert columns(add_gps_heading(dataset), "gps_heading") == columns(
        ref.add_gps_heading(dataset), "gps_heading"
    )
    assert columns(add_leg_distance(dataset), "leg_distance") == columns(
        ref.add_leg_distance(dataset), "leg_distance"
    )


@st.composite
def ais_feeds(draw):
    """A track of small random steps at 10 s to 15 min intervals, with sog
    near, far from or without the speed the positions imply."""
    n = draw(st.integers(1, 30))
    gaps = draw(st.lists(st.sampled_from([10, 30, 59, 60, 61, 300, 900]), min_size=n, max_size=n))
    stamps = (T0 + np.cumsum(gaps)).tolist()
    lat0, lon0 = draw(st.floats(-60.0, 60.0)), draw(st.floats(-180.0, 179.9))
    steps = draw(st.lists(st.tuples(st.sampled_from([0.0, 0.001, 0.01, 0.05]),
                                    st.sampled_from([0.0, 0.002, -0.03])),
                          min_size=n, max_size=n))
    lat = (lat0 + np.cumsum([s[0] for s in steps])).clip(-89.0, 89.0).tolist()
    lon = (lon0 + np.cumsum([s[1] for s in steps])).tolist()
    sog = draw(st.lists(st.one_of(st.none(), st.sampled_from([0.0, 0.2, 5.0]),
                                  st.floats(0.0, 15.0)), min_size=n, max_size=n))
    # 0: position missing, 1: flagged, else usable
    state = draw(st.lists(st.integers(0, 7), min_size=n, max_size=n))
    lat = [None if k == 0 else v for v, k in zip(lat, state)]
    flags = [[QualityFlag.IRRATIONAL_POSITION] if k == 1 else [] for k in state]
    schema = [VariableSpec("lat", "deg"), VariableSpec("lon", "deg"), VariableSpec("sog", "m/s")]
    return new_dataset(schema, stamps, {"lat": lat, "lon": lon, "sog": sog}, flags=flags)


def run_stage(stage, dataset, names, **kwargs):
    report = ProcessingReport()
    out = stage(dataset, report=report, **kwargs)
    return stage_outcome(out, report, names)


@settings(max_examples=60, deadline=None)
@given(ais_feeds(), st.sampled_from([0.1, 0.3, 0.5]), st.integers(1, 6))
def test_speed_consistency_matches_loop(dataset, tolerance, window):
    kwargs = dict(tolerance_fraction=tolerance, window=window, particulars=FERRY)
    names = ("sog", "raw_sog")
    assert run_stage(ais_speed_consistency, dataset, names, **kwargs) == run_stage(
        ref.ais_speed_consistency, dataset, names, **kwargs
    )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from([0.0, 1.0, 5.0, 2.0, 0.5, 1.5, 4.5, -0.4]),
                      st.floats(-2.0, 16.0)),
            st.one_of(st.none(), st.sampled_from([0.0, 0.3, 0.5, 0.6, 3.0])),
            st.one_of(st.none(), st.just(1)),
        ),
        min_size=1, max_size=30,
    ),
    st.booleans(),
    st.sampled_from([0.0, 0.5]),
)
def test_status_check_matches_loop(rows, with_trips, threshold):
    """With trips and berth rows, and with no trips at all."""
    status, sog, trips = (list(c) for c in zip(*rows))
    schema = [VariableSpec("nav_status", "-"), VariableSpec("sog", "m/s")]
    stamps = [T0 + i * INTERVAL for i in range(len(rows))]
    dataset = new_dataset(schema, stamps, {"nav_status": status, "sog": sog},
                          trip_ids=trips if with_trips else None)
    assert run_stage(ais_status_check, dataset, (), port_speed_threshold=threshold) == run_stage(
        ref.ais_status_check, dataset, (), port_speed_threshold=threshold
    )
