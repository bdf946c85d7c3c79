"""The array validation checks against the row loops they replaced
(``tests/validation_reference.py``): ``check_power_identity`` and
``detect_angular_fault`` must give the same bits in every column they
write, the same flags and the same report entry, and ``_inside_polygon``
the scalar ray casting's answer for every point, boundary points
included."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import validation_reference as ref
from conftest import DEFAULTS, INTERVAL, T0, stage_outcome
from shipdataprep.model import DatasetError, ProcessingReport, VariableSpec, new_dataset
from shipdataprep.validation import (
    _inside_polygon,
    check_power_identity,
    detect_angular_fault,
    shaft_power,
)

POWER_COLUMNS = ("shaft_rpm", "shaft_torque", "shaft_power")


@st.composite
def shaft_logs(draw):
    """rpm, torque and power with gaps and zeros; a recorded power is the
    identity's, off by a few percent, or any value."""
    rows = draw(st.lists(st.tuples(
        st.one_of(st.none(), st.just(0.0), st.floats(-10.0, 150.0)),
        st.one_of(st.none(), st.just(0.0), st.floats(-1e4, 2e6)),
        st.one_of(st.none(), st.just(0.0), st.floats(-1e5, 3e7)),
        st.sampled_from([None, 1.0, 1.01, 1.03, 0.97]),
    ), min_size=1, max_size=30))
    rows = [
        (n, t, p if None in (n, t, factor) else shaft_power(n / 60.0, t) * factor)
        for n, t, p, factor in rows
    ]
    rpm, tau, pwr = (list(c) for c in zip(*rows))
    present = draw(st.sets(st.sampled_from(POWER_COLUMNS)))
    columns = {name: col for name, col in zip(POWER_COLUMNS, (rpm, tau, pwr)) if name in present}
    schema = [VariableSpec(name) for name in columns]
    stamps = [T0 + i * INTERVAL for i in range(len(rows))]
    return new_dataset(schema, stamps, columns, source_kind="in_service")


def run_stage(stage, dataset, names, *args, **kwargs):
    """The stage's outcome, or the error it ended with, so that both
    versions must fail alike where either fails."""
    report = ProcessingReport()
    try:
        with np.errstate(over="ignore"):
            out = stage(dataset, *args, report=report, **kwargs)
    except DatasetError as exc:
        return repr(exc)
    return stage_outcome(out, report, names)


# rpm, torque and power derived from finite inputs that overflow to inf
OVERFLOWING = new_dataset(
    [VariableSpec(name) for name in POWER_COLUMNS], [T0 + i * INTERVAL for i in range(3)],
    dict(zip(POWER_COLUMNS, ([None, 6e307, 1e-310], [1e-310, 1e306, None],
                             [5_000.0, None, 5e300]))), source_kind="in_service",
)


@settings(max_examples=60, deadline=None)
@given(shaft_logs(), st.sampled_from([0.02, 0.05]))
@example(OVERFLOWING, 0.02)
def test_power_identity_matches_loop(dataset, tolerance):
    names = ("derived_shaft_power", "derived_shaft_rpm", "derived_shaft_torque")
    assert run_stage(check_power_identity, dataset, names, tolerance) == run_stage(
        ref.check_power_identity, dataset, names, tolerance
    )


def test_checks_match_loops_on_many_random_rows():
    """Thousands of rows, so that a step done in another order shows in
    the last bit somewhere: shaft logs with gaps, zeros and powers near the
    identity, and wind directions against a reference."""
    rng = np.random.default_rng(6)
    n = 5_000
    rpm, tau = rng.uniform(0.0, 120.0, n), rng.uniform(0.0, 2e6, n)
    pwr = shaft_power(rpm / 60.0, tau) * rng.choice([1.0, 1.01, 1.05], n)
    for col in (rpm, tau, pwr):
        col[rng.random(n) < 0.3] = np.nan
        col[rng.random(n) < 0.02] = 0.0
    stamps = [T0 + i * INTERVAL for i in range(n)]
    dataset = new_dataset([VariableSpec(name) for name in POWER_COLUMNS], stamps,
                          dict(zip(POWER_COLUMNS, (rpm, tau, pwr))), source_kind="in_service")
    names = ("derived_shaft_power", "derived_shaft_rpm", "derived_shaft_torque")
    tolerance = DEFAULTS.power_tolerance
    assert run_stage(check_power_identity, dataset, names, tolerance) == run_stage(
        ref.check_power_identity, dataset, names, tolerance
    )
    recorded = rng.uniform(0.0, 360.0, n)
    dataset = new_dataset([VariableSpec("rel_wind_dir", "deg", "angular")], stamps,
                          {"rel_wind_dir": recorded}, source_kind="in_service")
    reference = (recorded + rng.normal(0.0, 120.0, n)) % 360.0
    assert run_stage(detect_angular_fault, dataset, ("fixed_rel_wind_dir",), "rel_wind_dir",
                     reference) == run_stage(ref.detect_angular_fault, dataset,
                                             ("fixed_rel_wind_dir",), "rel_wind_dir", reference)


angle = st.one_of(
    st.none(),
    st.sampled_from([0.0, 44.9, 45.0, 90.0, 135.0, 180.0, 225.0, 314.9, 315.0, 359.9]),
    st.floats(0.0, 359.999),
)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(angle, angle, angle), min_size=1, max_size=30), st.booleans())
def test_angular_fault_matches_loop(rows, fixed_before):
    """With and without an earlier fix in ``fixed_rel_wind_dir``."""
    recorded, reference, fixed = (list(c) for c in zip(*rows))
    schema = [VariableSpec("rel_wind_dir", "deg", "angular")]
    columns = {"rel_wind_dir": recorded}
    if fixed_before:
        schema.append(VariableSpec("fixed_rel_wind_dir", "deg", "angular"))
        columns["fixed_rel_wind_dir"] = fixed
    stamps = [T0 + i * INTERVAL for i in range(len(rows))]
    dataset = new_dataset(schema, stamps, columns, source_kind="in_service")
    reference = np.array([np.nan if r is None else r for r in reference])
    names = ("fixed_rel_wind_dir",)
    assert run_stage(detect_angular_fault, dataset, names, "rel_wind_dir", reference) == run_stage(
        ref.detect_angular_fault, dataset, names, "rel_wind_dir", reference
    )


ENVELOPES = [
    ((40.0, 0.0), (120.0, 0.0), (120.0, 5e5), (40.0, 2e5)),
    ((0.0, 0.0), (10.0, 10.0), (20.0, 0.0), (10.0, 5.0)),  # not convex
    ((0.0, 0.0), (4.0, 0.0), (4.0, 0.0), (4.0, 4.0), (0.0, 4.0)),  # a repeated vertex
]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(ENVELOPES),
    st.lists(st.tuples(st.floats(-10.0, 130.0), st.floats(-10.0, 6e5)), max_size=20),
)
def test_inside_polygon_matches_ray_casting(polygon, points):
    # each vertex, each edge's midpoint and the random points
    points = list(points) + list(polygon) + [
        ((x1 + x2) / 2, (y1 + y2) / 2)
        for (x1, y1), (x2, y2) in zip(polygon, polygon[1:] + polygon[:1])
    ]
    x, y = (np.array(c, dtype=float) for c in zip(*points))
    want = [ref._point_in_polygon(a, b, polygon) for a, b in zip(x, y)]
    assert _inside_polygon(x, y, polygon).tolist() == want
