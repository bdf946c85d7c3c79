"""The array corrections against the row loops they replaced
(``tests/corrections_reference.py``).

- The draft fixes: a trip between two berths of 0-6 samples each, drafts
  with missing cells (so anchors go one-sided or missing) and 0-3 sorted
  disjoint draft events. Both fixes must give the same bits in the
  ``draft_*`` and ``raw_draft_*`` columns, the same flags, and the same
  notes, corrections and flag counts in their report entry.
- The hydrostatics stage, by hydro table or by block coefficient, and
  ``resistance_components`` with tables of one or more angles: the same
  bits in every column they write and the same report entry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import corrections_reference as ref
from conftest import INTERVAL, T0, stage_outcome
from shipdataprep.corrections import (
    DRAFT_SENSORS,
    DraftChangeEvent,
    HydroTable,
    TableDrivenModel,
    fix_draft_ramp,
    fix_draft_simple,
    resistance_components,
)
from shipdataprep.ingest import PipelineConfig
from shipdataprep.model import (
    ProcessingReport,
    ShipParticulars,
    ShipType,
    VariableSpec,
    new_dataset,
)
from shipdataprep.pipeline import _hydrostatics_stage

draft = st.one_of(st.none(), st.floats(0.5, 20.0))


@st.composite
def voyages(draw):
    before, length, after = (draw(st.integers(0, 6)), draw(st.integers(1, 30)),
                             draw(st.integers(0, 6)))
    n = before + length + after
    stamps = [T0 + i * INTERVAL for i in range(n)]
    columns = {
        sensor: draw(st.lists(draft, min_size=n, max_size=n)) for sensor in DRAFT_SENSORS
    }
    trip_ids = [1 if before <= i < before + length else None for i in range(n)]
    schema = [VariableSpec(s, "m") for s in DRAFT_SENSORS]
    dataset = new_dataset(schema, stamps, columns, INTERVAL, trip_ids=trip_ids, source_kind="in_service")
    first, last = stamps[before], stamps[before + length - 1]
    # 0-3 events from sorted distinct instants of the trip, paired in order
    k = draw(st.integers(0, min(3, (last - first + 1) // 2)))
    instants = sorted(draw(st.lists(
        st.integers(first, last), min_size=2 * k, max_size=2 * k, unique=True
    )))
    events = [DraftChangeEvent(1, s, e) for s, e in zip(instants[::2], instants[1::2])]
    return dataset, events


def outcome(fix, *args, **kwargs):
    report = ProcessingReport()
    out = fix(*args, report=report, **kwargs)
    (entry,) = report.stage_entries
    names = [n for n in out.spec_map if n.startswith(("draft_", "raw_draft_"))]
    bits = {n: out.column(n).view(np.uint64).tolist() for n in names}
    return bits, out.flag_bits.tolist(), entry.notes, entry.corrections, entry.flag_counts


@settings(max_examples=300, deadline=None)
@given(voyages(), st.integers(1, 12))
def test_simple_fix_matches_loop(voyage, n_anchor):
    dataset, _ = voyage
    assert outcome(fix_draft_simple, dataset, 1, n_anchor) == outcome(
        ref.fix_draft_simple, dataset, 1, n_anchor
    )


@settings(max_examples=300, deadline=None)
@given(voyages(), st.integers(1, 12))
def test_ramp_fix_matches_loop(voyage, n_avg):
    dataset, events = voyage
    assert outcome(fix_draft_ramp, dataset, 1, events, n_avg) == outcome(
        ref.fix_draft_ramp, dataset, 1, events, n_avg
    )


def test_table_lookup_has_the_scalar_bits():
    """Random grids of 1-4 drafts by 1-4 trims, looked up inside, on and
    beyond their edges."""
    rng = np.random.default_rng(3)
    for shape in [(1, 1), (1, 3), (4, 1), (2, 2), (4, 4)]:
        drafts = np.sort(rng.choice(np.arange(2.0, 20.0, 0.5), shape[0], replace=False))
        trims = np.sort(rng.choice(np.arange(-2.0, 3.0, 0.25), shape[1], replace=False))
        nodes = rng.uniform(1e3, 1e5, shape), rng.uniform(1e3, 2e4, shape)
        table = HydroTable(drafts, trims, *nodes)
        draft, trim = rng.uniform(0.0, 22.0, 1_000), rng.uniform(-3.0, 4.0, 1_000)
        draft[:len(drafts)], trim[:len(trims)] = drafts, trims
        volume, wsa = table.lookup(draft, trim)
        want = [ref.lookup(table, d, t) for d, t in zip(draft.tolist(), trim.tolist())]
        assert list(zip(volume.tolist(), wsa.tolist())) == want


def test_coefficients_have_the_scalar_bits():
    """Tables of one to six angles, some given below 0 or above 360, at
    angles inside the table and across its wrap segment."""
    rng = np.random.default_rng(4)
    angles = rng.uniform(-720.0, 720.0, 5_000)
    for size in range(1, 7):
        table, coefficients = rng.uniform(-400.0, 400.0, size), rng.uniform(0.0, 2.0, size)
        model = TableDrivenModel("m", "added_wind", 10.0, table.tolist(), coefficients.tolist())
        points = np.concatenate([angles, model.angles])
        want = [ref.coefficient_at(model, a) for a in points.tolist()]
        assert model.coefficients_at(points).tolist() == want


RESISTANCE_INPUTS = {
    "stw": "linear", "rel_wind_speed": "linear", "rel_wind_speed_ref": "linear",
    "rel_wind_dir": "angular", "fixed_rel_wind_dir": "angular", "rel_wave_dir": "angular",
}


def test_stages_match_loops_on_many_random_rows():
    """Thousands of rows, so that a step done in another order shows in
    the last bit somewhere: drafts through the block-coefficient model and
    through a table, and every kind of resistance model."""
    rng = np.random.default_rng(7)
    n = 3_000
    fore, aft = rng.uniform(-1.0, 24.0, n), rng.uniform(-1.0, 24.0, n)
    fore[rng.random(n) < 0.1] = np.nan
    stamps = [T0 + i * INTERVAL for i in range(n)]
    trips = [None if t < 0 else int(t) for t in np.repeat(rng.integers(-1, 3, n // 50), 50)]
    schema = [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")]
    dataset = new_dataset(schema, stamps, {"draft_fore": fore, "draft_aft": aft}, trip_ids=trips, source_kind="in_service")
    particulars = ShipParticulars(ShipType.BULK_CARRIER, beam=46.0, design_draft=15.0,
                                  lwl=270.0, block_coefficient=0.8)
    table = HydroTable([4.0, 9.0, 16.0], [-1.0, 0.5, 2.0], rng.uniform(1e4, 1e5, (3, 3)),
                       rng.uniform(1e3, 2e4, (3, 3)))
    names = ("mean_draft", "trim", "displacement", "wsa")
    for hydro in (None, table):
        outcomes = []
        for stage in (_hydrostatics_stage, ref._hydrostatics_stage):
            report = ProcessingReport()
            out = stage(dataset, particulars, hydro, PipelineConfig(), report)
            outcomes.append(stage_outcome(out, report, names))
        assert outcomes[0] == outcomes[1]

    columns = {name: rng.uniform(0.0, 360.0 if kind == "angular" else 25.0, n)
               for name, kind in RESISTANCE_INPUTS.items()}
    for col in columns.values():
        col[rng.random(n) < 0.1] = np.nan
    schema = [VariableSpec(name, "-", kind) for name, kind in RESISTANCE_INPUTS.items()]
    dataset = new_dataset(schema, stamps, columns, trip_ids=trips, source_kind="in_service")
    models = [
        TableDrivenModel(kind, kind, 900.0, rng.uniform(0.0, 360.0, 6).tolist(),
                         rng.uniform(0.0, 1.5, 6).tolist())
        for kind in ("calm_water", "added_wind", "added_wave")
    ]
    outcomes = []
    for stage in (resistance_components, ref.resistance_components):
        report = ProcessingReport()
        out = stage(dataset, models, report)
        outcomes.append(stage_outcome(out, report, [f"res_{m.name}" for m in models]))
    assert outcomes[0] == outcomes[1]


@st.composite
def hydro_tables(draw):
    """A full grid of 1-3 drafts by 1-3 trims whose volumes and areas
    sometimes break the checks: a volume <= 0, or a wetted surface below
    volume / draft."""
    drafts = sorted(draw(st.sets(st.sampled_from([4.0, 8.0, 12.0, 16.0]), min_size=1, max_size=3)))
    trims = sorted(draw(st.sets(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=1, max_size=3)))
    shape = (len(drafts), len(trims))
    nodes = st.lists(st.floats(-1e3, 1e5), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])
    volume = np.array(draw(nodes)).reshape(shape)
    area = np.array(draw(nodes)).reshape(shape) / 4.0
    return HydroTable(drafts, trims, volume, area)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(
        st.one_of(st.none(), st.just(0.0), st.floats(-2.0, 25.0)),
        st.one_of(st.none(), st.floats(-2.0, 25.0)),
        st.one_of(st.none(), st.just(1)),
    ), min_size=1, max_size=30),
    st.one_of(st.none(), hydro_tables()),
    st.sampled_from([None, 0.8]),
    st.sampled_from([8.0, 15.0]),
    st.sampled_from(["laden", "unknown"]),
)
def test_hydrostatics_stage_matches_loop(rows, table, cb, design_draft, voyage_kind):
    """Under ``np.errstate(over="ignore")``: a mean draft near 1e-308
    overflows volume / draft to inf in both versions, with the same
    RuntimeWarning, and what they make of it is compared."""
    fore, aft, trips = (list(c) for c in zip(*rows))
    schema = [VariableSpec("draft_fore", "m"), VariableSpec("draft_aft", "m")]
    stamps = [T0 + i * INTERVAL for i in range(len(rows))]
    dataset = new_dataset(schema, stamps, {"draft_fore": fore, "draft_aft": aft}, trip_ids=trips, source_kind="in_service")
    particulars = ShipParticulars(ShipType.BULK_CARRIER, beam=46.0, design_draft=design_draft,
                                  lwl=270.0, block_coefficient=cb)
    config = PipelineConfig(voyage_kind=voyage_kind)
    outcomes = []
    for stage in (_hydrostatics_stage, ref._hydrostatics_stage):
        report = ProcessingReport()
        with np.errstate(over="ignore"):
            out = stage(dataset, particulars, table, config, report)
        outcomes.append(stage_outcome(out, report, ("mean_draft", "trim", "displacement", "wsa")))
    assert outcomes[0] == outcomes[1]


@st.composite
def resistance_models(draw):
    kind = draw(st.sampled_from(["calm_water", "added_wind", "added_wave"]))
    angles = draw(st.lists(st.floats(-400.0, 400.0), min_size=1, max_size=5, unique=True))
    coefficients = draw(st.lists(st.floats(0.0, 2.0), min_size=len(angles), max_size=len(angles)))
    name = f"{kind}_{draw(st.integers(0, 9))}"
    return TableDrivenModel(name, kind, draw(st.floats(1.0, 2000.0)), angles, coefficients)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(resistance_models(), min_size=1, max_size=3, unique_by=lambda m: m.name),
    st.lists(st.tuples(
        st.one_of(st.none(), st.just(1)),
        *[st.one_of(st.none(), st.floats(0.0, 30.0) if kind == "linear" else st.floats(0.0, 360.0))
          for kind in RESISTANCE_INPUTS.values()],
    ), min_size=1, max_size=30),
    st.sets(st.sampled_from(sorted(RESISTANCE_INPUTS))),
)
def test_resistance_matches_loop(models, rows, declared):
    trips, *values = (list(c) for c in zip(*rows))
    columns = {name: col for name, col in zip(RESISTANCE_INPUTS, values) if name in declared}
    schema = [VariableSpec(name, "-", RESISTANCE_INPUTS[name]) for name in columns]
    stamps = [T0 + i * INTERVAL for i in range(len(rows))]
    dataset = new_dataset(schema, stamps, columns, trip_ids=trips, source_kind="in_service")
    names = [f"res_{m.name}" for m in models]
    outcomes = []
    for stage in (resistance_components, ref.resistance_components):
        report = ProcessingReport()
        out = stage(dataset, models, report)
        outcomes.append(stage_outcome(out, report, names))
    assert outcomes[0] == outcomes[1]
