"""Core data model: construction contracts, the bit-exact round trip of
values through processed.csv, flag monotonicity, the report's per-row
checks."""

import numpy as np
import pytest
from conftest import flags_at, write_and_read_processed
from hypothesis import given, settings
from hypothesis import strategies as st

from shipdataprep.model import (
    WRITABLE_YEARS,
    DatasetError,
    QualityFlag,
    Sample,
    SchemaError,
    StageEntry,
    VariableSpec,
    VoyageDataset,
    new_dataset,
)


def schema():
    return [
        VariableSpec("sog", "m/s", "linear", 0.0, 26.0),
        VariableSpec("heading", "deg", "angular"),
        VariableSpec("state", "", "text"),
    ]


class TestNewDataset:
    def test_empty_sample_list(self):
        ds = new_dataset(schema(), [], {}, source_kind="in_service")
        assert len(ds) == 0
        assert ds.sampling_interval is None

    def test_out_of_order_samples_sorted(self):
        ds = new_dataset(
            schema(), [300, 100, 200], {"sog": [3.0, 1.0, None], "state": ["c", "a", None]},
            flags=[{QualityFlag.SPIKE}, (), ()], trip_ids=[3, None, 2], source_kind="in_service",
        )
        assert list(ds.timestamps) == [100, 200, 300]
        assert ds.column("sog")[0] == 1.0
        # the rows move together: values, flags and trip ids
        assert np.isnan(ds.column("sog")[1]) and ds.column("sog")[2] == 3.0
        assert ds.text_column("state").tolist() == ["a", None, "c"]
        assert [flags_at(ds, i) for i in range(3)] == [set(), set(), {QualityFlag.SPIKE}]
        assert ds.trip_ids.tolist() == [-1, 2, 3]

    def test_array_columns_sorted(self):
        ds = new_dataset(schema(), np.array([5, 1, 3]), {"sog": np.array([5.0, 1.0, 3.0])}, source_kind="in_service")
        assert ds.column("sog").tolist() == [1.0, 3.0, 5.0]

    def test_list_and_array_columns_give_the_same_dataset(self):
        # list columns are gathered by Python ints, array columns by the order
        lists = {"sog": [3.0, None, 0.5, 1.5], "heading": [-5.0, 360.0, None, 12.3],
                 "state": ["c", "a", None, "d"]}
        arrays = {"sog": np.array([3.0, np.nan, 0.5, 1.5]),
                  "heading": np.array([-5.0, 360.0, np.nan, 12.3]),
                  "state": np.array(["c", "a", None, "d"], dtype=object)}
        kwargs = dict(flags=[{QualityFlag.SPIKE}, (), (), ()], trip_ids=[3, None, 2, 4],
                      source_kind="in_service")
        stamps = [300, 100, 200, 400]
        want = new_dataset(schema(), stamps, lists, **kwargs)
        for columns in (arrays, {**arrays, "state": lists["state"]}):
            got = new_dataset(schema(), np.array(stamps), columns, **kwargs)
            assert got.timestamps.tolist() == want.timestamps.tolist() == [100, 200, 300, 400]
            for name in ("sog", "heading"):
                assert got.column(name).view(np.int64).tolist() == \
                    want.column(name).view(np.int64).tolist()
            assert got.text_column("state").tolist() == want.text_column("state").tolist()
            assert got.flag_bits.tolist() == want.flag_bits.tolist()
            assert got.trip_ids.tolist() == want.trip_ids.tolist()

    def test_column_length_checked(self):
        with pytest.raises(DatasetError, match="'sog': expected 2 entries, got 1"):
            new_dataset(schema(), [0, 900], {"sog": [1.0]}, source_kind="in_service")

    def test_duplicate_timestamp_rejected(self):
        with pytest.raises(DatasetError, match="1970-01-01T00:01:40Z"):
            new_dataset(schema(), [200, 100, 100], {}, source_kind="in_service")

    def test_duplicate_variable_name_rejected(self):
        with pytest.raises(SchemaError, match="sog"):
            new_dataset([VariableSpec("sog"), VariableSpec("sog")], [], {}, source_kind="in_service")

    def test_undeclared_variable_rejected(self):
        with pytest.raises(DatasetError, match="mystery"):
            new_dataset(schema(), [0], {"mystery": [1.0]}, source_kind="in_service")

    def test_angular_normalised_into_0_360(self):
        ds = new_dataset(schema(), [0, 1], {"heading": [-5.0, 360.0]}, source_kind="in_service")
        assert ds.column("heading")[0] == 355.0
        assert ds.column("heading")[1] == 0.0

    def test_longitude_wrapped_only_outside_range(self):
        lons = [12.3, 4.2, -180.0, 179.99999999999997, 180.0, 190.0, -190.0, 540.0]
        ds = new_dataset([VariableSpec("lon")], range(len(lons)), {"lon": lons}, source_kind="in_service")
        assert ds.column("lon").tolist() == [
            12.3, 4.2, -180.0, 179.99999999999997, -180.0, -170.0, 170.0, -180.0,
        ]

    def test_longitude_beyond_one_turn_kept_as_logged(self):
        # the wrap takes a 0-360 logger's values; a wilder one is a bad cell,
        # stored as logged and missing to the rules (valid)
        lons = [-540.0, 540.0, 540.0000000000001, -1e306, 1e306]
        ds = new_dataset([VariableSpec("lon", valid_min=-180.0, valid_max=180.0)],
                         range(len(lons)), {"lon": lons}, source_kind="in_service")
        assert ds.column("lon").tolist() == [-180.0, -180.0, 540.0000000000001, -1e306, 1e306]
        assert ds.valid("lon")[:2].tolist() == [-180.0, -180.0]
        assert np.isnan(ds.valid("lon")[2:]).all()

    def test_valid_hides_only_values_outside_the_range(self):
        sog = [0.0, -0.0, 26.0, np.nextafter(26.0, 27.0), -1e-310, None, 3.5]
        ds = new_dataset([VariableSpec("sog", valid_min=0.0, valid_max=26.0), VariableSpec("x")],
                         range(len(sog)), {"sog": sog, "x": [1e308] * len(sog)}, source_kind="in_service")
        got = ds.valid("sog")
        assert got[[0, 1, 2, 6]].tolist() == [0.0, -0.0, 26.0, 3.5]
        assert np.isnan(got[[3, 4, 5]]).all()
        assert ds.column("sog")[3] == np.nextafter(26.0, 27.0)  # the stored column keeps it
        assert ds.valid("x").tolist() == [1e308] * len(sog)  # no bounds: every value
        assert not got.flags.writeable

    def test_nan_becomes_missing(self):
        ds = new_dataset(schema(), [0], {"sog": [float("nan")]}, source_kind="in_service")
        assert np.isnan(ds.column("sog")[0])

    def test_text_value_on_numeric_variable_rejected(self):
        with pytest.raises(DatasetError):
            new_dataset(schema(), [0], {"sog": ["fast"]}, source_kind="in_service")

    def test_positional_constructor_transposes_rows(self):
        rows = [Sample(900, {"sog": 2.0}, frozenset({QualityFlag.SPIKE}), 1), Sample(0, {"state": "a"})]
        ds = VoyageDataset(tuple(schema()), rows, 900, "ais")
        want = new_dataset(
            schema(), [900, 0], {"sog": [2.0, None], "state": [None, "a"]}, 900,
            source_kind="ais", flags=[{QualityFlag.SPIKE}, ()], trip_ids=[1, None],
        )
        assert (ds.schema, ds.sampling_interval, ds.source_kind) == (want.schema, 900, "ais")
        assert ds.timestamps.tolist() == want.timestamps.tolist() == [0, 900]
        assert ds.flag_bits.tolist() == want.flag_bits.tolist()
        assert flags_at(ds, 1) == {QualityFlag.SPIKE}
        assert ds.trip_ids.tolist() == want.trip_ids.tolist() == [-1, 1]
        for spec in ds.schema:
            if spec.kind == "text":
                got = ds.text_column(spec.name).tolist()
                assert got == want.text_column(spec.name).tolist() == ["a", None]
            else:  # NaN equals NaN
                np.testing.assert_array_equal(ds.column(spec.name), want.column(spec.name))
        np.testing.assert_array_equal(ds.column("sog"), [np.nan, 2.0])

    def test_invalid_bounds_rejected(self):
        with pytest.raises(SchemaError):
            VariableSpec("v", valid_min=2.0, valid_max=1.0)


class TestImmutability:
    def test_adding_flags_is_monotone(self):
        ds = new_dataset(schema(), [0, 900], {"sog": [1.0, None]}, source_kind="in_service")
        ds2 = ds.adding_flags(QualityFlag.SPIKE, [0])
        ds3 = ds2.adding_flags(QualityFlag.DROPOUT, [0]).adding_flags(
            QualityFlag.UNSTEADY, np.array([False, True])
        )
        assert flags_at(ds, 0) == frozenset()
        assert flags_at(ds2, 0) == {QualityFlag.SPIKE}
        assert flags_at(ds3, 0) == {QualityFlag.SPIKE, QualityFlag.DROPOUT}
        for before, after in ((ds, ds2), (ds2, ds3)):
            for i in range(len(before)):
                assert flags_at(before, i) <= flags_at(after, i)

    def test_dataset_attributes_frozen(self):
        ds = new_dataset(schema(), [], {}, source_kind="in_service")
        with pytest.raises(AttributeError):
            ds.timestamps = ()

    def test_trips_follow_the_trip_ids(self):
        # the grouping is made once per trip-ids array: a dataset derived with
        # the same ids shares it, new ids or new rows are grouped afresh
        ds = new_dataset(
            schema(), [0, 900, 1800, 2700], {"sog": [1.0] * 4}, trip_ids=[2, None, 1, 2], source_kind="in_service"
        )
        trips = ds.trips()
        assert {k: v.tolist() for k, v in trips.items()} == {1: [2], 2: [0, 3]}
        assert not trips[2].flags.writeable
        trips.clear()  # a copy: the dataset's grouping stays
        assert ds.adding_flags(QualityFlag.SPIKE, [0]).trips()[2] is ds.trips()[2]
        regrouped = ds.with_trip_ids([1, 1, None, None]).trips()
        assert {k: v.tolist() for k, v in regrouped.items()} == {1: [0, 1]}
        taken = ds.take(np.array([1, 2]), [0, 900]).trips()
        assert {k: v.tolist() for k, v in taken.items()} == {1: [1]}

    def test_adding_variable_length_checked(self):
        ds = new_dataset(schema(), [0, 900], {}, source_kind="in_service")
        with pytest.raises(DatasetError):
            ds.adding_variable(VariableSpec("extra"), [1.0])


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path):
        ds = new_dataset(
            schema(),
            [1_600_000_000, 1_600_000_900, 1_600_001_800],
            {
                "sog": [5.144444444444445, 1e-17, None],
                "heading": [359.999, None, None],
                "state": ["Sea Passage", None, None],
            },
            sampling_interval=900,
            flags=[{QualityFlag.SPIKE, QualityFlag.UNSTEADY}, (), ()],
            trip_ids=[2, None, None], source_kind="in_service",
        )
        back, trips, flags = write_and_read_processed(ds, tmp_path / "processed.csv")
        assert len(back) == len(ds)
        assert back.timestamps.tolist() == ds.timestamps.tolist()
        for name in ("sog", "heading"):  # bit-equal through repr round-trip
            assert back.column(name).tobytes() == ds.column(name).tobytes()
        assert back.text_column("state").tolist() == ds.text_column("state").tolist()
        assert flags == [flags_at(ds, i) for i in range(len(ds))]
        assert trips.tolist() == ds.trip_ids.tolist()


YEAR_1, YEAR_9999_END = WRITABLE_YEARS
YEAR_1000 = -30610224000  # 1000-01-01T00:00:00


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.one_of(  # every writable year, its ends and the last second before 1000
                st.integers(YEAR_1, YEAR_9999_END),
                st.sampled_from([YEAR_1, YEAR_1000 - 1, YEAR_9999_END]),
            ),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        max_size=20,
        unique_by=lambda row: row[0],
    )
)
def test_roundtrip_bit_equality_property(tmp_path_factory, rows):
    tmp = tmp_path_factory.mktemp("rt")
    stamps, values = zip(*sorted(rows)) if rows else ((), ())
    ds = new_dataset([VariableSpec("x")], list(stamps), {"x": list(values)}, source_kind="in_service")
    back, _, _ = write_and_read_processed(ds, tmp / "processed.csv")
    assert back.timestamps.tolist() == ds.timestamps.tolist()
    assert back.column("x").tobytes() == ds.column("x").tobytes()


class TestCheckRows:
    STAMPS = np.array([1000, 1900, 2800], dtype=np.int64)

    def entries(self):
        """The same checks added through ``check_rows`` and one at a time
        through ``check``."""
        stamps = self.STAMPS
        verdicts = np.where([True, False, True], "mismatch+angular_fault", "mismatch")
        expected = [1.5, None, (2, 3.0)]
        ints = np.array([7, -1, 2**40], dtype=np.int64)
        floats = np.array([0.1, np.inf])
        rows = StageEntry("check:rows")
        rows.check_rows(verdicts, stamps, "v", expected=expected, observed=ints)
        rows.check_rows("unsteady", stamps[1:], expected=0.25, observed=floats)
        rows.check_rows("spike", stamps[:0], "v", observed=np.zeros(0))
        one = StageEntry("check:rows")
        for t, v, e, o in zip(stamps.tolist(), verdicts.tolist(), expected, ints.tolist()):
            one.check(v, timestamp=t, variable="v", expected=e, observed=o)
        for t, o in zip(stamps[1:].tolist(), floats.tolist()):
            one.check("unsteady", timestamp=t, variable=None, expected=0.25, observed=o)
        return rows, one

    def test_same_checks_as_one_at_a_time(self):
        rows, one = self.entries()
        assert len(rows.checks) == 5  # the empty selection added none
        assert rows.checks == one.checks
        assert rows.to_dict() == one.to_dict()

    def test_arrays_are_stored_as_python_numbers(self):
        rows, _ = self.entries()
        checks = rows.to_dict()["checks"]
        assert [type(c["observed"]) for c in checks] == [int] * 3 + [float] * 2
        assert [c["observed"] for c in checks[:3]] == [7, -1, 2**40]
        assert all(type(c.timestamp) is int and type(c.verdict) is str for c in rows.checks)
        assert [c["verdict"] for c in checks[:3]] == [
            "mismatch+angular_fault", "mismatch", "mismatch+angular_fault",
        ]

    def test_per_row_value_of_another_length_raises(self):
        with pytest.raises(ValueError):
            StageEntry("check:rows").check_rows("spike", self.STAMPS, observed=[1.0])
