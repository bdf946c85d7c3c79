"""The whole-array cell formatters and parsers against independent or
per-cell oracles: timestamp cells against ``datetime``'s fields, parsed
timestamp cells (with or without the Z, in a list or a string array)
against ``parse_iso_timestamp``, float cells against
``csv_cell``, the array curve lookup against the scalar ``power_at``, and the
report's check timestamps, formatted together."""

import datetime
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import T0
from shipdataprep import model
from shipdataprep.ingest import CSV_BLOCK_ROWS, csv_cell, csv_cells
from shipdataprep.model import (
    WRITABLE_YEARS,
    CalmWaterCurve,
    ProcessingReport,
    _check_dicts,
    iso_timestamp,
    parse_iso_timestamp,
    parse_iso_timestamps,
    timestamp_cells,
)
from shipdataprep.pipeline import write_report_files

YEAR_1, YEAR_9999_END = WRITABLE_YEARS  # 0001-01-01T00:00:00, 9999-12-31T23:59:59
YEAR_1000 = -30610224000  # 1000-01-01T00:00:00
EPOCH = datetime.datetime(1970, 1, 1)


def fields_oracle(stamps: list[int]):
    """Each stamp's ``datetime`` fields as ``YYYY-MM-DDTHH:MM:SSZ``, or
    ``ValueError`` when a stamp lies outside the years ``datetime`` holds."""
    try:
        times = [EPOCH + datetime.timedelta(seconds=t) for t in stamps]
    except OverflowError:
        return ValueError
    return [
        f"{d.year:04d}-{d.month:02d}-{d.day:02d}T{d.hour:02d}:{d.minute:02d}:{d.second:02d}Z"
        for d in times
    ]


def array_cells(stamps: list[int]):
    try:
        return timestamp_cells(np.array(stamps, dtype=np.int64))
    except ValueError:
        return ValueError


class TestTimestampCells:
    def test_years_before_1000_are_padded_and_read_back(self):
        assert iso_timestamp(YEAR_1000) == "1000-01-01T00:00:00Z"
        assert iso_timestamp(YEAR_9999_END) == "9999-12-31T23:59:59Z"
        assert iso_timestamp(YEAR_1000 - 1) == "0999-12-31T23:59:59Z"
        assert iso_timestamp(YEAR_1) == "0001-01-01T00:00:00Z"
        for t in (YEAR_1, YEAR_1000 - 1):
            assert parse_iso_timestamp(iso_timestamp(t)) == t
            stamps, ok = parse_iso_timestamps([iso_timestamp(t)])
            assert ok.all() and stamps.tolist() == [t]

    @pytest.mark.parametrize("edge", [YEAR_1000 - 1, YEAR_1000, YEAR_1000 + 1,
                                      YEAR_9999_END - 1, YEAR_9999_END, YEAR_9999_END + 1,
                                      YEAR_1 - 1, YEAR_1, YEAR_1 + 1, -1, 0, 1])
    def test_edges_alone_and_among_in_range_stamps(self, edge):
        for stamps in ([edge], [T0, edge, T0 + 900], [edge, YEAR_1000, YEAR_9999_END]):
            assert array_cells(stamps) == fields_oracle(stamps)

    def test_before_year_1_raises_the_same_error(self):
        with pytest.raises(ValueError) as per:
            iso_timestamp(YEAR_1 - 1)
        with pytest.raises(ValueError) as whole:
            timestamp_cells(np.array([T0, YEAR_1 - 1]))
        assert str(whole.value) == str(per.value)

    def test_after_year_9999_raises(self):
        with pytest.raises(ValueError, match="years 1-9999"):
            iso_timestamp(YEAR_9999_END + 1)
        with pytest.raises(ValueError, match="years 1-9999"):
            timestamp_cells(np.array([T0, YEAR_9999_END + 1]))

    def test_empty(self):
        assert timestamp_cells(np.zeros(0, dtype=np.int64)) == []

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(YEAR_1, YEAR_9999_END),  # every writable year
            st.integers(YEAR_1, YEAR_1000),  # the years 1-999
            st.integers(-(2**31), 0),  # before 1970
            st.sampled_from([YEAR_1 - 1, YEAR_1, YEAR_1000 - 1, YEAR_9999_END,
                             YEAR_9999_END + 1]),
        ),
        max_size=30,
    ))
    def test_equals_datetime_fields(self, stamps):
        assert array_cells(stamps) == fields_oracle(stamps)


def canonical(ts: int) -> str:
    """``YYYY-MM-DDTHH:MM:SSZ`` of an epoch second, the year padded to four
    digits; without its Z, it is the other canonical form."""
    return str(np.datetime64(ts, "s")) + "Z"


def near_misses(text: str) -> list[str]:
    """Cells that differ from a canonical stamp in one way: the Z-less one
    parses in the batch, some parse the slow way, some parse not at all."""
    return [
        f"  {text}\t", text[:-1] + "z", text[:-1] + "+00:00", text[:-1] + ".5Z",
        text.replace("T", " "), text[:-1], text + "\x00", text + "0", text[1:],
        text[:-1] + "^", text.replace("-", ".", 1), f" {text[:-1]}", text[:-1] + "\x00",
        text[:-2], text[:-1] + " Z", text[:-1] + "\x00\x00x",
    ]


# canonical in form, but no time or not for fromisoformat
ODD_STAMPS = [
    "2021-02-29T00:00:00Z", "2020-02-29T00:00:00Z", "2021-02-30T00:00:00Z",
    "2021-04-31T12:00:00Z", "2021-13-01T00:00:00Z", "2021-00-10T00:00:00Z",
    "2021-01-00T00:00:00Z", "2021-01-01T24:00:00Z", "2021-01-01T23:60:00Z",
    "2021-01-01T23:59:60Z", "0000-01-01T00:00:00Z", "0001-01-01T00:00:00Z",
    "9999-12-31T23:59:59Z", "1969-12-31T23:59:59Z", "1900-03-01T00:00:00Z",
    "2021-01-01X00:00:00Z", "2021/01/01T00:00:00Z", "\u0662021-01-01T00:00:00Z",
    "", "   ", "x" * 20, "yesterday",
]
# each of them without its Z, the other canonical form
ODD_STAMPS += [c[:-1] for c in ODD_STAMPS if len(c) == 20 and c.endswith("Z")]


def per_cell_parse(cells: list[str]) -> list[int | None]:
    out = []
    for c in cells:
        try:
            out.append(parse_iso_timestamp(c))
        except ValueError:
            out.append(None)
    return out


def array_parse(cells: list[str]) -> list[int | None]:
    """``parse_iso_timestamps`` of a list of cells. Of a string array 21
    wide, as numpy's text reader gives it, it must parse what the array
    holds (no final NUL, and no strip) as ``parse_iso_timestamp`` does, cell
    by cell."""

    def parse(cells):
        stamps, ok = parse_iso_timestamps(cells)
        assert stamps.dtype == np.int64 and ok.dtype == bool
        assert (stamps[~ok] == 0).all()
        return [t if k else None for t, k in zip(stamps.tolist(), ok.tolist())]

    held = np.array(cells, dtype="U21")
    assert parse(held) == per_cell_parse(held.tolist()), held
    return parse(cells)


class TestTimestampParsing:
    def test_odd_stamps_alone_and_among_canonical_ones(self):
        good = [canonical(T0), canonical(YEAR_1), canonical(YEAR_9999_END)]
        for cell in ODD_STAMPS + near_misses(canonical(T0)):
            for cells in ([cell], good + [cell], [cell] + good):
                assert array_parse(cells) == per_cell_parse(cells), cells

    def test_both_canonical_forms_parse_in_one_batch(self, monkeypatch):
        def per_cell(text):
            raise AssertionError(f"{text!r} went cell by cell")

        monkeypatch.setattr(model, "parse_iso_timestamp", per_cell)
        cells = [canonical(T0), canonical(T0 + 1)[:-1], f" {canonical(YEAR_1)[:-1]}\t"]
        for given in (cells, np.array(cells[:2], dtype="U21")):
            stamps, ok = parse_iso_timestamps(given)
            assert ok.all() and stamps.tolist() == [T0, T0 + 1, YEAR_1][:len(given)]

    def test_a_rejected_batch_still_parses_its_good_cells(self):
        cells = [canonical(T0), "2021-02-30T00:00:00Z", canonical(-1)]
        assert array_parse(cells) == [T0, None, -1]

    def test_empty(self):
        assert array_parse([]) == []

    def test_a_nul_is_no_part_of_a_stamp(self):
        # datetime stops reading at a NUL, so a stamp followed by one read as the stamp
        cells = ["2020-09-13T12:26:40Z\0junk", "2020-09-13T12:26:40\0", "\x002020-09-13T12:26:40Z"]
        for cell in cells:
            with pytest.raises(ValueError, match="NUL"):
                parse_iso_timestamp(cell)
        assert array_parse(cells + ["2020-09-13T12:26:40Z"]) == [None, None, None, 1600000000]
        held = np.array(["2020-09-13T12:26:40\0x", "2020-09-13T12:26:40"], dtype="U21")
        assert parse_iso_timestamps(held)[1].tolist() == [False, True]

    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.one_of(
            st.integers(YEAR_1, YEAR_9999_END).map(canonical),
            st.integers(YEAR_1, YEAR_9999_END).map(canonical).map(lambda c: c[:-1]),  # no Z
            st.integers(-(2**31), 0).map(canonical),  # before 1970
            st.integers(YEAR_1, YEAR_9999_END).map(canonical).map(near_misses).flatmap(
                st.sampled_from),
            st.sampled_from(ODD_STAMPS),
        ),
        max_size=30,
    ))
    def test_equals_parse_iso_timestamp_per_cell(self, cells):
        assert array_parse(cells) == per_cell_parse(cells)


def float_reference(values: np.ndarray) -> list[str]:
    """The per-cell formatting that ``csv_cells`` replaced."""
    return [csv_cell(v if v == v else None) for v in values.tolist()]


SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e16, 1e-300, 3.0,
                  -7.0, 123456789.123, 0.1, float("inf"), float("-inf"), float("nan")]
# quiet and signalling NaNs of either sign, with and without a payload
NANS = np.array([0x7FF8000000000000, 0xFFF8000000000000 - 2**64, 0x7FF0000000000001,
                 0x7FF8000000000ABC, 0xFFF0000000000ABC - 2**64]).view(np.float64).tolist()


class TestFloatCells:
    def test_special_floats(self):
        values = np.array(SPECIAL_FLOATS)
        assert csv_cells(values) == float_reference(values)
        assert csv_cells(values)[-4:] == ["0.1", "inf", "-inf", ""]

    def test_object_columns(self):
        values = np.array([None, 'say "hi", then go', "a,b", "", "x"], dtype=object)
        assert csv_cells(values) == float_reference(values) == ["", 'say "hi", then go',
                                                                 "a,b", "", "x"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS)), max_size=40))
    def test_equals_csv_cell_per_cell(self, values):
        values = np.array(values, dtype=np.float64)
        assert csv_cells(values) == float_reference(values)

    def test_runs_longer_than_a_block(self):
        values = np.repeat([1.5, -0.0, 0.0, np.inf, -np.inf, 1.5] + NANS, CSV_BLOCK_ROWS + 3)
        cells = csv_cells(values)
        assert cells == float_reference(values)
        assert cells[CSV_BLOCK_ROWS + 2:CSV_BLOCK_ROWS + 4] == ["1.5", "-0.0"]
        assert set(cells[-len(NANS) * (CSV_BLOCK_ROWS + 3):]) == {""}

    def test_signed_zeros_side_by_side(self):
        values = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
        assert csv_cells(values) == ["0.0", "-0.0", "-0.0", "0.0", "0.0", "-0.0"]

    @settings(max_examples=100, deadline=None)
    @given(st.lists(
        st.tuples(st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS + NANS)),
                  st.integers(1, 2 * CSV_BLOCK_ROWS)),
        max_size=12,
    ))
    @example([(0.0, 3), (-0.0, 2), (NANS[1], 4), (NANS[0], 1)])
    def test_runs_equal_csv_cell_per_cell(self, runs):
        """Columns of runs of one value: NaN runs of mixed signs and
        payloads, ``-0.0`` beside ``0.0``, inf runs, runs of one cell."""
        values = np.repeat(np.array([v for v, _ in runs], dtype=np.float64),
                           [n for _, n in runs])
        assert csv_cells(values) == float_reference(values)


def scalar_powers(curve: CalmWaterCurve, speeds: np.ndarray) -> np.ndarray:
    """``power_at`` per speed, NaN where it gives None."""
    out = [curve.power_at(v) for v in speeds.tolist()]
    return np.array([np.nan if p is None else p for p in out])


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype == np.float64
    assert (np.isnan(got) == np.isnan(want)).all()
    known = ~np.isnan(want)
    assert (got[known].view(np.int64) == want[known].view(np.int64)).all()


class TestCurveLookup:
    curve = CalmWaterCurve("sea_trial", tuple((v, 800.0 * v**3) for v in (1.0, 2.0, 4.0, 6.0, 8.0)))

    def test_span_ends_just_outside_and_inside(self):
        speeds = np.array([1.0, 8.0, np.nextafter(1.0, 0.0), np.nextafter(8.0, 9.0),
                           np.nextafter(1.0, 2.0), np.nextafter(8.0, 0.0), 2.0, 3.3,
                           7.99, 0.0, -1.0, 100.0, np.nan])
        got = self.curve.powers_at(speeds)
        assert_same_bits(got, scalar_powers(self.curve, speeds))
        assert np.isnan(got[[2, 3, 9, 10, 11, 12]]).all()
        assert got[0] == 800.0 and got[1] == 409_600.0

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(-50.0, 50.0), st.floats(-1e7, 1e7)),
                 min_size=2, max_size=8, unique_by=lambda p: p[0]),
        st.lists(st.floats(-60.0, 60.0), max_size=30),
    )
    def test_same_bits_as_power_at(self, points, speeds):
        curve = CalmWaterCurve("c", tuple(sorted(points)))
        speeds = np.array(speeds + [p[0] for p in points], dtype=np.float64)
        assert_same_bits(curve.powers_at(speeds), scalar_powers(curve, speeds))


class TestReportStamps:
    def report(self):
        report = ProcessingReport()
        entry = report.stage("check:a")
        entry.check("gap", timestamp=None, variable="sog", expected=1.0, observed=2.0)
        entry.check("spike", timestamp=T0 + 900, variable="stw", observed=3.5)
        report.stage("check:b").check("spike", timestamp=T0, variable=None)
        return report

    def test_missing_timestamp_is_dash_in_text_and_null_in_json(self, tmp_path):
        txt, js = write_report_files(self.report(), tmp_path, timestamp_header=False)
        lines = txt.read_text().splitlines()
        assert "  - sog expected=1.0 observed=2.0 verdict=gap" in lines
        assert "  2020-09-13T12:41:40Z stw expected=None observed=3.5 verdict=spike" in lines
        assert "  2020-09-13T12:26:40Z - expected=None observed=None verdict=spike" in lines
        stages = json.loads(js.read_text())["stages"]
        assert [c["timestamp"] for c in stages[0]["checks"]] == [None, "2020-09-13T12:41:40Z"]
        assert [c["timestamp"] for c in stages[1]["checks"]] == ["2020-09-13T12:26:40Z"]

    def test_entry_and_check_dicts_match_the_report(self):
        report = self.report()
        whole = report.to_dict()["stages"]
        assert [e.to_dict() for e in report.stage_entries] == whole
        assert [_check_dicts([c])[0] for c in report.stage_entries[0].checks] == whole[0]["checks"]
