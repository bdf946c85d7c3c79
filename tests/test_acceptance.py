"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line. Expected values come from tests/oracle_values.py (independent
arithmetic) or are constructed with known ground truth inside the test.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print.
"""

import math
from contextlib import contextmanager

import numpy as np
import pytest

import oracle_values as oracle
from conftest import (
    DEFAULTS,
    FERRY,
    VoyageBuilder,
    flagged_rows,
    rows_dataset,
    series_dataset,
)
from shipdataprep.cleaning import pca_fit, pca_score
from shipdataprep.cli import main as cli_main
from shipdataprep.corrections import DraftChangeEvent, fix_draft_ramp, fix_draft_simple
from features_reference import angular_difference
from shipdataprep.features import (
    ais_speed_consistency,
    haversine_distances,
    wind_to_reference_height,
)
from shipdataprep.hindcast import SteadyFilterParams, interpolate, steady_state_filter
from shipdataprep.ingest import GridVariable, HindcastGrid
from shipdataprep.model import (
    QualityFlag,
    Sample,
    ShipType,
    VariableSpec,
)
from shipdataprep.tables import (
    BLOCK_COEFFICIENT_RANGE,
    DRAFT_RATIO_ROWS,
    SERVICE_SPEED_KNOTS,
    wetted_surface,
)
from shipdataprep.timeline import resample
from shipdataprep.validation import detect_angular_fault, shaft_power


@contextmanager
def criterion(num: int, description: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num}: FAIL - {description}")
        raise
    print(f"ACCEPTANCE {num}: PASS - {description}")


def test_criterion_1_closed_form_oracles():
    with criterion(1, "closed-form oracle suite (haversine, wind profile, "
                      "power identity, WSA rows)"):
        quarter = haversine_distances(*(np.array([v]) for v in (0.0, 0.0, 0.0, 90.0)))
        assert quarter[0] == pytest.approx(oracle.QUARTER_CIRCLE_M, abs=1.0)
        assert wind_to_reference_height(10.0, 10.0, 30.0) == pytest.approx(
            oracle.REFERENCE_WIND_10_10_30, abs=1e-9
        )
        assert wind_to_reference_height(10.0, 10.0, 30.0) == pytest.approx(
            8.851, abs=1e-3
        )
        assert shaft_power(2.0, 1000.0) == pytest.approx(
            oracle.POWER_IDENTITY_W, abs=1e-9
        )
        assert shaft_power(2.0, 1000.0) == pytest.approx(12_566.4, abs=0.1)
        assert wetted_surface(
            ShipType.CRUDE_OIL_CARRIER, 1e5, 15.0, 270.0, None
        ) == pytest.approx(oracle.WSA_TANKER_M2, abs=0.5)
        assert wetted_surface(
            ShipType.LINE_CARRIER, 1e5, 15.0, 270.0, None
        ) == pytest.approx(oracle.WSA_CONTAINER_M2, abs=0.5)
        assert wetted_surface(
            ShipType.GENERAL_CARGO, 1e5, 15.0, None, 270.0
        ) == pytest.approx(oracle.WSA_GENERAL_M2, abs=0.5)


def test_criterion_2_table_reproduction():
    printed_speeds = {
        ShipType.CRUDE_OIL_CARRIER: "13-17", ShipType.GAS_TANKER: "16-20",
        ShipType.PRODUCT_TANKER: "13-16", ShipType.CHEMICAL_TANKER: "15-18",
        ShipType.ORE_CARRIER: "14-15", ShipType.BULK_CARRIER: "12-15",
        ShipType.LINE_CARRIER: "20-23", ShipType.FEEDER: "18-21",
        ShipType.GENERAL_CARGO: "14-20", ShipType.COASTER: "13-16",
        ShipType.RO_RO: "18-23", ShipType.CRUISE_SHIP: "20-23",
        ShipType.FERRY: "16-23",
    }
    printed_cb = {
        ShipType.CRUDE_OIL_CARRIER: "0.78-0.83", ShipType.GAS_TANKER: "0.65-0.75",
        ShipType.PRODUCT_TANKER: "0.75-0.80", ShipType.CHEMICAL_TANKER: "0.70-0.78",
        ShipType.ORE_CARRIER: "0.80-0.85", ShipType.BULK_CARRIER: "0.75-0.85",
        ShipType.LINE_CARRIER: "0.62-0.72", ShipType.FEEDER: "0.60-0.70",
        ShipType.GENERAL_CARGO: "0.70-0.85", ShipType.COASTER: "0.70-0.85",
        ShipType.RO_RO: "0.55-0.70", ShipType.CRUISE_SHIP: "0.60-0.70",
        ShipType.FERRY: "0.50-0.70",
    }
    printed_ratios = {
        "liquefied_gas_tanker": ("0.67", "0.89"),
        "chemical_tanker": ("0.66", "0.88"),
        "oil_tanker": ("0.60", "0.89"),
        "bulk_carrier": ("0.58", "0.91"),
        "general_cargo": ("0.65", "0.89"),
        "container": (None, "0.82"),
        "ro_ro": (None, "0.87"),
        "cruise": (None, "0.98"),
        "ferry_pax": (None, "0.90"),
        "ferry_ro_pax": (None, "0.93"),
    }
    with criterion(2, "service-speed, block-coefficient and draft-ratio "
                      "tables reproduce every published row string-exactly"):
        # service speeds: stored in knots, compared string-exactly; the m/s
        # accessor applies the 1852/3600 conversion (documented here)
        for ship_type, printed in printed_speeds.items():
            lo, hi = SERVICE_SPEED_KNOTS[ship_type]
            assert f"{lo}-{hi}" == printed
        for ship_type, printed in printed_cb.items():
            lo, hi = BLOCK_COEFFICIENT_RANGE[ship_type]
            assert f"{lo:.2f}-{hi:.2f}" == printed
        assert set(DRAFT_RATIO_ROWS) == set(printed_ratios)
        for row, (ballast, laden) in printed_ratios.items():
            got_ballast, got_laden = DRAFT_RATIO_ROWS[row]
            assert f"{got_laden:.2f}" == laden
            assert (got_ballast is None) == (ballast is None)
            if ballast is not None:
                assert f"{got_ballast:.2f}" == ballast


def test_criterion_3_interpolation_exactness():
    rng = np.random.default_rng(42)
    a, b, c = 200.0, rng.uniform(-5, 5), rng.uniform(-5, 5)
    d = rng.uniform(-1e-3, 1e-3)
    lats = np.linspace(-2.0, 2.0, 17)
    lons = np.linspace(-3.0, 3.0, 25)
    times = np.array([0, 3600, 7200], dtype=np.int64)

    def field(la, lo, t):
        return a + b * la + c * lo + d * t

    values = np.zeros((len(times), len(lats), len(lons)))
    for ti, t in enumerate(times):
        for yi, la in enumerate(lats):
            for xi, lo in enumerate(lons):
                values[ti, yi, xi] = field(la, lo, t)
    grid = HindcastGrid(
        (GridVariable("f", "m", values, np.zeros_like(values, dtype=bool)),),
        lats, lons, times,
    )

    ts = np.sort(rng.choice(np.arange(1, 7200), size=1000, replace=False))
    pts = [(int(t), rng.uniform(-1.99, 1.99), rng.uniform(-2.99, 2.99)) for t in ts]
    schema = [VariableSpec("lat"), VariableSpec("lon")]
    ds = rows_dataset(
        schema, [Sample(t, {"lat": la, "lon": lo}) for t, la, lo in pts]
    )

    with criterion(3, "bilinear + order-1 temporal interpolation reproduces a "
                      "random affine field at 1000 interior points within "
                      "1e-9 relative, inside the convex node bounds"):
        out = interpolate(grid, ds, order=1, mask_policy=DEFAULTS.mask_policy)
        col = out.column("hc_f")
        var = grid.variables[0]
        for (t, la, lo), got in zip(pts, col):
            expected = field(la, lo, t)
            assert abs(got - expected) / abs(expected) < 1e-9
            ti_hi = int(np.searchsorted(times, t))
            yi = int(np.searchsorted(lats, la)) - 1
            xi = int(np.searchsorted(lons, lo)) - 1
            nodes = var.values[
                np.ix_([ti_hi - 1, ti_hi], [yi, yi + 1], [xi, xi + 1])
            ].ravel()
            assert nodes.min() - 1e-12 <= got <= nodes.max() + 1e-12


def test_criterion_4_steady_state_filter():
    n, ramp_len, ramp_start = 500, 30, 235
    sigma = 1.0
    slope = 10.0 * sigma  # rate-to-noise ratio of 10 per sampling step
    params = SteadyFilterParams(window=11, alpha=0.01, gradient_tolerance=3.0)
    t = np.arange(n, dtype=float)
    base = np.zeros(n)
    base[ramp_start : ramp_start + ramp_len] = slope * np.arange(1, ramp_len + 1)
    base[ramp_start + ramp_len :] = slope * ramp_len

    interior = np.arange(ramp_start + 1, ramp_start + ramp_len - 1)
    plateau = np.concatenate(
        [np.arange(0, ramp_start), np.arange(ramp_start + ramp_len, n)]
    )
    hits = misses = false_pos = plateau_total = 0
    with criterion(4, "two-stage filter flags >= 90% of ramp-interior and "
                      "<= 2% of plateau samples across 100 seeds"):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            x = base + rng.normal(0.0, sigma, n)
            res = steady_state_filter(t, x, params)
            hits += int(res.unsteady[interior].sum())
            misses += int((~res.unsteady[interior]).sum())
            false_pos += int(res.unsteady[plateau].sum())
            plateau_total += len(plateau)
        ramp_rate = hits / (hits + misses)
        plateau_rate = false_pos / plateau_total
        assert ramp_rate >= 0.90, f"ramp detection rate {ramp_rate:.3f}"
        assert plateau_rate <= 0.02, f"plateau false rate {plateau_rate:.4f}"


def _binned_direction_fixture(center_deg: float, seed: int = 0):
    """Instantaneous direction series oscillating around ``center_deg``,
    down-sampled two ways: the arithmetic mean of each bin, built here (the
    DAQ fault), and ``resample``'s circular mean (the truth a hindcast
    source would provide)."""
    rng = np.random.default_rng(seed)
    fine_dt, bin_s, n_bins = 10, 900, 60
    n = n_bins * (bin_s // fine_dt)
    t = np.arange(n) * fine_dt
    instantaneous = (
        center_deg + 5.0 * np.sin(2 * np.pi * t / 3600.0) + rng.normal(0, 8.0, n)
    ) % 360.0
    fine = series_dataset({"rel_wind_dir": list(instantaneous)}, interval=fine_dt, t0=0)
    recorded = instantaneous.reshape(n_bins, -1).mean(axis=1)
    reference = resample(fine, bin_s).column("rel_wind_dir")
    return recorded, reference


def test_criterion_5_angular_fault_detector():
    recorded, reference = _binned_direction_fixture(0.0)
    faulted = {
        i
        for i in range(len(recorded))
        if angular_difference(recorded[i], reference[i]) > 90.0
    }
    ds = series_dataset({"rel_wind_dir": list(recorded)})
    with criterion(5, "angular-averaging fault detector flags >= 95% of "
                      "wrap-straddling faults and 0% of a control fixture"):
        assert len(faulted) >= 30  # the fixture really does commit the fault
        out = detect_angular_fault(ds, "rel_wind_dir", reference=reference)
        flagged = set(flagged_rows(out, QualityFlag.ANGULAR_AVERAGING_FAULT))
        assert len(flagged & faulted) / len(faulted) >= 0.95
        for i in flagged:
            assert out.column("fixed_rel_wind_dir")[i] == pytest.approx(
                reference[i] % 360.0
            )

        control_rec, control_ref = _binned_direction_fixture(120.0, seed=1)
        control = series_dataset({"rel_wind_dir": list(control_rec)})
        out_control = detect_angular_fault(
            control, "rel_wind_dir", reference=control_ref
        )
        control_flagged = int(out_control.flagged(QualityFlag.ANGULAR_AVERAGING_FAULT).sum())
        assert control_flagged == 0


DT = 900


def _draft_voyage(pre, post, in_trip_values, sensors, berth_len=6):
    schema = [VariableSpec(s, "m") for s in sensors]
    samples, ids, t = [], [], 0
    for _ in range(berth_len):
        samples.append(Sample(t, {s: pre[s] for s in sensors}))
        ids.append(None)
        t += DT
    for row in in_trip_values:
        samples.append(Sample(t, {s: row[s] for s in sensors}))
        ids.append(1)
        t += DT
    for _ in range(berth_len):
        samples.append(Sample(t, {s: post[s] for s in sensors}))
        ids.append(None)
        t += DT
    return rows_dataset(schema, samples).with_trip_ids(ids)  # the trip is trip 1


def test_criterion_6_draft_corrections():
    with criterion(6, "simple draft fix recovers the anchor trend and the "
                      "ramp fix reproduces a two-sensor trim swap, both to 1e-9 m"):
        # simple: anchors 8.0 -> 7.6, Venturi-depressed 7.2 readings in-trip
        n = 31
        ds = _draft_voyage(
            {"draft_fore": 8.0}, {"draft_fore": 7.6},
            [{"draft_fore": 7.2}] * n, ("draft_fore",),
        )
        out = fix_draft_simple(ds, 1, DEFAULTS.n_avg)
        ts = out.timestamps.astype(float)
        trip = out.trips()[1]
        t0, t1 = ts[trip[0]], ts[trip[-1]]
        worst = 0.0
        for i in trip:
            truth = 8.0 + (7.6 - 8.0) * (ts[i] - t0) / (t1 - t0)
            worst = max(worst, abs(out.column("draft_fore")[i] - truth))
        assert worst < 1e-9, f"simple correction max error {worst}"

        # ramp: trim swap, fore 8 -> 7 while aft 7 -> 8 over one event
        n, e0, e1 = 60, 25, 33
        rows = []
        for k in range(n):
            if k < e0:
                f, a = 8.0, 7.0
            elif k <= e1:
                frac = (k - e0) / (e1 - e0)
                f, a = 8.0 - frac, 7.0 + frac
            else:
                f, a = 7.0, 8.0
            rows.append({"draft_fore": f, "draft_aft": a})
        ds = _draft_voyage(
            {"draft_fore": 8.0, "draft_aft": 7.0},
            {"draft_fore": 7.0, "draft_aft": 8.0},
            rows, ("draft_fore", "draft_aft"),
        )
        trip = ds.trips()[1]
        start = int(ds.timestamps[trip[0]])
        event = DraftChangeEvent(1, start + e0 * DT, start + e1 * DT)
        out = fix_draft_ramp(ds, 1, [event], n_avg=5)
        worst = 0.0
        for k, i in enumerate(trip):
            for sensor in ("draft_fore", "draft_aft"):
                truth = rows[k][sensor]
                got = out.column(sensor)[i]
                worst = max(worst, abs(got - truth))
        assert worst < 1e-9, f"ramp correction max error {worst}"


def test_criterion_7_pca_outlier_detection():
    features = ("shaft_rpm", "shaft_power", "sog", "stw")
    detection_rates, false_rates = [], []
    with criterion(7, "PCA detector flags >= 90% of injected stw/sog joint "
                      "faults with <= 1.5% false positives over 20 seeds"):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 1000
            latent = rng.normal(0.0, 1.0, n)
            cols = {f: latent + rng.normal(0.0, 0.05, n) for f in features}
            clean = series_dataset({k: list(v) for k, v in cols.items()})
            detector = pca_fit(clean, features, k=DEFAULTS.pca_components, quantile=0.995)

            injected = rng.choice(n, size=20, replace=False)
            for i in injected:
                cols["sog"][i] -= 2.5
                cols["stw"][i] -= 2.5
            contaminated = series_dataset({k: list(v) for k, v in cols.items()})
            out = pca_score(detector, contaminated)
            flagged = set(flagged_rows(out, QualityFlag.CORRELATION_OUTLIER))
            inj = set(int(i) for i in injected)
            detection_rates.append(len(flagged & inj) / len(inj))
            false_rates.append(len(flagged - inj) / (n - len(inj)))
        assert np.mean(detection_rates) >= 0.90, f"detection {np.mean(detection_rates):.3f}"
        assert np.mean(false_rates) <= 0.015, f"false positives {np.mean(false_rates):.4f}"


def test_criterion_8_end_to_end_determinism(tmp_path):
    paths = VoyageBuilder(tmp_path, resistance=True).build()
    with criterion(8, "two pipeline runs produce byte-identical processed.csv "
                      "and structured report"):
        outs = []
        for name in ("first", "second"):
            out = tmp_path / name
            code = cli_main(
                ["run", "--config", str(paths["config"]), "--out", str(out),
                 "--no-timestamp-header"]
            )
            assert code == 0
            outs.append(out)
        for artifact in ("processed.csv", "report.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()


def test_criterion_9_ais_consistency():
    n, speed = 100, 5.0
    deg_per_m = 180.0 / (math.pi * 6_371_000.0)
    lons = [speed * DT * i * deg_per_m for i in range(n)]
    sog = [speed] * n
    injected = [10, 25, 40, 60, 85]
    for i in injected:
        sog[i] = 25.0  # implied-distance mismatch 5x > 3x
    schema = [VariableSpec("lat"), VariableSpec("lon"), VariableSpec("sog")]
    ds = rows_dataset(
        schema,
        [
            Sample(i * DT, {"lat": 0.0, "lon": lons[i], "sog": sog[i]})
            for i in range(n)
        ],
        source_kind="ais",
    )
    with criterion(9, "AIS speed check flags exactly the 5 injected "
                      "irrational speeds and replaces each with a neighbour"):
        out = ais_speed_consistency(ds, tolerance_fraction=0.3, window=5, particulars=FERRY)
        flagged = flagged_rows(out, QualityFlag.IRRATIONAL_SPEED)
        assert flagged == injected
        for i in injected:
            assert out.column("sog")[i] == pytest.approx(speed)
            assert out.column("raw_sog")[i] == pytest.approx(25.0)
