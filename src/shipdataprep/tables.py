"""Ship-type lookup tables: service speed ranges, block coefficients,
draft-ratio references and wetted-surface-area estimation formulas.

Values are stored exactly as published (knots for speeds, dimensionless
ratios); accessor functions convert to SI on the way out.
"""

from __future__ import annotations

import numpy as np

from .model import KNOT, ShipType

# Typical service speed per ship type, knots.
SERVICE_SPEED_KNOTS: dict[ShipType, tuple[int, int]] = {
    ShipType.CRUDE_OIL_CARRIER: (13, 17),
    ShipType.GAS_TANKER: (16, 20),
    ShipType.PRODUCT_TANKER: (13, 16),
    ShipType.CHEMICAL_TANKER: (15, 18),
    ShipType.ORE_CARRIER: (14, 15),
    ShipType.BULK_CARRIER: (12, 15),
    ShipType.LINE_CARRIER: (20, 23),
    ShipType.FEEDER: (18, 21),
    ShipType.GENERAL_CARGO: (14, 20),
    ShipType.COASTER: (13, 16),
    ShipType.RO_RO: (18, 23),
    ShipType.CRUISE_SHIP: (20, 23),
    ShipType.FERRY: (16, 23),
}

# Typical block coefficient range at design draft.
BLOCK_COEFFICIENT_RANGE: dict[ShipType, tuple[float, float]] = {
    ShipType.CRUDE_OIL_CARRIER: (0.78, 0.83),
    ShipType.GAS_TANKER: (0.65, 0.75),
    ShipType.PRODUCT_TANKER: (0.75, 0.80),
    ShipType.CHEMICAL_TANKER: (0.70, 0.78),
    ShipType.ORE_CARRIER: (0.80, 0.85),
    ShipType.BULK_CARRIER: (0.75, 0.85),
    ShipType.LINE_CARRIER: (0.62, 0.72),
    ShipType.FEEDER: (0.60, 0.70),
    ShipType.GENERAL_CARGO: (0.70, 0.85),
    ShipType.COASTER: (0.70, 0.85),
    ShipType.RO_RO: (0.55, 0.70),
    ShipType.CRUISE_SHIP: (0.60, 0.70),
    ShipType.FERRY: (0.50, 0.70),
}

# Average actual-over-design draft ratio per voyage kind. Rows keyed by the
# published category labels; ship types map onto rows below. A None ballast
# entry means the category does not generally run ballast-only voyages and a
# single value applies to every voyage.
DRAFT_RATIO_ROWS: dict[str, tuple[float | None, float]] = {
    "liquefied_gas_tanker": (0.67, 0.89),
    "chemical_tanker": (0.66, 0.88),
    "oil_tanker": (0.60, 0.89),
    "bulk_carrier": (0.58, 0.91),
    "general_cargo": (0.65, 0.89),
    "container": (None, 0.82),
    "ro_ro": (None, 0.87),
    "cruise": (None, 0.98),
    "ferry_pax": (None, 0.90),
    "ferry_ro_pax": (None, 0.93),
}

VOYAGE_KINDS = ("ballast", "laden", "unknown")

SHIP_TYPE_TO_DRAFT_ROW: dict[ShipType, str] = {
    ShipType.CRUDE_OIL_CARRIER: "oil_tanker",
    ShipType.PRODUCT_TANKER: "oil_tanker",
    ShipType.GAS_TANKER: "liquefied_gas_tanker",
    ShipType.CHEMICAL_TANKER: "chemical_tanker",
    ShipType.ORE_CARRIER: "bulk_carrier",
    ShipType.BULK_CARRIER: "bulk_carrier",
    ShipType.LINE_CARRIER: "container",
    ShipType.FEEDER: "container",
    ShipType.GENERAL_CARGO: "general_cargo",
    ShipType.COASTER: "general_cargo",
    ShipType.RO_RO: "ro_ro",
    ShipType.CRUISE_SHIP: "cruise",
    ShipType.FERRY: "ferry_pax",
}

# Wetted-surface estimation: WSA = c0 * (volume/draft + c1 * L * draft),
# with L the waterline length for tankers/bulkers/containers and the length
# between perpendiculars for the general row.
_WSA_TANKER_BULK = (0.99, 1.9, "lwl")
_WSA_CONTAINER = (0.995, 1.9, "lwl")
_WSA_GENERAL = (1.025, 1.7, "lpp")

WSA_FORMULAS: dict[ShipType, tuple[float, float, str]] = {
    ShipType.CRUDE_OIL_CARRIER: _WSA_TANKER_BULK,
    ShipType.GAS_TANKER: _WSA_TANKER_BULK,
    ShipType.PRODUCT_TANKER: _WSA_TANKER_BULK,
    ShipType.CHEMICAL_TANKER: _WSA_TANKER_BULK,
    ShipType.ORE_CARRIER: _WSA_TANKER_BULK,
    ShipType.BULK_CARRIER: _WSA_TANKER_BULK,
    ShipType.LINE_CARRIER: _WSA_CONTAINER,
    ShipType.FEEDER: _WSA_CONTAINER,
    ShipType.GENERAL_CARGO: _WSA_GENERAL,
    ShipType.COASTER: _WSA_GENERAL,
    ShipType.RO_RO: _WSA_GENERAL,
    ShipType.CRUISE_SHIP: _WSA_GENERAL,
    ShipType.FERRY: _WSA_GENERAL,
}


def service_speed_range(ship_type: ShipType) -> tuple[float, float]:
    """Typical service speed interval in m/s."""
    try:
        lo, hi = SERVICE_SPEED_KNOTS[ship_type]
    except KeyError:
        raise KeyError(f"no service speed entry for ship type {ship_type}") from None
    return lo * KNOT, hi * KNOT


def block_coefficient_midpoint(ship_type: ShipType) -> float:
    """Midpoint of the typical block-coefficient range, used when C_B is
    not supplied with the ship particulars."""
    lo, hi = BLOCK_COEFFICIENT_RANGE[ship_type]
    return (lo + hi) / 2.0


def draft_ratio_reference(ship_type: ShipType, voyage_kind: str) -> float:
    """Reference actual/design draft ratio for the ship type and voyage kind.

    ``voyage_kind`` is ``ballast``, ``laden`` or ``unknown``. Categories
    without ballast-only voyages return their single value for any kind;
    ``unknown`` returns the laden (or single) value.
    """
    row = DRAFT_RATIO_ROWS[SHIP_TYPE_TO_DRAFT_ROW[ship_type]]
    ballast, laden = row
    if voyage_kind == "ballast" and ballast is not None:
        return ballast
    return laden


def wetted_surface(ship_type: ShipType, volume, draft, lwl: float | None,
                   lpp: float | None):
    """Empirical wetted surface area in m^2 for the given displacement
    volume (m^3) and mean draft (m), each a number or an array.

    Falls back to whichever length is available when the formula's preferred
    one is missing.
    """
    if np.any(np.less_equal(draft, 0)):
        raise ValueError("draft must be strictly positive")
    c0, c1, which = WSA_FORMULAS[ship_type]
    length = lwl if which == "lwl" else lpp
    if length is None:
        length = lpp if which == "lwl" else lwl
    return c0 * (volume / draft + c1 * length * draft)
