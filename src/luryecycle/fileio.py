"""On-disk formats: plant JSON, nonlinearity JSON, and signal CSV.

Plant files carry either a rational form

    {"num": [1, 0], "den": [1, -1.8, 0.81]}

or an anchor form that pins the response at a single frequency

    {"anchor": {"omega": 0.628, "re": -0.95, "im": -0.31}, "dc": null}

Nonlinearity files store breakpoints with an odd flag and a slope bound
("inf" for the monotone class).  Signal files are CSV with header
index,u,y and shortest round-trip float formatting.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

from .construct import AnchorPlant, Plant
from .errors import FileFormatError, PlantValidationError
from .interp import Breakpoint, PiecewiseNonlinearity
from .lti import PeriodicSignal, TransferFunction

__all__ = [
    "load_plant",
    "plant_echo",
    "phi_to_dict",
    "phi_from_dict",
    "save_phi",
    "load_phi",
    "save_signals",
    "load_signals",
]


def _coeff_list(raw, key: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        raise PlantValidationError(f'"{key}" must be a non-empty list')
    try:
        return tuple(float(c) for c in raw)
    except (TypeError, ValueError) as exc:
        raise PlantValidationError(f'"{key}" holds a non-numeric entry') from exc


def load_plant(path) -> Plant:
    """Read a plant description; raises PlantValidationError when unusable."""
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise PlantValidationError(f"cannot read plant file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise PlantValidationError(f"plant file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise PlantValidationError("plant JSON must be an object")
    if "anchor" in doc:
        anchor = doc["anchor"]
        if (not isinstance(anchor, dict)
                or not {"omega", "re", "im"} <= set(anchor)):
            raise PlantValidationError(
                'anchor form needs "omega", "re" and "im"')
        dc = doc.get("dc")
        try:
            return AnchorPlant(
                omega=float(anchor["omega"]),
                value=complex(float(anchor["re"]), float(anchor["im"])),
                dc=None if dc is None else float(dc))
        except (TypeError, ValueError) as exc:
            raise PlantValidationError(f"bad anchor values: {exc}") from exc
    if "num" in doc and "den" in doc:
        return TransferFunction(_coeff_list(doc["num"], "num"),
                                _coeff_list(doc["den"], "den"))
    raise PlantValidationError(
        'plant JSON needs either "num"/"den" or "anchor"')


def plant_echo(plant: Plant) -> dict:
    """Canonical JSON echo of a loaded plant, for run reports."""
    if isinstance(plant, TransferFunction):
        return {"num": list(plant.num), "den": list(plant.den)}
    return {"anchor": {"omega": plant.omega, "re": plant.value.real,
                       "im": plant.value.imag},
            "dc": plant.dc}


def phi_to_dict(phi: PiecewiseNonlinearity) -> dict:
    return {
        "odd": phi.odd,
        "slope_bound": (phi.slope_bound if math.isfinite(phi.slope_bound)
                        else "inf"),
        "breakpoints": [{"y": b.y, "v_lo": b.v_lo, "v_hi": b.v_hi}
                        for b in phi.breakpoints],
    }


def phi_from_dict(doc: dict) -> PiecewiseNonlinearity:
    try:
        sb = doc["slope_bound"]
        slope = math.inf if sb == "inf" else float(sb)
        bps = tuple(Breakpoint(float(b["y"]), float(b["v_lo"]),
                               float(b["v_hi"]))
                    for b in doc["breakpoints"])
        return PiecewiseNonlinearity(bps, odd=bool(doc["odd"]),
                                     slope_bound=slope)
    except (KeyError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad nonlinearity document: {exc}") from exc


def save_phi(path, phi: PiecewiseNonlinearity) -> None:
    Path(path).write_text(json.dumps(phi_to_dict(phi), indent=2) + "\n")


def load_phi(path) -> PiecewiseNonlinearity:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileFormatError(f"cannot read nonlinearity file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FileFormatError(
            f"nonlinearity file is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FileFormatError("nonlinearity JSON must be an object")
    return phi_from_dict(doc)


def save_signals(path, u: PeriodicSignal, y: PeriodicSignal) -> None:
    """One period of the cycle as CSV: index,u,y."""
    if u.period != y.period:
        raise ValueError("input and output must share one period")
    lines = ["index,u,y"]
    for i in range(u.period):
        lines.append(f"{i},{u[i]!r},{y[i]!r}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_signals(path) -> tuple[PeriodicSignal, PeriodicSignal]:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileFormatError(f"cannot read signal file: {exc}") from exc
    rows = list(csv.reader(text.splitlines()))
    if not rows or [h.strip() for h in rows[0]] != ["index", "u", "y"]:
        raise FileFormatError('signal CSV needs the header "index,u,y"')
    us: list[float] = []
    ys: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise FileFormatError(f"line {lineno}: expected 3 columns")
        try:
            idx = int(row[0])
            us.append(float(row[1]))
            ys.append(float(row[2]))
        except ValueError as exc:
            raise FileFormatError(f"line {lineno}: {exc}") from exc
        if not (math.isfinite(us[-1]) and math.isfinite(ys[-1])):
            raise FileFormatError(f"line {lineno}: samples must be finite")
        if idx != len(us) - 1:
            raise FileFormatError(
                f"line {lineno}: index {idx} out of order")
    if not us:
        raise FileFormatError("signal CSV holds no samples")
    return PeriodicSignal(tuple(us)), PeriodicSignal(tuple(ys))
