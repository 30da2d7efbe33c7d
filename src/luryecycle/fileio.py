"""On-disk formats: plant JSON, nonlinearity JSON, and signal CSV.

Plant files carry either a rational form

    {"num": [1, 0], "den": [1, -1.8, 0.81]}

or an anchor form that pins the response at a single frequency

    {"anchor": {"omega": 0.628, "re": -0.95, "im": -0.31}, "dc": null}

Nonlinearity files store breakpoints with an odd flag and a slope bound
("inf" for the monotone class).  Signal files are CSV with header
index,u,y and shortest round-trip float formatting.  Every number is a
JSON number (true and false are not) or, in a CSV sample, plain decimal
text; the odd flag is a JSON boolean.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import stat
from pathlib import Path

from .construct import AnchorPlant, Plant
from .errors import FileFormatError, LuryecycleError, PlantValidationError
from .interp import PiecewiseNonlinearity
from .lti import PeriodicSignal, TransferFunction

__all__ = [
    "load_plant",
    "plant_echo",
    "phi_from_dict",
    "save_phi",
    "load_phi",
    "save_signals",
    "load_signals",
    "write_output",
]


def _read_text(path, error: type[LuryecycleError], what: str) -> str:
    """The file's bytes decoded as UTF-8; error when they cannot be read
    or decoded."""
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise error(f"cannot read {what} file: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{what} file is not UTF-8 text: {exc}") from exc


def write_output(path, text: str, what: str) -> None:
    """Write text to the file (FileFormatError if it cannot): overwrite, then
    cut to length, since truncating first makes ext4 flush on close."""
    try:
        with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
            f.write(text)
            if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
                f.truncate()
    except OSError as exc:
        raise FileFormatError(f"cannot write {what} file: {exc}") from exc


def _read_json(path, error: type[LuryecycleError], what: str):
    """The JSON document in the file; error when it cannot be read,
    decoded or parsed, nesting too deep for the parser included."""
    try:
        return json.loads(_read_text(path, error, what))
    except json.JSONDecodeError as exc:
        raise error(f"{what} file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise error(f"{what} file nests JSON too deeply") from exc


# A CSV sample: decimal digits with an optional sign, point and exponent;
# a CSV index: decimal digits alone.
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")
_INDEX = re.compile(r"[0-9]+")


def _number(raw, what: str) -> float:
    """A JSON number (int or float, not bool) as a float; TypeError for
    anything else, OverflowError beyond the float range."""
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise TypeError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _coeff_list(raw, key: str) -> tuple[float, ...]:
    if not isinstance(raw, list) or not raw:
        raise PlantValidationError(f'"{key}" must be a non-empty list')
    try:
        return tuple(_number(c, key) for c in raw)
    except OverflowError as exc:
        raise PlantValidationError(
            f'"{key}" holds an entry beyond the float range') from exc
    except TypeError as exc:
        raise PlantValidationError(f'"{key}" holds a non-numeric entry') from exc


def load_plant(path) -> Plant:
    """Read a plant description; raises PlantValidationError when unusable."""
    doc = _read_json(path, PlantValidationError, "plant")
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
                omega=_number(anchor["omega"], "omega"),
                value=complex(_number(anchor["re"], "re"),
                              _number(anchor["im"], "im")),
                dc=None if dc is None else _number(dc, "dc"))
        except (OverflowError, TypeError) as exc:
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


def phi_from_dict(doc: dict) -> PiecewiseNonlinearity:
    try:
        sb = doc["slope_bound"]
        slope = math.inf if sb == "inf" else _number(sb, "slope_bound")
        odd = doc["odd"]
        if not isinstance(odd, bool):
            raise TypeError(f"odd must be true or false, got {odd!r}")
        return PiecewiseNonlinearity(*([_number(b[k], k)
                                        for b in doc["breakpoints"]]
                                       for k in ("y", "v_lo", "v_hi")),
                                     odd=odd, slope_bound=slope)
    except (KeyError, OverflowError, TypeError, ValueError) as exc:
        raise FileFormatError(f"bad nonlinearity document: {exc}") from exc


def save_phi(path, phi: PiecewiseNonlinearity) -> None:
    """Write phi's document {"odd", "slope_bound" (a number or "inf"),
    "breakpoints": [{"y", "v_lo", "v_hi"}, ...]} as json.dumps(doc, indent=2)
    writes it, plus a newline; phi's floats are finite, so each is its repr."""
    slope = (repr(phi.slope_bound) if math.isfinite(phi.slope_bound)
             else '"inf"')
    points = ",\n".join(
        f'    {{\n      "y": {y!r},\n      "v_lo": {lo!r},\n'
        f'      "v_hi": {hi!r}\n    }}'
        for y, lo, hi in zip(phi.ys, phi.los, phi.his))
    write_output(path, f'{{\n  "odd": {json.dumps(phi.odd)},\n  '
                 f'"slope_bound": {slope},\n  "breakpoints": [\n{points}'
                 f'\n  ]\n}}\n', "nonlinearity")


def load_phi(path) -> PiecewiseNonlinearity:
    doc = _read_json(path, FileFormatError, "nonlinearity")
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
    write_output(path, "\n".join(lines) + "\n", "signal")


def load_signals(path) -> tuple[PeriodicSignal, PeriodicSignal]:
    text = _read_text(path, FileFormatError, "signal")
    try:
        rows = list(csv.reader(text.splitlines()))
    except csv.Error as exc:
        raise FileFormatError(f"signal file is not valid CSV: {exc}") from exc
    if not rows or [h.strip() for h in rows[0]] != ["index", "u", "y"]:
        raise FileFormatError('signal CSV needs the header "index,u,y"')
    us: list[float] = []
    ys: list[float] = []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != 3:
            raise FileFormatError(f"line {lineno}: expected 3 columns")
        if not _INDEX.fullmatch(row[0].strip()):
            raise FileFormatError(f"line {lineno}: index must be plain digits")
        if not all(_DECIMAL.fullmatch(text.strip()) for text in row[1:]):
            raise FileFormatError(
                f"line {lineno}: samples must be plain decimal numbers")
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
    return PeriodicSignal(us), PeriodicSignal(ys)
