"""Command-line interface.

Subcommands: nyquist (linear gain margin), phase-sweep (slope bounds over
the coprime frequency grid), construct (build a destabilizing
nonlinearity and its cycle), verify (re-check a stored cycle), and
figure-data (point sets for plotting).  Every documented failure path
maps to a fixed exit code:

    0  success
    2  invalid or unusable plant / input file / argument
    3  no feasible frequency pair
    4  phase condition failed
    5  no shift intersection
    6  construction or verification failed
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path

import click

from . import __version__
from .construct import build_certificate, plant_response
from .errors import (
    AlgebraicLoopError,
    DomainError,
    EmptyResultError,
    FileFormatError,
    LuryecycleError,
    MultivaluedPhiError,
    NoIntersectionError,
    NotMonotoneError,
    PhaseConditionError,
    PlantValidationError,
    SelfVerifyError,
    SingularMatrixError,
    SlopeViolationError,
    ZeroResponseError,
)
from .fileio import (
    load_phi,
    load_plant,
    load_signals,
    plant_echo,
    save_phi,
    save_signals,
)
from .lti import RationalFrequency, TransferFunction
from .phase import sweep_entries
from .sim import nyquist_gain, trajectory_csv, verify_cycle

EXIT_OK = 0
EXIT_INVALID_PLANT = 2
EXIT_NO_FEASIBLE = 3
EXIT_PHASE_FAILED = 4
EXIT_NO_INTERSECTION = 5
EXIT_VERIFY_FAILED = 6

_ERROR_CODES: tuple[tuple[type | tuple[type, ...], int], ...] = (
    ((PhaseConditionError, ZeroResponseError), EXIT_PHASE_FAILED),
    (NoIntersectionError, EXIT_NO_INTERSECTION),
    (EmptyResultError, EXIT_NO_FEASIBLE),
    ((SelfVerifyError, NotMonotoneError, SlopeViolationError,
      MultivaluedPhiError, AlgebraicLoopError, SingularMatrixError),
     EXIT_VERIFY_FAILED),
    ((PlantValidationError, FileFormatError, DomainError),
     EXIT_INVALID_PLANT),
)


def exit_code_for(exc: LuryecycleError) -> int:
    for klass, code in _ERROR_CODES:
        if isinstance(exc, klass):
            return code
    return 1


@contextmanager
def _guard():
    """Translate toolkit errors into messages plus documented exit codes."""
    try:
        yield
    except LuryecycleError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(exit_code_for(exc))


def _write_report(path, command: str, parameters: dict, plant: dict | None,
                  results: dict) -> None:
    if not path:
        return
    doc = {
        "tool": "luryecycle",
        "version": __version__,
        "command": command,
        "parameters": parameters,
        "plant": plant,
        "results": results,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _rational_plant(plant, what: str) -> TransferFunction:
    if not isinstance(plant, TransferFunction):
        raise PlantValidationError(
            f"{what} needs a rational plant in num/den form")
    return plant


def _frequency(alpha: int, beta: int) -> RationalFrequency:
    try:
        return RationalFrequency(alpha, beta)
    except ValueError as exc:
        raise click.BadParameter(str(exc), param_hint="--alpha/--beta")


def _parse_slope(text: str) -> float:
    if text.strip().lower() == "inf":
        return math.inf
    try:
        value = float(text)
    except ValueError:
        raise click.BadParameter(
            f'slope must be a number or "inf", got {text!r}',
            param_hint="--slope")
    if not value > 0:
        raise click.BadParameter("slope must be positive",
                                 param_hint="--slope")
    return value


@click.group()
@click.version_option(version=__version__, prog_name="luryecycle")
def cli():
    """Destabilizing nonlinearities and periodic cycles for discrete-time
    Lurye feedback loops."""


@cli.command()
@click.argument("plant_file", type=click.Path(dir_okay=False))
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Write a JSON run report here.")
def nyquist(plant_file, report):
    """Smallest linear feedback gain that destabilizes the loop."""
    with _guard():
        plant = _rational_plant(load_plant(plant_file), "the gain margin")
        k_n = nyquist_gain(plant)
        if math.isfinite(k_n):
            click.echo(f"k_N = {k_n:.9g}")
        else:
            click.echo("no constant gain destabilizes the loop; k_N = inf")
        # Plain JSON has no Infinity.
        _write_report(report, "nyquist", {}, plant_echo(plant),
                      {"k_n": k_n if math.isfinite(k_n) else "inf"})


_SWEEP_KEYS = ("alpha", "beta", "T", "omega", "re", "im", "phase", "kbar",
               "feasible")
_JSON_ROW = "  {{\n" + ",\n".join(
    f'    "{key}": {{}}' for key in _SWEEP_KEYS) + "\n  }}"
_CSV_ROW = "{},{},{},{!r},{!r},{!r},{!r},{},{}"


def _sweep_columns(table) -> list[list]:
    """The phase-sweep table as one list per key of _SWEEP_KEYS."""
    return [table.alpha, table.beta, table.T, table.omega, table.re,
            table.im, list(map(math.atan2, table.im, table.re)),
            table.kbar_json(), table.feasible()]


def _json_tokens(values: list) -> list[str]:
    # The C encoder writes each value as json.dumps(rows, indent=2) would.
    return json.dumps(values)[1:-1].split(", ")


def _sweep_text(columns: list[list], fmt: str) -> str:
    """The table as json.dumps(rows, indent=2) would write it, or as CSV
    with shortest round-trip floats and an empty kbar when infeasible."""
    if fmt == "json":
        rows = ",\n".join(map(_JSON_ROW.format,
                              *map(_json_tokens, columns)))
        return f"[\n{rows}\n]"
    *head, kbar, feasible = columns
    kbar = ["" if k is None else k if isinstance(k, str) else repr(k)
            for k in kbar]
    feasible = ["true" if f else "false" for f in feasible]
    return "\n".join([",".join(_SWEEP_KEYS),
                      *map(_CSV_ROW.format, *head, kbar, feasible)])


@cli.command("phase-sweep")
@click.argument("plant_file", type=click.Path(dir_okay=False))
@click.option("--beta-max", type=int, default=20, show_default=True,
              help="Largest denominator of the frequency grid.")
@click.option("--odd", is_flag=True,
              help="Use the odd-nonlinearity window pi/(2*beta).")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="csv", show_default=True)
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Write a JSON run report here.")
def phase_sweep(plant_file, beta_max, odd, fmt, report):
    """Slope bounds for every coprime frequency pair up to --beta-max."""
    with _guard():
        plant = _rational_plant(load_plant(plant_file), "the sweep")
        columns = _sweep_columns(sweep_entries(plant, beta_max,
                                               odd_variant=odd))
        click.echo(_sweep_text(columns, fmt))
        if report:
            rows = [dict(zip(_SWEEP_KEYS, row)) for row in zip(*columns)]
            _write_report(report, "phase-sweep",
                          {"beta_max": beta_max, "odd": odd},
                          plant_echo(plant), {"rows": rows})
        if not any(columns[-1]):
            raise EmptyResultError(
                f"no feasible frequency pair with beta <= {beta_max}")


@cli.command()
@click.argument("plant_file", type=click.Path(dir_okay=False))
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--odd", is_flag=True, help="Build an odd nonlinearity.")
@click.option("--slope", default="inf", show_default=True,
              help='Target slope class k, or "inf" for the monotone class.')
@click.option("--out", default="phi.json", show_default=True,
              type=click.Path(dir_okay=False),
              help="Nonlinearity output file.")
@click.option("--signals", default="signals.csv", show_default=True,
              type=click.Path(dir_okay=False),
              help="Cycle signals output file.")
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Write a JSON run report here.")
def construct(plant_file, alpha, beta, odd, slope, out, signals, report):
    """Build a destabilizing nonlinearity and its periodic cycle."""
    with _guard():
        plant = load_plant(plant_file)
        freq = _frequency(alpha, beta)
        k = _parse_slope(slope)
        cert = build_certificate(plant, freq, odd=odd, slope=k)
        save_phi(out, cert.phi)
        save_signals(signals, cert.u, cert.y)
        click.echo(f"variant {cert.variant}: T = {freq.T}, "
                   f"omega = {alpha}*pi/{beta}")
        if math.isfinite(k):
            click.echo(f"slope class k = {k:.9g}")
        if freq.alpha % 2 == 0 and not odd:
            click.echo(f"input shift xi = {cert.xi:.9g}")
        click.echo(f"residuals: periodicity "
                   f"{cert.verdict.residual_periodicity:.3g}, interpolation "
                   f"{cert.verdict.residual_interpolation:.3g}")
        click.echo(f"wrote {out} and {signals}")
        _write_report(report, "construct",
                      {"alpha": alpha, "beta": beta, "odd": odd,
                       "slope": slope, "out": str(out),
                       "signals": str(signals)},
                      plant_echo(plant), cert.to_dict())


@cli.command()
@click.argument("plant_file", type=click.Path(dir_okay=False))
@click.argument("phi_file", type=click.Path(dir_okay=False))
@click.argument("signals_file", type=click.Path(dir_okay=False))
@click.option("--periods", type=int, default=20, show_default=True,
              help="Simulated periods for the periodicity check.")
@click.option("--trace", type=click.Path(dir_okay=False), default=None,
              help="Write the simulated trajectory CSV here.")
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Write a JSON run report here.")
def verify(plant_file, phi_file, signals_file, periods, trace, report):
    """Re-check a stored cycle against its plant and nonlinearity."""
    with _guard():
        plant = _rational_plant(load_plant(plant_file), "verification")
        phi = load_phi(phi_file)
        u, y = load_signals(signals_file)
        verdict = verify_cycle(plant, phi, u, y, periods=periods)
        if trace:
            if verdict.trajectory is not None:
                Path(trace).write_text(trajectory_csv(*verdict.trajectory))
                click.echo(f"wrote {trace}")
            else:
                click.echo("trace skipped: nonlinearity is multivalued",
                           err=True)
        click.echo(f"period T = {verdict.period}")
        click.echo(f"residual periodicity   = "
                   f"{verdict.residual_periodicity:.3g}")
        click.echo(f"residual interpolation = "
                   f"{verdict.residual_interpolation:.3g}")
        click.echo(f"nontrivial = {verdict.nontrivial}")
        passed = verdict.ok()
        click.echo("PASS" if passed else "FAIL")
        _write_report(report, "verify",
                      {"periods": periods}, plant_echo(plant),
                      {"period": verdict.period,
                       "residual_periodicity": verdict.residual_periodicity,
                       "residual_interpolation":
                           verdict.residual_interpolation,
                       "nontrivial": verdict.nontrivial,
                       "passed": passed})
        if not passed:
            sys.exit(EXIT_VERIFY_FAILED)


@cli.command("figure-data")
@click.argument("plant_file", type=click.Path(dir_okay=False))
@click.option("--alpha", type=int, required=True)
@click.option("--beta", type=int, required=True)
@click.option("--which", type=click.Choice(["vt", "gvt", "phi"]),
              required=True,
              help="vt: carrier samples; gvt: response samples; "
                   "phi: nonlinearity breakpoints.")
@click.option("--odd", is_flag=True,
              help="Odd construction (phi output only).")
@click.option("--slope", default="inf", show_default=True,
              help="Slope class for the phi output.")
@click.option("--out", required=True, type=click.Path(dir_okay=False),
              help="CSV output file.")
@click.option("--report", type=click.Path(dir_okay=False), default=None,
              help="Write a JSON run report here.")
def figure_data(plant_file, alpha, beta, which, odd, slope, out, report):
    """Point sets for external plotting."""
    with _guard():
        plant = load_plant(plant_file)
        freq = _frequency(alpha, beta)
        T = freq.T
        if which == "vt":
            pts = [complex(math.cos(freq.omega * i), math.sin(freq.omega * i))
                   for i in range(T)]
            lines = ["re,im"] + [f"{p.real!r},{p.imag!r}" for p in pts]
            results = {"points": T}
        elif which == "gvt":
            resp = plant_response(plant, freq)
            pts = [resp * complex(math.cos(freq.omega * i),
                                  math.sin(freq.omega * i))
                   for i in range(T)]
            lines = ["re,im"] + [f"{p.real!r},{p.imag!r}" for p in pts]
            results = {"points": T}
        else:
            k = _parse_slope(slope)
            cert = build_certificate(plant, freq, odd=odd, slope=k)
            lines = ["y,v_lo,v_hi"] + [
                f"{b.y!r},{b.v_lo!r},{b.v_hi!r}"
                for b in cert.phi.breakpoints]
            results = cert.to_dict()
        Path(out).write_text("\n".join(lines) + "\n")
        click.echo(f"wrote {out} ({len(lines) - 1} rows)")
        _write_report(report, "figure-data",
                      {"alpha": alpha, "beta": beta, "which": which,
                       "odd": odd, "slope": slope, "out": str(out)},
                      plant_echo(plant), results)


def main():
    cli()


if __name__ == "__main__":
    main()
