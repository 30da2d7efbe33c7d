"""In-process wall time of each pipeline layer on the example plant.

    python3 tools/layers.py [--src PATH] [--repeats N]

Imports the package from --src (default: src/ of this checkout), so the
same script times two checkouts alike, and prints one JSON object that
maps each measurement to its minimum over N repeats, in ms.  The plant
is G = z/(z^2 - 1.8 z + 0.81) (D = 0), and G + 0.3 (D = 0.3) for the
feedthrough simulation.  Measurements:

- phase.sweep_entries at beta_max 20, 100, 300 and 1000, and
  phase.grid_search at 1000;
- the phase-sweep command in-process (click's CliRunner, output
  captured) at the same beta_max, in both formats;
- construct.build_certificate at T = 7, 101, 301 and 1001, the
  frequencies (T - 1, T): in the monotone class with the even window
  (keys "T=<T>"), and with slope 1.0001*kbar in the even and the odd
  window (keys "T=<T> even k" and "T=<T> odd k");
- sim.simulate_closed_loop for 20 periods, driven by the phi of the
  T = 1001 monotone certificate, with D = 0 and D = 0.3;
- sim.periodic_steady_state at T = 1001.

Nothing here is a benchmark gate; bench/ holds the end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SWEEP_BETA_MAX = (20, 100, 300, 1000)
PERIODS = (7, 101, 301, 1001)
SLOPE_MARGIN = 1.0001
SIM_PERIODS = 20
FEEDTHROUGH = 0.3


def _min_ms(fn, repeats: int) -> float:
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3)


def measure(repeats: int) -> dict[str, float]:
    from click.testing import CliRunner

    from luryecycle import RationalFrequency, TransferFunction
    from luryecycle.cli import cli
    from luryecycle.construct import build_certificate
    from luryecycle.lti import freq_response
    from luryecycle.phase import grid_search, sweep_entries
    from luryecycle.sim import periodic_steady_state, simulate_closed_loop

    g = TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81))
    g_d = TransferFunction((FEEDTHROUGH, 1.0 - 1.8 * FEEDTHROUGH,
                            0.81 * FEEDTHROUGH), g.den)
    out = {}
    for beta_max in SWEEP_BETA_MAX:
        out[f"phase.sweep_entries beta_max={beta_max}"] = _min_ms(
            lambda: sweep_entries(g, beta_max), repeats)
    out[f"phase.grid_search beta_max={SWEEP_BETA_MAX[-1]}"] = _min_ms(
        lambda: grid_search(g, SWEEP_BETA_MAX[-1]), repeats)
    for T in PERIODS:
        freq = RationalFrequency(T - 1, T)
        out[f"construct.build_certificate T={T}"] = _min_ms(
            lambda: build_certificate(g, freq), repeats)
        for odd in (False, True):
            # the closed-form bound; (T - 1, T) lies in its window
            resp = freq_response(g, freq.omega)
            t = math.tan(math.pi / (2 * T if odd else T))
            kbar = -t / (resp.real * t + abs(resp.imag))
            key = f"construct.build_certificate T={T} " \
                  f"{'odd' if odd else 'even'} k"
            out[key] = _min_ms(
                lambda: build_certificate(g, freq, odd=odd,
                                          slope=SLOPE_MARGIN * kbar),
                repeats)
    cert = build_certificate(g, RationalFrequency(1000, 1001))
    steps = SIM_PERIODS * cert.u.period
    for label, plant in (("0", g), (str(FEEDTHROUGH), g_d)):
        x0 = periodic_steady_state(plant, cert.u)
        out[f"sim.simulate_closed_loop D={label} steps={steps}"] = _min_ms(
            lambda: simulate_closed_loop(plant, cert.phi, x0, steps),
            repeats)
    out[f"sim.periodic_steady_state T={cert.u.period}"] = _min_ms(
        lambda: periodic_steady_state(g, cert.u), repeats)
    # Last: resident memory grows by about the output size with each
    # in-process run, which would disturb the timings above.
    runner = CliRunner()
    with tempfile.TemporaryDirectory() as tmp:
        plant = Path(tmp) / "plant.json"
        plant.write_text(json.dumps({"num": list(g.num),
                                     "den": list(g.den)}))
        for beta_max in SWEEP_BETA_MAX:
            for fmt in ("csv", "json"):
                args = ["phase-sweep", str(plant), "--beta-max",
                        str(beta_max), "--format", fmt]
                out[f"cli.phase_sweep beta_max={beta_max} {fmt}"] = _min_ms(
                    lambda: runner.invoke(cli, args), repeats)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path,
                        default=Path(__file__).resolve().parents[1] / "src")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    sys.path.insert(0, str(args.src.resolve()))
    print(json.dumps(measure(args.repeats), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
