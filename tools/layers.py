"""In-process wall time of each pipeline layer on the example plant.

    python3 tools/layers.py [--src PATH] [--repeats N]

Imports the package from --src (default: src/ of this checkout), so the
same script times two checkouts alike, and prints one JSON object that
maps each measurement to its minimum over N repeats, in ms.  The plant
is G = z/(z^2 - 1.8 z + 0.81) (D = 0), and G + 0.3 (D = 0.3) for the
feedthrough simulation.  Measurements:

- phase.sweep_entries at beta_max 20, 100, 300 and 1000;
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
    from luryecycle import RationalFrequency, TransferFunction
    from luryecycle.construct import build_certificate
    from luryecycle.lti import freq_response, realize
    from luryecycle.phase import slope_bound, sweep_entries
    from luryecycle.sim import periodic_steady_state, simulate_closed_loop

    g = TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81))
    g_d = TransferFunction((FEEDTHROUGH, 1.0 - 1.8 * FEEDTHROUGH,
                            0.81 * FEEDTHROUGH), g.den)
    out = {}
    for beta_max in SWEEP_BETA_MAX:
        out[f"phase.sweep_entries beta_max={beta_max}"] = _min_ms(
            lambda: sweep_entries(g, beta_max), repeats)
    for T in PERIODS:
        freq = RationalFrequency(T - 1, T)
        out[f"construct.build_certificate T={T}"] = _min_ms(
            lambda: build_certificate(g, freq), repeats)
        for odd in (False, True):
            kbar = slope_bound(freq_response(g, freq.omega), freq, odd).kbar
            key = f"construct.build_certificate T={T} " \
                  f"{'odd' if odd else 'even'} k"
            out[key] = _min_ms(
                lambda: build_certificate(g, freq, odd=odd,
                                          slope=SLOPE_MARGIN * kbar),
                repeats)
    cert = build_certificate(g, RationalFrequency(1000, 1001))
    steps = SIM_PERIODS * cert.u.period
    for label, plant in (("0", g), (str(FEEDTHROUGH), g_d)):
        ss = realize(plant)
        x0 = periodic_steady_state(ss, cert.u)
        out[f"sim.simulate_closed_loop D={label} steps={steps}"] = _min_ms(
            lambda: simulate_closed_loop(ss, cert.phi, x0, steps), repeats)
    ss = realize(g)
    out[f"sim.periodic_steady_state T={cert.u.period}"] = _min_ms(
        lambda: periodic_steady_state(ss, cert.u), repeats)
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
