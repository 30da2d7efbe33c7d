"""In-process wall time of each pipeline layer on the example plant.

    python3 tools/layers.py [--src PATH] [--repeats N]
    python3 tools/layers.py --src A --src B [--repeats N]

Imports the package from --src (default: src/ of this checkout), so the
same script times two checkouts alike, and prints one JSON object that
maps each measurement to its minimum over N repeats, in ms.  Given --src
twice, it compares the two trees: each of COMPARE_ROUNDS rounds times
both, each in a fresh child process, in alternating order (A then B,
then B then A), and it prints each key's minimum over all rounds for A
and for B and their ratio B/A, so that drift of the host between
processes falls on both trees alike.  The plant
is G = z/(z^2 - 1.8 z + 0.81) (D = 0), and G + 0.3 (D = 0.3) for the
feedthrough simulation.  Measurements:

- phase.sweep_entries at beta_max 20, 100, 300 and 1000, and
  phase.grid_search at 1000;
- the phase-sweep command in-process (click's CliRunner, output
  captured) at the same beta_max, in both formats;
- each of those sweeps cold, with the process's coprime grid cleared
  before each repeat, as in a process's first sweep, and (keys ending
  in "warm", except grid_search) warm, repeating a sweep that already
  ran in the process;
- construct.build_certificate at T = 7, 101, 301 and 1001, the
  frequencies (T - 1, T): in the monotone class with the even window
  (keys "T=<T>"), and with slope 1.0001*kbar in the even and the odd
  window (keys "T=<T> even k" and "T=<T> odd k"); and for the anchor
  that pins the plant's response and dc gain at that frequency, in the
  monotone class (keys "T=<T> anchor"), which is interpolation work
  only;
- interp.interpolate, interp.compute_shift and interp.odd_append at
  the same T, each on the arguments that build_certificate passes it
  (the monotone build for the first two, the odd slope-k build for
  odd_append), in whatever form the checkout's construct uses;
- sim.simulate_closed_loop for 20 periods, driven by the phi of the
  T = 1001 monotone certificate, with D = 0 and D = 0.3; at the
  benchmark's cycle_long sizes, T = 101 and 301 with the phi of the
  slope-k certificates above in both windows (D = 0); a run that never
  repeats, where every repeat check is pure cost: G = 1/(z - 0.999) from
  x0 = 1000 for 20 periods of T = 7 under the phi of the T = 7
  monotone certificate (key "... never repeats"); and its first call
  at a new plant order, which compiles the step for that order (a
  one-step run after clearing the compiled steps, as set-up);
- sim.periodic_steady_state at T = 7, 101, 301 and 1001, on the input of
  the monotone certificate;
- sim.interpolation_residual at T = 101, 301 and 1001 on the cycle of
  the even-window slope-k certificate (keys "T=<T> even k") and of an
  anchor whose response lies on the edge of the odd window, whose odd
  build gives a multivalued phi (keys "T=<T> odd edge anchor"), each on
  a fresh copy of phi, so that every repeat also pays what the checkout
  builds per nonlinearity;
- sim.verify_cycle of the slope-k certificates above in both windows
  at T = 101, 301 and 1001 (20 periods), and, as a count rather than a
  time, the steps its simulation stepped before the state repeated
  (keys "... stepped"; phi evaluations inside simulate_closed_loop,
  which reach 20*T only when the state never repeats or the checkout
  has no repeat check).

Nothing here is a benchmark gate; bench/ holds the end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SWEEP_BETA_MAX = (20, 100, 300, 1000)
PERIODS = (7, 101, 301, 1001)
SLOPE_MARGIN = 1.0001
SIM_PERIODS = 20
SIM_CYCLE_PERIODS = (101, 301)
VERIFY_PERIODS = (101, 301, 1001)
NEVER_REPEATS_T = 7
FEEDTHROUGH = 0.3
COMPARE_ROUNDS = 3


def _min_ms(fn, repeats: int, setup=None) -> float:
    """Minimum wall time of fn over the repeats, in ms; setup, if given,
    runs untimed before each repeat."""
    best = math.inf
    for _ in range(repeats):
        if setup is not None:
            setup()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best * 1e3, 3)


def _arguments(construct, name: str, plant, freq, kwargs) -> tuple:
    """The arguments and keywords of the first call that
    build_certificate makes to the interpolation function `name`, which
    construct imports."""
    fn = getattr(construct, name)
    calls = []

    def spy(*args, **kw):
        calls.append((args, kw))
        return fn(*args, **kw)

    setattr(construct, name, spy)
    try:
        construct.build_certificate(plant, freq, **kwargs)
    finally:
        setattr(construct, name, fn)
    return calls[0]


def _stepped(sim, plant, cert) -> int:
    """Steps that verify_cycle's simulation stepped on cert: the calls of
    phi (a fresh copy, with a counting lower bound) while
    simulate_closed_loop runs."""
    phi = replace(cert.phi)
    lower, upper = phi.bounds
    calls = [0]

    def counted(y):
        calls[0] += 1
        return lower(y)

    phi.__dict__["bounds"] = (counted, upper)
    simulate = sim.simulate_closed_loop
    stepped = []

    def spy(*args):
        before = calls[0]
        out = simulate(*args)
        stepped.append(calls[0] - before)
        return out

    sim.simulate_closed_loop = spy
    try:
        sim.verify_cycle(plant, phi, cert.u, cert.y, periods=SIM_PERIODS)
    finally:
        sim.simulate_closed_loop = simulate
    return stepped[0]


def measure(repeats: int) -> dict[str, float]:
    from click.testing import CliRunner

    from luryecycle import (
        RationalFrequency,
        TransferFunction,
        construct,
        phase,
        sim,
    )
    from luryecycle.cli import cli
    from luryecycle.construct import AnchorPlant, build_certificate
    from luryecycle.lti import dc_gain, freq_response
    from luryecycle.phase import grid_search, sweep_entries
    from luryecycle.sim import periodic_steady_state, simulate_closed_loop

    def _clear_grid():
        # Each sweep then builds the coprime grid afresh, as the first
        # sweep of a process does; a checkout that keeps no grid has
        # nothing to clear.
        if hasattr(phase, "_grid"):
            phase._grid = None

    g = TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81))
    g_slow = TransferFunction((1.0,), (1.0, -0.999))
    g_d = TransferFunction((FEEDTHROUGH, 1.0 - 1.8 * FEEDTHROUGH,
                            0.81 * FEEDTHROUGH), g.den)
    out = {}
    slope_certs = {}
    verify_certs = {}
    mono_certs = {}
    for beta_max in SWEEP_BETA_MAX:
        out[f"phase.sweep_entries beta_max={beta_max}"] = _min_ms(
            lambda: sweep_entries(g, beta_max), repeats, _clear_grid)
    out[f"phase.grid_search beta_max={SWEEP_BETA_MAX[-1]}"] = _min_ms(
        lambda: grid_search(g, SWEEP_BETA_MAX[-1]), repeats, _clear_grid)
    for beta_max in SWEEP_BETA_MAX:
        sweep_entries(g, beta_max)
        out[f"phase.sweep_entries beta_max={beta_max} warm"] = _min_ms(
            lambda: sweep_entries(g, beta_max), repeats)
    for T in PERIODS:
        freq = RationalFrequency(T - 1, T)
        resp = freq_response(g, freq.omega)
        out[f"construct.build_certificate T={T}"] = _min_ms(
            lambda: build_certificate(g, freq), repeats)
        mono_certs[T] = build_certificate(g, freq)
        for odd in (False, True):
            # the closed-form bound; (T - 1, T) lies in its window
            t = math.tan(math.pi / (2 * T if odd else T))
            kbar = -t / (resp.real * t + abs(resp.imag))
            label = f"T={T} {'odd' if odd else 'even'} k"
            out[f"construct.build_certificate {label}"] = _min_ms(
                lambda: build_certificate(g, freq, odd=odd,
                                          slope=SLOPE_MARGIN * kbar),
                repeats)
            if T in VERIFY_PERIODS:
                k_cert = build_certificate(g, freq, odd=odd,
                                           slope=SLOPE_MARGIN * kbar)
                if T in SIM_CYCLE_PERIODS:
                    slope_certs[label] = k_cert
                verify_certs[label] = k_cert
        anchor = AnchorPlant(freq.omega, resp, dc_gain(g))
        out[f"construct.build_certificate T={T} anchor"] = _min_ms(
            lambda: build_certificate(anchor, freq), repeats)
        for name, kwargs in (("interpolate", {}), ("compute_shift", {}),
                             ("odd_append", {"odd": True,
                                             "slope": SLOPE_MARGIN * kbar})):
            args, kw = _arguments(construct, name, g, freq, kwargs)
            fn = getattr(construct, name)
            out[f"interp.{name} T={T}"] = _min_ms(lambda: fn(*args, **kw),
                                                   repeats)
    cert = build_certificate(g, RationalFrequency(1000, 1001))
    steps = SIM_PERIODS * cert.u.period
    for label, plant in (("0", g), (str(FEEDTHROUGH), g_d)):
        x0 = periodic_steady_state(plant, cert.u)
        out[f"sim.simulate_closed_loop D={label} steps={steps}"] = _min_ms(
            lambda: simulate_closed_loop(plant, cert.phi, x0, steps),
            repeats)
    for label, k_cert in slope_certs.items():
        x0 = periodic_steady_state(g, k_cert.u)
        steps = SIM_PERIODS * k_cert.u.period
        out[f"sim.simulate_closed_loop {label} steps={steps}"] = _min_ms(
            lambda: simulate_closed_loop(g, k_cert.phi, x0, steps), repeats)
    steps = SIM_PERIODS * NEVER_REPEATS_T
    out[f"sim.simulate_closed_loop never repeats T={NEVER_REPEATS_T} "
        f"steps={steps}"] = _min_ms(
        lambda: simulate_closed_loop(g_slow, mono_certs[NEVER_REPEATS_T].phi,
                                     [1000.0], steps, NEVER_REPEATS_T),
        repeats)

    x0 = periodic_steady_state(g, cert.u)
    # Clearing the compiled steps makes each call a first call; a
    # checkout that compiles nothing has no set-up to clear.
    kernel = getattr(sim, "_closed_loop_kernel", None)

    def first_call():
        if kernel is not None:
            kernel.cache_clear()
        simulate_closed_loop(g, cert.phi, x0, 1)

    out[f"sim.simulate_closed_loop first call order={g.order}"] = _min_ms(
        first_call, repeats)
    for T, m_cert in mono_certs.items():
        out[f"sim.periodic_steady_state T={T}"] = _min_ms(
            lambda: periodic_steady_state(g, m_cert.u), repeats)
    for T in VERIFY_PERIODS:
        k_cert = verify_certs[f"T={T} even k"]
        freq = RationalFrequency(T - 1, T)
        edge = AnchorPlant(freq.omega, -cmath.exp(1j * math.pi / (2 * T)))
        for label, r_cert in (("even k", k_cert), ("odd edge anchor",
                              build_certificate(edge, freq, odd=True))):
            ya, ua = r_cert.y.as_array(), r_cert.u.as_array()
            fresh = [r_cert.phi]
            out[f"sim.interpolation_residual T={T} {label}"] = _min_ms(
                lambda: sim.interpolation_residual(fresh[0], ya, ua),
                repeats, lambda: fresh.__setitem__(0, replace(r_cert.phi)))
    for label, k_cert in verify_certs.items():
        out[f"sim.verify_cycle {label}"] = _min_ms(
            lambda: sim.verify_cycle(g, k_cert.phi, k_cert.u, k_cert.y,
                                     periods=SIM_PERIODS), repeats)
        out[f"sim.verify_cycle {label} stepped"] = _stepped(sim, g, k_cert)
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
                key = f"cli.phase_sweep beta_max={beta_max} {fmt}"
                out[key] = _min_ms(lambda: runner.invoke(cli, args), repeats,
                                   _clear_grid)
                runner.invoke(cli, args)
                out[f"{key} warm"] = _min_ms(lambda: runner.invoke(cli, args),
                                             repeats)
    return out


def compare(srcs: list[Path], repeats: int) -> dict:
    """Both trees' minima over the rounds and their ratio, per key."""
    best = [{}, {}]
    for r in range(COMPARE_ROUNDS):
        for i in (0, 1) if r % 2 == 0 else (1, 0):
            run = subprocess.run(
                [sys.executable, __file__, "--src", str(srcs[i]),
                 "--repeats", str(repeats)],
                capture_output=True, text=True, check=True)
            for key, ms in json.loads(run.stdout).items():
                best[i][key] = min(ms, best[i].get(key, math.inf))
    return {key: {"a": a, "b": best[1][key],
                  "ratio": round(best[1][key] / a, 3) if a else None}
            for key, a in best[0].items() if key in best[1]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, action="append",
                        help="a checkout's src/; twice to compare two")
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    srcs = args.src or [Path(__file__).resolve().parents[1] / "src"]
    if len(srcs) > 2:
        parser.error("--src is given at most twice")
    if len(srcs) == 2:
        result = compare(srcs, args.repeats)
    else:
        sys.path.insert(0, str(srcs[0].resolve()))
        result = measure(args.repeats)
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
