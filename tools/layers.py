"""In-process wall time of each pipeline layer on the example plant.

    python3 tools/layers.py [--src PATH] [--repeats N]
    python3 tools/layers.py --src A --src B [--repeats N]

Loads the package from --src (default: src/ of this checkout), so the
same script times two checkouts alike, and prints one JSON object that
maps each measurement to its minimum over N repeats, in ms.  Given --src
twice, it compares the two trees: it loads both into this one
interpreter, under the names luryecycle_a and luryecycle_b, and times
each key COMPARE_ROUNDS times per tree, alternating which tree goes
first (A then B, then B then A), so that drift of the host falls on
both trees alike; it prints each key's minimum over the rounds for A and
for B and their ratio B/A.  The plant is G = z/(z^2 - 1.8 z + 0.81)
(D = 0), and G + 0.3 (D = 0.3) and G - 0.3 (D = -0.3) for the
feedthrough simulations.
Measurements:

- construct.plant_values, the response and dc value at one rational
  frequency, on the plant (order 2) and on 1/(z - 0.5)^8 (order 8);
  the sampled carrier cos(omega*k) with the response samples
  Re(G e^{j*omega*k}) that a build forms from it at the frequencies
  (T - 1, T) for T = 7, 301 and 1001 (keys "lti.carrier T=<T>"), from
  RationalFrequency.carrier or, in a checkout without it, from np.cos
  and np.exp of omega*k; and lti.dft_response at T = 7, 101 and 301
  on the input of the even-window slope-k certificate at (T - 1, T)
  with verify_cycle's numerators, num and z^n; each key times 100
  calls;
- phase.sweep_entries at beta_max 20, 100, 300 and 1000, and
  phase.grid_search at 1000;
- the phase-sweep command in-process (click's main, output written to
  os.devnull) at the same beta_max, in both formats;
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
- the fixed per-call cost of a build and of a check at T = 7 and 21,
  each key timing CALLS = 100 calls: construct.build_certificate of the
  even-window and the odd-window slope-k builds and of the anchor build
  above (keys "construct.build_certificate T=<T> even k x100", "... odd
  k x100" and "... anchor x100"), and sim.verify_cycle of the slope-k
  certificates in both windows (keys "sim.verify_cycle T=<T> even k
  x100" and "... odd k x100");
- interp.interpolate, interp.compute_shift and interp.odd_append at
  the same T, each on the arguments that build_certificate passes it
  (the monotone build for the first two, the odd slope-k build for
  odd_append), in whatever form the checkout's construct uses; and
  interp.interpolate CALLS times on the odd-window slope-k build's
  point-reflected data at T = 1001, whose phi passes the odd check
  (key "interp.interpolate odd T=1001 x100");
- sim.simulate_closed_loop for 20 periods, stepping the closed loop
  (phi called at every step) from the initial state that verify_cycle
  computes, driven by the phi of the T = 1001 monotone certificate,
  with D = 0 and D = 0.3, and for G - 0.3 from its own T = 1001
  even-window slope-k certificate, whose loop is well-posed (slopes
  below -1/D = 3.33; key "D=-0.3 k"); at the benchmark's cycle_long
  sizes, T = 101 and 301 with the phi of the slope-k certificates
  above in both windows (D = 0); a run that never repeats, where every
  repeat check is pure cost: G = 1/(z - 0.999) from x0 = 1000 for 20
  periods of T = 7 under the phi of the T = 7 monotone certificate
  (key "... never repeats"); and its first call at a new plant order, which
  compiles the step for that order (a one-step run after clearing the
  compiled steps, as set-up);
- sim.interpolation_residual at T = 101, 301 and 1001 on the cycle of
  the even-window slope-k certificate (keys "T=<T> even k") and of an
  anchor whose response lies on the edge of the odd window, whose odd
  build gives a multivalued phi (keys "T=<T> odd edge anchor"), each on
  a fresh copy of phi, so that every repeat also pays what the checkout
  builds per nonlinearity;
- sim.verify_cycle of the slope-k certificates at the frequencies
  (T - 1, T) in both windows at T = 7, 21, 101, 301 and 1001 (20
  periods), and two counts rather than times: the rows its
  simulation stepped before the state repeated (keys "... stepped"),
  and the calls it made to phi's lower bound while stepping (keys
  "... phi calls"; a checkout that calls phi at every step reads the
  rows stepped);
- each CLI command in-process on the example plant: nyquist, and
  construct (slope 1.0001*kbar, even window) and verify (20 periods,
  with --trace and --report) of its cycle at (T - 1, T) for T = 7 and
  21 (keys "cli.<command> ..."); and the session that runs nyquist,
  phase-sweep --beta-max 20, construct and verify in that order (keys
  "cli session T=<T>").  Hot single-command loops hide costs that a
  session pays, such as the first eigen-solve after other work.

Nothing here is a benchmark gate; bench/ holds the end-to-end benchmark.
"""

from __future__ import annotations

import argparse
import cmath
import contextlib
import importlib
import importlib.util
import json
import math
import os
import sys
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SWEEP_BETA_MAX = (20, 100, 300, 1000)
PERIODS = (7, 101, 301, 1001)
SLOPE_MARGIN = 1.0001
SIM_PERIODS = 20
SIM_CYCLE_PERIODS = (101, 301)
RESIDUAL_PERIODS = (101, 301, 1001)
VERIFY_PERIODS = (7, 21, 101, 301, 1001)
PER_CALL_PERIODS = (7, 21)
CARRIER_PERIODS = (7, 301, 1001)
DFT_PERIODS = (7, 101, 301)
CALLS = 100
ODD_INTERP_T = 1001
SESSION_PERIODS = (7, 21)
SESSION_BETA_MAX = 20
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


def _slope_k(resp: complex, T: int, odd: bool) -> float:
    """SLOPE_MARGIN times the closed-form slope bound of the response
    resp at the frequency (T - 1, T), which lies in its window."""
    t = math.tan(math.pi / (2 * T if odd else T))
    return SLOPE_MARGIN * -t / (resp.real * t + abs(resp.imag))


def _carrier_samples(freq, resp: complex) -> tuple:
    """The carrier u_k = cos(omega*k) and the response samples
    Re(resp e^{j*omega*k}), formed as the checkout's build forms them."""
    if hasattr(freq, "carrier"):
        u, sin = freq.carrier()
        return u, resp.real * u - resp.imag * sin
    k = np.arange(freq.T)
    return np.cos(freq.omega * k), (resp * np.exp(1j * freq.omega * k)).real


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


def _check_counts(sim, plant, cert) -> tuple[int, int]:
    """The rows verify_cycle's simulation stepped on cert, and the calls
    it made to phi (a fresh copy, with a counting lower bound)."""
    phi = replace(cert.phi)
    lower, upper = phi.bounds
    calls = [0]

    def counted(y):
        calls[0] += 1
        return lower(y)

    phi.__dict__["bounds"] = (counted, upper)
    verdict = sim.verify_cycle(plant, phi, cert.u, cert.y,
                               periods=SIM_PERIODS)
    return len(verdict.trajectory.stepped_y), calls[0]


def _initial_state(sim, plant, cert):
    """The periodic initial state from which verify_cycle simulates the
    plant's loop on cert's cycle."""
    simulate = sim.simulate_closed_loop
    states = []

    def spy(plant, phi, x0, *args, **kwargs):
        states.append(x0)
        return simulate(plant, phi, x0, *args, **kwargs)

    sim.simulate_closed_loop = spy
    try:
        sim.verify_cycle(plant, cert.phi, cert.u, cert.y, periods=2)
    finally:
        sim.simulate_closed_loop = simulate
    return states[0]


def _invoke(cli, args: list[str]) -> None:
    """Run a command of the click group cli in-process, its output sent
    to os.devnull.  (click's CliRunner keeps each run's captured output
    alive, which at beta_max 1000 grows the process by about 57 MB a
    run.)"""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        cli.main(args, standalone_mode=False)


def load(src: Path, name: str):
    """The package in src/luryecycle, imported under the name name, with
    its cli module."""
    pkg_dir = src.resolve() / "luryecycle"
    spec = importlib.util.spec_from_file_location(
        name, pkg_dir / "__init__.py",
        submodule_search_locations=[str(pkg_dir)])
    pkg = importlib.util.module_from_spec(spec)
    sys.modules[name] = pkg
    spec.loader.exec_module(pkg)
    importlib.import_module(f"{name}.cli")
    return pkg


def cases(pkg, tmp: Path) -> tuple[list, dict[str, int]]:
    """The timed measurements of the module docstring on the package pkg,
    as (key, fn, setup) in order, and its counts by key."""
    construct, phase, sim = pkg.construct, pkg.phase, pkg.sim
    AnchorPlant, RationalFrequency = pkg.AnchorPlant, pkg.RationalFrequency
    build_certificate = construct.build_certificate
    plant_values = construct.plant_values
    grid_search, sweep_entries = phase.grid_search, phase.sweep_entries
    simulate_closed_loop = sim.simulate_closed_loop

    def clear_grid():
        # Each sweep then builds the coprime grid afresh, as the first
        # sweep of a process does; a checkout that keeps no grid has
        # nothing to clear.
        if hasattr(phase, "_grid"):
            phase._grid = None

    g = pkg.TransferFunction((1.0, 0.0), (1.0, -1.8, 0.81))
    g_slow = pkg.TransferFunction((1.0,), (1.0, -0.999))
    g_d = pkg.TransferFunction((FEEDTHROUGH, 1.0 - 1.8 * FEEDTHROUGH,
                                0.81 * FEEDTHROUGH), g.den)
    g_neg = pkg.TransferFunction((-FEEDTHROUGH, 1.0 + 1.8 * FEEDTHROUGH,
                                  -0.81 * FEEDTHROUGH), g.den)
    timed = []
    counts = {}
    slope_certs = {}
    verify_certs = {}
    mono_certs = {}

    def add(key, fn, setup=None):
        timed.append((key, fn, setup))

    g8 = pkg.TransferFunction((1.0,), tuple(
        math.comb(8, k) * (-0.5) ** k for k in range(9)))
    for plant in (g, g8):
        add(f"construct.plant_values order={plant.order} x{CALLS}",
            lambda p=plant, f=RationalFrequency(1, 10): [
                plant_values(p, f) for _ in range(CALLS)])
    for T in CARRIER_PERIODS:
        freq = RationalFrequency(T - 1, T)
        add(f"lti.carrier T={T} x{CALLS}",
            lambda f=freq, r=plant_values(g, freq)[0]: [
                _carrier_samples(f, r) for _ in range(CALLS)])
    for beta_max in SWEEP_BETA_MAX:
        add(f"phase.sweep_entries beta_max={beta_max}",
            lambda b=beta_max: sweep_entries(g, b), clear_grid)
    add(f"phase.grid_search beta_max={SWEEP_BETA_MAX[-1]}",
        lambda: grid_search(g, SWEEP_BETA_MAX[-1]), clear_grid)
    for beta_max in SWEEP_BETA_MAX:
        # the first repeat warms the grid, and the minimum skips it
        add(f"phase.sweep_entries beta_max={beta_max} warm",
            lambda b=beta_max: sweep_entries(g, b))
    for T in PERIODS:
        freq = RationalFrequency(T - 1, T)
        resp, dc = plant_values(g, freq)
        add(f"construct.build_certificate T={T}",
            lambda f=freq: build_certificate(g, f))
        mono_certs[T] = build_certificate(g, freq)
        for odd in (False, True):
            slope = _slope_k(resp, T, odd)
            label = f"T={T} {'odd' if odd else 'even'} k"
            add(f"construct.build_certificate {label}",
                lambda f=freq, o=odd, k=slope: build_certificate(
                    g, f, odd=o, slope=k))
            if T in SIM_CYCLE_PERIODS:
                slope_certs[label] = build_certificate(g, freq, odd=odd,
                                                       slope=slope)
        anchor = AnchorPlant(freq.omega, resp, dc)
        add(f"construct.build_certificate T={T} anchor",
            lambda a=anchor, f=freq: build_certificate(a, f))
        for name, kwargs in (("interpolate", {}), ("compute_shift", {}),
                             ("odd_append", {"odd": True, "slope": slope})):
            args, kw = _arguments(construct, name, g, freq, kwargs)
            add(f"interp.{name} T={T}",
                lambda fn=getattr(construct, name), a=args, k=kw: fn(*a, **k))
    freq = RationalFrequency(ODD_INTERP_T - 1, ODD_INTERP_T)
    args, kw = _arguments(construct, "interpolate", g, freq, {
        "odd": True,
        "slope": _slope_k(plant_values(g, freq)[0], ODD_INTERP_T, True)})
    add(f"interp.interpolate odd T={ODD_INTERP_T} x{CALLS}",
        lambda fn=construct.interpolate, a=args, k=kw: [
            fn(*a, **k) for _ in range(CALLS)])
    for T in VERIFY_PERIODS:
        freq = RationalFrequency(T - 1, T)
        resp = plant_values(g, freq)[0]
        for odd in (False, True):
            verify_certs[f"T={T} {'odd' if odd else 'even'} k"] = \
                build_certificate(g, freq, odd=odd,
                                  slope=_slope_k(resp, T, odd))
    for T in PER_CALL_PERIODS:
        freq = RationalFrequency(T - 1, T)
        resp, dc = plant_values(g, freq)
        builds = (
            ("even k", g, {"slope": _slope_k(resp, T, False)}),
            ("odd k", g, {"odd": True, "slope": _slope_k(resp, T, True)}),
            ("anchor", AnchorPlant(freq.omega, resp, dc), {}))
        for label, plant, kwargs in builds:
            add(f"construct.build_certificate T={T} {label} x{CALLS}",
                lambda p=plant, f=freq, k=kwargs: [
                    build_certificate(p, f, **k) for _ in range(CALLS)])
        for window in ("even", "odd"):
            add(f"sim.verify_cycle T={T} {window} k x{CALLS}",
                lambda c=verify_certs[f"T={T} {window} k"]: [
                    sim.verify_cycle(g, c.phi, c.u, c.y, periods=SIM_PERIODS)
                    for _ in range(CALLS)])
    for T in DFT_PERIODS:
        add(f"lti.dft_response T={T} x{CALLS}",
            lambda u=verify_certs[f"T={T} even k"].u: [
                pkg.lti.dft_response((g.num, (1.0, 0.0, 0.0)), g.den, u)
                for _ in range(CALLS)])
    cert = build_certificate(g, RationalFrequency(1000, 1001))
    steps = SIM_PERIODS * cert.u.period
    x0 = _initial_state(sim, g, cert)
    for label, plant in (("0", g), (str(FEEDTHROUGH), g_d)):
        add(f"sim.simulate_closed_loop D={label} steps={steps}",
            lambda p=plant: simulate_closed_loop(p, cert.phi, x0, steps))
    freq = cert.freq
    neg = build_certificate(g_neg, freq, slope=_slope_k(
        plant_values(g_neg, freq)[0], freq.T, False))
    add(f"sim.simulate_closed_loop D=-{FEEDTHROUGH} k steps={steps}",
        lambda x=_initial_state(sim, g_neg, neg): simulate_closed_loop(
            g_neg, neg.phi, x, steps))
    for label, k_cert in slope_certs.items():
        k_steps = SIM_PERIODS * k_cert.u.period
        add(f"sim.simulate_closed_loop {label} steps={k_steps}",
            lambda c=k_cert, x=_initial_state(sim, g, k_cert), n=k_steps:
            simulate_closed_loop(g, c.phi, x, n))
    n = SIM_PERIODS * NEVER_REPEATS_T
    add(f"sim.simulate_closed_loop never repeats T={NEVER_REPEATS_T} "
        f"steps={n}",
        lambda: simulate_closed_loop(g_slow, mono_certs[NEVER_REPEATS_T].phi,
                                     [1000.0], n, NEVER_REPEATS_T))
    # Clearing the compiled steps makes each call a first call; a
    # checkout that compiles nothing has no set-up to clear.
    kernel = getattr(sim, "_closed_loop_kernel", None)
    add(f"sim.simulate_closed_loop first call order={g.order}",
        lambda: simulate_closed_loop(g, cert.phi, x0, 1),
        kernel.cache_clear if kernel is not None else None)
    for T in RESIDUAL_PERIODS:
        k_cert = verify_certs[f"T={T} even k"]
        freq = RationalFrequency(T - 1, T)
        edge = AnchorPlant(freq.omega, -cmath.exp(1j * math.pi / (2 * T)))
        for label, r_cert in (("even k", k_cert), ("odd edge anchor",
                              build_certificate(edge, freq, odd=True))):
            fresh = [r_cert.phi]
            add(f"sim.interpolation_residual T={T} {label}",
                lambda f=fresh, c=r_cert: sim.interpolation_residual(
                    f[0], c.y.as_array(), c.u.as_array()),
                lambda f=fresh, c=r_cert: f.__setitem__(0, replace(c.phi)))
    for label, k_cert in verify_certs.items():
        add(f"sim.verify_cycle {label}",
            lambda c=k_cert: sim.verify_cycle(g, c.phi, c.u, c.y,
                                              periods=SIM_PERIODS))
        stepped, phi_calls = _check_counts(sim, g, k_cert)
        counts[f"sim.verify_cycle {label} stepped"] = stepped
        counts[f"sim.verify_cycle {label} phi calls"] = phi_calls
    plant_file = tmp / "plant.json"
    plant_file.write_text(json.dumps({"num": list(g.num),
                                      "den": list(g.den)}))
    for beta_max in SWEEP_BETA_MAX:
        for fmt in ("csv", "json"):
            args = ["phase-sweep", str(plant_file), "--beta-max",
                    str(beta_max), "--format", fmt]
            key = f"cli.phase_sweep beta_max={beta_max} {fmt}"
            add(key, lambda a=args: _invoke(pkg.cli.cli, a), clear_grid)
            add(f"{key} warm", lambda a=args: _invoke(pkg.cli.cli, a))
    nyquist = ["nyquist", str(plant_file)]
    sweep = ["phase-sweep", str(plant_file), "--beta-max",
             str(SESSION_BETA_MAX), "--format", "json"]
    add("cli.nyquist", lambda: _invoke(pkg.cli.cli, nyquist))
    for T in SESSION_PERIODS:
        phi, sig, trace, report = (str(tmp / f"T{T}-{name}") for name in (
            "phi.json", "sig.csv", "trace.csv", "report.json"))
        slope = _slope_k(plant_values(g, RationalFrequency(T - 1, T))[0],
                         T, False)
        construct_args = ["construct", str(plant_file), "--alpha",
                          str(T - 1), "--beta", str(T), "--slope",
                          repr(slope), "--out", phi, "--signals", sig]
        verify_args = ["verify", str(plant_file), phi, sig, "--periods",
                       str(SIM_PERIODS), "--trace", trace, "--report",
                       report]
        add(f"cli.construct T={T}",
            lambda a=construct_args: _invoke(pkg.cli.cli, a))
        add(f"cli.verify T={T}",
            lambda a=verify_args: _invoke(pkg.cli.cli, a))
        add(f"cli session T={T}",
            lambda s=(nyquist, sweep, construct_args, verify_args): [
                _invoke(pkg.cli.cli, a) for a in s])
    return timed, counts


def measure(pkg, repeats: int, tmp: Path) -> dict[str, float]:
    timed, counts = cases(pkg, tmp)
    out = {key: _min_ms(fn, repeats, setup) for key, fn, setup in timed}
    return {**out, **counts}


def compare(pkgs: list, repeats: int, tmp: Path) -> dict:
    """Both trees' minima over the rounds and their ratio, per key."""
    runs = []
    for i, pkg in enumerate(pkgs):
        (tmp / str(i)).mkdir()
        runs.append(cases(pkg, tmp / str(i)))
    best = [dict(runs[0][1]), dict(runs[1][1])]
    timed_b = {key: (fn, setup) for key, fn, setup in runs[1][0]}
    for key, fn, setup in runs[0][0]:
        if key not in timed_b:
            continue
        pair = ((fn, setup), timed_b[key])
        for r in range(COMPARE_ROUNDS):
            for i in (0, 1) if r % 2 == 0 else (1, 0):
                ms = _min_ms(pair[i][0], repeats, pair[i][1])
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
    with tempfile.TemporaryDirectory() as tmp:
        if len(srcs) == 2:
            pkgs = [load(src, f"luryecycle_{c}") for src, c in zip(srcs, "ab")]
            result = compare(pkgs, args.repeats, Path(tmp))
        else:
            result = measure(load(srcs[0], "luryecycle"), args.repeats,
                             Path(tmp))
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
