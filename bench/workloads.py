"""The three benchmark workloads.

Each workload turns a seed into a fixed op list, runs one pass over it
on request, and checks the first pass's outputs with the oracles.  All
calls go through module attributes looked up at call time, so the
traced run sees them through its wrappers.

Which modules each workload exercises (x) and bypasses (-):

    workload     lti phase interp sim construct fileio cli
    search        x    x     -     -      -        -     -
    cycle_long    x    x     x     x      x        -     -
    cli_small     x    x     x     x      x        x     x

- search: one op is one phase.sweep_entries call at beta_max = 100 for
  one (plant, window) pair.  Time goes to lti.freq_response and phase,
  one scalar response per coprime grid point.
- cycle_long: construct.build_certificate at (100, 101) and (300, 301).
  Rational ops are dominated by the closed-loop simulation and
  PiecewiseNonlinearity.scalar; anchor ops are interpolation work and
  never reach lti.periodic_response or the simulation, so a sim change
  must leave them unmoved.  T = 1001 is left out: its ops run for
  seconds, and on a shared host a multi-second op cannot be timed
  steadily by repeat-and-min.
- cli_small: one in-process CLI session per plant at T <= 40:
  nyquist, phase-sweep for both windows, construct at each window's
  best row, and verify with a trace and a report.  Half the plants have
  feedthrough, which drives sim's algebraic-loop iteration.  A per-call
  overhead added for large T shows up here.  The plants are a fixed
  panel of random plants plus a documented margin counterexample, each
  perturbed by the seed (see CLI_PANEL_SEED).
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import inputs
import oracles

SEARCH_PLANTS = 49
SEARCH_BETA_MAX = 100
CYCLE_FREQS = ((100, 101), (300, 301))
CLI_PLANTS = 32
# The CLI session's cost and outcome vary widely from plant to plant, so
# every seed perturbs one fixed panel of random plants instead of drawing
# a new one: different seeds give different inputs of equal cost.  Fresh
# plants per seed moved wall_s by 20% from seed to seed.
CLI_PANEL_SEED = 0
CLI_BETA_MAX = 20
CLI_PERIODS = 20
SLOPE_MARGIN = 1.0001


@dataclass
class OpRecord:
    """One op of one pass.  cert_attempt marks a construction (for search,
    a best row) at a feasible frequency; the oracle fills the rest."""

    command: str
    plant: str
    kind: str
    seconds: float
    outcome: str
    crashed: bool
    output: object = None
    cert_attempt: bool = False
    rejected: str | None = None
    known_defect: bool = False
    certified: bool = False

    @property
    def failed(self) -> bool:
        return self.crashed or self.rejected is not None


def _plant_object(pkg, plant: dict):
    if "anchor" in plant:
        a = plant["anchor"]
        return pkg.AnchorPlant(a["omega"], complex(a["re"], a["im"]),
                               plant["dc"])
    return pkg.TransferFunction(tuple(plant["num"]), tuple(plant["den"]))


class Workload:
    """Base: a seeded op list, library calls timed one op at a time."""

    def __init__(self, pkg, seed: int):
        self.pkg = pkg
        self.rng = np.random.default_rng(seed)
        self.tracer = None
        self.plants: list[dict] = []

    def prepare(self, tmp: Path) -> None:
        self.tmp = tmp

    def digest(self) -> str:
        return inputs.digest(self.plants)

    @staticmethod
    def _guarded(check, rec, *args) -> None:
        """Run one op's oracle; output it cannot read is a rejection."""
        try:
            check(rec, *args)
        except (ValueError, KeyError, IndexError, TypeError, AttributeError,
                OSError) as exc:
            rec.rejected = f"unreadable output: {type(exc).__name__}: {exc}"

    def _call(self, i, command, plant, kind, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
            outcome, crashed = "ok", False
        except self.pkg.LuryecycleError as exc:
            out, outcome, crashed = exc, type(exc).__name__, False
        except Exception as exc:  # every other exception is a failed op
            out, outcome, crashed = exc, type(exc).__name__, True
        seconds = time.perf_counter() - t0
        return OpRecord(command, inputs.label(plant), kind, seconds,
                        outcome, crashed, out)


class Search(Workload):
    name = "search"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.plants = [inputs.EXAMPLE] + [
            inputs.random_stable_plant(self.rng) for _ in range(SEARCH_PLANTS)]

    def prepare(self, tmp):
        super().prepare(tmp)
        self.objects = [_plant_object(self.pkg, p) for p in self.plants]

    def run_pass(self, keep: bool) -> list[OpRecord]:
        recs = []
        for plant, obj in zip(self.plants, self.objects):
            for odd in (False, True):
                recs.append(self._call(
                    len(recs),
                    f"sweep_entries beta_max={SEARCH_BETA_MAX} "
                    f"{'odd' if odd else 'plain'}", plant, "rational",
                    self.pkg.phase.sweep_entries, obj, SEARCH_BETA_MAX,
                    odd_variant=odd))
                if not keep:
                    recs[-1].output = None
        return recs

    def check(self, recs: list[OpRecord]) -> None:
        for i, rec in enumerate(recs):
            self._guarded(self._check_op, rec, self.plants[i // 2], i % 2 == 1)

    def _check_op(self, rec, plant, odd):
        # The certified object of a search is its best row, attempted
        # wherever the oracle finds a feasible grid frequency.
        rec.cert_attempt = oracles.feasible_somewhere(plant, SEARCH_BETA_MAX,
                                                      odd)
        if rec.crashed:
            return
        if rec.outcome != "ok":
            rec.rejected = f"sweep raised {rec.outcome}"
            return
        rows = [(e.freq.alpha, e.freq.beta, e.response.real, e.response.imag,
                 None if e.kbar_json() is None
                 else math.inf if e.kbar_json() == "inf" else e.kbar)
                for e in rec.output]
        rec.rejected = oracles.check_sweep(plant, SEARCH_BETA_MAX, odd, rows)
        if rec.rejected is None and plant is inputs.EXAMPLE:
            want, kbar = (((1, 3), 1.3575409836065568) if odd
                          else ((2, 7), 1.3028373692567092))
            if rows[0][:2] != want or abs(rows[0][4] - kbar) > 1e-12 * kbar:
                rec.rejected = (f"example plant best row {rows[0][:2]} kbar "
                                f"{rows[0][4]!r}, expected {want} kbar "
                                f"{kbar!r}")
        rec.certified = (rec.cert_attempt and rec.rejected is None
                         and rows[0][4] is not None)


class CycleLong(Workload):
    name = "cycle_long"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        self.specs = []  # (command, plant, kind, freq, odd, slope)
        for alpha, beta in CYCLE_FREQS:
            w = math.pi * alpha / beta
            g = complex(oracles.response(inputs.EXAMPLE, np.exp(1j * w)))
            for odd, variant in ((False, "slope_k"), (True, "odd_slope_k")):
                kbar = oracles.closed_form_kbar(
                    g, oracles.half_width(alpha, beta, odd))
                self.specs.append((variant, inputs.EXAMPLE, "rational",
                                   (alpha, beta), odd, SLOPE_MARGIN * kbar))
            T = inputs.period(alpha, beta)
            for variant, odd, half, frac in (
                    ("monotone_inf", False, math.pi / T,
                     self.rng.uniform(0.2, 0.8)),
                    ("odd_inf", True, math.pi / (2 * beta),
                     self.rng.uniform(0.2, 0.8)),
                    ("odd_inf boundary", True, math.pi / (2 * beta), 1.0)):
                sign = 1.0 if self.rng.random() < 0.5 else -1.0
                anchor = inputs.anchor_plant(
                    alpha, beta, sign * frac * half,
                    self.rng.uniform(0.5, 2.0),
                    None if odd else self.rng.uniform(-3.0, 3.0))
                self.specs.append((variant, anchor, "anchor", (alpha, beta),
                                   odd, math.inf))
        self.plants = [s[1] for s in self.specs]

    def prepare(self, tmp):
        super().prepare(tmp)
        self.objects = [_plant_object(self.pkg, p) for p in self.plants]
        self.freqs = [self.pkg.RationalFrequency(*s[3]) for s in self.specs]

    def run_pass(self, keep):
        recs = []
        for i, (spec, obj, freq) in enumerate(
                zip(self.specs, self.objects, self.freqs)):
            variant, plant, kind, (alpha, beta), odd, slope = spec
            rec = self._call(
                i, f"build_certificate {variant} ({alpha}, {beta})", plant,
                kind, self.pkg.construct.build_certificate, obj, freq,
                odd=odd, slope=slope)
            rec.cert_attempt = True
            if rec.outcome == "ok" and not rec.output.phi.is_single_valued:
                rec.outcome = "ok multivalued"
            if not keep:
                rec.output = None
            recs.append(rec)
        return recs

    def check(self, recs):
        for spec, rec in zip(self.specs, recs):
            if not rec.crashed and rec.outcome.startswith("ok"):
                self._guarded(self._check_op, rec, spec[1], spec[5])

    @staticmethod
    def _check_op(rec, plant, slope):
        cert = rec.output
        rec.rejected = oracles.check_cycle(
            plant, [(b.y, b.v_lo, b.v_hi) for b in cert.phi.breakpoints],
            cert.u.values, cert.y.values, slope)
        rec.certified = rec.rejected is None


def _read_signals(path: Path):
    rows = list(csv.reader(path.read_text().splitlines()))
    u = [float(r[1]) for r in rows[1:] if r]
    y = [float(r[2]) for r in rows[1:] if r]
    return np.array(u), np.array(y)


class CliSmall(Workload):
    name = "cli_small"

    def __init__(self, pkg, seed):
        super().__init__(pkg, seed)
        panel = np.random.default_rng(CLI_PANEL_SEED)
        parts = [inputs.random_stable_parts(panel) for _ in range(CLI_PLANTS)]
        parts.insert(0, (list(np.roots(inputs.NYQUIST_MISS["den"])),
                         np.array(inputs.NYQUIST_MISS["num"])))
        self.plants = [inputs.plant_from_parts(
            *inputs.jitter_parts(poles, num, self.rng))
            for poles, num in parts]

    def prepare(self, tmp):
        super().prepare(tmp)
        from click.testing import CliRunner
        self.runner = CliRunner()
        self.plant_files = []
        for i, plant in enumerate(self.plants):
            path = tmp / f"plant{i}.json"
            path.write_text(json.dumps(plant))
            self.plant_files.append(path)

    def _cli(self, i, plant, args, **output):
        if self.tracer is not None:
            self.tracer.op = i
        t0 = time.perf_counter()
        result = self.runner.invoke(self.pkg.cli.cli, [str(a) for a in args])
        seconds = time.perf_counter() - t0
        code = result.exit_code
        exc = result.exception
        outcome = f"exit {code}"
        if exc is not None and not isinstance(exc, SystemExit):
            outcome += f" {type(exc).__name__}"
        elif code != 0 and result.stderr:
            outcome += " " + result.stderr.strip().splitlines()[-1][:120]
        crashed = code == 1 or (exc is not None
                                and not isinstance(exc, SystemExit))
        command = " ".join(["cli"] + [str(a) for a in args
                                      if not isinstance(a, Path)
                                      and "/" not in str(a)])
        return OpRecord(command, inputs.label(plant), "rational", seconds,
                        outcome, crashed,
                        dict(output, code=code, stdout=result.stdout))

    def run_pass(self, keep):
        work = self.tmp / ("first" if keep else "rest")
        work.mkdir(exist_ok=True)
        recs = []
        for p, (plant, pfile) in enumerate(zip(self.plants, self.plant_files)):
            recs.append(self._cli(len(recs), plant, ["nyquist", pfile], p=p))
            for odd in (False, True):
                flag = ["--odd"] if odd else []
                recs.append(self._cli(
                    len(recs), plant, ["phase-sweep", pfile, "--beta-max",
                                       CLI_BETA_MAX, "--format", "json",
                                       *flag], p=p, odd=odd))
                try:
                    best = json.loads(recs[-1].output["stdout"])[0]
                except (ValueError, IndexError):
                    continue  # the oracle reports an unreadable table
                if not best["feasible"]:
                    continue
                slope = ("inf" if best["kbar"] == "inf"
                         else repr(SLOPE_MARGIN * best["kbar"]))
                files = {key: f"{work}/p{p}{'odd' if odd else ''}.{key}"
                         for key in ("phi.json", "sig.csv", "trace.csv",
                                     "report.json")}
                recs.append(self._cli(
                    len(recs), plant,
                    ["construct", pfile, "--alpha", best["alpha"], "--beta",
                     best["beta"], *flag, "--slope", slope, "--out",
                     files["phi.json"], "--signals", files["sig.csv"]],
                    p=p, slope=float(slope), files=files))
                recs[-1].cert_attempt = True
                if recs[-1].output["code"] != 0:
                    continue
                recs.append(self._cli(
                    len(recs), plant,
                    ["verify", pfile, files["phi.json"], files["sig.csv"],
                     "--periods", CLI_PERIODS, "--trace", files["trace.csv"],
                     "--report", files["report.json"]], p=p, files=files))
        if not keep:
            for rec in recs:
                rec.output = None
        return recs

    def check(self, recs):
        accepted = {}  # phi file -> whether its construct passed the oracle
        for rec in recs:
            if not rec.crashed:
                self._guarded(self._check_op, rec, accepted)

    def _check_op(self, rec, accepted):
        out = rec.output
        verb = rec.command.split()[1]
        plant = self.plants[out["p"]]
        code = out["code"]
        if verb == "nyquist":
            rec.rejected = self._check_nyquist(plant, code, out["stdout"])
            # The scan-based margin misses instability windows narrower
            # than its gain step: a known defect of the package.
            rec.known_defect = bool(rec.rejected and
                                    rec.rejected.startswith("nyquist miss"))
        elif verb == "phase-sweep":
            if code not in (0, 3):
                rec.rejected = f"phase-sweep exited {code}"
                return
            rows = [(r["alpha"], r["beta"], r["re"], r["im"],
                     None if r["kbar"] is None
                     else math.inf if r["kbar"] == "inf" else r["kbar"])
                    for r in json.loads(out["stdout"])]
            rec.rejected = oracles.check_sweep(plant, CLI_BETA_MAX,
                                               out["odd"], rows)
            if rec.rejected is None and (code == 3) != (
                    not rows or rows[0][4] is None):
                rec.rejected = "exit code 3 disagrees with the table"
        elif verb == "construct" and code == 0:
            files = out["files"]
            doc = json.loads(Path(files["phi.json"]).read_text())
            u, y = _read_signals(Path(files["sig.csv"]))
            rec.rejected = oracles.check_cycle(
                plant, [(b["y"], b["v_lo"], b["v_hi"])
                        for b in doc["breakpoints"]], u, y, out["slope"])
            rec.certified = rec.rejected is None
            accepted[files["phi.json"]] = rec.certified
        elif verb == "verify":
            rec.rejected = self._check_verify(code, out["files"], accepted)

    @staticmethod
    def _check_nyquist(plant, code, stdout) -> str | None:
        if code != 0:
            return f"nyquist exited {code}"
        line = stdout.strip().splitlines()[-1]
        k_rep = float(line.split("k_N")[-1].strip(" =>"))
        why = oracles.check_nyquist(plant, k_rep)
        return None if why is None else f"nyquist miss: {why}"

    @staticmethod
    def _check_verify(code, files, accepted) -> str | None:
        if code not in (0, 6):
            return f"verify exited {code}"
        passed = json.loads(Path(files["report.json"]).read_text())[
            "results"]["passed"]
        if passed != (code == 0):
            return "report and exit code disagree"
        if accepted.get(files["phi.json"]) and not passed:
            return "verify fails a cycle the oracle accepts"
        doc = json.loads(Path(files["phi.json"]).read_text())
        if all(b["v_lo"] == b["v_hi"] for b in doc["breakpoints"]):
            _, y = _read_signals(Path(files["sig.csv"]))
            rows = Path(files["trace.csv"]).read_text().splitlines()
            if rows[0] != "k,y,u" or len(rows) - 1 != CLI_PERIODS * y.size:
                return "trace has the wrong shape"
            ysim = np.array([float(r.split(",")[1]) for r in rows[1:]])
            scale = max(1.0, float(np.max(np.abs(y))))
            gap = float(np.max(np.abs(ysim[:y.size] - y)))
            if passed and gap > 1e-6 * scale:
                return f"traced first period is {gap:.3g} off the cycle"
        return None


WORKLOADS = {w.name: w for w in (Search, CycleLong, CliSmall)}
