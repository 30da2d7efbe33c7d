"""Benchmark launcher: one workload, one seed, one single-threaded process.

    python3 bench/run.py --workload cycle_long --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 0

With --trace 0 the run measures the end-to-end metrics with no tracing;
with --trace 1 it measures untraced passes for half of --seconds, then
wraps the package's public functions and reports the per-module metrics
of the traced passes.  Either way the first pass's outputs go through
the oracles, every op is listed in the outcome ledger, and the last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  The package is imported from src/ of the checkout that holds
this file; spans and scratch files go to .bench_out/ there.
"""

import os

# Pin BLAS and OpenMP pools before numpy loads; fresh interpreters started
# for the set-up measurement inherit the same settings.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 11

# A fresh interpreter pays this on every CLI command: import the CLI and
# load the workload's plant files through the public API.
SETUP_SNIPPET = """
import sys
import luryecycle.cli
from luryecycle import load_plant
for path in sys.argv[1:]:
    load_plant(path)
"""


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _env_record() -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _setup_seconds(plant_files: list[Path]) -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET,
                        *map(str, plant_files)],
                       env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _peak_rss_mb() -> float:
    """Peak resident memory so far.  Taken after the first pass: later
    passes only add garbage whose collection time varies run to run."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _passes(wl, seconds: float, keep_first: bool, after=None):
    """Run passes while another one still fits in `seconds` (at least
    one); `after` sees each pass's records outside the timed region."""
    walls, passes = [], []
    start = time.perf_counter()
    while not walls or (time.perf_counter() - start + max(walls)
                        <= seconds):
        t0 = time.perf_counter()
        recs = wl.run_pass(keep_first and not passes)
        walls.append(time.perf_counter() - t0)
        passes.append(recs)
        if after is not None:
            after(recs)
    return walls, passes


def _best_times(passes) -> list[float]:
    """Each op's fastest time over the passes.  The host's speed drifts by
    tens of percent within seconds, so an op's best pass (repeat-and-min)
    is the steady estimate of its cost."""
    return [min(op) for op in zip(*([r.seconds for r in recs]
                                    for recs in passes))]


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _traced_metrics(name, wl, tracing, seconds, kinds, labels):
    """Per-module metrics from traced passes run for `seconds`."""
    tr = tracing.Tracer()
    summaries = []

    def fold(recs):
        spans = tr.take()
        if not summaries:
            tracing.save(OUT / f"spans-{name}.npz", spans, labels)
        summaries.append(tracing.summary(spans, kinds, tr.absent))

    tr.install()
    wl.tracer = tr
    try:
        _, passes = _passes(wl, seconds, False, after=fold)
    finally:
        tr.uninstall()
        wl.tracer = None
    head = summaries[0]
    metrics = {}
    for key, value in head.items():
        if key in ("absent", "top"):
            continue
        if key.endswith(".self_ms"):
            metrics[key] = _metric(
                statistics.median(s[key] for s in summaries), "ms")
        elif key.endswith(("ratio", "per_step")):
            metrics[key] = _metric(value, "ratio")
        else:
            metrics[key] = _metric(value, "count")
    if head["absent"]:
        print(f"# absent {' '.join(head['absent'])}")
    for kind, top in head["top"].items():
        print(f"# top self_ms on {kind} ops: "
              + ", ".join(f"{span} {ms:.1f}" for span, ms in top))
    return metrics, passes


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(SRC))
    try:
        import luryecycle
    except ImportError as exc:
        return _fail(f"cannot import the package from {SRC}: {exc}")
    if not Path(luryecycle.__file__).resolve().is_relative_to(SRC):
        return _fail(f"luryecycle was imported from {luryecycle.__file__}, "
                     f"not from {SRC}")
    import luryecycle.cli  # noqa: F401
    import tracer as tracing
    from workloads import WORKLOADS

    wl = WORKLOADS[name](luryecycle, seed)
    OUT.mkdir(exist_ok=True)
    print(f"# workload {name} seed {seed} trace {int(trace)} "
          f"inputs {wl.digest()} plants {len(wl.plants)}")
    print(f"# env {json.dumps(_env_record(), sort_keys=True)}")
    metrics = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        tmp = Path(tmp)
        wl.prepare(tmp)
        if not trace:
            files = []
            for i, plant in enumerate(wl.plants):
                files.append(tmp / f"setup{i}.json")
                files[-1].write_text(json.dumps(plant))
            metrics["setup_s"] = _metric(_setup_seconds(files), "s")
        peak = []
        walls, passes = _passes(wl, seconds / 2 if trace else seconds, True,
                                after=lambda recs: peak.append(_peak_rss_mb()))
        first = passes[0]
        if trace:
            traced, more = _traced_metrics(
                name, wl, tracing, seconds / 2, [r.kind for r in first],
                [f"{r.command} {r.plant}" for r in first])
            traced["trace_overhead_ratio"] = _metric(
                sum(_best_times(more)) / sum(_best_times(passes)), "ratio")
            print(f"# passes untraced {len(passes)} traced {len(more)}")
            passes += more
        wl.check(first)

    signature = [(r.command, r.outcome) for r in first]
    changed = [i for i, recs in enumerate(passes)
               if [(r.command, r.outcome) for r in recs] != signature]
    for rec in first:
        verdict = ("FAILED" if rec.failed else "ok") + (
            f" [{rec.rejected}]" if rec.rejected else "")
        print(f"ledger {name} {rec.plant} {rec.command} | {rec.outcome} | "
              f"{verdict}")
    attempted = len(first)
    failed = sum(r.failed for r in first)
    constructs = sum(r.cert_attempt for r in first)
    certified = sum(r.certified for r in first)
    # A known defect counts as a failed op but does not make the run
    # incorrect, so the seed's behaviour stays measurable.
    wrong = [r for r in first if r.rejected and not r.known_defect]
    correct = not wrong and not changed
    if changed:
        print(f"# outcomes changed between passes: {changed}")
    print(f"# fail_ratio {failed / attempted:.6g} ({failed} / {attempted}); "
          f"cert_yield {certified} / {constructs}")

    if trace:
        metrics = traced
    else:
        best = _best_times(passes)
        deciles = statistics.quantiles(best, n=10, method="inclusive")
        metrics.update({
            "wall_s": _metric(sum(best), "s"),
            "op_p50_ms": _metric(deciles[4] * 1e3, "ms"),
            "op_p90_ms": _metric(deciles[8] * 1e3, "ms"),
            "ok_ratio": _metric(1 - failed / attempted, "ratio"),
            "cert_yield": _metric(certified / constructs if constructs
                                  else 0.0, "ratio"),
            "peak_rss_mb": _metric(peak[0], "MB"),
        })
        print(f"# op samples {attempted} ops x {len(passes)} passes; "
              f"pass wall median {statistics.median(walls):.6g} s")

    for key, m in metrics.items():
        print(f"metric {name} {key} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Every workload in its own process, one after the other."""
    status = 0
    for name in ("search", "cycle_long", "cli_small"):
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(seed), "--seconds", str(seconds), "--trace",
             str(int(trace))], cwd=ROOT)
        status = status or done.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("search", "cycle_long", "cli_small", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "luryecycle" / "__init__.py").is_file():
        return _fail(f"no package source at {SRC / 'luryecycle'}")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds,
                        bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
