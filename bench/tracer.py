"""Span tracer wrapped around the package's public functions.

Only the traced run installs it.  Each wrapped call records one span
(name, start, end, parent span, op id, whether an exception escaped) in
flat in-memory arrays; `summary` folds the spans of one pass into the
per-module metrics, and `save` writes them out when the run ends.  The
package itself is not modified: wrappers replace the names in every
`luryecycle` module namespace that binds them and are removed again by
`uninstall`.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from array import array

import numpy as np

# Wrapped names per module.  A class name wraps its construction, and
# "Class.method" wraps a method; CLI names are click commands, whose
# callbacks are wrapped.
TARGETS = {
    "lti": ("freq_response", "periodic_response", "realize",
            "TransferFunction"),
    "phase": ("sweep_entries", "slope_bound", "phase_check_value"),
    "interp": ("interpolate", "monotone_interpolable", "odd_append",
               "compute_shift", "loop_transform_data",
               "PiecewiseNonlinearity", "PiecewiseNonlinearity.evaluate",
               "PiecewiseNonlinearity.scalar"),
    "sim": ("verify_cycle", "simulate_closed_loop", "periodic_steady_state",
            "interpolation_residual", "nyquist_gain"),
    "construct": ("build_certificate",),
    "fileio": ("load_plant", "load_phi", "load_signals", "save_phi",
               "save_signals"),
    "cli": ("nyquist", "phase_sweep", "construct", "verify"),
}
MODULES = tuple(TARGETS)
SPANS = tuple(f"{m}.{n}" for m, names in TARGETS.items() for n in names)
OP_KINDS = ("rational", "anchor")


def _file_bytes(path) -> int:
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0


def _arg(args, kwargs, i, key):
    return args[i] if len(args) > i else kwargs[key]


# Size counters, taken after a wrapped call returns: name -> (counter, fn).
COUNTERS = {
    "lti.periodic_response": (
        "lti.periodic_response.samples",
        lambda a, k, out: _arg(a, k, 1, "u").period),
    "phase.sweep_entries": (
        "phase.sweep_entries.points", lambda a, k, out: len(out)),
    "interp.interpolate": (
        "interp.interpolate.pairs",
        lambda a, k, out: len(_arg(a, k, 0, "data"))),
    "sim.simulate_closed_loop": (
        "sim.simulate_closed_loop.steps",
        lambda a, k, out: int(_arg(a, k, 3, "steps"))),
    "fileio.load_plant": (
        "fileio.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 0, "path"))),
    "fileio.load_phi": (
        "fileio.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 0, "path"))),
    "fileio.load_signals": (
        "fileio.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 0, "path"))),
    "fileio.save_phi": (
        "fileio.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 0, "path"))),
    "fileio.save_signals": (
        "fileio.bytes", lambda a, k, out: _file_bytes(_arg(a, k, 0, "path"))),
}


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.op = -1
        self.absent: list[str] = []
        self._patches: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self):
        self.names = array("i")
        self.parents = array("i")
        self.ops = array("i")
        self.errs = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.counts = dict.fromkeys(c for c, _ in COUNTERS.values())
        for key in self.counts:
            self.counts[key] = 0
        self.feasible = 0
        self._stack = [-1]

    def _wrap(self, span: str, fn):
        nid = SPANS.index(span)
        counter = COUNTERS.get(span)
        sweep = span == "phase.sweep_entries"
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(tracer.starts)
            tracer.names.append(nid)
            tracer.parents.append(tracer._stack[-1])
            tracer.ops.append(tracer.op)
            tracer.errs.append(0)
            tracer.ends.append(0.0)
            tracer._stack.append(i)
            tracer.starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            except SystemExit as exc:
                tracer.errs[i] = 1 if exc.code else 0
                raise
            except BaseException:
                tracer.errs[i] = 1
                raise
            finally:
                tracer.ends[i] = clock()
                tracer._stack.pop()
            try:
                if counter is not None:
                    tracer.counts[counter[0]] += counter[1](args, kwargs, out)
                if sweep:
                    tracer.feasible += sum(1 for e in out if e.feasible)
            except (LookupError, AttributeError, TypeError):
                pass  # a changed signature loses the count, not the call
            return out

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap every target name that the package still defines."""
        import luryecycle  # noqa: F401  (loads every submodule)
        namespaces = [m for key, m in sorted(sys.modules.items())
                      if key == "luryecycle" or key.startswith("luryecycle.")]
        for module, names in TARGETS.items():
            mod = sys.modules.get(f"luryecycle.{module}")
            for name in names:
                span = f"{module}.{name}"
                head, _, method = name.partition(".")
                obj = getattr(mod, head, None) if mod else None
                if method:
                    fn = getattr(obj, method, None) if obj else None
                    if fn is None:
                        self.absent.append(span)
                        continue
                    self._patch(obj, method, self._wrap(span, fn))
                elif isinstance(obj, type):
                    self._patch(obj, "__init__",
                                self._wrap(span, obj.__init__))
                elif module == "cli":
                    if getattr(obj, "callback", None) is None:
                        self.absent.append(span)
                        continue
                    self._patch(obj, "callback",
                                self._wrap(span, obj.callback))
                elif callable(obj):
                    wrapped = self._wrap(span, obj)
                    for ns in namespaces:
                        for attr, val in list(vars(ns).items()):
                            if val is obj:
                                self._patch(ns, attr, wrapped)
                else:
                    self.absent.append(span)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def take(self) -> dict:
        """Spans and counters recorded since the last take.  The arrays
        share memory with the recording buffers, which are replaced."""
        spans = {
            "name": np.frombuffer(self.names, dtype=np.int32),
            "parent": np.frombuffer(self.parents, dtype=np.int32),
            "op": np.frombuffer(self.ops, dtype=np.int32),
            "err": np.frombuffer(self.errs, dtype=np.int8).view(bool),
            "start": np.frombuffer(self.starts, dtype=np.float64),
            "end": np.frombuffer(self.ends, dtype=np.float64),
            "counts": dict(self.counts),
            "feasible": self.feasible,
        }
        self._reset()
        return spans


def summary(spans: dict, op_kinds: list[str], absent: list[str]) -> dict:
    """Per-module metrics of one traced pass.

    Self time is a span's duration minus that of its direct children;
    a module's error count is the number of exceptions that left it for
    a caller outside the module.
    """
    name, parent, op = spans["name"], spans["parent"], spans["op"]
    dur = spans["end"] - spans["start"]
    n = name.size
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent],
                        minlength=n)
    own = dur - child
    calls = np.bincount(name, minlength=len(SPANS))
    self_ms = np.bincount(name, weights=own, minlength=len(SPANS)) * 1e3
    mod_of_span = np.array([MODULES.index(s.split(".")[0]) for s in SPANS],
                           dtype=np.int32)
    mod = mod_of_span[name]
    parent_mod = np.where(has_parent, mod[np.maximum(parent, 0)], -1)
    escaped = spans["err"] & (parent_mod != mod)
    errors = np.bincount(mod[escaped], minlength=len(MODULES))

    # scalar calls made inside a closed-loop simulation
    sim_id = SPANS.index("sim.simulate_closed_loop")
    in_sim = np.zeros(n, dtype=bool)
    anc = parent.copy()
    while np.any(anc >= 0):
        live = anc >= 0
        in_sim[live] |= name[anc[live]] == sim_id
        anc[live] = parent[anc[live]]
    scalar_id = SPANS.index("interp.PiecewiseNonlinearity.scalar")
    sim_scalar = int(np.count_nonzero(in_sim & (name == scalar_id)))

    kind_of_op = np.array([OP_KINDS.index(k) for k in op_kinds] or [0],
                          dtype=np.int32)
    kind = kind_of_op[op]
    by_kind = np.bincount(kind * len(MODULES) + mod, weights=own,
                          minlength=len(OP_KINDS) * len(MODULES)) * 1e3

    out: dict[str, float] = {}
    for i, span in enumerate(SPANS):
        out[f"{span}.calls"] = int(calls[i])
        out[f"{span}.self_ms"] = float(self_ms[i])
    for j, m in enumerate(MODULES):
        out[f"{m}.errors"] = int(errors[j])
    counts = spans["counts"]
    out.update(counts)
    points = counts["phase.sweep_entries.points"]
    steps = counts["sim.simulate_closed_loop.steps"]
    out["phase.feasible_ratio"] = spans["feasible"] / points if points else 0.0
    out["sim.phi_calls_per_step"] = sim_scalar / steps if steps else 0.0
    for k, kname in enumerate(OP_KINDS):
        for j, m in enumerate(MODULES):
            out[f"ops.{kname}.{m}.self_ms"] = float(
                by_kind[k * len(MODULES) + j])
    by_span = np.bincount(kind * len(SPANS) + name, weights=own,
                          minlength=len(OP_KINDS) * len(SPANS)) * 1e3
    out["top"] = {
        kname: sorted(((SPANS[i], float(by_span[k * len(SPANS) + i]))
                       for i in range(len(SPANS))
                       if by_span[k * len(SPANS) + i] > 0),
                      key=lambda item: -item[1])[:5]
        for k, kname in enumerate(OP_KINDS) if kname in op_kinds}
    out["absent"] = list(absent)
    return out


def save(path, spans: dict, op_labels: list[str]) -> None:
    """Write one pass's spans; names and op labels index the int columns."""
    np.savez_compressed(
        path, name=spans["name"], parent=spans["parent"], op=spans["op"],
        err=spans["err"], start=spans["start"], end=spans["end"],
        span_names=np.array(SPANS), op_labels=np.array(op_labels))
