"""Span tracing of the seqphoton layers, installed from outside the library.

`Tracer` replaces each traced function with a wrapper in every seqphoton
module that binds it (``from .lindblad import propagate_stack`` copies the
name into pipeline, so both bindings are patched) and restores the originals
on exit.  A wrapper records one span (op id, span id, parent span, name,
start, end) in memory; self time is a span's duration minus the time its
child spans cover.  Counters are taken at the same boundaries: solver
right-hand-side evaluations from the ``nfev`` of each ``solve_ivp`` result,
the bytes of the matrix stack handed to ``propagate_stack``, and the share
of calls whose arguments repeat an earlier call.
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import inspect
import json
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

from seqphoton import collective, geometry, goat, lindblad, pipeline, retrieval

# (owner, attribute, span name).  Functions are patched wherever a
# seqphoton module binds them; methods on their class.
FUNCTIONS = [
    (lindblad, "propagate_stack", "lindblad.propagate_stack"),
    (lindblad, "build_effective_model", "lindblad.build_effective_model"),
    (collective, "build_hamiltonian", "collective.build_hamiltonian"),
    (goat, "channel_amplitudes", "goat.channel_amplitudes"),
    (goat, "propagate_with_gradient", "goat.propagate_with_gradient"),
    (goat, "cost_and_gradient", "goat.cost_and_gradient"),
    (pipeline, "pulse_kernel", "pipeline.pulse_kernel"),
    (pipeline, "closing_kernel", "pipeline.closing_kernel"),
    (pipeline, "emission_map", "pipeline.emission_map"),
    (pipeline, "round_maps", "pipeline.round_maps"),
    (pipeline, "fidelity_curve", "pipeline.fidelity_curve"),
    (pipeline, "fit_xi", "pipeline.fit_xi"),
    (retrieval, "coupling_matrix", "retrieval.coupling_matrix"),
    (retrieval, "detection_field", "retrieval.detection_field"),
    (retrieval, "mode_norm", "retrieval.mode_norm"),
    (retrieval, "retrieval_report", "retrieval.retrieval_report"),
]
METHODS = [
    (collective.FockBasis, "__init__", "collective.FockBasis"),
    (geometry.ArrayGeometry, "positions", "geometry.positions"),
]
# Modules whose solve_ivp results give the RHS-evaluation counters.
SOLVER_MODULES = [(lindblad, "lindblad.rhs_evals"), (goat, "goat.rhs_evals"),
                  (pipeline, "pipeline.rhs_evals")]
RHS_COUNTERS = [n for _, n in SOLVER_MODULES]
DUP_TRACKED = ("pipeline.closing_kernel", "retrieval.coupling_matrix")

SPAN_NAMES = ["op"] + [n for _, _, n in FUNCTIONS] + [n for _, _, n in METHODS]
COUNTERS = RHS_COUNTERS + ["lindblad.stack_bytes"]


def per_layer_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a fixed order."""
    names = []
    for span in SPAN_NAMES[1:]:
        names += [span + ".calls", span + ".self_s"]
        if span in DUP_TRACKED:
            names.append(span + ".dup_ratio")
    return names + COUNTERS + ["op.self_s"]


def _fingerprint(value) -> str:
    """Content key of an argument, for the repeated-input ratio."""
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        digest = hashlib.sha1(data.tobytes()).hexdigest()
        return f"array{data.shape}{data.dtype}:{digest}"
    if isinstance(value, collective.FockBasis):
        return f"FockBasis({value.trunc!r})"
    return repr(value)


def seqphoton_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "seqphoton"
                                  or name.startswith("seqphoton."))]


class Tracer:
    """Context manager that traces ops while installed.

    Call `begin_op(op_id)` / `end_op()` around each op; wrappers record
    spans only between them."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.op = array("i")
        self.parent = array("i")
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.ops = 0
        self._seen = defaultdict(set)
        self.dups = defaultdict(int)
        self._stack: list[list] = []   # [span id, child time]
        self._op_id = -1
        self._patches: list[tuple[object, str, object]] = []

    # span bookkeeping -------------------------------------------------------

    def _open(self, name_id: int) -> int:
        span = len(self.name)
        self.op.append(self._op_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(name_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append([span, 0.0])
        return span

    def _close(self) -> None:
        now = time.perf_counter()
        span, child = self._stack.pop()
        self.end[span] = now
        duration = now - self.start[span]
        name = self.names[self.name[span]]
        self.calls[name] += 1
        self.self_s[name] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    def begin_op(self, op_id: int) -> None:
        self._op_id = op_id
        self._open(self._name_id["op"])

    def end_op(self) -> None:
        while self._stack:
            self._close()
        self.ops += 1
        self._op_id = -1

    # wrappers ---------------------------------------------------------------

    def _wrap(self, fn, name: str):
        name_id = self._name_id[name]
        signature = inspect.signature(fn) if name in DUP_TRACKED else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op_id < 0:
                return fn(*args, **kwargs)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                key = tuple(_fingerprint(v) for v in bound.arguments.values())
                if key in tracer._seen[name]:
                    tracer.dups[name] += 1
                tracer._seen[name].add(key)
            if name == "lindblad.propagate_stack":
                rhos = np.asarray(args[2] if len(args) > 2 else kwargs["rhos"])
                tracer.counters["lindblad.stack_bytes"] = max(
                    tracer.counters["lindblad.stack_bytes"], rhos.size * 16)
            tracer._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close()

        return traced

    def _wrap_solver(self, fn, counter: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            sol = fn(*args, **kwargs)
            if tracer._op_id >= 0:
                tracer.counters[counter] += sol.nfev
            return sol

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        modules = seqphoton_modules()
        for owner, attr, name in FUNCTIONS:
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for cls, attr, name in METHODS:
            self._patch(cls, attr, self._wrap(cls.__dict__[attr], name))
        for module, counter in SOLVER_MODULES:
            self._patch(module, "solve_ivp",
                        self._wrap_solver(module.solve_ivp, counter))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-op averages of calls and self time, counters per op (stack
        bytes as a maximum), and repeated-input ratios."""
        ops = max(self.ops, 1)
        out = {}
        for span in SPAN_NAMES[1:]:
            out[span + ".calls"] = self.calls[span] / ops
            out[span + ".self_s"] = self.self_s[span] / ops
            if span in DUP_TRACKED:
                calls = self.calls[span]
                out[span + ".dup_ratio"] = self.dups[span] / calls if calls else 0.0
        for counter in COUNTERS:
            value = self.counters[counter]
            out[counter] = value if counter == "lindblad.stack_bytes" else value / ops
        out["op.self_s"] = self.self_s["op"] / ops
        return out

    def write(self, path: str) -> None:
        """Write the span tree as gzipped columnar JSON."""
        doc = {"names": self.names, "op": self.op.tolist(),
               "parent": self.parent.tolist(), "name": self.name.tolist(),
               "start": self.start.tolist(), "end": self.end.tolist()}
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh, separators=(",", ":"))
