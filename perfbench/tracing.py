"""Span tracer installed around spinsim's public calls from outside the package.

Coarse calls get one span each, carrying its parent. Hot calls are folded
into a count plus total time per enclosing span (and per enclosing hot
call), because one span per ``StateVector.apply_gate`` call, about 138k per
NMR program, would dominate memory. A frame's self time is its duration
minus the part its children cover, so the self times of every span and
every folded call under an operation's root span add up to the root's
duration.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from contextlib import contextmanager

#: One span per call.
SPANNED = (
    ("spinsim.cli", "main", "cli.main"),
    ("spinsim.experiments", "run_grover", "run_grover"),
    ("spinsim.experiments", "write_trajectory_csv", "write_trajectory_csv"),
    ("spinsim.config", "parse_config", "parse_config"),
    ("spinsim.propagator", "run_sequence", "run_sequence"),
    ("spinsim.propagator", "evolve_eo", "evolve_eo"),
    ("spinsim.propagator", "symmetrized_step", "symmetrized_step"),
    ("spinsim.propagator", "auto_substeps", "auto_substeps"),
    ("spinsim.pulses", "make_profile", "make_profile"),
    ("spinsim.pulses", "grover_program", "grover_program"),
)

#: Folded into a count and total per enclosing span.
AGGREGATED = (("spinsim.propagator", "global_half_pi_rotation", "global_half_pi_rotation"),)
AGGREGATED_METHODS = (
    ("spinsim.state", "StateVector", "apply_gate", "apply_gate"),
    ("spinsim.state", "StateVector", "observables", "observables"),
)

INTEGRATOR_SPANS = ("evolve_eo", "symmetrized_step")

#: Unit of every per-layer metric, in report order.
LAYER_UNITS = {
    "cli.self_s": "s",
    "config.parse_s": "s",
    "pulses.make_profile_s": "s",
    "pulses.grover_program_s": "s",
    "propagator.substeps": "count",
    "propagator.diagonal_sweeps": "count",
    "propagator.global_rotations": "count",
    "propagator.gate_kernel_calls": "count",
    "propagator.pair_terms": "count",
    "propagator.field_terms": "count",
    "propagator.evolve_self_s": "s",
    "propagator.us_per_substep": "us",
    "propagator.rotation_s": "s",
    "propagator.step_s": "s",
    "propagator.sweep_s": "s",
    "propagator.auto_substeps_s": "s",
    "propagator.bytes_per_substep_computed": "B",
    "state.apply_gate_calls": "count",
    "state.apply_gate_s": "s",
    "state.observables_calls": "count",
    "state.observables_us_per_call": "us",
    "experiments.samples": "count",
    "experiments.csv_bytes": "B",
    "experiments.csv_write_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.self_time_coverage": "ratio",
}


def _substeps(args, kwargs, result):
    plan = kwargs.get("plan", args[3] if len(args) > 3 else None)
    if plan is None:  # evolve_eo plans for itself; ask the unwrapped planner
        from spinsim import propagator

        plan = propagator.auto_substeps.__wrapped__(args[1] if len(args) > 1 else kwargs["eo"])
    return {"substeps": plan.m}


def _csv_path(args, kwargs):
    return args[0] if args else kwargs["path"]


#: Facts a span records about its call, taken after the call returns.
NOTES = {
    "evolve_eo": _substeps,
    "symmetrized_step": lambda args, kwargs, result: {"substeps": 1},
    "run_sequence": lambda args, kwargs, result: {"samples": len(result[1])},
    "write_trajectory_csv": lambda args, kwargs, result: {
        "bytes": os.path.getsize(_csv_path(args, kwargs))
    },
}


class Tracer:
    """Records spans and folded hot calls while installed.

    ``spans`` holds dicts with name, parent (index or None), start, end,
    self and any notes; ``aggregates`` maps (enclosing span index, enclosing
    hot call name or None, name) to [count, total seconds, self seconds].
    """

    def __init__(self):
        self.spans: list = []
        self.aggregates: dict = {}
        self._stack: list = []  # frames: [span index, hot call name or None, child seconds]
        self._undo: list = []

    # -- installation -------------------------------------------------

    def install(self) -> None:
        import importlib

        for mod_name, attr, label in SPANNED:
            orig = getattr(importlib.import_module(mod_name), attr)
            self._rebind(orig, self._span_wrapper(label, orig, NOTES.get(label)))
        for mod_name, attr, label in AGGREGATED:
            orig = getattr(importlib.import_module(mod_name), attr)
            self._rebind(orig, self._aggregate_wrapper(label, orig))
        for mod_name, cls_name, attr, label in AGGREGATED_METHODS:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, self._aggregate_wrapper(label, orig))
            self._undo.append((cls, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _rebind(self, orig, wrapper) -> None:
        """Replace every module-level binding of ``orig`` inside spinsim."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "spinsim" or mod_name.startswith("spinsim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._undo.append((mod, key, orig))

    # -- recording ----------------------------------------------------

    @contextmanager
    def root(self, name: str, **notes):
        """Span around one benchmark operation; everything traced nests under it."""
        rec = {"name": name, "parent": None, **notes}
        frame = [len(self.spans), None, 0.0]
        self.spans.append(rec)
        self._stack.append(frame)
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            end = time.perf_counter()
            self._stack.pop()
            rec["end"] = end
            rec["self"] = end - rec["start"] - frame[2]

    def _span_wrapper(self, label, fn, note):
        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            rec = {"name": label, "parent": stack[-1][0]}
            frame = [len(spans), None, 0.0]
            spans.append(rec)
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                stack[-1][2] += end - start
                rec["start"], rec["end"], rec["self"] = start, end, end - start - frame[2]
            if note is not None:
                rec.update(note(args, kwargs, result))
            return result

        return traced

    def _aggregate_wrapper(self, label, fn):
        stack, aggregates, clock = self._stack, self.aggregates, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [parent[0], label, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                parent[2] += dur
                key = (parent[0], parent[1], label)
                agg = aggregates.get(key)
                if agg is None:
                    aggregates[key] = [1, dur, dur - frame[2]]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[2]

        return traced


def layer_metrics(tracer: Tracer, counters: dict, L: int) -> dict:
    """Per-layer numbers of one pass, from its spans, folded calls and kernel counters.

    ``counters`` sums ``spinsim.propagator.counters`` over the pass's
    operations. Times are seconds unless the name says otherwise.
    """
    spans = tracer.spans

    def duration(name):
        return sum((s["end"] - s["start"] for s in spans if s["name"] == name), 0.0)

    def self_time(name):
        return sum((s["self"] for s in spans if s["name"] == name), 0.0)

    def noted(name, key):
        return sum(s.get(key, 0) for s in spans if s["name"] == name)

    integrator = {i for i, s in enumerate(spans) if s["name"] in INTEGRATOR_SPANS}
    calls: dict = {}
    rotation_in_integrator = 0.0
    for (span_idx, hot_parent, name), (count, tot, _) in tracer.aggregates.items():
        c = calls.setdefault(name, [0, 0.0])
        c[0] += count
        c[1] += tot
        if name == "global_half_pi_rotation" and span_idx in integrator and hot_parent is None:
            rotation_in_integrator += tot
    integrator_self = sum(spans[i]["self"] for i in integrator)
    # stepping: the integrator calls minus the sampling, planning and other
    # spans nested in them; rotations are part of a step
    step_s = integrator_self + rotation_in_integrator
    substeps = sum(s.get("substeps", 0) for s in spans)
    gate_calls, gate_s = calls.get("apply_gate", [0, 0.0])
    obs_calls, obs_s = calls.get("observables", [0, 0.0])
    roots = [s for s in spans if s["parent"] is None]
    root_s = sum(s["end"] - s["start"] for s in roots)
    self_s = sum(s["self"] for s in spans) + sum(a[2] for a in tracer.aggregates.values())
    passes = counters["diagonal_sweeps"] + counters["gate_kernel_calls"]
    return {
        "cli.self_s": self_time("cli.main"),
        "config.parse_s": duration("parse_config"),
        "pulses.make_profile_s": duration("make_profile"),
        "pulses.grover_program_s": duration("grover_program"),
        "propagator.substeps": substeps,
        "propagator.diagonal_sweeps": counters["diagonal_sweeps"],
        "propagator.global_rotations": counters["global_rotations"],
        "propagator.gate_kernel_calls": counters["gate_kernel_calls"],
        "propagator.pair_terms": counters["pair_terms"],
        "propagator.field_terms": counters["field_terms"],
        "propagator.evolve_self_s": self_time("evolve_eo"),
        "propagator.us_per_substep": 1e6 * step_s / substeps if substeps else 0.0,
        "propagator.rotation_s": calls.get("global_half_pi_rotation", [0, 0.0])[1],
        "propagator.step_s": step_s,
        "propagator.sweep_s": integrator_self,
        "propagator.auto_substeps_s": duration("auto_substeps"),
        # one read and one write of the 16-byte amplitude vector per kernel
        # pass (diagonal sweep or gate kernel call); temporaries not counted
        "propagator.bytes_per_substep_computed": 32 * (1 << L) * passes / substeps if substeps else 0.0,
        "state.apply_gate_calls": gate_calls,
        "state.apply_gate_s": gate_s,
        "state.observables_calls": obs_calls,
        "state.observables_us_per_call": 1e6 * obs_s / obs_calls if obs_calls else 0.0,
        "experiments.samples": noted("run_sequence", "samples"),
        "experiments.csv_bytes": noted("write_trajectory_csv", "bytes"),
        "experiments.csv_write_s": duration("write_trajectory_csv"),
        "trace.wall_s": root_s,
        "trace.self_time_coverage": self_s / root_s if root_s else 0.0,
    }
