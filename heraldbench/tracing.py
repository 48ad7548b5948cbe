"""Spans around the public functions of each heraldsim layer.

Only the traced run installs wrappers.  Each function is wrapped at every
binding inside the `heraldsim` package that holds it (for example both
`heraldsim.cli.run_two_rounds` and `heraldsim.protocol.run_two_rounds`),
so a call from one layer into another becomes a child span.  A wrapper
records name, start, end and parent span, feeds the computed counts below,
and returns the original result untouched.

Computed counts (not measured inside the program):

* lindblad.rk4_steps: RK4 steps of every `cascaded_simulate` call, from its
  t_total, dt and pulse start, as the function derives them (pre-roll on
  the empty system when the pulse starts before t = 0, then the main window).
* lindblad.useful_steps: the steps up to the end of the selective pulse,
  after which the excited population no longer changes.
* sampler.csv_bytes / lindblad.traces_csv_bytes: size of each CSV written.
* sampler.shots: shots requested from `sample_shots`.
* sampler.post_selected / sampler.aggregated_shots: from `aggregate` results.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced function, by layer.
TRACED = (
    ("heraldsim.cli", "main"),
    ("heraldsim.protocol", "run_two_rounds"),
    ("heraldsim.protocol", "success_rate"),
    ("heraldsim.protocol", "sweep_preparation"),
    ("heraldsim.sampler", "sample_shots"),
    ("heraldsim.sampler", "aggregate"),
    ("heraldsim.sampler", "write_shots_csv"),
    ("heraldsim.tomography", "simulate_counts"),
    ("heraldsim.tomography", "reconstruct_pauli"),
    ("heraldsim.tomography", "fidelity_with_errors"),
    ("heraldsim.tomography", "bootstrap_errors"),
    ("heraldsim.lindblad", "cascaded_simulate"),
    ("heraldsim.lindblad", "pulse_sweep"),
    ("heraldsim.lindblad", "parameter_robustness"),
    ("heraldsim.lindblad", "TimeTraces.write_csv"),
    ("heraldsim.lindblad", "sideband_rabi"),
)


def span_name(module: str, attr: str) -> str:
    return module.removeprefix("heraldsim.") + "." + attr


def _cascade_steps(bound) -> dict:
    params, t_total, dt = bound["params"], bound["t_total"], bound["dt"]
    start, length = params.pulse.start_time, params.pulse.total_length
    t_min = min(0.0, start)
    n_pre = max(1, int(round(-t_min / dt))) if t_min < 0.0 else 0
    n_main = max(1, int(round(t_total / dt)))
    total = n_pre + n_main
    useful = min(total, max(0, math.ceil((start + length - t_min) / dt)))
    return {"lindblad.rk4_steps": total, "lindblad.useful_steps": useful}


def _csv_size(key: str, path_arg: str):
    def count(bound, result) -> dict:
        return {key: os.path.getsize(bound[path_arg])}
    return count


def _aggregate_counts(bound, result) -> dict:
    summary = result[0]
    return {"sampler.post_selected": summary.post_selected,
            "sampler.aggregated_shots": summary.shots}


# span name -> function of (bound arguments, result) giving computed counts
COUNTERS = {
    "lindblad.cascaded_simulate": lambda bound, result: _cascade_steps(bound),
    "sampler.sample_shots": lambda bound, result: {"sampler.shots": bound["n"]},
    "sampler.aggregate": _aggregate_counts,
    "sampler.write_shots_csv": _csv_size("sampler.csv_bytes", "path"),
    "lindblad.TimeTraces.write_csv": _csv_size("lindblad.traces_csv_bytes", "path"),
}


class Tracer:
    """In-memory spans of one round; `take_round` sums and clears them."""

    def __init__(self):
        self._installed = []        # (owner, attribute, original)
        self.absent = []            # traced names missing from this heraldsim
        self.counter_errors = []
        self._reset()

    def _reset(self):
        self.spans = []             # [name, parent index, start, end, child time]
        self._stack = []
        self.counts = defaultdict(float)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        span = [name, parent, time.perf_counter(), None, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()
        if span[1] is not None:
            self.spans[span[1]][4] += span[3] - span[2]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                self._count(counter, signature, args, kwargs, result)
            return result

        return traced

    def _count(self, counter, signature, args, kwargs, result) -> None:
        # a counter that no longer fits the program is reported, never
        # allowed to fail the op it observes
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            for key, value in counter(bound.arguments, result).items():
                self.counts[key] += value
        except Exception as exc:  # noqa: BLE001
            self.counter_errors.append(f"{type(exc).__name__}: {exc}")

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        self.absent = []
        for module_name, attr in TRACED:
            name = span_name(module_name, attr)
            try:
                owner = importlib.import_module(module_name)
            except ModuleNotFoundError:
                owner = None
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if path:    # a method: one binding, on its class
                self._bind(owner, leaf, original, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "heraldsim" or mod_name.startswith("heraldsim."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, key, original, wrapper)

    def _bind(self, owner, key, original, wrapper) -> None:
        setattr(owner, key, wrapper)
        self._installed.append((owner, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._installed):
            setattr(owner, key, original)
        self._installed = []

    # -- aggregation -------------------------------------------------------

    def take_round(self) -> dict:
        """Per-name calls and self time, and the counts, of the spans so far."""
        if self._stack:
            raise RuntimeError("take_round inside an open span")
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name, _, start, end, child in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - child
        out = {"calls": dict(calls), "self_s": dict(self_s), "counts": dict(self.counts)}
        self._reset()
        return out
