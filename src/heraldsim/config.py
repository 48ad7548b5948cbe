"""Run-configuration files for the command line.

A run configuration is one JSON document with optional sections; every
omitted value falls back to the measured operating point baked into
`ProtocolConfig` and `reference_assignment`, so an empty document (or no
--config at all) reproduces the headline analytic numbers.  Unknown
sections or keys, and non-finite numbers, are rejected.  `sampling.shots`
is validated and echoed but inert: `protocol` samples only with --shots.

Schema (all angles in radians, times in microseconds):

    {
      "preparation":  {"theta_a", "phi_a", "theta_b", "phi_b", "phi_off"},
      "decoherence":  {"t2e_a", "t2e_b", "t_seq"},
      "detector":     {"round1": {"p_dark", "p_real"},
                       "round2": {"p_dark", "p_real"}},
      "loss":         {"eta"},
      "timing":       {"t_rep", "p_init"},
      "sampling":     {"shots", "seed"},
      "tomography":   {"assignment": [[4x4 rows]]} or {"assignment_path": "..."}
    }
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, replace
from math import isfinite
from operator import attrgetter
from pathlib import Path

from . import qmath
from .protocol import ProtocolConfig
from .qmath import ValidationError, is_int
from .tomography import (
    AssignmentMatrix,
    assignment_from_json,
    json_numbers,
    reference_assignment,
)


class ConfigError(ValueError):
    """The run configuration is malformed (exit code 2 territory)."""


def check_shots(shots, name: str) -> None:
    """Shot counts are positive integers, in a config file or on the CLI."""
    if not is_int(shots) or shots < 1:
        raise ConfigError(f"{name} must be a positive integer")


def check_seed(seed, name: str) -> None:
    """`qmath.check_seed` as a usage error, in a config file or on the CLI."""
    try:
        qmath.check_seed(seed, name)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


@dataclass(frozen=True)
class SamplingSettings:
    shots: int = 200_000
    seed: int = 1

    def __post_init__(self):
        check_shots(self.shots, "sampling.shots")
        check_seed(self.seed, "sampling.seed")


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolConfig
    sampling: SamplingSettings
    assignment: AssignmentMatrix


# Config-file path -> ProtocolConfig field; a dotted field names an attribute
# of a nested value (the per-round click models).
PROTOCOL_FIELDS = {
    "preparation.theta_a": "theta_a",
    "preparation.phi_a": "phi_a",
    "preparation.theta_b": "theta_b",
    "preparation.phi_b": "phi_b",
    "preparation.phi_off": "phi_off",
    "decoherence.t2e_a": "t2e_a",
    "decoherence.t2e_b": "t2e_b",
    "decoherence.t_seq": "t_seq",
    **{
        f"detector.{rnd}.{key}": f"{rnd}.{key}"
        for rnd in ("round1", "round2")
        for key in ("p_dark", "p_real")
    },
    "loss.eta": "eta_loss",
    "timing.t_rep": "t_rep",
    "timing.p_init": "p_init",
}
_SAMPLING_KEYS = tuple(f"sampling.{f.name}" for f in fields(SamplingSettings))
_ASSIGNMENT, _ASSIGNMENT_PATH = "tomography.assignment", "tomography.assignment_path"
_ALLOWED = (*PROTOCOL_FIELDS, *_SAMPLING_KEYS, _ASSIGNMENT, _ASSIGNMENT_PATH)


def _leaves(doc, prefix: str = "") -> dict:
    """Flatten a config document to {dotted path: value}, rejecting unknown keys."""
    section = prefix.rstrip(".") or "top level"
    if not isinstance(doc, dict):
        what = "config document" if not prefix else f"section {section!r}"
        raise ConfigError(f"{what} must be a JSON object")
    allowed = {path[len(prefix):].split(".")[0] for path in _ALLOWED if path.startswith(prefix)}
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}; "
            f"allowed: {sorted(allowed)}"
        )
    flat = {}
    for key, value in doc.items():
        path = prefix + key
        if path in _ALLOWED:
            flat[path] = value
        else:
            flat.update(_leaves(value, path + "."))
    return flat


def _replace_fields(obj, values: dict):
    """dataclasses.replace that follows dotted field names into nested values."""
    nested, direct = {}, {}
    for name, value in values.items():
        head, _, rest = name.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            direct[head] = value
    for head, sub in nested.items():
        try:
            direct[head] = _replace_fields(getattr(obj, head), sub)
        except ValueError as exc:
            raise ConfigError(f"{head}: {exc}") from exc
    return replace(obj, **direct)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Parse and validate a configuration file; None loads pure defaults."""
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    flat = _leaves(doc)

    values = {}
    for key, name in PROTOCOL_FIELDS.items():
        if key in flat:
            v = flat[key]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigError(f"{key} must be a number")
            try:
                values[name] = float(v)
            except OverflowError as exc:
                raise ConfigError(f"{key}: {exc}") from exc
            if not isfinite(values[name]):
                raise ConfigError(f"{key} must be finite, got {v!r}")
    try:
        protocol_config = _replace_fields(ProtocolConfig(), values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sampling = SamplingSettings(
        **{key.split(".")[1]: flat[key] for key in _SAMPLING_KEYS if key in flat}
    )

    if _ASSIGNMENT in flat and _ASSIGNMENT_PATH in flat:
        raise ConfigError(f"give either {_ASSIGNMENT} or {_ASSIGNMENT_PATH}")
    try:
        if _ASSIGNMENT in flat:
            assignment = AssignmentMatrix(json_numbers(flat[_ASSIGNMENT], "values"))
        elif _ASSIGNMENT_PATH in flat:
            assignment = assignment_from_json(Path(flat[_ASSIGNMENT_PATH]).read_text())
        else:
            assignment = reference_assignment()
    except (ValueError, TypeError, OSError) as exc:
        key = _ASSIGNMENT_PATH if _ASSIGNMENT_PATH in flat else _ASSIGNMENT
        raise ConfigError(f"{key}: {exc}") from exc

    return RunConfig(protocol_config, sampling, assignment)


def _nest(flat: dict) -> dict:
    """{dotted path: value} -> nested sections."""
    doc = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = doc
        for s in sections:
            node = node.setdefault(s, {})
        node[key] = value
    return doc


def resolved_config_doc(run: RunConfig) -> dict:
    """Fully materialized configuration (defaults included) for provenance."""
    flat = {key: attrgetter(name)(run.protocol) for key, name in PROTOCOL_FIELDS.items()}
    flat.update({key: getattr(run.sampling, key.split(".")[1]) for key in _SAMPLING_KEYS})
    flat[_ASSIGNMENT] = [list(row) for row in run.assignment.a]
    return _nest(flat)
