"""Run-configuration files for the command line.

A run configuration is one JSON document with optional sections; every
omitted value falls back to the measured operating point baked into
`ProtocolConfig` and `reference_assignment`, so an empty document (or no
--config at all) reproduces the headline analytic numbers.  Unknown
sections or keys are rejected rather than ignored.

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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .detector import DetectorRoundParams
from .protocol import ProtocolConfig
from .tomography import (
    AssignmentMatrix,
    assignment_from_json,
    reference_assignment,
)


class ConfigError(ValueError):
    """The run configuration is malformed (exit code 2 territory)."""


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def check_shots(shots, name: str) -> None:
    """Shot counts are positive integers, in a config file or on the CLI."""
    if not _is_int(shots) or shots < 1:
        raise ConfigError(f"{name} must be a positive integer")


def check_seed(seed, name: str) -> None:
    """Seeds are non-negative integers, in a config file or on the CLI."""
    if not _is_int(seed) or seed < 0:
        raise ConfigError(f"{name} must be a non-negative integer")


@dataclass(frozen=True)
class SamplingSettings:
    shots: int = 200_000
    seed: int = 1


@dataclass(frozen=True)
class RunConfig:
    protocol: ProtocolConfig
    sampling: SamplingSettings
    assignment: AssignmentMatrix


def _check_keys(section: str, doc: dict, allowed: set[str]) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) {sorted(unknown)} in section {section!r}; "
            f"allowed: {sorted(allowed)}"
        )


def _number(section: str, doc: dict, key: str, default: float) -> float:
    v = doc.get(key, default)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        raise ConfigError(f"{section}.{key} must be a number")
    return float(v)


def load_run_config(path: str | Path | None) -> RunConfig:
    """Parse and validate a configuration file; None loads pure defaults."""
    doc = {}
    if path is not None:
        try:
            doc = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    _check_keys(
        "top level",
        doc,
        {
            "preparation",
            "decoherence",
            "detector",
            "loss",
            "timing",
            "sampling",
            "tomography",
        },
    )
    base = ProtocolConfig()

    prep = doc.get("preparation", {})
    _check_keys("preparation", prep, {"theta_a", "phi_a", "theta_b", "phi_b", "phi_off"})
    deco = doc.get("decoherence", {})
    _check_keys("decoherence", deco, {"t2e_a", "t2e_b", "t_seq"})
    det = doc.get("detector", {})
    _check_keys("detector", det, {"round1", "round2"})
    rounds = {}
    for name, default in (("round1", base.round1), ("round2", base.round2)):
        sub = det.get(name, {})
        _check_keys(f"detector.{name}", sub, {"p_dark", "p_real"})
        try:
            rounds[name] = DetectorRoundParams(
                p_dark=_number(name, sub, "p_dark", default.p_dark),
                p_real=_number(name, sub, "p_real", default.p_real),
            )
        except ValueError as exc:
            raise ConfigError(f"detector.{name}: {exc}") from exc
    loss = doc.get("loss", {})
    _check_keys("loss", loss, {"eta"})
    timing = doc.get("timing", {})
    _check_keys("timing", timing, {"t_rep", "p_init"})

    try:
        protocol_config = replace(
            base,
            theta_a=_number("preparation", prep, "theta_a", base.theta_a),
            phi_a=_number("preparation", prep, "phi_a", base.phi_a),
            theta_b=_number("preparation", prep, "theta_b", base.theta_b),
            phi_b=_number("preparation", prep, "phi_b", base.phi_b),
            phi_off=_number("preparation", prep, "phi_off", base.phi_off),
            t2e_a=_number("decoherence", deco, "t2e_a", base.t2e_a),
            t2e_b=_number("decoherence", deco, "t2e_b", base.t2e_b),
            t_seq=_number("decoherence", deco, "t_seq", base.t_seq),
            round1=rounds["round1"],
            round2=rounds["round2"],
            eta_loss=_number("loss", loss, "eta", base.eta_loss),
            t_rep=_number("timing", timing, "t_rep", base.t_rep),
            p_init=_number("timing", timing, "p_init", base.p_init),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    sampling_doc = doc.get("sampling", {})
    _check_keys("sampling", sampling_doc, {"shots", "seed"})
    shots = sampling_doc.get("shots", SamplingSettings.shots)
    seed = sampling_doc.get("seed", SamplingSettings.seed)
    check_shots(shots, "sampling.shots")
    check_seed(seed, "sampling.seed")

    tomo = doc.get("tomography", {})
    _check_keys("tomography", tomo, {"assignment", "assignment_path"})
    if "assignment" in tomo and "assignment_path" in tomo:
        raise ConfigError("give either tomography.assignment or assignment_path")
    try:
        if "assignment" in tomo:
            assignment = AssignmentMatrix(np.asarray(tomo["assignment"], dtype=float))
        elif "assignment_path" in tomo:
            assignment = assignment_from_json(Path(tomo["assignment_path"]).read_text())
        else:
            assignment = reference_assignment()
    except (ValueError, OSError) as exc:
        raise ConfigError(f"tomography assignment: {exc}") from exc

    return RunConfig(protocol_config, SamplingSettings(shots, seed), assignment)


def resolved_config_doc(run: RunConfig) -> dict:
    """Fully materialized configuration (defaults included) for provenance."""
    p = run.protocol
    return {
        "preparation": {
            "theta_a": p.theta_a,
            "phi_a": p.phi_a,
            "theta_b": p.theta_b,
            "phi_b": p.phi_b,
            "phi_off": p.phi_off,
        },
        "decoherence": {"t2e_a": p.t2e_a, "t2e_b": p.t2e_b, "t_seq": p.t_seq},
        "detector": {
            "round1": {"p_dark": p.round1.p_dark, "p_real": p.round1.p_real},
            "round2": {"p_dark": p.round2.p_dark, "p_real": p.round2.p_real},
        },
        "loss": {"eta": p.eta_loss},
        "timing": {"t_rep": p.t_rep, "p_init": p.p_init},
        "sampling": {"shots": run.sampling.shots, "seed": run.sampling.seed},
        "tomography": {"assignment": [list(row) for row in run.assignment.a]},
    }
