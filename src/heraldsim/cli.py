"""Command-line front end: run the protocol, sweeps, detector simulations
and tomography correction, emitting JSON scalars and CSV curves.

Every command is deterministic for a fixed (config, seed): repeated runs
produce byte-identical output files.  Exit codes: 0 success, 2 for
configuration or usage errors, 3 for numerical failures or unallocatable runs.

Environment: HERALDSIM_CONFIG_DIR supplies the directory for bare
--config file names.

Every value a command will use is checked before any computation: a
config value or sweep point that `ProtocolConfig` rejects, a non-finite
detector pulse start or sweep bound, a pulse that ends by the photon
release at t = 0, or a flag the chosen mode would ignore (`--shots-out`
without `--shots`, `detector-sim --from/--to/--points` without `--sweep`,
`--traces-out` with it), is a usage error (2).
`detector-sim` runs its sweep points as one batched integration.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from math import isfinite
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    check_seed,
    check_shots,
    load_run_config,
    resolved_config_doc,
)
from .lindblad import CascadedSystemParams, IntegrationError, pulse_sweep, simulate
from .protocol import (
    SWEEPABLE_AXES,
    click_probabilities,
    run_control,
    run_two_rounds,
    success_rate,
    sweep_preparation,
)
from .qmath import (
    PAULI_LABELS,
    ValidationError,
    bell_odd_minus,
    bell_odd_plus,
    concurrence,
    pauli_decompose,
    state_fidelity,
)
from .sampler import aggregate, sample_shots, write_shots_csv
from .tomography import (
    assignment_from_json,
    counts_from_json,
    fidelity_with_errors,
    reconstruct_pauli,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

BRANCH_NAMES = {
    (True, True): "click_click",
    (True, False): "click_noclick",
    (False, True): "noclick_click",
    (False, False): "noclick_noclick",
}


def _resolve_config_path(name: str | None) -> str | None:
    if name is None:
        return None
    p = Path(name)
    if not p.exists():
        env_dir = os.environ.get("HERALDSIM_CONFIG_DIR")
        if env_dir and (Path(env_dir) / name).exists():
            return str(Path(env_dir) / name)
    return str(p)


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _emit(doc: dict, out: str | None) -> None:
    _write(json.dumps(doc, indent=2, sort_keys=True) + "\n", out)


def _pauli_doc(pauli) -> dict:
    doc = {"labels": list(PAULI_LABELS), "components": [float(c) for c in pauli.components]}
    if pauli.sigma is not None:
        doc["sigma"] = [float(s) for s in pauli.sigma]
    return doc


def cmd_protocol(args) -> int:
    if args.shots is not None:
        check_shots(args.shots, "--shots")
    elif args.shots_out:
        raise ConfigError("--shots-out needs --shots")
    elif args.seed is not None:
        raise ConfigError("--seed needs --shots")
    if args.seed is not None:
        check_seed(args.seed, "--seed")
    run = load_run_config(_resolve_config_path(args.config))
    cfg = run.protocol
    table = run_two_rounds(cfg)

    odd_plus = bell_odd_plus()
    doc = {
        "schema_version": SCHEMA_VERSION,
        "version": __version__,
        "config": resolved_config_doc(run),
        "mode": "analytic" if args.shots is None else "monte_carlo",
        "outcome_probabilities": {
            name: table.probability(*key) for key, name in BRANCH_NAMES.items()
        },
        "branches": {},
    }
    for key, name in BRANCH_NAMES.items():
        state = table.state(*key)
        if state is None:
            doc["branches"][name] = None
            continue
        doc["branches"][name] = {
            "pauli": _pauli_doc(pauli_decompose(state)),
            "fidelity_odd_plus": state_fidelity(state, odd_plus),
            "concurrence": concurrence(state),
        }
    heralded = table.state(True, True)
    if heralded is not None:
        doc["fidelity_theory"] = state_fidelity(heralded, odd_plus)
        doc["concurrence_theory"] = concurrence(heralded)

    rate = success_rate(cfg, *click_probabilities(table))
    doc["success"] = {
        "p_click1": rate.p_click1,
        "p_click2_given_click1": rate.p_click2_given_click1,
        "p_success": rate.p_success,
        "rate_per_s": rate.rate_per_s,
    }

    if args.shots is not None:
        seed = run.sampling.seed if args.seed is None else args.seed
        shots = sample_shots(cfg, args.shots, seed, assignment=run.assignment, table=table)
        summary, pauli = aggregate(shots, assignment=run.assignment)
        mc = {
            "shots": summary.shots,
            "seed": seed,
            "post_selected": summary.post_selected,
            "p_init_hat": summary.p_init_hat.value,
            "p_init_sigma": summary.p_init_hat.sigma,
            "p_click1_hat": summary.p_click1_hat.value,
            "p_click1_sigma": summary.p_click1_hat.sigma,
            "p_click2_hat": summary.p_click2_hat.value,
            "p_click2_sigma": summary.p_click2_hat.sigma,
        }
        if pauli is not None:
            res = fidelity_with_errors(pauli, odd_plus)
            mc["pauli"] = _pauli_doc(pauli)
            mc["fidelity"] = res.fidelity
            mc["fidelity_sigma"] = res.sigma_fidelity
            mc["concurrence"] = res.concurrence
            mc["concurrence_sigma"] = res.sigma_concurrence
            mc["reconstruction_physical"] = res.physical
        doc["monte_carlo"] = mc
        if args.shots_out:
            write_shots_csv(shots, args.shots_out)

    if args.control:
        ctrl = run_control(cfg)
        doc["control"] = {
            "pauli": _pauli_doc(pauli_decompose(ctrl)),
            "concurrence": concurrence(ctrl),
        }

    _emit(doc, args.out)
    return EXIT_OK


def _sweep_values(start: float, stop: float, points: int) -> np.ndarray:
    if not (isfinite(start) and isfinite(stop) and isfinite(stop - start)):
        raise ConfigError(f"--from {start!r} and --to {stop!r} must be finite")
    return np.linspace(start, stop, points)


def cmd_sweep(args) -> int:
    run = load_run_config(_resolve_config_path(args.config))
    if args.points < 1:
        raise ConfigError("--points must be at least 1")
    if args.axis not in SWEEPABLE_AXES:
        raise ConfigError(f"--axis must be one of {', '.join(SWEEPABLE_AXES)}")
    values = _sweep_values(args.start, args.stop, args.points)
    for v in (*values, args.stop):
        try:
            replace(run.protocol, **{args.axis: float(v)})
        except ValueError as exc:
            raise ConfigError(f"sweep point {args.axis}={float(v)!r}: {exc}") from exc
    points = sweep_preparation(run.protocol, args.axis, values)

    lines = [args.axis + "," + ",".join(PAULI_LABELS) + ",probability"]
    for pt in points:
        comps = (
            ["nan"] * 16
            if pt.pauli is None
            else [repr(float(c)) for c in pt.pauli.components]
        )
        lines.append(",".join([repr(pt.value)] + comps + [repr(pt.probability)]))
    _write("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _check_pulse_start(start: float, length: float, name: str) -> None:
    # such a pulse measures nothing, after one pre-roll RK4 step per ns
    if not start + length > 0.0:
        raise ConfigError(f"{name} {start!r} ns: pulse ends before the photon release at t = 0")


def _detector_params(args) -> CascadedSystemParams:
    params = CascadedSystemParams()
    if args.pulse_start is not None:
        if not isfinite(args.pulse_start):
            raise ConfigError(f"--pulse-start must be finite, got {args.pulse_start!r}")
        _check_pulse_start(args.pulse_start, params.pulse.total_length, "--pulse-start")
        params = replace(params, pulse=replace(params.pulse, start_time=args.pulse_start))
    return params


def _check_t_total(t_total: float, pulse_end: float) -> None:
    # p_click is the excited population after the pulse, so the window must
    # hold the whole pulse
    if not (isfinite(t_total) and t_total > 0.0):
        raise ConfigError(f"--t-total must be a positive number of ns, got {t_total!r}")
    if t_total < pulse_end:
        raise ConfigError(
            f"--t-total {t_total!r} ns ends before the pulse does ({pulse_end!r} ns)"
        )


def cmd_detector_sim(args) -> int:
    # a flag the chosen mode would ignore is a usage error, not a no-op
    if args.sweep is None:
        range_flags = {"--from": args.start, "--to": args.stop, "--points": args.points}
        for flag, value in range_flags.items():
            if value is not None:
                raise ConfigError(f"{flag} needs --sweep")
    elif args.traces_out:
        raise ConfigError("--traces-out writes one run's traces; it cannot be used with --sweep")
    params = _detector_params(args)
    pulse_end = params.pulse.start_time + params.pulse.total_length

    if args.sweep is not None:
        if args.points is None or args.points < 2:
            raise ConfigError("--points must be at least 2 for a sweep")
        values = _sweep_values(args.start, args.stop, args.points)
        if args.sweep == "delay":
            _check_pulse_start(float(values.min()), params.pulse.total_length, "--sweep delay")
            pulse_end = float(values.max()) + params.pulse.total_length
        _check_t_total(args.t_total, pulse_end)
        p_clicks = pulse_sweep(
            params, args.sweep, values, initial_fock=args.fock,
            t_total=args.t_total,
        )
        lines = [f"{args.sweep},p_click"]
        for v, p in zip(values, p_clicks):
            lines.append(f"{float(v)!r},{float(p)!r}")
        _write("\n".join(lines) + "\n", args.out)
        return EXIT_OK

    _check_t_total(args.t_total, pulse_end)
    # one batch; the Fock run is first, so its failure is the one raised
    traces, dark = simulate([(params, args.fock), (params, 0)], t_total=args.t_total)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "backend": "numpy",  # schema version 1 field; one integrator remains
        "initial_fock": args.fock,
        "p_click": traces.p_click,
        "dark_count": dark.p_click,
        "guard_max": traces.guard_max,
        "trace_error": traces.trace_error,
        "kappa_a_mhz": params.kappa_a,
        "kappa_d_mhz": params.kappa_d,
        "chi_d_mhz": params.chi_d,
        "detuning_mhz": params.detuning,
        "pulse": {
            "sigma_ns": params.pulse.sigma,
            "total_length_ns": params.pulse.total_length,
            "start_time_ns": params.pulse.start_time,
        },
    }
    if args.traces_out:
        traces.write_csv(args.traces_out)
    _emit(doc, args.out)
    return EXIT_OK


def cmd_tomo(args) -> int:
    try:
        counts = counts_from_json(Path(args.counts).read_text())
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"counts file: {exc}") from exc
    try:
        cal = assignment_from_json(Path(args.cal).read_text())
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"calibration file: {exc}") from exc

    target = bell_odd_plus() if args.target == "odd_plus" else bell_odd_minus()
    pauli = reconstruct_pauli(counts, cal)
    result = fidelity_with_errors(pauli, target)
    doc = {
        "schema_version": SCHEMA_VERSION,
        "target": args.target,
        "pauli": _pauli_doc(pauli),
        "fidelity": result.fidelity,
        "fidelity_sigma": result.sigma_fidelity,
        "concurrence": result.concurrence,
        "concurrence_sigma": result.sigma_concurrence,
        "reconstruction_physical": result.physical,
    }
    _emit(doc, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heraldsim",
        description="Simulator of photon-heralded remote entanglement "
        "between two stationary qubits.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("protocol", help="run the two-round protocol")
    p.add_argument("--config", help="JSON run configuration")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--analytic", action="store_true", help="analytic only (default)")
    mode.add_argument("--shots", type=int, help="Monte Carlo shot count")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--control", action="store_true", help="include the no-photon control run")
    p.add_argument("--shots-out", help="write the per-shot CSV here")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_protocol)

    p = sub.add_parser("sweep", help="sweep one preparation axis")
    p.add_argument("--config", help="JSON run configuration")
    p.add_argument("--axis", required=True, help=f"one of {', '.join(SWEEPABLE_AXES)}")
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--out", help="output CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detector-sim", help="time-domain detector simulation")
    p.add_argument("--fock", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--sweep", choices=("detuning", "delay"))
    p.add_argument("--from", dest="start", type=float)
    p.add_argument("--to", dest="stop", type=float)
    p.add_argument("--points", type=int)
    p.add_argument("--pulse-start", type=float, help="override pulse start time (ns)")
    p.add_argument("--t-total", type=float, default=1500.0)
    p.add_argument("--traces-out", help="write the time-trace CSV here")
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=cmd_detector_sim)

    p = sub.add_parser("tomo", help="correct external tomography counts")
    p.add_argument("--counts", required=True, help="counts JSON file")
    p.add_argument("--cal", required=True, help="assignment-matrix JSON file")
    p.add_argument("--target", choices=("odd_plus", "odd_minus"), default="odd_plus")
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(func=cmd_tomo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "detector-sim" and args.sweep is not None:
        if args.start is None or args.stop is None:
            parser.error("--sweep needs --from and --to")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (IntegrationError, ValidationError, MemoryError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
