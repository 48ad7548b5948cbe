"""Op lists of the two workloads and the check of every op.

An op is one call a user of heraldsim makes: an in-process
`heraldsim.cli.main(argv)` command, or a short chain of public library
calls.  Every op writes its outputs into a per-op directory, and its
check reads them back after the timing stopped.  Library functions are
looked up through their module at call time, so that the wrappers the
traced run installs see every call.

Deterministic results are compared with `expected.json`, recorded at the
commit that introduced this benchmark; seeded Monte Carlo results are
checked statistically.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from heraldsim import cli, lindblad, protocol, qmath, tomography

EXPECTED = json.loads((Path(__file__).with_name("expected.json")).read_text())

MC_SHOTS = 200_000
TOMO_SHOTS_PER_SETTING = 10_000
BOOTSTRAP_RESAMPLES = 200
ROBUSTNESS_VARIATION = 0.2
DETECTOR_T_TOTAL = 1500.0
SIDEBAND_KAPPA = 0.9
SIDEBAND_ETA = 0.4
SIDEBAND_TIMES = np.arange(0.0, 2001.0, 1.0)
SWEEP_POINTS = 25
DETECTOR_SWEEP_POINTS = 6
REL_TOL = 1e-9
MC_SIGMAS = 5.0
# same window as tests/test_tomography.py::test_bootstrap_cross_check_agrees
BOOTSTRAP_RATIO = (0.5, 2.0)

# 25-point ranges inside each axis's valid domain (angles in rad, t_seq in us)
SWEEP_RANGES = {
    "theta_a": (0.0, 3.1416),
    "phi_a": (0.0, 6.2832),
    "theta_b": (0.0, 3.1416),
    "phi_b": (0.0, 6.2832),
    "phi_off": (0.0, 6.2832),
    "eta_loss": (0.05, 1.0),
    "t_seq": (0.5, 5.0),
}
DETECTOR_SWEEPS = {"delay": (-100.0, 200.0), "detuning": (-6.0, 1.0)}

# Every op kind, in the order the report lists them.  The latency metric of
# a kind is "<kind>_s".
OP_KINDS = (
    "protocol_mc",
    "shots_csv",
    "error_bars",
    "sweep",
    "protocol_analytic",
    "detector_sim",
    "detector_traces",
    "detector_sweep",
    "robustness",
    "sideband",
)

class CheckFailed(Exception):
    """An op ran but its output is wrong."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[Path], Any]           # performs the op, returns its raw result
    check: Callable[[Any, Path], None]   # raises CheckFailed on a wrong output
    argv: list[str] | None = None        # CLI ops: arguments, "{dir}" = the op dir

    def argv_in(self, opdir: Path) -> list[str]:
        return [a.replace("{dir}", str(opdir)) for a in self.argv]


def close(name: str, got: float, want: float) -> None:
    if not abs(got - want) <= REL_TOL * max(1.0, abs(want)):
        raise CheckFailed(f"{name}: got {got!r}, recorded {want!r}")


def close_all(name: str, got, want) -> None:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape:
        raise CheckFailed(f"{name}: shape {got.shape}, recorded {want.shape}")
    both_nan = np.isnan(got) & np.isnan(want)
    bad = ~both_nan & ~(np.abs(got - want) <= REL_TOL * np.maximum(1.0, np.abs(want)))
    if bad.any():
        i = np.flatnonzero(bad.ravel())[0]
        raise CheckFailed(
            f"{name}: {bad.sum()} values differ, first got {got.ravel()[i]!r} "
            f"recorded {want.ravel()[i]!r}"
        )


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    lines = path.read_text().splitlines()
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    return lines[0].split(","), np.array(rows)


def _cli_op(kind: str, label: str, argv: list[str], check) -> Op:
    def run(opdir: Path):
        return cli.main(op.argv_in(opdir))

    def checked(rc, opdir: Path):
        if rc != 0:
            raise CheckFailed(f"exit code {rc}")
        check(opdir)

    op = Op(kind, label, run, checked, argv)
    return op


# -- protocol ------------------------------------------------------------------

def _check_protocol_doc(doc: dict) -> None:
    want = EXPECTED["protocol"]
    close("fidelity_theory", doc["fidelity_theory"], want["fidelity_theory"])
    for name, p in want["outcome_probabilities"].items():
        close(f"outcome_probabilities.{name}", doc["outcome_probabilities"][name], p)


def protocol_analytic_op() -> Op:
    def check(opdir: Path):
        doc = json.loads((opdir / "out.json").read_text())
        _check_protocol_doc(doc)
        close_all("control.pauli", doc["control"]["pauli"]["components"],
                  EXPECTED["protocol"]["control_pauli"])

    return _cli_op(
        "protocol_analytic", "protocol --analytic --control",
        ["protocol", "--analytic", "--control", "--out", "{dir}/out.json"], check,
    )


def _check_mc(opdir: Path) -> dict:
    doc = json.loads((opdir / "out.json").read_text())
    _check_protocol_doc(doc)
    mc = doc["monte_carlo"]
    if mc["shots"] != MC_SHOTS:
        raise CheckFailed(f"monte_carlo.shots = {mc['shots']}")
    dev = abs(mc["fidelity"] - doc["fidelity_theory"])
    if not dev <= MC_SIGMAS * mc["fidelity_sigma"]:
        raise CheckFailed(
            f"MC fidelity {mc['fidelity']:.4f} is {dev / mc['fidelity_sigma']:.1f} "
            f"sigma from theory {doc['fidelity_theory']:.4f}"
        )
    return mc


def protocol_mc_op(seed: int) -> Op:
    return _cli_op(
        "protocol_mc", f"protocol --shots {MC_SHOTS} --seed {seed}",
        ["protocol", "--shots", str(MC_SHOTS), "--seed", str(seed),
         "--out", "{dir}/out.json"],
        _check_mc,
    )


def shots_csv_op(seed: int) -> Op:
    def check(opdir: Path):
        mc = _check_mc(opdir)
        # streamed line by line, so the check adds no memory to peak_rss_mb
        n_lines = heralded = 0
        with (opdir / "shots.csv").open() as fh:
            for line in fh:
                n_lines += 1
                heralded += line.split(",", 4)[1:4] == ["1", "1", "1"]
        if n_lines != MC_SHOTS + 1:
            raise CheckFailed(f"shots CSV has {n_lines} rows, expected {MC_SHOTS + 1}")
        if heralded != mc["post_selected"]:
            raise CheckFailed(
                f"shots CSV has {heralded} click-click rows, JSON post_selected "
                f"{mc['post_selected']}"
            )

    return _cli_op(
        "shots_csv", f"protocol --shots {MC_SHOTS} --seed {seed} --shots-out",
        ["protocol", "--shots", str(MC_SHOTS), "--seed", str(seed),
         "--out", "{dir}/out.json", "--shots-out", "{dir}/shots.csv"],
        check,
    )


def sweep_op(axis: str) -> Op:
    lo, hi = SWEEP_RANGES[axis]

    def check(opdir: Path):
        header, values = read_csv(opdir / "out.csv")
        if header[0] != axis:
            raise CheckFailed(f"sweep CSV header starts {header[0]!r}")
        close_all(f"sweep {axis}", values, EXPECTED["sweep"][axis])

    return _cli_op(
        "sweep", f"sweep --axis {axis}",
        ["sweep", "--axis", axis, "--from", repr(lo), "--to", repr(hi),
         "--points", str(SWEEP_POINTS), "--out", "{dir}/out.csv"],
        check,
    )


# -- tomography ------------------------------------------------------------------

@functools.cache
def heralded_state() -> qmath.DensityMatrix:
    """Click-click state at the default operating point, built once per process."""
    return protocol.run_two_rounds(protocol.ProtocolConfig()).state(True, True)


def error_bars_op(seed: int) -> Op:
    """simulate_counts -> reconstruct_pauli -> fidelity_with_errors -> bootstrap."""
    state = heralded_state()
    assignment = tomography.reference_assignment()
    target = qmath.bell_odd_plus()

    def run(opdir: Path):
        counts = tomography.simulate_counts(
            state, assignment, tomography.TomographySettings(TOMO_SHOTS_PER_SETTING),
            seed=seed,
        )
        pauli = tomography.reconstruct_pauli(counts, assignment)
        result = tomography.fidelity_with_errors(pauli, target)
        boot_f, _ = tomography.bootstrap_errors(
            counts, assignment, target, n_resamples=BOOTSTRAP_RESAMPLES, seed=seed
        )
        return result, boot_f

    def check(out, opdir: Path):
        result, boot_f = out
        want = EXPECTED["protocol"]["fidelity_theory"]
        dev = abs(result.fidelity - want)
        if not dev <= MC_SIGMAS * result.sigma_fidelity:
            raise CheckFailed(
                f"tomography fidelity {result.fidelity:.4f} is "
                f"{dev / result.sigma_fidelity:.1f} sigma from {want:.4f}"
            )
        ratio = boot_f / result.sigma_fidelity
        if not BOOTSTRAP_RATIO[0] < ratio < BOOTSTRAP_RATIO[1]:
            raise CheckFailed(f"bootstrap/propagated sigma ratio {ratio:.3f}")

    return Op("error_bars", f"error bars, seed {seed}", run, check)


# -- detector ------------------------------------------------------------------

def _check_detector_doc(opdir: Path, fock: int) -> dict:
    doc = json.loads((opdir / "out.json").read_text())
    want = EXPECTED["detector"][str(fock)]
    close("p_click", doc["p_click"], want["p_click"])
    close("dark_count", doc["dark_count"], want["dark_count"])
    if not doc["guard_max"] <= lindblad.GUARD_TOL:
        raise CheckFailed(f"guard_max {doc['guard_max']:.2e}")
    return doc


def detector_sim_op(fock: int) -> Op:
    return _cli_op(
        "detector_sim", f"detector-sim --fock {fock}",
        ["detector-sim", "--fock", str(fock), "--out", "{dir}/out.json"],
        lambda opdir: _check_detector_doc(opdir, fock),
    )


def detector_traces_op() -> Op:
    def check(opdir: Path):
        doc = _check_detector_doc(opdir, 1)
        header, values = read_csv(opdir / "traces.csv")
        if header != ["time_ns", "n_A", "n_D", "p_e", "pulse"]:
            raise CheckFailed(f"traces CSV header {header}")
        n_rows = int(round(DETECTOR_T_TOTAL)) + 1
        if values.shape != (n_rows, 5):
            raise CheckFailed(f"traces CSV shape {values.shape}, expected ({n_rows}, 5)")
        close("traces p_e[-1]", values[-1, 3], doc["p_click"])

    return _cli_op(
        "detector_traces", "detector-sim --fock 1 --traces-out",
        ["detector-sim", "--fock", "1", "--traces-out", "{dir}/traces.csv",
         "--out", "{dir}/out.json"],
        check,
    )


def detector_sweep_op(axis: str) -> Op:
    lo, hi = DETECTOR_SWEEPS[axis]

    def check(opdir: Path):
        _, values = read_csv(opdir / "out.csv")
        close_all(f"detector sweep {axis}", values, EXPECTED["detector_sweep"][axis])

    return _cli_op(
        "detector_sweep", f"detector-sim --sweep {axis}",
        ["detector-sim", "--fock", "1", "--sweep", axis, "--from", repr(lo),
         "--to", repr(hi), "--points", str(DETECTOR_SWEEP_POINTS),
         "--out", "{dir}/out.csv"],
        check,
    )


def robustness_op() -> Op:
    def run(opdir: Path):
        return lindblad.parameter_robustness(
            lindblad.CascadedSystemParams(), ROBUSTNESS_VARIATION,
            t_total=DETECTOR_T_TOTAL,
        )

    def check(report, opdir: Path):
        want = EXPECTED["robustness"]
        close("baseline_efficiency", report.baseline_efficiency, want["baseline_efficiency"])
        close("max_relative_change", report.max_relative_change, want["max_relative_change"])
        close_all("variation efficiencies", [v[2] for v in report.variations],
                  want["efficiencies"])

    return Op("robustness", f"parameter_robustness({ROBUSTNESS_VARIATION})", run, check)


def sideband_op() -> Op:
    drive = lindblad.calibrate_sideband_drive(SIDEBAND_KAPPA)

    def run(opdir: Path):
        return lindblad.sideband_rabi(drive, SIDEBAND_KAPPA, SIDEBAND_ETA, SIDEBAND_TIMES)

    def check(tr, opdir: Path):
        want = EXPECTED["sideband"]
        close("sideband argmax p_e1", float(SIDEBAND_TIMES[np.argmax(tr.p_e1)]),
              want["t_peak"])
        close("sideband max p_e1", float(tr.p_e1.max()), want["p_e1_max"])
        close("sideband p_e0[-1]", float(tr.p_e0[-1]), want["p_e0_end"])
        close("sideband p_f0[-1]", float(tr.p_f0[-1]), want["p_f0_end"])

    return Op("sideband", "sideband_rabi 0-2000 ns", run, check)


# -- workloads -------------------------------------------------------------------

def _seeds(rng: np.random.Generator, n: int) -> list[int]:
    return [int(s) for s in rng.integers(1, 2**31 - 1, size=n)]


def herald_protocol_ops(rng: np.random.Generator) -> list[Op]:
    # The preparation sweeps run here, not as a workload of their own: alone,
    # their short passes followed the host's busy spells past the wall_s
    # bound (NOTES.md, "Noise").
    mc, csv_seed, tomo = _seeds(rng, 5), _seeds(rng, 1)[0], _seeds(rng, 2)
    return (
        [protocol_mc_op(s) for s in mc]
        + [shots_csv_op(csv_seed)]
        + [error_bars_op(s) for s in tomo]
        + [sweep_op(axis) for axis in protocol.SWEEPABLE_AXES]
        + [protocol_analytic_op()]
    )


def detector_cascade_ops(rng: np.random.Generator) -> list[Op]:
    return [
        detector_sim_op(1),
        detector_sim_op(2),
        detector_traces_op(),
        detector_sweep_op("delay"),
        detector_sweep_op("detuning"),
        robustness_op(),
        sideband_op(),
    ]


WORKLOADS = {
    "herald_protocol": herald_protocol_ops,
    "detector_cascade": detector_cascade_ops,
}


def pass_ops(workload: str, seed: int, index: int) -> list[Op]:
    """The ops of one pass, with seeds and order drawn from (seed, index)."""
    rng = np.random.default_rng([seed, index])
    ops = WORKLOADS[workload](rng)
    return [ops[i] for i in rng.permutation(len(ops))]


def warmup_ops(workload: str, seed: int) -> list[Op]:
    """One op of each kind the workload runs, with seeds of its own."""
    ops = WORKLOADS[workload](np.random.default_rng([seed, 3_000_003]))
    return list({op.kind: op for op in ops}.values())


def companion_ops(workload: str, seed: int) -> list[Op]:
    """One op of every kind the workload's passes do not run.

    The traced run runs these once after its passes, so that every
    per-layer metric has a measured value on every workload.
    """
    own = {op.kind for op in WORKLOADS[workload](np.random.default_rng(0))}
    rng = np.random.default_rng([seed, 1_000_003])
    mc_seed, csv_seed, tomo_seed = _seeds(rng, 3)
    canonical = {
        "protocol_mc": lambda: protocol_mc_op(mc_seed),
        "shots_csv": lambda: shots_csv_op(csv_seed),
        "error_bars": lambda: error_bars_op(tomo_seed),
        "sweep": lambda: sweep_op("phi_b"),
        "protocol_analytic": protocol_analytic_op,
        "detector_sim": lambda: detector_sim_op(1),
        "detector_traces": detector_traces_op,
        "detector_sweep": lambda: detector_sweep_op("delay"),
        "robustness": robustness_op,
        "sideband": sideband_op,
    }
    return [canonical[kind]() for kind in OP_KINDS if kind not in own]


def setup_op(workload: str, seed: int) -> Op:
    """The op a fresh process runs to measure set-up: the workload's first kind."""
    return WORKLOADS[workload](np.random.default_rng([seed, 2_000_003]))[0]
