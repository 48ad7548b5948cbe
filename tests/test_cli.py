"""Command-line interface: outputs, determinism, exit codes."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heraldsim
from heraldsim.cli import main
from heraldsim.lindblad import (
    CascadedSystemParams,
    GaussianPulse,
    IntegrationError,
    cascaded_simulate,
)
from heraldsim.protocol import SWEEPABLE_AXES
from heraldsim.qmath import DensityMatrix, PAULI_LABELS, bell_odd_plus, pauli_decompose
from heraldsim.tomography import (
    SETTING_AXES,
    AssignmentMatrix,
    TomographySettings,
    assignment_to_json,
    counts_to_json,
    reference_assignment,
    simulate_counts,
)

IDEAL_CONFIG = {
    "preparation": {"phi_b": 0.0, "phi_off": 0.0},
    "decoherence": {"t2e_a": 1e12, "t2e_b": 1e12},
    "detector": {
        "round1": {"p_dark": 0.0, "p_real": 1.0},
        "round2": {"p_dark": 0.0, "p_real": 1.0},
    },
}


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestProtocolCommand:
    def test_defaults_reproduce_headline_fidelity(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["protocol", "--analytic", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fidelity_theory"] - 0.76) <= 0.01
        assert doc["mode"] == "analytic"
        assert "config" in doc and doc["schema_version"] == 1
        # full resolved config is echoed
        assert doc["config"]["detector"]["round1"]["p_real"] == 0.21

    def test_ideal_config_perfect_state(self, tmp_path):
        cfg = write_config(tmp_path, IDEAL_CONFIG)
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", cfg, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fidelity_theory"] - 1.0) < 1e-9
        assert abs(doc["concurrence_theory"] - 1.0) < 1e-9
        assert abs(doc["outcome_probabilities"]["click_click"] - 0.125) < 1e-9

    def test_monte_carlo_reruns_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        args = ["protocol", "--shots", "200000", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["monte_carlo"]["shots"] == 200000
        assert doc["monte_carlo"]["post_selected"] > 0

    def test_monte_carlo_output_digest(self, tmp_path):
        # SHA-256 of both outputs as the per-shot-record sampler wrote them
        # (numpy 2.4.6): pins the Monte Carlo bytes across implementations
        out, shots = tmp_path / "mc.json", tmp_path / "shots.csv"
        args = ["protocol", "--shots", "20000", "--seed", "3"]
        assert main(args + ["--out", str(out), "--shots-out", str(shots)]) == 0
        assert len(shots.read_bytes()) == 323308
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "1467b5f0e64fa3ab0ac6ee7840fdb706480e8c9827473b691b230e9862b986a7"
        )
        assert hashlib.sha256(shots.read_bytes()).hexdigest() == (
            "c49673facaf58f4ca65b0d661fdeb0d62c0d0c71321ffbbdc56942859c26f047"
        )

    def test_multi_chunk_output_digest(self, tmp_path):
        # SHA-256 of both outputs as the single-draw sampler wrote them
        # (numpy 2.4.6): 150001 shots span three sampling chunks, and at
        # p_init 0.57 the round-robin setting crosses both chunk boundaries
        # mid-cycle
        out, shots = tmp_path / "mc.json", tmp_path / "shots.csv"
        args = ["protocol", "--shots", "150001", "--seed", "11", "--control"]
        assert main(args + ["--out", str(out), "--shots-out", str(shots)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "52bda081fbfa8628d7c47a77373ef876ade98e2c89efd493031f4d1be8acb434"
        )
        assert hashlib.sha256(shots.read_bytes()).hexdigest() == (
            "0495351fa696377c7f4da69ef4d51e7248b3dea29708ade0f82c52df97dc10d9"
        )

    def test_negative_seed_exits_2(self, capsys):
        assert main(["protocol", "--seed", "-1", "--shots", "10"]) == 2
        assert "--seed must be a non-negative integer" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--seed", "sampling.seed"])
    def test_seed_beyond_philox_key_range_exits_2(self, via, tmp_path, capsys):
        # Philox keys are 128-bit: 2**128 has no stream, 2**128 - 1 does
        argv = ["protocol", "--shots", "10", "--out", str(tmp_path / "out.json")]
        for seed, rc in ((2**128, 2), (2**128 - 1, 0)):
            if via == "--seed":
                extra = ["--seed", str(seed)]
            else:
                extra = ["--config", write_config(tmp_path, {"sampling": {"seed": seed}})]
            assert main(argv + extra) == rc
        assert f"{via} must be a non-negative integer below 2**128" in capsys.readouterr().err

    def test_loss_analytic_digest(self, tmp_path):
        # SHA-256 of the analytic output with photon loss (numpy 2.4.6): pins
        # the bytes of the loss route through the engine
        out = tmp_path / "loss.json"
        cfg = write_config(tmp_path, {"loss": {"eta": 0.8}})
        args = ["protocol", "--analytic", "--control", "--config", cfg]
        assert main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "cab4c4b542c738ede7b20c901ce99f1269cdb53e02268ae07d8ae5009351d38a"
        )

    @pytest.mark.parametrize("shots", ["-5", "0"])
    def test_non_positive_shots_exit_2(self, shots, capsys):
        assert main(["protocol", "--shots", shots]) == 2
        assert "--shots must be a positive integer" in capsys.readouterr().err

    def test_shots_out_without_shots_exits_2(self, tmp_path, capsys):
        csv_path = tmp_path / "x.csv"
        out = tmp_path / "out.json"
        assert main(["protocol", "--shots-out", str(csv_path), "--out", str(out)]) == 2
        assert "--shots-out needs --shots" in capsys.readouterr().err
        assert not csv_path.exists() and not out.exists()

    def test_seed_without_shots_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert main(["protocol", "--seed", "5", "--out", str(out)]) == 2
        assert "--seed needs --shots" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"preparation": {"theta_q": 1.0}})
        assert main(["protocol", "--config", cfg]) == 2

    def test_bad_value_exits_2(self, tmp_path):
        cfg = write_config(tmp_path, {"timing": {"p_init": 2.0}})
        assert main(["protocol", "--config", cfg]) == 2

    @pytest.mark.parametrize("t_rep", ["5e-324", "1e-310"])
    def test_overflowing_rate_exits_2(self, t_rep, tmp_path, capsys):
        # p_success / t_rep has no finite value: no traceback, no Infinity
        cfg = tmp_path / "config.json"
        cfg.write_text(f'{{"timing": {{"t_rep": {t_rep}}}}}')
        assert main(["protocol", "--config", str(cfg)]) == 2
        assert "no finite success rate" in capsys.readouterr().err

    def test_control_block(self, tmp_path):
        out = tmp_path / "out.json"
        assert main(["protocol", "--analytic", "--control", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        labels = doc["control"]["pauli"]["labels"]
        comps = doc["control"]["pauli"]["components"]
        assert abs(comps[labels.index("ZZ")]) < 1e-9
        assert doc["control"]["concurrence"] < 1e-9


class TestSweepCommand:
    def test_eta_loss_sweep_digest(self, tmp_path):
        # SHA-256 of a 25-point loss sweep (numpy 2.4.6)
        out = tmp_path / "sweep.csv"
        args = ["sweep", "--axis", "eta_loss", "--from", "0.05", "--to", "1", "--points", "25"]
        assert main(args + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "c029ee7888166bdac09fd3c52f5f114ab851c742ec1f38cdda970ae844d3afec"
        )

    def test_phase_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--axis",
                "phi_b",
                "--from",
                "0",
                "--to",
                "6.283185307179586",
                "--points",
                "9",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        assert header[0] == "phi_b"
        assert header[1:17] == list(PAULI_LABELS)
        assert header[17] == "probability"
        zz_col = header.index("ZZ")
        zz = [float(row.split(",")[zz_col]) for row in lines[1:]]
        assert np.max(np.abs(np.diff(zz))) < 1e-9
        assert all(v < -0.5 for v in zz)

    def test_theta_sweep_extremal_at_equator(self, tmp_path):
        cfg = write_config(tmp_path, IDEAL_CONFIG)
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "sweep",
                "--config",
                cfg,
                "--axis",
                "theta_a",
                "--from",
                "0",
                "--to",
                "3.141592653589793",
                "--points",
                "5",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        header = lines[0].split(",")
        xx_col = header.index("XX")
        xx = [float(row.split(",")[xx_col]) for row in lines[1:]]
        assert np.argmax(np.abs(xx)) == 2

    def test_zero_points_exits_2(self):
        assert (
            main(["sweep", "--axis", "phi_b", "--from", "0", "--to", "1", "--points", "0"])
            == 2
        )

    def test_bad_axis_exits_2(self):
        assert (
            main(["sweep", "--axis", "zeta", "--from", "0", "--to", "1", "--points", "2"])
            == 2
        )

    @pytest.mark.parametrize(
        "axis, start, stop, message",
        [
            ("t_seq", "0", "2", "sweep point t_seq=0.0"),
            ("t_seq", "1", "-2", "sweep point t_seq=-0.5"),  # the first bad point
            ("eta_loss", "0.5", "1.5", "sweep point eta_loss=1.5"),
            ("t_seq", "1", "nan", "must be finite"),
            ("t_seq", "inf", "1", "must be finite"),
            ("phi_b", "nan", "1", "must be finite"),
            ("phi_b", "-1e308", "1e308", "must be finite"),  # the span overflows
            ("phi_off", "1e308", "1e308", "sweep point phi_off=1e+308"),  # 2 phi_off overflows
        ],
    )
    def test_bad_sweep_range_exits_2(self, axis, start, stop, message, tmp_path, capsys):
        out = tmp_path / "s.csv"
        args = ["sweep", "--axis", axis, f"--from={start}", f"--to={stop}", "--points", "3"]
        assert main(args + ["--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bad_stop_of_one_point_sweep_exits_2(self, capsys):
        # the one point is --from, but --to is still checked
        args = ["sweep", "--axis", "t_seq", "--from", "8.76", "--to=-2.2e-308", "--points", "1"]
        assert main(args) == 2
        assert "t_seq=-2.2e-308" in capsys.readouterr().err


class TestDetectorSimCommand:
    def test_dark_counts_summary(self, tmp_path):
        out = tmp_path / "det.json"
        traces = tmp_path / "traces.csv"
        rc = main(
            [
                "detector-sim", "--fock", "0",
                "--out", str(out), "--traces-out", str(traces),
            ]
        )
        assert rc == 0
        doc = json.loads(out.read_text())
        assert doc["p_click"] < 0.01
        assert doc["dark_count"] < 0.01
        header = traces.read_text().split("\n", 1)[0]
        assert header == "time_ns,n_A,n_D,p_e,pulse"

    def test_number_blindness(self, tmp_path):
        clicks = {}
        for fock in (1, 2):
            out = tmp_path / f"det{fock}.json"
            assert main(["detector-sim", "--fock", str(fock), "--out", str(out)]) == 0
            clicks[fock] = json.loads(out.read_text())["p_click"]
        assert abs(clicks[1] - clicks[2]) <= 0.02

    def test_detuning_sweep_csv(self, tmp_path):
        out = tmp_path / "sweep.csv"
        rc = main(
            [
                "detector-sim", "--fock", "1", "--sweep", "detuning",
                "--from", "-6", "--to", "0", "--points", "5",
                "--out", str(out),
            ]
        )
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "detuning,p_click"
        rows = [tuple(map(float, ln.split(","))) for ln in lines[1:]]
        by_det = dict(rows)
        assert by_det[-3.0] > by_det[-6.0]
        assert by_det[-3.0] > by_det[-4.5]

    def test_output_digest(self, tmp_path):
        # SHA-256 of the JSON and traces CSV as the one-system-per-call
        # integrator wrote them (numpy 2.4.6): pins the detector bytes across
        # integrator implementations
        out, traces = tmp_path / "det.json", tmp_path / "traces.csv"
        args = ["detector-sim", "--fock", "1", "--out", str(out), "--traces-out", str(traces)]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "e289b7276d8c8386405850a49c10a12b744443b45968c2b662aaf7d0105fd1ec"
        )
        assert hashlib.sha256(traces.read_bytes()).hexdigest() == (
            "a48b5835ba158e212289389c212507dc1af5270580b5202e0d375c00276a0fce"
        )

    def test_fock_run_failure_raised_first(self, monkeypatch, capsys):
        # an 800 MHz pulse drives RK4 at dt = 1 ns out of its stability
        # region in both the Fock run and the dark run; the error reported is
        # the Fock run's, as when the two ran one after the other
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=800.0, start_time=0.0),
        )
        with pytest.raises(IntegrationError) as fock_failure:
            cascaded_simulate(2, params, t_total=120.0)
        monkeypatch.setattr("heraldsim.cli._detector_params", lambda args: params)
        assert main(["detector-sim", "--fock", "2", "--t-total", "120"]) == 3
        assert str(fock_failure.value) in capsys.readouterr().err

    def test_preroll_output_digest(self, tmp_path):
        # a pulse starting at -100 ns pre-rolls the drive on the empty system
        # and injects the photon at t = 0; recorded before the injection was
        # rewritten as a partial trace (numpy 2.4.6)
        out, traces = tmp_path / "det.json", tmp_path / "traces.csv"
        args = [
            "detector-sim", "--fock", "1", "--pulse-start", "-100",
            "--out", str(out), "--traces-out", str(traces),
        ]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "48be7be8dd42653e7e966335cade2f650443b76dd26cf8fbd0d4e82121d3ef06"
        )
        assert hashlib.sha256(traces.read_bytes()).hexdigest() == (
            "d3abec72a6a8d5ca726a2f1948f467c76034ef9e56d0b8833c5b1c8487398f34"
        )

    def test_delay_sweep_digest(self, tmp_path):
        # delays -100, 0, 100, 200 ns: a pre-rolled point, then on-grid starts
        out = tmp_path / "sweep.csv"
        args = [
            "detector-sim", "--fock", "1", "--sweep", "delay",
            "--from", "-100", "--to", "200", "--points", "4", "--out", str(out),
        ]
        assert main(args) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "a303dd21292e725e59df89b9641d112f413f72e2b1bb7feb9a3931264e65758b"
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--t-total", "-5"],
            ["--t-total", "0"],
            ["--t-total", "nan"],
            ["--t-total", "inf"],
            # the default pulse ends at 595 ns
            ["--t-total", "500"],
            # the latest delay's pulse ends at 680 ns
            ["--sweep", "delay", "--from", "0", "--to", "200", "--points", "2",
             "--t-total", "600"],
        ],
    )
    def test_bad_t_total_exits_2(self, extra, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["detector-sim", "--out", str(out)] + extra) == 2
        assert "--t-total" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            ["--pulse-start", "nan"],
            ["--pulse-start=-inf"],
            ["--sweep", "delay", "--from", "nan", "--to", "100", "--points", "2"],
            ["--sweep", "detuning", "--from", "-1", "--to", "nan", "--points", "2"],
            ["--sweep", "detuning", "--from=-1e308", "--to", "1e308", "--points", "3"],
        ],
    )
    def test_non_finite_pulse_exits_2(self, extra, tmp_path, capsys):
        # a usage error, caught before any integration
        out = tmp_path / "out"
        assert main(["detector-sim", "--out", str(out)] + extra) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra",
        [
            # the default 480-ns pulse ends at start + 480 ns
            ["--pulse-start=-480"],
            ["--pulse-start=-2000"],
            ["--pulse-start=-1e7"],
            ["--sweep", "delay", "--from=-1e7", "--to", "0", "--points", "3"],
        ],
    )
    def test_pulse_over_before_release_exits_2(self, extra, tmp_path, capsys, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated a rejected pulse")

        monkeypatch.setattr("heraldsim.cli.simulate", integrate)
        monkeypatch.setattr("heraldsim.cli.pulse_sweep", integrate)
        out = tmp_path / "out"
        assert main(["detector-sim", "--out", str(out)] + extra) == 2
        assert "pulse ends before the photon release" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "extra, message",
        [
            (["--from", "-6"], "--from needs --sweep"),
            (["--to", "0"], "--to needs --sweep"),
            (["--points", "5"], "--points needs --sweep"),
            (["--sweep", "delay", "--from", "0", "--to", "100", "--points", "2",
              "--traces-out", "TRACES"], "cannot be used with --sweep"),
        ],
    )
    def test_ignored_flag_exits_2(self, extra, message, tmp_path, capsys):
        # the single run would ignore the range, and a sweep writes no traces
        out, traces = tmp_path / "out", tmp_path / "traces.csv"
        extra = [str(traces) if arg == "TRACES" else arg for arg in extra]
        assert main(["detector-sim", "--out", str(out)] + extra) == 2
        assert message in capsys.readouterr().err
        assert not out.exists() and not traces.exists()

    def test_sweep_without_range_errors(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["detector-sim", "--sweep", "detuning"])
        assert exc.value.code == 2


# Odd-Bell-like joint-readout counts, 100 shots per setting, SETTING_AXES order.
LITERAL_COUNTS = [
    [4, 45, 47, 4], [26, 24, 23, 27], [24, 25, 27, 24],
    [25, 26, 24, 25], [44, 6, 5, 45], [23, 27, 26, 24],
    [26, 25, 25, 24], [27, 23, 24, 26], [45, 5, 4, 46],
]


def literal_counts_doc(scale=1):
    """LITERAL_COUNTS as a counts document; scale 0.01 turns rows into probabilities."""
    return {
        "schema_version": 1,
        "basis": ["GG", "GE", "EG", "EE"],
        "shots_per_setting": 100 * scale,
        "settings": [
            {"axes": list(axes), "counts": [c * scale for c in row]}
            for axes, row in zip(SETTING_AXES, LITERAL_COUNTS)
        ],
    }


class TestTomoCommand:
    def make_counts_file(self, tmp_path, rho, assignment, shots=None, seed=0):
        settings = None if shots is None else TomographySettings(shots)
        counts = simulate_counts(rho, assignment, settings, seed=seed)
        path = tmp_path / "counts.json"
        path.write_text(counts_to_json(counts))
        return str(path)

    def make_cal_file(self, tmp_path, assignment, name="cal.json"):
        path = tmp_path / name
        path.write_text(assignment_to_json(assignment))
        return str(path)

    def test_identity_calibration_noop(self, tmp_path):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        counts = self.make_counts_file(tmp_path, rho, AssignmentMatrix.identity())
        cal = self.make_cal_file(tmp_path, AssignmentMatrix.identity())
        out = tmp_path / "tomo.json"
        rc = main(["tomo", "--counts", counts, "--cal", cal, "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fidelity"] - 1.0) < 1e-9

    def test_corrected_recovery_within_errors(self, tmp_path):
        rng = np.random.default_rng(5)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix((2, 2), m / np.trace(m))
        a = reference_assignment()
        counts = self.make_counts_file(tmp_path, rho, a, shots=200_000, seed=13)
        cal = self.make_cal_file(tmp_path, a)
        out = tmp_path / "tomo.json"
        assert main(["tomo", "--counts", counts, "--cal", cal, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        truth = pauli_decompose(rho)
        comps = doc["pauli"]["components"]
        sigmas = doc["pauli"]["sigma"]
        for i, label in enumerate(PAULI_LABELS):
            if label == "II":
                continue
            assert abs(comps[i] - truth.components[i]) < 3.0 * sigmas[i] + 1e-12

    def test_singular_calibration_exits_2(self, tmp_path):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        counts = self.make_counts_file(tmp_path, rho, AssignmentMatrix.identity())
        cal_path = tmp_path / "cal.json"
        doc = json.loads(assignment_to_json(AssignmentMatrix.identity()))
        doc["matrix"] = [[0.25] * 4] * 4
        cal_path.write_text(json.dumps(doc))
        assert main(["tomo", "--counts", counts, "--cal", str(cal_path)]) == 2

    @pytest.mark.parametrize(
        "fault",
        ["counts_without_settings", "counts_as_list", "setting_not_object", "cal_without_matrix"],
    )
    def test_malformed_file_exits_2(self, fault, tmp_path, capsys):
        # valid JSON of the wrong shape is a usage error, not a traceback
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        counts = self.make_counts_file(tmp_path, rho, AssignmentMatrix.identity())
        cal = self.make_cal_file(tmp_path, AssignmentMatrix.identity())
        path = Path(cal if fault == "cal_without_matrix" else counts)
        doc = json.loads(path.read_text())
        if fault == "counts_as_list":
            doc = [doc]
        elif fault == "setting_not_object":
            doc["settings"][4] = 7
        else:
            del doc["matrix" if fault == "cal_without_matrix" else "settings"]
        path.write_text(json.dumps(doc))
        assert main(["tomo", "--counts", counts, "--cal", cal]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_literal_counts_digest(self, tmp_path):
        # SHA-256 of the corrected tomography of fixed integer counts (numpy 2.4.6)
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps(literal_counts_doc()))
        cal = self.make_cal_file(tmp_path, reference_assignment())
        out = tmp_path / "tomo.json"
        assert main(["tomo", "--counts", str(counts), "--cal", cal, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "28cfb1aa129312cacb6ba08456b5a944fdac82b4b04243afbe87b880424ca323"
        )

    @pytest.mark.parametrize("shots", [1, 1.0, 100.5])
    def test_fractional_sampled_counts_exit_2(self, shots, tmp_path, capsys):
        # probability rows claimed as sampled data would get one-shot error bars
        counts = tmp_path / "counts.json"
        counts.write_text(json.dumps({**literal_counts_doc(0.01), "shots_per_setting": shots}))
        cal = self.make_cal_file(tmp_path, reference_assignment())
        assert main(["tomo", "--counts", str(counts), "--cal", cal]) == 2
        assert "whole numbers" in capsys.readouterr().err

    IDENTITY_ROWS = "[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]"

    @pytest.mark.parametrize(
        "file, key, raw, scale",
        [
            ("counts", "counts", "[{}, 1, 2, 97]", 1),
            ("counts", "counts", "[null, 1, 2, 97]", 1),
            ("counts", "counts", '["25", 25, 25, 25]', 1),
            ("counts", "counts", "[true, 1, 2, 96]", 1),
            ("counts", "counts", "[NaN, 1, 2, 97]", 1),
            ("counts", "shots_per_setting", "Infinity", 1),
            ("counts", "shots_per_setting", "1e999", 1),
            ("counts", "shots_per_setting", "NaN", 1),
            ("counts", "shots_per_setting", '"100"', 1),
            ("counts", "shots_per_setting", "true", 0.01),
            ("counts", "shots_per_setting", "[100, 100, 100, 100, 100, 100, 100, 100, {}]", 1),
            ("calibration", "matrix", "[[{}, 0, 0, 0], " + IDENTITY_ROWS, 1),
            ("calibration", "matrix", '[["1", 0, 0, 0], ' + IDENTITY_ROWS, 1),
            ("calibration", "matrix", "[[true, 0, 0, 0], " + IDENTITY_ROWS, 1),
            ("calibration", "matrix", "[[NaN, 0, 0, 0], " + IDENTITY_ROWS, 1),
        ],
    )
    def test_non_number_entry_exits_2(self, file, key, raw, scale, tmp_path, capsys):
        # every counts and matrix entry is a finite JSON number
        counts_doc = literal_counts_doc(scale)
        cal_doc = json.loads(assignment_to_json(AssignmentMatrix.identity()))
        doc = counts_doc if file == "counts" else cal_doc
        if key == "counts":
            counts_doc["settings"][0]["counts"] = "@FAULT@"
        else:
            doc[key] = "@FAULT@"
        paths = {"counts": tmp_path / "counts.json", "calibration": tmp_path / "cal.json"}
        paths["counts"].write_text(json.dumps(counts_doc))
        paths["calibration"].write_text(json.dumps(cal_doc))
        paths[file].write_text(paths[file].read_text().replace('"@FAULT@"', raw))
        argv = ["tomo", "--counts", str(paths["counts"]), "--cal", str(paths["calibration"])]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {file} file: ") and err.count("\n") == 1

    def test_calibration_path_without_matrix_exits_2(self, tmp_path, capsys):
        cal = tmp_path / "cal.json"
        doc = json.loads(assignment_to_json(AssignmentMatrix.identity()))
        del doc["matrix"]
        cal.write_text(json.dumps(doc))
        cfg = write_config(tmp_path, {"tomography": {"assignment_path": str(cal)}})
        assert main(["protocol", "--config", cfg]) == 2
        assert "must be a JSON object" in capsys.readouterr().err

    def test_odd_minus_target(self, tmp_path):
        from heraldsim.qmath import bell_odd_minus

        rho = DensityMatrix.from_ket(bell_odd_minus(), dims=(2, 2))
        counts = self.make_counts_file(tmp_path, rho, AssignmentMatrix.identity())
        cal = self.make_cal_file(tmp_path, AssignmentMatrix.identity())
        out = tmp_path / "tomo.json"
        rc = main(
            [
                "tomo", "--counts", counts, "--cal", cal,
                "--target", "odd_minus", "--out", str(out),
            ]
        )
        assert rc == 0
        assert abs(json.loads(out.read_text())["fidelity"] - 1.0) < 1e-9


@pytest.mark.parametrize(
    "argv",
    [
        # each first allocation is larger than the user address space
        # (128 TiB on x86-64, 256 TiB with 48-bit arm64), so numpy refuses
        # it before touching memory under any overcommit setting
        ["protocol", "--shots", str(10**15)],  # 10^15 one-byte flags: 909 TiB
        ["sweep", "--axis", "phi_a", "--from", "0", "--to", "1",
         "--points", str(10**15)],  # 10^15 float64: 7.1 PiB
        ["detector-sim", "--t-total", "1e15"],  # 10^15 + 1 time steps: 7.1 PiB
    ],
)
def test_unallocatable_run_exits_3(argv, capsys):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical error: Unable to allocate") and err.count("\n") == 1


def test_detector_sim_runs_without_scipy(tmp_path):
    # scipy is loaded only to build the beam splitter, which the detector
    # simulation never needs; a fresh interpreter shows what the CLI imports
    code = (
        "import sys, heraldsim.cli as cli\n"
        "assert 'scipy' not in sys.modules\n"
        "assert cli.main(['detector-sim', '--out', sys.argv[1]]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(heraldsim.__file__).parents[1]))
    run = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "d.json")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"


class TestConfigDir:
    def test_env_config_dir_resolution(self, tmp_path, monkeypatch):
        cfg_dir = tmp_path / "configs"
        cfg_dir.mkdir()
        (cfg_dir / "run.json").write_text(json.dumps(IDEAL_CONFIG))
        monkeypatch.setenv("HERALDSIM_CONFIG_DIR", str(cfg_dir))
        out = tmp_path / "out.json"
        assert main(["protocol", "--config", "run.json", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert abs(doc["fidelity_theory"] - 1.0) < 1e-9


def exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
# numbers each sweep axis rejects
BAD_AXIS_VALUE = {
    **{axis: NON_FINITE for axis in ("theta_a", "phi_a", "theta_b", "phi_b", "phi_off")},
    "eta_loss": st.one_of(
        NON_FINITE, st.floats(max_value=-1e-9).map(repr), st.floats(min_value=1.000001).map(repr)
    ),
    "t_seq": st.one_of(NON_FINITE, st.floats(max_value=0.0).map(repr)),
}
FINITE = st.floats(-10.0, 10.0).map(repr)


@st.composite
def bad_sweep_args(draw):
    axis = draw(st.sampled_from(SWEEPABLE_AXES))
    start, stop = draw(FINITE), draw(FINITE)
    points = str(draw(st.integers(1, 3)))
    fault = draw(st.sampled_from(["axis", "points", "start", "stop", "text"]))
    if fault == "axis":
        axis = draw(st.text(min_size=1, max_size=8).filter(lambda a: a not in SWEEPABLE_AXES))
    elif fault == "points":
        points = str(draw(st.integers(max_value=0)))
    elif fault == "start":
        start = draw(BAD_AXIS_VALUE[axis])
    elif fault == "stop":
        stop = draw(BAD_AXIS_VALUE[axis])
    else:
        points = draw(st.sampled_from(["x", "1.5", ""]))
    return ["sweep", "--axis", axis, f"--from={start}", f"--to={stop}", f"--points={points}"]


@st.composite
def bad_detector_args(draw):
    fault = draw(
        st.sampled_from(
            ["pulse", "early", "t_total", "range", "points", "fock", "no_sweep", "sweep_traces"]
        )
    )
    if fault == "no_sweep":
        # range flags without --sweep would be ignored by the single run
        flags = draw(st.lists(st.sampled_from(["--from=0", "--to=1", "--points=5"]), min_size=1))
        return ["detector-sim"] + flags
    if fault == "pulse":
        return ["detector-sim", f"--pulse-start={draw(NON_FINITE)}"]
    if fault == "early":
        # the default 480-ns pulse ends by the photon release at t = 0
        start = repr(draw(st.floats(max_value=-480.0, allow_infinity=False)))
        if draw(st.booleans()):
            return ["detector-sim", f"--pulse-start={start}"]
        return ["detector-sim", "--sweep", "delay", f"--from={start}", "--to=0", "--points=2"]
    if fault == "t_total":
        # the default pulse ends at 595 ns
        t_total = draw(st.one_of(NON_FINITE, st.floats(max_value=594.0).map(repr)))
        return ["detector-sim", f"--t-total={t_total}"]
    if fault == "fock":
        return ["detector-sim", f"--fock={draw(st.integers(3, 100))}"]
    sweep = ["detector-sim", "--sweep", draw(st.sampled_from(["delay", "detuning"]))]
    if fault == "sweep_traces":
        # a sweep writes no time traces
        return sweep + ["--from=0", "--to=100", "--points=2", "--traces-out=never.csv"]
    if fault == "points":
        return sweep + ["--from", "0", "--to", "1", f"--points={draw(st.integers(max_value=1))}"]
    ends = [draw(NON_FINITE), draw(st.floats(-5.0, 5.0).map(repr))]
    if draw(st.booleans()):
        ends.reverse()
    return sweep + [f"--from={ends[0]}", f"--to={ends[1]}", "--points", "2"]


@st.composite
def bad_protocol_args(draw):
    fault = draw(st.sampled_from(["shots", "seed", "needs_shots", "config"]))
    if fault == "shots":
        return ["protocol", f"--shots={draw(st.integers(max_value=0))}"]
    if fault == "seed":
        return ["protocol", "--shots=1", f"--seed={draw(st.integers(max_value=-1))}"]
    if fault == "needs_shots":
        return ["protocol", draw(st.sampled_from(["--seed=1", "--shots-out=never.csv"]))]
    return ["protocol", "--config", draw(st.sampled_from(["missing.json", "/", ""]))]


@settings(max_examples=40, deadline=None, database=None)
@given(st.one_of(bad_protocol_args(), bad_sweep_args(), bad_detector_args()))
def test_invalid_arguments_exit_2(argv):
    # every input is rejected before any integration: exit 2, never a traceback
    assert exit_code(argv) == 2


def reject_constant(name):
    raise ValueError(f"{name} is not strict JSON")


ANGLE = st.floats(allow_nan=False, allow_infinity=False)
# below about 5.6e-303 us the success rate overflows (exit 2, tested above)
TIME = st.floats(min_value=1e-300, allow_infinity=False)
PROBABILITY = st.floats(0.0, 1.0)
VALID_VALUE = {
    "angle": ANGLE,
    # phi_off * n_max (2 by default) must be finite too
    "offset": st.floats(-8.9e307, 8.9e307),
    "time": TIME,
    "probability": PROBABILITY,
}
VALID_PATHS = {
    **{f"preparation.{k}": "angle" for k in ("theta_a", "phi_a", "theta_b", "phi_b")},
    "preparation.phi_off": "offset",
    **{f"decoherence.{k}": "time" for k in ("t2e_a", "t2e_b", "t_seq")},
    **{f"detector.{r}.{k}": "probability" for r in ("round1", "round2")
       for k in ("p_dark", "p_real")},
    "loss.eta": "probability",
    "timing.t_rep": "time",
    "timing.p_init": "probability",
}


def stdout_of(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = main(argv)
    return rc, out.getvalue()


@st.composite
def valid_protocol_args(draw):
    doc = {}
    for path in draw(st.lists(st.sampled_from(sorted(VALID_PATHS)), unique=True)):
        *sections, key = path.split(".")
        node = doc
        for section in sections:
            node = node.setdefault(section, {})
        node[key] = draw(VALID_VALUE[VALID_PATHS[path]])
    argv = ["protocol"]
    if draw(st.booleans()):
        argv += [f"--shots={draw(st.integers(1, 2000))}", f"--seed={draw(st.integers(0, 99))}"]
    if draw(st.booleans()):
        argv.append("--control")
    return doc, argv


@settings(max_examples=60, deadline=None, database=None)
@given(valid_protocol_args())
def test_valid_protocol_runs_give_strict_json(case):
    doc, argv = case
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "config.json"
        cfg.write_text(json.dumps(doc))
        rc, text = stdout_of(argv + ["--config", str(cfg)])
    assert rc == 0
    json.loads(text, parse_constant=reject_constant)


# bounds whose span --to - --from stays finite
SWEEP_RANGE = {
    **{axis: st.floats(-1e300, 1e300) for axis in ("theta_a", "phi_a", "theta_b", "phi_b", "phi_off")},
    "eta_loss": PROBABILITY,
    "t_seq": st.floats(1e-300, 1e300),
}


@settings(max_examples=30, deadline=None, database=None)
@given(st.sampled_from(SWEEPABLE_AXES).flatmap(
    lambda axis: st.tuples(st.just(axis), SWEEP_RANGE[axis], SWEEP_RANGE[axis], st.integers(1, 3))
))
def test_valid_sweeps_exit_0(case):
    axis, start, stop, points = case
    argv = ["sweep", "--axis", axis, f"--from={start!r}", f"--to={stop!r}", f"--points={points}"]
    rc, text = stdout_of(argv)
    assert rc == 0
    assert len(text.splitlines()) == points + 1
