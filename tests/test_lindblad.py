"""Time-domain detector models: cascade traces, robustness, sideband Rabi."""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from heraldsim import lindblad
from heraldsim.lindblad import (
    MHZ_TO_RAD_NS,
    CascadedSystemParams,
    GaussianPulse,
    IntegrationError,
    calibrate_sideband_drive,
    cascaded_simulate,
    parameter_robustness,
    pulse_sweep,
    sideband_rabi,
)
from heraldsim.qmath import ValidationError


@pytest.fixture(scope="module")
def default_traces():
    params = CascadedSystemParams()
    return {f: cascaded_simulate(f, params, t_total=1500.0) for f in (0, 1, 2)}


class TestCascade:
    def test_dark_counts_small_with_transient(self, default_traces):
        tr = default_traces[0]
        assert tr.p_click < 0.01
        # finite selectivity shows up as a transient rise during the pulse
        assert tr.p_e.max() > 5.0 * tr.p_click

    def test_single_photon_efficiency(self, default_traces):
        # the model's optimum-timing efficiency; about half the incident
        # photons excite the detector cavity and the pulse converts most.
        # Acceptance C08 (test_acceptance.py) checks the same band.
        assert 0.45 < default_traces[1].p_click < 0.65

    def test_not_number_resolving(self, default_traces):
        assert abs(default_traces[2].p_click - default_traces[1].p_click) <= 0.02

    def test_cavity_population_peak(self, default_traces):
        # matched-bandwidth transit: max single-photon occupation 4/e^2
        tr = default_traces[1]
        assert abs(tr.n_d.max() - 0.46) < 0.08
        assert abs(tr.times[np.argmax(tr.n_d)] - 354.0) < 40.0

    def test_trace_and_guard_budgets(self, default_traces):
        for tr in default_traces.values():
            assert tr.trace_error < 1e-8
            assert tr.guard_max < 1e-3

    def test_decoupled_emitter(self):
        params = replace(CascadedSystemParams(), kappa_a=0.0)
        with_photon = cascaded_simulate(1, params, t_total=1000.0)
        dark = cascaded_simulate(0, params, t_total=1000.0)
        assert with_photon.n_d.max() < 1e-12
        assert abs(with_photon.p_click - dark.p_click) < 1e-12

    def test_step_halving_convergence(self):
        params = CascadedSystemParams()
        p1 = cascaded_simulate(1, params, t_total=800.0, dt=1.0).p_click
        p2 = cascaded_simulate(1, params, t_total=800.0, dt=0.5).p_click
        assert abs(p1 - p2) < 1e-4

    def test_excitation_non_increasing_without_drive(self):
        pulse = GaussianPulse(amplitude=0.0)
        params = replace(CascadedSystemParams(), pulse=pulse)
        tr = cascaded_simulate(2, params, t_total=1000.0)
        total = tr.n_a + tr.n_d + tr.p_e
        assert np.all(np.diff(total) < 1e-10)

    def test_invalid_fock_rejected(self):
        with pytest.raises(ValidationError):
            cascaded_simulate(5, CascadedSystemParams())

    def test_csv_columns(self, tmp_path, default_traces):
        path = tmp_path / "traces.csv"
        default_traces[1].write_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "time_ns,n_A,n_D,p_e,pulse"


def _first_failure(params_list, initial_fock, t_total, dt):
    """The IntegrationError text of integrating the systems one by one."""
    for params in params_list:
        try:
            cascaded_simulate(initial_fock, params, t_total=t_total, dt=dt)
        except IntegrationError as exc:
            return str(exc)
    return None


def _with_start(params, start):
    return replace(params, pulse=replace(params.pulse, start_time=float(start)))


class TestBatchedIntegration:
    """Batched sweeps and robustness equal one-by-one integration exactly."""

    def test_delay_sweep_equals_single_runs(self):
        # negative delays pre-roll per system; more points than one batch
        params = CascadedSystemParams()
        delays = np.linspace(-150.0, 300.0, lindblad._BATCH + 2)
        batched = pulse_sweep(params, "delay", delays, initial_fock=1, t_total=800.0, dt=2.0)
        single = [
            cascaded_simulate(1, _with_start(params, d), t_total=800.0, dt=2.0).p_click
            for d in delays
        ]
        assert batched.tolist() == single

    def test_detuning_sweep_equals_single_runs(self):
        params = _with_start(CascadedSystemParams(), -40.0)
        detunings = np.array([-6.0, -3.0, 0.0, 2.5])
        for fock in (0, 2):
            batched = pulse_sweep(
                params, "detuning", detunings, initial_fock=fock, t_total=700.0, dt=2.0
            )
            single = [
                cascaded_simulate(
                    fock, replace(params, detuning=float(v)), t_total=700.0, dt=2.0
                ).p_click
                for v in detunings
            ]
            assert batched.tolist() == single

    def test_robustness_equals_single_runs(self):
        params = CascadedSystemParams()
        report = parameter_robustness(params, 0.2, t_total=800.0, dt=2.0)
        # the baseline and six variants, as the docstring defines them
        amp = params.pulse.peak_rate_rad_ns() / MHZ_TO_RAD_NS
        base = replace(params, pulse=replace(params.pulse, amplitude=amp))
        variants = []
        for sign in (+1.0, -1.0):
            f = 1.0 + sign * 0.2
            variants.append(replace(base, kappa_d=params.kappa_d * f))
            variants.append(
                replace(
                    base,
                    pulse=replace(
                        base.pulse,
                        sigma=params.pulse.sigma * f,
                        total_length=params.pulse.total_length * f,
                    ),
                )
            )
            variants.append(
                _with_start(
                    base, params.pulse.start_time + sign * 0.2 * params.pulse.total_length
                )
            )
        etas = [cascaded_simulate(1, v, t_total=800.0, dt=2.0).p_click for v in variants]
        baseline = cascaded_simulate(1, base, t_total=800.0, dt=2.0).p_click
        assert report.baseline_efficiency == baseline
        assert [v[2] for v in report.variations] == etas
        assert [v[1] for v in report.variations] == [v.kappa_d for v in variants]

    @pytest.mark.parametrize(
        "starts",
        [
            (150.0, 50.0, -30.0),    # main-window failure before a pre-roll failure
            (150.0, -30.0, 50.0),    # pre-roll failure first
        ],
    )
    def test_failing_member_raises_first_error(self, starts):
        # an 800 MHz pulse drives RK4 at dt = 1 ns out of its stability region;
        # the pulse starting at 150 ns lies after the window and stays clean
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=800.0, start_time=0.0),
        )
        expected = _first_failure(
            [_with_start(params, s) for s in starts], 1, t_total=120.0, dt=1.0
        )
        assert expected is not None
        with pytest.raises(IntegrationError) as exc:
            pulse_sweep(params, "delay", starts, initial_fock=1, t_total=120.0)
        assert str(exc.value) == expected

    def test_nan_state_fails_budget(self):
        # an overflowing integration ends in NaN, which no budget admits
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=1e7, start_time=50.0),
        )
        with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="nan"):
            cascaded_simulate(1, params, t_total=200.0)


class TestWindowValidation:
    @pytest.mark.parametrize("t_total", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_t_total_rejected(self, t_total):
        with pytest.raises(ValidationError, match="t_total"):
            cascaded_simulate(1, CascadedSystemParams(), t_total=t_total)

    @pytest.mark.parametrize("dt", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_dt_rejected(self, dt):
        with pytest.raises(ValidationError, match="dt"):
            cascaded_simulate(1, CascadedSystemParams(), t_total=100.0, dt=dt)

    def test_sweep_and_robustness_validate_window(self):
        params = CascadedSystemParams()
        with pytest.raises(ValidationError):
            pulse_sweep(params, "delay", [0.0], t_total=-1.0)
        with pytest.raises(ValidationError):
            parameter_robustness(params, 0.1, dt=0.0)


NAN, INF = float("nan"), float("inf")


class TestInputValidation:
    """Every model input must be finite; NaN slips past a plain `x <= 0` check."""

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": NAN}, {"sigma": INF}, {"sigma": 0.0},
            {"total_length": NAN}, {"total_length": -1.0},
            {"amplitude": NAN}, {"amplitude": INF},
            {"start_time": NAN}, {"start_time": -INF},
        ],
    )
    def test_bad_pulse_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            GaussianPulse(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"kappa_a": NAN}, {"kappa_a": -0.1}, {"kappa_a": INF},
            {"kappa_d": NAN}, {"kappa_d": 0.0}, {"kappa_d": INF},
            {"chi_d": NAN}, {"detuning": NAN}, {"detuning": INF},
        ],
    )
    def test_bad_cascade_params_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            CascadedSystemParams(**kwargs)

    @pytest.mark.parametrize("variation", [NAN, INF, -0.1])
    def test_bad_variation_rejected(self, variation):
        with pytest.raises(ValidationError, match="variation"):
            parameter_robustness(CascadedSystemParams(), variation)

    @pytest.mark.parametrize(
        "drive, kappa, times",
        [
            (1.0, NAN, [0.0, 1.0, 2.0]),
            (1.0, INF, [0.0, 1.0, 2.0]),
            (1.0, -0.5, [0.0, 1.0, 2.0]),
            (NAN, 1.0, [0.0, 1.0, 2.0]),
            (1.0, 1.0, [0.0, NAN, 2.0]),
            (1.0, 1.0, [0.0, 1.0, INF]),
            (1.0, 1.0, [2.0, 1.0, 0.0]),
            (1.0, 1.0, [0.0, 0.0, 0.0]),
        ],
    )
    def test_bad_sideband_inputs_rejected(self, drive, kappa, times):
        with pytest.raises(ValidationError):
            sideband_rabi(drive, kappa, 0.5, np.array(times))


class TestRobustness:
    def test_zero_variation_is_exact(self):
        report = parameter_robustness(CascadedSystemParams(), 0.0, t_total=900.0)
        assert report.max_relative_change == 0.0

    def test_twenty_percent_variation_under_ten_percent(self):
        report = parameter_robustness(CascadedSystemParams(), 0.2, t_total=1500.0)
        assert report.max_relative_change < 0.10

    def test_bandwidth_mismatch_degrades_monotonically(self):
        params = CascadedSystemParams()
        etas = []
        for ratio in (1.0, 1.5, 2.0):
            varied = replace(params, kappa_d=params.kappa_d * ratio)
            etas.append(cascaded_simulate(1, varied, t_total=1200.0).p_click)
        assert etas[0] > etas[1] > etas[2]


class TestPulseSweep:
    def test_dark_response_peaks_at_zero_detuning(self):
        values = np.array([-6.0, -3.0, 0.0, 3.0])
        p = pulse_sweep(
            CascadedSystemParams(), "detuning", values, initial_fock=0,
            t_total=1200.0,
        )
        assert np.argmax(p) == 2

    def test_single_photon_elevated_at_shifted_line(self):
        values = np.array([-6.0, -4.5, -3.0, 0.0])
        p1 = pulse_sweep(
            CascadedSystemParams(), "detuning", values, initial_fock=1,
            t_total=1200.0,
        )
        p0 = pulse_sweep(
            CascadedSystemParams(), "detuning", values, initial_fock=0,
            t_total=1200.0,
        )
        at_line = list(values).index(-3.0)
        assert p1[at_line] > 10.0 * p0[at_line]
        assert p1[at_line] > p1[0] and p1[at_line] > p1[1]

    def test_delay_sweep_interior_maximum(self):
        values = np.array([-150.0, 0.0, 115.0, 300.0, 500.0])
        p = pulse_sweep(
            CascadedSystemParams(), "delay", values, initial_fock=1,
            t_total=1500.0,
        )
        imax = int(np.argmax(p))
        assert 0 < imax < len(values) - 1
        # frozen model optimum: pulse center on the population peak
        assert abs(values[imax] - 115.0) <= 50.0

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            pulse_sweep(CascadedSystemParams(), "volume", [0.0])

    def test_efficiency_040_incompatible_with_number_blindness(self):
        # No delay gives efficiency 0.40 +/- 0.05 with |p1 - p2| <= 0.02:
        # the 0.40 window lies on both flanks of the delay curve, where the
        # one- and two-photon responses split, and the number-blind delays
        # sit near the optimum, above 0.49.
        params = CascadedSystemParams()
        delays = np.arange(-100.0, 451.0, 50.0)
        # p_e is constant once the pulse has ended
        t_total = delays[-1] + params.pulse.total_length
        p1 = pulse_sweep(params, "delay", delays, initial_fock=1, t_total=t_total)
        p2 = pulse_sweep(params, "delay", delays, initial_fock=2, t_total=t_total)
        near_040 = np.abs(p1 - 0.40) <= 0.05
        blind = np.abs(p1 - p2) <= 0.02
        # the grid brackets both windows, on both sides of the optimum
        default = params.pulse.start_time
        assert near_040[delays < default].any() and near_040[delays > default].any()
        assert blind.any()
        assert not (near_040 & blind).any()
        assert np.all(p1[blind] > 0.49)


class TestSidebandRabi:
    def test_initially_everything_in_f0(self):
        drive = calibrate_sideband_drive(0.9)
        tr = sideband_rabi(drive, 0.9, 0.4, np.arange(0.0, 101.0, 2.0))
        assert tr.p_f0[0] == pytest.approx(1.0)
        assert tr.p_click[0] == 0.0

    def test_calibrated_pi_time(self):
        drive = calibrate_sideband_drive(0.9, pi_time=254.0)
        assert abs(lindblad._sideband_pi_time(drive, 0.9) - 254.0) < 0.5
        times = np.arange(0.0, 501.0, 1.0)
        tr = sideband_rabi(drive, 0.9, 0.4, times)
        assert abs(times[int(np.argmax(tr.p_e1))] - 254.0) < 3.0

    def test_matches_damped_two_level_solution(self):
        # oracle: closed-form no-jump amplitude of the driven decaying level
        drive, kappa = 1.7, 0.9
        times = np.arange(0.0, 601.0, 3.0)
        tr = sideband_rabi(drive, kappa, 1.0, times)
        om = drive * MHZ_TO_RAD_NS
        k = kappa * MHZ_TO_RAD_NS
        w_r = np.sqrt(complex(om**2 - k**2 / 4.0)) / 2.0
        amp = (om / 2.0) * np.exp(-k * times / 4.0) * np.sin(w_r * times) / w_r
        assert np.max(np.abs(tr.p_e1 - np.abs(amp) ** 2)) < 1e-8

    def test_overdamped_monotonic_transfer(self):
        times = np.arange(0.0, 2001.0, 5.0)
        tr = sideband_rabi(0.05, 8.0, 1.0, times)
        assert np.all(np.diff(tr.p_e0) >= -1e-12)
        assert tr.p_e1.max() < 1e-3
        # analytic oracle still holds in the overdamped regime
        om = 0.05 * MHZ_TO_RAD_NS
        k = 8.0 * MHZ_TO_RAD_NS
        w_r = np.sqrt(complex(om**2 - k**2 / 4.0)) / 2.0
        amp = (om / 2.0) * np.exp(-k * times / 4.0) * np.sin(w_r * times) / w_r
        assert np.max(np.abs(tr.p_e1 - np.abs(amp) ** 2)) < 1e-10

    def test_population_conservation(self):
        drive = calibrate_sideband_drive(1.2)
        tr = sideband_rabi(drive, 1.2, 0.4, np.arange(0.0, 801.0, 4.0))
        total = tr.p_f0 + tr.p_e1 + tr.p_e0
        assert np.max(np.abs(total - 1.0)) < 1e-9

    def test_polarization_definition(self):
        drive = calibrate_sideband_drive(0.9)
        tr = sideband_rabi(drive, 0.9, 0.4, np.arange(0.0, 301.0, 3.0))
        assert np.allclose(
            tr.ef_polarization, tr.p_f0 - tr.p_e1 - tr.p_e0, atol=1e-14
        )

    def test_benchmark_grid_digest(self):
        # SHA-256 of the traces at the benchmark's sideband parameters (kappa
        # 0.9 MHz, calibrated drive, 0-2000 ns), recorded before the kernel
        # derived its own adjoints (numpy 2.4.6)
        tr = sideband_rabi(calibrate_sideband_drive(0.9), 0.9, 0.4, np.arange(0.0, 2001.0, 1.0))
        arr = np.stack([tr.times, tr.p_f0, tr.p_e1, tr.p_e0, tr.ef_polarization, tr.p_click])
        assert hashlib.sha256(arr.tobytes()).hexdigest() == (
            "9168bfcf7d522222113e196a4794758aa21de50d9701fc273084907a1a926ad2"
        )

    def test_diverging_run_raises(self):
        # a 2000-MHz drive takes RK4 at dt = 0.5 ns far outside its stability
        # region; the final state fails the budget instead of giving NaN traces
        # and names the knob the caller has: there is no dt argument
        with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="slower drive"):
            sideband_rabi(2000.0, 1.0, 1.0, np.arange(0.0, 501.0))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValidationError):
            sideband_rabi(1.0, 1.0, 0.5, np.array([0.0, 1.0, 3.0]))
