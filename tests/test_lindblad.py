"""Time-domain detector models: cascade traces, robustness, sideband Rabi."""

import hashlib
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from heraldsim import cli, lindblad
from heraldsim.lindblad import (
    MHZ_TO_RAD_NS,
    CascadedSystemParams,
    GaussianPulse,
    IntegrationError,
    calibrate_sideband_drive,
    parameter_robustness,
    pulse_sweep,
    sideband_rabi,
)
from heraldsim.qmath import ValidationError


@pytest.fixture(scope="module")
def default_traces():
    params = CascadedSystemParams()
    focks = (0, 1, 2)
    return dict(zip(focks, lindblad.simulate([(params, f) for f in focks], 1500.0)))


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

    def test_guard_level_fires_when_n_is_not_conserved(self, monkeypatch, capsys):
        # a coherent drive on the detector cavity adds photons the emitter never held
        d = lindblad._operators()[1]
        system_operators = lindblad._system_operators

        def driven(params):
            h0, c_op = system_operators(params)
            return h0 + 0.1 * (d + d.conj().T), c_op

        monkeypatch.setattr(lindblad, "_system_operators", driven)
        with pytest.raises(
            IntegrationError,
            match=r"^detector-cavity guard level reached \d\.\d\de-\d\d \(budget 1e-03\); "
            r"the model no longer conserves n_A \+ n_D$",
        ):
            lindblad.simulate([(CascadedSystemParams(), 1)], 600.0)
        assert cli.main(["detector-sim", "--t-total", "600"]) == cli.EXIT_NUMERICAL == 3
        assert capsys.readouterr().err.startswith(
            "numerical error: detector-cavity guard level reached"
        )

    def test_decoupled_emitter(self):
        params = replace(CascadedSystemParams(), kappa_a=0.0)
        with_photon, dark = lindblad.simulate([(params, 1), (params, 0)], 1000.0)
        assert with_photon.n_d.max() < 1e-12
        assert abs(with_photon.p_click - dark.p_click) < 1e-12

    def test_step_halving_convergence(self, monkeypatch):
        params = CascadedSystemParams()
        p1 = lindblad.simulate([(params, 1)], 800.0)[0].p_click
        monkeypatch.setattr(lindblad, "DT", 0.5)
        p2 = lindblad.simulate([(params, 1)], 800.0)[0].p_click
        assert abs(p1 - p2) < 1e-4

    def test_excitation_non_increasing_without_drive(self):
        pulse = GaussianPulse(amplitude=0.0)
        params = replace(CascadedSystemParams(), pulse=pulse)
        tr = lindblad.simulate([(params, 2)], 1000.0)[0]
        total = tr.n_a + tr.n_d + tr.p_e
        assert np.all(np.diff(total) < 1e-10)

    def test_invalid_fock_rejected(self):
        # -1 and 3 are the first values outside the exact space; a Fock state
        # is an int, so a float, a bool or a numpy integer is rejected too
        for fock in (-1, 3, 5, 1.0, 2.0, True, np.int64(1)):
            match = rf"^initial_fock {re.escape(repr(fock))} is not one of"
            with pytest.raises(ValidationError, match=match):
                lindblad.simulate([(CascadedSystemParams(), fock)])

    @pytest.mark.parametrize("kappa_d", [0.9, 1.5])
    def test_undriven_cascade_matches_closed_form(self, kappa_d):
        # with no drive the qubit stays in g, and one photon leaks from the
        # emitter cavity into the detector cavity (Gardiner, PRL 70, 2269
        # (1993); Carmichael, PRL 70, 2273 (1993))
        pulse = GaussianPulse(start_time=115.0, amplitude=0.0)
        params = CascadedSystemParams(kappa_d=kappa_d, pulse=pulse)
        tr = lindblad.simulate([(params, 1)], 1500.0)[0]
        ka, kd = params.kappa_a * MHZ_TO_RAD_NS, kappa_d * MHZ_TO_RAD_NS
        t = tr.times
        if ka == kd:
            n_d = (ka * t) ** 2 * np.exp(-ka * t)
        else:
            n_d = 4.0 * ka * kd / (kd - ka) ** 2 * (np.exp(-ka * t / 2) - np.exp(-kd * t / 2)) ** 2
        assert np.max(np.abs(tr.n_a - np.exp(-ka * t))) < 1e-9
        assert np.max(np.abs(tr.n_d - n_d)) < 1e-9
        assert np.all(tr.p_e == 0.0)

    def test_csv_columns(self, tmp_path, default_traces):
        path = tmp_path / "traces.csv"
        default_traces[1].write_csv(path)
        header = path.read_text().split("\n", 1)[0]
        assert header == "time_ns,n_A,n_D,p_e,pulse"


def _spy_propagate(monkeypatch):
    """Record each kernel call's first initial and final state."""
    propagate = lindblad._propagate
    calls = []

    def spy(rho0, *args):
        out, rho = propagate(rho0, *args)
        calls.append((rho0[0], rho[0]))
        return out, rho

    monkeypatch.setattr(lindblad, "_propagate", spy)
    return calls


def _in_full_space(monkeypatch):
    """Integrate every system in all of DIMS, as before the per-Fock spaces."""
    _, _, sp, _, obs = lindblad._operators()
    n_d = np.unravel_index(np.arange(len(sp)), lindblad.DIMS)[2]

    def full(fock):
        return np.arange(len(sp)), sp, np.vstack([obs, n_d == fock + 1])

    monkeypatch.setattr(lindblad, "_space", full)


def _random_systems(seed, count):
    """`count` (params, fock) systems drawn over wide parameter ranges, with
    pulses from before the photon release (pre-rolls) to late starts."""
    rng = np.random.default_rng(seed)
    return [
        (
            CascadedSystemParams(
                kappa_a=rng.uniform(0.0, 3.0), kappa_d=rng.uniform(0.2, 3.0),
                chi_d=rng.uniform(-6.0, 6.0), detuning=rng.uniform(-8.0, 8.0),
                pulse=GaussianPulse(
                    sigma=rng.uniform(5.0, 200.0), start_time=rng.uniform(-60.0, 400.0)
                ),
            ),
            int(rng.integers(len(lindblad.FOCK_STATES))),
        )
        for _ in range(count)
    ]


# the default pulse start, and one before the photon release (a pre-roll)
STARTS = pytest.mark.parametrize("start", [None, -10.5], ids=["default-start", "pre-roll"])


class TestExactSpace:
    """The fixed space (emitter 3, qubit 2, detector cavity 4) is exact.

    H conserves N = n_A + n_D and the collapse operator lowers it, so no
    state ever holds more photons than the emitter released, and the
    detector cavity's top level stays exactly empty.  Each system is
    integrated in the space of its Fock state n: the sector n_A + n_D <= n
    that holds every state it reaches, and guard states n_D = n + 1 up to a
    multiple of 4 states, the sizes whose products have the full space's
    bits on the OpenBLAS SkylakeX kernel.
    """

    @STARTS
    @pytest.mark.parametrize("fock", lindblad.FOCK_STATES)
    def test_no_state_gains_photons(self, fock, start, monkeypatch):
        # on the full space, so that a photon past the sector would show
        _set_cpus(monkeypatch, 1)
        _in_full_space(monkeypatch)
        calls = _spy_propagate(monkeypatch)
        params = CascadedSystemParams()
        if start is not None:
            params = _with_start(params, start)
        tr = lindblad.simulate([(params, fock)], 800.0)[0]
        assert tr.guard_max == 0.0
        n_a, _, n_d = np.unravel_index(np.arange(np.prod(lindblad.DIMS)), lindblad.DIMS)
        photons = n_a + n_d
        initial = [photons[np.diagonal(rho0) != 0.0].max() for rho0, _ in calls]
        # a pre-roll starts from the vacuum, the main window from the Fock state
        assert initial == ([0] if start is not None else []) + [fock]
        for n, (_, rho) in zip(initial, calls):
            assert np.all(rho[photons > n, :] == 0.0)
            assert np.all(rho[:, photons > n] == 0.0)

    @STARTS
    @pytest.mark.parametrize("fock", lindblad.FOCK_STATES)
    def test_kernel_runs_in_the_space(self, fock, start, monkeypatch):
        _set_cpus(monkeypatch, 1)
        calls = _spy_propagate(monkeypatch)
        params = CascadedSystemParams()
        if start is not None:
            params = _with_start(params, start)
        lindblad.simulate([(params, fock)], 300.0)
        # a pre-roll runs in the vacuum's space
        sizes = [len(rho0) for rho0, _ in calls]
        assert sizes == ([4] if start is not None else []) + [[4, 8, 16][fock]]
        n_a, _, n_d = np.unravel_index(np.arange(np.prod(lindblad.DIMS)), lindblad.DIMS)
        index, sp, obs = lindblad._space(fock)
        sector = np.flatnonzero(n_a + n_d <= fock)
        leaked = np.flatnonzero((n_a == 0) & (n_d == fock + 1))
        assert np.isin(np.union1d(sector, leaked), index).all()
        # in kron order, and padded with guard-level states only
        assert np.all(np.diff(index) > 0)
        assert np.all(n_d[np.setdiff1d(index, sector)] == fock + 1)
        assert np.array_equal(obs[3], n_d == fock + 1)
        for array in (index, sp, obs):
            assert not array.flags.writeable

    def test_space_equals_full_space(self, monkeypatch):
        _set_cpus(monkeypatch, 1)
        systems = [
            (_with_start(CascadedSystemParams(), start), fock)
            for start in (115.0, -10.5) for fock in lindblad.FOCK_STATES
        ]
        reduced = lindblad.simulate(systems, 800.0)
        _in_full_space(monkeypatch)
        full = lindblad.simulate(systems, 800.0)
        for a, b in zip(reduced, full):
            for field in ("n_a", "n_d", "p_e"):
                assert np.max(np.abs(getattr(a, field) - getattr(b, field))) <= 1e-15
            assert a.guard_max == b.guard_max == 0.0

    def test_random_systems_digest(self, monkeypatch):
        # the bytes of every trace, pinned before the space shrank (OpenBLAS
        # SkylakeX kernel): a smaller space must give the same floats
        _set_cpus(monkeypatch, 1)
        systems = _random_systems(20261026, 12)
        focks = [fock for _, fock in systems]
        assert set(focks) == set(lindblad.FOCK_STATES)
        assert len(set(focks[:lindblad._BATCH])) == len(lindblad.FOCK_STATES)
        assert any(params.pulse.start_time < 0.0 for params, _ in systems)
        digest = hashlib.sha256()
        for tr in lindblad.simulate(systems, 700.0):
            for array in (tr.times, tr.n_a, tr.n_d, tr.p_e, tr.pulse):
                digest.update(array.tobytes())
            digest.update(np.array([tr.guard_max, tr.trace_error]).tobytes())
        assert digest.hexdigest() == (
            "31f1dbc1e9863918ca1efc47169409f0df320d96913e6f5f8267a28e18732d15"
        )

    @pytest.mark.parametrize("n_cpus", [1, 2])
    def test_second_call_embeds_no_operator(self, n_cpus, monkeypatch):
        _set_cpus(monkeypatch, n_cpus)
        systems = [(CascadedSystemParams(), 1), (_with_start(CascadedSystemParams(), -10.0), 2)]
        first = lindblad.simulate(systems, 300.0)

        def refuse(*args):
            raise AssertionError("embedded a cascade operator")

        monkeypatch.setattr(lindblad, "embed_operator", refuse)
        second = lindblad.simulate(systems, 300.0)
        assert [tr.p_click for tr in second] == [tr.p_click for tr in first]

    def test_operators_are_read_only(self):
        for op in lindblad._operators():
            assert not op.flags.writeable


def _reference_propagate(rho0, h0, hp, c_op, coeffs, dt, obs, index):
    """The RK4 kernel as one expression per stage and step, before it built
    its Hamiltonians and observables a block at a time: the oracle whose
    bits `lindblad._propagate` must give."""
    hm = np.ascontiguousarray(hp.conj().T)
    c_dag = np.ascontiguousarray(np.conj(c_op).transpose(0, 2, 1))
    cdc = c_dag @ c_op
    n_steps = (coeffs.shape[1] - 1) // 2
    c = coeffs.T[:, :, None, None]
    c_conj = np.conj(c)

    def hamiltonian(j):
        return h0 + c[j] * hp + c_conj[j] * hm

    def rhs(rho, h):
        # drho = -i[H, rho] + C rho C^dag - (1/2){C^dag C, rho}
        comm = h @ rho - rho @ h
        return (
            -1j * comm
            + c_op @ rho @ c_dag
            - 0.5 * (cdc @ rho + rho @ cdc)
        )

    # the diagonal is scattered to the observables' full width, so that each
    # sum adds the same floats in the same order as on the full space
    diag = np.zeros((rho0.shape[0], obs.shape[1]), dtype=complex)

    def expect(rho):
        diag[:, index] = np.diagonal(rho, axis1=1, axis2=2)
        return (obs * diag[:, None, :]).sum(-1).real

    out = np.empty((n_steps + 1, rho0.shape[0], obs.shape[0]))
    rho = rho0.copy()
    out[0] = expect(rho)
    h_start = hamiltonian(0)
    for i in range(n_steps):
        h_half = hamiltonian(2 * i + 1)
        h_end = hamiltonian(2 * i + 2)
        k1 = rhs(rho, h_start)
        k2 = rhs(rho + (0.5 * dt) * k1, h_half)
        k3 = rhs(rho + (0.5 * dt) * k2, h_half)
        k4 = rhs(rho + dt * k3, h_end)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out[i + 1] = expect(rho)
        h_start = h_end
    return out.transpose(1, 2, 0), rho


# _BATCH systems with mixed rates, detunings and pulse starts, eight sets of
# rates each at four starts; the pulses are short, so that each drive acts
# inside a window of a few dozen steps
ORACLE_PARAMS = [
    CascadedSystemParams(
        kappa_a=kappa_a, kappa_d=kappa_d, detuning=detuning,
        pulse=GaussianPulse(sigma=4.0, start_time=start + shift),
    )
    for shift in (0.0, 5.0, 10.0, 15.0)
    for kappa_a, kappa_d, detuning, start in [
        (0.9, 0.9, -3.0, 2.0), (0.0, 1.5, 0.0, -4.0), (2.0, 0.5, 4.5, 0.5),
        (0.9, 2.5, -1.0, 6.0), (1.3, 0.9, 2.0, 0.0), (0.4, 0.7, -6.0, 11.0),
        (3.0, 3.0, 0.5, -1.5), (0.9, 0.2, -3.0, 20.0),
    ]
][:lindblad._BATCH]


def _kernel_inputs(fock, batch, steps):
    """`_propagate`'s arguments for `batch` oracle systems in the space of
    Fock state `fock` over `steps` steps, as `_integrate` builds them."""
    index, sp, obs = lindblad._space(fock)
    rows, cols = np.ix_(index, index)
    params = ORACLE_PARAMS[:batch]
    h0, c_op = map(np.stack, zip(*map(lindblad._system_operators, params)))
    times = lindblad.DT * np.arange(steps + 1)
    rho0 = np.stack([lindblad._initial_state(fock)] * batch)
    coeffs = np.stack([lindblad._drive_coefficients(p, times) for p in params])
    return (rho0[:, rows, cols], h0[:, rows, cols], sp, c_op[:, rows, cols], coeffs,
            lindblad.DT, obs, index)


def _sideband_inputs(sub, points):
    """`sideband_rabi`'s kernel call over `points` 1-ns grid points cut into
    `sub` steps each: 3x3, one system, no drive operator."""
    h0 = np.zeros((3, 3), dtype=complex)
    h0[0, 1] = h0[1, 0] = calibrate_sideband_drive(0.9) * MHZ_TO_RAD_NS / 2.0
    c_op = np.zeros((3, 3), dtype=complex)
    c_op[2, 1] = np.sqrt(0.9 * MHZ_TO_RAD_NS)
    rho0 = np.zeros((1, 3, 3), dtype=complex)
    rho0[0, 0, 0] = 1.0
    coeffs = np.zeros((1, 2 * (points - 1) * sub + 1), dtype=complex)
    dt = np.float64(1.0) / sub
    return rho0, h0[None], np.zeros_like(h0), c_op[None], coeffs, dt, np.eye(3), np.arange(3)


def _block_steps(args):
    """Steps per block of a kernel call with these arguments."""
    rho0, obs = args[0], args[6]
    return lindblad._block_steps(*rho0.shape[:2], *obs.shape[::-1])


def assert_kernel_is_oracle(args):
    out, rho = lindblad._propagate(*args)
    want_out, want_rho = _reference_propagate(*args)
    for got, want in ((out, want_out), (rho, want_rho)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.fixture(params=[None, 1, 2], ids=["budget", "1-step", "2-step"])
def block(request, monkeypatch):
    """The default budget, or blocks of one step (3 half steps) or two (5)."""
    if request.param is not None:
        monkeypatch.setattr(lindblad, "_block_steps", lambda *shape: request.param)


class TestKernelOracle:
    """`_propagate` gives the bits of one expression per stage and step.

    The kernel builds each block's drive Hamiltonians in one expression,
    copies each into a stack with c_op^dag c_op and c_op, and takes the
    observables a block at a time; every elementwise operation keeps its
    operands and order and every product is one zgemm per slice, so each
    output and final state equals the reference kernel's byte for byte,
    on whichever BLAS kernel both run.  Each case runs again with blocks
    of one and two steps, so that every block reload runs.
    """

    @pytest.mark.parametrize("batch", [1, lindblad._BATCH])
    @pytest.mark.parametrize("fock", lindblad.FOCK_STATES)
    def test_each_box(self, fock, batch, block):
        assert_kernel_is_oracle(_kernel_inputs(fock, batch, 41))

    @pytest.mark.parametrize("offset", [-1, 0, 1], ids=["below", "at", "above"])
    @pytest.mark.parametrize("batch", [1, lindblad._BATCH])
    @pytest.mark.parametrize("fock", lindblad.FOCK_STATES)
    def test_windows_around_a_block(self, fock, batch, block, offset):
        # a window one step short of a block, a whole block, and one step
        # into the next block; a block of S steps holds 2 S + 1 half steps
        steps = _block_steps(_kernel_inputs(fock, batch, 1)) + offset
        args = _kernel_inputs(fock, batch, steps)
        assert _block_steps(args) == steps - offset
        assert_kernel_is_oracle(args)

    @pytest.mark.parametrize("sub", [1, 2, 3])
    def test_sideband_call(self, sub, block):
        assert_kernel_is_oracle(_sideband_inputs(sub, 41))

    def test_a_window_of_no_steps(self):
        assert_kernel_is_oracle(_kernel_inputs(1, 2, 0))


class TestKernelMemory:
    def test_peak_does_not_grow_with_the_window(self, monkeypatch):
        # DT = 4 ns keeps the 6000-ns window at 1500 steps
        monkeypatch.setattr(lindblad, "DT", 4.0)
        peaks = []
        # a first traced call, which also traces a few one-time allocations
        for t_total in (12.0, 1500.0, 6000.0):
            args = _kernel_inputs(2, lindblad._BATCH, lindblad.window_steps(t_total))
            tracemalloc.start()
            try:
                out, rho = lindblad._propagate(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks.append(peak - out.nbytes - rho.nbytes)
        assert peaks[1] == peaks[2]
        # beyond the block budget: a one-step block when a step outgrows the
        # budget (three half steps of H and drive terms, 6 (B, n, n) stacks),
        # the call's fixed buffers (17 stacks) and numpy's iterator buffers
        # for the broadcast drive products (under 512 KiB)
        stack_bytes = args[0].nbytes
        assert peaks[2] <= lindblad._BLOCK_BYTES + 23 * stack_bytes + (512 << 10)


class TestPulseCalibration:
    def test_calibrated_once_per_pulse(self, monkeypatch):
        trapezoid, calls = np.trapezoid, []

        def counted(*args):
            calls.append(args)
            return trapezoid(*args)

        monkeypatch.setattr(np, "trapezoid", counted)
        pulse = GaussianPulse(start_time=115.0)
        first, second = pulse.peak_rate_rad_ns, pulse.peak_rate_rad_ns
        pulse.rate_rad_ns(np.arange(0.0, 600.0))
        assert len(calls) == 1
        fresh = GaussianPulse(start_time=115.0).peak_rate_rad_ns
        assert first.hex() == second.hex() == fresh.hex()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"sigma": 1e-300}, {"sigma": 1e300}, {"start_time": 1e300},
            {"sigma": 1e-300, "amplitude": 1.0},
            {"sigma": 1e200, "total_length": 1.0, "amplitude": 1.0},
            {"sigma": 1e100, "total_length": 1.0, "amplitude": 1.0},
        ],
    )
    def test_unresolvable_pulse_rejected(self, kwargs):
        # sigma**2 underflows to 0 or overflows, (t - t0)**2 overflows, the
        # calibration grid collapses to one point, or the edge-subtracted
        # envelope is 0/0; a given amplitude is checked the same way
        params = replace(CascadedSystemParams(), pulse=GaussianPulse(**kwargs))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="no finite, positive area"):
                params.pulse.peak_rate_rad_ns
            with pytest.raises(ValidationError, match="no finite, positive area"):
                lindblad.simulate([(params, 1)], 100.0)


def _first_failure(params_list, initial_fock, t_total):
    """The IntegrationError text of integrating the systems one by one."""
    for params in params_list:
        try:
            lindblad.simulate([(params, initial_fock)], t_total)
        except IntegrationError as exc:
            return str(exc)
    return None


def _with_start(params, start):
    return replace(params, pulse=replace(params.pulse, start_time=float(start)))


class TestPreRoll:
    """A pulse that starts before the photon release is pre-rolled on the
    empty system from the first whole step at or before its start."""

    def test_off_grid_start_converges(self, monkeypatch):
        params = _with_start(CascadedSystemParams(), -10.5)
        coarse = lindblad.simulate([(params, 1)], 800.0)[0]
        monkeypatch.setattr(lindblad, "DT", 0.25)
        fine = lindblad.simulate([(params, 1)], 800.0)[0]
        assert abs(coarse.p_click - fine.p_click) < 1e-6

    @pytest.mark.parametrize("start, dt", [(-10.5, 1.0), (-0.3, 1.0), (-100.0, 1.0), (-7.0, 2.0)])
    def test_trace_times_are_uniform_through_zero(self, start, dt, monkeypatch):
        monkeypatch.setattr(lindblad, "DT", dt)
        tr = lindblad.simulate([(_with_start(CascadedSystemParams(), start), 1)], 300.0)[0]
        assert np.array_equal(np.diff(tr.times), np.full(len(tr.times) - 1, dt))
        assert tr.times[0] <= start < tr.times[0] + dt
        assert 0.0 in tr.times


class TestBatchedIntegration:
    """Batched sweeps and robustness equal one-by-one integration exactly."""

    # each test steps at 2 ns, for speed

    def test_delay_sweep_equals_single_runs(self, monkeypatch):
        # negative delays pre-roll per system; more points than one batch
        monkeypatch.setattr(lindblad, "DT", 2.0)
        params = CascadedSystemParams()
        delays = np.linspace(-150.0, 300.0, lindblad._BATCH + 2)
        batched = pulse_sweep(params, "delay", delays, initial_fock=1, t_total=800.0)
        single = [
            lindblad.simulate([(_with_start(params, d), 1)], 800.0)[0].p_click
            for d in delays
        ]
        assert batched.tolist() == single

    def test_detuning_sweep_equals_single_runs(self, monkeypatch):
        monkeypatch.setattr(lindblad, "DT", 2.0)
        params = _with_start(CascadedSystemParams(), -40.0)
        detunings = np.array([-6.0, -3.0, 0.0, 2.5])
        for fock in (0, 2):
            batched = pulse_sweep(params, "detuning", detunings, initial_fock=fock, t_total=700.0)
            single = [
                lindblad.simulate([(replace(params, detuning=float(v)), fock)], 700.0)[0].p_click
                for v in detunings
            ]
            assert batched.tolist() == single

    def test_robustness_equals_single_runs(self, monkeypatch):
        monkeypatch.setattr(lindblad, "DT", 2.0)
        params = CascadedSystemParams()
        report = parameter_robustness(params, 0.2, t_total=800.0)
        # the baseline and six variants, as the docstring defines them
        amp = params.pulse.peak_rate_rad_ns / MHZ_TO_RAD_NS
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
        etas = [lindblad.simulate([(v, 1)], 800.0)[0].p_click for v in variants]
        baseline = lindblad.simulate([(base, 1)], 800.0)[0].p_click
        assert report.baseline_efficiency == baseline
        assert [v[2] for v in report.variations] == etas
        assert [v[1] for v in report.variations] == [v.kappa_d for v in variants]

    @pytest.mark.parametrize(
        "starts",
        [
            (150.0, 50.0, -30.0),    # main-window failure before a pre-roll failure
            (150.0, -30.0, 50.0),    # pre-roll failure first
            (50.0, 150.0, -30.0, 60.0),  # failures in both shards of two
            # each shard's first batch of two is clean and its second fails:
            # in the main window before a pre-roll, then in a pre-roll first
            (150.0, 150.0, 50.0, -30.0, 150.0, 150.0, -30.0, 150.0),
            (150.0, 150.0, -30.0, 50.0, 150.0, 150.0, 50.0, 150.0),
        ],
    )
    def test_failing_member_raises_first_error(self, starts, monkeypatch):
        # an 800 MHz pulse drives RK4 at dt = 1 ns out of its stability region;
        # the pulse starting at 150 ns lies after the window and stays clean
        _set_cpus(monkeypatch, 2)
        monkeypatch.setattr(lindblad, "_BATCH", 2)
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=800.0, start_time=0.0),
        )
        expected = _first_failure([_with_start(params, s) for s in starts], 1, t_total=120.0)
        assert expected is not None
        with pytest.raises(IntegrationError) as exc:
            pulse_sweep(params, "delay", starts, initial_fock=1, t_total=120.0)
        assert str(exc.value) == expected

    def test_diverging_run_names_the_slower_drive(self):
        # the 800 MHz pulse again: both time-domain models fail with one
        # message, and the cascade's step is fixed, so it names the drive
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=800.0, start_time=0.0),
        )
        with pytest.raises(
            IntegrationError,
            match=r"^integrator left tolerance: .*; use a slower drive or smaller rates$",
        ):
            lindblad.simulate([(params, 1)], 120.0)

    def test_nan_state_fails_budget(self):
        # an overflowing integration ends in NaN, which no budget admits; the
        # suite's error::RuntimeWarning filter shows that no numpy warning escapes
        params = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=1e7, start_time=50.0),
        )
        with pytest.raises(IntegrationError, match="nan"):
            lindblad.simulate([(params, 1)], 200.0)


def _set_cpus(monkeypatch, n):
    """Pin the affinity mask `simulate` reads to n CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


# a caller killed mid-integration: two forked workers append their pids to
# the file named by argv[1]
KILLED_CALLER = """
import os
import sys
from heraldsim import lindblad

os.sched_getaffinity = lambda pid: {0, 1}
integrate_shard = lindblad._integrate_shard


def announced(systems, times_main):
    with open(sys.argv[1], "a") as pids:
        pids.write(f"{os.getpid()}\\n")
    return integrate_shard(systems, times_main)


lindblad._integrate_shard = announced
params = lindblad.CascadedSystemParams()
lindblad.simulate([(params, 2), (params, 2)], 1500.0)
"""


def _running(pid):
    """Whether process pid exists and is not a zombie awaiting its reaper."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rpartition(")")[2].split()[0] != "Z"
    except FileNotFoundError:
        return False


# pre-roll and main-window starts, each Fock state, and a detuned system
SHARD_SYSTEMS = [
    (_with_start(CascadedSystemParams(), start), fock)
    for start, fock in [(-60.0, 1), (115.0, 0), (-10.0, 2), (40.0, 1), (-100.0, 0),
                        (0.0, 2), (80.0, 1), (-30.0, 1), (115.0, 2), (20.0, 0)]
]
SHARD_SYSTEMS[3] = (replace(SHARD_SYSTEMS[3][0], detuning=0.0), 1)


@pytest.mark.skipif(sys.platform != "linux", reason="systems are sharded on Linux only")
class TestForkedShards:
    """Systems integrated in forked workers equal the in-process run exactly."""

    def _run(self, monkeypatch, n_cpus, systems, t_total=400.0):
        """simulate on n_cpus at a 2-ns step, for speed; also how often a
        shard ran in this process."""
        _set_cpus(monkeypatch, n_cpus)
        monkeypatch.setattr(lindblad, "DT", 2.0)
        calls = []
        integrate_shard = lindblad._integrate_shard

        def counted(*args):
            calls.append(args)
            return integrate_shard(*args)

        monkeypatch.setattr(lindblad, "_integrate_shard", counted)
        return lindblad.simulate(systems, t_total), len(calls)

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("batch", [lindblad._BATCH, 2])
    def test_shards_equal_one_cpu(self, n, batch, monkeypatch):
        # with a batch of 2 each shard holds more than one kernel call
        monkeypatch.setattr(lindblad, "_BATCH", batch)
        sharded, local_calls = self._run(monkeypatch, 3, SHARD_SYSTEMS[:n])
        # one system runs in-process; more are integrated only in workers
        assert local_calls == (1 if n == 1 else 0)
        single, local_calls = self._run(monkeypatch, 1, SHARD_SYSTEMS[:n])
        assert local_calls == 1
        assert len(sharded) == len(single) == n
        for a, b in zip(sharded, single):
            for field in ("times", "n_a", "n_d", "p_e", "pulse"):
                assert np.array_equal(getattr(a, field), getattr(b, field))
            assert a.guard_max == b.guard_max
            assert a.trace_error == b.trace_error

    def test_no_worker_outlives_the_call(self, monkeypatch):
        _set_cpus(monkeypatch, 2)
        lindblad.simulate(SHARD_SYSTEMS[:4], 200.0)
        assert multiprocessing.active_children() == []
        diverging = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=800.0, start_time=0.0),
        )
        with pytest.raises(IntegrationError):
            lindblad.simulate([(diverging, 1), (diverging, 1)], 120.0)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_the_caller_is_killed(self, tmp_path):
        # one subprocess whose 2-system simulate forks two workers; each
        # worker writes its pid, then the subprocess gets SIGTERM
        pid_file = tmp_path / "workers"
        pid_file.touch()
        env = dict(os.environ, PYTHONPATH=str(Path(lindblad.__file__).parents[1]))
        caller = subprocess.Popen([sys.executable, "-c", KILLED_CALLER, str(pid_file)], env=env)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(pid_file.read_text().split()) < 2 and time.monotonic() < deadline:
                time.sleep(0.05)
            workers = [int(pid) for pid in pid_file.read_text().split()]
            assert len(workers) == 2
            caller.send_signal(signal.SIGTERM)
            assert caller.wait(timeout=30) == -signal.SIGTERM
            deadline = time.monotonic() + 5.0
            while any(map(_running, workers)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert [pid for pid in workers if _running(pid)] == []
        finally:
            for pid in filter(_running, workers):
                os.kill(pid, signal.SIGKILL)
            caller.kill()
            caller.wait(timeout=30)

    def test_overflow_is_an_integration_error_under_any_float_policy(self, monkeypatch):
        # the first system overflows to NaN, the second stays clean; on one
        # CPU and in forked workers, whatever the caller's numpy error state
        # and warning filters, the budget's IntegrationError is the outcome
        overflowing = replace(
            CascadedSystemParams(),
            pulse=GaussianPulse(sigma=10.0, amplitude=1e7, start_time=50.0),
        )
        systems = [(overflowing, 1), (CascadedSystemParams(), 1)]

        def failure():
            before = np.geterr()
            with pytest.raises(IntegrationError, match="nan") as exc:
                lindblad.simulate(systems, 200.0)
            assert np.geterr() == before
            return str(exc.value)

        def outcome(n_cpus):
            _set_cpus(monkeypatch, n_cpus)
            with np.errstate(all="raise"):
                seen = [failure()]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                seen.append(failure())
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("default")
                seen.append(failure())
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
            return seen

        sharded = outcome(2)
        assert len(set(sharded)) == 1
        assert sharded == outcome(1)


class TestWindowValidation:
    @pytest.mark.parametrize("t_total", [0.0, -5.0, float("nan"), float("inf")])
    def test_bad_t_total_rejected(self, t_total):
        with pytest.raises(ValidationError, match="t_total"):
            lindblad.simulate([(CascadedSystemParams(), 1)], t_total)
        with pytest.raises(ValidationError, match="t_total"):
            lindblad.window_steps(t_total)

    def test_sweep_and_robustness_validate_window(self):
        params = CascadedSystemParams()
        with pytest.raises(ValidationError):
            pulse_sweep(params, "delay", [0.0], t_total=-1.0)
        with pytest.raises(ValidationError):
            parameter_robustness(params, 0.1, t_total=float("nan"))

    def test_unindexable_window_is_a_memory_error(self, monkeypatch):
        # numpy refuses a grid of 2^63 bytes or more with a bare ValueError;
        # simulate raises the CLI's one-line MemoryError before integrating
        def integrated(*args):
            raise AssertionError("a system was integrated")

        monkeypatch.setattr(lindblad, "_integrate_shard", integrated)
        monkeypatch.setattr(lindblad, "_integrate_forked", integrated)
        params = CascadedSystemParams()
        too_many = "Unable to allocate 100000000000000000001"
        with pytest.raises(
            MemoryError, match=rf"^{too_many} time points: more than any address space holds$"
        ):
            lindblad.simulate([(params, 1), (params, 0)], 1e20)
        with pytest.raises(MemoryError, match=rf"^{too_many} pre-roll time points: "):
            lindblad.simulate([(params, 1), (_with_start(params, -1e20), 1)])
        # the largest finite starts give a finite, exact count too
        with pytest.raises(
            MemoryError, match=rf"^Unable to allocate {int(1e300) + 1} pre-roll time points: "
        ):
            lindblad.simulate([(_with_start(params, -1e300), 1)], 100.0)


NAN, INF = float("nan"), float("inf")
# each numeric input of the time-domain models at the float range's edges
EXTREMES = [1e300, -1e300, 1e-300, 0.0, INF, -INF, NAN]


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
            # a spacing past the float range, and one that turns back
            (1.0, 1.0, [-1e308, 1e308]),
            (1.0, 1.0, [0.0, 1e308, 0.0]),
        ],
    )
    def test_bad_sideband_inputs_rejected(self, drive, kappa, times):
        with pytest.raises(ValidationError):
            sideband_rabi(drive, kappa, 0.5, np.array(times))

    @pytest.mark.parametrize(
        "times, count", [([0.0, 1e20], "4e+20"), ([0.0, 2.0**58], str(2.0**60)),
                         ([0.0, 1.7e308], "inf")],
    )
    def test_oversized_sideband_grid_is_a_memory_error(self, times, count, monkeypatch):
        # numpy would refuse the first two with a bare ValueError
        def integrated(*args):
            raise AssertionError("a grid was integrated")

        monkeypatch.setattr(lindblad, "_propagate", integrated)
        with pytest.raises(
            MemoryError, match=rf"^Unable to allocate {re.escape(count)} RK4 half steps: "
        ):
            sideband_rabi(1.0, 0.9, 0.5, np.array(times))

    @pytest.mark.parametrize("value", EXTREMES, ids=str)
    @pytest.mark.parametrize(
        "field",
        ["kappa_a", "kappa_d", "chi_d", "detuning",
         "pulse.sigma", "pulse.total_length", "pulse.amplitude", "pulse.start_time"],
    )
    def test_extreme_cascade_input_raises_only_documented_errors(self, field, value):
        # a 20-ns pulse inside the 20-ns window, so that the drive acts; the
        # rates and amplitude at 1e300 take RK4 out of range
        base = CascadedSystemParams(pulse=GaussianPulse(sigma=5.0, start_time=0.0))

        def run():
            if field.startswith("pulse."):
                pulse = replace(base.pulse, **{field.removeprefix("pulse."): value})
                params = replace(base, pulse=pulse)
            else:
                params = replace(base, **{field: value})
            return lindblad.simulate([(params, 1)], 20.0)[0].p_e

        _returns_or_documented_error(run)

    @pytest.mark.parametrize("value", EXTREMES, ids=str)
    @pytest.mark.parametrize("field", ["drive_rate", "kappa"])
    def test_extreme_sideband_input_raises_only_documented_errors(self, field, value):
        inputs = {"drive_rate": 1.0, "kappa": 0.9, field: value}
        _returns_or_documented_error(
            lambda: sideband_rabi(**inputs, eta=0.5, times=np.arange(0.0, 21.0)).p_e1
        )


def _returns_or_documented_error(run):
    """run() returns finite traces or raises one of the library's three errors."""
    try:
        traces = run()
    except (ValidationError, IntegrationError, MemoryError):
        return
    assert np.all(np.isfinite(traces))


class TestRobustness:
    def test_zero_variation_is_exact(self):
        report = parameter_robustness(CascadedSystemParams(), 0.0, t_total=900.0)
        assert report.max_relative_change == 0.0

    def test_twenty_percent_variation_under_ten_percent(self):
        report = parameter_robustness(CascadedSystemParams(), 0.2, t_total=1500.0)
        assert report.max_relative_change < 0.10

    def test_bandwidth_mismatch_degrades_monotonically(self):
        params = CascadedSystemParams()
        systems = [(replace(params, kappa_d=params.kappa_d * r), 1) for r in (1.0, 1.5, 2.0)]
        etas = [tr.p_click for tr in lindblad.simulate(systems, 1200.0)]
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

    @pytest.mark.parametrize(
        "kappa, pi_time",
        [(NAN, 254.0), (-0.9, 254.0), (INF, 254.0), (50.0, 254.0), (1e300, 254.0),
         (0.9, NAN), (0.9, 1e6), (0.9, 0.0), (0.9, -5.0)],
    )
    def test_uncalibratable_target_rejected(self, kappa, pi_time):
        # kappa not finite or negative, overdamped for every drive up to 25 MHz
        # (50 MHz), or with a square past the float range (1e300 MHz); a pi
        # time not finite and positive, or past the 707 ns maximum of kappa
        # 0.9 MHz: no drive rate answers any of them
        with pytest.raises(ValidationError):
            calibrate_sideband_drive(kappa, pi_time)

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
        # and names the slower drive, as the cascade's message does
        with pytest.raises(IntegrationError, match="slower drive"):
            sideband_rabi(2000.0, 1.0, 1.0, np.arange(0.0, 501.0))

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValidationError):
            sideband_rabi(1.0, 1.0, 0.5, np.array([0.0, 1.0, 3.0]))
