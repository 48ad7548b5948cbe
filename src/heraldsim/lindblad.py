"""Time-domain open-system models of the microwave photon detector.

Two models live here:

* `cascaded_simulate`: the emitter cavity unidirectionally coupled into
  the detector qubit-cavity module (standard input-output cascade: one
  collapse operator sqrt(kappa_A) a + sqrt(kappa_D) d plus the coupling
  Hamiltonian (i/2) sqrt(kappa_A kappa_D) (a^dag d - a d^dag)), with the
  dispersive shift -chi |e><e| d^dag d and a photon-number-selective
  Gaussian qubit pulse.  The emitter starts in a Fock state (emission is
  instantaneous); the detector click probability is the qubit excited
  population after the pulse.

* `sideband_rabi`: the damped three-level model of photon generation --
  a coherent drive cycles |f0> <-> |e1> while the cavity decay kappa
  drains |e1> into |e0>.

Frames and units: everything rotates at the (common) cavity frequency and
the bare qubit frequency, so the only time dependence is the drive
envelope times exp(-i Delta t).  Frequencies are quoted as f = omega/2pi
in MHz, times in ns.

Integration is fixed-step classical RK4 (default 1 ns), deterministic by
construction.  One numpy kernel, `_propagate`, steps a stack of
independent systems at once: `simulate`, `pulse_sweep` and
`parameter_robustness` integrate all their systems in one batch, and every
member's trajectory is bit-identical to integrating it alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import atan, isfinite, pi, sqrt

import numpy as np

from .qmath import ValidationError, basis_ket, embed_operator, partial_trace_matrix
from .photonics import annihilation

MHZ_TO_RAD_NS = 2.0e-3 * np.pi  # omega [rad/ns] = 2 pi f[MHz] 1e-3

TRACE_TOL = 1e-8
HERMITICITY_TOL = 1e-10
GUARD_TOL = 1e-3

# Systems per kernel call; bounds the stacked states and traces of long
# sweeps.  Timed at 4, 8, 16 and 32 systems (1500 ns, 2 cores): 8 was the
# fastest per system, 0.21 s against 0.23-0.29 s.
_BATCH = 8


class IntegrationError(RuntimeError):
    """The integrator left its tolerance budget; message carries the estimate."""


def _require_finite(**values) -> None:
    for name, value in values.items():
        if not isfinite(value):
            raise ValidationError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class GaussianPulse:
    """Truncated, offset-subtracted Gaussian drive envelope.

    The envelope is exp(-(t-t0)^2 / 2 sigma^2) minus its edge value,
    renormalized, over [start_time, start_time + total_length]; zero
    outside.  With amplitude=None the peak Rabi rate is calibrated so the
    pulse area is pi (a resonant pi pulse).
    """

    sigma: float = 120.0           # ns
    total_length: float | None = None   # ns, defaults to 4 sigma
    amplitude: float | None = None       # MHz peak Rabi rate; None = pi area
    start_time: float = 0.0        # ns

    def __post_init__(self):
        if self.total_length is None:
            object.__setattr__(self, "total_length", 4.0 * self.sigma)
        amplitude = 0.0 if self.amplitude is None else self.amplitude
        _require_finite(sigma=self.sigma, total_length=self.total_length,
                        amplitude=amplitude, start_time=self.start_time)
        if self.sigma <= 0.0 or self.total_length <= 0.0:
            raise ValidationError("pulse sigma and length must be positive")

    def unit_envelope(self, t: np.ndarray) -> np.ndarray:
        """Envelope with unit peak on an arbitrary time grid."""
        t = np.asarray(t, dtype=float)
        t0 = self.start_time + self.total_length / 2.0
        raw = np.exp(-((t - t0) ** 2) / (2.0 * self.sigma**2))
        edge = np.exp(-((self.total_length / 2.0) ** 2) / (2.0 * self.sigma**2))
        env = (raw - edge) / (1.0 - edge)
        inside = (t >= self.start_time) & (t <= self.start_time + self.total_length)
        return np.where(inside, np.clip(env, 0.0, None), 0.0)

    def peak_rate_rad_ns(self) -> float:
        """Peak Rabi rate in rad/ns, calibrating pi area when amplitude is None."""
        if self.amplitude is not None:
            return float(self.amplitude) * MHZ_TO_RAD_NS
        grid = np.linspace(
            self.start_time, self.start_time + self.total_length, 20001
        )
        area_unit = np.trapezoid(self.unit_envelope(grid), grid)
        return pi / area_unit

    def rate_rad_ns(self, t: np.ndarray) -> np.ndarray:
        return self.peak_rate_rad_ns() * self.unit_envelope(t)


@dataclass(frozen=True)
class CascadedSystemParams:
    """Emitter cavity -> detector qubit-cavity cascade parameters.

    Frequencies are f = omega/2pi in MHz.  Defaults are the measured
    operating point: matched 0.9 MHz cavity linewidths, 3 MHz dispersive
    shift, and the selective pulse driven one dispersive shift below the
    bare qubit line (the single-photon-selective frequency).
    """

    kappa_a: float = 0.9
    kappa_d: float = 0.9
    chi_d: float = 3.0
    emitter_dim: int = 3
    detector_cavity_dim: int = 4
    # Default pulse timing puts the pulse center on the intra-cavity
    # population maximum (2/kappa after release), the detection-optimal
    # delay; `pulse_sweep` over delay reproduces this optimum.
    pulse: GaussianPulse = GaussianPulse(start_time=115.0)
    detuning: float = -3.0

    def __post_init__(self):
        _require_finite(kappa_a=self.kappa_a, kappa_d=self.kappa_d,
                        chi_d=self.chi_d, detuning=self.detuning)
        if self.kappa_a < 0.0 or self.kappa_d <= 0.0:
            raise ValidationError("cavity rates must be positive (kappa_a may be 0)")
        if self.emitter_dim < 3:
            raise ValidationError("emitter_dim must be >= 3")
        if self.detector_cavity_dim < 4:
            raise ValidationError("detector_cavity_dim must be >= 4")


@dataclass(frozen=True)
class TimeTraces:
    """Sampled expectation-value trajectories from the cascade integration."""

    times: np.ndarray          # ns
    n_a: np.ndarray            # emitter cavity photon number
    n_d: np.ndarray            # detector cavity photon number
    p_e: np.ndarray            # detector qubit excited population
    pulse: np.ndarray          # drive envelope, rad/ns
    guard_max: float
    trace_error: float

    @property
    def p_click(self) -> float:
        """Click probability: qubit excited population at the final time."""
        return float(self.p_e[-1])

    def write_csv(self, path) -> None:
        """CSV with header time_ns, n_A, n_D, p_e, pulse."""
        data = np.column_stack([self.times, self.n_a, self.n_d, self.p_e, self.pulse])
        header = "time_ns,n_A,n_D,p_e,pulse"
        np.savetxt(path, data, delimiter=",", header=header, comments="")


class _CascadeOperators:
    """Hilbert space (emitter cavity, detector qubit, detector cavity)."""

    def __init__(self, params: CascadedSystemParams):
        dims = (params.emitter_dim, 2, params.detector_cavity_dim)
        self.dims = dims
        a = embed_operator(annihilation(params.emitter_dim), dims, (0,))
        d = embed_operator(annihilation(params.detector_cavity_dim), dims, (2,))
        sp = embed_operator(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex), dims, (1,))
        pe = embed_operator(np.diag([0.0, 1.0]).astype(complex), dims, (1,))

        ka = params.kappa_a * MHZ_TO_RAD_NS
        kd = params.kappa_d * MHZ_TO_RAD_NS
        chi = params.chi_d * MHZ_TO_RAD_NS

        h_casc = 0.5j * sqrt(ka * kd) * (a.conj().T @ d - a @ d.conj().T)
        h_disp = -chi * pe @ (d.conj().T @ d)
        self.h0 = h_casc + h_disp
        self.hp = sp
        self.c_op = sqrt(ka) * a + sqrt(kd) * d

        guard = np.zeros(params.detector_cavity_dim)
        guard[-1] = 1.0
        guard_op = embed_operator(np.diag(guard).astype(complex), dims, (2,))
        # n_A, n_D, p_e and the guard level, all diagonal: rows of diagonals
        self.obs = np.stack(
            [np.diagonal(op).real for op in (a.conj().T @ a, d.conj().T @ d, pe, guard_op)]
        )

    def initial_state(self, emitter_fock: int, detector=None) -> np.ndarray:
        """|n><n| on the emitter times `detector`, by default |g, 0><g, 0|."""
        ket = basis_ket(self.dims[0], emitter_fock)
        if detector is None:
            ground = np.kron(basis_ket(2, 0), basis_ket(self.dims[2], 0))
            detector = np.outer(ground, ground.conj())
        return np.kron(np.outer(ket, ket.conj()), detector)


def _propagate(rho0, h0, hp, c_op, coeffs, dt, obs):
    """Classical RK4 over a stack of B independent systems.

    rho0, h0, hp and c_op are (B, n, n); coeffs is (B, 2*n_steps + 1), each
    system's drive coefficient c on the half-step grid, with
    H = h0 + c hp + c* hp^dag and the single collapse operator c_op.  obs
    holds the diagonals (n_obs, n) of diagonal observables.  Returns the
    (B, n_obs, n_steps + 1) real expectation traces and the (B, n, n) final
    states.  Each slice gets the same arithmetic in the same order as a
    stack of one.
    """
    hm = np.ascontiguousarray(np.conj(hp).transpose(0, 2, 1))
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

    def expect(rho):
        return (obs * np.diagonal(rho, axis1=1, axis2=2)[:, None, :]).sum(-1).real

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


def _drive_coefficients(params: CascadedSystemParams, times, dt) -> np.ndarray:
    """0.5 x envelope x exp(-i Delta t) on the half-step grid of a window."""
    half_grid = times[0] + 0.5 * dt * np.arange(2 * len(times) - 1)
    envelope = params.pulse.rate_rad_ns(half_grid)
    return 0.5 * envelope * np.exp(
        -1j * params.detuning * MHZ_TO_RAD_NS * half_grid
    )


def _integrate(members, times, dt):
    """One kernel call over a shared window for (ops, params, rho0) members."""
    ops, params, rho0 = zip(*members)
    return _propagate(
        np.stack(rho0),
        np.stack([o.h0 for o in ops]),
        np.stack([o.hp for o in ops]),
        np.stack([o.c_op for o in ops]),
        np.stack([_drive_coefficients(p, times, dt) for p in params]),
        float(dt),
        ops[0].obs,
    )


def _check_budget(rho: np.ndarray, hint: str) -> float:
    """Trace error of a final state; raises when trace or hermiticity drift.

    hint ends the error message and names the caller's knob for a smaller
    error.
    """
    trace_error = abs(float(np.trace(rho).real) - 1.0)
    herm_error = float(np.max(np.abs(rho - rho.conj().T)))
    # written so that a NaN state fails too
    if not (trace_error <= TRACE_TOL and herm_error <= HERMITICITY_TOL):
        raise IntegrationError(
            f"integrator left tolerance: trace error {trace_error:.2e} "
            f"(budget {TRACE_TOL:.0e}), hermiticity {herm_error:.2e} "
            f"(budget {HERMITICITY_TOL:.0e}); {hint}"
        )
    return trace_error


def simulate(systems, t_total: float = 1200.0, dt: float = 1.0) -> list[TimeTraces]:
    """`cascaded_simulate` for a list of (params, initial_fock) systems.

    The systems are integrated _BATCH per kernel call.  Results, and the
    first error raised, are those of integrating the systems one by one in
    input order.
    """
    for name, value in (("t_total", t_total), ("dt", dt)):
        if not (isfinite(value) and value > 0.0):
            raise ValidationError(f"{name} must be positive and finite, got {value!r}")
    for params, fock in systems:
        if fock not in range(params.emitter_dim):
            raise ValidationError(f"initial_fock {fock} outside emitter dimension")
    n_steps = max(1, int(round(t_total / dt)))
    times_main = dt * np.arange(n_steps + 1)
    results = []
    for lo in range(0, len(systems), _BATCH):
        members, prerolls, failure = [], [], None
        for params, fock in systems[lo:lo + _BATCH]:
            ops = _CascadeOperators(params)
            t_min = min(0.0, params.pulse.start_time)
            if t_min < 0.0:
                n_pre = max(1, int(round(-t_min / dt)))
                times_pre = t_min + dt * np.arange(n_pre + 1)
                out_pre, rho_mid = _integrate(
                    [(ops, params, ops.initial_state(0))], times_pre, dt
                )
                try:
                    _check_budget(rho_mid[0], "reduce dt")
                except IntegrationError as exc:
                    # members before this one still report their own failures first
                    failure = exc
                    break
                # swap in the freshly released Fock state; the emitter factor is
                # untouched vacuum up to here, so this is a tensor replacement
                detector = partial_trace_matrix(rho_mid[0], ops.dims, (1, 2))
                rho_start = ops.initial_state(fock, detector)
                prerolls.append((times_pre[:-1], out_pre[0][:, :-1]))
            else:
                rho_start = ops.initial_state(fock)
                prerolls.append((np.empty(0), np.empty((len(ops.obs), 0))))
            members.append((ops, params, rho_start))

        if members:
            out_main, rho_final = _integrate(members, times_main, dt)
        for b, ((_, params, _), (times_pre, out_pre)) in enumerate(zip(members, prerolls)):
            trace_error = _check_budget(rho_final[b], "reduce dt")
            times = np.concatenate([times_pre, times_main])
            out = np.concatenate([out_pre, out_main[b]], axis=1)
            guard_max = float(out[3].max())
            if not guard_max <= GUARD_TOL:
                raise IntegrationError(
                    f"detector-cavity guard level reached {guard_max:.2e} "
                    f"(budget {GUARD_TOL:.0e}); raise detector_cavity_dim"
                )
            results.append(
                TimeTraces(
                    times=times,
                    n_a=out[0],
                    n_d=out[1],
                    p_e=out[2],
                    pulse=params.pulse.rate_rad_ns(times),
                    guard_max=guard_max,
                    trace_error=trace_error,
                )
            )
        if failure is not None:
            raise failure
    return results


def cascaded_simulate(
    initial_fock: int,
    params: CascadedSystemParams,
    t_total: float = 1200.0,
    dt: float = 1.0,
) -> TimeTraces:
    """Integrate the cascaded master equation for one emitter Fock state.

    The emitter releases its photon(s) from t = 0.  A pulse with negative
    start_time is honored by pre-rolling the drive on the empty system and
    injecting the Fock state at t = 0 (exact: nothing entangles with the
    emitter before its photon exists).  Raises ValidationError for a
    non-positive or non-finite t_total or dt, and IntegrationError when the
    trace or guard-level budget is exceeded.
    """
    return simulate([(params, initial_fock)], t_total, dt)[0]


@dataclass(frozen=True)
class RobustnessReport:
    baseline_efficiency: float
    variations: tuple
    max_relative_change: float


def parameter_robustness(
    params: CascadedSystemParams,
    variation: float,
    t_total: float = 1200.0,
    dt: float = 1.0,
) -> RobustnessReport:
    """Fock-1 click probability under +/-variation of the matching knobs.

    Varies the cavity-bandwidth match (kappa_d), the pulse length (sigma
    and total length together, amplitude frozen at the baseline calibrated
    value) and the pulse timing (shift by +/-variation of the pulse
    length).  Reports the worst relative efficiency change.
    """
    if not (variation >= 0.0 and isfinite(variation)):
        raise ValidationError(f"variation must be non-negative and finite, got {variation!r}")
    base_pulse = replace(params.pulse, amplitude=None)
    frozen_amp = base_pulse.peak_rate_rad_ns() / MHZ_TO_RAD_NS
    baseline_params = replace(params, pulse=replace(base_pulse, amplitude=frozen_amp))
    pulse = baseline_params.pulse
    length = pulse.total_length

    def with_pulse(**changes):
        return replace(baseline_params, pulse=replace(pulse, **changes))

    cases = []
    for sign in (+1.0, -1.0):
        f = 1.0 + sign * variation
        cases += [
            ("bandwidth_mismatch", replace(baseline_params, kappa_d=params.kappa_d * f)),
            ("pulse_length", with_pulse(sigma=pulse.sigma * f, total_length=length * f)),
            ("pulse_timing", with_pulse(start_time=pulse.start_time + sign * variation * length)),
        ]

    traces = simulate(
        [(baseline_params, 1)] + [(varied, 1) for _, varied in cases], t_total, dt
    )
    baseline = traces[0].p_click
    results = []
    worst = 0.0
    for (name, varied), tr in zip(cases, traces[1:]):
        eta = tr.p_click
        rel = abs(eta - baseline) / baseline if baseline > 0 else 0.0
        worst = max(worst, rel)
        results.append((name, varied.kappa_d, eta, rel))
    return RobustnessReport(baseline, tuple(results), worst)


def pulse_sweep(
    params: CascadedSystemParams,
    axis: str,
    values,
    initial_fock: int = 1,
    t_total: float = 1200.0,
    dt: float = 1.0,
) -> np.ndarray:
    """Click probability versus pulse detuning (MHz) or delay (ns).

    `delay` moves the pulse start relative to the photon release at t = 0
    (negative values start the pulse early).
    """
    if axis not in ("detuning", "delay"):
        raise ValidationError("axis must be 'detuning' or 'delay'")
    if axis == "detuning":
        systems = [(replace(params, detuning=float(v)), initial_fock) for v in values]
    else:
        systems = [
            (replace(params, pulse=replace(params.pulse, start_time=float(v))), initial_fock)
            for v in values
        ]
    return np.array([tr.p_click for tr in simulate(systems, t_total, dt)], dtype=float)


# ---------------------------------------------------------------------------
# damped sideband Rabi model (photon generation)

@dataclass(frozen=True)
class SidebandTraces:
    """Damped Rabi cycling of |f0> <-> |e1> with |e1> -> |e0> decay at kappa."""

    times: np.ndarray
    p_f0: np.ndarray
    p_e1: np.ndarray
    p_e0: np.ndarray
    ef_polarization: np.ndarray   # p_f - p_e
    p_click: np.ndarray           # eta * p_e1


def sideband_rabi(
    drive_rate: float, kappa: float, eta: float, times: np.ndarray
) -> SidebandTraces:
    """Integrate the three-level damped vacuum-Rabi model on a uniform grid.

    drive_rate and kappa are f = omega/2pi values in MHz; eta is the
    lumped path-plus-detector efficiency scaling p_e1 into the click
    signal.  Raises IntegrationError when the final state leaves the trace
    or hermiticity budget (a drive too fast for the 0.5-ns step).
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValidationError("need at least two time points")
    if not np.all(np.isfinite(times)):
        raise ValidationError("time grid must be finite")
    spacing = np.diff(times)
    if spacing[0] <= 0.0 or np.max(np.abs(spacing - spacing[0])) > 1e-9:
        raise ValidationError("time grid must be increasing and uniform")
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must lie in [0, 1]")
    _require_finite(drive_rate=drive_rate, kappa=kappa)
    if kappa < 0.0:
        raise ValidationError("kappa must be non-negative")

    omega = drive_rate * MHZ_TO_RAD_NS
    k = kappa * MHZ_TO_RAD_NS
    # basis |f0>, |e1>, |e0>
    h0 = np.zeros((3, 3), dtype=complex)
    h0[0, 1] = h0[1, 0] = omega / 2.0
    c_op = np.zeros((3, 3), dtype=complex)
    c_op[2, 1] = sqrt(k)

    sub = max(1, int(np.ceil(spacing[0] / 0.5)))
    dt = spacing[0] / sub
    n_steps = (times.size - 1) * sub
    coeffs = np.zeros((1, 2 * n_steps + 1), dtype=complex)
    rho0 = np.zeros((1, 3, 3), dtype=complex)
    rho0[0, 0, 0] = 1.0
    out, rho = _propagate(
        rho0, h0[None], np.zeros_like(rho0), c_op[None], coeffs, dt, np.eye(3)
    )
    _check_budget(rho[0], "use a slower drive (smaller drive_rate)")
    p_f0, p_e1, p_e0 = out[0, 0, ::sub], out[0, 1, ::sub], out[0, 2, ::sub]
    return SidebandTraces(
        times=times,
        p_f0=p_f0,
        p_e1=p_e1,
        p_e0=p_e0,
        ef_polarization=p_f0 - p_e1 - p_e0,
        p_click=eta * p_e1,
    )


def _sideband_pi_time(drive_rate: float, kappa: float) -> float:
    """First maximum of the |f0> -> |e1> transfer, in ns (underdamped only)."""
    omega = drive_rate * MHZ_TO_RAD_NS
    k = kappa * MHZ_TO_RAD_NS
    disc = omega**2 - k**2 / 4.0
    if disc <= 0.0:
        raise ValidationError("overdamped drive has no transfer maximum")
    w_r = sqrt(disc) / 2.0
    return atan(4.0 * w_r / k) / w_r if k > 0.0 else pi / omega


def calibrate_sideband_drive(kappa: float, pi_time: float = 254.0) -> float:
    """Drive rate (MHz) whose damped transfer peaks at the given time."""
    lo, hi = 1e-4, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            t = _sideband_pi_time(mid, kappa)
        except ValidationError:
            lo = mid
            continue
        if t > pi_time:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
