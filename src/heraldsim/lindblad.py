"""Time-domain open-system models of the microwave photon detector.

Two models live here:

* `simulate`: the emitter cavity unidirectionally coupled into the
  detector qubit-cavity module (standard input-output cascade: one
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

Integration is fixed-step classical RK4, deterministic by construction:
every cascade run steps by DT = 1 ns, and the sideband model sub-steps
its grid at 0.5 ns or less.  One numpy kernel, `_propagate`, steps a
stack of independent systems at once, and every member's trajectory is
bit-identical to integrating it alone.  A cascade system is integrated
only in the space of its emitter Fock state n (`_space`: the sector
n_A + n_D <= n and guard states, 4, 8 or 16 of the 24 states of DIMS);
its observable sums and its final state are taken at the full width of
DIMS, so the published floats are those of the full space.  `simulate`
is the cascade's one entry, and `pulse_sweep` and `parameter_robustness`
hand all their systems to one `simulate` call: on Linux it integrates
them in forked workers, one contiguous shard per CPU in the affinity
mask, and joins the results in input order; with one shard it runs the
same loop in-process.

The trace and hermiticity budget on each final state is the integrators'
only floating-point check: they run with numpy's floating-point errors
ignored, so a run that overflows ends in a non-finite state and is an
IntegrationError, whatever the caller's numpy error state and warning
filters, in-process or in a worker.
"""

from __future__ import annotations

import os
import signal
import sys
from dataclasses import dataclass, replace
from functools import cache, cached_property
from math import atan, ceil, isfinite, pi, sqrt

import numpy as np

from . import qmath
from .qmath import ValidationError, basis_ket, embed_operator, partial_trace_matrix
from .photonics import annihilation

MHZ_TO_RAD_NS = 2.0e-3 * np.pi  # omega [rad/ns] = 2 pi f[MHz] 1e-3

INTEGRATOR_TRACE_TOL = 1e-8  # RK4 final states; qmath.TRACE_TOL is 1e-10
GUARD_TOL = 1e-3
T_TOTAL = 1500.0  # ns, the default main window from the photon release
DT = 1.0  # ns, the RK4 step of every cascade run

# The one space (emitter cavity, detector qubit, detector cavity) is exact:
# H conserves N = n_A + n_D and the collapse operator lowers it, so no cavity
# ever holds more than the initial Fock state's photons.  The detector
# cavity's top level, the guard level, stays exactly empty (GUARD_TOL).
FOCK_STATES = (0, 1, 2)
DIMS = (len(FOCK_STATES), 2, len(FOCK_STATES) + 1)
# Each system is integrated in the space of its Fock state n, in DIMS's kron
# order: the sector n_A + n_D <= n that H and the collapse operator never
# leave, the guard states n_A = 0, n_D = n + 1 that a d^dag leak from it
# reaches, and the next guard-level states up to a multiple of 4 (4, 8 or 16
# states).  A zgemm on kept states has the DIMS product's bits exactly when
# their count is a multiple of 4 (OpenBLAS SkylakeX kernel: 100 of 100 random
# trials at each multiple from 4 to 24, 0 at other sizes; Haswell: 12, 24 only).

# Systems per kernel call; bounds the stacked states and traces of long
# sweeps.  Median CPU time per system at 8, 16 and 32 per call (32 systems,
# 1500 ns, one CPU, 5 runs, busy 2-core host): Fock 0 20, 16 and 14 ms,
# Fock 1 28, 23 and 21 ms, Fock 2 83, 81 and 78 ms; every space gains, so 32.
_BATCH = 32
# Bytes of a kernel call's buffers that grow with its steps (`_block_steps`);
# 64 to 256 KiB left the in-process runs' peak RSS within noise of the
# kernel that built one expression per stage.
_BLOCK_BYTES = 1 << 18


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

    @cached_property
    def peak_rate_rad_ns(self) -> float:
        """Peak Rabi rate in rad/ns, calibrating pi area when amplitude is None.

        Computed once per pulse.  Raises ValidationError, whether or not
        the amplitude is given, when the calibration grid cannot resolve
        the pulse: its area is not finite and positive, or computing it
        overflows or divides by zero.
        """
        grid = np.linspace(
            self.start_time, self.start_time + self.total_length, 20001
        )
        # an envelope tail that underflows to 0 is no error
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                area_unit = np.trapezoid(self.unit_envelope(grid), grid)
                if isfinite(area_unit) and area_unit > 0.0:
                    if self.amplitude is None:
                        return pi / area_unit
                    return float(self.amplitude) * MHZ_TO_RAD_NS
        except (FloatingPointError, OverflowError):
            pass
        raise ValidationError(
            f"pulse of sigma {self.sigma!r} ns and length {self.total_length!r} ns "
            f"from {self.start_time!r} ns has no finite, positive area on its "
            "calibration grid"
        )

    def rate_rad_ns(self, t: np.ndarray) -> np.ndarray:
        return self.peak_rate_rad_ns * self.unit_envelope(t)


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


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.setflags(write=False)
    return arrays


@cache
def _operators() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """a, d, sigma+, p_e and the diagonals of n_A, n_D and p_e, embedded in
    DIMS once per process, on first use; read-only."""
    a = embed_operator(annihilation(DIMS[0]), DIMS, (0,))
    d = embed_operator(annihilation(DIMS[2]), DIMS, (2,))
    sp = embed_operator(np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex), DIMS, (1,))
    pe = embed_operator(np.diag([0.0, 1.0]).astype(complex), DIMS, (1,))
    obs = np.stack([np.diagonal(op).real for op in (a.conj().T @ a, d.conj().T @ d, pe)])
    return _read_only(a, d, sp, pe, obs)


@cache
def _space(fock: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Emitter Fock state `fock`'s space: its indices into DIMS, sigma+ on it,
    and the full-width diagonals of n_A, n_D, p_e and its guard level
    n_D = fock + 1.  Built once per process, on first use; read-only."""
    _, _, sp, _, obs = _operators()
    n_a, _, n_d = np.unravel_index(np.arange(len(sp)), DIMS)
    guard = n_d == fock + 1
    kept = (n_a + n_d <= fock) | (guard & (n_a == 0))
    kept[np.flatnonzero(guard & ~kept)[:(-kept.sum()) % 4]] = True
    index = np.flatnonzero(kept)
    return _read_only(index, sp[np.ix_(index, index)], np.vstack([obs, guard]))


def _system_operators(params: CascadedSystemParams) -> tuple[np.ndarray, np.ndarray]:
    """One system's h0 and collapse operator c_op."""
    a, d, _, pe, _ = _operators()
    ka = params.kappa_a * MHZ_TO_RAD_NS
    kd = params.kappa_d * MHZ_TO_RAD_NS
    chi = params.chi_d * MHZ_TO_RAD_NS

    h_casc = 0.5j * sqrt(ka * kd) * (a.conj().T @ d - a @ d.conj().T)
    h_disp = -chi * pe @ (d.conj().T @ d)
    return h_casc + h_disp, sqrt(ka) * a + sqrt(kd) * d


def _initial_state(emitter_fock: int, detector=None) -> np.ndarray:
    """|n><n| on the emitter times `detector`, by default |g, 0><g, 0|."""
    ket = basis_ket(DIMS[0], emitter_fock)
    if detector is None:
        ground = np.kron(basis_ket(2, 0), basis_ket(DIMS[2], 0))
        detector = np.outer(ground, ground.conj())
    return np.kron(np.outer(ket, ket.conj()), detector)


def _block_steps(batch: int, n: int, width: int, n_obs: int) -> int:
    """Steps per kernel block, at least one: as many as `_BLOCK_BYTES` holds
    of two half steps' H and drive terms and one row of observables."""
    return max(1, _BLOCK_BYTES // (16 * batch * (4 * n * n + n + (n_obs + 2) * width)))


def _propagate(rho0, h0, hp, c_op, coeffs, dt, obs, index):
    """Classical RK4 over a stack of B independent systems.

    rho0, h0 and c_op are (B, n, n) and hp is the one (n, n) drive operator
    of the stack; coeffs is (B, 2*n_steps + 1), each system's drive
    coefficient c on the half-step grid, with H = h0 + c hp + c* hp^dag and
    the single collapse operator c_op.  obs holds the diagonals (n_obs, N)
    of diagonal observables on a space of N states, of which the systems'
    n states are `index`.  Returns the (B, n_obs, n_steps + 1) real
    expectation traces and the (B, n, n) final states.

    Steps run in blocks of `_block_steps`, each building the H of its half
    steps, its start included, in one expression.  A stage copies its H
    into slot 0 of the stack [H, c_op^dag c_op, c_op], so a right-hand side
    is three matmuls, one zgemm per (n, n) slice; every elementwise
    operation keeps its operands and their order, and a block's diagonals
    are summed at the observables' full width, so each slice gets the bits
    of a stack of one stepped one expression per stage.
    """
    batch, n = rho0.shape[:2]
    n_obs, width = obs.shape
    hm = np.ascontiguousarray(hp.conj().T)
    c_dag = np.ascontiguousarray(np.conj(c_op).transpose(0, 2, 1))
    n_steps = (coeffs.shape[1] - 1) // 2
    c = coeffs.T[:, :, None, None]
    block = max(1, min(n_steps, _block_steps(batch, n, width, n_obs)))

    hs = np.empty((2 * block + 1, batch, n, n), dtype=complex)
    stack = np.empty((3, batch, n, n), dtype=complex)
    h, cdc = stack[:2]
    np.matmul(c_dag, c_op, out=cdc)
    stack[2] = c_op
    k1, k2, k3, k4, stage, acc, jump = np.empty((7, batch, n, n), dtype=complex)
    left = np.empty((3, batch, n, n), dtype=complex)
    right = np.empty((2, batch, n, n), dtype=complex)
    h_rho, cdc_rho, c_rho = left
    rho_h, rho_cdc = right

    def rhs(rho, k):
        # drho = -i[H, rho] + C rho C^dag - (1/2){C^dag C, rho}
        np.matmul(stack, rho, out=left)
        np.matmul(rho, stack[:2], out=right)
        np.subtract(h_rho, rho_h, out=k)
        np.multiply(-1j, k, out=k)
        np.matmul(c_rho, c_dag, out=jump)
        np.add(k, jump, out=k)
        np.add(cdc_rho, rho_cdc, out=jump)
        np.multiply(0.5, jump, out=jump)
        np.subtract(k, jump, out=k)

    out = np.empty((n_steps + 1, batch, n_obs))
    rho = rho0.copy()
    diagonal = np.diagonal(rho, axis1=1, axis2=2)
    diags = np.empty((block, batch, n), dtype=complex)
    full = np.zeros((block, batch, width), dtype=complex)

    def observe(first, rows):
        full[:rows, :, index] = diags[:rows]
        out[first:first + rows] = (obs * full[:rows, :, None, :]).sum(-1).real

    diags[0] = diagonal
    observe(0, 1)
    for first in range(0, n_steps, block):
        rows = min(block, n_steps - first)
        half_steps = slice(2 * first, 2 * (first + rows) + 1)
        block_h = hs[:2 * rows + 1]
        # h0 + c hp + c* hp^dag
        np.add(h0, np.multiply(c[half_steps], hp, out=block_h), out=block_h)
        np.add(block_h, np.conj(c[half_steps]) * hm, out=block_h)
        np.copyto(h, block_h[0])
        for i in range(rows):
            rhs(rho, k1)
            np.copyto(h, block_h[2 * i + 1])
            np.multiply(0.5 * dt, k1, out=stage)
            rhs(np.add(rho, stage, out=stage), k2)
            np.multiply(0.5 * dt, k2, out=stage)
            rhs(np.add(rho, stage, out=stage), k3)
            np.copyto(h, block_h[2 * i + 2])
            np.multiply(dt, k3, out=stage)
            rhs(np.add(rho, stage, out=stage), k4)
            # rho + (dt / 6) (k1 + 2 k2 + 2 k3 + k4)
            np.add(k1, np.multiply(2.0, k2, out=acc), out=acc)
            np.add(acc, np.multiply(2.0, k3, out=stage), out=acc)
            np.add(acc, k4, out=acc)
            np.multiply(dt / 6.0, acc, out=acc)
            np.add(rho, acc, out=rho)
            diags[i] = diagonal
        observe(first + 1, rows)
    return out.transpose(1, 2, 0), rho


def _drive_coefficients(params: CascadedSystemParams, times) -> np.ndarray:
    """0.5 x envelope x exp(-i Delta t) on the half-step grid of a window."""
    half_grid = times[0] + 0.5 * DT * np.arange(2 * len(times) - 1)
    envelope = params.pulse.rate_rad_ns(half_grid)
    return 0.5 * envelope * np.exp(
        -1j * params.detuning * MHZ_TO_RAD_NS * half_grid
    )


def _integrate(fock, members, times):
    """One kernel call over a shared window for (params, rho0) members, in
    the space of Fock state `fock`; rho0 and the final states are DIMS matrices."""
    index, sp, obs = _space(fock)
    rows, cols = np.ix_(index, index)
    params, rho0 = zip(*members)
    h0, c_op = map(np.stack, zip(*map(_system_operators, params)))
    out, rho = _propagate(
        np.stack(rho0)[:, rows, cols],
        h0[:, rows, cols],
        sp,
        c_op[:, rows, cols],
        np.stack([_drive_coefficients(p, times) for p in params]),
        DT,
        obs,
        index,
    )
    rho_full = np.zeros(h0.shape, dtype=complex)
    rho_full[:, rows, cols] = rho
    return out, rho_full


def _check_budget(rho: np.ndarray) -> float:
    """Trace error of a final state; raises when trace or hermiticity drift."""
    trace_error, herm_error = qmath.trace_error(rho), qmath.hermiticity_error(rho)
    # written so that a NaN state fails too
    if not (trace_error <= INTEGRATOR_TRACE_TOL and herm_error <= qmath.HERMITICITY_TOL):
        raise IntegrationError(
            f"integrator left tolerance: trace error {trace_error:.2e} "
            f"(budget {INTEGRATOR_TRACE_TOL:.0e}), hermiticity {herm_error:.2e} "
            f"(budget {qmath.HERMITICITY_TOL:.0e}); use a slower drive or smaller rates"
        )
    return trace_error


def _integrate_shard(systems, times_main) -> list[TimeTraces]:
    """The _BATCH loop over contiguous systems, one kernel call per Fock state
    in a batch; raises the first error."""
    no_preroll = (np.empty(0), np.empty((len(_space(0)[-1]), 0)))
    results = []
    # an overflow or invalid operation leaves a non-finite entry in the final
    # state, which _check_budget rejects in input order, so a numpy warning
    # would only repeat that IntegrationError: the budget is the one check,
    # whatever the caller's error state and warning filters
    with np.errstate(all="ignore"):
        for lo in range(0, len(systems), _BATCH):
            members, focks, prerolls, failure = [], [], [], None
            for params, fock in systems[lo:lo + _BATCH]:
                detector, preroll = None, no_preroll
                if params.pulse.start_time < 0.0:
                    # the drive is zero before the start, so leading steps leave the
                    # vacuum as is
                    times_pre = DT * np.arange(-_preroll_steps(params), 1)
                    out_pre, rho_mid = _integrate(0, [(params, _initial_state(0))], times_pre)
                    try:
                        _check_budget(rho_mid[0])
                    except IntegrationError as exc:
                        # members before this one still report their own failures first
                        failure = exc
                        break
                    # swap in the freshly released Fock state; the emitter factor is
                    # untouched vacuum up to here, so this is a tensor replacement
                    detector = partial_trace_matrix(rho_mid[0], DIMS, (1, 2))
                    preroll = (times_pre[:-1], out_pre[0][:, :-1])
                prerolls.append(preroll)
                members.append((params, _initial_state(fock, detector)))
                focks.append(fock)

            # each Fock state's members in one call, so that a space never
            # depends on batch-mates
            mains = [None] * len(members)
            for fock in dict.fromkeys(focks):
                group = [b for b, f in enumerate(focks) if f == fock]
                outs = _integrate(fock, [members[b] for b in group], times_main)
                for b, out_main, rho_final in zip(group, *outs):
                    mains[b] = out_main, rho_final
            for (params, _), (times_pre, out_pre), (out_main, rho_final) in zip(
                members, prerolls, mains
            ):
                trace_error = _check_budget(rho_final)
                times = np.concatenate([times_pre, times_main])
                out = np.concatenate([out_pre, out_main], axis=1)
                guard_max = float(out[3].max())
                if not guard_max <= GUARD_TOL:
                    raise IntegrationError(
                        f"detector-cavity guard level reached {guard_max:.2e} "
                        f"(budget {GUARD_TOL:.0e}); the model no longer conserves n_A + n_D"
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


def _forked_shard(systems, times_main):
    """A worker's entry: `_integrate_shard`, looked up by name when the worker
    runs it, so that a test's unpicklable stand-in for it reaches the workers."""
    return _integrate_shard(systems, times_main)


def _usable_cpus() -> int:
    """CPUs in this process's affinity mask; 1 off Linux, which never forks."""
    return len(os.sched_getaffinity(0)) if sys.platform == "linux" else 1


_PR_SET_PDEATHSIG = 1  # prctl option: signal me when my parent thread exits


def _exit_with_parent(parent_pid: int, libc) -> None:
    """A forked worker's initializer: a SIGTERM when the parent dies.

    `libc` is the C library, loaded by the parent before the fork.  The
    parent may die between the fork and the prctl call; the worker then
    has another parent already, and exits at once.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    libc.prctl(_PR_SET_PDEATHSIG, signal.SIGTERM)
    if os.getppid() != parent_pid:
        os._exit(1)


def _integrate_forked(systems, times_main, n_shards):
    """`_forked_shard` over n_shards contiguous shards, one forked worker each.

    Joins the shards' results in input order; reading the shards in that
    order raises the first failing shard's error, and a dead worker is an
    IntegrationError.  A worker exits with this process, even when it is
    killed (`_exit_with_parent`).
    """
    import ctypes
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    bounds = [len(systems) * k // n_shards for k in range(n_shards + 1)]
    # fork, not spawn: a spawned worker imports numpy afresh, about 0.3 s per
    # CLI run; a forked one starts with this process's modules and state.
    # The workers are forked by this thread, the one their death signal watches.
    context = multiprocessing.get_context("fork")
    # leaving the block joins every worker, whatever happened in it
    with ProcessPoolExecutor(
        n_shards, mp_context=context, initializer=_exit_with_parent,
        initargs=(os.getpid(), ctypes.CDLL(None)),
    ) as pool:
        futures = [
            pool.submit(_forked_shard, systems[lo:hi], times_main)
            for lo, hi in zip(bounds, bounds[1:])
        ]
        try:
            return [trace for future in futures for trace in future.result()]
        except BrokenProcessPool as exc:
            raise IntegrationError(f"a worker process died during integration: {exc}") from exc


def window_steps(t_total: float) -> int:
    """RK4 steps of the main window; it ends at DT * window_steps(t_total).

    t_total must be positive and finite (ValidationError), and a window of
    more than 2^59 time points is a MemoryError (qmath.check_allocatable).
    """
    if not (isfinite(t_total) and t_total > 0.0):
        raise ValidationError(f"t_total must be positive and finite, got {t_total!r}")
    steps = max(1, int(round(t_total / DT)))
    qmath.check_allocatable(steps + 1, "time points")
    return steps


def _preroll_steps(params: CascadedSystemParams) -> int:
    """RK4 steps of the pre-roll, from at or before the pulse start to t = 0;
    more than 2^59 time points is a MemoryError, as in `window_steps`."""
    steps = ceil(-params.pulse.start_time / DT)
    qmath.check_allocatable(steps + 1, "pre-roll time points")
    return steps


def simulate(systems, t_total: float = T_TOTAL) -> list[TimeTraces]:
    """Integrate the cascaded master equation for (params, initial_fock) systems.

    The emitter releases its photon(s) at t = 0.  A pulse with negative
    start_time is pre-rolled on the empty system and the Fock state put on
    its emitter at t = 0: exact, as nothing entangles with the emitter
    before its photon exists.  On Linux the systems are split into
    contiguous shards, one per CPU in the affinity mask and no more than
    there are systems, each integrated in a forked worker; one shard runs
    the same loop in-process.  Results, and the first error raised, are
    those of integrating the systems one by one in input order, bit for
    bit.  Before any fork: ValidationError for a bad t_total
    (`window_steps`), an initial_fock that is not an int in FOCK_STATES
    (a float, a bool or a numpy integer is rejected, as for seeds) or a
    pulse its calibration cannot resolve, and MemoryError for a grid of
    more than 2^59 points.  IntegrationError when the trace or guard-level
    budget is exceeded, a run overflowing to a non-finite state included,
    or a worker dies; no numpy floating-point warning or error leaves the
    integration, and the caller's numpy error state is left as it was.
    """
    steps = window_steps(t_total)
    for params, fock in systems:
        if not (qmath.is_int(fock) and fock in FOCK_STATES):
            raise ValidationError(f"initial_fock {fock!r} is not one of {FOCK_STATES}")
        if params.pulse.start_time < 0.0:
            _preroll_steps(params)
        params.pulse.peak_rate_rad_ns  # calibrated here, once, for the workers too
    times_main = DT * np.arange(steps + 1)
    # built here, so that forked workers inherit them
    for fock in FOCK_STATES:
        _space(fock)
    n_shards = min(len(systems), _usable_cpus())
    if n_shards > 1:
        return _integrate_forked(systems, times_main, n_shards)
    return _integrate_shard(systems, times_main)


@dataclass(frozen=True)
class RobustnessReport:
    baseline_efficiency: float
    variations: tuple
    max_relative_change: float


def parameter_robustness(
    params: CascadedSystemParams,
    variation: float,
    t_total: float = T_TOTAL,
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
    frozen_amp = base_pulse.peak_rate_rad_ns / MHZ_TO_RAD_NS
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

    traces = simulate([(baseline_params, 1)] + [(varied, 1) for _, varied in cases], t_total)
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
    t_total: float = T_TOTAL,
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
    return np.array([tr.p_click for tr in simulate(systems, t_total)], dtype=float)


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


def _check_kappa(kappa: float) -> None:
    _require_finite(kappa=kappa)
    if kappa < 0.0:
        raise ValidationError("kappa must be non-negative")


def sideband_rabi(
    drive_rate: float, kappa: float, eta: float, times: np.ndarray
) -> SidebandTraces:
    """Integrate the three-level damped vacuum-Rabi model on a uniform grid.

    drive_rate and kappa are f = omega/2pi values in MHz; eta is the
    lumped path-plus-detector efficiency scaling p_e1 into the click
    signal.  Each grid spacing is cut into equal RK4 steps of at most
    0.5 ns; a grid of more than 2^59 half steps is a MemoryError
    (qmath.check_allocatable).  Raises IntegrationError when the final
    state leaves the trace or hermiticity budget (a drive too fast for the
    step), a run overflowing to a non-finite state included, with no numpy
    floating-point warning or error on the way.
    """
    times = np.asarray(times, dtype=float)
    if times.size < 2:
        raise ValidationError("need at least two time points")
    if not np.all(np.isfinite(times)):
        raise ValidationError("time grid must be finite")
    with np.errstate(over="ignore"):  # a spacing or step count past the float range is inf
        spacing = np.diff(times)
        sub = max(1.0, float(np.ceil(spacing[0] / 0.5)))
    # the minimum before the differences: those of positive spacings cannot overflow
    spaced = np.all(np.isfinite(spacing)) and spacing.min() > 0.0
    if not spaced or np.max(np.abs(spacing - spacing[0])) > 1e-9:
        raise ValidationError("time grid must be increasing and uniform, with a finite spacing")
    qmath.check_allocatable(2 * (times.size - 1) * sub + 1, "RK4 half steps")
    sub = int(sub)
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must lie in [0, 1]")
    _require_finite(drive_rate=drive_rate)
    _check_kappa(kappa)

    omega = drive_rate * MHZ_TO_RAD_NS
    k = kappa * MHZ_TO_RAD_NS
    # basis |f0>, |e1>, |e0>
    h0 = np.zeros((3, 3), dtype=complex)
    h0[0, 1] = h0[1, 0] = omega / 2.0
    c_op = np.zeros((3, 3), dtype=complex)
    c_op[2, 1] = sqrt(k)

    dt = spacing[0] / sub
    n_steps = (times.size - 1) * sub
    coeffs = np.zeros((1, 2 * n_steps + 1), dtype=complex)
    rho0 = np.zeros((1, 3, 3), dtype=complex)
    rho0[0, 0, 0] = 1.0
    with np.errstate(all="ignore"):  # the budget is the one check, as in _integrate_shard
        out, rho = _propagate(
            rho0, h0[None], np.zeros_like(h0), c_op[None], coeffs, dt, np.eye(3), np.arange(3)
        )
        _check_budget(rho[0])
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
    """Drive rate (MHz) in [1e-4, 1e3] whose damped transfer peaks at pi_time
    (finite, positive) within 1e-9 relative, by bisection; else ValidationError."""
    _check_kappa(kappa)
    if not (isfinite(pi_time) and pi_time > 0.0):
        raise ValidationError(f"pi_time must be positive and finite, got {pi_time!r}")

    def peak_time(drive):
        try:  # nan when overdamped, or when kappa's square overflows
            return _sideband_pi_time(drive, kappa)
        except (ValidationError, OverflowError):
            return float("nan")

    lo, hi = 1e-4, 1e3
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if peak_time(mid) <= pi_time else (mid, hi)
    drive = 0.5 * (lo + hi)
    if not abs(peak_time(drive) - pi_time) <= 1e-9 * pi_time:
        raise ValidationError(
            f"no drive in [1e-4, 1e3] MHz peaks at {pi_time!r} ns with kappa {kappa!r} MHz"
        )
    return drive
