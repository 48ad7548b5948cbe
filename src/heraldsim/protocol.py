"""Two-round heralded-entanglement protocol on the 36-dimensional joint space.

State layout: (qubit A, qubit B, detector rail, load rail) with dims
`DIMS` = (2, 2, 3, 3).  Truncating each rail at `N_MAX` = 2 photons is
exact: the pi pulses between the rounds swap which qubit state emits, so
each qubit sends one photon over the two rounds and the rails never hold
more than two together.  The rail slots are the two modes the beam
splitter mixes; photon emission drops qubit B's photon into the slot that
ends up wired to the detector and qubit A's photon into the slot ending in
the cold load.  This pairing, together with the beam-splitter convention
in `photonics`, is the unique labeling under which the textbook joint
state after entangling,

    (1/2) (|gg>|00> + |O+>|o+> + |O->|o-> + |ee>|11>),

comes out literally, and a click-click herald selects |O+>.

Model conventions that the closed-form dark-count fidelity pins exactly
(see tests): emission into an occupied rail acts as the conditional-X of
`photonics.emission_unitary`, and the load rail is *not* emptied between
rounds -- photons parked there by round 1 stay in flight through round 2
and are traced out only at the end.  Loss is lumped into one pure-loss
channel on the detector rail per round, after the splitter.

A draining sequence per run: prepare -> entangle -> splitter -> loss ->
detect -> pi pulses -> entangle -> splitter -> loss -> detect -> phase
damping (full sequence duration, applied once) -> trace rails.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import qmath
from .detector import DetectorRoundParams, branch_matrices
from .photonics import apply_loss, beam_splitter_unitary, emission_unitary, loss_kraus
from .qmath import (
    DensityMatrix,
    PauliVector,
    ValidationError,
    apply_kraus_matrix,
    basis_ket,
    bell_odd_minus,
    bell_odd_plus,
    embed_operator,
    pauli_decompose,
    two_qubit_ket,
)

QUBIT_A, QUBIT_B, RAIL_DET, RAIL_LOAD = 0, 1, 2, 3
N_MAX = 2  # photons per rail; exact, as the module docstring explains
DIMS = (2, 2, N_MAX + 1, N_MAX + 1)

BRANCH_SUM_TOL = 1e-9  # budget of |sum of the branch probabilities - 1|
EMPTY_BRANCH_TOL = 1e-14  # a branch of this probability or less has no state

# R_y(pi) with the pinned sense |g> -> |e>, |e> -> -|g>.
RY_PI = np.array([[0.0, -1.0], [1.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class ProtocolConfig:
    """Preparation, decoherence, detector and timing parameters.

    Defaults reproduce the measured operating point: equatorial
    preparations, echo coherence times 10/16 us over a 2.5 us sequence,
    per-round click models (0.006, 0.21) and (0.005, 0.26), and an offset
    phase of 3pi/10 between the two flying channels.  The default Bob
    preparation phase compensates the offset so that the heralded state
    aligns with |O+> (the operating point at which fidelity is quoted).
    `eta_loss` defaults to 1 because the p_real values are measured click
    probabilities with path loss already folded in; lower it explicitly
    to study loss robustness.
    """

    theta_a: float = np.pi / 2.0
    phi_a: float = 0.0
    theta_b: float = np.pi / 2.0
    phi_b: float = -0.3 * np.pi
    t2e_a: float = 10.0          # us
    t2e_b: float = 16.0          # us
    t_seq: float = 2.5           # us
    round1: DetectorRoundParams = field(
        default_factory=lambda: DetectorRoundParams(p_dark=0.006, p_real=0.21)
    )
    round2: DetectorRoundParams = field(
        default_factory=lambda: DetectorRoundParams(p_dark=0.005, p_real=0.26)
    )
    eta_loss: float = 1.0
    phi_off: float = 0.3 * np.pi
    p_init: float = 0.57
    t_rep: float = 21.0          # us

    def __post_init__(self):
        for name in ("t2e_a", "t2e_b", "t_seq", "t_rep"):
            if not getattr(self, name) > 0.0:
                raise ValidationError(f"{name} must be positive")
        period = float(self.t_rep) * 1e-6  # s; success_rate divides p_success <= 1 by it
        if not (period > 0.0 and np.isfinite(1.0 / period)):
            raise ValidationError(f"t_rep={self.t_rep!r} us gives no finite success rate")
        for name in ("theta_a", "phi_a", "theta_b", "phi_b", "phi_off"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        # the offset phase of the top rail level, phi_off * N_MAX
        if not np.isfinite(self.phi_off * N_MAX):
            raise ValidationError("phi_off * n_max must be finite")
        for name in ("eta_loss", "p_init"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValidationError(f"{name} outside [0, 1]")


@dataclass(frozen=True)
class Branch:
    """One heralding branch: probability and the conditional qubit state."""

    probability: float
    state: DensityMatrix | None


@dataclass(frozen=True)
class OutcomeTable:
    """The four (round1, round2) in {click, no_click}^2 branches.

    Keys are (click1, click2) booleans; probabilities sum to one within
    1e-9.  Zero-probability branches carry state None.
    """

    branches: dict[tuple[bool, bool], Branch]

    def probability(self, click1: bool, click2: bool) -> float:
        return self.branches[(click1, click2)].probability

    def state(self, click1: bool, click2: bool) -> DensityMatrix | None:
        return self.branches[(click1, click2)].state


def prepared_qubit_ket(theta: float, phi: float) -> np.ndarray:
    """cos(theta/2)|g> + e^{i phi} sin(theta/2)|e>."""
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)],
        dtype=complex,
    )


def _prepared_qubits(config: ProtocolConfig) -> np.ndarray:
    """Two-qubit ket of both preparations, A (x) B."""
    return np.kron(
        prepared_qubit_ket(config.theta_a, config.phi_a),
        prepared_qubit_ket(config.theta_b, config.phi_b),
    )


@cache
def _unitaries() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Full-space emission, splitter and pi-pulse unitaries, read-only and
    embedded once per process, on first use (the splitter imports scipy)."""
    emit = emission_unitary(N_MAX + 1)
    ops = (
        embed_operator(emit, DIMS, (QUBIT_A, RAIL_LOAD))
        @ embed_operator(emit, DIMS, (QUBIT_B, RAIL_DET)),
        embed_operator(beam_splitter_unitary(N_MAX + 1), DIMS, (RAIL_DET, RAIL_LOAD)),
        embed_operator(np.kron(RY_PI, RY_PI), DIMS, (QUBIT_A, QUBIT_B)),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


class _Engine:
    """Full-space operators for one configuration, each built once.

    The emission, splitter and pi-pulse unitaries come from the
    process-wide cache; they and the offset phase, built with `np.diag`
    from its 36-entry diagonal, are dense matrices applied as products by
    `apply_kraus_matrix`.  The loss Kraus operators (only when eta_loss <
    1) stay 3 x 3 and are applied on the detector rail's blocks by
    `apply_loss`, as `branch_matrices` applies detection.  The dephasing
    Kraus operators are real and diagonal, so they are kept as 36-entry
    factor vectors and applied entrywise by `_apply_diagonal_kraus`.
    """

    def __init__(self, config: ProtocolConfig):
        self.config = config
        self.u_emit, self.u_bs, self.u_pi = _unitaries()
        phase = np.exp(1j * config.phi_off * np.arange(N_MAX + 1))
        self.u_offset = np.diag(_subsystem_diagonal(phase, DIMS, RAIL_DET))
        self.loss = loss_kraus(N_MAX + 1, config.eta_loss) if config.eta_loss < 1.0 else []
        self.dephasing = _phase_damping_factors(DIMS, config.t_seq, config.t2e_a, config.t2e_b)

    def initial_matrix(self) -> np.ndarray:
        ket = np.kron(_prepared_qubits(self.config), basis_ket(DIMS[RAIL_DET] * DIMS[RAIL_LOAD], 0))
        return np.outer(ket, ket.conj())

    def emit_and_detect(self, mat: np.ndarray, first_round: bool):
        """One round: emit, interfere, lose, detect.

        Returns the unnormalized (click, no_click) branch matrices.
        """
        mat = apply_kraus_matrix(mat, [self.u_emit])
        if first_round:
            mat = apply_kraus_matrix(mat, [self.u_offset])
        mat = apply_kraus_matrix(mat, [self.u_bs])
        if self.loss:
            mat = apply_loss(mat, DIMS, RAIL_DET, self.loss)
        params = self.config.round1 if first_round else self.config.round2
        return branch_matrices(mat, DIMS, RAIL_DET, params)


def _subsystem_diagonal(local: np.ndarray, dims, target: int) -> np.ndarray:
    """Full-space diagonal of the operator diag(`local`) on subsystem `target`."""
    shape = [1] * len(dims)
    shape[target] = dims[target]
    return np.broadcast_to(np.reshape(local, shape), tuple(dims)).ravel()


def _apply_diagonal_kraus(mat: np.ndarray, factors) -> np.ndarray:
    """sum_k K mat K^dag for real diagonal K, each given by its diagonal.

    Scales rows, then columns, and sums the terms in the order of
    `apply_kraus_matrix`; the result equals that kernel's dense products
    with the embedded matrices bit for bit.
    """
    out = np.zeros_like(mat)
    for k in factors:
        out += (k[:, None] * mat) * k[None, :]
    return out


def _phase_damping_factors(dims, duration: float, t2e_a: float, t2e_b: float) -> list:
    """Diagonals of the Kraus pairs [sqrt(alpha) I, sqrt(1-alpha) Z] for qubits A, B.

    alpha = (1 + exp(-duration/T2E))/2; an infinite T2E means no dephasing.
    Each operator is a real full-space diagonal (a factor vector); apply
    the two pairs one after the other with `_apply_diagonal_kraus`.
    """
    if not (duration >= 0.0 and t2e_a > 0.0 and t2e_b > 0.0):
        raise ValidationError(f"phase damping needs t >= 0, T2E > 0: {(duration, t2e_a, t2e_b)}")
    pairs = []
    for qubit, t2e in ((QUBIT_A, t2e_a), (QUBIT_B, t2e_b)):
        alpha = 0.5 * (1.0 + np.exp(-duration / t2e))
        local = (np.sqrt(alpha) * np.ones(2), np.sqrt(1.0 - alpha) * np.array([1.0, -1.0]))
        pairs.append([_subsystem_diagonal(k, dims, qubit) for k in local])
    return pairs


def apply_phase_damping(
    rho: DensityMatrix, duration: float, t2e_a: float, t2e_b: float
) -> DensityMatrix:
    """Independent single-qubit phase damping on qubits A and B.

    Kraus pair sqrt(alpha) I and sqrt(1-alpha) Z per qubit with
    alpha = (1 + exp(-t/T2E))/2; populations are untouched, two-qubit
    coherences decay with the product of the single-qubit factors.  The
    Kraus operators are diagonal, so each is applied as a factor vector
    scaling rows and columns, not as a dense matrix product.
    """
    if len(rho.dims) < 2 or rho.dims[0] != 2 or rho.dims[1] != 2:
        raise ValidationError("state must start with two qubit subsystems")
    mat = rho.matrix
    for pair in _phase_damping_factors(rho.dims, duration, t2e_a, t2e_b):
        mat = _apply_diagonal_kraus(mat, pair)
    return DensityMatrix(rho.dims, mat)


def run_two_rounds(config: ProtocolConfig) -> OutcomeTable:
    """Propagate the full two-round protocol and return all four branches.

    Branch states are the two-qubit conditional states after phase damping
    with the rails traced out; branch probabilities are exact.
    """
    eng = _Engine(config)
    click1, noclick1 = eng.emit_and_detect(eng.initial_matrix(), first_round=True)

    branches: dict[tuple[bool, bool], Branch] = {}
    for c1, mat1 in ((True, click1), (False, noclick1)):
        mat1 = apply_kraus_matrix(mat1, [eng.u_pi])
        click2, noclick2 = eng.emit_and_detect(mat1, first_round=False)
        for c2, mat2 in ((True, click2), (False, noclick2)):
            p = float(np.trace(mat2).real)
            if p <= EMPTY_BRANCH_TOL:
                branches[(c1, c2)] = Branch(max(p, 0.0), None)
                continue
            for pair in eng.dephasing:
                mat2 = _apply_diagonal_kraus(mat2, pair)
            reduced = qmath.partial_trace_matrix(mat2, DIMS, (QUBIT_A, QUBIT_B))
            branches[(c1, c2)] = Branch(p, DensityMatrix((2, 2), reduced / p))

    total = sum(b.probability for b in branches.values())
    if not abs(total - 1.0) <= BRANCH_SUM_TOL:
        raise ValidationError(f"branch probabilities sum to {total}, not 1")
    return OutcomeTable(branches)


def round_one_click_weights(config: ProtocolConfig) -> dict[str, float]:
    """Diagonal weights of the round-1 click-conditioned two-qubit state.

    Returned in the basis {|O+>, |ee>, |gg>, |O->} as keys
    ('odd_plus', 'ee', 'gg', 'odd_minus').
    """
    eng = _Engine(config)
    click, _ = eng.emit_and_detect(eng.initial_matrix(), first_round=True)
    p = float(np.trace(click).real)
    if not p > EMPTY_BRANCH_TOL:
        raise ValidationError("round-1 click probability vanishes")
    reduced = qmath.partial_trace_matrix(click, DIMS, (QUBIT_A, QUBIT_B)) / p
    kets = (bell_odd_plus(), two_qubit_ket("ee"), two_qubit_ket("gg"), bell_odd_minus())
    names = ("odd_plus", "ee", "gg", "odd_minus")
    return {name: float(np.real(k.conj() @ reduced @ k)) for name, k in zip(names, kets)}


def run_control(config: ProtocolConfig) -> DensityMatrix:
    """Control sequence: same pulses and timing, but no photons, no heralding.

    The qubits see their preparations, the two pi pulses and the full
    sequence of phase damping; the output is always separable.
    """
    # one joint pi pulse between the two (photonless) rounds
    ket = np.kron(RY_PI, RY_PI) @ _prepared_qubits(config)
    rho = DensityMatrix((2, 2), np.outer(ket, ket.conj()))
    return apply_phase_damping(rho, config.t_seq, config.t2e_a, config.t2e_b)


@dataclass(frozen=True)
class SuccessRate:
    p_click1: float
    p_click2_given_click1: float
    p_success: float
    rate_per_s: float


def click_probabilities(table: OutcomeTable) -> tuple[float, float]:
    """Model p_click1 and p_click2|click1 read off the four branches."""
    p_click1 = table.probability(True, True) + table.probability(True, False)
    p_click2 = table.probability(True, True) / p_click1 if p_click1 > 0.0 else 0.0
    return p_click1, p_click2


def success_rate(config: ProtocolConfig, p_click1: float, p_click2: float) -> SuccessRate:
    """Initialization x click1 x click2|click1 bookkeeping and the rate.

    Pass the model's click probabilities (`click_probabilities` of a
    propagated table, as the CLI does) or measured ones to reproduce
    quoted numbers.  The rate is p_success / t_rep in events per second.
    """
    p_success = config.p_init * p_click1 * p_click2
    rate = p_success / (config.t_rep * 1e-6)
    return SuccessRate(p_click1, p_click2, p_success, rate)


SWEEPABLE_AXES = (
    "theta_a",
    "phi_a",
    "theta_b",
    "phi_b",
    "phi_off",
    "eta_loss",
    "t_seq",
)


@dataclass(frozen=True)
class SweepPoint:
    value: float
    pauli: PauliVector | None
    probability: float


def sweep_preparation(
    config: ProtocolConfig, axis: str, values
) -> list[SweepPoint]:
    """Pauli vector of the doubly-heralded branch versus one config axis.

    Points are independent; results are returned in input order.
    """
    if axis not in SWEEPABLE_AXES:
        raise ValidationError(
            f"axis {axis!r} not sweepable; choose from {SWEEPABLE_AXES}"
        )
    points = []
    for v in values:
        table = run_two_rounds(replace(config, **{axis: float(v)}))
        branch = table.branches[(True, True)]
        pauli = pauli_decompose(branch.state) if branch.state is not None else None
        points.append(SweepPoint(float(v), pauli, branch.probability))
    return points
