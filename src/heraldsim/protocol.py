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

One engine, `_run_stack`, runs that sequence for a stack of configs:
`run_two_rounds` is a stack of one, and `sweep_preparation` hands over
`_STACK` points at a time.  Each config gets the bits of the dense
one-config-at-a-time sequence, which the tests keep as an oracle:
emission and the pi pulses are signed permutations applied by indexing,
and both rounds lose photons and detect on the detector rail's (k, k)
blocks alone, through `photonics.apply_loss_diagonal` and
`detector.branch_levels`; round 2 also drops the load rail's coherences,
which the final trace never reads (`_round_one` and `_run_stack` say why
that is exact).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cache

import numpy as np

from . import detector, qmath
from .detector import DetectorRoundParams
from .photonics import (
    apply_loss_diagonal,
    beam_splitter_unitary,
    emission_unitary,
    loss_kraus,
)
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

_STACK = 32  # configs per pass of the stacked engine; a 25-point sweep is one

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
        if not np.isfinite(self.t_seq):
            raise ValidationError(f"t_seq must be finite, got {self.t_seq!r}")
        period = float(self.t_rep) * 1e-6  # s; success_rate divides p_success <= 1 by it
        if not (period > 0.0 and np.isfinite(1.0 / period)):
            raise ValidationError(f"t_rep={self.t_rep!r} us gives no finite success rate")
        for name in ("theta_a", "phi_a", "theta_b", "phi_b", "phi_off"):
            if not np.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite")
        # the offset phase of the top rail level, phi_off * N_MAX
        if not np.isfinite(self.phi_off * N_MAX):
            raise ValidationError("the two-photon level's offset phase 2 * phi_off must be finite")
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

    Keys are exactly the four (click1, click2) boolean pairs.  Each
    probability is finite and in [0, 1 + BRANCH_SUM_TOL], and they sum to
    one within `BRANCH_SUM_TOL`; anything else, NaN included, is a
    ValidationError.  A branch of probability at most `EMPTY_BRANCH_TOL`
    may carry state None; any other branch without a state is a
    ValidationError, since a sampler could not draw its outcomes.
    """

    branches: dict[tuple[bool, bool], Branch]

    def __post_init__(self):
        if set(self.branches) != {(c1, c2) for c1 in (True, False) for c2 in (True, False)}:
            raise ValidationError("an outcome table has exactly the four (click1, click2) branches")
        for key, branch in self.branches.items():
            # written so that NaN fails
            if not 0.0 <= branch.probability <= 1.0 + BRANCH_SUM_TOL:
                raise ValidationError(
                    f"branch {key} probability {branch.probability!r} is not in [0, 1]"
                )
        total = sum(b.probability for b in self.branches.values())
        if not abs(total - 1.0) <= BRANCH_SUM_TOL:
            raise ValidationError(f"branch probabilities sum to {total}, not 1")
        for key, branch in self.branches.items():
            if branch.state is None and branch.probability > EMPTY_BRANCH_TOL:
                raise ValidationError(
                    f"branch {key} probability {branch.probability!r} has no state"
                )

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
    embedded once per process, on first use."""
    emit = emission_unitary(N_MAX + 1)
    ops = (
        embed_operator(emit, DIMS, (QUBIT_A, RAIL_LOAD))
        @ embed_operator(emit, DIMS, (QUBIT_B, RAIL_DET)),
        embed_operator(beam_splitter_unitary(), DIMS, (RAIL_DET, RAIL_LOAD)),
        embed_operator(np.kron(RY_PI, RY_PI), DIMS, (QUBIT_A, QUBIT_B)),
    )
    for op in ops:
        op.setflags(write=False)
    return ops


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the stacked engine, read-only, derived once per
    process, on first use, from `_unitaries()`.

    (emit, round2, round2_sign, tail): the emission's row permutation (its
    entries are all +1); the flat source index and sign of each entry of a
    36 x 36 matrix under the round-2 pi pulses followed by emission; the
    flat indices of the rail-diagonal entries (q, q', l, d) that round 2
    keeps after its splitter, q the qubit pair.
    """
    u_emit, _, u_pi = _unitaries()
    composite = u_emit @ u_pi
    n = len(composite)
    perm = np.nonzero(composite)[1]
    sign = composite[np.arange(n), perm].real
    n_rails = DIMS[RAIL_DET] * DIMS[RAIL_LOAD]
    q, q_col, l, d = np.indices((n // n_rails, n // n_rails, DIMS[RAIL_LOAD], DIMS[RAIL_DET]))
    rails = d * DIMS[RAIL_LOAD] + l
    tables = (
        np.nonzero(u_emit)[1],
        (perm[:, None] * n + perm[None, :]).ravel(),
        np.outer(sign, sign).ravel(),
        (q * n_rails + rails) * n + q_col * n_rails + rails,
    )
    for table in tables:
        table.setflags(write=False)
    return tables


def _initial_ket(config: ProtocolConfig) -> np.ndarray:
    """Both preparations with empty rails, as a full-space ket."""
    return np.kron(_prepared_qubits(config), basis_ket(DIMS[RAIL_DET] * DIMS[RAIL_LOAD], 0))


def _losses(configs):
    """Per-config `loss_kraus` lists, or None when no config loses photons."""
    if all(c.eta_loss == 1.0 for c in configs):
        return None
    return [loss_kraus(N_MAX + 1, c.eta_loss) for c in configs]


def _round_one(configs) -> tuple[np.ndarray, np.ndarray]:
    """Round 1 of a stack of configs: the unnormalized (click, no_click)
    branches, each an (S, 36, 36) stack of bare joint matrices.

    After the splitter only the detector rail's (d, d) blocks are read, and
    the result is exact: loss fills each (n, n) block only from the
    (n + j, n + j) blocks, and detection reads only the (k, k) blocks and
    writes only the (0, 0) block.  So loss and detection run on those
    levels, as in round 2, with the embedded Kraus sums' arithmetic per
    entry in the same order, and each branch's level-0 block is put into
    zeros, which is what the Kraus sums hold (+0.0) everywhere else.
    """
    kets = np.stack([_initial_ket(c) for c in configs])[:, _tables()[0]]
    n = kets.shape[-1]
    mats = np.zeros((len(configs), n, n), dtype=complex)
    mats += kets[:, :, None] * kets.conj()[:, None, :]
    # the offset phases diag(exp(i phi_off n_det)), dense
    phases = np.zeros_like(mats)
    phases[:, range(n), range(n)] = [
        _subsystem_diagonal(np.exp(1j * c.phi_off * np.arange(N_MAX + 1)), DIMS, RAIL_DET)
        for c in configs
    ]
    mats = apply_kraus_matrix(mats, [phases])
    mats = apply_kraus_matrix(mats, [_unitaries()[1]])
    # (slice, q, d, l, q', d', l'), q the qubit pair; the d = d' entries, d last
    block = (DIMS[QUBIT_A] * DIMS[QUBIT_B], DIMS[RAIL_DET], DIMS[RAIL_LOAD])
    blocks = (len(configs),) + block * 2
    levels = np.diagonal(mats.reshape(blocks), axis1=2, axis2=5)
    losses = _losses(configs)
    if losses is not None:
        levels = apply_loss_diagonal(levels, losses)
    branches = []
    for level0 in detector.branch_levels(levels, [c.round1 for c in configs]):
        out = np.zeros(blocks, dtype=complex)
        out[:, :, 0, :, :, 0, :] = level0
        branches.append(out.reshape(mats.shape))
    return branches[0], branches[1]


def _run_stack(configs) -> list[OutcomeTable]:
    """Both rounds, dephasing and the rail trace for a stack of configs;
    one `OutcomeTable` per config, in order.

    Every step gives the bits of the dense per-config sequence (prepare,
    emit, offset phase, splitter, loss, detect, pi pulses, emit,
    splitter, loss, detect, dephase, trace the rails), which the tests
    keep as an oracle:

    - Emission and the pi pulses are signed permutation matrices, so
      U M U^dag is s_i s_j M[pi_i, pi_j]: zgemm forms each entry as that
      one product plus exact zeros.  Round 1 therefore emits by permuting
      the initial ket before its outer product, and round 2 applies the
      pi pulses and emission as one composite permutation; each result is
      summed onto zeros, as `apply_kraus_matrix` does, so no signed zero
      survives.  The offset phase and the splitter stay dense products,
      one zgemm per slice.
    - Loss and detection of both rounds run on the detector rail's (k, k)
      blocks alone (`_round_one` says why that is exact).  The rails are
      traced out at the end, and after the round-2 splitter loss,
      detection and dephasing map each rail-diagonal entry (d = d',
      l = l') only from rail-diagonal entries.  So round 2 continues on
      those 144 of the 1296 entries (`_tables()`), with the same
      arithmetic per entry in the same order: each branch
      probability sums the full 36-entry diagonal, zeros included, in
      `np.trace`'s pairwise order, and the reduced state is the load-rail
      sum, then the detector-rail sum with its +0 terms, in
      `qmath.partial_trace_matrix`'s order.

    The kets, offset phases, loss Kraus values and dephasing factors are
    computed per config; only the array algebra is stacked.
    """
    _, round2, round2_sign, tail = _tables()
    u_bs = _unitaries()[1]
    # flat slices in (c1, config) order: the round-1 click branches, then the no-click ones
    flat = np.concatenate(_round_one(configs)).reshape(2 * len(configs), -1)
    permuted = np.zeros_like(flat)
    permuted += flat[:, round2] * round2_sign
    del flat  # freed before the splitter's temporaries: a lower peak per stack
    mats = apply_kraus_matrix(permuted.reshape((-1,) + u_bs.shape), [u_bs])
    levels = mats.reshape(len(mats), -1)[:, tail]
    losses = _losses(configs)
    if losses is not None:
        levels = apply_loss_diagonal(levels, losses * 2)
    # (c2, slice, q, q', l, d): each branch is zero off the detector's level 0
    final = np.zeros((2,) + levels.shape, dtype=complex)
    final[..., 0] = detector.branch_levels(levels, [c.round2 for c in configs] * 2)
    # axes (c1, c2, config, l, d, q, q'): the qubit pair last, as in a 4 x 4 matrix
    final = final.reshape((2, 2, len(configs)) + levels.shape[1:]).transpose(1, 0, 2, 5, 6, 3, 4)

    # the 36-entry diagonals in (q, d, l) order
    diagonals = np.diagonal(final, axis1=-2, axis2=-1).transpose(0, 1, 2, 5, 4, 3)
    probabilities = diagonals.reshape(final.shape[:3] + (-1,)).sum(axis=-1).real
    dephasing = np.array([_phase_damping_factors(c.t_seq, c.t2e_a, c.t2e_b) for c in configs])
    # each qubit's pair, its factors shaped (config, 1, 1, q) for the (config, l, d) axes
    for pair in np.moveaxis(dephasing, 0, 2)[..., None, None, :]:
        final = _apply_diagonal_kraus(final, pair)
    load_traced = (final[:, :, :, 0] + final[:, :, :, 1]) + final[:, :, :, 2]
    reduced = (load_traced[:, :, :, 0] + load_traced[:, :, :, 1]) + load_traced[:, :, :, 2]
    # written so that a NaN probability keeps its state, which then fails
    occupied = ~(probabilities <= EMPTY_BRANCH_TOL)
    states = reduced / np.where(occupied, probabilities, 1.0)[..., None, None]

    outcome_tables = []
    for i in range(len(configs)):
        branches = {}
        for b1, c1 in enumerate((True, False)):
            for b2, c2 in enumerate((True, False)):
                p = float(probabilities[b1, b2, i])
                if occupied[b1, b2, i]:
                    branches[(c1, c2)] = Branch(p, DensityMatrix(states[b1, b2, i]))
                else:
                    branches[(c1, c2)] = Branch(max(p, 0.0), None)
        outcome_tables.append(OutcomeTable(branches))
    return outcome_tables


def _subsystem_diagonal(local: np.ndarray, dims, target: int) -> np.ndarray:
    """Full-space diagonal of the operator diag(`local`) on subsystem `target`."""
    shape = [1] * len(dims)
    shape[target] = dims[target]
    return np.broadcast_to(np.reshape(local, shape), tuple(dims)).ravel()


def _apply_diagonal_kraus(mat: np.ndarray, factors) -> np.ndarray:
    """sum_k K mat K^dag for real diagonal K, each given by its diagonal.

    Scales rows, then columns, and sums the terms in the order of
    `apply_kraus_matrix`; the result equals that kernel's dense products
    with the embedded matrices bit for bit.  Leading axes of `mat` and of
    the factors broadcast, so a stack of matrices can take its own factors.
    """
    out = np.zeros_like(mat)
    for k in factors:
        out += (k[..., :, None] * mat) * k[..., None, :]
    return out


def _phase_damping_factors(duration: float, t2e_a: float, t2e_b: float) -> list:
    """Diagonals of the Kraus pairs [sqrt(alpha) I, sqrt(1-alpha) Z] for qubits A, B.

    alpha = (1 + exp(-duration/T2E))/2, duration finite; an infinite T2E means no dephasing.
    Each operator is a real two-qubit diagonal (a factor vector); apply
    the two pairs one after the other with `_apply_diagonal_kraus`.
    """
    if not (0.0 <= duration < np.inf and t2e_a > 0.0 and t2e_b > 0.0):
        raise ValidationError(f"phase damping needs finite t >= 0, T2E > 0: {(duration, t2e_a, t2e_b)}")
    pairs = []
    for qubit, t2e in ((QUBIT_A, t2e_a), (QUBIT_B, t2e_b)):
        alpha = 0.5 * (1.0 + np.exp(-duration / t2e))
        local = (np.sqrt(alpha) * np.ones(2), np.sqrt(1.0 - alpha) * np.array([1.0, -1.0]))
        pairs.append([_subsystem_diagonal(k, DIMS[:2], qubit) for k in local])
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
    mat = rho.matrix
    for pair in _phase_damping_factors(duration, t2e_a, t2e_b):
        mat = _apply_diagonal_kraus(mat, pair)
    return DensityMatrix(mat)


def run_two_rounds(config: ProtocolConfig) -> OutcomeTable:
    """Propagate the full two-round protocol and return all four branches.

    Branch states are the two-qubit conditional states after phase damping
    with the rails traced out; branch probabilities are exact.  The run is
    a stack of one in the stacked engine, `_run_stack`.
    """
    return _run_stack([config])[0]


def round_one_click_weights(config: ProtocolConfig) -> dict[str, float]:
    """Diagonal weights of the round-1 click-conditioned two-qubit state.

    Returned in the basis {|O+>, |ee>, |gg>, |O->} as keys
    ('odd_plus', 'ee', 'gg', 'odd_minus').
    """
    click = _round_one([config])[0][0]
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
    rho = DensityMatrix(np.outer(ket, ket.conj()))
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
    A click probability that is NaN or lies outside [0, 1] by more than
    `BRANCH_SUM_TOL` (the rounding a propagated table may carry) is a
    ValidationError.
    """
    for name, p in (("p_click1", p_click1), ("p_click2", p_click2)):
        if not -BRANCH_SUM_TOL <= p <= 1.0 + BRANCH_SUM_TOL:
            raise ValidationError(f"{name}={p!r} is not a probability in [0, 1]")
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

    Points are independent; results are returned in input order.  The
    configs go through the stacked engine `_STACK` at a time, and each
    point has the bits of its own `run_two_rounds`.
    """
    if axis not in SWEEPABLE_AXES:
        raise ValidationError(
            f"axis {axis!r} not sweepable; choose from {SWEEPABLE_AXES}"
        )
    values = [float(v) for v in values]
    configs = [replace(config, **{axis: v}) for v in values]
    points = []
    for lo in range(0, len(configs), _STACK):
        for v, table in zip(values[lo:], _run_stack(configs[lo:lo + _STACK])):
            branch = table.branches[(True, True)]
            pauli = pauli_decompose(branch.state) if branch.state is not None else None
            points.append(SweepPoint(v, pauli, branch.probability))
    return points
