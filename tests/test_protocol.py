"""Two-round protocol engine: written-state checks, branch bookkeeping,
oracle equivalences, control runs and sweeps."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from test_detector import kraus_sum_branches
from test_photonics import expm_reference

from heraldsim import cli, detector, protocol, qmath
from heraldsim.detector import DetectorRoundParams, branch_levels, dark_count_fidelity
from heraldsim.photonics import beam_splitter_unitary, emission_unitary, loss_kraus
from heraldsim.protocol import (
    DIMS,
    EMPTY_BRANCH_TOL,
    N_MAX,
    QUBIT_A,
    QUBIT_B,
    RAIL_DET,
    Branch,
    OutcomeTable,
    ProtocolConfig,
    RY_PI,
    SWEEPABLE_AXES,
    _STACK,
    _initial_ket,
    _losses,
    _phase_damping_factors,
    _round_one,
    _run_stack,
    _subsystem_diagonal,
    _tables,
    _unitaries,
    apply_phase_damping,
    click_probabilities,
    prepared_qubit_ket,
    round_one_click_weights,
    run_control,
    run_two_rounds,
    success_rate,
    sweep_preparation,
)
from heraldsim.qmath import (
    DensityMatrix,
    ValidationError,
    apply_kraus_matrix,
    basis_ket,
    bell_odd_minus,
    bell_odd_plus,
    concurrence,
    embed_operator,
    partial_trace_matrix,
    pauli_decompose,
    state_fidelity,
    two_qubit_ket,
)

INF = np.inf


def ideal_config(**overrides):
    base = dict(
        phi_b=0.0,
        phi_off=0.0,
        eta_loss=1.0,
        round1=DetectorRoundParams(0.0, 1.0),
        round2=DetectorRoundParams(0.0, 1.0),
        t2e_a=INF,
        t2e_b=INF,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def measured_config(**overrides):
    base = dict(phi_b=0.0, phi_off=0.0, t2e_a=INF, t2e_b=INF)
    base.update(overrides)
    return ProtocolConfig(**base)


def rail_ket(n, m, dim=3):
    return np.kron(basis_ket(dim, n), basis_ket(dim, m))


def conjugate(u, mat):
    return u @ mat @ u.conj().T


def initial_matrix(config):
    """Both preparations with empty rails, as a full-space density matrix."""
    ket = _initial_ket(config)
    return np.outer(ket, ket.conj())


def ideal_entangled_matrix():
    """Joint state after both equatorial qubits emit, before the splitter."""
    return conjugate(_unitaries()[0], initial_matrix(ideal_config()))


def dense_round(mat, config, first_round):
    """One round of the dense per-config engine: emit, offset phase (round 1
    only), interfere, lose, detect.  Loss and detection are the embedded
    Kraus sums: on the detector rail's (k, k) blocks, the only ones the
    engine keeps, they equal its kernels `apply_loss_diagonal` and
    `branch_levels` bit for bit, and each branch is +0.0 off the rail's
    level 0 (test_photonics, test_detector)."""
    u_emit, u_bs, _ = _unitaries()
    mat = apply_kraus_matrix(mat, [u_emit])
    if first_round:
        phase = np.exp(1j * config.phi_off * np.arange(N_MAX + 1))
        mat = apply_kraus_matrix(mat, [np.diag(_subsystem_diagonal(phase, DIMS, RAIL_DET))])
    mat = apply_kraus_matrix(mat, [u_bs])
    if config.eta_loss < 1.0:
        ops = loss_kraus(N_MAX + 1, config.eta_loss)
        mat = apply_kraus_matrix(mat, [embed_operator(k, DIMS, (RAIL_DET,)) for k in ops])
    return kraus_sum_branches(mat, DIMS, RAIL_DET, config.round1 if first_round else config.round2)


def dense_two_rounds(config, final=None):
    """Oracle: the dense per-config `run_two_rounds` that the stacked engine
    replaced, one 36 x 36 matrix at a time.  The four final branch matrices
    (before dephasing) are appended to `final` when it is given."""
    u_pi = _unitaries()[2]
    # the dephasing Kraus operators as dense full-space matrices, (qubits, rails) order
    dephasing = [
        [np.diag(np.repeat(k, 9)) for k in pair]
        for pair in _phase_damping_factors(config.t_seq, config.t2e_a, config.t2e_b)
    ]
    click1, noclick1 = dense_round(initial_matrix(config), config, first_round=True)
    branches = {}
    for c1, mat1 in ((True, click1), (False, noclick1)):
        mat1 = apply_kraus_matrix(mat1, [u_pi])
        click2, noclick2 = dense_round(mat1, config, first_round=False)
        for c2, mat2 in ((True, click2), (False, noclick2)):
            if final is not None:
                final.append(mat2)
            p = float(np.trace(mat2).real)
            if p <= EMPTY_BRANCH_TOL:
                branches[(c1, c2)] = Branch(max(p, 0.0), None)
                continue
            for pair in dephasing:
                mat2 = apply_kraus_matrix(mat2, pair)
            reduced = partial_trace_matrix(mat2, DIMS, (QUBIT_A, QUBIT_B))
            branches[(c1, c2)] = Branch(p, DensityMatrix(reduced / p))
    return OutcomeTable(branches)


def assert_same_bits(table, expected):
    """Same branch order, probability bits, state placement and state bytes."""
    assert list(table.branches) == list(expected.branches)
    for key, want in expected.branches.items():
        got = table.branches[key]
        assert got.probability.hex() == want.probability.hex(), key
        assert (got.state is None) == (want.state is None), key
        if want.state is not None:
            assert got.state.matrix.tobytes() == want.state.matrix.tobytes(), key


def ideal_interfered_matrix():
    """The same state after the engine's beam splitter."""
    return conjugate(_unitaries()[1], ideal_entangled_matrix())


def overlap(ket, mat):
    return np.real(ket.conj() @ mat @ ket)


class TestIdealEntangledState:
    def test_matches_written_joint_state(self):
        # (1/2)(|gg>|00> + |O+>|o+> + |O->|o-> + |ee>|11>)
        o_plus = (rail_ket(1, 0) + rail_ket(0, 1)) / np.sqrt(2)
        o_minus = (rail_ket(1, 0) - rail_ket(0, 1)) / np.sqrt(2)
        written = 0.5 * (
            np.kron(two_qubit_ket("gg"), rail_ket(0, 0))
            + np.kron(bell_odd_plus(), o_plus)
            + np.kron(bell_odd_minus(), o_minus)
            + np.kron(two_qubit_ket("ee"), rail_ket(1, 1))
        )
        assert np.isclose(overlap(written, ideal_entangled_matrix()), 1.0, atol=1e-12)

    def test_reduced_qubits_maximally_mixed(self):
        reduced = partial_trace_matrix(ideal_entangled_matrix(), (2, 2, 3, 3), (0, 1))
        assert np.allclose(reduced, np.eye(4) / 4, atol=1e-12)

    def test_mean_total_photon_number_one(self):
        # oracle: direct expectation of n_rail1 + n_rail2
        dims = (2, 2, 3, 3)
        n = np.diag(np.arange(3)).astype(complex)
        n_tot = embed_operator(n, dims, (2,)) + embed_operator(n, dims, (3,))
        assert np.isclose(np.trace(n_tot @ ideal_entangled_matrix()).real, 1.0, atol=1e-12)


class TestBeamSplitterStep:
    def test_reproduces_interfered_state(self):
        # the branch phases are fixed by the splitter convention: the odd
        # Bell branches route whole to single output rails, vacuum stays,
        # the doubly-excited branch shows two-photon interference
        expected = 0.5 * (
            np.kron(two_qubit_ket("gg"), rail_ket(0, 0))
            - np.kron(bell_odd_plus(), rail_ket(1, 0))
            + np.kron(bell_odd_minus(), rail_ket(0, 1))
            + np.kron(
                two_qubit_ket("ee"), (rail_ket(2, 0) - rail_ket(0, 2)) / np.sqrt(2)
            )
        )
        assert np.isclose(overlap(expected, ideal_interfered_matrix()), 1.0, atol=1e-10)

    def test_vacuum_component_untouched(self):
        vac = np.kron(two_qubit_ket("gg"), rail_ket(0, 0))
        assert np.isclose(overlap(vac, ideal_interfered_matrix()), 0.25, atol=1e-12)

    def test_which_path_information_erased(self):
        # no population with one photon in each rail survives
        mat = ideal_interfered_matrix().reshape(4, 3, 3, 4, 3, 3)
        pop_11 = np.einsum("abcabc->", mat[:, 1:2, 1:2, :, 1:2, 1:2]).real
        assert abs(pop_11) < 1e-12


class TestPhaseDamping:
    def test_zero_duration_identity(self):
        rho = DensityMatrix.from_ket(bell_odd_plus())
        out = apply_phase_damping(rho, 0.0, 10.0, 16.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_long_time_kills_coherence(self):
        rho = DensityMatrix.from_ket(bell_odd_plus())
        out = apply_phase_damping(rho, 1e6, 10.0, 16.0)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) < 1e-12

    def test_diagonal_unchanged(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix(m / np.trace(m))
        out = apply_phase_damping(rho, 2.5, 10.0, 16.0)
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-12)

    def test_bell_fidelity_after_damping(self):
        # oracle: direct Kraus application built inline
        t, ta, tb = 2.5, 10.0, 16.0
        rho = DensityMatrix.from_ket(bell_odd_plus())
        mat = rho.matrix
        for t2e, which in ((ta, 0), (tb, 1)):
            alpha = 0.5 * (1 + np.exp(-t / t2e))
            e0 = np.sqrt(alpha) * np.eye(2)
            e1 = np.sqrt(1 - alpha) * np.diag([1.0, -1.0])
            ops = [
                np.kron(k, np.eye(2)) if which == 0 else np.kron(np.eye(2), k)
                for k in (e0, e1)
            ]
            mat = sum(k @ mat @ k.conj().T for k in ops)
        expected = np.real(bell_odd_plus().conj() @ mat @ bell_odd_plus())

        out = apply_phase_damping(rho, t, ta, tb)
        got = state_fidelity(out, bell_odd_plus())
        assert np.isclose(got, expected, atol=1e-12)
        # closed form (1 + exp(-t(1/Ta + 1/Tb)))/2 = 0.833
        assert np.isclose(got, 0.5 * (1 + np.exp(-t * (1 / ta + 1 / tb))), atol=1e-12)
        assert abs(got - 0.830) < 0.005


class TestPhaseDampingInputs:
    """The one shared Kraus builder checks duration and both T2E values."""

    @pytest.mark.parametrize(
        "duration, t2e_a, t2e_b",
        [
            (2.5, 0.0, 16.0),
            (2.5, 10.0, 0.0),
            (2.5, -10.0, 16.0),
            (2.5, 10.0, -16.0),
            (-1.0, 10.0, 16.0),
            (-INF, 10.0, 16.0),
            (INF, 10.0, 16.0),
            (INF, INF, INF),  # exp(-inf / inf) is NaN
            (np.nan, 10.0, 16.0),
            (2.5, np.nan, 16.0),
            (2.5, 10.0, np.nan),
        ],
    )
    def test_rejected(self, duration, t2e_a, t2e_b):
        rho = DensityMatrix.from_ket(bell_odd_plus())
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValidationError, match="phase damping"):
                apply_phase_damping(rho, duration, t2e_a, t2e_b)

    @pytest.mark.parametrize("t2e", [1e300, INF])
    def test_infinite_coherence_time_is_no_dephasing(self, t2e):
        rho = DensityMatrix.from_ket(bell_odd_plus())
        out = apply_phase_damping(rho, 2.5, t2e, t2e)
        assert np.array_equal(out.matrix, apply_phase_damping(rho, 0.0, 10.0, 16.0).matrix)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


class TestOperatorCache:
    """The unitaries and the engine's tables are built once and shared."""

    def test_cached_unitaries_are_read_only(self):
        round_one, round_two = _tables()
        for op in _unitaries() + round_one + round_two:
            with pytest.raises(ValueError):
                op.flat[0] = 2

    def test_round_one_tables_are_the_unitaries(self):
        # the emission is a permutation of the kets, all its signs +1, and
        # round 1 keeps the detector rail's (d, d) blocks, d last
        u_emit = _unitaries()[0]
        emit, kept = _tables()[0]
        n = len(u_emit)
        assert np.array_equal(u_emit, np.eye(n)[emit])
        mat = np.arange(n * n).reshape(n, n).astype(complex)
        assert np.array_equal(conjugate(u_emit, mat), mat[emit][:, emit])
        row, col = np.divmod(kept, n)
        assert kept.shape == (4, N_MAX + 1, 4, N_MAX + 1, N_MAX + 1)
        # (q, l, q', l', d) order: the qubit pair, then the load rail's level, per side
        q, l, q_col, l_col, d = np.indices(kept.shape)
        assert np.array_equal(row, q * 9 + d * 3 + l) and np.array_equal(col, q_col * 9 + d * 3 + l_col)

    def test_round_two_tables_are_the_unitaries(self):
        # the pi pulses and emission are a signed permutation of round 1's
        # level-0 entries and the zero column, and round 2 keeps only
        # rail-diagonal entries
        u_emit, _, u_pi = _unitaries()
        level0 = _tables()[0][1][..., 0].ravel()
        source, sign, kept = _tables()[1]
        n = len(u_emit)
        mat = np.arange(1, n * n + 1).reshape(n, n).astype(complex)
        on_level0 = np.zeros(n * n, dtype=complex)
        on_level0[level0] = mat.ravel()[level0]
        assert np.array_equal(
            conjugate(u_emit @ u_pi, on_level0.reshape(n, n)),
            (np.append(mat.ravel()[level0], 0.0)[source] * sign).reshape(n, n),
        )
        row, col = np.divmod(kept, n)
        assert kept.shape == (4, 4, N_MAX + 1, N_MAX + 1)
        assert np.array_equal(row % 9, col % 9)
        # (q, q', l, d) order: the load rail's level, then the detector's
        q, q_col, l, d = np.indices(kept.shape)
        assert np.array_equal(row, q * 9 + d * 3 + l) and np.array_equal(col, q_col * 9 + d * 3 + l)

    def test_round_two_reads_the_zero_column_exactly_off_level_zero(self):
        # an entry's round-1 source has d != 0 or d' != 0 exactly where the
        # permuted indicator of those entries is nonzero
        u_emit, _, u_pi = _unitaries()
        source = _tables()[1][0]
        det = np.indices(DIMS)[RAIL_DET].ravel()
        off_level0 = ((det[:, None] != 0) | (det[None, :] != 0)).astype(complex)
        permuted = conjugate(u_emit @ u_pi, off_level0)
        n_level0 = 4 * (N_MAX + 1) * 4 * (N_MAX + 1)
        assert np.array_equal((source == n_level0).reshape(permuted.shape), permuted != 0.0)
        # and reads each level-0 entry once
        assert np.array_equal(np.sort(source[source < n_level0]), np.arange(n_level0))

    def test_losses_are_built_once_per_stack(self, monkeypatch):
        calls = []

        def spy(d, eta):
            calls.append(eta)
            return loss_kraus(d, eta)

        monkeypatch.setattr(protocol, "loss_kraus", spy)
        configs = [ProtocolConfig(eta_loss=eta) for eta in (0.3, 1.0, 0.8)]
        _run_stack(configs)
        assert calls == [0.3, 1.0, 0.8]

    def test_configs_with_same_n_max_share_arrays(self, monkeypatch):
        u_bs = _unitaries()[1]
        tables = _tables()
        applied = []

        def spy_kraus(mat, ops):
            applied.append(ops[0])
            return qmath.apply_kraus_matrix(mat, ops)

        monkeypatch.setattr(protocol, "apply_kraus_matrix", spy_kraus)
        for cfg in (ProtocolConfig(theta_a=0.3, eta_loss=0.5), measured_config(phi_off=1.1)):
            applied.clear()
            run_two_rounds(cfg)
            offset = applied.pop(0)  # the config's own round-1 offset phase
            assert not any(offset is u for u in _unitaries())
            assert offset.shape == (1,) + u_bs.shape
            # the splitter of round 1, then of round 2; nothing else is a product
            assert len(applied) == 2 and all(op is u_bs for op in applied)
            assert _tables() is tables


# rows/columns of the joint space whose rails hold more than N_MAX photons
_OVER_BOUND = (np.indices(DIMS)[2] + np.indices(DIMS)[3] > N_MAX).ravel()


class TestTwoPhotonBound:
    """Truncating each rail at N_MAX = 2 photons is exact for this protocol.

    The pi pulses swap which qubit state emits, so each qubit sends one
    photon over the two rounds and the rails together never hold more than
    two; the splitter then never sees, and never needs, a higher level.
    """

    @pytest.mark.parametrize("eta_loss", [1.0, 0.6, 0.0])
    def test_rails_never_hold_more_than_two_photons(self, monkeypatch, eta_loss):
        u_bs = _unitaries()[1]
        at_splitter = []

        def spy_kraus(mat, ops):
            if ops[0] is u_bs:
                at_splitter.extend(mat)
            return qmath.apply_kraus_matrix(mat, ops)

        monkeypatch.setattr(protocol, "apply_kraus_matrix", spy_kraus)
        cfg = ProtocolConfig(theta_a=1.1, theta_b=2.0, phi_a=0.4, eta_loss=eta_loss)
        run_two_rounds(cfg)
        # round 1, then round 2 after each round-1 branch
        assert len(at_splitter) == 3
        # the engine keeps no final matrix; the oracle's are the same branches
        final = []
        dense_two_rounds(cfg, final)
        assert len(final) == 4
        for mat in at_splitter + final:
            assert np.all(mat[_OVER_BOUND, :] == 0.0)
            assert np.all(mat[:, _OVER_BOUND] == 0.0)

    @pytest.mark.parametrize("eta_loss", [1.0, 0.6])
    def test_dropped_entries_are_never_read(self, monkeypatch, eta_loss):
        # after the round-2 splitter only rail-diagonal entries are kept:
        # poisoning every other entry with NaN changes no bit of the table
        u_bs = _unitaries()[1]
        rail_row, rail_col = np.divmod(np.arange(36 * 36), 36)
        dropped = (rail_row % 9 != rail_col % 9).reshape(36, 36)

        def poison(mat, ops):
            out = qmath.apply_kraus_matrix(mat, ops)
            if ops[0] is u_bs and len(mat) == 2:  # round 2 of a stack of one
                out[:, dropped] = np.nan
            return out

        cfg = ProtocolConfig(theta_a=1.1, theta_b=2.0, phi_a=0.4, eta_loss=eta_loss)
        expected = run_two_rounds(cfg)
        monkeypatch.setattr(protocol, "apply_kraus_matrix", poison)
        assert_same_bits(run_two_rounds(cfg), expected)

    @pytest.mark.parametrize("eta_loss", [1.0, 0.6])
    def test_round_one_dropped_entries_are_never_read(self, monkeypatch, eta_loss):
        # after the round-1 splitter only the detector rail's (d, d) blocks
        # are read: poisoning every d != d' entry with NaN changes no bit
        u_bs = _unitaries()[1]
        det = np.indices(DIMS)[RAIL_DET].ravel()
        dropped = det[:, None] != det[None, :]
        poisoned = []

        def poison(mat, ops):
            out = qmath.apply_kraus_matrix(mat, ops)
            if ops[0] is u_bs and len(mat) == 1:  # round 1 of a stack of one
                out[:, dropped] = np.nan
                poisoned.append(out)
            return out

        cfg = ProtocolConfig(theta_a=1.1, theta_b=2.0, phi_a=0.4, eta_loss=eta_loss)
        expected = run_two_rounds(cfg)
        monkeypatch.setattr(protocol, "apply_kraus_matrix", poison)
        assert_same_bits(run_two_rounds(cfg), expected)
        assert len(poisoned) == 1

    def test_splitter_block_is_truncation_independent(self):
        def low_block(u, d):
            n_det, n_load = np.divmod(np.arange(d * d), d)
            keep = n_det + n_load <= N_MAX
            return u[np.ix_(keep, keep)]

        recorded = low_block(beam_splitter_unitary(), N_MAX + 1)
        for d in (N_MAX + 2, N_MAX + 3):
            assert np.max(np.abs(recorded - low_block(expm_reference(d), d))) <= 1e-15


def brute_force_click_click(config):
    """Independent oracle: pure-state enumeration over the detector Kraus
    outcome tree (no density matrices, no channel machinery).

    Valid for pure-state-preserving configs: no loss, dark and real click
    weights exact per round.  Returns (P(click, click), heralded 4x4
    density matrix) by summing the - mutually orthogonal by construction -
    Kraus-path outputs.
    """
    dims = (2, 2, 3, 3)
    emit = embed_operator(emission_unitary(3), dims, (1, 2)) @ embed_operator(
        emission_unitary(3), dims, (0, 3)
    )
    bs = embed_operator(beam_splitter_unitary(), dims, (2, 3))
    phase = np.diag(np.exp(1j * config.phi_off * np.arange(3)))
    offset = embed_operator(phase, dims, (2,))
    pi2 = embed_operator(np.kron(RY_PI, RY_PI), dims, (0, 1))

    meas = []
    for k in range(3):
        m = np.zeros((3, 3), dtype=complex)
        m[0, k] = 1.0
        meas.append(embed_operator(m, dims, (2,)))

    psi0 = np.kron(
        np.kron(
            prepared_qubit_ket(config.theta_a, config.phi_a),
            prepared_qubit_ket(config.theta_b, config.phi_b),
        ),
        rail_ket(0, 0),
    )
    weights1 = [config.round1.p_dark, config.round1.p_real, config.round1.p_real]
    weights2 = [config.round2.p_dark, config.round2.p_real, config.round2.p_real]

    psi1 = bs @ offset @ emit @ psi0
    p_total = 0.0
    heralded = np.zeros((4, 4), dtype=complex)
    for k1 in range(3):
        branch1 = meas[k1] @ psi1
        branch2_in = bs @ emit @ pi2 @ branch1
        for k2 in range(3):
            out = meas[k2] @ branch2_in
            w = weights1[k1] * weights2[k2]
            p_total += w * np.real(out.conj() @ out)
            # trace rails of |out><out| by summing rail blocks
            blocks = out.reshape(4, 9)
            heralded += w * (blocks @ blocks.conj().T)
    return p_total, heralded / np.trace(heralded)


class TestRunTwoRounds:
    def test_ideal_heralded_state_is_odd_bell(self):
        table = run_two_rounds(ideal_config())
        state = table.state(True, True)
        assert np.isclose(state_fidelity(state, bell_odd_plus()), 1.0, atol=1e-10)

    def test_ideal_success_probability_exact(self):
        table = run_two_rounds(ideal_config())
        assert np.isclose(table.probability(True, True), 0.125, atol=1e-12)

    def test_against_brute_force_enumeration(self):
        for cfg in (
            ideal_config(),
            measured_config(),
            measured_config(theta_a=1.1, theta_b=2.0, phi_b=0.7, phi_off=0.4),
        ):
            p_oracle, rho_oracle = brute_force_click_click(cfg)
            table = run_two_rounds(cfg)
            assert np.isclose(table.probability(True, True), p_oracle, atol=1e-12)
            assert np.max(
                np.abs(table.state(True, True).matrix - rho_oracle)
            ) < 1e-11

    def test_branch_probabilities_sum_to_one(self):
        for cfg in (
            ideal_config(),
            measured_config(),
            ProtocolConfig(),
            ProtocolConfig(eta_loss=0.4),
            measured_config(theta_a=0.3, phi_b=1.2),
        ):
            table = run_two_rounds(cfg)
            total = sum(b.probability for b in table.branches.values())
            assert np.isclose(total, 1.0, atol=1e-9)

    def test_branch_sum_guard_fires(self, monkeypatch, capsys):
        # a detector that loses half of every no-click branch's weight; both
        # rounds detect through detector.branch_levels
        rounds = []

        def leaky(levels, params):
            rounds.append(len(params))
            click, noclick = branch_levels(levels, params)
            return click, 0.5 * noclick

        monkeypatch.setattr(detector, "branch_levels", leaky)
        with pytest.raises(ValidationError, match=r"^branch probabilities sum to 0\.\d+, not 1$"):
            run_two_rounds(ProtocolConfig())
        assert rounds == [1, 2]  # round 1, then round 2 after each round-1 branch
        assert cli.main(["protocol", "--analytic"]) == cli.EXIT_NUMERICAL == 3
        assert "numerical error: branch probabilities sum to" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ((0.5, -0.3, 0.8, 0.0), r"^branch \(True, False\) probability -0\.3 is not in \[0, 1\]$"),
            ((np.nan, 0.5, 0.5, 0.0), r"^branch \(True, True\) probability nan is not in \[0, 1\]$"),
            ((0.5, np.inf, 0.0, 0.0), r"probability inf is not in"),
            ((1.0 + 2e-9, 0.0, 0.0, 0.0), r"probability 1\.000000002 is not in"),
            ((0.5, 0.5, 0.5, 0.0), r"^branch probabilities sum to 1\.5, not 1$"),
            ((0.5, 0.25, 0.125, 0.0), r"^branch probabilities sum to 0\.875, not 1$"),
        ],
        ids=["negative", "nan", "inf", "above-one", "sum-above", "sum-below"],
    )
    def test_outcome_table_checks_its_distribution(self, probabilities, message):
        # a hand-built table is checked as run_two_rounds' output is
        keys = ((True, True), (True, False), (False, True), (False, False))
        branches = {k: Branch(p, None) for k, p in zip(keys, probabilities)}
        with pytest.raises(ValidationError, match=message):
            OutcomeTable(branches)

    @pytest.mark.parametrize("extra", [False, True], ids=["three-keys", "five-keys"])
    def test_outcome_table_has_the_four_branches(self, extra):
        branches = {(True, True): Branch(1.0, None), (True, False): Branch(0.0, None),
                    (False, True): Branch(0.0, None)}
        if extra:
            branches.update({(False, False): Branch(0.0, None), (True, None): Branch(0.0, None)})
        with pytest.raises(ValidationError, match="exactly the four"):
            OutcomeTable(branches)

    def test_outcome_table_admits_rounding_within_budget(self):
        # what a propagated table may carry
        state = DensityMatrix.from_ket(bell_odd_plus())
        branches = {(True, True): Branch(1.0 + 5e-10, state), (True, False): Branch(0.0, None),
                    (False, True): Branch(0.0, None), (False, False): Branch(EMPTY_BRANCH_TOL, None)}
        assert OutcomeTable(branches).probability(True, True) == 1.0 + 5e-10

    def test_outcome_table_wants_a_state_above_the_empty_budget(self):
        # without the rule, sample_shots recorded outcome GG for every shot
        # of these two stateless branches
        branches = {(True, True): Branch(0.5, None), (True, False): Branch(0.5, None),
                    (False, True): Branch(0.0, None), (False, False): Branch(0.0, None)}
        with pytest.raises(ValidationError, match=r"^branch \(True, True\) probability 0\.5 has no state$"):
            OutcomeTable(branches)

    def test_alice_in_ground_gives_separable_eg(self):
        table = run_two_rounds(ideal_config(theta_a=0.0))
        state = table.state(True, True)
        pauli = pauli_decompose(state)
        assert pauli.component("ZZ") < 0.0
        for label in ("XX", "XY", "YX", "YY"):
            assert abs(pauli.component(label)) < 1e-10
        assert np.isclose(state_fidelity(state, two_qubit_ket("eg")), 1.0, atol=1e-10)

    def test_dead_branches_reported_absent(self):
        # both qubits in |g>: round 1 never clicks (no photons, no darks);
        # the pi pulses then prepare |ee>, whose two-photon state clicks in
        # round 2 exactly half the time (the other half exits to the load)
        table = run_two_rounds(ideal_config(theta_a=0.0, theta_b=0.0))
        assert table.probability(True, True) == 0.0
        assert table.state(True, True) is None
        assert table.probability(True, False) == 0.0
        assert np.isclose(table.probability(False, True), 0.5, atol=1e-12)
        assert np.isclose(table.probability(False, False), 0.5, atol=1e-12)

    def test_round_one_no_click_branch_has_no_bell_weight(self):
        # a missed detection never fakes the heralded state: with no dark
        # counts the round-1 no-click branch is orthogonal to |O+>
        _, noclick = _round_one([ideal_config()], None)
        # the level-0 entries (q, l, q', l'): the load rail's trace, then the qubits'
        reduced = np.trace(noclick[0], axis1=1, axis2=3)
        reduced = reduced / np.trace(reduced).real
        overlap = np.real(bell_odd_plus().conj() @ reduced @ bell_odd_plus())
        assert abs(overlap) < 1e-12


# the benchmark's seven 25-point sweep ranges (angles in rad, t_seq in us)
SWEEP_RANGES = {
    "theta_a": (0.0, 3.1416),
    "phi_a": (0.0, 6.2832),
    "theta_b": (0.0, 3.1416),
    "phi_b": (0.0, 6.2832),
    "phi_off": (0.0, 6.2832),
    "eta_loss": (0.05, 1.0),
    "t_seq": (0.5, 5.0),
}


def random_configs(n, seed):
    """Seeded configs over every field the engine reads; about a third of
    the click weights and of the transmissivities are exactly 0 or 1."""
    rng = np.random.default_rng(seed)

    def unit():
        return float(rng.choice([0.0, 1.0])) if rng.random() < 0.3 else float(rng.random())

    return [
        ProtocolConfig(
            theta_a=rng.uniform(0.0, np.pi), phi_a=rng.uniform(-7.0, 7.0),
            theta_b=rng.uniform(0.0, np.pi), phi_b=rng.uniform(-7.0, 7.0),
            phi_off=rng.uniform(-7.0, 7.0), eta_loss=unit(), t_seq=rng.uniform(0.1, 20.0),
            t2e_a=rng.uniform(1.0, 50.0), t2e_b=rng.uniform(1.0, 50.0),
            round1=DetectorRoundParams(unit(), unit()), round2=DetectorRoundParams(unit(), unit()),
        )
        for _ in range(n)
    ]


def assert_point_is_oracle(point, config):
    """A sweep point has the bits of the dense oracle's click-click branch."""
    branch = dense_two_rounds(config).branches[(True, True)]
    assert point.probability.hex() == branch.probability.hex()
    if branch.state is None:
        assert point.pauli is None
    else:
        assert point.pauli.components.tobytes() == pauli_decompose(branch.state).components.tobytes()


@pytest.fixture(scope="module")
def random_oracle():
    configs = random_configs(200, seed=30)
    return configs, [dense_two_rounds(cfg) for cfg in configs]


class TestDenseOracle:
    """The stacked engine gives the bits of the dense per-config engine."""

    @pytest.mark.parametrize("eta_loss", [1.0, 0.7, 0.0])
    def test_operating_point(self, eta_loss):
        cfg = ProtocolConfig(eta_loss=eta_loss)
        assert_same_bits(run_two_rounds(cfg), dense_two_rounds(cfg))

    @pytest.mark.parametrize("axis", SWEEPABLE_AXES)
    def test_benchmark_sweeps(self, axis):
        values = np.linspace(*SWEEP_RANGES[axis], 25)
        points = sweep_preparation(ProtocolConfig(), axis, values)
        assert len(points) == 25
        for v, point in zip(values, points):
            assert point.value == float(v)
            assert_point_is_oracle(point, replace(ProtocolConfig(), **{axis: float(v)}))

    def test_round_one_is_oracle(self, random_oracle):
        # round 1 alone, sign bits included: the operating point at three
        # transmissivities, then the random configs as one stack; the level-0
        # entries are the oracle's (0, 0) detector block, and the oracle is
        # +0.0 everywhere else
        def assert_round_one_is_oracle(configs):
            branches = _round_one(configs, _losses(configs))
            for s, cfg in enumerate(configs):
                want = dense_round(initial_matrix(cfg), cfg, first_round=True)
                for got, ref in zip(branches, want):
                    ref = ref.reshape((4, N_MAX + 1, N_MAX + 1) * 2)
                    assert got[s].tobytes() == ref[:, 0, :, :, 0, :].tobytes()
                    ref[:, 0, :, :, 0, :] = 0.0
                    assert ref.tobytes() == np.zeros_like(ref).tobytes()

        for eta_loss in (1.0, 0.7, 0.0):
            assert_round_one_is_oracle([ProtocolConfig(eta_loss=eta_loss)])
        assert_round_one_is_oracle(random_oracle[0])

    def test_random_configs_one_at_a_time(self, random_oracle):
        for cfg, expected in zip(*random_oracle):
            assert_same_bits(run_two_rounds(cfg), expected)

    def test_random_configs_as_one_stack(self, random_oracle):
        configs, expected = random_oracle
        tables = _run_stack(configs)
        assert len(tables) == len(configs)
        for table, want in zip(tables, expected):
            assert_same_bits(table, want)

    def test_random_configs_cover_the_edges(self, random_oracle):
        configs, expected = random_oracle
        weights = [w for c in configs for r in (c.round1, c.round2) for w in (r.p_dark, r.p_real)]
        assert {0.0, 1.0} <= set(weights)
        assert {0.0, 1.0} <= {c.eta_loss for c in configs}
        assert any(b.state is None for t in expected for b in t.branches.values())


class TestDarkCountEquivalence:
    GRID = (0.0, 0.005, 0.05, 0.2, 1.0)

    def test_closed_form_equals_propagation(self):
        worst = 0.0
        for p_dark in self.GRID:
            for p_real in self.GRID:
                if p_dark == 0.0 and p_real == 0.0:
                    continue
                cfg = ideal_config(
                    round1=DetectorRoundParams(p_dark, p_real),
                    round2=DetectorRoundParams(p_dark, p_real),
                )
                table = run_two_rounds(cfg)
                f_prop = state_fidelity(table.state(True, True), bell_odd_plus())
                f_closed = dark_count_fidelity(cfg.round1, cfg.round2)
                worst = max(worst, abs(f_prop - f_closed))
        assert worst < 1e-9

    def test_asymmetric_rounds_also_match(self):
        cfg = ideal_config(
            round1=DetectorRoundParams(0.006, 0.21),
            round2=DetectorRoundParams(0.005, 0.26),
        )
        table = run_two_rounds(cfg)
        f_prop = state_fidelity(table.state(True, True), bell_odd_plus())
        assert abs(f_prop - dark_count_fidelity(cfg.round1, cfg.round2)) < 1e-9


class TestLossRobustness:
    def test_loss_changes_rate_not_fidelity(self):
        cfg = measured_config(
            round1=DetectorRoundParams(0.0, 0.21),
            round2=DetectorRoundParams(0.0, 0.26),
        )
        probs, fids = [], []
        for eta in (1.0, 0.7, 0.4, 0.1):
            table = run_two_rounds(replace(cfg, eta_loss=eta))
            probs.append(table.probability(True, True))
            fids.append(state_fidelity(table.state(True, True), bell_odd_plus()))
        assert np.all(np.diff(probs) < 0.0)
        assert np.max(np.abs(np.array(fids) - 1.0)) < 1e-9


class TestRoundOneClickWeights:
    def test_ideal_detector_weights(self):
        w = round_one_click_weights(ideal_config())
        assert np.isclose(w["odd_plus"], 2.0 / 3.0, atol=1e-10)
        assert np.isclose(w["ee"], 1.0 / 3.0, atol=1e-10)
        assert abs(w["gg"]) < 1e-10
        assert abs(w["odd_minus"]) < 1e-10

    def test_measured_operating_point(self):
        w = round_one_click_weights(measured_config())
        assert abs(w["odd_plus"] - 0.635) < 0.01
        assert abs(w["ee"] - 0.327) < 0.01
        assert abs(w["gg"] - 0.019) < 0.01
        assert abs(w["odd_minus"] - 0.019) < 0.01

    def test_dark_clicks_only(self):
        # with p_real = 0 a click is always spurious; the heralded mixture
        # keeps every protocol branch whose detector rail is empty: the
        # vacuum branch, the odd Bell branch routed to the load rail, and
        # half the two-photon branch
        w = round_one_click_weights(
            measured_config(round1=DetectorRoundParams(0.05, 0.0))
        )
        assert abs(w["odd_plus"]) < 1e-10
        assert np.isclose(w["gg"], 0.4, atol=1e-10)
        assert np.isclose(w["odd_minus"], 0.4, atol=1e-10)
        assert np.isclose(w["ee"], 0.2, atol=1e-10)


class TestControlRun:
    def test_equatorial_zz_vanishes(self):
        ctrl = run_control(ProtocolConfig(phi_b=np.pi / 2, phi_a=np.pi / 4))
        pauli = pauli_decompose(ctrl)
        assert abs(pauli.component("ZZ")) < 1e-10

    def test_separable_output(self):
        ctrl = run_control(ProtocolConfig())
        assert concurrence(ctrl) < 1e-9

    def test_theta_sweep_structure(self):
        # Alice azimuth pi/4, Bob on the +Y axis: among the displayed
        # correlators only YY and XY vary with theta
        thetas = np.linspace(0.0, np.pi, 7)
        varying, flat = [], []
        for th in thetas:
            ctrl = run_control(
                ProtocolConfig(theta_a=th, phi_a=np.pi / 4, phi_b=np.pi / 2)
            )
            pauli = pauli_decompose(ctrl)
            varying.append((pauli.component("YY"), pauli.component("XY")))
            flat.append(
                (
                    pauli.component("XX"),
                    pauli.component("YX"),
                    pauli.component("ZZ"),
                )
            )
        varying = np.array(varying)
        flat = np.array(flat)
        assert np.ptp(varying[:, 0]) > 0.3
        assert np.ptp(varying[:, 1]) > 0.3
        # both peak at the equator
        assert np.argmax(np.abs(varying[:, 0])) == 3
        assert np.argmax(np.abs(varying[:, 1])) == 3
        assert np.max(np.abs(flat)) < 1e-10

    def test_bob_components_theta_independent(self):
        vals = []
        for th in (0.2, 1.0, 2.4):
            ctrl = run_control(ProtocolConfig(theta_a=th, phi_b=np.pi / 2))
            pauli = pauli_decompose(ctrl)
            vals.append([pauli.component("I" + p) for p in "XYZ"])
        vals = np.array(vals)
        assert np.max(np.abs(vals - vals[0])) < 1e-12


class TestSuccessRate:
    def test_quoted_operating_point(self):
        rate = success_rate(ProtocolConfig(), p_click1=0.08, p_click2=0.09)
        assert np.isclose(rate.p_success, 0.57 * 0.08 * 0.09, atol=1e-12)
        assert abs(rate.rate_per_s - 195.0) < 5.0

    def test_unit_probabilities(self):
        rate = success_rate(ProtocolConfig(p_init=1.0), p_click1=1.0, p_click2=1.0)
        assert np.isclose(rate.rate_per_s, 1.0 / 21e-6)

    def test_zero_factor_kills_rate(self):
        cfg = ProtocolConfig(p_init=0.0)
        rate = success_rate(cfg, *click_probabilities(run_two_rounds(cfg)))
        assert rate.rate_per_s == 0.0

    def test_model_click_probabilities(self):
        cfg = ProtocolConfig()
        rate = success_rate(cfg, *click_probabilities(run_two_rounds(cfg)))
        assert abs(rate.p_click1 - 0.08) < 0.01
        assert abs(rate.p_click2_given_click1 - 0.09) < 0.01
        assert abs(rate.rate_per_s - 200.0) < 20.0

    def test_defaults_read_off_the_table(self):
        # the model's click probabilities, the ones the CLI passes
        cfg = ProtocolConfig(p_init=0.8)
        table = run_two_rounds(cfg)
        p1, p2 = click_probabilities(table)
        assert p1 == table.probability(True, True) + table.probability(True, False)
        assert p2 == table.probability(True, True) / p1
        rate = success_rate(cfg, p1, p2)
        assert (rate.p_click1, rate.p_click2_given_click1) == (p1, p2)
        assert rate.p_success == 0.8 * p1 * p2

    def test_no_round_one_click(self):
        cfg = ProtocolConfig(
            round1=DetectorRoundParams(0.0, 0.0), round2=DetectorRoundParams(0.0, 1.0)
        )
        assert click_probabilities(run_two_rounds(cfg)) == (0.0, 0.0)

    @pytest.mark.parametrize("bad", [2.0, -0.1, np.nan])
    @pytest.mark.parametrize("name", ["p_click1", "p_click2"])
    def test_impossible_click_probability_rejected(self, name, bad):
        clicks = {"p_click1": 0.08, "p_click2": 0.09, name: bad}
        with pytest.raises(ValidationError, match=rf"^{name}=.* is not a probability"):
            success_rate(ProtocolConfig(), **clicks)

    def test_always_click_rounds_run(self):
        # p_click1 is 1 up to rounding: 1 + 6.7e-16 with OpenBLAS's SkylakeX
        # kernel, which BRANCH_SUM_TOL admits
        always = DetectorRoundParams(1.0, 1.0)
        cfg = ProtocolConfig(
            theta_a=2.2255631623858148, phi_a=4.795178278296689, theta_b=2.479202368378504,
            phi_b=1.9337203484389907, phi_off=4.779835096476328, eta_loss=0.22532844187566514,
            round1=always, round2=always,
        )
        p1, p2 = click_probabilities(run_two_rounds(cfg))
        assert success_rate(cfg, p1, p2).p_success == cfg.p_init * p1 * p2


class TestSweep:
    def test_phase_sweep_matches_closed_form(self):
        # oracle: the heralded state at Bob phase phi is the odd Bell state
        # with relative phase (phi + phi_off); components follow its exact
        # decomposition
        cfg = ideal_config(phi_off=0.3)
        values = np.linspace(-np.pi, np.pi, 9)
        points = sweep_preparation(cfg, "phi_b", values)
        for v, pt in zip(values, points):
            ket = (
                two_qubit_ket("ge") + np.exp(1j * (v + 0.3)) * two_qubit_ket("eg")
            ) / np.sqrt(2)
            expected = pauli_decompose(DensityMatrix.from_ket(ket))
            assert np.max(
                np.abs(pt.pauli.components - expected.components)
            ) < 1e-10

    def test_phase_sweep_zz_constant_negative(self):
        points = sweep_preparation(
            ProtocolConfig(), "phi_b", np.linspace(0.0, 2 * np.pi, 7)
        )
        zz = [pt.pauli.component("ZZ") for pt in points]
        assert np.max(np.abs(np.diff(zz))) < 1e-10
        assert all(v < -0.5 for v in zz)

    def test_entanglement_maximized_at_equator(self):
        values = [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi]
        points = sweep_preparation(ideal_config(), "theta_a", values)
        concs = []
        for pt in points:
            from heraldsim.qmath import pauli_reconstruct

            mat = pauli_reconstruct(pt.pauli)
            concs.append(concurrence(DensityMatrix(mat)))
        assert np.argmax(concs) == 2
        assert concs[0] < 1e-9 and concs[-1] < 1e-9

    def test_sweep_runs_in_bounded_stacks(self, monkeypatch):
        run_stack = protocol._run_stack
        stacks = []

        def spy(configs):
            stacks.append(len(configs))
            return run_stack(configs)

        monkeypatch.setattr(protocol, "_run_stack", spy)
        cfg = ProtocolConfig()
        values = np.linspace(0.0, np.pi, 100)
        points = sweep_preparation(cfg, "theta_a", values)
        assert sum(stacks) == 100 and max(stacks) == _STACK
        for v, point in zip(values, points):
            assert_point_is_oracle(point, replace(cfg, theta_a=float(v)))
        stacks.clear()
        assert sweep_preparation(cfg, "theta_a", []) == []
        assert stacks == []

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            sweep_preparation(ProtocolConfig(), "bananas", [0.0])


class TestConfigValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(t_seq=-1.0)

    @pytest.mark.parametrize("t2e_b", [16.0, INF])
    def test_infinite_sequence_time_rejected(self, t2e_b):
        # with an infinite T2E too, the dephasing factor exp(-inf / inf) is NaN
        with pytest.raises(ValidationError, match=r"^t_seq must be finite, got inf$"):
            ProtocolConfig(t_seq=INF, t2e_b=t2e_b)

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(p_init=1.5)
