"""Two-round protocol engine: written-state checks, branch bookkeeping,
oracle equivalences, control runs and sweeps."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from heraldsim import cli, protocol, qmath
from heraldsim.detector import DetectorRoundParams, branch_matrices, dark_count_fidelity
from heraldsim.photonics import beam_splitter_unitary, emission_unitary
from heraldsim.protocol import (
    DIMS,
    N_MAX,
    ProtocolConfig,
    RY_PI,
    _Engine,
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


def ideal_entangled_matrix():
    """Joint state after both equatorial qubits emit, before the splitter."""
    eng = _Engine(ideal_config())
    return conjugate(eng.u_emit, eng.initial_matrix())


def ideal_interfered_matrix():
    """The same state after the engine's beam splitter."""
    return conjugate(_Engine(ideal_config()).u_bs, ideal_entangled_matrix())


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
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        out = apply_phase_damping(rho, 0.0, 10.0, 16.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_long_time_kills_coherence(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        out = apply_phase_damping(rho, 1e6, 10.0, 16.0)
        off = out.matrix - np.diag(np.diag(out.matrix))
        assert np.max(np.abs(off)) < 1e-12

    def test_diagonal_unchanged(self):
        rng = np.random.default_rng(3)
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = g @ g.conj().T
        rho = DensityMatrix((2, 2), m / np.trace(m))
        out = apply_phase_damping(rho, 2.5, 10.0, 16.0)
        assert np.allclose(np.diag(out.matrix), np.diag(rho.matrix), atol=1e-12)

    def test_bell_fidelity_after_damping(self):
        # oracle: direct Kraus application built inline
        t, ta, tb = 2.5, 10.0, 16.0
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
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
            (np.nan, 10.0, 16.0),
            (2.5, np.nan, 16.0),
            (2.5, 10.0, np.nan),
        ],
    )
    def test_rejected(self, duration, t2e_a, t2e_b):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning on the way
            with pytest.raises(ValidationError, match="phase damping"):
                apply_phase_damping(rho, duration, t2e_a, t2e_b)

    @pytest.mark.parametrize("t2e", [1e300, INF])
    def test_infinite_coherence_time_is_no_dephasing(self, t2e):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        out = apply_phase_damping(rho, 2.5, t2e, t2e)
        assert np.array_equal(out.matrix, apply_phase_damping(rho, 0.0, 10.0, 16.0).matrix)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-15)


class TestOperatorCache:
    """The unitaries of the one protocol space are built once and shared."""

    def test_cached_unitaries_are_read_only(self):
        for op in _unitaries():
            with pytest.raises(ValueError):
                op[0, 0] = 2.0

    def test_configs_with_same_n_max_share_arrays(self):
        a = _Engine(ProtocolConfig(theta_a=0.3, eta_loss=0.5))
        b = _Engine(measured_config(phi_off=1.1))
        for name in ("u_emit", "u_bs", "u_pi"):
            assert getattr(a, name) is getattr(b, name)
        assert all(x is y for x, y in zip((a.u_emit, a.u_bs, a.u_pi), _unitaries()))


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
        partial_trace = qmath.partial_trace_matrix
        at_splitter, final = [], []

        def spy_kraus(mat, ops):
            if ops[0] is u_bs:
                at_splitter.append(mat)
            return qmath.apply_kraus_matrix(mat, ops)

        def spy_trace(mat, dims, keep):
            final.append(mat)
            return partial_trace(mat, dims, keep)

        monkeypatch.setattr(protocol, "apply_kraus_matrix", spy_kraus)
        monkeypatch.setattr(qmath, "partial_trace_matrix", spy_trace)
        cfg = ProtocolConfig(theta_a=1.1, theta_b=2.0, phi_a=0.4, eta_loss=eta_loss)
        table = run_two_rounds(cfg)
        # round 1, then round 2 after each round-1 branch
        assert len(at_splitter) == 3
        assert len(final) == sum(b.state is not None for b in table.branches.values())
        for mat in at_splitter + final:
            assert np.all(mat[_OVER_BOUND, :] == 0.0)
            assert np.all(mat[:, _OVER_BOUND] == 0.0)

    def test_splitter_block_is_truncation_independent(self):
        def low_block(d):
            n_det, n_load = np.divmod(np.arange(d * d), d)
            keep = n_det + n_load <= N_MAX
            return beam_splitter_unitary(d)[np.ix_(keep, keep)]

        assert np.max(np.abs(low_block(N_MAX + 1) - low_block(N_MAX + 2))) <= 1e-15


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
    bs = embed_operator(beam_splitter_unitary(3), dims, (2, 3))
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
        # a detector that loses half of every no-click branch's weight
        def leaky(mat, dims, rail, params):
            click, noclick = branch_matrices(mat, dims, rail, params)
            return click, 0.5 * noclick

        monkeypatch.setattr("heraldsim.protocol.branch_matrices", leaky)
        with pytest.raises(ValidationError, match=r"^branch probabilities sum to 0\.\d+, not 1$"):
            run_two_rounds(ProtocolConfig())
        assert cli.main(["protocol", "--analytic"]) == cli.EXIT_NUMERICAL == 3
        assert "numerical error: branch probabilities sum to" in capsys.readouterr().err

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
        cfg = ideal_config()
        eng = _Engine(cfg)
        _, noclick = eng.emit_and_detect(eng.initial_matrix(), first_round=True)
        p = np.trace(noclick).real
        reduced = partial_trace_matrix(noclick / p, DIMS, (0, 1))
        overlap = np.real(bell_odd_plus().conj() @ reduced @ bell_odd_plus())
        assert abs(overlap) < 1e-12


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
            expected = pauli_decompose(DensityMatrix.from_ket(ket, dims=(2, 2)))
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
            concs.append(concurrence(DensityMatrix((2, 2), mat)))
        assert np.argmax(concs) == 2
        assert concs[0] < 1e-9 and concs[-1] < 1e-9

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            sweep_preparation(ProtocolConfig(), "bananas", [0.0])


class TestConfigValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(t_seq=-1.0)

    def test_probability_range(self):
        with pytest.raises(ValidationError):
            ProtocolConfig(p_init=1.5)
