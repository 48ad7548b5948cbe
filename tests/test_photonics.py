"""Beam splitter, qubit-photon emission and loss channel.

Loss is checked on the route the protocol engine runs: `loss_kraus`,
embedded by `embed_operator`, applied by `apply_kraus_matrix`.
"""

import numpy as np
import pytest

from heraldsim.photonics import annihilation, beam_splitter_unitary, emission_unitary, loss_kraus
from heraldsim.protocol import RAIL_DET, ProtocolConfig, _Engine
from heraldsim.qmath import ValidationError, apply_kraus_matrix, basis_ket, embed_operator


def rail_ket(n, m, dim=3):
    return np.kron(basis_ket(dim, n), basis_ket(dim, m))


def number_op(dim):
    return np.diag(np.arange(dim, dtype=complex))


@pytest.fixture
def u_emit():
    # the engine's emission on (qubit A, qubit B, detector rail, load rail);
    # qubit B emits into the detector rail
    return _Engine(ProtocolConfig()).u_emit


def lose(mat, dims, rail, eta):
    """Pure loss on `rail` of a bare matrix, as `_Engine` applies it."""
    ops = [embed_operator(k, dims, (rail,)) for k in loss_kraus(dims[rail], eta)]
    return apply_kraus_matrix(mat, ops)


def emitted(u_emit, qubit_b):
    """Joint matrix after emission from vacuum rails, qubit A in |g>."""
    mat = np.kron(
        np.kron(np.diag([1.0, 0.0]), qubit_b), np.outer(rail_ket(0, 0), rail_ket(0, 0))
    )
    return u_emit @ mat @ u_emit.conj().T


def b_ket(q, n):
    """|g>_A |q>_B |n>_det |0>_load."""
    return np.kron(np.kron(basis_ket(2, 0), basis_ket(2, q)), rail_ket(n, 0))


class TestBeamSplitter:
    def test_vacuum_invariant(self):
        u = beam_splitter_unitary(3)
        assert np.allclose(u @ rail_ket(0, 0), rail_ket(0, 0), atol=1e-12)

    def test_odd_photon_states_route_to_single_rails(self):
        u = beam_splitter_unitary(3)
        o_plus = (rail_ket(1, 0) + rail_ket(0, 1)) / np.sqrt(2)
        o_minus = (rail_ket(1, 0) - rail_ket(0, 1)) / np.sqrt(2)
        # first rail up to global phase, second rail up to global phase
        assert np.isclose(abs(rail_ket(1, 0) @ u @ o_plus), 1.0, atol=1e-10)
        assert np.isclose(abs(rail_ket(0, 1) @ u @ o_minus), 1.0, atol=1e-10)

    def test_two_photon_interference(self):
        u = beam_splitter_unitary(3)
        out = u @ rail_ket(1, 1)
        assert abs(rail_ket(1, 1) @ out) ** 2 < 1e-12
        # all weight in the two-photon single-rail pair
        w = abs(rail_ket(2, 0) @ out) ** 2 + abs(rail_ket(0, 2) @ out) ** 2
        assert np.isclose(w, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_unitary_and_number_conserving(self, n_max):
        d = n_max + 1
        u = beam_splitter_unitary(d)
        eye = np.eye(d * d)
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10
        n_total = np.kron(number_op(d), np.eye(d)) + np.kron(np.eye(d), number_op(d))
        assert np.max(np.abs(u @ n_total - n_total @ u)) < 1e-10


class TestEmission:
    def test_ground_state_stays(self, u_emit):
        joint = emitted(u_emit, np.diag([1.0, 0.0]))
        expected = b_ket(0, 0)
        assert np.isclose(np.real(expected.conj() @ joint @ expected), 1.0, atol=1e-12)

    def test_plus_state_maps_to_g0_plus_e1(self, u_emit):
        ket = np.array([1.0, 1.0]) / np.sqrt(2)
        joint = emitted(u_emit, np.outer(ket, ket.conj()))
        expected = (b_ket(0, 0) + b_ket(1, 1)) / np.sqrt(2)
        assert np.isclose(np.real(expected.conj() @ joint @ expected), 1.0, atol=1e-12)

    def test_phase_lands_on_coherence(self, u_emit):
        # oracle: direct matrix construction of |psi><psi| for the mapped ket
        phi = np.pi / 3
        ket = np.array([1.0, np.exp(1j * phi)]) / np.sqrt(2)
        joint = emitted(u_emit, np.outer(ket, ket.conj()))
        got = b_ket(0, 0).conj() @ joint @ b_ket(1, 1)
        assert np.isclose(got, np.exp(-1j * phi) / 2, atol=1e-12)

    def test_purity_preserved(self, u_emit):
        ket = np.array([0.6, 0.8j])
        joint = emitted(u_emit, np.outer(ket, ket.conj()))
        assert np.isclose(np.trace(joint @ joint).real, 1.0, atol=1e-12)

    def test_vacuum_joint_input_accepted(self, u_emit):
        # a mixed qubit emits its excited population into the empty rail
        joint = emitted(u_emit, np.diag([0.5, 0.5]))
        assert np.isclose(np.real(b_ket(1, 1) @ joint @ b_ket(1, 1)), 0.5, atol=1e-12)

    def test_emission_unitary_is_unitary(self):
        u = emission_unitary(3)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-14


class TestLossChannel:
    def test_eta_one_is_identity(self):
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 1.0), rho, atol=1e-14)

    def test_eta_zero_forces_vacuum(self):
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 0.0), np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_single_photon_split(self):
        # oracle: explicit Kraus sum evaluated by hand for a one-photon state
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 0.4), np.diag([0.6, 0.4, 0.0]), atol=1e-12)

    def test_kraus_completeness(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            ops = loss_kraus(4, eta)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_mean_photon_number_scales_by_eta(self):
        rho = np.diag([0.1, 0.3, 0.6]).astype(complex)
        n_op = number_op(3)
        for eta in (0.25, 0.5, 0.9):
            out = lose(rho, (3,), 0, eta)
            assert np.isclose(
                np.trace(n_op @ out).real, eta * np.trace(n_op @ rho).real, atol=1e-12
            )

    def test_embedded_on_second_rail(self):
        a = np.diag([0.0, 1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = lose(np.kron(a, b), (3, 3), 1, 0.5)
        # rail 0 untouched, rail 1 binomially degraded: |2> -> (1/4, 1/2, 1/4)
        reduced0 = np.einsum("abcb->ac", out.reshape(3, 3, 3, 3))
        reduced1 = np.einsum("abad->bd", out.reshape(3, 3, 3, 3))
        assert np.allclose(reduced0, a, atol=1e-12)
        assert np.allclose(reduced1, np.diag([0.25, 0.5, 0.25]), atol=1e-12)

    def test_engine_applies_this_route(self):
        config = ProtocolConfig(eta_loss=0.6)
        ops = [embed_operator(k, config.dims, (RAIL_DET,)) for k in loss_kraus(3, 0.6)]
        engine_ops = _Engine(config).loss
        assert len(engine_ops) == len(ops)
        assert all(np.array_equal(e, k) for e, k in zip(engine_ops, ops))
        assert _Engine(ProtocolConfig()).loss == []

    def test_eta_out_of_range(self):
        with pytest.raises(ValidationError):
            loss_kraus(3, 1.5)

    def test_annihilation_matrix(self):
        a = annihilation(3)
        assert np.allclose(a @ basis_ket(3, 2), np.sqrt(2) * basis_ket(3, 1))
