"""Beam splitter, qubit-photon emission and loss channel."""

import numpy as np
import pytest

from heraldsim.photonics import (
    FockSpaceSpec,
    annihilation,
    beam_splitter_unitary,
    emission_unitary,
    loss_channel,
    loss_kraus,
)
from heraldsim.protocol import ProtocolConfig, _Engine
from heraldsim.qmath import DensityMatrix, ValidationError, basis_ket


def rail_ket(n, m, dim=3):
    return np.kron(basis_ket(dim, n), basis_ket(dim, m))


def number_op(dim):
    return np.diag(np.arange(dim, dtype=complex))


@pytest.fixture
def spec():
    return FockSpaceSpec()


@pytest.fixture
def u_emit():
    # the engine's emission on (qubit A, qubit B, detector rail, load rail);
    # qubit B emits into the detector rail
    return _Engine(ProtocolConfig()).u_emit


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
    def test_vacuum_invariant(self, spec):
        u = beam_splitter_unitary(spec)
        assert np.allclose(u @ rail_ket(0, 0), rail_ket(0, 0), atol=1e-12)

    def test_odd_photon_states_route_to_single_rails(self, spec):
        u = beam_splitter_unitary(spec)
        o_plus = (rail_ket(1, 0) + rail_ket(0, 1)) / np.sqrt(2)
        o_minus = (rail_ket(1, 0) - rail_ket(0, 1)) / np.sqrt(2)
        # first rail up to global phase, second rail up to global phase
        assert np.isclose(abs(rail_ket(1, 0) @ u @ o_plus), 1.0, atol=1e-10)
        assert np.isclose(abs(rail_ket(0, 1) @ u @ o_minus), 1.0, atol=1e-10)

    def test_two_photon_interference(self, spec):
        u = beam_splitter_unitary(spec)
        out = u @ rail_ket(1, 1)
        assert abs(rail_ket(1, 1) @ out) ** 2 < 1e-12
        # all weight in the two-photon single-rail pair
        w = abs(rail_ket(2, 0) @ out) ** 2 + abs(rail_ket(0, 2) @ out) ** 2
        assert np.isclose(w, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_unitary_and_number_conserving(self, n_max):
        spec = FockSpaceSpec(n_max=n_max)
        u = beam_splitter_unitary(spec)
        d = spec.rail_dim
        eye = np.eye(d * d)
        assert np.max(np.abs(u.conj().T @ u - eye)) < 1e-10
        n_total = np.kron(number_op(d), np.eye(d)) + np.kron(np.eye(d), number_op(d))
        assert np.max(np.abs(u @ n_total - n_total @ u)) < 1e-10

    def test_truncation_too_small_rejected(self):
        with pytest.raises(ValidationError):
            FockSpaceSpec(n_max=1)


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

    def test_emission_unitary_is_unitary(self, spec):
        u = emission_unitary(spec)
        assert np.max(np.abs(u.conj().T @ u - np.eye(6))) < 1e-14


class TestLossChannel:
    def make_rail_state(self, pops):
        return DensityMatrix((3,), np.diag(pops).astype(complex))

    def test_eta_one_is_identity(self):
        rho = self.make_rail_state([0.2, 0.5, 0.3])
        out = loss_channel(rho, rail=0, eta=1.0)
        assert np.allclose(out.matrix, rho.matrix, atol=1e-14)

    def test_eta_zero_forces_vacuum(self):
        rho = self.make_rail_state([0.2, 0.5, 0.3])
        out = loss_channel(rho, rail=0, eta=0.0)
        assert np.allclose(out.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_single_photon_split(self):
        # oracle: explicit Kraus sum evaluated by hand for a one-photon state
        rho = self.make_rail_state([0.0, 1.0, 0.0])
        out = loss_channel(rho, rail=0, eta=0.4)
        assert np.allclose(out.matrix, np.diag([0.6, 0.4, 0.0]), atol=1e-12)

    def test_kraus_completeness(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            ops = loss_kraus(FockSpaceSpec(n_max=3), eta)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_mean_photon_number_scales_by_eta(self):
        rho = self.make_rail_state([0.1, 0.3, 0.6])
        n_op = number_op(3)
        for eta in (0.25, 0.5, 0.9):
            out = loss_channel(rho, rail=0, eta=eta)
            assert np.isclose(
                out.expectation(n_op), eta * rho.expectation(n_op), atol=1e-12
            )

    def test_embedded_on_second_rail(self):
        a = self.make_rail_state([0.0, 1.0, 0.0])
        b = self.make_rail_state([0.0, 0.0, 1.0])
        joint = DensityMatrix((3, 3), np.kron(a.matrix, b.matrix))
        out = loss_channel(joint, rail=1, eta=0.5)
        # rail 0 untouched, rail 1 binomially degraded
        reduced0 = np.einsum("abcb->ac", out.matrix.reshape(3, 3, 3, 3))
        assert np.allclose(reduced0, a.matrix, atol=1e-12)

    def test_eta_out_of_range(self):
        rho = self.make_rail_state([1.0, 0.0, 0.0])
        with pytest.raises(ValidationError):
            loss_channel(rho, rail=0, eta=1.5)

    def test_annihilation_matrix(self):
        a = annihilation(3)
        assert np.allclose(a @ basis_ket(3, 2), np.sqrt(2) * basis_ket(3, 1))
