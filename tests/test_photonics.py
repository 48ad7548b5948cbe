"""Beam splitter, qubit-photon emission and loss channel.

The splitter is a recorded table; `expm_reference` rebuilds it from its
generator with `scipy.linalg.expm` for any rail dimension, as the oracle.
Loss is checked on the kernel both rounds of the protocol engine run:
`loss_kraus` operators applied by `apply_loss_diagonal` on a rail's
(n, n) blocks, which equal those of the embedded Kraus sum bit for bit.
"""

import hashlib

import numpy as np
import pytest
from scipy.linalg import expm
from test_detector import rail_levels, states_with_zeros

from heraldsim.photonics import (
    annihilation,
    apply_loss_diagonal,
    beam_splitter_unitary,
    emission_unitary,
    loss_kraus,
)
from heraldsim.protocol import _unitaries
from heraldsim.qmath import ValidationError, apply_kraus_matrix, basis_ket, embed_operator


# SHA-256 of beam_splitter_unitary().tobytes(), recorded from expm_reference(3)
# before the table replaced expm; the table's bits are the same on every kernel
SPLITTER_SHA256 = "153d78480d7218ad357e7f951e7029d58a845f8b1264a69d71d169c272a85a82"


def expm_reference(d):
    """The splitter for rail dimension d: expm(-3pi/4 (a^dag b - a b^dag))."""
    a = annihilation(d)
    eye = np.eye(d, dtype=complex)
    gen = np.kron(a.conj().T, eye) @ np.kron(eye, a) - np.kron(a, eye) @ np.kron(
        eye, a.conj().T
    )
    return expm(-3.0 * np.pi / 4.0 * gen)


def rail_ket(n, m, dim=3):
    return np.kron(basis_ket(dim, n), basis_ket(dim, m))


def number_op(dim):
    return np.diag(np.arange(dim, dtype=complex))


@pytest.fixture
def u_emit():
    # the engine's emission on (qubit A, qubit B, detector rail, load rail);
    # qubit B emits into the detector rail
    return _unitaries()[0]


def lose(mat, dims, rail, eta):
    """The (n, n) blocks of `rail` after pure loss on a bare matrix, through
    the engine's kernel, stacked on the last axis as `rail_levels` gives them."""
    return apply_loss_diagonal(rail_levels(mat, dims, rail)[None], [loss_kraus(dims[rail], eta)])[0]


def lost_kraus_sum(mat, dims, rail, ops):
    """Reference: sum_k K_k mat K_k^dag with the K_k embedded on `rail`."""
    return apply_kraus_matrix(mat, [embed_operator(k, dims, (rail,)) for k in ops])


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
    def test_recorded_bits(self):
        assert hashlib.sha256(beam_splitter_unitary().tobytes()).hexdigest() == SPLITTER_SHA256

    def test_matches_expm_reference(self):
        assert np.max(np.abs(beam_splitter_unitary() - expm_reference(3))) <= 1e-15

    def test_recorded_splitter_is_unitary(self):
        u = beam_splitter_unitary()
        assert np.max(np.abs(u.conj().T @ u - np.eye(9))) <= 1e-15

    def test_vacuum_invariant(self):
        u = beam_splitter_unitary()
        assert np.allclose(u @ rail_ket(0, 0), rail_ket(0, 0), atol=1e-12)

    def test_odd_photon_states_route_to_single_rails(self):
        u = beam_splitter_unitary()
        o_plus = (rail_ket(1, 0) + rail_ket(0, 1)) / np.sqrt(2)
        o_minus = (rail_ket(1, 0) - rail_ket(0, 1)) / np.sqrt(2)
        # first rail up to global phase, second rail up to global phase
        assert np.isclose(abs(rail_ket(1, 0) @ u @ o_plus), 1.0, atol=1e-10)
        assert np.isclose(abs(rail_ket(0, 1) @ u @ o_minus), 1.0, atol=1e-10)

    def test_two_photon_interference(self):
        u = beam_splitter_unitary()
        out = u @ rail_ket(1, 1)
        assert abs(rail_ket(1, 1) @ out) ** 2 < 1e-12
        # all weight in the two-photon single-rail pair
        w = abs(rail_ket(2, 0) @ out) ** 2 + abs(rail_ket(0, 2) @ out) ** 2
        assert np.isclose(w, 1.0, atol=1e-10)

    @pytest.mark.parametrize("n_max", [2, 3, 4])
    def test_unitary_and_number_conserving(self, n_max):
        d = n_max + 1
        u = expm_reference(d)
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
    """Populations of a rail's levels, the (n, n) blocks the kernel keeps."""

    def test_eta_one_is_identity(self):
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 1.0)[0, 0], [0.2, 0.5, 0.3], atol=1e-14)

    def test_eta_zero_forces_vacuum(self):
        rho = np.diag([0.2, 0.5, 0.3]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 0.0)[0, 0], [1.0, 0.0, 0.0], atol=1e-12)

    def test_single_photon_split(self):
        # oracle: explicit Kraus sum evaluated by hand for a one-photon state
        rho = np.diag([0.0, 1.0, 0.0]).astype(complex)
        assert np.allclose(lose(rho, (3,), 0, 0.4)[0, 0], [0.6, 0.4, 0.0], atol=1e-12)

    def test_kraus_completeness(self):
        for eta in (0.0, 0.3, 0.7, 1.0):
            ops = loss_kraus(4, eta)
            total = sum(k.conj().T @ k for k in ops)
            assert np.max(np.abs(total - np.eye(4))) < 1e-10

    def test_mean_photon_number_scales_by_eta(self):
        rho = np.diag([0.1, 0.3, 0.6]).astype(complex)
        n_op = number_op(3)
        for eta in (0.25, 0.5, 0.9):
            out = lose(rho, (3,), 0, eta)[0, 0]
            assert np.isclose(
                np.diag(n_op) @ out.real, eta * np.trace(n_op @ rho).real, atol=1e-12
            )

    def test_embedded_on_second_rail(self):
        a = np.diag([0.0, 1.0, 0.0]).astype(complex)
        b = np.diag([0.0, 0.0, 1.0]).astype(complex)
        out = lose(np.kron(a, b), (3, 3), 1, 0.5)
        # rail 0 untouched, rail 1 binomially degraded: |2> -> (1/4, 1/2, 1/4)
        assert np.allclose(out.sum(axis=-1), a, atol=1e-12)
        assert np.allclose(np.einsum("aad->d", out), [0.25, 0.5, 0.25], atol=1e-12)

    def test_eta_out_of_range(self):
        with pytest.raises(ValidationError):
            loss_kraus(3, 1.5)

    def test_annihilation_matrix(self):
        a = annihilation(3)
        assert np.allclose(a @ basis_ket(3, 2), np.sqrt(2) * basis_ket(3, 1))


class TestLossKernel:
    """`apply_loss_diagonal` against the embedded Kraus sum: the rail's
    (n, n) blocks bit for bit, sign bits included."""

    @pytest.mark.parametrize("dims", [(2, 2, 3, 3), (2, 2, 4, 4), (3, 2, 4)])
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.6, 0.999])
    def test_matches_kraus_sum_bit_for_bit(self, dims, eta):
        for mat in states_with_zeros(dims, seed=sum(dims)):
            assert np.any(mat == 0.0)
            for rail in range(len(dims)):
                ops = loss_kraus(dims[rail], eta)
                got = apply_loss_diagonal(rail_levels(mat, dims, rail)[None], [ops])[0]
                ref = rail_levels(lost_kraus_sum(mat, dims, rail, ops), dims, rail)
                assert np.array_equal(got, ref)
                for part in (np.real, np.imag):
                    assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))

    def test_stack_matches_its_slices(self):
        # each slice of a stack loses photons with its own transmissivity
        dims = (2, 2, 3, 3)
        mats = states_with_zeros(dims, seed=4) + states_with_zeros(dims, seed=5)
        ops = [loss_kraus(3, eta) for eta in (0.0, 0.3, 1.0, 0.999)]
        got = apply_loss_diagonal(np.stack([rail_levels(m, dims, 2) for m in mats]), ops)
        for s, (mat, kraus) in enumerate(zip(mats, ops)):
            assert got[s].tobytes() == rail_levels(lost_kraus_sum(mat, dims, 2, kraus), dims, 2).tobytes()

    @pytest.mark.parametrize("eta", [0.0, 0.3, 1.0])
    def test_round_two_layout_matches_kraus_sum(self, eta):
        # the rail-diagonal entries (d = d', l = l') that round 2 keeps, in
        # its (slice, q, q', l, d) layout, from those of the input alone
        dims = (2, 2, 3, 3)
        mats = np.stack(states_with_zeros(dims, seed=8))
        ops = [loss_kraus(3, eta)] * len(mats)

        def rail_diagonal(x):
            """(slice, q, q', l, d) entries with d = d' and l = l', q the qubit pair."""
            blocks = x.reshape(len(x), 4, 3, 3, 4, 3, 3)
            return np.ascontiguousarray(blocks.diagonal(0, 2, 5).diagonal(0, 2, 4).swapaxes(-1, -2))

        got = apply_loss_diagonal(rail_diagonal(mats), ops)
        assert got.tobytes() == rail_diagonal(lost_kraus_sum(mats, dims, 2, ops[0])).tobytes()
