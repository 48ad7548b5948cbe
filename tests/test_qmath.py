"""Core linear-algebra primitives against independent oracles."""

import numpy as np
import pytest

from heraldsim.qmath import (
    PAULI_LABELS,
    PAULI_X,
    DensityMatrix,
    PauliVector,
    ValidationError,
    apply_kraus_matrix,
    basis_ket,
    bell_odd_plus,
    concurrence,
    embed_operator,
    partial_trace_matrix,
    pauli_decompose,
    pauli_reconstruct,
    state_fidelity,
    two_qubit_ket,
)


def random_density(dims, seed):
    """Ginibre-random full-rank state."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    m = g @ g.conj().T
    return DensityMatrix(tuple(dims), m / np.trace(m))


def random_hermitian(d, seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return g + g.conj().T


def off_by(residual, eps):
    """A 2x2 state off by eps in one residual: Hermiticity error eps, trace
    error eps or minimum eigenvalue -eps; the other two are clean."""
    if residual == "hermiticity":
        m = np.eye(2, dtype=complex) / 2.0
        m[0, 1] = eps
        return m
    if residual == "trace":
        return np.diag([0.5, 0.5 + eps])
    return np.diag([1.0 + eps, -eps])


class TestDensityMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(2, dtype=complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValidationError, match=r"^matrix is not Hermitian within 1e-10$"):
            DensityMatrix((2,), m)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match=r"^trace 1\.4 differs from 1 beyond 1e-10$"):
            DensityMatrix((2,), 0.7 * np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(
            ValidationError, match=r"^negative eigenvalue -5\.000e-01 below -1e-9$"
        ):
            DensityMatrix((2,), np.diag([1.5, -0.5]))

    @pytest.mark.parametrize(
        "residual, budget, message",
        [
            ("hermiticity", 1e-10, r"^matrix is not Hermitian within 1e-10$"),
            ("trace", 1e-10, r"^trace 1\.0000000002 differs from 1 beyond 1e-10$"),
            ("eigenvalue", 1e-9, r"^negative eigenvalue -2\.000e-09 below -1e-9$"),
        ],
    )
    def test_budget_edges(self, residual, budget, message):
        # half the budget passes; twice the budget fails with the exact message
        DensityMatrix((2,), off_by(residual, 0.5 * budget))
        with pytest.raises(ValidationError, match=message):
            DensityMatrix((2,), off_by(residual, 2.0 * budget))

    def test_matrix_is_readonly(self):
        rho = random_density((2, 2), seed=0)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 2.0


def conjugate(u, rho):
    """U rho U^dag on a bare matrix, the way the protocol engine applies U."""
    return u @ rho.matrix @ u.conj().T


class TestTensor:
    """Products of subsystem operators, built as the engine builds them."""

    def test_identity_case(self):
        out = embed_operator(np.eye(2), (2, 2), (0,))
        assert np.array_equal(out, np.eye(4))

    def test_basis_bookkeeping(self):
        one = np.outer(basis_ket(3, 1), basis_ket(3, 1))
        vac = np.outer(basis_ket(3, 0), basis_ket(3, 0))
        out = embed_operator(one, (3, 3), (0,)) @ embed_operator(vac, (3, 3), (1,))
        expected = np.zeros((9, 9))
        expected[3, 3] = 1.0
        assert np.allclose(out, expected)

    def test_trace_multiplicative(self):
        for seed in range(5):
            a = random_hermitian(2, seed)
            b = random_hermitian(2, 100 + seed)
            product = embed_operator(a, (2, 2), (0,)) @ embed_operator(b, (2, 2), (1,))
            # oracle: direct numeric traces
            assert np.isclose(np.trace(product), np.trace(a) * np.trace(b), atol=1e-12)


class TestPartialTrace:
    def test_bell_reduction_is_maximally_mixed(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        reduced = partial_trace_matrix(rho.matrix, rho.dims, [0])
        assert np.allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_product_state_recovered(self):
        a = random_density((2,), 3)
        b = random_density((3,), 4)
        joint = np.kron(a.matrix, b.matrix)
        assert np.allclose(partial_trace_matrix(joint, (2, 3), [0]), a.matrix, atol=1e-12)
        assert np.allclose(partial_trace_matrix(joint, (2, 3), [1]), b.matrix, atol=1e-12)

    def test_trace_preserved_on_36_dim_states(self):
        # oracle: direct summation over the traced indices
        for seed in range(3):
            rho = random_density((2, 2, 3, 3), seed)
            reduced = partial_trace_matrix(rho.matrix, rho.dims, [0, 1])
            direct = np.zeros((4, 4), dtype=complex)
            full = rho.matrix.reshape(2, 2, 3, 3, 2, 2, 3, 3)
            for i in range(2):
                for j in range(2):
                    for k in range(2):
                        for l in range(2):
                            for m in range(3):
                                for n in range(3):
                                    direct[2 * i + j, 2 * k + l] += full[
                                        i, j, m, n, k, l, m, n
                                    ]
            assert np.allclose(reduced, direct, atol=1e-12)
            assert np.isclose(np.trace(reduced).real, 1.0, atol=1e-12)


class TestApplyUnitary:
    """U rho U^dag with U embedded by `embed_operator`."""

    def test_identity_leaves_state(self):
        rho = random_density((2, 2), 6)
        out = conjugate(embed_operator(np.eye(4), rho.dims, (0, 1)), rho)
        assert np.allclose(out, rho.matrix, atol=1e-14)

    def test_xx_flips_gg_to_ee(self):
        rho = DensityMatrix.from_ket(two_qubit_ket("gg"), dims=(2, 2))
        xx = embed_operator(np.kron(PAULI_X, PAULI_X), rho.dims, (0, 1))
        out = DensityMatrix(rho.dims, conjugate(xx, rho))
        assert np.isclose(state_fidelity(out, two_qubit_ket("ee")), 1.0, atol=1e-12)

    def test_purity_invariant(self):
        rho = random_density((2, 3), 7)
        u = np.linalg.qr(
            np.random.default_rng(8).normal(size=(3, 3))
            + 1j * np.random.default_rng(9).normal(size=(3, 3))
        )[0]
        out = DensityMatrix(rho.dims, conjugate(embed_operator(u, rho.dims, (1,)), rho))
        purity = lambda m: np.trace(m @ m).real
        assert np.isclose(purity(out.matrix), purity(rho.matrix), atol=1e-11)


class TestKrausKernel:
    """`apply_kraus_matrix` takes full-space operators embedded by the caller."""

    def test_one_element_list_is_unitary_conjugation(self):
        rho = random_density((2, 3), 10)
        u = embed_operator(np.kron(PAULI_X, np.eye(3)), rho.dims, (0, 1))
        assert np.array_equal(apply_kraus_matrix(rho.matrix, [u]), conjugate(u, rho))

    def test_channel_matches_kernel_on_embedded_operators(self):
        # oracle: on a product state the embedded channel acts on its factor alone
        a, b = random_density((2,), 11).matrix, random_density((3,), 12).matrix
        p = 0.3
        local = [np.sqrt(1 - p) * np.eye(3), np.sqrt(p) * np.diag([1.0, -1.0, 1.0])]
        full = [embed_operator(k, (2, 3), (1,)) for k in local]
        out = apply_kraus_matrix(np.kron(a, b), full)
        assert np.allclose(out, np.kron(a, sum(k @ b @ k.conj().T for k in local)), atol=1e-14)


class TestPauliDecompose:
    def test_odd_bell_state_components(self):
        pauli = pauli_decompose(DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2)))
        assert np.isclose(pauli.component("XX"), 1.0, atol=1e-12)
        assert np.isclose(pauli.component("YY"), 1.0, atol=1e-12)
        assert np.isclose(pauli.component("ZZ"), -1.0, atol=1e-12)
        for label in PAULI_LABELS:
            if label in ("II", "XX", "YY", "ZZ"):
                continue
            assert abs(pauli.component(label)) < 1e-12

    def test_maximally_mixed(self):
        pauli = pauli_decompose(DensityMatrix((2, 2), np.eye(4) / 4))
        assert np.isclose(pauli.component("II"), 1.0)
        assert np.max(np.abs(pauli.components[1:])) < 1e-14

    def test_round_trip(self):
        for seed in range(5):
            rho = random_density((2, 2), 40 + seed)
            back = pauli_reconstruct(pauli_decompose(rho))
            assert np.max(np.abs(back - rho.matrix)) < 1e-12


class TestStateFidelity:
    def test_self_fidelity(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        assert np.isclose(state_fidelity(rho, bell_odd_plus()), 1.0, atol=1e-14)

    def test_maximally_mixed_quarter(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert np.isclose(state_fidelity(rho, bell_odd_plus()), 0.25, atol=1e-14)

    def test_ideal_heralded_mixture_two_thirds(self):
        # the ideal single-round heralded state: 2/3 odd Bell + 1/3 ee
        op = bell_odd_plus()
        ee = two_qubit_ket("ee")
        mat = (2.0 / 3.0) * np.outer(op, op.conj()) + (1.0 / 3.0) * np.outer(
            ee, ee.conj()
        )
        rho = DensityMatrix((2, 2), mat)
        assert np.isclose(state_fidelity(rho, op), 2.0 / 3.0, atol=1e-12)


class TestConcurrence:
    def test_bell_state_is_one(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        assert np.isclose(concurrence(rho), 1.0, atol=1e-10)

    def test_maximally_mixed_is_zero(self):
        assert concurrence(DensityMatrix((2, 2), np.eye(4) / 4)) == 0.0

    @pytest.mark.parametrize("p", [0.2, 0.5, 0.8])
    def test_werner_states_analytic(self, p):
        # oracle: analytic Werner concurrence max(0, (3p-1)/2)
        op = bell_odd_plus()
        mat = p * np.outer(op, op.conj()) + (1.0 - p) * np.eye(4) / 4
        got = concurrence(DensityMatrix((2, 2), mat))
        assert np.isclose(got, max(0.0, (3.0 * p - 1.0) / 2.0), atol=1e-10)


class TestPauliVector:
    def test_needs_16_components(self):
        with pytest.raises(ValidationError):
            PauliVector(np.zeros(15))

    def test_component_lookup(self):
        comps = np.zeros(16)
        comps[0] = 1.0
        comps[PAULI_LABELS.index("ZZ")] = -0.5
        pv = PauliVector(comps)
        assert pv.component("ZZ") == -0.5
        assert pv.sigma is None
