"""Click/no-click measurement model and the closed-form dark-count fidelity."""

import numpy as np
import pytest

from heraldsim.detector import DetectorRoundParams, branch_matrices, dark_count_fidelity
from heraldsim.qmath import (
    DensityMatrix,
    ValidationError,
    basis_ket,
    embed_operator,
    partial_trace_matrix,
)


def measure(mat, params, dims=None, rail=0):
    """(click, no_click) branch matrices and their probabilities (traces)."""
    dims = dims or (mat.shape[0],)
    branches = branch_matrices(mat, dims, rail, params)
    return branches, [float(np.trace(b).real) for b in branches]


def rail_state(pops):
    return np.diag(pops).astype(complex)


class TestDetectorMeasure:
    """The click model through `branch_matrices`, the kernel the engine runs."""

    def test_vacuum_without_darks_never_clicks(self):
        (click, _), (p_click, p_no) = measure(
            rail_state([1.0, 0.0, 0.0]), DetectorRoundParams(0.0, 0.5)
        )
        assert p_click == 0.0
        assert not np.any(click)
        assert np.isclose(p_no, 1.0)

    def test_unit_efficiency_single_photon(self):
        (click, no_click), (p_click, _) = measure(
            rail_state([0.0, 1.0, 0.0]), DetectorRoundParams(0.0, 1.0)
        )
        assert np.isclose(p_click, 1.0, atol=1e-12)
        assert not np.any(no_click)
        # measured rail emptied
        assert np.allclose(click, np.diag([1.0, 0.0, 0.0]), atol=1e-12)

    def test_measured_click_probability(self):
        _, (p_click, _) = measure(
            rail_state([0.0, 1.0, 0.0]), DetectorRoundParams(0.006, 0.21)
        )
        assert np.isclose(p_click, 0.21, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pops = rng.dirichlet(np.ones(3))
            params = DetectorRoundParams(*rng.uniform(0.0, 1.0, size=2))
            _, (p_click, p_no) = measure(rail_state(pops), params)
            assert np.isclose(p_click + p_no, 1.0, atol=1e-10)

    def test_branches_of_a_joint_matrix(self):
        # a qubit x rail state, measured on the rail
        rng = np.random.default_rng(3)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = DensityMatrix.from_ket(v, dims=(2, 3))
        params = DetectorRoundParams(0.02, 0.4)
        mats, probs = measure(rho.matrix, params, rho.dims, rail=1)
        assert np.isclose(sum(probs), 1.0, atol=1e-12)
        for mat, p in zip(mats, probs):
            DensityMatrix(rho.dims, mat / p)
        # together the branches empty the rail: tr_rail(rho) x |0><0|
        vacuum = np.diag([1.0, 0.0, 0.0])
        expected = np.kron(partial_trace_matrix(rho.matrix, rho.dims, (0,)), vacuum)
        assert np.allclose(mats[0] + mats[1], expected, atol=1e-12)

    def test_not_number_resolving(self):
        params = DetectorRoundParams(0.01, 0.37)
        _, (c1, _) = measure(rail_state([0.0, 1.0, 0.0]), params)
        _, (c2, _) = measure(rail_state([0.0, 0.0, 1.0]), params)
        assert np.isclose(c1, c2, atol=1e-12)

    def test_rail_left_in_vacuum_in_both_branches(self):
        rho = DensityMatrix.from_ket(
            (basis_ket(3, 0) + basis_ket(3, 2)) / np.sqrt(2)
        )
        params = DetectorRoundParams(0.3, 0.6)
        mats, probs = measure(rho.matrix, params)
        for mat, p in zip(mats, probs):
            assert p > 0.0
            assert not np.any(mat[1:]) and not np.any(mat[:, 1:])

    def test_param_range_validated(self):
        with pytest.raises(ValidationError):
            DetectorRoundParams(-0.1, 0.5)
        with pytest.raises(ValidationError):
            DetectorRoundParams(0.1, 1.5)


def kraus_sum_branches(mat, dims, rail, params):
    """Reference: sum_k w_k E_k rho E_k^dag with E_k = |0><k| embedded on `rail`."""
    d = dims[rail]
    w_click = [params.p_dark] + [params.p_real] * (d - 1)
    branches = []
    for weights in (w_click, [1.0 - w for w in w_click]):
        out = np.zeros_like(mat)
        for k, w in enumerate(weights):
            if w != 0.0:
                m = np.zeros((d, d), dtype=complex)
                m[0, k] = 1.0
                e = embed_operator(m, dims, (rail,))
                out += w * (e @ mat @ e.conj().T)
        branches.append(out)
    return branches


def states_with_zeros(dims, seed):
    """A pure and a mixed state whose masked amplitudes are exactly zero."""
    rng = np.random.default_rng(seed)
    d = int(np.prod(dims))
    mask = rng.random(d) < 0.3
    kets = (rng.normal(size=(3, d)) + 1j * rng.normal(size=(3, d))) * ~mask
    mixed = sum(w * np.outer(v, v.conj()) for w, v in zip((0.5, 0.3, 0.2), kets))
    return np.outer(kets[0], kets[0].conj()), mixed


class TestBranchKernel:
    @pytest.mark.parametrize("dims", [(2, 2, 3, 3), (2, 2, 4, 4), (3, 2, 4)])
    @pytest.mark.parametrize("params", [(0.006, 0.21), (0.0, 1.0), (1.0, 0.0)])
    def test_matches_kraus_sum_bit_for_bit(self, dims, params):
        params = DetectorRoundParams(*params)
        for mat in states_with_zeros(dims, seed=sum(dims)):
            assert np.any(mat == 0.0)
            for rail in range(len(dims)):
                got = branch_matrices(mat, dims, rail, params)
                for g, ref in zip(got, kraus_sum_branches(mat, dims, rail, params)):
                    assert np.array_equal(g, ref)
                    for part in (np.real, np.imag):
                        assert np.array_equal(np.signbit(part(g)), np.signbit(part(ref)))


class TestDarkCountFidelity:
    def test_no_darks_is_perfect(self):
        for p_real in (0.05, 0.21, 1.0):
            f = dark_count_fidelity(
                DetectorRoundParams(0.0, p_real), DetectorRoundParams(0.0, p_real)
            )
            assert np.isclose(f, 1.0, atol=1e-14)

    def test_darks_only_limit(self):
        f = dark_count_fidelity(
            DetectorRoundParams(0.3, 0.0), DetectorRoundParams(0.7, 0.0)
        )
        assert np.isclose(f, 3.0 / 11.0, atol=1e-14)

    def test_measured_operating_point(self):
        f = dark_count_fidelity(
            DetectorRoundParams(0.006, 0.21), DetectorRoundParams(0.005, 0.26)
        )
        # direct arithmetic: 0.22005 / 0.24117
        assert np.isclose(f, 0.22005 / 0.24117, atol=1e-12)
        assert abs(f - 0.912) < 1e-3

    def test_zero_denominator_rejected(self):
        with pytest.raises(ValidationError):
            dark_count_fidelity(
                DetectorRoundParams(0.0, 0.0), DetectorRoundParams(0.0, 0.0)
            )

