"""Click/no-click measurement model, closed-form fidelity, threshold model."""

import numpy as np
import pytest

from heraldsim.detector import (
    DEFAULT_SEPARATION,
    DetectorRoundParams,
    branch_matrices,
    dark_count_fidelity,
    detector_measure,
    fit_separation,
    readout_threshold_model,
)
from heraldsim.qmath import (
    DensityMatrix,
    ValidationError,
    basis_ket,
    embed_operator,
    partial_trace_matrix,
)


def rail_state(pops):
    return DensityMatrix((len(pops),), np.diag(pops).astype(complex))


class TestDetectorMeasure:
    def test_vacuum_without_darks_never_clicks(self):
        click, no_click = detector_measure(
            rail_state([1.0, 0.0, 0.0]), 0, DetectorRoundParams(0.0, 0.5)
        )
        assert click.probability == 0.0
        assert click.post_state is None
        assert np.isclose(no_click.probability, 1.0)

    def test_unit_efficiency_single_photon(self):
        click, no_click = detector_measure(
            rail_state([0.0, 1.0, 0.0]), 0, DetectorRoundParams(0.0, 1.0)
        )
        assert np.isclose(click.probability, 1.0, atol=1e-12)
        assert no_click.post_state is None
        # measured rail emptied
        assert np.allclose(
            click.post_state.matrix, np.diag([1.0, 0.0, 0.0]), atol=1e-12
        )

    def test_measured_click_probability(self):
        click, _ = detector_measure(
            rail_state([0.0, 1.0, 0.0]), 0, DetectorRoundParams(0.006, 0.21)
        )
        assert np.isclose(click.probability, 0.21, atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pops = rng.dirichlet(np.ones(3))
            params = DetectorRoundParams(*rng.uniform(0.0, 1.0, size=2))
            click, no_click = detector_measure(rail_state(pops), 0, params)
            assert np.isclose(click.probability + no_click.probability, 1.0, atol=1e-10)

    def test_branches_of_a_joint_matrix(self):
        # the bare-matrix kernel the protocol engine uses, on a qubit x rail state
        rng = np.random.default_rng(3)
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        rho = DensityMatrix.from_ket(v, dims=(2, 3))
        params = DetectorRoundParams(0.02, 0.4)
        mats = branch_matrices(rho.matrix, rho.dims, 1, params)
        for outcome, mat in zip(detector_measure(rho, 1, params), mats):
            assert outcome.probability == float(np.trace(mat).real)
            assert np.array_equal(outcome.post_state.matrix, mat / outcome.probability)
        # together the branches empty the rail: tr_rail(rho) x |0><0|
        vacuum = np.diag([1.0, 0.0, 0.0])
        expected = np.kron(partial_trace_matrix(rho.matrix, rho.dims, (0,)), vacuum)
        assert np.allclose(mats[0] + mats[1], expected, atol=1e-12)

    def test_not_number_resolving(self):
        params = DetectorRoundParams(0.01, 0.37)
        c1, _ = detector_measure(rail_state([0.0, 1.0, 0.0]), 0, params)
        c2, _ = detector_measure(rail_state([0.0, 0.0, 1.0]), 0, params)
        assert np.isclose(c1.probability, c2.probability, atol=1e-12)

    def test_small_rail_rejected(self):
        with pytest.raises(ValidationError):
            detector_measure(
                DensityMatrix((2,), np.eye(2) / 2), 0, DetectorRoundParams(0.0, 1.0)
            )

    def test_rail_left_in_vacuum_in_both_branches(self):
        rho = DensityMatrix.from_ket(
            (basis_ket(3, 0) + basis_ket(3, 2)) / np.sqrt(2)
        )
        params = DetectorRoundParams(0.3, 0.6)
        for outcome in detector_measure(rho, 0, params):
            pops = np.real(np.diag(outcome.post_state.matrix))
            assert pops[1] < 1e-12 and pops[2] < 1e-12

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


class TestReadoutThreshold:
    BASE = DetectorRoundParams(0.005, 0.26)

    def test_everything_clicks_at_low_threshold(self):
        p_dark, p_click, ratio = readout_threshold_model(4.0, -30.0, self.BASE)
        assert np.isclose(p_dark, 1.0, atol=1e-9)
        assert np.isclose(p_click, 1.0, atol=1e-9)
        assert np.isclose(ratio, 1.0, atol=1e-8)

    def test_nothing_clicks_at_high_threshold(self):
        _, p_click, _ = readout_threshold_model(4.0, 40.0, self.BASE)
        assert p_click < 1e-12

    def test_ratio_monotone_decreasing(self):
        # oracle: direct Gaussian CDF evaluation over a threshold grid
        s = DEFAULT_SEPARATION
        thresholds = np.linspace(0.0, s, 25)
        ratios = [
            readout_threshold_model(s, t, self.BASE)[2] for t in thresholds
        ]
        clicks = [
            readout_threshold_model(s, t, self.BASE)[1] for t in thresholds
        ]
        assert np.all(np.diff(ratios) < 0.0)
        assert np.all(np.diff(clicks) < 0.0)

    def test_fitted_separation_hits_midpoint_ratio(self):
        s = fit_separation(self.BASE, target_midpoint_ratio=0.1)
        assert np.isclose(s, DEFAULT_SEPARATION, atol=2e-3)
        _, _, ratio = readout_threshold_model(s, s / 2.0, self.BASE)
        assert np.isclose(ratio, 0.1, atol=1e-6)

    def test_stringent_threshold_halves_ratio(self):
        # moving from the midpoint toward the click distribution
        s = DEFAULT_SEPARATION
        _, click_mid, ratio_mid = readout_threshold_model(s, s / 2.0, self.BASE)
        _, click_opt, ratio_opt = readout_threshold_model(s, s / 2.0 + 1.95, self.BASE)
        assert ratio_opt < 0.6 * ratio_mid
        assert click_opt < click_mid
