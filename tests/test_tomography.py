"""Readout simulation, linear-inversion correction, error propagation."""

import numpy as np
import pytest

from heraldsim.qmath import (
    DensityMatrix,
    PAULI_LABELS,
    PauliVector,
    ValidationError,
    bell_odd_plus,
    pauli_decompose,
    two_qubit_ket,
)
from heraldsim.tomography import (
    AssignmentMatrix,
    CountsTable,
    SETTING_AXES,
    TomographySettings,
    assignment_from_json,
    assignment_to_json,
    counts_from_json,
    counts_to_json,
    fidelity_with_errors,
    imperfect_projectors,
    reconstruct_pauli,
    reference_assignment,
    setting_rotation,
    simulate_counts,
)


def random_two_qubit_state(seed):
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix((2, 2), m / np.trace(m))


class TestAssignmentMatrix:
    def test_reference_columns_sum_to_one(self):
        a = reference_assignment()
        assert np.max(np.abs(a.a.sum(axis=0) - 1.0)) < 1e-6

    def test_rejects_bad_columns(self):
        bad = np.eye(4)
        bad[0, 0] = 0.9
        with pytest.raises(ValidationError):
            AssignmentMatrix(bad)

    def test_rejects_singular(self):
        m = np.full((4, 4), 0.25)
        with pytest.raises(ValidationError):
            AssignmentMatrix(m)


class TestImperfectProjectors:
    def test_identity_assignment_gives_ideal_projectors(self):
        projs = imperfect_projectors(AssignmentMatrix.identity())
        for j, p in enumerate(projs):
            expected = np.zeros((4, 4))
            expected[j, j] = 1.0
            assert np.allclose(p, expected)

    def test_reference_first_projector(self):
        projs = imperfect_projectors(reference_assignment())
        assert np.allclose(
            np.diag(projs[0]).real, [0.941, 0.047, 0.031, 0.001], atol=1e-12
        )

    def test_completeness(self):
        projs = imperfect_projectors(reference_assignment())
        assert np.max(np.abs(sum(projs) - np.eye(4))) < 1e-6


class TestSimulateCounts:
    def test_ideal_assignment_pure_gg(self):
        rho = DensityMatrix.from_ket(two_qubit_ket("gg"), dims=(2, 2))
        counts = simulate_counts(
            rho, AssignmentMatrix.identity(), TomographySettings(1000), seed=0
        )
        zz = SETTING_AXES.index(("Z", "Z"))
        assert counts.counts[zz, 0] == 1000

    def test_infinite_shot_limit_matches_direct_trace(self):
        # oracle: direct trace evaluation Tr(Pi_j R rho R^dag)
        rho = random_two_qubit_state(5)
        a = reference_assignment()
        probs = simulate_counts(rho, a, settings=None).counts
        projs = imperfect_projectors(a)
        for k, (ax_a, ax_b) in enumerate(SETTING_AXES):
            r = setting_rotation(ax_a, ax_b)
            rotated = r @ rho.matrix @ r.conj().T
            for j, pi in enumerate(projs):
                direct = np.trace(pi @ rotated).real
                assert abs(probs[k, j] - direct) < 1e-12

    def test_reference_assignment_gg_distribution(self):
        rho = DensityMatrix.from_ket(two_qubit_ket("gg"), dims=(2, 2))
        probs = simulate_counts(rho, reference_assignment(), settings=None).counts
        zz = SETTING_AXES.index(("Z", "Z"))
        assert np.allclose(probs[zz], [0.941, 0.031, 0.027, 0.001], atol=1e-12)

    def test_deterministic_given_seed(self):
        rho = random_two_qubit_state(6)
        a = reference_assignment()
        c1 = simulate_counts(rho, a, TomographySettings(5000), seed=9)
        c2 = simulate_counts(rho, a, TomographySettings(5000), seed=9)
        assert np.array_equal(c1.counts, c2.counts)

    def test_seed_required_for_sampling(self):
        rho = random_two_qubit_state(7)
        with pytest.raises(ValidationError):
            simulate_counts(rho, AssignmentMatrix.identity(), TomographySettings(10))


class TestCorrectCounts:
    """Linear-inversion readout correction as `reconstruct_pauli` applies it."""

    def test_identity_is_noop(self):
        b = CountsTable(np.tile([0.5, 0.2, 0.2, 0.1], (9, 1)), None)
        corrected = reconstruct_pauli(b, AssignmentMatrix.identity())
        assert np.allclose(corrected.components, reconstruct_pauli(b).components)

    def test_round_trip_random_probabilities(self):
        a = reference_assignment()
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = rng.dirichlet(np.ones(4), size=9)
            corrected = reconstruct_pauli(CountsTable(p @ a.a.T, None), a)
            clean = reconstruct_pauli(CountsTable(p, None))
            assert np.allclose(corrected.components, clean.components, atol=1e-9)
        # columns of A^-1 sum to one, so the correction preserves each sum
        assert np.allclose(a.inverse().sum(axis=0), 1.0, atol=1e-9)

    def test_reference_matrix_inverts_basis_vector(self):
        # every setting records GG through A: corrected, every parity is +1
        a = reference_assignment()
        b = CountsTable(np.tile(a.a @ np.array([1.0, 0.0, 0.0, 0.0]), (9, 1)), None)
        assert np.allclose(reconstruct_pauli(b, a).components, 1.0, atol=1e-9)


class TestReconstructPauli:
    def test_exact_probabilities_of_bell_state(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        counts = simulate_counts(rho, AssignmentMatrix.identity(), settings=None)
        pauli = reconstruct_pauli(counts)
        assert np.isclose(pauli.component("XX"), 1.0, atol=1e-12)
        assert np.isclose(pauli.component("YY"), 1.0, atol=1e-12)
        assert np.isclose(pauli.component("ZZ"), -1.0, atol=1e-12)
        assert pauli.sigma is None

    def test_matches_pauli_decompose_in_probability_limit(self):
        for seed in range(4):
            rho = random_two_qubit_state(20 + seed)
            counts = simulate_counts(rho, AssignmentMatrix.identity(), settings=None)
            got = reconstruct_pauli(counts)
            expected = pauli_decompose(rho)
            assert np.max(np.abs(got.components - expected.components)) < 1e-12

    def test_correction_inverts_corruption_exactly(self):
        a = reference_assignment()
        for seed in range(3):
            rho = random_two_qubit_state(30 + seed)
            corrupted = simulate_counts(rho, a, settings=None)
            corrected = reconstruct_pauli(corrupted, a)
            clean = pauli_decompose(rho)
            assert np.max(np.abs(corrected.components - clean.components)) < 1e-9

    def test_sigma_scale_at_quoted_shots(self):
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        counts = simulate_counts(
            rho, reference_assignment(), TomographySettings(200_000), seed=2
        )
        pauli = reconstruct_pauli(counts, reference_assignment())
        median_sigma = float(np.median(pauli.sigma[1:]))
        assert 0.001 < median_sigma < 0.03

    def test_end_to_end_round_trip_within_errors(self):
        a = reference_assignment()
        rho = random_two_qubit_state(42)
        truth = pauli_decompose(rho)
        counts = simulate_counts(rho, a, TomographySettings(200_000), seed=17)
        pauli = reconstruct_pauli(counts, a)
        for i, label in enumerate(PAULI_LABELS):
            if label == "II":
                continue
            dev = abs(pauli.components[i] - truth.components[i])
            assert dev < 3.0 * pauli.sigma[i] + 1e-12, label

    def test_sampled_convergence_to_decomposition(self):
        rho = random_two_qubit_state(55)
        counts = simulate_counts(
            rho, AssignmentMatrix.identity(), TomographySettings(1_000_000), seed=3
        )
        got = reconstruct_pauli(counts)
        expected = pauli_decompose(rho)
        for i in range(1, 16):
            assert abs(got.components[i] - expected.components[i]) < 5.0 * got.sigma[i]


class TestPerSettingTotals:
    """Post-selected data: each setting carries its own shot total."""

    def unequal_counts(self, seed=3):
        rho = random_two_qubit_state(seed)
        probs = simulate_counts(rho, reference_assignment(), None).counts
        totals = np.array([400, 900, 250, 1200, 610, 333, 808, 150, 1000])
        rng = np.random.default_rng(seed)
        counts = np.stack([rng.multinomial(n, probs[k]) for k, n in enumerate(totals)])
        return counts, totals

    def test_equal_totals_bit_identical_to_shared_budget(self):
        counts = simulate_counts(
            random_two_qubit_state(5), reference_assignment(),
            TomographySettings(5000), seed=2,
        )
        shared = reconstruct_pauli(counts, reference_assignment())
        per_setting = reconstruct_pauli(
            CountsTable(counts.counts, [5000] * 9), reference_assignment()
        )
        assert np.array_equal(shared.components, per_setting.components)
        assert np.array_equal(shared.sigma, per_setting.sigma)

    def test_sigma_uses_each_settings_total(self):
        counts, totals = self.unequal_counts()
        table = CountsTable(counts, totals)
        pauli = reconstruct_pauli(table)
        # identity readout: a correlator's variance is (1 - m^2) / n_k
        for k, (ax_a, ax_b) in enumerate(SETTING_AXES):
            label = ax_a + ax_b
            m = pauli.component(label)
            expected = np.sqrt((1.0 - m * m) / totals[k])
            assert pauli.sigma[PAULI_LABELS.index(label)] == pytest.approx(expected, rel=1e-12)
        assert np.allclose(table.frequencies().sum(axis=1), 1.0)

    def test_totals_validated(self):
        counts, totals = self.unequal_counts()
        with pytest.raises(ValidationError):
            CountsTable(counts, totals + 1)
        with pytest.raises(ValidationError):
            CountsTable(counts, totals[:8])
        with pytest.raises(ValidationError):
            CountsTable(counts, [totals])
        with pytest.raises(ValidationError):
            CountsTable(np.zeros((9, 4)), np.zeros(9))

    @pytest.mark.parametrize("totals", [np.inf, np.nan, [100.0] * 8 + [np.inf]])
    def test_non_finite_totals_rejected(self, totals):
        # inf > inf is false, so the sum check alone lets an infinite budget through
        with pytest.raises(ValidationError, match="finite"):
            CountsTable(np.full((9, 4), 25.0), totals)

    def test_non_finite_counts_rejected(self):
        counts = np.full((9, 4), 25.0)
        counts[3, 1] = np.nan
        with pytest.raises(ValidationError, match="finite"):
            CountsTable(counts, 100)

    @pytest.mark.parametrize(
        "rows, totals",
        [
            ({2: [25.5, 24.5, 25, 25]}, 100),
            ({2: [25 + 1e-9, 25 - 1e-9, 25, 25]}, 100),
            ({k: [25.5, 25, 25, 25] for k in range(9)}, 100.5),
            ({8: [25.5, 25, 25, 25]}, [100] * 8 + [100.5]),
        ],
    )
    def test_fractional_sampled_counts_rejected(self, rows, totals):
        # every row sums to its total, so only the whole-number check rejects
        counts = np.full((9, 4), 25.0)
        for k, row in rows.items():
            counts[k] = row
        with pytest.raises(ValidationError, match="whole numbers"):
            CountsTable(counts, totals)

    def test_json_round_trip(self):
        counts, totals = self.unequal_counts()
        table = CountsTable(counts, totals)
        back = counts_from_json(counts_to_json(table))
        assert np.array_equal(back.setting_totals(), totals)
        assert np.array_equal(back.counts, table.counts)

    def test_bootstrap_accepts_unequal_totals(self):
        from heraldsim.tomography import bootstrap_errors

        counts, totals = self.unequal_counts()
        boot_f, boot_c = bootstrap_errors(
            CountsTable(counts, totals), None, bell_odd_plus(), n_resamples=20, seed=1
        )
        assert 0.0 < boot_f < 0.2 and 0.0 <= boot_c < 0.5


class TestFidelityWithErrors:
    def test_zero_sigma_gives_zero_error(self):
        pauli = pauli_decompose(DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2)))
        result = fidelity_with_errors(pauli, bell_odd_plus())
        assert result.fidelity == pytest.approx(1.0, abs=1e-12)
        assert result.sigma_fidelity == 0.0
        assert result.sigma_concurrence == 0.0
        assert result.physical

    def test_bell_state_error_scale(self):
        comps = pauli_decompose(
            DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        ).components
        sigma = np.full(16, 0.01)
        sigma[0] = 0.0
        result = fidelity_with_errors(PauliVector(comps, sigma), bell_odd_plus())
        assert 0.001 < result.sigma_fidelity < 0.03

    def test_symmetric_perturbation_leaves_central_value(self):
        rho = random_two_qubit_state(60)
        pauli = pauli_decompose(rho)
        sigma = np.full(16, 0.02)
        sigma[0] = 0.0
        with_err = PauliVector(pauli.components, sigma)
        bare = fidelity_with_errors(pauli, bell_odd_plus())
        perturbed = fidelity_with_errors(with_err, bell_odd_plus())
        assert np.isclose(bare.fidelity, perturbed.fidelity, atol=1e-12)

    def test_bootstrap_cross_check_agrees(self):
        # the two error estimates should agree at the tens-of-percent level
        from heraldsim.tomography import bootstrap_errors

        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
        a = reference_assignment()
        counts = simulate_counts(rho, a, TomographySettings(20_000), seed=4)
        pauli = reconstruct_pauli(counts, a)
        result = fidelity_with_errors(pauli, bell_odd_plus())
        boot_f, _ = bootstrap_errors(counts, a, bell_odd_plus(), n_resamples=150, seed=1)
        assert 0.5 < boot_f / result.sigma_fidelity < 2.0

    def test_non_physical_reconstruction_flagged(self):
        comps = np.zeros(16)
        comps[0] = 1.0
        comps[PAULI_LABELS.index("XX")] = 1.1
        comps[PAULI_LABELS.index("YY")] = 1.1
        comps[PAULI_LABELS.index("ZZ")] = -1.1
        result = fidelity_with_errors(PauliVector(comps), bell_odd_plus())
        assert not result.physical
        assert result.fidelity > 1.0  # linear functional, reported as-is


class TestSerialization:
    def test_counts_round_trip(self):
        rho = random_two_qubit_state(70)
        counts = simulate_counts(
            rho, reference_assignment(), TomographySettings(1000), seed=1
        )
        back = counts_from_json(counts_to_json(counts))
        assert np.array_equal(back.counts, counts.counts)
        assert back.shots_per_setting == 1000

    def test_assignment_round_trip(self):
        a = reference_assignment()
        back = assignment_from_json(assignment_to_json(a))
        assert np.allclose(back.a, a.a)

    def test_counts_reject_wrong_basis(self):
        doc = counts_to_json(
            simulate_counts(
                random_two_qubit_state(71),
                AssignmentMatrix.identity(),
                TomographySettings(10),
                seed=0,
            )
        ).replace('"GG"', '"XX"', 1)
        with pytest.raises(ValidationError):
            counts_from_json(doc)

    def test_counts_table_validates_sums(self):
        with pytest.raises(ValidationError):
            CountsTable(np.ones((9, 4)), shots_per_setting=10)
