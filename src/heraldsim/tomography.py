"""Joint two-qubit readout simulation and linear-inversion correction.

The joint readout records one of four outcomes (GG, GE, EG, EE) per shot.
Readout imperfection is a column-stochastic assignment matrix A with
A[j, i] = P(record outcome j | prepared computational state i); the
effective measurement operators are the imperfect projectors
Pi_j = sum_i A[j, i] |i><i|.  Correction is plain linear inversion
p = A^-1 b on the outcome frequencies -- deliberately the same estimator
the modeled experiment used, not maximum likelihood, so that corrected
numbers are comparable.  Finite-shot corrected states can be slightly
unphysical; they are flagged, never repaired.

Tomography settings are the nine per-qubit pre-rotation pairs measuring
the axes (Z, X, Y) x (Z, X, Y); Z is the bare readout, X and Y use the
pi/2 pre-rotations pinned in `setting_rotation`.  Expectation values come
from parity sums of the (corrected) outcome probabilities, over the
settings and signs `_LABEL_TERMS` lists for each Pauli label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .qmath import (
    EIGENVALUE_TOL,
    PAULI_LABELS,
    DensityMatrix,
    PauliVector,
    ValidationError,
    check_allocatable,
    check_seed,
    concurrence_matrix,
    is_int,
    min_eigenvalue,
    pauli_reconstruct,
    unit_ket,
)

BASIS_ORDER = ("GG", "GE", "EG", "EE")
AXES = ("Z", "X", "Y")

# Setting order: Alice axis major, Bob axis minor.
SETTING_AXES = tuple((a, b) for a in AXES for b in AXES)

# outcome parity signs (G -> +1, E -> -1) for (alice, bob) in BASIS_ORDER
_SIGN_A = np.array([1.0, 1.0, -1.0, -1.0])
_SIGN_B = np.array([1.0, -1.0, 1.0, -1.0])

# Pre-rotations taking the measured axis onto Z: chosen so that a Z-basis
# readout after the rotation estimates +<X> and +<Y> in the conventions of
# `qmath` (pinned by the round-trip tests against pauli_decompose).
_ROT = {
    "Z": np.eye(2, dtype=complex),
    "X": np.array([[1.0, 1.0], [-1.0, 1.0]], dtype=complex) / np.sqrt(2.0),
    "Y": np.array([[1.0, -1.0j], [-1.0j, 1.0]], dtype=complex) / np.sqrt(2.0),
}


def setting_rotation(axis_a: str, axis_b: str) -> np.ndarray:
    """Two-qubit pre-rotation for one tomography setting."""
    return np.kron(_ROT[axis_a], _ROT[axis_b])


@dataclass(frozen=True)
class AssignmentMatrix:
    """Column-stochastic readout assignment matrix in BASIS_ORDER.

    a[j, i] = probability that state i is recorded as outcome j.  Columns
    must sum to one within 1e-6 and the matrix must be invertible.
    """

    a: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        if a.shape != (4, 4):
            raise ValidationError("assignment matrix must be 4x4")
        if not np.all((a >= -1e-12) & (a <= 1.0 + 1e-12)):
            raise ValidationError("assignment entries must lie in [0, 1]")
        if np.max(np.abs(a.sum(axis=0) - 1.0)) > 1e-6:
            raise ValidationError("assignment columns must sum to 1 within 1e-6")
        if np.linalg.matrix_rank(a) < 4 or not np.isfinite(np.linalg.cond(a)):
            raise ValidationError("assignment matrix is singular")
        a = a.copy()
        a.setflags(write=False)
        object.__setattr__(self, "a", a)

    @classmethod
    def identity(cls) -> "AssignmentMatrix":
        return cls(np.eye(4))

    def inverse(self) -> np.ndarray:
        return np.linalg.inv(self.a)


def reference_assignment() -> AssignmentMatrix:
    """Assignment matrix of the modeled setup's calibration run (~93-94%
    per-state readout fidelity with small crosstalk)."""
    return AssignmentMatrix(
        np.array(
            [
                [0.941, 0.047, 0.031, 0.001],
                [0.031, 0.925, 0.001, 0.030],
                [0.027, 0.001, 0.931, 0.031],
                [0.001, 0.027, 0.037, 0.938],
            ]
        )
    )


@dataclass(frozen=True)
class TomographySettings:
    """Shot budget per setting for the nine SETTING_AXES pre-rotations: an
    integer in [1, 2**63), the range of numpy's multinomial draw."""

    shots_per_setting: int = 200_000

    def __post_init__(self):
        n = self.shots_per_setting
        if not is_int(n) or not 1 <= n < 2**63:
            raise ValidationError(f"shots_per_setting must be an integer in [1, 2**63), got {n!r}")


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts (or exact probabilities) for the nine settings.

    counts has shape (9, 4) in SETTING_AXES x BASIS_ORDER layout.  For
    sampled data rows hold integers summing to that setting's shot total.
    The constructor takes one budget shared by all settings or nine
    per-setting totals (as post-selected data has, since heralding is
    random) and stores `shots_per_setting` as a read-only (9,) float
    array.  For the infinite-shot mode (shots_per_setting None) rows hold
    probabilities summing to one.
    """

    counts: np.ndarray
    shots_per_setting: np.ndarray | None

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.shape != (9, 4):
            raise ValidationError("counts must be 9 settings x 4 outcomes")
        if not np.all(np.isfinite(c) & (c >= 0)):
            raise ValidationError("counts must be finite and non-negative")
        totals = self.shots_per_setting
        if totals is not None:
            totals = np.array(totals, dtype=float)
            if totals.ndim == 0:
                totals = np.full(9, totals)
            if totals.shape != (9,):
                raise ValidationError("shot totals must be one budget or nine per-setting totals")
            if not np.all(np.isfinite(totals) & (totals > 0)):
                raise ValidationError("shot totals must be positive and finite")
            if np.any(c != np.rint(c)) or np.any(totals != np.rint(totals)):
                raise ValidationError(
                    "sampled counts and shot totals must be whole numbers "
                    "(probability rows take shots_per_setting null)"
                )
            totals.setflags(write=False)
            object.__setattr__(self, "shots_per_setting", totals)
        target = 1.0 if totals is None else totals
        if np.any(np.abs(c.sum(axis=1) - target) > 1e-6 * np.maximum(target, 1.0)):
            raise ValidationError("each setting's counts must sum to the shot budget")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def frequencies(self) -> np.ndarray:
        if self.shots_per_setting is None:
            return self.counts.copy()
        return self.counts / self.shots_per_setting[:, None]


def imperfect_projectors(a: AssignmentMatrix) -> list[np.ndarray]:
    """Pi_j = sum_i A[j, i] |i><i|, diagonal in the computational basis.

    Completeness sum_j Pi_j = 1 holds exactly when columns sum to one.
    """
    return [np.diag(a.a[j, :]).astype(complex) for j in range(4)]


def outcome_probabilities(rho: DensityMatrix, a: AssignmentMatrix) -> np.ndarray:
    """Exact (9, 4) outcome probabilities P[k, j] = Tr(Pi_j R_k rho R_k^dag)."""
    projectors = imperfect_projectors(a)
    probs = np.empty((9, 4))
    for k, (ax_a, ax_b) in enumerate(SETTING_AXES):
        r = setting_rotation(ax_a, ax_b)
        rotated = r @ rho.matrix @ r.conj().T
        for j, pi in enumerate(projectors):
            probs[k, j] = float(np.trace(pi @ rotated).real)
    # guard against -1e-17 style rounding before sampling
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum(axis=1, keepdims=True)


def simulate_counts(
    rho: DensityMatrix, a: AssignmentMatrix, settings: TomographySettings, seed: int
) -> CountsTable:
    """Sample the joint-readout counts for all nine settings.

    Each setting draws from its own generator keyed by (seed, setting
    index), so per-setting sampling is reproducible and order-independent.
    The exact outcome probabilities (the infinite-shot limit) are
    `CountsTable(outcome_probabilities(rho, a), None)`.
    """
    check_seed(seed, "seed")
    probs = outcome_probabilities(rho, a)
    counts = np.empty((9, 4))
    for k in range(9):
        rng = np.random.default_rng([seed, k])
        counts[k] = rng.multinomial(settings.shots_per_setting, probs[k])
    return CountsTable(counts, settings.shots_per_setting)


# Pauli label (but II) -> the settings that estimate it, in SETTING_AXES order,
# and the outcome parity signs of its non-identity factors.
_LABEL_TERMS: dict[str, tuple[list[int], np.ndarray]] = {
    label: (
        [k for k, axes in enumerate(SETTING_AXES)
         if all(p in ("I", ax) for p, ax in zip(label, axes))],
        np.prod([sign for p, sign in zip(label, (_SIGN_A, _SIGN_B)) if p != "I"], axis=0),
    )
    for label in PAULI_LABELS
    if label != "II"
}


def _components(corrected: np.ndarray) -> np.ndarray:
    """Pauli components (..., 16) of (..., 9, 4) corrected frequencies.

    A setting's parity sum is ((c0 s0 + c1 s1) + c2 s2) + c3 s3, and the
    settings sharing a label are summed left to right before dividing by
    their count: the order of a scalar `signs @ c` dot and `np.mean`, so
    a stack of resamples gets the bits each table gets alone (a BLAS
    matvec or `einsum` sums in another order and moves the last bit).
    """
    comps = np.ones(corrected.shape[:-2] + (16,))
    for idx, label in enumerate(PAULI_LABELS):
        if label == "II":
            continue
        ks, s = _LABEL_TERMS[label]
        c = corrected[..., ks, :]
        parity = ((c[..., 0] * s[0] + c[..., 1] * s[1]) + c[..., 2] * s[2]) + c[..., 3] * s[3]
        total = parity[..., 0]
        for j in range(1, len(ks)):
            total = total + parity[..., j]
        comps[..., idx] = total / len(ks)
    return comps


def reconstruct_pauli(counts: CountsTable, a: AssignmentMatrix) -> PauliVector:
    """Pauli expectation values from counts, readout-corrected through `a`
    (`AssignmentMatrix.identity()` for perfect readout).

    Correlators come from the matching setting's parity sum; single-qubit
    components average the three settings sharing that qubit's axis.
    Statistical errors propagate the multinomial covariance of each
    setting, with that setting's own shot total, through the inversion
    (sigma is None in the infinite-shot mode).
    """
    freqs = counts.frequencies()
    inv = a.inverse()
    comps = _components(freqs @ inv.T)
    n_k = counts.shots_per_setting
    if n_k is None:
        return PauliVector(comps)

    covs = []
    for k in range(9):
        q = freqs[k]
        cov_q = (np.diag(q) - np.outer(q, q)) / n_k[k]
        covs.append(inv @ cov_q @ inv.T)
    sigma = np.zeros(16)
    for idx, label in enumerate(PAULI_LABELS):
        if label == "II":
            continue
        ks, signs = _LABEL_TERMS[label]
        variances = [max(float(signs @ covs[k] @ signs), 0.0) for k in ks]
        sigma[idx] = float(np.sqrt(sum(variances)) / len(ks))
    return PauliVector(comps, sigma)


@dataclass(frozen=True)
class FidelityResult:
    fidelity: float
    sigma_fidelity: float
    concurrence: float
    sigma_concurrence: float
    physical: bool


def _fidelity_concurrence(mats: np.ndarray, v: np.ndarray) -> tuple[list, list]:
    """Fidelities with the unit ket `v` and concurrences of a stack of
    reconstructed 4x4 matrices, as lists of floats.

    One `v^dag m v` product per matrix (a batched `einsum` moves the last
    bit); the concurrences share one batched eigenvalue call.
    """
    fids = [float(np.real(v.conj() @ m @ v)) for m in mats]
    return fids, concurrence_matrix(mats).tolist()


def fidelity_with_errors(pauli: PauliVector, target_ket) -> FidelityResult:
    """Fidelity and concurrence with error bars from +/-sigma perturbations.

    The central values come from the reconstructed matrix (computed even
    if slightly non-positive; `physical` flags that).  For each component
    the half-spread between the +sigma and -sigma re-evaluations is taken,
    and the per-component contributions combine in quadrature.
    """
    v = unit_ket(target_ket)
    vectors = [pauli]
    if pauli.sigma is not None:
        for i in np.flatnonzero(pauli.sigma):
            for sign in (1.0, -1.0):
                comps = pauli.components.copy()
                comps[i] += sign * pauli.sigma[i]
                vectors.append(PauliVector(comps))
    mats = np.stack([pauli_reconstruct(p) for p in vectors])
    fids, concs = _fidelity_concurrence(mats, v)
    physical = min_eigenvalue(mats[0]) >= -EIGENVALUE_TOL

    var_f = var_c = 0.0
    for j in range(1, len(vectors), 2):
        var_f += (0.5 * (fids[j] - fids[j + 1])) ** 2
        var_c += (0.5 * (concs[j] - concs[j + 1])) ** 2
    return FidelityResult(fids[0], float(np.sqrt(var_f)), concs[0], float(np.sqrt(var_c)), physical)


def bootstrap_errors(
    counts: CountsTable, a: AssignmentMatrix, target_ket, n_resamples: int = 200, seed: int = 0
) -> tuple[float, float]:
    """Parametric-bootstrap cross-check of the perturbation error bars.

    Resamples each setting's counts from its observed frequencies (one
    generator per resample), reconstructs the Pauli components of all
    resamples in one batch without propagating sigmas, and returns the
    standard deviations of the fidelity and concurrence over the
    resamples.  At the default 200 resamples it costs about ten times the
    +/-sigma propagation of `fidelity_with_errors` (14 ms against 1.2 ms
    on 10000-shot counts, one x86-64 core); the draws and the one matrix
    rebuilt per resample take most of it.  A spread needs at least two
    resamples.
    """
    if counts.shots_per_setting is None:
        raise ValidationError("bootstrap needs sampled counts, not probabilities")
    if not is_int(n_resamples) or n_resamples < 2:
        raise ValidationError(f"bootstrap needs at least 2 resamples (an int), got {n_resamples!r}")
    check_seed(seed, "seed")
    check_allocatable(n_resamples * 36, "resampled counts")
    v = unit_ket(target_ket)
    freqs = counts.frequencies()
    totals = counts.shots_per_setting
    n_k = totals.astype(np.int64)
    resampled = np.empty((n_resamples, 9, 4))
    for i in range(n_resamples):
        rng = np.random.default_rng([seed, 7919, i])
        resampled[i] = [rng.multinomial(n_k[k], freqs[k]) for k in range(9)]
    comps = _components((resampled / totals[:, None]) @ a.inverse().T)
    mats = np.stack([pauli_reconstruct(PauliVector(c)) for c in comps])
    fids, concs = _fidelity_concurrence(mats, v)
    return float(np.std(fids)), float(np.std(concs))


# ---------------------------------------------------------------------------
# JSON serialization (schemas documented in the README)

SCHEMA_VERSION = 1


def counts_to_json(counts: CountsTable) -> str:
    totals = counts.shots_per_setting
    doc = {
        "schema_version": SCHEMA_VERSION,
        "basis": list(BASIS_ORDER),
        "shots_per_setting": None if totals is None else totals.tolist(),
        "settings": [
            {
                "axes": list(SETTING_AXES[k]),
                "counts": [float(x) for x in counts.counts[k]],
            }
            for k in range(9)
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def json_numbers(value, what: str) -> np.ndarray:
    """A JSON number, or nested lists of them, as a float array; a bool, str,
    object, null or non-finite entry (NaN, Infinity, 1e999, 10**400) is rejected."""
    def number(x):
        if isinstance(x, list):
            return [number(v) for v in x]
        if isinstance(x, bool) or not isinstance(x, (int, float)) or not abs(x) <= float_info.max:
            raise ValidationError(f"{what} must be finite JSON numbers, got {x!r}")
        return x
    return np.asarray(number(value), dtype=float)


def _json_object(doc, what: str, *keys: str) -> dict:
    """`doc`, checked to be a JSON object whose `keys` all hold lists."""
    if not isinstance(doc, dict) or not all(isinstance(doc.get(k), list) for k in keys):
        raise ValidationError(f"{what} must be a JSON object with list values {list(keys)}")
    return doc


def _check_declared(doc: dict, **declared) -> None:
    """Each `declared` key that `doc` carries holds exactly its value here;
    a document may leave it out, and is then read as if it held it."""
    for key, value in declared.items():
        got = doc.get(key, value)
        if type(got) is not type(value) or got != value:
            raise ValidationError(f"{key} must be {json.dumps(value)}, got {json.dumps(got)}")


def counts_from_json(text: str) -> CountsTable:
    doc = _json_object(json.loads(text), "counts document", "basis", "settings")
    _check_declared(doc, schema_version=SCHEMA_VERSION)
    if doc["basis"] != list(BASIS_ORDER):
        raise ValidationError(f"counts basis must be {list(BASIS_ORDER)}")
    settings = doc["settings"]
    if len(settings) != 9:
        raise ValidationError("counts document must carry nine settings")
    counts = np.zeros((9, 4))
    seen = set()
    for entry in settings:
        axes = tuple(_json_object(entry, "each setting", "axes", "counts")["axes"])
        if axes not in SETTING_AXES:
            raise ValidationError(f"unknown setting axes {axes}")
        k = SETTING_AXES.index(axes)
        if k in seen:
            raise ValidationError(f"duplicate setting {axes}")
        seen.add(k)
        counts[k] = json_numbers(entry["counts"], "counts")
    totals = doc.get("shots_per_setting")
    if totals is not None:
        json_numbers(totals, "shots_per_setting")
    return CountsTable(counts, totals)


def assignment_to_json(a: AssignmentMatrix) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "basis": list(BASIS_ORDER),
        "rows_are_recorded_outcomes": True,
        "matrix": [[float(x) for x in row] for row in a.a],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def assignment_from_json(text: str) -> AssignmentMatrix:
    doc = _json_object(json.loads(text), "calibration document", "basis", "matrix")
    # rows_are_recorded_outcomes false would declare the transposed matrix
    _check_declared(doc, schema_version=SCHEMA_VERSION, rows_are_recorded_outcomes=True)
    if doc["basis"] != list(BASIS_ORDER):
        raise ValidationError(f"assignment basis must be {list(BASIS_ORDER)}")
    return AssignmentMatrix(json_numbers(doc["matrix"], "matrix"))
