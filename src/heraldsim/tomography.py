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
from parity sums of the (corrected) outcome probabilities.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from sys import float_info

import numpy as np

from .qmath import (
    PAULI_LABELS,
    DensityMatrix,
    PauliVector,
    ValidationError,
    concurrence_matrix,
    pauli_reconstruct,
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
    """Shot budget per setting for the nine SETTING_AXES pre-rotations."""

    shots_per_setting: int = 200_000

    def __post_init__(self):
        if self.shots_per_setting < 1:
            raise ValidationError("shots_per_setting must be positive")


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts (or exact probabilities) for the nine settings.

    counts has shape (9, 4) in SETTING_AXES x BASIS_ORDER layout.  For
    sampled data rows hold integers summing to shots_per_setting: one
    shot budget shared by all settings, or nine per-setting totals (as
    post-selected data has, since heralding is random).  For the
    infinite-shot mode (shots_per_setting None) rows hold probabilities
    summing to one.
    """

    counts: np.ndarray
    shots_per_setting: int | np.ndarray | None

    def __post_init__(self):
        c = np.asarray(self.counts, dtype=float)
        if c.shape != (9, 4):
            raise ValidationError("counts must be 9 settings x 4 outcomes")
        if not np.all(np.isfinite(c) & (c >= 0)):
            raise ValidationError("counts must be finite and non-negative")
        if self.shots_per_setting is not None and np.ndim(self.shots_per_setting) != 0:
            totals = np.array(self.shots_per_setting, dtype=float)
            if totals.shape != (9,):
                raise ValidationError("per-setting totals must have nine entries")
            totals.setflags(write=False)
            object.__setattr__(self, "shots_per_setting", totals)
        target = self.setting_totals()
        if target is None:
            target = np.ones(9)
        elif not np.all(np.isfinite(target) & (target > 0)):
            raise ValidationError("shot totals must be positive and finite")
        if np.any(np.abs(c.sum(axis=1) - target) > 1e-6 * np.maximum(target, 1.0)):
            raise ValidationError("each setting's counts must sum to the shot budget")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    def setting_totals(self) -> np.ndarray | None:
        """Shots of each setting (length 9), or None for probabilities."""
        if self.shots_per_setting is None:
            return None
        if isinstance(self.shots_per_setting, np.ndarray):
            return self.shots_per_setting
        return np.full(9, float(self.shots_per_setting))

    def frequencies(self) -> np.ndarray:
        totals = self.setting_totals()
        if totals is None:
            return self.counts.copy()
        return self.counts / totals[:, None]


def imperfect_projectors(a: AssignmentMatrix) -> list[np.ndarray]:
    """Pi_j = sum_i A[j, i] |i><i|, diagonal in the computational basis.

    Completeness sum_j Pi_j = 1 holds exactly when columns sum to one.
    """
    return [np.diag(a.a[j, :]).astype(complex) for j in range(4)]


def outcome_probabilities(rho: DensityMatrix, a: AssignmentMatrix) -> np.ndarray:
    """Exact (9, 4) outcome probabilities P[k, j] = Tr(Pi_j R_k rho R_k^dag)."""
    if rho.dims not in ((2, 2), (4,)):
        raise ValidationError("tomography needs a two-qubit state")
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
    rho: DensityMatrix,
    a: AssignmentMatrix,
    settings: TomographySettings | None,
    seed: int | None = None,
) -> CountsTable:
    """Sample the joint-readout counts for all nine settings.

    Each setting draws from its own generator keyed by (seed, setting
    index), so per-setting sampling is reproducible and order-independent.
    Passing settings=None returns the exact outcome probabilities (the
    infinite-shot limit).
    """
    probs = outcome_probabilities(rho, a)
    if settings is None:
        return CountsTable(probs, None)
    if seed is None:
        raise ValidationError("sampled counts need an explicit seed")
    counts = np.empty((9, 4))
    for k in range(9):
        rng = np.random.default_rng([int(seed), k])
        counts[k] = rng.multinomial(settings.shots_per_setting, probs[k])
    return CountsTable(counts, settings.shots_per_setting)


_LABEL_TO_SETTINGS: dict[str, list[int]] = {}
for _label in PAULI_LABELS:
    _p, _q = _label[0], _label[1]
    if _label == "II":
        _LABEL_TO_SETTINGS[_label] = []
    elif _p == "I":
        _LABEL_TO_SETTINGS[_label] = [
            k for k, ax in enumerate(SETTING_AXES) if ax[1] == _q
        ]
    elif _q == "I":
        _LABEL_TO_SETTINGS[_label] = [
            k for k, ax in enumerate(SETTING_AXES) if ax[0] == _p
        ]
    else:
        _LABEL_TO_SETTINGS[_label] = [SETTING_AXES.index((_p, _q))]


def _component_signs(label: str) -> np.ndarray:
    p, q = label[0], label[1]
    s = np.ones(4)
    if p != "I":
        s = s * _SIGN_A
    if q != "I":
        s = s * _SIGN_B
    return s


def reconstruct_pauli(
    counts: CountsTable, a: AssignmentMatrix | None = None
) -> PauliVector:
    """Pauli expectation values from counts, optionally readout-corrected.

    Correlators come from the matching setting's parity sum; single-qubit
    components average the three settings sharing that qubit's axis.
    Statistical errors propagate the multinomial covariance of each
    setting, with that setting's own shot total, through the inversion
    (sigma is None in the infinite-shot mode).
    """
    freqs = counts.frequencies()
    n_k = counts.setting_totals()
    inv = a.inverse() if a is not None else np.eye(4)

    corrected = freqs @ inv.T
    covs = None
    if n_k is not None:
        covs = []
        for k in range(9):
            q = freqs[k]
            cov_q = (np.diag(q) - np.outer(q, q)) / n_k[k]
            covs.append(inv @ cov_q @ inv.T)

    comps = np.zeros(16)
    sigma = np.zeros(16) if covs is not None else None
    for idx, label in enumerate(PAULI_LABELS):
        if label == "II":
            comps[idx] = 1.0
            continue
        signs = _component_signs(label)
        ks = _LABEL_TO_SETTINGS[label]
        vals = [float(signs @ corrected[k]) for k in ks]
        comps[idx] = float(np.mean(vals))
        if sigma is not None:
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


def fidelity_with_errors(pauli: PauliVector, target_ket) -> FidelityResult:
    """Fidelity and concurrence with error bars from +/-sigma perturbations.

    The central values come from the reconstructed matrix (computed even
    if slightly non-positive; `physical` flags that).  For each component
    the half-spread between the +sigma and -sigma re-evaluations is taken,
    and the per-component contributions combine in quadrature.
    """
    v = np.asarray(target_ket, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    if v.size != 4:
        raise ValidationError("target must be a two-qubit ket")

    def metrics(components: np.ndarray) -> tuple[float, float]:
        mat = pauli_reconstruct(PauliVector(components))
        fid = float(np.real(v.conj() @ mat @ v))
        return fid, concurrence_matrix(mat)

    central_mat = pauli_reconstruct(pauli)
    fid, conc = metrics(pauli.components)
    physical = bool(np.linalg.eigvalsh(central_mat).min() >= -1e-9)

    sig_f = sig_c = 0.0
    if pauli.sigma is not None and np.any(pauli.sigma > 0.0):
        var_f = var_c = 0.0
        for i in range(16):
            s = pauli.sigma[i]
            if s == 0.0:
                continue
            up = pauli.components.copy()
            dn = pauli.components.copy()
            up[i] += s
            dn[i] -= s
            f_up, c_up = metrics(up)
            f_dn, c_dn = metrics(dn)
            var_f += (0.5 * (f_up - f_dn)) ** 2
            var_c += (0.5 * (c_up - c_dn)) ** 2
        sig_f, sig_c = float(np.sqrt(var_f)), float(np.sqrt(var_c))
    return FidelityResult(fid, sig_f, conc, sig_c, physical)


def bootstrap_errors(
    counts: CountsTable,
    a: AssignmentMatrix | None,
    target_ket,
    n_resamples: int = 200,
    seed: int = 0,
) -> tuple[float, float]:
    """Parametric-bootstrap cross-check of the perturbation error bars.

    Resamples each setting's counts from its observed frequencies,
    reconstructs, and returns the standard deviations of the fidelity and
    concurrence over the resamples.  Slower than the deterministic
    +/-sigma propagation and kept as an optional consistency check.
    """
    if counts.shots_per_setting is None:
        raise ValidationError("bootstrap needs sampled counts, not probabilities")
    v = np.asarray(target_ket, dtype=complex).ravel()
    v = v / np.linalg.norm(v)
    freqs = counts.frequencies()
    n_k = counts.setting_totals().astype(np.int64)
    fids, concs = [], []
    for i in range(n_resamples):
        rng = np.random.default_rng([int(seed), 7919, i])
        resampled = np.stack([rng.multinomial(n_k[k], freqs[k]) for k in range(9)])
        pauli = reconstruct_pauli(CountsTable(resampled, counts.shots_per_setting), a)
        mat = pauli_reconstruct(pauli)
        fids.append(float(np.real(v.conj() @ mat @ v)))
        concs.append(concurrence_matrix(mat))
    return float(np.std(fids)), float(np.std(concs))


# ---------------------------------------------------------------------------
# JSON serialization (schemas documented in the README)

SCHEMA_VERSION = 1


def counts_to_json(counts: CountsTable) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "basis": list(BASIS_ORDER),
        "shots_per_setting": (
            counts.shots_per_setting.tolist()
            if isinstance(counts.shots_per_setting, np.ndarray)
            else counts.shots_per_setting
        ),
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


def counts_from_json(text: str) -> CountsTable:
    doc = _json_object(json.loads(text), "counts document", "basis", "settings")
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
    if doc["basis"] != list(BASIS_ORDER):
        raise ValidationError(f"assignment basis must be {list(BASIS_ORDER)}")
    return AssignmentMatrix(json_numbers(doc["matrix"], "matrix"))
