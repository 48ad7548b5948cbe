"""Dense complex linear algebra and quantum-state primitives.

Everything downstream (photon rails, detector model, protocol engine,
tomography) works on small dense matrices: the largest space in the
simulator is 36-dimensional (two qubits x two three-level photon rails),
so plain contiguous numpy arrays beat any sparse machinery.

Conventions pinned here and used everywhere else:

* qubit basis index 0 = |g>, index 1 = |e>
* Z|g> = +|g>, Z|e> = -|e>  (so the odd Bell states have <ZZ> = -1)
* two-qubit computational order (gg, ge, eg, ee)
* Pauli-vector order: (P, Q) with P, Q in (I, X, Y, Z), row-major,
  i.e. II, IX, IY, IZ, XI, XX, ... ZZ.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
EIGENVALUE_TOL = 1e-9

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULIS = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

PAULI_LABELS = tuple(p + q for p in "IXYZ" for q in "IXYZ")

# 16 two-qubit Pauli operators in PAULI_LABELS order.
TWO_QUBIT_PAULIS = np.array(
    [np.kron(_PAULIS[l[0]], _PAULIS[l[1]]) for l in PAULI_LABELS]
)


class ValidationError(ValueError):
    """A state or operator failed a structural invariant."""


@dataclass(frozen=True)
class DensityMatrix:
    """Two-qubit density matrix, the state the protocol heralds.

    `matrix` is a 4x4 complex matrix in the computational order (gg, ge,
    eg, ee); any other shape is rejected before the residual checks.  The
    constructor checks the residuals `hermiticity_error` and `trace_error`
    (HERMITICITY_TOL and TRACE_TOL, 1e-10 each) and `min_eigenvalue` (at least
    -EIGENVALUE_TOL, -1e-9).  Instances are immutable; all
    operations return new values, so they are safe to share across threads.
    """

    matrix: np.ndarray = field(repr=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise ValidationError(f"matrix shape {mat.shape} is not the two-qubit (4, 4)")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("matrix contains non-finite entries")
        # each written so that a NaN residual fails
        if not hermiticity_error(mat) <= HERMITICITY_TOL:
            raise ValidationError(f"matrix is not Hermitian within {HERMITICITY_TOL:.0e}")
        if not trace_error(mat) <= TRACE_TOL:
            raise ValidationError(
                f"trace {np.trace(mat).real} differs from 1 beyond {TRACE_TOL:.0e}"
            )
        if not min_eigenvalue(mat) >= -EIGENVALUE_TOL:
            raise ValidationError(f"negative eigenvalue {min_eigenvalue(mat):.3e} below -1e-9")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def from_ket(cls, ket) -> "DensityMatrix":
        """Pure state |psi><psi| from a (normalized or not) two-qubit ket."""
        v = unit_ket(ket)
        return cls(np.outer(v, v.conj()))


@dataclass(frozen=True)
class PauliVector:
    """The 16 two-qubit Pauli expectation values, optionally with errors.

    `components` follows PAULI_LABELS order.  `sigma` carries one standard
    error per component when the vector came from sampled data; exact
    decompositions leave it None.  Finite-shot estimates may poke slightly
    outside [-1, 1]; that is reported as-is, never clipped.
    """

    components: np.ndarray
    sigma: np.ndarray | None = None

    def __post_init__(self):
        comps = np.asarray(self.components, dtype=float).ravel()
        if comps.shape != (16,):
            raise ValidationError("PauliVector needs exactly 16 components")
        if not np.all(np.isfinite(comps)):
            raise ValidationError("PauliVector components must be finite")
        comps = comps.copy()
        comps.setflags(write=False)
        object.__setattr__(self, "components", comps)
        if self.sigma is not None:
            sig = np.asarray(self.sigma, dtype=float).ravel()
            # written so that NaN fails
            if sig.shape != (16,) or not np.all((sig >= 0.0) & (sig < np.inf)):
                raise ValidationError("sigma must be 16 finite, non-negative reals")
            sig = sig.copy()
            sig.setflags(write=False)
            object.__setattr__(self, "sigma", sig)

    def component(self, label: str) -> float:
        return float(self.components[PAULI_LABELS.index(label)])


# ---------------------------------------------------------------------------
# computational and Bell-state kets

def unit_ket(ket) -> np.ndarray:
    """Two-qubit `ket` as a flat complex unit vector; ValidationError for a
    size other than 4 or a zero or non-finite norm."""
    v = np.asarray(ket, dtype=complex).ravel()
    if v.size != 4:
        raise ValidationError(f"ket has {v.size} entries, expected 4")
    norm = np.linalg.norm(v)
    if not (np.isfinite(norm) and norm > 0.0):
        raise ValidationError(f"ket norm {norm} is not finite and positive")
    return v / norm


def basis_ket(dim: int, index: int) -> np.ndarray:
    v = np.zeros(dim, dtype=complex)
    v[index] = 1.0
    return v


def two_qubit_ket(label: str) -> np.ndarray:
    """Computational two-qubit ket from a label like 'ge' (order gg,ge,eg,ee)."""
    idx = {"g": 0, "e": 1}
    i = 2 * idx[label[0]] + idx[label[1]]
    return basis_ket(4, i)


def bell_odd_plus() -> np.ndarray:
    """(|ge> + |eg>)/sqrt(2), the heralded target state."""
    return (two_qubit_ket("ge") + two_qubit_ket("eg")) / np.sqrt(2.0)


def bell_odd_minus() -> np.ndarray:
    """(|ge> - |eg>)/sqrt(2)."""
    return (two_qubit_ket("ge") - two_qubit_ket("eg")) / np.sqrt(2.0)


# ---------------------------------------------------------------------------
# core operations

def is_int(value) -> bool:
    """A Python integer that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def check_seed(seed, name: str) -> None:
    """Seeds are integers in [0, 2**128), the Philox key range, for every
    sampling function, a config file and the CLI; a float is never truncated."""
    if not is_int(seed) or not 0 <= seed < 2**128:
        raise ValidationError(f"{name} must be a non-negative integer below 2**128")


def check_allocatable(n: int, what: str) -> None:
    """MemoryError for an array of `n` elements that no address space holds."""
    # numpy refuses 2^63 bytes or more with a ValueError, not a MemoryError;
    # more than 2^59 elements is beyond any memory already
    if n > 2**59:
        raise MemoryError(f"Unable to allocate {n} {what}: more than any address space holds")


def trace_error(mat: np.ndarray) -> float:
    """Trace residual |Re Tr(mat) - 1|; every trace guard checks this."""
    return abs(float(np.trace(mat).real) - 1.0)


def hermiticity_error(mat: np.ndarray) -> float:
    """Hermiticity residual, the largest entry of |mat - mat^dag|."""
    return float(np.max(np.abs(mat - mat.conj().T)))


def min_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix (its lower triangle is read)."""
    return float(np.linalg.eigvalsh(mat).min())


def partial_trace_matrix(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced matrix over the kept subsystems (indices in `keep`).

    Subsystem order is preserved; no state validation, so it also reduces
    unnormalized branch matrices.
    """
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    reshaped = mat.reshape(tuple(dims) + tuple(dims))
    for idx in sorted(traced, reverse=True):
        ndim_half = reshaped.ndim // 2
        reshaped = np.trace(reshaped, axis1=idx, axis2=idx + ndim_half)
    kept_dim = int(np.prod([dims[i] for i in keep])) if keep else 1
    return reshaped.reshape(kept_dim, kept_dim)


def embed_operator(op: np.ndarray, dims, targets) -> np.ndarray:
    """Embed an operator acting on `targets` into the full product space.

    `targets` is an ordered tuple of subsystem indices; `op` must have
    dimension prod(dims[t] for t in targets) and is applied with its axes
    in the given target order.
    """
    dims = tuple(int(d) for d in dims)
    targets = tuple(int(t) for t in targets)
    if len(set(targets)) != len(targets):
        raise ValidationError("duplicate target indices")
    if any(t < 0 or t >= len(dims) for t in targets):
        raise ValidationError(f"targets {targets} out of range for {dims}")
    op = np.asarray(op, dtype=complex)
    t_dim = int(np.prod([dims[t] for t in targets]))
    if op.shape != (t_dim, t_dim):
        raise ValidationError(
            f"operator shape {op.shape} does not match targets {targets}"
        )
    n = len(dims)
    rest = [i for i in range(n) if i not in targets]
    perm = list(targets) + rest
    rest_dim = int(np.prod([dims[i] for i in rest])) if rest else 1

    full = np.kron(op, np.eye(rest_dim, dtype=complex))
    # full acts on (targets..., rest...); permute back to natural order
    order_dims = [dims[i] for i in perm]
    full = full.reshape(order_dims + order_dims)
    inv = np.argsort(perm)
    full = full.transpose(tuple(inv) + tuple(inv + n))
    d = int(np.prod(dims))
    return np.ascontiguousarray(full.reshape(d, d))


def apply_kraus_matrix(mat: np.ndarray, ops) -> np.ndarray:
    """Raw sum_k K rho K^dag on a bare matrix; no normalization or checks.

    `ops` are full-space operators, already embedded by the caller (a
    unitary is a one-element list); nothing is built here.  `mat` and each
    K may be stacks, shape (..., n, n), which broadcast as in `@`: each
    slice's product is its own zgemm call, the same as for one matrix.
    Photon loss and detector clicks are applied on the detector rail's
    (k, k) blocks instead, by `photonics.apply_loss_diagonal` and
    `detector.branch_levels`.
    """
    out = np.zeros_like(mat)
    for k in ops:
        out += k @ mat @ k.conj().mT
    return out


def pauli_decompose(rho: DensityMatrix) -> PauliVector:
    """Two-qubit Pauli expectation values c_PQ = Tr(rho P x Q).

    The inverse is `pauli_reconstruct`; the round trip is exact to 1e-12.
    """
    comps = np.einsum("kij,ji->k", TWO_QUBIT_PAULIS, rho.matrix).real
    return PauliVector(comps)


def pauli_reconstruct(pauli: PauliVector) -> np.ndarray:
    """rho = (1/4) sum_PQ c_PQ P x Q as a bare 4x4 matrix.

    Finite-shot Pauli vectors can give a non-positive matrix, so no
    DensityMatrix validation is applied here.
    """
    return np.tensordot(pauli.components, TWO_QUBIT_PAULIS, axes=1) / 4.0


def state_fidelity(rho: DensityMatrix, target_ket) -> float:
    """<psi|rho|psi> against a pure target ket."""
    v = unit_ket(target_ket)
    return float(np.real(v.conj() @ rho.matrix @ v))


def concurrence_matrix(mat: np.ndarray) -> np.ndarray:
    """Wootters construction on a bare 4x4 matrix or a (..., 4, 4) stack;
    no physicality checks.  Returns an array of shape mat.shape[:-2].

    Needed for finite-shot reconstructions, which may be slightly
    non-positive but still have a well-defined concurrence estimate.  A
    stack gives each matrix the bits it gets alone: the products and the
    eigenvalue call run matrix by matrix inside numpy and LAPACK.
    """
    yy = np.kron(PAULI_Y, PAULI_Y)
    m = mat @ yy @ mat.conj() @ yy
    eigs = np.linalg.eigvals(m).real
    eigs = np.sqrt(np.clip(eigs, 0.0, None))
    eigs = np.sort(eigs, axis=-1)[..., ::-1]
    return np.maximum(0.0, eigs[..., 0] - eigs[..., 1] - eigs[..., 2] - eigs[..., 3])


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit state.

    max(0, l1 - l2 - l3 - l4) with l_i the descending square roots of the
    eigenvalues of rho (Y x Y) rho* (Y x Y).  Tiny negative eigenvalues
    from rounding are clamped to zero here (and only here).
    """
    return float(concurrence_matrix(rho.matrix))
