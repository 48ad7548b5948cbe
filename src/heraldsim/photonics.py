"""Dual-rail flying-photon Fock space: beam splitter, emission, loss.

The two flying channels are truncated harmonic oscillators; the protocol
keeps `protocol.N_MAX` = 2 photons per rail (the doubly-excited qubit
branch interferes into a two-photon state, and none holds more).  Every
operator here is built for a rail dimension d, so larger d can be tested too.

Port/phase convention, pinned once and tested: the 50/50 beam splitter is
the exponential of -(3*pi/4) * (a^dag b - a b^dag) on the truncated space.
It maps, exactly,

    |00>                  -> |00>
    (|10>+|01>)/sqrt(2)   -> -|10>          (first rail = detector rail)
    (|10>-|01>)/sqrt(2)   -> +|01>          (second rail = cold load)
    |11>                  -> (|20>-|02>)/sqrt(2)   (two-photon interference)

The branch signs are what the generator actually produces; they are
unobservable downstream because the heralding measurement separates the
branches incoherently.  States of total photon number <= d - 1 are closed
under the truncated generator, so the truncation is exact for every state
the protocol produces.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .qmath import ValidationError, subsystem_blocks


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


def beam_splitter_unitary(d: int) -> np.ndarray:
    """50/50 beam splitter on the two-rail space, exp(-3pi/4 (a^dag b - a b^dag)).

    Unitary on the whole truncated space and block diagonal in total photon
    number; see module docstring for the pinned port mapping.
    """
    from scipy.linalg import expm  # here, so commands without a splitter never load scipy

    a = annihilation(d)
    eye = np.eye(d, dtype=complex)
    gen = np.kron(a.conj().T, eye) @ np.kron(eye, a) - np.kron(a, eye) @ np.kron(
        eye, a.conj().T
    )
    return expm(-3.0 * np.pi / 4.0 * gen)


def emission_unitary(d: int) -> np.ndarray:
    """Qubit-conditioned photon emission on (qubit x rail).

    Acts as |g,n> -> |g,n> and, for the excited qubit, swaps the rail's
    |0> and |1> levels (|2> untouched): on a vacuum rail this is exactly
    the ideal map |g0> -> |g0>, |e0> -> |e1>.  The conditional-swap
    completion fixes what "emitting into an occupied rail" means for the
    mid-protocol branches where a previous photon is still in flight on
    the load rail; the closed-form dark-count fidelity check pins this
    convention.
    """
    swap01 = np.eye(d, dtype=complex)
    swap01[0, 0] = swap01[1, 1] = 0.0
    swap01[0, 1] = swap01[1, 0] = 1.0
    u = np.zeros((2 * d, 2 * d), dtype=complex)
    u[:d, :d] = np.eye(d)
    u[d:, d:] = swap01
    return u


def loss_kraus(d: int, eta: float) -> list[np.ndarray]:
    """Kraus operators of the pure-loss channel with transmissivity eta.

    K_k = sum_n sqrt(C(n,k)) sqrt(eta^(n-k) (1-eta)^k) |n-k><n|.
    """
    if not 0.0 <= eta <= 1.0:
        raise ValidationError("eta must lie in [0, 1]")
    ops = []
    for k in range(d):
        m = np.zeros((d, d), dtype=complex)
        for n in range(k, d):
            m[n - k, n] = np.sqrt(comb(n, k) * eta ** (n - k) * (1.0 - eta) ** k)
        ops.append(m)
    return ops


def apply_loss(mat: np.ndarray, dims, rail: int, ops) -> np.ndarray:
    """sum_k K_k mat K_k^dag on `rail` for the `loss_kraus` operators `ops`.

    K_k moves level n to n - k with the weight c_n on its k-th
    superdiagonal, so each term is one slice update of the
    `qmath.subsystem_blocks` view, taken in ascending k as
    (c_n x) conj(c_m).  That is the order and rounding of
    `qmath.apply_kraus_matrix` over the embedded operators, whose result
    this equals bit for bit.
    """
    blocks = subsystem_blocks(mat, dims, rail)
    out = np.zeros_like(blocks)
    d = dims[rail]
    for k, op in enumerate(ops):
        c = np.diagonal(op, k)
        out[:, :d - k, :, :, :d - k, :] += (
            c[:, None, None, None, None] * blocks[:, k:, :, :, k:, :]
        ) * np.conj(c)[:, None]
    return out.reshape(mat.shape)
