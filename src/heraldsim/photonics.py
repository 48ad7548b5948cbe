"""Dual-rail flying-photon Fock space: beam splitter, emission, loss.

The two flying channels are truncated harmonic oscillators; the protocol
keeps `protocol.N_MAX` = 2 photons per rail (the doubly-excited qubit
branch interferes into a two-photon state, and none holds more).  The
emission and loss operators are built for a rail dimension d; the beam
splitter exists only for d = 3, the protocol's one space.

Port/phase convention, pinned once and tested: the 50/50 beam splitter is
the exponential of -(3*pi/4) * (a^dag b - a b^dag) on the truncated space.
It maps, exactly,

    |00>                  -> |00>
    (|10>+|01>)/sqrt(2)   -> -|10>          (first rail = detector rail)
    (|10>-|01>)/sqrt(2)   -> +|01>          (second rail = cold load)
    |11>                  -> (|20>-|02>)/sqrt(2)   (two-photon interference)

The branch signs are what the generator actually produces; they are
unobservable downstream because the heralding measurement separates the
branches incoherently.  States of total photon number <= 2 are closed
under the truncated generator, so the truncation is exact for every state
the protocol produces; the blocks of three and four photons are
truncation artefacts that no protocol state reaches.

The splitter is a recorded table, `_SPLITTER_REAL`, not computed at run
time: the output of `scipy.linalg.expm` (Al-Mohy & Higham scaling and
squaring, SIAM J. Matrix Anal. Appl. 31, 970 (2009)) on that generator
at d = 3, from scipy 1.17.1 and numpy 2.4.6 on OpenBLAS 0.3.31's SkylakeX
kernel, written out with `float.hex`.  Its bits therefore do not depend
on the scipy build or BLAS kernel that runs.  The tests rebuild the
splitter with `expm` for d = 3-5 as the reference it must match.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .qmath import ValidationError


def annihilation(dim: int) -> np.ndarray:
    """Truncated annihilation operator a|n> = sqrt(n)|n-1>."""
    a = np.zeros((dim, dim), dtype=complex)
    for n in range(1, dim):
        a[n - 1, n] = np.sqrt(n)
    return a


# Real parts of the splitter, (row, column) -> float.hex, where the index of
# |n_det, n_load> is 3 * n_det + n_load.  Every entry not listed, and every
# imaginary part, is +0.0; the four -0.0 entries are part of the record.
_SPLITTER_REAL = {
    (0, 0): "0x1.0000000000000p+0",
    (1, 1): "-0x1.6a09e667f3bccp-1",
    (1, 3): "0x1.6a09e667f3bcdp-1",
    (1, 8): "-0x0.0p+0",
    (2, 2): "0x1.ffffffffffffap-2",
    (2, 4): "-0x1.6a09e667f3bcdp-1",
    (2, 6): "0x1.0000000000003p-1",
    (3, 1): "-0x1.6a09e667f3bcdp-1",
    (3, 3): "-0x1.6a09e667f3bcdp-1",
    (3, 8): "-0x0.0p+0",
    (4, 2): "0x1.6a09e667f3bd0p-1",
    (4, 4): "-0x1.c000000000000p-52",
    (4, 6): "-0x1.6a09e667f3bd0p-1",
    (5, 5): "0x1.140fc6a79d44ap-50",
    (5, 7): "-0x1.0000000000001p+0",
    (5, 8): "-0x0.0p+0",
    (6, 2): "0x1.0000000000002p-1",
    (6, 4): "0x1.6a09e667f3bcap-1",
    (6, 6): "0x1.ffffffffffffdp-2",
    (7, 5): "0x1.0000000000001p+0",
    (7, 7): "0x1.0b77a62659890p-50",
    (7, 8): "-0x0.0p+0",
    (8, 8): "0x1.0000000000000p+0",
}


def beam_splitter_unitary() -> np.ndarray:
    """50/50 beam splitter on the two-rail space of 2 photons per rail,
    exp(-3pi/4 (a^dag b - a b^dag)), as a new (9, 9) complex array.

    Unitary on the whole truncated space and block diagonal in total photon
    number; see module docstring for the pinned port mapping and for where
    the recorded bits come from.
    """
    u = np.zeros((9, 9), dtype=complex)
    for (row, col), bits in _SPLITTER_REAL.items():
        u[row, col] = float.fromhex(bits)
    return u


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


def apply_loss_diagonal(levels: np.ndarray, ops) -> np.ndarray:
    """Pure loss on a rail's diagonal blocks, for each slice of a stack.

    `levels[s, ..., n]` is an entry of slice s in the rail's (n, n) block
    (the level axis last), and `ops[s]` is slice s's `loss_kraus` list.
    K_k moves level n to n - k with the weight c_n on its k-th
    superdiagonal, so the output's (n, n) block is filled from the input's
    (n + k, n + k) blocks alone.  Each entry is (c_n x) conj(c_n) added onto
    zeros in ascending k: the order and rounding of
    `qmath.apply_kraus_matrix` over the `embed_operator`-embedded K_k, whose
    (n, n) blocks this equals bit for bit.
    """
    out = np.zeros_like(levels)
    d = levels.shape[-1]
    shape = (len(ops),) + (1,) * (levels.ndim - 2) + (-1,)
    for k, c in enumerate(_superdiagonals(ops)):
        c = c.reshape(shape)
        out[..., :d - k] += (c * levels[..., k:]) * np.conj(c)
    return out


def _superdiagonals(ops) -> list[np.ndarray]:
    """c_k[s] = the k-th superdiagonal of K_k in `ops[s]`, stacked over s."""
    return [np.stack([np.diagonal(kraus[k], k) for kraus in ops]) for k in range(len(ops[0]))]
