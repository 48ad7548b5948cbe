"""Phenomenological single-photon-detector model.

The detector is not number resolving: any incident photon number >= 1
produces a click with one probability p_real, while an empty rail clicks
with the dark-count probability p_dark.  Measurement operators are
M_k = |0><k| on the measured rail, so both outcomes leave the rail in
vacuum and the two branch weights

    P_click    = p_dark <M0 rho M0> + p_real sum_{k>=1} <Mk rho Mk>
    P_no_click = (1-p_dark) <M0 rho M0> + (1-p_real) sum_{k>=1} <Mk rho Mk>

always add to one.  Dark count and real click are mutually exclusive
causes within a round; the closed-form two-round fidelity below is the
exact consequence of that composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import erf, sqrt

import numpy as np

from .qmath import ValidationError


@dataclass(frozen=True)
class DetectorRoundParams:
    """Per-round click model: p_dark on vacuum, p_real on any photon."""

    p_dark: float
    p_real: float

    def __post_init__(self):
        for name in ("p_dark", "p_real"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValidationError(f"{name}={v} outside [0, 1]")


def branch_matrices(
    mat: np.ndarray, dims, rail: int, params: DetectorRoundParams
) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized (click, no_click) branches of a bare joint matrix.

    Each branch is sum_k w_k M_k rho M_k^dag on `rail` with the click
    weights (p_dark, p_real, p_real, ...) or their complements.  M_k = |0><k|
    moves the rail's (k, k) block onto (0, 0), so the sum is taken by
    indexing the reshaped matrix rather than by embedded matrix products.
    """
    d = dims[rail]
    outer = int(np.prod(dims[:rail]))
    shape = (outer, d, mat.shape[0] // (outer * d))
    blocks = mat.reshape(shape + shape)
    w_click = [params.p_dark] + [params.p_real] * (d - 1)
    branches = []
    for weights in (w_click, [1.0 - w for w in w_click]):
        out = np.zeros_like(blocks)
        for k, w in enumerate(weights):
            if w != 0.0:
                out[:, 0, :, :, 0, :] += w * blocks[:, k, :, :, k, :]
        branches.append(out.reshape(mat.shape))
    return branches[0], branches[1]


def dark_count_fidelity(
    round1: DetectorRoundParams, round2: DetectorRoundParams
) -> float:
    """Closed-form fidelity of the doubly-heralded state, dark counts only.

    With d_i = p_dark and r_i = p_real of round i:

        F = (3 d1 d2 + d1 r2 + 4 r1 r2)
            / (11 d1 d2 + 8 d2 r1 + 9 d1 r2 + 4 r1 r2)

    Exactly equal to propagating the full two-round protocol and projecting
    the heralded state onto the odd Bell state (tested to 1e-9).
    """
    d1, r1 = round1.p_dark, round1.p_real
    d2, r2 = round2.p_dark, round2.p_real
    num = 3.0 * d1 * d2 + d1 * r2 + 4.0 * r1 * r2
    den = 11.0 * d1 * d2 + 8.0 * d2 * r1 + 9.0 * d1 * r2 + 4.0 * r1 * r2
    if den == 0.0:
        raise ValidationError("dark_count_fidelity undefined: zero denominator")
    return num / den


# ---------------------------------------------------------------------------
# readout threshold trade-off

def _gaussian_tail(x: float) -> float:
    """P(N(0,1) > x)."""
    return 0.5 * (1.0 - erf(x / sqrt(2.0)))


# Separation (in sigma units) of the click / no-click readout distributions.
# Fitted once so that a mid-point threshold gives a dark-to-click ratio of
# 0.1 with second-round base rates (0.005, 0.26); a descriptive default,
# not a measured quantity.
DEFAULT_SEPARATION = 4.0171


def readout_threshold_model(
    snr_separation: float, threshold: float, base: DetectorRoundParams
) -> tuple[float, float, float]:
    """Effective (p_dark, p_click, ratio) after thresholding the readout.

    The detector readout is modeled as two unit-variance Gaussians: the
    no-click population at 0 and the click population at `snr_separation`.
    A shot is recorded as a click when its readout exceeds `threshold`
    (same units).  Raising the threshold trades click probability for a
    smaller dark-count ratio; the ratio is monotone decreasing in the
    threshold.
    """
    if snr_separation <= 0.0:
        raise ValidationError("snr_separation must be positive")
    q_click = _gaussian_tail(threshold - snr_separation)
    q_noclick = _gaussian_tail(threshold)

    def mix(p_event: float) -> float:
        return p_event * q_click + (1.0 - p_event) * q_noclick

    p_dark_eff = mix(base.p_dark)
    p_click_eff = mix(base.p_real)
    if p_click_eff <= 0.0:
        ratio = float("nan")
    else:
        ratio = p_dark_eff / p_click_eff
    return p_dark_eff, p_click_eff, ratio


def fit_separation(
    base: DetectorRoundParams, target_midpoint_ratio: float = 0.1
) -> float:
    """Separation whose mid-point-threshold ratio equals the target.

    Bisection on the (monotone in separation) mid-point ratio; used once
    to pin DEFAULT_SEPARATION.
    """
    lo, hi = 0.5, 12.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        _, _, ratio = readout_threshold_model(mid, mid / 2.0, base)
        if ratio > target_midpoint_ratio:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
