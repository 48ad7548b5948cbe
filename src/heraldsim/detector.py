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


def branch_levels(levels: np.ndarray, params) -> tuple[np.ndarray, np.ndarray]:
    """Level-0 blocks of the unnormalized (click, no_click) branches of a stack.

    `levels[s, ..., k]` is the (k, k) block of the measured rail in slice s
    (the level axis last), and `params[s]` is that slice's
    `DetectorRoundParams`.  M_k = |0><k| moves the (k, k) block onto
    (0, 0), so each branch's level-0 block is sum_k w_k levels[..., k] with
    the click weights (p_dark, p_real, p_real, ...) or their complements,
    added in ascending k onto zeros; every other block of a branch is zero.
    A zero weight adds an exact zero and changes no bit.  Both rounds of
    the protocol engine detect through this one function.
    """
    d = levels.shape[-1]
    w_click = np.array([[p.p_dark] + [p.p_real] * (d - 1) for p in params])
    shape = (len(params),) + (1,) * (levels.ndim - 2)
    branches = []
    for weights in (w_click, 1.0 - w_click):
        out = np.zeros(levels.shape[:-1], dtype=levels.dtype)
        for k in range(d):
            out += weights[:, k].reshape(shape) * levels[..., k]
        branches.append(out)
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

