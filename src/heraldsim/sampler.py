"""Shot-level Monte Carlo realization of the protocol with post-selection.

Sampling happens at the outcome-branch level, which is exact for this
model: the analytic engine supplies the four heralding-branch
probabilities and conditional states, each shot draws an initialization
flag, a branch, and a joint-readout outcome through the assignment
matrix.  Tomography settings cycle round-robin over the initialized
shots, mirroring interleaved data taking; post-selection (keeping doubly
heralded shots) happens only in the aggregation step, as in the analysis
of a real dataset.

Randomness is counter-based: one Philox stream keyed by the seed supplies
a fixed block of three uniforms per shot, so shot i's randomness is a
pure function of (seed, i) and identical runs are bit-identical.  Shots
are drawn in fixed row chunks (`_CHUNK`) from that one stream, which
yields the same doubles as a single draw, so a run holds its output
columns plus one chunk of working arrays, whatever the shot count.

Shots are stored column-wise (`Shots`): one numpy array per recorded
quantity, shot i in row i, so sampling, aggregation and the CSV writer
never build per-shot Python objects.  The columns are bool and int8,
5 bytes per shot.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np

from .protocol import OutcomeTable, ProtocolConfig, run_two_rounds
from .qmath import PauliVector, ValidationError
from .tomography import (
    BASIS_ORDER,
    AssignmentMatrix,
    CountsTable,
    outcome_probabilities,
    reconstruct_pauli,
)

BRANCH_ORDER = ((True, True), (True, False), (False, True), (False, False))

# rows per chunk, both for drawing shots and for writing the CSV
_CHUNK = 1 << 16

# (click1, click2) of each branch index
_BRANCH_CLICKS = np.array(BRANCH_ORDER)


@dataclass(frozen=True, eq=False)
class Shots:
    """n protocol repetitions as read-only columns; shot i is row i.

    init_ok, click1 and click2 are boolean (the clicks are False when
    initialization failed).  tomo_setting (0-8) and outcome (0-3, in
    `tomography.BASIS_ORDER`) are int8, -1 when initialization failed: no
    tomography result is recorded for those shots.  Values are range-checked
    as given, before narrowing, so an out-of-range input is rejected rather
    than wrapped.  An array that already has its column's dtype is not
    copied: Shots takes ownership of it and makes it read-only.  Compare two
    Shots column by column; `==` is identity.
    """

    init_ok: np.ndarray
    click1: np.ndarray
    click2: np.ndarray
    tomo_setting: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        n = np.shape(self.init_ok)[0] if np.ndim(self.init_ok) == 1 else -1
        # largest value of each column; None for the boolean ones
        for f, top in zip(fields(self), (None, None, None, 8, 3)):
            col = np.asarray(getattr(self, f.name))
            if col.shape != (n,):
                raise ValidationError("shot columns must be 1-D and of equal length")
            if top is None:
                col = np.array(col, dtype=bool, copy=None)
            else:
                if col.dtype.kind not in "iu":
                    col = np.array(col, dtype=np.int64)
                if n and (col.min() < -1 or col.max() > top):
                    raise ValidationError(
                        "tomo_setting must lie in -1..8 and outcome in -1..3"
                    )
                col = np.array(col, dtype=np.int8, copy=None)
            col.setflags(write=False)
            object.__setattr__(self, f.name, col)
        ok = self.init_ok
        if (
            np.any((self.tomo_setting >= 0) != ok) or np.any((self.outcome >= 0) != ok)
            or np.any((self.click1 | self.click2) & ~ok)
        ):
            raise ValidationError(
                "uninitialized shots record no click, setting or outcome; "
                "initialized shots record a setting and an outcome"
            )

    def __len__(self) -> int:
        return self.init_ok.size


@dataclass(frozen=True)
class BinomialEstimate:
    value: float
    sigma: float
    n: int


@dataclass(frozen=True)
class RunSummary:
    """Frequencies with binomial errors plus the post-selected counts.

    post_selected_counts is a raw (9 settings x 4 outcomes) array; the
    per-setting totals are unequal because heralding is random, exactly
    as in conditioned data taking.
    """

    shots: int
    p_init_hat: BinomialEstimate
    p_click1_hat: BinomialEstimate
    p_click2_hat: BinomialEstimate
    post_selected: int
    post_selected_counts: np.ndarray


def _binomial(k: int, n: int) -> BinomialEstimate:
    if n == 0:
        return BinomialEstimate(0.0, 0.0, 0)
    p = k / n
    return BinomialEstimate(p, float(np.sqrt(max(p * (1.0 - p), 0.0) / n)), n)


def sample_shots(
    config: ProtocolConfig,
    n: int,
    seed: int,
    assignment: AssignmentMatrix | None = None,
    table: OutcomeTable | None = None,
) -> Shots:
    """Draw n protocol shots; deterministic given (config, n, seed).

    The OutcomeTable may be passed in to avoid recomputing it across
    calls; it must belong to the same config.
    """
    if n < 0:
        raise ValidationError("shot count must be non-negative")
    if assignment is None:
        assignment = AssignmentMatrix.identity()
    if table is None:
        table = run_two_rounds(config)

    branch_probs = np.array([table.probability(*b) for b in BRANCH_ORDER])
    branch_cum = np.cumsum(branch_probs)
    branch_cum[-1] = 1.0

    # (branch, setting) -> outcome distribution through the readout model
    outcome_cum = np.zeros((4, 9, 4))
    for bi, key in enumerate(BRANCH_ORDER):
        state = table.state(*key)
        if state is None:
            outcome_cum[bi] = np.nan
            continue
        probs = outcome_probabilities(state, assignment)
        outcome_cum[bi] = np.cumsum(probs, axis=1)
        outcome_cum[bi, :, -1] = 1.0

    rng = np.random.Generator(np.random.Philox(key=int(seed)))
    init_ok = np.empty(n, dtype=bool)
    click1 = np.empty(n, dtype=bool)
    click2 = np.empty(n, dtype=bool)
    setting_idx = np.full(n, -1, dtype=np.int8)
    outcome_idx = np.full(n, -1, dtype=np.int8)
    n_init = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        u = rng.random((hi - lo, 3))

        ok = u[:, 0] < config.p_init
        branch_idx = np.searchsorted(branch_cum, u[:, 1], side="right")
        branch_idx = np.minimum(branch_idx, 3)

        # round-robin settings over initialized shots, counted across chunks
        which = np.flatnonzero(ok)
        settings = (n_init + np.arange(which.size)) % 9
        n_init += which.size
        cums = outcome_cum[branch_idx[which], settings]
        setting_idx[lo + which] = settings
        outcome_idx[lo + which] = np.minimum((u[which, 2, None] >= cums).sum(axis=1), 3)

        clicks = _BRANCH_CLICKS[branch_idx] & ok[:, None]
        init_ok[lo:hi] = ok
        click1[lo:hi] = clicks[:, 0]
        click2[lo:hi] = clicks[:, 1]

    return Shots(init_ok, click1, click2, setting_idx, outcome_idx)


def aggregate(
    shots: Shots,
    assignment: AssignmentMatrix | None = None,
    branch: tuple[bool, bool] = (True, True),
) -> tuple[RunSummary, PauliVector | None]:
    """Post-select one heralding branch and reconstruct its Pauli vector.

    The default branch is the doubly-heralded one; any branch can be
    selected to check that post-selection is unbiased.  Returns the
    summary and the corrected Pauli vector (None if too few shots to fill
    every setting).
    """
    n = len(shots)
    init, click1, click2 = shots.init_ok, shots.click1, shots.click2
    selected = init & (click1 == branch[0]) & (click2 == branch[1])

    keys = shots.tomo_setting[selected] * 4 + shots.outcome[selected]
    counts = np.bincount(keys, minlength=36).reshape(9, 4).astype(float)

    pauli = None
    totals = counts.sum(axis=1)
    if totals.min() > 0:
        pauli = reconstruct_pauli(CountsTable(counts, totals), assignment)
    # clicks are recorded only for initialized shots (checked by Shots)
    n_init, n_click1, n_click12 = (int(m.sum()) for m in (init, click1, click1 & click2))
    summary = RunSummary(
        shots=n,
        p_init_hat=_binomial(n_init, n),
        p_click1_hat=_binomial(n_click1, n_init),
        p_click2_hat=_binomial(n_click12, n_click1),
        post_selected=int(keys.size),
        post_selected_counts=counts,
    )
    return summary, pauli


CSV_FIELDS = ("index", "init_ok", "click1", "click2", "tomo_setting", "outcome")

# Every row after its index, in csv.writer's format (\r\n line ends, empty
# fields for an unrecorded setting or outcome), indexed by _row_codes.
_ROW_SUFFIXES = np.array(
    [
        f"{int(ok)},{int(c1)},{int(c2)},{'' if k < 0 else k},"
        f"{'' if j < 0 else BASIS_ORDER[j]}\r\n"
        for ok, c1, c2, k, j in itertools.product(
            (False, True), (False, True), (False, True), range(-1, 9), range(-1, 4)
        )
    ],
    dtype=object,
)


def _row_codes(shots: Shots, lo: int, hi: int) -> np.ndarray:
    rows = slice(lo, hi)
    flags = shots.init_ok[rows] * 4 + shots.click1[rows] * 2 + shots.click2[rows]
    return flags * 50 + (shots.tomo_setting[rows] + 1) * 5 + (shots.outcome[rows] + 1)


def write_shots_csv(shots: Shots, path) -> None:
    """One row per shot; outcome written as GG/GE/EG/EE or empty."""
    n = len(shots)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(CSV_FIELDS) + "\r\n")
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            suffixes = _ROW_SUFFIXES[_row_codes(shots, lo, hi)].tolist()
            fh.write("".join([f"{i},{s}" for i, s in zip(range(lo, hi), suffixes)]))
