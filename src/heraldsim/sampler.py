"""Shot-level Monte Carlo realization of the protocol with post-selection.

Sampling happens at the outcome-branch level, which is exact for this
model: the `OutcomeTable` it is given supplies the four heralding-branch
probabilities and conditional states, and each shot draws an
initialization flag, a branch, and a joint-readout outcome through the
assignment matrix.  Tomography settings cycle round-robin over the
initialized shots, mirroring interleaved data taking; post-selection
(keeping doubly heralded shots) happens only in the aggregation step, as
in the analysis of a real dataset.

Randomness is counter-based: one Philox stream keyed by the seed supplies
a fixed block of three uniforms per shot, so shot i's randomness is a
pure function of (seed, i) and identical runs are bit-identical.  Shots
are drawn in fixed row chunks (`_CHUNK`) from that one stream, which
yields the same doubles as a single draw, so a run holds its output
columns plus one chunk of working arrays, whatever the shot count.

A chunk is a few whole-array steps.  The first uniform sets the
initialization flag.  The second picks the branch: the count of
cumulative branch probabilities at or below it, taken as three int8
comparisons (`_edges_at_or_below`).  The clicks are read off the branch
index.  The third uniform picks the outcome the same way, against the
cumulative outcome probabilities of the shot's (branch, setting) cell.

Shots are stored column-wise (`Shots`): one numpy array per recorded
quantity, shot i in row i, so sampling, aggregation and the CSV writer
never build per-shot Python objects.  The columns are bool and int8,
5 bytes per shot.  The writer builds each chunk's rows as one uint8
array, index digits by integer division and the rest of each row from
one byte table, and writes it at once.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, fields

import numpy as np

from .protocol import OutcomeTable
from .qmath import PauliVector, ValidationError, check_allocatable, check_seed, is_int
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

# settings 0-8 repeated, long enough that a chunk's round-robin run starting
# at any setting is one slice of it
_SETTING_CYCLE = np.tile(np.arange(9, dtype=np.int8), _CHUNK // 9 + 2)
_SETTING_CYCLE.setflags(write=False)


def _edges_at_or_below(u: np.ndarray, edges: np.ndarray, cell=None) -> np.ndarray:
    """How many `edges` lie at or below each u, capped at 3, as int8:
    `np.minimum(np.searchsorted(edges, u, side="right"), 3)`.

    edges is (4,), or (4, cells) with `cell` picking each u's column.  They
    must ascend, and a NaN edge counts as above every u, as searchsorted
    sorts NaN last.  Only the first three edges can change a capped count,
    so they are compared one row at a time (with `cell`, each row gathered
    on its own) and no (len(u), 4) array is built.
    """

    def edge(k):
        return edges[k] if cell is None else edges[k][cell]

    count = (u >= edge(0)).view(np.int8)
    count += u >= edge(1)
    count += u >= edge(2)
    return count


@dataclass(frozen=True, eq=False)
class Shots:
    """n protocol repetitions as read-only columns; shot i is row i.

    init_ok, click1 and click2 are boolean (the clicks are False when
    initialization failed).  tomo_setting (0-8) and outcome (0-3, in
    `tomography.BASIS_ORDER`) are int8, -1 when initialization failed: no
    tomography result is recorded for those shots.  Values are checked as
    given, before narrowing: each must be a number in its column's range
    (0-1 for the boolean ones) that the narrowed dtype holds exactly, so
    an out-of-range, fractional or NaN input is rejected rather than
    wrapped, truncated or rounded to True.  An array that already has its
    column's dtype is not copied: Shots takes ownership of it and makes it
    read-only.  Compare two Shots column by column; `==` is identity.
    """

    init_ok: np.ndarray
    click1: np.ndarray
    click2: np.ndarray
    tomo_setting: np.ndarray
    outcome: np.ndarray

    def __post_init__(self):
        n = np.shape(self.init_ok)[0] if np.ndim(self.init_ok) == 1 else -1
        # each column's range and dtype
        rules = ((0, 1, bool),) * 3 + ((-1, 8, np.int8), (-1, 3, np.int8))
        for f, (low, top, dtype) in zip(fields(self), rules):
            col = np.asarray(getattr(self, f.name))
            if col.shape != (n,):
                raise ValidationError("shot columns must be 1-D and of equal length")
            message = f"{f.name} must hold whole numbers in {low}..{top}"
            if col.dtype.kind not in "biuf":
                raise ValidationError(message)
            # written so that a NaN fails
            if n and not (col.min() >= low and col.max() <= top):
                raise ValidationError(message)
            narrowed = np.array(col, dtype=dtype, copy=None)
            if narrowed is not col and not np.array_equal(narrowed, col):
                raise ValidationError(message)
            narrowed.setflags(write=False)
            object.__setattr__(self, f.name, narrowed)
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
    table: OutcomeTable, p_init: float, n: int, seed: int, assignment: AssignmentMatrix
) -> Shots:
    """Draw n protocol shots from `table`, each initialized with probability
    p_init; deterministic given (table, p_init, n, seed, assignment).  n is
    an integer, not a bool, of at least 0 (ValidationError); more than 2^59
    shots is a MemoryError (qmath.check_allocatable)."""
    if not is_int(n) or n < 0:
        raise ValidationError("shot count must be a non-negative integer")
    check_allocatable(n, "shots")
    if not 0.0 <= p_init <= 1.0:
        raise ValidationError("p_init outside [0, 1]")
    check_seed(seed, "seed")

    # the three edges read ascend, as OutcomeTable admits no negative probability
    branch_edges = np.cumsum([table.probability(*b) for b in BRANCH_ORDER])
    branch_edges[-1] = 1.0

    # cumulative outcome distribution of each (branch, setting) through the
    # readout model, NaN for an empty branch; outcome_edges holds one column
    # per cell = branch * 9 + setting
    outcome_cum = np.full((4, 9, 4), np.nan)
    for bi, key in enumerate(BRANCH_ORDER):
        state = table.state(*key)
        if state is not None:
            outcome_cum[bi] = np.cumsum(outcome_probabilities(state, assignment), axis=1)
            outcome_cum[bi, :, -1] = 1.0
    outcome_edges = np.ascontiguousarray(outcome_cum.reshape(36, 4).T)

    rng = np.random.Generator(np.random.Philox(key=seed))
    init_ok = np.empty(n, dtype=bool)
    click1 = np.empty(n, dtype=bool)
    click2 = np.empty(n, dtype=bool)
    setting_idx = np.full(n, -1, dtype=np.int8)
    outcome_idx = np.full(n, -1, dtype=np.int8)
    draws = np.empty((min(n, _CHUNK), 3))
    n_init = 0
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        u = rng.random(out=draws[: hi - lo])

        ok = np.less(u[:, 0], p_init, out=init_ok[lo:hi])
        # (a contiguous copy of the column compares faster than the column)
        branch = _edges_at_or_below(u[:, 1].copy(), branch_edges)
        # BRANCH_ORDER: round 1 clicks in branches 0 and 1, round 2 in 0 and 2
        np.logical_and(ok, branch < 2, out=click1[lo:hi])
        np.logical_and(ok, (branch & 1) == 0, out=click2[lo:hi])

        # round-robin settings over initialized shots, counted across chunks
        which = np.flatnonzero(ok)
        settings = _SETTING_CYCLE[n_init % 9 :][: which.size]
        n_init += which.size
        setting_idx[lo:hi][which] = settings
        # int8 arithmetic, then one cast to the index type of the three gathers
        cell = (branch[which] * 9 + settings).astype(np.intp)
        outcome_idx[lo:hi][which] = _edges_at_or_below(u[:, 2][which], outcome_edges, cell)

    return Shots(init_ok, click1, click2, setting_idx, outcome_idx)


def aggregate(
    shots: Shots, assignment: AssignmentMatrix, branch: tuple[bool, bool] = (True, True)
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

# widest row after its index: ",1,1,1,8,EE\r\n"
_SUFFIX_WIDTH = 13


@functools.cache
def _row_suffixes() -> np.ndarray:
    """Every row after its index, in csv.writer's format (\r\n line ends,
    empty fields for an unrecorded setting or outcome), as one NUL-padded
    row of bytes per `_row_codes` value; built on the first write."""
    rows = [
        f",{int(ok)},{int(c1)},{int(c2)},{'' if k < 0 else k},"
        f"{'' if j < 0 else BASIS_ORDER[j]}\r\n".encode().ljust(_SUFFIX_WIDTH, b"\0")
        for ok, c1, c2, k, j in itertools.product(
            (False, True), (False, True), (False, True), range(-1, 9), range(-1, 4)
        )
    ]
    table = np.frombuffer(b"".join(rows), dtype=np.uint8)
    return table.reshape(-1, _SUFFIX_WIDTH)


def _row_codes(shots: Shots, lo: int, hi: int) -> np.ndarray:
    rows = slice(lo, hi)
    flags = shots.init_ok[rows] * 4 + shots.click1[rows] * 2 + shots.click2[rows]
    return flags * 50 + (shots.tomo_setting[rows] + 1) * 5 + (shots.outcome[rows] + 1)


def _write_index_digits(rows: np.ndarray, lo: int) -> None:
    """Write lo, lo + 1, ... as ASCII digits into the leading columns of
    `rows`, right-aligned, with NUL in place of each leading zero."""
    width = rows.shape[1] - _SUFFIX_WIDTH
    rest, digit = np.arange(lo, lo + len(rows)), np.empty(len(rows), dtype=np.int64)
    for k in range(width - 1, -1, -1):
        np.divmod(rest, 10, out=(rest, digit))
        np.add(digit, ord("0"), out=rows[:, k], casting="unsafe")
    # the rows count up, so the ones below 10^(width-1-k), a prefix, lead
    # with a zero in column k
    for k in range(width - 1):
        rows[: max(10 ** (width - 1 - k) - lo, 0), k] = 0


def write_shots_csv(shots: Shots, path) -> None:
    """One row per shot; outcome written as GG/GE/EG/EE or empty.

    The file is csv.writer's format.  Each `_CHUNK` of rows is built as
    one NUL-padded uint8 array of whole-array steps, the index digits by
    integer division and the rest of each row from `_row_suffixes`, then
    compressed to its non-NUL bytes and written at once.  Working memory
    is set by the chunk, not the shot count: at most three bytes per
    padded byte of one chunk (the rows, their mask and their bytes),
    about 3.9 MB for any count up to 10^7 shots.
    """
    n = len(shots)
    suffixes = _row_suffixes()
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_FIELDS) + "\r\n").encode())
        for lo in range(0, n, _CHUNK):
            hi = min(lo + _CHUNK, n)
            width = len(str(hi - 1))
            rows = np.empty((hi - lo, width + _SUFFIX_WIDTH), dtype=np.uint8)
            _write_index_digits(rows, lo)
            rows[:, width:] = suffixes[_row_codes(shots, lo, hi)]
            flat = rows.ravel()
            fh.write(flat[flat != 0])
