"""Shot-level Monte Carlo against the analytic outcome table."""

import csv
import dataclasses
import io
import itertools
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from heraldsim.detector import DetectorRoundParams
from heraldsim.protocol import ProtocolConfig, run_two_rounds
from heraldsim.qmath import PAULI_LABELS, ValidationError, pauli_decompose
from heraldsim.sampler import (
    BRANCH_ORDER,
    Shots,
    _edges_at_or_below,
    aggregate,
    sample_shots,
    write_shots_csv,
)
from heraldsim.tomography import (
    BASIS_ORDER,
    AssignmentMatrix,
    CountsTable,
    TomographySettings,
    bootstrap_errors,
    outcome_probabilities,
    reconstruct_pauli,
    reference_assignment,
    simulate_counts,
)


IDENTITY = AssignmentMatrix.identity()

ALL_CLICK = dict(round1=DetectorRoundParams(1.0, 1.0), round2=DetectorRoundParams(1.0, 1.0))


def ideal_config(**overrides):
    base = dict(
        phi_b=0.0,
        phi_off=0.0,
        round1=DetectorRoundParams(0.0, 1.0),
        round2=DetectorRoundParams(0.0, 1.0),
        t2e_a=np.inf,
        t2e_b=np.inf,
        p_init=1.0,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def columns(shots):
    return [getattr(shots, f.name) for f in dataclasses.fields(Shots)]


def same_shots(a, b):
    return all(np.array_equal(x, y) for x, y in zip(columns(a), columns(b)))


def csv_writer_bytes(shots):
    """The shots CSV as csv.writer writes it row by row: the reference the
    whole-array writer replaced."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["index", "init_ok", "click1", "click2", "tomo_setting", "outcome"])
    rows = zip(*(col.tolist() for col in columns(shots)))
    writer.writerows(
        [i, int(ok), int(c1), int(c2), "" if k < 0 else k, "" if j < 0 else BASIS_ORDER[j]]
        for i, (ok, c1, c2, k, j) in enumerate(rows)
    )
    return buf.getvalue().encode()


def single_draw_shots(config, n, seed, assignment, table):
    """The sampler as one (n, 3) draw with int64 settings and outcomes.

    This is the formula the chunked sampler replaced, kept as its reference.
    """
    branch_cum = np.cumsum([table.probability(*b) for b in BRANCH_ORDER])
    branch_cum[-1] = 1.0
    outcome_cum = np.zeros((4, 9, 4))
    for bi, key in enumerate(BRANCH_ORDER):
        state = table.state(*key)
        if state is None:
            outcome_cum[bi] = np.nan
            continue
        outcome_cum[bi] = np.cumsum(outcome_probabilities(state, assignment), axis=1)
        outcome_cum[bi, :, -1] = 1.0

    u = np.random.Generator(np.random.Philox(key=seed)).random((n, 3))
    init_ok = u[:, 0] < config.p_init
    branch_idx = np.minimum(np.searchsorted(branch_cum, u[:, 1], side="right"), 3)
    setting_idx = np.full(n, -1, dtype=np.int64)
    which = np.flatnonzero(init_ok)
    setting_idx[which] = np.arange(which.size) % 9
    outcome_idx = np.full(n, -1, dtype=np.int64)
    cums = outcome_cum[branch_idx[which], setting_idx[which]]
    outcome_idx[which] = np.minimum((u[which, 2, None] >= cums).sum(axis=1), 3)
    clicks = np.array(BRANCH_ORDER)[branch_idx] & init_ok[:, None]
    return [init_ok, clicks[:, 0], clicks[:, 1], setting_idx, outcome_idx]


class TestSampleShots:
    def test_no_initialization_no_tomography(self):
        cfg = ideal_config(p_init=0.0)
        shots = sample_shots(run_two_rounds(cfg), cfg.p_init, 500, 1, IDENTITY)
        assert len(shots) == 500
        assert not shots.init_ok.any()
        assert np.all(shots.outcome == -1)
        # no setting and no click is recorded either
        assert np.all(shots.tomo_setting == -1)
        assert not (shots.click1 | shots.click2).any()
        summary, pauli = aggregate(shots, IDENTITY)
        assert summary.p_init_hat.value == 0.0
        assert summary.post_selected == 0
        assert not summary.post_selected_counts.any()
        assert pauli is None

    def test_zero_shots(self, tmp_path):
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.57, 0, 1, IDENTITY)
        assert len(shots) == 0
        assert all(col.shape == (0,) for col in columns(shots))
        summary, pauli = aggregate(shots, IDENTITY)
        assert summary.shots == 0 and summary.post_selected == 0
        assert summary.p_init_hat.n == 0
        assert pauli is None
        path = tmp_path / "shots.csv"
        write_shots_csv(shots, path)
        assert path.read_bytes() == b"index,init_ok,click1,click2,tomo_setting,outcome\r\n"

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            sample_shots(run_two_rounds(ProtocolConfig()), 0.57, -1, 1, IDENTITY)

    @pytest.mark.parametrize(
        "n, error",
        [(1.5, ValidationError), (True, ValidationError), (2**70, MemoryError)],
        ids=["1.5", "True", "2**70"],
    )
    def test_malformed_count_rejected(self, n, error):
        # a count is an integer, not a bool, that an address space holds;
        # numpy raises a bare TypeError or ValueError on each of these
        with pytest.raises(error):
            sample_shots(run_two_rounds(ProtocolConfig()), 0.57, n, 1, IDENTITY)

    @pytest.mark.parametrize("p_init", [-0.1, 1.5, float("nan")])
    def test_p_init_outside_unit_interval_rejected(self, p_init):
        # the message ProtocolConfig gives the same value
        with pytest.raises(ValidationError, match=r"^p_init outside \[0, 1\]$"):
            sample_shots(run_two_rounds(ProtocolConfig()), p_init, 10, 1, IDENTITY)

    def test_columns_read_only(self):
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.57, 50, 1, IDENTITY)
        for col in columns(shots):
            assert not col.flags.writeable

    def test_column_dtypes(self):
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.57, 50, 1, IDENTITY)
        assert [col.dtype for col in columns(shots)] == [bool] * 3 + [np.int8] * 2

    @pytest.mark.parametrize(
        "p_init, rounds",
        [
            pytest.param(0.57, {}, id="0.57"),
            pytest.param(1.0, {}, id="1.0"),
            pytest.param(0.0, {}, id="0.0"),
            # every round clicks: three branches are empty, with no state
            # and NaN outcome edges
            pytest.param(0.57, ALL_CLICK, id="all-click-0.57"),
            pytest.param(1.0, ALL_CLICK, id="all-click-1.0"),
        ],
    )
    def test_chunked_draw_matches_single_draw(self, p_init, rounds):
        # chunk sizes are 1 << 16: one row short of, exactly at and one row
        # past a chunk, and three chunks
        cfg = ProtocolConfig(p_init=p_init, **rounds)
        table = run_two_rounds(cfg)
        a = reference_assignment()
        for n in (1, 65535, 65536, 65537, 150001):
            shots = sample_shots(table, cfg.p_init, n, 17, a)
            expected = single_draw_shots(cfg, n, 17, a, table)
            for f, ref in zip(dataclasses.fields(Shots), expected):
                col = getattr(shots, f.name)
                assert col.shape == ref.shape and np.all(col == ref), (n, f.name)

    def test_memory_bounded_by_columns_and_one_chunk(self):
        # 5 bytes per shot plus one chunk of working arrays; the single
        # (n, 3) draw peaked at 94.8 MB
        cfg = ProtocolConfig()
        table = run_two_rounds(cfg)
        tracemalloc.start()
        try:
            sample_shots(table, cfg.p_init, 1_000_000, 5, IDENTITY)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_reproducible_bit_identical(self):
        cfg = ProtocolConfig()
        table = run_two_rounds(cfg)
        a = sample_shots(table, cfg.p_init, 2000, 42, IDENTITY)
        b = sample_shots(table, cfg.p_init, 2000, 42, IDENTITY)
        assert same_shots(a, b)

    def test_different_seeds_differ(self):
        cfg = ProtocolConfig()
        table = run_two_rounds(cfg)
        a = sample_shots(table, cfg.p_init, 2000, 1, IDENTITY)
        b = sample_shots(table, cfg.p_init, 2000, 2, IDENTITY)
        assert not same_shots(a, b)

    def test_ideal_success_fraction(self):
        n = 100_000
        shots = sample_shots(run_two_rounds(ideal_config()), 1.0, n, 5, IDENTITY)
        p_hat = np.count_nonzero(shots.click1 & shots.click2) / n
        sigma = np.sqrt(0.125 * 0.875 / n)
        assert abs(p_hat - 0.125) < 5.0 * sigma

    def test_measured_config_success_fraction(self):
        cfg = ProtocolConfig()
        table = run_two_rounds(cfg)
        p_cc = cfg.p_init * table.probability(True, True)
        n = 200_000
        shots = sample_shots(table, cfg.p_init, n, 8, IDENTITY)
        k = np.count_nonzero(shots.init_ok & shots.click1 & shots.click2)
        sigma = np.sqrt(p_cc * (1.0 - p_cc) / n)
        assert abs(k / n - p_cc) < 5.0 * sigma
        # the overall success probability of the modeled experiment ~ 0.4%
        assert 0.003 < k / n < 0.006

    def test_settings_cycle_round_robin(self):
        shots = sample_shots(run_two_rounds(ideal_config()), 1.0, 90, 3, IDENTITY)
        initialized = shots.tomo_setting[shots.init_ok]
        assert initialized.tolist() == [i % 9 for i in range(initialized.size)]

    def test_branch_frequencies_chi_square(self):
        cfg = ProtocolConfig(p_init=1.0)
        table = run_two_rounds(cfg)
        n = 100_000
        shots = sample_shots(table, cfg.p_init, n, 12, IDENTITY)
        observed = np.array(
            [
                np.count_nonzero((shots.click1 == c1) & (shots.click2 == c2))
                for c1, c2 in BRANCH_ORDER
            ],
            dtype=float,
        )
        expected = n * np.array([table.probability(*b) for b in BRANCH_ORDER])
        chi2 = float(np.sum((observed - expected) ** 2 / expected))
        # goodness of fit not rejected at alpha = 0.001 (3 dof)
        assert chi2 < stats.chi2.isf(0.001, df=3)


def searchsorted_count(edges, u):
    """The branch index the chunked sampler's comparison count replaced."""
    return np.minimum(np.searchsorted(edges, u, side="right"), 3)


def probe_points(edges, seed):
    """u on, just below and just above every finite edge, near 0 and 1, and
    at random, all inside [0, 1) as drawn uniforms are."""
    finite = edges[np.isfinite(edges)]
    u = np.concatenate([
        finite, np.nextafter(finite, -np.inf), np.nextafter(finite, np.inf),
        [0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-52, np.nextafter(1.0, 0.0)],
        np.random.default_rng(seed).random(1000),
    ])
    return u[(u >= 0.0) & (u < 1.0)]


class TestEdgeCount:
    @pytest.mark.parametrize(
        "edges",
        [
            [0.3, 0.55, 0.8, 1.0],
            # repeated edges: a zero-probability branch in each place
            [0.0, 0.4, 0.7, 1.0],
            [0.2, 0.2, 0.7, 1.0],
            [0.2, 0.6, 0.6, 1.0],
            [0.5, 1.0, 1.0, 1.0],
            [1.0, 1.0, 1.0, 1.0],
            [0.0, 0.0, 0.0, 1.0],
            # an empty branch's outcome edges
            [np.nan] * 4,
        ],
        ids=["distinct", "zero-first", "zero-second", "zero-third", "zero-last-two",
             "one-branch", "only-last", "nan"],
    )
    def test_matches_searchsorted(self, edges):
        edges = np.array(edges)
        u = probe_points(edges, 3)
        count = _edges_at_or_below(u, edges)
        assert count.dtype == np.int8
        assert np.array_equal(count, searchsorted_count(edges, u))

    def test_default_table_edges(self):
        table = run_two_rounds(ProtocolConfig())
        edges = np.cumsum([table.probability(*b) for b in BRANCH_ORDER])
        edges[-1] = 1.0
        u = probe_points(edges, 4)
        assert np.array_equal(_edges_at_or_below(u, edges), searchsorted_count(edges, u))

    def test_cell_columns_match_searchsorted(self):
        # one column per cell, with repeated edges and NaN cells of an empty
        # branch; each u is counted against the column its cell picks
        rng = np.random.default_rng(5)
        columns = np.cumsum(rng.dirichlet(np.ones(4), size=12), axis=1)
        columns[:, -1] = 1.0
        columns[3] = [0.25, 0.25, 0.6, 1.0]
        columns[7:10] = np.nan
        probes = [probe_points(col, c) for c, col in enumerate(columns)]
        cell = rng.permutation(np.repeat(np.arange(12), [p.size for p in probes]))
        u = np.empty(cell.size)
        for c, p in enumerate(probes):
            u[cell == c] = p
        expected = [searchsorted_count(columns[c], x) for c, x in zip(cell, u)]
        edges = np.ascontiguousarray(columns.T)
        assert np.array_equal(_edges_at_or_below(u, edges, cell), expected)


class TestAggregate:
    def test_pure_branch_zz_estimate(self):
        shots = sample_shots(run_two_rounds(ideal_config()), 1.0, 120_000, 21, IDENTITY)
        summary, pauli = aggregate(shots, IDENTITY)
        assert summary.post_selected > 10_000
        zz = pauli.component("ZZ")
        assert abs(zz + 1.0) < 5.0 * max(pauli.sigma[PAULI_LABELS.index("ZZ")], 1e-6)

    def test_monte_carlo_matches_analytic_branch(self):
        cfg = ProtocolConfig(p_init=1.0)
        table = run_two_rounds(cfg)
        # heavy shot count so every component is pinned to ~1e-2
        shots = sample_shots(table, cfg.p_init, 300_000, 31, reference_assignment())
        summary, pauli = aggregate(shots, reference_assignment())
        truth = pauli_decompose(table.state(True, True))
        for i, label in enumerate(PAULI_LABELS):
            if label == "II":
                continue
            dev = abs(pauli.components[i] - truth.components[i])
            assert dev < 5.0 * pauli.sigma[i] + 1e-12, label

    def test_post_selection_unbiased_across_branches(self):
        cfg = ProtocolConfig(p_init=1.0)
        table = run_two_rounds(cfg)
        shots = sample_shots(table, cfg.p_init, 150_000, 41, IDENTITY)
        for branch in BRANCH_ORDER:
            state = table.state(*branch)
            summary, pauli = aggregate(shots, IDENTITY, branch=branch)
            if pauli is None:
                continue
            truth = pauli_decompose(state)
            for i, label in enumerate(PAULI_LABELS):
                if label == "II":
                    continue
                dev = abs(pauli.components[i] - truth.components[i])
                assert dev < 5.0 * pauli.sigma[i] + 1e-12, (branch, label)

    def test_error_bars_shrink_like_sqrt_n(self):
        cfg = ideal_config()
        table = run_two_rounds(cfg)
        _, pauli_small = aggregate(sample_shots(table, cfg.p_init, 40_000, 51, IDENTITY), IDENTITY)
        _, pauli_large = aggregate(sample_shots(table, cfg.p_init, 160_000, 51, IDENTITY), IDENTITY)
        # quadrupling the shots should halve the errors within 20%
        nonzero = pauli_small.sigma[1:] > 0
        ratio = np.median(pauli_small.sigma[1:][nonzero] / pauli_large.sigma[1:][nonzero])
        assert abs(ratio - 2.0) < 0.4

    def test_counts_match_row_loop(self):
        # the per-shot loop the columnar aggregation replaced, as reference
        a = reference_assignment()
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.8, 30_000, 71, a)
        rows = list(zip(*(col.tolist() for col in columns(shots))))
        for branch in BRANCH_ORDER:
            summary, pauli = aggregate(shots, a, branch=branch)
            counts = np.zeros((9, 4))
            for ok, c1, c2, k, j in rows:
                if ok and (c1, c2) == branch:
                    counts[k, j] += 1.0
            assert np.array_equal(summary.post_selected_counts, counts)
            assert summary.post_selected == int(counts.sum())
            n_init = sum(r[0] for r in rows)
            n_click1 = sum(r[0] and r[1] for r in rows)
            n_click12 = sum(r[0] and r[1] and r[2] for r in rows)
            assert (summary.p_init_hat.value, summary.p_init_hat.n) == (
                n_init / len(rows), len(rows))
            assert (summary.p_click1_hat.value, summary.p_click1_hat.n) == (
                n_click1 / n_init, n_init)
            assert (summary.p_click2_hat.value, summary.p_click2_hat.n) == (
                n_click12 / n_click1, n_click1)
            if counts.sum(axis=1).min() > 0:
                ref = reconstruct_pauli(CountsTable(counts, counts.sum(axis=1)), a)
                assert np.array_equal(pauli.components, ref.components)
                assert np.array_equal(pauli.sigma, ref.sigma)
            else:
                assert pauli is None

    def test_summary_frequencies(self):
        cfg = ProtocolConfig()
        shots = sample_shots(run_two_rounds(cfg), cfg.p_init, 150_000, 61, IDENTITY)
        summary, _ = aggregate(shots, IDENTITY)
        assert abs(summary.p_init_hat.value - 0.57) < 5 * summary.p_init_hat.sigma
        assert abs(summary.p_click1_hat.value - 0.0825) < 5 * summary.p_click1_hat.sigma
        assert summary.p_click2_hat.n == np.count_nonzero(shots.init_ok & shots.click1)


class TestShotsCsv:
    def test_round_trip_row_count(self, tmp_path):
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.57, 100, 0, IDENTITY)
        path = tmp_path / "shots.csv"
        write_shots_csv(shots, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 101
        assert lines[0] == "index,init_ok,click1,click2,tomo_setting,outcome"

    def test_bytes_match_csv_writer(self, tmp_path):
        # uninitialized shots and all four branches, across more than one
        # write chunk, against csv.writer row by row
        shots = sample_shots(
            run_two_rounds(ProtocolConfig()), 0.6, 70_000, 4, reference_assignment()
        )
        assert not shots.init_ok.all()
        for c1, c2 in BRANCH_ORDER:
            assert np.any(shots.init_ok & (shots.click1 == c1) & (shots.click2 == c2))
        expected = tmp_path / "expected.csv"
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["index", "init_ok", "click1", "click2", "tomo_setting", "outcome"]
            )
            rows = zip(*(col.tolist() for col in columns(shots)))
            for i, (ok, c1, c2, k, j) in enumerate(rows):
                writer.writerow(
                    [i, int(ok), int(c1), int(c2), k if k >= 0 else "",
                     BASIS_ORDER[j] if j >= 0 else ""]
                )
        path = tmp_path / "shots.csv"
        write_shots_csv(shots, path)
        data = path.read_bytes()
        assert data == expected.read_bytes()
        assert data.count(b"\r\n") == 70_001
        assert b",0,0,0,,\r\n" in data

    @pytest.mark.parametrize("n", [0, 1, 9, 10, 11, 65535, 65536, 65537, 1_000_001])
    def test_bytes_match_csv_writer_at_index_widths(self, n, tmp_path):
        # the index widens at 10 and, inside the sixteenth write chunk, at
        # 10^6; 65536 rows fill one chunk exactly
        shots = sample_shots(run_two_rounds(ProtocolConfig()), 0.57, n, 9, IDENTITY)
        path = tmp_path / "shots.csv"
        write_shots_csv(shots, path)
        assert path.read_bytes() == csv_writer_bytes(shots)

    def test_every_admitted_row_matches_csv_writer(self, tmp_path):
        # the one uninitialized row, then every click pair, setting and outcome
        rows = [(False, False, False, -1, -1)] + [
            (True, c1, c2, k, j)
            for (c1, c2), k, j in itertools.product(BRANCH_ORDER, range(9), range(4))
        ]
        shots = Shots(*(np.array(col) for col in zip(*rows)))
        path = tmp_path / "shots.csv"
        write_shots_csv(shots, path)
        assert len(shots) == 145
        assert path.read_bytes() == csv_writer_bytes(shots)

    def test_memory_bounded_by_one_chunk(self, tmp_path):
        # one chunk's padded rows, their mask and their bytes, whatever the
        # shot count; the per-row string writer peaked at 6.6e6 bytes
        table = run_two_rounds(ProtocolConfig())
        peaks = []
        for n in (200_000, 1_000_000):
            shots = sample_shots(table, 0.57, n, 3, IDENTITY)
            tracemalloc.start()
            try:
                write_shots_csv(shots, tmp_path / "shots.csv")
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
        assert abs(peaks[1] - peaks[0]) <= 0.5e6
        assert max(peaks) < 6.3e6


class TestShotsColumns:
    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValidationError):
            Shots([True, False], [False], [False, False], [0, -1], [1, -1])

    def test_out_of_range_setting_rejected(self):
        with pytest.raises(ValidationError):
            Shots([True], [False], [False], [9], [0])

    @pytest.mark.parametrize("value", [259, -129])
    def test_values_checked_before_narrowing(self, value):
        # as int8, 259 would wrap to 3 and -129 to 127
        bad = np.array([value], dtype=np.int64)
        with pytest.raises(ValidationError):
            Shots([True], [False], [False], bad, [0])
        with pytest.raises(ValidationError):
            Shots([True], [False], [False], [0], bad)

    @pytest.mark.parametrize(
        "column, value",
        [
            pytest.param(3, 1.5, id="fractional-setting"),
            pytest.param(4, 2.7, id="fractional-outcome"),
            pytest.param(3, np.nan, id="nan-setting"),
            pytest.param(4, np.inf, id="infinite-outcome"),
            pytest.param(0, 2, id="init_ok-2"),
            pytest.param(0, 0.5, id="init_ok-0.5"),
            pytest.param(1, np.nan, id="nan-click"),
            pytest.param(3, "1", id="text-setting"),
        ],
    )
    def test_values_narrowing_would_change_rejected(self, column, value):
        # int8 would truncate 1.5 to 1 and 2.7 to 2 (NaN with a numpy
        # RuntimeWarning), and bool would read 2 or 0.5 as True
        given = [[True], [False], [False], [1], [0]]
        given[column] = [value]
        with pytest.raises(ValidationError, match="must hold whole numbers in"):
            Shots(*given)

    def test_whole_values_of_any_numeric_dtype_accepted(self):
        shots = Shots([1.0, 0.0], [1, 0], np.array([0, 0], dtype=np.uint8), [3.0, -1.0], [2, -1])
        assert [col.tolist() for col in columns(shots)] == [
            [True, False], [True, False], [False, False], [3, -1], [2, -1]
        ]

    def test_columns_of_their_dtype_are_not_copied(self):
        given = [np.array([True]), np.array([False]), np.array([True]),
                 np.array([4], dtype=np.int8), np.array([2], dtype=np.int8)]
        shots = Shots(*given)
        for col, f in zip(given, dataclasses.fields(Shots)):
            assert np.shares_memory(col, getattr(shots, f.name))
            assert not col.flags.writeable

    def test_uninitialized_shot_with_outcome_rejected(self):
        with pytest.raises(ValidationError):
            Shots([False], [False], [False], [-1], [2])
        with pytest.raises(ValidationError):
            Shots([False], [True], [False], [-1], [-1])


SAMPLING = {
    "sample_shots": lambda seed: sample_shots(
        run_two_rounds(ProtocolConfig()), 0.57, 10, seed, IDENTITY
    ),
    "simulate_counts": lambda seed: simulate_counts(
        run_two_rounds(ProtocolConfig()).state(True, True), IDENTITY, TomographySettings(10), seed
    ),
    "bootstrap_errors": lambda seed: bootstrap_errors(
        CountsTable(np.full((9, 4), 25.0), 100), IDENTITY, [0, 1, 1, 0],
        n_resamples=2, seed=seed,
    ),
}


@pytest.mark.parametrize("seed", [1.5, -1, 2**128, True])
@pytest.mark.parametrize("draw", SAMPLING)
def test_every_sampling_function_takes_one_seed_rule(draw, seed):
    # int(1.5) would draw seed 1's numbers, and numpy rejects -1 with a bare ValueError
    message = r"^seed must be a non-negative integer below 2\*\*128$"
    with pytest.raises(ValidationError, match=message):
        SAMPLING[draw](seed)
