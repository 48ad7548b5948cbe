"""The README's command-line examples, run as written, and the figures it quotes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import numpy as np
import pytest

from heraldsim import cli
from heraldsim.detector import DetectorRoundParams, dark_count_fidelity
from heraldsim.lindblad import (
    MHZ_TO_RAD_NS,
    CascadedSystemParams,
    parameter_robustness,
    simulate,
)
from heraldsim.protocol import ProtocolConfig, apply_phase_damping, run_two_rounds, success_rate
from heraldsim.qmath import DensityMatrix, bell_odd_plus, state_fidelity
from heraldsim.tomography import (
    TomographySettings,
    assignment_to_json,
    counts_to_json,
    reference_assignment,
    simulate_counts,
)

from test_acceptance import ideal_config

README = (Path(__file__).parents[1] / "README.md").read_text()
ACCEPTANCE_SOURCE = (Path(__file__).parent / "test_acceptance.py").read_text()
OUTPUT_FLAGS = ("--out", "--traces-out", "--shots-out")


def sh_lines():
    """Every command of the README's sh blocks, comments dropped."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README, flags=re.S):
        for line in block.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    return lines


HERALDSIM_LINES = [line for line in sh_lines() if line.startswith("heraldsim ")]


def run(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        rc = cli.main(argv)
    return rc, out.getvalue()


def test_other_examples_install_or_test():
    assert HERALDSIM_LINES
    others = {line.split()[0] for line in sh_lines() if not line.startswith("heraldsim ")}
    assert others == {"pip", "pytest"}


@pytest.mark.parametrize("line", HERALDSIM_LINES)
def test_example_runs(line, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = shlex.split(line)[1:]
    if argv[0] == "tomo":
        # the counts and calibration files the example corrects
        a = reference_assignment()
        rho = DensityMatrix.from_ket(bell_odd_plus())
        counts = simulate_counts(rho, a, TomographySettings(10_000), seed=1)
        Path(argv[argv.index("--counts") + 1]).write_text(counts_to_json(counts))
        Path(argv[argv.index("--cal") + 1]).write_text(assignment_to_json(a))
    rc, _ = run(argv)
    assert rc == cli.EXIT_OK
    for flag in OUTPUT_FLAGS:
        if flag in argv:
            assert (tmp_path / argv[argv.index(flag) + 1]).is_file()


def test_quoted_headline_fidelity():
    quoted = re.search(r"prints\s+the headline fidelity (\d\.\d+)", README).group(1)
    rc, text = run(["protocol", "--analytic"])
    assert rc == cli.EXIT_OK
    assert quoted == "0.7642"
    assert f"{json.loads(text)['fidelity_theory']:.4f}" == quoted


def test_quoted_exit_codes():
    codes = re.search(
        r"Exit codes: (\d) success, (\d) configuration/usage\s+error, (\d) numerical failure",
        README,
    )
    assert tuple(map(int, codes.groups())) == (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_NUMERICAL)


# -- quoted figures ---------------------------------------------------------------
# Each README paragraph below is checked figure by figure against the run that
# makes it; every decimal in those paragraphs must belong to a figure here.
CHECKED_PARAGRAPHS = (
    "* **Analytic density-matrix engine**",
    "The acceptance module prints",
    "**Cascaded-detector criterion (C08):**",
    "Notes on two defaults:",
)
PARAGRAPHS = [
    " ".join(p.split())
    for p in re.split(r"\n\s*\n", README)
    if p.strip().startswith(CHECKED_PARAGRAPHS)
]


def shown_as(value, quoted):
    """`value` rounded to the quoted figure's decimals is the quoted figure."""
    return f"{value:.{len(quoted.partition('.')[2])}f}" == quoted


def fidelity_with(tmp_path, preparation):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"preparation": preparation}))
    rc, text = run(["protocol", "--analytic", "--config", str(path)])
    assert rc == cli.EXIT_OK
    return json.loads(text)["fidelity_theory"]


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """The runs behind the quoted figures; the cascade runs once."""
    cfg = ProtocolConfig()
    bell = DensityMatrix.from_ket(bell_odd_plus())
    worst = 0.0
    for p_dark in (0.0, 0.005, 0.05, 0.2, 1.0):
        for p_real in (0.0, 0.005, 0.05, 0.2, 1.0):
            if p_dark or p_real:
                params = DetectorRoundParams(p_dark, p_real)
                table = run_two_rounds(ideal_config(round1=params, round2=params))
                f_prop = state_fidelity(table.state(True, True), bell_odd_plus())
                worst = max(worst, abs(f_prop - dark_count_fidelity(params, params)))
    cascade = CascadedSystemParams()
    pulse = cascade.pulse
    focks = (0, 1, 2)
    traces = simulate([(cascade, f) for f in focks], 1500.0)
    p_click = {f: tr.p_click for f, tr in zip(focks, traces)}
    rc, text = run(["protocol", "--analytic"])
    assert rc == cli.EXIT_OK
    return {
        "config": cfg,
        "fidelity": json.loads(text)["fidelity_theory"],
        "dark_count_fidelity": dark_count_fidelity(cfg.round1, cfg.round2),
        "closed_form_worst": worst,
        "dephasing": state_fidelity(
            apply_phase_damping(bell, cfg.t_seq, cfg.t2e_a, cfg.t2e_b), bell_odd_plus()
        ),
        # C06's measured click probabilities
        "rate_per_s": success_rate(cfg, p_click1=0.08, p_click2=0.09).rate_per_s,
        "ideal_p_herald": run_two_rounds(ideal_config()).probability(True, True),
        "cascade": cascade,
        "pulse_centre": pulse.start_time + pulse.total_length / 2.0,
        "transit_peak": 2.0 / (cascade.kappa_d * MHZ_TO_RAD_NS),
        "p_click": p_click,
        "sensitivity": parameter_robustness(cascade, 0.2, t_total=1500.0).max_relative_change,
        "tmp": tmp_path_factory.mktemp("figures"),
    }


def phi_off_example(r, phi_off, phi_b_default, f_default, f_off, phi_b, f_recovered):
    cfg = r["config"]
    return (
        shown_as(cfg.phi_b, phi_b_default)
        and shown_as(r["fidelity"], f_default)
        and shown_as(fidelity_with(r["tmp"], {"phi_off": float(phi_off)}), f_off)
        and shown_as(
            fidelity_with(r["tmp"], {"phi_off": float(phi_off), "phi_b": float(phi_b)}),
            f_recovered,
        )
    )


# README pattern (its groups are the quoted figures) -> check of those figures
FIGURES = {
    r"model to better than (1e-\d+)\.": lambda r, q: r["closed_form_worst"] < float(q),
    r"closed-form dark-count fidelity \((\d\.\d+)\)":
        lambda r, q: shown_as(r["dark_count_fidelity"], q),
    r"the dephasing \((\d\.\d+)\)": lambda r, q: shown_as(r["dephasing"], q),
    r"combined \((\d\.\d+)\) fidelities": lambda r, q: shown_as(r["fidelity"], q),
    r"the ~(\d+)/s generation rate": lambda r, q: shown_as(r["rate_per_s"], q),
    r"the exact (\d)/(\d) ideal heralding probability":
        lambda r, n, d: abs(r["ideal_p_herald"] - int(n) / int(d)) < 1e-12,
    r"matched (\d\.\d+) MHz cavity linewidths":
        lambda r, q: r["cascade"].kappa_a == r["cascade"].kappa_d == float(q),
    r"dark counts below (\d\.\d+),": lambda r, q: f"p[0] < {q}" in ACCEPTANCE_SOURCE,
    r"click probability within (\d\.\d+)\)":
        lambda r, q: f"abs(p[1] - p[2]) <= {q}" in ACCEPTANCE_SOURCE,
    r"it lies in (\d\.\d+)-(\d\.\d+),":
        lambda r, lo, hi: f"{lo} < p[1] < {hi}" in ACCEPTANCE_SOURCE,
    r"the pulse centre \((\d+) ns\)": lambda r, q: shown_as(r["pulse_centre"], q),
    r"2/kappa = (\d+\.\d+) ns": lambda r, q: shown_as(r["transit_peak"], q),
    r"The model gives efficiency (\d\.\d+),": lambda r, q: shown_as(r["p_click"][1], q),
    r"number blindness to (\d\.\d+),":
        lambda r, q: shown_as(abs(r["p_click"][1] - r["p_click"][2]), q),
    r"dark counts (\d\.\d+) and": lambda r, q: shown_as(r["p_click"][0], q),
    r"and (\d+\.\d+)% sensitivity": lambda r, q: shown_as(100.0 * r["sensitivity"], q),
    r"`phi_b` defaults to (-\d\.\d+) pi, the negative of the default `phi_off`":
        lambda r, q: shown_as(r["config"].phi_b / np.pi, q)
        and r["config"].phi_off == -r["config"].phi_b,
    r'with only `"phi_off": (\d\.\d+)` set, `phi_b` stays (-\d\.\d+) and the fidelity '
    r'drops from (\d\.\d+) to (\d\.\d+); set `"phi_b": (-\d\.\d+)` as well to '
    r"recover (\d\.\d+)": phi_off_example,
}


@pytest.mark.parametrize(
    "pattern", FIGURES, ids=lambda p: re.sub(r"[^A-Za-z0-9]+", "-", p).strip("-")[:40]
)
def test_quoted_figure(pattern, runs):
    matches = [m for p in PARAGRAPHS for m in re.finditer(pattern, p)]
    assert len(matches) == 1, f"{pattern!r} matches {len(matches)} times"
    assert FIGURES[pattern](runs, *matches[0].groups())


def test_every_decimal_is_checked():
    unchecked = []
    for paragraph in PARAGRAPHS:
        checked = {
            i
            for pattern in FIGURES
            for m in re.finditer(pattern, paragraph)
            for g in range(1, len(m.groups()) + 1)
            for i in range(*m.span(g))
        }
        unchecked += [
            m.group() for m in re.finditer(r"\d*\.\d+", paragraph) if m.start() not in checked
        ]
    assert len(PARAGRAPHS) == len(CHECKED_PARAGRAPHS)
    assert unchecked == []
