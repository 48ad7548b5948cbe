"""The README's command-line examples, run as written, and the figures it quotes."""

import contextlib
import io
import json
import re
import shlex
from pathlib import Path

import pytest

from heraldsim import cli
from heraldsim.qmath import DensityMatrix, bell_odd_plus
from heraldsim.tomography import (
    TomographySettings,
    assignment_to_json,
    counts_to_json,
    reference_assignment,
    simulate_counts,
)

README = (Path(__file__).parents[1] / "README.md").read_text()
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
        rho = DensityMatrix.from_ket(bell_odd_plus(), dims=(2, 2))
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
