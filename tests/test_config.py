"""Run-configuration files: the key schema, its echo, and rejected values."""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heraldsim.cli import main
from heraldsim.config import ConfigError, load_run_config, resolved_config_doc
from heraldsim.protocol import ProtocolConfig, run_control, run_two_rounds

# Every numeric config key and the kind of value it takes, written out here
# independently of the parser so a dropped or renamed key shows up.
SCHEMA = {
    "preparation.theta_a": "angle",
    "preparation.phi_a": "angle",
    "preparation.theta_b": "angle",
    "preparation.phi_b": "angle",
    "preparation.phi_off": "angle",
    "decoherence.t2e_a": "time",
    "decoherence.t2e_b": "time",
    "decoherence.t_seq": "time",
    "detector.round1.p_dark": "probability",
    "detector.round1.p_real": "probability",
    "detector.round2.p_dark": "probability",
    "detector.round2.p_real": "probability",
    "loss.eta": "probability",
    "timing.t_rep": "time",
    "timing.p_init": "probability",
    "sampling.shots": "shots",
    "sampling.seed": "seed",
}
SECTIONS = sorted({path.rsplit(".", 1)[0] for path in SCHEMA} | {"detector", "tomography"})
FLOAT_KEYS = sorted(path for path, kind in SCHEMA.items() if kind not in ("shots", "seed"))
TIME_KEYS = sorted(path for path, kind in SCHEMA.items() if kind == "time")


def nest(flat):
    doc = {}
    for path, value in flat.items():
        *sections, key = path.split(".")
        node = doc
        for s in sections:
            node = node.setdefault(s, {})
        node[key] = value
    return doc


def leaves(doc, prefix=""):
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(leaves(value, prefix + key + "."))
        else:
            flat[prefix + key] = value
    return flat


def echo(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return resolved_config_doc(load_run_config(path))


def run_protocol(tmp_path, doc):
    cfg, out = tmp_path / "config.json", tmp_path / "out.json"
    cfg.write_text(json.dumps(doc))
    rc = main(["protocol", "--analytic", "--config", str(cfg), "--out", str(out)])
    return rc, (json.loads(out.read_text()) if out.exists() else None)


def overridden(path, value):
    """A valid value different from the default."""
    if SCHEMA[path] in ("shots", "seed"):
        return value + 7
    return 0.9 * value + 0.01


DEFAULT_ECHO = leaves(resolved_config_doc(load_run_config(None)))


class TestSchema:
    def test_echo_lists_every_key(self):
        assert set(DEFAULT_ECHO) == set(SCHEMA) | {"tomography.assignment"}

    @pytest.mark.parametrize("path", sorted(SCHEMA))
    def test_override_round_trips(self, path, tmp_path):
        value = overridden(path, DEFAULT_ECHO[path])
        got = leaves(echo(tmp_path, nest({path: value})))
        assert got == {**DEFAULT_ECHO, path: value}

    def test_all_overrides_round_trip(self, tmp_path):
        flat = {path: overridden(path, DEFAULT_ECHO[path]) for path in SCHEMA}
        flat["tomography.assignment"] = np.eye(4).tolist()
        rc, doc = run_protocol(tmp_path, nest(flat))
        assert rc == 0
        assert leaves(doc["config"]) == flat

    def test_echo_reloads_to_itself(self, tmp_path):
        flat = {path: overridden(path, DEFAULT_ECHO[path]) for path in SCHEMA}
        first = echo(tmp_path, nest(flat))
        assert echo(tmp_path, first) == first

    def test_phi_b_default_does_not_follow_phi_off(self, tmp_path):
        # phi_b keeps its own default (-0.3 pi, matching the default phi_off)
        rc, doc = run_protocol(tmp_path, {"preparation": {"phi_off": 0.5}})
        assert rc == 0
        assert doc["config"]["preparation"]["phi_b"] == -0.3 * np.pi
        assert doc["config"]["preparation"]["phi_off"] == 0.5


class TestRejectedKeys:
    @pytest.mark.parametrize("section", SECTIONS + [""])
    def test_unknown_key_exits_2(self, section, tmp_path, capsys):
        path = f"{section}.bogus" if section else "bogus"
        rc, doc = run_protocol(tmp_path, nest({path: 1.0}))
        assert rc == 2 and doc is None
        err = capsys.readouterr().err
        assert "unknown key(s) ['bogus']" in err
        assert repr(section or "top level") in err

    @pytest.mark.parametrize("path", sorted(SCHEMA))
    @pytest.mark.parametrize("value", ["1.0", True, None, [1.0], {"x": 1.0}])
    def test_non_numeric_value_exits_2(self, path, value, tmp_path, capsys):
        rc, doc = run_protocol(tmp_path, nest({path: value}))
        assert rc == 2 and doc is None
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("section", SECTIONS)
    @pytest.mark.parametrize("value", [5, "x", [1], None])
    def test_section_not_an_object_exits_2(self, section, value, tmp_path, capsys):
        rc, doc = run_protocol(tmp_path, nest({section: value}))
        assert rc == 2 and doc is None
        assert f"section {section!r} must be a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "tomography",
        [
            {"assignment": {"a": 1}},
            {"assignment_path": 5},
            {"assignment": "x"},
            {"assignment": [[1.0, 0.0], [0.0, 1.0]]},
            {"assignment_path": "missing.json"},
            {"assignment": np.eye(4).tolist(), "assignment_path": "missing.json"},
            {"assignment": [["1", 0, 0, 0], [0, True, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]},
            {"assignment": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, None]]},
        ],
    )
    def test_bad_assignment_exits_2(self, tomography, tmp_path, capsys):
        rc, doc = run_protocol(tmp_path, {"tomography": tomography})
        assert rc == 2 and doc is None
        assert "tomography.assignment" in capsys.readouterr().err

    def test_document_not_an_object(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("[]")
        with pytest.raises(ConfigError, match="config document must be a JSON object"):
            load_run_config(path)

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        # a missing file and a directory are in test_cli's invalid arguments
        cfg, out = tmp_path / "config.json", tmp_path / "out.json"
        cfg.write_bytes(b"\xff\xfe{}")
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "config" in err


class TestRejectedValues:
    @pytest.mark.parametrize(
        "path", ["timing.t_rep", "decoherence.t_seq", "decoherence.t2e_a"]
    )
    def test_nan_time_exits_2(self, path, tmp_path):
        # a NaN time must not reach the output ("rate_per_s": NaN is not JSON)
        # or the engine
        assert run_protocol(tmp_path, nest({path: float("nan")})) == (2, None)

    @pytest.mark.parametrize("path", ["preparation.phi_a", "timing.t_rep"])
    def test_integer_beyond_float_range_exits_2(self, path, tmp_path, capsys):
        assert run_protocol(tmp_path, nest({path: 10**400})) == (2, None)
        assert path in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["1e999", "Infinity"])
    @pytest.mark.parametrize("path", TIME_KEYS)
    def test_infinite_time_exits_2(self, path, text, tmp_path, capsys):
        # the echo would print Infinity, which strict JSON parsers reject
        cfg, out = tmp_path / "config.json", tmp_path / "out.json"
        section, key = path.split(".")
        cfg.write_text(f'{{"{section}": {{"{key}": {text}}}}}')
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{path} must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_1e300_coherence_time_is_no_dephasing(self):
        # the finite spelling of "no dephasing" gives the infinite-T2E numbers
        for name in ("t2e_a", "t2e_b"):
            inf, big = (replace(ProtocolConfig(), **{name: t}) for t in (math.inf, 1e300))
            for a, b in zip(run_two_rounds(inf).branches.values(),
                            run_two_rounds(big).branches.values()):
                assert a.probability == b.probability
                assert np.array_equal(a.state.matrix, b.state.matrix)
            assert np.array_equal(run_control(inf).matrix, run_control(big).matrix)

    @pytest.mark.parametrize("phi_off", [1e308, -9e307])
    def test_overflowing_offset_phase_exits_2(self, phi_off, tmp_path, capsys):
        # the two-photon level picks up 2 phi_off, which is not finite
        assert run_protocol(tmp_path, nest({"preparation.phi_off": phi_off})) == (2, None)
        assert "offset phase 2 * phi_off must be finite" in capsys.readouterr().err

    def test_round_range_error_names_the_round(self, tmp_path, capsys):
        rc, _ = run_protocol(tmp_path, nest({"detector.round2.p_real": 1.5}))
        assert rc == 2
        assert "round2: p_real=1.5 outside [0, 1]" in capsys.readouterr().err


NOT_A_NUMBER = st.one_of(
    st.text(max_size=3),
    st.booleans(),
    st.none(),
    st.lists(st.floats(allow_nan=False), max_size=2),
)
BEYOND_FLOAT = st.integers(min_value=2**1024)
BAD_NUMBER = {
    "angle": st.one_of(
        st.sampled_from([float("nan"), float("inf"), -float("inf")]), BEYOND_FLOAT
    ),
    "time": st.one_of(
        st.sampled_from([float("nan"), float("inf")]), st.floats(max_value=0.0), BEYOND_FLOAT
    ),
    "probability": st.one_of(
        st.just(float("nan")),
        BEYOND_FLOAT,
        st.floats(max_value=0.0, exclude_max=True),
        st.floats(min_value=1.0, exclude_min=True),
    ),
    "shots": st.one_of(st.integers(max_value=0), st.floats()),
    "seed": st.one_of(st.integers(max_value=-1), st.floats()),
}


@st.composite
def bad_config_docs(draw):
    """A config document with one key, value or section that must be rejected."""
    flat = draw(
        st.dictionaries(
            st.sampled_from(FLOAT_KEYS), st.floats(min_value=0.1, max_value=0.9), max_size=3
        )
    )
    path = draw(st.sampled_from(sorted(SCHEMA)))
    fault = draw(st.sampled_from(["value", "number", "key", "section"]))
    if fault == "value":
        flat[path] = draw(NOT_A_NUMBER)
    elif fault == "number":
        flat[path] = draw(BAD_NUMBER[SCHEMA[path]])
    elif fault == "key":
        section = draw(st.sampled_from(SECTIONS))
        flat[f"{section}.{draw(st.sampled_from(['eta_loss', 'p', 'x', 'round3']))}"] = 1.0
    else:
        section = draw(st.sampled_from(sorted({p.split('.')[0] for p in SCHEMA})))
        flat = {p: v for p, v in flat.items() if not p.startswith(section + ".")}
        flat[section] = draw(NOT_A_NUMBER)
    return nest(flat)


@settings(max_examples=60, deadline=None, database=None)
@given(bad_config_docs())
def test_bad_config_exits_2(doc):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "config.json", Path(tmp) / "out.json"
        cfg.write_text(json.dumps(doc))
        assert main(["protocol", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
