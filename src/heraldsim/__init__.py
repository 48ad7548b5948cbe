"""Desk-scale simulator of photon-heralded remote entanglement.

Two stationary qubits each emit a flying single photon entangled with
their state; the photons interfere on a 50/50 beam splitter and a
non-number-resolving single-photon detector heralds the odd Bell state
on a click in two consecutive rounds.  The package models the protocol
with its dominant imperfections (detector dark counts and efficiency,
photon loss, qubit dephasing, readout errors in joint tomography) both
analytically on the 36-dimensional joint space and by shot-level Monte
Carlo, plus a time-domain cascaded-cavity simulation of the detector
itself.
"""

from .detector import DetectorRoundParams, dark_count_fidelity
from .photonics import beam_splitter_unitary
from .protocol import (
    OutcomeTable,
    ProtocolConfig,
    apply_phase_damping,
    round_one_click_weights,
    run_control,
    run_two_rounds,
    success_rate,
    sweep_preparation,
)
from .qmath import DensityMatrix, PauliVector, concurrence, pauli_decompose, state_fidelity

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "PauliVector",
    "DetectorRoundParams",
    "OutcomeTable",
    "ProtocolConfig",
    "apply_phase_damping",
    "beam_splitter_unitary",
    "concurrence",
    "dark_count_fidelity",
    "pauli_decompose",
    "round_one_click_weights",
    "run_control",
    "run_two_rounds",
    "state_fidelity",
    "success_rate",
    "sweep_preparation",
    "__version__",
]
