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

__version__ = "0.1.0"
