"""Write the tomography inputs of the CI smoke runs of `heraldsim tomo`.

counts.json holds 10000 sampled shots per setting (seed 1) of the odd Bell
state read through the reference assignment matrix, which assignment.json
holds; both are written by the installed package's own writers into the
working directory.

Run: python .github/tomo_inputs.py
"""

from heraldsim.qmath import DensityMatrix, bell_odd_plus
from heraldsim.tomography import (
    TomographySettings,
    assignment_to_json,
    counts_to_json,
    reference_assignment,
    simulate_counts,
)

a = reference_assignment()
rho = DensityMatrix.from_ket(bell_odd_plus())
counts = simulate_counts(rho, a, TomographySettings(10000), seed=1)
with open("counts.json", "w") as f:
    f.write(counts_to_json(counts))
with open("assignment.json", "w") as f:
    f.write(assignment_to_json(a))
