"""Simulated state tomography: rotating readouts, signed-mean inversion, the
mixed-state fidelity measure, and bar-chart export.

Run:  python3 demos/04_tomography.py
"""

import itertools

import numpy as np

from spinqft import core, nmr, tomography

# ── 1) What one readout setting sees ────────────────────────────────────

# Only transverse single-quantum terms are observable; readout pulses
# rotate the rest into view.  The pseudopure state is diagonal, so the
# setting with no pulses sees nothing and a 90-degree pulse reveals it.
# measure_all reads every setting, in itertools.product("ixy", repeat=n)
# order, one block of len(observables(n)) values each.
rho_pp = nmr.pseudopure_projector_deviation(2)
labels = [lbl for lbl, _ in tomography.observables(2)]
values = tomography.measure_all(rho_pp).reshape(-1, len(labels))
settings = list(itertools.product("ixy", repeat=2))
for pulses in (("i", "i"), ("y", "i"), ("y", "y")):
    block = values[settings.index(pulses)]
    shown = {lbl: round(float(v), 4) for lbl, v in zip(labels, block) if abs(v) > 1e-9}
    print(f"readout {pulses}: {shown or 'all zero'}")

# ── 2) Reconstruction is a signed mean per Pauli coefficient ────────────

# The readout pulses are Clifford, so each value is +-Tr(rho P)/2 for one
# Pauli string P: every row of the design matrix has one nonzero entry,
# +-2**(n-1).  The 3**n experiments read every non-identity Pauli string
# (full column rank 4**n - 1), and the least-squares inversion is the
# signed mean of the values that read each coefficient.
for n in (2, 3):
    a = tomography.design_matrix(n)
    reads = np.count_nonzero(a, axis=0)
    print(f"\nn={n}: design matrix {a.shape}, rank {np.linalg.matrix_rank(a)} "
          f"(need {4 ** n - 1}); entries {np.unique(a).tolist()}; "
          f"each Pauli read {reads.min()} to {reads.max()} times")

rng = np.random.default_rng(8)
h = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
h = (h + h.conj().T) / 2
h -= np.trace(h) / 4 * np.eye(4)
rho = core.DensityMatrix(h)
recon = tomography.reconstruct(tomography.measure_all(rho))  # a 4 x 4 array
print(f"random-matrix round trip: max error "
      f"{np.max(np.abs(recon - rho.entries)):.2e}")

# ── 3) Tomography of a simulated transform output ───────────────────────

seq = nmr.library_sequence("parallel-n2")
rho_in = nmr.prepare_pseudopure_temporal_avg()
rho_out = nmr.run(seq, seq.n, rho_in, nmr.NoiseModel.uniform(seq.n, 10.0))
recon = tomography.reconstruct(tomography.measure_all(rho_out))
print(f"\nnoisy {seq.name} output reconstructed: max error "
      f"{np.max(np.abs(recon - rho_out.entries)):.2e}")

target_u = core.UnitaryMatrix(core.bit_reversal_permutation(2).entries @ core.dft_oracle(2).entries)
rho_th = core.conjugate(target_u, rho_in)
rep = tomography.fidelity(rho_th, recon, rho_in)
print(f"fidelity report: correlation={rep.correlation:.6f} "
      f"retention={rep.signal_retention:.6f} fidelity={rep.fidelity:.6f}")

# ── 4) Bar-chart export (the density-matrix presentation format) ────────

print("\nideal transform output as bar-chart rows: the deviation matrix of")
print("the uniform superposition has zero diagonal and constant positive")
print("off-diagonal real parts:")
for line in tomography.bar_chart_csv(rho_th).splitlines()[1:5]:
    row, col, re_v, im_v = line.split(",")
    print(f"  <{row}|rho|{col}> = {float(re_v):+.4f} {float(im_v):+.4f}j")
print("full CSV via: spinqft export-fig2 --sequence parallel-n2 --out bars.csv")
