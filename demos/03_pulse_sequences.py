"""Pulse-level simulation: pseudopure preparation, the bundled transform
sequences, and dephasing-induced fidelity loss.

Run:  python3 demos/03_pulse_sequences.py
"""

from importlib import resources

import numpy as np

from spinqft import core, nmr, tomography

# ── 1) Temporally averaged pseudopure preparation ───────────────────────

# Thermal two-spin order a*Iz1 + b*Iz2 is averaged over three experiments
# (do-nothing plus two population-permuting sequences) into a state
# proportional to |00><00| - I/4.
rho_eq = nmr.thermal_deviation(1.0, 1.0)
print("thermal populations:     ", np.diag(rho_eq.entries).real)

seq_a, seq_b = nmr.pseudopure_cycle_sequences()
for seq in (seq_a, seq_b):
    out = nmr.run(seq, 2, rho_eq)
    print(f"after {seq.name:<20}", np.round(np.diag(out.entries).real, 6))

rho_pp = nmr.prepare_pseudopure_temporal_avg()
print("three-experiment average:", np.round(np.diag(rho_pp.entries).real, 6))

# ── 2) The six bundled sequences, end to end ────────────────────────────

# Each sequence runs from the pseudopure input and is scored against the
# ideal transform output read out with reverse-order qubit relabeling.
print(f"\n{'sequence':<14} {'elements':>8} {'fidelity':>12}")
for name in nmr.SEQUENCE_LIBRARY:
    seq = nmr.library_sequence(name)
    rho_in = nmr.pseudopure_input(seq.n)  # temporal average at n = 2, projector otherwise
    rho_out = nmr.run(seq, seq.n, rho_in)
    target_u = core.UnitaryMatrix(
        core.bit_reversal_permutation(seq.n).entries @ core.dft_oracle(seq.n).entries)
    rho_th = core.conjugate(target_u, rho_in)
    rep = tomography.fidelity(rho_th, rho_out, rho_in)
    print(f"{name:<14} {len(seq.elements):>8} {rep.fidelity:>12.9f}")

# ── 3) One sequence in DSL form ─────────────────────────────────────────

print("\nselective-n2 in DSL form, as bundled:")
print(resources.files("spinqft.sequences").joinpath("selective-n2.seq").read_text())

# ── 4) Dephasing degrades fidelity monotonically ────────────────────────

seq = nmr.library_sequence("selective-n2")
rho_in = nmr.prepare_pseudopure_temporal_avg()
target_u = core.UnitaryMatrix(core.bit_reversal_permutation(2).entries @ core.dft_oracle(2).entries)
rho_th = core.conjugate(target_u, rho_in)
print("dephasing-rate sweep for selective-n2 (transition pulses are slow,")
print("so this sequence is the most noise-sensitive):")
for rate in (0.0, 1.0, 3.0, 10.0, 30.0):
    noise = nmr.NoiseModel.uniform(2, rate) if rate else None
    out = nmr.run(seq, 2, rho_in, noise)
    rep = tomography.fidelity(rho_th, out, rho_in)
    print(f"  rate {rate:>5.1f} Hz: fidelity {rep.fidelity:.6f} "
          f"(retention {rep.signal_retention:.6f})")
