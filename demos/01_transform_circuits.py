"""Build the serial, parallel and approximate transform circuits, count
their gates, and check each against the brute-force Fourier matrix.

Run:  python3 demos/01_transform_circuits.py
"""

import numpy as np

from spinqft import circuits, core

# ── 1) The three decompositions for four qubits ────────────────────────

serial = circuits.build_serial(4)
parallel = circuits.build_parallel(4)
approx = circuits.build_approximate(4, 2)

for c in (serial, parallel, approx):
    counts = circuits.gate_counts(c)  # a Counter by gate kind: a kind c lacks reads 0
    print(f"{c.decomposition:<15} gates={len(c.gates):>2}  "
          f"H={counts[circuits.HADAMARD_KIND]} B={counts[circuits.CONTROLLED_PHASE_KIND]} "
          f"H_T={counts[circuits.TOTAL_HADAMARD_KIND]} roots={counts[circuits.ROOT_CNOT_KIND]}")

# The serial circuit uses n Hadamards and n(n-1)/2 controlled phases; the
# parallel circuit trades them for one non-selective Hadamard plus
# root-of-CNOT gates, one block per target qubit.

# ── 2) Verification against the oracle ─────────────────────────────────

# Both exact circuits produce the transform with output bits reversed:
# prepending the bit-reversal permutation recovers the Fourier matrix up
# to a global phase.
for n in range(1, 7):
    ok_s, dev_s = circuits.verify_against_oracle(circuits.build_serial(n))
    ok_p, dev_p = circuits.verify_against_oracle(circuits.build_parallel(n))
    print(f"n={n}:  serial dev={dev_s:.2e}  parallel dev={dev_p:.2e}")
    assert ok_s and ok_p

# ── 3) The approximate transform trades accuracy for gates ─────────────

print("\napproximate transform, n=6: deviation from oracle vs. allowed range m")
target = core.bit_reversal_permutation(6).entries @ core.dft_oracle(6).entries
for m in range(1, 7):
    c = circuits.build_approximate(6, m)
    u = circuits.circuit_unitary(c).entries
    _, gamma = core.equal_up_to_global_phase(u, target)
    dev = np.max(np.abs(u - np.exp(1j * gamma) * target))
    phases = circuits.gate_counts(c)[circuits.CONTROLLED_PHASE_KIND]
    print(f"  m={m}: {phases:>2} phase gates, deviation {dev:.3e}")

# ── 4) The closed-form product state ────────────────────────────────────

# The transform of a basis state is an unentangled product: each qubit
# carries a single binary-fraction phase.  Compare against matrix columns.
n, a = 3, 5
v = circuits.qft_product_state(a, n)
col = (core.bit_reversal_permutation(n).entries @ core.dft_oracle(n).entries)[:, a]
print(f"\nproduct state for a={a}, n={n}: max deviation from oracle column "
      f"{np.max(np.abs(v - col)):.2e}")
print("per-qubit phases (turns):")
bits = [(a >> k) & 1 for k in range(n)]
for m in range(1, n + 1):
    j = m - 1
    phi = sum(bits[k] * 2.0 ** (j + k - n) for k in range(n - j))
    print(f"  qubit {m}: phi = {phi}")
