"""Acceptance suite: one test per acceptance criterion, each printing a
PASS line with its measured margin.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time

import numpy as np
import pytest

from conftest import random_traceless_hermitian, sequence_fidelity

from spinqft import circuits, core, costmodel, nmr, tomography


def test_criterion_1_circuit_correctness():
    """Serial and parallel circuits match the Fourier oracle for n = 1..8."""
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 9):
        ok_s, dev_s = circuits.verify_against_oracle(circuits.build_serial(n), 1e-10)
        us = circuits.circuit_unitary(circuits.build_serial(n)).entries
        up = circuits.circuit_unitary(circuits.build_parallel(n)).entries
        ok_p, gamma = core.equal_up_to_global_phase(up, us, 1e-10)
        dev_p = float(np.max(np.abs(up - np.exp(1j * gamma) * us)))
        assert ok_s and ok_p, f"n={n}"
        worst = max(worst, dev_s, dev_p)
    elapsed = time.monotonic() - start
    assert worst < 1e-10
    assert elapsed < 10.0
    print(f"\n[PASS] criterion 1: circuits match oracle for n=1..8 "
          f"(max deviation {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_2_product_form():
    """Closed-form product state equals the reversed oracle columns, n <= 6."""
    worst = 0.0
    for n in range(1, 7):
        target = core.bit_reversal_permutation(n).entries @ core.dft_oracle(n).entries
        for a in range(2 ** n):
            vec = circuits.qft_product_state(a, n)
            worst = max(worst, float(np.max(np.abs(vec - target[:, a]))))
    assert worst < 1e-12
    print(f"\n[PASS] criterion 2: product form matches oracle columns "
          f"(max deviation {worst:.2e})")


def test_criterion_3_root_identity_and_commutation():
    """H_k B_jk H_k is the root gate up to phase; uninvolved Hadamards commute."""
    worst = 0.0
    for n in range(2, 7):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                h = circuits.gate_unitary(circuits.hadamard(k), n).entries
                b = circuits.gate_unitary(
                    circuits.controlled_phase(j, k, circuits.phase_angle(j, k)), n).entries
                root = circuits.gate_unitary(
                    circuits.root_cnot(j, k, 2.0 ** (j - k)), n).entries
                ok, gamma = core.equal_up_to_global_phase(h @ b @ h, root, 1e-10)
                assert ok, (n, j, k)
                worst = max(worst, float(np.max(np.abs(h @ b @ h - np.exp(1j * gamma) * root))))
                for i in range(1, n + 1):
                    if i in (j, k):
                        continue
                    hi = circuits.gate_unitary(circuits.hadamard(i), n).entries
                    comm = float(np.max(np.abs(hi @ b - b @ hi)))
                    assert comm < 1e-10
                    worst = max(worst, comm)
    print(f"\n[PASS] criterion 3: root identity and commutation, n<=6 "
          f"(max deviation {worst:.2e})")


def test_criterion_4_cost_formulas():
    """Closed forms agree with double sums; the ratio converges to 2; the
    per-qubit total stays bounded (linear scaling)."""
    p = costmodel.LiquidParams()
    worst_rel = 0.0
    for n in range(1, 31):
        closed = costmodel.t_serial_liquid(n, p).coupling_term
        direct = p.kappa * sum(2.0 ** (j - k) for j in range(n) for k in range(j + 1, n + 1))
        worst_rel = max(worst_rel, abs(closed - direct) / closed)
        solid = costmodel.t_serial_solid(
            n, costmodel.SolidParams(delta=1e-8, d=1e7, Delta=1e-7)).coupling_term
        direct_solid = (np.pi / 1e7) * sum(
            2.0 ** (j - k) for j in range(n) for k in range(j + 1, n + 1))
        worst_rel = max(worst_rel, abs(solid - direct_solid) / solid)
    assert worst_rel < 1e-12
    ratio = [costmodel.t_serial_liquid(n, p).coupling_term
             / costmodel.t_parallel(n, p).coupling_term for n in (10, 100, 400)]
    assert abs(ratio[0] - 2.0) < 0.2        # within 10% of 2 by n = 10
    assert abs(ratio[2] - 2.0) < 0.02       # within 1% of 2 once n ~ hundreds
    per_qubit = [costmodel.t_serial_liquid(n, p).total / n for n in range(1, 31)]
    assert max(per_qubit) <= p.delta + p.kappa + 1e-15  # linear scaling: total/n bounded
    print(f"\n[PASS] criterion 4: cost closed forms vs sums (rel dev {worst_rel:.2e}), "
          f"ratio = {ratio[0]:.4f} (n=10) -> {ratio[2]:.4f} (n=400), "
          f"total/n bounded by delta+kappa")


@pytest.mark.xfail(
    strict=True,
    reason="With the pinned formulas the coupling ratio is 2 - 2*(1 - 2**-n)/n "
           "= 1.8002 at n = 10, i.e. within 10 percent of 2, not 1 percent; "
           "1 percent is first reached near n = 100.  The 1-percent-at-n-10 "
           "figure is arithmetically unattainable without changing the "
           "pinned parallel cost kappa*n/2.")
def test_criterion_4_ratio_clause_as_stated():
    """Literal reading of the ratio clause: within 1% of 2 at n = 10."""
    p = costmodel.LiquidParams()
    ratio10 = (costmodel.t_serial_liquid(10, p).coupling_term
               / costmodel.t_parallel(10, p).coupling_term)
    assert abs(ratio10 - 2.0) <= 0.01 * 2.0


def test_criterion_5_pseudopure_preparation():
    """Temporal average is proportional to |00><00| - I/4 for both weightings."""
    target = nmr.pseudopure_projector_deviation(2).entries
    worst = 0.0
    for a, b in ((1.0, 1.0), (4.0, 1.0)):
        rho = nmr.prepare_pseudopure_temporal_avg(a=a, b=b).entries
        scale = 2.0 * (a + b) / 3.0
        worst = max(worst, float(np.max(np.abs(rho - scale * target))))
    assert worst < 1e-6
    print(f"\n[PASS] criterion 5: pseudopure preparation for (1,1) and (4,1) "
          f"(max deviation {worst:.2e})")


def test_criterion_6_sequence_library_end_to_end():
    """All six bundled sequences reach fidelity >= 0.999 noiselessly."""
    start = time.monotonic()
    fids = {}
    for name in nmr.SEQUENCE_LIBRARY:
        fids[name] = sequence_fidelity(nmr.library_sequence(name))
        assert fids[name] >= 0.999, f"{name}: {fids[name]}"
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    summary = ", ".join(f"{k}={v:.6f}" for k, v in fids.items())
    print(f"\n[PASS] criterion 6: {summary} ({elapsed:.2f}s)")


def test_criterion_7_tomography_roundtrip():
    """Linear inversion is the identity on traceless Hermitian matrices."""
    worst = 0.0
    for n, samples, seed in ((2, 100, 2024), (3, 20, 2025)):
        rng = np.random.default_rng(seed)
        for _ in range(samples):
            rho = random_traceless_hermitian(n, rng)
            rec = tomography.reconstruct(tomography.measure_all(rho))
            worst = max(worst, float(np.max(np.abs(rec - rho.entries))))
    assert worst <= 1e-8
    print(f"\n[PASS] criterion 7: tomography round-trip, 100 x n=2 + 20 x n=3 "
          f"(max error {worst:.2e})")


def test_criterion_8_fidelity_properties():
    """Self-fidelity 1, bounded correlation, unitary-conjugation invariance."""
    rho = nmr.pseudopure_projector_deviation(2)
    rep = tomography.fidelity(rho, rho, rho)
    assert abs(rep.fidelity - 1.0) < 1e-12
    rng = np.random.default_rng(99)
    worst_corr = 0.0
    for _ in range(1000):
        a = random_traceless_hermitian(2, rng)
        b = random_traceless_hermitian(2, rng)
        corr = tomography.fidelity(a, b, a).correlation
        assert abs(corr) <= 1.0 + 1e-10
        worst_corr = max(worst_corr, abs(corr))
    a = random_traceless_hermitian(2, rng)
    b = random_traceless_hermitian(2, rng)
    c = random_traceless_hermitian(2, rng)
    u = core.dft_oracle(2)
    base = tomography.fidelity(a, b, c).fidelity
    rotated = tomography.fidelity(core.conjugate(u, a), core.conjugate(u, b),
                                  core.conjugate(u, c)).fidelity
    assert abs(base - rotated) < 1e-10
    print(f"\n[PASS] criterion 8: fidelity properties (max |corr| {worst_corr:.6f}, "
          f"conjugation deviation {abs(base - rotated):.2e})")


def test_criterion_9_dephasing_degrades_monotonically():
    """Hardware fidelities are not reproducible; the substituted check:
    positive dephasing strictly degrades every sequence, monotonically."""
    rates = (0.0, 2.0, 5.0, 12.0, 30.0)
    for name in nmr.SEQUENCE_LIBRARY:
        seq = nmr.library_sequence(name)
        fids = [sequence_fidelity(seq, nmr.NoiseModel.uniform(seq.n, r) if r else None)
                for r in rates]
        assert all(f < fids[0] for f in fids[1:]), f"{name}: {fids}"
        assert all(b <= a + 1e-12 for a, b in zip(fids, fids[1:])), f"{name}: {fids}"
    print("\n[PASS] criterion 9: fidelity strictly below noiseless and "
          f"non-increasing over rates {rates} for all six sequences")
