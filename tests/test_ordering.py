"""Differential check of the qubit-ordering convention.

Every gate, pulse and noise matrix is compared with a reference built
entry by entry from the rule alone: qubit j (1-based) is bit n - j of
the basis index, so qubit 1 is the most significant bit.
"""

import math
from itertools import product

import numpy as np
import pytest

from spinqft import circuits, nmr


def bit(a, j, n):
    return (a >> (n - j)) & 1


def reference_local(n, qubits, op):
    """<b|U|a> = op[b restricted to qubits, a restricted to qubits] when b
    and a agree on every other qubit, else 0; ``qubits`` orders op's rows."""
    dim = 2 ** n
    others = [j for j in range(1, n + 1) if j not in qubits]
    u = np.zeros((dim, dim), dtype=complex)
    for b, a in product(range(dim), repeat=2):
        if all(bit(b, j, n) == bit(a, j, n) for j in others):
            row = sum(bit(b, j, n) << (len(qubits) - 1 - i) for i, j in enumerate(qubits))
            col = sum(bit(a, j, n) << (len(qubits) - 1 - i) for i, j in enumerate(qubits))
            u[b, a] = op[row, col]
    return u


def reference_product(n, factors):
    """<b|U|a> = prod_j f_j[b_j, a_j] over per-qubit factors (identity if absent)."""
    dim = 2 ** n
    u = np.ones((dim, dim), dtype=complex)
    for b, a in product(range(dim), repeat=2):
        for j in range(1, n + 1):
            u[b, a] *= factors.get(j, np.eye(2))[bit(b, j, n), bit(a, j, n)]
    return u


H = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
SWAP4 = np.eye(4)[[0, 2, 1, 3]]


def gate_cases():
    for n in range(1, 6):
        for j in range(1, n + 1):
            yield pytest.param(circuits.hadamard(j), n, reference_product(n, {j: H}),
                               id=f"hadamard-n{n}-{j}")
        yield pytest.param(circuits.total_hadamard(), n,
                           reference_product(n, dict.fromkeys(range(1, n + 1), H)),
                           id=f"total-hadamard-n{n}")
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                theta, alpha = 0.3 + j - 0.1 * k, 2.0 ** (j - k)
                cphase = np.diag([1, 1, 1, np.exp(1j * theta)])
                root = np.eye(4, dtype=complex)
                root[2:, 2:] = circuits.x_power(alpha)
                yield pytest.param(circuits.controlled_phase(j, k, theta), n,
                                   reference_local(n, (j, k), cphase), id=f"cphase-n{n}-{j}{k}")
                yield pytest.param(circuits.root_cnot(j, k, alpha), n,
                                   reference_local(n, (j, k), root), id=f"root-cnot-n{n}-{j}{k}")
                yield pytest.param(circuits.swap(j, k), n,
                                   reference_local(n, (j, k), SWAP4), id=f"swap-n{n}-{j}{k}")


@pytest.mark.parametrize("gate,n,expected", list(gate_cases()))
def test_gate_unitary_matches_per_basis_reference(gate, n, expected):
    np.testing.assert_allclose(circuits.gate_unitary(gate, n).entries, expected, rtol=0, atol=1e-14)


def one_spin_rotation(angle, phase):
    return nmr.element_unitary(nmr.SpinPulse((1,), angle, phase), nmr.SpinSystem(1, ())).entries


@pytest.mark.parametrize("n,spins", [(2, (2,)), (3, (1, 3)), (4, (2, 3, 4)), (4, (1, 2, 3, 4))])
def test_spin_pulse_matches_per_basis_reference(n, spins):
    pulse = nmr.SpinPulse(spins, 1.1, 0.4)
    expected = reference_product(n, dict.fromkeys(spins, one_spin_rotation(1.1, 0.4)))
    got = nmr.element_unitary(pulse, nmr.SpinSystem(n, ())).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


@pytest.mark.parametrize("coupling_sign", [1, -1])
def test_coupling_delay_matches_per_basis_reference(coupling_sign):
    n = 4
    system = nmr.SpinSystem(n, ((1, 2, 215.0), (1, 4, 37.5), (2, 3, 120.0), (3, 4, 80.0)),
                            offsets=(10.0, -25.0, 0.0, 3.5))
    delay = nmr.CouplingDelay(((1, 2, nmr.SymbolicDuration(4)), (1, 4, 0.003), (3, 4, 0.001)))
    legs = delay.resolved(system)
    t_max = max(t for _, _, t in legs)

    def iz(a, j):
        return 0.5 if bit(a, j, n) == 0 else -0.5

    phases = [-sum(coupling_sign * 2 * math.pi * system.coupling(j, k) * t * iz(a, j) * iz(a, k)
                   for j, k, t in legs)
              - sum(2 * math.pi * off * t_max * iz(a, j) for j, off in enumerate(system.offsets, 1))
              for a in range(2 ** n)]
    conventions = nmr.Conventions(coupling_sign=coupling_sign)
    got = nmr.element_unitary(delay, system, conventions).entries
    np.testing.assert_allclose(got, np.diag(np.exp(1j * np.array(phases))), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_damping_matrix_matches_per_basis_reference(n):
    noise = nmr.NoiseModel(tuple(7.0 * j for j in range(1, n + 1)))
    seconds = 0.0137
    dim = 2 ** n
    expected = np.ones((dim, dim))
    for b, a in product(range(dim), repeat=2):
        for j in range(1, n + 1):
            if bit(b, j, n) != bit(a, j, n):
                expected[b, a] *= math.exp(-noise.rates[j - 1] * seconds)
    np.testing.assert_allclose(noise.damping_matrix(n, seconds), expected, rtol=1e-15, atol=0)
