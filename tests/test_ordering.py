"""Differential check of the qubit-ordering convention.

Every gate, pulse and noise matrix is compared with a reference built
entry by entry from the rule alone: qubit j (1-based) is bit n - j of
the basis index, so qubit 1 is the most significant bit.  The
matrix-free ``core.apply_local`` is compared with the Kronecker product
of its factors, and ``core.apply_controlled`` and ``core.apply_channel``
with per-basis-state references.
"""

import math
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest

from conftest import refocused, sequence_unitary, z_template

from spinqft import circuits, core, nmr


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
                w = np.exp(1j * math.pi * alpha)  # X**alpha = ((1 + w) I + (1 - w) X) / 2
                root = np.eye(4, dtype=complex)
                root[2:, 2:] = ((1 + w) * np.eye(2) + (1 - w) * np.array([[0, 1], [1, 0]])) / 2
                yield pytest.param(circuits.controlled_phase(j, k, theta), n,
                                   reference_local(n, (j, k), cphase), id=f"cphase-n{n}-{j}{k}")
                yield pytest.param(circuits.root_cnot(j, k, alpha), n,
                                   reference_local(n, (j, k), root), id=f"root-cnot-n{n}-{j}{k}")


@pytest.mark.parametrize("gate,n,expected", list(gate_cases()))
def test_gate_unitary_matches_per_basis_reference(gate, n, expected):
    np.testing.assert_allclose(circuits.gate_unitary(gate, n).entries, expected, rtol=0, atol=1e-14)


def one_spin_rotation(angle, phase):
    return nmr.element_unitary(nmr.SpinPulse((1,), angle, phase), 1).entries


@pytest.mark.parametrize("n,spins", [(2, (2,)), (3, (1, 3)), (4, (2, 3, 4)), (4, (1, 2, 3, 4))])
def test_spin_pulse_matches_per_basis_reference(n, spins):
    pulse = nmr.SpinPulse(spins, 1.1, 0.4)
    expected = reference_product(n, dict.fromkeys(spins, one_spin_rotation(1.1, 0.4)))
    got = nmr.element_unitary(pulse, n).entries
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14)


def rotation(angle, phase):
    """exp(-i*angle*(Ix*cos(phase) + Iy*sin(phase))), written from the Pauli matrices."""
    x, y = np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]])
    return (math.cos(angle / 2) * np.eye(2)
            - 1j * math.sin(angle / 2) * (math.cos(phase) * x + math.sin(phase) * y))


def single_quantum_transitions(n):
    """Every (from, to) basis pair that differs in one qubit's bit, both ways."""
    for a in range(2 ** n):
        for j in range(1, n + 1):
            if bit(a, j, n) == 0:
                b = a + (1 << (n - j))
                yield a, b
                yield b, a


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transition_pulse_matches_per_basis_reference(n):
    r = rotation(0.9, 2.2)
    for a, b in single_quantum_transitions(n):
        expected = np.eye(2 ** n, dtype=complex)
        for row, c in enumerate((a, b)):
            for col, d in enumerate((a, b)):
                expected[c, d] = r[row, col]
        got = nmr.element_unitary(nmr.TransitionPulse(a + 1, b + 1, 0.9, 2.2), n).entries
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-14, err_msg=f"t{a + 1}-{b + 1}")


# composite-z sandwich templates in time order: (first pulse phase, last pulse phase)
COMPOSITE_Z_TEMPLATES = {
    "literal_xx": (0.0, 0.0),
    "xy_minus": (0.0, math.pi),
    "minus_xy": (math.pi, 0.0),
}


@pytest.mark.parametrize("template", sorted(COMPOSITE_Z_TEMPLATES))
@pytest.mark.parametrize("angle", [0.7, -0.7, 0.0, math.pi, -2.5, 6.0])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_composite_z_matches_per_basis_reference(n, angle, template):
    first, last = COMPOSITE_Z_TEMPLATES[template]
    mid = rotation(abs(angle), math.pi / 2 if angle >= 0 else 3 * math.pi / 2)
    sandwich = rotation(math.pi / 2, last) @ mid @ rotation(math.pi / 2, first)
    for spin in range(1, n + 1):
        program = nmr.PulseSequence("z", n, z_template(spin, angle, template))
        np.testing.assert_allclose(sequence_unitary(program).entries,
                                   reference_product(n, {spin: sandwich}),
                                   rtol=0, atol=1e-14, err_msg=f"spin {spin}")


@pytest.mark.parametrize("coupling_sign", [1, -1])
def test_coupling_delay_matches_per_basis_reference(coupling_sign):
    # a leg (j, k, m) evolves for 1/(m*J), a phase 2*pi*J*t = 2*pi/m on Iz_j*Iz_k;
    # the calibrated sign is -1 (exponent +i); +1 is the delay refocused on
    # a set of spins that every leg has exactly one end in, which also
    # multiplies it by (-i sigma_x)**2 = -1 per refocused spin
    n = 4
    for legs, spins in ((((1, 2, 4), (1, 4, 3), (3, 4, 12)), (1, 3)),
                        (((2, 3, 8), (1, 2, 1)), (2,)),
                        (((1, 2, 1), (1, 3, 5), (1, 4, 12), (1, 3, 2)), (1,)),
                        (((2, 4, 7), (1, 2, 1000)), (2,))):

        def iz(a, j):
            return 0.5 if bit(a, j, n) == 0 else -0.5

        phases = [-sum(coupling_sign * 2 * math.pi / m * iz(a, j) * iz(a, k)
                       for j, k, m in legs) for a in range(2 ** n)]
        delay = nmr.CouplingDelay(legs)
        program, sign = (delay,), 1
        if coupling_sign == 1:
            program, sign = refocused(delay, spins), (-1) ** len(spins)
        got = sequence_unitary(nmr.PulseSequence("delay", n, program)).entries
        np.testing.assert_allclose(got, sign * np.diag(np.exp(1j * np.array(phases))),
                                   rtol=0, atol=1e-12, err_msg=str(legs))


def local_cases():
    for n in range(1, 6):
        for k in (1, 2):
            for qubits in combinations(range(1, n + 1), k):
                yield pytest.param(n, qubits, id=f"n{n}-" + "".join(map(str, qubits)))


@pytest.mark.parametrize("n,qubits", list(local_cases()))
def test_apply_local_equals_embedded_product(n, qubits):
    rng = np.random.default_rng(n * 100 + sum(qubits))
    dim = 2 ** n
    factors = {j: rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for j in qubits}
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    dense = reduce(np.kron, [factors.get(j, np.eye(2)) for j in range(1, n + 1)])  # qubit 1 first
    for operand in (a, a.conj().T, a[:, 0], a.reshape(dim, 2, -1)):
        got = core.apply_local(operand, factors)
        assert got.shape == operand.shape
        np.testing.assert_allclose(got, np.tensordot(dense, operand, axes=1), rtol=0, atol=1e-14)


def pair_cases():
    for n in range(2, 6):
        for j, k in combinations(range(1, n + 1), 2):
            yield pytest.param(n, j, k, id=f"n{n}-{j}{k}")


@pytest.mark.parametrize("n,j,k", list(pair_cases()))
def test_apply_controlled_matches_per_basis_reference(n, j, k):
    rng = np.random.default_rng(n * 100 + 10 * j + k)
    dim = 2 ** n
    v = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    op = np.eye(4, dtype=complex)
    op[2:, 2:] = v
    expected = reference_local(n, (j, k), op)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    locked = a.copy()
    locked.flags.writeable = False
    control_clear = np.array([bit(b, j, n) == 0 for b in range(dim)])
    for operand in (a, a.conj().T, a[:, 0], a.reshape(dim, 2, -1), locked):
        before = operand.copy()
        got = core.apply_controlled(operand, j, k, v)
        assert got.shape == operand.shape
        np.testing.assert_allclose(got, np.tensordot(expected, operand, axes=1),
                                   rtol=0, atol=1e-13)
        assert np.array_equal(got[control_clear], operand[control_clear])
        assert np.array_equal(operand, before)


def channel_cases():
    for n in range(1, 5):
        for j in range(1, n + 1):
            yield pytest.param(n, j, id=f"n{n}-{j}")


@pytest.mark.parametrize("n,j", list(channel_cases()))
def test_apply_channel_matches_per_basis_reference(n, j):
    # entry (r, c) of the result sums s[2 r_j + c_j, 2 x + y] a[r with bit j = x, c with bit j = y]
    rng = np.random.default_rng(n * 10 + j)
    dim = 2 ** n
    s = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    flip = 1 << (n - j)
    diagonal = np.diag(np.diag(s))
    nudged = diagonal.copy()
    nudged[0, 3] = 1e-300
    # a diagonal s scales a in place and never writes the scratch; any other s goes through it
    for op, in_place in ((s, False), (diagonal, True), (nudged, False)):
        expected = np.zeros_like(a)
        for r, c in product(range(dim), repeat=2):
            for x, y in product((0, 1), repeat=2):
                src_r, src_c = r & ~flip | x * flip, c & ~flip | y * flip
                expected[r, c] += op[2 * bit(r, j, n) + bit(c, j, n), 2 * x + y] * a[src_r, src_c]
        got, buf = a.copy(), np.full((2, a.size), np.nan, dtype=complex)
        core.apply_channel(got, j, op, buf)
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-13)
        assert np.isnan(buf).all() == in_place
    u = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))  # u (x) conj(u) is u a u^H
    got = a.copy()
    core.apply_channel(got, j, np.kron(u, u.conj()), np.empty((2, a.size), dtype=complex))
    dense = reduce(np.kron, [u if k == j else np.eye(2) for k in range(1, n + 1)])
    np.testing.assert_allclose(got, dense @ a @ dense.conj().T, rtol=0, atol=1e-13)


@pytest.mark.parametrize("a,j,s,buf", [
    (np.eye(8, dtype=complex), 0, np.eye(4), np.empty((2, 64), dtype=complex)),
    (np.eye(8, dtype=complex), 4, np.eye(4), np.empty((2, 64), dtype=complex)),
    (np.eye(8, dtype=complex)[:, ::-1], 1, np.eye(4), np.empty((2, 64), dtype=complex)),
    (np.eye(8, dtype=complex), 1, np.eye(2), np.empty((2, 64), dtype=complex)),
    (np.eye(8, dtype=complex), 1, np.eye(4), np.empty((2, 16), dtype=complex)),
], ids=["label-0", "label-above-n", "not-c-contiguous", "2x2", "small-scratch"])
def test_apply_channel_refuses_what_it_cannot_write_in_place(a, j, s, buf):
    with pytest.raises(ValueError):
        core.apply_channel(a, j, s, buf)


@pytest.mark.parametrize("n,control,target", [(2, 1, 3), (3, 0, 2), (3, 2, 2), (3, 3, 1)])
def test_apply_controlled_rejects_bad_labels(n, control, target):
    with pytest.raises(ValueError):
        core.apply_controlled(np.eye(2 ** n), control, target, H)


@pytest.mark.parametrize("factors", [{(2, 1): np.eye(4)}, {(1, 2): np.eye(4), 2: H},
                                     {(1, 2): np.eye(2)}, {1: np.eye(4)}],
                         ids=["descending", "overlapping", "too-small", "single-too-big"])
def test_apply_local_rejects_bad_keys(factors):
    with pytest.raises(ValueError):
        core.apply_local(np.eye(8), factors)


@pytest.mark.parametrize("n,labels", [(3, (0,)), (3, (4,)), (2, (1, 3)), (1, (-1,))])
def test_apply_local_rejects_labels_outside_1_to_n(n, labels):
    factors = dict.fromkeys(labels, H)
    for call in (lambda: core.apply_local(np.eye(2 ** n), factors),
                 lambda: core.apply_local(np.ones(2 ** n), factors)):
        with pytest.raises(ValueError, match="outside"):
            call()


def test_apply_local_rejects_wrong_length():
    # no n has an axis of 0 or 3 entries, so neither kernel reads one
    for length in (0, 3):
        with pytest.raises(ValueError, match=r"2\*\*n"):
            core.apply_local(np.ones(length), {1: H})
        with pytest.raises(ValueError, match=r"2\*\*n"):
            core.apply_controlled(np.ones((length, 2)), 1, 2, H)
