"""Gate-level constructions of the quantum Fourier transform.

Three builders produce symbolic gate lists: the serial form (qubit-wise
Hadamards plus two-qubit controlled-phase gates, O(n^2) gates), the
parallel form (one non-selective Hadamard plus root-of-controlled-NOT
gates, O(n) pulses), and the approximate form (serial with long-range
phase gates dropped).  Circuits store gates first-in-time-first-in-list;
``gate_counts`` tallies them by kind in a ``collections.Counter``.
Every two-qubit gate is a one-qubit operator on the target qubit k
applied when the control qubit j is set, so each gate kind is defined
once, by that 2x2 target operator (``_target_operator``).
``gate_unitary`` applies it to the identity where the gate acts
(``_apply``: ``core.apply_local`` for a Hadamard,
``core.apply_controlled`` for a controlled phase or root of CNOT),
giving the gate on the full space.  ``circuit_unitary`` starts from the
identity and applies each gate in time order the same way, with its
target operator checked unitary on one or two qubits; only the finished
product is checked as a 2**n-dimensional unitary.

Both exact builders produce the transform with the output bits in
reversed order: ``bit_reversal @ circuit_unitary(...)`` equals the
Fourier oracle up to a global phase.  No SWAP gates are emitted:
verification applies the reversal as a row permutation of the product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    HADAMARD,
    UnitaryMatrix,
    _check_labels,
    _check_qubit_count,
    _phase_deviation,
    apply_controlled,
    apply_local,
    bit_reversal_permutation,
    dft_oracle,
)

HADAMARD_KIND = "hadamard"
TOTAL_HADAMARD_KIND = "total_hadamard"
CONTROLLED_PHASE_KIND = "controlled_phase"
ROOT_CNOT_KIND = "root_cnot"
GATE_KINDS = (HADAMARD_KIND, TOTAL_HADAMARD_KIND, CONTROLLED_PHASE_KIND, ROOT_CNOT_KIND)
VERIFY_TOL = 1e-10  # the largest deviation from the oracle that verify_against_oracle passes


@dataclass(frozen=True)
class Gate:
    """One gate; qubit labels are 1-based with qubit 1 most significant."""

    kind: str
    j: int = 0
    k: int = 0
    theta: float = 0.0  # controlled-phase angle, radians
    alpha: float = 0.0  # root-of-CNOT exponent in (0, 1]

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}; expected one of {GATE_KINDS}")
        if self.kind in (CONTROLLED_PHASE_KIND, ROOT_CNOT_KIND):
            if not self.j < self.k:
                raise ValueError(f"two-qubit gate needs j < k, got j={self.j}, k={self.k}")
        if self.kind == ROOT_CNOT_KIND and not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"root-of-CNOT exponent must lie in (0, 1], got {self.alpha}")


def hadamard(j: int) -> Gate:
    return Gate(HADAMARD_KIND, j=j)


def total_hadamard() -> Gate:
    return Gate(TOTAL_HADAMARD_KIND)


def controlled_phase(j: int, k: int, theta: float) -> Gate:
    return Gate(CONTROLLED_PHASE_KIND, j=j, k=k, theta=float(theta))


def root_cnot(j: int, k: int, alpha: float) -> Gate:
    """Controlled X**alpha with control ``j`` and target ``k``."""
    return Gate(ROOT_CNOT_KIND, j=j, k=k, alpha=float(alpha))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; index 0 is applied first in time."""

    n: int
    gates: tuple
    decomposition: str = ""

    def __post_init__(self):
        _check_qubit_count(self.n)
        gates = tuple(self.gates)
        _check_labels(self.n, {q for g in gates if g.kind != TOTAL_HADAMARD_KIND
                               for q in ([g.j] if g.kind == HADAMARD_KIND else [g.j, g.k])})
        object.__setattr__(self, "gates", gates)


def gate_counts(circuit: Circuit) -> Counter:
    """Gates by kind, one of ``GATE_KINDS``; a kind the circuit lacks reads 0."""
    return Counter(g.kind for g in circuit.gates)


def phase_angle(j: int, k: int) -> float:
    """Conditional phase theta_jk = pi * 2**(j-k) for the transform builders."""
    return np.pi * 2.0 ** (j - k)


def build_serial(n: int) -> Circuit:
    """Serial decomposition: for j = 1..n, H_j followed by its phase gates.

    In-time order: H_1, B_{1,2}, ..., B_{1,n}, H_2, B_{2,3}, ..., H_n.
    Gate counts: n Hadamards and n(n-1)/2 controlled-phase gates.
    """
    _check_qubit_count(n)
    gates = []
    for j in range(1, n + 1):
        gates.append(hadamard(j))
        for k in range(j + 1, n + 1):
            gates.append(controlled_phase(j, k, phase_angle(j, k)))
    return Circuit(n, tuple(gates), decomposition="serial")


def build_parallel(n: int) -> Circuit:
    """Parallel decomposition: one total Hadamard, then multiqubit root gates.

    In-time order: TotalHadamard, then blocks U_1 ... U_{n-1}, where block
    U_m is the commuting set of root-of-CNOT gates targeting qubit m+1:
    (CNOT)^{1/2}_{m,m+1}, (CNOT)^{1/4}_{m-1,m+1}, ..., (CNOT)^{1/2^m}_{1,m+1}.
    """
    _check_qubit_count(n)
    gates = [total_hadamard()]
    for m in range(1, n):
        for j in range(m, 0, -1):
            gates.append(root_cnot(j, m + 1, 2.0 ** (j - (m + 1))))
    return Circuit(n, tuple(gates), decomposition="parallel")


def build_approximate(n: int, m: int) -> Circuit:
    """Serial circuit with every controlled phase of range k - j > m removed.

    ``m = n`` reproduces the serial gate list exactly.
    """
    _check_qubit_count(n)
    if not 1 <= m <= n:
        raise ValueError(f"approximation range m must lie in [1, {n}], got {m}")
    base = build_serial(n)
    kept = tuple(g for g in base.gates
                 if g.kind != CONTROLLED_PHASE_KIND or g.k - g.j <= m)
    return Circuit(n, kept, decomposition=f"approximate({m})")


def x_power(alpha: float) -> np.ndarray:
    """Principal power X**alpha = H diag(1, exp(i*pi*alpha)) H."""
    return HADAMARD @ np.diag([1.0, np.exp(1j * np.pi * alpha)]) @ HADAMARD


def _target_operator(g: Gate) -> np.ndarray:
    """The 2x2 the gate applies to its target: the Hadamard, or, when the
    control is set, the phase diag(1, exp(i*theta)) or X**alpha."""
    if g.kind in (HADAMARD_KIND, TOTAL_HADAMARD_KIND):
        return HADAMARD
    if g.kind == CONTROLLED_PHASE_KIND:
        return np.diag([1.0, np.exp(1j * g.theta)])
    return x_power(g.alpha)


def _apply(a: np.ndarray, g: Gate, n: int, v: np.ndarray) -> np.ndarray:
    """``g`` times ``a`` with target operator ``v``: on qubit ``j`` (every
    qubit for the total Hadamard), or on ``k`` controlled by ``j``."""
    if g.kind == HADAMARD_KIND:
        return apply_local(a, {g.j: v})
    if g.kind == TOTAL_HADAMARD_KIND:
        return apply_local(a, dict.fromkeys(range(1, n + 1), v))
    return apply_controlled(a, g.j, g.k, v)


def gate_unitary(g: Gate, n: int) -> UnitaryMatrix:
    """The gate on the full 2**n-dimensional space: its target operator
    applied to the identity where the gate acts."""
    _check_qubit_count(n)
    return UnitaryMatrix(_apply(np.eye(2 ** n, dtype=complex), g, n, _target_operator(g)))


def circuit_unitary(circuit: Circuit) -> UnitaryMatrix:
    """Ordered product of the gate unitaries, first-in-time rightmost.

    Applies each gate to the running product where it acts, starting from
    the identity.  The target operator is read from ``gate_unitary`` of the
    gate moved onto qubit 1 or qubits (1, 2), so it is checked unitary as a
    2x2 or 4x4; the product is checked unitary once, at the end.
    """
    n = circuit.n
    out = np.eye(2 ** n, dtype=complex)
    for g in circuit.gates:
        if g.kind in (HADAMARD_KIND, TOTAL_HADAMARD_KIND):
            v = gate_unitary(hadamard(1), 1).entries
        else:
            v = gate_unitary(replace(g, j=1, k=2), 2).entries[2:, 2:]
        out = _apply(out, g, n, v)
    return UnitaryMatrix(out)


def qft_product_state(a: int, n: int) -> np.ndarray:
    """Amplitudes of the closed-form product state equal to the bit-reversed
    transform of |a>.

    Qubit m carries the factor (|0> + exp(2*pi*i*phi_{m-1})|1>)/sqrt(2)
    with phi_j = sum_{k=0}^{n-1-j} a_k 2^{j+k-n} over the bits a_k of
    ``a`` (a_0 least significant).  Equals column ``a`` of
    ``bit_reversal_permutation(n) @ dft_oracle(n)``.
    """
    _check_qubit_count(n)
    if not 0 <= a < 2 ** n:
        raise ValueError(f"basis index {a} out of range for n={n}")
    bits = [(a >> k) & 1 for k in range(n)]
    amps = np.ones(1, dtype=complex)
    for m in range(1, n + 1):
        j = m - 1
        phi = sum(bits[k] * 2.0 ** (j + k - n) for k in range(n - j))
        factor = np.array([1.0, np.exp(2j * np.pi * phi)], dtype=complex) / np.sqrt(2.0)
        amps = np.kron(amps, factor)
    return amps


def verify_against_oracle(circuit: Circuit) -> tuple[bool, float]:
    """Compare bit_reversal @ circuit against the Fourier oracle.

    The reversal is applied as a row permutation of the circuit unitary:
    row r of ``bit_reversal_permutation`` has its one 1 in the column that
    moves to row r.  Returns (deviation <= ``VERIFY_TOL``, max entrywise
    deviation after removing the global phase).  The serial and parallel
    builders pass for all n.
    """
    u = circuit_unitary(circuit).entries
    target = dft_oracle(circuit.n).entries
    lhs = u[np.nonzero(bit_reversal_permutation(circuit.n).entries)[1]]
    dev, _ = _phase_deviation(lhs, target)
    return dev <= VERIFY_TOL, dev

