"""Gate-level constructions of the quantum Fourier transform.

Three builders produce symbolic gate lists: the serial form (qubit-wise
Hadamards plus two-qubit controlled-phase gates, O(n^2) gates), the
parallel form (one non-selective Hadamard plus root-of-controlled-NOT
gates, O(n) pulses), and the approximate form (serial with long-range
phase gates dropped).  Circuits store gates first-in-time-first-in-list;
``gate_counts`` tallies them by kind in a ``collections.Counter``.
Every two-qubit gate is a diagonal: a controlled phase scales row ``a``
by exp(i*theta*b_j*b_k), with b_j the bit of qubit j in ``a``
(``core.qubit_bits``), and a root of CNOT is that scaling with
theta = pi*alpha between two Hadamards on the target k, since
X**alpha = H diag(1, exp(i*pi*alpha)) H.  So every gate is applied as
Hadamards (``core.apply_local``) and row scalings.  ``gate_unitary``
applies a gate so to the identity.  ``circuit_unitary`` multiplies
each gate's diagonal into one pending phase vector, which scales the
running product only before the next Hadamard, and a run of roots on
one target (a block of the parallel form) shares one pair of Hadamards:
O(n) passes over the 2**n x 2**n product for either exact form.

Both exact builders produce the transform with the output bits in
reversed order: ``bit_reversal @ circuit_unitary(...)`` equals the
Fourier oracle up to a global phase.  No SWAP gates are emitted:
verification applies the reversal as a row permutation of the product.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import (
    HADAMARD,
    UnitaryMatrix,
    _check_labels,
    _check_qubit_count,
    _phase_deviation,
    apply_local,
    bit_reversal_permutation,
    dft_oracle,
    qubit_bits,
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


def _phases(g: Gate, n: int, phase: complex) -> np.ndarray:
    """The diagonal of the two-qubit gate ``g`` with ``phase`` at each row
    where qubits j and k are both set, 1 elsewhere."""
    return np.where(qubit_bits(g.j, n) & qubit_bits(g.k, n), phase, 1.0 + 0.0j)


def _angle(g: Gate) -> float:
    """theta of the controlled phase, or pi*alpha of the root of CNOT."""
    return g.theta if g.kind == CONTROLLED_PHASE_KIND else np.pi * g.alpha


def _hadamards(out: np.ndarray, d: np.ndarray | None, on, h: np.ndarray = HADAMARD):
    """``h`` on each qubit in ``on`` times diag(``d``) times ``out``: the
    rows of ``out`` are scaled in place by the pending diagonal ``d``, if
    any, and ``out`` itself is returned when ``on`` is empty."""
    if d is not None:
        out *= d[:, None]
    return apply_local(out, dict.fromkeys(on, h)) if on else out


def gate_unitary(g: Gate, n: int) -> UnitaryMatrix:
    """The gate on the full 2**n-dimensional space, applied to the
    identity: a Hadamard by ``core.apply_local``, a controlled phase as
    the diagonal of exp(i*theta), and a root of CNOT as the diagonal of
    exp(i*pi*alpha) between two Hadamards on its target."""
    _check_qubit_count(n)
    eye = np.eye(2 ** n, dtype=complex)
    if g.kind in (HADAMARD_KIND, TOTAL_HADAMARD_KIND):
        on = [g.j] if g.kind == HADAMARD_KIND else range(1, n + 1)
        return UnitaryMatrix(_hadamards(eye, None, on))
    d = _phases(g, n, np.exp(1j * _angle(g)))
    if g.kind == CONTROLLED_PHASE_KIND:
        return UnitaryMatrix(np.diag(d))
    return UnitaryMatrix(_hadamards(_hadamards(eye, None, [g.k]), d, [g.k]))


def circuit_unitary(circuit: Circuit) -> UnitaryMatrix:
    """Ordered product of the gate unitaries, first-in-time rightmost.

    Starts from the identity and keeps one pending diagonal: each
    two-qubit gate multiplies its phases into it, and it scales the rows
    of the running product only before the next Hadamard and at the end.
    A root of CNOT opens a pair of Hadamards on its target, unless one is
    open there; any gate but a root on that target closes the pair, and
    so does the end.  A Hadamard is read from ``gate_unitary(hadamard(1),
    1)`` and a phase from entry [3, 3] of the controlled phase that
    ``gate_unitary`` builds on qubits (1, 2), so each applied operator is
    checked unitary as a 2x2 or 4x4; the product is checked once, at the
    end.
    """
    n = circuit.n
    out, d, pair = np.eye(2 ** n, dtype=complex), None, 0  # pair: the open pair's target
    for g in circuit.gates:
        if pair and (g.kind != ROOT_CNOT_KIND or g.k != pair):
            out, d, pair = _hadamards(out, d, [pair]), None, 0
        if g.kind in (HADAMARD_KIND, TOTAL_HADAMARD_KIND):
            on = [g.j] if g.kind == HADAMARD_KIND else range(1, n + 1)
            out, d = _hadamards(out, d, on, gate_unitary(hadamard(1), 1).entries), None
            continue
        if g.kind == ROOT_CNOT_KIND and not pair:
            out, d, pair = _hadamards(out, d, [g.k]), None, g.k
        phases = _phases(g, n, gate_unitary(controlled_phase(1, 2, _angle(g)), 2).entries[3, 3])
        d = phases if d is None else d * phases
    return UnitaryMatrix(_hadamards(out, d, [pair] if pair else []))


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

    The reversal is applied as a row index into the circuit unitary: row r
    of ``bit_reversal_permutation`` has its one 1 in the column that moves
    to row r.  That index is read first, so the permutation matrix is freed
    before the two products are built, and the comparison reads the
    circuit's rows through it one row block at a time, with no reversed
    copy.  Returns (deviation <= ``VERIFY_TOL``, max entrywise deviation
    after removing the global phase).  The serial and parallel builders
    pass for all n.
    """
    rows = np.nonzero(bit_reversal_permutation(circuit.n).entries)[1]
    u = circuit_unitary(circuit).entries
    dev, _ = _phase_deviation(u, dft_oracle(circuit.n).entries, rows)
    return dev <= VERIFY_TOL, dev

