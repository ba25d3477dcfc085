"""Gate-level constructions of the quantum Fourier transform.

Three builders produce symbolic gate lists: the serial form (qubit-wise
Hadamards plus two-qubit controlled-phase gates, O(n^2) gates), the
parallel form (one non-selective Hadamard plus root-of-controlled-NOT
gates, O(n) pulses), and the approximate form (serial with long-range
phase gates dropped).  Circuits store gates first-in-time-first-in-list;
evaluation multiplies unitaries right-to-left over the list.

Both exact builders produce the transform with the output bits in
reversed order: ``bit_reversal @ circuit_unitary(...)`` equals the
Fourier oracle up to a global phase.  No SWAP gates are emitted; a
swap-appending wrapper exists for cost accounting only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HADAMARD,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    StateVector,
    UnitaryMatrix,
    _check_qubit_count,
    bit_reversal_permutation,
    dft_oracle,
    embed,
    qubit_bits,
)

HADAMARD_KIND = "hadamard"
TOTAL_HADAMARD_KIND = "total_hadamard"
CONTROLLED_PHASE_KIND = "controlled_phase"
ROOT_CNOT_KIND = "root_cnot"
SWAP_KIND = "swap"


@dataclass(frozen=True)
class Gate:
    """One gate; qubit labels are 1-based with qubit 1 most significant."""

    kind: str
    j: int = 0
    k: int = 0
    theta: float = 0.0  # controlled-phase angle, radians
    alpha: float = 0.0  # root-of-CNOT exponent in (0, 1]

    def __post_init__(self):
        if self.kind in (CONTROLLED_PHASE_KIND, ROOT_CNOT_KIND, SWAP_KIND):
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


def swap(j: int, k: int) -> Gate:
    return Gate(SWAP_KIND, j=j, k=k)


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list; index 0 is applied first in time."""

    n: int
    gates: tuple
    decomposition: str = ""

    def __post_init__(self):
        _check_qubit_count(self.n)
        gates = tuple(self.gates)
        for g in gates:
            labels = [g.j, g.k] if g.kind not in (HADAMARD_KIND, TOTAL_HADAMARD_KIND) else [g.j]
            if g.kind == TOTAL_HADAMARD_KIND:
                labels = []
            for lbl in labels:
                if not 1 <= lbl <= self.n:
                    raise ValueError(f"gate {g} references qubit {lbl} outside 1..{self.n}")
        object.__setattr__(self, "gates", gates)


@dataclass(frozen=True)
class GateCounts:
    hadamards: int = 0
    controlled_phases: int = 0
    swaps: int = 0
    total_hadamards: int = 0
    root_cnots: int = 0


def gate_counts(circuit: Circuit) -> GateCounts:
    """Tally gates by kind with a linear scan."""
    tally = {k: 0 for k in (HADAMARD_KIND, CONTROLLED_PHASE_KIND, SWAP_KIND,
                            TOTAL_HADAMARD_KIND, ROOT_CNOT_KIND)}
    for g in circuit.gates:
        tally[g.kind] += 1
    return GateCounts(
        hadamards=tally[HADAMARD_KIND],
        controlled_phases=tally[CONTROLLED_PHASE_KIND],
        swaps=tally[SWAP_KIND],
        total_hadamards=tally[TOTAL_HADAMARD_KIND],
        root_cnots=tally[ROOT_CNOT_KIND],
    )


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


def gate_unitary(g: Gate, n: int) -> UnitaryMatrix:
    """Embed a gate into the full 2**n-dimensional unitary."""
    _check_qubit_count(n)
    if g.kind == HADAMARD_KIND:
        return UnitaryMatrix(n, embed(n, {g.j: HADAMARD}))
    if g.kind == TOTAL_HADAMARD_KIND:
        return UnitaryMatrix(n, embed(n, dict.fromkeys(range(1, n + 1), HADAMARD)))
    if not (1 <= g.j < g.k <= n):
        raise ValueError(f"invalid qubit pair ({g.j}, {g.k}) for n={n}")
    control, target = qubit_bits(g.j, n), qubit_bits(g.k, n)
    if g.kind == CONTROLLED_PHASE_KIND:
        return UnitaryMatrix(n, np.diag(np.where(control & target, np.exp(1j * g.theta), 1.0)))
    if g.kind == ROOT_CNOT_KIND:
        xa = x_power(g.alpha)
        # control-set indices with target 0 (lo) and 1 (hi); lo[i], hi[i] is one pair
        lo = np.flatnonzero(control > target)
        hi = np.flatnonzero(control & target)
        m = np.eye(2 ** n, dtype=complex)
        m[lo, lo], m[lo, hi] = xa[0, 0], xa[0, 1]
        m[hi, lo], m[hi, hi] = xa[1, 0], xa[1, 1]
        return UnitaryMatrix(n, m)
    if g.kind == SWAP_KIND:
        # SWAP = (II + XX + YY + ZZ) / 2 on the pair
        return UnitaryMatrix(n, sum(embed(n, {g.j: p, g.k: p})
                                    for p in (PAULI_I, PAULI_X, PAULI_Y, PAULI_Z)) / 2.0)
    raise ValueError(f"unknown gate kind {g.kind!r}")


def circuit_unitary(circuit: Circuit) -> UnitaryMatrix:
    """Ordered product of gate unitaries, first-in-time rightmost."""
    dim = 2 ** circuit.n
    out = np.eye(dim, dtype=complex)
    for g in circuit.gates:
        out = gate_unitary(g, circuit.n).entries @ out
    return UnitaryMatrix(circuit.n, out)


def with_bit_reversal_swaps(circuit: Circuit) -> Circuit:
    """Append the floor(n/2) SWAP gates that undo the output bit reversal.

    Cost-accounting helper; the builders themselves never emit SWAPs
    because verification applies the reversal as a comparison-time
    permutation.
    """
    gates = list(circuit.gates)
    for j in range(1, circuit.n // 2 + 1):
        gates.append(swap(j, circuit.n + 1 - j))
    return Circuit(circuit.n, tuple(gates), decomposition=circuit.decomposition + "+swaps")


def qft_product_state(a: int, n: int) -> StateVector:
    """Closed-form product state equal to the bit-reversed transform of |a>.

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
    return StateVector(n, amps)


def verify_against_oracle(circuit: Circuit, tol: float = 1e-10) -> tuple[bool, float]:
    """Compare bit_reversal @ circuit against the Fourier oracle.

    Returns (passed, max entrywise deviation after removing the global
    phase).  The serial and parallel builders satisfy this for all n.
    """
    from .core import equal_up_to_global_phase

    u = circuit_unitary(circuit).entries
    target = dft_oracle(circuit.n).entries
    lhs = bit_reversal_permutation(circuit.n).entries @ u
    ok, gamma = equal_up_to_global_phase(lhs, target, tol)
    dev = float(np.max(np.abs(lhs - np.exp(1j * gamma) * target)))
    return ok, dev


# -- JSON interchange ---------------------------------------------------

def circuit_to_json(circuit: Circuit) -> dict:
    records = []
    for g in circuit.gates:
        rec = {"kind": g.kind}
        if g.kind == HADAMARD_KIND:
            rec["j"] = g.j
        elif g.kind in (CONTROLLED_PHASE_KIND, ROOT_CNOT_KIND, SWAP_KIND):
            rec["j"], rec["k"] = g.j, g.k
        if g.kind == CONTROLLED_PHASE_KIND:
            rec["theta"] = g.theta
        if g.kind == ROOT_CNOT_KIND:
            rec["alpha"] = g.alpha
        records.append(rec)
    return {"n": circuit.n, "decomposition": circuit.decomposition, "gates": records}


def circuit_from_json(doc: dict) -> Circuit:
    gates = []
    for rec in doc["gates"]:
        kind = rec["kind"]
        gates.append(Gate(kind, j=rec.get("j", 0), k=rec.get("k", 0),
                          theta=rec.get("theta", 0.0), alpha=rec.get("alpha", 0.0)))
    return Circuit(int(doc["n"]), tuple(gates), decomposition=doc.get("decomposition", ""))
