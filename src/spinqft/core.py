"""Dense linear algebra over small multi-qubit Hilbert spaces.

States, density matrices and unitaries are thin immutable wrappers around
complex numpy arrays, indexed in the computational basis with qubit 1 as
the most significant bit (basis integer ``a`` has the bit of qubit ``j``
at position ``n - j``).  ``apply_local`` (one- and multi-qubit
operators applied to an array on their qubits' axes, without building
the 2**n x 2**n matrix) and ``qubit_bits`` (one qubit's bit across all
basis indices) are the only places outside the oracle that apply this
ordering; ``embed``, the dense matrix of local operators, is
``apply_local`` applied to the identity.  Every gate, pulse, observable
and noise channel in the package is built on them.  A one-qubit operator
is one broadcast matrix product; a multi-qubit one is applied row by
row with elementwise products only, so a controlled phase scales a
quarter of the array and a root-CNOT rewrites only its control = 1 half.

The Fourier matrix built here by a direct scalar double loop is the
independent oracle that every circuit- and pulse-level construction in
the package is checked against.  Entry (c, a) is read from a table of
the 2**n roots exp(2*pi*i*t/2**n)/sqrt(2**n) at the exactly reduced
integer index t = a*c mod 2**n, so no entry carries the roundoff of a
large exp argument.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

MAX_QUBITS = 12

HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

PAULI_I = np.eye(2, dtype=complex)
PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

UNITARITY_TOL = 1e-10
HERMITICITY_TOL = 1e-12


def _check_qubit_count(n: int) -> None:
    if not isinstance(n, (int, np.integer)) or n < 1 or n > MAX_QUBITS:
        raise ValueError(f"qubit count must be an integer in [1, {MAX_QUBITS}], got {n!r}")


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class StateVector:
    """Pure state of ``n`` qubits: 2**n complex amplitudes."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        amps = _frozen(np.asarray(self.amps).reshape(-1))
        if amps.shape != (2 ** self.n,):
            raise ValueError(f"expected {2 ** self.n} amplitudes, got {amps.shape}")
        object.__setattr__(self, "amps", amps)

    def density_matrix(self) -> "DensityMatrix":
        return DensityMatrix(self.n, np.outer(self.amps, self.amps.conj()))


@dataclass(frozen=True)
class DensityMatrix:
    """Physical (trace 1) or deviation (trace 0) density matrix.

    Deviation matrices carry ``traceless=True``; they are the working
    representation for ensemble NMR observables and the fidelity measure.
    """

    n: int
    entries: np.ndarray
    traceless: bool = False

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 2 ** self.n
        m = _frozen(np.asarray(self.entries))
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        # every check is written `not x <= tol`, so that a NaN fails it
        scale = max(1.0, float(np.max(np.abs(m))))
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if self.traceless:
            if not abs(tr) <= 1e-9 * scale:
                raise ValueError(f"deviation matrix must be traceless, trace = {tr}")
        else:
            if not abs(tr - 1.0) <= 1e-9:
                raise ValueError(f"physical density matrix must have trace 1, trace = {tr}")
            if not float(np.min(np.linalg.eigvalsh(m))) >= -1e-10:
                raise ValueError("physical density matrix has a negative eigenvalue")
        object.__setattr__(self, "entries", m)

    def purity(self) -> float:
        return float(np.real(np.trace(self.entries @ self.entries)))


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary operator on ``n`` qubits, validated to 1e-10 entrywise."""

    n: int
    entries: np.ndarray

    def __post_init__(self):
        _check_qubit_count(self.n)
        dim = 2 ** self.n
        m = _frozen(np.asarray(self.entries))
        if m.shape != (dim, dim):
            raise ValueError(f"expected {dim}x{dim} matrix, got {m.shape}")
        if not np.max(np.abs(m @ m.conj().T - np.eye(dim))) <= UNITARITY_TOL:  # NaN fails
            raise ValueError("matrix is not unitary within 1e-10")
        object.__setattr__(self, "entries", m)


def entries_of(obj) -> np.ndarray:
    """Underlying array of a wrapper type, or the array itself."""
    if isinstance(obj, (UnitaryMatrix, DensityMatrix)):
        return obj.entries
    if isinstance(obj, StateVector):
        return obj.amps
    return np.asarray(obj, dtype=complex)


def qubit_bits(j: int, n: int) -> np.ndarray:
    """Bit of qubit ``j`` (1-based, qubit 1 most significant) in every
    basis index 0 .. 2**n - 1, as an integer array."""
    return (np.arange(2 ** n) >> (n - j)) & 1


def _check_labels(n: int, labels) -> None:
    if not set(labels) <= set(range(1, n + 1)):
        raise ValueError(f"qubit labels {sorted(labels)} outside 1..{n}")


def embed(n: int, factors: dict) -> np.ndarray:
    """The 2**n x 2**n matrix of ``factors``, keyed as in ``apply_local``,
    with the identity on every other qubit: ``apply_local`` applied to the
    identity."""
    _check_qubit_count(n)
    return apply_local(np.eye(2 ** n, dtype=complex), n, factors)


def _local_qubits(n: int, factors: dict) -> list[tuple]:
    """Qubits of each key of ``factors`` (an int or an ascending tuple),
    checked to lie in 1..n, with no qubit under two keys and each operator
    of the matching 2**k x 2**k shape."""
    keys = [(key,) if isinstance(key, (int, np.integer)) else tuple(key) for key in factors]
    flat = [j for qubits in keys for j in qubits]
    _check_labels(n, flat)
    if len(set(flat)) != len(flat) or any(list(q) != sorted(q) for q in keys):
        raise ValueError(f"qubit keys {list(factors)} must be ascending and disjoint")
    for qubits, f in zip(keys, factors.values()):
        if np.shape(f) != (2 ** len(qubits),) * 2:
            raise ValueError(f"operator on qubits {qubits} must be {2 ** len(qubits)}x"
                             f"{2 ** len(qubits)}, got shape {np.shape(f)}")
    return keys


def _apply_rows(src: np.ndarray, f: np.ndarray, axes: list) -> np.ndarray:
    """``f`` applied to the keyed qubit ``axes`` of ``src``, row by row.

    For each output pattern r of the keyed qubits (the first axis most
    significant), the slice of the result at r is the sum over the
    nonzero entries f[r, s] of f[r, s] times the slice of ``src`` at s: an
    identity row is a plain copy, so a diagonal gate is one multiply per
    non-identity row and a controlled gate touches only its control = 1
    rows.  Elementwise ufuncs only, no BLAS call; ``src`` is not written.
    """
    k = len(axes)

    def part(arr, r):
        index = [slice(None)] * arr.ndim
        for i, ax in enumerate(axes):
            index[ax] = (r >> (k - 1 - i)) & 1
        return arr[tuple(index)]

    out = np.empty_like(src)
    scratch = None
    for r, row in enumerate(f):
        dst = part(out, r)
        cols = np.flatnonzero(row).tolist()
        if cols == [r] and row[r] == 1:
            dst[...] = part(src, r)
            continue
        if not cols:
            dst[...] = 0
            continue
        np.multiply(part(src, cols[0]), row[cols[0]], out=dst)
        for s in cols[1:]:
            scratch = np.multiply(part(src, s), row[s], out=scratch)
            dst += scratch
    return out


def apply_local(a: np.ndarray, n: int, factors: dict) -> np.ndarray:
    """``embed(n, factors) @ a`` without building the 2**n x 2**n matrix.

    A key of ``factors`` is a 1-based qubit ``j`` with a 2x2 operator, or
    an ascending tuple of k qubits with a 2**k x 2**k operator whose first
    listed qubit is the most significant: ``{(j, k): u4}`` applies a
    two-qubit gate.  No qubit may appear under two keys, so the operators
    commute.  Axis 0 of ``a`` (length 2**n) is split into the keyed
    qubits' axes and the blocks of qubits between them, qubit 1 most
    significant, with the other axes of ``a`` folded into the last block;
    a 2x2 is one broadcast matrix product on its qubit's axis, and a
    larger operator is applied row by row to a C-ordered view of its
    qubits' axes (``_apply_rows``: elementwise, skipping zero entries).
    Returns a new complex array of the shape of ``a``; ``a`` is not
    written.
    """
    keys = _local_qubits(n, factors)
    out = np.asarray(a, dtype=complex)
    shape = out.shape
    if shape[:1] != (2 ** n,):
        raise ValueError(f"expected axis 0 of length {2 ** n}, got shape {shape}")
    for qubits, f in zip(keys, factors.values()):
        if len(qubits) == 1:
            j = qubits[0]
            out = np.matmul(f, out.reshape(2 ** (j - 1), 2, out.size >> j))
            continue
        dims, prev = [], 0
        for j in qubits:
            dims += [2 ** (j - prev - 1), 2]
            prev = j
        out = _apply_rows(out.reshape(dims + [out.size >> prev]), np.asarray(f),
                          list(range(1, 2 * len(qubits), 2)))
    return out.reshape(shape) if factors else out.copy()


def basis_state(n: int, a: int) -> StateVector:
    """Computational basis state |a> on ``n`` qubits."""
    _check_qubit_count(n)
    if not 0 <= a < 2 ** n:
        raise ValueError(f"basis index {a} out of range for n={n}")
    amps = np.zeros(2 ** n, dtype=complex)
    amps[a] = 1.0
    return StateVector(n, amps)


def transition_states(r: int, s: int, n: int) -> tuple[int, int]:
    """Map 1-based transition labels ``r -> s`` to the basis pair (r-1, s-1).

    The pair must be an allowed single-quantum transition: the two basis
    integers differ in exactly one bit.
    """
    dim = 2 ** n
    for t in (r, s):
        if not 1 <= t <= dim:
            raise ValueError(f"transition label {t} out of range [1, {dim}]")
    if r == s:
        raise ValueError("transition endpoints must differ")
    a, b = r - 1, s - 1
    diff = a ^ b
    if diff & (diff - 1):
        raise ValueError(
            f"transition {r}->{s} spans basis states {a:0{n}b} and {b:0{n}b}, "
            "which differ in more than one bit"
        )
    return a, b


def dft_oracle(n: int) -> UnitaryMatrix:
    """Discrete-Fourier matrix with entry (c, a) = exp(2*pi*i*a*c/q)/sqrt(q).

    Built with a literal per-entry scalar double loop: this function is the
    independent brute-force oracle for all circuit verification, so it
    deliberately avoids any shared machinery.  Entry (c, a) is read from a
    table of the q roots ``w[t] = exp(2*pi*i*t/q)/sqrt(q)`` at the exactly
    reduced integer index ``t = a*c % q``, so each entry is one ``cmath.exp``
    of an argument below 2*pi and carries no roundoff from a large a*c.
    """
    _check_qubit_count(n)
    q = 2 ** n
    w = [cmath.exp(2j * cmath.pi * t / q) / cmath.sqrt(q) for t in range(q)]
    m = np.empty((q, q), dtype=complex)
    for c in range(q):
        for a in range(q):
            m[c, a] = w[a * c % q]
    return UnitaryMatrix(n, m)


def conjugate(u: UnitaryMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Unitary conjugation U rho U^dagger; preserves trace and Hermiticity."""
    if u.n != rho.n:
        raise ValueError(f"dimension mismatch: operator on {u.n} qubits, state on {rho.n}")
    return DensityMatrix(rho.n, u.entries @ rho.entries @ u.entries.conj().T, traceless=rho.traceless)


def equal_up_to_global_phase(a, b, tol: float = 1e-10) -> tuple[bool, float]:
    """Test A = exp(i*gamma)*B entrywise within ``tol``.

    The phase gamma is extracted at the largest-magnitude entry of B.
    Returns ``(equal, gamma)``; gamma is reported even on failure.
    """
    am, bm = entries_of(a), entries_of(b)
    if am.shape != bm.shape:
        return False, 0.0
    idx = np.unravel_index(np.argmax(np.abs(bm)), bm.shape)
    if abs(bm[idx]) == 0.0:
        return bool(np.max(np.abs(am)) <= tol), 0.0
    gamma = float(np.angle(am[idx]) - np.angle(bm[idx]))
    ok = bool(np.max(np.abs(am - np.exp(1j * gamma) * bm)) <= tol)
    return ok, gamma


def bit_reversal_permutation(n: int) -> UnitaryMatrix:
    """Permutation P with P|b_{n-1}...b_0> = |b_0...b_{n-1}>."""
    _check_qubit_count(n)
    dim = 2 ** n
    p = np.zeros((dim, dim), dtype=complex)
    for a in range(dim):
        rev = int(format(a, f"0{n}b")[::-1], 2)
        p[rev, a] = 1.0
    return UnitaryMatrix(n, p)

