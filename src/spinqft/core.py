"""Dense linear algebra over small multi-qubit Hilbert spaces.

Density matrices (always the traceless deviation part of an ensemble
state) and unitaries are thin immutable wrappers around complex numpy
arrays, indexed in the computational basis with qubit 1 as the most
significant bit (basis integer ``a`` has the bit of qubit ``j`` at
position ``n - j``).  An array's n is never passed beside it: one shape
rule reads it before any copy (``_axis_qubits``, ``_matrix_qubits``).
``apply_local`` (one-qubit operators applied to an array on their
qubits' axes, without building the 2**n x 2**n matrix),
``apply_controlled`` (a one-qubit operator on a target qubit when a
control qubit is set), ``apply_channel`` (a 4x4 superoperator on one
qubit's row and column bits of a matrix) and ``qubit_bits`` (one qubit's
bit across all basis indices) apply this ordering to every gate, pulse
and noise channel in the package and to the bit reversal; the only other
places are the oracle and the tomography's Pauli transform, which
reshapes a matrix to one axis per qubit.  Each is one broadcast matrix product on a reshaped view:
a controlled gate copies its control = 0 half and rewrites only the
control = 1 half, and a diagonal channel is one in-place scaling.

The Fourier matrix built here by a direct scalar double loop is the
independent oracle that every circuit- and pulse-level construction in
the package is checked against.  Entry (c, a) is read from a table of
the 2**n roots exp(2*pi*i*t/2**n)/sqrt(2**n) at the exactly reduced
integer index t = a*c mod 2**n, so no entry carries the roundoff of a
large exp argument.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

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


def _axis_qubits(shape: tuple, axis: int = 0) -> int:
    """n of axis ``axis`` of ``shape`` when its length is 2**n, 1 <= n <= MAX_QUBITS."""
    n = (shape[axis] - 1).bit_length() if shape else 0
    if not 1 <= n <= MAX_QUBITS or shape[axis] != 2 ** n:
        raise ValueError(f"expected axes of length 2**n, 1 <= n <= {MAX_QUBITS}, got shape {shape}")
    return n


def _matrix_qubits(m, max_ndim: int = 2) -> int:
    """n of 2**n x 2**n matrices in the last two of at most ``max_ndim`` axes, by shape."""
    shape = np.shape(m.entries if isinstance(m, (UnitaryMatrix, DensityMatrix)) else m)
    if not 2 <= len(shape) <= max_ndim or shape[-2] != shape[-1]:
        raise ValueError(f"expected 2**n x 2**n matrices in at most {max_ndim} axes, got {shape}")
    return _axis_qubits(shape, -1)


def _frozen(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=complex)
    out.flags.writeable = False
    return out


@dataclass(frozen=True)
class DensityMatrix:
    """Deviation density matrix: Hermitian and traceless.

    An ensemble NMR state is I/2**n plus a small deviation, and only the
    deviation is observable (Vandersypen & Chuang, Rev. Mod. Phys. 76,
    1037 (2005)); it is the one state representation of the package and
    the input of the fidelity measure.
    """

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _matrix_qubits(self.entries))
        m = _frozen(self.entries)
        # every check is written `not x <= tol`, so that a NaN fails it
        scale = max(1.0, float(np.max(np.abs(m))))
        if not np.max(np.abs(m - m.conj().T)) <= HERMITICITY_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(m))
        if not abs(tr) <= 1e-9 * scale:
            raise ValueError(f"deviation matrix must be traceless, trace = {tr}")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True)
class UnitaryMatrix:
    """Unitary operator on ``n`` qubits, validated to 1e-10 entrywise."""

    entries: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", _matrix_qubits(self.entries))
        m = _frozen(self.entries)
        p = m @ m.conj().T
        # p - I in place; indexing with np.diag_indices_from instead raised a
        # verify child's peak RSS by 0.25 MiB
        p.flat[:: len(p) + 1] -= 1.0
        if not np.max(np.abs(p)) <= UNITARITY_TOL:  # NaN fails
            raise ValueError("matrix is not unitary within 1e-10")
        object.__setattr__(self, "entries", m)


def _trace_product(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr(a b), where ``b`` must be Hermitian: then Tr(a b) =
    sum a_ij conj(b_ij), taken here as one real dot product of the
    interleaved real and imaginary parts.  O(4**n) with no matrix product,
    and summed by ``einsum``, not BLAS (``np.vdot`` is ``zdotc``), so the
    result does not depend on the BLAS thread count."""
    x, y = (np.ascontiguousarray(m, dtype=complex).view(np.float64).ravel() for m in (a, b))
    return float(np.einsum("i,i->", x, y))


def entries_of(obj) -> np.ndarray:
    """Underlying array of a wrapper type, or the array itself."""
    if isinstance(obj, (UnitaryMatrix, DensityMatrix)):
        return obj.entries
    return np.asarray(obj, dtype=complex)


def qubit_bits(j: int, n: int) -> np.ndarray:
    """Bit of qubit ``j`` (1-based, qubit 1 most significant) in every
    basis index 0 .. 2**n - 1, as an integer array."""
    return (np.arange(2 ** n) >> (n - j)) & 1


def _check_labels(n: int, labels) -> None:
    if not set(labels) <= set(range(1, n + 1)):
        raise ValueError(f"qubit labels {sorted(labels)} outside 1..{n}")


def apply_local(a: np.ndarray, factors: dict) -> np.ndarray:
    """The 2**n x 2**n matrix of ``factors`` (the identity on every other
    qubit) times ``a``, without building that matrix.

    ``factors`` maps 1-based qubits to 2x2 operators, which commute.  Each
    is one broadcast matrix product on its qubit's axis of ``a`` reshaped
    to (2**(j-1), 2, rest), the other axes of ``a`` folded into ``rest``.
    Returns a new complex array of the shape of ``a``; ``a`` is not written.
    """
    if not all(isinstance(j, (int, np.integer)) and np.shape(f) == (2, 2)
               for j, f in factors.items()):
        raise ValueError(f"factors on {list(factors)} must map single qubits to 2x2 operators")
    _check_labels(_axis_qubits(np.shape(a)), factors)
    out = np.asarray(a, dtype=complex)
    shape = out.shape
    for j, f in factors.items():
        out = np.matmul(f, out.reshape(2 ** (j - 1), 2, out.size >> j))
    return out.reshape(shape) if factors else out.copy()


def apply_controlled(a: np.ndarray, control: int, target: int, v: np.ndarray) -> np.ndarray:
    """The gate applying the 2x2 ``v`` to qubit ``target`` when qubit
    ``control < target`` is set, times ``a``, without building its matrix.

    Axis 0 of ``a`` is split into (2**(control-1), 2, 2**(target-control-1),
    2, rest) as in ``apply_local``: the control = 0 half is copied and ``v``
    goes onto the target axis of the control = 1 half in one strided matrix
    product.  Returns a new complex array of the shape of ``a``, which is
    not written.
    """
    n = _axis_qubits(np.shape(a))
    if not 1 <= control < target <= n:
        raise ValueError(f"control {control}, target {target} outside 1 <= control < target <= {n}")
    src = np.asarray(a, dtype=complex)
    src = src.reshape(2 ** (control - 1), 2, 2 ** (target - control - 1), 2, src.size >> target)
    out = np.empty_like(src)
    out[:, 0] = src[:, 0]
    np.matmul(v, src[:, 1], out=out[:, 1])
    return out.reshape(np.shape(a))


def apply_channel(a: np.ndarray, j: int, s: np.ndarray, buf: np.ndarray) -> None:
    """Apply the 4x4 superoperator ``s`` to qubit ``j``'s (row bit, column
    bit) pair of the C-contiguous 2**n x 2**n array ``a``, in place.

    The pair (r, c) is index 2r + c of ``s``, so ``np.kron(u, u.conj())``
    gives u a u^H.  One transposing copy of ``a`` (the pair first) into
    ``buf[0]``, one matrix product into ``buf[1]`` and one copy back;
    ``buf`` is complex scratch of shape (2, a.size), reused across calls.
    An ``s`` whose off-diagonal entries are exactly zero, such as a
    dephasing diag(1, g, g, 1), is instead one in-place broadcast multiply
    of the reshaped ``a`` that leaves ``buf`` untouched.
    """
    n = _matrix_qubits(a)
    _check_labels(n, [j])
    if not a.flags.c_contiguous or np.shape(s) != (4, 4) or np.shape(buf) != (2, a.size):
        raise ValueError("expected a C-contiguous matrix, a 4x4 operator and (2, size) scratch")
    lo, hi = 2 ** (j - 1), 2 ** (n - j)
    view = a.reshape(lo, 2, hi, lo, 2, hi)
    if not np.any(s - np.diag(d := np.diag(s))):  # diagonal: scale each (r, c) block in place
        view *= d.reshape(2, 1, 1, 2, 1)
        return
    np.copyto(buf[0].reshape(2, 2, lo, hi, lo, hi), view.transpose(1, 4, 0, 2, 3, 5))
    out = np.matmul(s, buf[0].reshape(4, -1), out=buf[1].reshape(4, -1))
    np.copyto(view, out.reshape(2, 2, lo, hi, lo, hi).transpose(2, 0, 3, 4, 1, 5))


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
    of an argument below 2*pi and carries no roundoff from a large a*c.  Each
    row's entries are gathered in a list and converted once, which costs less
    than a numpy item assignment per entry and holds one row's list at a time.
    """
    _check_qubit_count(n)
    q = 2 ** n
    w = [cmath.exp(2j * cmath.pi * t / q) / cmath.sqrt(q) for t in range(q)]
    m = np.empty((q, q), dtype=complex)
    for c in range(q):
        m[c] = [w[a * c % q] for a in range(q)]
    return UnitaryMatrix(m)


def conjugate(u: UnitaryMatrix, rho: DensityMatrix) -> DensityMatrix:
    """Unitary conjugation U rho U^dagger; preserves trace and Hermiticity."""
    if u.n != rho.n:
        raise ValueError(f"dimension mismatch: operator on {u.n} qubits, state on {rho.n}")
    return DensityMatrix(u.entries @ rho.entries @ u.entries.conj().T)


def _phase_deviation(am: np.ndarray, bm: np.ndarray) -> tuple[float, float]:
    """max |A - exp(i*gamma)*B| and gamma, the phase taken at the
    largest-magnitude entry of B (0 when B is all zero)."""
    idx = np.unravel_index(np.argmax(np.abs(bm)), bm.shape)
    gamma = float(np.angle(am[idx]) - np.angle(bm[idx])) if abs(bm[idx]) else 0.0
    return float(np.max(np.abs(am - np.exp(1j * gamma) * bm))), gamma


def equal_up_to_global_phase(a, b, tol: float = 1e-10) -> tuple[bool, float]:
    """Test A = exp(i*gamma)*B entrywise within ``tol``.

    The phase gamma is extracted at the largest-magnitude entry of B.
    Returns ``(equal, gamma)``; gamma is reported even on failure.
    """
    am, bm = entries_of(a), entries_of(b)
    if am.shape != bm.shape:
        return False, 0.0
    dev, gamma = _phase_deviation(am, bm)
    return dev <= tol, gamma


def bit_reversal_permutation(n: int) -> UnitaryMatrix:
    """Permutation P with P|b_{n-1}...b_0> = |b_0...b_{n-1}>: the bit of
    qubit j moves to qubit n + 1 - j."""
    _check_qubit_count(n)
    rev = sum(qubit_bits(j, n) << (j - 1) for j in range(1, n + 1))
    p = np.zeros((2 ** n, 2 ** n), dtype=complex)
    p[rev, np.arange(2 ** n)] = 1.0
    return UnitaryMatrix(p)
