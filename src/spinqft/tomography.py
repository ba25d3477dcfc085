"""Simulated state tomography and the mixed-state fidelity measure.

Readout follows the ensemble NMR scheme (Chuang, Gershenfeld, Kubinec &
Leung, Proc. R. Soc. A 454, 447 (1998)): each of the 3**n settings applies
one of {none, 90_x, 90_y} per qubit and records the exact expectation
values (an infinite ensemble) of the single-quantum observables, each half
a Pauli string.  A setting is its pulse letters p_1 ... p_n in "ixy",
qubit 1 first; setting e = sum_j 3**(n-j) * "ixy".index(p_j) is the e-th
of ``itertools.product("ixy", repeat=n)``.  The pulses are Clifford, so
each value is +-Tr(rho P)/2 for one Pauli string P: a readout is the Pauli
coefficients of the state (one tensorised ``einsum``; Hantzko, Binkowski &
Gupta, 2023) read through an (index, sign) map, and the least-squares
inversion, from arrays to arrays, is a signed mean per coefficient.  n is
read from the data: a state's shape (``core._matrix_qubits``) or a
readout's n * 6**n values.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple

import numpy as np

from .core import (MAX_QUBITS, PAULI_I, PAULI_X, PAULI_Y, PAULI_Z, _matrix_qubits,
                   _trace_product, entries_of)
from .nmr import PHASE_X, PHASE_Y, SpinPulse, element_unitary

_PAULIS = np.array([PAULI_I, PAULI_X, PAULI_Y, PAULI_Z])


def observables(n: int) -> list[tuple[str, str]]:
    """Detected single-quantum observables: for each spin j, I_x^j and
    I_y^j times every z-product 2I_z^k over subsets of the other spins.

    Returns [(label, pauli), ...] with n * 2**n entries: observable
    ``Ix1Z3`` at n = 3 is half the Pauli string ``"XIZ"`` (one of I, X, Y,
    Z per qubit, qubit 1 first).
    """
    out = []
    for j in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != j]
        for comp, r in itertools.product("xy", range(n)):
            for ctx in itertools.combinations(others, r):
                label = f"I{comp}{j}" + "".join(f"Z{k}" for k in ctx)
                pauli = "".join(comp.upper() if k == j else "Z" if k in ctx else "I"
                                for k in range(1, n + 1))
                out.append((label, pauli))
    return out


def _pauli_einsum(n: int, t: np.ndarray, t_axes: list, pauli_axes: list, out_axes: list):
    """``t`` contracted with one Pauli stack per qubit j, labelled
    ``pauli_axes[j]``, in one ``einsum`` whose path meets ``t`` with one
    stack at a time, so no 4**n-term Pauli basis is ever formed."""
    stacks = [x for axes in pauli_axes for x in (_PAULIS, axes)]
    path = ["einsum_path"] + [(i, i + 1) for i in reversed(range(n))]
    return np.einsum(*stacks, t, [..., *t_axes], [..., *out_axes], optimize=path)


def _pauli_coefficients(m: np.ndarray, n: int) -> np.ndarray:
    """Re Tr(m P) = Re sum m[a, b] P[b, a] for every Pauli string P, over
    the last two axes of ``m``: shape (..., 4**n), P in lexicographic
    I < X < Y < Z order, qubit 1 most significant."""
    rows, cols, paulis = range(n), range(n, 2 * n), range(2 * n, 3 * n)
    c = _pauli_einsum(n, m.reshape(m.shape[:-2] + (2,) * (2 * n)), [*rows, *cols],
                      [[p, b, a] for a, b, p in zip(rows, cols, paulis)], [*paulis])
    return c.reshape(m.shape[:-2] + (4 ** n,)).real


def _from_coefficients(c: np.ndarray, n: int) -> np.ndarray:
    """The matrices sum_P c_P P / 2**n of coefficient vectors (..., 4**n)."""
    rows, cols, paulis = range(n), range(n, 2 * n), range(2 * n, 3 * n)
    m = _pauli_einsum(n, c.reshape(c.shape[:-1] + (4,) * n), [*paulis],
                      [[p, a, b] for a, b, p in zip(rows, cols, paulis)], [*rows, *cols])
    return m.reshape(c.shape[:-1] + (2 ** n, 2 ** n)) / 2 ** n


def _pulse_table(phase: float) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) with R^dag P R = sign[p] * _PAULIS[index[p]] for the
    one-qubit Paulis P = _PAULIS[p] and R the pulse model's 90-degree pulse
    of ``phase``; a pulse that is not Clifford is refused."""
    r = element_unitary(SpinPulse((1,), math.pi / 2.0, phase), 1).entries
    rotated = r.conj().T @ _PAULIS @ r
    overlap = np.einsum("pab,qba->pq", rotated, _PAULIS).real / 2.0
    index = np.argmax(np.abs(overlap), axis=1)
    sign = np.sign(overlap[np.arange(4), index])
    if not np.max(np.abs(rotated - sign[:, None, None] * _PAULIS[index])) <= 1e-12:
        raise ValueError(f"the readout pulse of phase {phase} is not Clifford")
    return index, sign


def _readout_map(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(index, sign) of every value ``measure_all`` reads, setting by setting:
    the value is sign * Tr(rho P_index) / 2, as the readout U = prod_j R_j
    turns an observable's Pauli string into prod_j R_j^dag P_j R_j."""
    digits = np.array([["IXYZ".index(c) for c in p] for _, p in observables(n)])
    maps = []
    for setting in itertools.product("ixy", repeat=n):
        i, s = 0, np.ones(len(digits))
        for d, pulse in zip(digits.T, setting):
            if pulse != "i":  # one pulse-model check per pulsed qubit and setting
                table, signs = _pulse_table(PHASE_X if pulse == "x" else PHASE_Y)
                d, s = table[d], s * signs[d]
            i = 4 * i + d
        maps.append((i, s))
    return tuple(np.concatenate(x) for x in zip(*maps))


def measure_all(rho) -> np.ndarray:
    """Exact expectation values Tr(rho' O) of ``observables(n)`` after the
    pulses of each setting: block e is setting e of ``itertools.product("ixy",
    repeat=n)``, qubit 1 first.  A stack of k states gives a
    (k, n * 2**n * 3**n) array, one vector per state."""
    n = _matrix_qubits(rho, 3)
    m = entries_of(rho)
    index, sign = _readout_map(n)
    return sign * _pauli_coefficients(m, n)[..., index] / 2.0


def design_matrix(n: int) -> np.ndarray:
    """The readout of every non-identity Pauli string W_p: row (setting e,
    observable o), column p is Tr(U_e W_p U_e^dag O_o), exactly 0 or
    +-2**(n-1).  The readout is informationally complete because this
    matrix has full column rank 4**n - 1."""
    return measure_all(_from_coefficients(2.0 ** n * np.eye(4 ** n)[1:], n)).T


def reconstruct(values: np.ndarray) -> np.ndarray:
    """Least-squares linear inversion of readouts, the inverse of ``measure_all``.

    A readout of n spins has n * 6**n values, so its length fixes n; a
    readout of shape (m,) gives one 2**n x 2**n matrix and a (k, m) stack
    gives (k, 2**n, 2**n).  Any other shape or length, a complex dtype or a
    value that is not finite is refused before the readout map is built.  Each value
    reads +-Tr(rho P)/2 for one Pauli string P, so the normal matrix is
    diagonal and the estimate of Tr(rho P) is twice the signed mean of the
    values that read it.  The identity is never read, so the result is
    the deviation (traceless) matrix.
    """
    if np.iscomplexobj(values):
        raise ValueError("a readout is real, not of a complex dtype")
    values = np.asarray(values, dtype=float)
    if values.ndim not in (1, 2):
        raise ValueError(f"a readout has shape (m,) or (k, m), not {values.shape}")
    n = {k * 6 ** k: k for k in range(1, MAX_QUBITS + 1)}.get(values.shape[-1])
    if n is None:
        raise ValueError(f"a readout has n*6**n values, n <= {MAX_QUBITS}, not {values.shape[-1]}")
    if not np.isfinite(values).all():
        raise ValueError("a readout value is not finite")
    index, sign = _readout_map(n)
    sums = np.zeros((4 ** n,) + values.shape[:-1])
    np.add.at(sums, index, (sign * values).T)
    # index 0, the identity, is read by no value: its sum stays 0 over a count of 1
    return _from_coefficients(2.0 * sums.T / np.maximum(np.bincount(index, minlength=4 ** n), 1), n)


# trace-overlap correlation, signal retention, and their product
FidelityReport = namedtuple("FidelityReport", "correlation signal_retention fidelity")


def fidelity(rho_th, rho_exp, rho_init) -> FidelityReport:
    """Mixed-state fidelity of deviation matrices, which must be Hermitian.

    correlation      = Tr(rho_th rho_exp) / sqrt(Tr(rho_th^2) Tr(rho_exp^2))
    signal_retention = Tr(rho_exp^2) / Tr(rho_init^2)
    fidelity         = correlation * sqrt(signal_retention)

    Each trace is taken as sum_ij A_ij conj(B_ij) (``core._trace_product``),
    which equals Tr(A B) because B is Hermitian: O(4**n), no matrix product.
    """
    th, ex, init = (entries_of(m) for m in (rho_th, rho_exp, rho_init))
    if not th.shape == ex.shape == init.shape:
        raise ValueError("fidelity inputs must share dimensions")
    t2 = _trace_product(th, th)
    e2 = _trace_product(ex, ex)
    i2 = _trace_product(init, init)
    if t2 <= 0.0 or i2 <= 0.0:
        raise ValueError("fidelity is undefined for zero-norm reference matrices")
    if e2 <= 0.0:
        return FidelityReport(0.0, 0.0, 0.0)
    corr = _trace_product(th, ex) / math.sqrt(t2 * e2)
    retention = e2 / i2
    return FidelityReport(corr, retention, corr * math.sqrt(retention))


def bar_chart_csv(rho) -> str:
    """One ``row,col,re,im`` line per entry, row by row; states as n-bit labels."""
    n = _matrix_qubits(rho)
    m = entries_of(rho)
    labels = [format(i, f"0{n}b") for i in range(2 ** n)]
    lines = ["row,col,re,im"]
    for row, re_row, im_row in zip(labels, m.real.tolist(), m.imag.tolist()):
        lines += [f"{row},{col},{re_v:.12e},{im_v:.12e}"
                  for col, re_v, im_v in zip(labels, re_row, im_row)]
    return "\n".join(lines) + "\n"
