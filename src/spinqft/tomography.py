"""Simulated state tomography and the mixed-state fidelity measure.

Readout follows the ensemble NMR scheme: each of the 3**n experiments
applies one of {none, 90_x, 90_y} per qubit and then records the exact
expectation values of the single-quantum observables of every spin
(I_x^j and I_y^j dressed by every z-product over the other spins).
``measure`` reads one state or a stack of states; the design matrix is
that readout applied to the stack of non-identity Pauli strings.
Reconstruction is plain linear inversion of the design matrix, one
``lstsq`` for a whole stack of readouts; the design matrix is
informationally complete on the traceless Hermitian space (full column
rank, checked by the test suite).  Expectations are exact: the readout
models an infinite ensemble.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    DensityMatrix,
    PAULI_I,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    embed,
    entries_of,
)
from .nmr import PHASE_X, PHASE_Y, SpinPulse, SpinSystem, element_unitary

READOUT_CHOICES = ("i", "x", "y")

# Fidelities reported for the hardware experiments this package models;
# kept as documentation constants, not reproduction targets.
REFERENCE_EXPERIMENT_FIDELITIES = {
    "serial-n2": 0.79,
    "parallel-n2": 0.80,
    "selective-n2": 0.85,
}


@dataclass(frozen=True)
class ReadoutExperiment:
    """One readout setting: per-qubit pulse in {'i', 'x', 'y'}."""

    pulses: tuple

    def __post_init__(self):
        pulses = tuple(self.pulses)
        if any(p not in READOUT_CHOICES for p in pulses):
            raise ValueError(f"readout pulses must be in {READOUT_CHOICES}, got {pulses}")
        object.__setattr__(self, "pulses", pulses)

    @property
    def n(self) -> int:
        return len(self.pulses)


def all_experiments(n: int) -> list[ReadoutExperiment]:
    """The full 3**n readout set in deterministic lexicographic order."""
    return [ReadoutExperiment(p) for p in itertools.product(READOUT_CHOICES, repeat=n)]


def readout_unitary(e: ReadoutExperiment) -> np.ndarray:
    """Product of the per-qubit 90-degree readout pulses."""
    n = e.n
    system = SpinSystem(n)
    out = np.eye(2 ** n, dtype=complex)
    for j, p in enumerate(e.pulses, start=1):
        if p == "i":
            continue
        phase = PHASE_X if p == "x" else PHASE_Y
        pulse = SpinPulse((j,), math.pi / 2.0, phase)
        out = element_unitary(pulse, system).entries @ out
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    """Lock an array that an ``lru_cache`` hands to every caller."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def observables(n: int) -> tuple:
    """Detected single-quantum observables: for each spin j, I_x^j and
    I_y^j times every z-product 2I_z^k over subsets of the other spins.

    Returns ((label, matrix), ...) with n * 2**n entries; matrices are
    Hermitian and traceless.
    """
    half = {"x": PAULI_X / 2.0, "y": PAULI_Y / 2.0}
    out = []
    for j in range(1, n + 1):
        others = [k for k in range(1, n + 1) if k != j]
        for comp in ("x", "y"):
            for r in range(len(others) + 1):
                for ctx in itertools.combinations(others, r):
                    m = embed(n, {j: half[comp], **dict.fromkeys(ctx, PAULI_Z)})  # Z = 2*Iz
                    label = f"I{comp}{j}" + "".join(f"Z{k}" for k in ctx)
                    out.append((label, _read_only(m)))
    return tuple(out)


def measure(rho, experiment: ReadoutExperiment) -> np.ndarray:
    """Exact expectation values Tr(rho' O) after the readout pulses, one
    per observable of ``observables(n)``.

    ``rho`` is one 2**n x 2**n matrix, read as n * 2**n values, or a stack
    of k of them with shape (k, 2**n, 2**n), read as a (k, n * 2**n)
    array.
    """
    m = entries_of(rho)
    n = experiment.n
    if m.ndim not in (2, 3) or m.shape[-2:] != (2 ** n, 2 ** n):
        raise ValueError(f"state dimension {m.shape} does not match {n}-qubit readout")
    u = readout_unitary(experiment)
    rotated = u @ m @ u.conj().T
    obs = np.array([o for _, o in observables(n)])
    return np.tensordot(rotated, obs, axes=([-1, -2], [1, 2])).real  # Tr(rotated @ o)


def measure_all(rho) -> np.ndarray:
    """Stacked measurement vector over all 3**n experiments.

    A stack of k states, shape (k, 2**n, 2**n), gives a (k, n * 2**n * 3**n)
    array, one measurement vector per state.
    """
    m = entries_of(rho)
    n = int(np.log2(m.shape[-1]))
    return np.concatenate([measure(rho, e) for e in all_experiments(n)], axis=-1)


@lru_cache(maxsize=None)
def _pauli_basis(n: int) -> np.ndarray:
    """The 4**n - 1 non-identity Pauli strings, the coefficient basis,
    stacked in lexicographic I < X < Y < Z order."""
    # [1:] drops the all-identity string, which comes first
    strings = list(itertools.product((PAULI_I, PAULI_X, PAULI_Y, PAULI_Z), repeat=n))[1:]
    return _read_only(np.array([embed(n, dict(enumerate(f, start=1))) for f in strings]))


@lru_cache(maxsize=None)
def design_matrix(n: int) -> np.ndarray:
    """Linear map from Pauli coefficients to the stacked measurement vector:
    the readout of every non-identity Pauli string.

    Row (experiment, observable), column p: Tr(U_e W_p U_e^dag O_o).
    Informational completeness of the readout scheme is equivalent to this
    matrix having full column rank 4**n - 1.
    """
    return _read_only(np.concatenate([measure(_pauli_basis(n), e).T
                                      for e in all_experiments(n)]))


def reconstruct(values: np.ndarray, n: int) -> DensityMatrix | list[DensityMatrix]:
    """Least-squares linear inversion of the full readout vector.

    Recovers every non-identity Pauli coefficient; the identity component
    is unobservable in ensemble readout, so the result is the deviation
    (traceless) matrix.  A (k, m) stack of k readout vectors is solved
    with one ``lstsq`` and gives a list of k deviation matrices, each
    validated on its own.
    """
    a = design_matrix(n)
    values = np.asarray(values, dtype=float)
    if values.ndim != 2:
        values = values.reshape(-1)
    if values.shape[-1] != a.shape[0]:
        raise ValueError(f"expected {a.shape[0]} readout values, got {values.shape[-1]}")
    coeffs, *_ = np.linalg.lstsq(a, values.T, rcond=None)
    m = np.tensordot(coeffs.T, _pauli_basis(n), axes=1)
    m = (m + m.conj().swapaxes(-1, -2)) / 2.0  # scrub roundoff asymmetry
    if m.ndim == 2:
        return DensityMatrix(n, m, traceless=True)
    return [DensityMatrix(n, one, traceless=True) for one in m]


@dataclass(frozen=True)
class FidelityReport:
    """Trace-overlap correlation, signal retention, and their product."""

    correlation: float
    signal_retention: float
    fidelity: float

    def as_dict(self) -> dict:
        return {
            "correlation": self.correlation,
            "signal_retention": self.signal_retention,
            "fidelity": self.fidelity,
        }


def fidelity(rho_th, rho_exp, rho_init) -> FidelityReport:
    """Mixed-state fidelity of deviation matrices.

    correlation      = Tr(rho_th rho_exp) / sqrt(Tr(rho_th^2) Tr(rho_exp^2))
    signal_retention = Tr(rho_exp^2) / Tr(rho_init^2)
    fidelity         = correlation * sqrt(signal_retention)
    """
    th, ex, init = (entries_of(m) for m in (rho_th, rho_exp, rho_init))
    if not th.shape == ex.shape == init.shape:
        raise ValueError("fidelity inputs must share dimensions")
    t2 = float(np.real(np.trace(th @ th)))
    e2 = float(np.real(np.trace(ex @ ex)))
    i2 = float(np.real(np.trace(init @ init)))
    if t2 <= 0.0 or i2 <= 0.0:
        raise ValueError("fidelity is undefined for zero-norm reference matrices")
    if e2 <= 0.0:
        return FidelityReport(0.0, 0.0, 0.0)
    corr = float(np.real(np.trace(th @ ex))) / math.sqrt(t2 * e2)
    retention = e2 / i2
    return FidelityReport(corr, retention, corr * math.sqrt(retention))


def bar_chart_rows(rho) -> list[tuple[str, str, float, float]]:
    """Flatten a matrix into (row_state, col_state, re, im) bar-chart rows."""
    m = entries_of(rho)
    n = int(np.log2(m.shape[0]))
    rows = []
    for r in range(m.shape[0]):
        for c in range(m.shape[1]):
            rows.append((format(r, f"0{n}b"), format(c, f"0{n}b"),
                         float(np.real(m[r, c])), float(np.imag(m[r, c]))))
    return rows


def bar_chart_csv(rho) -> str:
    lines = ["row,col,re,im"]
    for row, col, re_v, im_v in bar_chart_rows(rho):
        lines.append(f"{row},{col},{re_v:.12e},{im_v:.12e}")
    return "\n".join(lines) + "\n"
