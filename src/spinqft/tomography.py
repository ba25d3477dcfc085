"""Simulated state tomography and the mixed-state fidelity measure.

Readout follows the ensemble NMR scheme: each of the 3**n experiments
applies one of {none, 90_x, 90_y} per qubit and then records the exact
expectation values of the single-quantum observables of every spin
(I_x^j and I_y^j dressed by every z-product over the other spins).
Reconstruction is plain linear inversion of the resulting design matrix,
which is informationally complete on the traceless Hermitian space; the
package proves that constructively by building and rank-checking the
matrix.  Expectations are exact (infinite ensemble) by default, with an
optional seeded Gaussian perturbation for robustness studies.
"""

from __future__ import annotations

import itertools
import json
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
from .nmr import DEFAULT_CONVENTIONS, PHASE_X, PHASE_Y, SpinPulse, SpinSystem, element_unitary

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


def readout_unitary(e: ReadoutExperiment, conventions=DEFAULT_CONVENTIONS) -> np.ndarray:
    """Product of the per-qubit 90-degree readout pulses."""
    n = e.n
    system = SpinSystem(n, ())
    out = np.eye(2 ** n, dtype=complex)
    for j, p in enumerate(e.pulses, start=1):
        if p == "i":
            continue
        phase = PHASE_X if p == "x" else PHASE_Y
        pulse = SpinPulse((j,), math.pi / 2.0, phase)
        out = element_unitary(pulse, system, conventions).entries @ out
    return out


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
                    out.append((label, m))
    return tuple(out)


def measure(rho, experiment: ReadoutExperiment, noise_sigma: float = 0.0,
            rng: np.random.Generator | None = None,
            conventions=DEFAULT_CONVENTIONS) -> np.ndarray:
    """Expectation values Tr(rho' O) after the readout pulses.

    Exact by default; ``noise_sigma`` adds i.i.d. Gaussian perturbation
    from ``rng`` for robustness tests.
    """
    m = entries_of(rho)
    n = experiment.n
    if m.shape != (2 ** n, 2 ** n):
        raise ValueError(f"state dimension {m.shape} does not match {n}-qubit readout")
    u = readout_unitary(experiment, conventions)
    rotated = u @ m @ u.conj().T
    values = np.array([float(np.real(np.trace(rotated @ o))) for _, o in observables(n)])
    if noise_sigma:
        if rng is None:
            rng = np.random.default_rng()
        values = values + rng.normal(0.0, noise_sigma, size=values.shape)
    return values


def measure_all(rho, noise_sigma: float = 0.0,
                rng: np.random.Generator | None = None,
                conventions=DEFAULT_CONVENTIONS) -> np.ndarray:
    """Stacked measurement vector over all 3**n experiments."""
    m = entries_of(rho)
    n = int(np.log2(m.shape[0]))
    return np.concatenate([measure(rho, e, noise_sigma, rng, conventions)
                           for e in all_experiments(n)])


@lru_cache(maxsize=None)
def _pauli_basis(n: int) -> tuple:
    """Non-identity Pauli strings (4**n - 1 of them), the coefficient basis."""
    singles = {"I": PAULI_I, "X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}
    out = []
    for labels in itertools.product("IXYZ", repeat=n):
        if all(c == "I" for c in labels):
            continue
        m = embed(n, {j: singles[c] for j, c in enumerate(labels, start=1)})
        out.append(("".join(labels), m))
    return tuple(out)


@lru_cache(maxsize=None)
def design_matrix(n: int) -> np.ndarray:
    """Linear map from Pauli coefficients to the stacked measurement vector.

    Row (experiment, observable), column p: Tr(U_e W_p U_e^dag O_o).
    Informational completeness of the readout scheme is equivalent to this
    matrix having full column rank 4**n - 1.
    """
    paulis = _pauli_basis(n)
    obs = observables(n)
    rows = []
    for e in all_experiments(n):
        u = readout_unitary(e)
        rotated = [u @ w @ u.conj().T for _, w in paulis]
        for _, o in obs:
            rows.append([float(np.real(np.trace(rw @ o))) for rw in rotated])
    return np.array(rows)


def reconstruct(values: np.ndarray, n: int) -> DensityMatrix:
    """Least-squares linear inversion of the full readout vector.

    Recovers every non-identity Pauli coefficient; the identity component
    is unobservable in ensemble readout, so the result is the deviation
    (traceless) matrix.
    """
    a = design_matrix(n)
    values = np.asarray(values, dtype=float).reshape(-1)
    if values.shape[0] != a.shape[0]:
        raise ValueError(f"expected {a.shape[0]} readout values, got {values.shape[0]}")
    coeffs, *_ = np.linalg.lstsq(a, values, rcond=None)
    dim = 2 ** n
    m = np.zeros((dim, dim), dtype=complex)
    for c, (_, w) in zip(coeffs, _pauli_basis(n)):
        m += c * w
    m = (m + m.conj().T) / 2.0  # scrub roundoff asymmetry
    return DensityMatrix(n, m, traceless=True)


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

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True)


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
