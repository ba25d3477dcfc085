"""Wall-clock cost models for the serial and parallel transform.

Closed forms:

* liquid-state serial:  T = n*delta + kappa*(n - 1 + 2**-n)
* parallel:             T = kappa*n/2          (no single-qubit pulse term)
* solid-state serial:   T = n*delta + 2*n*Delta + kappa*(n - 1 + 2**-n)

with kappa = pi/J (liquid scalar coupling) or pi/d (solid dipolar
coupling).  Every closed-form coupling term is cross-checked against the
direct double sum kappa * sum_{j=0}^{n-1} sum_{k=j+1}^{n} 2**(j-k) at
evaluation time; the identity itself holds exactly in rational
arithmetic (see ``coupling_sum_exact``).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

CHLOROFORM_J_HZ = 215.0         # two-spin scalar coupling used throughout
DEFAULT_PULSE_SECONDS = 10e-6   # qubit-selective 90-degree pulse

CSV_HEADER = "n,pulse_term,coupling_term,swap_term,total"

_SUM_CHECK_REL_TOL = 1e-12


@dataclass(frozen=True)
class LiquidParams:
    """Liquid-state timing constants: pulse cost delta and coupling J."""

    delta: float = DEFAULT_PULSE_SECONDS
    J: float = CHLOROFORM_J_HZ

    def __post_init__(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
        if not 0 < self.J < math.inf:
            raise ValueError("J must be finite and > 0")

    @property
    def kappa(self) -> float:
        return math.pi / self.J


@dataclass(frozen=True)
class SolidParams:
    """Solid-state timing constants: pulse cost, dipolar coupling, SWAP unit."""

    delta: float
    d: float
    Delta: float

    def __post_init__(self):
        if not (0 <= self.delta < math.inf and 0 <= self.Delta < math.inf):
            raise ValueError("time costs must be finite and >= 0")
        # sanity band generously bracketing the 10-50 MHz dipolar strength
        if not 1e3 <= self.d <= 1e12:
            raise ValueError(f"dipolar coupling {self.d} Hz outside sane range")

    @property
    def kappa(self) -> float:
        return math.pi / self.d


@dataclass(frozen=True)
class CostBreakdown:
    n: int
    model: str
    pulse_term: float
    coupling_term: float
    swap_term: float
    total: float

    def __post_init__(self):
        s = self.pulse_term + self.coupling_term + self.swap_term
        if abs(self.total - s) > 1e-15 * max(abs(self.total), abs(s), 1e-300):
            raise ValueError("total does not equal the sum of its terms")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "model": self.model,
            "pulse_term": self.pulse_term,
            "coupling_term": self.coupling_term,
            "swap_term": self.swap_term,
            "total": self.total,
        }


def coupling_sum_exact(n: int) -> Fraction:
    """sum_{j=0}^{n-1} sum_{k=j+1}^{n} 2**(j-k) in exact rational arithmetic.

    Equals n - 1 + 2**-n; the equality is exercised by the test suite for
    n up to 20.
    """
    total = Fraction(0)
    for j in range(n):
        for k in range(j + 1, n + 1):
            total += Fraction(2) ** (j - k)
    return total


def _coupling_closed(kappa: float, n: int) -> float:
    closed = kappa * (n - 1 + 2.0 ** (-n))
    direct = kappa * sum(2.0 ** (j - k) for j in range(n) for k in range(j + 1, n + 1))
    if abs(closed - direct) > _SUM_CHECK_REL_TOL * abs(closed):
        raise ArithmeticError(
            f"closed-form coupling time {closed} disagrees with double sum {direct} at n={n}"
        )
    return closed


def t_serial_liquid(n: int, p: LiquidParams) -> CostBreakdown:
    """Serial-transform wall time on a liquid-state device."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pulse = n * p.delta
    coupling = _coupling_closed(p.kappa, n)
    return CostBreakdown(n, "serial-liquid", pulse, coupling, 0.0, pulse + coupling)


def t_parallel(n: int, p) -> CostBreakdown:
    """Parallel-transform wall time: kappa*n/2, no pulse or SWAP terms.

    Multiqubit gates evolve several couplings simultaneously, so only the
    slowest (largest 2**(j-k), i.e. 1/2) counts per block.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    coupling = p.kappa * n / 2.0
    return CostBreakdown(n, "parallel", 0.0, coupling, 0.0, coupling)


def t_serial_solid(n: int, p: SolidParams) -> CostBreakdown:
    """Serial-transform wall time on the paired-spin solid-state layout.

    Adds the linear SWAP overhead 2*n*Delta to the liquid structure, with
    kappa = pi/d.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    pulse = n * p.delta
    coupling = _coupling_closed(p.kappa, n)
    swap = 2.0 * n * p.Delta
    return CostBreakdown(n, "serial-solid", pulse, coupling, swap, pulse + coupling + swap)


_MODELS = {
    "liquid": t_serial_liquid,
    "serial-liquid": t_serial_liquid,
    "parallel": t_parallel,
    "solid": t_serial_solid,
    "serial-solid": t_serial_solid,
}


def sweep(model: str, params, n_values: Sequence[int] | Iterable[int]) -> list[CostBreakdown]:
    """Evaluate one cost model over a range of qubit counts."""
    ns = list(n_values)
    if not ns:
        raise ValueError("empty sweep range")
    if model not in _MODELS:
        raise ValueError(f"unknown cost model {model!r}; choose from {sorted(_MODELS)}")
    fn = _MODELS[model]
    return [fn(n, params) for n in ns]


def sweep_to_csv(rows: Sequence[CostBreakdown]) -> str:
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(f"{r.n},{r.pulse_term:.12e},{r.coupling_term:.12e},"
                     f"{r.swap_term:.12e},{r.total:.12e}")
    return "\n".join(lines) + "\n"


def sweep_to_json(rows: Sequence[CostBreakdown]) -> str:
    return json.dumps([r.as_dict() for r in rows], sort_keys=True, indent=2) + "\n"
