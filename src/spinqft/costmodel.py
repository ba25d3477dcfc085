"""Wall-clock cost models for the serial and parallel transform.

Closed forms:

* liquid-state serial:  T = n*delta + kappa*(n - 1 + 2**-n)
* parallel:             T = kappa*n/2          (no single-qubit pulse term)
* solid-state serial:   T = n*delta + 2*n*Delta + kappa*(n - 1 + 2**-n)

with kappa = pi/J (liquid scalar coupling) or pi/d (solid dipolar
coupling).  Every closed-form coupling term is cross-checked against the
direct double sum kappa * sum_{j=0}^{n-1} sum_{k=j+1}^{n} 2**(j-k) at
evaluation time; the test suite checks that the identity holds exactly in
rational arithmetic.

The direct sums are summed term by term, one column k at a time:
S(k) = S(k-1) + sum_{j<k} 2**(j-k), each column a ``sum`` over a slice of
a kept table of the powers 2**-i, in the order j = 0 .. k-1.  The process
keeps every S(n) computed so far, so a sweep over 1..N sums each of its
~N**2/2 terms once instead of ~N**3/6 terms from scratch, and later calls
reuse them.  The output values come from the closed forms; every n is
still compared.  Costs that overflow to infinity are rejected, never
checked against an infinite sum.

The value types are checked namedtuples, not dataclasses: ``dataclasses``
alone pulls ``inspect``, ``ast``, ``dis`` and ``tokenize`` into every CLI
child, and ``cost`` is almost all start-up.
"""

from __future__ import annotations

import json
import math
import threading
from collections import namedtuple
from typing import Iterable, Sequence

CHLOROFORM_J_HZ = 215.0         # two-spin scalar coupling used throughout
DEFAULT_PULSE_SECONDS = 10e-6   # qubit-selective 90-degree pulse

CSV_HEADER = "n,pulse_term,coupling_term,swap_term,total"

_SUM_CHECK_REL_TOL = 1e-12


class _Checked:
    """Base of a namedtuple value type whose ``_check`` runs however an
    instance is built: the constructor, ``_make``, ``_replace``, copy, pickle."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        self._check()
        return self

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LiquidParams(_Checked, namedtuple("LiquidParams", "delta J",
                                        defaults=(DEFAULT_PULSE_SECONDS, CHLOROFORM_J_HZ))):
    """Liquid-state timing constants: pulse cost delta and coupling J."""

    __slots__ = ()

    def _check(self):
        if not 0 <= self.delta < math.inf:
            raise ValueError("delta must be finite and >= 0")
        if not 0 < self.J < math.inf:
            raise ValueError("J must be finite and > 0")
        if not math.isfinite(self.kappa):
            raise ValueError(f"J = {self.J} Hz is too small: kappa = pi/J is not finite")

    @property
    def kappa(self) -> float:
        return math.pi / self.J


class SolidParams(_Checked, namedtuple("SolidParams", "delta d Delta")):
    """Solid-state timing constants: pulse cost, dipolar coupling, SWAP unit."""

    __slots__ = ()

    def _check(self):
        if not (0 <= self.delta < math.inf and 0 <= self.Delta < math.inf):
            raise ValueError("time costs must be finite and >= 0")
        # sanity band generously bracketing the 10-50 MHz dipolar strength
        if not 1e3 <= self.d <= 1e12:
            raise ValueError(f"dipolar coupling {self.d} Hz outside sane range")

    @property
    def kappa(self) -> float:
        return math.pi / self.d


class CostBreakdown(_Checked, namedtuple(
        "CostBreakdown", "n model pulse_term coupling_term swap_term total")):
    __slots__ = ()

    def _check(self):
        terms = (self.pulse_term, self.coupling_term, self.swap_term, self.total)
        if not all(map(math.isfinite, terms)):
            raise ValueError(f"{self.model} cost at n={self.n} is not finite: "
                             f"pulse {self.pulse_term}, coupling {self.coupling_term}, "
                             f"swap {self.swap_term}")
        s = self.pulse_term + self.coupling_term + self.swap_term
        if abs(self.total - s) > 1e-15 * max(abs(self.total), abs(s), 1e-300):
            raise ValueError("total does not equal the sum of its terms")


# entry n is sum_{j<k<=n} 2**(j-k), summed term by term; grows on demand
_direct_sums = [0.0]
_powers = [1.0]  # entry i is 2.0 ** -i
_direct_sums_lock = threading.Lock()


def _direct_sum(n: int) -> float:
    with _direct_sums_lock:
        sums, powers = _direct_sums, _powers
        powers.extend(2.0 ** -i for i in range(len(powers), n + 1))
        while len(sums) <= n:
            k = len(sums)
            sums.append(sums[-1] + sum(powers[k:0:-1]))  # 2**(j-k) for j = 0 .. k-1
        return sums[n]


def _coupling_closed(kappa: float, n: int) -> float:
    closed = kappa * (n - 1 + 2.0 ** (-n))
    if not math.isfinite(closed):
        raise ValueError(f"coupling time kappa*(n - 1 + 2**-n) overflows at n={n}")
    direct = kappa * _direct_sum(n)
    if not abs(closed - direct) <= _SUM_CHECK_REL_TOL * abs(closed):  # NaN fails
        raise ArithmeticError(
            f"closed-form coupling time {closed} disagrees with double sum {direct} at n={n}"
        )
    return closed


def _t_serial(n: int, p, model: str, swap_unit: float) -> CostBreakdown:
    """Serial-transform wall time: pulses, checked couplings, 2*n*swap_unit SWAPs."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pulse = n * p.delta
    coupling = _coupling_closed(p.kappa, n)
    swap = 2.0 * n * swap_unit
    return CostBreakdown(n, model, pulse, coupling, swap, pulse + coupling + swap)


def t_serial_liquid(n: int, p: LiquidParams) -> CostBreakdown:
    """Serial-transform wall time on a liquid-state device: no SWAPs."""
    return _t_serial(n, p, "serial-liquid", 0.0)


def t_parallel(n: int, p) -> CostBreakdown:
    """Parallel-transform wall time: kappa*n/2, no pulse or SWAP terms.

    Multiqubit gates evolve several coupled pairs at once, so only the
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
    return _t_serial(n, p, "serial-solid", p.Delta)


_MODELS = {
    "liquid": t_serial_liquid,
    "parallel": t_parallel,
    "solid": t_serial_solid,
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
    return json.dumps([r._asdict() for r in rows], sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
