"""Hamiltonian-level simulator for weakly coupled spin-1/2 systems.

Pulse elements (spin-selective pulses, transition-selective pulses,
scalar-coupling delays, composite-z pulses) evaluate to exact unitaries
under an explicit, globally fixed rotation convention; pulse sequences
are ordered left-to-right in time.  A small text DSL describes sequences
(``90y@s1,s2  180x@t3-4  delay:1/(4*J12)  z45@s1``) and the bundled
two- and three-spin transform sequences ship as ``.seq`` files in that
format.

Rotation and coupling conventions
---------------------------------
A pulse of flip angle theta and rf phase phi (0 = x, pi/2 = y, pi = -x,
3*pi/2 = -y) applies exp(-i*theta*(Ix*cos(phi) + Iy*sin(phi))) on each
addressed spin, with I = sigma/2.  A coupling delay applies
exp(+i * 2*pi * sum_jk J_jk t_jk Iz_j Iz_k): the sign of the coupling
exponent, and the composite-z expansion {90_-x}{theta_y}{90_x}, are the
one calibration that makes every bundled sequence reproduce the
transform exactly; both toggles remain configurable via ``Conventions``.
Delays act pair-by-pair as written (an idealization of the refocusing
tricks that isolate one coupling on hardware), and pulses are
instantaneous; durations matter only to the dephasing noise model.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .core import (
    MAX_QUBITS,
    DensityMatrix,
    UnitaryMatrix,
    _check_qubit_count,
    embed,
    qubit_bits,
    transition_states,
)

# rf phase labels
PHASE_X = 0.0
PHASE_Y = math.pi / 2.0
PHASE_MINUS_X = math.pi
PHASE_MINUS_Y = 3.0 * math.pi / 2.0

# chloroform-style defaults
DEFAULT_J_HZ = 215.0
SPIN_PULSE_SECONDS = 10e-6
TRANSITION_PULSE_SECONDS = 6.5e-3
GAMMA_RATIO_H_TO_C = 3.976  # 1H/13C gyromagnetic ratio, thermal-weighting preset

COMPOSITE_Z_LITERAL = "literal_xx"      # {90_x}{theta_y}{90_x}
COMPOSITE_Z_XY_MINUS = "xy_minus"       # {90_x}{theta_y}{90_-x}  -> Rz(-theta)
COMPOSITE_Z_MINUS_XY = "minus_xy"       # {90_-x}{theta_y}{90_x}  -> Rz(+theta)


@dataclass(frozen=True)
class Conventions:
    """Global sign calibration for the pulse-level simulator.

    pulse_sign:    +1 gives exp(-i*theta*(Ix cos phi + Iy sin phi)).
    coupling_sign: sign s in exp(-i*s*2*pi*J*t*IzIz); the calibrated
                   default -1 (exponent +i) is what makes the bundled
                   sequences exact.
    composite_z:   expansion template for z-pulses; the calibrated
                   default realizes Rz(+theta).
    """

    pulse_sign: int = 1
    coupling_sign: int = -1
    composite_z: str = COMPOSITE_Z_MINUS_XY

    def __post_init__(self):
        if self.pulse_sign not in (1, -1) or self.coupling_sign not in (1, -1):
            raise ValueError("signs must be +1 or -1")
        if self.composite_z not in (COMPOSITE_Z_LITERAL, COMPOSITE_Z_XY_MINUS,
                                    COMPOSITE_Z_MINUS_XY):
            raise ValueError(f"unknown composite-z convention {self.composite_z!r}")


DEFAULT_CONVENTIONS = Conventions()


@dataclass(frozen=True)
class SpinSystem:
    """Weak-coupling spin system: pairwise scalar couplings in Hz plus
    optional rotating-frame offsets (Hz, default on-resonance)."""

    n: int
    couplings: tuple  # ((j, k, J_hz), ...) with j < k
    offsets: tuple = ()

    def __post_init__(self):
        _check_qubit_count(self.n)
        normalized = []
        seen = set()
        for j, k, jhz in self.couplings:
            if j == k:
                raise ValueError("coupling endpoints must differ")
            j, k = (j, k) if j < k else (k, j)
            if not (1 <= j < k <= self.n):
                raise ValueError(f"coupling pair ({j}, {k}) outside 1..{self.n}")
            if (j, k) in seen:
                raise ValueError(f"duplicate coupling for pair ({j}, {k})")
            seen.add((j, k))
            normalized.append((j, k, float(jhz)))
        object.__setattr__(self, "couplings", tuple(sorted(normalized)))
        offs = tuple(float(v) for v in self.offsets) or (0.0,) * self.n
        if len(offs) != self.n:
            raise ValueError(f"expected {self.n} offsets, got {len(offs)}")
        object.__setattr__(self, "offsets", offs)

    def coupling(self, j: int, k: int) -> float:
        j, k = (j, k) if j < k else (k, j)
        for a, b, jhz in self.couplings:
            if (a, b) == (j, k):
                return jhz
        raise KeyError(f"no coupling defined for spin pair ({j}, {k})")


def chloroform() -> SpinSystem:
    """Two-spin 13C/1H system with the 215 Hz scalar coupling."""
    return SpinSystem(2, ((1, 2, DEFAULT_J_HZ),))


def default_system(n: int, j_hz: float = DEFAULT_J_HZ) -> SpinSystem:
    """All-pairs equal-coupling system; symbolic delays make the evolved
    unitaries independent of the actual J value."""
    pairs = tuple((j, k, j_hz) for j in range(1, n + 1) for k in range(j + 1, n + 1))
    return SpinSystem(n, pairs)


# -- pulse elements ------------------------------------------------------

@dataclass(frozen=True)
class SpinPulse:
    """Hard pulse on a set of spins: flip angle and rf phase in radians."""

    spins: tuple
    angle: float
    phase: float

    def __post_init__(self):
        spins = tuple(sorted(set(int(s) for s in self.spins)))
        if not spins:
            raise ValueError("pulse must address at least one spin")
        object.__setattr__(self, "spins", spins)


@dataclass(frozen=True)
class TransitionPulse:
    """Selective pulse on one single-quantum transition (1-based labels)."""

    from_label: int
    to_label: int
    angle: float
    phase: float


@dataclass(frozen=True)
class SymbolicDuration:
    """Delay written as the fraction 1/(m * J_jk) of the pair's coupling."""

    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("symbolic duration denominator must be >= 1")

    def seconds(self, j_hz: float) -> float:
        return 1.0 / (self.m * j_hz)


@dataclass(frozen=True)
class CouplingDelay:
    """Free evolution under the named pairwise couplings.

    ``durations`` maps (j, k) to seconds or to a SymbolicDuration; several
    pairs evolve simultaneously (the multiqubit-gate idealization), and
    offsets, when nonzero, act for the longest listed duration.
    """

    durations: tuple  # ((j, k, SymbolicDuration | float), ...)

    def __post_init__(self):
        if not self.durations:
            raise ValueError("delay must list at least one coupling pair")
        norm = []
        for j, k, dur in self.durations:
            j, k = (j, k) if j < k else (k, j)
            norm.append((int(j), int(k), dur))
        object.__setattr__(self, "durations", tuple(norm))

    def resolved(self, system: SpinSystem) -> list[tuple[int, int, float]]:
        out = []
        for j, k, dur in self.durations:
            j_hz = system.coupling(j, k)  # raises for unknown pairs
            t = dur.seconds(j_hz) if isinstance(dur, SymbolicDuration) else float(dur)
            if t < 0:
                raise ValueError("delay durations must be >= 0")
            out.append((j, k, t))
        return out


@dataclass(frozen=True)
class CompositeZ:
    """z-rotation by a signed angle, expanded into an rf pulse sandwich."""

    spin: int
    angle: float


PulseElement = SpinPulse | TransitionPulse | CouplingDelay | CompositeZ


@dataclass(frozen=True)
class PulseSequence:
    """Named ordered pulse program; elements run left-to-right in time."""

    name: str
    n: int
    elements: tuple

    def __post_init__(self):
        _check_qubit_count(self.n)
        object.__setattr__(self, "elements", tuple(self.elements))


# -- element evaluation --------------------------------------------------

def _rotation_2x2(angle: float, phase: float, sign: int) -> np.ndarray:
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    axis = np.array([[0.0, math.cos(phase) - 1j * math.sin(phase)],
                     [math.cos(phase) + 1j * math.sin(phase), 0.0]])
    return c * np.eye(2, dtype=complex) - 1j * sign * s * axis


def expand_composite_z(e: CompositeZ, conventions: Conventions = DEFAULT_CONVENTIONS) -> list[SpinPulse]:
    """Expand a z-pulse into its three-pulse rf sandwich."""
    half = math.pi / 2.0
    mid_phase = PHASE_Y if e.angle >= 0 else PHASE_MINUS_Y
    mid = SpinPulse((e.spin,), abs(e.angle), mid_phase)
    if conventions.composite_z == COMPOSITE_Z_MINUS_XY:
        return [SpinPulse((e.spin,), half, PHASE_MINUS_X), mid, SpinPulse((e.spin,), half, PHASE_X)]
    if conventions.composite_z == COMPOSITE_Z_XY_MINUS:
        return [SpinPulse((e.spin,), half, PHASE_X), mid, SpinPulse((e.spin,), half, PHASE_MINUS_X)]
    return [SpinPulse((e.spin,), half, PHASE_X), mid, SpinPulse((e.spin,), half, PHASE_X)]


def element_unitary(e: PulseElement, system: SpinSystem,
                    conventions: Conventions = DEFAULT_CONVENTIONS) -> UnitaryMatrix:
    """Exact unitary of one pulse element on the full Hilbert space."""
    n = system.n
    dim = 2 ** n
    if isinstance(e, SpinPulse):
        r = _rotation_2x2(e.angle, e.phase, conventions.pulse_sign)
        return UnitaryMatrix(n, embed(n, dict.fromkeys(e.spins, r)))
    if isinstance(e, TransitionPulse):
        a, b = transition_states(e.from_label, e.to_label, n)
        r = _rotation_2x2(e.angle, e.phase, conventions.pulse_sign)
        m = np.eye(dim, dtype=complex)
        m[a, a], m[a, b] = r[0, 0], r[0, 1]
        m[b, a], m[b, b] = r[1, 0], r[1, 1]
        return UnitaryMatrix(n, m)
    if isinstance(e, CouplingDelay):
        legs = e.resolved(system)
        t_max = max(t for _, _, t in legs)
        iz = {j: 0.5 - qubit_bits(j, n) for j in range(1, n + 1)}  # +1/2 for bit 0
        phase = np.zeros(dim)
        for j, k, t in legs:
            j_hz = system.coupling(j, k)
            phase -= conventions.coupling_sign * 2.0 * math.pi * j_hz * t * iz[j] * iz[k]
        for j, off in enumerate(system.offsets, start=1):
            if off:
                phase -= 2.0 * math.pi * off * t_max * iz[j]
        return UnitaryMatrix(n, np.diag(np.exp(1j * phase)))
    if isinstance(e, CompositeZ):
        out = np.eye(dim, dtype=complex)
        for pulse in expand_composite_z(e, conventions):
            out = element_unitary(pulse, system, conventions).entries @ out
        return UnitaryMatrix(n, out)
    raise TypeError(f"unknown pulse element {e!r}")


def sequence_unitary(seq: PulseSequence, system: SpinSystem,
                     conventions: Conventions = DEFAULT_CONVENTIONS) -> UnitaryMatrix:
    """Ordered product of element unitaries, leftmost element first in time."""
    if seq.n != system.n:
        raise ValueError(f"sequence is for {seq.n} spins, system has {system.n}")
    out = np.eye(2 ** system.n, dtype=complex)
    for e in seq.elements:
        out = element_unitary(e, system, conventions).entries @ out
    return UnitaryMatrix(system.n, out)


# -- dephasing noise ------------------------------------------------------

@dataclass(frozen=True)
class NoiseModel:
    """Per-spin pure dephasing (rate 1/T2 in Hz) during timed elements.

    Instantaneous-pulse elements are assigned the configured wall times so
    that every element damps single-spin coherence by exp(-rate * time).
    Zero rates reproduce the exact unitary channel.
    """

    rates: tuple
    spin_pulse_seconds: float = SPIN_PULSE_SECONDS
    transition_pulse_seconds: float = TRANSITION_PULSE_SECONDS

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        times = (self.spin_pulse_seconds, self.transition_pulse_seconds)
        if not all(0 <= v < math.inf for v in rates + times):
            raise ValueError("dephasing rates and element times must be finite and >= 0")
        object.__setattr__(self, "rates", rates)

    @classmethod
    def uniform(cls, n: int, rate_hz: float) -> "NoiseModel":
        return cls((float(rate_hz),) * n)

    def element_seconds(self, e: PulseElement, system: SpinSystem) -> float:
        if isinstance(e, SpinPulse):
            return self.spin_pulse_seconds
        if isinstance(e, TransitionPulse):
            return self.transition_pulse_seconds
        if isinstance(e, CompositeZ):
            return 3.0 * self.spin_pulse_seconds
        if isinstance(e, CouplingDelay):
            return max(t for _, _, t in e.resolved(system))
        raise TypeError(f"unknown pulse element {e!r}")

    def damping_matrix(self, n: int, seconds: float) -> np.ndarray:
        if len(self.rates) != n:
            raise ValueError(f"noise model has {len(self.rates)} rates, system has {n} spins")
        d = np.ones((2 ** n, 2 ** n))
        for j in range(1, n + 1):
            g = math.exp(-self.rates[j - 1] * seconds)
            bits = qubit_bits(j, n)
            differs = bits[:, None] != bits[None, :]
            d *= np.where(differs, g, 1.0)
        return d


def run(seq: PulseSequence, system: SpinSystem, rho: DensityMatrix,
        noise: NoiseModel | None = None,
        conventions: Conventions = DEFAULT_CONVENTIONS) -> DensityMatrix:
    """Propagate a density matrix through a sequence.

    Without noise this equals conjugation by ``sequence_unitary`` exactly;
    with noise, each element's unitary is followed by the dephasing
    channel for that element's wall time.
    """
    if seq.n != system.n or rho.n != system.n:
        raise ValueError("sequence, system and state must share the spin count")
    if noise is None or not any(noise.rates):
        u = sequence_unitary(seq, system, conventions).entries
        return DensityMatrix(system.n, u @ rho.entries @ u.conj().T, traceless=rho.traceless)
    state = np.array(rho.entries)
    for e in seq.elements:
        u = element_unitary(e, system, conventions).entries
        state = u @ state @ u.conj().T
        d = noise.damping_matrix(system.n, noise.element_seconds(e, system))
        state = state * d  # Schur-product dephasing channel
    return DensityMatrix(system.n, state, traceless=rho.traceless)


def simultaneous_transition_check(pulses, system: SpinSystem,
                                  conventions: Conventions = DEFAULT_CONVENTIONS) -> bool:
    """True iff the transition pulses touch pairwise disjoint subspaces.

    Disjoint ("unconnected") transitions can be driven simultaneously;
    when the check passes, order independence of the set is also asserted
    numerically.
    """
    subspaces = []
    for p in pulses:
        subspaces.append(set(transition_states(p.from_label, p.to_label, system.n)))
    pulses = list(pulses)
    for i in range(len(subspaces)):
        for j in range(i + 1, len(subspaces)):
            if subspaces[i] & subspaces[j]:
                return False
    dim = 2 ** system.n
    forward = np.eye(dim, dtype=complex)
    backward = np.eye(dim, dtype=complex)
    for p in pulses:
        forward = element_unitary(p, system, conventions).entries @ forward
    for p in reversed(pulses):
        backward = element_unitary(p, system, conventions).entries @ backward
    if np.max(np.abs(forward - backward)) >= 1e-12:
        raise ArithmeticError("disjoint transition pulses failed to commute numerically")
    return True


# -- thermal state and temporally averaged pseudopure preparation ---------

def thermal_deviation(a: float = 1.0, b: float = 1.0) -> DensityMatrix:
    """Two-spin thermal deviation a*Iz1 + b*Iz2 (diagonal, traceless)."""
    diag = np.array([(a + b) / 2.0, (a - b) / 2.0, (-a + b) / 2.0, -(a + b) / 2.0])
    return DensityMatrix(2, np.diag(diag.astype(complex)), traceless=True)


def prepare_pseudopure_temporal_avg(system: SpinSystem | None = None,
                                    a: float = 1.0, b: float = 1.0,
                                    conventions: Conventions = DEFAULT_CONVENTIONS) -> DensityMatrix:
    """Average of three experiments mapping a*Iz1 + b*Iz2 to pseudopure |00>.

    The two bundled permutation sequences cycle the three non-|00>
    populations in opposite senses, so the average of (do-nothing,
    sequence A, sequence B) is proportional to |00><00| - I/4 for any
    non-negative weights: 2*(a+b)/3 times that projector deviation.
    """
    if system is None:
        system = chloroform()
    if system.n != 2:
        raise ValueError("temporal-averaging preparation is defined for two spins")
    rho_eq = thermal_deviation(a, b)
    seq_a, seq_b = pseudopure_cycle_sequences()
    total = np.array(rho_eq.entries)
    for seq in (seq_a, seq_b):
        total = total + run(seq, system, rho_eq, conventions=conventions).entries
    return DensityMatrix(2, total / 3.0, traceless=True)


def pseudopure_projector_deviation(n: int) -> DensityMatrix:
    """|0...0><0...0| - I/2**n, the normalized pseudopure deviation target."""
    dim = 2 ** n
    m = -np.eye(dim, dtype=complex) / dim
    m[0, 0] += 1.0
    return DensityMatrix(n, m, traceless=True)


# -- sequence DSL ----------------------------------------------------------

class SequenceParseError(ValueError):
    """Parse failure with 1-based line and column position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


_PULSE_RE = re.compile(r"^(?P<angle>\d+(?:\.\d+)?)(?P<sign>-?)(?P<axis>[xy])@(?P<targets>\S+)$")
_Z_RE = re.compile(r"^z(?P<angle>-?\d+(?:\.\d+)?)@s(?P<spin>\d+)$")
_DELAY_RE = re.compile(r"^delay:(?P<spec>\S+)$")
_DELAY_PART_RE = re.compile(r"^1/\((?P<m>\d+)\*J(?P<j>\d)(?P<k>\d)\)$")
_SPIN_LIST_RE = re.compile(r"^s\d+(,s\d+)*$")
_TRANSITION_RE = re.compile(r"^t(?P<from>\d+)-(?P<to>\d+)$")

_PHASES = {
    ("", "x"): PHASE_X,
    ("", "y"): PHASE_Y,
    ("-", "x"): PHASE_MINUS_X,
    ("-", "y"): PHASE_MINUS_Y,
}


def _parse_token(token: str, line: int, column: int) -> PulseElement:
    m = _DELAY_RE.match(token)
    if m:
        spec = m.group("spec")
        parts = spec[1:-1].split(",") if spec.startswith("{") and spec.endswith("}") else [spec]
        durations = []
        for part in parts:
            pm = _DELAY_PART_RE.match(part)
            if not pm:
                raise SequenceParseError(f"bad delay spec {part!r}", line, column)
            durations.append((int(pm.group("j")), int(pm.group("k")),
                              SymbolicDuration(int(pm.group("m")))))
        return CouplingDelay(tuple(durations))
    m = _Z_RE.match(token)
    if m:
        return CompositeZ(int(m.group("spin")), math.radians(float(m.group("angle"))))
    m = _PULSE_RE.match(token)
    if m:
        angle = math.radians(float(m.group("angle")))
        phase = _PHASES[(m.group("sign"), m.group("axis"))]
        targets = m.group("targets")
        if _SPIN_LIST_RE.match(targets):
            spins = tuple(int(s[1:]) for s in targets.split(","))
            return SpinPulse(spins, angle, phase)
        tm = _TRANSITION_RE.match(targets)
        if tm:
            return TransitionPulse(int(tm.group("from")), int(tm.group("to")), angle, phase)
        raise SequenceParseError(f"bad pulse target {targets!r}", line, column)
    raise SequenceParseError(f"unrecognized token {token!r}", line, column)


def parse_sequence(text: str, name: str = "") -> PulseSequence:
    """Parse DSL text into a PulseSequence.

    Lines may carry ``#`` comments; ``n: <int>`` and ``name: <str>``
    directives set the spin count (required) and default name.
    """
    n = None
    elements = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("n:"):
            value = stripped[2:].strip()
            try:
                n = int(value)
            except ValueError:  # also digit strings too long to convert
                n = 0
            if not 1 <= n <= MAX_QUBITS:
                raise SequenceParseError(
                    f"spin count must be an integer in [1, {MAX_QUBITS}], got {value!r}",
                    lineno, line.index("n:") + 1)
            continue
        if stripped.startswith("name:"):
            name = name or stripped[5:].strip()
            continue
        col = 0
        for token in stripped.split():
            col = line.index(token, col) + 1
            elements.append(_parse_token(token, lineno, col))
            col += len(token) - 1
    if n is None:
        raise SequenceParseError("missing 'n: <spins>' directive", 1, 1)
    return PulseSequence(name, n, tuple(elements))


def format_element(e: PulseElement) -> str:
    """Render one element back into DSL text."""
    if isinstance(e, SpinPulse) or isinstance(e, TransitionPulse):
        phase_txt = {PHASE_X: "x", PHASE_Y: "y", PHASE_MINUS_X: "-x", PHASE_MINUS_Y: "-y"}
        key = min(phase_txt, key=lambda p: abs(p - e.phase % (2 * math.pi)))
        angle = math.degrees(e.angle)
        angle_txt = f"{angle:g}"
        if isinstance(e, SpinPulse):
            return f"{angle_txt}{phase_txt[key]}@" + ",".join(f"s{s}" for s in e.spins)
        return f"{angle_txt}{phase_txt[key]}@t{e.from_label}-{e.to_label}"
    if isinstance(e, CompositeZ):
        return f"z{math.degrees(e.angle):g}@s{e.spin}"
    if isinstance(e, CouplingDelay):
        parts = []
        for j, k, dur in e.durations:
            if isinstance(dur, SymbolicDuration):
                parts.append(f"1/({dur.m}*J{j}{k})")
            else:
                raise ValueError("only symbolic delays have a DSL form")
        body = parts[0] if len(parts) == 1 else "{" + ",".join(parts) + "}"
        return f"delay:{body}"
    raise TypeError(f"unknown pulse element {e!r}")


def format_sequence(seq: PulseSequence) -> str:
    lines = [f"name: {seq.name}", f"n: {seq.n}"]
    lines.extend(format_element(e) for e in seq.elements)
    return "\n".join(lines) + "\n"


# -- bundled sequence library ----------------------------------------------

SEQUENCE_LIBRARY = (
    "serial-n2", "parallel-n2", "selective-n2",
    "serial-n3", "parallel-n3", "selective-n3",
)

_PREP_SEQUENCES = ("pseudopure-cycle-a", "pseudopure-cycle-b")


def _load_sequence_resource(stem: str) -> PulseSequence:
    text = resources.files("spinqft.sequences").joinpath(f"{stem}.seq").read_text()
    return parse_sequence(text, name=stem)


def library_sequence(name: str) -> PulseSequence:
    """Return one of the six bundled transform sequences by name."""
    if name not in SEQUENCE_LIBRARY:
        raise KeyError(f"unknown sequence {name!r}; available: {', '.join(SEQUENCE_LIBRARY)}")
    return _load_sequence_resource(name)


def pseudopure_cycle_sequences() -> tuple[PulseSequence, PulseSequence]:
    """The two population-permuting preparation sequences."""
    a, b = (_load_sequence_resource(s) for s in _PREP_SEQUENCES)
    return a, b


def system_for_sequence(seq: PulseSequence) -> SpinSystem:
    """Convenience: the default equal-coupling system matching a sequence."""
    return chloroform() if seq.n == 2 else default_system(seq.n)
