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
addressed spin, with I = sigma/2.  Every pair of spins is coupled at the
one ``DEFAULT_J_HZ``, and a delay leg written 1/(m*J_jk) evolves its pair
for 1/(m*J): it applies exp(+i * 2*pi/m * Iz_j Iz_k), whatever J is (the
way NMR writes delays as fractions of 1/J; Vandersypen & Chuang, Rev.
Mod. Phys. 76, 1037 (2005)).  A z pulse expands to {90_-x}{theta_y}{90_x}
= Rz(+theta): the one fixed calibration that makes every bundled sequence
reproduce the transform exactly (the tests pin it with programs that
mirror each other convention).  Spins are on resonance.  Delays act
pair-by-pair as written (an idealization of the refocusing tricks that
isolate one coupling on hardware), and pulses are instantaneous.
``element_seconds`` gives each element its wall time, which matters only
to the dephasing noise model; it is the only place J enters.

Each element kind is defined once, by its action ``a -> u @ a`` where
the element acts (``_action``: 2x2 rotations on the pulsed spins' qubit
axes through ``core.apply_local``, two rows for a transition pulse, one
phase per row for a delay).  ``element_unitary`` is that action applied
to the identity.  A noiseless ``run`` conjugates by the dense
``sequence_unitary``.  A noisy ``run`` never builds a 2**n x 2**n
element unitary: it applies each element's action to the density
matrix twice, as ``u (u rho)^H`` (a delay as one Schur product with
``outer(p, conj(p))``), then the element's dephasing channel.
"""

from __future__ import annotations

import math
import numbers
import re
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal
from importlib import resources

import numpy as np

from .core import (
    MAX_QUBITS,
    DensityMatrix,
    UnitaryMatrix,
    _check_qubit_count,
    apply_local,
    qubit_bits,
    transition_states,
)

# rf phase labels
PHASE_X = 0.0
PHASE_Y = math.pi / 2.0
PHASE_MINUS_X = math.pi
PHASE_MINUS_Y = 3.0 * math.pi / 2.0

# the one scalar coupling, on every pair of spins, and the element times
DEFAULT_J_HZ = 215.0
SPIN_PULSE_SECONDS = 10e-6
TRANSITION_PULSE_SECONDS = 6.5e-3
GAMMA_RATIO_H_TO_C = 3.976  # 1H/13C gyromagnetic ratio, thermal-weighting preset

@dataclass(frozen=True)
class SpinSystem:
    """``n`` weakly coupled spins on resonance, every pair coupled at ``DEFAULT_J_HZ``."""

    n: int

    def __post_init__(self):
        _check_qubit_count(self.n)


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
class CouplingDelay:
    """Free evolution of the named spin pairs under their coupling.

    ``legs`` is ((j, k, m), ...): the pair (j, k), j < k, evolves for
    1/(m * J) with m a whole number >= 1; several pairs evolve
    simultaneously (the multiqubit-gate idealization).
    """

    legs: tuple  # ((j, k, m), ...)

    def __post_init__(self):
        if not self.legs:
            raise ValueError("delay must list at least one coupling pair")
        norm = []
        for j, k, m in self.legs:
            if j == k:
                raise ValueError("coupling endpoints must differ")
            if not isinstance(m, numbers.Integral) or m < 1:
                raise ValueError("delay denominator must be an integer >= 1")
            norm.append((int(min(j, k)), int(max(j, k)), int(m)))
        object.__setattr__(self, "legs", tuple(norm))


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

def expand_composite_z(e: CompositeZ) -> list[SpinPulse]:
    """Expand a z-pulse into its rf sandwich {90_-x}{theta_y}{90_x}, which is Rz(+theta)."""
    half = math.pi / 2.0
    mid_phase = PHASE_Y if e.angle >= 0 else PHASE_MINUS_Y
    mid = SpinPulse((e.spin,), abs(e.angle), mid_phase)
    return [SpinPulse((e.spin,), half, PHASE_MINUS_X), mid, SpinPulse((e.spin,), half, PHASE_X)]


def _delay_phases(e: CouplingDelay, n: int) -> np.ndarray:
    """Diagonal of a coupling delay's unitary, one phase factor per basis
    state: a leg of 1/(m * J) adds 2*pi * J/(m * J) = 2*pi/m times
    Iz_j * Iz_k, so J never enters."""
    iz = {j: 0.5 - qubit_bits(j, n) for j in range(1, n + 1)}  # +1/2 for bit 0
    phase = np.zeros(2 ** n)
    for j, k, m in e.legs:
        if not 1 <= j < k <= n:
            raise KeyError(f"no coupling defined for spin pair ({j}, {k})")
        phase += 2.0 * math.pi / m * iz[j] * iz[k]
    return np.exp(1j * phase)


def _checked_rotation(angle: float, phase: float) -> np.ndarray:
    """One spin's pulse rotation, checked unitary as a 1-qubit matrix."""
    c, s = math.cos(angle / 2.0), math.sin(angle / 2.0)
    axis = np.array([[0.0, math.cos(phase) - 1j * math.sin(phase)],
                     [math.cos(phase) + 1j * math.sin(phase), 0.0]])
    return UnitaryMatrix(1, c * np.eye(2, dtype=complex) - 1j * s * axis).entries


def _action(e: PulseElement, system: SpinSystem) -> Callable[[np.ndarray], np.ndarray]:
    """``a -> u @ a`` for the unitary ``u`` of one element, applied where
    the element acts, for any ``a`` with 2**n rows.

    A spin pulse is its 2x2 rotation on the pulsed spins' qubit axes
    (``core.apply_local``); a transition pulse rewrites the two rows of its
    basis pair; a coupling delay scales each row by its phase factor; a
    composite z applies its three rf pulses in time order.  Each 2x2
    rotation is checked unitary to 1e-10, once, when the action is built;
    a delay's phases 2*pi/m * (+-1/4) are finite, so its factors are
    unit-modulus by construction.
    """
    n = system.n
    if isinstance(e, SpinPulse):
        f = dict.fromkeys(e.spins, _checked_rotation(e.angle, e.phase))
        return lambda a: apply_local(a, n, f)
    if isinstance(e, TransitionPulse):
        pair = list(transition_states(e.from_label, e.to_label, n))
        r = _checked_rotation(e.angle, e.phase)

        def rotate_pair(a):
            out = np.array(a, dtype=complex)
            out[pair] = r @ out[pair]
            return out
        return rotate_pair
    if isinstance(e, CouplingDelay):
        p = _delay_phases(e, n)
        return lambda a: p[:, None] * a
    if isinstance(e, CompositeZ):
        pulses = [_action(p, system) for p in expand_composite_z(e)]

        def sandwich(a):
            for act in pulses:
                a = act(a)
            return a
        return sandwich
    raise TypeError(f"unknown pulse element {e!r}")


def element_unitary(e: PulseElement, system: SpinSystem) -> UnitaryMatrix:
    """Exact unitary of one pulse element on the full Hilbert space: the
    element's action applied to the identity."""
    act = _action(e, system)
    return UnitaryMatrix(system.n, act(np.eye(2 ** system.n, dtype=complex)))


def sequence_unitary(seq: PulseSequence, system: SpinSystem) -> UnitaryMatrix:
    """Ordered product of element unitaries, leftmost element first in time."""
    if seq.n != system.n:
        raise ValueError(f"sequence is for {seq.n} spins, system has {system.n}")
    out = np.eye(2 ** system.n, dtype=complex)
    for e in seq.elements:
        out = element_unitary(e, system).entries @ out
    return UnitaryMatrix(system.n, out)


def _conjugate_element(rho: np.ndarray, e: PulseElement, system: SpinSystem) -> np.ndarray:
    """``u @ rho @ u^H`` for ``u = element_unitary(e)`` and a Hermitian
    ``rho``, without the 2**n x 2**n unitary: the element's action applied
    twice, to ``rho`` and then to ``(u rho)^H``, since
    ``u (u rho)^H = u rho u^H``.  A coupling delay, ``u = diag(p)``, is
    one Schur product with ``outer(p, conj(p))`` instead."""
    if isinstance(e, CouplingDelay):
        p = _delay_phases(e, system.n)
        return rho * np.outer(p, p.conj())
    act = _action(e, system)
    # one expression, so that u rho is freed before the second pass allocates
    return act(act(rho).conj().T)


# -- element time and dephasing noise ---------------------------------------

def element_seconds(e: PulseElement) -> float:
    """Wall time of one element: ``SPIN_PULSE_SECONDS`` per spin pulse (three
    for a composite z), ``TRANSITION_PULSE_SECONDS``, or the longest leg
    1/(m * J) of a delay.  The only place J enters the pulse model."""
    if isinstance(e, SpinPulse):
        return SPIN_PULSE_SECONDS
    if isinstance(e, TransitionPulse):
        return TRANSITION_PULSE_SECONDS
    if isinstance(e, CompositeZ):
        return 3.0 * SPIN_PULSE_SECONDS
    if isinstance(e, CouplingDelay):
        return max(1.0 / (m * DEFAULT_J_HZ) for _, _, m in e.legs)
    raise TypeError(f"unknown pulse element {e!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin pure dephasing (rate 1/T2 in Hz) during each element's
    ``element_seconds``: every element damps single-spin coherence by
    exp(-rate * time).  Zero rates reproduce the exact unitary channel.
    """

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        if not all(0 <= v < math.inf for v in rates):
            raise ValueError("dephasing rates must be finite and >= 0")
        object.__setattr__(self, "rates", rates)

    @classmethod
    def uniform(cls, n: int, rate_hz: float) -> "NoiseModel":
        return cls((float(rate_hz),) * n)

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
        noise: NoiseModel | None = None) -> DensityMatrix:
    """Propagate a density matrix through a sequence.

    Without noise this equals conjugation by ``sequence_unitary`` exactly.
    With noise, each element is applied where it acts
    (``_conjugate_element``, no 2**n x 2**n unitary is built) and then
    followed by the dephasing channel for that element's wall time; the
    channel's damping matrix is built once per distinct element time.
    """
    if seq.n != system.n or rho.n != system.n:
        raise ValueError("sequence, system and state must share the spin count")
    if noise is None or not any(noise.rates):
        u = sequence_unitary(seq, system).entries
        return DensityMatrix(system.n, u @ rho.entries @ u.conj().T, traceless=rho.traceless)
    damping = {}  # element seconds -> damping matrix, for this run only
    state = np.array(rho.entries)
    for e in seq.elements:
        state = _conjugate_element(state, e, system)
        t = element_seconds(e)
        if t not in damping:
            damping[t] = noise.damping_matrix(system.n, t)
        state = state * damping[t]  # Schur-product dephasing channel
    return DensityMatrix(system.n, state, traceless=rho.traceless)


# -- thermal state and temporally averaged pseudopure preparation ---------

def thermal_deviation(a: float = 1.0, b: float = 1.0) -> DensityMatrix:
    """Two-spin thermal deviation a*Iz1 + b*Iz2 (diagonal, traceless)."""
    diag = np.array([(a + b) / 2.0, (a - b) / 2.0, (-a + b) / 2.0, -(a + b) / 2.0])
    return DensityMatrix(2, np.diag(diag.astype(complex)), traceless=True)


def prepare_pseudopure_temporal_avg(system: SpinSystem = SpinSystem(2),
                                    a: float = 1.0, b: float = 1.0) -> DensityMatrix:
    """Average of three experiments mapping a*Iz1 + b*Iz2 to pseudopure |00>.

    The two bundled permutation sequences cycle the three non-|00>
    populations in opposite senses, so the average of (do-nothing,
    sequence A, sequence B) is proportional to |00><00| - I/4 for any
    non-negative weights: 2*(a+b)/3 times that projector deviation.
    """
    if system.n != 2:
        raise ValueError("temporal-averaging preparation is defined for two spins")
    rho_eq = thermal_deviation(a, b)
    seq_a, seq_b = pseudopure_cycle_sequences()
    total = np.array(rho_eq.entries)
    for seq in (seq_a, seq_b):
        total = total + run(seq, system, rho_eq).entries
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
_DELAY_PART_RE = re.compile(r"^1/\((?P<m>\d+)\*J(?P<pair>\d\d|\(\d+,\d+\))\)$")  # J12, J(10,11)
_LEG_COMMA_RE = re.compile(r",(?![^(]*\))")  # a comma outside J(j,k)
_SPIN_LIST_RE = re.compile(r"^s\d+(,s\d+)*$")
_TRANSITION_RE = re.compile(r"^t(?P<from>\d+)-(?P<to>\d+)$")

_PHASES = {
    ("", "x"): PHASE_X,
    ("", "y"): PHASE_Y,
    ("-", "x"): PHASE_MINUS_X,
    ("-", "y"): PHASE_MINUS_Y,
}


def _radians(degrees: str) -> float:
    angle = math.radians(float(degrees))
    if not math.isfinite(angle):
        raise ValueError("angle is not a finite number of degrees")
    return angle


def _shown(text: str) -> str:
    """``text`` quoted for an error message: whole up to 40 characters, else
    its first 40 and its length, so one bad token of any size gives a
    short line."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"


def _label(digits: str, top: int, what: str) -> int:
    """A spin or transition label; ``ValueError`` above ``top``.  The digit
    count decides first, so ``int()`` never reads a long digit string."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(top)) or int(digits) > top:
        raise ValueError(f"{what} label above {top}")
    return int(digits)


def _parse_token(token: str) -> PulseElement:
    """One DSL token as its element; ``ValueError`` for what it cannot be."""
    m = _DELAY_RE.match(token)
    if m:
        spec = m.group("spec")
        braced = spec.startswith("{") and spec.endswith("}")
        legs = []
        for part in _LEG_COMMA_RE.split(spec[1:-1]) if braced else [spec]:
            pm = _DELAY_PART_RE.match(part)
            if not pm:
                raise ValueError(f"bad delay spec {_shown(part)}")
            count = pm.group("m").lstrip("0") or "0"
            if not math.isfinite(float(count)):
                raise ValueError("delay denominator is too large for a float")
            j, k = pm.group("pair")[1:-1].split(",") if "," in part else pm.group("pair")
            legs.append((_label(j, MAX_QUBITS, "spin"), _label(k, MAX_QUBITS, "spin"), int(count)))
        return CouplingDelay(tuple(legs))
    m = _Z_RE.match(token)
    if m:
        return CompositeZ(_label(m.group("spin"), MAX_QUBITS, "spin"), _radians(m.group("angle")))
    m = _PULSE_RE.match(token)
    if m:
        angle = _radians(m.group("angle"))
        phase = _PHASES[(m.group("sign"), m.group("axis"))]
        targets = m.group("targets")
        if _SPIN_LIST_RE.match(targets):
            spins = tuple(_label(s[1:], MAX_QUBITS, "spin") for s in targets.split(","))
            return SpinPulse(spins, angle, phase)
        tm = _TRANSITION_RE.match(targets)
        if tm:
            top = 2 ** MAX_QUBITS
            return TransitionPulse(_label(tm.group("from"), top, "transition"),
                                   _label(tm.group("to"), top, "transition"), angle, phase)
        raise ValueError(f"bad pulse target {_shown(targets)}")
    raise ValueError(f"unrecognized token {_shown(token)}")


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
                    f"spin count must be an integer in [1, {MAX_QUBITS}], got {_shown(value)}",
                    lineno, line.index("n:") + 1)
            continue
        if stripped.startswith("name:"):
            name = name or stripped[5:].strip()
            continue
        col = 0
        for token in stripped.split():
            col = line.index(token, col) + 1
            try:
                elements.append(_parse_token(token))
            except ValueError as exc:
                raise SequenceParseError(str(exc), lineno, col) from None
            col += len(token) - 1
    if n is None:
        raise SequenceParseError("missing 'n: <spins>' directive", 1, 1)
    return PulseSequence(name, n, tuple(elements))


_PHASE_TEXT = {PHASE_X: "x", PHASE_Y: "y", PHASE_MINUS_X: "-x", PHASE_MINUS_Y: "-y"}


def _degrees_text(angle: float) -> str:
    """``angle`` (radians) in degrees, as decimal text without an exponent
    that ``math.radians`` maps back to ``angle`` exactly.

    The repr of ``math.degrees(angle)`` is tried first, then its float
    neighbours, and the shortest exact one is written; an angle that no
    decimal maps back to exactly is written as the nearest one.
    """
    if not math.isfinite(angle):
        raise ValueError(f"angle {angle!r} has no DSL form")
    up = down = math.degrees(angle) + 0.0  # + 0.0 turns -0.0 into 0.0
    near = [up]
    for _ in range(4):
        up, down = math.nextafter(up, math.inf), math.nextafter(down, -math.inf)
        near += [up, down]
    exact = [d for d in near if math.radians(d) == angle]
    best = (min(exact, key=lambda d: len(repr(d))) if exact
            else min(near, key=lambda d: abs(math.radians(d) - angle)))
    return format(Decimal(repr(best)), "f").removesuffix(".0")


def format_element(e: PulseElement) -> str:
    """Render one element back into DSL text that ``parse_sequence`` reads
    back as the same element.

    Raises ``ValueError`` for what the DSL cannot write: an rf phase other
    than x, y, -x, -y, or a negative or non-finite pulse angle.  A delay
    pair with a spin above 9 is written ``J(j,k)``.
    """
    if isinstance(e, SpinPulse) or isinstance(e, TransitionPulse):
        phase_txt = _PHASE_TEXT.get(e.phase % (2 * math.pi))
        if phase_txt is None:
            raise ValueError(f"rf phase {e.phase!r} is not one of x, y, -x, -y")
        if not e.angle >= 0:
            raise ValueError(f"pulse angle {e.angle!r} must be >= 0")
        head = _degrees_text(e.angle) + phase_txt
        if isinstance(e, SpinPulse):
            return f"{head}@" + ",".join(f"s{s}" for s in e.spins)
        return f"{head}@t{e.from_label}-{e.to_label}"
    if isinstance(e, CompositeZ):
        return f"z{_degrees_text(e.angle)}@s{e.spin}"
    if isinstance(e, CouplingDelay):
        # J110 would not read as (1, 10): a spin above 9 needs the J(j,k) form
        parts = [f"1/({m}*J{j}{k})" if k <= 9 else f"1/({m}*J({j},{k}))" for j, k, m in e.legs]
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
    """The spin system a sequence runs on: its spin count."""
    return SpinSystem(seq.n)
