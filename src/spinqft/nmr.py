"""Hamiltonian-level simulator for weakly coupled spin-1/2 systems.

Pulse elements (spin-selective pulses, transition-selective pulses,
scalar-coupling delays, composite-z pulses) evaluate to exact unitaries
under an explicit, globally fixed rotation convention; pulse sequences
are ordered left-to-right in time.  A small text DSL describes sequences
(``90y@s1,s2  180x@t3-4  delay:1/(4*J12)  z45@s1``) and the bundled
two- and three-spin transform sequences ship as ``.seq`` files in that
format.  The package only reads the DSL (``parse_sequence``); it has no
writer, so a program is edited as text.

Rotation and coupling conventions
---------------------------------
A pulse of flip angle theta and rf phase phi (0 = x, pi/2 = y, pi = -x,
3*pi/2 = -y) applies exp(-i*theta*(Ix*cos(phi) + Iy*sin(phi))) on each
addressed spin, with I = sigma/2.  Every pair of spins is coupled at the
one ``CHLOROFORM_J_HZ``, and a delay leg written 1/(m*J_jk) evolves its pair
for 1/(m*J): it applies exp(+i * 2*pi/m * Iz_j Iz_k), whatever J is (the
way NMR writes delays as fractions of 1/J; Vandersypen & Chuang, Rev.
Mod. Phys. 76, 1037 (2005)).  A z pulse is {90_-x}{theta_y}{90_x} =
Rz(+theta), diagonal: the one fixed calibration that makes every bundled
sequence reproduce the transform exactly (the tests pin it with programs
that mirror each other convention).  Spins are on resonance.  Delays act
pair-by-pair as written (an idealization of the refocusing tricks that
isolate one coupling on hardware), and pulses are instantaneous.
``element_seconds`` gives each element its wall time, which matters only
to the dephasing noise model; it is the only place J enters.

``element_unitary`` is the one place an element's operator is built: a
2x2 rotation on each pulsed spin or on a transition's two rows, or a
diagonal of phase factors for a delay or a z pulse.  ``run`` first
checks every element's labels against ``n`` and its operator once on its
own spins (``_checked``, which returns a pulse's 2x2 with its spins or
basis pair and a delay's or a z pulse's phase factors placed on the
``n`` spins), then is one loop, with or without noise, that applies
those as given.  Spin j's dephasing is owed until an element moves
spin j, or until the end; an element moves spin j if it is a pulse on j,
or a transition whose two states differ in j's bit.  The owed dephasing
is then folded into j's 4x4 channel, the one place it enters.  A run of
spin pulses becomes one 4x4 channel per pulsed spin, and a channel with
no pulse in it is diagonal, one in-place scaling; a delay or a z pulse
is one Schur product with its phases; a transition pulse is applied in
place, to its two rows and then its two columns.
"""

from __future__ import annotations

import math
import numbers
import re
from dataclasses import dataclass
from importlib import resources

import numpy as np

from . import _shown
from .core import (
    MAX_QUBITS,
    DensityMatrix,
    UnitaryMatrix,
    _check_labels,
    _check_qubit_count,
    apply_channel,
    apply_local,
    qubit_bits,
    transition_states,
)
from .costmodel import CHLOROFORM_J_HZ, DEFAULT_PULSE_SECONDS

# rf phase labels
PHASE_X = 0.0
PHASE_Y = math.pi / 2.0
PHASE_MINUS_X = math.pi
PHASE_MINUS_Y = 3.0 * math.pi / 2.0

# the spin-pulse time and the one J, on every pair of spins, come from costmodel
TRANSITION_PULSE_SECONDS = 6.5e-3

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
    """z-rotation Rz(+angle) by a signed angle: diagonal, one phase per state."""

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

def _phase_terms(e: CouplingDelay | CompositeZ, n: int) -> tuple[list, list]:
    """A delay's or a z pulse's phase as terms (w, *spins) of w * prod Iz_j
    (-theta on spin j for Rz(theta), 2*pi/m per leg of 1/(m * J), so J never
    enters), and its spins in order; a spin outside 1..n is a ``ValueError``."""
    if not isinstance(e, (CompositeZ, CouplingDelay)):
        raise TypeError(f"unknown pulse element {e!r}")
    terms = ([(-e.angle, e.spin)] if isinstance(e, CompositeZ)
             else [(2.0 * math.pi / m, j, k) for j, k, m in e.legs])
    for _, *spins in terms:
        _check_labels(n, spins)
    return terms, sorted({j for _, *spins in terms for j in spins})


def element_unitary(e: PulseElement, n: int) -> UnitaryMatrix:
    """Exact unitary of one pulse element on ``n`` spins, the full Hilbert
    space; the one place an element's operator is built.  A pulse is the 2x2
    rotation of its angle and phase, applied to the identity on each pulsed
    spin's axis (``core.apply_local``) or on a transition's two rows; a delay
    or a z pulse is diagonal, one phase factor per row from its terms at the
    row's bits."""
    _check_qubit_count(n)
    u = np.eye(2 ** n, dtype=complex)
    if isinstance(e, (SpinPulse, TransitionPulse)):
        c, s = math.cos(e.angle / 2.0), math.sin(e.angle / 2.0)
        axis = np.array([[0.0, math.cos(e.phase) - 1j * math.sin(e.phase)],
                         [math.cos(e.phase) + 1j * math.sin(e.phase), 0.0]])
        op = c * np.eye(2, dtype=complex) - 1j * s * axis
        if isinstance(e, SpinPulse):
            u = apply_local(u, dict.fromkeys(e.spins, op))
        else:
            pair = list(transition_states(e.from_label, e.to_label, n))
            u[pair] = op @ u[pair]
    else:
        phase = np.zeros(2 ** n)
        for w, *spins in _phase_terms(e, n)[0]:
            phase += math.prod((0.5 - qubit_bits(j, n) for j in spins), start=w)  # +1/2 at bit 0
        u = np.exp(1j * phase)[:, None] * u
    return UnitaryMatrix(u)


def _checked(e: PulseElement, n: int) -> tuple[np.ndarray, tuple | list] | np.ndarray:
    """The element as ``run`` applies it, once every label it carries is
    checked against ``n`` (a ``ValueError`` otherwise; first, as the check of
    a delay moved onto k spins is O(8**k), so k may not exceed n) and its
    operator is checked unitary by one ``element_unitary`` on its own spins.
    A pulse of either kind is the 2x2 of the one-spin ``SpinPulse`` of its
    angle and phase, with its spins or its transition's basis pair; a delay
    or a z pulse is its 2**n phase factors, taken from the diagonal on its
    spins in order and placed at each row's bits there."""
    if isinstance(e, (SpinPulse, TransitionPulse)):
        if isinstance(e, SpinPulse):
            _check_labels(n, on := e.spins)
        else:
            on = list(transition_states(e.from_label, e.to_label, n))
        return element_unitary(SpinPulse((1,), e.angle, e.phase), 1).entries, on
    spins = _phase_terms(e, n)[1]
    own = {j: i for i, j in enumerate(spins, start=1)}
    moved = (CompositeZ(1, e.angle) if isinstance(e, CompositeZ)
             else CouplingDelay(tuple((own[j], own[k], m) for j, k, m in e.legs)))
    p = np.diagonal(element_unitary(moved, len(spins)).entries)
    return p[sum(qubit_bits(j, n) << (len(spins) - i) for j, i in own.items())]


# -- element time and dephasing noise ---------------------------------------

def element_seconds(e: PulseElement) -> float:
    """Wall time of one element: ``DEFAULT_PULSE_SECONDS`` per spin pulse (three
    for a composite z), ``TRANSITION_PULSE_SECONDS``, or the longest leg
    1/(m * J) of a delay.  The only place J enters the pulse model."""
    if isinstance(e, SpinPulse):
        return DEFAULT_PULSE_SECONDS
    if isinstance(e, TransitionPulse):
        return TRANSITION_PULSE_SECONDS
    if isinstance(e, CompositeZ):
        return 3.0 * DEFAULT_PULSE_SECONDS
    if isinstance(e, CouplingDelay):
        return max(1.0 / (m * CHLOROFORM_J_HZ) for _, _, m in e.legs)
    raise TypeError(f"unknown pulse element {e!r}")


@dataclass(frozen=True)
class NoiseModel:
    """Per-spin pure dephasing (rate 1/T2 in Hz) during each element's
    ``element_seconds``: entry (r, c) of rho is damped by exp(-rate_j * t)
    for each spin j where the bits of r and c differ.  ``run`` owes spin
    j's share until an element moves spin j, or until the end, and then
    folds it into j's 4x4 channel.  Zero rates reproduce the exact unitary
    channel.  One rate per spin: 1 to ``MAX_QUBITS`` of them.
    """

    rates: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        _check_qubit_count(len(rates))
        if not all(0 <= v < math.inf for v in rates):
            raise ValueError("dephasing rates must be finite and >= 0")
        object.__setattr__(self, "rates", rates)

    @classmethod
    def uniform(cls, n: int, rate_hz: float) -> "NoiseModel":
        return cls((float(rate_hz),) * n)


def _apply_schur(state: np.ndarray, phase: np.ndarray, buf: np.ndarray) -> None:
    """``state`` times p p^H, entrywise and in place, for the diagonal
    ``phase`` p of a delay or a z pulse.  The factor is built in ``buf[0]``."""
    state *= np.multiply(phase[:, None], phase.conj(), out=buf[0].reshape(state.shape))


def _hermitian_part(state: np.ndarray) -> None:
    """``state`` <- (state + state^H)/2 in place, one pair of mirrored 64 x
    64 tiles at a time, so no temporary is larger than a tile (whole-matrix
    temporaries raised an n = 8 ``simulate --t2`` child's peak RSS by 0.5 to
    2.6 MiB).  Entry (r, c) becomes (rho_rc + conj(rho_cr))/2, the
    conjugate of what (c, r) becomes: exactly Hermitian."""
    tiles = [slice(i, i + 64) for i in range(0, len(state), 64)]
    for i, r in enumerate(tiles):
        for c in tiles[i:]:
            upper = (state[r, c] + state[c, r].conj().T) / 2.0
            state[c, r] = (state[c, r] + state[r, c].conj().T) / 2.0
            state[r, c] = upper


def run(seq: PulseSequence, n: int, rho: DensityMatrix,
        noise: NoiseModel | None = None) -> DensityMatrix:
    """Propagate a density matrix through a sequence, with or without
    dephasing noise.  No 2**n x 2**n unitary is built.

    Every element is checked on ``n`` and on its own spins first, and the
    loop applies it as ``_checked`` returns it, so the first bad element is
    refused before ``rho`` is touched.  Spin j's dephasing during an element
    multiplies the (row bit j, column bit j) pair of ``rho`` by D_j =
    diag(1, g, g, 1), g = exp(-rate_j * t).  It commutes with every element
    that does not move spin j, so it is owed until an element moves spin j
    (a pulse on j, or a transition whose two states differ in j's bit) or
    until the end.  Then ``take_in(j)`` folds it into j's 4x4 channel,
    S_j <- D_j(owed_j) S_j, opening one if none is open; that is the only
    place dephasing enters.

    - a maximal run of spin pulses builds one 4x4 channel per pulsed spin;
      each pulse on spin j takes in what j owes just before its own
      operator, S_j <- (u (x) conj(u)) D_j(owed_j) S_j.  The open channels
      are applied once, when the run ends (``core.apply_channel``);
    - a delay or a z pulse is one in-place Schur product with its phase
      diagonal p, p p^H (``_apply_schur``);
    - a transition pulse first takes in what its one spin owes and applies
      the open channels, then is applied in place, to its two rows and
      then to its two columns: u rho u^H.  The end takes in what every
      spin owes and applies the open channels; one that only dephases is
      diagonal and scales ``rho`` in place.

    The result is (rho + rho^H)/2 of the propagated ``rho``, exactly
    Hermitian where roundoff left it Hermitian to about 1e-17.
    """
    rates = noise.rates if noise else (0.0,) * n
    if not seq.n == n == rho.n == len(rates):
        raise ValueError(f"the program has {seq.n} spins, n = {n}, the state {rho.n} spins "
                         f"and the noise model {len(rates)} rates; all must be equal")
    ops = [_checked(e, n) for e in seq.elements]  # built before the loop, which they slow
    state = np.array(rho.entries)  # written in place from here on
    buf = np.empty((2, state.size), dtype=complex)  # two reused C scratch arrays
    owed = np.zeros(n)  # seconds of dephasing each spin owes, spin j at j - 1
    channels = {}  # spin -> its 4x4 channel in the open pulse run

    def take_in(j):  # S_j <- D_j(owed_j) S_j, opening S_j if need be
        if x := rates[j - 1] * owed[j - 1]:
            g = math.exp(-x)
            channels[j] = channels.get(j, np.eye(4)) * [[1.0], [g], [g], [1.0]]
        owed[j - 1] = 0.0

    def close_pulses():
        for j, s in channels.items():
            apply_channel(state, j, s, buf)
        channels.clear()

    for e, op in zip(seq.elements, ops):
        if isinstance(e, SpinPulse):
            u, spins = op
            k = np.kron(u, u.conj())
            for j in spins:
                take_in(j)
                channels[j] = k @ channels.get(j, np.eye(4))
        elif isinstance(e, TransitionPulse):
            u, pair = op
            take_in(n + 1 - (pair[0] ^ pair[1]).bit_length())  # the one spin it moves
            close_pulses()
            state[pair] = u @ state[pair]
            state[:, pair] = state[:, pair] @ u.conj().T
        else:
            close_pulses()
            _apply_schur(state, op, buf)
        owed += element_seconds(e)
    for j in range(1, n + 1):
        take_in(j)
    close_pulses()
    del buf  # not held through the final check
    _hermitian_part(state)
    return DensityMatrix(state)


# -- thermal state and temporally averaged pseudopure preparation ---------

def thermal_deviation(a: float = 1.0, b: float = 1.0) -> DensityMatrix:
    """Two-spin thermal deviation a*Iz1 + b*Iz2 (diagonal, traceless)."""
    diag = np.array([(a + b) / 2.0, (a - b) / 2.0, (-a + b) / 2.0, -(a + b) / 2.0])
    return DensityMatrix(np.diag(diag.astype(complex)))


def prepare_pseudopure_temporal_avg(n: int = 2, a: float = 1.0, b: float = 1.0) -> DensityMatrix:
    """Average of three experiments mapping a*Iz1 + b*Iz2 to pseudopure |00>.

    The two bundled permutation sequences cycle the three non-|00>
    populations in opposite senses, so the average of (do-nothing,
    sequence A, sequence B) is proportional to |00><00| - I/4 for any
    non-negative weights: 2*(a+b)/3 times that projector deviation.
    """
    if n != 2:
        raise ValueError("temporal-averaging preparation is defined for two spins")
    rho_eq = thermal_deviation(a, b)
    seq_a, seq_b = pseudopure_cycle_sequences()
    total = np.array(rho_eq.entries)
    for seq in (seq_a, seq_b):
        total = total + run(seq, n, rho_eq).entries
    return DensityMatrix(total / 3.0)


def pseudopure_input(n: int) -> DensityMatrix:
    """An n-spin program's input: the temporal average at n = 2, else the projector deviation."""
    return prepare_pseudopure_temporal_avg() if n == 2 else pseudopure_projector_deviation(n)


def pseudopure_projector_deviation(n: int) -> DensityMatrix:
    """|0...0><0...0| - I/2**n, the normalized pseudopure deviation target.
    Filled in place, with the signed zeros of -I/2**n: -0.0 in the real
    parts off the diagonal, +0.0 in every imaginary part."""
    _check_qubit_count(n)
    dim = 2 ** n
    m = np.full((dim, dim), complex(-0.0, 0.0))
    m.flat[:: dim + 1] = -1.0 / dim
    m[0, 0] += 1.0
    return DensityMatrix(m)


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
        for token in re.finditer(r"\S+", line):
            try:
                elements.append(_parse_token(token.group()))
            except ValueError as exc:
                raise SequenceParseError(str(exc), lineno, token.start() + 1) from None
    if n is None:
        raise SequenceParseError("missing 'n: <spins>' directive", 1, 1)
    return PulseSequence(name, n, tuple(elements))


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


def system_for_sequence(seq: PulseSequence) -> int:
    """The spin count a sequence runs on, ``seq.n``."""
    return seq.n
