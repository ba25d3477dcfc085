"""Shared helpers for the pulse-level end-to-end checks and the child
interpreters the package and CLI tests start."""

import math
import os
import subprocess
import sys

import numpy as np

from spinqft import core, nmr, tomography

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def run_python(args, cwd=None, **kwargs):
    """``python args`` in ``cwd`` on this package's source, text captured;
    PYTHONUNBUFFERED is dropped, so stdout is block-buffered and output
    that is not flushed is lost."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=120, **kwargs)


def sequence_unitary(seq: nmr.PulseSequence) -> core.UnitaryMatrix:
    """Ordered product of element unitaries, leftmost element first in time:
    the dense reference that ``nmr.run`` is checked against."""
    out = np.eye(2 ** seq.n, dtype=complex)
    for e in seq.elements:
        out = nmr.element_unitary(e, seq.n).entries @ out
    return core.UnitaryMatrix(out)


def reversed_transform(n: int) -> np.ndarray:
    """P F: the Fourier oracle, then the reversal of the output bits.  Both
    exact circuit builders and the ``simulate`` target are this map."""
    return core.bit_reversal_permutation(n).entries @ core.dft_oracle(n).entries


def ideal_output(rho_init: core.DensityMatrix) -> core.DensityMatrix:
    """Transform target after reverse-order relabeling of the qubits."""
    return core.conjugate(core.UnitaryMatrix(reversed_transform(rho_init.n)), rho_init)


def sequence_fidelity(seq: nmr.PulseSequence, noise: nmr.NoiseModel | None = None) -> float:
    """Fidelity of a sequence run from the pseudopure input against the
    relabeled transform target."""
    rho_init = nmr.pseudopure_input(seq.n)
    rho_out = nmr.run(seq, seq.n, rho_init, noise)
    return tomography.fidelity(ideal_output(rho_init), rho_out, rho_init).fidelity


def refocused(delay: nmr.CouplingDelay, spins: tuple) -> tuple:
    """``delay`` between two 180x pulses on ``spins``: every leg with one end
    among ``spins`` evolves under the opposite coupling sign."""
    flip = nmr.SpinPulse(spins, math.pi, nmr.PHASE_X)
    return (flip, delay, flip)


def z_template(spin: int, angle: float, template: str) -> tuple:
    """The elements that equal a z pulse of ``angle`` expanded by one rf
    sandwich template, in time order.  ``minus_xy``, {90_-x}{theta_y}{90_x},
    is the z element itself; ``xy_minus``, {90_x}{theta_y}{90_-x}, turns the
    other way; ``literal_xx``, {90_x}{theta_y}{90_x}, is no z rotation and
    stays three spin pulses."""
    if template == "minus_xy":
        return (nmr.CompositeZ(spin, angle),)
    if template == "xy_minus":
        return (nmr.CompositeZ(spin, -angle),)
    x90 = nmr.SpinPulse((spin,), math.pi / 2, nmr.PHASE_X)
    mid = nmr.SpinPulse((spin,), abs(angle), nmr.PHASE_Y if angle >= 0 else nmr.PHASE_MINUS_Y)
    return (x90, mid, x90)


def serial_program_text(n: int) -> str:
    """The serial transform on ``n`` spins (at most 9) as DSL text: per spin
    m, a coupling interval and z-correction sandwich for each later spin k,
    then the composite Hadamard on m."""
    tokens = []
    for m in range(n, 0, -1):
        for k in range(n, m, -1):
            d = k - m
            angle = 90.0 / 2 ** d  # exact in binary: written whole or by repr, never rounded
            tokens += [f"delay:1/({2 ** (d + 1)}*J{m}{k})", f"90y@s{m},s{k}",
                       f"{int(angle) if angle.is_integer() else angle!r}x@s{m},s{k}",
                       f"90-y@s{m},s{k}"]
        tokens += [f"45y@s{m}", f"180x@s{m}", f"45-y@s{m}"]
    return f"name: serial-{n}\nn: {n}\n" + " ".join(tokens) + "\n"


def random_traceless_hermitian(n: int, rng: np.random.Generator) -> core.DensityMatrix:
    dim = 2 ** n
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (h + h.conj().T) / 2.0
    h -= np.trace(h) / dim * np.eye(dim)
    return core.DensityMatrix(h)
