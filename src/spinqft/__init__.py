"""Quantum Fourier transform constructions, cost models, pulse-level NMR
simulation and simulated state tomography for small spin systems.

Submodules load on first access (``spinqft.nmr`` or ``from spinqft import
nmr``), so a caller that needs only ``costmodel`` never imports numpy.
"""

import importlib

__all__ = ["circuits", "core", "costmodel", "nmr", "tomography"]
__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
