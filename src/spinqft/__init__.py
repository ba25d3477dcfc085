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


def _shown(text: str) -> str:
    """``text`` quoted for an error message: at most 40 characters, then its length."""
    if len(text) <= 40:
        return repr(text)
    return f"{text[:40]!r}... ({len(text)} characters)"
