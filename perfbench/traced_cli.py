"""Run one spinqft CLI invocation with per-layer spans.

Usage: python traced_cli.py SUMMARY_JSON CLI_ARG...

Behaves like ``python -m spinqft.cli CLI_ARG...`` (same ``main()``, same
stdout, files and exit code) but first wraps every public function,
public method and value-type constructor of each layer module in a span
recorder.  A function is replaced in every module and module-level dict
that holds it, because the layers import names from each other (for
instance ``circuits`` does ``from .core import dft_oracle``).  Spans stay
in memory; when ``main()`` returns, this writes one per-invocation
summary of counts, inclusive times and layer self times to SUMMARY_JSON.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import sys
import time
import types
import weakref

LAYERS = ("cli", "core", "circuits", "nmr", "tomography", "costmodel")

# per-layer metric -> how it is derived from the spans of one invocation
COUNTS = {
    "circuits.gate_unitary_calls": ("circuits.gate_unitary",),
    "core.unitary_checks": ("core.UnitaryMatrix",),
    "core.density_checks": ("core.DensityMatrix",),
    "nmr.element_unitary_calls": ("nmr.element_unitary",),
    "nmr.damping_calls": ("nmr.NoiseModel.damping_matrix",),
    "costmodel.evaluations": ("costmodel.t_serial_liquid", "costmodel.t_parallel",
                              "costmodel.t_serial_solid"),
}
INCLUSIVE = {
    "circuits.gate_unitary_s": ("circuits.gate_unitary",),
    "core.unitary_check_s": ("core.UnitaryMatrix",),
    "core.density_check_s": ("core.DensityMatrix",),
    "core.dft_oracle_s": ("core.dft_oracle",),
    "nmr.parse_s": ("nmr.parse_sequence",),
    "nmr.element_unitary_s": ("nmr.element_unitary",),
    "nmr.damping_s": ("nmr.NoiseModel.damping_matrix",),
    "nmr.pseudopure_prep_s": ("nmr.prepare_pseudopure_temporal_avg",
                              "nmr.pseudopure_projector_deviation"),
    "tomography.design_matrix_s": ("tomography.design_matrix",),
    "tomography.measure_all_s": ("tomography.measure_all",),
    "tomography.reconstruct_s": ("tomography.reconstruct",),
    "tomography.fidelity_s": ("tomography.fidelity",),
    "costmodel.sweep_s": ("costmodel.sweep",),
}
SELF = {
    "circuits.circuit_unitary_self_s": "circuits.circuit_unitary",
    "circuits.verify_self_s": "circuits.verify_against_oracle",
    "nmr.run_self_s": "nmr.run",
}
SERIAL_COST_SPANS = ("costmodel.t_serial_liquid", "costmodel.t_serial_solid")


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "size")

    def __init__(self, name, layer, parent):
        self.name, self.layer, self.parent = name, layer, parent
        self.start = self.end = 0.0
        self.size = None  # first int argument, or length of an array result


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        # one record [useful] per UnitaryMatrix check, and id(live checked
        # object) -> (weakref, record) to find it on return; a check is
        # useful when cli builds its object or a call returns it to cli
        self.checks: list[list] = []
        self.live: dict[int, tuple] = {}
        self.unitary_type = None

    # -- recording ---------------------------------------------------------

    def _enter(self, name, layer, args):
        span = Span(name, layer, self.stack[-1] if self.stack else -1)
        for a in args[:2]:
            if type(a) is int:
                span.size = a
                break
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _layer_of(self, index):
        return self.spans[index].layer if index >= 0 else "cli"

    def _returned(self, span, result):
        """Mark unitary checks whose object is returned to a cli caller."""
        if self._layer_of(span.parent) != "cli":
            return
        for obj in result if isinstance(result, tuple) else (result,):
            ref, rec = self.live.get(id(obj), (None, None))
            if ref is not None and ref() is obj:
                rec[0] = True

    def wrap_function(self, fn, name, layer):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._enter(name, layer, args)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if hasattr(result, "shape") and span.size is None:
                span.size = int(result.shape[0])
            self._returned(span, result)
            return result
        return traced

    def wrap_constructor(self, cls, name, layer):
        init = cls.__init__

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            span = self._enter(name, layer, ())
            try:
                init(obj, *args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
            if cls is self.unitary_type:
                rec = [self._layer_of(span.parent) == "cli"]
                self.checks.append(rec)
                self.live[id(obj)] = (weakref.ref(obj), rec)
        cls.__init__ = traced_init

    # -- installation --------------------------------------------------------

    def install(self, package="spinqft"):
        modules = {layer: importlib.import_module(f"{package}.{layer}") for layer in LAYERS}
        self.unitary_type = modules["core"].UnitaryMatrix
        replaced = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    if dataclasses.is_dataclass(obj):
                        self.wrap_constructor(obj, f"{layer}.{attr}", layer)
                        for meth, fn in list(vars(obj).items()):
                            if not meth.startswith("_") and isinstance(fn, types.FunctionType):
                                setattr(obj, meth, self.wrap_function(
                                    fn, f"{layer}.{attr}.{meth}", layer))
                elif callable(obj):
                    replaced[id(obj)] = self.wrap_function(obj, f"{layer}.{attr}", layer)
        # rebind every module-level reference: names and dict values
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and callable(obj):
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, dict):
                    for k, v in list(obj.items()):
                        if callable(v) and id(v) in replaced:
                            obj[k] = replaced[id(v)]

    # -- summary ---------------------------------------------------------------

    def summary(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        self_time = [s.end - s.start - c for s, c in zip(spans, child_time)]

        def outermost(i):
            name, p = spans[i].name, spans[i].parent
            while p >= 0:
                if spans[p].name == name:
                    return False
                p = spans[p].parent
            return True

        out = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        for s, t in zip(spans, self_time):
            out[f"{s.layer}.self_s"] += t
        for metric, names in COUNTS.items():
            out[metric] = sum(1 for s in spans if s.name in names)
        for metric, names in INCLUSIVE.items():
            out[metric] = sum(s.end - s.start for i, s in enumerate(spans)
                              if s.name in names and outermost(i))
        for metric, name in SELF.items():
            out[metric] = sum(t for s, t in zip(spans, self_time) if s.name == name)
        out["tomography.readout_values"] = sum(
            s.size or 0 for s in spans if s.name == "tomography.measure_all")
        out["costmodel.sum_check_terms"] = sum(
            s.size * (s.size + 1) // 2 for s in spans if s.name in SERIAL_COST_SPANS)
        out["core.useful_unitary_checks"] = sum(1 for rec in self.checks if rec[0])
        out["traced_s"] = sum(s.end - s.start for s in spans if s.parent < 0)
        return out


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    start = time.perf_counter()
    import spinqft.cli
    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        code = spinqft.cli.main(cli_args)
    except SystemExit as exc:  # argparse usage errors, as under ``-m spinqft.cli``
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["cli.import_s"] = import_s
        with open(summary_path, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
