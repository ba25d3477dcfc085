"""Command-line front end.

Subcommands: ``verify`` (circuit vs. the Fourier oracle), ``cost``
(time-cost sweeps as CSV/JSON), ``simulate`` (pulse-level run from the
pseudopure input with fidelity report and optional tomography
cross-check), ``tomo-roundtrip`` (reconstruction identity check), and
``export-fig2`` (density-matrix bar-chart CSV).

Every invocation is normalized into an immutable ``RunConfig`` before
dispatch, so identical inputs produce byte-identical outputs.  Exit
codes: 0 success, 1 verification failure, 2 usage error.  The
environment variable ``SPINQFT_SEED`` overrides the seed used for
readout perturbation.

Only ``costmodel`` is imported at module level.  The matrix layers
(``circuits``, ``core``, ``nmr``, ``tomography``) and numpy are imported
inside the handlers that use them, so ``cost`` never loads them.
"""

from __future__ import annotations

import argparse
import json
import os
import stat
import sys
import tempfile
from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import costmodel

if TYPE_CHECKING:
    from . import core, nmr

VERIFY_TOL = 1e-10
TOMO_TOL = 1e-8
DEFAULT_SEED = 20260810
VERIFY_MAX_QUBITS = 8
# a 1..N cost sweep cross-checks ~N**2/2 terms: about 8 s at the cap (2-CPU container)
N_RANGE_MAX = 10_000


@dataclass(frozen=True)
class RunConfig:
    """Normalized arguments of one CLI invocation."""

    command: str
    n: int = 0
    decomposition: str = ""
    m: int = 0
    model: str = ""
    J: float = costmodel.CHLOROFORM_J_HZ
    delta: float = costmodel.DEFAULT_PULSE_SECONDS
    d: float | None = None
    Delta: float | None = None
    n_range: tuple = ()
    sequence: str = ""
    t2: float = 0.0
    tomography: bool = False
    reverse_readout: bool = True
    what: str = "output"
    samples: int = 0
    out: str = ""
    fmt: str = "csv"
    seed: int = DEFAULT_SEED


def _atomic_write(path: str, text: str) -> None:
    """Write where and with the mode ``open(path, "w")`` would (symlinks
    followed, FIFOs and devices written in place), but replace a regular
    file atomically."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.write(text)
        return
    umask = os.umask(0)
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".spinqft-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(text: str, out: str) -> None:
    if out:
        _atomic_write(out, text)
    else:
        sys.stdout.write(text)


def _json_text(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _parse_range(text: str) -> tuple:
    try:
        lo_txt, hi_txt = text.split("..", 1)
        lo, hi = int(lo_txt), int(hi_txt)
    except ValueError:
        raise argparse.ArgumentTypeError(f"range must look like '1..10', got {text!r}")
    if not 1 <= lo <= hi <= N_RANGE_MAX:
        raise argparse.ArgumentTypeError(
            f"range {text!r} must satisfy 1 <= lo <= hi <= {N_RANGE_MAX}")
    return tuple(range(lo, hi + 1))


def cmd_verify(config: RunConfig, parser) -> int:
    from . import circuits

    if config.decomposition == "approximate":
        circuit = circuits.build_approximate(config.n, config.m or config.n)
    elif config.decomposition == "serial":
        circuit = circuits.build_serial(config.n)
    else:
        circuit = circuits.build_parallel(config.n)
    passed, deviation = circuits.verify_against_oracle(circuit, VERIFY_TOL)
    doc = {
        "command": "verify",
        "n": config.n,
        "decomposition": circuit.decomposition,
        "max_deviation": deviation,
        "tolerance": VERIFY_TOL,
        "passed": passed,
    }
    _emit(_json_text(doc), config.out)
    return 0 if passed else 1


def cmd_cost(config: RunConfig, parser) -> int:
    if config.model in ("liquid", "parallel"):
        params = costmodel.LiquidParams(delta=config.delta, J=config.J)
    else:
        if config.d is None or config.Delta is None:
            parser.error("solid model requires --d and --Delta")
        params = costmodel.SolidParams(delta=config.delta, d=config.d, Delta=config.Delta)
    rows = costmodel.sweep(config.model, params, config.n_range)
    text = (costmodel.sweep_to_json(rows) if config.fmt == "json"
            else costmodel.sweep_to_csv(rows))
    _emit(text, config.out)
    n_top = config.n_range[-1]
    if config.model == "solid":
        serial = costmodel.t_serial_solid(n_top, params)
    else:
        serial = costmodel.t_serial_liquid(
            n_top, costmodel.LiquidParams(delta=config.delta, J=config.J))
    parallel = costmodel.t_parallel(n_top, params)
    ratio = serial.coupling_term / parallel.coupling_term
    print(f"serial/parallel coupling-term ratio at n={n_top}: {ratio:.6f} (limit 2)",
          file=sys.stderr)
    return 0


def _resolve_sequence(name: str, parser) -> nmr.PulseSequence:
    from . import nmr

    if name in nmr.SEQUENCE_LIBRARY:
        return nmr.library_sequence(name)
    if os.path.isfile(name):
        try:
            return nmr.parse_sequence(open(name).read(), name=os.path.basename(name))
        except nmr.SequenceParseError as exc:
            parser.error(f"cannot parse {name}: {exc}")
    parser.error(f"unknown sequence {name!r}: not a library name "
                 f"({', '.join(nmr.SEQUENCE_LIBRARY)}) or a readable file")


def _pseudopure_input(system: nmr.SpinSystem) -> core.DensityMatrix:
    from . import nmr

    if system.n == 2:
        return nmr.prepare_pseudopure_temporal_avg(system)
    return nmr.pseudopure_projector_deviation(system.n)


def _ideal_target_unitary(n: int, reverse_readout: bool) -> core.UnitaryMatrix:
    from . import core

    f = core.dft_oracle(n).entries
    if reverse_readout:
        f = core.bit_reversal_permutation(n).entries @ f
    return core.UnitaryMatrix(n, f)


def cmd_simulate(config: RunConfig, parser) -> int:
    import numpy as np

    from . import core, nmr, tomography

    seq = _resolve_sequence(config.sequence, parser)
    system = nmr.system_for_sequence(seq)
    rho_init = _pseudopure_input(system)
    noise = None
    if config.t2:
        if config.t2 < 0:
            parser.error("--t2 must be positive (seconds)")
        noise = nmr.NoiseModel.uniform(system.n, 1.0 / config.t2)
    rho_exp = nmr.run(seq, system, rho_init, noise)
    target_u = _ideal_target_unitary(system.n, config.reverse_readout)
    rho_th = core.conjugate(target_u, rho_init)
    report = tomography.fidelity(rho_th, rho_exp, rho_init)
    doc = {
        "command": "simulate",
        "sequence": seq.name,
        "n": system.n,
        "t2_seconds": config.t2,
        "reverse_readout": config.reverse_readout,
        "seed": config.seed,
        "fidelity_report": report.as_dict(),
        "rho_exp": core.matrix_to_json(rho_exp),
        "rho_target": core.matrix_to_json(rho_th),
    }
    status = 0
    if config.tomography:
        values = tomography.measure_all(rho_exp)
        recon = tomography.reconstruct(values, system.n)
        err = float(np.max(np.abs(recon.entries - rho_exp.entries)))
        doc["tomography_max_error"] = err
        doc["tomography_tolerance"] = TOMO_TOL
        if err > TOMO_TOL:
            status = 1
    _emit(_json_text(doc), config.out)
    return status


def cmd_tomo_roundtrip(config: RunConfig, parser) -> int:
    import numpy as np

    from . import core, tomography

    rng = np.random.default_rng(config.seed)
    dim = 2 ** config.n
    worst = 0.0
    for _ in range(config.samples):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2.0
        h -= np.trace(h) / dim * np.eye(dim)
        rho = core.DensityMatrix(config.n, h, traceless=True)
        recon = tomography.reconstruct(tomography.measure_all(rho), config.n)
        worst = max(worst, float(np.max(np.abs(recon.entries - rho.entries))))
    passed = worst <= TOMO_TOL
    doc = {
        "command": "tomo-roundtrip",
        "n": config.n,
        "samples": config.samples,
        "max_error": worst,
        "tolerance": TOMO_TOL,
        "seed": config.seed,
        "passed": passed,
    }
    _emit(_json_text(doc), config.out)
    return 0 if passed else 1


def cmd_export_fig2(config: RunConfig, parser) -> int:
    from . import core, nmr, tomography

    seq = _resolve_sequence(config.sequence, parser)
    system = nmr.system_for_sequence(seq)
    rho_init = _pseudopure_input(system)
    if config.what == "pseudopure":
        rho = rho_init
    elif config.what == "target":
        rho = core.conjugate(_ideal_target_unitary(system.n, True), rho_init)
    else:
        rho = nmr.run(seq, system, rho_init)
    _emit(tomography.bar_chart_csv(rho), config.out)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "cost": cmd_cost,
    "simulate": cmd_simulate,
    "tomo-roundtrip": cmd_tomo_roundtrip,
    "export-fig2": cmd_export_fig2,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinqft",
        description="Fourier-transform circuit verification, gate time costs, "
                    "and pulse-level spin simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compare a built circuit against the Fourier oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decomp", choices=("serial", "parallel", "approximate"), default="serial")
    p.add_argument("--m", type=int, default=0, help="range cutoff for --decomp approximate")
    p.add_argument("--out", default="")

    p = sub.add_parser("cost", help="evaluate the time-cost models over a qubit range")
    p.add_argument("--model", choices=("liquid", "parallel", "solid"), required=True)
    p.add_argument("--J", type=float, default=costmodel.CHLOROFORM_J_HZ, help="scalar coupling, Hz")
    p.add_argument("--delta", type=float, default=costmodel.DEFAULT_PULSE_SECONDS,
                   help="single-qubit pulse cost, seconds")
    p.add_argument("--d", type=float, default=None, help="dipolar coupling, Hz (solid)")
    p.add_argument("--Delta", type=float, default=None, help="one SWAP time, seconds (solid)")
    p.add_argument("--n-range", dest="n_range", type=_parse_range, required=True,
                   metavar="LO..HI")
    p.add_argument("--format", dest="fmt", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default="")

    p = sub.add_parser("simulate", help="run a pulse sequence from the pseudopure input")
    p.add_argument("--sequence", required=True, help="library name or .seq file path")
    p.add_argument("--t2", type=float, default=0.0, help="dephasing time constant, seconds")
    p.add_argument("--tomography", action="store_true",
                   help="also reconstruct the output by simulated tomography")
    p.add_argument("--reverse-readout", dest="reverse_readout", action="store_true", default=True)
    p.add_argument("--no-reverse-readout", dest="reverse_readout", action="store_false")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="")

    p = sub.add_parser("tomo-roundtrip", help="check reconstruction is the identity map")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--out", default="")

    p = sub.add_parser("export-fig2", help="bar-chart CSV of a simulated density matrix")
    p.add_argument("--sequence", required=True)
    p.add_argument("--what", choices=("output", "pseudopure", "target"), default="output")
    p.add_argument("--out", default="")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    fields = {k: v for k, v in vars(args).items() if k in RunConfig.__dataclass_fields__}
    seed = int(os.environ.get("SPINQFT_SEED", fields.get("seed", DEFAULT_SEED)))
    fields["seed"] = seed
    if "decomp" in vars(args):
        fields["decomposition"] = args.decomp
    return RunConfig(**fields)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if not 1 <= args.n <= VERIFY_MAX_QUBITS:
            parser.error(f"--n must lie in [1, {VERIFY_MAX_QUBITS}] for full-matrix verification")
        if args.decomp == "approximate" and args.m and not 1 <= args.m <= args.n:
            parser.error("--m must lie in [1, n]")
    if args.command == "tomo-roundtrip" and args.samples < 1:
        parser.error("--samples must be >= 1")
    if args.out:
        out = os.path.realpath(args.out)
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out)):
            parser.error(f"--out {args.out}: not a file in an existing directory")
    config = config_from_args(args)
    try:
        return _HANDLERS[config.command](config, parser)
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
