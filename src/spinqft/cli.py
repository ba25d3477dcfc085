"""Command-line front end.

Subcommands: ``verify`` (circuit vs. the Fourier oracle), ``cost``
(time-cost sweeps as CSV/JSON), ``simulate`` (pulse-level run from the
pseudopure input with fidelity report and optional tomography
cross-check), ``tomo-roundtrip`` (reconstruction identity check), and
``export-fig2`` (density-matrix bar-chart CSV).

Each handler reads the argparse namespace directly; identical inputs
produce byte-identical outputs.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  The environment variable ``SPINQFT_SEED``
overrides ``--seed``: it draws the random states of ``tomo-roundtrip``,
and ``simulate`` only records it in its report.

A JSON report is encoded in full before anything is written, so a
report that cannot be encoded writes nothing; it is then written row by
row (``_json_text``), with the bytes ``json.dumps(..., sort_keys=True,
indent=2)`` would give, without ever holding the report as one string.
A failed write to stdout, or a closed stdout, exits 2 with one line.

Only ``costmodel`` is imported at module level.  The matrix layers
(``circuits``, ``core``, ``nmr``, ``tomography``) and numpy are imported
inside the handlers that use them, so ``cost`` never loads them.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import stat
import sys
import tempfile
from typing import TYPE_CHECKING

from . import costmodel

if TYPE_CHECKING:
    from . import core, nmr

VERIFY_TOL = 1e-10
TOMO_TOL = 1e-8
DEFAULT_SEED = 20260810
# a verify child at the cap takes about 1.1 s (2-CPU container), 0.25-0.5 s of it the oracle loop
VERIFY_MAX_QUBITS = 10
# a 1..N cost sweep cross-checks ~N**2/2 terms: about 8 s at the cap (2-CPU container)
N_RANGE_MAX = 10_000
# a tomo-roundtrip --n 3 child at the cap takes about 1 s and 136 MiB (2-CPU container)
TOMO_MAX_SAMPLES = 5_000
# a simulate --tomography child took 1.45 s at n = 4 and 17.5 s, 998 MiB at n = 5 (2-CPU container)
TOMO_MAX_QUBITS = 4


def _atomic_write(path: str, chunks: list[str]) -> None:
    """Write where and with the mode ``open(path, "w")`` would (symlinks
    followed, FIFOs and devices written in place), but replace a regular
    file atomically."""
    path = os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w") as fh:
            fh.writelines(chunks)
        return
    umask = os.umask(0)
    os.umask(umask)
    mode = stat.S_IMODE(os.stat(path).st_mode) if os.path.exists(path) else 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".spinqft-")
    try:
        os.fchmod(fd, mode)
        with os.fdopen(fd, "w") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(chunks: list[str], out: str) -> None:
    """Write encoded text chunks to ``out``, or to stdout when it is empty."""
    if not out:
        try:
            if sys.stdout is None:  # the process started with file descriptor 1 closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            if sys.stdout is not None:
                # the interpreter flushes stdout again at exit: let that flush reach nothing
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            print(f"spinqft: error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
            raise SystemExit(2) from None
        return
    try:
        _atomic_write(out, chunks)
    except OSError as exc:
        raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc


_encode = json.JSONEncoder(allow_nan=False).encode


def _json_text(doc: dict) -> list[str]:
    """``json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\\n"``,
    as chunks to write one after the other.

    Dicts and lists are walked here; each list of floats (a matrix row) is
    one call of the C encoder, re-indented by replacing its ``", "``
    separators, which a float's repr never contains.  An array (anything
    with ``tolist``) is written one row at a time, so no nested list of
    Python floats is built.  NaN or infinity raises ``ValueError`` before
    anything is written.  Keys must be strings, as in every report.
    """
    chunks = []
    _encode_into(chunks, doc, "\n")
    chunks.append("\n")
    return chunks


def _encode_into(chunks: list[str], value, newline: str) -> None:
    # ``newline`` is a line break plus the indent of the line that opens ``value``
    if hasattr(value, "tolist"):
        value = list(value) if value.ndim > 1 else value.tolist()
    inner = newline + "  "
    if isinstance(value, dict) and value:
        opener = "{"
        for key, item in sorted(value.items()):
            chunks.append(f"{opener}{inner}{_encode(key)}: ")
            _encode_into(chunks, item, inner)
            opener = ","
        chunks.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        if set(map(type, value)) == {float}:
            body = _encode(value)[1:-1].replace(", ", "," + inner)
            chunks.append(f"[{inner}{body}{newline}]")
            return
        opener = "["
        for item in value:
            chunks.append(opener + inner)
            _encode_into(chunks, item, inner)
            opener = ","
        chunks.append(newline + "]")
    else:
        chunks.append(_encode(value))


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


def cmd_verify(args: argparse.Namespace, parser) -> int:
    from . import circuits

    if args.decomp == "approximate":
        circuit = circuits.build_approximate(args.n, args.m or args.n)
    elif args.decomp == "serial":
        circuit = circuits.build_serial(args.n)
    else:
        circuit = circuits.build_parallel(args.n)
    passed, deviation = circuits.verify_against_oracle(circuit, VERIFY_TOL)
    doc = {
        "command": "verify",
        "n": args.n,
        "decomposition": circuit.decomposition,
        "max_deviation": deviation,
        "tolerance": VERIFY_TOL,
        "passed": passed,
    }
    _emit(_json_text(doc), args.out)
    return 0 if passed else 1


def cmd_cost(args: argparse.Namespace, parser) -> int:
    if args.model in ("liquid", "parallel"):
        params = costmodel.LiquidParams(delta=args.delta, J=args.J)
    else:
        if args.d is None or args.Delta is None:
            parser.error("solid model requires --d and --Delta")
        params = costmodel.SolidParams(delta=args.delta, d=args.d, Delta=args.Delta)
    rows = costmodel.sweep(args.model, params, args.n_range)
    # the serial/parallel comparison can fail too: compute it before writing anything
    n_top = args.n_range[-1]
    serial = (costmodel.t_serial_solid if args.model == "solid"
              else costmodel.t_serial_liquid)(n_top, params)
    ratio = serial.coupling_term / costmodel.t_parallel(n_top, params).coupling_term
    text = (costmodel.sweep_to_json(rows) if args.fmt == "json"
            else costmodel.sweep_to_csv(rows))
    _emit([text], args.out)
    print(f"serial/parallel coupling-term ratio at n={n_top}: {ratio:.6f} (limit 2)",
          file=sys.stderr)
    return 0


def _resolve_sequence(name: str, parser) -> nmr.PulseSequence:
    from . import nmr

    if name in nmr.SEQUENCE_LIBRARY:
        return nmr.library_sequence(name)
    if os.path.isfile(name):
        try:
            with open(name) as fh:
                return nmr.parse_sequence(fh.read(), name=os.path.basename(name))
        except OSError as exc:
            parser.error(f"cannot read {name}: {exc.strerror or exc}")
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


def cmd_simulate(args: argparse.Namespace, parser) -> int:
    import numpy as np

    from . import core, nmr, tomography

    seq = _resolve_sequence(args.sequence, parser)
    if args.tomography and seq.n > TOMO_MAX_QUBITS:
        parser.error(f"--tomography reads out at most {TOMO_MAX_QUBITS} spins, "
                     f"the sequence has {seq.n}")
    system = nmr.system_for_sequence(seq)
    rho_init = _pseudopure_input(system)
    noise = None
    if args.t2:
        if args.t2 < 0:
            parser.error("--t2 must be positive (seconds)")
        noise = nmr.NoiseModel.uniform(system.n, 1.0 / args.t2)
    rho_exp = nmr.run(seq, system, rho_init, noise)
    target_u = _ideal_target_unitary(system.n, args.reverse_readout)
    rho_th = core.conjugate(target_u, rho_init)
    report = tomography.fidelity(rho_th, rho_exp, rho_init)
    doc = {
        "command": "simulate",
        "sequence": seq.name,
        "n": system.n,
        "t2_seconds": args.t2,
        "reverse_readout": args.reverse_readout,
        "seed": args.seed,
        "fidelity_report": report.as_dict(),
        "rho_exp": {"n": system.n, "re": rho_exp.entries.real, "im": rho_exp.entries.imag},
        "rho_target": {"n": system.n, "re": rho_th.entries.real, "im": rho_th.entries.imag},
    }
    status = 0
    if args.tomography:
        values = tomography.measure_all(rho_exp)
        recon = tomography.reconstruct(values, system.n)
        err = float(np.max(np.abs(recon.entries - rho_exp.entries)))
        doc["tomography_max_error"] = err
        doc["tomography_tolerance"] = TOMO_TOL
        if err > TOMO_TOL:
            status = 1
    _emit(_json_text(doc), args.out)
    return status


def cmd_tomo_roundtrip(args: argparse.Namespace, parser) -> int:
    import numpy as np

    from . import core, tomography

    rng = np.random.default_rng(args.seed)
    dim = 2 ** args.n
    states = []
    for _ in range(args.samples):
        h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (h + h.conj().T) / 2.0
        h -= np.trace(h) / dim * np.eye(dim)
        states.append(core.DensityMatrix(args.n, h, traceless=True).entries)
    readouts = tomography.measure_all(np.array(states))  # one readout of the whole stack
    recons = tomography.reconstruct(readouts, args.n)  # and one solve
    worst = max(float(np.max(np.abs(r.entries - rho))) for r, rho in zip(recons, states))
    passed = worst <= TOMO_TOL
    doc = {
        "command": "tomo-roundtrip",
        "n": args.n,
        "samples": args.samples,
        "max_error": worst,
        "tolerance": TOMO_TOL,
        "seed": args.seed,
        "passed": passed,
    }
    _emit(_json_text(doc), args.out)
    return 0 if passed else 1


def cmd_export_fig2(args: argparse.Namespace, parser) -> int:
    from . import core, nmr, tomography

    seq = _resolve_sequence(args.sequence, parser)
    system = nmr.system_for_sequence(seq)
    rho_init = _pseudopure_input(system)
    if args.what == "pseudopure":
        rho = rho_init
    elif args.what == "target":
        rho = core.conjugate(_ideal_target_unitary(system.n, True), rho_init)
    else:
        rho = nmr.run(seq, system, rho_init)
    _emit([tomography.bar_chart_csv(rho)], args.out)
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        if not 1 <= args.n <= VERIFY_MAX_QUBITS:
            parser.error(f"--n must lie in [1, {VERIFY_MAX_QUBITS}] for full-matrix verification")
        if args.decomp == "approximate" and args.m and not 1 <= args.m <= args.n:
            parser.error("--m must lie in [1, n]")
    if args.command == "tomo-roundtrip":
        if args.samples < 1:
            parser.error("--samples must be >= 1")
        if args.samples > TOMO_MAX_SAMPLES:
            parser.error(f"--samples must be <= {TOMO_MAX_SAMPLES}")
    if args.out:
        out = os.path.realpath(args.out)
        if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out)):
            parser.error(f"--out {args.out}: not a file in an existing directory")
    seed = os.environ.get("SPINQFT_SEED", getattr(args, "seed", DEFAULT_SEED))
    try:
        args.seed = int(seed)
    except ValueError:
        parser.error(f"SPINQFT_SEED must be an integer, got {seed!r}")
    try:
        return _HANDLERS[args.command](args, parser)
    except KeyError as exc:  # str() of a KeyError quotes its message
        parser.error(str(exc.args[0]) if exc.args else str(exc))
    except ValueError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
