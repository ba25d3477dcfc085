"""Command-line front end.

Subcommands: ``verify`` (circuit vs. the Fourier oracle), ``cost``
(time-cost sweeps as CSV/JSON), ``simulate`` (pulse-level run from
``nmr.pseudopure_input`` with fidelity report and optional tomography
cross-check), ``tomo-roundtrip`` (reconstruction identity check), and
``export-fig2`` (density-matrix bar-chart CSV).

Each handler reads the argparse namespace directly; identical inputs
produce byte-identical outputs.  Exit codes: 0 success, 1 verification
failure, 2 usage error.  Below ``main`` a refusal is a ``ValueError``
with its message, which ``main`` alone turns into the one-line usage
error; the one exception is a failed write to stdout (below).  Only the
two commands with a ``--seed`` read the environment variable
``SPINQFT_SEED``, which overrides it: it draws the random states of
``tomo-roundtrip``, and ``simulate`` only records it in its report.  A
seed below 0 is refused.  ``simulate`` always compares with the
transform followed by the reversal of the output bits (the order the
bundled programs read out in).

A JSON report has the bytes ``json.dumps(..., sort_keys=True, indent=2)``
would give, written row by row without ever holding the report as one
string (``_encode_into``).  It holds only str-keyed dicts, scalars and
non-empty 2-D float64 arrays; any other value is a ``TypeError``.
``_emit`` decides how a report reaches its destination.  For stdout, or
an ``--out`` that is not a regular file, it is encoded in full before
anything is written, so a report that cannot be encoded writes nothing.
A regular or new ``--out`` file is encoded straight into a temporary
file beside it (``_replace``), which replaces it only when complete and
is removed if encoding fails.  A failed write to stdout, or a closed
stdout, exits 2 from ``_emit`` itself: one line on stderr, no usage line.

Only ``costmodel`` is imported at module level.  The matrix layers
(``circuits``, ``core``, ``nmr``, ``tomography``) and numpy are imported
inside the handlers that use them, so ``cost`` never loads them.

Run as a program (``entry_point``), the process ends once ``main`` has
returned and its output is flushed, skipping the interpreter's teardown.
"""

from __future__ import annotations

import argparse
import atexit
import errno
import itertools
import json
import math
import os
import re
import stat
import sys
import tempfile
from typing import TYPE_CHECKING, NoReturn

from . import _shown, costmodel

if TYPE_CHECKING:
    from . import core, nmr

TOMO_TOL = 1e-8
DEFAULT_SEED = 20260810
# a verify child at the cap takes ~0.69 s serial, ~0.75 s parallel and 82 MiB (2-CPU container,
# median of 7), ~0.3 s in the oracle
VERIFY_MAX_QUBITS = 10
# a 1..N cost sweep cross-checks ~N**2/2 terms: about 8 s at the cap (2-CPU container)
N_RANGE_MAX = 10_000
# a tomo-roundtrip --n 3 child at the cap takes about 0.5 s and 107 MiB (2-CPU container)
TOMO_MAX_SAMPLES = 5_000
# n = 9 serial simulate --out: 1.0-1.1 s/57 MiB, --t2 0.1 1.0 s/57 MiB (most of it writing),
# 28 MB (loaded 2-CPU container); one n = 10 pulse: 91 MB
SIMULATE_MAX_QUBITS = 9
# a simulate --tomography child on the serial program took 0.4 s at n = 4, 0.6 s at n = 5
# and 3.5 s at n = 6, 31-41 MiB (2-CPU container)
TOMO_MAX_QUBITS = 5
# an export-fig2 --what output child on a serial program took 1.6 s, 60 MiB for a 3.7 MB CSV
# at n = 8 and 8.2 s, 144 MiB for 15 MB at n = 9 (2-CPU container)
FIG2_MAX_QUBITS = 8


def _replace(path: str, chunks) -> None:
    """Write the text ``chunks`` into a temporary file beside the regular or
    new file ``path``, with the mode ``open(path, "w")`` would give it, then
    replace ``path`` with it; the temporary is removed if drawing a chunk
    (encoding it) or writing fails."""
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


def _emit(report, out: str) -> None:
    """Write ``report`` to ``out``, or to stdout when it is empty, where
    ``open(out, "w")`` would (symlinks followed): a ``str`` as it is, a dict
    as ``_encode_into``'s chunks and a line break, streamed into a regular
    or new file through ``_replace`` and encoded in full before stdout, a
    FIFO or a device is written."""
    chunks = ([report] if isinstance(report, str)
              else itertools.chain(_encode_into(report, "\n"), ("\n",)))
    try:
        path = os.path.realpath(out) if out else ""
        if path and (os.path.isfile(path) or not os.path.exists(path)):
            return _replace(path, chunks)
        chunks = list(chunks)
        if path:
            with open(path, "w") as fh:
                fh.writelines(chunks)
        elif sys.stdout is None:  # the process started with file descriptor 1 closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
    except OSError as exc:
        if out:
            raise ValueError(f"cannot write --out {out}: {exc.strerror or exc}") from exc
        if sys.stdout is not None:
            # the interpreter flushes stdout again at exit: let that flush reach nothing
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print(f"spinqft: error: cannot write stdout: {exc.strerror or exc}", file=sys.stderr)
        raise SystemExit(2) from None


_encode = json.JSONEncoder(allow_nan=False).encode


def _encode_into(value, newline: str):
    """Yield ``json.dumps(value, sort_keys=True, indent=2, allow_nan=False)``
    in chunks; ``newline`` is a line break plus the indent of the line that
    opens ``value``.  Dicts are walked here, and a matrix is yielded one row
    at a time (``_encode_matrix``), so no nested list of Python floats is
    built.  NaN or infinity raises ``ValueError``.  Keys must be strings, as
    in every report."""
    if isinstance(value, dict) and value:
        inner = newline + "  "
        opener = "{"
        for key, item in sorted(value.items()):
            yield f"{opener}{inner}{_encode(key)}: "
            yield from _encode_into(item, inner)
            opener = ","
        yield newline + "}"
    elif isinstance(value, (dict, str, int, float)) or value is None:
        yield _encode(value)
    elif getattr(value, "ndim", 0) == 2 and value.size and value.dtype == float:
        yield from _encode_matrix(value, newline)
    else:
        raise TypeError(f"a report holds no {type(value).__name__}{getattr(value, 'shape', '')}")


_TABLE_ROWS = 64  # the rows that share one table of repeated values in ``_encode_matrix``


def _encode_matrix(a, newline: str):
    """Yield a non-empty 2-D float64 array as ``_encode_into`` yields its
    rows, each block of ``_TABLE_ROWS`` rows formatted by ``_block_texts``."""
    import numpy as np

    if not np.isfinite(a).all():
        _encode(a[~np.isfinite(a)][0].item())  # raises the encoder's own ValueError
    inner = newline + "  "
    sep = "," + inner + "  "
    opener = "["
    for top in range(0, len(a), _TABLE_ROWS):
        for text in _block_texts(a[top:top + _TABLE_ROWS]):
            yield f"{opener}{inner}[{inner}  {sep.join(text)}{inner}]"
            opener = ","
    yield newline + "]"


def _block_texts(block):
    """Each row of ``block`` as the ``repr`` of its values, a value that
    occurs more than once in the block formatted a single time and the rest
    row by row: no string is held for every entry, and the table of
    repeated values lives only while its block is written."""
    import numpy as np

    # keyed on the bit pattern: a float key would merge 0.0 and -0.0
    keys, index, counts = np.unique(block.view(np.int64), return_inverse=True, return_counts=True)
    repeated = counts > 1
    shown = np.empty(len(keys), dtype=object)
    shown[repeated] = [repr(x) for x in keys[repeated].view(np.float64).tolist()]
    for row, row_index in zip(block, index.reshape(block.shape)):
        text = shown[row_index]
        alone = ~repeated[row_index]
        text[alone] = [repr(x) for x in row[alone].tolist()]
        yield text.tolist()


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


def cmd_verify(args: argparse.Namespace) -> int:
    from . import circuits

    if args.decomp == "approximate":
        circuit = circuits.build_approximate(args.n, args.n if args.m is None else args.m)
    elif args.decomp == "serial":
        circuit = circuits.build_serial(args.n)
    else:
        circuit = circuits.build_parallel(args.n)
    passed, deviation = circuits.verify_against_oracle(circuit)
    doc = {
        "command": "verify",
        "n": args.n,
        "decomposition": circuit.decomposition,
        "max_deviation": deviation,
        "tolerance": circuits.VERIFY_TOL,
        "passed": passed,
    }
    _emit(doc, args.out)
    return 0 if passed else 1


def cmd_cost(args: argparse.Namespace) -> int:
    if args.model in ("liquid", "parallel"):
        params = costmodel.LiquidParams(delta=args.delta, J=args.J)
    else:
        if args.d is None or args.Delta is None:
            raise ValueError("solid model requires --d and --Delta")
        params = costmodel.SolidParams(delta=args.delta, d=args.d, Delta=args.Delta)
    rows = costmodel.sweep(args.model, params, args.n_range)
    # the serial/parallel comparison can fail too: compute it before writing anything
    n_top = args.n_range[-1]
    serial = (costmodel.t_serial_solid if args.model == "solid"
              else costmodel.t_serial_liquid)(n_top, params)
    ratio = serial.coupling_term / costmodel.t_parallel(n_top, params).coupling_term
    text = (costmodel.sweep_to_json(rows) if args.fmt == "json"
            else costmodel.sweep_to_csv(rows))
    _emit(text, args.out)
    print(f"serial/parallel coupling-term ratio at n={n_top}: {ratio:.6f} (limit 2)",
          file=sys.stderr)
    return 0


def _resolve_sequence(name: str) -> nmr.PulseSequence:
    from . import nmr

    if name in nmr.SEQUENCE_LIBRARY:
        return nmr.library_sequence(name)
    if os.path.isfile(name):
        try:
            with open(name) as fh:
                return nmr.parse_sequence(fh.read(), name=os.path.basename(name))
        except OSError as exc:
            raise ValueError(f"cannot read {name}: {exc.strerror or exc}")
        except nmr.SequenceParseError as exc:
            raise ValueError(f"cannot parse {name}: {exc}")
    raise ValueError(f"unknown sequence {_shown(name)}: not a library name "
                     f"({', '.join(nmr.SEQUENCE_LIBRARY)}) or a readable file")


def _program(args, cap: int, verb: str) -> tuple[nmr.PulseSequence, core.DensityMatrix]:
    """The ``--sequence`` program and its ``nmr.pseudopure_input``; refused above ``cap``."""
    from . import nmr

    seq = _resolve_sequence(args.sequence)
    if seq.n > cap:
        raise ValueError(f"{verb} at most {cap} spins, the sequence has {seq.n}")
    return seq, nmr.pseudopure_input(seq.n)


def _ideal_target_unitary(n: int) -> core.UnitaryMatrix:
    """The transform followed by the reversal of the output bits, applied
    as a row permutation, as in ``circuits.verify_against_oracle``."""
    import numpy as np

    from . import core

    f = core.dft_oracle(n).entries
    return core.UnitaryMatrix(f[np.nonzero(core.bit_reversal_permutation(n).entries)[1]])


def cmd_simulate(args: argparse.Namespace) -> int:
    import numpy as np

    from . import core, nmr, tomography

    cap, verb = ((TOMO_MAX_QUBITS, "--tomography reads out") if args.tomography
                 else (SIMULATE_MAX_QUBITS, "simulate runs"))
    seq, rho_init = _program(args, cap, verb)
    noise = nmr.NoiseModel.uniform(seq.n, 1.0 / args.t2) if args.t2 else None
    rho_exp = nmr.run(seq, seq.n, rho_init, noise)
    rho_th = core.conjugate(_ideal_target_unitary(seq.n), rho_init)
    doc = {
        "command": "simulate",
        "sequence": seq.name,
        "n": seq.n,
        "t2_seconds": args.t2 or 0.0,  # -0.0 is reported as the 0.0 it means
        "seed": args.seed,
        "fidelity_report": tomography.fidelity(rho_th, rho_exp, rho_init)._asdict(),
        "rho_exp": {"n": seq.n, "re": rho_exp.entries.real, "im": rho_exp.entries.imag},
        "rho_target": {"n": seq.n, "re": rho_th.entries.real, "im": rho_th.entries.imag},
    }
    status = 0
    if args.tomography:
        recon = tomography.reconstruct(tomography.measure_all(rho_exp))
        err = float(np.max(np.abs(recon - rho_exp.entries)))
        doc["tomography_max_error"] = err
        doc["tomography_tolerance"] = TOMO_TOL
        if err > TOMO_TOL:
            status = 1
    _emit(doc, args.out)
    return status


def cmd_tomo_roundtrip(args: argparse.Namespace) -> int:
    import numpy as np

    from . import tomography

    dim = 2 ** args.n
    g = np.random.default_rng(args.seed).normal(size=(args.samples, 2, dim, dim))
    h = g[:, 0] + 1j * g[:, 1]  # each sample's real, then imaginary draw
    states = (h + h.conj().swapaxes(1, 2)) / 2.0  # Hermitian and, below, traceless
    states -= np.trace(states, axis1=1, axis2=2)[:, None, None] / dim * np.eye(dim)
    readouts = tomography.measure_all(states)  # one readout of the whole stack
    worst = float(np.max(np.abs(tomography.reconstruct(readouts) - states)))  # and one inversion
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
    _emit(doc, args.out)
    return 0 if passed else 1


def cmd_export_fig2(args: argparse.Namespace) -> int:
    from . import core, nmr, tomography

    seq, rho_init = _program(args, FIG2_MAX_QUBITS, "export-fig2 charts")
    if args.what == "pseudopure":
        rho = rho_init
    elif args.what == "target":
        rho = core.conjugate(_ideal_target_unitary(seq.n), rho_init)
    else:
        rho = nmr.run(seq, seq.n, rho_init)
    _emit(tomography.bar_chart_csv(rho), args.out)
    return 0


_HANDLERS = {
    "verify": cmd_verify,
    "cost": cmd_cost,
    "simulate": cmd_simulate,
    "tomo-roundtrip": cmd_tomo_roundtrip,
    "export-fig2": cmd_export_fig2,
}


class _Parser(argparse.ArgumentParser):
    """Usage errors, its subparsers' too, show a long echoed input as ``_shown`` does."""

    def error(self, message):
        echoed = r"'([^']{41,})'|\"([^\"]{41,})\"|(?<=unrecognized arguments: )(.{41,})"
        super().error(re.sub(echoed, lambda m: _shown(next(filter(None, m.groups()))), message))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="spinqft",
        description="Fourier-transform circuit verification, gate time costs, "
                    "and pulse-level spin simulation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compare a built circuit against the Fourier oracle")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--decomp", choices=("serial", "parallel", "approximate"), default="serial")
    p.add_argument("--m", type=int, default=None, help="range cutoff for --decomp approximate")

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

    p = sub.add_parser("simulate", help="run a pulse sequence from the pseudopure input")
    p.add_argument("--sequence", required=True, help="library name or .seq file path")
    p.add_argument("--t2", type=float, default=0.0, help="dephasing time constant, seconds")
    p.add_argument("--tomography", action="store_true",
                   help="also reconstruct the output by simulated tomography")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("tomo-roundtrip", help="check reconstruction is the identity map")
    p.add_argument("--n", type=int, choices=(2, 3), required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("export-fig2", help="bar-chart CSV of a simulated density matrix")
    p.add_argument("--sequence", required=True)
    p.add_argument("--what", choices=("output", "pseudopure", "target"), default="output")

    for p in sub.choices.values():
        p.add_argument("--out", default="")
    return parser


def _seed(flag: int) -> int:
    """``SPINQFT_SEED`` if it is set, else ``--seed``; refused if it is not
    an integer or is below 0."""
    text = os.environ.get("SPINQFT_SEED")
    if text is None:
        name, seed = "--seed", flag
    else:
        name = "SPINQFT_SEED"
        try:
            seed = int(text)
        except ValueError:  # also digit strings too long to convert
            raise ValueError(f"SPINQFT_SEED must be an integer, got {_shown(text)}")
    if seed < 0:
        raise ValueError(f"{name} must be >= 0, got {_shown(str(seed))}")
    return seed


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify" and not 1 <= args.n <= VERIFY_MAX_QUBITS:
            raise ValueError(
                f"--n must lie in [1, {VERIFY_MAX_QUBITS}] for full-matrix verification")
        # 0 is no noise; any other t2 must give a finite dephasing rate 1/t2
        if args.command == "simulate" and args.t2 and not 0 < 1.0 / args.t2 < math.inf:
            raise ValueError(f"--t2 must be 0 or a time in seconds with a finite rate 1/t2, "
                             f"got {args.t2!r}")
        if args.command == "tomo-roundtrip":
            if args.samples < 1:
                raise ValueError("--samples must be >= 1")
            if args.samples > TOMO_MAX_SAMPLES:
                raise ValueError(f"--samples must be <= {TOMO_MAX_SAMPLES}")
        if args.out:
            out = os.path.realpath(args.out)
            if os.path.isdir(out) or not os.path.isdir(os.path.dirname(out)):
                raise ValueError(f"--out {_shown(args.out)}: not a file in an existing directory")
        if args.command in ("simulate", "tomo-roundtrip"):
            args.seed = _seed(args.seed)
        return _HANDLERS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))


def entry_point() -> NoReturn:
    """``python -m spinqft.cli`` and the ``spinqft`` script: run ``main``
    on ``sys.argv`` and end the process with its code.

    Once ``main`` has returned, an ``atexit`` handler flushes stdout and
    stderr and ends the process with ``os._exit``, skipping the
    interpreter's teardown (a final garbage collection and the release of
    every loaded module).  It is registered last, so it runs first: a
    profiler wrapping the module still reports, while handlers registered
    before the CLI ran are skipped.  A refusal or an exception raised out
    of ``main`` exits normally."""
    code = main()
    atexit.register(_end, code)
    sys.exit(code)


def _end(code: int) -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None: the process started with that descriptor closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    entry_point()
