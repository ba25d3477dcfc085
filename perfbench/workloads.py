"""Workload definitions for the CLI benchmark: seeded inputs, the fixed
invocation list of each workload, and the check of every output.

Everything here talks to spinqft only through the CLI's bytes: the
checks re-derive what each output must be from first principles (the
closed cost forms, the Fourier matrix's action on the pseudopure input)
and never import the package.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
from dataclasses import dataclass, field

NOISELESS_FIDELITY_TOL = 1e-9
TOMOGRAPHY_TOL = 1e-8
ORACLE_TOL = 1e-10
COST_REL_TOL = 1e-9
DIGITS_CAP = 16.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its arguments, where its main output lands, what to check."""

    key: str
    args: tuple
    expect_exit: int
    check: str                      # name of the check in CHECKS
    out_file: str = ""              # --out target (relative to the work dir)
    params: dict = field(default_factory=dict, hash=False, compare=False)


class CheckFailed(Exception):
    pass


# -- seeded inputs ------------------------------------------------------

def _angle_text(deg: float) -> str:
    return str(int(deg)) if float(deg).is_integer() else repr(float(deg))


def serial_sequence_tokens(n: int) -> list[str]:
    """DSL tokens of the serial transform on ``n`` spins.

    For m = n..1: one coupling interval 1/(2**(d+1) J_mk) per partner
    k = n..m+1 (d = k - m), each followed by its 90/2**d degree
    z-correction sandwich on spins m and k, then the composite Hadamard on
    spin m.  The DSL names coupling pairs with single digits, so n <= 9.
    """
    if not 1 <= n <= 9:
        raise ValueError(f"generator supports 1 <= n <= 9, got {n}")
    out = []
    for m in range(n, 0, -1):
        for k in range(n, m, -1):
            d = k - m
            angle = _angle_text(90.0 / 2 ** d)
            out.append(f"delay:1/({2 ** (d + 1)}*J{m}{k})")
            out += [f"90y@s{m},s{k}", f"{angle}x@s{m},s{k}", f"90-y@s{m},s{k}"]
        out += [f"45y@s{m}", f"180x@s{m}", f"45-y@s{m}"]
    return out


def serial_sequence_text(n: int) -> str:
    tokens = serial_sequence_tokens(n)
    lines = [f"# Serial transform on {n} spins (generated).", f"name: gen-serial-n{n}", f"n: {n}"]
    lines += [" ".join(tokens[i:i + 4]) for i in range(0, len(tokens), 4)]
    return "\n".join(lines) + "\n"


def dsl_tokens(text: str) -> list[str]:
    """Pulse tokens of a .seq text, directives and comments dropped."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line and not line.startswith(("n:", "name:")):
            tokens += line.split()
    return tokens


def draw_t2(rng: random.Random) -> float:
    """A dephasing time in [0.05, 0.5] s, rounded so the CLI text is exact."""
    return round(rng.uniform(0.05, 0.5), 6)


# -- invocation lists ----------------------------------------------------

def verify_invocations(seed: int) -> list[Invocation]:
    inv = [Invocation(f"verify-n8-{d}", ("verify", "--n", "8", "--decomp", d), 0, "verify",
                      params={"n": 8, "exact": True})
           for d in ("serial", "parallel")]
    inv.append(Invocation("verify-n8-approx3",
                          ("verify", "--n", "8", "--decomp", "approximate", "--m", "3"),
                          1, "verify", params={"n": 8, "exact": False}))
    inv.append(Invocation("verify-n3-parallel", ("verify", "--n", "3", "--decomp", "parallel"),
                          0, "verify", params={"n": 3, "exact": True}))
    inv.append(Invocation("verify-n5-serial", ("verify", "--n", "5", "--decomp", "serial"),
                          0, "verify", params={"n": 5, "exact": True}))
    return inv


def pulse_tomo_invocations(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    t2_n8, t2_n3 = draw_t2(rng), draw_t2(rng)
    s = str(seed)
    return [
        Invocation("simulate-gen-n7", ("simulate", "--sequence", "gen-serial-n7.seq", "--seed", s),
                   0, "simulate", params={"n": 7, "noisy": False}),
        Invocation("simulate-gen-n8-t2",
                   ("simulate", "--sequence", "gen-serial-n8.seq", "--t2", repr(t2_n8),
                    "--seed", s, "--out", "report-n8.json"),
                   0, "simulate", out_file="report-n8.json", params={"n": 8, "noisy": True}),
        Invocation("simulate-serial-n3-t2-tomo",
                   ("simulate", "--sequence", "serial-n3", "--t2", repr(t2_n3), "--tomography",
                    "--seed", s),
                   0, "simulate", params={"n": 3, "noisy": True, "tomography": True}),
        Invocation("simulate-selective-n2-tomo",
                   ("simulate", "--sequence", "selective-n2", "--tomography", "--seed", s),
                   0, "simulate", params={"n": 2, "noisy": False, "tomography": True}),
        Invocation("tomo-roundtrip-n3", ("tomo-roundtrip", "--n", "3", "--samples", "20", "--seed", s),
                   0, "tomo_roundtrip", params={"n": 3, "samples": 20}),
        Invocation("export-fig2-parallel-n2",
                   ("export-fig2", "--sequence", "parallel-n2", "--what", "output",
                    "--out", "bars.csv"),
                   0, "fig2", out_file="bars.csv", params={"n": 2}),
    ]


def cost_sweep_invocations(seed: int) -> list[Invocation]:
    rng = random.Random(seed)
    j_hz = round(rng.uniform(100.0, 300.0), 3)
    delta = round(rng.uniform(5e-6, 20e-6), 9)
    d_hz = round(rng.uniform(1e7, 5e7), 0)
    swap = round(rng.uniform(5e-8, 2e-7), 11)
    pulse = round(rng.uniform(5e-9, 2e-8), 12)
    solid = {"delta": 1e-8, "d": 2e7, "Delta": 1e-7}
    return [
        Invocation("cost-liquid-1..10",
                   ("cost", "--model", "liquid", "--J", "215", "--delta", "10e-6",
                    "--n-range", "1..10", "--out", "sweep.csv"),
                   0, "cost_csv", out_file="sweep.csv",
                   params={"model": "liquid", "J": 215.0, "delta": 10e-6, "lo": 1, "hi": 10}),
        Invocation("cost-solid-1..10",
                   ("cost", "--model", "solid", "--d", "2e7", "--Delta", "1e-7", "--delta", "1e-8",
                    "--n-range", "1..10"),
                   0, "cost_csv", params={"model": "solid", **solid, "lo": 1, "hi": 10}),
        Invocation("cost-liquid-1..400-json",
                   ("cost", "--model", "liquid", "--J", repr(j_hz), "--delta", repr(delta),
                    "--n-range", "1..400", "--format", "json"),
                   0, "cost_json",
                   params={"model": "liquid", "J": j_hz, "delta": delta, "lo": 1, "hi": 400}),
        Invocation("cost-solid-1..400",
                   ("cost", "--model", "solid", "--d", repr(d_hz), "--Delta", repr(swap),
                    "--delta", repr(pulse), "--n-range", "1..400"),
                   0, "cost_csv",
                   params={"model": "solid", "d": d_hz, "Delta": swap, "delta": pulse,
                           "lo": 1, "hi": 400}),
        Invocation("cost-parallel-1..400",
                   ("cost", "--model", "parallel", "--J", repr(j_hz), "--n-range", "1..400"),
                   0, "cost_csv", params={"model": "parallel", "J": j_hz, "delta": 10e-6,
                                          "lo": 1, "hi": 400}),
    ]


WORKLOADS = {
    "verify": verify_invocations,
    "pulse-tomo": pulse_tomo_invocations,
    "cost-sweep": cost_sweep_invocations,
}

# the kind of calibrate.py child that a workload's work resembles
CALIBRATION = {"verify": "numpy", "pulse-tomo": "numpy", "cost-sweep": "python"}


def write_inputs(workload: str, workdir: str) -> None:
    """Generate the workload's input files into ``workdir``."""
    if workload == "pulse-tomo":
        for n in (7, 8):
            with open(os.path.join(workdir, f"gen-serial-n{n}.seq"), "w") as fh:
                fh.write(serial_sequence_text(n))


# -- output checks ---------------------------------------------------------
#
# Each check takes (invocation, main output text) and returns the list of
# errors that feed accuracy_digits; it raises CheckFailed on a wrong output.

def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _check_verify(inv: Invocation, text: str) -> list[float]:
    doc = json.loads(text)
    _require(doc["n"] == inv.params["n"], f"n is {doc['n']}")
    dev = doc["max_deviation"]
    if inv.params["exact"]:
        _require(doc["passed"] is True and dev <= ORACLE_TOL, f"oracle deviation {dev}")
        return [dev]
    _require(doc["passed"] is False and dev > doc["tolerance"],
             f"approximate circuit reported deviation {dev}, passed={doc['passed']}")
    return []


def _pseudopure_scale(n: int) -> float:
    # two spins use the temporal average of a*Iz1 + b*Iz2 with a = b = 1,
    # which is 2(a+b)/3 times the projector deviation; larger n use it bare
    return 4.0 / 3.0 if n == 2 else 1.0


def _matrix(doc: dict) -> list[list[complex]]:
    return [[complex(r, i) for r, i in zip(rr, ii)] for rr, ii in zip(doc["re"], doc["im"])]


def _uniform_target_error(m: list[list[complex]], n: int) -> float:
    q = 2 ** n
    off = _pseudopure_scale(n) / q
    return max(abs(m[r][c] - (0.0 if r == c else off)) for r in range(q) for c in range(q))


def _check_simulate(inv: Invocation, text: str) -> list[float]:
    doc = json.loads(text)
    n = inv.params["n"]
    _require(doc["n"] == n, f"n is {doc['n']}")
    target_err = _uniform_target_error(_matrix(doc["rho_target"]), n)
    _require(target_err <= NOISELESS_FIDELITY_TOL, f"rho_target off by {target_err}")
    rep = doc["fidelity_report"]
    f = rep["fidelity"]
    consistent = abs(f - rep["correlation"] * math.sqrt(rep["signal_retention"]))
    _require(consistent <= 1e-12, f"fidelity report inconsistent by {consistent}")
    errors = []
    if inv.params["noisy"]:
        _require(0.0 < f < 1.0 and rep["signal_retention"] < 1.0,
                 f"noisy run reported fidelity {f}")
    else:
        _require(abs(1.0 - f) <= NOISELESS_FIDELITY_TOL, f"noiseless fidelity {f}")
        exp_err = _uniform_target_error(_matrix(doc["rho_exp"]), n)
        _require(exp_err <= NOISELESS_FIDELITY_TOL, f"rho_exp off target by {exp_err}")
        errors.append(abs(1.0 - f))
    if inv.params.get("tomography"):
        err = doc["tomography_max_error"]
        _require(err <= TOMOGRAPHY_TOL, f"tomography error {err}")
        errors.append(err)
    return errors


def _check_tomo_roundtrip(inv: Invocation, text: str) -> list[float]:
    doc = json.loads(text)
    _require(doc["passed"] is True and doc["samples"] == inv.params["samples"]
             and doc["n"] == inv.params["n"], f"round trip reported {doc}")
    _require(doc["max_error"] <= TOMOGRAPHY_TOL, f"round-trip error {doc['max_error']}")
    return [doc["max_error"]]


def _check_fig2(inv: Invocation, text: str) -> list[float]:
    rows = list(csv.DictReader(io.StringIO(text)))
    n = inv.params["n"]
    q = 2 ** n
    _require(len(rows) == q * q, f"{len(rows)} bar-chart rows")
    m = [[0j] * q for _ in range(q)]
    for row in rows:
        m[int(row["row"], 2)][int(row["col"], 2)] = complex(float(row["re"]), float(row["im"]))
    err = _uniform_target_error(m, n)
    _require(err <= NOISELESS_FIDELITY_TOL, f"bar chart off target by {err}")
    return []


def closed_form_row(p: dict, n: int) -> tuple[float, float, float]:
    """(pulse, coupling, swap) terms of one sweep row, from the closed forms."""
    model = p["model"]
    if model == "parallel":
        return 0.0, math.pi / p["J"] * n / 2.0, 0.0
    kappa = math.pi / (p["d"] if model == "solid" else p["J"])
    coupling = kappa * (n - 1 + 2.0 ** -n)
    swap = 2.0 * n * p["Delta"] if model == "solid" else 0.0
    return n * p["delta"], coupling, swap


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b) if b else abs(a)


def _check_rows(inv: Invocation, rows: list[dict]) -> list[float]:
    p = inv.params
    _require([int(r["n"]) for r in rows] == list(range(p["lo"], p["hi"] + 1)), "wrong n column")
    worst = 0.0
    for r in rows:
        pulse, coupling, swap = closed_form_row(p, int(r["n"]))
        got = [float(r[k]) for k in ("pulse_term", "coupling_term", "swap_term", "total")]
        for g, want in zip(got, (pulse, coupling, swap, pulse + coupling + swap)):
            worst = max(worst, _rel(g, want))
    _require(worst <= COST_REL_TOL, f"cost rows off the closed forms by {worst}")
    return [worst]


def _check_cost_csv(inv: Invocation, text: str) -> list[float]:
    _require(text.startswith("n,pulse_term,coupling_term,swap_term,total\n"), "bad CSV header")
    return _check_rows(inv, list(csv.DictReader(io.StringIO(text))))


def _check_cost_json(inv: Invocation, text: str) -> list[float]:
    return _check_rows(inv, json.loads(text))


CHECKS = {
    "verify": _check_verify,
    "simulate": _check_simulate,
    "tomo_roundtrip": _check_tomo_roundtrip,
    "fig2": _check_fig2,
    "cost_csv": _check_cost_csv,
    "cost_json": _check_cost_json,
}

JSON_CHECKS = {"verify", "simulate", "tomo_roundtrip", "cost_json"}


def accuracy_digits(errors: list[float]) -> float:
    """-log10 of the worst error, capped at DIGITS_CAP."""
    worst = max(errors, default=0.0)
    return DIGITS_CAP if worst <= 10.0 ** -DIGITS_CAP else min(DIGITS_CAP, -math.log10(worst))

