"""Checks of the benchmark's own inputs, output checks and tracer."""

import json
import os
import subprocess
import sys

import pytest

import workloads as wl
from spinqft import costmodel, nmr, tomography

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def test_generator_matches_bundled_serial_n3_token_for_token():
    path = os.path.join(ROOT, "src", "spinqft", "sequences", "serial-n3.seq")
    with open(path) as fh:
        assert wl.serial_sequence_tokens(3) == wl.dsl_tokens(fh.read())


@pytest.mark.parametrize("n", [1, 2, 4, 5])
def test_generated_program_is_the_exact_transform(n):
    seq = nmr.parse_sequence(wl.serial_sequence_text(n))
    assert seq.n == n and len(seq.elements) == 3 * n + 4 * (n * (n - 1) // 2)
    system = nmr.system_for_sequence(seq)
    rho = (nmr.prepare_pseudopure_temporal_avg(system) if n == 2
           else nmr.pseudopure_projector_deviation(n))
    out = nmr.run(seq, system, rho)
    q = 2 ** n
    target = [[0.0 if r == c else wl._pseudopure_scale(n) / q for c in range(q)]
              for r in range(q)]
    assert tomography.fidelity(target, out, rho).fidelity == pytest.approx(1.0, abs=1e-12)


def test_generator_rejects_two_digit_spins():
    with pytest.raises(ValueError):
        wl.serial_sequence_tokens(10)


@pytest.mark.parametrize("model,params", [
    ("liquid", {"J": 215.0, "delta": 10e-6}),
    ("parallel", {"J": 140.0, "delta": 10e-6}),
    ("solid", {"d": 2e7, "Delta": 1e-7, "delta": 1e-8}),
])
def test_closed_forms_agree_with_the_package(model, params):
    p = (costmodel.SolidParams(delta=params["delta"], d=params["d"], Delta=params["Delta"])
         if model == "solid" else costmodel.LiquidParams(delta=params["delta"], J=params["J"]))
    for row in costmodel.sweep(model, p, range(1, 30)):
        want = wl.closed_form_row({"model": model, **params}, row.n)
        got = (row.pulse_term, row.coupling_term, row.swap_term)
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_cost_check_rejects_a_perturbed_row():
    inv = wl.cost_sweep_invocations(3)[0]
    rows = costmodel.sweep("liquid", costmodel.LiquidParams(delta=10e-6, J=215.0), range(1, 11))
    text = costmodel.sweep_to_csv(rows)
    assert wl.CHECKS[inv.check](inv, text)[0] < 1e-11
    lines = text.splitlines()
    lines[3] = lines[3].replace("e-05", "e-04", 1)
    with pytest.raises(wl.CheckFailed):
        wl.CHECKS[inv.check](inv, "\n".join(lines) + "\n")


def test_seeded_inputs_repeat_and_vary():
    assert wl.pulse_tomo_invocations(5) == wl.pulse_tomo_invocations(5)
    assert wl.pulse_tomo_invocations(5) != wl.pulse_tomo_invocations(6)


def _traced(tmp_path, args):
    """Run ``args`` plain and traced; return the traced child's summary."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    plain = subprocess.run([sys.executable, "-m", "spinqft.cli", *args], cwd=tmp_path,
                           capture_output=True, env=env, check=True)
    summary = tmp_path / "summary.json"
    traced = subprocess.run([sys.executable, os.path.join(HERE, "traced_cli.py"),
                             str(summary), *args], cwd=tmp_path,
                            capture_output=True, env=env, check=True)
    assert traced.stdout == plain.stdout
    return json.loads(summary.read_text())


def test_traced_child_keeps_output_and_counts_gates(tmp_path):
    s = _traced(tmp_path, ["verify", "--n", "3", "--decomp", "serial"])
    assert s["circuits.gate_unitary_calls"] == 6      # 3 Hadamards, 3 controlled phases
    assert s["core.unitary_checks"] == 6 + 1 + 2      # gates, product, oracle, reversal
    assert s["core.useful_unitary_checks"] == 0       # verify returns (passed, deviation)
    assert 0.0 < s["circuits.self_s"] <= s["traced_s"]


def test_traced_readout_pulses_are_not_useful_checks(tmp_path):
    s = _traced(tmp_path, ["simulate", "--sequence", "serial-n3", "--tomography"])
    assert s["nmr.element_unitary_calls"] == 21 + 108  # program elements, readout pulses
    assert s["core.unitary_checks"] >= 129 + 3
    # only the target unitary reaches cli: the oracle, the bit reversal and
    # the product cli builds from them
    assert s["core.useful_unitary_checks"] == 3
    assert s["tomography.readout_values"] > 0


def test_every_workload_has_a_calibration_child_that_runs():
    assert set(wl.CALIBRATION) == set(wl.WORKLOADS)
    for kind in sorted(set(wl.CALIBRATION.values())):
        subprocess.run([sys.executable, os.path.join(HERE, "calibrate.py"), kind],
                       capture_output=True, check=True)
