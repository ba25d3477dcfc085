"""Command-line interface: exit codes, outputs, schema, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import SRC, reversed_transform, run_python, serial_program_text

from spinqft import circuits, cli, nmr, tomography


SCHEMA = json.loads(
    resources.files("spinqft.schema").joinpath("cli-output.schema.json").read_text())


TOMO_CAP_LINE = ("spinqft: error: --tomography reads out at most 5 spins, "
                 "the sequence has {n}")


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def refused(argv, capsys) -> str:
    """stderr of ``cli.main(argv)``, which must exit 2 with nothing on
    stdout and no traceback."""
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    assert "Traceback" not in captured.err
    return captured.err


def validate(doc):
    jsonschema.validate(doc, SCHEMA)


def test_every_schema_maximum_is_its_cli_cap():
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    tomo_n = next(a for a in subcommands["tomo-roundtrip"]._actions if a.dest == "n")
    props = {name: d.get("properties") or d["items"]["properties"]
             for name, d in SCHEMA["$defs"].items()}
    assert {(name, key): props[name][key]["maximum"] for name, key in [
        ("verify", "n"), ("simulate", "n"), ("matrix", "n"), ("tomoRoundtrip", "n"),
        ("tomoRoundtrip", "samples"), ("costRows", "n")]} == {
        ("verify", "n"): cli.VERIFY_MAX_QUBITS,
        ("simulate", "n"): cli.SIMULATE_MAX_QUBITS,
        ("matrix", "n"): cli.SIMULATE_MAX_QUBITS,  # the matrices of a simulate report
        ("tomoRoundtrip", "n"): max(tomo_n.choices),
        ("tomoRoundtrip", "samples"): cli.TOMO_MAX_SAMPLES,
        ("costRows", "n"): cli.N_RANGE_MAX}


class TestVerify:
    @pytest.mark.parametrize("decomp", ["serial", "parallel"])
    def test_exit_zero_and_schema(self, decomp, capsys):
        code, out, _ = run_cli(["verify", "--n", "3", "--decomp", decomp], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["passed"] and doc["max_deviation"] < 1e-10

    @pytest.mark.parametrize("decomp", ["serial", "parallel"])
    def test_n8_deviation_is_roundoff(self, decomp, capsys):
        code, out, _ = run_cli(["verify", "--n", "8", "--decomp", decomp], capsys)
        assert code == 0
        assert json.loads(out)["max_deviation"] <= 1e-15

    def test_n_cap_is_usage_error(self, capsys):
        refused(["verify", "--n", "99"], capsys)

    def test_n9_is_within_the_cap(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "9", "--decomp", "parallel"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["n"] == 9 and doc["passed"]

    def test_the_cap_reaches_the_handler_and_one_past_it_does_not(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "verify", lambda args: seen.append(args.n) or 0)
        assert cli.main(["verify", "--n", str(cli.VERIFY_MAX_QUBITS)]) == 0
        refused(["verify", "--n", str(cli.VERIFY_MAX_QUBITS + 1)], capsys)
        assert seen == [cli.VERIFY_MAX_QUBITS]

    def test_n11_exits_2_with_one_line(self, capsys):
        err = refused(["verify", "--n", "11"], capsys)
        assert err.splitlines()[-1] == (
            "spinqft: error: --n must lie in [1, 10] for full-matrix verification")

    def test_m_out_of_range_exits_2_before_the_oracle(self, capsys, monkeypatch):
        monkeypatch.setattr(circuits, "verify_against_oracle", None)  # a call would raise
        for m in ("5", "0"):  # 0 is a cutoff, not "--m not given"
            err = refused(["verify", "--n", "3", "--decomp", "approximate", "--m", m], capsys)
            assert err.splitlines()[-1] == (
                f"spinqft: error: approximation range m must lie in [1, 3], got {m}")

    def test_approximate_with_cutoff_fails_verification(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "4", "--decomp", "approximate",
                                "--m", "1"], capsys)
        assert code == 1
        doc = json.loads(out)
        validate(doc)
        assert not doc["passed"]


def loaded_in_child(code: str, cwd) -> str:
    """Last stdout line of ``code`` run in a fresh interpreter on this
    package: the test process itself has imported everything."""
    return run_python(["-c", code], cwd, check=True).stdout.splitlines()[-1]


class TestCost:
    def test_csv_output(self, capsys, tmp_path):
        out_file = tmp_path / "sweep.csv"
        code, _, err = run_cli(["cost", "--model", "liquid", "--J", "215",
                                "--delta", "10e-6", "--n-range", "1..10",
                                "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,pulse_term,coupling_term,swap_term,total"
        assert len(lines) == 11
        assert "ratio" in err

    def test_solid_swap_column(self, capsys):
        code, out, _ = run_cli(["cost", "--model", "solid", "--d", "1e7",
                                "--Delta", "1e-7", "--delta", "1e-8",
                                "--n-range", "1..4", "--format", "json"], capsys)
        assert code == 0
        rows = json.loads(out)
        validate(rows)
        assert out == json.dumps(rows, sort_keys=True, indent=2) + "\n"  # every report's layout
        for row in rows:
            assert row["swap_term"] == pytest.approx(2 * row["n"] * 1e-7, rel=1e-12)

    def test_invalid_range_is_usage_error(self, capsys):
        for bad in ("5..2", "0..3", "nonsense"):
            refused(["cost", "--model", "liquid", "--n-range", bad], capsys)

    def test_solid_requires_parameters(self, capsys):
        refused(["cost", "--model", "solid", "--n-range", "1..3"], capsys)

    def test_range_above_the_cap_is_rejected_before_it_is_built(self):
        top = cli.N_RANGE_MAX
        assert cli._parse_range(f"{top}..{top}") == (top,)
        with pytest.raises(argparse.ArgumentTypeError, match=str(top)):
            cli._parse_range(f"1..{top + 1}")

    def test_cost_loads_no_matrix_layer(self, tmp_path):
        code = ("import sys\n"
                "from spinqft import cli\n"
                "assert cli.main(['cost', '--model', 'solid', '--d', '2e7', '--Delta', '1e-7',\n"
                "                 '--n-range', '1..5', '--format', 'json']) == 0\n"
                "assert cli.main(['cost', '--model', 'liquid', '--n-range', '1..5',\n"
                "                 '--out', 'sweep.csv']) == 0\n"
                "heavy = {'numpy', 'spinqft.core', 'spinqft.circuits', 'spinqft.nmr',\n"
                "         'spinqft.tomography', 'dataclasses', 'inspect', 'fractions',\n"
                "         'decimal'}\n"
                "print(sorted(heavy & set(sys.modules)))\n")
        assert loaded_in_child(code, tmp_path) == "[]"
        assert (tmp_path / "sweep.csv").read_text().startswith("n,")

    @pytest.mark.parametrize("argv", [
        ["verify", "--n", "3"],
        ["simulate", "--sequence", "serial-n3", "--tomography"],
    ])
    def test_matrix_commands_load_no_exact_arithmetic(self, argv, tmp_path):
        code = ("import sys\n"
                "from spinqft import cli\n"
                f"assert cli.main({argv!r}) == 0\n"
                "print(sorted({'fractions', 'decimal'} & set(sys.modules)))\n")
        assert loaded_in_child(code, tmp_path) == "[]"


class TestSimulate:
    def test_noiseless_fidelity(self, capsys):
        code, out, _ = run_cli(["simulate", "--sequence", "selective-n2"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["fidelity_report"]["fidelity"] >= 0.999

    def test_dephasing_lowers_fidelity(self, capsys):
        _, quiet, _ = run_cli(["simulate", "--sequence", "selective-n2"], capsys)
        _, noisy, _ = run_cli(["simulate", "--sequence", "selective-n2",
                               "--t2", "0.05"], capsys)
        f0 = json.loads(quiet)["fidelity_report"]["fidelity"]
        f1 = json.loads(noisy)["fidelity_report"]["fidelity"]
        assert f1 < f0

    def test_tomography_cross_check(self, capsys):
        code, out, _ = run_cli(["simulate", "--sequence", "parallel-n2",
                                "--tomography"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["tomography_max_error"] <= 1e-8

    def test_unknown_sequence_is_usage_error(self, capsys):
        refused(["simulate", "--sequence", "nonsense"], capsys)

    def test_long_unknown_name_gives_a_short_line(self, capsys):
        err = refused(["simulate", "--sequence", "x" * 5000], capsys)
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith("spinqft: error: unknown sequence 'xxx")
        assert "(5000 characters)" in errors[0]
        assert all(len(line) < 300 for line in err.splitlines())

    @pytest.mark.parametrize("n", range(1, 9))
    def test_reversed_target_is_the_permutation_product_bit_for_bit(self, n):
        dense = reversed_transform(n)
        rows = cli._ideal_target_unitary(n).entries
        assert np.array_equal(rows.view(np.int64), dense.view(np.int64))

    def test_directory_as_sequence_is_usage_error(self, capsys, tmp_path):
        refused(["simulate", "--sequence", str(tmp_path)], capsys)

    def test_sequence_from_file(self, capsys, tmp_path):
        path = tmp_path / "mini.seq"
        path.write_text("n: 2\n90y@s1,s2 180x@s1,s2\n90x@t3-4\nz45@s1\n")
        code, out, _ = run_cli(["simulate", "--sequence", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["fidelity_report"]["fidelity"] >= 0.999

    def test_parse_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.seq"
        path.write_text("n: 2\n90q@s1\n")
        assert "line 2" in refused(["simulate", "--sequence", str(path)], capsys)

    @pytest.mark.parametrize("token", [f"delay:1/({'9' * 400}*J12)", f"{'9' * 400}x@s1"],
                             ids=["delay", "pulse"])
    def test_number_too_large_for_a_float_is_usage_error(self, capsys, tmp_path, token):
        path = tmp_path / "huge.seq"
        path.write_text(f"n: 2\n90y@s1  {token}\n")
        err = refused(["simulate", "--sequence", str(path)], capsys)
        assert err.splitlines()[-1].startswith(
            f"spinqft: error: cannot parse {path}: line 2, column 9: ")

    @pytest.mark.parametrize("text", [f"n: 2\ndelay:1/(4*J{'1' * 5000})\n",
                                      f"n: {'1' * 5000}\n",
                                      f"n: 2\n90{'q' * 5000}@s1\n"],
                             ids=["delay", "spin-count", "token"])
    def test_long_bad_text_gives_a_short_line(self, capsys, tmp_path, text):
        path = tmp_path / "long.seq"
        path.write_text(text)
        err = refused(["simulate", "--sequence", str(path)], capsys)
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1
        assert errors[0].startswith(f"spinqft: error: cannot parse {path}: line ")
        assert len(errors[0]) < 300
        assert all(len(line) < 300 for line in err.splitlines())

    def test_unreadable_sequence_is_usage_error(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "locked.seq"
        path.write_text("n: 2\n90y@s1\n")

        def refuse(*args, **kwargs):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "open", refuse, raising=False)
        err = refused(["simulate", "--sequence", str(path)], capsys)
        assert err.splitlines()[-1] == (
            f"spinqft: error: cannot read {path}: Permission denied")

    def test_label_above_the_cap_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "long-label.seq"
        path.write_text(f"n: 2\n90y@s1  90x@s{'1' * 400}\n")
        err = refused(["simulate", "--sequence", str(path)], capsys)
        assert err.splitlines()[-1] == (
            f"spinqft: error: cannot parse {path}: line 2, column 9: spin label above 12")

    def test_tomography_above_the_cap_exits_2_before_any_work(self, capsys, tmp_path,
                                                               monkeypatch):
        n = cli.TOMO_MAX_QUBITS + 1
        path = tmp_path / f"serial-{n}.seq"
        path.write_text(serial_program_text(n))

        def no_work(*args):
            raise AssertionError("simulated past the size cap")

        monkeypatch.setattr(nmr, "run", no_work)
        monkeypatch.setattr(nmr, "pseudopure_projector_deviation", no_work)
        started = time.perf_counter()
        err = refused(["simulate", "--sequence", str(path), "--tomography"], capsys)
        assert time.perf_counter() - started < 1.0
        assert err.splitlines()[-1:] == [TOMO_CAP_LINE.format(n=n)]

    def test_at_the_tomography_cap_is_read_out(self, capsys, tmp_path):
        n = cli.TOMO_MAX_QUBITS
        path = tmp_path / f"serial-{n}.seq"
        path.write_text(serial_program_text(n))
        started = time.perf_counter()
        code, out, _ = run_cli(["simulate", "--sequence", str(path), "--tomography"], capsys)
        assert time.perf_counter() - started < 2.0
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["n"] == 5
        assert doc["tomography_max_error"] <= 1e-8

    @pytest.mark.parametrize("tomography", [False, True])
    def test_above_the_spin_cap_exits_2_before_any_work(self, capsys, tmp_path, monkeypatch,
                                                        tomography):
        n = cli.SIMULATE_MAX_QUBITS + 1
        path = tmp_path / f"pulse-{n}.seq"
        path.write_text(f"n: {n}\n90x@s1\n")

        def no_work(*args):
            raise AssertionError("simulated past the size cap")

        monkeypatch.setattr(nmr, "run", no_work)
        monkeypatch.setattr(nmr, "pseudopure_projector_deviation", no_work)
        started = time.perf_counter()
        err = refused(["simulate", "--sequence", str(path)] + ["--tomography"] * tomography,
                      capsys)
        assert time.perf_counter() - started < 1.0
        assert err.splitlines()[-1:] == [  # the tomography cap speaks first
            TOMO_CAP_LINE.format(n=n) if tomography else
            f"spinqft: error: simulate runs at most {n - 1} spins, the sequence has {n}"]

    def test_at_the_spin_cap_is_simulated(self, tmp_path, monkeypatch):
        n = cli.SIMULATE_MAX_QUBITS
        path = tmp_path / f"pulse-{n}.seq"
        path.write_text(f"n: {n}\n90x@s1\n")

        class Reached(Exception):
            pass

        def reached(seq, n, rho, noise):
            raise Reached(seq.n)

        monkeypatch.setattr(nmr, "run", reached)
        with pytest.raises(Reached):
            cli.main(["simulate", "--sequence", str(path)])

    def test_unknown_coupling_message_has_no_quotes(self, capsys, tmp_path):
        # a delay on a spin outside the program is worded as a pulse on one
        path = tmp_path / "spin0.seq"
        path.write_text("n: 2\ndelay:1/(2*J01)\n")
        assert refused(["simulate", "--sequence", str(path)], capsys).splitlines()[-1] == (
            "spinqft: error: qubit labels [0, 1] outside 1..2")

    @pytest.mark.parametrize("args", [["simulate"], ["simulate", "--t2", "0.1"],
                                      ["export-fig2"]], ids=["simulate", "simulate-t2", "fig2"])
    @pytest.mark.parametrize("n", [1, 2])
    def test_a_pulse_past_the_last_spin_exits_2_with_one_line(self, n, args, capsys, tmp_path):
        path = tmp_path / "past.seq"
        path.write_text(f"n: {n}\n90x@s{n + 1}\n")
        err = refused([*args, "--sequence", str(path)], capsys)
        assert err.splitlines()[-1] == (
            f"spinqft: error: qubit labels [{n + 1}] outside 1..{n}")

    @pytest.mark.parametrize("args", [["simulate"], ["simulate", "--t2", "0.1"],
                                      ["export-fig2"]], ids=["simulate", "simulate-t2", "fig2"])
    def test_a_transition_with_equal_endpoints_exits_2_with_one_line(self, args, capsys,
                                                                      tmp_path):
        path = tmp_path / "equal.seq"
        path.write_text("n: 2\n90y@s1,s2 180x@s1,s2 90x@t3-3\n")
        err = refused([*args, "--sequence", str(path)], capsys)
        assert err.splitlines()[-1] == "spinqft: error: transition endpoints must differ"

    def test_a_reconstruction_past_the_tolerance_exits_1_with_its_report(self, capsys,
                                                                          monkeypatch):
        exact = tomography.reconstruct
        monkeypatch.setattr(tomography, "reconstruct",
                            lambda values: exact(values) + 10 * cli.TOMO_TOL)
        code, out, _ = run_cli(["simulate", "--sequence", "parallel-n2", "--tomography"], capsys)
        assert code == 1
        doc = json.loads(out)
        validate(doc)
        assert doc["tomography_max_error"] == pytest.approx(10 * cli.TOMO_TOL, rel=1e-6)
        assert doc["tomography_tolerance"] == cli.TOMO_TOL

    @pytest.mark.parametrize("command, key", [
        (["simulate", "--sequence", "parallel-n2", "--tomography"], "tomography_max_error"),
        (["tomo-roundtrip", "--n", "2", "--samples", "3"], "max_error"),
    ], ids=["simulate", "tomo-roundtrip"])
    @pytest.mark.parametrize("factor, code", [(2.0, 1), (0.5, 0)], ids=["twice", "half"])
    def test_the_tomography_tolerance_is_tomo_tol(self, command, key, factor, code, capsys,
                                                 monkeypatch):
        exact = tomography.reconstruct
        monkeypatch.setattr(tomography, "reconstruct",
                            lambda values: exact(values) + factor * cli.TOMO_TOL)
        status, out, _ = run_cli(command, capsys)
        assert status == code
        doc = json.loads(out)
        validate(doc)
        assert doc[key] == pytest.approx(factor * cli.TOMO_TOL, rel=1e-6)
        if "passed" in doc:  # tomo-roundtrip's verdict; simulate has only its exit code
            assert doc["passed"] is (code == 0)

    @pytest.mark.parametrize("flag", ["--reverse-readout", "--no-reverse-readout"])
    def test_readout_order_is_not_an_option(self, flag, capsys):
        refused(["simulate", "--sequence", "serial-n2", flag], capsys)
        _, out, _ = run_cli(["simulate", "--sequence", "serial-n2"], capsys)
        assert "reverse_readout" not in json.loads(out)

    @pytest.mark.parametrize("t2", ["inf", "-inf", "nan", "-1", "1e-320"])
    def test_t2_without_a_finite_rate_exits_2_before_the_sequence_is_read(
            self, t2, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("read the sequence")

        monkeypatch.setattr(cli, "_resolve_sequence", no_work)
        err = refused(["simulate", "--sequence", "serial-n3", f"--t2={t2}"], capsys)
        assert err.splitlines()[-1] == (
            "spinqft: error: --t2 must be 0 or a time in seconds with a finite rate 1/t2, "
            f"got {float(t2)!r}")

    @pytest.mark.parametrize("t2", ["0", "-0", "-0.0", "1e-300", "0.05"])
    def test_t2_of_zero_or_with_a_finite_rate_is_accepted(self, t2, capsys):
        code, out, _ = run_cli(["simulate", "--sequence", "serial-n2", f"--t2={t2}"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["t2_seconds"] == float(t2)
        assert math.copysign(1.0, doc["t2_seconds"]) == 1.0  # a negative zero is echoed as 0.0


class TestTomoRoundtrip:
    def test_passes_at_tolerance(self, capsys):
        code, out, _ = run_cli(["tomo-roundtrip", "--n", "2", "--samples", "10"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["max_error"] <= 1e-8

    @pytest.mark.parametrize("n", [2, 3])
    def test_states_are_the_per_sample_draws(self, n, capsys, monkeypatch):
        from spinqft import tomography

        # the reference loop: two draws per sample, each made Hermitian and traceless alone
        rng, dim, states = np.random.default_rng(3), 2 ** n, []
        for _ in range(7):
            h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = (h + h.conj().T) / 2.0
            states.append(h - np.trace(h) / dim * np.eye(dim))
        recons = tomography.reconstruct(tomography.measure_all(np.array(states)))
        worst = max(float(np.max(np.abs(r - s))) for r, s in zip(recons, states))
        monkeypatch.delenv("SPINQFT_SEED", raising=False)
        _, out, _ = run_cli(["tomo-roundtrip", "--n", str(n), "--samples", "7", "--seed", "3"],
                            capsys)
        assert json.loads(out)["max_error"] == worst

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINQFT_SEED", "123")
        _, out, _ = run_cli(["tomo-roundtrip", "--n", "2", "--samples", "2"], capsys)
        assert json.loads(out)["seed"] == 123

    @pytest.mark.parametrize("args", [["simulate", "--sequence", "serial-n2"],
                                      ["tomo-roundtrip", "--n", "2", "--samples", "1"]])
    def test_bad_seed_env_is_usage_error(self, args, capsys, monkeypatch):
        monkeypatch.setenv("SPINQFT_SEED", "abc")
        err = refused(args, capsys)
        assert err.splitlines()[-1] == (
            "spinqft: error: SPINQFT_SEED must be an integer, got 'abc'")

    @pytest.mark.parametrize("args", [
        ["cost", "--model", "liquid", "--n-range", "1..2"],
        ["verify", "--n", "2"],
        ["export-fig2", "--sequence", "serial-n2"],
    ], ids=["cost", "verify", "export-fig2"])
    def test_seed_env_is_not_read_without_a_seed(self, args, capsys, monkeypatch):
        monkeypatch.setenv("SPINQFT_SEED", "abc")
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and out

    def test_long_seed_env_gives_a_short_line(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINQFT_SEED", "1" * 5000)
        err = refused(["tomo-roundtrip", "--n", "2", "--samples", "1"], capsys)
        assert err.splitlines()[-1] == (
            "spinqft: error: SPINQFT_SEED must be an integer, got "
            f"{'1' * 40!r}... (5000 characters)")

    @pytest.mark.parametrize("command", [["simulate", "--sequence", "serial-n2"],
                                         ["tomo-roundtrip", "--n", "2", "--samples", "1"]],
                             ids=["simulate", "tomo-roundtrip"])
    @pytest.mark.parametrize("from_env", [False, True], ids=["flag", "env"])
    def test_negative_seed_exits_2_before_any_work(self, command, from_env, capsys,
                                                   monkeypatch):
        def no_work(*args):
            raise AssertionError("the handler ran")

        monkeypatch.setitem(cli._HANDLERS, command[0], no_work)
        name = "SPINQFT_SEED" if from_env else "--seed"
        for seed in ("-5", "-1"):
            if from_env:
                monkeypatch.setenv("SPINQFT_SEED", seed)
            else:
                monkeypatch.delenv("SPINQFT_SEED", raising=False)
            err = refused(command + ["--seed", "7" if from_env else seed], capsys)
            assert err.splitlines()[-1] == (
                f"spinqft: error: {name} must be >= 0, got '{seed}'")

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_usage_error(self, samples, capsys):
        err = refused(["tomo-roundtrip", "--n", "2", "--samples", samples], capsys)
        assert err.splitlines()[-1] == "spinqft: error: --samples must be >= 1"

    def test_sample_cap_is_accepted(self, monkeypatch):
        seen = []
        monkeypatch.setitem(cli._HANDLERS, "tomo-roundtrip",
                            lambda args: seen.append(args.samples) or 0)
        assert cli.main(["tomo-roundtrip", "--n", "3",
                         "--samples", str(cli.TOMO_MAX_SAMPLES)]) == 0
        assert seen == [cli.TOMO_MAX_SAMPLES]

    def test_samples_above_the_cap_exit_2_before_any_work(self, capsys, monkeypatch):
        def no_work(*args):
            raise AssertionError("the handler ran")

        monkeypatch.setitem(cli._HANDLERS, "tomo-roundtrip", no_work)
        err = refused(["tomo-roundtrip", "--n", "3", "--samples", str(cli.TOMO_MAX_SAMPLES + 1)],
                      capsys)
        assert err.splitlines()[-1] == (
            f"spinqft: error: --samples must be <= {cli.TOMO_MAX_SAMPLES}")


class TestExportFig2:
    def test_output_csv(self, capsys, tmp_path):
        out_file = tmp_path / "bars.csv"
        code, _, _ = run_cli(["export-fig2", "--sequence", "selective-n2",
                              "--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "row,col,re,im"
        assert len(lines) == 17

    def test_pseudopure_stage(self, capsys):
        code, out, _ = run_cli(["export-fig2", "--sequence", "selective-n2",
                                "--what", "pseudopure"], capsys)
        assert code == 0
        first = out.strip().splitlines()[1].split(",")
        assert float(first[2]) == pytest.approx(1.0, abs=1e-9)  # |00> population

    @pytest.mark.parametrize("n", [2, 3])
    def test_target_is_the_transformed_input_and_simulates_target(self, n, capsys):
        # the pseudopure input, s(|0..0><0..0| - I/2**n), goes to s(J - I)/2**n
        # (J all ones); s = 4/3 for the temporal average at n = 2
        name, dim = f"serial-n{n}", 2 ** n
        code, out, _ = run_cli(["export-fig2", "--sequence", name, "--what", "target"], capsys)
        assert code == 0
        lines = [line.split(",") for line in out.splitlines()]
        labels = [format(i, f"0{n}b") for i in range(dim)]
        assert lines[0] == ["row", "col", "re", "im"]
        assert [line[:2] for line in lines[1:]] == [[r, c] for r in labels for c in labels]
        chart = np.array([float(re) + 1j * float(im) for *_, re, im in lines[1:]])
        chart = chart.reshape(dim, dim)
        s = 4 / 3 if n == 2 else 1.0
        np.testing.assert_allclose(chart, s * (np.ones((dim, dim)) - np.eye(dim)) / dim,
                                   rtol=0, atol=1e-12)
        _, report, _ = run_cli(["simulate", "--sequence", name], capsys)
        target = json.loads(report)["rho_target"]
        np.testing.assert_allclose(chart, np.array(target["re"]) + 1j * np.array(target["im"]),
                                   rtol=0, atol=1e-12)

    def test_at_the_cap_is_accepted(self, capsys, tmp_path):
        n = cli.FIG2_MAX_QUBITS
        path = tmp_path / f"serial-{n}.seq"
        path.write_text(serial_program_text(n))
        code, out, _ = run_cli(["export-fig2", "--sequence", str(path),
                                "--what", "pseudopure"], capsys)
        assert code == 0
        assert out.count("\n") == 4 ** n + 1

    @pytest.mark.parametrize("what", ["output", "pseudopure", "target"])
    def test_above_the_cap_exits_2_before_any_work(self, what, capsys, tmp_path, monkeypatch):
        n = cli.FIG2_MAX_QUBITS + 1
        path = tmp_path / f"serial-{n}.seq"
        path.write_text(serial_program_text(n))

        def no_work(*args):
            raise AssertionError("simulated past the size cap")

        monkeypatch.setattr(nmr, "run", no_work)
        monkeypatch.setattr(nmr, "pseudopure_projector_deviation", no_work)
        started = time.perf_counter()
        err = refused(["export-fig2", "--sequence", str(path), "--what", what], capsys)
        assert time.perf_counter() - started < 1.0
        assert err.splitlines()[-1:] == [
            f"spinqft: error: export-fig2 charts at most {n - 1} spins, the sequence has {n}"]


class TestRefusalIsAValueError:
    """Below ``main`` a refusal is a ``ValueError``; only ``main`` prints the usage line."""

    def test_unknown_sequence(self):
        with pytest.raises(ValueError) as exc:
            cli._resolve_sequence("nope")
        assert str(exc.value) == (
            f"unknown sequence 'nope': not a library name "
            f"({', '.join(nmr.SEQUENCE_LIBRARY)}) or a readable file")

    def test_program_above_its_cap(self):
        with pytest.raises(ValueError) as exc:
            cli._program(argparse.Namespace(sequence="serial-n3"), 2, "simulate runs")
        assert str(exc.value) == "simulate runs at most 2 spins, the sequence has 3"

    @pytest.mark.parametrize("text,flag,message", [
        ("abc", 1, "SPINQFT_SEED must be an integer, got 'abc'"),
        ("-5", 1, "SPINQFT_SEED must be >= 0, got '-5'"),
        (None, -5, "--seed must be >= 0, got '-5'"),
    ])
    def test_bad_seed(self, text, flag, message, monkeypatch):
        if text is None:
            monkeypatch.delenv("SPINQFT_SEED", raising=False)
        else:
            monkeypatch.setenv("SPINQFT_SEED", text)
        with pytest.raises(ValueError) as exc:
            cli._seed(flag)
        assert str(exc.value) == message


class TestNonFiniteInput:
    @pytest.mark.parametrize("args", [
        ["simulate", "--sequence", "serial-n2", "--t2", "nan"],
        ["simulate", "--sequence", "serial-n2", "--t2", "inf"],
        ["cost", "--model", "liquid", "--J", "nan", "--n-range", "1..3"],
        ["cost", "--model", "liquid", "--J", "inf", "--n-range", "1..3"],
        ["cost", "--model", "liquid", "--delta", "inf", "--n-range", "1..3", "--format", "json"],
        ["cost", "--model", "liquid", "--J", "1e-320", "--n-range", "1..3"],
        ["cost", "--model", "liquid", "--delta", "1e308", "--n-range", "1..3", "--format", "json"],
        ["cost", "--model", "solid", "--d", "2e7", "--Delta", "1e308", "--delta", "1e-8",
         "--n-range", "1..3"],
        # the parallel sweep is finite, the serial time it is compared with is not
        ["cost", "--model", "parallel", "--J", "1", "--delta", "1.7976931348623157e308",
         "--n-range", "1..2"],
    ])
    def test_rejected_as_usage_error(self, args, capsys):
        err = refused(args, capsys)  # so in particular no NaN or Infinity on stdout
        assert err.splitlines()[-1].startswith("spinqft: error: ")


class TestOutPath:
    ARGS = ["verify", "--n", "2", "--out"]

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("stale\n")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        assert cli.main(self.ARGS + [str(link)]) == 0
        assert link.is_symlink()
        assert json.loads(target.read_text())["command"] == "verify"

    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "out.fifo"
        os.mkfifo(fifo)
        spare = tmp_path / "spare.fifo"
        os.link(fifo, spare)  # reaches the FIFO even if its first name is replaced
        received = []

        def drain():
            with open(spare, "rb") as fh:
                received.append(fh.read())

        reader = threading.Thread(target=drain, daemon=True)
        reader.start()
        assert cli.main(self.ARGS + [str(fifo)]) == 0
        reader.join(timeout=5)
        if reader.is_alive():  # nothing opened the FIFO for writing: release the reader
            os.close(os.open(spare, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=5)
        assert not reader.is_alive()
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
        assert json.loads(received[0])["command"] == "verify"

    def test_new_file_follows_umask(self, tmp_path):
        out = tmp_path / "new.json"
        old = os.umask(0o022)
        try:
            assert cli.main(self.ARGS + [str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o644

    @pytest.mark.parametrize("target", ["missing/x.json", "."])
    def test_no_file_to_write_is_usage_error_before_any_work(self, target, tmp_path, capsys,
                                                             monkeypatch):
        def no_work(*args):
            raise AssertionError("handler ran")

        monkeypatch.setitem(cli._HANDLERS, "verify", no_work)
        err = refused(self.ARGS + [str(tmp_path / target)], capsys)
        assert err.splitlines()[-1].startswith("spinqft: error: --out ")
        assert not (tmp_path / "missing").exists()

    def test_unwritable_out_is_usage_error(self, tmp_path, capsys, monkeypatch):
        def refuse(path, chunks):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli, "_replace", refuse)
        out = tmp_path / "x.json"
        err = refused(self.ARGS + [str(out)], capsys)
        assert err.splitlines()[-1] == (
            f"spinqft: error: cannot write --out {out}: Permission denied")

    def test_failed_encoding_leaves_the_file_and_no_temporary(self, tmp_path):
        # the NaN is the last key, written after a whole matrix
        out = tmp_path / "r.json"
        out.write_text("old report\n")
        report = {"a": np.ones((64, 64)), "z": float("nan")}
        with pytest.raises(ValueError, match="^Out of range float"):
            cli._emit(report, str(out))
        assert out.read_text() == "old report\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json"]

    @pytest.mark.parametrize("t2", [[], ["--t2", "0.05"]], ids=["noiseless", "t2"])
    def test_streamed_report_equals_the_one_on_stdout(self, t2, tmp_path, capsys):
        path = tmp_path / "serial-6.seq"
        path.write_text(serial_program_text(6))
        args = ["simulate", "--sequence", str(path), *t2]
        _, text, _ = run_cli(args, capsys)
        out = tmp_path / "r.json"
        assert cli.main(args + ["--out", str(out)]) == 0
        assert out.read_text() == text
        assert text == dumps(json.loads(text))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "serial-6.seq"]

    def test_existing_file_keeps_its_mode(self, tmp_path):
        out = tmp_path / "old.json"
        out.write_text("stale\n")
        out.chmod(0o640)
        assert cli.main(self.ARGS + [str(out)]) == 0
        assert stat.S_IMODE(os.stat(out).st_mode) == 0o640
        assert json.loads(out.read_text())["command"] == "verify"


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(["simulate", "--sequence", "parallel-n3",
                                 "--tomography"], capsys)
            outs.append(out)
        assert outs[0] == outs[1]

    def test_cost_csv_is_byte_identical(self, capsys):
        outs = []
        for _ in range(2):
            _, out, _ = run_cli(["cost", "--model", "liquid", "--n-range", "1..8"], capsys)
            outs.append(out)
        assert outs[0] == outs[1]


def dumps(doc):
    return json.dumps(doc, sort_keys=True, indent=2, allow_nan=False) + "\n"


def json_text(doc):
    """The report ``doc`` as ``cli._emit`` writes it to stdout."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit(doc, "")
    return out.getvalue()


FINITE = (st.floats(allow_nan=False, allow_infinity=False)
          | st.sampled_from([-0.0, 5e-324, 1.7976931348623157e308]))
SCALARS = st.none() | st.booleans() | st.integers() | FINITE | st.text()
DOCS = st.dictionaries(st.text(), st.recursive(
    SCALARS, lambda kids: st.dictionaries(st.text(), kids, max_size=4), max_leaves=30))
MATRICES = hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1),
                      elements=FINITE)


# a small pool, so that drawn matrices repeat values; both zeros and the extremes included
REPEATS_POOL = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                0.1, -0.1, 1 / 3, 0.0625]


def report_shaped_doc():
    """A doc shaped like an n = 8 ``simulate`` report."""
    rng = np.random.default_rng(8)
    doc = {"command": "simulate", "n": 8, "fidelity_report": {"fidelity": 0.5}}
    for key in ("rho_exp", "rho_target"):
        m = rng.normal(size=(256, 256)) + 1j * rng.normal(size=(256, 256))
        doc[key] = {"n": 8, "re": m.real, "im": m.imag}
    return doc


class TestJsonText:
    @settings(deadline=None)
    @given(DOCS)
    def test_equals_indented_dumps(self, doc):
        assert json_text(doc) == dumps(doc)

    @settings(deadline=None)
    @given(MATRICES)
    def test_array_is_written_as_its_tolist(self, a):
        doc = {"m": a, "t": {"x": a.T, "n": 1}}
        expected = {"m": a.tolist(), "t": {"x": a.T.tolist(), "n": 1}}
        assert json_text(doc) == dumps(expected)

    @pytest.mark.parametrize("value", [
        [0.5], (0.5,), [], np.zeros(3), np.zeros((2, 2, 2)), np.zeros((0, 2)),
        np.zeros((2, 2), dtype=int), np.zeros((2, 2), dtype=np.float32),
        np.zeros((2, 2), dtype=complex), np.array(0.5),
    ], ids=["list", "tuple", "empty-list", "1-d", "3-d", "empty-2-d", "int", "float32",
            "complex", "0-d"])
    def test_what_no_report_holds_is_a_type_error(self, value):
        with pytest.raises(TypeError, match="a report holds no"):
            json_text({"ok": 1.0, "bad": {"value": value}})

    @settings(deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=1,
                                                   max_side=9),
                      elements=st.sampled_from(REPEATS_POOL)))
    def test_repeated_values_are_written_as_dumps(self, a):
        a.flat[0], a.flat[-1] = 0.0, -0.0  # both zeros in one array whenever it has two entries
        z = a + 1j * a[::-1]
        doc = {"m": a, "t": a.T, "z": {"re": z.real, "im": z.imag}}
        expected = {"m": a.tolist(), "t": a.T.tolist(),
                    "z": {"re": z.real.tolist(), "im": z.imag.tolist()}}
        assert json_text(doc) == dumps(expected)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_raises_before_any_chunk(self, bad):
        docs = [{"x": bad}, {"a": {"b": bad}}, {"m": np.array([[0.0, 1.0], [bad, 0.0]])},
                {"v": np.array([[bad]])}]
        for doc in docs:
            with pytest.raises(ValueError):
                json_text(doc)

    def test_report_peak_memory_is_about_its_length(self):
        doc = report_shaped_doc()
        tracemalloc.start()
        try:
            chunks = list(cli._encode_into(doc, "\n"))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * sum(map(len, chunks))

    def test_rows_in_several_value_tables_are_written_as_dumps(self):
        # 150 rows span three tables of repeated values, with values shared across them
        a = np.random.default_rng(3).choice(REPEATS_POOL + [2.5, -7e-300], size=(150, 5))
        a[:, 0] = np.arange(150) / 7  # and values that occur once
        assert cli._TABLE_ROWS < 150 // 2
        assert json_text({"m": a, "t": a.T}) == dumps({"m": a.tolist(), "t": a.T.tolist()})

    def test_value_table_is_bounded_by_a_block_of_rows(self):
        # a symmetric matrix repeats every off-diagonal value: one table over the whole
        # matrix held 32 640 strings, and writing it peaked at 9.4 times its 512 KiB
        rng = np.random.default_rng(5)
        a = rng.normal(size=(256, 256))
        a += a.T
        peaks = []
        for m in (a, a[:cli._TABLE_ROWS]):
            tracemalloc.start()
            try:
                for _ in cli._encode_into({"m": m}, "\n"):
                    pass
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 3 * a.nbytes
        assert peaks[0] < 1.25 * peaks[1]  # no more than for one block of its rows


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
class TestStdoutFailure:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("args", [["simulate", "--sequence", "serial-n2"],
                                      ["verify", "--n", "2"]], ids=["simulate", "verify"])
    def test_full_device_exits_2_with_one_line(self, args, unbuffered, tmp_path):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = SRC
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with open("/dev/full", "w") as full:
            done = subprocess.run([sys.executable, "-m", "spinqft.cli", *args], cwd=tmp_path,
                                  env=env, stdout=full, stderr=subprocess.PIPE, text=True,
                                  timeout=60)
        assert done.returncode == 2
        assert done.stderr == "spinqft: error: cannot write stdout: No space left on device\n"


class TestClosedStdout:
    @pytest.mark.parametrize("args", [["verify", "--n", "2"],
                                      ["cost", "--model", "liquid", "--n-range", "1..3"]],
                             ids=["verify", "cost"])
    def test_exits_2_with_one_line(self, args, tmp_path):
        done = run_python(["-m", "spinqft.cli", *args], tmp_path,
                          preexec_fn=lambda: os.close(1))  # as the shell's `>&-`
        assert done.returncode == 2
        assert done.stderr == "spinqft: error: cannot write stdout: Bad file descriptor\n"


class TestBlasThreads:
    def test_output_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # each command runs in a child at one BLAS thread and at the default count
        # (a report written with --out is read back from its file)
        for n in (7, 8):
            (tmp_path / f"serial-{n}.seq").write_text(serial_program_text(n))
        commands = [["verify", "--n", "9", "--decomp", "serial"],
                    ["verify", "--n", "9", "--decomp", "parallel"],
                    ["simulate", "--sequence", "serial-7.seq"],
                    ["simulate", "--sequence", "serial-7.seq", "--t2", "0.05"],
                    ["simulate", "--sequence", "serial-8.seq", "--t2", "0.110464",
                     "--out", "report.json"]]
        default = {k: v for k, v in os.environ.items()
                   if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
        default["PYTHONPATH"] = SRC
        for args in commands:
            outs = []
            for env in (dict(default, OPENBLAS_NUM_THREADS="1"), default):
                done = subprocess.run([sys.executable, "-m", "spinqft.cli", *args], cwd=tmp_path,
                                      env=env, capture_output=True, timeout=120, check=True)
                outs.append((tmp_path / args[-1]).read_bytes() if "--out" in args else done.stdout)
            assert outs[0] and outs[0] == outs[1], args


class TestProgramExit:
    """The program ends itself once ``main`` has returned: the exit code,
    the flushed streams and the ``--out`` file are those of ``main``."""

    @pytest.mark.parametrize("args, closed_stdout", [
        (["verify", "--n", "3"], False),
        (["verify", "--n", "3", "--decomp", "approximate", "--m", "1"], False),
        (["cost", "--model", "liquid", "--n-range", "1..40"], False),
        (["cost", "--model", "liquid", "--n-range", "1..3", "--out", "t.csv"], True),
        (["simulate", "--sequence", "serial-n2", "--out", "report.json"], False),
        (["tomo-roundtrip", "--n", "2"], False),
    ], ids=["verify", "verify-fails", "cost", "cost-out-stdout-closed", "simulate-out",
            "tomo-roundtrip"])
    def test_child_equals_main_in_process(self, args, closed_stdout, tmp_path, capsys,
                                          monkeypatch):
        (tmp_path / "child").mkdir()
        (tmp_path / "main").mkdir()
        done = run_python(["-m", "spinqft.cli", *args], tmp_path / "child",
                          preexec_fn=(lambda: os.close(1)) if closed_stdout else None)  # `>&-`
        monkeypatch.chdir(tmp_path / "main")
        code = cli.main(args)
        captured = capsys.readouterr()
        assert (done.returncode, done.stdout, done.stderr) == (code, captured.out, captured.err)
        assert code == (1 if "approximate" in args else 0)
        files = sorted(p.name for p in (tmp_path / "main").iterdir())
        assert files == sorted(p.name for p in (tmp_path / "child").iterdir())
        assert files == (args[-1:] if "--out" in args else [])
        for name in files:
            child, main = (tmp_path / side / name for side in ("child", "main"))
            assert child.read_bytes() == main.read_bytes()

    def test_a_profiler_wrapping_the_module_still_reports(self, tmp_path):
        done = run_python(["-m", "cProfile", "-m", "spinqft.cli", "cost", "--model", "liquid",
                           "--n-range", "1..3"], tmp_path)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(cli.costmodel.CSV_HEADER + "\n")
        assert "function calls" in done.stdout and "Ordered by" in done.stdout
        assert done.stdout.endswith("\n\n\n")  # the stats' last row and two blank lines

    def test_a_line_left_unfinished_on_stderr_is_flushed(self, tmp_path):
        # stderr is line-buffered: only the end of the process flushes this
        code = "import sys; from spinqft import cli; sys.stderr.write('partial'); cli._end(3)"
        done = run_python(["-c", code], tmp_path)
        assert (done.returncode, done.stdout, done.stderr) == (3, "", "partial")

    def test_the_script_runs_what_the_module_runs(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml")) as fh:  # no tomllib before 3.11
            scripts = re.findall(r'^spinqft = "spinqft\.cli:(\w+)"$', fh.read(), re.M)
        with open(cli.__file__) as fh:
            module_main = re.findall(r'^if __name__ == "__main__":\n    (\w+)\(\)$', fh.read(),
                                     re.M)
        assert scripts == module_main == ["entry_point"]


SEEDS = st.integers(0, 2 ** 32)


def verify_argv(n, decomp, m):
    return ["verify", "--n", str(n), "--decomp", decomp] + ([] if m is None else ["--m", str(m)])


def cost_argv(model, j, delta, d, big_delta, lo, hi, fmt):
    argv = ["cost", "--model", model, f"--J={j!r}", f"--delta={delta!r}",
            "--n-range", f"{lo}..{hi}", "--format", fmt]
    if d is not None:
        argv.append(f"--d={d!r}")
    if big_delta is not None:
        argv.append(f"--Delta={big_delta!r}")
    return argv


def simulate_argv(sequence, t2, tomography, seed):
    return (["simulate", "--sequence", sequence, f"--t2={t2!r}", f"--seed={seed}"]
            + ["--tomography"] * tomography)


def tomo_argv(n, samples, seed):
    return ["tomo-roundtrip", "--n", str(n), "--samples", str(samples), f"--seed={seed}"]


# inputs the CLI accepts, n <= 4, every command that writes JSON
VALID_JSON_ARGV = st.one_of(
    st.integers(1, 4).flatmap(lambda n: st.builds(
        verify_argv, st.just(n), st.sampled_from(["serial", "parallel", "approximate"]),
        st.none() | st.integers(1, n))),  # --m 0 is refused
    st.integers(1, 50).flatmap(lambda hi: st.builds(
        cost_argv, st.sampled_from(["liquid", "parallel", "solid"]),
        st.floats(1.0, 1e4), st.floats(0.0, 1e-3), st.floats(1e3, 1e12), st.floats(0.0, 1e-3),
        st.integers(1, hi), st.just(hi), st.just("json"))),
    st.builds(simulate_argv, st.sampled_from(nmr.SEQUENCE_LIBRARY), st.just(0.0) | st.floats(1e-3, 10.0),
              st.booleans(), SEEDS),
    st.builds(tomo_argv, st.sampled_from([2, 3]), st.integers(1, 3), SEEDS),
)

ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 5e-324, 1e-320, 1.7976931348623157e308])


class SeqText(str):
    """DSL text in a fuzzed argv: the test writes it to a .seq file and passes its path."""


# mostly well-formed tokens on spins 1..3, with digit strings too large for a
# float, labels of thousands of digits, unknown pairs, spins past 9 and past
# n, and zero denominators mixed in
HUGE = st.sampled_from(["9" * 309, "9" * 400, "1" + "0" * 308])
LONG_LABEL = st.sampled_from(["1" * 5000, "0" * 4999 + "1", "9" * 400, "0" * 5000 + "13"])
ANGLE = (HUGE | st.sampled_from(["9" * 400 + ".5", "22.5", "0.000001"])
         | st.integers(0, 720).map(str))
COUNT = HUGE | LONG_LABEL | st.integers(0, 64).map(str)
SPIN = st.sampled_from("123") | LONG_LABEL | st.integers(0, 13).map(str)
PAIR = st.sampled_from(["12", "13", "23"]) | st.builds("{}{}".format, st.integers(0, 9),
                                                       st.integers(0, 9))
SIGN = st.sampled_from(["", "-"])
FUZZED_TOKENS = st.one_of(
    st.builds("{}{}{}@s{}".format, ANGLE, SIGN, st.sampled_from("xy"), SPIN),
    st.builds("{}{}x@t{}-{}".format, ANGLE, SIGN, COUNT, COUNT),
    st.builds("z{}{}@s{}".format, SIGN, ANGLE, SPIN),
    st.builds("delay:1/({}*J{})".format, COUNT, PAIR),
    st.builds("delay:{{1/({}*J({},{})),1/({}*J{})}}".format, COUNT, SPIN, SPIN, COUNT, PAIR),
)
FUZZED_SEQUENCES = st.builds(lambda n, tokens: SeqText(f"n: {n}\n" + " ".join(tokens) + "\n"),
                             st.integers(1, 3), st.lists(FUZZED_TOKENS, min_size=1, max_size=4))
# tokens that parse at any n, so that a large n reaches the tomography size cap
PARSING_TOKENS = st.one_of(
    st.builds("{}{}@s{}".format, st.integers(0, 720), st.sampled_from(["x", "-y"]),
              st.integers(1, 12)),
    st.builds("z{}@s{}".format, st.integers(-720, 720), st.integers(1, 12)),
    st.builds("delay:1/({}*J({},{}))".format, st.integers(1, 64), st.integers(1, 6),
              st.integers(7, 12)),
)
LARGE_SEQUENCES = st.builds(lambda n, tokens: SeqText(f"n: {n}\n" + " ".join(tokens) + "\n"),
                            st.integers(cli.TOMO_MAX_QUBITS + 1, nmr.MAX_QUBITS),
                            st.lists(PARSING_TOKENS, min_size=1, max_size=4))
# a 5 000-character value for every number option and every choice option,
# for --n-range, for the subcommand name, as one extra argument and as an
# --out path in no directory
NOT_A_NUMBER = "1" * 4999 + "x"
NOT_A_CHOICE = "x" * 5000
LONG_ARGVS = [
    ["verify", "--n", NOT_A_NUMBER], ["verify", "--n", "3", "--m", NOT_A_NUMBER],
    ["verify", "--n", "3", "--decomp", NOT_A_CHOICE],
    *(["cost", "--model", "solid", "--n-range", "1..3", f"--{flag}", NOT_A_NUMBER]
      for flag in ("J", "delta", "d", "Delta")),
    ["cost", "--model", NOT_A_CHOICE, "--n-range", "1..3"],
    ["cost", "--model", "liquid", "--n-range", "1..3", "--format", NOT_A_CHOICE],
    ["cost", "--model", "liquid", "--n-range", "1.." + "9" * 5000],
    ["simulate", "--sequence", "serial-n2", "--t2", NOT_A_NUMBER],
    ["simulate", "--sequence", "serial-n2", "--seed", NOT_A_NUMBER],
    ["tomo-roundtrip", "--n", NOT_A_NUMBER],
    ["tomo-roundtrip", "--n", "2", "--samples", NOT_A_NUMBER],
    ["tomo-roundtrip", "--n", "2", "--seed", NOT_A_NUMBER],
    ["export-fig2", "--sequence", "serial-n2", "--what", NOT_A_CHOICE],
    [NOT_A_CHOICE, "--n", "3"],
    ["verify", "--n", "3", NOT_A_CHOICE],
    ["verify", "--n", "3", "--out", "/" + "x" * 4992 + "/r.json"],
]
# the same commands over out-of-range, non-finite, extreme and long values too
FUZZED_ARGV = st.one_of(
    st.sampled_from(LONG_ARGVS).map(list),
    st.builds(verify_argv, st.integers(-1, 4), st.sampled_from(["serial", "parallel",
                                                                "approximate"]),
              st.integers(-1, 5)),
    st.builds(cost_argv, st.sampled_from(["liquid", "parallel", "solid"]), ANY_FLOAT, ANY_FLOAT,
              st.none() | ANY_FLOAT, st.none() | ANY_FLOAT, st.integers(-1, 50),
              st.integers(-1, 50), st.sampled_from(["csv", "json"])),
    st.builds(simulate_argv, st.sampled_from(nmr.SEQUENCE_LIBRARY + ("no-such-sequence",)), ANY_FLOAT,
              st.booleans(), st.integers(-2, 2 ** 64)),
    st.builds(tomo_argv, st.integers(1, 4), st.integers(-1, 3), st.integers(-2, 2 ** 64)),
    st.builds(simulate_argv, FUZZED_SEQUENCES, st.just(0.0) | st.floats(1e-3, 10.0),
              st.booleans(), SEEDS),
    # a large n only ever with --tomography, which must refuse it
    st.builds(simulate_argv, LARGE_SEQUENCES, st.just(0.0) | st.floats(1e-3, 10.0),
              st.just(True), SEEDS),
)

NON_FINITE_TEXT = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)
USAGE_ERROR = re.compile(r"spinqft( [a-z0-9-]+)?: error: ")  # a subcommand's parser names it
# a bad .seq file is refused at its token, or for the spin, transition or pair it names
SEQUENCE_ERROR = re.compile(r"spinqft: error: (cannot parse .*: line \d+, column \d+: "
                            r"|qubit labels |transition )")


def run_main(argv):
    """(exit code, stdout, stderr) of ``cli.main(argv)``; a ``SystemExit``
    gives its code, any other exception propagates.  Each hypothesis
    example needs its own capture, which the per-test ``capsys`` is not."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestProperties:
    @pytest.mark.parametrize("argv", LONG_ARGVS, ids=lambda argv: " ".join(
        a if len(a) < 40 else "LONG" for a in argv))
    def test_a_long_value_is_refused_with_one_short_line(self, argv):
        code, out, err = run_main(argv)
        assert (code, out) == (2, "")
        errors = [line for line in err.splitlines() if "error" in line]
        assert len(errors) == 1 and USAGE_ERROR.match(errors[0])
        assert re.search(r"'\.\.\. \(500\d characters\)", errors[0])
        assert all(len(line) < 300 for line in err.splitlines())

    @settings(max_examples=50, deadline=None)
    @given(VALID_JSON_ARGV)
    def test_json_outputs_match_the_schema(self, argv):
        code, out, _ = run_main(argv)
        assert code in (0, 1)
        validate(json.loads(out))

    @settings(max_examples=100, deadline=None)
    @given(FUZZED_ARGV)
    @example(simulate_argv(SeqText("n: 1\n90x@s2\n"), 0.0, False, 0))  # a pulse past spin n
    def test_fuzzed_main_returns_0_1_or_exits_2(self, tmp_path_factory, argv):
        from_file = isinstance(argv[2], SeqText)
        n = int(argv[2].split("\n", 1)[0][3:]) if from_file else 0
        if from_file:
            seq = tmp_path_factory.getbasetemp() / "fuzzed.seq"
            seq.write_text(argv[2])
            argv[2] = str(seq)
        code, out, err = run_main(argv)
        assert code in (0, 1, 2)
        assert NON_FINITE_TEXT.search(out) is None
        if n > cli.TOMO_MAX_QUBITS:  # drawn only with --tomography
            assert (code, out, err.splitlines()[-1:]) == (2, "", [TOMO_CAP_LINE.format(n=n)])
        elif code == 2:
            assert out == ""
            assert (SEQUENCE_ERROR if from_file else USAGE_ERROR).match(err.splitlines()[-1])
            assert len(err.splitlines()[-1]) < 300  # no label of hundreds of digits echoed
        elif argv[0] != "cost" or "json" in argv:
            validate(json.loads(out))
