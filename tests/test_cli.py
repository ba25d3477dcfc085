"""Command-line interface: exit codes, outputs, schema, determinism."""

import argparse
import json
import os
import stat
import subprocess
import sys
import threading
from importlib import resources

import jsonschema
import pytest

from spinqft import cli


SCHEMA = json.loads(
    resources.files("spinqft.schema").joinpath("cli-output.schema.json").read_text())


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(doc):
    jsonschema.validate(doc, SCHEMA)


class TestVerify:
    @pytest.mark.parametrize("decomp", ["serial", "parallel"])
    def test_exit_zero_and_schema(self, decomp, capsys):
        code, out, _ = run_cli(["verify", "--n", "3", "--decomp", decomp], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["passed"] and doc["max_deviation"] < 1e-10

    def test_n_cap_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--n", "99"])
        assert exc.value.code == 2

    def test_approximate_with_cutoff_fails_verification(self, capsys):
        code, out, _ = run_cli(["verify", "--n", "4", "--decomp", "approximate",
                                "--m", "1"], capsys)
        assert code == 1
        doc = json.loads(out)
        validate(doc)
        assert not doc["passed"]


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
        for row in rows:
            assert row["swap_term"] == pytest.approx(2 * row["n"] * 1e-7, rel=1e-12)

    def test_invalid_range_is_usage_error(self):
        for bad in ("5..2", "0..3", "nonsense"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["cost", "--model", "liquid", "--n-range", bad])
            assert exc.value.code == 2

    def test_solid_requires_parameters(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cost", "--model", "solid", "--n-range", "1..3"])
        assert exc.value.code == 2

    def test_range_above_the_cap_is_rejected_before_it_is_built(self):
        top = cli.N_RANGE_MAX
        assert cli._parse_range(f"{top}..{top}") == (top,)
        with pytest.raises(argparse.ArgumentTypeError, match=str(top)):
            cli._parse_range(f"1..{top + 1}")

    def test_cost_loads_no_matrix_layer(self, tmp_path):
        # a fresh interpreter: this test process has imported everything
        code = ("import sys\n"
                "from spinqft import cli\n"
                "assert cli.main(['cost', '--model', 'solid', '--d', '2e7', '--Delta', '1e-7',\n"
                "                 '--n-range', '1..5', '--format', 'json']) == 0\n"
                "heavy = {'numpy', 'spinqft.core', 'spinqft.circuits', 'spinqft.nmr',\n"
                "         'spinqft.tomography'}\n"
                "print(sorted(heavy & set(sys.modules)))\n")
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                              capture_output=True, text=True, check=True, timeout=60)
        assert done.stdout.splitlines()[-1] == "[]"


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

    def test_unknown_sequence_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--sequence", "nonsense"])
        assert exc.value.code == 2

    def test_directory_as_sequence_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--sequence", str(tmp_path)])
        assert exc.value.code == 2

    def test_sequence_from_file(self, capsys, tmp_path):
        path = tmp_path / "mini.seq"
        path.write_text("n: 2\n90y@s1,s2 180x@s1,s2\n90x@t3-4\nz45@s1\n")
        code, out, _ = run_cli(["simulate", "--sequence", str(path)], capsys)
        assert code == 0
        assert json.loads(out)["fidelity_report"]["fidelity"] >= 0.999

    def test_parse_error_reports_position(self, capsys, tmp_path):
        path = tmp_path / "broken.seq"
        path.write_text("n: 2\n90q@s1\n")
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--sequence", str(path)])
        assert exc.value.code == 2
        assert "line 2" in capsys.readouterr().err

    def test_no_reverse_readout_changes_nothing_on_flat_target(self, capsys):
        # the transform of |0...0> is reversal-invariant, so both readouts agree
        _, a, _ = run_cli(["simulate", "--sequence", "serial-n2"], capsys)
        _, b, _ = run_cli(["simulate", "--sequence", "serial-n2",
                           "--no-reverse-readout"], capsys)
        fa = json.loads(a)["fidelity_report"]["fidelity"]
        fb = json.loads(b)["fidelity_report"]["fidelity"]
        assert fa == pytest.approx(fb, abs=1e-12)


class TestTomoRoundtrip:
    def test_passes_at_tolerance(self, capsys):
        code, out, _ = run_cli(["tomo-roundtrip", "--n", "2", "--samples", "10"], capsys)
        assert code == 0
        doc = json.loads(out)
        validate(doc)
        assert doc["max_error"] <= 1e-8

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("SPINQFT_SEED", "123")
        _, out, _ = run_cli(["tomo-roundtrip", "--n", "2", "--samples", "2"], capsys)
        assert json.loads(out)["seed"] == 123

    @pytest.mark.parametrize("samples", ["0", "-1"])
    def test_samples_below_one_is_usage_error(self, samples, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["tomo-roundtrip", "--n", "2", "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "spinqft: error: --samples must be >= 1"


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
    ])
    def test_rejected_as_usage_error(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # in particular no NaN or Infinity
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("spinqft: error: ")


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
        with pytest.raises(SystemExit) as exc:
            cli.main(self.ARGS + [str(tmp_path / target)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Traceback" not in captured.err
        assert captured.err.splitlines()[-1].startswith("spinqft: error: --out ")
        assert not (tmp_path / "missing").exists()

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
