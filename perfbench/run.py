"""End-to-end benchmark of the spinqft CLI.

Run from the root of a spinqft checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --smoke        # one pass per workload, all metrics
    python3 perfbench/run.py --layer-scale  # one-shot in-process layer timings

Every invocation is a fresh ``python -m spinqft.cli ...`` child process,
so each pays for imports and cold caches exactly as a user does.  One
client runs the invocations one after another (a closed loop).  A run
first sets up three times, each time cold: it copies the checkout's
``src`` into a fresh work directory (no ``.pyc``, an empty ``HOME``),
generates the seeded inputs and makes one warm-up pass of every distinct
invocation; ``setup_s`` is the median.  It then repeats the workload's
fixed invocation list for ``--seconds`` on the last set-up's warmed
copy.  Outputs are checked after each child is reaped, outside the
timed interval.

The machine's speed changes from one second to the next, so a child of
fixed reference work (``calibrate.py``) runs between each two measured
invocations and around each set-up.  Every reported time is the measured
time scaled to reference speed by the calibrations just before and after
it; the record also keeps the times as measured.

With ``--trace 1`` passes alternate between plain children and children
started through ``traced_cli.py``, which records per-layer spans; the run
reports the per-layer metrics and the tracing overhead.  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  A fuller record (environment, samples) goes to
``.perfbench/results/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import workloads as wl
from traced_cli import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
TRACED_CLI = os.path.join(HERE, "traced_cli.py")
SPAWN = os.path.join(HERE, "spawn.py")
CALIBRATE = os.path.join(HERE, "calibrate.py")
SETUP_REPEATS = 3
# median time of a calibrate.py child of each kind on the baseline machine
# (README.md); reported times are scaled to a machine on which it takes this long
CALIBRATION_REF_S = {"numpy": 0.35, "python": 0.27}
STATE_DIR = ".perfbench"


@dataclass
class Sample:
    key: str
    traced: bool
    seconds: float
    cpu_s: float
    maxrss_kb: int
    output_bytes: int
    summary: dict | None = None
    scale: float = 1.0      # reference time over the neighbouring calibrations

    def time(self, scaled: bool) -> float:
        return self.seconds * self.scale if scaled else self.seconds


@dataclass
class Setup:
    generate_s: float
    samples: list[Sample]
    scale: float            # reference time over the calibrations around it

    def time(self, scaled: bool) -> float:
        seconds = self.generate_s + sum(s.seconds for s in self.samples)
        return seconds * self.scale if scaled else seconds


class Failure(Exception):
    pass


class Bench:
    """Runs one workload's invocations as child processes and checks them."""

    def __init__(self, root: str, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.invocations = wl.WORKLOADS[workload](seed)
        self.workdir = os.path.join(root, STATE_DIR, f"work-{workload}-{os.getpid()}")
        home = os.path.join(self.workdir, "home")
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.workdir, "src"),
                        HOME=home, XDG_CACHE_HOME=os.path.join(home, ".cache"),
                        SPINQFT_SEED=str(seed))
        self.env.pop("PYTHONPYCACHEPREFIX", None)
        self.reference: dict[str, bytes] = {}
        self.errors: dict[str, list[float]] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.calibration: list[float] = []
        self.calibration_kind = wl.CALIBRATION[workload]
        self.reference_s = CALIBRATION_REF_S[self.calibration_kind]
        import jsonschema

        path = os.path.join(root, "src", "spinqft", "schema", "cli-output.schema.json")
        with open(path) as fh:
            self.validator = jsonschema.Draft202012Validator(json.load(fh))
        # children are started by a small helper process; see spawn.py
        self.spawner = subprocess.Popen([sys.executable, SPAWN], stdin=subprocess.PIPE,
                                        stdout=subprocess.PIPE, text=True, env=self.env)

    # -- set-up ------------------------------------------------------------

    def setup(self) -> Setup:
        """One cold set-up: a fresh copy of ``src`` without ``.pyc`` and an
        empty ``HOME``, then the inputs and one warm-up pass.

        Its time is the seconds spent generating plus the warm-up
        invocations' spawn-to-reap times; the copy and the output checks are
        not counted.  One scale, from the calibrations just before and after
        the set-up, brings it to reference speed.
        """
        shutil.rmtree(self.workdir, ignore_errors=True)
        shutil.copytree(os.path.join(self.root, "src"), os.path.join(self.workdir, "src"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        os.makedirs(self.env["HOME"])
        before = self.calibration[-1] if self.calibration else self.calibrate()
        start = time.perf_counter()
        wl.write_inputs(self.workload, self.workdir)
        generate = time.perf_counter() - start
        samples = [self.invoke(inv, traced=False) for inv in self.invocations]
        return Setup(generate, samples, 2.0 * self.reference_s / (before + self.calibrate()))

    def cleanup(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- one invocation ------------------------------------------------------

    def invoke(self, inv: wl.Invocation, traced: bool) -> Sample:
        stdout_path = os.path.join(self.workdir, "stdout")
        summary_path = os.path.join(self.workdir, "trace.json")
        out_path = os.path.join(self.workdir, inv.out_file) if inv.out_file else ""
        for path in (out_path, summary_path):
            if path and os.path.exists(path):
                os.unlink(path)
        if traced:
            argv = [sys.executable, TRACED_CLI, summary_path, *inv.args]
        else:
            argv = [sys.executable, "-m", "spinqft.cli", *inv.args]
        child = self.spawn(argv, stdout_path)
        self.attempted += 1

        with open(stdout_path, "rb") as fh:
            stdout = fh.read()
        main = stdout
        if out_path:
            with open(out_path, "rb") as fh:
                main = fh.read()
        self._check(inv, child["exit"], stdout, main)
        summary = None
        if traced and os.path.exists(summary_path):
            with open(summary_path) as fh:
                summary = json.load(fh)
        return Sample(inv.key, traced, child["seconds"], child["cpu_s"], child["maxrss_kb"],
                      len(stdout) + (len(main) if out_path else 0), summary)

    def spawn(self, argv: list[str], stdout_path: str) -> dict:
        request = {"argv": argv, "cwd": self.workdir, "stdout": stdout_path}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline()
        if not reply:
            raise Failure("the spawn helper exited")
        return json.loads(reply)

    def calibrate(self) -> float:
        """Spawn-to-reap seconds of one child doing fixed reference work."""
        argv = [sys.executable, CALIBRATE, self.calibration_kind]
        child = self.spawn(argv, os.path.join(self.workdir, "stdout"))
        if child["exit"] != 0:
            raise Failure(f"calibrate.py exited {child['exit']}")
        self.calibration.append(child["seconds"])
        return child["seconds"]

    def _check(self, inv: wl.Invocation, code: int, stdout: bytes, main: bytes) -> None:
        """Exit code, schema, content and byte-identity against earlier passes."""
        try:
            if code != inv.expect_exit:
                raise wl.CheckFailed(f"exit code {code}, expected {inv.expect_exit}")
            seen = stdout + b"\0" + main
            if inv.key in self.reference:
                if seen != self.reference[inv.key]:
                    raise wl.CheckFailed("output differs from the first pass")
                return
            text = main.decode()
            if inv.check in wl.JSON_CHECKS:
                error = next(self.validator.iter_errors(json.loads(text)), None)
                if error is not None:
                    raise wl.CheckFailed(f"schema: {error.message[:200]}")
            self.errors[inv.key] = wl.CHECKS[inv.check](inv, text)
            self.reference[inv.key] = seen
        except (wl.CheckFailed, ValueError, KeyError, TypeError) as exc:
            self.failures.append(f"{inv.key}: {exc}")

    def run_pass(self, traced: bool) -> list[Sample]:
        """One pass over the invocations, with a calibration child between
        each two; a sample's scale comes from the calibrations just before
        and just after it, so it follows the machine's speed at that moment.
        """
        samples = []
        before = self.calibration[-1] if self.calibration else self.calibrate()
        for inv in self.invocations:
            sample = self.invoke(inv, traced)
            after = self.calibrate()
            sample.scale = 2.0 * self.reference_s / (before + after)
            samples.append(sample)
            before = after
        return samples


# -- metrics ------------------------------------------------------------------

def end_to_end(bench: Bench, setups: list[Setup], passes: list[list[Sample]],
               scaled: bool) -> dict:
    """The end-to-end metrics; with ``scaled`` each time is at reference speed."""
    samples = [s for p in passes for s in p]
    return {
        "setup_s": statistics.median(u.time(scaled) for u in setups),
        "wall_s": statistics.median(sum(s.time(scaled) for s in p) for p in passes),
        "latency_p50_s": statistics.median(s.time(scaled) for s in samples),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024.0,
        "accuracy_digits": wl.accuracy_digits([e for v in bench.errors.values() for e in v]),
    }


def per_layer(names: list[str], plain: list[list[Sample]],
              traced: list[list[Sample]]) -> dict:
    """Per-layer metrics: medians over traced passes of per-pass totals.

    The tracing overhead compares each traced pass with the plain pass run
    just before it, both at reference speed, so that changes in machine
    speed over a run cancel.
    """
    per_pass, overheads = [], []
    for before, p in zip(plain, traced):
        totals: dict[str, float] = {}
        for s in p:
            for k, v in (s.summary or {}).items():
                totals[k] = totals.get(k, 0.0) + v
        wall = sum(s.seconds for s in p)
        checks = totals.get("core.unitary_checks", 0)
        totals["core.useful_check_ratio"] = (
            totals.get("core.useful_unitary_checks", 0) / checks if checks else 1.0)
        totals["cli.output_bytes"] = sum(s.output_bytes for s in p)
        attributed = totals.get("cli.import_s", 0.0) + sum(
            totals.get(f"{layer}.self_s", 0.0) for layer in LAYERS)
        totals["trace.unattributed_frac"] = (wall - attributed) / wall
        per_pass.append(totals)
        overheads.append(sum(s.time(True) for s in p) / sum(s.time(True) for s in before) - 1.0)
    missing = set(names) - set().union(*per_pass) - {"trace.overhead_frac"}
    if missing:
        raise Failure(f"the trace produced no value for {sorted(missing)}")
    out = {k: statistics.median(t.get(k, 0.0) for t in per_pass) for k in names}
    out["trace.overhead_frac"] = statistics.median(overheads)
    return out


# -- environment record ----------------------------------------------------------

def environment(root: str, seed: int) -> dict:
    import ctypes
    import glob

    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                threads = getattr(lib, fn)()
                break
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    sha = "unknown"  # an exported checkout has no .git
    if os.path.exists(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"), "threads": threads,
                 "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
                 "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_sha": sha,
        "seed": seed,
        "trace_overhead_frac": None,  # measured by --trace 1 runs
    }


# -- modes -------------------------------------------------------------------------

def load_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    spec["units"] = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return spec


def measure(root: str, spec: dict, workload: str, seed: int, seconds: float,
            trace: bool) -> dict:
    """One benchmark run; returns the full record.

    Passes repeat until the next one would overrun ``seconds``; with
    ``trace`` they alternate plain and traced, starting plain.
    """
    bench = Bench(root, workload, seed)
    try:
        setups = [bench.setup() for _ in range(SETUP_REPEATS)]
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            use_trace = trace and len(traced) < len(plain)
            t0 = time.perf_counter()
            (traced if use_trace else plain).append(bench.run_pass(use_trace))
            last = time.perf_counter() - t0
            if plain and (traced or not trace) and time.perf_counter() - start + last > seconds:
                break
    finally:
        bench.cleanup()
    return make_record(bench, spec, setups, plain, traced, seconds)


def make_record(bench: Bench, spec: dict, setups: list[Setup], plain: list,
                traced: list, seconds: float) -> dict:
    record = {
        "workload": bench.workload, "seed": bench.seed, "seconds": seconds,
        "trace": int(bool(traced)),
        "end_to_end": end_to_end(bench, setups, plain, scaled=True),
        "end_to_end_unscaled": end_to_end(bench, setups, plain, scaled=False),
        "attempted": bench.attempted, "failed": len(bench.failures),
        "failures": bench.failures,
        "latency_samples": sum(len(p) for p in plain),
        "samples": {
            "setup_s": [u.time(False) for u in setups],
            "calibration_s": bench.calibration,
            "passes": [[(s.key, s.traced, round(s.seconds, 6), round(s.cpu_s, 6), s.maxrss_kb,
                         round(s.scale, 6)) for s in p] for p in plain + traced],
        },
    }
    if traced:
        record["per_layer"] = per_layer([m["name"] for m in spec["per_layer"]], plain, traced)
    return record


def result_line(record: dict, spec: dict, trace: bool) -> str:
    metrics = record["per_layer"] if trace else record["end_to_end"]
    return json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": spec["units"][k]} for k, v in metrics.items()},
    })


def describe(record: dict, spec: dict) -> list[str]:
    lines = [f"{record['workload']} seed={record['seed']}: "
             f"{len(record['samples']['passes'])} passes, {record['attempted']} invocations, "
             f"{len(record['samples']['calibration_s'])} calibrations; "
             f"times at reference speed, as measured in brackets"]
    metrics = dict(record["end_to_end"], failed_frac=record["failed"] / record["attempted"])
    for name, value in (*metrics.items(), *record.get("per_layer", {}).items()):
        unit = spec["units"].get(name, "ratio")
        note = (f" ({record['end_to_end_unscaled'][name]:.6g} {unit})"
                if unit == "s" and name in record["end_to_end"] else "")
        if name == "latency_p50_s":
            note += f" (median of {record['latency_samples']} invocations)"
        lines.append(f"  {name:<34} {value:14.6g} {unit}{note}")
    lines += [f"  FAILED {f}" for f in record["failures"]]
    return lines


def write_record(root: str, record: dict) -> None:
    directory = os.path.join(root, STATE_DIR, "results")
    os.makedirs(directory, exist_ok=True)
    name = f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    with open(os.path.join(directory, name), "w") as fh:
        json.dump(record, fh, indent=1)


def smoke(root: str, spec: dict, seed: int) -> int:
    """One set-up and one plain plus one traced pass per workload; check every metric."""
    bad = []
    for workload in [w["name"] for w in spec["workloads"]]:
        bench = Bench(root, workload, seed)
        try:
            setups = [bench.setup()]
            passes = [bench.run_pass(False)], [bench.run_pass(True)]
            record = make_record(bench, spec, setups, *passes, 0.0)
        except Failure as exc:
            bad.append(f"{workload}: {exc}")
            continue
        finally:
            bench.cleanup()
        print("\n".join(describe(record, spec)))
        wanted = {m["name"] for m in spec["end_to_end"]}
        if wanted != set(record["end_to_end"]):
            bad.append(f"{workload}: end-to-end metrics differ from BENCHMARK.json: "
                       f"{sorted(wanted ^ set(record['end_to_end']))}")
        if record["failed"]:
            bad.append(f"{workload}: failed_frac = {record['failed']}/{record['attempted']}")
    for line in bad:
        print(f"SMOKE FAILED {line}", file=sys.stderr)
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one pass per workload, all metrics")
    parser.add_argument("--layer-scale", action="store_true",
                        help="one-shot in-process layer timings at several n")
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "spinqft", "cli.py")):
        print("perfbench: src/spinqft/cli.py not found; run from the root of a spinqft checkout",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    if args.smoke:
        return smoke(root, spec, args.seed)
    if args.layer_scale:
        import layer_scale
        print(json.dumps(layer_scale.run(root), indent=1))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    try:
        record = measure(root, spec, args.workload, args.seed, args.seconds, bool(args.trace))
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    record["environment"] = environment(root, args.seed)
    if args.trace:
        record["environment"]["trace_overhead_frac"] = record["per_layer"]["trace.overhead_frac"]
    write_record(root, record)
    print("\n".join(describe(record, spec)))
    print("environment " + json.dumps(record["environment"], sort_keys=True))
    print(result_line(record, spec, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
