"""One-shot layer timings at several n (not a gated workload).

Each probe runs in a fresh child process and times one in-process call,
so no ``lru_cache`` carries over between probes.  The probes reproduce the
layer table of the roadmap's first aim.  Usage, from the checkout root:

    python3 perfbench/run.py --layer-scale
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

REPEATS = 3
PROBES = [
    ("circuit_unitary(build_serial(n))", 8),
    ("circuit_unitary(build_serial(n))", 9),
    ("circuit_unitary(build_serial(n))", 10),
    ("verify_against_oracle(build_parallel(n))", 10),
    ("dft_oracle(n)", 10),
    ("dft_oracle(n)", 11),
    ("tomography.design_matrix(n)", 3),
    ("tomography.design_matrix(n)", 4),
    ("nmr.run(serial-n3), noiseless", 3),
    ("nmr.run(serial-n3), T2 = 0.05 s", 3),
]


def probe(name: str, n: int) -> float:
    """Seconds for one call of the named probe, measured in this process."""
    from spinqft import circuits, core, nmr, tomography

    if name.startswith("nmr.run"):
        seq = nmr.library_sequence("serial-n3")
        system = nmr.system_for_sequence(seq)
        rho = nmr.pseudopure_projector_deviation(n)
        noise = nmr.NoiseModel.uniform(n, 1 / 0.05) if "T2" in name else None
        calls = {name: lambda: nmr.run(seq, system, rho, noise)}
    else:
        calls = {
            "circuit_unitary(build_serial(n))":
                lambda: circuits.circuit_unitary(circuits.build_serial(n)),
            "verify_against_oracle(build_parallel(n))":
                lambda: circuits.verify_against_oracle(circuits.build_parallel(n)),
            "dft_oracle(n)": lambda: core.dft_oracle(n),
            "tomography.design_matrix(n)": lambda: tomography.design_matrix(n),
        }
    start = time.perf_counter()
    calls[name]()
    return time.perf_counter() - start


def run(root: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    rows = []
    for name, n in PROBES:
        times = []
        for _ in range(REPEATS):
            out = subprocess.run([sys.executable, os.path.abspath(__file__), name, str(n)],
                                 env=env, cwd=root, capture_output=True, text=True, check=True)
            times.append(float(out.stdout))
        rows.append({"layer": name, "n": n, "median_s": statistics.median(times),
                     "min_s": min(times), "repeats": REPEATS})
    return {"layer_scale": rows}


if __name__ == "__main__":
    print(repr(probe(sys.argv[1], int(sys.argv[2]))))
    sys.exit(0)
