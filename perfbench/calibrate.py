"""Fixed reference work that measures how fast the machine is right now.

``run.py`` starts this script as a child, the same way it starts a
CLI invocation, between the invocations it measures.  It imports numpy,
as every CLI child does, and runs a pure-Python double loop and
dictionary updates.
With the argument ``numpy`` it then repeats a complex matrix product,
which BLAS spreads over the cores, as the matrix workloads do; with
``python`` it stops there, as the pure-Python workload would.  It never
imports spinqft, so no change to the package moves its time; only the
speed that a shared machine gives the benchmark does.  It prints a
checksum so that a broken run shows.

    python3 perfbench/calibrate.py numpy|python
"""

import sys

import numpy as np

KINDS = ("numpy", "python")


def main(kind: str) -> None:
    total = 0
    for n in range(1, 400):
        for m in range(1, n + 1):
            total += m * (m + 1) // 2
    counts: dict[int, float] = {}
    for i in range(150_000):
        counts[i % 977] = counts.get(i % 977, 0.0) + i * 0.5
    if kind == "python":
        print(total, round(sum(counts.values())))
        return
    rng = np.random.default_rng(0)
    a = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
    b = a
    for _ in range(16):
        b = (a @ b) / 16.0
    print(total, round(sum(counts.values())), f"{abs(b).max():.3e}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in KINDS:
        sys.exit(__doc__.rsplit("\n\n", 1)[1].strip())
    main(sys.argv[1])
