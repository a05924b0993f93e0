"""One set-up of a workload in a fresh interpreter, timed from the inside.

Times ``import bspde`` plus generating and loading the workload's inputs and
prints the seconds on stdout.  ``run.py`` starts this several times per run
and reports the median as ``setup_s``.

    python3 bench/setup_probe.py <workload> <seed> <directory>
"""

import os
import sys
import time
from pathlib import Path


def main(argv):
    t0 = time.perf_counter()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import bspde.cli  # noqa: F401
    from bspde.scenario_file import load_scenario

    import workloads
    workload, seed, directory = argv[0], int(argv[1]), Path(argv[2])
    path = workloads.write_inputs(workload, seed, workloads.FULL[workload], directory)
    load_scenario(str(path))
    print(repr(time.perf_counter() - t0))


if __name__ == "__main__":
    main(sys.argv[1:])
