"""Set-up probe: time one workload's set-up in a fresh interpreter.

Prints the seconds taken by ``import repro`` plus the workload's set-up
(config resolution and ``Session``/store/spec construction), the cost a
user pays before the first experiment is submitted: as measured, then
at the reference host speed (see ``hostclock.py``).  Started by
``run.py``; ``--scratch`` is where a store may be created.
"""

import argparse
import sys
import time
from pathlib import Path

import suite
from hostclock import HostClock

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(SRC))
    bench = suite.make(args.workload, args.seed, None)
    clock = HostClock()
    with clock.sampling() as window:
        start = time.perf_counter()
        import repro  # noqa: F401  (timed: the import is part of set-up)

        state = bench.setup(args.scratch)
        elapsed = time.perf_counter() - start
    bench.close(state)
    print(repr(elapsed), repr(window.reference_s(elapsed)))


if __name__ == "__main__":
    main()
