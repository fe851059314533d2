"""Time one fresh-process set-up of a benchmark workload.

Imports ``reducto`` from the checkout's ``src/``, builds the workload's
setups and initial parameters, and prints the seconds that took, then the
median seconds of run.py's calibration kernel in this same process.  run.py
starts this script several times per run and reports the median of the
set-up times, each scaled to reference speed by its own kernel time, as
``setup_s``.

    python3 perfbench/setup_probe.py <workload> <setup> [<setup> ...]
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def main() -> int:
    workload, setups = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, SRC)
    from time import perf_counter

    t0 = perf_counter()
    import reducto
    from reducto import driver, learner

    if workload == "learn-loop":
        import reducto.cli  # noqa: F401  (the workload's ops enter through the CLI)
    for name in setups:
        driver.make_setup(name)
    learner.init_params()
    elapsed = perf_counter() - t0
    if not os.path.abspath(reducto.__file__).startswith(SRC + os.sep):
        print(f"reducto imported from {reducto.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import statistics

    from run import calibration_kernel

    kernel = statistics.median(calibration_kernel() for _ in range(3))
    print(repr(elapsed), repr(kernel))
    return 0


if __name__ == "__main__":
    sys.exit(main())
