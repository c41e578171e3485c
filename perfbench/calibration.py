"""Machine-speed calibration for the benchmark's timings.

On a shared host the speed of one core drifts by tens of percent over minutes,
as neighbours come and go.  The benchmark times a fixed pure-Python loop just
before each timed piece of work and reports ``CALIBRATION_REF_S * work / loop``:
the ratio cancels the drift, and the constant keeps the unit seconds.  This
module imports nothing heavy, so that a child process can calibrate before its
set-up is timed.
"""

import time

#: iterations of the calibration loop (about 0.09 s on a 2-vCPU x86-64 VM)
CALIBRATION_LOOPS = 800_000
#: calibration-loop time that timings are scaled to, so that they read in
#: seconds on a machine as fast as that VM
CALIBRATION_REF_S = 0.09


def calibrate() -> float:
    """Wall seconds of a fixed pure-Python loop: the machine's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i * i % 7
    return time.perf_counter() - start


def scaled(seconds: float, calibration_s: float) -> float:
    """``seconds`` of work, as it would take on the reference machine."""
    return CALIBRATION_REF_S * seconds / calibration_s
