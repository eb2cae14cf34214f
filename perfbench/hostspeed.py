"""How fast the host runs plain Python code right now.

The benchmark's CPUs are shared with other tenants, and over seconds to
minutes the same code runs up to 2x slower or faster (measured on a
2-vCPU share: a fixed loop's rate moved by 1.8x between two-second
windows with no scheduling gaps, so the slowdown is in the CPU, not in
the time slices).  A run that catches a slow phase reads slow on every
verdict.  So each timed piece of work is framed by `calibrate()`, a
fixed pure-Python loop of about 2 ms, and its time is scaled by
`scale()`: REFERENCE_S over the loop's time next to it.  A scaled time
is the time the work would take on a host that runs the loop in
REFERENCE_S.  It moves 1:1 with the work the program does, and no change
to the program can move the loop, which runs only benchmark code.
"""

import time

LOOPS = 20000

# The loop's time on a quiet 2-vCPU Haswell-class share; it only fixes the unit.
REFERENCE_S = 0.002


def calibrate():
    """Seconds that a fixed integer-and-dict loop takes now."""
    start = time.perf_counter()
    acc = 0
    slots = {}
    for i in range(LOOPS):
        acc += (i * i) % 7
        slots[i & 63] = acc
    return time.perf_counter() - start


def scale(*loop_seconds):
    """Factor that turns a time measured next to these loop times into reference seconds."""
    return REFERENCE_S * len(loop_seconds) / sum(loop_seconds)
