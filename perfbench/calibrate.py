"""A fixed reference computation that measures the machine's current speed.

The benchmark runs on shared machines whose speed drifts by tens of percent
within seconds.  The runner times this slice between cycles of operations
and scales each operation's time by REFERENCE_SLICE_S over the slice's time
around that operation.  Reported times are therefore in units of a fixed
machine speed: the speed at which one slice takes REFERENCE_SLICE_S, close
to an uncontended 2-vCPU Xeon (Sapphire Rapids) virtual machine under
CPython 3.11.  The slice does the kinds of work the program does (big modular
powers, tuple and dict allocation, and an F_p scan of a sparse polynomial)
and shares no code with it, so a change to the program cannot move it.
"""

from __future__ import annotations

import time

REFERENCE_SLICE_S = 0.007


def reference_slice() -> float:
    """Seconds taken by one fixed slice of pure-Python integer work (~7 ms)."""
    t0 = time.perf_counter()
    m = (1 << 127) - 1
    x = 12345
    for i in range(1, 700):
        x = pow(x, 65537, m)
        _ = {(i, x & 255): x}
    terms = ((0, 11), (3, 17), (7, 5))
    roots = 0
    for z in range(1, 1500):
        roots += sum(c * pow(z, e, 10007) for e, c in terms) % 10007 == 0
    return time.perf_counter() - t0
