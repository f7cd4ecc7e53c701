"""A fixed reference kernel that reads the host's current speed.

On a shared host the same code runs up to 1.5-2x slower for stretches of
seconds to minutes, and CPU time slows with wall time, so neither clock
separates the program from its neighbours.  The benchmark therefore runs
this kernel right before and right after every timed job and reads the
job's latency against it:

    normalised latency = latency * PROBE_REF_S / mean(probe before, probe after)

The kernel touches nothing of ``nongauss``, so a change to the program
moves the normalised latency exactly as it moves the raw one; only the
host's speed cancels.  It mixes the three kinds of work the workloads do:
pure-Python recursion over tuples and dicts (the Wick backend), small
``expm``/``eigvalsh`` calls (the Fock kets) and complex matrix products too
large for the core's own caches (the channel densities).  Each part alone
tracked one workload and missed another: a kernel without the large
products, for one, read the host as fast while ``dense-channels`` ran slow.
"""

from time import perf_counter

import numpy as np
import scipy.linalg

# About the kernel's fastest time on a 2-vCPU Xeon at 2.1 GHz.  It only
# sets the scale: normalised timings read as seconds on such a host.
PROBE_REF_S = 0.020

_rng = np.random.default_rng(0)
_SMALL = 0.05 * _rng.standard_normal((40, 40))
_SMALL_SYM = _SMALL + _SMALL.T
_DENSE = _rng.standard_normal((400, 400)) + 1j * _rng.standard_normal((400, 400))


def _python_work():
    memo = {}

    def walk(k):
        if k < 2:
            return (k,)
        key = (k % 97, k // 97)
        if key in memo and k % 3:
            return memo[key]
        found = tuple(sorted(walk(k - 1) + walk(k // 2)))[:4]
        memo[key] = found
        return found

    for i in range(4000):
        walk(i % 200 + 2)


def probe():
    """Seconds the reference kernel takes now."""
    start = perf_counter()
    _python_work()
    for _ in range(25):
        scipy.linalg.expm(_SMALL)
        np.linalg.eigvalsh(_SMALL_SYM)
    for _ in range(2):
        _DENSE @ _DENSE
    return perf_counter() - start


def warm_up(times=5):
    for _ in range(times):
        probe()
