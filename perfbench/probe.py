"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared machine the speed of this library's code drifts by 15-30 %
between runs a few minutes apart, with CPU time tracking wall time, which no
median inside one run can remove.  So every pass runs this kernel after its
set-up and between its items, and run.py multiplies the pass's times by
``REFERENCE_MS / median(kernel times)``: they become times at the speed
where the kernel takes ``REFERENCE_MS``.

The kernel is the benchmark's own code, so a change to the library does not
change it.  Like the library, it is half small-matrix numpy calls (F_2 row
reduction of fixed 7x11 matrices, written like ``auskit.ffmat.rref``) and
half interpreter work on tuples and dicts; the two halves drift differently
with the machine, and the library's time follows their mix.
"""

import time

import numpy as np

# The kernel's median time over 1281 runs spread across 40 minutes of
# benchmark runs on the machine the bounds were set on (2-CPU Intel Xeon,
# Python 3.11.7, numpy 2.4.6).
REFERENCE_MS = 17.4

_MATRICES = [np.random.default_rng(0).integers(0, 2, (7, 11)) for _ in range(60)]


def _rref2(a):
    r = a.copy()
    m, n = r.shape
    row = 0
    for col in range(n):
        if row == m:
            break
        nz = np.nonzero(r[row:, col])[0]
        if nz.size == 0:
            continue
        piv = row + int(nz[0])
        if piv != row:
            r[[row, piv]] = r[[piv, row]]
        colv = r[:, col].copy()
        colv[row] = 0
        others = np.nonzero(colv)[0]
        if others.size:
            r[others] = (r[others] - np.outer(r[others, col], r[row])) % 2
        row += 1
    return r


def _tuples_and_dicts():
    d = {}
    for i in range(24000):
        k = (i % 97, i % 13, "x")
        d[k] = d.get(k, 0) + len(k)
    return len(d)


def probe_ms():
    """Time of one run of the reference kernel, in ms."""
    t0 = time.perf_counter()
    for a in _MATRICES:
        _rref2(a)
    _tuples_and_dicts()
    return (time.perf_counter() - t0) * 1e3
