"""CPU time scaled to a nominal host by a reference kernel.

On a shared host the same work can take 30% more CPU time for a minute at a
time: neighbours on the same physical core or cache slow every instruction,
and the kernel counts that as the process's own time, not as steal.  The
benchmark therefore runs a fixed reference kernel between measured pieces of
work and scales each piece's CPU time by ``REF_NOMINAL_S / ref``, where
``ref`` is the mean CPU time of the two reference runs either side of it.

The kernel copies the shape of the program's hot loop (an eigendecomposition
of a stack of nine 3x3 Hermitian matrices, an ``einsum`` contraction and a
norm, one small array per call) plus a JSON round trip, using only numpy and
the standard library, so that no change to the program changes it.
"""

from __future__ import annotations

import json
import resource
import time

import numpy as np

# CPU time of one reference run on an unloaded 2-core Xeon VM (the scale of
# every normalized time; comparisons between runs do not depend on it).
REF_NOMINAL_S = 0.05
REF_STEPS = 400


def cpu_seconds() -> float:
    """CPU time of this process's threads and of its finished children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _reference_inputs():
    rng = np.random.default_rng(0)
    y = rng.standard_normal((9, 3, 3)) + 1j * rng.standard_normal((9, 3, 3))
    cexp = rng.standard_normal((9, 3, 3)) + 0j
    j = np.eye(3, dtype=complex)
    doc = {"entries": [[float(x), float(-x)] for x in rng.standard_normal(24)]}
    return y, cexp, j, doc


_Y, _CEXP, _J, _DOC = _reference_inputs()


def reference_kernel() -> float:
    """CPU seconds of one run of the fixed reference work."""
    c0 = cpu_seconds()
    y = _Y
    for _ in range(REF_STEPS):
        h = (y + y.conj().transpose(0, 2, 1)) / 2.0
        w, v = np.linalg.eigh(h)
        cone = (v * np.clip(w, 0.0, None)[:, None, :]) @ v.conj().transpose(0, 2, 1)
        r = np.einsum("mij,mij->ij", _CEXP, cone) - _J
        float(np.linalg.norm(r))
        json.loads(json.dumps(_DOC))
        acc = 0
        for i in range(100):
            acc += i * i
    return cpu_seconds() - c0


class HostClock:
    """Measures pieces of work, each followed by one reference run."""

    def __init__(self, kernel=reference_kernel):
        self.kernel = kernel
        self.refs = [kernel()]

    def measure(self, fn):
        """Run ``fn()``; return its result (or the exception it raised), its
        wall seconds and its CPU seconds."""
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out = fn()
        except Exception as exc:  # the caller decides what a raise means
            out = exc
        wall, cpu = time.perf_counter() - t0, cpu_seconds() - c0
        self.refs.append(self.kernel())
        return out, wall, cpu

    def mark(self) -> int:
        """A phase starts here: the index of the reference run before it."""
        return len(self.refs) - 1

    def scale(self, mark: int) -> float:
        """Factor from CPU to normalized seconds for the phase since ``mark``."""
        refs = self.refs[mark:]
        return REF_NOMINAL_S * len(refs) / sum(refs)
