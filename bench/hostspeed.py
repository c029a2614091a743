"""Host speed, measured with a fixed calibration kernel.

The benchmark runs on a share of a machine whose speed drifts: the same code
ran 40% faster in one set of runs than in another set half an hour later,
and its speed moves by 10% to 20% within a minute. Process CPU time drifts
with wall time, so the drift is contention for the hardware, not time spent
descheduled. A `Stopwatch` therefore times this kernel right before and
right after every timed piece of work (a set-up, a `train`, an `evaluate`,
one CLI command) and scales the piece's time to what it would have taken on
a host that runs the kernel in `REFERENCE_S`. The kernel does what dualrel's
steps do: small GEMMs, row-wise softmax arithmetic and Python-level loops
over small containers. It never calls dualrel, so a change to the program
moves the scaled times and leaves the kernel alone.
"""

import contextlib
import gc
import statistics
import time

import numpy as np

# Median kernel time on the host the benchmark was tuned on (2 vCPUs of an
# Intel Xeon under KVM, one OpenBLAS thread). It only sets the scale: two
# runs compare by the ratio of their scaled times.
REFERENCE_S = 0.0076
KERNEL_ROUNDS = 40
SAMPLES = 7

_RNG = np.random.default_rng(0)
_ROWS = _RNG.normal(size=(216, 64))
_WEIGHTS = _RNG.normal(size=(64, 64)) * 0.1


def kernel():
    total = 0.0
    for _ in range(KERNEL_ROUNDS):
        hidden = np.maximum(_ROWS @ _WEIGHTS, 0.0)
        shifted = np.exp(hidden - hidden.max(axis=1, keepdims=True))
        total += float((shifted / shifted.sum(axis=1, keepdims=True)).sum())
        total += sum([j * 0.5 for j in range(200)])
        total += len({str(j): j for j in range(50)})
    return total


def sample(clock=time.perf_counter):
    """Median wall time of the kernel over a few back-to-back runs.

    The collector is run first and held off while the kernel runs: a full
    collection over the objects a unit left behind would otherwise land in
    some samples and not in others.
    """
    gc.collect()
    gc.disable()
    try:
        times = []
        for _ in range(SAMPLES):
            started = clock()
            kernel()
            times.append(clock() - started)
    finally:
        gc.enable()
    return statistics.median(times)


def factor(before, after):
    """Scale for a time taken between two kernel samples: > 1 on a fast host."""
    return REFERENCE_S / ((before + after) / 2.0)


class Stopwatch:
    """Times named pieces of work into `out["wall"]` and, when it has a
    sampler, their host-scaled times into `out["scaled"]`.

    One kernel sample sits between consecutive pieces, so each piece is
    scaled by the samples right before and right after it. Traced runs pass
    `sampler=None`: they report wall times only.
    """

    def __init__(self, sampler=sample, clock=time.perf_counter):
        self.sampler = sampler
        self.clock = clock
        self.last = None

    @contextlib.contextmanager
    def piece(self, out, name):
        if self.sampler and self.last is None:
            self.last = self.sampler()
        started = self.clock()
        yield
        elapsed = self.clock() - started
        out.setdefault("wall", {})[name] = elapsed
        if self.sampler:
            before, self.last = self.last, self.sampler()
            out.setdefault("scaled", {})[name] = elapsed * factor(before, self.last)
