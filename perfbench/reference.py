"""A fixed reference kernel that measures how fast the machine runs right now.

A shared host runs this benchmark 10-60% slower for stretches of seconds to
minutes.  While the untraced passes run, ``Sampler`` times this kernel every
quarter second, from a timer signal, and skips the ticks that fall outside
a timed op, so its samples spread evenly over the same stretches as the
timed ops, long ops included.
The gated pass metric is the mean pass time divided by the mean kernel
time, so a stretch that slows both cancels out.  The kernel's own time is
kept out of the op times.

The kernel mixes what mapgroups spends its time on: an interpreted loop,
many numpy calls on small arrays, a dense SVD and an einsum contraction.
Its inputs are fixed and it never calls mapgroups, so a change to the
program does not move it.
"""

from __future__ import annotations

import contextlib
import signal
import time

import numpy as np

_rng = np.random.default_rng(20221003)
_MATRIX = _rng.standard_normal((200, 200))
_TENSOR = _rng.standard_normal((64, 64, 16))
_SMALL = _rng.standard_normal(50)


def _kernel() -> float:
    acc = 0
    for i in range(75_000):
        acc += i * i % 7
    x = _SMALL.copy()
    for _ in range(4_000):
        x = np.sin(x) * 0.5 + 1.0
    s = np.linalg.svd(_MATRIX, compute_uv=False)
    t = np.einsum("ijk,jl->ilk", _TENSOR, _MATRIX[:64, :64])
    return acc + float(x.sum() + s[0] + t[0, 0, 0])


class Sampler:
    """Times the kernel on each tick, once per ``every`` seconds, that
    falls while ``running()`` and while ``counting`` is set.

    The timer signal's handler runs the kernel in the main thread between
    two bytecodes of whatever op is running; ``paused_s`` sums the wall
    time spent in the handler, so a caller can subtract it from an op."""

    def __init__(self, every: float):
        self.every = every
        self.counting = False
        self.times: list[float] = []
        self.paused_s = 0.0

    def _sample(self, *_) -> None:
        if not self.counting:
            signal.setitimer(signal.ITIMER_REAL, self.every)
            return
        start = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.times.append(end - start)
        self.paused_s += end - start
        # One-shot timer, re-armed after the kernel, so samples never queue.
        signal.setitimer(signal.ITIMER_REAL, self.every)

    @contextlib.contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        try:
            signal.setitimer(signal.ITIMER_REAL, self.every)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
