"""Correction for the drift of the machine's speed.

On a shared machine the interpreter's speed drifts by tens of percent
over seconds and minutes, and the drift slows the program and any other
Python code alike.  The benchmark therefore times a fixed loop of
interpreter work while it measures, and scales each measured time by
REFERENCE_S / (the loop's median time during the same block of work).
Times are thus reported at the speed at which the loop takes
REFERENCE_S, about its typical time on the machine of record; raw times
are printed alongside.  The loop is part of the benchmark, so no change
to the program can move it.

During a measured block the loop runs from a SIGALRM handler every
EVERY_S of wall time, so its samples interleave with the program's own
work even inside one long command; the time spent in the handler is
taken out of the measured times.  This module imports nothing but
``time`` at load, so loading it before ``alquot`` leaves alquot's import
time unchanged.
"""

from time import perf_counter

LOOPS = 4_000
REFERENCE_S = 0.001
EVERY_S = 0.05


def loop_seconds() -> float:
    """Wall time of one pass of the fixed loop."""
    start = perf_counter()
    acc, table = 0, {}
    for i in range(LOOPS):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 1023] = (acc, i)
    return perf_counter() - start


def loop_samples(n: int) -> list[float]:
    return [loop_seconds() for _ in range(n)]


def scale(samples: list[float]) -> float:
    """Factor that turns times measured alongside ``samples`` into times
    at the reference speed."""
    ordered = sorted(samples)
    middle = len(ordered) // 2
    median = ordered[middle] if len(ordered) % 2 else (ordered[middle - 1] + ordered[middle]) / 2
    return REFERENCE_S / median


class Sampler:
    """Runs the loop from a SIGALRM handler every EVERY_S while active.

    ``samples`` holds the loop times; ``spent`` is the wall time spent in
    the handler, which callers subtract from what they measure.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _handler(self, signum, frame) -> None:
        start = perf_counter()
        self.samples.append(loop_seconds())
        self.spent += perf_counter() - start

    def __enter__(self) -> "Sampler":
        import signal

        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
