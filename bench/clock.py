"""Wall-clock timings rescaled to a fixed machine speed.

The benchmark runs on shared hosts whose effective CPU speed drifts by a
third or more within seconds as neighbours come and go (on the 2-core
development host a fixed pure-Python loop alternated between about 60 and
85 ms on a 20-30 s period).  Raw run-to-run spreads of every timing were
20-40%, wider than any useful regression bound.

So every timed stretch is bracketed by a short, program-independent
reference, and a stretch's seconds are multiplied by ``nominal /
reference``, using the mean of the two reference samples around it: the
reported value is what the stretch would have taken at the speed where the
reference takes exactly its nominal time.  Neither reference touches
eulerfan, so a change to the program moves the scaled times exactly as it
moves the raw ones.

Two references, matched to two kinds of work:

- ``INTERPRETER``: a 4000-step pure-Python kernel (calls, small objects,
  attribute access, float arithmetic and libm), for work done inside the
  benchmark's own interpreter;
- ``PROCESS``: a fresh interpreter that imports numpy, for work that starts
  interpreters (the ``cli`` workload, set-up).  Process start-up slows
  differently from a hot loop; over 6 s windows it tracked CLI invocations
  to 2% where the interpreter kernel tracked them to 7%.
"""

from __future__ import annotations

import math
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a = a
        self.b = b


def _step(p: _Pair, i: int) -> _Pair:
    return _Pair(p.b, math.sqrt(p.a * p.a + i) * 0.5 + math.log(1.0 + p.b))


def interpreter_seconds() -> float:
    """Seconds one run of the pure-Python reference kernel takes now."""
    start = perf_counter()
    p = _Pair(1.0, 2.0)
    for i in range(4000):
        p = _step(p, i)
    return perf_counter() - start


def process_seconds() -> float:
    """Seconds a fresh interpreter takes now to start and import numpy."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL, check=True)
    return perf_counter() - start


@dataclass(frozen=True)
class Reference:
    measure: Callable[[], float]
    nominal: float  # seconds at the nominal speed
    interval: float  # take a sample at least this often while timing

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.nominal / (0.5 * (before + after))


INTERPRETER = Reference(interpreter_seconds, nominal=2.0e-3, interval=0.1)
PROCESS = Reference(process_seconds, nominal=0.12, interval=1.0)


class ScaledClock:
    """Segments of a timed run, each bracketed by reference samples.

    ``tick()`` between items takes a new reference sample once the
    reference's interval has passed and starts a new segment; ``segment`` is
    the index that items timed now belong to.  ``close()`` takes the final
    sample.  Reference time is never part of a segment's own time.
    """

    def __init__(self, reference: Reference = INTERPRETER):
        self.reference = reference
        self.samples = [reference.measure()]
        self.segment_seconds = [0.0]
        self._segment_start = perf_counter()

    @property
    def segment(self) -> int:
        return len(self.samples) - 1

    def tick(self) -> None:
        now = perf_counter()
        if now - self._segment_start >= self.reference.interval:
            self.segment_seconds[-1] += now - self._segment_start
            self.samples.append(self.reference.measure())
            self.segment_seconds.append(0.0)
            self._segment_start = perf_counter()

    def close(self) -> None:
        self.segment_seconds[-1] += perf_counter() - self._segment_start
        self.samples.append(self.reference.measure())

    def scaled(self, seconds: float, segment: int) -> float:
        return self.reference.scale(seconds, self.samples[segment], self.samples[segment + 1])

    def scaled_so_far(self) -> float:
        """Scaled seconds up to now; the open segment uses its first sample."""
        closed = sum(self.scaled(s, i) for i, s in enumerate(self.segment_seconds[:-1]))
        last = self.samples[-1]
        return closed + self.reference.scale(perf_counter() - self._segment_start, last, last)

    def scaled_total(self) -> float:
        return sum(self.scaled(s, i) for i, s in enumerate(self.segment_seconds))

    def raw_total(self) -> float:
        return sum(self.segment_seconds)
