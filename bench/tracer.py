"""Per-layer times and call counts, taken around the benchmark's calls into rvsketch.

The timing is done by the benchmark's own code, never inside the library:
each call into a library layer adds its time.perf_counter duration and one
call to a running total kept under the layer's name.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter
from typing import Dict, Tuple


class Tracer:
    """Sums time and calls per name when enabled; otherwise calls pass straight through."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.reset()

    def reset(self) -> None:
        self.secs: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)

    def call(self, name: str, fn, *args):
        """fn(*args), timed under `name` when tracing."""
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self.secs[name] += perf_counter() - start
            self.calls[name] += 1

    def busy(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Total seconds and number of calls, per name."""
        return dict(self.secs), dict(self.calls)
