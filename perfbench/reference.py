"""The reference job: a fixed amount of pure-Python work that measures how
fast the host runs the interpreter right now.

A shared host changes speed under the benchmark: the 2-CPU host it was
tuned on slows by up to 2x from one second to the next, and the share
of a run it spends slow differs from run to run, so raw wall times of
the same code spread far more than any gate can allow.  The benchmark
therefore times this job right before and right after every entry-point
call and reports the call's wall time rescaled to the speed at which the
job takes :data:`NOMINAL_S`.

The job is independent of the program under test — it imports nothing
from ``repro`` and never changes — so a change to the program moves the
rescaled times in proportion to the raw ones.  It is a small LRU page
cache over a fixed skewed trace: dictionary lookups, ordered-dict moves,
attribute access on small objects and method calls, the same interpreter
operations the simulator spends its time on.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict

#: Wall seconds the job takes at the reference speed; a call that took as
#: long as the job is reported as taking this long.
NOMINAL_S = 0.010

_PAGES = 4_000
_FRAMES = 400
_ACCESSES = 28_000


def _trace() -> list[tuple[int, bool]]:
    rng = random.Random(20_230_401)
    hot = _PAGES // 10
    return [
        (
            rng.randrange(hot) if rng.random() < 0.9 else rng.randrange(_PAGES),
            rng.random() < 0.5,
        )
        for _ in range(_ACCESSES)
    ]


_TRACE = _trace()


class _Frame:
    __slots__ = ("page", "dirty")

    def __init__(self, page: int) -> None:
        self.page = page
        self.dirty = False


class _Cache:
    def __init__(self, frames: int) -> None:
        self.frames = frames
        self.table: dict[int, _Frame] = {}
        self.order: OrderedDict[int, None] = OrderedDict()
        self.hits = 0
        self.dirty_evictions = 0

    def access(self, page: int, write: bool) -> None:
        frame = self.table.get(page)
        if frame is not None:
            self.hits += 1
            self.order.move_to_end(page)
        else:
            if len(self.table) >= self.frames:
                self.evict()
            frame = _Frame(page)
            self.table[page] = frame
            self.order[page] = None
        if write:
            frame.dirty = True

    def evict(self) -> None:
        victim, _ = self.order.popitem(last=False)
        if self.table.pop(victim).dirty:
            self.dirty_evictions += 1


#: Hits and dirty evictions of one job; checked on every run of it so
#: that the job's work cannot silently change.
EXPECTED = (21_122, 4_674)


def run() -> tuple[int, int]:
    cache = _Cache(_FRAMES)
    for page, write in _TRACE:
        cache.access(page, write)
    return cache.hits, cache.dirty_evictions


def timed() -> float:
    """Wall seconds of one run of the job."""
    start = time.perf_counter()
    counts = run()
    elapsed = time.perf_counter() - start
    if counts != EXPECTED:
        raise AssertionError(f"reference job counted {counts}, not {EXPECTED}")
    return elapsed
