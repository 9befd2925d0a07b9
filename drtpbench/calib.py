"""Drift-calibrated timing.

The host this benchmark runs on drifts: short slowdown episodes of up
to ~1.7x lasting around a second, and a floor that wanders by ~15%
over a minute.  Raw wall time therefore measures the host as much as
the program.  This module measures the host alongside the program:

* :func:`chunk` is a fixed pure-Python workload (a small Dijkstra plus
  dict/list bookkeeping over a 64-node lattice).  It imports nothing
  from the program, fits in L2 and takes a few milliseconds.
* A :class:`BlockMeter` splits a timed pass into blocks of a fixed
  number of operations (about 50 ms of work each) and runs the chunk
  after every block, with the garbage collector disabled so that
  collections of the program's heap are charged to the program.
* A block's *cost* is its wall time divided by the mean time of the
  two chunks around it.  :func:`calibrated_seconds` takes, per block,
  the median cost over in-process repetitions of the same trace, sums
  over blocks and converts the sum to seconds with the fixed
  :data:`NOMINAL_CHUNK_S`.

Block boundaries fall at fixed operation counts, so block ``i`` covers
the same operations in every repetition and the per-block median
compares like with like.  This module imports nothing from ``repro``.
"""

from __future__ import annotations

import gc
import heapq
import statistics
from time import perf_counter
from typing import Dict, List, Sequence

#: Seconds one chunk is taken to cost; converts calibrated units to
#: seconds.  A constant: changing it rescales every calibrated metric.
NOMINAL_CHUNK_S = 0.006

_SIDE = 8
_NODES = _SIDE * _SIDE


def _lattice() -> List[List[tuple]]:
    """Torus-lattice adjacency with deterministic integer weights."""
    adjacency: List[List[tuple]] = [[] for _ in range(_NODES)]
    for node in range(_NODES):
        row, col = divmod(node, _SIDE)
        for d_row, d_col in ((0, 1), (1, 0), (0, -1), (-1, 0), (1, 1)):
            other = ((row + d_row) % _SIDE) * _SIDE + (col + d_col) % _SIDE
            weight = 1 + (node * 7 + other * 13) % 5
            adjacency[node].append((other, weight))
    return adjacency


_ADJACENCY = _lattice()
#: Distance checksum of one :func:`chunk`; a mismatch means the chunk
#: did not run as written.
_ROUNDS = 100


def _dijkstra(source: int, adjacency) -> Dict[int, int]:
    dist = {source: 0}
    heap = [(0, source)]
    done = set()
    while heap:
        cost, node = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        for other, weight in adjacency[node]:
            new = cost + weight
            if new < dist.get(other, 1 << 30):
                dist[other] = new
                heapq.heappush(heap, (new, other))
    return dist


def chunk() -> int:
    """The fixed calibration workload; returns a checksum."""
    total = 0
    adjacency = _ADJACENCY
    for round_index in range(_ROUNDS):
        dist = _dijkstra((round_index * 11) % _NODES, adjacency)
        counts = [0] * 16
        for node, value in dist.items():
            counts[value & 15] += node
        total += sum(counts) + max(dist.values())
    return total


EXPECTED_CHECKSUM = chunk()


def timed_chunk() -> float:
    """Run one chunk with the collector off; returns its wall time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        checksum = chunk()
        elapsed = perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if checksum != EXPECTED_CHECKSUM:
        raise RuntimeError("calibration chunk returned a wrong checksum")
    return elapsed


class BlockMeter:
    """Splits one timed pass into operation-count blocks with a
    calibration chunk between every two blocks.

    Call :meth:`start` just before the first operation, :meth:`op`
    after every operation (it returns ``True`` when it just closed a
    block, i.e. when a chunk ran), and :meth:`finish` after the last.
    Per-operation latencies recorded with :meth:`sample` are scaled by
    their block's calibration factor in :meth:`calibrated_samples`.
    """

    def __init__(self, block_ops: int, chunk_fn=timed_chunk) -> None:
        if block_ops < 1:
            raise ValueError("block_ops must be positive")
        self.block_ops = block_ops
        self._chunk = chunk_fn
        self.block_seconds: List[float] = []
        self.chunk_seconds: List[float] = []
        #: Index into each samples list where each block starts.
        self._marks: Dict[str, List[int]] = {}
        self._samples: Dict[str, List[float]] = {}
        self._ops = 0
        self._block_started = 0.0

    def track(self, *names: str) -> None:
        """Declare the latency series this meter will record."""
        for name in names:
            self._samples[name] = []
            self._marks[name] = []

    def _mark_block(self) -> None:
        for name, samples in self._samples.items():
            self._marks[name].append(len(samples))

    def start(self) -> None:
        self.chunk_seconds.append(self._chunk())
        self._mark_block()
        self._block_started = perf_counter()

    def sample(self, name: str, seconds: float) -> None:
        self._samples[name].append(seconds)

    def op(self) -> bool:
        self._ops += 1
        if self._ops % self.block_ops:
            return False
        self._close_block()
        return True

    def _close_block(self) -> None:
        self.block_seconds.append(perf_counter() - self._block_started)
        self.chunk_seconds.append(self._chunk())
        self._mark_block()
        self._block_started = perf_counter()

    def finish(self) -> None:
        if self._ops % self.block_ops:
            self._close_block()

    @property
    def ops(self) -> int:
        return self._ops

    def factors(self) -> List[float]:
        """Per-block host-speed factor: mean of the bracketing chunks."""
        chunks = self.chunk_seconds
        return [
            (chunks[i] + chunks[i + 1]) / 2.0
            for i in range(len(self.block_seconds))
        ]

    def block_costs(self) -> List[float]:
        """Per-block cost in chunk units."""
        return [
            block / factor
            for block, factor in zip(self.block_seconds, self.factors())
        ]

    def raw_seconds(self) -> float:
        return sum(self.block_seconds)

    def calibrated_samples(self, name: str) -> List[float]:
        """The named latency series in calibrated seconds."""
        samples = self._samples[name]
        marks = self._marks[name]
        out: List[float] = []
        for index, factor in enumerate(self.factors()):
            scale = NOMINAL_CHUNK_S / factor
            end = marks[index + 1] if index + 1 < len(marks) else len(samples)
            out.extend(value * scale for value in samples[marks[index]:end])
        return out


def calibrated_seconds(block_costs: Sequence[Sequence[float]]) -> float:
    """Median over repetitions of each block's cost, summed over
    blocks, in seconds.  Every repetition must have the same blocks."""
    if not block_costs:
        raise ValueError("need at least one repetition")
    count = len(block_costs[0])
    if any(len(costs) != count for costs in block_costs):
        raise ValueError("repetitions disagree on their block count")
    total = 0.0
    for index in range(count):
        total += statistics.median(costs[index] for costs in block_costs)
    return total * NOMINAL_CHUNK_S


def per_op_median(passes: Sequence[Sequence[float]]) -> List[float]:
    """Operation ``i``'s median latency over passes of the same trace:
    a host hiccup that hit one pass's call does not reach the tail."""
    if any(len(series) != len(passes[0]) for series in passes):
        raise ValueError("passes disagree on their operation count")
    return [statistics.median(values) for values in zip(*passes)]


def latency_metrics(series) -> Dict[str, tuple]:
    """The latency end-to-end metrics from per-pass calibrated
    ``admit``, ``release`` and ``op`` series (seconds), as
    name -> (value, unit)."""
    admit = per_op_median(series["admit"])
    release = per_op_median(series["release"])
    ops = per_op_median(series["op"])
    return {
        "admit_p50_us": (quantile(admit, 0.5) * 1e6, "us"),
        "admit_p99_us": (quantile(admit, 0.99) * 1e6, "us"),
        "release_p50_us": (quantile(release, 0.5) * 1e6, "us"),
        "op_p50_ms": (quantile(ops, 0.5) * 1e3, "ms"),
        "op_p99_ms": (quantile(ops, 0.99) * 1e3, "ms"),
    }


def quantile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (``q`` in [0, 1]) of a non-empty series."""
    if not values:
        raise ValueError("quantile of an empty series")
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(round(q * (len(ordered) - 1)))))
    return ordered[rank]


def ratio_iqr(chunk_seconds: Sequence[float]) -> float:
    """How noisy the host was: IQR of the chunk times over their
    median (0 on a perfectly steady host)."""
    if len(chunk_seconds) < 4:
        return 0.0
    q1, q2, q3 = statistics.quantiles(chunk_seconds, n=4)
    return (q3 - q1) / q2
