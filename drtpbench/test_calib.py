"""Tests of the drift-calibrated estimator on synthetic hosts.

Run with ``python3 -m pytest drtpbench/test_calib.py`` or
``python3 drtpbench/test_calib.py`` from the root of a checkout.

A synthetic host multiplies every duration by its current speed
factor: a floor that drifts by 15% over a run plus slowdown episodes
of 1.7x lasting many blocks.  Program blocks and calibration chunks
see the same factor, with 3% independent jitter each.  The calibrated
estimate must land within the benchmark's bound of the true cost on
every host, and must still see a genuine 20% program slowdown.
"""

from __future__ import annotations

import json
import math
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import calib  # noqa: E402

BLOCKS = 100
REPS = 3
CHUNK_WORK = calib.NOMINAL_CHUNK_S


def _bound(metric: str = "admissions_per_s") -> float:
    spec = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCHMARK.json")
        .read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def _work(slowdown: float = 1.0):
    rng = random.Random(11)
    return [0.05 * slowdown * (0.6 + 0.8 * rng.random())
            for _ in range(BLOCKS)]


def _host(rng: random.Random, floor: float):
    """Per-(rep, block) speed factors: a floor drifting by 15% over the
    run and 1.7x episodes of 10-30 blocks, about a fifth of the time."""
    factors = []
    for rep in range(REPS):
        speeds = []
        episode = 0
        for block in range(BLOCKS):
            progress = (rep * BLOCKS + block) / (REPS * BLOCKS)
            speed = floor * (1.0 + 0.15 * progress)
            if episode == 0 and rng.random() < 0.012:
                episode = rng.randint(10, 30)
            if episode:
                speed *= 1.7
                episode -= 1
            speeds.append(speed)
        factors.append(speeds)
    return factors


def _measure(work, factors, rng: random.Random):
    """Calibrated and raw estimates from one simulated process."""
    costs = []
    raws = []
    for speeds in factors:
        meter = calib.BlockMeter(1, chunk_fn=lambda: 0.0)

        def jitter() -> float:
            return math.exp(rng.gauss(0.0, 0.03))

        meter.chunk_seconds = [CHUNK_WORK * speeds[0] * jitter()]
        meter.block_seconds = []
        for block, speed in enumerate(speeds):
            meter.block_seconds.append(work[block] * speed * jitter())
            meter.chunk_seconds.append(CHUNK_WORK * speed * jitter())
        costs.append(meter.block_costs())
        raws.append(meter.raw_seconds())
    return calib.calibrated_seconds(costs), sorted(raws)[len(raws) // 2]


def test_drift_and_episodes_are_calibrated_out():
    bound = _bound()
    truth = sum(_work())
    worst_raw = 0.0
    for seed in range(20):
        rng = random.Random(seed)
        floor = 1.0 + 0.15 * rng.random()
        calibrated, raw = _measure(_work(), _host(rng, floor), rng)
        assert abs(calibrated / truth - 1.0) < bound / 3, (seed, calibrated)
        worst_raw = max(worst_raw, abs(raw / truth - 1.0))
    # The synthetic host is bad enough that raw time would fail.
    assert worst_raw > bound


def test_program_slowdown_is_not_calibrated_out():
    for seed in range(20):
        rng = random.Random(seed)
        host = _host(rng, 1.0 + 0.15 * rng.random())
        base, _ = _measure(_work(), host, random.Random(seed))
        slow, _ = _measure(_work(1.2), host, random.Random(seed))
        assert 1.15 < slow / base < 1.25, (seed, slow / base)


def test_calibrated_samples_follow_their_block():
    meter = calib.BlockMeter(2, chunk_fn=lambda: 0.0)
    meter.track("op")
    meter.chunk_seconds = [CHUNK_WORK, CHUNK_WORK, 2 * CHUNK_WORK,
                           2 * CHUNK_WORK]
    meter.block_seconds = [1.0, 1.0, 1.0]
    meter._marks["op"] = [0, 2, 4]
    meter._samples["op"] = [1.0, 1.0, 3.0, 3.0, 2.0]
    assert meter.calibrated_samples("op") == [1.0, 1.0, 2.0, 2.0, 1.0]


def test_chunk_is_deterministic():
    assert calib.chunk() == calib.EXPECTED_CHECKSUM
    assert calib.timed_chunk() > 0.0


if __name__ == "__main__":
    for name, test in sorted(globals().items()):
        if name.startswith("test_") and callable(test):
            test()
            print("ok", name)
