"""Shared pieces: paths, environment, set-up probes, result records."""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
#: The checkout root: the benchmark is run from there.
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

#: Fresh processes timing set-up; the median is reported.
SETUP_PROBES = 3
#: How set-up time follows the calibration chunk's time: set-up is
#: import-heavy (file reads, unmarshalling, extension loading), so when
#: the host slows the chunk down by a factor h it slows set-up down by
#: about h ** 0.5 (fitted elasticities 0.45-0.64 over 24 probes of the
#: three workloads on a 2-CPU host).  Dividing by the full chunk ratio
#: over-corrects; raw time does not correct at all.
SETUP_ELASTICITY = 0.5


class BenchError(RuntimeError):
    """A benchmark run that cannot produce a valid result."""


def require_program() -> None:
    """Fail fast when the checkout does not hold the program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            "no program to measure: {} is missing (run from the root of "
            "a checkout)".format(SRC / "repro")
        )


def clean_env() -> Dict[str, str]:
    """The environment for child processes: no ``REPRO_*`` switch,
    the program's sources first on the path."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def prepare_process() -> None:
    """Make this process match :func:`clean_env`."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    for path in (str(BENCH_DIR), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    OUT.mkdir(parents=True, exist_ok=True)


def peak_rss_mb(pid: str = "self") -> float:
    """VmHWM of a process, MiB."""
    with open("/proc/{}/status".format(pid)) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("VmHWM not available")


def setup_seconds(workload: str) -> Dict[str, float]:
    """Median calibrated set-up time over :data:`SETUP_PROBES` fresh
    processes (import, topology, service, kernel compile).  Each probe
    times calibration chunks of its own around its set-up; its time is
    scaled by their speed to the power :data:`SETUP_ELASTICITY`."""
    import calib

    values: List[float] = []
    raws: List[float] = []
    probes = run_children(
        [[str(BENCH_DIR / "setup_probe.py"), workload]] * SETUP_PROBES,
        parallel=1,
    )
    for probe in probes:
        speed = (probe["before_s"] + probe["after_s"]) / 2.0
        raws.append(probe["raw_s"])
        values.append(probe["raw_s"] * (calib.NOMINAL_CHUNK_S / speed)
                      ** SETUP_ELASTICITY)
    return {
        "setup_s": statistics.median(values),
        "setup_raw_s": statistics.median(raws),
    }


def run_children(commands: Sequence[Sequence[str]], parallel: int = 2,
                 timeout: float = 150.0) -> List[object]:
    """Run the benchmark's own scripts as child Python processes, at
    most ``parallel`` at a time, and return the JSON object each prints
    last, in order.  Every child has ended when this returns or raises:
    on any error the ones still running are killed and waited for."""
    results: List[object] = [None] * len(commands)
    pending = list(enumerate(commands))
    running: List[tuple] = []
    deadline = monotonic() + timeout
    try:
        while pending or running:
            while pending and len(running) < parallel:
                index, argv = pending.pop(0)
                running.append((index, subprocess.Popen(
                    [sys.executable] + list(argv), env=clean_env(),
                    cwd=str(ROOT), stdout=subprocess.PIPE,
                    stderr=subprocess.PIPE, text=True,
                )))
            index, child = running[0]
            out, err = child.communicate(
                timeout=max(1.0, deadline - monotonic()))
            running.pop(0)
            if child.returncode != 0:
                raise BenchError("{} failed: {}".format(
                    " ".join(commands[index]), err.strip()))
            results[index] = json.loads(out.strip().splitlines()[-1])
    finally:
        for _, child in running:
            child.kill()
        for _, child in running:
            child.communicate()
    return results


def environment(seed: int) -> Dict[str, object]:
    """What a reader needs to judge a run: versions, CPUs, the seed."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is a dependency
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def result_line(correct: bool, attempted: int, failed: int,
                metrics: Dict[str, tuple]) -> str:
    """The final stdout line: ``metrics`` maps name -> (value, unit)."""
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    })


class Outcome:
    """What one workload run produced."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.e2e: Dict[str, tuple] = {}
        self.layers: Dict[str, float] = {}
        self.details: Dict[str, object] = {}
        self.flags: Dict[str, object] = {}
        self.ledger = ""

    def fail(self, problem: str, count: int = 1) -> None:
        self.failed += count
        self.problems.append(problem)

    def check(self, condition: bool, problem: str) -> None:
        if not condition:
            self.fail(problem)

    @property
    def correct(self) -> bool:
        return not self.problems
