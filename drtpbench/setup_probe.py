"""One set-up measurement in a fresh process.

Usage: ``python3 drtpbench/setup_probe.py <workload>`` from the root of
a checkout.  Times import of ``repro``, topology build, service (and,
for serve60, server) construction and the first kernel compile, and
prints one JSON line.  Calibration chunks run in this process right
before the import of ``repro`` and right after the first plan, so they
measure the host speed the set-up itself saw.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import calib

#: Chunks on each side of the set-up; their median is that side's
#: host speed.
CHUNKS = 3


def _build(workload: str) -> None:
    if workload == "churn60":
        import churn

        churn.warm(churn.build_service(churn.build_network()))
    elif workload == "paper-cell":
        from repro.core.service import DRTPService
        from repro.experiments import make_scheme
        from repro.experiments.config import make_network
        from repro.routing.base import RouteQuery

        service = DRTPService(make_network(4), make_scheme("D-LSR"))
        service.scheme.plan(RouteQuery(0, 1, 1.0))
    else:
        import serve

        serve.build_server(serve.build_network(), "unused.sock")


def _host_speed() -> float:
    return statistics.median(calib.timed_chunk() for _ in range(CHUNKS))


def main() -> int:
    before = _host_speed()
    started = perf_counter()
    _build(sys.argv[1])
    raw = perf_counter() - started
    after = _host_speed()
    print(json.dumps({"raw_s": raw, "before_s": before, "after_s": after}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
