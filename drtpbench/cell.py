"""paper-cell: the paper's own evaluation point.

``run_cell(CellSpec(4, "NT", 0.9))`` at quick scale on the Table-1
network (60-node Waxman, degree 4, capacity 30, topology seed 2001):
the no-backup baseline plus D-LSR, P-LSR and BF, each with a
``FaultToleranceObserver`` ``P_act-bk`` sweep at every snapshot.  The
benchmark seed is the cell's ``master_seed``; the run is closed-loop
(the simulator admits the next request when the last one returns).

Every ``DRTPService.admit`` and ``release`` call is timed by a thin
class-level wrapper, which also closes a calibration block every
:data:`BLOCK_OPS` admissions.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

import calib

SPEC = (4, "NT", 0.9)
SCHEMES = ("D-LSR", "P-LSR", "BF")
#: Admissions per calibration block (~60 ms of work on a 2-CPU host).
BLOCK_OPS = 100
#: ``ExperimentScale`` fields of the naive-twin check: half the smoke
#: scale (the twin is many times slower than the fast service).
TWIN_SCALE = ("twin", 900.0, 450.0, 1)


def _spec():
    from repro.experiments.sweep import CellSpec

    return CellSpec(*SPEC)


def install_meter(meter, services=None):
    """Time every admit/release through ``meter``, and every arrival
    (an admit plus the releases since the last one) as one ``op``;
    collect the services admitting into ``services`` when given.
    Returns an undo."""
    from repro.core.service import DRTPService

    admit = DRTPService.__dict__["admit"]
    release = DRTPService.__dict__["release"]
    departed = [0.0]

    def timed_admit(self, request):
        if services is not None:
            services.add(self)
        started = perf_counter()
        decision = admit(self, request)
        elapsed = perf_counter() - started
        meter.sample("admit", elapsed)
        meter.sample("op", departed[0] + elapsed)
        departed[0] = 0.0
        meter.op()
        return decision

    def timed_release(self, connection_id):
        started = perf_counter()
        result = release(self, connection_id)
        elapsed = perf_counter() - started
        meter.sample("release", elapsed)
        departed[0] += elapsed
        return result

    DRTPService.admit = timed_admit
    DRTPService.release = timed_release

    def undo():
        DRTPService.admit = admit
        DRTPService.release = release

    return undo


def summarize(points):
    """The cell's decisions in comparable form."""
    return {
        name: {
            "p_act_bk": point.fault_tolerance,
            "acceptance": point.acceptance_ratio,
            "requests": point.sim.requests,
        }
        for name, point in sorted(points.items())
    }


def twin_check(seed: int, scheme: str):
    """Fast service vs the naive ``repro.testing`` twin on the same
    cell at :data:`TWIN_SCALE`: (fast, twin) summaries for one
    scheme."""
    from repro.analysis.fault_tolerance import FaultToleranceObserver
    from repro.core.multiplexing import SharedSparePolicy
    from repro.core.service import DRTPService
    from repro.experiments.config import ExperimentScale, make_network
    from repro.experiments.sweep import cell_scenario, make_scheme
    from repro.simulation.simulator import ScenarioSimulator
    from repro.testing import make_reference_service

    scale = ExperimentScale(*TWIN_SCALE)
    network = make_network(SPEC[0])
    scenario = cell_scenario(_spec(), scale, master_seed=seed)
    out = []
    for naive in (False, True):
        service = DRTPService(network, make_scheme(scheme),
                              spare_policy=SharedSparePolicy())
        if naive:
            service = make_reference_service(service)
        observer = FaultToleranceObserver()
        result = ScenarioSimulator(
            service, scenario, warmup=scale.warmup,
            snapshot_count=scale.snapshot_count,
        ).run(observers=(observer,))
        out.append((observer.stats.p_act_bk, result.acceptance_ratio,
                    result.accepted))
    return out


def run(seed: int, seconds: int, trace: bool):
    """One benchmark run of paper-cell; returns an Outcome."""
    import gc

    from common import Outcome, peak_rss_mb, run_children
    from ledger import Tracer, markdown_table, merge_metrics, slab_metrics
    from repro.experiments.config import QUICK_SCALE, make_network
    from repro.experiments.sweep import run_cell

    outcome = Outcome("paper-cell")
    make_network(SPEC[0])  # the topology is set-up, not timed work
    # A pass is ~12 s on a 2-CPU host; fixed work per --seconds.
    passes = max(3, round(seconds / 12.0))
    arms = ["plain", "traced"] if trace else ["plain"] * passes
    costs = {"plain": [], "traced": []}
    samples = {"admit": [], "release": [], "op": []}
    chunks = []
    raw = []
    summaries = []
    layer_runs = []
    admissions = 0
    tracer = None
    for arm in arms:
        gc.collect()
        gc.freeze()
        chunk_fn = calib.timed_chunk
        if arm == "traced":
            tracer = Tracer().install()
            chunk_fn = tracer.chunk_fn(chunk_fn)
        meter = calib.BlockMeter(BLOCK_OPS, chunk_fn)
        meter.track("admit", "release", "op")
        services = set() if arm == "traced" else None
        undo = install_meter(meter, services)
        try:
            if arm == "traced":
                with tracer.root():
                    meter.start()
                    points = run_cell(_spec(), SCHEMES, QUICK_SCALE,
                                      master_seed=seed)
                    meter.finish()
            else:
                meter.start()
                points = run_cell(_spec(), SCHEMES, QUICK_SCALE,
                                  master_seed=seed)
                meter.finish()
        finally:
            undo()
            if arm == "traced":
                tracer.uninstall()
        gc.unfreeze()
        summaries.append(summarize(points))
        admissions = meter.ops
        outcome.attempted += meter.ops + len(meter._samples["release"])
        costs[arm].append(meter.block_costs())
        chunks.extend(meter.chunk_seconds)
        if arm == "traced":
            metrics = tracer.metrics()
            metrics.update(slab_metrics(*services))
            layer_runs.append(metrics)
            outcome.check(tracer.self_sum_error() < 1e-6,
                          "layer self times do not sum to the traced wall")
            continue
        raw.append(meter.raw_seconds())
        for key in samples:
            samples[key].append(meter.calibrated_samples(key))
    rss = peak_rss_mb()

    outcome.check(all(s == summaries[0] for s in summaries),
                  "passes disagree on the cell's results")
    twins = dict(zip(SCHEMES, run_children(
        [[__file__, "--twin", str(seed), name] for name in SCHEMES])))
    for name, (fast, naive) in twins.items():
        outcome.check(fast == naive,
                      "{}: P_act-bk/acceptance differ from the naive twin "
                      "at the twin scale: {} vs {}".format(name, fast, naive))
    outcome.details.update({
        "cell": summaries[0],
        "twin": {name: pair[1] for name, pair in twins.items()},
        "passes": len(arms),
        "raw_pass_s": raw,
        "calib.chunk_ms_p50": statistics.median(chunks) * 1e3,
        "calib.ratio_iqr": calib.ratio_iqr(chunks),
    })

    plain_s = calib.calibrated_seconds(costs["plain"])
    outcome.e2e = calib.latency_metrics(samples)
    outcome.e2e["admissions_per_s"] = (admissions / plain_s, "1/s")
    outcome.e2e["peak_rss_mb"] = (rss, "MiB")
    outcome.details["raw_admissions_per_s"] = (
        admissions / statistics.median(raw))
    if trace:
        layers = merge_metrics(layer_runs)
        layers["trace.overhead_ratio"] = (
            calib.calibrated_seconds(costs["traced"]) / plain_s - 1.0)
        outcome.layers = layers
        outcome.ledger = markdown_table(tracer, "paper-cell")
    return outcome


def main(argv) -> int:
    """``cell.py --twin <seed> <scheme>``: print :func:`twin_check` as
    one JSON line (run in a child process so the three schemes'
    checks can share the CPUs)."""
    if len(argv) != 3 or argv[0] != "--twin":
        print("usage: cell.py --twin <seed> <scheme>", file=sys.stderr)
        return 2
    print(json.dumps(twin_check(int(argv[1]), argv[2])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
