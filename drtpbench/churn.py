"""churn60: the ROADMAP's churn soak, replayed as a fixed trace.

60-node Waxman graph (degree 4, capacity 40, topology seed 0), D-LSR,
an MMPP x drifting-hot-spot trace from :mod:`repro.loadmodel` with the
``repro soak`` defaults, 20,000 admissions with departures, closed
loop.  The benchmark seed drives only the request stream, and within
it not the MMPP phase chain: that stays seed 0's for every seed, so
each run's trace calms and bursts at the same moments.  The trace
is materialized before the clock starts, so a pass times the service
and the departure bookkeeping of :class:`repro.loadmodel.SoakEngine`,
which this loop mirrors operation for operation (same release order,
same decision digest).
"""

from __future__ import annotations

import hashlib
import heapq
import random
from time import perf_counter


ADMISSIONS = 20_000
#: Admissions per calibration block (~50 ms of work on a 2-CPU host).
BLOCK_OPS = 200
#: Admissions the naive twin replays to check each pass's prefix.
TWIN_PREFIX = 500
#: ``repro soak --nodes 60 --scheme D-LSR --admissions 20000 --seed 0``
SEED0_ACCEPTED = 11_479
#: Seed of the MMPP phase chain (calm/burst sojourns), whatever the
#: benchmark seed.  Left to the seed, about one seed in six would put a
#: burst inside the 20,000 admissions and one in six would not, and
#: the two regimes cost ~35% apart per admission.
PHASE_SEED = 0


def build_network():
    from repro.topology.waxman import WaxmanParameters, waxman_network

    return waxman_network(
        60,
        capacity=40.0,
        parameters=WaxmanParameters(target_degree=4.0),
        rng=random.Random(0),
    )


def build_service(network):
    from repro.core.service import DRTPService
    from repro.experiments import make_scheme

    return DRTPService(network, make_scheme("D-LSR"), require_backup=True)


def build_requests(seed: int, count: int = ADMISSIONS):
    """The request stream: ``repro soak``'s default production knobs,
    with the phase chain of :data:`PHASE_SEED`."""
    from dataclasses import replace

    from repro.loadmodel import (
        DriftParameters,
        MMPPParameters,
        ProductionTraceConfig,
        ProductionTraceGenerator,
    )
    from repro.simulation.arrivals import HoldingTimeDistribution

    config = ProductionTraceConfig(
        num_nodes=60,
        mmpp=MMPPParameters.bursty(
            50.0, burst_factor=4.0, calm_mean=3600.0, burst_mean=600.0
        ),
        drift=DriftParameters(
            hot_count=10, hot_fraction=0.5, epoch_seconds=3600.0, migrate=1
        ),
        holding=HoldingTimeDistribution(20.0, 60.0),
        bw_req=1.0,
        seed=seed,
    )
    generator = ProductionTraceGenerator(config)
    fixed = ProductionTraceGenerator(
        replace(config, seed=PHASE_SEED)).state()["process"]
    state = generator.state()
    for key in ("phase", "phase_end", "phase_rng"):
        state["process"][key] = fixed[key]
    generator.restore(state)
    return generator.take(count)


def warm(service) -> None:
    """Compile the routing kernels without changing any state."""
    from repro.routing.base import RouteQuery

    service.scheme.plan(RouteQuery(0, 1, 1.0))


def replay(service, requests, meter=None, prefix=0):
    """Drive ``requests`` through ``service`` exactly as SoakEngine does.

    Returns ``(accepted, releases, digest, prefix_digest)``; the
    digests are SHA-256 over ``"<request id>:<0|1>\\n"`` lines, the
    soak engine's decision checksum.  With a ``meter`` every admit and
    release is timed, every arrival (its admit plus the releases of
    the departures due before it) is timed as one ``op``, and a
    calibration block closes every ``meter.block_ops`` admissions.
    """
    departures = []
    checksum = hashlib.sha256()
    prefix_digest = None
    accepted = releases = 0
    admit = service.admit
    release = service.release
    has = service.has_connection
    if meter is not None:
        meter.track("admit", "release", "op")
        meter.start()
    for index, request in enumerate(requests):
        now = request.arrival_time
        departed = 0.0
        while departures and departures[0][0] <= now:
            _, connection_id = heapq.heappop(departures)
            if has(connection_id):
                if meter is None:
                    release(connection_id)
                else:
                    started = perf_counter()
                    release(connection_id)
                    elapsed = perf_counter() - started
                    meter.sample("release", elapsed)
                    departed += elapsed
                releases += 1
        if meter is None:
            decision = admit(request)
        else:
            started = perf_counter()
            decision = admit(request)
            elapsed = perf_counter() - started
            meter.sample("admit", elapsed)
            meter.sample("op", departed + elapsed)
        ok = decision.accepted
        checksum.update(
            "{}:{}\n".format(request.request_id, int(ok)).encode()
        )
        if ok:
            accepted += 1
            heapq.heappush(
                departures,
                (now + request.holding_time, request.request_id),
            )
        if index + 1 == prefix:
            prefix_digest = checksum.copy().hexdigest()
        if meter is not None:
            meter.op()
    if meter is not None:
        meter.finish()
    return accepted, releases, checksum.hexdigest(), prefix_digest


def twin_prefix_digest(seed: int) -> str:
    """Decision digest of the naive ``repro.testing`` twin over the
    first :data:`TWIN_PREFIX` admissions of the same trace."""
    from repro.testing import make_reference_service

    network = build_network()
    twin = make_reference_service(build_service(network))
    requests = build_requests(seed, TWIN_PREFIX)
    return replay(twin, requests, prefix=TWIN_PREFIX)[3]


def run(seed: int, seconds: int, trace: bool):
    """One benchmark run of churn60; returns an :class:`Outcome`."""
    import gc
    import statistics

    import calib
    from common import Outcome, peak_rss_mb
    from ledger import Tracer, markdown_table, merge_metrics, slab_metrics

    outcome = Outcome("churn60")
    network = build_network()
    requests = build_requests(seed)
    # Fixed work: whole passes over one trace, as many as fit the
    # nominal run length (a pass is ~6 s on a 2-CPU host).
    passes = max(3, round(seconds / 6.0))
    arms = ["plain"] * passes
    if trace:
        arms = ["plain", "traced"] * 2
    costs = {"plain": [], "traced": []}
    samples = {"admit": [], "release": [], "op": []}
    raw = []
    chunks = []
    layer_runs = []
    tracer = None
    digests = set()
    for arm in arms:
        service = build_service(network)
        warm(service)
        gc.collect()
        gc.freeze()
        if arm == "traced":
            tracer = Tracer().install()
            meter = calib.BlockMeter(BLOCK_OPS,
                                     tracer.chunk_fn(calib.timed_chunk))
            try:
                with tracer.root():
                    result = replay(service, requests, meter, TWIN_PREFIX)
            finally:
                tracer.uninstall()
            metrics = tracer.metrics()
            metrics.update(slab_metrics(service))
            layer_runs.append(metrics)
            outcome.check(tracer.self_sum_error() < 1e-6,
                          "layer self times do not sum to the traced wall")
        else:
            meter = calib.BlockMeter(BLOCK_OPS)
            result = replay(service, requests, meter, TWIN_PREFIX)
        gc.unfreeze()
        accepted, releases, digest, prefix_digest = result
        outcome.attempted += len(requests) + releases
        digests.add((accepted, digest, prefix_digest))
        try:
            service.check_invariants()
        except Exception as exc:  # any invariant breach fails the run
            outcome.fail("invariants: {}".format(exc))
        costs[arm].append(meter.block_costs())
        chunks.extend(meter.chunk_seconds)
        if arm == "plain":
            raw.append(meter.raw_seconds())
            for key in samples:
                samples[key].append(meter.calibrated_samples(key))
    rss = peak_rss_mb()

    # Correctness: every pass reached the same decisions, and the
    # naive twin agrees on the prefix it can afford to replay.
    outcome.check(len(digests) == 1,
                  "passes disagree on their decisions: {}".format(digests))
    accepted, digest, prefix_digest = sorted(digests)[0]
    if seed == 0:
        outcome.check(accepted == SEED0_ACCEPTED,
                      "seed 0 accepted {} != {}".format(
                          accepted, SEED0_ACCEPTED))
    twin = twin_prefix_digest(seed)
    outcome.check(twin == prefix_digest,
                  "decision digest differs from the naive twin over the "
                  "first {} admissions".format(TWIN_PREFIX))
    outcome.details.update({
        "accepted": accepted,
        "acceptance": accepted / len(requests),
        "digest": digest,
        "passes": len(arms),
        "raw_pass_s": raw,
        "calib.chunk_ms_p50": statistics.median(chunks) * 1e3,
        "calib.ratio_iqr": calib.ratio_iqr(chunks),
    })

    plain_s = calib.calibrated_seconds(costs["plain"])
    outcome.e2e = calib.latency_metrics(samples)
    outcome.e2e["admissions_per_s"] = (len(requests) / plain_s, "1/s")
    outcome.e2e["peak_rss_mb"] = (rss, "MiB")
    outcome.details["raw_admissions_per_s"] = (
        len(requests) / statistics.median(raw))
    if trace:
        layers = merge_metrics(layer_runs)
        layers["trace.overhead_ratio"] = (
            calib.calibrated_seconds(costs["traced"]) / plain_s - 1.0)
        outcome.layers = layers
        outcome.ledger = markdown_table(tracer, "churn60")
    return outcome
