"""serve60: the control-plane server under a closed-loop client.

``ControlPlaneServer`` serves D-LSR on the Table-1 network (60-node
Waxman, degree 4, capacity 30, topology seed 2001) on a Unix socket,
as ``repro serve`` does.  A client on one connection replays a
``repro.server.loadgen`` timeline (Poisson admissions at
:data:`RATE` per virtual second, 2-6 s holds, releases by request id)
closed loop: it sends the next request as soon as the reply to the
last one is in.  The timeline seed is the benchmark seed; every pass
replays its first :data:`ADMISSIONS` admissions with the releases
between them.

Server and client share this process and its event loop, so the
calibration chunks that close every block of :data:`BLOCK_OPS`
requests measure the same CPU that ran the server, the protocol and
the client.  With one request in flight a chunk never delays a reply.
Client round trips are the ``op`` latencies; the service's own
``admit``/``release`` call times inside the server are timed by a thin
class-level wrapper, as on the in-process workloads.
"""

from __future__ import annotations

import asyncio
import statistics
from time import perf_counter

import calib

#: Admissions per virtual second of the timeline: sets how full the
#: network gets, not a pacing rate (the client is closed loop).
RATE = 300.0
#: Admissions each pass replays, with the releases due between them.
ADMISSIONS = 4_000
#: Protocol requests per calibration block (~50 ms of work).
BLOCK_OPS = 100
#: Admissions the naive twin replays to check the server's decisions.
TWIN_PREFIX_ADMITS = 300
#: A client that took longer than this between a reply and its next
#: request (p99) flags the run: its turnaround would be in op latency.
LATE_LIMIT_MS = 1.0
SOCKET = "drtpbench/out/serve60.sock"


def build_network():
    from repro.experiments.config import make_network

    return make_network(4)


def build_server(network, socket_path: str = SOCKET):
    """A D-LSR service with metrics behind a ``ControlPlaneServer``,
    its routing kernels compiled."""
    from repro.core.service import DRTPService
    from repro.experiments import make_scheme
    from repro.metrics import ServiceMetrics
    from repro.routing.base import RouteQuery
    from repro.server import ControlPlaneServer

    metrics = ServiceMetrics()
    service = DRTPService(network, make_scheme("D-LSR"), metrics=metrics)
    service.scheme.plan(RouteQuery(0, 1, 1.0))
    return ControlPlaneServer(service, metrics, socket_path=socket_path)


def build_timeline(network, seed: int):
    """The first :data:`ADMISSIONS` admissions of the seed's timeline
    and the releases due before the next one."""
    from repro.server import LoadGenConfig, build_timeline as timeline_of

    config = LoadGenConfig(arrival_rate=RATE,
                           duration=1.25 * ADMISSIONS / RATE,
                           master_seed=seed)
    timeline = timeline_of(config, network.num_nodes, network.num_links)
    admits = 0
    for index, event in enumerate(timeline):
        if event.op == "admit":
            admits += 1
            if admits > ADMISSIONS:
                return timeline[:index]
    raise RuntimeError("timeline holds fewer than {} admissions".format(
        ADMISSIONS))


def install_meter(meter):
    """Time the service's successful admit/release calls through
    ``meter``; returns an undo."""
    from repro.core.service import DRTPService

    admit = DRTPService.__dict__["admit"]
    release = DRTPService.__dict__["release"]

    def timed_admit(self, request):
        started = perf_counter()
        decision = admit(self, request)
        meter.sample("admit", perf_counter() - started)
        return decision

    def timed_release(self, connection_id):
        started = perf_counter()
        result = release(self, connection_id)
        meter.sample("release", perf_counter() - started)
        return result

    DRTPService.admit = timed_admit
    DRTPService.release = timed_release

    def undo():
        DRTPService.admit = admit
        DRTPService.release = release

    return undo


async def _call(reader, writer, op: str):
    from repro.server import protocol

    writer.write(protocol.encode_request(op, {}, request_id=op))
    _, ok, body = protocol.decode_response((await reader.readline()).decode())
    if not ok:
        raise RuntimeError("{} failed: {}".format(op, body))
    return body


async def _pass(server, wire, meter, tracer=None):
    """Serve, replay ``wire`` closed loop, drain; returns the replies,
    the client's turnaround per request and the final status."""
    await server.start()
    reader, writer = await asyncio.open_unix_connection(SOCKET)
    replies = []
    late = []
    root = tracer.root() if tracer is not None else None
    if root is not None:
        root.__enter__()
    try:
        meter.start()
        ready = perf_counter()
        for line in wire:
            sent = perf_counter()
            late.append(sent - ready)
            writer.write(line)
            replies.append(await reader.readline())
            ready = perf_counter()
            meter.sample("op", ready - sent)
            if meter.op():
                ready = perf_counter()
        meter.finish()
        status = await _call(reader, writer, "status")
    finally:
        if root is not None:
            root.__exit__(None, None, None)
    writer.close()
    await writer.wait_closed()
    await server.shutdown()
    stats = server.stats
    return replies, late, status, {
        "drained_clean": stats.drained_clean,
        "protocol_errors": stats.protocol_errors,
        "internal_errors": stats.internal_errors,
    }


def _decisions(outcome, timeline, replies):
    """Admission decisions by request id from the raw reply lines;
    protocol errors fail the run."""
    from repro.server import protocol

    decisions = {}
    for index, (event, line) in enumerate(zip(timeline, replies)):
        rid, ok, body = protocol.decode_response(line.decode())
        if not ok or rid != index:
            outcome.fail("protocol error on {} #{}: {}".format(
                event.op, index, body))
            continue
        if event.op == "admit":
            decisions[event.args["request_id"]] = int(bool(body["accepted"]))
    return [decisions[rid] for rid in sorted(decisions)]


def _reference(network, timeline):
    """Decisions of a sequential fast replay and of the naive twin on
    the first :data:`TWIN_PREFIX_ADMITS` admissions."""
    from repro.core.service import DRTPService
    from repro.experiments import make_scheme
    from repro.server import run_sequential_reference
    from repro.testing import make_reference_service

    fast = run_sequential_reference(
        DRTPService(network, make_scheme("D-LSR")), timeline)["decisions"]
    admits = 0
    cut = len(timeline)
    for index, event in enumerate(timeline):
        if event.op == "admit":
            admits += 1
            if admits > TWIN_PREFIX_ADMITS:
                cut = index
                break
    twin = run_sequential_reference(
        make_reference_service(DRTPService(network, make_scheme("D-LSR"))),
        timeline[:cut])["decisions"]
    return fast, twin


def run(seed: int, seconds: int, trace: bool):
    """One benchmark run of serve60; returns an Outcome."""
    import gc

    from common import Outcome, peak_rss_mb
    from ledger import Tracer, markdown_table, merge_metrics, slab_metrics
    from repro.server import protocol

    outcome = Outcome("serve60")
    network = build_network()
    timeline = build_timeline(network, seed)
    wire = [protocol.encode_request(e.op, e.args, request_id=i)
            for i, e in enumerate(timeline)]
    # Fixed work: whole passes over one timeline (~3 s each on a
    # 2-CPU host), at least five: with three, the per-request medians
    # still let host noise into the p99s.
    passes = max(5, round(seconds / 4.0))
    arms = ["plain", "traced"] * 2 if trace else ["plain"] * passes
    costs = {"plain": [], "traced": []}
    samples = {"admit": [], "release": [], "op": []}
    raw = []
    chunks = []
    late = []
    layer_runs = []
    served = set()
    tracer = None
    status = None
    for arm in arms:
        server = build_server(network)
        gc.collect()
        gc.freeze()
        chunk_fn = calib.timed_chunk
        if arm == "traced":
            tracer = Tracer().install()
            chunk_fn = tracer.chunk_fn(chunk_fn)
        meter = calib.BlockMeter(BLOCK_OPS, chunk_fn)
        meter.track("admit", "release", "op")
        undo = install_meter(meter)
        try:
            replies, late_s, status, drain = asyncio.run(
                _pass(server, wire, meter,
                      tracer if arm == "traced" else None))
        finally:
            undo()
            if arm == "traced":
                tracer.uninstall()
        gc.unfreeze()
        outcome.attempted += len(timeline)
        served.add(tuple(_decisions(outcome, timeline, replies)))
        outcome.check(drain["drained_clean"], "server did not drain cleanly")
        if drain["protocol_errors"] or drain["internal_errors"]:
            outcome.fail("server counted {} protocol and {} internal "
                         "errors".format(drain["protocol_errors"],
                                         drain["internal_errors"]))
        costs[arm].append(meter.block_costs())
        chunks.extend(meter.chunk_seconds)
        if arm == "traced":
            metrics = tracer.metrics()
            metrics.update(slab_metrics(server.service))
            service_s = (metrics["service.admit.busy_s"]
                         + metrics["service.release.busy_s"])
            batches = status["server"]["batches"]
            metrics.update({
                "server.service_busy_s": service_s,
                "server.batches": batches,
                "server.mean_batch_len": (
                    len(timeline) / batches if batches else 0.0),
            })
            layer_runs.append(metrics)
            outcome.check(tracer.self_sum_error() < 1e-6,
                          "layer self times do not sum to the traced wall")
            continue
        raw.append(meter.raw_seconds())
        late.extend(late_s)
        for key in samples:
            samples[key].append(meter.calibrated_samples(key))
    rss = peak_rss_mb()

    # Correctness: every pass served the same decisions, which are the
    # sequential replay's, and the naive twin agrees on its prefix.
    outcome.check(len(served) == 1, "passes disagree on their decisions")
    decisions = list(sorted(served)[0])
    fast, twin = _reference(network, timeline)
    mismatches = sum(a != b for a, b in zip(decisions, fast))
    if mismatches or len(decisions) != len(fast):
        outcome.fail("{} decisions differ from the sequential replay"
                     .format(mismatches), count=max(1, mismatches))
    outcome.check(decisions[:len(twin)] == twin,
                  "server decisions differ from the naive twin over the "
                  "first {} admissions".format(len(twin)))

    plain_s = calib.calibrated_seconds(costs["plain"])
    late_p99_ms = calib.quantile(late, 0.99) * 1e3
    outcome.e2e = calib.latency_metrics(samples)
    outcome.e2e["admissions_per_s"] = (ADMISSIONS / plain_s, "1/s")
    outcome.e2e["peak_rss_mb"] = (rss, "MiB")
    outcome.flags["generator_behind"] = late_p99_ms > LATE_LIMIT_MS
    outcome.flags["loadgen.late_p99_ms"] = late_p99_ms
    outcome.details.update({
        "accepted": sum(decisions),
        "admissions": len(decisions),
        "requests": len(timeline),
        "passes": len(arms),
        "raw_pass_s": raw,
        "calib.chunk_ms_p50": statistics.median(chunks) * 1e3,
        "calib.ratio_iqr": calib.ratio_iqr(chunks),
    })
    outcome.details["raw_admissions_per_s"] = (
        ADMISSIONS / statistics.median(raw))
    if trace:
        layers = merge_metrics(layer_runs)
        medians = {key: sum(calib.per_op_median(series))
                   for key, series in samples.items()}
        layers["server.overhead_ms"] = (
            medians["op"] - medians["admit"] - medians["release"]
        ) / len(samples["op"][0]) * 1e3
        layers["loadgen.late_p99_ms"] = late_p99_ms
        layers["trace.overhead_ratio"] = (
            calib.calibrated_seconds(costs["traced"]) / plain_s - 1.0)
        outcome.layers = layers
        outcome.ledger = markdown_table(tracer, "serve60")
    return outcome
