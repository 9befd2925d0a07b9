"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 drtpbench/run.py --workload churn60 --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``churn60``    — 60-node Waxman churn soak, D-LSR, 20,000 admissions;
* ``paper-cell`` — ``run_cell(CellSpec(4, "NT", 0.9))`` at quick scale:
  no-backup baseline, D-LSR, P-LSR and BF with ``P_act-bk`` sweeps;
* ``serve60``    — ``ControlPlaneServer`` with D-LSR, replayed closed
  loop over one connection from a ``repro.server.loadgen`` timeline.

With ``--trace 0`` the result carries the end-to-end metrics, with
``--trace 1`` the per-layer ledger (also written as markdown under
``drtpbench/out/``).  Every metric line is printed with its unit first;
the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

WORKLOADS = ("churn60", "paper-cell", "serve60")

#: End-to-end metrics, measured on every workload: name -> unit.
#: On churn60 and paper-cell an "op" is one arrival: its admit call
#: plus the release calls of the departures handled since the last
#: admission.  On serve60 it is one protocol request's round trip, and the
#: admit/release figures are the service's own call times inside the
#: server.
END_TO_END = {
    "admissions_per_s": "1/s",
    "admit_p50_us": "us",
    "admit_p99_us": "us",
    "release_p50_us": "us",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}


def _span_metrics(prefix: str):
    return [(prefix + ".calls", "count"), (prefix + ".busy_s", "s")]


#: Per-layer metrics, in ledger order: name -> unit.  A layer that a
#: workload does not exercise reads zero there.
PER_LAYER = dict(
    _span_metrics("service.admit")
    + _span_metrics("service.release")
    + [("service.self_s", "s")]
    + _span_metrics("routing.plan")
    + [("routing.plan.useful_ratio", "ratio")]
    + [("routing.self_s", "s")]
    + _span_metrics("kernels.primary_search")
    + _span_metrics("kernels.backup_search")
    + _span_metrics("kernels.cost_build")
    + _span_metrics("kernels.flush")
    + [("kernels.flush.links_per_call", "count")]
    + _span_metrics("kernels.apply")
    + [("kernels.apply.batched_ratio", "ratio"), ("kernels.self_s", "s")]
    + [("warmstart.probes", "count"), ("warmstart.hit_ratio", "ratio"),
       ("warmstart.busy_s", "s")]
    + _span_metrics("admission.commit")
    + _span_metrics("admission.release")
    + [("admission.self_s", "s")]
    + _span_metrics("signaling.register")
    + _span_metrics("signaling.release")
    + [("signaling.self_s", "s")]
    + [("network.max_demand.per_release", "count")]
    + _span_metrics("network.publish")
    + _span_metrics("flooding.flood")
    + _span_metrics("flooding.select")
    + [("flooding.cdp_per_request", "count"), ("flooding.self_s", "s")]
    + _span_metrics("recovery.assess")
    + [("recovery.assess.affected_per_call", "count")]
    + _span_metrics("analysis.snapshot")
    + [("analysis.self_s", "s")]
    + _span_metrics("simulation.run")
    + [("simulation.self_s", "s")]
    + [("slab.high_water", "count"), ("slab.reused_ratio", "ratio")]
    + [("server.self_s", "s"),
       ("server.service_busy_s", "s"), ("server.overhead_ms", "ms"),
       ("server.batches", "count"), ("server.mean_batch_len", "count")]
    + [("loadgen.late_p99_ms", "ms")]
    + [("trace.spans", "count"), ("trace.overhead_ratio", "ratio"),
       ("calib.chunk_ms_p50", "ms"), ("calib.ratio_iqr", "ratio")]
)

def _run_workload(name: str, seed: int, seconds: int, trace: bool):
    if name == "churn60":
        import churn

        return churn.run(seed, seconds, trace)
    if name == "paper-cell":
        import cell

        return cell.run(seed, seconds, trace)
    import serve

    return serve.run(seed, seconds, trace)


def _terminate(signum, frame):
    # Unwind normally on SIGTERM, so child processes are killed and
    # waited for on the way out.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    try:
        common.require_program()
    except common.BenchError as exc:
        print("drtpbench: {}".format(exc), file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    common.prepare_process()
    try:
        setup = common.setup_seconds(args.workload)
        outcome = _run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace)
        )
    except Exception:  # report the crash; no result line is printed
        traceback.print_exc()
        return 1

    outcome.e2e["setup_s"] = (setup["setup_s"], "s")
    outcome.details["setup_raw_s"] = setup["setup_raw_s"]
    outcome.flags.update(common.environment(args.seed))
    outcome.flags["calib.chunk_ms_p50"] = outcome.details.get(
        "calib.chunk_ms_p50")
    outcome.flags["calib.ratio_iqr"] = outcome.details.get("calib.ratio_iqr")

    if args.trace:
        listed = PER_LAYER
        layers = {name: 0 for name in listed}
        layers.update({
            "calib.chunk_ms_p50": outcome.details.get("calib.chunk_ms_p50"),
            "calib.ratio_iqr": outcome.details.get("calib.ratio_iqr"),
        })
        layers.update(
            (key, value) for key, value in outcome.layers.items()
            if key in layers
        )
        metrics = {name: (layers[name], unit)
                   for name, unit in listed.items()}
    else:
        metrics = {name: (outcome.e2e[name][0], unit)
                   for name, unit in END_TO_END.items()}

    stem = "{}-seed{}-trace{}".format(args.workload, args.seed, args.trace)
    record = {
        "workload": args.workload,
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": outcome.problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
        "validity": outcome.flags,
        "details": outcome.details,
    }
    (common.OUT / "result-{}.json".format(stem)).write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")
    if outcome.ledger:
        (common.OUT / "layers-{}.md".format(args.workload)).write_text(
            outcome.ledger)

    for name, (value, unit) in metrics.items():
        print("{:<36} {:>14.6g} {}".format(name, value, unit))
    for problem in outcome.problems:
        print("FAILED: {}".format(problem))
    print("validity: {}".format(json.dumps(outcome.flags, sort_keys=True)))
    print(common.result_line(outcome.correct, outcome.attempted,
                             outcome.failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
