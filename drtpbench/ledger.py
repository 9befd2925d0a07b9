"""The per-layer ledger: spans recorded from the benchmark's own files.

:class:`Tracer` wraps public functions and methods of each layer of
``repro`` (found by name at run time) in timing wrappers, keeps one
span stack, and accumulates per span name the call count, the busy
time (inclusive, outermost call only for recursive names) and the self
time (busy minus the time of directly nested spans).  A target that a
later version of the program no longer has is skipped and recorded in
:attr:`Tracer.missing`; its layer then reads zero.

The whole traced pass runs inside one root span, ``bench.pass``, so
the self times of all spans sum to the traced wall time exactly; the
benchmark checks that.
"""

from __future__ import annotations

import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: (span name, layer, module, attribute path).  Layers are named after
#: the program's modules; the order is the ledger table's row order.
TARGETS: Tuple[Tuple[str, str, str, str], ...] = (
    ("simulation.run", "simulation", "repro.simulation.simulator",
     "ScenarioSimulator.run"),
    ("service.admit", "service", "repro.core.service", "DRTPService.admit"),
    ("service.release", "service", "repro.core.service",
     "DRTPService.release"),
    ("routing.plan", "routing", "repro.routing.link_state",
     "LinkStateScheme.plan"),
    ("flooding.flood", "flooding", "repro.routing.flooding",
     "BoundedFloodingScheme.flood"),
    ("flooding.select", "flooding", "repro.routing.flooding",
     "BoundedFloodingScheme.select_routes"),
    ("warmstart.probe", "warmstart", "repro.routing.warmstart",
     "WarmstartCache.probe"),
    ("warmstart.store", "warmstart", "repro.routing.warmstart",
     "WarmstartCache.store"),
    ("kernels.cost_build", "kernels", "repro.kernels.arrays",
     "CompiledLinkArrays.primary_costs"),
    ("kernels.cost_build", "kernels", "repro.kernels.arrays",
     "CompiledLinkArrays.backup_costs"),
    ("kernels.flush", "kernels", "repro.kernels.arrays",
     "CompiledLinkArrays.flush"),
    ("kernels.search", "kernels", "repro.kernels.search",
     "flat_shortest_path"),
    ("kernels.search", "kernels", "repro.kernels.search",
     "flat_min_hop_path"),
    ("kernels.search", "kernels", "repro.kernels.search",
     "flat_bounded_shortest_path"),
    ("admission.commit", "admission", "repro.core.admission",
     "AdmissionController.admit"),
    ("admission.release", "admission", "repro.core.admission",
     "AdmissionController.release"),
    ("kernels.apply", "kernels", "repro.kernels.apply",
     "batch_register_walk"),
    ("kernels.apply", "kernels", "repro.kernels.apply",
     "batch_release_walk"),
    ("kernels.apply", "kernels", "repro.kernels.apply",
     "batch_reserve_primary"),
    ("kernels.apply", "kernels", "repro.kernels.apply",
     "batch_release_primary"),
    ("signaling.register", "signaling", "repro.core.signaling",
     "register_backup_path"),
    ("signaling.release", "signaling", "repro.core.signaling",
     "release_backup_path"),
    ("network.publish", "network", "repro.network.state",
     "NetworkState.publish_changes"),
    ("analysis.snapshot", "analysis", "repro.analysis.fault_tolerance",
     "FaultToleranceObserver.on_snapshot"),
    ("recovery.assess", "recovery", "repro.core.recovery",
     "assess_link_failure"),
    ("server.decode", "server", "repro.server.protocol", "decode_request"),
    ("server.encode", "server", "repro.server.protocol", "encode_response"),
    ("server.apply", "server", "repro.server.ops", "apply_admit"),
    ("server.apply", "server", "repro.server.ops", "apply_release"),
)

#: Modules whose demand-max scans (``max`` over a dict's values) count
#: toward ``network.max_demand.per_release``: the ledger property and
#: the batched walks that inline it.
MAX_SCAN_MODULES = ("repro.network.state", "repro.kernels.apply")

ROOT = "bench.pass"
CALIBRATION = "bench.calibration"

LAYERS = (
    "bench", "simulation", "service", "routing", "flooding", "warmstart",
    "kernels", "admission", "signaling", "network", "analysis",
    "recovery", "server",
)


class _Stat:
    __slots__ = ("calls", "busy", "self_time", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.busy = 0.0
        self.self_time = 0.0
        self.depth = 0


class Tracer:
    """Installs span wrappers and accumulates the ledger."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = defaultdict(_Stat)
        self.layer_of: Dict[str, str] = {ROOT: "bench", CALIBRATION: "bench"}
        self.missing: List[str] = []
        self.spans = 0
        # Counters measured where the work happens.
        self.plans_useful = 0
        self.warm_hits = 0
        self.flush_links = 0
        self.apply_batched = 0
        self.cdp_transmissions = 0
        self.affected = 0
        self.max_scans_in_release = 0
        self.search_primary = _Stat()
        self.search_backup = _Stat()
        # Stack entries: [name, started, child_time, extra]
        self._stack: List[list] = []
        self._undo: List[Callable[[], None]] = []
        self._release_depth = 0

    # ------------------------------------------------------------------
    # Span bookkeeping
    # ------------------------------------------------------------------
    def _enter(self, name: str) -> list:
        frame = [name, perf_counter(), 0.0, None]
        self._stack.append(frame)
        self.stats[name].depth += 1
        return frame

    def _exit(self, frame: list) -> float:
        elapsed = perf_counter() - frame[1]
        self._stack.pop()
        stat = self.stats[frame[0]]
        stat.depth -= 1
        stat.calls += 1
        stat.self_time += elapsed - frame[2]
        if stat.depth == 0:
            stat.busy += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed
        self.spans += 1
        return elapsed

    def root(self):
        """Context manager for the root span around a traced pass."""
        tracer = self

        class _Root:
            def __enter__(self):
                self.frame = tracer._enter(ROOT)
                return self

            def __exit__(self, *exc):
                tracer._exit(self.frame)
                return False

        return _Root()

    def chunk_fn(self, timed_chunk):
        """``timed_chunk`` inside a span of the bench layer, so that
        calibration is not charged to whichever layer called it."""

        def traced_chunk() -> float:
            frame = self._enter(CALIBRATION)
            try:
                return timed_chunk()
            finally:
                self._exit(frame)

        return traced_chunk

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        for name, layer, module_name, path in TARGETS:
            self.layer_of[name] = layer
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append("{}:{}".format(module_name, path))
                continue
            owner: Any = module
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            attr = parts[-1]
            original = (
                inspect.getattr_static(owner, attr, None)
                if owner is not None else None
            )
            if original is None:
                self.missing.append("{}:{}".format(module_name, path))
                continue
            if isinstance(original, staticmethod):
                wrapper = staticmethod(
                    self._wrapper(name, original.__func__)
                )
            else:
                wrapper = self._wrapper(name, original)
            if len(parts) == 1:
                self._patch_function(original, wrapper)
            else:
                self._patch_attr(owner, attr, original, wrapper)
        self._install_max_counter()
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch_attr(self, owner, attr, original, wrapper) -> None:
        had = attr in vars(owner)
        setattr(owner, attr, wrapper)

        def undo() -> None:
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

        self._undo.append(undo)

    def _patch_function(self, original, wrapper) -> None:
        """Replace a module-level function in every ``repro`` module
        that bound it by name (``from x import f``)."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            namespace = vars(module)
            for key, value in list(namespace.items()):
                if value is original:
                    namespace[key] = wrapper
                    self._undo.append(
                        lambda ns=namespace, k=key: ns.__setitem__(k, original)
                    )

    def _install_max_counter(self) -> None:
        tracer = self
        builtin_max = max
        dict_values = type({}.values())

        def counting_max(*args, **kwargs):
            if (tracer._release_depth and len(args) == 1
                    and type(args[0]) is dict_values):
                tracer.max_scans_in_release += 1
            return builtin_max(*args, **kwargs)

        for module_name in MAX_SCAN_MODULES:
            module = sys.modules.get(module_name)
            if module is None:
                self.missing.append("{}:max".format(module_name))
                continue
            namespace = vars(module)
            had = "max" in namespace
            previous = namespace.get("max")
            namespace["max"] = counting_max

            def undo(ns=namespace, had=had, previous=previous) -> None:
                if had:
                    ns["max"] = previous
                else:
                    del ns["max"]

            self._undo.append(undo)

    # ------------------------------------------------------------------
    # Wrappers
    # ------------------------------------------------------------------
    def _wrapper(self, name: str, original):
        tracer = self
        enter = self._enter
        exit_ = self._exit
        if name == "service.admit":
            def wrapped(*args, **kwargs):
                plans = tracer.stats["routing.plan"].calls
                frame = enter(name)
                try:
                    decision = original(*args, **kwargs)
                finally:
                    exit_(frame)
                if decision.accepted:
                    tracer.plans_useful += (
                        tracer.stats["routing.plan"].calls - plans
                    )
                return decision
        elif name == "service.release":
            def wrapped(*args, **kwargs):
                tracer._release_depth += 1
                frame = enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(frame)
                    tracer._release_depth -= 1
        elif name == "kernels.search":
            def wrapped(*args, **kwargs):
                # Told apart by the enclosing routing span: the first
                # search inside routing.plan is the primary search.
                parent = None
                for entry in reversed(tracer._stack):
                    if entry[0] == "routing.plan":
                        parent = entry
                        break
                primary = parent is not None and parent[3] is None
                if parent is not None:
                    parent[3] = True
                frame = enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = exit_(frame)
                    bucket = (
                        tracer.search_primary if primary
                        else tracer.search_backup
                    )
                    bucket.calls += 1
                    bucket.busy += elapsed
        elif name == "kernels.flush":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    rescanned = original(*args, **kwargs)
                finally:
                    exit_(frame)
                tracer.flush_links += rescanned or 0
                return rescanned
        elif name == "kernels.apply":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_(frame)
                if result is not None:
                    tracer.apply_batched += 1
                return result
        elif name == "warmstart.probe":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    probe = original(*args, **kwargs)
                finally:
                    exit_(frame)
                if getattr(probe, "hit", False):
                    tracer.warm_hits += 1
                return probe
        elif name == "flooding.flood":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    exit_(frame)
                tracer.cdp_transmissions += getattr(
                    result, "cdp_transmissions", 0
                )
                return result
        elif name == "recovery.assess":
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    impact = original(*args, **kwargs)
                finally:
                    exit_(frame)
                tracer.affected += getattr(impact, "affected", 0)
                return impact
        else:
            def wrapped(*args, **kwargs):
                frame = enter(name)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_(frame)
        wrapped.__wrapped__ = original
        wrapped.__name__ = getattr(original, "__name__", name)
        return wrapped

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def _get(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()

    def layer_table(self) -> Dict[str, Dict[str, float]]:
        """Per layer: calls (top-level spans), busy, self."""
        table = {layer: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
                 for layer in LAYERS}
        for name, stat in self.stats.items():
            row = table[self.layer_of[name]]
            row["calls"] += stat.calls
            row["busy_s"] += stat.busy
            row["self_s"] += stat.self_time
        return table

    def wall(self) -> float:
        return self._get(ROOT).busy

    def self_sum_error(self) -> float:
        """|sum of self times - traced wall| / traced wall."""
        wall = self.wall()
        if wall <= 0:
            return 0.0
        total = sum(stat.self_time for stat in self.stats.values())
        return abs(total - wall) / wall

    def metrics(self) -> Dict[str, float]:
        """The per-layer metrics this tracer measures, by name."""
        g = self._get
        table = self.layer_table()
        out: Dict[str, float] = {}

        def span(prefix: str, name: str) -> None:
            out[prefix + ".calls"] = g(name).calls
            out[prefix + ".busy_s"] = g(name).busy

        span("service.admit", "service.admit")
        span("service.release", "service.release")
        out["service.self_s"] = table["service"]["self_s"]
        span("routing.plan", "routing.plan")
        plans = g("routing.plan").calls
        out["routing.plan.useful_ratio"] = (
            self.plans_useful / plans if plans else 0.0
        )
        out["routing.self_s"] = table["routing"]["self_s"]
        for label, bucket in (("primary_search", self.search_primary),
                              ("backup_search", self.search_backup)):
            out["kernels.{}.calls".format(label)] = bucket.calls
            out["kernels.{}.busy_s".format(label)] = bucket.busy
        span("kernels.cost_build", "kernels.cost_build")
        span("kernels.flush", "kernels.flush")
        flushes = g("kernels.flush").calls
        out["kernels.flush.links_per_call"] = (
            self.flush_links / flushes if flushes else 0.0
        )
        span("kernels.apply", "kernels.apply")
        walks = g("kernels.apply").calls
        out["kernels.apply.batched_ratio"] = (
            self.apply_batched / walks if walks else 0.0
        )
        out["kernels.self_s"] = table["kernels"]["self_s"]
        probes = g("warmstart.probe").calls
        out["warmstart.probes"] = probes
        out["warmstart.hit_ratio"] = self.warm_hits / probes if probes else 0.0
        out["warmstart.busy_s"] = table["warmstart"]["busy_s"]
        span("admission.commit", "admission.commit")
        span("admission.release", "admission.release")
        out["admission.self_s"] = table["admission"]["self_s"]
        span("signaling.register", "signaling.register")
        span("signaling.release", "signaling.release")
        out["signaling.self_s"] = table["signaling"]["self_s"]
        releases = g("service.release").calls
        out["network.max_demand.per_release"] = (
            self.max_scans_in_release / releases if releases else 0.0
        )
        span("network.publish", "network.publish")
        span("flooding.flood", "flooding.flood")
        span("flooding.select", "flooding.select")
        floods = g("flooding.flood").calls
        out["flooding.cdp_per_request"] = (
            self.cdp_transmissions / floods if floods else 0.0
        )
        out["flooding.self_s"] = table["flooding"]["self_s"]
        span("recovery.assess", "recovery.assess")
        assessed = g("recovery.assess").calls
        out["recovery.assess.affected_per_call"] = (
            self.affected / assessed if assessed else 0.0
        )
        span("analysis.snapshot", "analysis.snapshot")
        out["analysis.self_s"] = table["analysis"]["self_s"]
        span("simulation.run", "simulation.run")
        out["simulation.self_s"] = table["simulation"]["self_s"]
        out["server.self_s"] = table["server"]["self_s"]
        out["trace.spans"] = self.spans
        return out


def slab_metrics(*services) -> Dict[str, float]:
    """The slab layer's counters from ``connection_store_stats()``:
    the largest high-water mark and the pooled reuse ratio."""
    high_water = reused = allocations = 0
    for service in services:
        stats = service.connection_store_stats()
        high_water = max(high_water, stats.get("high_water", 0))
        reused += stats.get("reused_slots", 0)
        allocations += (stats.get("reused_slots", 0)
                        + stats.get("slots_allocated", 0))
    return {
        "slab.high_water": high_water,
        "slab.reused_ratio": reused / allocations if allocations else 0.0,
    }


def merge_metrics(runs: List[Dict[str, float]]) -> Dict[str, float]:
    """Mean of each metric over several traced passes."""
    if not runs:
        return {}
    return {key: sum(run[key] for run in runs) / len(runs) for key in runs[0]}


def markdown_table(tracer: Tracer, title: str) -> str:
    """The layer ledger as a markdown table: layer, calls, busy, self,
    share of wall (self time over the traced wall time)."""
    wall = tracer.wall()
    lines = [
        "# Layer ledger: {}".format(title),
        "",
        "Traced wall time: {:.3f} s. Self times sum to the wall time "
        "(relative error {:.2e}).".format(wall, tracer.self_sum_error()),
        "",
        "| layer | calls | busy (s) | self (s) | share of wall |",
        "|---|---:|---:|---:|---:|",
    ]
    for layer, row in tracer.layer_table().items():
        share = row["self_s"] / wall if wall > 0 else 0.0
        lines.append("| {} | {} | {:.4f} | {:.4f} | {:.1%} |".format(
            layer, row["calls"], row["busy_s"], row["self_s"], share,
        ))
    if tracer.missing:
        lines += ["", "Targets not present in this version: {}".format(
            ", ".join(tracer.missing))]
    return "\n".join(lines) + "\n"
