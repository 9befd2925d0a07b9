"""Batched signaling apply vs. the per-hop walk — exact equivalence.

The batched commit path (:mod:`repro.kernels.apply`) promises
*bit-identical* observable behavior to the legacy per-hop register /
release / reserve loops: same decisions, same ``rejected_link``, same
``hops_signaled``, same resize outcomes, same ``NetworkState``
fingerprints — and same ledger ``version`` counters, which the
compiled cost caches key on.  These tests run both modes in lockstep
(:func:`~repro.kernels.apply.set_batch_apply` toggles the path at
runtime) and compare after every operation.

The fault-injected walk intentionally stays per-hop; the mid-walk
fault cases here pin the interop instead: registrations committed by
the batched path must unwind through the legacy
``repro.faults``-driven crash/unwind machinery to the pristine
fingerprint.
"""

import random
from contextlib import contextmanager

import pytest

from repro.core import (
    BackupRegisterPacket,
    DedicatedSparePolicy,
    DRTPService,
    SharedSparePolicy,
    register_backup_path,
)
from repro.core.multiplexing import GroupAwareSparePolicy
from repro.core.signaling import release_backup_path
from repro.kernels.apply import (
    batch_apply_enabled,
    batch_register_walk,
    set_batch_apply,
)
from repro.network import NetworkState
from repro.network.state import BW_EPSILON
from repro.routing import DLSRScheme
from repro.topology import Route, mesh_conduit_groups, mesh_network

ROWS, COLS = 4, 4


class ScriptedInjector:
    """Deterministic injector (same shape as the one in
    ``test_signaling_unwind``): per-hop events and per-attempt crashes
    come from scripts instead of random draws."""

    def __init__(self, hop_events=(), crash_script=()):
        self._hop_events = list(hop_events)
        self._crash_script = list(crash_script)
        self.retry_rng = random.Random(0)

    def sample_hop(self):
        if self._hop_events:
            return self._hop_events.pop(0)
        return (None, 0.0)

    def crash_hop(self, hops):
        if self._crash_script:
            crash_at = self._crash_script.pop(0)
            if crash_at is not None and crash_at >= hops:
                raise AssertionError("crash scripted past route end")
            return crash_at
        return None


@contextmanager
def batching(flag):
    previous = set_batch_apply(flag)
    try:
        yield
    finally:
        set_batch_apply(previous)


def _random_packet(net, rng, conn_id, bw=1.0):
    """A register packet whose backup route is a random simple walk."""
    nodes = [rng.randrange(net.num_nodes)]
    seen = {nodes[0]}
    for _ in range(rng.randint(2, 6)):
        neighbors = [
            n for n in net.neighbors(nodes[-1]) if n not in seen
        ]
        if not neighbors:
            break
        nxt = rng.choice(neighbors)
        nodes.append(nxt)
        seen.add(nxt)
    if len(nodes) < 2:
        nodes = [0, 1]
    backup = Route.from_nodes(net, nodes)
    # Primary LSET: a couple of random links elsewhere in the network.
    lset = frozenset(
        rng.randrange(net.num_links) for _ in range(rng.randint(1, 4))
    )
    return BackupRegisterPacket(
        connection_id=conn_id,
        backup_route=backup,
        primary_lset=lset,
        bw_req=bw,
    )


def _versions(state):
    return [ledger.version for ledger in state.ledgers()]


def _check_maxima(state, coverage):
    """Every ledger's cached demand maxima (raw pair first, then the
    resolved properties) must equal a fresh scan of its demand maps."""
    for ledger in state.ledgers():
        ledger.check_invariants()
        assert ledger.max_demand == max(ledger._demand.values(), default=0.0)
        if state.risk_groups is not None:
            assert ledger.max_group_demand == max(
                ledger._group_demand.values(), default=0.0
            )
        coverage["ties"] = max(coverage["ties"], ledger._demand_ties)


def _residue_deletions(state, pkt):
    """Demand entries this release will delete at ``BW_EPSILON`` while
    still holding a nonzero float residue."""
    return sum(
        1
        for link_id in pkt.backup_route.link_ids
        for pos in pkt.primary_lset
        if 0.0
        < state.ledger(link_id)._demand.get(pos, 0.0) - pkt.bw_req
        <= BW_EPSILON
    )


def _run_script(net, policy_factory, script, batched, groups=None):
    """Replay a register/release script against a fresh state, checking
    the demand maxima after every step; returns the per-step results,
    the final fingerprint and versions, the per-link group tables and
    what the script exercised (largest tie count, residue deletions)."""
    state = NetworkState(net)
    if groups is not None:
        state.install_risk_groups(groups)
    policy = policy_factory()
    outcomes = []
    coverage = {"ties": 0, "residues": 0}
    with batching(batched):
        for op, pkt in script:
            if op == "register":
                result = register_backup_path(state, policy, pkt)
                outcomes.append(
                    (
                        result.success,
                        result.rejected_link,
                        result.hops_signaled,
                        tuple(result.resizes),
                    )
                )
            else:
                coverage["residues"] += _residue_deletions(state, pkt)
                outcomes.append(
                    tuple(release_backup_path(state, policy, pkt))
                )
            _check_maxima(state, coverage)
    tables = [
        (
            ledger.group_aplv_l1(),
            ledger.group_support(),
            ledger.max_group_demand,
        )
        for ledger in state.ledgers()
    ]
    return outcomes, state.fingerprint(), _versions(state), tables, coverage


def _script(net, num_ops, capacity_pressure_bw=1.0, seed=11, bws=None,
            teardown=False):
    """A seeded churn script: registrations interleaved with releases
    of still-live packets.  ``bws`` draws each packet's bandwidth from
    a list instead; ``teardown`` releases every packet still live at
    the end."""
    rng = random.Random(seed)
    script = []
    live = []
    for conn_id in range(num_ops):
        bw = rng.choice(bws) if bws else capacity_pressure_bw
        pkt = _random_packet(net, rng, conn_id, bw=bw)
        script.append(("register", pkt))
        live.append(pkt)
        if live and rng.random() < 0.35:
            victim = live.pop(rng.randrange(len(live)))
            script.append(("release", victim))
    if teardown:
        rng.shuffle(live)
        script.extend(("release", pkt) for pkt in live)
    return script


#: Fractional bandwidths whose sums tie or miss each other in the last
#: bit (0.1 + 0.2 != 0.3) and leave float residues on release.
FRACTIONAL_BWS = (0.1, 0.2, 0.3)


class TestWalkEquivalence:
    @pytest.mark.parametrize(
        "policy_factory",
        [SharedSparePolicy, DedicatedSparePolicy],
        ids=["shared", "dedicated"],
    )
    def test_register_release_script_lockstep(self, policy_factory):
        """Every step outcome (success flag, rejected hop, signaled
        hops, resize list) and the final fingerprint + version vector
        match between the batched and per-hop modes."""
        net = mesh_network(ROWS, COLS, 8.0)
        script = _script(net, 40)
        batched = _run_script(net, policy_factory, script, True)
        per_hop = _run_script(net, policy_factory, script, False)
        assert batched == per_hop

    def test_rejection_script_lockstep(self):
        """Under capacity pressure rejections appear mid-walk; the
        rejecting hop and the untouched state must match exactly."""
        net = mesh_network(ROWS, COLS, 3.0)
        script = _script(net, 60, capacity_pressure_bw=2.0)
        batched = _run_script(net, SharedSparePolicy, script, True)
        per_hop = _run_script(net, SharedSparePolicy, script, False)
        assert batched == per_hop
        rejected = [
            step
            for step in batched[0]
            if len(step) == 4 and step[1] is not None
        ]
        assert rejected, "pressure script must actually reject"

    @pytest.mark.parametrize(
        "policy_factory",
        [SharedSparePolicy, DedicatedSparePolicy],
        ids=["shared", "dedicated"],
    )
    def test_fractional_bandwidth_lockstep(self, policy_factory):
        """Fractional bandwidths make demand sums tie exactly or differ
        in the last bit; the cached maxima must follow a fresh scan."""
        net = mesh_network(ROWS, COLS, 8.0)
        script = _script(net, 80, seed=17, bws=FRACTIONAL_BWS)
        batched = _run_script(net, policy_factory, script, True)
        per_hop = _run_script(net, policy_factory, script, False)
        assert batched == per_hop
        assert batched[4]["ties"] >= 2, "script must produce ties"

    @pytest.mark.parametrize(
        "policy_factory",
        [SharedSparePolicy, DedicatedSparePolicy],
        ids=["shared", "dedicated"],
    )
    def test_epsilon_deletion_teardown_lockstep(self, policy_factory):
        """Releasing every backup drives demand entries through the
        ``BW_EPSILON`` deletion with float residues left by fractional
        sums; the ledgers must end exactly pristine in both modes."""
        net = mesh_network(ROWS, COLS, 8.0)
        script = _script(net, 60, seed=19, bws=FRACTIONAL_BWS, teardown=True)
        batched = _run_script(net, policy_factory, script, True)
        per_hop = _run_script(net, policy_factory, script, False)
        assert batched == per_hop
        assert batched[4]["residues"] > 0, "script must leave residues"
        assert batched[1] == NetworkState(net).fingerprint()

    def test_rejection_mutates_nothing(self):
        """A batched rejection is validate-only: fingerprint and
        versions are byte-identical to before the attempt."""
        net = mesh_network(ROWS, COLS, 1.0)
        state = NetworkState(net)
        policy = SharedSparePolicy()
        route = Route.from_nodes(net, [0, 1, 2, 3])
        blocker = BackupRegisterPacket(
            connection_id=1,
            backup_route=route,
            primary_lset=frozenset([20]),
            bw_req=1.0,
        )
        doomed_route = Route.from_nodes(net, [4, 5, 6, 2, 1])
        # A primary reservation mid-route starves the third hop:
        # backup headroom there drops to 0.5 < 0.75.
        state.ledger(doomed_route.link_ids[2]).reserve_primary(0.5)
        with batching(True):
            assert register_backup_path(state, policy, blocker).success
            before = (state.fingerprint(), _versions(state))
            doomed = BackupRegisterPacket(
                connection_id=2,
                backup_route=doomed_route,
                primary_lset=frozenset([21]),
                bw_req=0.75,
            )
            result = register_backup_path(state, policy, doomed)
        assert not result.success
        assert result.rejected_link == doomed_route.link_ids[2]
        assert result.hops_signaled == 3
        assert (state.fingerprint(), _versions(state)) == before

    def test_duplicate_key_falls_back_to_per_hop_error(self):
        """An already-registered key voids the batch precondition; both
        modes must surface the identical per-hop exception."""
        net = mesh_network(ROWS, COLS, 8.0)
        outcomes = []
        for flag in (True, False):
            state = NetworkState(net)
            policy = SharedSparePolicy()
            pkt = BackupRegisterPacket(
                connection_id=1,
                backup_route=Route.from_nodes(net, [0, 1, 2]),
                primary_lset=frozenset([30]),
                bw_req=1.0,
            )
            with batching(flag):
                assert register_backup_path(state, policy, pkt).success
                with pytest.raises(Exception) as excinfo:
                    register_backup_path(state, policy, pkt)
            outcomes.append((type(excinfo.value), str(excinfo.value)))
        assert outcomes[0] == outcomes[1]

    def test_disabled_gate_returns_none(self):
        """``set_batch_apply(False)`` short-circuits every batch entry
        point (the paired benchmark's A/B switch)."""
        net = mesh_network(ROWS, COLS, 8.0)
        state = NetworkState(net)
        with batching(False):
            assert not batch_apply_enabled()
            assert (
                batch_register_walk(
                    state,
                    SharedSparePolicy(),
                    1,
                    (0, 1),
                    frozenset([5]),
                    1.0,
                )
                is None
            )
        previous = set_batch_apply(True)
        set_batch_apply(previous)


class TestGroupAccounting:
    def test_srlg_script_lockstep(self):
        """With risk groups installed the fused loop also maintains the
        per-group APLV/demand tables; lockstep over a churn script and
        a fractional-bandwidth teardown."""
        net = mesh_network(ROWS, COLS, 8.0)
        groups = mesh_conduit_groups(net, ROWS, COLS)
        for script in (
            _script(net, 40, seed=13),
            _script(net, 60, seed=29, bws=FRACTIONAL_BWS, teardown=True),
        ):
            batched = _run_script(
                net, GroupAwareSparePolicy, script, True, groups
            )
            per_hop = _run_script(
                net, GroupAwareSparePolicy, script, False, groups
            )
            assert batched == per_hop


class TestServiceLockstep:
    def test_admission_churn_fingerprints_match(self):
        """Full-service lockstep: admissions, releases and a fail /
        repair cycle produce the same decisions, counters and
        fingerprints in both modes (primary reservation and release
        ride the batched path here too)."""

        def run(batched):
            net = mesh_network(5, 5, 6.0)
            service = DRTPService(net, DLSRScheme())
            rng = random.Random(23)
            log = []
            live = []
            with batching(batched):
                for _ in range(80):
                    src, dst = rng.sample(range(net.num_nodes), 2)
                    decision = service.request(src, dst, 1.0)
                    log.append((decision.accepted, decision.reason))
                    if decision.connection is not None:
                        live.append(decision.connection.connection_id)
                    if live and rng.random() < 0.3:
                        service.release(live.pop(0))
                    log.append(service.state.fingerprint())
                impact = service.fail_link(0)
                log.append(
                    tuple(
                        (o.connection_id, o.success, o.reason)
                        for o in impact.outcomes
                    )
                )
                service.repair_link(0)
                log.append(service.state.fingerprint())
            return (
                log,
                service.counters.accepted,
                service.counters.rejected,
            )

        assert run(True) == run(False)


class TestFaultInterop:
    def test_crash_unwinds_batched_survivor_intact(self):
        """A per-hop crash/unwind cycle (the fault path never batches)
        must coexist with registrations committed by the batched path:
        the survivor's state is untouched and the crashed walk leaves
        the fingerprint where it started."""
        net = mesh_network(3, 3, 10.0)
        state = NetworkState(net)
        policy = SharedSparePolicy()
        survivor = BackupRegisterPacket(
            connection_id=1,
            backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
            primary_lset=Route.from_nodes(net, [0, 1, 2]).lset,
            bw_req=1.0,
        )
        with batching(True):
            result = register_backup_path(state, policy, survivor)
            assert result.success
            with_survivor = (state.fingerprint(), _versions(state))
            doomed = BackupRegisterPacket(
                connection_id=2,
                backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
                primary_lset=Route.from_nodes(net, [0, 1, 2]).lset,
                bw_req=1.0,
            )
            last_hop = len(doomed.backup_route.link_ids) - 1
            injector = ScriptedInjector(crash_script=[last_hop])
            crashed = register_backup_path(
                state, policy, doomed, injector, retry_policy=None
            )
            assert not crashed.success and crashed.crashes == 1
            # Fingerprints exclude version counters, so the unwound
            # state must land exactly back on the survivor-only print.
            assert state.fingerprint() == with_survivor[0]
            for link_id in survivor.backup_route.link_ids:
                assert state.ledger(link_id).has_backup(1)
            # And the batched release still tears the survivor down to
            # the pristine fingerprint.
            pristine_state = NetworkState(net)
            release_backup_path(state, policy, survivor)
            assert state.fingerprint() == pristine_state.fingerprint()

    def test_mid_walk_fault_then_batched_retry_equivalence(self):
        """A drop mid-walk (per-hop unwind) followed by a clean retry
        lands on the same fingerprint whether the clean walks around it
        committed batched or per-hop."""

        def run(batched):
            net = mesh_network(3, 3, 10.0)
            state = NetworkState(net)
            policy = SharedSparePolicy()
            with batching(batched):
                first = BackupRegisterPacket(
                    connection_id=1,
                    backup_route=Route.from_nodes(net, [0, 1, 4, 7]),
                    primary_lset=frozenset([0]),
                    bw_req=1.0,
                )
                assert register_backup_path(state, policy, first).success
                faulty = BackupRegisterPacket(
                    connection_id=2,
                    backup_route=Route.from_nodes(net, [0, 3, 4, 5, 2]),
                    primary_lset=frozenset([1]),
                    bw_req=1.0,
                )
                injector = ScriptedInjector(
                    hop_events=[(None, 0.0), (None, 0.0), ("drop", 0.0)]
                )
                dropped = register_backup_path(
                    state, policy, faulty, injector, retry_policy=None
                )
                assert not dropped.success and dropped.drops == 1
                # Clean (fault-free) retry takes the batched path again.
                retry = register_backup_path(state, policy, faulty)
                assert retry.success
            return state.fingerprint(), _versions(state)

        assert run(True) == run(False)
