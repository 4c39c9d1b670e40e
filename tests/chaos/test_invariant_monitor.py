"""InvariantMonitor hook-level unit tests (no cluster needed)."""

from types import SimpleNamespace

import pytest

from repro.api import ClusterBuilder
from repro.core.invariants import (
    DEFAULT_TRAIL_DEPTH,
    InvariantMonitor,
    InvariantViolation,
)
from repro.networks.transfer import Transfer, TransferKind, wire_checksum
from repro.obs.hooks import EVENTS, Hooks
from repro.simtime import Resource
from repro.util.errors import ConfigurationError


def msg_stub(msg_id=1, size=4096, **kw):
    defaults = dict(
        msg_id=msg_id,
        size=size,
        src="node0",
        dest="node1",
        bytes_received=size,
        outcome=None,
        retries=0,
    )
    defaults.update(kw)
    return SimpleNamespace(**defaults)


def chunk(msg_id=1, size=4096, offset=0, seq_no=0, **kw):
    t = Transfer(
        kind=TransferKind.RDV_DATA,
        size=size,
        msg_id=msg_id,
        offset=offset,
        seq_no=seq_no,
        **kw,
    )
    t.checksum = wire_checksum(t)
    return t


class TestNullMonitor:
    """Checking off: no monitor is subscribed, every hook is inert."""

    def test_singleton_is_off(self):
        cluster = ClusterBuilder.paper_testbed().build()
        assert cluster.invariants is None
        assert cluster.hooks.subscribers == ()

    def test_every_hook_is_a_noop(self):
        hooks = Hooks()
        assert hooks.subscribers == ()
        assert all(getattr(hooks, name) is None for name in EVENTS)


class TestClockMonotonic:
    def test_backwards_clock_violates(self):
        mon = InvariantMonitor()
        msg = msg_stub()
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(), 10.0)
        with pytest.raises(InvariantViolation, match="clock-monotonic"):
            mon.on_complete(msg, 5.0)


class TestDeliveryChecks:
    def test_clean_delivery_then_complete(self):
        mon = InvariantMonitor()
        msg = msg_stub()
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(), 10.0)
        mon.on_complete(msg, 11.0)
        assert mon.checks_performed > 0

    def test_double_delivery_of_one_interval(self):
        mon = InvariantMonitor()
        msg = msg_stub()
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(seq_no=0), 10.0)
        with pytest.raises(InvariantViolation, match="chunk-exactly-once"):
            mon.on_delivery(msg, chunk(seq_no=1), 12.0)

    def test_overlapping_intervals_violate(self):
        mon = InvariantMonitor()
        msg = msg_stub(size=8192)
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(size=4096, offset=0), 10.0)
        with pytest.raises(InvariantViolation, match="chunk-bounds"):
            mon.on_delivery(msg, chunk(size=4096, offset=2048, seq_no=1), 11.0)

    def test_out_of_bounds_chunk_violates(self):
        mon = InvariantMonitor()
        msg = msg_stub(size=4096)
        mon.on_send(msg)
        with pytest.raises(InvariantViolation, match="chunk-bounds"):
            mon.on_delivery(msg, chunk(size=4096, offset=1024), 10.0)

    def test_corrupted_checksum_violates(self):
        mon = InvariantMonitor()
        msg = msg_stub()
        mon.on_send(msg)
        bad = chunk()
        bad.checksum ^= 0xBEEF
        with pytest.raises(InvariantViolation, match="chunk-checksum"):
            mon.on_delivery(msg, bad, 10.0)

    def test_incomplete_bytes_at_completion_violate(self):
        mon = InvariantMonitor()
        msg = msg_stub(size=8192)
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(size=4096, offset=0), 10.0)
        with pytest.raises(InvariantViolation, match="byte-conservation"):
            mon.on_complete(msg, 11.0)

    def test_duplicate_suppression_is_counted_not_fatal(self):
        mon = InvariantMonitor()
        msg = msg_stub()
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(), 10.0)
        mon.on_duplicate(msg, chunk(seq_no=1), 12.0)
        assert mon.duplicates_seen == 1


class TestRetryAndFaultChecks:
    def test_retry_over_budget_violates(self):
        mon = InvariantMonitor()
        msg = msg_stub(retries=4)
        old = chunk(seq_no=0)
        new = chunk(seq_no=1, retry_of=old.transfer_id)
        with pytest.raises(InvariantViolation, match="retry-bounds"):
            mon.on_retry(msg, old, new, 3, 10.0)

    def test_mismatched_retry_lineage_violates(self):
        mon = InvariantMonitor()
        msg = msg_stub(retries=1)
        old = chunk(seq_no=0)
        new = chunk(seq_no=1, retry_of=old.transfer_id + 999)
        with pytest.raises(InvariantViolation, match="retry-bounds"):
            mon.on_retry(msg, old, new, 8, 10.0)

    def test_fault_rule_order_violation(self):
        mon = InvariantMonitor()
        act = SimpleNamespace(action="down", nic="node0.myri10g0")
        mon.on_fault(3, act, 100.0)
        with pytest.raises(InvariantViolation, match="fault-rule-order"):
            mon.on_fault(1, act, 100.0)

    def test_fault_rule_order_ok_when_increasing(self):
        mon = InvariantMonitor()
        act = SimpleNamespace(action="down", nic="node0.myri10g0")
        mon.on_fault(0, act, 100.0)
        mon.on_fault(1, act, 100.0)
        mon.on_fault(0, act, 200.0)  # later instant may restart rule ids


class TestNicTxSanity:
    """Data transmissions on one NIC never overlap: the transmit
    engine is held by one eager or ``RDV_DATA`` transfer at a time."""

    NIC = SimpleNamespace(qualified_name="node0.myri10g0")
    OTHER = SimpleNamespace(qualified_name="node0.quadrics1")

    @staticmethod
    def tx(kind=TransferKind.RDV_DATA):
        return Transfer(kind=kind, size=4096, msg_id=1)

    def test_overlapping_engine_holds_violate(self):
        mon = InvariantMonitor()
        mon.on_tx(self.NIC, self.tx(TransferKind.EAGER), 0.0, 5.0)
        with pytest.raises(InvariantViolation, match="nic-tx-sanity") as info:
            mon.on_tx(self.NIC, self.tx(), 3.0, 8.0)
        assert "before the previous transmission" in info.value.detail

    def test_back_to_back_holds_and_other_nics_pass(self):
        mon = InvariantMonitor()
        mon.on_tx(self.NIC, self.tx(TransferKind.EAGER), 0.0, 5.0)
        mon.on_tx(self.OTHER, self.tx(), 2.0, 6.0)
        mon.on_tx(self.NIC, self.tx(), 5.0, 9.0)
        assert mon.checks_performed == 3

    def test_control_packets_hold_no_engine(self):
        """A control packet leaves while a DMA holds the engine; its
        zero-length interval neither violates nor ends the hold."""
        mon = InvariantMonitor()
        mon.on_tx(self.NIC, self.tx(), 0.0, 5.0)
        mon.on_tx(self.NIC, self.tx(TransferKind.RDV_ACK), 7.0, 7.0)
        mon.on_tx(self.NIC, self.tx(), 6.0, 10.0)

    def test_planted_double_held_engine_is_caught(self):
        """A NIC whose transmit engine grants every claim at once and
        never counts a holder lets two rendezvous chunks share the wire:
        the monitor fires on the intervals alone."""

        class DoubleHeld(Resource):
            def acquire(self, callback, *args):
                self.sim.call_soon(callback, 0, *args)
                return 0

            def release(self, ticket):
                pass

        cluster = (
            ClusterBuilder.paper_testbed(strategy="single_rail")
            .invariants()
            .build()
        )
        nic = cluster.engine("node0").machine.nics[0]
        nic._tx = DoubleHeld(cluster.sim, name=f"{nic.qualified_name}.tx")
        sender, receiver = cluster.sessions("node0", "node1")
        for _ in range(2):
            receiver.irecv(source="node0")
            sender.isend("node1", "1M")
        with pytest.raises(InvariantViolation, match="nic-tx-sanity") as info:
            cluster.run()
        assert info.value.detail.startswith(nic.qualified_name)

    def test_healthy_engine_passes_the_same_run(self):
        cluster = (
            ClusterBuilder.paper_testbed(strategy="single_rail")
            .invariants()
            .build()
        )
        sender, receiver = cluster.sessions("node0", "node1")
        for _ in range(2):
            receiver.irecv(source="node0")
            sender.isend("node1", "1M")
        cluster.run()
        cluster.check_drain()


class TestViolationStructure:
    def test_violation_carries_seed_schedule_and_trail(self):
        mon = InvariantMonitor()
        mon.bind_context(seed=99, schedule={"seed": 99, "events": []})
        msg = msg_stub()
        mon.on_send(msg)
        mon.on_delivery(msg, chunk(), 10.0)
        with pytest.raises(InvariantViolation) as exc_info:
            mon.on_delivery(msg, chunk(seq_no=1), 11.0)
        v = exc_info.value
        assert v.seed == 99
        assert v.schedule == {"seed": 99, "events": []}
        assert v.trail  # recent observations captured
        assert "chaos seed: 99" in v.report()
        d = v.to_dict()
        assert d["invariant"] == "chunk-exactly-once"
        assert d["seed"] == 99

    def test_trail_depth_is_bounded(self):
        mon = InvariantMonitor(trail_depth=4)
        msg = msg_stub()
        for i in range(20):
            mon.on_send(msg_stub(msg_id=i))
        assert len(mon._trail) == 4

    def test_trail_depth_below_one_is_rejected(self):
        with pytest.raises(ConfigurationError, match="trail depth"):
            InvariantMonitor(trail_depth=0)


class TestBuilderWiring:
    def test_builder_installs_monitor_everywhere(self):
        cluster = ClusterBuilder.paper_testbed().invariants().build()
        mon = cluster.invariants
        assert isinstance(mon, InvariantMonitor)
        assert cluster.hooks.subscribers == (mon,)
        for engine in cluster.engines.values():
            assert engine.hooks is cluster.hooks
            assert engine.pioman.hooks is cluster.hooks
            assert engine.predictor.hooks is cluster.hooks
        for machine in cluster.machines.values():
            for nic in machine.nics:
                assert nic.hooks is cluster.hooks

    def test_default_build_keeps_null_monitor(self):
        """Off by default: the monitor is not on the hook stream."""
        cluster = ClusterBuilder.paper_testbed().build()
        assert cluster.invariants is None
        assert not any(
            isinstance(s, InvariantMonitor) for s in cluster.hooks.subscribers
        )

    def test_config_accepts_invariants_section(self):
        """``true`` subscribes the monitor with the default trail,
        ``false`` and ``null`` leave it off."""
        from repro.api.config import load_cluster

        cluster = load_cluster(_config(True))
        assert cluster.invariants is not None
        assert cluster.invariants.trail_depth == DEFAULT_TRAIL_DEPTH
        assert load_cluster(_config(False)).invariants is None
        assert load_cluster(_config(None)).invariants is None

    def test_config_rejects_unknown_invariants_key(self):
        from repro.api.config import load_cluster

        with pytest.raises(ConfigurationError, match="ghost"):
            load_cluster(_config({"ghost": 1}))

    @pytest.mark.parametrize("section", [{"trail_depth": 16}, {}, "yes", 1])
    def test_config_section_is_a_switch(self, section):
        """A dict, even of the old ``trail_depth``, or any value but
        ``true``/``false``/``null`` is rejected."""
        from repro.api.config import load_cluster

        with pytest.raises(ConfigurationError, match="must be true or false"):
            load_cluster(_config(section))

    def test_config_rejects_strict_checksums(self):
        """Checksums are always verified; the old switch is no setting."""
        from repro.api.config import load_cluster

        with pytest.raises(ConfigurationError) as err:
            load_cluster(_config({"strict_checksums": False}))
        assert str(err.value) == (
            "'invariants' must be true or false; "
            "got {'strict_checksums': False}"
        )


def _config(invariants):
    return {
        "nodes": [{"name": "node0"}, {"name": "node1"}],
        "rails": [{"driver": "myri10g", "between": ["node0", "node1"]}],
        "invariants": invariants,
    }
