"""Unit tests for NetworkProfile cost arithmetic and validation."""

import pytest

from repro.networks import NetworkProfile
from repro.util.errors import ConfigurationError


def make_profile(**overrides):
    base = dict(
        name="testnet",
        wire_latency=1.0,
        pio_rate=2000.0,
        recv_copy_rate=2000.0,
        pio_setup=0.5,
        recv_setup=0.5,
        post_overhead=0.5,
        poll_detect=1.0,
        dma_rate=1000.0,
        rdv_setup=0.5,
        eager_limit=65536,
    )
    base.update(overrides)
    return NetworkProfile(**base)


class TestCostArithmetic:
    def test_eager_send_cpu(self):
        p = make_profile()
        # post 0.5 + setup 0.5 + 2000B at 2000 B/us
        assert p.eager_send_cpu(2000) == pytest.approx(2.0)

    def test_eager_recv_cpu(self):
        p = make_profile()
        assert p.eager_recv_cpu(2000) == pytest.approx(2.5)

    def test_eager_oneway_is_sum_of_stages(self):
        p = make_profile()
        s = 4096
        assert p.eager_oneway(s) == pytest.approx(
            p.eager_send_cpu(s) + p.wire_latency + p.eager_recv_cpu(s)
        )

    def test_control_oneway(self):
        p = make_profile()
        assert p.control_oneway() == pytest.approx(0.5 + 1.0 + 1.0)

    def test_rdv_nic_time(self):
        p = make_profile()
        assert p.rdv_nic_time(10_000) == pytest.approx(10.0)

    def test_rdv_oneway_includes_handshake(self):
        p = make_profile()
        s = 1 << 20
        assert p.rdv_oneway(s) == pytest.approx(
            2 * p.control_oneway() + p.rdv_data_oneway(s)
        )

    def test_rdv_oneway_grows_linearly(self):
        p = make_profile()
        t1, t2 = p.rdv_oneway(1 << 20), p.rdv_oneway(1 << 21)
        assert t2 - t1 == pytest.approx((1 << 20) / p.dma_rate)

    def test_zero_size_costs_are_fixed_overheads(self):
        p = make_profile()
        assert p.eager_send_cpu(0) == pytest.approx(1.0)
        assert p.rdv_nic_time(0) == 0.0


class TestValidation:
    @pytest.mark.parametrize("field", ["pio_rate", "recv_copy_rate", "dma_rate"])
    def test_nonpositive_rates_rejected(self, field):
        with pytest.raises(ConfigurationError):
            make_profile(**{field: 0.0})

    @pytest.mark.parametrize(
        "field", ["wire_latency", "pio_setup", "post_overhead", "poll_detect"]
    )
    def test_negative_costs_rejected(self, field):
        with pytest.raises(ConfigurationError):
            make_profile(**{field: -0.1})

    def test_zero_eager_limit_rejected(self):
        with pytest.raises(ConfigurationError):
            make_profile(eager_limit=0)

    def test_negative_size_rejected(self):
        p = make_profile()
        with pytest.raises(ConfigurationError):
            p.eager_oneway(-1)

    def test_with_overrides_returns_new_frozen_copy(self):
        p = make_profile()
        q = p.with_overrides(wire_latency=9.0)
        assert q.wire_latency == 9.0
        assert p.wire_latency == 1.0
        with pytest.raises(Exception):
            q.wire_latency = 0.0  # frozen
