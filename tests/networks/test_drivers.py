"""Driver registry, capabilities and calibration sanity checks.

The calibration tests pin the *model-level* targets from the paper's §IV;
the full measured reproduction (through the engine, sampling and
strategies) lives in tests/core and tests/paper.
"""

import pytest

from repro.networks import (
    ElanDriver,
    MxDriver,
    Paradigm,
    TcpDriver,
    VerbsDriver,
    make_driver,
)
from repro.util.errors import ConfigurationError
from repro.util.units import MiB, bytes_per_us_to_mbps


class TestRegistry:
    @pytest.mark.parametrize(
        "name,cls",
        [
            ("myri10g", MxDriver),
            ("MX", MxDriver),
            ("quadrics", ElanDriver),
            ("elan", ElanDriver),
            ("infiniband", VerbsDriver),
            ("tcp", TcpDriver),
        ],
    )
    def test_lookup(self, name, cls):
        assert isinstance(make_driver(name), cls)

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="unknown driver"):
            make_driver("carrier-pigeon")

    def test_profile_overrides(self):
        d = make_driver("myri10g", wire_latency=9.0)
        assert d.profile.wire_latency == 9.0
        assert MxDriver().profile.wire_latency != 9.0

    def test_profile_name_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MxDriver(profile=ElanDriver().profile)


class TestCapabilities:
    def test_mx_is_message_passing(self):
        caps = MxDriver().capabilities()
        assert caps.paradigm is Paradigm.MESSAGE_PASSING
        assert caps.gather_scatter

    def test_elan_is_rdma(self):
        assert ElanDriver().capabilities().paradigm is Paradigm.RDMA

    def test_tcp_lacks_gather_scatter(self):
        assert not TcpDriver().capabilities().gather_scatter


class TestAggregationCost:
    def test_gather_scatter_cost_is_per_segment(self):
        d = MxDriver()
        assert d.aggregation_cpu_cost([1024, 1024], memcpy_rate=3000.0) == pytest.approx(0.1)

    def test_no_gather_scatter_pays_memcpy(self):
        d = TcpDriver()
        cost = d.aggregation_cpu_cost([3000, 3000], memcpy_rate=3000.0)
        assert cost == pytest.approx(0.1 + 2.0)

    def test_empty_aggregation_free(self):
        assert MxDriver().aggregation_cpu_cost([], memcpy_rate=1.0) == 0.0

    def test_negative_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            MxDriver().aggregation_cpu_cost([10, -1], memcpy_rate=1.0)

    def test_fits_aggregation_bounds(self):
        d = MxDriver()
        assert d.fits_aggregation(1024)
        assert not d.fits_aggregation(d.profile.max_aggregation + 1)
        assert not d.fits_aggregation(-1)


class TestCalibration:
    """Model-level targets from the paper's evaluation (§IV)."""

    def test_myri_plateau_near_1170_mbps(self):
        p = MxDriver().profile
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(1170.0, rel=0.01)

    def test_quadrics_plateau_near_837_mbps(self):
        p = ElanDriver().profile
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(837.0, rel=0.01)

    def test_theoretical_aggregate_near_2gbps(self):
        """Paper §IV-A: 'theoretical aggregate bandwidth of ~2 GB/s'."""
        mx, elan = MxDriver().profile, ElanDriver().profile
        agg = bytes_per_us_to_mbps(mx.dma_rate + elan.dma_rate)
        assert 1950.0 < agg < 2100.0

    def test_2mib_chunk_times_match_paper_text(self):
        """§IV-A: iso-split 4 MiB -> Myri 2 MiB ~1730 us, Quadrics ~2400 us."""
        mx, elan = MxDriver().profile, ElanDriver().profile
        assert mx.rdv_data_oneway(2 * MiB) == pytest.approx(1730.0, rel=0.02)
        assert elan.rdv_data_oneway(2 * MiB) == pytest.approx(2400.0, rel=0.02)

    def test_iso_split_idle_gap_near_670_us(self):
        """§IV-A: under iso-split the Myri rail idles ~670 us."""
        mx, elan = MxDriver().profile, ElanDriver().profile
        gap = elan.rdv_data_oneway(2 * MiB) - mx.rdv_data_oneway(2 * MiB)
        assert gap == pytest.approx(670.0, abs=40.0)

    def test_quadrics_has_lower_zero_byte_latency(self):
        """QsNetII beats MX on tiny messages (visible in Figs. 3 and 9)."""
        assert ElanDriver().profile.eager_oneway(4) < MxDriver().profile.eager_oneway(4)

    def test_myri_has_faster_eager_rate(self):
        """...but MX streams medium eager messages faster."""
        mx, elan = MxDriver().profile, ElanDriver().profile
        assert mx.eager_oneway(64 * 1024) < elan.eager_oneway(64 * 1024)

    def test_tcp_is_order_of_magnitude_slower(self):
        tcp, mx = TcpDriver().profile, MxDriver().profile
        assert tcp.dma_rate < mx.dma_rate / 8
        assert tcp.eager_oneway(4) > 5 * mx.eager_oneway(4)
