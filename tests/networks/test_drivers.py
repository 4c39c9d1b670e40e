"""Rail profile table, profile flags and calibration sanity checks.

The calibration tests pin the *model-level* targets from the paper's §IV
and the figures the ``RAIL_PROFILES`` comments state; the full measured
reproduction (through the engine, sampling and strategies) lives in
tests/core and tests/paper.
"""

import pytest

from repro.networks import RAIL_PROFILES, rail_profile
from repro.util.errors import ConfigurationError
from repro.util.units import KiB, MiB, bytes_per_us_to_mbps


class TestRegistry:
    @pytest.mark.parametrize(
        "name,technology",
        [
            ("myri10g", "myri10g"),
            ("Myri10G", "myri10g"),
            ("quadrics", "quadrics"),
            ("infiniband", "infiniband"),
            ("tcp", "tcp"),
        ],
    )
    def test_lookup(self, name, technology):
        assert rail_profile(name) is RAIL_PROFILES[technology]

    def test_unknown_name(self):
        with pytest.raises(
            ConfigurationError,
            match="unknown rail technology 'carrier-pigeon'; "
            "known: infiniband, myri10g, quadrics, tcp",
        ):
            rail_profile("carrier-pigeon")

    def test_profile_overrides(self):
        d = rail_profile("myri10g", wire_latency=9.0)
        assert d.wire_latency == 9.0
        assert rail_profile("myri10g").wire_latency != 9.0

    def test_unknown_override_named_with_known_fields(self):
        with pytest.raises(
            ConfigurationError,
            match=r"myri10g: unknown profile field\(s\) wire_latencyy; "
            "known: dma_ramp_bytes, ",
        ):
            rail_profile("myri10g", wire_latencyy=9.0)

    @pytest.mark.parametrize("value", ["fast", None, True])
    def test_non_numeric_override_named(self, value):
        with pytest.raises(ConfigurationError, match="dma_rate must be a number"):
            rail_profile("myri10g", dma_rate=value)


class TestCapabilities:
    def test_tcp_lacks_gather_scatter(self):
        assert not rail_profile("tcp").gather_scatter
        assert rail_profile("myri10g").gather_scatter


class TestAggregationCost:
    def test_gather_scatter_cost_is_per_segment(self):
        d = rail_profile("myri10g")
        assert d.aggregation_cpu_cost([1024, 1024], memcpy_rate=3000.0) == pytest.approx(0.1)

    def test_no_gather_scatter_pays_memcpy(self):
        d = rail_profile("tcp")
        cost = d.aggregation_cpu_cost([3000, 3000], memcpy_rate=3000.0)
        assert cost == pytest.approx(0.1 + 2.0)

    def test_empty_aggregation_free(self):
        assert rail_profile("myri10g").aggregation_cpu_cost([], memcpy_rate=1.0) == 0.0

    def test_negative_segment_rejected(self):
        with pytest.raises(ConfigurationError):
            rail_profile("myri10g").aggregation_cpu_cost([10, -1], memcpy_rate=1.0)


class TestCalibration:
    """Model-level targets from the paper's evaluation (§IV)."""

    def test_myri_plateau_near_1170_mbps(self):
        p = rail_profile("myri10g")
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(1170.0, rel=0.01)

    def test_quadrics_plateau_near_837_mbps(self):
        p = rail_profile("quadrics")
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(837.0, rel=0.01)

    def test_theoretical_aggregate_near_2gbps(self):
        """Paper §IV-A: 'theoretical aggregate bandwidth of ~2 GB/s'."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        agg = bytes_per_us_to_mbps(mx.dma_rate + elan.dma_rate)
        assert 1950.0 < agg < 2100.0

    def test_2mib_chunk_times_match_paper_text(self):
        """§IV-A: iso-split 4 MiB -> Myri 2 MiB ~1730 us, Quadrics ~2400 us."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        assert mx.rdv_data_oneway(2 * MiB) == pytest.approx(1730.0, rel=0.02)
        assert elan.rdv_data_oneway(2 * MiB) == pytest.approx(2400.0, rel=0.02)

    def test_iso_split_idle_gap_near_670_us(self):
        """§IV-A: under iso-split the Myri rail idles ~670 us."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        gap = elan.rdv_data_oneway(2 * MiB) - mx.rdv_data_oneway(2 * MiB)
        assert gap == pytest.approx(670.0, abs=40.0)

    def test_quadrics_has_lower_zero_byte_latency(self):
        """QsNetII beats MX on tiny messages (visible in Figs. 3 and 9)."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        assert elan.eager_oneway(4) < mx.eager_oneway(4)

    def test_myri_has_faster_eager_rate(self):
        """...but MX streams medium eager messages faster."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        assert mx.eager_oneway(64 * 1024) < elan.eager_oneway(64 * 1024)

    def test_64kib_eager_sends(self):
        """The 64 KiB eager times the MX and Elan comments state."""
        mx, elan = rail_profile("myri10g"), rail_profile("quadrics")
        assert mx.eager_oneway(64 * KiB) == pytest.approx(66.5, abs=0.05)
        assert elan.eager_oneway(64 * KiB) == pytest.approx(89.1, abs=0.05)

    def test_infiniband_figures(self):
        """The Verbs comment's figures, at its precision."""
        p = rail_profile("infiniband")
        assert p.eager_oneway(4) == pytest.approx(3.70, abs=0.005)
        assert p.control_oneway() == pytest.approx(2.80, abs=0.005)
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(1425.7, abs=0.05)

    def test_tcp_figures(self):
        """The TCP comment's figures, at its precision."""
        p = rail_profile("tcp")
        assert p.eager_oneway(4) == pytest.approx(30.0, abs=0.05)
        assert p.control_oneway() == pytest.approx(27.0, abs=0.05)
        bw = bytes_per_us_to_mbps(8 * MiB / p.rdv_oneway(8 * MiB))
        assert bw == pytest.approx(112.1, abs=0.05)

    def test_tcp_is_order_of_magnitude_slower(self):
        tcp, mx = rail_profile("tcp"), rail_profile("myri10g")
        assert tcp.dma_rate < mx.dma_rate / 8
        assert tcp.eager_oneway(4) > 5 * mx.eager_oneway(4)
